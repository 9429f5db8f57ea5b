#!/usr/bin/env bash
# Runs one `perf` workload as alternating pairs of a parent and a change
# binary, then prints per end-to-end metric of BENCHMARK.json: each
# side's first quartile, median and third quartile, the change of the
# median relative to the parent's, in how many pairs the change was
# better (ties count for neither side), and whether the pairs carry a
# claim of a gain: the change won at least 9 in 10 of the pairs and its
# median is better than the parent's by more than the parent's
# quartile spread (Q3 - Q1). It also counts the runs that reported
# `"correct": true` and sums their `failed` operations.
#
# Each run is `BIN --workload W --seed SEED --seconds 20 --trace 0`, the
# benchmark's own run length. Pair k runs the parent first when k is
# even and the change first when k is odd, so a drift of the host's
# speed falls on both sides alike. A run that prints no result line
# counts as not correct. Quartiles interpolate linearly between order
# statistics. Build both binaries first, e.g.
#   cargo build --release --offline --manifest-path crates/bench/src/bin/perf/Cargo.toml
# in each checkout, each with its own CARGO_TARGET_DIR.
#
# Usage: scripts/perf_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [SEED]
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [SEED]" >&2
    exit 2
fi
parent="$1" change="$2" workload="$3" pairs="$4" seed="${5:-1}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
results="$(mktemp)"
trap 'rm -f "$results"' EXIT

run() {
    local line
    line="$("$2" --workload "$workload" --seed "$seed" --seconds 20 --trace 0 | tail -n 1)" || true
    echo "$1 $line" >>"$results"
    echo "pair $k $1: $line" >&2
}

for ((k = 0; k < pairs; k++)); do
    if ((k % 2 == 0)); then
        run parent "$parent"
        run change "$change"
    else
        run change "$change"
        run parent "$parent"
    fi
done

awk -v workload="$workload" -v seed="$seed" '
    # BENCHMARK.json: the end-to-end metrics, their direction and bound.
    FNR == NR {
        if ($0 ~ /"end_to_end"/) { section = 1; next }
        if (section && $0 ~ /^[ \t]*\]/) { section = 0 }
        if (section && match($0, /"name": "[^"]*"/)) {
            name = substr($0, RSTART + 9, RLENGTH - 10)
            names[++metrics] = name
            better[name] = ($0 ~ /"better": "higher"/) ? "higher" : "lower"
            if (match($0, /"bound": [0-9.]+/)) bound[name] = substr($0, RSTART + 9, RLENGTH - 9)
        }
        next
    }
    # One result line per run, prefixed with its side.
    {
        side = $1
        runs[side]++
        if ($0 ~ /"correct": true/) correct[side]++
        if (match($0, /"failed": [0-9]+/)) failed[side] += substr($0, RSTART + 10, RLENGTH - 10)
        for (m = 1; m <= metrics; m++) {
            key = "\"" names[m] "\": {\"value\": "
            at = index($0, key)
            if (at == 0) continue
            rest = substr($0, at + length(key))
            match(rest, /^[-0-9.eE+]+/)
            v[side, names[m], runs[side]] = substr(rest, RSTART, RLENGTH) + 0
            has[side, names[m], runs[side]] = 1
        }
    }
    # Quantile p of the n values in s[1..n], sorted in place.
    function quantile(s, n, p,    i, j, t, h, lo) {
        for (i = 2; i <= n; i++) {
            t = s[i]
            for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
            s[j + 1] = t
        }
        h = (n - 1) * p + 1
        lo = int(h)
        return lo >= n ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
    }
    function collect(side, name, out,    i, n) {
        n = 0
        for (i = 1; i <= runs[side]; i++) if ((side, name, i) in has) out[++n] = v[side, name, i]
        return n
    }
    END {
        printf "%s seed %s: %d pairs\n", workload, seed, runs["parent"]
        printf "%-12s %10s %10s %10s  %10s %10s %10s %8s %6s %5s %5s\n", "metric", "parent Q1", "median", "Q3", "change Q1", "median", "Q3", "change", "bound", "wins", "claim"
        for (m = 1; m <= metrics; m++) {
            name = names[m]
            split("", p); split("", c)
            np = collect("parent", name, p)
            nc = collect("change", name, c)
            wins = 0
            for (i = 1; i <= runs["parent"] && i <= runs["change"]; i++) {
                if (!(("parent", name, i) in has) || !(("change", name, i) in has)) continue
                a = v["parent", name, i]; b = v["change", name, i]
                if ((better[name] == "higher" && b > a) || (better[name] == "lower" && b < a)) wins++
            }
            if (np == 0 || nc == 0) { printf "%-12s %12s\n", name, "no values"; continue }
            p1 = quantile(p, np, 0.25); mp = quantile(p, np, 0.5); p3 = quantile(p, np, 0.75)
            c1 = quantile(c, nc, 0.25); mc = quantile(c, nc, 0.5); c3 = quantile(c, nc, 0.75)
            rel = mp == 0 ? 0 : 100 * (mc - mp) / mp
            gain = better[name] == "higher" ? mc - mp : mp - mc
            claim = (10 * wins >= 9 * runs["parent"] && gain > p3 - p1) ? "yes" : "no"
            printf "%-12s %10.4g %10.4g %10.4g  %10.4g %10.4g %10.4g %+7.1f%% %5.0f%% %2d/%-2d %5s\n", name, p1, mp, p3, c1, mc, c3, rel, 100 * bound[name], wins, runs["parent"], claim
        }
        for (s = 1; s <= 2; s++) {
            side = s == 1 ? "parent" : "change"
            printf "%s: %d of %d runs correct, %d failed operations\n", side, correct[side], runs[side], failed[side]
        }
    }
' "$root/BENCHMARK.json" "$results"
