#!/usr/bin/env bash
# Prints the settable values of the library's configuration structs:
# for each `pub struct` whose name ends in `Config`, `Options` or
# `Policy`, one line `FILE:LINE NAME FIELDS` with the number of its `pub`
# fields, then their total. Each such field is a value a caller can set
# independently, so each one doubles the configurations that tests and
# benchmarks must cover. Library code is every `.rs` file under a `src/`
# directory of `crates/`, up to the first `#[cfg(test)]` that starts at
# column 0 of its file; files under `tests/`, the `perf` benchmark
# (`crates/bench/src/bin/perf/`) and everything under a `target/`
# directory are skipped. rb-hpo's `Config` is a trial's hyperparameter
# assignment, not a set of knobs, and is skipped too.
#
# Usage: scripts/knob_probe.sh [DIR]   (default: the repository root)
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

mapfile -t files < <(
    find crates -name target -prune -o -type f -path '*/src/*' -name '*.rs' -print \
        | grep -v '/tests/' | grep -v '^crates/bench/src/bin/perf/' | sort
)

awk '
    FNR == 1 { live = 1; depth = 0; name = "" }
    /^#\[cfg\(test\)\]/ { live = 0 }
    !live { next }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        if (name == "" && match(line, /^[ \t]*pub struct [A-Za-z_][A-Za-z0-9_]*/)) {
            cand = substr(line, RSTART, RLENGTH)
            sub(/.*pub struct /, "", cand)
            hpo = (FILENAME ~ /^crates\/hpo\// && cand == "Config")
            if (cand ~ /(Config|Options|Policy)$/ && !hpo && line ~ /\{/) {
                name = cand
                where = FILENAME ":" FNR
                fields = 0
                depth = 0
            }
        }
        if (name == "") next
        if (depth == 1 && line ~ /^[ \t]*pub [A-Za-z_][A-Za-z0-9_]*[ \t]*:/) fields++
        opens = gsub(/\{/, "{", line)
        closes = gsub(/\}/, "}", line)
        depth += opens - closes
        if (depth == 0) {
            printf "%s %s %d\n", where, name, fields
            total += fields
            name = ""
        }
    }
    END { printf "settable values: %d\n", total }
' "${files[@]}"
