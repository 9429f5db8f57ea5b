#!/usr/bin/env bash
# Offline verification gate: build, test, bench smoke, dependency guard.
#
# The container has no network access to crates.io, so everything must
# build with `--offline` and no workspace manifest may depend on
# anything outside the workspace. Run from anywhere; operates on the
# repo root.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"

echo "== guard: no non-path dependencies in workspace manifests =="
# Every [dependencies]/[dev-dependencies] entry must resolve inside the
# workspace (`workspace = true` or `path = ...`). A bare version string
# (e.g. `rand = "0.8"`) would need the registry and must not appear.
bad=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # Lines inside dependency tables that neither inherit from the
    # workspace nor point at a path.
    offenders=$(awk '
        /^\[/ { in_deps = ($0 ~ /dependencies\]$/) }
        in_deps && /^[A-Za-z0-9_-]+[ \t]*=/ \
            && $0 !~ /workspace[ \t]*=[ \t]*true/ \
            && $0 !~ /path[ \t]*=/ { print FILENAME ": " $0 }
    ' "$manifest")
    if [ -n "$offenders" ]; then
        echo "$offenders"
        bad=1
    fi
done
if [ "$bad" -ne 0 ]; then
    echo "FAIL: found dependencies that would require the registry" >&2
    exit 1
fi
echo "ok"

echo "== build (release, offline) =="
cargo build --release --offline

echo "== tests =="
cargo test -q --offline

echo "== bench smoke =="
# Smoke runs print their reports instead of writing BENCH_*.json, so the
# committed full-run numbers are never replaced by 1-iteration ones.
bench_out=$(cargo run -p rb-bench --release --offline --bin bench -- --smoke)
echo "$bench_out"
echo "$bench_out" | grep -q '"jobs_per_sec"' \
    || { echo "FAIL: bench smoke reported no serve jobs_per_sec"; exit 1; }

echo "== churn smoke (alloc counter + thread-count determinism) =="
churn_out=$(cargo run -p rb-bench --release --offline --features alloc-counter --bin bench -- --churn --smoke)
echo "$churn_out"
echo "$churn_out" | grep -q "alloc-counter: warm predict allocations over 32 calls: 0" \
    || { echo "FAIL: warm predict path allocated"; exit 1; }
echo "$churn_out" | grep -q "plan selection identical across thread counts: true" \
    || { echo "FAIL: churn selection diverged across thread counts"; exit 1; }
echo "$churn_out" | grep -q '"plans_per_sec"' \
    || { echo "FAIL: churn smoke reported no plans_per_sec"; exit 1; }

echo "== ext-adapt smoke (seeded; summary must match the expectation) =="
# The sweep is bit-reproducible per seed and the summary line is counts
# only, so it is stable across machines. A drift here means the
# adaptation controller's behaviour changed.
summary=$(mktemp)
cargo run -p rb-bench --release --offline --bin repro -- quick ext-adapt \
    | grep '^ext-adapt summary:' > "$summary"
diff -u scripts/expected_ext_adapt.txt "$summary"
rm -f "$summary"
echo "ok"

echo "== ext-chaos smoke (seeded; summaries must match the expectation) =="
# Hardened executor vs no-retry baseline under seeded fault injection,
# plus the correlated-failure sub-sweep (two-zone outage, open loop vs
# the controller's executed zone switch). The summary lines are counts
# only; a drift means retry/backoff, graceful degradation, checkpoint
# fallback, or market/zone switch-execution behaviour changed.
summary=$(mktemp)
cargo run -p rb-bench --release --offline --bin repro -- quick ext-chaos \
    | grep '^ext-chaos' > "$summary"
diff -u scripts/expected_ext_chaos.txt "$summary"
rm -f "$summary"
echo "ok"

echo "== ext-serve smoke (seeded; summaries must match the expectation) =="
# Multi-tenant service sweeps: serial (tenants x arrival gaps), the
# contended sub-sweep (2 slots, downscaling plans, pool-aware
# admission), and the Hyperband bracket group — every cell run pool-off
# and pool-on at shared seeds. The pinned summaries encode the
# service-layer contract: the pool is cheaper in every pair
# (pool_cheaper == pairs) at equal-or-better median queue wait
# (wait_regressions=0), with no double releases or custody conflicts,
# and the contended cells actually admit queued jobs against parked
# capacity (pool_admits > 0). A drift means the fair-share scheduler,
# the pool lifecycle, pool-aware admission, or the billing accounting
# changed behaviour.
summary=$(mktemp)
cargo run -p rb-bench --release --offline --bin repro -- quick ext-serve \
    | grep '^ext-serve' > "$summary"
diff -u scripts/expected_ext_serve.txt "$summary"
rm -f "$summary"
echo "ok"

echo "== trace smoke (seeded; JSONL schema + RunSummary must match) =="
# One observed adaptive run under drift + spot churn. `repro trace`
# schema-validates the JSONL in-process and ends its output with the
# byte-stable RunSummary; the prediction engine is pinned to one thread
# inside the workload, so the rollup is identical on every machine.
trace_dir=$(mktemp -d)
(cd "$trace_dir" && cargo run --manifest-path "$repo/Cargo.toml" \
    -p rb-bench --release --offline --bin repro -- trace) > "$trace_dir/out.txt"
sed -n '/^run summary:/,$p' "$trace_dir/out.txt" > "$trace_dir/summary.txt"
diff -u scripts/expected_summary.txt "$trace_dir/summary.txt"
for f in trace.jsonl trace.chrome.json; do
    [ -s "$trace_dir/repro_out/$f" ] || { echo "FAIL: missing $f" >&2; exit 1; }
done

echo "== replay determinism (trace.jsonl alone must rebuild the run) =="
# `repro replay` parses repro_out/trace.jsonl with rb-replay — no
# planner, no simulator — reconstructs the ExecutionReport + RunSummary,
# and exits non-zero unless both are bit-identical to a fresh live run.
# Its summary tail must also match the pinned expectation, closing the
# loop: live run, streamed trace, and replayed trace all agree.
(cd "$trace_dir" && cargo run --manifest-path "$repo/Cargo.toml" \
    -p rb-bench --release --offline --bin repro -- replay) > "$trace_dir/replay.txt"
grep -q '^replay: .* bit-for-bit' "$trace_dir/replay.txt" \
    || { echo "FAIL: replay did not report bit-equality" >&2; exit 1; }
sed -n '/^run summary:/,$p' "$trace_dir/replay.txt" > "$trace_dir/replay_summary.txt"
diff -u scripts/expected_summary.txt "$trace_dir/replay_summary.txt"
rm -rf "$trace_dir"
echo "ok"

echo "== fleet rollup (manifests + byte-stable analytics report) =="
# `repro fleet` re-runs the quick ext-adapt/ext-chaos/ext-serve sweeps
# and writes one JSON manifest per run; the rollup CLI aggregates the
# tree into the fleet report. A drift means a sweep's executed numbers
# moved or the rollup's formatting/aggregation changed.
fleet_dir=$(mktemp -d)
(cd "$fleet_dir" && cargo run --manifest-path "$repo/Cargo.toml" \
    -p rb-bench --release --offline --bin repro -- fleet) > "$fleet_dir/fleet.txt"
grep -q '^fleet: wrote' "$fleet_dir/fleet.txt" \
    || { echo "FAIL: fleet wrote no manifests" >&2; exit 1; }
cargo run --manifest-path "$repo/Cargo.toml" -p rb-replay --release --offline \
    --bin rollup -- "$fleet_dir/repro_out/fleet" > "$fleet_dir/rollup.txt"
diff -u scripts/expected_rollup.txt "$fleet_dir/rollup.txt"
rm -rf "$fleet_dir"
echo "ok"

echo "verify: all checks passed"
