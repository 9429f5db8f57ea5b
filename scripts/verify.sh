#!/usr/bin/env bash
# Offline verification gate: dependency guard, build, tests, and the
# seeded repro fixtures.
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

echo "== docs (rustdoc warnings are errors) =="
# Deleting or renaming an item leaves intra-doc links such as
# [`Type::item`] dangling in the docs that still name it, and a public
# doc linking a private item renders as a dead link. rustdoc reports
# both as warnings; here they fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
echo "ok"

echo "== benchmark pins (perf workloads must reproduce their pinned digests) =="
# One short run of each benchmark workload: the planner and the
# simulator, the executor, the controller and the trace codec. A run is
# correct only when every operation's digest matches the one pinned in
# the benchmark, so a behaviour change fails here instead of when the
# benchmark next runs. All four take about 13 s together on a 2-vCPU
# x86-64 host, `plan_cold` about 5.5 s of it.
for workload in plan_cold adaptive_drift serve_fleet trace_replay; do
    out=$(target/release/perf --workload "$workload" --seed 1 --seconds 1 --trace 0)
    grep -q '"correct": true' <<<"$out" \
        || { echo "FAIL: perf $workload missed its pinned digest" >&2; echo "$out" >&2; exit 1; }
done
echo "ok"

echo "== paper evidence (repro --csv all must match the pinned output) =="
# Every table and figure of the evaluation, seeded and bit-reproducible
# at any thread count. `repro` writes repro_out/ into its cwd, so it runs
# in a scratch directory; a drift here means a paper artifact's numbers
# moved, and a failed artifact makes repro exit non-zero.
repro_dir=$(mktemp -d)
(cd "$repro_dir" && cargo run --manifest-path "$repo/Cargo.toml" \
    -p rb-bench --release --offline --bin repro -- --csv all) > "$repro_dir/all.txt"
diff -u scripts/expected_repro_all.txt "$repro_dir/all.txt"
rm -rf "$repro_dir"
echo "ok"

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
echo "ok"

echo "== misplaced event (replay must fail with a decode error) =="
# Move the trace's first node.up onto lane trial:0. The line stays
# schema-valid, so only the decoder can refuse it: replay must exit
# non-zero and name the line, not drop the event.
trace="$trace_dir/repro_out/trace.jsonl"
cp "$trace" "$trace_dir/good.jsonl"
sed '0,/"name":"node.up"/s/"name":"node.up","lane":"node:[0-9]*"/"name":"node.up","lane":"trial:0"/' \
    "$trace_dir/good.jsonl" > "$trace"
if cmp -s "$trace" "$trace_dir/good.jsonl"; then
    echo "FAIL: the trace has no node.up to move" >&2
    exit 1
fi
if (cd "$trace_dir" && cargo run --manifest-path "$repo/Cargo.toml" \
    -p rb-bench --release --offline --bin repro -- replay) > "$trace_dir/moved.txt" 2>&1; then
    echo "FAIL: replay accepted a node.up on a trial lane" >&2
    exit 1
fi
grep -q 'replay: line' "$trace_dir/moved.txt" \
    || { echo "FAIL: misplaced event did not fail with a decode error" >&2; cat "$trace_dir/moved.txt" >&2; exit 1; }
cp "$trace_dir/good.jsonl" "$trace"
echo "ok"

echo "== truncated trace (replay must fail with a schema error) =="
# Cut the trace's last line in half, as a crash mid-write would. Replay
# must refuse the stream, exit non-zero, and blame the schema.
last=$(tail -n 1 "$trace")
head -n -1 "$trace" > "$trace_dir/cut.jsonl"
printf '%s\n' "${last:0:${#last}/2}" >> "$trace_dir/cut.jsonl"
mv "$trace_dir/cut.jsonl" "$trace"
if (cd "$trace_dir" && cargo run --manifest-path "$repo/Cargo.toml" \
    -p rb-bench --release --offline --bin repro -- replay) > "$trace_dir/cut.txt" 2>&1; then
    echo "FAIL: replay accepted a truncated trace" >&2
    exit 1
fi
grep -q 'replay: schema:' "$trace_dir/cut.txt" \
    || { echo "FAIL: truncated trace did not fail with a schema error" >&2; cat "$trace_dir/cut.txt" >&2; exit 1; }
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
