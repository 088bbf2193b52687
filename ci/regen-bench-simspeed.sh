#!/usr/bin/env bash
# Regenerates BENCH_simspeed.json — the committed record of how fast the
# simulator runs the Table 1 grid: per-engine min/median/max host
# throughput (thousandths of simulated MIPS) plus the self-profiler's
# stage-share breakdown, so a perf regression names the stage that got
# slower instead of just a smaller number.
#
# Absolute throughput is machine-dependent, so the CI "Sim-speed gate"
# step compares *ratios* with a generous threshold (a PR fails only when
# its median throughput collapses below --min-ratio percent of this
# file's). Regenerate on a quiet machine after any change that
# legitimately moves simulation speed, and treat the diff as a
# reviewable claim.
#
# Usage: ci/regen-bench-simspeed.sh      (from anywhere in the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p mssr-bench >/dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

./target/release/table1 --scale test --json --profile \
    > "$tmp/traj.json" 2> "$tmp/prof.jsonl"

./target/release/mssr-simspeed emit \
    "$tmp/traj.json" "$tmp/prof.jsonl" > BENCH_simspeed.json

echo "BENCH_simspeed.json regenerated:"
cat BENCH_simspeed.json
