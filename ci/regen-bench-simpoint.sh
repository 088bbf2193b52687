#!/usr/bin/env bash
# Regenerates BENCH_simpoint.json — the committed record of what SimPoint
# sampling buys and what it costs on the Table 1 grid: full vs. sampled
# wall-clock time, the worst per-cell reconstruction error, and the share
# of instructions simulated in detail.
#
# The error and detailed-share fields are deterministic (fixed root seed,
# deterministic clustering — see DESIGN.md §SimPoint phase sampling) and
# the CI "SimPoint sampling smoke" step re-derives and cross-checks them
# on every push; regenerate after any change that legitimately moves
# them, and treat the diff as a reviewable claim. The wall-time fields
# are machine-dependent context, not gated.
#
# Usage: ci/regen-bench-simpoint.sh      (from anywhere in the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p mssr-bench >/dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

now_ms() { echo $(( $(date +%s%N) / 1000000 )); }

t0=$(now_ms)
./target/release/table1 --scale test --json > "$tmp/full.json"
t1=$(now_ms)
./target/release/table1 --scale test --json --simpoint 2000,3 > "$tmp/sampled.json"
t2=$(now_ms)

summary=$(./target/release/mssr-report "$tmp/sampled.json" \
    --golden "$tmp/full.json" --max-error 3 | grep '^SIMPOINT ')
err=${summary#*max_err_milli=}; err=${err%% *}
det=${summary#*detailed_milli=}

cat > BENCH_simpoint.json <<JSON
{
  "experiment": "table1",
  "scale": "test",
  "simpoint": "2000,3",
  "max_err_milli": ${err},
  "detailed_milli": ${det},
  "full_wall_ms": $((t1 - t0)),
  "sampled_wall_ms": $((t2 - t1))
}
JSON

echo "BENCH_simpoint.json regenerated:"
cat BENCH_simpoint.json
