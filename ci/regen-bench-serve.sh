#!/usr/bin/env bash
# Regenerates BENCH_serve.json — the committed record of what the
# mssr-serve job server sustains under concurrent load: throughput,
# p50/p99 request latency, the cache hit rate a duplicate-heavy mix
# achieves, and the backpressure rejections a bounded queue hands out
# instead of buffering unboundedly.
#
# The load run uses 64 concurrent clients against a deliberately
# throttled server (one worker, shallow queue, per-cell delay) so both
# cache hits and `busy` rejections are exercised on any machine. Counts
# depend on scheduling; the structural claims (hits > 0, rejections
# observed, zero errors) are re-checked by the CI "Serve smoke" step.
# Latency and throughput are machine-dependent context, not gated.
#
# Usage: ci/regen-bench-serve.sh      (from anywhere in the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p mssr-bench >/dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

./target/release/mssr-serve --scale test --experiments table1 \
    --addr 127.0.0.1:0 --jobs 1 --queue-bound 4 --delay-ms 20 \
    > "$tmp/listen.json" &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

for _ in $(seq 50); do
    addr=$(sed -n 's/.*"addr":"\([^"]*\)".*/\1/p' "$tmp/listen.json")
    [ -n "${addr}" ] && break
    sleep 0.1
done
[ -n "${addr}" ] || { echo "server never bound" >&2; exit 1; }

./target/release/mssr-serve --load "$addr" \
    --clients 64 --requests 8 --dup 60 > BENCH_serve.json

./target/release/mssr-serve --shutdown "$addr" >/dev/null
wait "$server_pid"
trap 'rm -rf "$tmp"' EXIT

echo "BENCH_serve.json regenerated:"
cat BENCH_serve.json
