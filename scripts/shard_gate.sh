#!/usr/bin/env sh
# Shard-determinism gate: rerun the busy-dominated `busy` campaign at
# several `--shards` counts and require every benchmark artifact to be
# byte-identical to the single-shard run. Sharding is an execution detail
# like `--threads` — the two-phase tick (parallel per-shard compute on the
# persistent worker pool, then a serial commit in router order) must be
# bit-exact for any shard count.
#
# Speed and thread accounting are not gated here: the `noc.shard2_speedup`,
# `noc.pool_wait_share` and `noc.spawned_threads` rows of `perf/` track
# them, and `tests/shard_pool_determinism.rs` pins the creation bound.
#
# Usage: scripts/shard_gate.sh [OUT_DIR] [SHARD_COUNTS]
# SHARD_COUNTS is a space-separated list compared against the "1" run
# (default "2 4"; every count must fit the suite's smallest mesh rows).
# Honors PP_FAST like every other campaign entry point.
set -eu

cd "$(dirname "$0")/.."

OUT="${1:-bench-out/shards}"
COUNTS="${2:-2 4}"

cargo build --release -q

target/release/punchsim-cli campaign --suite busy --name busy \
    --out "$OUT/s1" --no-cache --shards 1

for n in $COUNTS; do
    target/release/punchsim-cli campaign --suite busy --name busy \
        --out "$OUT/s$n" --no-cache --shards "$n"
    if ! cmp "$OUT/s1/BENCH_busy.json" "$OUT/s$n/BENCH_busy.json"; then
        echo "shard_gate: --shards $n changed the benchmark artifact" >&2
        exit 1
    fi
    echo "shard_gate: --shards $n byte-identical to --shards 1"
done

echo "shard_gate: artifacts byte-identical across shard counts (1 $COUNTS)"
