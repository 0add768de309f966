#!/usr/bin/env sh
# Shard-determinism gate, two halves, both byte-identity checks against
# the single-shard run. Sharding is an execution detail like `--threads` —
# the two-phase tick (parallel per-shard compute on the persistent worker
# pool, then a serial commit in router order) must be bit-exact for any
# shard count.
#
# 1. The busy-dominated `busy` campaign at several `--shards` counts:
#    every benchmark artifact must be byte-identical.
# 2. The `faults` sweep (`ppf` and `convopt`) at the same counts: under a
#    fault profile every shard reads the fault injector's masked power
#    states straight from the manager, so the deterministic stdout table
#    (delivered / latency / faults / escalations / off %) must not change
#    by a byte.
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

for scheme in ppf convopt; do
    target/release/punchsim-cli faults --scheme "$scheme" --shards 1 \
        > "$OUT/faults_${scheme}_s1.txt"
    for n in $COUNTS; do
        target/release/punchsim-cli faults --scheme "$scheme" --shards "$n" \
            > "$OUT/faults_${scheme}_s$n.txt"
        if ! cmp "$OUT/faults_${scheme}_s1.txt" "$OUT/faults_${scheme}_s$n.txt"; then
            echo "shard_gate: --shards $n changed the $scheme fault sweep" >&2
            exit 1
        fi
        echo "shard_gate: faults $scheme --shards $n byte-identical to --shards 1"
    done
done

echo "shard_gate: fault sweeps byte-identical across shard counts (1 $COUNTS)"
