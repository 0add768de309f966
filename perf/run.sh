#!/usr/bin/env bash
# The one command of the performance benchmark (see perf/README.md).
#
#   perf/run.sh [--seed N] [--seconds S]   every workload: print each metric,
#                                          write perf/out/results.json and
#                                          perf/out/trace_<workload>.json
#   perf/run.sh --selfcheck                two sets back to back; fail unless
#                                          they agree within the bounds
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; the last stdout line is
#                                          the result object (BENCHMARK.json)
#
# Exits non-zero when the build fails or (whole-benchmark forms) when any
# workload reports ops_failed > 0.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Measure the default kernel (fast-forward + SoA + pool), full-length runs.
unset PP_FAST PP_NAIVE_TICK PP_STRUCT_TICK PP_SPAWN_TICK PP_SHARDS

build() {
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$1" >&2
}

# The end-to-end runner must build. The layer probes touch internals and
# build separately: if they do not, their metrics are reported as absent.
build perf_e2e
target="${CARGO_TARGET_DIR:-$here/target}"
if ! build perf_probe; then
    echo "perf: perf_probe did not build; its metrics will be absent" >&2
    rm -f "$target/release/perf_probe"
fi

exec "$target/release/perf_e2e" "$@"
