#!/usr/bin/env sh
# Metrics-subsystem gate, in two parts (that `--metrics-out` changes no
# artifact byte is a row of scripts/identity_gate.sh, whose `ci` and
# `ci-metered` runs this gate reads instead of repeating them):
#
#   1. Exposition + coverage — the metered campaign wrote an exposition,
#      `punchsim-cli metrics` exits zero (it self-validates its Prometheus
#      exposition before printing) and its trailing
#      `# punchsim_coverage ... ratio=R` line reports the tick-phase
#      profiler attributing at least MIN_COVERAGE of wall time. Anything
#      less means a phase boundary lost its mark() call.
#
#   2. Overhead — the metered campaign's aggregate cycles/sec stays within
#      MAX_LOSS of the plain run (default 3%). The disabled path is
#      compiled out to one branch per phase boundary; the enabled path is
#      a handful of counter bumps. Neither may grow a hot loop.
#
# Usage: scripts/metrics_gate.sh [IDENTITY_OUT_DIR] [MIN_COVERAGE] [MAX_LOSS]
# IDENTITY_OUT_DIR is the directory scripts/identity_gate.sh wrote to.
# Defaults match the CI bench-smoke job.
set -eu

cd "$(dirname "$0")/.."

OUT="${1:-bench-out/identity}"
MIN_COVERAGE="${2:-0.90}"
MAX_LOSS="${3:-0.97}"

for f in "$OUT/ci/BENCH_ci.timing.json" "$OUT/ci-metered/BENCH_ci.timing.json" \
    "$OUT/ci-metered/campaign.prom"; do
    if [ ! -s "$f" ]; then
        echo "metrics_gate: missing $f — run scripts/identity_gate.sh $OUT first" >&2
        exit 1
    fi
done

cargo build --release -q

# The metrics command validates its own exposition and appends a coverage
# comment; a non-zero exit or a missing/low ratio both fail the gate.
mkdir -p "$OUT/metrics"
target/release/punchsim-cli metrics --metrics-out "$OUT/metrics/snapshot.json" \
    > "$OUT/metrics/exposition.prom"
RATIO=$(grep '^# punchsim_coverage ' "$OUT/metrics/exposition.prom" |
    sed 's/.*ratio=//')
if [ -z "$RATIO" ]; then
    echo "metrics_gate: no punchsim_coverage line in the exposition" >&2
    exit 1
fi
awk -v r="$RATIO" -v min="$MIN_COVERAGE" 'BEGIN {
    printf "metrics_gate: phase attribution %.1f%% of wall time (floor %.0f%%)\n",
        r * 100, min * 100
    if (r < min) {
        print "metrics_gate: tick-phase profiler lost track of wall time"
        exit 1
    }
}'

# First "cycles_per_sec" in each timing sidecar is the campaign aggregate
# (per-run entries follow it).
cps() {
    grep -o '"cycles_per_sec": [0-9.eE+-]*' "$1" | head -1 | awk '{print $2}'
}
PLAIN=$(cps "$OUT/ci/BENCH_ci.timing.json")
METERED=$(cps "$OUT/ci-metered/BENCH_ci.timing.json")
if [ -z "$PLAIN" ] || [ -z "$METERED" ]; then
    echo "metrics_gate: missing cycles_per_sec in timing sidecars" >&2
    exit 1
fi
echo "metrics_gate: plain=$PLAIN cyc/s metered=$METERED cyc/s (floor ${MAX_LOSS}x)"
awk -v p="$PLAIN" -v m="$METERED" -v min="$MAX_LOSS" 'BEGIN {
    if (p <= 0) { print "metrics_gate: bad metrics-off throughput"; exit 1 }
    ratio = m / p
    printf "metrics_gate: metered throughput %.2fx of plain\n", ratio
    if (ratio < min) {
        printf "metrics_gate: metrics overhead exceeds %.0f%% budget\n",
            (1 - min) * 100
        exit 1
    }
}'
