#!/usr/bin/env sh
# Byte-identity gate: one table, one row per distinct way of running the
# simulator, each compared byte for byte against a checked-in baseline or
# against an earlier row. A row is
#
#   label | against | punchsim-cli arguments
#
# `campaign` rows get `--out OUT/<label> --no-cache` appended and yield the
# BENCH_*.json they write; every other row yields its stdout. The campaign
# and figure rows pass `--smoke`, the run length every baseline is recorded
# at (the other commands take their length from `--cycles`). `@` in the
# arguments stands for the row's own output directory, and every `@/file`
# a row names must exist, non-empty, once it ran. `against` is a checked-in
# `bench/...` file, `=<label>` for an earlier row's artifact, `-` for a row
# that only serves as a later row's reference, or `coverage>=F` for the one
# row that is a threshold rather than an identity (below).
#
# What the rows pin, and why each must hold:
#
#   ci, schemes      The default-substrate `ci` suite and the per-scheme
#                    `schemes` suite reproduce bench/baseline.json and
#                    bench/baseline_schemes.json: refactors of the power
#                    model, the scheme constructors or the tick kernel are
#                    invisible in the results.
#   ci-observed,     Observation is read-only: per-interval sampling,
#   ci-metered       flight-recorder dumps and the metric registry hung off
#                    every run leave the artifact untouched (and the metered
#                    campaign did write its exposition).
#   substrate-*      The non-default substrates (the torus under XY, the
#                    mesh under YX) reproduce bench/baseline_substrate.json,
#                    recorded with the binary of the commit before the
#                    topology trait layer was folded away (less the runs of
#                    the since-removed west-first routing), so a drift in
#                    the geometry or the routing shows; the suite is also
#                    byte-stable across worker counts.
#   busy-s*,         Sharding is an execution detail like `--threads`: the
#   faults-*-s*      busy suite and the seeded `faults` sweep (every shard
#                    reads the fault injector's masked power states
#                    straight from the manager) do not change by a byte at
#                    any `--shards`; the sweep is also pinned to the stdout
#                    recorded before the seeded and the scripted injector
#                    were merged, so the seeded fault schedule itself is
#                    gated.
#   verify-*         The exhaustive wakeup-protocol explorations reproduce
#                    bench/VERIFY_*.json byte for byte — the state encoding,
#                    the choice enumeration order and the property
#                    evaluation are part of the determinism contract. The
#                    fault-free 2x2/2x3 runs and the same runs under the
#                    per-cycle fault alphabet (two-fault budget) must prove
#                    no-lost-wakeup, no-deadlock and bounded-stall (`verify`
#                    exits non-zero otherwise); with the WU input
#                    disconnected and escalation disabled the checker must
#                    FIND the lost wakeup (`--expect-violation`) and replay
#                    it into a non-empty obs event stream. A checker that
#                    can no longer catch the bug it was built for is itself
#                    broken.
#   figures          `figure all` — the reproduction itself: Table 1, Figures
#                    7-13, §6.6, §2.1 and the ablations print the tables in
#                    bench/FIGURES_smoke.txt, and exit zero: every shape a
#                    row asserts (22 sets / 5 bits / 2 bits exactly,
#                    ConvOpt's +60..+80% latency and PP-PG < PP-S < ConvOpt
#                    in Figure 7, Figure 13's worst case at 3-stage /
#                    Twakeup = 10, the area band, static power dominating,
#                    the advantage over ConvOpt growing from 4x4 to 16x16)
#                    still holds. With
#                    `--no-cache` because CI caches `target/`, where the
#                    result store lives, and the store's key knows the
#                    schema version but not the model.
#   metrics          `punchsim-cli metrics` exits zero (it validates its own
#                    Prometheus exposition before printing) and its trailing
#                    `# punchsim_coverage ... ratio=R` line reports the
#                    tick-phase profiler attributing at least 90% of wall
#                    time: anything less means a phase boundary lost its
#                    mark. (What the profiler *costs* is a measured metric
#                    of the benchmark, `metrics.profiler_overhead_frac` in
#                    perf/, not a single-shot ratio here.)
#
# Usage: scripts/identity_gate.sh [OUT_DIR]
set -eu

cd "$(dirname "$0")/.."

OUT="${1:-bench-out/identity}"

cargo build --release -q

CLI=target/release/punchsim-cli

# The artifact row <label> produced.
artifact() {
    if [ -f "$OUT/$1/stdout.txt" ]; then
        echo "$OUT/$1/stdout.txt"
    else
        ls "$OUT/$1"/BENCH_*.json | grep -v '\.timing\.json$'
    fi
}

while IFS='|' read -r label against args; do
    label=$(echo $label)
    against=$(echo $against)
    case "$label" in '' | '#'*) continue ;; esac
    dir="$OUT/$label"
    rm -rf "$dir"
    mkdir -p "$dir"
    args=$(echo "$args" | sed "s|@|$dir|g")
    case "$args" in
        *campaign*) $CLI $args --out "$dir" --no-cache ;;
        *) $CLI $args >"$dir/stdout.txt" ;;
    esac
    for word in $args; do
        case "$word" in "$dir"/*)
            if ! [ -d "$word" ] && ! [ -s "$word" ]; then
                echo "identity_gate: $label left $word missing or empty" >&2
                exit 1
            fi ;;
        esac
    done
    case "$against" in
        -) continue ;;
        'coverage>='*)
            floor="${against#coverage>=}"
            ratio=$(sed -n 's/^# punchsim_coverage .*ratio=//p' "$dir/stdout.txt")
            if ! awk -v r="$ratio" -v min="$floor" 'BEGIN { exit !(r != "" && r >= min) }'; then
                echo "identity_gate: $label attributes '$ratio' of wall time to phases, floor $floor" >&2
                exit 1
            fi
            echo "identity_gate: $label phase attribution $ratio >= $floor"
            continue ;;
        =*) want=$(artifact "${against#=}") ;;
        *) want="$against" ;;
    esac
    if ! cmp "$want" "$(artifact "$label")"; then
        echo "identity_gate: $label drifted from $against" >&2
        exit 1
    fi
    echo "identity_gate: $label byte-identical to $against"
done <<'ROWS'
ci                | bench/baseline.json               | campaign --suite ci --name ci --smoke
ci-observed       | =ci                               | campaign --suite ci --name ci --smoke --sample 1000 --trace-out @/dumps
ci-metered        | =ci                               | campaign --suite ci --name ci --smoke --metrics-out @/campaign.prom
schemes           | bench/baseline_schemes.json       | campaign --suite schemes --name schemes --smoke
substrate-t4      | bench/baseline_substrate.json     | campaign --suite substrate --name substrate --smoke --threads 4
substrate-t1      | =substrate-t4                     | campaign --suite substrate --name substrate --smoke --threads 1
busy-s1           | -                                 | campaign --suite busy --name busy --smoke --shards 1
busy-s2           | =busy-s1                          | campaign --suite busy --name busy --smoke --shards 2
busy-s4           | =busy-s1                          | campaign --suite busy --name busy --smoke --shards 4
faults-ppf-s1     | bench/FAULTS_ppf.txt              | faults --scheme ppf --shards 1
faults-ppf-s2     | bench/FAULTS_ppf.txt              | faults --scheme ppf --shards 2
faults-ppf-s4     | bench/FAULTS_ppf.txt              | faults --scheme ppf --shards 4
faults-convopt-s1 | bench/FAULTS_convopt.txt          | faults --scheme convopt --shards 1
faults-convopt-s2 | bench/FAULTS_convopt.txt          | faults --scheme convopt --shards 2
faults-convopt-s4 | bench/FAULTS_convopt.txt          | faults --scheme convopt --shards 4
verify-2x2-ppf    | bench/VERIFY_2x2_ppf_clean.json   | verify --mesh 2x2 --scheme ppf
verify-2x2-conv   | bench/VERIFY_2x2_conv_clean.json  | verify --mesh 2x2 --scheme conv
verify-2x3-ppf    | bench/VERIFY_2x3_ppf_clean.json   | verify --mesh 2x3 --scheme ppf
verify-2x2-ppf-f  | bench/VERIFY_2x2_ppf_faulty.json  | verify --mesh 2x2 --scheme ppf --faulty
verify-2x2-conv-f | bench/VERIFY_2x2_conv_faulty.json | verify --mesh 2x2 --scheme conv --faulty
verify-2x3-ppf-f  | bench/VERIFY_2x3_ppf_faulty.json  | verify --mesh 2x3 --scheme ppf --faulty
verify-broken     | bench/VERIFY_2x2_conv_broken.json | verify --mesh 2x2 --scheme conv --broken --expect-violation --replay-out @/replay.jsonl --chrome-out @/replay.chrome.json
figures           | bench/FIGURES_smoke.txt           | figure all --smoke --no-cache
metrics           | coverage>=0.90                    | metrics --metrics-out @/snapshot.json
ROWS

echo "identity_gate: every row byte-identical"
