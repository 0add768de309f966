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
#   fastpath         The idle-dominated 8x8 suite (rate 5e-5, every scheme)
#                    reproduces bench/baseline_fastpath.json: the regime
#                    where `Network::run` skips most cycles, so a change to
#                    the skip rule or a manager's `tick_quiet` shows here.
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
#   busy             The large-mesh busy suite (16x16 and 32x32 at 5e-4,
#                    nopg/convopt/ppf) reproduces bench/baseline_busy.json.
#   busy-run-s*,     Sharding is an execution detail like `--threads`: the
#   faults-*-s*      sparse 32x32 `run` over every scheme and the seeded
#                    `run --faults sweep` (every shard reads the fault
#                    injector's masked power states straight from the
#                    manager) do not change by a byte at any `--shards`
#                    (`run` is the one command that takes it); the sweep is
#                    also pinned to the stdout recorded before the seeded
#                    and the scripted injector were merged, so the seeded
#                    fault schedule itself is gated.
#   run-rates,       `run`'s load and scheme tables at their defaults
#   run-schemes      reproduce bench/SWEEP_8x8.txt and bench/SCHEMES_8x8.txt,
#                    recorded from the binary of the commit before the
#                    `sweep` and `schemes` commands were folded into `run`:
#                    no figure pins the default 8x8 point.
#   run-trace        `--trace-out` with `--trace-cap 0` writes the whole
#                    run's flight recorder (the file only has to be there).
#   verify-*         The exhaustive wakeup-protocol explorations reproduce
#                    bench/VERIFY_*.json byte for byte — the state encoding,
#                    the choice enumeration order and the property
#                    evaluation are part of the determinism contract. Every
#                    scheme's fault-free 2x2 run and the same run under the
#                    per-cycle fault alphabet (two-fault budget), and the
#                    2x3 ppf runs and 2x3 pps faulty, must prove
#                    no-lost-wakeup, no-deadlock and bounded-stall (`verify`
#                    exits non-zero otherwise; 2x3 convopt faulty is left out
#                    for taking over a second); with the WU input
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
#   metrics          `run --metrics-out` on a 16x16 mesh at 0.0005 exits zero
#                    (it validates its Prometheus exposition before writing)
#                    and its `# punchsim_coverage ... ratio=R` line reports
#                    the tick-phase profiler attributing at least 90% of the
#                    measured window's wall time: anything less means a
#                    phase boundary lost its mark. (What the profiler *costs* is a measured metric
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
ci                   | bench/baseline.json                  | campaign --suite ci --name ci --smoke
ci-observed          | =ci                                  | campaign --suite ci --name ci --smoke --sample 1000 --trace-out @/dumps
ci-metered           | =ci                                  | campaign --suite ci --name ci --smoke --metrics-out @/campaign.prom
schemes              | bench/baseline_schemes.json          | campaign --suite schemes --name schemes --smoke
fastpath             | bench/baseline_fastpath.json         | campaign --suite fastpath --name fastpath --smoke
substrate-t4         | bench/baseline_substrate.json        | campaign --suite substrate --name substrate --smoke --threads 4
substrate-t1         | =substrate-t4                        | campaign --suite substrate --name substrate --smoke --threads 1
busy                 | bench/baseline_busy.json             | campaign --suite busy --name busy --smoke
busy-run-s1          | -                                    | run --mesh 32x32 --rate 0.0005 --scheme all --cycles 12000 --shards 1
busy-run-s2          | =busy-run-s1                         | run --mesh 32x32 --rate 0.0005 --scheme all --cycles 12000 --shards 2
busy-run-s4          | =busy-run-s1                         | run --mesh 32x32 --rate 0.0005 --scheme all --cycles 12000 --shards 4
run-rates            | bench/SWEEP_8x8.txt                  | run --rate 0.0025,0.005,0.01,0.02,0.04,0.08,0.16
run-schemes          | bench/SCHEMES_8x8.txt                | run --scheme all
run-trace            | -                                    | run --trace-out @/t.jsonl --trace-cap 0
faults-ppf-s1        | bench/FAULTS_ppf.txt                 | run --scheme ppf --faults sweep --shards 1
faults-ppf-s2        | bench/FAULTS_ppf.txt                 | run --scheme ppf --faults sweep --shards 2
faults-ppf-s4        | bench/FAULTS_ppf.txt                 | run --scheme ppf --faults sweep --shards 4
faults-convopt-s1    | bench/FAULTS_convopt.txt             | run --scheme convopt --faults sweep --shards 1
faults-convopt-s2    | bench/FAULTS_convopt.txt             | run --scheme convopt --faults sweep --shards 2
faults-convopt-s4    | bench/FAULTS_convopt.txt             | run --scheme convopt --faults sweep --shards 4
verify-2x2-ppf       | bench/VERIFY_2x2_ppf_clean.json      | verify --mesh 2x2 --scheme ppf
verify-2x2-conv      | bench/VERIFY_2x2_conv_clean.json     | verify --mesh 2x2 --scheme conv
verify-2x3-ppf       | bench/VERIFY_2x3_ppf_clean.json      | verify --mesh 2x3 --scheme ppf
verify-2x2-ppf-f     | bench/VERIFY_2x2_ppf_faulty.json     | verify --mesh 2x2 --scheme ppf --faulty
verify-2x2-conv-f    | bench/VERIFY_2x2_conv_faulty.json    | verify --mesh 2x2 --scheme conv --faulty
verify-2x3-ppf-f     | bench/VERIFY_2x3_ppf_faulty.json     | verify --mesh 2x3 --scheme ppf --faulty
verify-2x2-nopg      | bench/VERIFY_2x2_nopg_clean.json     | verify --mesh 2x2 --scheme nopg
verify-2x2-nopg-f    | bench/VERIFY_2x2_nopg_faulty.json    | verify --mesh 2x2 --scheme nopg --faulty
verify-2x2-convopt   | bench/VERIFY_2x2_convopt_clean.json  | verify --mesh 2x2 --scheme convopt
verify-2x2-convopt-f | bench/VERIFY_2x2_convopt_faulty.json | verify --mesh 2x2 --scheme convopt --faulty
verify-2x2-pps       | bench/VERIFY_2x2_pps_clean.json      | verify --mesh 2x2 --scheme pps
verify-2x2-pps-f     | bench/VERIFY_2x2_pps_faulty.json     | verify --mesh 2x2 --scheme pps --faulty
verify-2x3-pps-f     | bench/VERIFY_2x3_pps_faulty.json     | verify --mesh 2x3 --scheme pps --faulty
verify-broken        | bench/VERIFY_2x2_conv_broken.json    | verify --mesh 2x2 --scheme conv --broken --expect-violation --replay-out @/replay.jsonl --chrome-out @/replay.chrome.json
figures              | bench/FIGURES_smoke.txt              | figure all --smoke --no-cache
metrics              | coverage>=0.90                       | run --mesh 16x16 --rate 0.0005 --cycles 12000 --metrics-out @/snapshot.json
ROWS

echo "identity_gate: every row byte-identical"
