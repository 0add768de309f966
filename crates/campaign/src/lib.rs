//! # punchsim-campaign
//!
//! The parallel campaign layer: describe a set of simulation runs as
//! declarative [`RunSpec`]s (scheme × workload × config × seed), execute
//! them on a scoped worker pool with per-run panic isolation and an
//! incremental content-hashed result [`Store`], and emit schema-versioned
//! `BENCH_<name>.json` artifacts that the CLI and CI's perf-regression gate
//! consume.
//!
//! The paper's evaluation (Figures 7–13, Table 1) is an 8-benchmark ×
//! 4-scheme full-system campaign plus synthetic sweeps. Every run is
//! independent, so the campaign is embarrassingly parallel; the runner
//! keeps result *ordering* deterministic regardless of worker count, which
//! keeps the artifacts byte-identical between `--threads 1` and
//! `--threads N` (pinned by `tests/determinism.rs`).
//!
//! Everything here is dependency-free by construction: JSON emission and
//! parsing, the FNV-1a/SplitMix64 content hash, and the thread pool are
//! hand-rolled on `std`, like `SimRng` before them.
//!
//! # Quickstart
//!
//! ```
//! use punchsim_campaign::{Runner, synthetic_suite};
//!
//! let specs = synthetic_suite(0xC0FFEE);
//! let runner = Runner { threads: 2, ..Runner::default() };
//! # let specs = &specs[..2];
//! let outcomes = runner.run(&specs);
//! assert!(outcomes.iter().all(|o| o.record().is_some()));
//! ```

#![forbid(unsafe_code)]

pub mod compare;
pub mod hash;
pub mod report;
pub mod runner;
pub mod spec;
pub mod store;

/// The shared JSON value now lives in `punchsim-obs`; re-exported here so
/// existing `punchsim_campaign::json::Json` paths keep working.
pub use punchsim_obs::json;

pub use compare::{compare, Comparison, Deviation, Tolerances};
pub use json::{Json, JsonError};
pub use report::{CampaignReport, TIMING_SCHEMA_VERSION};
pub use runner::{Outcome, RunError, RunErrorKind, RunRecord, Runner};
pub use spec::{Metrics, ObserveOpts, Observed, RunSpec, Workload, SCHEMA_VERSION};
pub use store::Store;

use punchsim_cmp::Benchmark;
use punchsim_traffic::TrafficPattern;
use punchsim_types::{Mesh, RoutingKind, SchemeKind, Substrate, Torus};

/// The default seed, matching `SimConfig::default().seed` so campaign
/// results line up with ad-hoc CLI runs of the same configuration.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// **The** definition of smoke mode, for the whole workspace: `PP_FAST=1`
/// selects shortened simulations; leaving the variable unset (or set to
/// `0` or the empty string) selects full-length runs. No other value is
/// recognized. The CLI's `figure` rows, the campaign suites and CI all resolve the switch
/// through this function — if you are documenting `PP_FAST`, link here.
pub fn fast_mode() -> bool {
    matches!(std::env::var("PP_FAST"), Ok(v) if v == "1")
}

/// Instructions per core for full-system runs (shortened by
/// [`fast_mode`]).
pub fn instr_per_core() -> u64 {
    if fast_mode() {
        20_000
    } else {
        80_000
    }
}

/// Measured cycles for synthetic-traffic runs (shortened by
/// [`fast_mode`]).
pub fn synth_cycles() -> u64 {
    if fast_mode() {
        6_000
    } else {
        20_000
    }
}

/// The Figures 7–11 campaign: every PARSEC preset under every evaluated
/// scheme, sized by [`fast_mode`].
pub fn parsec_suite(seed: u64) -> Vec<RunSpec> {
    let instr = instr_per_core();
    let mut specs = Vec::new();
    for benchmark in Benchmark::ALL {
        for scheme in SchemeKind::EVALUATED {
            specs.push(RunSpec {
                scheme,
                seed,
                workload: Workload::Parsec {
                    benchmark,
                    instr_per_core: instr,
                    warmup_instr: instr / 10,
                },
            });
        }
    }
    specs
}

/// The synthetic sweep: every parameter-free pattern under every evaluated
/// scheme on the default 8x8 mesh at the CLI's default load, sized by
/// [`fast_mode`].
pub fn synthetic_suite(seed: u64) -> Vec<RunSpec> {
    let measure = synth_cycles();
    let mut specs = Vec::new();
    for pattern in TrafficPattern::SYNTHETIC {
        for scheme in SchemeKind::EVALUATED {
            specs.push(RunSpec {
                scheme,
                seed,
                workload: Workload::Synthetic {
                    pattern,
                    topo: Mesh::new(8, 8).into(),
                    routing: RoutingKind::Xy,
                    rate: 0.005,
                    warmup_cycles: measure / 4,
                    measure_cycles: measure,
                },
            });
        }
    }
    specs
}

/// The CI smoke suite: the PARSEC campaign followed by the synthetic
/// sweep. `bench/baseline.json` is this suite under `PP_FAST=1`.
pub fn ci_suite(seed: u64) -> Vec<RunSpec> {
    let mut specs = parsec_suite(seed);
    specs.extend(synthetic_suite(seed));
    specs
}

/// The substrate sweep: the transpose and uniform patterns under every
/// evaluated scheme on each non-default substrate the trait layer adds —
/// the 8x8 torus under XY, the 8x8 mesh under YX, and the west-first
/// turn-model mesh. Exercises the derived (non-hand-coded) codebooks end
/// to end; EXPERIMENTS.md's torus-vs-mesh recipe runs this suite.
pub fn substrate_suite(seed: u64) -> Vec<RunSpec> {
    let measure = synth_cycles();
    let substrates: [(Substrate, RoutingKind); 3] = [
        (Substrate::Torus(Torus::new(8, 8)), RoutingKind::Xy),
        (Mesh::new(8, 8).into(), RoutingKind::Yx),
        (Mesh::new(8, 8).into(), RoutingKind::WestFirst),
    ];
    let mut specs = Vec::new();
    for (topo, routing) in substrates {
        for pattern in [TrafficPattern::UniformRandom, TrafficPattern::Transpose] {
            for scheme in SchemeKind::EVALUATED {
                specs.push(RunSpec {
                    scheme,
                    seed,
                    workload: Workload::Synthetic {
                        pattern,
                        topo,
                        routing,
                        rate: 0.005,
                        warmup_cycles: measure / 4,
                        measure_cycles: measure,
                    },
                });
            }
        }
    }
    specs
}

/// Measured cycles for the idle-dominated suite (shortened by
/// [`fast_mode`]). Much longer than [`synth_cycles`]: cycles are cheap
/// when most of them are skipped, and the window must dwarf per-run
/// setup so cycles/sec measures the tick kernel, not overhead.
pub fn fastpath_cycles() -> u64 {
    if fast_mode() {
        2_000_000
    } else {
        10_000_000
    }
}

/// The idle-dominated suite: every evaluated scheme driving the default
/// 8x8 mesh at a *very* low load, where the network spends most cycles
/// quiescent. This is the regime quiescence fast-forward exists for —
/// sparse coherence traffic over a mostly-gated fabric (the at-load `ci`
/// suite is dominated by the full-system model, which ticks the network
/// every cycle by design, so global skip cannot engage there). The
/// `idle8_ppf` row of `perf/` tracks its speed.
pub fn fastpath_suite(seed: u64) -> Vec<RunSpec> {
    let measure = fastpath_cycles();
    SchemeKind::EVALUATED
        .into_iter()
        .map(|scheme| RunSpec {
            scheme,
            seed,
            workload: Workload::Synthetic {
                pattern: TrafficPattern::UniformRandom,
                topo: Mesh::new(8, 8).into(),
                routing: RoutingKind::Xy,
                rate: 0.00005,
                warmup_cycles: measure / 8,
                measure_cycles: measure,
            },
        })
        .collect()
}

/// Measured cycles for the busy-regime scalability gate suite (shortened
/// by [`fast_mode`]). Shorter than [`fastpath_cycles`]: every cycle here
/// is a *busy* cycle (packets continuously in flight, so quiescence
/// fast-forward never engages), and busy cycles on a 32x32 mesh are
/// expensive.
pub fn busy_cycles() -> u64 {
    if fast_mode() {
        12_000
    } else {
        40_000
    }
}

/// The busy-regime scalability suite: large meshes (16x16 and 32x32)
/// under continuous uniform-random load — the regime the paper's Figs.
/// 7–13 live in, and the one where the per-tick sweep cost dominates.
/// The per-node rate is low but the aggregate is not: mesh-wide, a new
/// packet arrives every ~2 cycles (32x32), far inside end-to-end packet
/// latency, so the network never goes quiescent — yet only a sparse
/// minority of routers is busy on any given cycle, which is exactly the
/// coherence-traffic shape the SoA word sweep exists for. CI's
/// `identity_gate.sh` reruns this suite across `--shards` counts
/// (byte-identical artifacts); the `sparse32_*` rows of `perf/` track its
/// speed.
pub fn busy_suite(seed: u64) -> Vec<RunSpec> {
    let measure = busy_cycles();
    let mut specs = Vec::new();
    for (w, h) in [(16u16, 16u16), (32, 32)] {
        for scheme in [
            SchemeKind::NoPg,
            SchemeKind::ConvOptPg,
            SchemeKind::PowerPunchFull,
        ] {
            specs.push(RunSpec {
                scheme,
                seed,
                workload: Workload::Synthetic {
                    pattern: TrafficPattern::UniformRandom,
                    topo: Mesh::new(w, h).into(),
                    routing: RoutingKind::Xy,
                    rate: 0.0005,
                    warmup_cycles: measure / 8,
                    measure_cycles: measure,
                },
            });
        }
    }
    specs
}

/// The rivals study: Power Punch against the structurally different
/// power schemes of ROADMAP item 3 — SDM circuit switching and the
/// bufferless ring router — bracketed by No-PG, at a low and a high
/// uniform-random load on the default 8x8 mesh. The low-load point
/// exposes cold-start costs (circuit setup latency vs. punch-ahead
/// latency); the high-load point exposes steady-state behavior (circuit
/// reuse vs. deflection penalties). EXPERIMENTS.md's "rivals" recipe
/// reads this suite's artifacts.
pub fn rivals_suite(seed: u64) -> Vec<RunSpec> {
    let measure = synth_cycles();
    let mut specs = Vec::new();
    for rate in [0.002, 0.02] {
        for scheme in [
            SchemeKind::NoPg,
            SchemeKind::PowerPunchFull,
            SchemeKind::SdmCircuit,
            SchemeKind::RingRouter,
        ] {
            specs.push(RunSpec {
                scheme,
                seed,
                workload: Workload::Synthetic {
                    pattern: TrafficPattern::UniformRandom,
                    topo: Mesh::new(8, 8).into(),
                    routing: RoutingKind::Xy,
                    rate,
                    warmup_cycles: measure / 4,
                    measure_cycles: measure,
                },
            });
        }
    }
    specs
}

/// The scheme-coverage drift suite: one identical uniform-random run
/// under each of the paper's five schemes. `bench/baseline_schemes.json`
/// is this suite under `PP_FAST=1`, and `scripts/identity_gate.sh`
/// re-asserts it byte-identical on every run — adding a scheme must not
/// perturb a single bit of these schemes' artifacts.
pub fn schemes_suite(seed: u64) -> Vec<RunSpec> {
    let measure = synth_cycles();
    [
        SchemeKind::NoPg,
        SchemeKind::ConvPg,
        SchemeKind::ConvOptPg,
        SchemeKind::PowerPunchSignal,
        SchemeKind::PowerPunchFull,
    ]
    .into_iter()
    .map(|scheme| RunSpec {
        scheme,
        seed,
        workload: Workload::Synthetic {
            pattern: TrafficPattern::UniformRandom,
            topo: Mesh::new(8, 8).into(),
            routing: RoutingKind::Xy,
            rate: 0.005,
            warmup_cycles: measure / 4,
            measure_cycles: measure,
        },
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_expected_shapes() {
        let seed = 9;
        let parsec = parsec_suite(seed);
        assert_eq!(
            parsec.len(),
            Benchmark::ALL.len() * SchemeKind::EVALUATED.len()
        );
        let synth = synthetic_suite(seed);
        assert_eq!(
            synth.len(),
            TrafficPattern::SYNTHETIC.len() * SchemeKind::EVALUATED.len()
        );
        let ci = ci_suite(seed);
        assert_eq!(ci.len(), parsec.len() + synth.len());
        let fastpath = fastpath_suite(seed);
        assert_eq!(fastpath.len(), SchemeKind::EVALUATED.len());
        let substrate = substrate_suite(seed);
        assert_eq!(substrate.len(), 3 * 2 * SchemeKind::EVALUATED.len());
        // Every id names its substrate: no two substrates collide.
        let mut sids: Vec<String> = substrate.iter().map(RunSpec::id).collect();
        sids.sort();
        sids.dedup();
        assert_eq!(sids.len(), substrate.len());
        assert!(sids.iter().any(|i| i.contains("/torus8x8/")));
        assert!(sids.iter().any(|i| i.contains("/8x8-yx/")));
        assert!(sids.iter().any(|i| i.contains("/8x8-wf/")));
        for s in &fastpath {
            let Workload::Synthetic { rate, .. } = s.workload else {
                panic!("fastpath suite must be synthetic");
            };
            assert!(rate < 0.001, "fastpath runs must be idle-dominated");
        }
        let busy = busy_suite(seed);
        assert_eq!(busy.len(), 2 * 3, "two meshes x three schemes");
        let mut bids: Vec<String> = busy.iter().map(RunSpec::id).collect();
        bids.sort();
        bids.dedup();
        assert_eq!(bids.len(), busy.len());
        assert!(bids.iter().any(|i| i.contains("16x16")));
        assert!(bids.iter().any(|i| i.contains("32x32")));
        for s in &busy {
            let Workload::Synthetic { rate, topo, .. } = s.workload else {
                panic!("busy suite must be synthetic");
            };
            // Aggregate arrivals/cycle, not per-node rate, is what keeps a
            // mesh busy: the inter-arrival gap must sit well inside packet
            // latency so the network never goes quiescent.
            assert!(
                rate * topo.nodes() as f64 >= 0.1,
                "busy runs must keep packets continuously in flight"
            );
        }
        let rivals = rivals_suite(seed);
        assert_eq!(rivals.len(), 2 * 4, "two rates x four schemes");
        assert!(
            rivals
                .iter()
                .any(|s| s.scheme == SchemeKind::SdmCircuit || s.scheme == SchemeKind::RingRouter),
            "the rivals suite must exercise the rival schemes"
        );
        let mut rids: Vec<String> = rivals.iter().map(RunSpec::id).collect();
        rids.sort();
        rids.dedup();
        assert_eq!(rids.len(), rivals.len());
        let schemes = schemes_suite(seed);
        assert_eq!(
            schemes.len(),
            5,
            "drift suite pins exactly the paper's five schemes"
        );
        assert!(
            schemes
                .iter()
                .all(|s| !SchemeKind::RIVALS.contains(&s.scheme)),
            "rival schemes have no historical baseline to drift from"
        );
        // Ids are unique within a suite (artifact keys).
        let mut ids: Vec<String> = ci.iter().map(RunSpec::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), ci.len());
    }

    #[test]
    fn suite_hashes_depend_on_seed() {
        let a: Vec<u64> = ci_suite(1).iter().map(RunSpec::content_hash).collect();
        let b: Vec<u64> = ci_suite(2).iter().map(RunSpec::content_hash).collect();
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }
}
