//! Shared infrastructure for the figure-regeneration benches.
//!
//! Every table and figure of the paper's evaluation section has a bench
//! target in `benches/`; `cargo bench` prints each one as a text table with
//! the paper's reported numbers alongside for shape comparison (see
//! EXPERIMENTS.md). The 8-benchmark x 4-scheme full-system campaign behind
//! Figures 7-11 is expensive, so it runs through `punchsim::campaign`: one
//! worker per core and a content-hashed result store in the target
//! directory shared by all five figure targets (and by
//! `punchsim-cli campaign`).
//!
//! Set `PP_FAST=1` to run shortened simulations (smoke mode); the switch is
//! defined once, in [`punchsim::campaign::fast_mode`].

#![forbid(unsafe_code)]

use punchsim::campaign::{self, Runner, Store, Workload};
use punchsim::cmp::Benchmark;
use punchsim::types::SchemeKind;

pub use punchsim::campaign::{fast_mode, instr_per_core, synth_cycles};

/// One full-system run's distilled metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Workload.
    pub benchmark: Benchmark,
    /// Scheme.
    pub scheme: SchemeKind,
    /// Execution cycles (measured window).
    pub exec_cycles: u64,
    /// Mean packet latency in cycles.
    pub latency: f64,
    /// Mean powered-off routers encountered per packet (Fig 9).
    pub encounters: f64,
    /// Mean wakeup-wait cycles per packet (Fig 10).
    pub wait: f64,
    /// Dynamic router energy, pJ (Fig 11).
    pub dynamic_pj: f64,
    /// Static router energy, pJ (Fig 11).
    pub static_pj: f64,
    /// Power-gating overhead energy, pJ (Fig 11).
    pub overhead_pj: f64,
    /// No-PG static energy of the same window, pJ.
    pub baseline_static_pj: f64,
}

/// Runs (or loads from the campaign result store) the full PARSEC
/// campaign: every benchmark under every evaluated scheme, in parallel.
/// This is the data behind Figures 7, 8, 9, 10 and 11.
pub fn parsec_campaign() -> Vec<RunMetrics> {
    let specs = campaign::parsec_suite(campaign::DEFAULT_SEED);
    let runner = Runner {
        threads: 0,
        store: Some(Store::in_target()),
        ..Default::default()
    };
    let outcomes = runner.run_with(&specs, &|_, outcome| {
        if let Some(rec) = outcome.record() {
            if !rec.cached {
                eprintln!("ran {}", rec.spec.id());
            }
        }
    });
    specs
        .into_iter()
        .zip(outcomes)
        .map(|(spec, outcome)| {
            let rec = outcome
                .record()
                .unwrap_or_else(|| panic!("{}", outcome.error().expect("failed run")));
            let m = &rec.metrics;
            assert!(m.completed, "{} did not complete", spec.id());
            let Workload::Parsec { benchmark, .. } = spec.workload else {
                unreachable!("parsec_suite yields only Parsec workloads")
            };
            RunMetrics {
                benchmark,
                scheme: spec.scheme,
                exec_cycles: m.exec_cycles,
                latency: m.latency,
                encounters: m.encounters,
                wait: m.wait,
                dynamic_pj: m.dynamic_pj,
                static_pj: m.static_pj,
                overhead_pj: m.overhead_pj,
                baseline_static_pj: m.baseline_static_pj,
            }
        })
        .collect()
}

/// The metrics of `bench` under `scheme` from a campaign slice.
pub fn pick(runs: &[RunMetrics], bench: Benchmark, scheme: SchemeKind) -> RunMetrics {
    *runs
        .iter()
        .find(|r| r.benchmark == bench && r.scheme == scheme)
        .expect("campaign covers all pairs")
}

/// Geometric-mean-free average of a metric across benchmarks for a scheme.
pub fn average<F: Fn(RunMetrics) -> f64>(
    runs: &[RunMetrics],
    scheme: SchemeKind,
    f: F,
) -> f64 {
    let vals: Vec<f64> = runs
        .iter()
        .filter(|r| r.scheme == scheme)
        .map(|r| f(*r))
        .collect();
    vals.iter().sum::<f64>() / vals.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(benchmark: Benchmark, scheme: SchemeKind, latency: f64) -> RunMetrics {
        RunMetrics {
            benchmark,
            scheme,
            exec_cycles: 1000,
            latency,
            encounters: 0.0,
            wait: 0.0,
            dynamic_pj: 0.0,
            static_pj: 0.0,
            overhead_pj: 0.0,
            baseline_static_pj: 0.0,
        }
    }

    #[test]
    fn pick_and_average_select_by_pair_and_scheme() {
        let runs = vec![
            metrics(Benchmark::Canneal, SchemeKind::NoPg, 20.0),
            metrics(Benchmark::Canneal, SchemeKind::PowerPunchFull, 30.0),
            metrics(Benchmark::Dedup, SchemeKind::PowerPunchFull, 50.0),
        ];
        let hit = pick(&runs, Benchmark::Canneal, SchemeKind::PowerPunchFull);
        assert_eq!(hit.latency, 30.0);
        let avg = average(&runs, SchemeKind::PowerPunchFull, |r| r.latency);
        assert_eq!(avg, 40.0);
    }
}
