//! The parallel campaign executor.
//!
//! Independent simulation configs are embarrassingly parallel, so the
//! runner fans a spec list out over `std::thread::scope` workers pulling
//! from a shared atomic cursor (work-stealing in the "next idle worker
//! takes the next spec" sense — long runs never leave a core idle while
//! short ones finish). Three guarantees, each covered by a test:
//!
//! * **Deterministic ordering** — outcomes land at their spec's index, so
//!   artifacts are byte-identical whether the campaign ran on 1 thread or N.
//! * **Panic isolation** — a panicking run (e.g. a wedged protocol
//!   assertion) becomes a typed [`RunError`] entry; the other workers keep
//!   draining the queue and the campaign completes.
//! * **Incremental re-runs** — with a [`Store`] attached, specs whose
//!   content hash already has a result short-circuit to a cache hit.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use punchsim_obs::metrics::Registry;
use punchsim_obs::Stamped;

use crate::series::IntervalRow;
use crate::spec::{Metrics, ObserveOpts, RunSpec};
use crate::store::Store;

/// A completed run: its deterministic metrics, how it was obtained (cache
/// or simulation), how long it took and what was observed of it — all but
/// the metrics feed the timing sidecar, never the deterministic artifact.
/// [`RunSpec::execute_observed`] returns one; a cache hit is the same
/// record with nothing observed.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The spec that ran.
    pub spec: RunSpec,
    /// Deterministic results.
    pub metrics: Metrics,
    /// `true` when served from the result store without simulating.
    pub cached: bool,
    /// Wall-clock nanoseconds this worker spent on the run (set by the
    /// runner; 0 from a direct [`RunSpec::execute_observed`]).
    pub wall_nanos: u64,
    /// Per-interval time series tiling the measured window (empty unless
    /// the runner sampled).
    pub series: Vec<IntervalRow>,
    /// Flight-recorder tail (empty unless the runner traced; feeds the
    /// per-run trace dumps).
    pub events: Vec<Stamped>,
    /// Metric registry (`None` unless the runner collected metrics).
    pub registry: Option<Box<Registry>>,
    /// Shard worker threads the run created (at most `shards - 1`, the
    /// persistent pool's size).
    pub spawn_count: u64,
    /// Wall-clock nanoseconds spent creating those threads.
    pub spawn_nanos: u64,
    /// Sharded ticks executed through the persistent worker pool.
    pub pool_ticks: u64,
    /// Host nanoseconds blocked at the pool's completion barrier.
    pub pool_wait_nanos: u64,
}

impl RunRecord {
    /// The record of `metrics` with nothing observed.
    pub(crate) fn unobserved(spec: &RunSpec, metrics: Metrics) -> RunRecord {
        RunRecord {
            spec: spec.clone(),
            metrics,
            cached: false,
            wall_nanos: 0,
            series: Vec::new(),
            events: Vec::new(),
            registry: None,
            spawn_count: 0,
            spawn_nanos: 0,
            pool_ticks: 0,
            pool_wait_nanos: 0,
        }
    }

    /// Simulated cycles per wall-clock second (the simulator-throughput
    /// metric; meaningless for cache hits, which report `None`).
    pub fn cycles_per_sec(&self) -> Option<f64> {
        if self.cached || self.wall_nanos == 0 {
            return None;
        }
        Some(self.metrics.total_cycles as f64 * 1e9 / self.wall_nanos as f64)
    }
}

/// Why a run produced no metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunErrorKind {
    /// The run panicked; the payload message is preserved.
    Panic(String),
    /// The simulation returned a typed error (watchdog stall, invariant
    /// violation, bad config), rendered to its display form.
    Sim(String),
}

/// A failed run. One poisoned spec yields one of these; the rest of the
/// campaign still completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// The failing spec's id.
    pub id: String,
    /// What happened.
    pub kind: RunErrorKind,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            RunErrorKind::Panic(m) => write!(f, "{}: panicked: {m}", self.id),
            RunErrorKind::Sim(m) => write!(f, "{}: {m}", self.id),
        }
    }
}

/// The result slot for one spec.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The run completed (boxed: a record now carries an optional registry
    /// and grew well past the error variant).
    Done(Box<RunRecord>),
    /// The run failed.
    Failed(RunError),
}

impl Outcome {
    /// The record, if the run completed.
    pub fn record(&self) -> Option<&RunRecord> {
        match self {
            Outcome::Done(r) => Some(r),
            Outcome::Failed(_) => None,
        }
    }

    /// The error, if the run failed.
    pub fn error(&self) -> Option<&RunError> {
        match self {
            Outcome::Done(_) => None,
            Outcome::Failed(e) => Some(e),
        }
    }
}

/// Executes spec lists on a scoped worker pool.
#[derive(Debug, Default)]
pub struct Runner {
    /// Worker count; `0` means [`Runner::default_threads`].
    pub threads: usize,
    /// Result store for incremental re-runs; `None` always simulates.
    pub store: Option<Store>,
    /// What every run collects beyond its metrics. Any observation forces
    /// simulation (the store holds metrics, not series, events or
    /// registries), but results are still saved, so a later unobserved
    /// campaign hits the cache — and the metrics themselves are unchanged.
    pub observe: ObserveOpts,
    /// Row-band shard count every run's network ticks with (see
    /// `Network::set_shards`); `0` and `1` both mean unsharded. Like
    /// `threads`, an execution detail: it never changes a result and never
    /// enters a spec's content hash.
    pub shards: usize,
}

impl Runner {
    /// One worker per available core (the whole campaign is CPU-bound).
    pub fn default_threads() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// The worker count this runner will actually use for `n` specs.
    pub fn effective_threads(&self, n: usize) -> usize {
        let t = if self.threads == 0 {
            Runner::default_threads()
        } else {
            self.threads
        };
        t.min(n).max(1)
    }

    /// Runs every spec and returns outcomes **in spec order**, regardless
    /// of which worker finished first.
    pub fn run(&self, specs: &[RunSpec]) -> Vec<Outcome> {
        self.run_with(specs, &|_, _| {})
    }

    /// Like [`Runner::run`], additionally invoking `on_done(index,
    /// outcome)` from the worker thread as each run finishes (progress
    /// reporting; completion order, not spec order).
    pub fn run_with(
        &self,
        specs: &[RunSpec],
        on_done: &(dyn Fn(usize, &Outcome) + Sync),
    ) -> Vec<Outcome> {
        let threads = self.effective_threads(specs.len());
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Outcome>>> = specs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { break };
                    let (store, shards) = (self.store.as_ref(), self.shards.max(1));
                    let outcome = execute_one(spec, store, self.observe, shards);
                    on_done(i, &outcome);
                    *slots[i].lock().expect("result slot poisoned") = Some(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("result slot poisoned")
                    .expect("every slot filled by the scope")
            })
            .collect()
    }
}

/// Runs one spec: store lookup, then an isolated simulation on a miss.
/// Requested observation (sampling or tracing) can only come from a live
/// simulation, so it bypasses the store lookup (results are still saved
/// for later unobserved campaigns).
fn execute_one(spec: &RunSpec, store: Option<&Store>, opts: ObserveOpts, shards: usize) -> Outcome {
    let started = Instant::now();
    if opts.is_none() {
        if let Some(store) = store {
            if let Some(metrics) = store.load(spec) {
                return Outcome::Done(Box::new(RunRecord {
                    cached: true,
                    wall_nanos: started.elapsed().as_nanos() as u64,
                    ..RunRecord::unobserved(spec, metrics)
                }));
            }
        }
    }
    // The spec and its config are rebuilt from scratch inside `execute`;
    // nothing mutable crosses the unwind boundary, so the suppression of
    // the UnwindSafe bound is sound.
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| spec.execute_observed(opts, shards)));
    let wall_nanos = started.elapsed().as_nanos() as u64;
    match result {
        Ok(Ok(record)) => {
            if let Some(store) = store {
                if let Err(e) = store.save(spec, &record.metrics) {
                    eprintln!("warning: could not store {}: {e}", spec.id());
                }
            }
            Outcome::Done(Box::new(RunRecord {
                wall_nanos,
                ..record
            }))
        }
        Ok(Err(sim)) => Outcome::Failed(RunError {
            id: spec.id(),
            kind: RunErrorKind::Sim(sim.to_string()),
        }),
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Outcome::Failed(RunError {
                id: spec.id(),
                kind: RunErrorKind::Panic(message),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficPattern;
    use punchsim_types::{Mesh, RoutingKind, SchemeKind};

    use crate::spec::Workload;

    fn small_spec(seed: u64, rate: f64) -> RunSpec {
        RunSpec {
            scheme: SchemeKind::ConvOptPg,
            seed,
            workload: Workload::Synthetic {
                pattern: TrafficPattern::UniformRandom,
                topo: Mesh::new(4, 4).into(),
                routing: RoutingKind::Xy,
                rate,
                warmup_cycles: 50,
                measure_cycles: 200,
            },
        }
    }

    #[test]
    fn outcomes_keep_spec_order() {
        let specs: Vec<RunSpec> = (0..6).map(|s| small_spec(s, 0.02)).collect();
        let runner = Runner {
            threads: 3,
            store: None,
            ..Default::default()
        };
        let outcomes = runner.run(&specs);
        assert_eq!(outcomes.len(), specs.len());
        for (spec, outcome) in specs.iter().zip(&outcomes) {
            let rec = outcome.record().expect("healthy specs all complete");
            assert_eq!(rec.spec.id(), spec.id());
            assert!(!rec.cached);
        }
    }

    #[test]
    fn panicking_spec_is_isolated() {
        // A hotspot outside the mesh trips the traffic harness's in-mesh
        // `expect` — a poisoned spec that panics. A negative rate is checked
        // before construction and comes back as a typed error. The
        // neighbours of both must still complete.
        let mut poisoned = small_spec(1, 0.02);
        if let Workload::Synthetic { pattern, .. } = &mut poisoned.workload {
            *pattern = TrafficPattern::Hotspot(punchsim_types::NodeId(99));
        }
        let specs = vec![
            small_spec(0, 0.02),
            poisoned,
            small_spec(2, -1.0),
            small_spec(3, 0.02),
        ];
        let runner = Runner {
            threads: 2,
            store: None,
            ..Default::default()
        };
        let outcomes = runner.run(&specs);
        assert!(outcomes[0].record().is_some());
        assert!(outcomes[3].record().is_some());
        let err = outcomes[1].error().expect("poisoned spec must fail");
        assert_eq!(err.id, specs[1].id());
        match &err.kind {
            RunErrorKind::Panic(m) => assert!(m.contains("in-mesh"), "{m}"),
            other => panic!("expected a panic error, got {other:?}"),
        }
        match &outcomes[2].error().expect("bad rate must fail").kind {
            RunErrorKind::Sim(m) => assert!(m.contains("injection rate"), "{m}"),
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    #[test]
    fn store_short_circuits_second_run() {
        let dir =
            std::env::temp_dir().join(format!("punchsim-runner-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let specs: Vec<RunSpec> = (0..3).map(|s| small_spec(s, 0.02)).collect();
        let runner = Runner {
            threads: 2,
            store: Some(Store::new(&dir)),
            ..Default::default()
        };
        let first = runner.run(&specs);
        assert!(first.iter().all(|o| !o.record().unwrap().cached));
        let second = runner.run(&specs);
        for (a, b) in first.iter().zip(&second) {
            let (a, b) = (a.record().unwrap(), b.record().unwrap());
            assert!(b.cached, "second pass must hit the store");
            assert_eq!(a.metrics, b.metrics);
        }
        // A new spec alongside cached ones simulates only itself.
        let mut extended = specs.clone();
        extended.push(small_spec(99, 0.02));
        let third = runner.run(&extended);
        assert!(third[..3].iter().all(|o| o.record().unwrap().cached));
        assert!(!third[3].record().unwrap().cached);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampling_yields_series_and_bypasses_cache_without_metric_drift() {
        let dir = std::env::temp_dir().join(format!(
            "punchsim-runner-sample-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let specs = vec![small_spec(5, 0.02)];
        let plain = Runner {
            threads: 1,
            store: Some(Store::new(&dir)),
            ..Default::default()
        }
        .run(&specs);
        let p = plain[0].record().unwrap();
        assert!(p.series.is_empty());
        // Sampling must simulate (the store has no series) yet reproduce
        // the stored metrics exactly.
        let sampled = Runner {
            threads: 1,
            store: Some(Store::new(&dir)),
            observe: ObserveOpts {
                sample_every: 50,
                trace_cap: 512,
                metrics: false,
            },
            ..Default::default()
        }
        .run(&specs);
        let s = sampled[0].record().unwrap();
        assert!(!s.cached, "observation cannot be served from the store");
        assert_eq!(s.metrics, p.metrics);
        // 200 measured cycles at a 50-cycle period close four intervals.
        assert_eq!(s.series.len(), 4);
        // The flight recorder captured the run's event tail.
        assert!(!s.events.is_empty());
        assert!(s.events.len() <= 512);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_collection_forces_simulation_without_metric_drift() {
        let dir = std::env::temp_dir().join(format!(
            "punchsim-runner-metrics-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let specs = vec![small_spec(11, 0.02)];
        let plain = Runner {
            threads: 1,
            store: Some(Store::new(&dir)),
            ..Default::default()
        }
        .run(&specs);
        let p = plain[0].record().unwrap();
        assert!(p.registry.is_none());
        let collected = Runner {
            threads: 1,
            store: Some(Store::new(&dir)),
            observe: ObserveOpts {
                metrics: true,
                ..ObserveOpts::NONE
            },
            ..Default::default()
        }
        .run(&specs);
        let c = collected[0].record().unwrap();
        assert!(!c.cached, "a registry cannot be served from the store");
        assert_eq!(c.metrics, p.metrics);
        let reg = c.registry.as_ref().expect("metrics were requested");
        // The registry's deterministic counters agree with the metrics.
        assert_eq!(reg.counter("packets_delivered_total"), c.metrics.delivered);
        // The profiler attributed wall time to at least one phase.
        assert!(reg.counter("tick_phase_marks{phase=\"power_tick\"}") > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
