//! Declarative run descriptions and their execution.
//!
//! A campaign is a list of [`RunSpec`]s — scheme × workload × configuration
//! × seed. A spec is pure data: it can be hashed ([`RunSpec::content_hash`])
//! for the incremental result store, rendered into a stable id for
//! artifacts, and executed ([`RunSpec::execute`]) into [`Metrics`].

use punchsim_cmp::{Benchmark, CmpConfig, CmpSim};
use punchsim_noc::{Network, NetworkReport};
use punchsim_obs::metrics::Registry;
use punchsim_obs::{IntervalRow, RingSink, Sampler, Stamped};
use punchsim_power::PowerModel;
use punchsim_traffic::{InjectionConfig, SyntheticSim, TrafficPattern};
use punchsim_types::{RoutingKind, SchemeKind, SimConfig, SimError, Substrate};

use crate::hash::Fnv64;
use crate::json::Json;

/// Schema tag stamped into every artifact and mixed into every content
/// hash. Bump it whenever the meaning of a metric changes: old store
/// entries and baselines then stop matching instead of silently lying.
/// v2 added the deterministic latency percentiles (p50/p95/p99/max).
pub const SCHEMA_VERSION: &str = "punchsim-campaign/v2";

/// What a single run simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// A full-system PARSEC-preset run on the MESI CMP substrate
    /// (the Figures 7–11 campaign).
    Parsec {
        /// Workload preset.
        benchmark: Benchmark,
        /// Instructions each core retires after warm-up.
        instr_per_core: u64,
        /// Warm-up instructions per core.
        warmup_instr: u64,
    },
    /// An open-loop synthetic-traffic run (the Figure 12 sweeps).
    Synthetic {
        /// Destination pattern.
        pattern: TrafficPattern,
        /// Network substrate (mesh or torus).
        topo: Substrate,
        /// Routing function driving the substrate.
        routing: RoutingKind,
        /// Offered load in flits/node/cycle.
        rate: f64,
        /// Warm-up cycles before statistics reset.
        warmup_cycles: u64,
        /// Measured cycles.
        measure_cycles: u64,
    },
}

/// One run: a workload under a scheme with a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Power-gating scheme.
    pub scheme: SchemeKind,
    /// RNG seed threaded into [`SimConfig::seed`].
    pub seed: u64,
    /// What to simulate.
    pub workload: Workload,
}

impl RunSpec {
    /// Stable human-readable id, unique within a campaign:
    /// `parsec/canneal/ppf/s12648430` or
    /// `synth/uniform/8x8/r0.005/ppf/s12648430`.
    pub fn id(&self) -> String {
        match &self.workload {
            Workload::Parsec { benchmark, .. } => {
                format!(
                    "parsec/{}/{}/s{}",
                    benchmark.name(),
                    self.scheme.tag(),
                    self.seed
                )
            }
            Workload::Synthetic {
                pattern,
                topo,
                routing,
                rate,
                ..
            } => {
                // The substrate segment stays byte-identical to the historic
                // `{w}x{h}` rendering for the default mesh + XY combination
                // (`Substrate::tag` renders a mesh as `8x8`); non-default
                // routing appends a dash-suffix inside the same segment so
                // the id keeps its slash structure.
                let mut sub = topo.tag();
                if *routing != RoutingKind::Xy {
                    sub.push('-');
                    sub.push_str(routing.tag());
                }
                format!(
                    "synth/{}/{}/r{}/{}/s{}",
                    pattern.tag(),
                    sub,
                    rate,
                    self.scheme.tag(),
                    self.seed
                )
            }
        }
    }

    /// Digest of everything that determines this run's results (schema
    /// version included). Two specs with equal hashes produce identical
    /// metrics; the store relies on this for cache hits.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(SCHEMA_VERSION);
        h.write_str(self.scheme.tag());
        h.write_u64(self.seed);
        match &self.workload {
            Workload::Parsec {
                benchmark,
                instr_per_core,
                warmup_instr,
            } => {
                h.write_str("parsec");
                h.write_str(benchmark.name());
                h.write_u64(*instr_per_core);
                h.write_u64(*warmup_instr);
            }
            Workload::Synthetic {
                pattern,
                topo,
                routing,
                rate,
                warmup_cycles,
                measure_cycles,
            } => {
                h.write_str("synth");
                h.write_str(pattern.tag());
                h.write_u64(topo.width() as u64);
                h.write_u64(topo.height() as u64);
                // Non-default substrates and routers extend the digest;
                // the default mesh + XY writes exactly the historic byte
                // sequence, keeping store entries and baselines valid.
                if !matches!(topo, Substrate::Mesh(_)) {
                    h.write_str(topo.kind_name());
                    // A torus always wrote its terminals per router here,
                    // which was 1; the literal keeps torus store keys and
                    // baselines valid.
                    h.write_u64(1);
                }
                if *routing != RoutingKind::Xy {
                    h.write_str(routing.tag());
                }
                h.write_f64(*rate);
                h.write_u64(*warmup_cycles);
                h.write_u64(*measure_cycles);
            }
        }
        h.finish()
    }

    /// The workload parameters as a JSON object (part of the artifact, so a
    /// baseline documents exactly what it measured).
    pub fn workload_json(&self) -> Json {
        let mut o = Json::obj();
        match &self.workload {
            Workload::Parsec {
                benchmark,
                instr_per_core,
                warmup_instr,
            } => {
                o.push("kind", Json::Str("parsec".to_string()));
                o.push("benchmark", Json::Str(benchmark.name().to_string()));
                o.push("instr_per_core", Json::Int(*instr_per_core as i64));
                o.push("warmup_instr", Json::Int(*warmup_instr as i64));
            }
            Workload::Synthetic {
                pattern,
                topo,
                routing,
                rate,
                warmup_cycles,
                measure_cycles,
            } => {
                o.push("kind", Json::Str("synth".to_string()));
                o.push("pattern", Json::Str(pattern.tag().to_string()));
                // The key stays "mesh" (and a plain mesh renders the
                // historic "WxH") so default artifacts are byte-identical;
                // a non-XY router adds a "routing" key after it.
                o.push("mesh", Json::Str(topo.tag()));
                if *routing != RoutingKind::Xy {
                    o.push("routing", Json::Str(routing.tag().to_string()));
                }
                o.push("rate", Json::Float(*rate));
                o.push("warmup_cycles", Json::Int(*warmup_cycles as i64));
                o.push("measure_cycles", Json::Int(*measure_cycles as i64));
            }
        }
        o
    }

    /// Runs the simulation and distils [`Metrics`].
    ///
    /// # Errors
    ///
    /// Propagates watchdog errors from the synthetic harness
    /// ([`SimError::Stall`], [`SimError::Invariant`]). Full-system runs
    /// surface protocol wedges as panics, which the campaign runner
    /// isolates per run.
    pub fn execute(&self) -> Result<Metrics, SimError> {
        Ok(self.execute_observed(ObserveOpts::NONE, 1)?.metrics)
    }

    /// Like [`RunSpec::execute`], additionally collecting a per-interval
    /// time series and/or a flight-recorder event tail, per `opts`.
    ///
    /// The simulation performs exactly the same ticks as [`RunSpec::execute`]
    /// — the sampler is host-driven (read-only snapshots between ticks) and
    /// the sink never feeds back into the protocol — so `metrics` is
    /// identical whether or not observation is attached. That invariant is
    /// what lets the runner keep serving the deterministic artifact from the
    /// result store while regenerating series on demand.
    ///
    /// `shards` is the row-band shard count the run's network ticks with
    /// (see `Network::set_shards`): like observation it never changes
    /// `metrics`, which is why it is an argument here and not a spec field.
    ///
    /// # Errors
    ///
    /// Same as [`RunSpec::execute`], plus the typed shard-count errors of
    /// `Network::set_shards`.
    pub fn execute_observed(&self, opts: ObserveOpts, shards: usize) -> Result<Observed, SimError> {
        // Per-scheme model: identical to `default_45nm()` for every scheme
        // with the BASELINE power profile, so historical artifacts hold.
        let pm = PowerModel::for_scheme(self.scheme);
        match &self.workload {
            Workload::Parsec {
                benchmark,
                instr_per_core,
                warmup_instr,
            } => {
                let mut cfg = CmpConfig::new(*benchmark, self.scheme);
                cfg.sim.seed = self.seed;
                cfg.instr_per_core = *instr_per_core;
                cfg.warmup_instr = *warmup_instr;
                let routers = cfg.sim.noc.topology.nodes();
                let mut sim = CmpSim::new(cfg);
                sim.network_mut().set_shards(shards)?;
                attach(sim.network_mut(), opts.trace_cap, opts.metrics);
                let mut sampler = Sampler::new(routers);
                let every = if opts.sample_every > 0 {
                    sampler.observe(sim.network().obs_sample());
                    opts.sample_every
                } else {
                    u64::MAX
                };
                let r = sim.run_hooked(every, &mut |net| sampler.observe(net.obs_sample()));
                let metrics = Metrics::from_report(&r.net, &pm, r.total_cycles, r.completed);
                Ok(Observed::collect(sim.network_mut(), metrics, sampler))
            }
            Workload::Synthetic {
                pattern,
                topo,
                routing,
                rate,
                warmup_cycles,
                measure_cycles,
            } => {
                let mut cfg = SimConfig::with_scheme(self.scheme);
                cfg.noc.topology = *topo;
                cfg.noc.routing = *routing;
                cfg.seed = self.seed;
                let routers = topo.nodes();
                InjectionConfig::at_rate(*rate).validate()?;
                let mut sim = SyntheticSim::new(cfg, *pattern, *rate);
                sim.network_mut().set_shards(shards)?;
                attach(sim.network_mut(), opts.trace_cap, opts.metrics);
                // The same tick sequence as `run_experiment`, opened up so
                // the measured window can be sampled at interval boundaries.
                sim.run(*warmup_cycles)?;
                sim.network_mut().reset_stats();
                let mut sampler = Sampler::new(routers);
                if opts.sample_every == 0 {
                    sim.run(*measure_cycles)?;
                } else {
                    sampler.observe(sim.network().obs_sample());
                    let mut remaining = *measure_cycles;
                    while remaining > 0 {
                        let chunk = opts.sample_every.min(remaining);
                        sim.run(chunk)?;
                        sampler.observe(sim.network().obs_sample());
                        remaining -= chunk;
                    }
                }
                let total = warmup_cycles + measure_cycles;
                let metrics = Metrics::from_report(&sim.report(), &pm, total, true);
                Ok(Observed::collect(sim.network_mut(), metrics, sampler))
            }
        }
    }
}

/// Attaches observers to a freshly built network: a flight recorder of
/// `trace_cap` events (none at 0) and, for `metrics`, the tick-phase
/// profiler. Neither feeds back into the simulation.
pub fn attach(net: &mut Network, trace_cap: usize, metrics: bool) {
    if trace_cap > 0 {
        net.set_sink(Box::new(RingSink::new(trace_cap)));
    }
    if metrics {
        net.enable_profiler();
    }
}

/// Detaches what [`attach`] (or the host) attached: the sink's retained
/// events (empty without a sink) and, when a profiler was running, the
/// run's metric registry — every deterministic counter/histogram/plane the
/// network exports plus the wall-clock tick-phase profile.
pub fn harvest(net: &mut Network) -> (Vec<Stamped>, Option<Registry>) {
    let events = net.take_sink().map(|s| s.snapshot()).unwrap_or_default();
    let registry = net.take_profiler().map(|profiler| {
        let mut reg = Registry::new();
        net.export_metrics(&mut reg);
        profiler.export(&mut reg);
        reg
    });
    (events, registry)
}

/// What [`RunSpec::execute_observed`] should collect beyond [`Metrics`];
/// the default is [`ObserveOpts::NONE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObserveOpts {
    /// Sampling interval in cycles for the per-interval time series;
    /// `0` disables sampling.
    pub sample_every: u64,
    /// Flight-recorder capacity in events; `0` leaves tracing off.
    pub trace_cap: usize,
    /// When `true`, the run collects a metric [`Registry`] (counters,
    /// latency histogram, per-router planes, tick-phase profile). Like
    /// the sampler and the sink, collection never changes [`Metrics`].
    pub metrics: bool,
}

impl ObserveOpts {
    /// No observation: [`RunSpec::execute_observed`] behaves exactly like
    /// [`RunSpec::execute`].
    pub const NONE: ObserveOpts = ObserveOpts {
        sample_every: 0,
        trace_cap: 0,
        metrics: false,
    };

    /// `true` when no form of observation is requested.
    pub fn is_none(&self) -> bool {
        self.sample_every == 0 && self.trace_cap == 0 && !self.metrics
    }
}

/// An observed run: deterministic metrics plus whatever observation was
/// requested. `series` and `events` feed the nondeterministic timing
/// sidecar and trace artifacts — never the `BENCH_<name>.json` contract.
#[derive(Debug, Clone)]
pub struct Observed {
    /// The same metrics [`RunSpec::execute`] would produce.
    pub metrics: Metrics,
    /// Closed sampling intervals (empty when `sample_every` was 0).
    pub series: Vec<IntervalRow>,
    /// Flight-recorder tail (empty when `trace_cap` was 0).
    pub events: Vec<Stamped>,
    /// Metric registry (`None` unless `metrics` was requested).
    pub registry: Option<Box<Registry>>,
    /// Shard worker threads created across the run (0 when phase A never
    /// took the sharded path): pool creations — at most `shards - 1` per
    /// pool lifetime, and 0 in the measured window when the pool came up
    /// during warm-up. Always collected — it is a single counter read — so
    /// the timing sidecar can report thread overhead per run.
    pub spawn_count: u64,
    /// Wall-clock nanoseconds spent creating those threads.
    pub spawn_nanos: u64,
    /// Sharded ticks executed through the persistent worker pool (0 when
    /// never sharded).
    pub pool_ticks: u64,
    /// Wall-clock nanoseconds the host thread spent blocked at the pool's
    /// completion barrier after finishing its own shard — cross-shard
    /// load imbalance, not compute.
    pub pool_wait_nanos: u64,
}

impl Observed {
    /// Harvests a finished run's network into the observation record.
    fn collect(net: &mut Network, metrics: Metrics, sampler: Sampler) -> Observed {
        let (spawn_count, spawn_nanos) = net.spawn_stats();
        let (pool_ticks, pool_wait_nanos) = net.pool_stats();
        let (events, registry) = harvest(net);
        Observed {
            metrics,
            series: sampler.into_rows(),
            events,
            // Boxed: large relative to `Observed`, and usually absent.
            registry: registry.map(Box::new),
            spawn_count,
            spawn_nanos,
            pool_ticks,
            pool_wait_nanos,
        }
    }
}

/// The deterministic, machine-readable result of one run. Everything here
/// depends only on the spec (never on wall-clock or thread count), which is
/// what makes campaign artifacts byte-identical across `--threads` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Packets delivered in the measured window.
    pub delivered: u64,
    /// Packets injected in the measured window.
    pub injected: u64,
    /// Measured-window cycles (full-system: execution cycles).
    pub exec_cycles: u64,
    /// All simulated cycles including warm-up (the wall-clock throughput
    /// denominator).
    pub total_cycles: u64,
    /// Mean packet latency, cycles.
    pub latency: f64,
    /// Median packet latency, cycles (log-bucketed histogram quantile,
    /// deterministic like every other metric here).
    pub latency_p50: u64,
    /// 95th-percentile packet latency, cycles.
    pub latency_p95: u64,
    /// 99th-percentile packet latency, cycles.
    pub latency_p99: u64,
    /// Worst packet latency, cycles (exact, not bucketed).
    pub latency_max: u64,
    /// Mean powered-off routers encountered per packet (Fig 9).
    pub encounters: f64,
    /// Mean wakeup-wait cycles per packet (Fig 10).
    pub wait: f64,
    /// Watchdog force-wake escalations (0 in a healthy run).
    pub escalations: u64,
    /// Fraction of router-cycles spent powered off.
    pub off_fraction: f64,
    /// Dynamic router energy, pJ (Fig 11).
    pub dynamic_pj: f64,
    /// Static router energy, pJ (Fig 11).
    pub static_pj: f64,
    /// Power-gating overhead energy, pJ (Fig 11).
    pub overhead_pj: f64,
    /// No-PG static energy over the same window, pJ.
    pub baseline_static_pj: f64,
    /// Whether the run finished within its cycle cap.
    pub completed: bool,
}

impl Metrics {
    /// Distils a network report: the measured window is the report's,
    /// energy comes from `model`, and the host supplies what the network
    /// cannot know — all simulated cycles including warm-up, and whether
    /// the run finished within its cap.
    pub fn from_report(
        r: &NetworkReport,
        model: &PowerModel,
        total_cycles: u64,
        completed: bool,
    ) -> Metrics {
        let b = model.breakdown(r);
        Metrics {
            delivered: r.stats.packets_delivered,
            injected: r.stats.packets_injected,
            exec_cycles: r.cycles,
            total_cycles,
            latency: r.avg_packet_latency(),
            latency_p50: r.latency_p50(),
            latency_p95: r.latency_p95(),
            latency_p99: r.latency_p99(),
            latency_max: r.latency_max(),
            encounters: r.avg_pg_encounters(),
            wait: r.avg_wakeup_wait(),
            escalations: r.pg.escalations,
            off_fraction: r.off_fraction(),
            dynamic_pj: b.dynamic_pj,
            static_pj: b.static_pj,
            overhead_pj: b.overhead_pj,
            baseline_static_pj: model.baseline_static_pj(r),
            completed,
        }
    }

    /// The JSON object stored in artifacts and the result store. Key order
    /// is part of the byte-identical-artifact contract.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("delivered", Json::Int(self.delivered as i64));
        o.push("injected", Json::Int(self.injected as i64));
        o.push("exec_cycles", Json::Int(self.exec_cycles as i64));
        o.push("total_cycles", Json::Int(self.total_cycles as i64));
        o.push("latency", Json::Float(self.latency));
        o.push("latency_p50", Json::Int(self.latency_p50 as i64));
        o.push("latency_p95", Json::Int(self.latency_p95 as i64));
        o.push("latency_p99", Json::Int(self.latency_p99 as i64));
        o.push("latency_max", Json::Int(self.latency_max as i64));
        o.push("encounters", Json::Float(self.encounters));
        o.push("wait", Json::Float(self.wait));
        o.push("escalations", Json::Int(self.escalations as i64));
        o.push("off_fraction", Json::Float(self.off_fraction));
        o.push("dynamic_pj", Json::Float(self.dynamic_pj));
        o.push("static_pj", Json::Float(self.static_pj));
        o.push("overhead_pj", Json::Float(self.overhead_pj));
        o.push("baseline_static_pj", Json::Float(self.baseline_static_pj));
        o.push("completed", Json::Bool(self.completed));
        o
    }

    /// Parses a [`Metrics::to_json`] object back.
    pub fn from_json(v: &Json) -> Option<Metrics> {
        Some(Metrics {
            delivered: v.get("delivered")?.as_u64()?,
            injected: v.get("injected")?.as_u64()?,
            exec_cycles: v.get("exec_cycles")?.as_u64()?,
            total_cycles: v.get("total_cycles")?.as_u64()?,
            latency: v.get("latency")?.as_f64()?,
            latency_p50: v.get("latency_p50")?.as_u64()?,
            latency_p95: v.get("latency_p95")?.as_u64()?,
            latency_p99: v.get("latency_p99")?.as_u64()?,
            latency_max: v.get("latency_max")?.as_u64()?,
            encounters: v.get("encounters")?.as_f64()?,
            wait: v.get("wait")?.as_f64()?,
            escalations: v.get("escalations")?.as_u64()?,
            off_fraction: v.get("off_fraction")?.as_f64()?,
            dynamic_pj: v.get("dynamic_pj")?.as_f64()?,
            static_pj: v.get("static_pj")?.as_f64()?,
            overhead_pj: v.get("overhead_pj")?.as_f64()?,
            baseline_static_pj: v.get("baseline_static_pj")?.as_f64()?,
            completed: v.get("completed")?.as_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::Mesh;

    fn synth_spec() -> RunSpec {
        RunSpec {
            scheme: SchemeKind::PowerPunchFull,
            seed: 7,
            workload: Workload::Synthetic {
                pattern: TrafficPattern::Transpose,
                topo: Mesh::new(4, 4).into(),
                routing: RoutingKind::Xy,
                rate: 0.05,
                warmup_cycles: 100,
                measure_cycles: 400,
            },
        }
    }

    #[test]
    fn ids_are_stable_and_distinct() {
        let s = synth_spec();
        assert_eq!(s.id(), "synth/transpose/4x4/r0.05/ppf/s7");
        let p = RunSpec {
            scheme: SchemeKind::NoPg,
            seed: 0xC0FFEE,
            workload: Workload::Parsec {
                benchmark: Benchmark::Canneal,
                instr_per_core: 20_000,
                warmup_instr: 2_000,
            },
        };
        assert_eq!(p.id(), "parsec/canneal/nopg/s12648430");
        assert_ne!(s.content_hash(), p.content_hash());
    }

    #[test]
    fn hash_is_sensitive_to_every_field() {
        let base = synth_spec();
        let mut seed = base.clone();
        seed.seed += 1;
        let mut scheme = base.clone();
        scheme.scheme = SchemeKind::NoPg;
        let mut rate = base.clone();
        if let Workload::Synthetic { rate: r, .. } = &mut rate.workload {
            *r += 1e-9;
        }
        let mut cycles = base.clone();
        if let Workload::Synthetic { measure_cycles, .. } = &mut cycles.workload {
            *measure_cycles += 1;
        }
        for other in [seed, scheme, rate, cycles] {
            assert_ne!(base.content_hash(), other.content_hash(), "{}", other.id());
        }
    }

    #[test]
    fn unusable_rates_are_typed_config_errors_not_panics() {
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let mut spec = synth_spec();
            if let Workload::Synthetic { rate, .. } = &mut spec.workload {
                *rate = bad;
            }
            assert!(
                matches!(
                    spec.execute(),
                    Err(SimError::Config(
                        punchsim_types::ConfigError::BadInjectionRate { .. }
                    ))
                ),
                "rate {bad}"
            );
        }
    }

    #[test]
    fn metrics_json_roundtrip() {
        let m = Metrics {
            delivered: 123,
            injected: 130,
            exec_cycles: 5_000,
            total_cycles: 5_500,
            latency: 36.25,
            latency_p50: 34,
            latency_p95: 61,
            latency_p99: 70,
            latency_max: 83,
            encounters: 0.5,
            wait: 1.75,
            escalations: 2,
            off_fraction: 0.625,
            dynamic_pj: 1e9,
            static_pj: 2e9,
            overhead_pj: 3e7,
            baseline_static_pj: 4e9,
            completed: true,
        };
        let text = m.to_json().render();
        let back = Metrics::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn every_registered_scheme_executes_under_its_tag() {
        // The campaign layer must accept every registry tag: ids embed
        // the tag, and the spec must simulate end to end for every
        // scheme, rivals included.
        for scheme in SchemeKind::ALL {
            let spec = RunSpec {
                scheme,
                ..synth_spec()
            };
            assert!(
                spec.id().contains(&format!("/{}/", scheme.tag())),
                "id {} must embed the registry tag",
                spec.id()
            );
            let m = spec.execute().unwrap_or_else(|e| panic!("{scheme}: {e}"));
            assert!(m.completed, "{scheme} did not complete");
            assert!(m.delivered > 0, "{scheme} delivered nothing");
        }
    }

    #[test]
    fn execute_synthetic_produces_consistent_metrics() {
        let m = synth_spec().execute().unwrap();
        assert!(m.completed);
        assert!(m.delivered > 0);
        assert!(m.delivered <= m.injected);
        assert_eq!(m.exec_cycles, 400);
        assert_eq!(m.total_cycles, 500);
        assert!(m.latency > 0.0);
        // Same spec, same metrics: the content-hash contract.
        assert_eq!(synth_spec().execute().unwrap(), m);
    }

    #[test]
    fn observed_run_matches_plain_execute_and_yields_series() {
        let spec = synth_spec();
        let plain = spec.execute().unwrap();
        let obs = spec
            .execute_observed(
                ObserveOpts {
                    sample_every: 100,
                    trace_cap: 4_096,
                    metrics: false,
                },
                1,
            )
            .unwrap();
        // The core invariant: attaching observation changes nothing.
        assert_eq!(obs.metrics, plain);
        // 400 measured cycles at a 100-cycle interval: four closed rows
        // spanning exactly the measured window (warmup ends at cycle 100).
        assert_eq!(obs.series.len(), 4);
        assert_eq!(obs.series[0].start, 100);
        assert_eq!(obs.series[3].end, 500);
        let delivered: u64 = obs.series.iter().map(|r| r.delivered).sum();
        assert_eq!(delivered, plain.delivered);
        // The flight recorder saw the punch machinery at work.
        assert!(!obs.events.is_empty());
        let kinds: Vec<&str> = obs.events.iter().map(|e| e.event.kind()).collect();
        assert!(kinds.contains(&"punch-emit"), "{kinds:?}");
    }

    #[test]
    fn observe_opts_none_collects_nothing() {
        assert!(ObserveOpts::NONE.is_none());
        assert_eq!(ObserveOpts::default(), ObserveOpts::NONE);
        let obs = synth_spec().execute_observed(ObserveOpts::NONE, 1).unwrap();
        assert!(obs.series.is_empty());
        assert!(obs.events.is_empty());
        assert!(obs.registry.is_none());
    }

    #[test]
    fn metrics_registry_matches_plain_execute() {
        let spec = synth_spec();
        let plain = spec.execute().unwrap();
        let obs = spec
            .execute_observed(
                ObserveOpts {
                    metrics: true,
                    ..ObserveOpts::NONE
                },
                1,
            )
            .unwrap();
        // Collection never steers the simulation.
        assert_eq!(obs.metrics, plain);
        let reg = obs.registry.expect("metrics were requested");
        assert_eq!(reg.counter("packets_delivered_total"), plain.delivered);
        // The latency histogram agrees with the deterministic percentiles.
        let hist = reg.hist("packet_latency_cycles").unwrap();
        assert_eq!(hist.count(), plain.delivered);
        assert_eq!(hist.max(), plain.latency_max);
        // The per-router planes cover the mesh and sum to the globals.
        let plane = reg.plane("router_wu_assertions").unwrap();
        assert_eq!((plane.width(), plane.height()), (4, 4));
        // The tick-phase profile attributed the measured window.
        assert!(reg.counter("tick_phase_nanos{phase=\"power_tick\"}") > 0);
    }
}
