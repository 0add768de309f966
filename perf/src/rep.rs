//! One repetition of each workload kind: construct, warm up, measure,
//! report, power breakdown, render — with a span around every call into a
//! layer and the shipped profiler's phase split attached to `measure`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use punchsim::campaign::{compare, Json, Tolerances, Workload as SpecWorkload};
use punchsim::prelude::{
    Benchmark, CampaignReport, CmpConfig, CmpSim, Mesh, Metrics, NetworkReport, Outcome, Phase,
    PhaseProfiler, PowerModel, Registry, RingSink, RoutingKind, RunSpec, Runner, SchemeKind,
    SimConfig, Store, SyntheticSim, TrafficPattern,
};

use crate::span::Tracer;
use crate::util::{digest, median, Calib};
use crate::workloads::{Kind, Workload};

/// Per-layer values one repetition yields, keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Chunks a synthetic measured window is split into: one span and one
/// speed sample each.
const CHUNKS: u64 = 20;
/// Cycles per chunk of a `CmpSim` measured window.
const CMP_CHUNK: u64 = 2048;
/// Draws per calibration burst between chunks (~1.5 ms).
const CHUNK_BURST: u64 = 1_000_000;
/// Draws per calibration burst between the campaign's passes (~15 ms:
/// only four bursts bracket a whole repetition, so each must be steadier).
const PASS_BURST: u64 = 10_000_000;

/// The calibration sampler of one repetition. Profiled repetitions do not
/// calibrate: the profiler would charge every burst to its `host` phase.
fn calib_for(o: &RepOpts, draws: u64) -> Calib {
    Calib::new(if o.profile { 0 } else { draws })
}

/// How to run a repetition.
#[derive(Debug, Clone)]
pub struct RepOpts {
    pub seed: u64,
    pub shards: usize,
    /// Attach the network's `PhaseProfiler` (traced passes only).
    pub profile: bool,
    /// Attach a `RingSink::new(4096)` (the observation-overhead pass).
    pub ring_sink: bool,
    /// `CmpSim` hides its warm-up boundary; the discarded repetition
    /// learns the boundary cycle and later ones hook exactly there.
    pub cmp_warmup_cycles: Option<u64>,
    /// A fresh directory this repetition may fill (campaign store and
    /// artifacts); the caller removes it outside the timed region.
    pub scratch: PathBuf,
}

/// What one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    pub completed: bool,
    /// FNV-64 of the rendered statistics document.
    pub digest: u64,
    /// Repetition start → first measured cycle, host seconds (here and
    /// below: calibration bursts excluded).
    pub setup_s: f64,
    /// Measured window, host seconds.
    pub measure_s: f64,
    /// Whole repetition, host seconds.
    pub wall_s: f64,
    /// [`Calib::scale`] over `setup`: `setup_s × setup_scale` is set-up
    /// time in reference-machine seconds.
    pub setup_scale: f64,
    /// [`Calib::scale`] over the whole repetition.
    pub wall_scale: f64,
    /// Simulated cycles of the measured window.
    pub cycles: u64,
    /// Simulated cycles per reference-machine second of every chunk of
    /// the measured window: the samples `sim_cycles_per_s` is the median
    /// of. The box slows down for seconds at a time, so many short
    /// samples, each scaled by the calibration bursts around it, give a
    /// steadier median than one raw sample per repetition.
    pub chunk_cps: Vec<f64>,
    /// Packets delivered in the measured window.
    pub packets: u64,
    pub latency_cyc: f64,
    pub latency_p99_cyc: u64,
    /// Net router static energy ÷ No-PG static energy, same window.
    pub static_vs_nopg: f64,
    /// Where `CmpSim`'s warm-up ended (feeds `RepOpts::cmp_warmup_cycles`).
    pub cmp_warmup_cycles: Option<u64>,
    /// Per-layer values (filled by profiled/traced repetitions).
    pub values: Values,
}

/// Runs one repetition of `wl`.
///
/// # Errors
///
/// A simulator error or a failed campaign check, as text. Panics inside
/// the simulator are the caller's to catch.
pub fn run(wl: &Workload, o: &RepOpts, tr: &mut Tracer) -> Result<Rep, String> {
    match wl.kind {
        Kind::Synth { .. } => synth(wl, o, tr),
        Kind::Cmp { .. } => cmp(wl, o, tr),
        Kind::Campaign => campaign(o, tr),
    }
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// The campaign crate's deterministic result record for one window.
fn metrics_of(
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

/// The statistics document whose digest must repeat: the campaign
/// `Metrics` plus the counters it leaves out.
fn stats_doc(m: &Metrics, r: &NetworkReport) -> Json {
    let mut doc = m.to_json();
    for (key, v) in [
        ("flits_delivered", r.stats.flits_delivered),
        ("link_traversals", r.stats.link_traversals),
        ("ni_flits", r.ni_flits),
        ("off_cycles", r.pg.total_off_cycles()),
        ("waking_cycles", r.pg.total_waking_cycles()),
        ("wake_events", r.pg.total_wake_events()),
        ("sleep_events", r.pg.sleep_events.iter().sum()),
        ("punch_hops", r.pg.punch_hops),
        ("wu_assertions", r.pg.wu_assertions),
        ("wu_retries", r.pg.wu_retries),
    ] {
        doc.push(key, Json::Int(v as i64));
    }
    doc
}

fn static_vs_nopg(m: &Metrics) -> f64 {
    (m.static_pj + m.overhead_pj) / m.baseline_static_pj
}

/// Report → power breakdown → render, each under its span; returns the
/// record and its digest.
fn finish_window(
    r: &NetworkReport,
    scheme: SchemeKind,
    total_cycles: u64,
    completed: bool,
    tr: &mut Tracer,
) -> (Metrics, u64) {
    let m = tr.span("power", "power.breakdown", || {
        metrics_of(r, &PowerModel::for_scheme(scheme), total_cycles, completed)
    });
    let text = tr.span("obs", "obs.render", || stats_doc(&m, r).render());
    (m, digest(&text))
}

/// Attaches the profiler's phase nanos and mark counts to the open
/// `measure` span and derives the per-layer shares from them. The `host`
/// phase is the `cmp` layer under `CmpSim`, the `traffic` layer otherwise.
fn profile_values(
    p: &PhaseProfiler,
    measure_ns: f64,
    cycles: u64,
    under_cmp: bool,
    tr: &mut Tracer,
    v: &mut Values,
) {
    for ph in Phase::ALL {
        tr.count(&format!("{}_ns", ph.name()), p.nanos(ph));
        tr.count(&format!("{}_marks", ph.name()), p.mark_count(ph));
    }
    let ns = |ph| p.nanos(ph) as f64;
    let share = |ph| ns(ph) / measure_ns;
    let total = p.total_nanos() as f64;
    let struct_ns = ns(Phase::DeliverFlits)
        + ns(Phase::DeliverCredits)
        + ns(Phase::Allocate)
        + ns(Phase::Eject)
        + ns(Phase::Inject);
    let ticked = p.mark_count(Phase::PowerTick);
    if under_cmp {
        v.insert("cmp.tick_share", share(Phase::Host));
    } else {
        v.insert("traffic.host_share", share(Phase::Host));
        v.insert("traffic.host_ns_per_cycle", ns(Phase::Host) / cycles as f64);
    }
    v.insert(
        "noc.tick_share",
        (total - ns(Phase::Host) - ns(Phase::PowerTick)) / measure_ns,
    );
    v.insert("noc.soa_phase_a_share", share(Phase::SoaPhaseA));
    v.insert("noc.soa_commit_share", share(Phase::SoaCommit));
    v.insert("noc.soa_rebuild_share", share(Phase::SoaRebuild));
    v.insert("noc.struct_phases_share", struct_ns / measure_ns);
    v.insert("noc.watchdog_share", share(Phase::Watchdog));
    v.insert("noc.fast_forward_share", share(Phase::FastForward));
    v.insert("noc.ticked_cycles", ticked as f64);
    v.insert("noc.skip_ratio", 1.0 - ticked as f64 / cycles as f64);
    v.insert(
        "noc.ns_per_ticked_cycle",
        (total - ns(Phase::Host) - ns(Phase::FastForward)) / ticked.max(1) as f64,
    );
    v.insert("core.power_tick_share", share(Phase::PowerTick));
    v.insert("metrics.profile_coverage", total / measure_ns);
}

/// Exact per-layer counts every repetition can read off its report.
fn report_values(r: &NetworkReport, measure_ns: f64, v: &mut Values) {
    v.insert("traffic.injected_pkts", r.stats.packets_injected as f64);
    v.insert("noc.flit_hops", r.stats.link_traversals as f64);
    v.insert(
        "noc.ns_per_flit_hop",
        measure_ns / r.stats.link_traversals.max(1) as f64,
    );
    v.insert("core.wakeup_wait_cyc_per_pkt", r.avg_wakeup_wait());
    v.insert("core.punch_hops", r.pg.punch_hops as f64);
    v.insert("core.wake_events", r.pg.total_wake_events() as f64);
    v.insert(
        "core.sleep_events",
        r.pg.sleep_events.iter().sum::<u64>() as f64,
    );
    v.insert("core.wu_assertions", r.pg.wu_assertions as f64);
    v.insert("core.escalations", r.pg.escalations as f64);
}

fn synth(wl: &Workload, o: &RepOpts, tr: &mut Tracer) -> Result<Rep, String> {
    let Kind::Synth {
        w,
        h,
        rate,
        warmup,
        measure,
    } = wl.kind
    else {
        unreachable!("synth() is only called for Kind::Synth");
    };
    let err = |e: punchsim::prelude::SimError| e.to_string();
    let mut v = Values::new();
    let mut cal = calib_for(o, CHUNK_BURST);
    let t0 = Instant::now();
    cal.sample();
    tr.open("harness", "rep");
    tr.open("harness", "setup");
    let mut cfg = SimConfig::with_scheme(wl.scheme);
    cfg.noc.topology = Mesh::new(w, h).into();
    cfg.seed = o.seed;
    let mut sim = tr.span("traffic", "traffic.new", || {
        SyntheticSim::new(cfg, TrafficPattern::UniformRandom, rate)
    });
    if o.shards > 1 {
        sim.network_mut()
            .set_shards(o.shards)
            .map_err(|e| e.to_string())?;
    }
    if o.ring_sink {
        sim.network_mut().set_sink(Box::new(RingSink::new(4096)));
    }
    if o.profile {
        sim.network_mut().enable_profiler();
    }
    tr.span("sim", "warmup", || sim.run(warmup)).map_err(err)?;
    sim.network_mut().reset_stats();
    tr.close();
    cal.sample();
    let (t1, spent1) = (Instant::now(), cal.spent_s);
    tr.open("harness", "measure");
    let mut chunk_cps = Vec::new();
    for i in 0..CHUNKS {
        let n = measure / CHUNKS + if i == 0 { measure % CHUNKS } else { 0 };
        let (ran, chunk_s) = tr.timed("sim", "measure.chunk", || sim.run(n));
        ran.map_err(err)?;
        cal.sample();
        chunk_cps.push(n as f64 / (chunk_s * cal.scale_last()));
    }
    let (t2, spent2) = (Instant::now(), cal.spent_s);
    let measure_s = secs(t1, t2) - (spent2 - spent1);
    let measure_ns = measure_s * 1e9;
    if let Some(p) = sim.network_mut().take_profiler() {
        profile_values(&p, measure_ns, measure, false, tr, &mut v);
        if o.shards > 1 {
            v.insert(
                "noc.pool_wait_share",
                p.nanos(Phase::PoolWait) as f64 / measure_ns,
            );
        }
    }
    if o.shards > 1 {
        v.insert("noc.spawned_threads", sim.network().spawn_stats().0 as f64);
    }
    tr.close();
    let r = tr.span("noc", "noc.report", || sim.report());
    let (m, dig) = finish_window(&r, wl.scheme, warmup + measure, true, tr);
    if tr.enabled() {
        tr.span("metrics", "metrics.export", || {
            let mut reg = Registry::new();
            sim.network().export_metrics(&mut reg);
            std::hint::black_box(reg.to_prometheus());
        });
    }
    tr.close();
    let t3 = Instant::now();
    report_values(&r, measure_ns, &mut v);
    Ok(Rep {
        completed: true,
        digest: dig,
        setup_s: secs(t0, t1) - spent1,
        measure_s,
        wall_s: secs(t0, t3) - spent2,
        setup_scale: cal.scale(0..2),
        wall_scale: cal.scale(0..cal.taken()),
        cycles: r.cycles,
        chunk_cps,
        packets: m.delivered,
        latency_cyc: m.latency,
        latency_p99_cyc: m.latency_p99,
        static_vs_nopg: static_vs_nopg(&m),
        cmp_warmup_cycles: None,
        values: v,
    })
}

fn cmp(wl: &Workload, o: &RepOpts, tr: &mut Tracer) -> Result<Rep, String> {
    let Kind::Cmp {
        benchmark,
        instr,
        warmup_instr,
    } = wl.kind
    else {
        unreachable!("cmp() is only called for Kind::Cmp");
    };
    let mut v = Values::new();
    let mut cal = calib_for(o, CHUNK_BURST);
    let t0 = Instant::now();
    cal.sample();
    tr.open("harness", "rep");
    tr.open("harness", "setup");
    let mut cfg = CmpConfig::new(benchmark, wl.scheme);
    cfg.sim.seed = o.seed;
    cfg.instr_per_core = instr;
    cfg.warmup_instr = warmup_instr;
    let mut sim = tr.span("cmp", "cmp.new", || CmpSim::new(cfg));
    if o.profile {
        sim.network_mut().enable_profiler();
    }
    // The hook runs every cycle and acts on the warm-up boundary (ends
    // `setup`, starts `measure`) and then every `CMP_CHUNK` cycles (one
    // chunk span, calibration burst and speed sample each). Without a
    // known boundary (the discarded repetition) it does nothing.
    let boundary = o.cmp_warmup_cycles;
    let mut t1 = None;
    let mut last = t0;
    let mut chunk_cps = Vec::new();
    tr.open("sim", "warmup");
    let r = sim.run_hooked(1, &mut |net| {
        let Some(since) = boundary.and_then(|b| net.cycle().checked_sub(b)) else {
            return;
        };
        if since % CMP_CHUNK != 0 {
            return;
        }
        let (now, spent) = (Instant::now(), cal.spent_s);
        tr.close();
        cal.sample();
        if since == 0 {
            t1 = Some((now, spent));
            tr.close();
            tr.open("harness", "measure");
        } else {
            chunk_cps.push(CMP_CHUNK as f64 / (secs(last, now) * cal.scale_last()));
        }
        last = Instant::now();
        tr.open("sim", "measure.chunk");
    });
    let (t2, spent2) = (Instant::now(), cal.spent_s);
    tr.close();
    let (t1, spent1) = t1.unwrap_or_else(|| {
        tr.close();
        tr.open("harness", "measure");
        (t0, 0.0)
    });
    let measure_s = secs(t1, t2) - (spent2 - spent1);
    let measure_ns = measure_s * 1e9;
    if let Some(p) = sim.network_mut().take_profiler() {
        profile_values(&p, measure_ns, r.exec_cycles, true, tr, &mut v);
    }
    tr.close();
    let (m, dig) = finish_window(&r.net, wl.scheme, r.total_cycles, r.completed, tr);
    tr.close();
    let t3 = Instant::now();
    report_values(&r.net, measure_ns, &mut v);
    // Cores cross the warm-up boundary at different instruction counts,
    // so the honest denominator is every retired instruction over the
    // whole simulation, warm-up included.
    v.insert(
        "cmp.ns_per_instr",
        (secs(t0, t2) - spent2) * 1e9 / r.instructions as f64,
    );
    v.insert("cmp.instr", r.instructions as f64);
    v.insert("cmp.l1_miss_rate", r.l1_miss_rate);
    v.insert("cmp.exec_cycles", r.exec_cycles as f64);
    Ok(Rep {
        completed: r.completed,
        digest: dig,
        setup_s: secs(t0, t1) - spent1,
        measure_s,
        wall_s: secs(t0, t3) - spent2,
        setup_scale: cal.scale(0..2),
        wall_scale: cal.scale(0..cal.taken()),
        cycles: r.exec_cycles,
        chunk_cps,
        packets: m.delivered,
        latency_cyc: m.latency,
        latency_p99_cyc: m.latency_p99,
        static_vs_nopg: static_vs_nopg(&m),
        cmp_warmup_cycles: Some(r.total_cycles - r.exec_cycles),
        values: v,
    })
}

/// The fixed campaign: 8 synthetic 8x8 specs ({nopg, convopt, pps, ppf} x
/// {uniform, transpose}) and 2 full-system blackscholes specs.
pub fn campaign_specs(seed: u64) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for pattern in [TrafficPattern::UniformRandom, TrafficPattern::Transpose] {
        for scheme in [
            SchemeKind::NoPg,
            SchemeKind::ConvOptPg,
            SchemeKind::PowerPunchSignal,
            SchemeKind::PowerPunchFull,
        ] {
            specs.push(RunSpec {
                scheme,
                seed,
                workload: SpecWorkload::Synthetic {
                    pattern,
                    topo: Mesh::new(8, 8).into(),
                    routing: RoutingKind::Xy,
                    rate: 0.005,
                    warmup_cycles: 3_000,
                    measure_cycles: 12_000,
                },
            });
        }
    }
    for scheme in [SchemeKind::ConvOptPg, SchemeKind::PowerPunchFull] {
        specs.push(RunSpec {
            scheme,
            seed,
            workload: SpecWorkload::Parsec {
                benchmark: Benchmark::Blackscholes,
                instr_per_core: 300,
                warmup_instr: 30,
            },
        });
    }
    specs
}

/// Campaign set-up: the spec list, the content hash of every spec, a
/// fresh store and one `load` miss per spec. Returns the specs, the store
/// and the median hash time per spec in microseconds.
pub fn campaign_setup(seed: u64, dir: &Path, tr: &mut Tracer) -> (Vec<RunSpec>, Store, f64) {
    let specs = campaign_specs(seed);
    tr.open("campaign", "campaign.hash");
    let hash_us: Vec<f64> = specs
        .iter()
        .map(|s| {
            let t = Instant::now();
            std::hint::black_box(s.content_hash());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    tr.close();
    let store = Store::new(dir.join("store"));
    tr.span("campaign", "campaign.load_miss", || {
        for s in &specs {
            assert!(store.load(s).is_none(), "fresh store must miss");
        }
    });
    (specs, store, median(&hash_us))
}

fn campaign(o: &RepOpts, tr: &mut Tracer) -> Result<Rep, String> {
    const THREADS: usize = 2;
    let io = |e: std::io::Error| e.to_string();
    let mut v = Values::new();
    // Four bursts bracket set-up, the cold pass and the rest; the two in
    // the middle fall inside the repetition's wall and are subtracted.
    let mut cal = calib_for(o, PASS_BURST);
    cal.sample();
    let (t0, spent0) = (Instant::now(), cal.spent_s);
    tr.open("harness", "rep");
    tr.open("harness", "setup");
    let (specs, store, hash_us) = campaign_setup(o.seed, &o.scratch, tr);
    v.insert("campaign.hash_us_per_spec", hash_us);
    tr.close();
    let t1 = Instant::now();
    cal.sample();
    let runner = Runner {
        threads: THREADS,
        store: Some(store.clone()),
        ..Runner::default()
    };
    tr.open("harness", "measure");
    let pass = |name: &'static str, tr: &mut Tracer| {
        tr.open("campaign", name);
        let started = Instant::now();
        let outcomes = runner.run(&specs);
        let wall_nanos = started.elapsed().as_nanos() as u64;
        for (i, rec) in outcomes.iter().filter_map(Outcome::record).enumerate() {
            tr.count(&format!("spec{i}_wall_ns"), rec.wall_nanos);
        }
        tr.close();
        CampaignReport {
            name: "perf".to_string(),
            threads: THREADS,
            outcomes,
            wall_nanos,
        }
    };
    let cold = pass("campaign.run_cold", tr);
    tr.close();
    cal.sample();
    let (text, render_s) = tr.timed("campaign", "campaign.render", || cold.to_json().render());
    let (written, write_s) = tr.timed("campaign", "campaign.write", || {
        cold.write_artifacts(&o.scratch.join("cold"))
    });
    let (cold_path, _) = written.map_err(io)?;
    let warm = pass("campaign.run_warm", tr);
    let (warm_path, _) = warm.write_artifacts(&o.scratch.join("warm")).map_err(io)?;
    let cold_bytes = std::fs::read_to_string(&cold_path).map_err(io)?;
    let warm_bytes = std::fs::read_to_string(&warm_path).map_err(io)?;
    let ((base, cur), parse_s) = tr.timed("obs", "obs.parse", || {
        (Json::parse(&cold_bytes), Json::parse(&warm_bytes))
    });
    let (base, cur) = (
        base.map_err(|e| e.to_string())?,
        cur.map_err(|e| e.to_string())?,
    );
    let (cmp, compare_s) = tr.timed("campaign", "campaign.compare", || {
        compare(&base, &cur, &Tolerances::default())
    });
    let cmp = cmp?;
    tr.close();
    let wall_s = t0.elapsed().as_secs_f64() - (cal.spent_s - spent0);
    cal.sample();

    let records: Vec<_> = cold.outcomes.iter().filter_map(Outcome::record).collect();
    if records.len() != specs.len() {
        let first = cold.outcomes.iter().find_map(Outcome::error);
        return Err(format!("campaign run failed: {first:?}"));
    }
    let cache_hits = warm
        .outcomes
        .iter()
        .filter_map(Outcome::record)
        .filter(|r| r.cached)
        .count();
    if cold_bytes != warm_bytes || text != cold_bytes {
        return Err("cold and warm BENCH artifacts differ".to_string());
    }
    if !cmp.passed() || cache_hits != specs.len() {
        return Err(format!(
            "compare passed={} cache_hits={cache_hits}/{}",
            cmp.passed(),
            specs.len()
        ));
    }

    let cold_s = cold.wall_nanos as f64 / 1e9;
    let simulate_ns: u64 = records.iter().map(|r| r.wall_nanos).sum();
    let simulate_share = simulate_ns as f64 / (THREADS as f64 * cold_s * 1e9);
    v.insert("campaign.simulate_share", simulate_share);
    v.insert("campaign.worker_idle_share", 1.0 - simulate_share);
    v.insert("campaign.cache_hit_pass_ms", warm.wall_nanos as f64 / 1e6);
    v.insert("campaign.cache_hits", cache_hits as f64);
    v.insert("campaign.render_ms", render_s * 1e3);
    v.insert("campaign.write_artifacts_ms", write_s * 1e3);
    v.insert("campaign.compare_ms", compare_s * 1e3);
    let mb = cold_bytes.len() as f64 / 1e6;
    v.insert("obs.json_render_mb_per_s", mb / render_s);
    v.insert("obs.json_parse_mb_per_s", 2.0 * mb / parse_s);
    if tr.enabled() {
        // `Runner` saves and loads inside `run`; time the two calls on a
        // store of their own so the cold/warm passes stay undisturbed.
        let probe = Store::new(o.scratch.join("probe_store"));
        let mut save_us = Vec::new();
        let mut load_us = Vec::new();
        for rec in &records {
            let t = Instant::now();
            probe.save(&rec.spec, &rec.metrics).map_err(io)?;
            save_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let hit = probe.load(&rec.spec);
            load_us.push(t.elapsed().as_secs_f64() * 1e6);
            if hit.as_ref() != Some(&rec.metrics) {
                return Err(format!("store round trip changed {}", rec.spec.id()));
            }
        }
        v.insert("campaign.store_save_us", median(&save_us));
        v.insert("campaign.store_load_us", median(&load_us));
    }

    let ms: Vec<&Metrics> = records.iter().map(|r| &r.metrics).collect();
    let cycles: u64 = ms.iter().map(|m| m.total_cycles).sum();
    let packets: u64 = ms.iter().map(|m| m.delivered).sum();
    let weighted = |f: fn(&Metrics) -> f64| {
        ms.iter().map(|m| f(m) * m.delivered as f64).sum::<f64>() / packets as f64
    };
    v.insert(
        "traffic.injected_pkts",
        ms.iter().map(|m| m.injected).sum::<u64>() as f64,
    );
    v.insert("core.wakeup_wait_cyc_per_pkt", weighted(|m| m.wait));
    v.insert(
        "core.escalations",
        ms.iter().map(|m| m.escalations).sum::<u64>() as f64,
    );
    Ok(Rep {
        completed: ms.iter().all(|m| m.completed),
        digest: digest(&cold_bytes),
        setup_s: secs(t0, t1),
        measure_s: cold_s,
        wall_s,
        setup_scale: cal.scale(0..2),
        wall_scale: cal.scale(0..4),
        cycles,
        chunk_cps: vec![cycles as f64 / (cold_s * cal.scale(1..3))],
        packets,
        latency_cyc: weighted(|m| m.latency),
        latency_p99_cyc: ms.iter().map(|m| m.latency_p99).max().unwrap_or(0),
        static_vs_nopg: ms.iter().map(|m| m.static_pj + m.overhead_pj).sum::<f64>()
            / ms.iter().map(|m| m.baseline_static_pj).sum::<f64>(),
        cmp_warmup_cycles: None,
        values: v,
    })
}
