//! One benchmark run: one workload, tracing off (end-to-end metrics) or on
//! (per-layer metrics), in one process so `peak_rss_mib` is per workload.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use punchsim::campaign::Json;

use crate::catalog::{MetricDef, Source, END_TO_END, PER_LAYER};
use crate::rep::{self, Rep, RepOpts, Values};
use crate::span::Tracer;
use crate::util::{calib_mops, median, min_max, peak_rss_mib, Calib};
use crate::workloads::{Kind, Workload};

/// The seed `golden.json` was produced with.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;
/// Fewest timed repetitions a run reports a median over.
const MIN_REPS: usize = 5;
/// Failed operations after which a run stops repeating: a broken build
/// needs no further confirmation, and a failing run must still end well
/// inside the driver's 180 s.
const MAX_FAILED: u64 = 5;
/// Extra set-up-only iterations for the campaign workload, whose set-up
/// (hashing and ten store misses) is too short for seven samples to give
/// a steady median.
const CAMPAIGN_SETUP_SAMPLES: usize = 64;

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where detail, trace and scratch files go.
    pub out: PathBuf,
}

/// A reported value: the median of `n` samples with their range.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Stat {
    fn of(samples: &[f64]) -> Stat {
        let (min, max) = min_max(samples);
        Stat {
            value: median(samples),
            min,
            max,
            n: samples.len(),
        }
    }

    fn one(value: f64) -> Stat {
        Stat::of(&[value])
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The statistics digest every repetition agreed on.
    pub digest: Option<u64>,
    pub metrics: Vec<(&'static MetricDef, Stat)>,
    /// Probe metrics left out because `perf_probe` did not build or run.
    pub absent: Vec<&'static str>,
    /// Per-layer metrics this workload never exercises (reported as 0).
    pub not_applicable: Vec<&'static str>,
    pub notes: Vec<String>,
    /// `host.calib_mops` before and after the workload.
    pub calib: (f64, f64),
}

impl Outcome {
    /// `{name: {value, unit}}`, plus `min`/`max`/`n` when `spread` is set.
    fn metrics_json(&self, spread: bool) -> Json {
        let mut metrics = Json::obj();
        for (def, stat) in &self.metrics {
            let mut m = Json::obj();
            m.push("value", Json::Float(stat.value));
            m.push("unit", Json::Str(def.unit.to_string()));
            if spread {
                m.push("min", Json::Float(stat.min));
                m.push("max", Json::Float(stat.max));
                m.push("n", Json::Int(stat.n as i64));
            }
            metrics.push(def.name, m);
        }
        metrics
    }

    /// The contract line: the last line of standard output.
    pub fn result_line(&self) -> String {
        let mut doc = Json::obj();
        doc.push("correct", Json::Bool(self.failed == 0));
        doc.push("attempted", Json::Int(self.attempted as i64));
        doc.push("failed", Json::Int(self.failed as i64));
        doc.push("metrics", self.metrics_json(false));
        doc.render_compact()
    }

    /// The detail document the suite merges into `results.json`.
    pub fn detail(&self, args: &Args) -> Json {
        let names = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str(s.to_string())).collect());
        let mut doc = Json::obj();
        doc.push("workload", Json::Str(args.workload.name.to_string()));
        doc.push("seed", Json::Int(args.seed as i64));
        doc.push("trace", Json::Bool(args.trace));
        doc.push("ops_total", Json::Int(self.attempted as i64));
        doc.push("ops_failed", Json::Int(self.failed as i64));
        doc.push(
            "digest",
            self.digest
                .map_or(Json::Null, |d| Json::Str(format!("{d:016x}"))),
        );
        doc.push(
            "calib_mops",
            Json::Arr(vec![Json::Float(self.calib.0), Json::Float(self.calib.1)]),
        );
        doc.push("metrics", self.metrics_json(true));
        doc.push("absent", names(&self.absent));
        doc.push("not_applicable", names(&self.not_applicable));
        doc.push(
            "notes",
            Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
        );
        doc
    }
}

/// Path of a run's detail file under `out`.
pub fn detail_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!("run_{workload}_trace{}.json", trace as u8))
}

/// The golden digest of `workload` (default seed only), from
/// `perf/golden.json`.
fn golden_digest(workload: &str) -> Option<u64> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json");
    let doc = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let hex = doc.get("digests")?.get(workload)?.as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

/// Runs repetitions and keeps the operation counts and the digest check.
struct Ops<'a> {
    args: &'a Args,
    /// The digest every repetition must reproduce: the golden one at the
    /// default seed, else the first one seen.
    reference: Option<u64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    cmp_warmup_cycles: Option<u64>,
}

impl Ops<'_> {
    fn new(args: &Args) -> Ops<'_> {
        let reference = (args.seed == DEFAULT_SEED)
            .then(|| golden_digest(args.workload.name))
            .flatten();
        Ops {
            args,
            reference,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            cmp_warmup_cycles: None,
        }
    }

    fn fail(&mut self, what: String) -> Option<Rep> {
        self.failed += 1;
        self.notes.push(what);
        None
    }

    /// One operation: a repetition that must complete and reproduce the
    /// reference digest. `None` (and `failed` incremented) otherwise.
    fn rep(
        &mut self,
        shards: usize,
        profile: bool,
        ring_sink: bool,
        tr: &mut Tracer,
    ) -> Option<Rep> {
        self.attempted += 1;
        let scratch = self
            .args
            .out
            .join(format!("tmp_{}_{}", std::process::id(), self.attempted));
        let opts = RepOpts {
            seed: self.args.seed,
            shards,
            profile,
            ring_sink,
            cmp_warmup_cycles: self.cmp_warmup_cycles,
            scratch: scratch.clone(),
        };
        tr.set_rep(self.attempted as u32);
        let wl = self.args.workload;
        let result = catch_unwind(AssertUnwindSafe(|| rep::run(wl, &opts, tr)));
        let _ = std::fs::remove_dir_all(&scratch);
        let what = format!("op {} (shards={shards})", self.attempted);
        let rep = match result {
            Ok(Ok(rep)) => rep,
            Ok(Err(e)) => return self.fail(format!("{what}: {e}")),
            Err(_) => return self.fail(format!("{what}: panicked")),
        };
        if !rep.completed {
            return self.fail(format!("{what}: completed == false"));
        }
        let reference = *self.reference.get_or_insert(rep.digest);
        if rep.digest != reference {
            return self.fail(format!(
                "{what}: digest {:016x} != reference {reference:016x}",
                rep.digest
            ));
        }
        self.cmp_warmup_cycles = rep.cmp_warmup_cycles.or(self.cmp_warmup_cycles);
        Some(rep)
    }
}

/// Runs `args` and writes its detail file (and, traced, the span trace).
pub fn run(args: &Args) -> Outcome {
    std::fs::create_dir_all(&args.out).expect("cannot create the output directory");
    let calib_before = calib_mops();
    let mut ops = Ops::new(args);
    // The discarded warm-up repetition: page cache, allocator and branch
    // predictors settle, and `CmpSim` reveals its warm-up boundary.
    ops.rep(1, false, false, &mut Tracer::new(false));
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        digest: None,
        metrics: Vec::new(),
        absent: Vec::new(),
        not_applicable: Vec::new(),
        notes: Vec::new(),
        calib: (calib_before, 0.0),
    };
    if args.trace {
        traced(args, &mut ops, &mut out);
    } else {
        timed(args, &mut ops, &mut out);
    }
    out.attempted = ops.attempted;
    out.failed = ops.failed;
    out.digest = ops.reference;
    out.notes.append(&mut ops.notes);
    let detail = detail_path(&args.out, args.workload.name, args.trace);
    std::fs::write(&detail, out.detail(args).render()).expect("cannot write the detail file");
    out
}

/// Tracing off: timed repetitions until `--seconds` have been measured.
fn timed(args: &Args, ops: &mut Ops<'_>, out: &mut Outcome) {
    let mut reps = Vec::new();
    let mut off = Tracer::new(false);
    let started = Instant::now();
    while ops.failed < MAX_FAILED
        && (reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds)
    {
        reps.extend(ops.rep(1, false, false, &mut off));
    }
    out.calib.1 = calib_mops();
    let Some(first) = reps.first() else {
        return;
    };
    // Host times are reported in reference-machine seconds (see `Calib`).
    let mut setup: Vec<f64> = reps.iter().map(|r| r.setup_s * r.setup_scale).collect();
    if matches!(args.workload.kind, Kind::Campaign) {
        let mut cal = Calib::new(10_000_000);
        cal.sample();
        let from = setup.len();
        for i in 0..CAMPAIGN_SETUP_SAMPLES {
            let dir = args
                .out
                .join(format!("tmp_{}_setup{i}", std::process::id()));
            let t = Instant::now();
            std::hint::black_box(rep::campaign_setup(args.seed, &dir, &mut off));
            setup.push(t.elapsed().as_secs_f64());
            let _ = std::fs::remove_dir_all(&dir);
        }
        cal.sample();
        for s in &mut setup[from..] {
            *s *= cal.scale(0..2);
        }
    }
    // Host time per packet is host time per cycle times the (exact)
    // cycles per packet, so both speed metrics share the chunk samples.
    let cps: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.chunk_cps.iter().copied())
        .collect();
    let cycles_per_packet = first.cycles as f64 / first.packets as f64;
    let ns_per_packet: Vec<f64> = cps.iter().map(|c| 1e9 / c * cycles_per_packet).collect();
    let wall: Vec<f64> = reps.iter().map(|r| r.wall_s * r.wall_scale).collect();
    for def in &END_TO_END {
        let stat = match def.name {
            "sim_cycles_per_s" => Stat::of(&cps),
            "host_ns_per_packet" => Stat::of(&ns_per_packet),
            "run_wall_s" => Stat::of(&wall),
            "setup_s" => Stat::of(&setup),
            "peak_rss_mib" => Stat::one(peak_rss_mib().unwrap_or(0.0)),
            "pkt_latency_cyc" => Stat::one(first.latency_cyc),
            "pkt_latency_p99_cyc" => Stat::one(first.latency_p99_cyc as f64),
            "static_energy_vs_nopg" => Stat::one(first.static_vs_nopg),
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        out.metrics.push((def, stat));
    }
}

/// Tracing on: untraced/traced pairs (their difference is the tracing
/// overhead), then the `shards=2` and ring-sink passes, then the probes.
fn traced(args: &Args, ops: &mut Ops<'_>, out: &mut Outcome) {
    let wl = args.workload;
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let mut plain = Vec::new();
    let mut profiled = Vec::new();
    let started = Instant::now();
    while ops.failed < MAX_FAILED
        && (profiled.len() < 2 || started.elapsed().as_secs_f64() < args.seconds / 2.0)
    {
        plain.extend(ops.rep(1, false, false, &mut off));
        profiled.extend(ops.rep(1, true, false, &mut tr));
    }
    let measure_s = |reps: &[Rep]| median(&reps.iter().map(|r| r.measure_s).collect::<Vec<_>>());
    let (plain_s, profiled_s) = (measure_s(&plain), measure_s(&profiled));

    // Median over the traced repetitions of every value they yielded.
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rep in &profiled {
        for (&name, &value) in &rep.values {
            samples.entry(name).or_default().push(value);
        }
    }
    let mut values: BTreeMap<&'static str, Stat> = samples
        .iter()
        .map(|(&name, s)| (name, Stat::of(s)))
        .collect();
    let mut put = |name: &'static str, stat: Stat| {
        values.insert(name, stat);
    };
    if let Some(first) = profiled.first() {
        put(
            "power.static_energy_saved_frac",
            Stat::one(1.0 - first.static_vs_nopg),
        );
    }
    if plain_s > 0.0 && profiled_s > 0.0 {
        put(
            "metrics.profiler_overhead_frac",
            Stat::one(profiled_s / plain_s - 1.0),
        );
    }
    // Spans a workload never opens (`cmp.new` on a synthetic row) have no
    // durations and are skipped.
    for (name, span, scale) in [
        ("traffic.new_ms", "traffic.new", 1e-6),
        ("cmp.new_ms", "cmp.new", 1e-6),
        ("noc.report_ms", "noc.report", 1e-6),
        ("power.breakdown_us", "power.breakdown", 1e-3),
        ("metrics.export_ms", "metrics.export", 1e-6),
    ] {
        let ms: Vec<f64> = tr.durations(span).iter().map(|ns| ns * scale).collect();
        if !ms.is_empty() {
            put(name, Stat::of(&ms));
        }
    }

    if wl.shard_pass {
        if let Some(rep) = ops.rep(2, true, false, &mut tr) {
            put("noc.shard2_speedup", Stat::one(profiled_s / rep.measure_s));
            for name in ["noc.pool_wait_share", "noc.spawned_threads"] {
                if let Some(&v) = rep.values.get(name) {
                    put(name, Stat::one(v));
                }
            }
        }
    }
    if wl.sink_pass {
        if let Some(rep) = ops.rep(1, false, true, &mut off) {
            put(
                "obs.ring_sink_overhead_frac",
                Stat::one(rep.measure_s / plain_s - 1.0),
            );
        }
    }
    let probe = run_probe(args);
    if let Err(why) = &probe {
        out.notes
            .push(format!("absent: probe did not build or run ({why})"));
    }
    let probe = probe.unwrap_or_default();
    out.calib.1 = calib_mops();
    put("host.calib_mops", Stat::of(&[out.calib.0, out.calib.1]));
    for def in &PER_LAYER {
        let stat = match def.source {
            Source::Probe => probe.get(def.name).copied().map(Stat::one),
            Source::Harness => values.get(def.name).copied(),
        };
        match (stat, def.source) {
            (Some(stat), _) => out.metrics.push((def, stat)),
            (None, Source::Probe) => out.absent.push(def.name),
            (None, Source::Harness) => {
                out.not_applicable.push(def.name);
                out.metrics.push((def, Stat::one(0.0)));
            }
        }
    }

    let coverage = tr.self_time_coverage();
    if coverage < 0.95 {
        let _ = ops.fail(format!(
            "span self times cover {coverage:.3} of the traced repetitions"
        ));
    }
    // The per-layer table: span self times, with the measured chunks —
    // the one place the harness cannot see inside — split by the
    // profiler's phase shares. What stays under `sim` is the warm-up
    // (the profiler is reset when it ends) and the unattributed rest.
    let mut layer_ns = tr.layer_self_ns();
    let chunk_ns: f64 = tr.durations("measure.chunk").iter().sum();
    for (layer, share) in [
        ("traffic", "traffic.host_share"),
        ("cmp", "cmp.tick_share"),
        ("core", "core.power_tick_share"),
        ("noc", "noc.tick_share"),
    ] {
        let ns = (chunk_ns * values.get(share).map_or(0.0, |s| s.value)) as u64;
        if ns == 0 {
            continue;
        }
        *layer_ns.entry(layer).or_insert(0) += ns;
        if let Some(sim) = layer_ns.get_mut("sim") {
            *sim = sim.saturating_sub(ns);
        }
    }
    let trace_path = args.out.join(format!("trace_{}.json", wl.name));
    let trace = tr.to_json(wl.name, args.seed, &layer_ns);
    std::fs::write(&trace_path, trace.render()).expect("cannot write the trace file");
}

/// Runs `perf_probe` (a sibling of this executable) for the workload and
/// parses its `name value unit` lines.
fn run_probe(args: &Args) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let probe = exe.with_file_name("perf_probe");
    if !probe.exists() {
        return Err(format!("{} does not exist", probe.display()));
    }
    let output = Command::new(&probe)
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", probe.display(), output.status));
    }
    let mut values = Values::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut fields = line.split_whitespace();
        let (Some(name), Some(value)) = (fields.next(), fields.next()) else {
            continue;
        };
        let def = PER_LAYER.iter().find(|d| d.name == name);
        if let (Some(def), Ok(value)) = (def, value.parse::<f64>()) {
            values.insert(def.name, value);
        }
    }
    Ok(values)
}
