//! The synthetic-traffic commands: `sweep`, `schemes`, `faults`, `trace`
//! and `metrics`, all over the simulation [`build_synth`] assembles from
//! [`Opts`].
//!
//! `faults` sweeps the punch-drop probability from 0 to 1 and shows that
//! delivery stays at 100% while only latency degrades — the paper's
//! "punches are an optimization, the WU handshake is the safety net"
//! argument, checked end to end. `trace` records one run's cycle-stamped
//! event stream as Chrome trace-event JSON (open in Perfetto or
//! `chrome://tracing` — one power-state track per router plus punch flow
//! arrows), JSONL, or CSV. `metrics` runs one profiled busy-regime
//! simulation and prints its full metric registry as Prometheus text
//! exposition with a trailing parseable coverage comment.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use punchsim::campaign::spec;
use punchsim::metrics::validate_exposition;
use punchsim::obs::{self, Stamped, VecSink};
use punchsim::prelude::*;

use super::parse::Opts;
use super::table::Table;
use super::write_metrics;

pub fn sim_err(e: SimError) -> String {
    format!("simulation error: {e}")
}

/// `0.123` as `12.3`.
pub fn percent(ratio: f64) -> String {
    format!("{:.1}", ratio * 100.0)
}

/// How a table cell reads off a run's report; and the columns the synthetic
/// commands and the `figure` rows share.
pub type Cell = fn(&NetworkReport) -> String;
pub const LATENCY: Cell = |r| format!("{:.1}", r.avg_packet_latency());
pub const BLOCKED: Cell = |r| format!("{:.2}", r.avg_pg_encounters());
pub const WAIT: Cell = |r| format!("{:.2}", r.avg_wakeup_wait());
pub const OFF: Cell = |r| percent(r.off_fraction());

/// Builds the synthetic simulation every command here runs: substrate,
/// routing, fault profile and `--shards` applied (a bad shard count is the
/// network's typed [`ConfigError`]).
fn build_synth(
    opts: &Opts,
    scheme: SchemeKind,
    rate: f64,
    drop: f64,
) -> Result<SyntheticSim, SimError> {
    let mut cfg = SimConfig::with_scheme(scheme);
    let (topo, routing) = opts.noc_view()?;
    cfg.noc.topology = topo;
    cfg.noc.routing = routing;
    cfg.faults = opts.fault_config(drop);
    let mut sim = SyntheticSim::new(cfg, opts.pattern, rate);
    sim.network_mut().set_shards(opts.shards)?;
    Ok(sim)
}

fn run_synth(opts: &Opts, scheme: SchemeKind, rate: f64) -> Result<NetworkReport, String> {
    Ok(run_synth_observed(opts, scheme, rate, opts.fault_drop, 0, false)?.0)
}

/// Runs one synthetic experiment, optionally with a flight recorder of
/// `trace_cap` events attached and/or a metric registry collected;
/// returns the report, the recorded tail (empty when `trace_cap` is 0)
/// and the registry (`None` unless `collect_metrics`).
fn run_synth_observed(
    opts: &Opts,
    scheme: SchemeKind,
    rate: f64,
    drop: f64,
    trace_cap: usize,
    collect_metrics: bool,
) -> Result<(NetworkReport, Vec<Stamped>, Option<Registry>), String> {
    let mut sim = build_synth(opts, scheme, rate, drop).map_err(sim_err)?;
    spec::attach(sim.network_mut(), trace_cap, collect_metrics);
    let r = sim
        .run_experiment(opts.cycles / 4, opts.cycles)
        .map_err(sim_err)?;
    let (events, registry) = harvest(sim.network_mut());
    Ok((r, events, registry))
}

/// The campaign layer's harvest — recorded events, and the metric registry
/// when a profiler was attached — with the shard thread-overhead counters
/// (creations plus pooled-tick barrier waits) added to the registry.
fn harvest(net: &mut Network) -> (Vec<Stamped>, Option<Registry>) {
    let (spawn_count, spawn_nanos) = net.spawn_stats();
    let (pool_ticks, pool_wait_nanos) = net.pool_stats();
    let (events, mut registry) = spec::harvest(net);
    if let Some(reg) = &mut registry {
        reg.inc("shard_spawns_total", spawn_count);
        reg.inc("shard_spawn_nanos_total", spawn_nanos);
        reg.inc("shard_pool_ticks_total", pool_ticks);
        reg.inc("shard_pool_wait_nanos_total", pool_wait_nanos);
    }
    (events, registry)
}

pub fn sweep(opts: &Opts) -> Result<ExitCode, String> {
    let pm = PowerModel::default_45nm();
    println!(
        "load sweep: {} on {} under {}",
        opts.pattern,
        opts.substrate_label(),
        opts.scheme
    );
    let mut t = Table::new("load|latency|off %|static W|throughput");
    for mult in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let rate = opts.rate * mult;
        let r = run_synth(opts, opts.scheme, rate)?;
        t.row([
            format!("{rate:.4}"),
            LATENCY(&r),
            OFF(&r),
            format!("{:.2}", pm.static_power_watts(&r)),
            format!("{:.4}", r.throughput()),
        ]);
    }
    println!("{t}");
    Ok(ExitCode::SUCCESS)
}

pub fn schemes(opts: &Opts) -> Result<ExitCode, String> {
    println!(
        "scheme comparison: {} at {} flits/node/cycle on {}",
        opts.pattern,
        opts.rate,
        opts.substrate_label()
    );
    let mut t = Table::new("scheme|latency|blocked/pkt|wait/pkt|off %|static saved %");
    let pm = PowerModel::default_45nm();
    for scheme in SchemeKind::ALL {
        let r = run_synth(opts, scheme, opts.rate)?;
        t.row([
            scheme.label().to_string(),
            LATENCY(&r),
            BLOCKED(&r),
            WAIT(&r),
            OFF(&r),
            percent(pm.static_savings(&r)),
        ]);
    }
    println!("{t}");
    Ok(ExitCode::SUCCESS)
}

/// Sweeps punch-drop probability 0..=1 under the selected scheme: delivery
/// stays at 100% of injected packets (the WU safety net) while latency
/// degrades toward conventional gating. With `--trace-out`, each sweep
/// point additionally dumps its flight recorder as JSONL for postmortems.
pub fn faults(opts: &Opts) -> Result<ExitCode, String> {
    println!(
        "fault sweep: {} at {} flits/node/cycle on {} under {} \
         (corrupt {:.2}, seed {:#x})",
        opts.pattern,
        opts.rate,
        opts.substrate_label(),
        opts.scheme,
        opts.fault_corrupt,
        opts.fault_seed,
    );
    let cap = opts.effective_trace_cap();
    let mut t = Table::new("drop p|delivered|latency|wait/pkt|faults|escalations|off %");
    let mut dumps = Vec::new();
    let mut merged: Option<Registry> = None;
    for drop in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let collect = opts.metrics_out.is_some();
        let (r, events, registry) =
            run_synth_observed(opts, opts.scheme, opts.rate, drop, cap, collect)?;
        if let Some(reg) = registry {
            merged.get_or_insert_with(Registry::new).merge(&reg);
        }
        t.row([
            format!("{drop:.2}"),
            format!("{}", r.stats.packets_delivered),
            LATENCY(&r),
            WAIT(&r),
            format!("{}", r.pg.faults_injected),
            format!("{}", r.pg.escalations),
            OFF(&r),
        ]);
        if let Some(base) = &opts.trace_out {
            let path = faults_dump_path(base, drop);
            std::fs::write(&path, obs::to_jsonl(&events))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            dumps.push((path, events.len()));
        }
    }
    println!("{t}");
    for (path, n) in dumps {
        println!("wrote {} ({n} events)", path.display());
    }
    if let (Some(path), Some(reg)) = (&opts.metrics_out, &merged) {
        write_metrics(path, reg)?;
        println!(
            "wrote {} (merged across all 5 sweep points)",
            path.display()
        );
    }
    println!("every run completed without a stall report: punches are an");
    println!("optimization; the WU handshake keeps the delivery guarantee.");
    Ok(ExitCode::SUCCESS)
}

/// Per-drop dump path: `dump.jsonl` + 0.25 → `dump-d0.25.jsonl`.
pub fn faults_dump_path(base: &Path, drop: f64) -> PathBuf {
    let stem = base
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("faults-trace");
    base.with_file_name(format!("{stem}-d{drop:.2}.jsonl"))
}

/// Records one run's full event stream and writes a trace artifact.
pub fn trace(opts: &Opts) -> Result<ExitCode, String> {
    let mut sim = build_synth(opts, opts.scheme, opts.rate, opts.fault_drop).map_err(sim_err)?;
    spec::attach(
        sim.network_mut(),
        opts.trace_cap,
        opts.metrics_out.is_some(),
    );
    if opts.trace_cap == 0 {
        // `--trace-cap 0` records the whole run, not nothing.
        sim.network_mut().set_sink(Box::new(VecSink::new()));
    }
    sim.run_experiment(opts.cycles / 4, opts.cycles)
        .map_err(sim_err)?;
    let (events, registry) = harvest(sim.network_mut());
    let (tag, default_path, export) = *opts.format;
    let path = opts
        .trace_out
        .clone()
        .unwrap_or_else(|| PathBuf::from(default_path));
    std::fs::write(&path, export(&events))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "traced {} events: {} under {} on {} at {} flits/node/cycle",
        events.len(),
        opts.pattern,
        opts.scheme,
        opts.substrate_label(),
        opts.rate,
    );
    println!("wrote {}", path.display());
    if tag == "chrome" {
        println!("open it in https://ui.perfetto.dev or chrome://tracing");
    }
    if let (Some(mpath), Some(reg)) = (&opts.metrics_out, &registry) {
        write_metrics(mpath, reg)?;
        println!("wrote {}", mpath.display());
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs one profiled run in the busy regime (overridable with the usual
/// synthetic flags) and emits its metric registry: Prometheus text
/// exposition on stdout — self-validated before printing — plus a
/// trailing parseable coverage comment (`scripts/identity_gate.sh` puts a
/// floor under its ratio), and optionally the JSON snapshot via
/// `--metrics-out`.
pub fn metrics(opts: &Opts) -> Result<ExitCode, String> {
    let mut sim = build_synth(opts, opts.scheme, opts.rate, opts.fault_drop).map_err(sim_err)?;
    spec::attach(sim.network_mut(), 0, true);
    // No warmup/reset split: the profiler and the histograms cover the
    // whole run, so phase attribution can be gated against this wall
    // clock measured around the simulation loop alone.
    let started = Instant::now();
    sim.run(opts.cycles).map_err(sim_err)?;
    let wall_nanos = (started.elapsed().as_nanos() as u64).max(1);
    let r = sim.report();
    let phase_nanos = sim
        .network()
        .profiler()
        .expect("attached above")
        .total_nanos();
    let reg = harvest(sim.network_mut())
        .1
        .expect("a profiler was attached above");
    let expo = reg.to_prometheus();
    let stats = validate_exposition(&expo).map_err(|e| format!("invalid exposition: {e}"))?;
    let coverage = phase_nanos as f64 / wall_nanos as f64;
    print!("{expo}");
    println!(
        "# punchsim_coverage phase_nanos={phase_nanos} wall_nanos={wall_nanos} \
         ratio={coverage:.4}"
    );
    if let Some(path) = &opts.metrics_out {
        write_metrics(path, &reg)?;
        eprintln!("wrote {}", path.display());
    }
    eprintln!(
        "{} samples across {} families ({} histograms); latency p50/p95/p99/max = \
         {}/{}/{}/{} cycles; phase attribution {:.1}% of {:.2} ms wall",
        stats.samples,
        stats.families,
        stats.histograms,
        r.latency_p50(),
        r.latency_p95(),
        r.latency_p99(),
        r.latency_max(),
        coverage * 100.0,
        wall_nanos as f64 / 1e6,
    );
    Ok(ExitCode::SUCCESS)
}
