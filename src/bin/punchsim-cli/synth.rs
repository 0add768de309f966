//! `run`: one synthetic network, simulated at each point of at most one
//! axis and printed as one table — the load sweep of Figure 12, the
//! scheme comparison of Figures 7–11, or the punch-drop sweep that shows
//! delivery staying at 100% while only latency degrades (§4: punches are
//! an optimization, the WU handshake the safety net).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use punchsim::campaign::spec;
use punchsim::metrics::validate_exposition;
use punchsim::prelude::*;

use super::parse::{Axis, Opts, Point};
use super::table::Table;
use super::{write_metrics, write_trace};

pub fn sim_err(e: SimError) -> String {
    format!("simulation error: {e}")
}

/// `0.123` as `12.3`.
pub fn percent(ratio: f64) -> String {
    format!("{:.1}", ratio * 100.0)
}

/// How a table cell reads off a run's report; and the columns `run` and
/// the `figure` rows share.
pub type Cell = fn(&NetworkReport) -> String;
pub const LATENCY: Cell = |r| format!("{:.1}", r.avg_packet_latency());
pub const BLOCKED: Cell = |r| format!("{:.2}", r.avg_pg_encounters());
pub const WAIT: Cell = |r| format!("{:.2}", r.avg_wakeup_wait());
pub const OFF: Cell = |r| percent(r.off_fraction());
pub const SAVED: Cell = |r| percent(PowerModel::default_45nm().static_savings(r));
const WATTS: Cell = |r| format!("{:.2}", PowerModel::default_45nm().static_power_watts(r));

/// Builds the simulation of one point: substrate, routing, fault profile,
/// `--shards` (a bad shard count is the network's typed [`ConfigError`])
/// and the observers `--trace-out`/`--metrics-out` ask for.
fn build_synth(opts: &Opts, p: &Point) -> Result<SyntheticSim, SimError> {
    let mut cfg = SimConfig::with_scheme(p.scheme);
    let (topo, routing) = opts.noc_view()?;
    cfg.noc.topology = topo;
    cfg.noc.routing = routing;
    cfg.faults = opts.fault_config(p.drop);
    let mut sim = SyntheticSim::new(cfg, opts.pattern, p.rate);
    sim.network_mut().set_shards(opts.shards)?;
    spec::attach(
        sim.network_mut(),
        opts.recorder_cap(),
        opts.metrics_out.is_some(),
    );
    Ok(sim)
}

/// A column of `run`'s table: its header and how a point's cell reads.
type Col = (&'static str, fn(&Point, &NetworkReport) -> String);

const LOADS: &[Col] = &[
    ("load", |p, _| format!("{:.4}", p.rate)),
    ("latency", |_, r| LATENCY(r)),
    ("off %", |_, r| OFF(r)),
    ("static W", |_, r| WATTS(r)),
    ("throughput", |_, r| format!("{:.4}", r.throughput())),
];

const SCHEMES: &[Col] = &[
    ("scheme", |p, _| p.scheme.label().to_string()),
    ("latency", |_, r| LATENCY(r)),
    ("blocked/pkt", |_, r| BLOCKED(r)),
    ("wait/pkt", |_, r| WAIT(r)),
    ("off %", |_, r| OFF(r)),
    ("static saved %", |_, r| SAVED(r)),
];

const DROPS: &[Col] = &[
    ("drop p", |p, _| format!("{:.2}", p.drop)),
    ("delivered", |_, r| r.stats.packets_delivered.to_string()),
    ("latency", |_, r| LATENCY(r)),
    ("wait/pkt", |_, r| WAIT(r)),
    ("faults", |_, r| r.pg.faults_injected.to_string()),
    ("escalations", |_, r| r.pg.escalations.to_string()),
    ("off %", |_, r| OFF(r)),
];

impl Axis {
    /// The table's title line and columns.
    fn table(self, opts: &Opts) -> (String, &'static [Col]) {
        let (pattern, on, scheme) = (opts.pattern, opts.substrate_label(), opts.scheme());
        let at = format!("{pattern} at {} flits/node/cycle on {on}", opts.rates[0]);
        match self {
            Axis::Rate => (
                format!("load sweep: {pattern} on {on} under {scheme}"),
                LOADS,
            ),
            Axis::Scheme => (format!("scheme comparison: {at}"), SCHEMES),
            Axis::Faults => {
                let (corrupt, seed) = (opts.fault_corrupt, opts.fault_seed);
                let how = format!("(corrupt {corrupt:.2}, seed {seed:#x})");
                (format!("fault sweep: {at} under {scheme} {how}"), DROPS)
            }
        }
    }

    /// What a point's trace file adds to the stem: `-r0.0050`, `-ppf`,
    /// `-d0.25`.
    fn suffix(self, p: &Point) -> String {
        match self {
            Axis::Rate => format!("-r{:.4}", p.rate),
            Axis::Scheme => format!("-{}", p.scheme.tag()),
            Axis::Faults => format!("-d{:.2}", p.drop),
        }
    }
}

/// Where point `p` of a sweep writes its trace: `base`'s stem plus the
/// axis suffix (`t.jsonl` → `t-d0.25.jsonl`). A single point writes `base`.
pub fn point_path(base: &Path, axis: Axis, p: &Point) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let ext = base.extension().and_then(|e| e.to_str());
    let ext = ext.map_or(String::new(), |e| format!(".{e}"));
    base.with_file_name(format!("{stem}{}{ext}", axis.suffix(p)))
}

/// Simulates every point of the run, prints the table, and writes what
/// `--trace-out` and `--metrics-out` ask for.
pub fn run(opts: &Opts) -> Result<ExitCode, String> {
    let axis = opts.axis();
    let (title, cols) = axis.unwrap_or(Axis::Scheme).table(opts);
    println!("{title}");
    let mut t = Table::new(&cols.iter().map(|c| c.0).collect::<Vec<_>>().join("|"));
    let mut wrote = Vec::new();
    let mut merged: Option<Registry> = None;
    let (mut phase_nanos, mut wall_nanos) = (0, 0);
    for p in opts.points() {
        let mut sim = build_synth(opts, &p).map_err(sim_err)?;
        // `run_experiment`, with the measured window timed: the profiler
        // restarts with the statistics at the end of warm-up.
        sim.run(opts.cycles / 4).map_err(sim_err)?;
        sim.network_mut().reset_stats();
        let started = Instant::now();
        sim.run(opts.cycles).map_err(sim_err)?;
        wall_nanos += started.elapsed().as_nanos() as u64;
        phase_nanos += sim.network().profiler().map_or(0, |p| p.total_nanos());
        let r = sim.report();
        t.row(cols.iter().map(|c| (c.1)(&p, &r)));
        let (events, registry) = spec::harvest(sim.network_mut());
        if let Some(reg) = registry {
            merged.get_or_insert_with(Registry::new).merge(&reg);
        }
        if let Some(base) = &opts.trace_out {
            let path = axis.map_or(base.clone(), |a| point_path(base, a, &p));
            write_trace(&path, &events)?;
            wrote.push((path, events.len()));
        }
    }
    println!("{t}");
    for (path, n) in wrote {
        println!("wrote {} ({n} events)", path.display());
    }
    if let (Some(path), Some(reg)) = (&opts.metrics_out, &merged) {
        validate_exposition(&reg.to_prometheus())
            .map_err(|e| format!("invalid exposition: {e}"))?;
        write_metrics(path, reg)?;
        println!("wrote {}", path.display());
        println!(
            "# punchsim_coverage phase_nanos={phase_nanos} wall_nanos={wall_nanos} ratio={:.4}",
            phase_nanos as f64 / wall_nanos.max(1) as f64
        );
    }
    if axis == Some(Axis::Faults) {
        println!("every run completed without a stall report: punches are an");
        println!("optimization; the WU handshake keeps the delivery guarantee.");
    }
    Ok(ExitCode::SUCCESS)
}
