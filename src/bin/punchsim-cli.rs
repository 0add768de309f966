//! `punchsim` command-line interface: run any experiment without writing
//! Rust.
//!
//! The commands, their flags and the values those take (schemes,
//! patterns, topologies, routings, suites) are listed once, in [`usage`] —
//! printed by running the binary with no arguments or a bad one. The
//! `Opts`-grammar subcommands' lines are generated from [`COMMANDS`], which
//! is also what the parser checks a flag against.
//!
//! The `faults` command sweeps the punch-drop probability from 0 to 1 and
//! shows that delivery stays at 100% while only latency degrades — the
//! paper's "punches are an optimization, the WU handshake is the safety
//! net" argument, checked end to end. `--faults`, `--corrupt` and
//! `--fault-seed` also apply to `sweep`/`schemes` runs.
//!
//! The `trace` command records one run's cycle-stamped event stream and
//! writes a trace artifact: Chrome trace-event JSON (open in Perfetto or
//! `chrome://tracing` — one power-state track per router plus punch flow
//! arrows), JSONL, or CSV.
//!
//! The `metrics` command runs one profiled busy-regime simulation and
//! prints its full metric registry as Prometheus text exposition —
//! counters, latency histograms, per-router heatmap planes and the
//! tick-phase wall-time profile — with a trailing parseable coverage
//! comment that `scripts/metrics_gate.sh` asserts on. `--metrics-out`
//! (here and on `faults`/`trace`/`campaign`) additionally writes the
//! registry snapshot to a file: Prometheus text for `.prom`/`.txt`
//! paths, JSON otherwise.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use punchsim::campaign::{self, compare, spec, Json, Tolerances};
use punchsim::metrics::validate_exposition;
use punchsim::obs::{self, Stamped, VecSink};
use punchsim::prelude::*;
use punchsim::stats::Table;
use punchsim::traffic::InjectionConfig;

/// Default flight-recorder capacity for `faults`/`campaign` dumps when
/// `--trace-cap` is not given.
const DEFAULT_DUMP_CAP: usize = 4_096;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    // `campaign` and `compare` take boolean flags and positional arguments,
    // which the flag/value `Opts` grammar cannot express — they parse their
    // own argument lists.
    match cmd.as_str() {
        "campaign" => return campaign_cmd(&args[1..]),
        "compare" => return compare_cmd(&args[1..]),
        "verify" => return verify_cmd(&args[1..]),
        "list-schemes" => return list_schemes(),
        _ => {}
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == cmd) else {
        eprintln!("unknown command {cmd:?}\n\n{}", usage());
        return ExitCode::FAILURE;
    };
    // The `metrics` subcommand shares the flag/value grammar but defaults
    // to the busy-suite regime instead of the sweep regime.
    let defaults = if cmd == "metrics" {
        Opts::metrics_defaults()
    } else {
        Opts::defaults()
    };
    let opts = match Opts::parse_from(defaults, command, &args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match (command.run)(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn sim_err(e: SimError) -> String {
    format!("simulation error: {e}")
}

/// The campaign suites: `--suite` name, spec-list builder (from the
/// campaign seed), one-line help. The one table behind `--suite`
/// validation, [`CampaignOpts::specs`], the usage text and the
/// `unknown suite` message.
type Suite = (&'static str, fn(u64) -> Vec<RunSpec>, &'static str);
const SUITES: &[Suite] = &[
    (
        "parsec",
        campaign::parsec_suite,
        "closed-loop PARSEC-like CMP runs",
    ),
    (
        "synth",
        campaign::synthetic_suite,
        "synthetic traffic sweeps",
    ),
    ("ci", campaign::ci_suite, "parsec + synth"),
    ("fastpath", campaign::fastpath_suite, "idle-dominated runs"),
    (
        "substrate",
        campaign::substrate_suite,
        "torus / YX / west-first sweep",
    ),
    (
        "busy",
        campaign::busy_suite,
        "large-mesh busy-regime scalability runs",
    ),
    (
        "rivals",
        campaign::rivals_suite,
        "Power Punch vs. SDM circuits vs. ring router",
    ),
    (
        "schemes",
        campaign::schemes_suite,
        "one run per paper scheme (the identity_gate.sh baseline)",
    ),
];

/// Looks a suite up by its `--suite` name.
fn suite(name: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|s| s.0 == name)
}

/// One `Opts`-grammar subcommand: its name, the flags it reads (in groups,
/// each spelled as its usage text, `--flag VALUE`) and its entry point. Any
/// other flag is an error for that command, and its usage line is printed
/// from this list, so neither can claim a flag the command ignores.
struct Command {
    name: &'static str,
    flags: &'static [&'static [&'static str]],
    run: fn(&Opts) -> Result<(), String>,
}

/// What every synthetic-traffic command reads: the workload and substrate
/// `build_synth` assembles, the run length, the fault profile's fixed part.
const SYNTH: &[&str] = &[
    "--pattern P",
    "--mesh WxH",
    "--topology T",
    "--routing R",
    "--rate R",
    "--cycles N",
    "--corrupt P",
    "--fault-seed N",
    "--shards N",
];

/// What a command that can dump its flight recorder and registry reads.
const DUMPS: &[&str] = &["--trace-out PATH", "--trace-cap N", "--metrics-out PATH"];

const COMMANDS: &[Command] = &[
    Command {
        name: "sweep",
        flags: &[&["--scheme S", "--faults P"], SYNTH],
        run: sweep,
    },
    Command {
        name: "parsec",
        flags: &[&["--benchmark B", "--scheme S", "--instr N", "--shards N"]],
        run: parsec,
    },
    Command {
        name: "table1",
        flags: &[],
        run: table1,
    },
    Command {
        name: "schemes",
        flags: &[&["--faults P"], SYNTH],
        run: schemes,
    },
    // `faults` sweeps the drop probability itself, so it takes no `--faults`.
    Command {
        name: "faults",
        flags: &[&["--scheme S"], DUMPS, SYNTH],
        run: faults,
    },
    Command {
        name: "trace",
        flags: &[
            &["--scheme S", "--faults P", "--format chrome|jsonl|csv"],
            DUMPS,
            SYNTH,
        ],
        run: trace,
    },
    Command {
        name: "metrics",
        flags: &[&["--scheme S", "--faults P", "--metrics-out PATH"], SYNTH],
        run: metrics,
    },
];

impl Command {
    /// The flags this command reads, as listed (`--mesh WxH`).
    fn flags(&self) -> impl Iterator<Item = &'static str> {
        self.flags.iter().flat_map(|group| group.iter().copied())
    }

    /// Whether this command reads `flag` (`--mesh`, not `--mesh WxH`).
    fn reads(&self, flag: &str) -> bool {
        self.flags().any(|f| f.split(' ').next() == Some(flag))
    }

    /// `  punchsim-cli sweep    [--scheme S] ...`, wrapped under the first flag.
    fn usage_lines(&self) -> String {
        let mut out = format!("  punchsim-cli {:<8}", self.name);
        let mut col = out.len();
        for flag in self.flags() {
            if col + flag.len() + 3 > 78 {
                out.push_str(&format!("\n{:23}", ""));
                col = 23;
            }
            out.push_str(&format!(" [{flag}]"));
            col += flag.len() + 3;
        }
        out.trim_end().to_string() + "\n"
    }
}

/// The full usage text, the only copy: the static template plus the lines
/// derived from [`COMMANDS`], [`SUITES`] and `SchemeKind::ALL`, so a new
/// flag, suite or scheme shows up here without a hand edit.
fn usage() -> String {
    let tags: Vec<&str> = SchemeKind::ALL.iter().map(|k| k.tag()).collect();
    let command_help: String = COMMANDS.iter().map(Command::usage_lines).collect();
    let suite_help: String = SUITES
        .iter()
        .map(|(name, _, help)| format!("                     {name:<10} {help}\n"))
        .collect();
    format!(
        "{}\nschemes: {} (details: punchsim-cli list-schemes)\n{USAGE_TAIL}",
        USAGE_TEMPLATE
            .replace("{COMMAND_HELP}", &command_help)
            .replace("{SUITE_HELP}", &suite_help),
        tags.join(" ")
    )
}

const USAGE_TEMPLATE: &str = "usage:
{COMMAND_HELP}  punchsim-cli list-schemes
  punchsim-cli campaign [--suite S] [--threads N] [--shards N] [--out DIR]
                        [--name NAME] [--seed N] [--no-cache] [--sample N]
                        [--trace-out DIR] [--trace-cap N] [--metrics-out PATH]
  punchsim-cli compare  BASELINE.json CURRENT.json [--tol-latency R]
                        [--tol-delivered R] [--tol-escalations N]
  punchsim-cli verify   [--mesh WxH] [--scheme S] [--faulty] [--broken]
                        [--max-faults N] [--out PATH] [--replay-out PATH]
                        [--chrome-out PATH] [--expect-violation]

fault flags (any synthetic command; `faults` sweeps --faults itself):
  --faults P       drop each punch-carrying sideband event with probability P
  --corrupt P      corrupt punch codewords with probability P (wrong targets)
  --fault-seed N   seed of the fault injector's RNG stream (default 0xFA17)

trace flags:
  --trace-out PATH trace artifact path (trace: default punchsim-trace.<ext>;
                   faults: per-drop flight-recorder dumps PATH-dP.jsonl)
  --trace-cap N    flight-recorder capacity in events (trace: 0 = unbounded;
                   faults/campaign default 4096)
  --format F       trace artifact format: chrome (Perfetto; default),
                   jsonl, or csv

verify flags:
  --faulty         branch over the per-cycle fault alphabet (punch drop /
                   corruption, WU loss, stuck-off epochs)
  --broken         suppress the WU safety net and disable escalation (the
                   intentionally-broken manager; expect a counterexample)
  --max-faults N   fault budget for --faulty exploration (default 2)
  --out PATH       write the byte-stable VERIFY artifact (default: stdout)
  --replay-out P   replay the minimal counterexample, write JSONL events
  --chrome-out P   same replay as a Chrome trace (open in Perfetto)
  --expect-violation  exit 0 only if a property is violated (CI gates the
                   broken configuration this way)

campaign flags:
  --suite S        spec list (default ci):
{SUITE_HELP}  --threads N      worker threads; 0 = one per core (default)
  --out DIR        artifact directory (default bench-out)
  --name NAME      artifact name: BENCH_<NAME>.json (default: the suite)
  --seed N         campaign seed (default 0xC0FFEE)
  --no-cache       ignore the result store; simulate every spec
  --shards N       tick each network in N row shards on a persistent
                   worker pool (bit-exact for any N; N must be >= 1 and no
                   larger than the smallest mesh's rows; default 1). Also
                   accepted by every simulating subcommand above
  --sample N       sample per-interval series every N cycles into the
                   .timing.json sidecar (forces simulation)
  --trace-out DIR  write per-run flight-recorder dumps (JSONL) into DIR
  --metrics-out P  collect per-run metric registries (forces simulation),
                   embed the merge into the .timing.json sidecar and write
                   it to P (.prom/.txt: Prometheus text; else JSON)
  PP_FAST=1 in the environment shortens every run (CI smoke mode)

metrics flags:
  --metrics-out P  write the registry snapshot to P in addition to the
                   stdout exposition (metrics/faults/trace commands)

substrate flags (any synthetic command):
  --topology T     mesh (default), torus, or cmesh:C (concentrated mesh
                   with C terminals per router); dimensions come from --mesh
  --routing R      xy (default), yx, wf (west-first), nl (north-last),
                   nf (negative-first); turn-model routings are rejected on
                   the torus (wrap links would close their turn cycles)
";

const USAGE_TAIL: &str = "patterns: uniform transpose bitcomp bitrev shuffle tornado neighbor
benchmarks: blackscholes bodytrack canneal dedup ferret fluidanimate swaptions x264";

struct Opts {
    pattern: TrafficPattern,
    scheme: SchemeKind,
    mesh: Mesh,
    topo: TopoChoice,
    routing: RoutingKind,
    rate: f64,
    cycles: u64,
    benchmark: Benchmark,
    instr: u64,
    fault_drop: f64,
    fault_corrupt: f64,
    fault_seed: u64,
    trace_out: Option<PathBuf>,
    trace_cap: usize,
    format: TraceFormat,
    metrics_out: Option<PathBuf>,
    shards: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Chrome,
    Jsonl,
    Csv,
}

impl TraceFormat {
    fn from_tag(tag: &str) -> Option<TraceFormat> {
        match tag {
            "chrome" => Some(TraceFormat::Chrome),
            "jsonl" => Some(TraceFormat::Jsonl),
            "csv" => Some(TraceFormat::Csv),
            _ => None,
        }
    }

    fn default_path(self) -> &'static str {
        match self {
            TraceFormat::Chrome => "punchsim-trace.json",
            TraceFormat::Jsonl => "punchsim-trace.jsonl",
            TraceFormat::Csv => "punchsim-trace.csv",
        }
    }
}

/// Which substrate `--topology` selected; dimensions come from `--mesh`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopoChoice {
    Mesh,
    Torus,
    CMesh(u16),
}

impl TopoChoice {
    fn from_tag(tag: &str) -> Option<TopoChoice> {
        match tag {
            "mesh" => Some(TopoChoice::Mesh),
            "torus" => Some(TopoChoice::Torus),
            _ => {
                let c = tag.strip_prefix("cmesh:")?;
                Some(TopoChoice::CMesh(c.parse().ok()?))
            }
        }
    }
}

impl Opts {
    fn defaults() -> Opts {
        Opts {
            pattern: TrafficPattern::UniformRandom,
            scheme: SchemeKind::PowerPunchFull,
            mesh: Mesh::new(8, 8),
            topo: TopoChoice::Mesh,
            routing: RoutingKind::Xy,
            rate: 0.005,
            cycles: 20_000,
            benchmark: Benchmark::Dedup,
            instr: 80_000,
            fault_drop: 0.0,
            fault_corrupt: 0.0,
            fault_seed: 0xFA17,
            trace_out: None,
            trace_cap: 0,
            format: TraceFormat::Chrome,
            metrics_out: None,
            shards: 1,
        }
    }

    /// Defaults for the `metrics` subcommand: the busy-suite regime (a
    /// 16x16 mesh under uniform traffic), so the tick-phase profile
    /// exercises the SoA kernel, the power manager and the fast-forward
    /// path in one run.
    fn metrics_defaults() -> Opts {
        Opts {
            mesh: Mesh::new(16, 16),
            rate: 0.0005,
            cycles: 12_000,
            ..Opts::defaults()
        }
    }

    /// Parses `cmd`'s flag/value pairs over `o`; every flag must be one it reads.
    fn parse_from(mut o: Opts, cmd: &Command, args: &[String]) -> Result<Opts, String> {
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !cmd.reads(flag) {
                return Err(format!("unknown flag {flag} for {}", cmd.name));
            }
            let val = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            match flag.as_str() {
                "--pattern" => {
                    o.pattern = TrafficPattern::from_tag(val)
                        .ok_or_else(|| format!("unknown pattern {val}"))?;
                }
                "--scheme" => {
                    o.scheme = SchemeKind::parse(val).map_err(|e| e.to_string())?;
                }
                "--mesh" => {
                    let (w, h) = val
                        .split_once('x')
                        .ok_or_else(|| format!("mesh must look like 8x8, got {val}"))?;
                    let w: u16 = w.parse().map_err(|_| "bad mesh width".to_string())?;
                    let h: u16 = h.parse().map_err(|_| "bad mesh height".to_string())?;
                    o.mesh = Mesh::try_new(w, h).map_err(|e| e.to_string())?;
                }
                "--topology" => {
                    o.topo = TopoChoice::from_tag(val)
                        .ok_or_else(|| format!("unknown topology {val} (mesh, torus, cmesh:C)"))?;
                }
                "--routing" => {
                    o.routing = RoutingKind::from_tag(val)
                        .ok_or_else(|| format!("unknown routing {val} (xy, yx, wf, nl, nf)"))?;
                }
                "--rate" => {
                    o.rate = val.parse().map_err(|_| "bad rate".to_string())?;
                    InjectionConfig::at_rate(o.rate)
                        .validate()
                        .map_err(|e| e.to_string())?;
                }
                "--cycles" => {
                    o.cycles = val.parse().map_err(|_| "bad cycle count".to_string())?;
                }
                "--instr" => {
                    o.instr = val
                        .parse()
                        .map_err(|_| "bad instruction count".to_string())?;
                }
                "--benchmark" => {
                    o.benchmark = Benchmark::ALL
                        .into_iter()
                        .find(|b| b.name() == val.as_str())
                        .ok_or_else(|| format!("unknown benchmark {val}"))?;
                }
                "--faults" => {
                    o.fault_drop = parse_prob(val)?;
                }
                "--corrupt" => {
                    o.fault_corrupt = parse_prob(val)?;
                }
                "--fault-seed" => {
                    o.fault_seed = val.parse().map_err(|_| "bad fault seed".to_string())?;
                }
                "--trace-out" => o.trace_out = Some(PathBuf::from(val)),
                "--trace-cap" => {
                    o.trace_cap = val.parse().map_err(|_| "bad trace capacity".to_string())?;
                }
                "--format" => {
                    o.format = TraceFormat::from_tag(val)
                        .ok_or_else(|| format!("unknown trace format {val}"))?;
                }
                "--metrics-out" => o.metrics_out = Some(PathBuf::from(val)),
                "--shards" => {
                    o.shards = val.parse().map_err(|_| "bad shard count".to_string())?;
                }
                f => unreachable!("{} lists {f}, which no arm parses", cmd.name),
            }
        }
        Ok(o)
    }

    /// Resolves `--topology`/`--mesh`/`--routing` into a validated
    /// substrate + routing pair. Degenerate dimensions and cyclic
    /// combinations (a turn-model router on the torus) surface as typed
    /// [`SimError::Config`] errors.
    fn noc_view(&self) -> Result<(Substrate, RoutingKind), SimError> {
        let (w, h) = (self.mesh.width(), self.mesh.height());
        let topo = match self.topo {
            TopoChoice::Mesh => Substrate::Mesh(self.mesh),
            TopoChoice::Torus => Substrate::Torus(Torus::try_new(w, h)?),
            TopoChoice::CMesh(c) => Substrate::CMesh(CMesh::try_new(w, h, c)?),
        };
        self.routing.validate_on(topo)?;
        Ok((topo, self.routing))
    }

    /// Substrate label for table headers: `8x8`, `torus8x8-yx`, ...
    fn substrate_label(&self) -> String {
        let (topo, routing) = match self.noc_view() {
            Ok(v) => v,
            Err(_) => return format!("{}x{}", self.mesh.width(), self.mesh.height()),
        };
        let mut s = topo.tag();
        if routing != RoutingKind::Xy {
            s.push('-');
            s.push_str(routing.tag());
        }
        s
    }

    fn fault_config(&self, drop: f64) -> FaultConfig {
        FaultConfig {
            seed: self.fault_seed,
            drop_punch_ppm: FaultConfig::ppm(drop),
            corrupt_punch_ppm: FaultConfig::ppm(self.fault_corrupt),
            ..FaultConfig::default()
        }
    }
}

fn parse_prob(val: &str) -> Result<f64, String> {
    let p: f64 = val.parse().map_err(|_| "bad probability".to_string())?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("probability {p} outside 0..=1"))
    }
}

/// Builds the synthetic simulation every `Opts`-driven subcommand runs:
/// substrate, routing, fault profile and `--shards` applied (a bad shard
/// count is the network's typed [`ConfigError`]).
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

/// Writes a registry to `path`: Prometheus text exposition when the
/// extension is `.prom` or `.txt`, the JSON snapshot otherwise.
fn write_metrics(path: &std::path::Path, reg: &Registry) -> Result<(), String> {
    let text = match path.extension().and_then(|e| e.to_str()) {
        Some("prom") | Some("txt") => reg.to_prometheus(),
        _ => reg.to_json().render(),
    };
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Prints `SchemeKind::METAS`: every tag with its paper label and one-line
/// description. The single source of truth for what `--scheme` accepts.
fn list_schemes() -> ExitCode {
    let mut t = Table::new(["tag", "scheme", "description"]);
    for k in SchemeKind::ALL {
        t.row([
            k.tag().to_string(),
            k.label().to_string(),
            k.meta().description.to_string(),
        ]);
    }
    println!("registered schemes (pass a tag or label to --scheme):");
    println!("{t}");
    ExitCode::SUCCESS
}

fn sweep(opts: &Opts) -> Result<(), String> {
    let pm = PowerModel::for_scheme(opts.scheme);
    println!(
        "load sweep: {} on {} under {}",
        opts.pattern,
        opts.substrate_label(),
        opts.scheme
    );
    let mut t = Table::new(["load", "latency", "off %", "static W", "throughput"]);
    for mult in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let rate = opts.rate * mult;
        let r = run_synth(opts, opts.scheme, rate)?;
        t.row([
            format!("{rate:.4}"),
            format!("{:.1}", r.avg_packet_latency()),
            format!("{:.1}", r.off_fraction() * 100.0),
            format!("{:.2}", pm.static_power_watts(&r)),
            format!("{:.4}", r.throughput()),
        ]);
    }
    println!("{t}");
    Ok(())
}

fn schemes(opts: &Opts) -> Result<(), String> {
    println!(
        "scheme comparison: {} at {} flits/node/cycle on {}",
        opts.pattern,
        opts.rate,
        opts.substrate_label()
    );
    let mut t = Table::new([
        "scheme",
        "latency",
        "blocked/pkt",
        "wait/pkt",
        "off %",
        "static saved %",
    ]);
    // Every registered scheme, rivals included, with its own power model
    // (identical to the default model for the paper's five schemes).
    for scheme in SchemeKind::ALL {
        let pm = PowerModel::for_scheme(scheme);
        let r = run_synth(opts, scheme, opts.rate)?;
        t.row([
            scheme.label().to_string(),
            format!("{:.1}", r.avg_packet_latency()),
            format!("{:.2}", r.avg_pg_encounters()),
            format!("{:.2}", r.avg_wakeup_wait()),
            format!("{:.1}", r.off_fraction() * 100.0),
            format!("{:.1}", pm.static_savings(&r) * 100.0),
        ]);
    }
    println!("{t}");
    Ok(())
}

/// Sweeps punch-drop probability 0..=1 under the selected scheme: delivery
/// stays at 100% of injected packets (the WU safety net) while latency
/// degrades toward conventional gating. With `--trace-out`, each sweep
/// point additionally dumps its flight recorder as JSONL for postmortems.
fn faults(opts: &Opts) -> Result<(), String> {
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
    let cap = match &opts.trace_out {
        Some(_) if opts.trace_cap > 0 => opts.trace_cap,
        Some(_) => DEFAULT_DUMP_CAP,
        None => 0,
    };
    let mut t = Table::new([
        "drop p",
        "delivered",
        "latency",
        "wait/pkt",
        "faults",
        "escalations",
        "off %",
    ]);
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
            format!("{:.1}", r.avg_packet_latency()),
            format!("{:.2}", r.avg_wakeup_wait()),
            format!("{}", r.pg.faults_injected),
            format!("{}", r.pg.escalations),
            format!("{:.1}", r.off_fraction() * 100.0),
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
    Ok(())
}

/// Per-drop dump path: `dump.jsonl` + 0.25 → `dump-d0.25.jsonl`.
fn faults_dump_path(base: &std::path::Path, drop: f64) -> PathBuf {
    let stem = base
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("faults-trace");
    base.with_file_name(format!("{stem}-d{drop:.2}.jsonl"))
}

/// Records one run's full event stream and writes a trace artifact.
fn trace(opts: &Opts) -> Result<(), String> {
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
    let text = match opts.format {
        TraceFormat::Chrome => obs::chrome_trace(&events),
        TraceFormat::Jsonl => obs::to_jsonl(&events),
        TraceFormat::Csv => obs::to_csv(&events),
    };
    let path = opts
        .trace_out
        .clone()
        .unwrap_or_else(|| PathBuf::from(opts.format.default_path()));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "traced {} events: {} under {} on {} at {} flits/node/cycle",
        events.len(),
        opts.pattern,
        opts.scheme,
        opts.substrate_label(),
        opts.rate,
    );
    println!("wrote {}", path.display());
    if opts.format == TraceFormat::Chrome {
        println!("open it in https://ui.perfetto.dev or chrome://tracing");
    }
    if let (Some(mpath), Some(reg)) = (&opts.metrics_out, &registry) {
        write_metrics(mpath, reg)?;
        println!("wrote {}", mpath.display());
    }
    Ok(())
}

/// Runs one profiled run in the busy regime (overridable with the usual
/// synthetic flags) and emits its metric registry: Prometheus text
/// exposition on stdout — self-validated before printing — plus a
/// trailing parseable coverage comment for `scripts/metrics_gate.sh`,
/// and optionally the JSON snapshot via `--metrics-out`.
fn metrics(opts: &Opts) -> Result<(), String> {
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
    Ok(())
}

fn parsec(opts: &Opts) -> Result<(), String> {
    let mut cfg = CmpConfig::new(opts.benchmark, opts.scheme);
    cfg.instr_per_core = opts.instr;
    cfg.warmup_instr = opts.instr / 10;
    println!(
        "full-system: {} under {} ({} instructions/core)...",
        opts.benchmark, opts.scheme, opts.instr
    );
    let mut sim = CmpSim::new(cfg);
    sim.network_mut()
        .set_shards(opts.shards)
        .map_err(|e| sim_err(e.into()))?;
    let r = sim.run();
    println!("completed:        {}", r.completed);
    println!("execution cycles: {}", r.exec_cycles);
    println!("L1 miss rate:     {:.3}%", r.l1_miss_rate * 100.0);
    println!("packet latency:   {:.1} cycles", r.net.avg_packet_latency());
    println!("blocked/packet:   {:.2}", r.net.avg_pg_encounters());
    println!(
        "offered load:     {:.4} flits/node/cycle",
        r.net.offered_load
    );
    println!("router off:       {:.1}%", r.net.off_fraction() * 100.0);
    Ok(())
}

fn table1(_: &Opts) -> Result<(), String> {
    use punchsim::core::Codebook;
    use punchsim::types::{Direction, NodeId};
    let cb = Codebook::enumerate(Mesh::new(8, 8), 3);
    let link = cb.link(NodeId(27), Direction::East).expect("interior");
    let mut t = Table::new(["#", "targeted routers", "punch signal"]);
    for (i, s) in link.sets().iter().enumerate() {
        t.row([
            (i + 1).to_string(),
            s.to_string(),
            format!("{:05b}", link.encode(s).expect("in book")),
        ]);
    }
    println!("{t}");
    println!(
        "{} sets, {} bits (paper: 22 sets, 5 bits)",
        link.set_count(),
        link.width_bits()
    );
    Ok(())
}

struct CampaignOpts {
    suite: &'static Suite,
    threads: usize,
    out: PathBuf,
    name: Option<String>,
    seed: u64,
    no_cache: bool,
    shards: usize,
    sample: u64,
    trace_out: Option<PathBuf>,
    trace_cap: usize,
    metrics_out: Option<PathBuf>,
}

impl CampaignOpts {
    fn parse(args: &[String]) -> Result<CampaignOpts, String> {
        let mut o = CampaignOpts {
            suite: suite("ci").expect("the default suite is in the table"),
            threads: 0,
            out: PathBuf::from("bench-out"),
            name: None,
            seed: campaign::DEFAULT_SEED,
            no_cache: false,
            shards: 1,
            sample: 0,
            trace_out: None,
            trace_cap: 0,
            metrics_out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            // The one boolean flag; everything else is a flag/value pair.
            if flag == "--no-cache" {
                o.no_cache = true;
                continue;
            }
            let val = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            match flag.as_str() {
                "--suite" => {
                    o.suite = suite(val).ok_or_else(|| {
                        let valid: Vec<&str> = SUITES.iter().map(|s| s.0).collect();
                        format!("unknown suite {val} (valid: {})", valid.join("|"))
                    })?;
                }
                "--threads" => {
                    o.threads = val.parse().map_err(|_| "bad thread count".to_string())?;
                }
                "--shards" => {
                    o.shards = val.parse().map_err(|_| "bad shard count".to_string())?;
                }
                "--out" => o.out = PathBuf::from(val),
                "--name" => o.name = Some(val.clone()),
                "--seed" => {
                    o.seed = val.parse().map_err(|_| "bad seed".to_string())?;
                }
                "--sample" => {
                    o.sample = val.parse().map_err(|_| "bad sample period".to_string())?;
                }
                "--trace-out" => o.trace_out = Some(PathBuf::from(val)),
                "--trace-cap" => {
                    o.trace_cap = val.parse().map_err(|_| "bad trace capacity".to_string())?;
                }
                "--metrics-out" => o.metrics_out = Some(PathBuf::from(val)),
                f => return Err(format!("unknown flag {f}")),
            }
        }
        Ok(o)
    }

    /// Effective flight-recorder capacity: 0 unless `--trace-out` is given.
    fn effective_trace_cap(&self) -> usize {
        match &self.trace_out {
            Some(_) if self.trace_cap > 0 => self.trace_cap,
            Some(_) => DEFAULT_DUMP_CAP,
            None => 0,
        }
    }

    fn specs(&self) -> Vec<RunSpec> {
        (self.suite.1)(self.seed)
    }

    /// Checks `--shards` against every spec in the suite *before* any run
    /// starts, so a bad count is one typed [`ConfigError`] up front rather
    /// than a per-run failure midway through the campaign. Mirrors
    /// `Network::set_shards`: sharding splits the mesh into row bands, so
    /// the count must fit the smallest topology's rows.
    fn validate_shards(&self, specs: &[RunSpec]) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        for spec in specs {
            let rows = match &spec.workload {
                Workload::Synthetic { topo, .. } => topo.height(),
                // Full-system runs drive CmpConfig's fixed 8x8 mesh.
                Workload::Parsec { .. } => 8,
            };
            if self.shards > rows as usize {
                return Err(ConfigError::ShardsExceedRows {
                    shards: self.shards,
                    rows,
                });
            }
        }
        Ok(())
    }
}

fn campaign_cmd(args: &[String]) -> ExitCode {
    let opts = match CampaignOpts::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let specs = opts.specs();
    if let Err(e) = opts.validate_shards(&specs) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let name = opts
        .name
        .clone()
        .unwrap_or_else(|| opts.suite.0.to_string());
    let runner = Runner {
        threads: opts.threads,
        store: if opts.no_cache {
            None
        } else {
            Some(Store::in_target())
        },
        sample_every: opts.sample,
        trace_cap: opts.effective_trace_cap(),
        collect_metrics: opts.metrics_out.is_some(),
        shards: opts.shards,
    };
    let threads = runner.effective_threads(specs.len());
    eprintln!(
        "campaign {name}: {} runs on {threads} thread(s){}",
        specs.len(),
        if campaign::fast_mode() {
            " [PP_FAST=1]"
        } else {
            ""
        }
    );
    let total = specs.len();
    let done = AtomicUsize::new(0);
    let started = Instant::now();
    let outcomes = runner.run_with(&specs, &|_, outcome| {
        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
        match outcome {
            Outcome::Done(rec) => {
                let how = match rec.cycles_per_sec() {
                    Some(cps) => format!("{:.0} cycles/sec", cps),
                    None => "cached".to_string(),
                };
                eprintln!("[{n}/{total}] {} ({how})", rec.spec.id());
            }
            Outcome::Failed(err) => eprintln!("[{n}/{total}] FAILED {err}"),
        }
    });
    let report = CampaignReport {
        name,
        threads,
        outcomes,
        wall_nanos: started.elapsed().as_nanos() as u64,
    };
    let (main_path, timing_path) = match report.write_artifacts(&opts.out) {
        Ok(paths) => paths,
        Err(e) => {
            eprintln!(
                "error: cannot write artifacts to {}: {e}",
                opts.out.display()
            );
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &opts.trace_out {
        if let Err(e) = write_campaign_dumps(dir, &report) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.metrics_out {
        match report.merged_registry() {
            Some(reg) => {
                if let Err(e) = write_metrics(path, &reg) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {}", path.display());
            }
            None => eprintln!("note: no run produced metrics; nothing to write"),
        }
    }
    let cached = report
        .outcomes
        .iter()
        .filter_map(Outcome::record)
        .filter(|r| r.cached)
        .count();
    println!(
        "{} runs ({cached} cached), {} failure(s), {:.1}s wall clock",
        total,
        report.failures(),
        report.wall_nanos as f64 / 1e9
    );
    println!("wrote {}", main_path.display());
    println!("wrote {}", timing_path.display());
    if report.failures() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Writes one JSONL flight-recorder dump per traced run into `dir`,
/// named after the run id (`/` → `_`).
fn write_campaign_dumps(dir: &std::path::Path, report: &CampaignReport) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut written = 0usize;
    for rec in report.outcomes.iter().filter_map(Outcome::record) {
        if rec.events.is_empty() {
            continue;
        }
        let name = format!("{}.trace.jsonl", rec.spec.id().replace('/', "_"));
        let path = dir.join(name);
        std::fs::write(&path, obs::to_jsonl(&rec.events))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        written += 1;
    }
    println!("wrote {written} trace dump(s) into {}", dir.display());
    Ok(())
}

struct CompareOpts {
    baseline: PathBuf,
    current: PathBuf,
    tol: Tolerances,
}

impl CompareOpts {
    fn parse(args: &[String]) -> Result<CompareOpts, String> {
        let mut paths = Vec::new();
        let mut tol = Tolerances::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(flag) = arg.strip_prefix("--") {
                let val = it
                    .next()
                    .ok_or_else(|| format!("missing value for --{flag}"))?;
                let v: f64 = val.parse().map_err(|_| format!("bad value for --{flag}"))?;
                match flag {
                    "tol-latency" => tol.latency_rel = v,
                    "tol-delivered" => tol.delivered_rel = v,
                    "tol-escalations" => tol.escalations_abs = v,
                    f => return Err(format!("unknown flag --{f}")),
                }
            } else {
                paths.push(PathBuf::from(arg));
            }
        }
        let [baseline, current] = <[PathBuf; 2]>::try_from(paths)
            .map_err(|_| "compare needs exactly BASELINE and CURRENT paths".to_string())?;
        Ok(CompareOpts {
            baseline,
            current,
            tol,
        })
    }
}

/// Per-run latency percentiles of a campaign artifact, keyed by run id
/// (empty for pre-v2 artifacts without percentile keys).
fn artifact_percentiles(doc: &Json) -> Vec<(String, [u64; 4])> {
    let mut out = Vec::new();
    let Some(runs) = doc.get("runs").and_then(|r| r.as_arr()) else {
        return out;
    };
    for run in runs {
        let (Some(id), Some(m)) = (run.get("id").and_then(|i| i.as_str()), run.get("metrics"))
        else {
            continue;
        };
        let q = |key: &str| m.get(key).and_then(|v| v.as_u64());
        if let (Some(p50), Some(p95), Some(p99), Some(max)) = (
            q("latency_p50"),
            q("latency_p95"),
            q("latency_p99"),
            q("latency_max"),
        ) {
            out.push((id.to_string(), [p50, p95, p99, max]));
        }
    }
    out
}

/// Prints per-run latency percentiles side by side (baseline → current)
/// for every run both artifacts carry percentiles for. Informational —
/// the perf gate itself stays mean-latency based, so older v1 artifacts
/// (no percentile keys) simply print nothing here.
fn print_percentiles(base: &Json, cur: &Json) {
    let b = artifact_percentiles(base);
    let c = artifact_percentiles(cur);
    let mut t = Table::new(["run", "p50", "p95", "p99", "max"]);
    let mut rows = 0;
    for (id, bq) in &b {
        let Some((_, cq)) = c.iter().find(|(cid, _)| cid == id) else {
            continue;
        };
        t.row([
            id.clone(),
            format!("{} -> {}", bq[0], cq[0]),
            format!("{} -> {}", bq[1], cq[1]),
            format!("{} -> {}", bq[2], cq[2]),
            format!("{} -> {}", bq[3], cq[3]),
        ]);
        rows += 1;
    }
    if rows > 0 {
        println!("latency percentiles, cycles (baseline -> current):");
        println!("{t}");
    }
}

fn load_artifact(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_cmd(args: &[String]) -> ExitCode {
    let opts = match CompareOpts::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = load_artifact(&opts.baseline).and_then(|base| {
        let cur = load_artifact(&opts.current)?;
        let cmp = compare::compare(&base, &cur, &opts.tol)?;
        Ok((base, cur, cmp))
    });
    let (base, cur, cmp) = match result {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for id in &cmp.run_errors {
        println!("FAILED RUN {id}");
    }
    for id in &cmp.missing {
        println!("MISSING    {id}");
    }
    for d in &cmp.deviations {
        println!("DRIFT      {d}");
    }
    for id in &cmp.extra {
        println!("note: ungated new run {id}");
    }
    print_percentiles(&base, &cur);
    if cmp.passed() {
        println!(
            "perf gate passed: {} run(s) within tolerance (latency ±{:.0}%, \
             delivered ±{:.0}%, escalations ±{})",
            cmp.checked,
            opts.tol.latency_rel * 100.0,
            opts.tol.delivered_rel * 100.0,
            opts.tol.escalations_abs
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "perf gate FAILED: {} deviation(s), {} missing run(s), {} failed run(s)",
            cmp.deviations.len(),
            cmp.missing.len(),
            cmp.run_errors.len()
        );
        ExitCode::FAILURE
    }
}

/// Options of the `verify` subcommand. Boolean mode flags put it outside
/// the flag/value `Opts` grammar, so it parses its own argument list.
struct VerifyOpts {
    width: u16,
    height: u16,
    scheme: SchemeKind,
    faulty: bool,
    broken: bool,
    max_faults: u32,
    out: Option<PathBuf>,
    replay_out: Option<PathBuf>,
    chrome_out: Option<PathBuf>,
    expect_violation: bool,
}

impl VerifyOpts {
    fn parse(args: &[String]) -> Result<VerifyOpts, String> {
        let mut o = VerifyOpts {
            width: 2,
            height: 2,
            scheme: SchemeKind::PowerPunchFull,
            faulty: false,
            broken: false,
            max_faults: 2,
            out: None,
            replay_out: None,
            chrome_out: None,
            expect_violation: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--faulty" => o.faulty = true,
                "--broken" => o.broken = true,
                "--expect-violation" => o.expect_violation = true,
                _ => {
                    let val = it
                        .next()
                        .ok_or_else(|| format!("missing value for {flag}"))?;
                    match flag.as_str() {
                        "--mesh" => {
                            let (w, h) = val
                                .split_once('x')
                                .ok_or_else(|| format!("mesh must look like 2x2, got {val}"))?;
                            o.width = w.parse().map_err(|_| "bad mesh width".to_string())?;
                            o.height = h.parse().map_err(|_| "bad mesh height".to_string())?;
                        }
                        "--scheme" => {
                            o.scheme = SchemeKind::parse(val).map_err(|e| e.to_string())?;
                        }
                        "--max-faults" => {
                            o.max_faults =
                                val.parse().map_err(|_| "bad fault budget".to_string())?;
                        }
                        "--out" => o.out = Some(PathBuf::from(val)),
                        "--replay-out" => o.replay_out = Some(PathBuf::from(val)),
                        "--chrome-out" => o.chrome_out = Some(PathBuf::from(val)),
                        f => return Err(format!("unknown flag {f}")),
                    }
                }
            }
        }
        if usize::from(o.width) * usize::from(o.height) > 9 {
            return Err(format!(
                "verify explores the joint state space exhaustively; meshes beyond \
                 9 routers are intractable (got {}x{})",
                o.width, o.height
            ));
        }
        Ok(o)
    }
}

fn verify_cmd(args: &[String]) -> ExitCode {
    let opts = match VerifyOpts::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = VerifyConfig::mesh2x2(opts.scheme);
    cfg.width = opts.width;
    cfg.height = opts.height;
    cfg.faulty = opts.faulty;
    cfg.broken = opts.broken;
    cfg.max_faults = opts.max_faults;
    let started = Instant::now();
    let out = match run_verification(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let exp = &out.exploration;
    eprintln!(
        "verify {}: {} states, {} edges, {} terminal(s), depth {} in {:.2?}",
        cfg.label(),
        exp.reachable,
        exp.edges,
        exp.terminals,
        exp.max_depth,
        started.elapsed()
    );
    for p in &exp.properties {
        eprintln!(
            "  {:<16} {}  ({})",
            p.name,
            if p.proved { "proved" } else { "VIOLATED" },
            p.detail
        );
    }
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &out.report) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
        None => print!("{}", out.report),
    }
    if opts.replay_out.is_some() || opts.chrome_out.is_some() {
        match exp.first_counterexample() {
            None => eprintln!("note: nothing to replay — all properties proved"),
            Some(ce) => {
                let rep = match punchsim::verify::replay(&cfg, ce) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("error: counterexample replay failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                eprintln!(
                    "replayed {}-step {} counterexample: {} event(s){}",
                    ce.choices.len(),
                    ce.kind.label(),
                    rep.events.len(),
                    match &rep.error {
                        Some(e) => format!(", ending in: {e}"),
                        None => String::new(),
                    }
                );
                for (path, body) in [
                    (&opts.replay_out, rep.to_jsonl()),
                    (&opts.chrome_out, rep.to_chrome_trace()),
                ] {
                    if let Some(path) = path {
                        if let Err(e) = std::fs::write(path, body) {
                            eprintln!("error: cannot write {}: {e}", path.display());
                            return ExitCode::FAILURE;
                        }
                        eprintln!("wrote {}", path.display());
                    }
                }
            }
        }
    }
    if exp.all_proved() == opts.expect_violation {
        eprintln!(
            "verify FAILED: {}",
            if opts.expect_violation {
                "expected a violation, but every property proved"
            } else {
                "a property was violated"
            }
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).expect("in table")
    }

    fn parse_for(cmd: &str, args: &[&str]) -> Result<Opts, String> {
        Opts::parse_from(Opts::defaults(), command(cmd), &strs(args))
    }

    /// Parses for `trace`, which reads every synthetic flag.
    fn parse(args: &[&str]) -> Result<Opts, String> {
        parse_for("trace", args)
    }

    #[test]
    fn defaults_are_sane() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scheme, SchemeKind::PowerPunchFull);
        assert_eq!(o.mesh, Mesh::new(8, 8));
        assert_eq!(o.benchmark, Benchmark::Dedup);
        assert_eq!(o.fault_drop, 0.0);
        assert!(!o.fault_config(o.fault_drop).is_active());
    }

    #[test]
    fn flags_parse() {
        let o = parse(&[
            "--scheme",
            "convopt",
            "--mesh",
            "4x4",
            "--rate",
            "0.01",
            "--pattern",
            "transpose",
            "--cycles",
            "500",
        ])
        .unwrap();
        assert_eq!(o.scheme, SchemeKind::ConvOptPg);
        assert_eq!(o.mesh, Mesh::new(4, 4));
        assert_eq!(o.rate, 0.01);
        assert_eq!(o.pattern, TrafficPattern::Transpose);
        assert_eq!(o.cycles, 500);
        let o = parse_for("parsec", &["--benchmark", "canneal", "--instr", "1000"]).unwrap();
        assert_eq!(o.benchmark, Benchmark::Canneal);
        assert_eq!(o.instr, 1000);
    }

    #[test]
    fn topology_and_routing_flags_parse() {
        let o = parse(&["--topology", "torus", "--routing", "yx", "--mesh", "6x6"]).unwrap();
        assert_eq!(o.topo, TopoChoice::Torus);
        assert_eq!(o.routing, RoutingKind::Yx);
        let (topo, routing) = o.noc_view().unwrap();
        assert_eq!(topo, Substrate::Torus(Torus::new(6, 6)));
        assert_eq!(routing, RoutingKind::Yx);
        assert_eq!(o.substrate_label(), "torus6x6-yx");

        let o = parse(&["--topology", "cmesh:4", "--mesh", "4x4"]).unwrap();
        assert_eq!(o.topo, TopoChoice::CMesh(4));
        let (topo, _) = o.noc_view().unwrap();
        assert_eq!(topo.concentration(), 4);
        assert_eq!(o.substrate_label(), "c4x4x4");
    }

    #[test]
    fn default_substrate_is_the_plain_xy_mesh() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.topo, TopoChoice::Mesh);
        assert_eq!(o.routing, RoutingKind::Xy);
        let (topo, routing) = o.noc_view().unwrap();
        assert_eq!(topo, Substrate::Mesh(Mesh::new(8, 8)));
        assert_eq!(routing, RoutingKind::Xy);
        assert_eq!(o.substrate_label(), "8x8");
    }

    #[test]
    fn turn_model_routing_on_torus_is_a_typed_error() {
        let o = parse(&["--topology", "torus", "--routing", "wf"]).unwrap();
        let err = o.noc_view().unwrap_err();
        assert!(
            matches!(err, SimError::Config(ConfigError::CyclicRouting { .. })),
            "expected CyclicRouting, got {err:?}"
        );
        // XY and YX stay legal on the torus (dateline-free minimal DOR is
        // the model here; the codebook only needs the turn relation).
        for r in ["xy", "yx"] {
            let o = parse(&["--topology", "torus", "--routing", r]).unwrap();
            assert!(o.noc_view().is_ok(), "{r} must be legal on the torus");
        }
    }

    #[test]
    fn bad_topology_flags_are_rejected() {
        assert!(parse(&["--topology", "hypercube"]).is_err());
        assert!(parse(&["--topology", "cmesh:0"]).is_ok()); // parses...
        let o = parse(&["--topology", "cmesh:0"]).unwrap();
        assert!(o.noc_view().is_err()); // ...but fails typed validation
        assert!(parse(&["--routing", "adaptive"]).is_err());
        assert!(parse(&["--mesh", "0x8"]).is_err(), "zero dims via try_new");
    }

    #[test]
    fn fault_flags_parse_into_config() {
        let o = parse(&["--faults", "0.5", "--corrupt", "0.25", "--fault-seed", "42"]).unwrap();
        assert_eq!(o.fault_drop, 0.5);
        assert_eq!(o.fault_corrupt, 0.25);
        assert_eq!(o.fault_seed, 42);
        let f = o.fault_config(o.fault_drop);
        assert!(f.is_active());
        assert_eq!(f.drop_punch_ppm, 500_000);
        assert_eq!(f.corrupt_punch_ppm, 250_000);
        assert_eq!(f.seed, 42);
    }

    #[test]
    fn trace_flags_parse() {
        let o = parse(&[
            "--trace-out",
            "t.jsonl",
            "--trace-cap",
            "128",
            "--format",
            "jsonl",
        ])
        .unwrap();
        assert_eq!(o.trace_out, Some(PathBuf::from("t.jsonl")));
        assert_eq!(o.trace_cap, 128);
        assert_eq!(o.format, TraceFormat::Jsonl);
        // Defaults: Chrome trace, unbounded capture, conventional name.
        let d = parse(&[]).unwrap();
        assert_eq!(d.trace_out, None);
        assert_eq!(d.trace_cap, 0);
        assert_eq!(d.format, TraceFormat::Chrome);
        assert_eq!(d.format.default_path(), "punchsim-trace.json");
    }

    #[test]
    fn metrics_flags_and_defaults_parse() {
        // No registry collection unless asked for.
        assert_eq!(parse(&[]).unwrap().metrics_out, None);
        let o = parse(&["--metrics-out", "m.prom"]).unwrap();
        assert_eq!(o.metrics_out, Some(PathBuf::from("m.prom")));
        // The metrics subcommand defaults to the busy regime, still
        // overridable by the usual flags.
        let metrics = |args| Opts::parse_from(Opts::metrics_defaults(), command("metrics"), args);
        let m = metrics(&[]).unwrap();
        assert_eq!(m.mesh, Mesh::new(16, 16));
        assert_eq!(m.rate, 0.0005);
        assert_eq!(m.cycles, 12_000);
        assert_eq!(m.scheme, SchemeKind::PowerPunchFull);
        let m = metrics(&strs(&["--mesh", "4x4"])).unwrap();
        assert_eq!(m.mesh, Mesh::new(4, 4));
        assert_eq!(m.cycles, 12_000);
    }

    #[test]
    fn faults_dump_paths_encode_drop_rate() {
        let p = faults_dump_path(std::path::Path::new("out/dump.jsonl"), 0.25);
        assert_eq!(p, PathBuf::from("out/dump-d0.25.jsonl"));
        let p = faults_dump_path(std::path::Path::new("dump"), 1.0);
        assert_eq!(p, PathBuf::from("dump-d1.00.jsonl"));
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(parse(&["--scheme", "warp9"]).is_err());
        assert!(parse(&["--mesh", "8by8"]).is_err());
        assert!(parse(&["--mesh"]).is_err());
        assert!(parse(&["--rate", "fast"]).is_err());
        for rate in ["nan", "-1", "inf", "-inf"] {
            let err = parse(&["--rate", rate]).err().expect("rejected");
            assert!(err.contains("finite number >= 0"), "{rate}: {err}");
        }
        for mesh in ["256x256", "300x300"] {
            let err = parse(&["--mesh", mesh]).err().expect("rejected");
            assert!(
                err.contains("routers, more than the 65535"),
                "{mesh}: {err}"
            );
        }
        assert!(parse(&["--wormhole", "1"]).is_err());
        assert!(parse_for("parsec", &["--benchmark", "doom"]).is_err());
        assert!(parse_for("parsec", &["--instr", "many"]).is_err());
        assert!(parse(&["--faults", "1.5"]).is_err());
        assert!(parse(&["--corrupt", "-0.1"]).is_err());
        assert!(parse(&["--fault-seed", "xyz"]).is_err());
        assert!(parse(&["--format", "xml"]).is_err());
        assert!(parse(&["--trace-cap", "lots"]).is_err());
    }

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn campaign_defaults_and_flags_parse() {
        let o = CampaignOpts::parse(&[]).unwrap();
        assert_eq!(o.suite.0, "ci");
        assert_eq!(o.threads, 0);
        assert_eq!(o.out, PathBuf::from("bench-out"));
        assert_eq!(o.seed, campaign::DEFAULT_SEED);
        assert!(!o.no_cache);
        assert_eq!(o.shards, 1);
        assert!(!o.specs().is_empty());

        let o = CampaignOpts::parse(&strs(&[
            "--suite",
            "synth",
            "--threads",
            "3",
            "--shards",
            "4",
            "--out",
            "tmp",
            "--name",
            "pr",
            "--seed",
            "7",
            "--no-cache",
        ]))
        .unwrap();
        assert_eq!(o.suite.0, "synth");
        assert_eq!(o.threads, 3);
        assert_eq!(o.shards, 4);
        assert_eq!(o.out, PathBuf::from("tmp"));
        assert_eq!(o.name.as_deref(), Some("pr"));
        assert_eq!(o.seed, 7);
        assert!(o.no_cache);
        assert_eq!(o.specs().len(), campaign::synthetic_suite(7).len());

        let o = CampaignOpts::parse(&strs(&["--suite", "busy"])).unwrap();
        assert_eq!(o.specs().len(), campaign::busy_suite(o.seed).len());
    }

    #[test]
    fn campaign_shard_counts_are_validated_up_front() {
        // `--shards 0` is a typed ConfigError, not a panic or a per-run
        // failure.
        let o = CampaignOpts::parse(&strs(&["--shards", "0"])).unwrap();
        let specs = o.specs();
        assert!(matches!(
            o.validate_shards(&specs),
            Err(ConfigError::ZeroShards)
        ));
        // The ci suite's 8x8 meshes cap the shard count at 8 rows.
        let o = CampaignOpts::parse(&strs(&["--shards", "9"])).unwrap();
        let specs = o.specs();
        assert!(matches!(
            o.validate_shards(&specs),
            Err(ConfigError::ShardsExceedRows { shards: 9, rows: 8 })
        ));
        // The busy suite's smallest mesh is 16x16, so 9 shards fit there.
        let o = CampaignOpts::parse(&strs(&["--suite", "busy", "--shards", "9"])).unwrap();
        let specs = o.specs();
        assert!(o.validate_shards(&specs).is_ok());
        let o = CampaignOpts::parse(&strs(&["--suite", "busy", "--shards", "17"])).unwrap();
        let specs = o.specs();
        assert!(matches!(
            o.validate_shards(&specs),
            Err(ConfigError::ShardsExceedRows {
                shards: 17,
                rows: 16
            })
        ));
    }

    #[test]
    fn campaign_observation_flags_parse() {
        let o = CampaignOpts::parse(&[]).unwrap();
        assert_eq!(o.sample, 0);
        assert_eq!(o.effective_trace_cap(), 0);

        let o = CampaignOpts::parse(&strs(&["--sample", "500", "--trace-out", "dumps"])).unwrap();
        assert_eq!(o.sample, 500);
        assert_eq!(o.trace_out, Some(PathBuf::from("dumps")));
        // --trace-out alone gets the default capacity...
        assert_eq!(o.effective_trace_cap(), DEFAULT_DUMP_CAP);
        // ...and --trace-cap overrides it.
        let o = CampaignOpts::parse(&strs(&["--trace-out", "dumps", "--trace-cap", "64"])).unwrap();
        assert_eq!(o.effective_trace_cap(), 64);
        // --trace-cap without --trace-out keeps tracing off.
        let o = CampaignOpts::parse(&strs(&["--trace-cap", "64"])).unwrap();
        assert_eq!(o.effective_trace_cap(), 0);
        assert!(CampaignOpts::parse(&strs(&["--sample", "often"])).is_err());
        // --metrics-out drives registry collection.
        let o = CampaignOpts::parse(&[]).unwrap();
        assert_eq!(o.metrics_out, None);
        let o = CampaignOpts::parse(&strs(&["--metrics-out", "m.json"])).unwrap();
        assert_eq!(o.metrics_out, Some(PathBuf::from("m.json")));
    }

    /// Every row of the one suite table parses, builds a non-empty spec
    /// list, and is named in the usage text and the `unknown suite` error.
    #[test]
    fn every_suite_row_parses_and_yields_specs() {
        let usage = usage();
        let err = CampaignOpts::parse(&strs(&["--suite", "quantum"]))
            .err()
            .expect("unknown suite is rejected");
        assert!(!usage.contains("{SUITE"), "unexpanded placeholder");
        for &(name, _, help) in SUITES {
            let o = CampaignOpts::parse(&strs(&["--suite", name])).unwrap();
            assert_eq!(o.suite.0, name);
            assert!(!o.specs().is_empty(), "suite {name} is empty");
            assert!(usage.contains(help), "usage misses suite {name}");
            assert!(err.contains(name), "error misses suite {name}: {err}");
        }
    }

    #[test]
    fn campaign_bad_inputs_are_rejected() {
        assert!(CampaignOpts::parse(&strs(&["--suite", "quantum"])).is_err());
        assert!(CampaignOpts::parse(&strs(&["--threads", "many"])).is_err());
        assert!(CampaignOpts::parse(&strs(&["--shards", "lots"])).is_err());
        assert!(CampaignOpts::parse(&strs(&["--shards"])).is_err());
        assert!(CampaignOpts::parse(&strs(&["--name"])).is_err());
        assert!(CampaignOpts::parse(&strs(&["--cache", "1"])).is_err());
    }

    /// A flag the command never reads is an error naming both, not a
    /// silently ignored argument; the same flag still parses where it is
    /// read.
    #[test]
    fn flags_a_command_does_not_read_are_rejected() {
        for (cmd, flag, val, reader) in [
            ("table1", "--mesh", "4x4", "sweep"),
            ("table1", "--format", "csv", "trace"),
            ("schemes", "--scheme", "nopg", "sweep"),
            ("parsec", "--rate", "0.1", "sweep"),
            ("sweep", "--format", "csv", "trace"),
            ("sweep", "--benchmark", "canneal", "parsec"),
            ("faults", "--faults", "0.5", "trace"),
            ("metrics", "--trace-out", "t.json", "trace"),
        ] {
            let err = parse_for(cmd, &[flag, val]).err().expect("rejected");
            assert_eq!(err, format!("unknown flag {flag} for {cmd}"));
            assert!(parse_for(reader, &[flag, val]).is_ok(), "{reader} {flag}");
        }
        // Rejected before its value is looked at (or missed).
        assert_eq!(
            parse_for("table1", &["--mesh"]).err().unwrap(),
            "unknown flag --mesh for table1"
        );
    }

    /// Every flag a command lists has a parser arm (the listing and the
    /// `match` cannot drift apart), and shows up in that command's usage.
    #[test]
    fn every_listed_flag_parses_and_is_in_the_usage() {
        let usage = usage();
        assert!(!usage.contains("{COMMAND"), "unexpanded placeholder");
        for cmd in COMMANDS {
            assert!(usage.contains(&format!("  punchsim-cli {}", cmd.name)));
            for listed in cmd.flags() {
                let (flag, _) = listed.split_once(' ').expect("--flag VALUE");
                let val = match flag {
                    "--pattern" => "transpose",
                    "--scheme" => "ppf",
                    "--mesh" => "4x4",
                    "--topology" => "torus",
                    "--routing" => "yx",
                    "--benchmark" => "canneal",
                    "--format" => "csv",
                    "--rate" | "--faults" | "--corrupt" => "0.5",
                    "--trace-out" | "--metrics-out" => "out",
                    _ => "3",
                };
                let parsed = Opts::parse_from(Opts::defaults(), cmd, &strs(&[flag, val]));
                assert!(parsed.is_ok(), "{} {flag} {val}", cmd.name);
                assert!(cmd.reads(flag));
                assert!(cmd.usage_lines().contains(&format!("[{listed}]")));
            }
            assert!(cmd.usage_lines().lines().all(|l| l.len() <= 78));
            assert!(usage.contains(&cmd.usage_lines()));
        }
    }

    #[test]
    fn compare_opts_parse() {
        let o = CompareOpts::parse(&strs(&["a.json", "b.json"])).unwrap();
        assert_eq!(o.baseline, PathBuf::from("a.json"));
        assert_eq!(o.current, PathBuf::from("b.json"));
        assert_eq!(o.tol, Tolerances::default());

        let o = CompareOpts::parse(&strs(&[
            "--tol-latency",
            "0.1",
            "a.json",
            "--tol-escalations",
            "5",
            "b.json",
        ]))
        .unwrap();
        assert_eq!(o.tol.latency_rel, 0.1);
        assert_eq!(o.tol.escalations_abs, 5.0);
        assert_eq!(o.tol.delivered_rel, Tolerances::default().delivered_rel);

        assert!(CompareOpts::parse(&strs(&["only-one.json"])).is_err());
        assert!(CompareOpts::parse(&strs(&["a", "b", "c"])).is_err());
        assert!(CompareOpts::parse(&strs(&["a", "b", "--tol-latency", "x"])).is_err());
        assert!(CompareOpts::parse(&strs(&["a", "b", "--tol-jitter", "1"])).is_err());
    }
}
