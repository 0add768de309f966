//! The one parser: [`Opts`], the options of every subcommand, the one
//! argument loop that fills them ([`Opts::parse`]) and the value readers.

use std::path::PathBuf;

use punchsim::campaign::{self, Size, Suite, Tolerances, SUITES};
use punchsim::obs::{self, Stamped};
use punchsim::prelude::*;
use punchsim::traffic::InjectionConfig;

use super::figure::{Figure, FIGURES};
use super::{Command, Kind};

/// Reads the value of an `N` flag — decimal, or hex behind `0x` — into
/// whatever unsigned width the option has; `what` names it in the error.
pub fn int<T: TryFrom<u64>>(val: &str, what: &str) -> Result<T, String> {
    let n = match val.strip_prefix("0x").or_else(|| val.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => val.parse(),
    };
    n.ok()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("bad {what}"))
}

fn prob(val: &str) -> Result<f64, String> {
    let p: f64 = val.parse().map_err(|_| "bad probability".to_string())?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("probability {p} outside 0..=1"))
    }
}

fn tolerance(flag: &str, val: &str) -> Result<f64, String> {
    val.parse().map_err(|_| format!("bad value for {flag}"))
}

/// Default flight-recorder capacity for `faults`/`campaign` dumps when
/// `--trace-cap` is not given.
pub const DEFAULT_DUMP_CAP: usize = 4_096;

/// Every option of every subcommand; a command reads the ones its row of
/// the command table lists and ignores the rest (which keep their defaults,
/// since the parser rejects any argument the row does not list).
pub struct Opts {
    pub pattern: TrafficPattern,
    pub scheme: SchemeKind,
    pub mesh: Mesh,
    pub topo: TopoChoice,
    pub routing: RoutingKind,
    pub rate: f64,
    pub cycles: u64,
    pub benchmark: Benchmark,
    pub instr: u64,
    pub fault_drop: f64,
    pub fault_corrupt: f64,
    pub fault_seed: u64,
    pub trace_out: Option<PathBuf>,
    pub trace_cap: usize,
    pub format: &'static TraceFormat,
    pub metrics_out: Option<PathBuf>,
    pub shards: usize,
    // campaign
    pub suite: &'static Suite,
    pub size: Size,
    pub threads: usize,
    pub out: Option<PathBuf>,
    pub name: Option<String>,
    pub seed: u64,
    pub no_cache: bool,
    pub sample: u64,
    // figure
    pub figures: &'static [Figure],
    // compare
    pub baseline: PathBuf,
    pub current: PathBuf,
    pub tol: Tolerances,
    // verify
    pub faulty: bool,
    pub broken: bool,
    pub max_faults: u32,
    pub replay_out: Option<PathBuf>,
    pub chrome_out: Option<PathBuf>,
    pub expect_violation: bool,
}

/// A `--format`: its tag, the default artifact name and the exporter.
pub type TraceFormat = (&'static str, &'static str, fn(&[Stamped]) -> String);
pub const FORMATS: [TraceFormat; 3] = [
    ("chrome", "punchsim-trace.json", obs::chrome_trace),
    ("jsonl", "punchsim-trace.jsonl", obs::to_jsonl),
    ("csv", "punchsim-trace.csv", obs::to_csv),
];

/// Which substrate `--topology` selected; dimensions come from `--mesh`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoChoice {
    Mesh,
    Torus,
}

impl TopoChoice {
    fn from_tag(tag: &str) -> Option<TopoChoice> {
        match tag {
            "mesh" => Some(TopoChoice::Mesh),
            "torus" => Some(TopoChoice::Torus),
            _ => None,
        }
    }
}

impl Opts {
    /// `cmd`'s defaults. `metrics` shares the synthetic flags but defaults
    /// to the busy-suite regime (a 16x16 mesh under uniform traffic), so
    /// the tick-phase profile exercises the SoA kernel, the power manager
    /// and the fast-forward path in one run; `verify` explores a 2x2.
    fn defaults(cmd: &Command) -> Opts {
        let (mesh, rate, cycles) = match cmd.name {
            "metrics" => (Mesh::new(16, 16), 0.0005, 12_000),
            "verify" => (Mesh::new(2, 2), 0.005, 20_000),
            _ => (Mesh::new(8, 8), 0.005, 20_000),
        };
        Opts {
            pattern: TrafficPattern::UniformRandom,
            scheme: SchemeKind::PowerPunchFull,
            mesh,
            topo: TopoChoice::Mesh,
            routing: RoutingKind::Xy,
            rate,
            cycles,
            benchmark: Benchmark::Dedup,
            instr: 80_000,
            fault_drop: 0.0,
            fault_corrupt: 0.0,
            fault_seed: 0xFA17,
            trace_out: None,
            trace_cap: 0,
            format: &FORMATS[0],
            metrics_out: None,
            shards: 1,
            suite: campaign::suite("ci").expect("the default suite is in the table"),
            size: Size::Full,
            threads: 0,
            out: None,
            name: None,
            seed: campaign::DEFAULT_SEED,
            no_cache: false,
            sample: 0,
            figures: &[],
            baseline: PathBuf::new(),
            current: PathBuf::new(),
            tol: Tolerances::default(),
            faulty: false,
            broken: false,
            max_faults: 2,
            replay_out: None,
            chrome_out: None,
            expect_violation: false,
        }
    }

    /// The one argument loop: walks `args` against `cmd`'s row of the
    /// command table, over `cmd`'s defaults. An argument the row does not
    /// list, a flag missing its value and an unfilled positional are errors
    /// here, before [`Opts::set`] sees anything of them.
    pub fn parse(cmd: &Command, args: &[String]) -> Result<Opts, String> {
        let mut o = Opts::defaults(cmd);
        let mut slots = cmd.args().filter(|a| Kind::of(a) == Kind::Positional);
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let (what, listed) = if arg.starts_with("--") {
                ("flag", cmd.listed(arg))
            } else {
                ("argument", slots.next())
            };
            let listed = listed.ok_or_else(|| format!("unknown {what} {arg} for {}", cmd.name))?;
            match Kind::of(listed) {
                Kind::Positional => o.set(cmd, listed, arg)?,
                Kind::Bool => o.set(cmd, arg, "")?,
                Kind::Value => {
                    let val = it
                        .next()
                        .ok_or_else(|| format!("missing value for {arg}"))?;
                    o.set(cmd, arg, val)?;
                }
            }
        }
        match slots.next() {
            Some(unfilled) => Err(format!("{} needs {unfilled}", cmd.name)),
            None => Ok(o),
        }
    }

    /// Stores one argument under the name `cmd`'s row lists it by:
    /// `("--mesh", "4x4")`, `("--no-cache", "")`, `("BASELINE.json", path)`.
    fn set(&mut self, cmd: &Command, flag: &str, val: &str) -> Result<(), String> {
        match flag {
            "--pattern" => {
                self.pattern = TrafficPattern::from_tag(val)
                    .ok_or_else(|| format!("unknown pattern {val}"))?;
            }
            "--scheme" => self.scheme = SchemeKind::parse(val).map_err(|e| e.to_string())?,
            "--mesh" => {
                let (w, h) = val
                    .split_once('x')
                    .ok_or_else(|| format!("mesh must look like 8x8, got {val}"))?;
                self.mesh = Mesh::try_new(int(w, "mesh width")?, int(h, "mesh height")?)
                    .map_err(|e| e.to_string())?;
            }
            "--topology" => {
                self.topo = TopoChoice::from_tag(val)
                    .ok_or_else(|| format!("unknown topology {val} (mesh, torus)"))?;
            }
            "--routing" => {
                self.routing = RoutingKind::from_tag(val).ok_or_else(|| {
                    let valid = RoutingKind::ALL.map(|r| r.tag()).join(", ");
                    format!("unknown routing {val} ({valid})")
                })?;
            }
            "--rate" => {
                self.rate = val.parse().map_err(|_| "bad rate".to_string())?;
                InjectionConfig::at_rate(self.rate)
                    .validate()
                    .map_err(|e| e.to_string())?;
            }
            "--cycles" => self.cycles = int(val, "cycle count")?,
            "--instr" => self.instr = int(val, "instruction count")?,
            "--benchmark" => {
                self.benchmark = Benchmark::ALL
                    .into_iter()
                    .find(|b| b.name() == val)
                    .ok_or_else(|| format!("unknown benchmark {val}"))?;
            }
            "--faults" => self.fault_drop = prob(val)?,
            "--corrupt" => self.fault_corrupt = prob(val)?,
            "--fault-seed" => self.fault_seed = int(val, "fault seed")?,
            "--trace-out" => self.trace_out = Some(PathBuf::from(val)),
            "--trace-cap" => self.trace_cap = int(val, "trace capacity")?,
            "--format" => {
                let known = FORMATS.iter().find(|f| f.0 == val);
                self.format = known.ok_or_else(|| format!("unknown trace format {val}"))?;
            }
            "--metrics-out" => self.metrics_out = Some(PathBuf::from(val)),
            "--shards" => self.shards = int(val, "shard count")?,
            "--suite" => {
                self.suite = campaign::suite(val).ok_or_else(|| {
                    let valid: Vec<&str> = SUITES.iter().map(|s| s.name).collect();
                    format!("unknown suite {val} (valid: {})", valid.join("|"))
                })?;
            }
            "--threads" => self.threads = int(val, "thread count")?,
            "--out" => self.out = Some(PathBuf::from(val)),
            "--name" => self.name = Some(val.to_string()),
            "--seed" => self.seed = int(val, "seed")?,
            "--no-cache" => self.no_cache = true,
            "--smoke" => self.size = Size::Smoke,
            "--sample" => self.sample = int(val, "sample period")?,
            "NAME" => {
                let row = FIGURES.iter().find(|f| f.name == val);
                let all = (val == "all").then_some(FIGURES);
                self.figures = row.map(std::slice::from_ref).or(all).ok_or_else(|| {
                    let valid: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
                    format!("unknown figure {val} (valid: all|{})", valid.join("|"))
                })?;
            }
            "BASELINE.json" => self.baseline = PathBuf::from(val),
            "CURRENT.json" => self.current = PathBuf::from(val),
            "--tol-latency" => self.tol.latency_rel = tolerance(flag, val)?,
            "--tol-delivered" => self.tol.delivered_rel = tolerance(flag, val)?,
            "--tol-escalations" => self.tol.escalations_abs = tolerance(flag, val)?,
            "--faulty" => self.faulty = true,
            "--broken" => self.broken = true,
            "--max-faults" => self.max_faults = int(val, "fault budget")?,
            "--replay-out" => self.replay_out = Some(PathBuf::from(val)),
            "--chrome-out" => self.chrome_out = Some(PathBuf::from(val)),
            "--expect-violation" => self.expect_violation = true,
            f => unreachable!("{} lists {f}, which no arm parses", cmd.name),
        }
        Ok(())
    }

    /// Flight-recorder capacity of `faults`/`campaign`, which dump only on
    /// request: 0 unless `--trace-out` is given, then `--trace-cap` or the
    /// default.
    pub fn effective_trace_cap(&self) -> usize {
        match &self.trace_out {
            Some(_) if self.trace_cap > 0 => self.trace_cap,
            Some(_) => DEFAULT_DUMP_CAP,
            None => 0,
        }
    }

    /// Resolves `--topology`/`--mesh`/`--routing` into a validated
    /// substrate + routing pair. Degenerate dimensions and cyclic
    /// combinations (a turn-model router on the torus) surface as typed
    /// [`SimError::Config`] errors.
    pub fn noc_view(&self) -> Result<(Substrate, RoutingKind), SimError> {
        let (w, h) = (self.mesh.width(), self.mesh.height());
        let topo = match self.topo {
            TopoChoice::Mesh => Substrate::Mesh(self.mesh),
            TopoChoice::Torus => Substrate::Torus(Torus::try_new(w, h)?),
        };
        self.routing.validate_on(topo)?;
        Ok((topo, self.routing))
    }

    /// Substrate label for table headers: `8x8`, `torus8x8-yx`, ...
    pub fn substrate_label(&self) -> String {
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

    pub fn fault_config(&self, drop: f64) -> FaultConfig {
        FaultConfig {
            seed: self.fault_seed,
            drop_punch_ppm: FaultConfig::ppm(drop),
            corrupt_punch_ppm: FaultConfig::ppm(self.fault_corrupt),
            ..FaultConfig::default()
        }
    }
}
