//! The one parser: [`Opts`], the options of every subcommand, the one
//! argument loop that fills them ([`Opts::parse`]) and the value readers.

use std::path::PathBuf;

use punchsim::campaign::{self, Size, Suite, Tolerances, SUITES};
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

fn rate(val: &str) -> Result<f64, String> {
    let r = val.parse().map_err(|_| "bad rate".to_string())?;
    let checked = InjectionConfig::at_rate(r).validate();
    checked.map(|()| r).map_err(|e| e.to_string())
}

fn tolerance(flag: &str, val: &str) -> Result<f64, String> {
    val.parse().map_err(|_| format!("bad value for {flag}"))
}

/// Flight-recorder capacity when `--trace-cap` is not given.
pub const DEFAULT_DUMP_CAP: usize = 4_096;

/// The drop probabilities of `--faults sweep`.
pub const DROP_SWEEP: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The one value a `run` varies: the flag given a list (`--rate a,b,..`),
/// `--scheme all` or `--faults sweep`. A run has at most one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Rate,
    Scheme,
    Faults,
}

/// One simulation of a `run`: the scheme, rate and drop probability it
/// takes from its axis and the fixed flags.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub scheme: SchemeKind,
    pub rate: f64,
    pub drop: f64,
}

/// Every option of every subcommand; a command reads the ones its row of
/// the command table lists and ignores the rest (which keep their defaults,
/// since the parser rejects any argument the row does not list).
pub struct Opts {
    pub pattern: TrafficPattern,
    /// `--scheme`: one scheme, or every one for `--scheme all`.
    pub schemes: Vec<SchemeKind>,
    pub mesh: Mesh,
    /// `--topology torus`; `--mesh` gives the dimensions either way.
    pub torus: bool,
    pub routing: RoutingKind,
    /// `--rate`: one load, or each of `--rate a,b,..`.
    pub rates: Vec<f64>,
    pub cycles: u64,
    pub benchmark: Benchmark,
    pub instr: u64,
    /// `--faults`: one drop probability, or [`DROP_SWEEP`].
    pub drops: Vec<f64>,
    pub fault_corrupt: f64,
    pub fault_seed: u64,
    pub trace_out: Option<PathBuf>,
    /// Recorder capacity in events; `usize::MAX` for `--trace-cap 0`.
    pub trace_cap: usize,
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

impl Opts {
    /// `cmd`'s defaults; `verify` explores a 2x2, the rest an 8x8.
    fn defaults(cmd: &Command) -> Opts {
        let side = if cmd.name == "verify" { 2 } else { 8 };
        Opts {
            pattern: TrafficPattern::UniformRandom,
            schemes: vec![SchemeKind::PowerPunchFull],
            mesh: Mesh::new(side, side),
            torus: false,
            routing: RoutingKind::Xy,
            rates: vec![0.005],
            cycles: 20_000,
            benchmark: Benchmark::Dedup,
            instr: 80_000,
            drops: vec![0.0],
            fault_corrupt: 0.0,
            fault_seed: 0xFA17,
            trace_out: None,
            trace_cap: DEFAULT_DUMP_CAP,
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
    /// list, a flag missing its value, an unfilled positional and a second
    /// sweep axis are errors here, before [`Opts::set`] sees anything of
    /// them.
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
                Kind::Positional => o.set(listed, arg)?,
                Kind::Bool => o.set(listed, "")?,
                Kind::Value => {
                    let val = it
                        .next()
                        .ok_or_else(|| format!("missing value for {arg}"))?;
                    o.set(listed, val)?;
                }
            }
        }
        if let Some(unfilled) = slots.next() {
            return Err(format!("{} needs {unfilled}", cmd.name));
        }
        match o.swept()[..] {
            [(_, a), (_, b), ..] => Err(format!(
                "{a} and {b} both sweep; a run varies at most one of them"
            )),
            _ => Ok(o),
        }
    }

    /// Stores one argument under its listing in the command's row:
    /// `("--mesh WxH", "4x4")`, `("--no-cache", "")`, `("BASELINE.json",
    /// path)`. `--scheme all` and `--faults sweep` are read only where the
    /// listing offers them (`--scheme S|all`).
    fn set(&mut self, listed: &str, val: &str) -> Result<(), String> {
        let flag = listed.split(' ').next().unwrap_or_default();
        let offers = |word: &str| listed.ends_with(&format!("|{word}")) && val == word;
        match flag {
            "--pattern" => {
                self.pattern = TrafficPattern::from_tag(val)
                    .ok_or_else(|| format!("unknown pattern {val}"))?;
            }
            "--scheme" if offers("all") => self.schemes = SchemeKind::ALL.to_vec(),
            "--scheme" => self.schemes = vec![SchemeKind::parse(val).map_err(|e| e.to_string())?],
            "--mesh" => {
                let (w, h) = val
                    .split_once('x')
                    .ok_or_else(|| format!("mesh must look like 8x8, got {val}"))?;
                self.mesh = Mesh::try_new(int(w, "mesh width")?, int(h, "mesh height")?)
                    .map_err(|e| e.to_string())?;
            }
            "--topology" => {
                self.torus = match val {
                    "mesh" | "torus" => val == "torus",
                    _ => return Err(format!("unknown topology {val} (mesh, torus)")),
                }
            }
            "--routing" => {
                self.routing = RoutingKind::from_tag(val).ok_or_else(|| {
                    let valid = RoutingKind::ALL.map(|r| r.tag()).join(", ");
                    format!("unknown routing {val} ({valid})")
                })?;
            }
            "--rate" => self.rates = val.split(',').map(rate).collect::<Result<_, _>>()?,
            "--cycles" => self.cycles = int(val, "cycle count")?,
            "--instr" => self.instr = int(val, "instruction count")?,
            "--benchmark" => {
                self.benchmark = Benchmark::ALL
                    .into_iter()
                    .find(|b| b.name() == val)
                    .ok_or_else(|| format!("unknown benchmark {val}"))?;
            }
            "--faults" if offers("sweep") => self.drops = DROP_SWEEP.to_vec(),
            "--faults" => self.drops = vec![prob(val)?],
            "--corrupt" => self.fault_corrupt = prob(val)?,
            "--fault-seed" => self.fault_seed = int(val, "fault seed")?,
            "--trace-out" => self.trace_out = Some(PathBuf::from(val)),
            "--trace-cap" => {
                self.trace_cap = match int(val, "trace capacity")? {
                    0 => usize::MAX, // the whole run
                    cap => cap,
                }
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
            _ => unreachable!("{listed} is listed, but no arm parses it"),
        }
        Ok(())
    }

    /// Flight-recorder capacity: none without `--trace-out`, else
    /// `--trace-cap`'s.
    pub fn recorder_cap(&self) -> usize {
        self.trace_out.as_ref().map_or(0, |_| self.trace_cap)
    }

    /// The scheme of a command that runs one (`parsec`, `verify`).
    pub fn scheme(&self) -> SchemeKind {
        self.schemes[0]
    }

    /// The axes given more than one point, with their flags;
    /// [`Opts::parse`] lets at most one through.
    fn swept(&self) -> Vec<(Axis, &'static str)> {
        let lens = [
            (Axis::Rate, "--rate", self.rates.len()),
            (Axis::Scheme, "--scheme", self.schemes.len()),
            (Axis::Faults, "--faults", self.drops.len()),
        ];
        lens.into_iter()
            .filter(|l| l.2 > 1)
            .map(|l| (l.0, l.1))
            .collect()
    }

    /// The axis this run sweeps; `None` for a single point.
    pub fn axis(&self) -> Option<Axis> {
        self.swept().first().map(|s| s.0)
    }

    /// Every point of the run, in axis order.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        self.schemes.iter().flat_map(move |&scheme| {
            self.rates.iter().flat_map(move |&rate| {
                self.drops
                    .iter()
                    .map(move |&drop| Point { scheme, rate, drop })
            })
        })
    }

    /// Resolves `--topology`/`--mesh`/`--routing` into a validated
    /// substrate + routing pair. Degenerate dimensions surface as typed
    /// [`SimError::Config`] errors; every routing is legal on every
    /// substrate.
    pub fn noc_view(&self) -> Result<(Substrate, RoutingKind), SimError> {
        let (w, h) = (self.mesh.width(), self.mesh.height());
        let topo = match self.torus {
            false => Substrate::Mesh(self.mesh),
            true => Substrate::Torus(Torus::try_new(w, h)?),
        };
        Ok((topo, self.routing))
    }

    /// Substrate label for table headers: `8x8`, `torus8x8-yx`, ...
    pub fn substrate_label(&self) -> String {
        let topo = self.noc_view().map_or(Substrate::Mesh(self.mesh), |v| v.0);
        match self.routing {
            RoutingKind::Xy => topo.tag(),
            r => format!("{}-{}", topo.tag(), r.tag()),
        }
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
