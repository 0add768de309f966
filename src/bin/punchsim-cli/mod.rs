//! The one command table, the usage text generated from it, and dispatch.
//!
//! Every subcommand is a row of [`COMMANDS`]: its name, the arguments it
//! reads — each spelled as the usage prints it, which also fixes its
//! [`Kind`] — and its entry point. [`Opts::parse`], the only argument loop,
//! checks a command line against that row, so neither the parser nor the
//! usage can claim an argument the command ignores. One module per command
//! family holds the family's entry points.

use std::path::Path;
use std::process::ExitCode;

use punchsim::prelude::{Benchmark, Registry, SchemeKind, TrafficPattern};

use parse::Opts;

pub mod campaign;
pub mod figure;
pub mod parse;
pub mod synth;
pub mod system;
pub mod table;
pub mod verify;

/// A subcommand's entry point: runs over its parsed options and says how
/// the process should exit. `Err` is printed as `error: ...`.
type Run = fn(&Opts) -> Result<ExitCode, String>;

/// One subcommand. Any argument its row does not list is an error for it.
pub struct Command {
    pub name: &'static str,
    /// The arguments it reads, in groups, as the usage spells them.
    pub args: &'static [&'static [&'static str]],
    pub run: Run,
}

/// What an argument is, read off its spelling.
#[derive(PartialEq, Eq)]
pub enum Kind {
    /// `--flag VALUE`: takes the next argument as its value.
    Value,
    /// `--flag`: present or not.
    Bool,
    /// `NAME`: filled by the bare arguments, in listed order; required.
    Positional,
}

impl Kind {
    pub fn of(listed: &str) -> Kind {
        match (listed.starts_with("--"), listed.contains(' ')) {
            (true, true) => Kind::Value,
            (true, false) => Kind::Bool,
            (false, _) => Kind::Positional,
        }
    }
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

pub const COMMANDS: &[Command] = &[
    Command {
        name: "sweep",
        args: &[&["--scheme S", "--faults P"], SYNTH],
        run: synth::sweep,
    },
    Command {
        name: "parsec",
        args: &[&["--benchmark B", "--scheme S", "--instr N", "--shards N"]],
        run: system::parsec,
    },
    Command {
        name: "schemes",
        args: &[&["--faults P"], SYNTH],
        run: synth::schemes,
    },
    // `faults` sweeps the drop probability itself, so it takes no `--faults`.
    Command {
        name: "faults",
        args: &[&["--scheme S"], DUMPS, SYNTH],
        run: synth::faults,
    },
    Command {
        name: "trace",
        args: &[
            &["--scheme S", "--faults P", "--format chrome|jsonl|csv"],
            DUMPS,
            SYNTH,
        ],
        run: synth::trace,
    },
    Command {
        name: "metrics",
        args: &[&["--scheme S", "--faults P", "--metrics-out PATH"], SYNTH],
        run: synth::metrics,
    },
    Command {
        name: "list-schemes",
        args: &[],
        run: system::list_schemes,
    },
    Command {
        name: "campaign",
        args: &[&[
            "--suite S",
            "--threads N",
            "--shards N",
            "--out DIR",
            "--name NAME",
            "--seed N",
            "--no-cache",
            "--smoke",
            "--sample N",
            "--trace-out DIR",
            "--trace-cap N",
            "--metrics-out PATH",
        ]],
        run: campaign::campaign,
    },
    Command {
        name: "compare",
        args: &[&[
            "BASELINE.json",
            "CURRENT.json",
            "--tol-latency R",
            "--tol-delivered R",
            "--tol-escalations N",
        ]],
        run: campaign::compare,
    },
    // `--threads` and `--no-cache` steer the PARSEC rows' campaign pass.
    Command {
        name: "figure",
        args: &[&["NAME", "--threads N", "--no-cache", "--smoke"]],
        run: figure::figure,
    },
    Command {
        name: "verify",
        args: &[&[
            "--mesh WxH",
            "--scheme S",
            "--faulty",
            "--broken",
            "--max-faults N",
            "--out PATH",
            "--replay-out PATH",
            "--chrome-out PATH",
            "--expect-violation",
        ]],
        run: verify::verify,
    },
];

impl Command {
    /// The arguments this command reads, as listed (`--mesh WxH`).
    pub fn args(&self) -> impl Iterator<Item = &'static str> {
        self.args.iter().flat_map(|group| group.iter().copied())
    }

    /// The listing of `flag` (`--mesh` finds `--mesh WxH`), if it is read.
    pub fn listed(&self, flag: &str) -> Option<&'static str> {
        self.args().find(|a| a.split(' ').next() == Some(flag))
    }

    /// `  punchsim-cli sweep    [--scheme S] ...`, wrapped under the first
    /// argument; positionals print bare, everything optional in brackets.
    pub fn usage_lines(&self) -> String {
        let mut out = format!("  punchsim-cli {:<8}", self.name);
        let mut col = out.len();
        for arg in self.args() {
            let shown = match Kind::of(arg) {
                Kind::Positional => format!(" {arg}"),
                _ => format!(" [{arg}]"),
            };
            if col + shown.len() > 78 {
                out.push_str(&format!("\n{:23}", ""));
                col = 23;
            }
            col += shown.len();
            out.push_str(&shown);
        }
        out.trim_end().to_string() + "\n"
    }
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("unknown command {name:?}\n\n{}", usage());
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(command, &args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    (command.run)(&opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// Writes a registry to `path`: Prometheus text exposition when the
/// extension is `.prom` or `.txt`, the JSON snapshot otherwise.
fn write_metrics(path: &Path, reg: &Registry) -> Result<(), String> {
    let text = match path.extension().and_then(|e| e.to_str()) {
        Some("prom") | Some("txt") => reg.to_prometheus(),
        _ => reg.to_json().render(),
    };
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The full usage text, the only copy: the static template plus the lines
/// derived from [`COMMANDS`], `punchsim::campaign::SUITES`, [`figure::FIGURES`],
/// `SchemeKind::ALL`, `TrafficPattern::SYNTHETIC` and `Benchmark::ALL`, so
/// a new command, flag, suite, figure, scheme, pattern or benchmark shows
/// up here without a hand edit.
pub fn usage() -> String {
    let command_help: String = COMMANDS.iter().map(Command::usage_lines).collect();
    let suite_help: String = punchsim::campaign::SUITES
        .iter()
        .map(|s| format!("                     {:<10} {}\n", s.name, s.help))
        .collect();
    let figure_help: String = figure::FIGURES
        .iter()
        .map(|f| format!("  {:<22} {}\n", f.name, f.artifact))
        .collect();
    USAGE_TEMPLATE
        .replace("{COMMAND_HELP}", &command_help)
        .replace("{SUITE_HELP}", &suite_help)
        .replace("{FIGURE_HELP}", &figure_help)
        .replace("{SCHEMES}", &SchemeKind::ALL.map(SchemeKind::tag).join(" "))
        .replace(
            "{PATTERNS}",
            &TrafficPattern::SYNTHETIC.map(TrafficPattern::tag).join(" "),
        )
        .replace(
            "{BENCHMARKS}",
            &Benchmark::ALL.map(Benchmark::name).join(" "),
        )
}

const USAGE_TEMPLATE: &str = "usage:
{COMMAND_HELP}
every N takes decimal or 0x-prefixed hex (--seed 0xC0FFEE)

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
  --smoke          the shortened run lengths of CI and the bench/ baselines
                   (e.g. 6000 measured cycles instead of 20000)
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

figure NAME: `all`, or one row of the paper's evaluation (exit 1 if the
reproduction loses a shape it must have; --threads / --no-cache as for
campaign, used by the PARSEC rows; --smoke for the shortened size):
{FIGURE_HELP}
metrics flags:
  --metrics-out P  write the registry snapshot to P in addition to the
                   stdout exposition (metrics/faults/trace commands)

substrate flags (any synthetic command):
  --topology T     mesh (default) or torus; dimensions come from --mesh
  --routing R      xy (default), yx or wf (west-first); west-first is
                   rejected on the torus (wrap links would close its turn
                   cycles)

schemes: {SCHEMES} (details: punchsim-cli list-schemes)
patterns: {PATTERNS}
benchmarks: {BENCHMARKS}";
