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

use punchsim::obs::{self, Stamped};
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
    /// The arguments it reads, as the usage spells them.
    pub args: &'static [&'static str],
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

pub const COMMANDS: &[Command] = &[
    // One synthetic network; `--rate a,b,..`, `--scheme all` or `--faults
    // sweep` makes it a sweep (at most one of them).
    Command {
        name: "run",
        args: &[
            "--scheme S|all",
            "--rate R|a,b,..",
            "--faults P|sweep",
            "--pattern P",
            "--mesh WxH",
            "--topology T",
            "--routing R",
            "--cycles N",
            "--corrupt P",
            "--fault-seed N",
            "--shards N",
            "--trace-out PATH",
            "--trace-cap N",
            "--metrics-out PATH",
        ],
        run: synth::run,
    },
    Command {
        name: "parsec",
        args: &["--benchmark B", "--scheme S", "--instr N"],
        run: system::parsec,
    },
    Command {
        name: "campaign",
        args: &[
            "--suite S",
            "--threads N",
            "--out DIR",
            "--name NAME",
            "--seed N",
            "--no-cache",
            "--smoke",
            "--sample N",
            "--trace-out DIR",
            "--trace-cap N",
            "--metrics-out PATH",
        ],
        run: campaign::campaign,
    },
    Command {
        name: "compare",
        args: &[
            "BASELINE.json",
            "CURRENT.json",
            "--tol-latency R",
            "--tol-delivered R",
            "--tol-escalations N",
        ],
        run: campaign::compare,
    },
    // `--threads` and `--no-cache` steer the PARSEC rows' campaign pass.
    Command {
        name: "figure",
        args: &["NAME", "--threads N", "--no-cache", "--smoke"],
        run: figure::figure,
    },
    Command {
        name: "verify",
        args: &[
            "--mesh WxH",
            "--scheme S",
            "--faulty",
            "--broken",
            "--max-faults N",
            "--out PATH",
            "--replay-out PATH",
            "--chrome-out PATH",
            "--expect-violation",
        ],
        run: verify::verify,
    },
];

impl Command {
    /// The arguments this command reads, as listed (`--mesh WxH`).
    pub fn args(&self) -> impl Iterator<Item = &'static str> {
        self.args.iter().copied()
    }

    /// The listing of `flag` (`--mesh` finds `--mesh WxH`), if it is read.
    pub fn listed(&self, flag: &str) -> Option<&'static str> {
        self.args().find(|a| a.split(' ').next() == Some(flag))
    }

    /// `  punchsim-cli run      [--scheme S|all] ...`, wrapped under the first
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
        let valid: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        eprintln!(
            "unknown command {name:?} ({})\n\n{}",
            valid.join(", "),
            usage()
        );
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

/// Writes `text` to `path`; the error names the path.
fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Writes a registry to `path`: Prometheus text exposition when the
/// extension is `.prom` or `.txt`, the JSON snapshot otherwise.
fn write_metrics(path: &Path, reg: &Registry) -> Result<(), String> {
    let text = match path.extension().and_then(|e| e.to_str()) {
        Some("prom") | Some("txt") => reg.to_prometheus(),
        _ => reg.to_json().render(),
    };
    write_file(path, &text)
}

/// Writes a flight recorder's events to `path`: JSONL when the extension
/// is `.jsonl`, a Chrome trace (open it in Perfetto) otherwise.
fn write_trace(path: &Path, events: &[Stamped]) -> Result<(), String> {
    let text = match path.extension().and_then(|e| e.to_str()) {
        Some("jsonl") => obs::to_jsonl(events),
        _ => obs::chrome_trace(events),
    };
    write_file(path, &text)
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

run: one table row, or one per scheme (--scheme all), per load (--rate a,b,..,
each <= 1) or per drop p 0, .25, .5, .75, 1 (--faults sweep); one axis at most
  --faults P       drop each punch-carrying sideband event with probability P
  --corrupt P      corrupt punch codewords with probability P (wrong targets)
  --fault-seed N   seed of the fault injector's RNG stream (default 0xFA17)
  --topology T     mesh (default) or torus, sized by --mesh; --routing xy|yx
  --shards N       tick in N row shards, bit-exact (default 1; run only)
  --trace-out PATH each point's flight recorder: JSONL if PATH ends in .jsonl,
                   else a Chrome trace; a sweep adds -r0.0050, -ppf or -d0.25
  --trace-cap N    recorder capacity in events (default 4096; 0 = whole run)
  --metrics-out P  the points' merged registry, validated (.prom/.txt:
                   Prometheus text; else JSON), and a coverage line on stdout

verify flags:
  --faulty         branch over per-cycle faults (budget --max-faults N, 2)
  --broken         no WU safety net, no escalation (expect a counterexample)
  --out PATH       write the byte-stable VERIFY artifact (default: stdout)
  --replay-out P   replay the counterexample as JSONL (--chrome-out: Chrome)
  --expect-violation  exit 0 only if a property is violated

campaign flags:
  --suite S        spec list (default ci):
{SUITE_HELP}  --threads N      worker threads; 0 = one per core (default)
  --out DIR        artifact directory (default bench-out)
  --name NAME      artifact name: BENCH_<NAME>.json (default: the suite)
  --seed N         campaign seed (default 0xC0FFEE)
  --no-cache       ignore the result store; simulate every spec
  --smoke          the shortened run lengths of CI and the bench/ baselines
  --sample N       per-interval series every N cycles into the .timing.json
  --trace-out DIR  write per-run flight-recorder dumps (JSONL) into DIR
  --metrics-out P  merged per-run registries into the .timing.json and P

figure NAME: `all` or one row (exit 1 if a shape is lost; --smoke shortens):
{FIGURE_HELP}
schemes: {SCHEMES}
patterns: {PATTERNS}
benchmarks: {BENCHMARKS}";
