//! The benchmark's entry point.
//!
//! `perf_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints the result object as its last line;
//! without `--workload` it runs every workload (each in a child process),
//! prints every metric and writes `out/results.json`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use punchsim_perf::run::{self, Args, DEFAULT_SEED};
use punchsim_perf::suite::{self, SuiteArgs};
use punchsim_perf::workloads::{self, Workload};

const USAGE: &str = "usage: perf_e2e [--workload <name> --trace <0|1>] [--seed <n>] \
[--seconds <s>] [--out <dir>] [--selfcheck] [--update-golden]";

struct Cli {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    selfcheck: bool,
    update_golden: bool,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        selfcheck: false,
        update_golden: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload = Some(workloads::by_name(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value()?;
                cli.seed = parse_seed(&v).ok_or(format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v.parse().map_err(|_| format!("bad seconds {v}"))?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace {v}")),
                };
            }
            "--out" => cli.out = PathBuf::from(value()?),
            "--selfcheck" => cli.selfcheck = true,
            "--update-golden" => cli.update_golden = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = cli.workload else {
        let suite = SuiteArgs {
            seed: cli.seed,
            seconds: cli.seconds,
            out: cli.out,
            selfcheck: cli.selfcheck,
            update_golden: cli.update_golden,
        };
        return match suite::run(&suite) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let args = Args {
        workload,
        seed: cli.seed,
        seconds: cli.seconds as f64,
        trace: cli.trace,
        out: cli.out,
    };
    let outcome = run::run(&args);
    for (def, stat) in &outcome.metrics {
        println!("{} {} {}", def.name, stat.value, def.unit);
    }
    for name in &outcome.absent {
        println!("{name} absent: probe did not build");
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
