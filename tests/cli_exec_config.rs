//! Execution configuration is passed, not ambient.
//!
//! The tick kernel used to be selected by four `PP_*` environment
//! variables read inside `Network::new`, and by CLI flags that worked by
//! setting them. With ambient `PP_SHARDS=4`, every network with fewer than
//! four router rows — `punchsim-cli verify`'s 2x2 mesh, say — failed to
//! construct with `ShardsExceedRows`, while `PP_SHARDS=four` was silently
//! ignored. This file drives the real binary (children get the variables
//! through `Command::env`, this process's environment is never touched) to
//! pin what replaced all that: construction ignores the environment, the
//! retired flags are usage errors, `--shards` is validated as a typed
//! error on every subcommand that takes it, a flag a subcommand does not
//! read is an error rather than a silently ignored argument, and every `N`
//! flag reads the `0x` spelling the usage text and the banners print.

use std::process::{Command, Output};

fn cli(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_punchsim-cli"));
    cmd.args(args);
    for name in [
        "PP_SHARDS",
        "PP_NAIVE_TICK",
        "PP_STRUCT_TICK",
        "PP_SPAWN_TICK",
    ] {
        cmd.env_remove(name);
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("punchsim-cli must launch")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn network_construction_ignores_the_process_environment() {
    let verify = ["verify", "--mesh", "2x2", "--scheme", "ppf"];
    let clean = cli(&verify, &[]);
    assert!(clean.status.success(), "{}", stderr(&clean));
    for env in [
        // Used to fail every 2-row network with ShardsExceedRows.
        &[("PP_SHARDS", "4")][..],
        &[("PP_SHARDS", "four")],
        &[
            ("PP_NAIVE_TICK", "1"),
            ("PP_STRUCT_TICK", "1"),
            ("PP_SPAWN_TICK", "1"),
        ],
    ] {
        let out = cli(&verify, env);
        assert!(out.status.success(), "{env:?}: {}", stderr(&out));
        assert_eq!(out.stdout, clean.stdout, "{env:?} changed the artifact");
    }
}

#[test]
fn retired_mode_flags_and_suite_are_usage_errors() {
    for (args, needle) in [
        (
            &["campaign", "--naive-tick", "--no-cache"][..],
            "unknown flag --naive-tick",
        ),
        (
            &["campaign", "--no-cache", "--struct-tick"],
            "unknown flag --struct-tick for campaign",
        ),
        (
            &["campaign", "--no-cache", "--suite"],
            "missing value for --suite",
        ),
        (&["campaign", "--suite", "pool"], "unknown suite pool"),
    ] {
        let out = cli(args, &[]);
        assert!(!out.status.success(), "{args:?} must be rejected");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?} must print the usage text");
    }
}

#[test]
fn shard_counts_are_validated_on_every_subcommand_that_takes_them() {
    // All on an 8x8 mesh (8 router rows): `campaign` runs the ci suite's,
    // `parsec` the CMP's fixed one, the rest take `--mesh`.
    for sub in [
        "sweep", "schemes", "faults", "trace", "metrics", "parsec", "campaign",
    ] {
        let mesh: &[&str] = if sub == "campaign" || sub == "parsec" {
            &[]
        } else {
            &["--mesh", "8x8"]
        };
        let run = |shards| cli(&[&[sub, "--shards", shards], mesh].concat(), &[]);
        let zero = run("0");
        assert!(!zero.status.success(), "{sub} --shards 0 must fail");
        assert!(
            stderr(&zero).contains("at least 1 shard"),
            "{sub}: {}",
            stderr(&zero)
        );
        let nine = run("9");
        assert!(!nine.status.success(), "{sub} --shards 9 must fail");
        assert!(
            stderr(&nine).contains("9 shards exceed the 8 router rows"),
            "{sub}: {}",
            stderr(&nine)
        );
    }
}

#[test]
fn shards_reach_the_network_and_change_no_output() {
    let base = ["sweep", "--mesh", "4x4", "--cycles", "400"];
    let plain = cli(&base, &[]);
    assert!(plain.status.success(), "{}", stderr(&plain));
    let sharded = cli(&[&base[..], &["--shards", "4"]].concat(), &[]);
    assert!(sharded.status.success(), "{}", stderr(&sharded));
    assert_eq!(plain.stdout, sharded.stdout);
    // The exposition's pool counter shows the flag took effect.
    let pooled_ticks = |extra: &[&str]| {
        let args = [&["metrics", "--mesh", "8x8", "--cycles", "400"], extra].concat();
        let out = cli(&args, &[]);
        assert!(out.status.success(), "{}", stderr(&out));
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find_map(|l| l.strip_prefix("shard_pool_ticks_total "))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .expect("metrics prints the pool-tick counter")
    };
    assert_eq!(pooled_ticks(&[]), 0);
    assert!(pooled_ticks(&["--shards", "2"]) > 0);
}

/// A mesh with more routers than node ids used to panic (`mid > len` in
/// the SoA shard split once 65 536 truncated through `as u16`; 300x300
/// wrapped `NodeId`), and `--rate nan|-1` hit an `assert!` in the traffic
/// harness while `inf` ran and printed `inf` rows. All five are one-line
/// typed errors on every subcommand that reads the flag (`parsec` reads
/// neither and says so).
#[test]
fn oversized_meshes_and_unusable_rates_are_typed_errors_never_panics() {
    for (flag, value, needle) in [
        ("--mesh", "256x256", "256x256 has 65536 routers"),
        ("--mesh", "300x300", "300x300 has 90000 routers"),
        ("--rate", "nan", "finite number >= 0, got NaN"),
        ("--rate", "-1", "finite number >= 0, got -1"),
        ("--rate", "inf", "finite number >= 0, got inf"),
    ] {
        for sub in ["sweep", "schemes", "faults", "trace", "metrics", "parsec"] {
            let out = cli(&[sub, flag, value], &[]);
            let err = stderr(&out);
            assert!(!out.status.success(), "{sub} {flag} {value} must fail");
            assert!(!err.contains("panicked"), "{sub} {flag} {value}: {err}");
            let first = err.lines().next().unwrap_or_default();
            let needle = if sub == "parsec" {
                format!("unknown flag {flag} for parsec")
            } else {
                needle.to_string()
            };
            assert!(
                first.starts_with("error: ") && first.contains(&needle),
                "{sub} {flag} {value}: {err}"
            );
        }
    }
}

/// `table1 --mesh 4x4 --format csv` (the `figure table1_codebook` row now)
/// used to exit 0 and print the 8x8 table; `schemes --scheme`, `parsec
/// --rate` and `sweep --format` were ignored the same way. Each subcommand
/// now rejects a flag it does not read, naming the flag and itself, and
/// prints the one usage text.
#[test]
fn flags_a_subcommand_never_reads_are_errors_naming_flag_and_command() {
    for (args, needle) in [
        (
            &[
                "figure",
                "table1_codebook",
                "--mesh",
                "4x4",
                "--format",
                "csv",
            ][..],
            "unknown flag --mesh for figure",
        ),
        (
            &["schemes", "--scheme", "nopg"],
            "unknown flag --scheme for schemes",
        ),
        (
            &["parsec", "--rate", "0.1"],
            "unknown flag --rate for parsec",
        ),
        (
            &["sweep", "--format", "csv"],
            "unknown flag --format for sweep",
        ),
    ] {
        let out = cli(args, &[]);
        assert!(!out.status.success(), "{args:?} must be rejected");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        let err = stderr(&out);
        let first = err.lines().next().unwrap_or_default();
        assert_eq!(first, format!("error: {needle}"), "{args:?}: {err}");
        // The usage that follows lists what the command does read.
        assert!(err.contains("usage:"), "{args:?}");
        assert!(
            err.contains("  punchsim-cli figure   NAME [--threads N] [--no-cache] [--smoke]\n"),
            "{err}"
        );
        assert!(
            err.contains("  punchsim-cli parsec   [--benchmark B] [--scheme S] [--instr N]"),
            "{err}"
        );
    }
    // The flags a command does read still work: the plain table prints.
    let out = cli(&["figure", "table1_codebook"], &[]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("measured: 22 sets in 5 bits"));
    // The command that row replaced is gone.
    let out = cli(&["table1"], &[]);
    assert!(!out.status.success());
    assert!(stderr(&out).starts_with("unknown command \"table1\""));
}

/// The 16 figure names, from EXPERIMENTS.md's per-experiment index — which
/// a unit test of the binary pins to be exactly its `FIGURES` table.
fn figure_names() -> Vec<&'static str> {
    let index = include_str!("../EXPERIMENTS.md")
        .split("## Per-experiment index")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("EXPERIMENTS.md has a per-experiment index");
    index
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .collect()
}

/// The evaluation is rows of one table behind `figure NAME`: a row prints
/// its tables next to the paper's numbers and exits 0 when every shape it
/// asserts holds; an unknown name is an error listing the table's names;
/// the command reads `--threads`, `--no-cache` and `--smoke` and nothing
/// else.
#[test]
fn figure_rows_print_their_tables_and_unknown_names_list_the_rows() {
    let names = figure_names();
    assert_eq!(names.len(), 16);
    for (name, cells) in [
        (
            "table1_codebook",
            &["{20, 21}", "00101", "measured: 22 sets in 5 bits"][..],
        ),
        ("disc_area", &["wire bits/router", "2.5%"]),
        (
            "abl_conv_opts",
            &["blocked/pkt", "ConvOpt-PG", "PowerPunch-Signal"],
        ),
    ] {
        let out = cli(&["figure", name, "--no-cache", "--smoke"], &[]);
        assert!(out.status.success(), "{name}: {}", stderr(&out));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with(&format!("== {name}: ")), "{text}");
        assert!(text.contains("\npaper: "), "{text}");
        assert!(text.ends_with(&format!("{name}: OK\n\n")), "{text}");
        for cell in cells {
            assert!(text.contains(cell), "{name} lacks {cell:?}: {text}");
        }
    }
    let out = cli(&["figure", "nope"], &[]);
    assert!(!out.status.success() && out.stdout.is_empty());
    let err = stderr(&out);
    let first = err.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("error: unknown figure nope (valid: all|"),
        "{err}"
    );
    for name in &names {
        assert!(
            first.contains(&format!("|{name}")),
            "{name} not offered: {first}"
        );
        assert!(
            err.contains(&format!("\n  {name} ")),
            "{name} not in the usage"
        );
    }
    for flag in [
        "--mesh",
        "--scheme",
        "--pattern",
        "--rate",
        "--cycles",
        "--shards",
        "--suite",
        "--out",
        "--seed",
        "--sample",
        "--benchmark",
        "--instr",
        "--faults",
    ] {
        let out = cli(&["figure", "table1_codebook", flag, "1"], &[]);
        assert!(!out.status.success() && out.stdout.is_empty(), "{flag}");
        let first = format!("error: unknown flag {flag} for figure\n");
        assert!(stderr(&out).starts_with(&first), "{flag}: {}", stderr(&out));
    }
}

/// The usage says `--seed N ... (default 0xC0FFEE)` and `--fault-seed N ...
/// (default 0xFA17)`, and the `faults` banner prints `seed 0xfa17`, but the
/// decimal-only readers rejected both spellings. Every `N` flag now reads
/// `0x` hex as well as decimal, to the same value.
#[test]
fn seeds_parse_in_the_hex_spelling_the_cli_prints() {
    let banner = |seed: &str| {
        let out = cli(
            &[
                "faults",
                "--mesh",
                "4x4",
                "--cycles",
                "200",
                "--fault-seed",
                seed,
            ],
            &[],
        );
        assert!(
            out.status.success(),
            "--fault-seed {seed}: {}",
            stderr(&out)
        );
        out.stdout
    };
    let hex = banner("0xFA17");
    assert!(String::from_utf8_lossy(&hex).contains("seed 0xfa17"));
    assert_eq!(hex, banner("64023"), "same seed, same sweep");
    assert_ne!(hex, banner("0xFA18"), "the seed is actually read");

    let dir = std::env::temp_dir().join(format!("punchsim-cli-seed-{}", std::process::id()));
    let artifact = |seed: &str| {
        let out = dir.join(seed);
        let run = cli(
            &[
                "campaign",
                "--suite",
                "schemes",
                "--no-cache",
                "--smoke",
                "--seed",
                seed,
                "--out",
                out.to_str().expect("utf-8 temp path"),
            ],
            &[],
        );
        assert!(run.status.success(), "--seed {seed}: {}", stderr(&run));
        std::fs::read(out.join("BENCH_schemes.json")).expect("artifact written")
    };
    let hex = artifact("0xC0FFEE");
    assert_eq!(hex, artifact("12648430"));
    assert_eq!(
        hex,
        std::fs::read("bench/baseline_schemes.json").expect("checked-in baseline"),
        "0xC0FFEE is the default seed the baseline was recorded under"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let bad = cli(&["campaign", "--seed", "0xC0FFEG"], &[]);
    assert!(!bad.status.success());
    assert!(
        stderr(&bad).starts_with("error: bad seed\n"),
        "{}",
        stderr(&bad)
    );
}

/// How long a suite's runs are used to hang off `PP_FAST=1`, read from
/// inside the campaign library: the last setting no flag, spec or artifact
/// recorded. `--smoke` replaced it; the variable is inert.
#[test]
fn run_length_is_the_smoke_flag_and_the_old_variable_is_inert() {
    let dir = std::env::temp_dir().join(format!("punchsim-cli-size-{}", std::process::id()));
    let out = dir.to_str().expect("utf-8 temp path");
    let args = ["campaign", "--suite", "schemes", "--no-cache", "--out", out];
    let run = cli(&args, &[("PP_FAST", "1")]);
    assert!(run.status.success(), "{}", stderr(&run));
    let artifact = std::fs::read_to_string(dir.join("BENCH_schemes.json")).expect("written");
    assert_eq!(artifact.matches("\"measure_cycles\": 20000").count(), 5);
    assert!(!artifact.contains("\"measure_cycles\": 6000"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `campaign`, `compare` and `verify` used to parse their own argument
/// lists and said only `unknown flag --bogus`. They are rows of the one
/// command table now: the error names the flag and the command, and the
/// usage that follows has one generated line per row and no other synopsis.
#[test]
fn every_command_is_a_table_row_with_errors_naming_flag_and_command() {
    for (args, needle) in [
        (
            &["campaign", "--bogus", "1"][..],
            "unknown flag --bogus for campaign",
        ),
        (
            &["compare", "a.json", "b.json", "--bogus", "1"],
            "unknown flag --bogus for compare",
        ),
        (&["verify", "--bogus"], "unknown flag --bogus for verify"),
        (
            &["list-schemes", "--bogus"],
            "unknown flag --bogus for list-schemes",
        ),
        (
            &["compare", "a.json", "b.json", "c.json"],
            "unknown argument c.json for compare",
        ),
        (&["compare", "a.json"], "compare needs CURRENT.json"),
        (&["figure"], "figure needs NAME"),
        (
            &["figure", "all", "disc_area"],
            "unknown argument disc_area for figure",
        ),
    ] {
        let out = cli(args, &[]);
        assert!(!out.status.success(), "{args:?} must be rejected");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        let err = stderr(&out);
        let first = err.lines().next().unwrap_or_default();
        assert_eq!(first, format!("error: {needle}"), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}");
    }
    let bare = cli(&[], &[]);
    assert!(!bare.status.success());
    let usage = stderr(&bare);
    let synopsis: Vec<&str> = usage
        .lines()
        .filter(|l| l.starts_with("  punchsim-cli "))
        .map(|l| l.split_whitespace().nth(1).expect("a command name"))
        .collect();
    assert_eq!(
        synopsis,
        [
            "sweep",
            "parsec",
            "schemes",
            "faults",
            "trace",
            "metrics",
            "list-schemes",
            "campaign",
            "compare",
            "figure",
            "verify"
        ]
    );
    assert!(usage.contains("  punchsim-cli compare  BASELINE.json CURRENT.json [--tol-latency R]"));
    assert!(usage.contains("[--no-cache]") && usage.contains("[--expect-violation]"));
    assert!(usage.contains("decimal or 0x-prefixed hex"));
}
