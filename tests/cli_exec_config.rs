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
//! error on `run`, the one subcommand that takes it (`campaign` and
//! `parsec` refuse the flag before any run starts), a flag a subcommand
//! does not read is an error rather than a silently ignored argument, and every `N`
//! flag reads the `0x` spelling the usage text and the banners print. An
//! unknown scheme, routing or suite is a usage error that lists the valid
//! ones, never a panic.

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
    let schemes = punchsim::types::SchemeKind::METAS.map(|m| m.tag).join(", ");
    assert_eq!(schemes, "nopg, conv, convopt, pps, ppf");
    let suites: Vec<&str> = punchsim::campaign::SUITES.iter().map(|s| s.name).collect();
    let suites = suites.join("|");
    for (args, needle) in [
        (
            &["campaign", "--naive-tick", "--no-cache"][..],
            "unknown flag --naive-tick".to_string(),
        ),
        (
            &["campaign", "--no-cache", "--struct-tick"],
            "unknown flag --struct-tick for campaign".to_string(),
        ),
        (
            &["campaign", "--no-cache", "--suite"],
            "missing value for --suite".to_string(),
        ),
        (
            &["campaign", "--suite", "pool"],
            format!("unknown suite pool (valid: {suites})"),
        ),
        (
            &["campaign", "--suite", "rivals"],
            format!("unknown suite rivals (valid: {suites})"),
        ),
        (
            &["run", "--routing", "wf"],
            "unknown routing wf (xy, yx)".to_string(),
        ),
        (
            &["run", "--scheme", "sdm"],
            format!("unknown scheme \"sdm\" ({schemes})"),
        ),
        (
            &["run", "--format", "csv"],
            "unknown flag --format for run".to_string(),
        ),
        (
            &["verify", "--scheme", "ring"],
            format!("unknown scheme \"ring\" ({schemes})"),
        ),
    ] {
        let out = cli(args, &[]);
        assert_eq!(out.status.code(), Some(1), "{args:?} must be a usage error");
        let err = stderr(&out);
        assert!(err.contains(&needle), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?} must print the usage text");
    }
    // The synthetic commands folded into `run`, and `list-schemes`, whose
    // tags the scheme error lists: each names `run` among the commands.
    let commands = "(run, parsec, campaign, compare, figure, verify)";
    for retired in [
        "sweep",
        "schemes",
        "faults",
        "trace",
        "metrics",
        "list-schemes",
    ] {
        let out = cli(&[retired, "--mesh", "4x4"], &[]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{retired} must be a usage error"
        );
        assert!(out.stdout.is_empty(), "{retired} must not run anything");
        let err = stderr(&out);
        let first = err.lines().next().unwrap_or_default();
        assert_eq!(
            first,
            format!("unknown command \"{retired}\" {commands}"),
            "{err}"
        );
        assert!(err.contains("  punchsim-cli run "), "{retired}: {err}");
    }
}

#[test]
fn shard_counts_are_validated_on_every_subcommand_that_takes_them() {
    // All on an 8x8 mesh (8 router rows).
    for sub in [
        &["run", "--rate", "0.005,0.01"][..],
        &["run", "--scheme", "all"],
        &["run", "--faults", "sweep"],
        &["run", "--metrics-out", "unwritten.prom"],
    ] {
        let run = |shards| cli(&[sub, &["--shards", shards, "--mesh", "8x8"]].concat(), &[]);
        let zero = run("0");
        assert!(!zero.status.success(), "{sub:?} --shards 0 must fail");
        assert!(
            stderr(&zero).contains("at least 1 shard"),
            "{sub:?}: {}",
            stderr(&zero)
        );
        let nine = run("9");
        assert!(!nine.status.success(), "{sub:?} --shards 9 must fail");
        assert!(
            stderr(&nine).contains("9 shards exceed the 8 router rows"),
            "{sub:?}: {}",
            stderr(&nine)
        );
    }
}

/// Campaign and full-system runs never shard: on the suites and the CMP
/// they run, a second shard only ever cost time. The flag is the parser's
/// usage error, raised before any spec is built or any run starts.
#[test]
fn campaign_and_parsec_refuse_shards_before_running() {
    // Short, store-free runs writing into a temp dir, so a binary that
    // still took the flag fails the exit-status assert quickly.
    let dir = std::env::temp_dir().join(format!("punchsim-cli-noshard-{}", std::process::id()));
    let out_dir = dir.to_str().expect("utf-8 temp path");
    for args in [
        &[
            "campaign",
            "--suite",
            "busy",
            "--smoke",
            "--no-cache",
            "--out",
            out_dir,
        ][..],
        &["parsec", "--instr", "2000"],
    ] {
        let sub = args[0];
        let out = cli(&[args, &["--shards", "2"]].concat(), &[]);
        assert!(!out.status.success(), "{sub} --shards 2 must fail");
        assert!(out.stdout.is_empty(), "{sub} printed a result");
        let first = format!("error: unknown flag --shards for {sub}\n");
        assert!(stderr(&out).starts_with(&first), "{sub}: {}", stderr(&out));
    }
    assert!(!dir.exists(), "a refused campaign wrote {out_dir}");
}

#[test]
fn shards_reach_the_network_and_change_no_output() {
    let loads = "0.0025,0.005,0.01,0.02,0.04,0.08,0.16";
    let base = ["run", "--rate", loads, "--mesh", "4x4", "--cycles", "400"];
    let plain = cli(&base, &[]);
    assert!(plain.status.success(), "{}", stderr(&plain));
    let sharded = cli(&[&base[..], &["--shards", "4"]].concat(), &[]);
    assert!(sharded.status.success(), "{}", stderr(&sharded));
    assert_eq!(plain.stdout, sharded.stdout);
    // The exposition's pool counter shows the flag took effect.
    let dir = std::env::temp_dir().join(format!("punchsim-cli-pool-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let prom = dir.join("m.prom");
    let pooled_ticks = |extra: &[&str]| {
        let path = prom.to_str().expect("utf-8 temp path");
        let run = [
            "run",
            "--mesh",
            "8x8",
            "--cycles",
            "400",
            "--metrics-out",
            path,
        ];
        let out = cli(&[&run[..], extra].concat(), &[]);
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(String::from_utf8_lossy(&out.stdout).contains("# punchsim_coverage "));
        std::fs::read_to_string(&prom)
            .expect("run --metrics-out writes the exposition")
            .lines()
            .find_map(|l| l.strip_prefix("shard_pool_ticks_total "))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .expect("the exposition has the pool-tick counter")
    };
    assert_eq!(pooled_ticks(&[]), 0);
    assert!(pooled_ticks(&["--shards", "2"]) > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A mesh with more routers than node ids used to panic (`mid > len` in
/// the SoA shard split once 65 536 truncated through `as u16`; 300x300
/// wrapped `NodeId`), and `--rate nan|-1` hit an `assert!` in the traffic
/// harness while `inf` ran and printed `inf` rows. A rate above 1 printed
/// rows for loads an NI never offers (it injects one flit per cycle). All
/// are one-line typed errors wherever the flag is read, on every axis of
/// `run` (`parsec` reads neither and says so).
#[test]
fn oversized_meshes_and_unusable_rates_are_typed_errors_never_panics() {
    for (flag, value, needle) in [
        ("--mesh", "256x256", "256x256 has 65536 routers"),
        ("--mesh", "300x300", "300x300 has 90000 routers"),
        ("--rate", "nan", "finite number >= 0, got NaN"),
        ("--rate", "-1", "finite number >= 0, got -1"),
        ("--rate", "inf", "finite number >= 0, got inf"),
        ("--rate", "2", "at most 1 flit/node/cycle"),
        ("--rate", "0.5,2", "at most 1 flit/node/cycle"),
    ] {
        for sub in [
            &["run"][..],
            &["run", "--scheme", "all"],
            &["run", "--faults", "sweep"],
            &["run", "--trace-out", "unwritten.json"],
            &["parsec"],
        ] {
            let out = cli(&[sub, &[flag, value]].concat(), &[]);
            let sub = sub.join(" ");
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

/// The flight recorder used to reserve `--trace-cap` slots up front, so
/// `--trace-cap 4611686018427387904` (2^62) aborted with "capacity
/// overflow" (exit 101) before the first cycle. The cap now bounds what
/// the ring keeps, not what it reserves.
#[test]
fn a_huge_trace_cap_bounds_what_is_kept_not_what_is_reserved() {
    let dir = std::env::temp_dir().join(format!("punchsim-cli-cap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("t.jsonl");
    let args = [
        "run",
        "--mesh",
        "2x2",
        "--cycles",
        "10",
        "--trace-out",
        path.to_str().expect("utf-8 temp path"),
        "--trace-cap",
        "4611686018427387904",
    ];
    let out = cli(&args, &[]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(path.is_file(), "the trace was written");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `table1 --mesh 4x4 --format csv` (the `figure table1_codebook` row now)
/// used to exit 0 and print the 8x8 table; `schemes --scheme`, `parsec
/// --rate` and `sweep --format` were ignored the same way. Each command
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
            &["run", "--benchmark", "canneal"],
            "unknown flag --benchmark for run",
        ),
        (
            &["parsec", "--rate", "0.1"],
            "unknown flag --rate for parsec",
        ),
        (&["run", "--instr", "1000"], "unknown flag --instr for run"),
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
    assert!(stderr(&out).starts_with("unknown command \"table1\" (run, "));
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
/// (default 0xFA17)`, and the fault sweep's banner prints `seed 0xfa17`, but the
/// decimal-only readers rejected both spellings. Every `N` flag now reads
/// `0x` hex as well as decimal, to the same value.
#[test]
fn seeds_parse_in_the_hex_spelling_the_cli_prints() {
    let banner = |seed: &str| {
        let out = cli(
            &[
                "run",
                "--faults",
                "sweep",
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
        (&["run", "--bogus"], "unknown flag --bogus for run"),
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
        ["run", "parsec", "campaign", "compare", "figure", "verify"]
    );
    assert!(usage.contains("  punchsim-cli compare  BASELINE.json CURRENT.json [--tol-latency R]"));
    assert!(usage.contains("[--no-cache]") && usage.contains("[--expect-violation]"));
    assert!(usage.contains("decimal or 0x-prefixed hex"));
}

/// `campaign --sample N` puts one interval series per run into the timing
/// sidecar. Each must tile its run's measured window — no gap, no overlap,
/// no warm-up rows, no missing tail — and its rows' deliveries must add up
/// to the run's own `metrics.delivered` in the deterministic artifact.
#[test]
fn sampled_sidecar_series_tile_each_runs_measured_window() {
    use punchsim::campaign::Json;
    let dir = std::env::temp_dir().join(format!("punchsim-cli-series-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out_dir = dir.to_str().expect("utf-8 temp path");
    let args = [
        "campaign",
        "--suite",
        "schemes",
        "--smoke",
        "--sample",
        "1000",
        "--no-cache",
        "--out",
        out_dir,
    ];
    let out = cli(&args, &[]);
    assert!(out.status.success(), "{}", stderr(&out));
    let runs = |name: &str| {
        let text = std::fs::read_to_string(dir.join(name)).expect("campaign wrote the artifact");
        let doc = Json::parse(&text).expect("artifacts are valid JSON");
        doc.get("runs")
            .and_then(Json::as_arr)
            .expect("a runs array")
            .to_vec()
    };
    let (results, timings) = (
        runs("BENCH_schemes.json"),
        runs("BENCH_schemes.timing.json"),
    );
    assert_eq!(results.len(), 5, "one run per scheme");
    assert_eq!(timings.len(), results.len());
    for (run, timing) in results.iter().zip(&timings) {
        let id = run.get("id").and_then(Json::as_str).expect("an id");
        assert_eq!(timing.get("id").and_then(Json::as_str), Some(id));
        let num = |j: &Json, key: &str| {
            let v = j.get(key).and_then(Json::as_u64);
            v.unwrap_or_else(|| panic!("{id}: no {key}"))
        };
        let metrics = run.get("metrics").expect("metrics");
        let total = num(metrics, "total_cycles");
        let series = timing.get("series").and_then(Json::as_arr);
        let series = series.unwrap_or_else(|| panic!("{id}: sampled but no series"));
        let mut at = total - num(metrics, "exec_cycles");
        for row in series {
            assert_eq!(num(row, "start"), at, "{id}: rows must abut");
            at = num(row, "end");
        }
        assert_eq!(at, total, "{id}: the last row must end the window");
        let delivered: u64 = series.iter().map(|row| num(row, "delivered")).sum();
        assert_eq!(delivered, num(metrics, "delivered"), "{id}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
