//! `punchsim` command-line interface: run any experiment without writing
//! Rust.
//!
//! The commands, their arguments and the values those take (schemes,
//! patterns, topologies, routings, suites) are listed once, in the usage
//! text — printed by running the binary with no arguments or a bad one.
//! Every per-command line of it is generated from the one `COMMANDS` table
//! in `punchsim-cli/mod.rs`, which is also what the one parser
//! (`punchsim-cli/parse.rs`) checks a command line against; each command
//! family lives in a module of its own beside them.
//!
//! This file stays the binary's root so that its unit tests keep the names
//! the test floor knows them by (`src/bin/punchsim-cli.rs::tests::...`).

#![forbid(unsafe_code)]

#[path = "punchsim-cli/mod.rs"]
mod cli;

fn main() -> std::process::ExitCode {
    cli::main()
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    use punchsim::campaign::{self, Size, Tolerances, SUITES};
    use punchsim::prelude::*;

    use super::cli::parse::{int, Opts, TopoChoice, DEFAULT_DUMP_CAP};
    use super::cli::synth::faults_dump_path;
    use super::cli::{usage, Command, Kind, COMMANDS};

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).expect("in table")
    }

    fn parse_for(cmd: &str, args: &[&str]) -> Result<Opts, String> {
        Opts::parse(command(cmd), &strs(args))
    }

    fn campaign_opts(args: &[&str]) -> Result<Opts, String> {
        parse_for("campaign", args)
    }

    fn compare_opts(args: &[&str]) -> Result<Opts, String> {
        parse_for("compare", args)
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

        let o = parse(&["--routing", "wf", "--mesh", "4x6"]).unwrap();
        assert_eq!(o.topo, TopoChoice::Mesh);
        assert_eq!(o.noc_view().unwrap().1, RoutingKind::WestFirst);
        assert_eq!(o.substrate_label(), "4x6-wf");
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
        // Removed values fail like any unknown one, naming the valid set.
        assert_eq!(
            parse(&["--topology", "cmesh:4"]).err().expect("rejected"),
            "unknown topology cmesh:4 (mesh, torus)"
        );
        assert_eq!(
            parse(&["--routing", "nl"]).err().expect("rejected"),
            "unknown routing nl (xy, yx, wf)"
        );
        let o = parse(&["--topology", "torus", "--mesh", "1x4"]).unwrap(); // parses...
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
        assert_eq!(o.format.0, "jsonl");
        // Defaults: Chrome trace, unbounded capture, conventional name.
        let d = parse(&[]).unwrap();
        assert_eq!(d.trace_out, None);
        assert_eq!(d.trace_cap, 0);
        assert_eq!((d.format.0, d.format.1), ("chrome", "punchsim-trace.json"));
    }

    #[test]
    fn metrics_flags_and_defaults_parse() {
        // No registry collection unless asked for.
        assert_eq!(parse(&[]).unwrap().metrics_out, None);
        let o = parse(&["--metrics-out", "m.prom"]).unwrap();
        assert_eq!(o.metrics_out, Some(PathBuf::from("m.prom")));
        // The metrics subcommand defaults to the busy regime, still
        // overridable by the usual flags.
        let metrics = |args| parse_for("metrics", args);
        let m = metrics(&[]).unwrap();
        assert_eq!(m.mesh, Mesh::new(16, 16));
        assert_eq!(m.rate, 0.0005);
        assert_eq!(m.cycles, 12_000);
        assert_eq!(m.scheme, SchemeKind::PowerPunchFull);
        let m = metrics(&["--mesh", "4x4"]).unwrap();
        assert_eq!(m.mesh, Mesh::new(4, 4));
        assert_eq!(m.cycles, 12_000);
    }

    #[test]
    fn faults_dump_paths_encode_drop_rate() {
        let p = faults_dump_path(Path::new("out/dump.jsonl"), 0.25);
        assert_eq!(p, PathBuf::from("out/dump-d0.25.jsonl"));
        let p = faults_dump_path(Path::new("dump"), 1.0);
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
        let o = campaign_opts(&[]).unwrap();
        assert_eq!(o.suite.name, "ci");
        assert_eq!(o.size, Size::Full);
        assert_eq!(o.threads, 0);
        assert_eq!(o.out, None, "campaign then writes into bench-out");
        assert_eq!(o.seed, campaign::DEFAULT_SEED);
        assert!(!o.no_cache);
        assert_eq!(o.shards, 1);
        assert!(!o.specs().is_empty());

        let o = campaign_opts(&[
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
        ])
        .unwrap();
        assert_eq!(o.suite.name, "synth");
        assert_eq!(o.threads, 3);
        assert_eq!(o.shards, 4);
        assert_eq!(o.out, Some(PathBuf::from("tmp")));
        assert_eq!(o.name.as_deref(), Some("pr"));
        assert_eq!(o.seed, 7);
        assert!(o.no_cache);
        assert_eq!(o.specs(), campaign::SYNTH.specs(7, Size::Full));

        let o = campaign_opts(&["--suite", "busy", "--smoke"]).unwrap();
        let busy = campaign::suite("busy").unwrap();
        assert_eq!(o.specs(), busy.specs(o.seed, Size::Smoke));
        assert_ne!(o.specs(), busy.specs(o.seed, Size::Full));
    }

    #[test]
    fn campaign_shard_counts_are_validated_up_front() {
        // `--shards 0` is a typed ConfigError, not a panic or a per-run
        // failure.
        let o = campaign_opts(&["--shards", "0"]).unwrap();
        let specs = o.specs();
        assert!(matches!(
            o.validate_shards(&specs),
            Err(ConfigError::ZeroShards)
        ));
        // The ci suite's 8x8 meshes cap the shard count at 8 rows.
        let o = campaign_opts(&["--shards", "9"]).unwrap();
        let specs = o.specs();
        assert!(matches!(
            o.validate_shards(&specs),
            Err(ConfigError::ShardsExceedRows { shards: 9, rows: 8 })
        ));
        // The busy suite's smallest mesh is 16x16, so 9 shards fit there.
        let o = campaign_opts(&["--suite", "busy", "--shards", "9"]).unwrap();
        let specs = o.specs();
        assert!(o.validate_shards(&specs).is_ok());
        let o = campaign_opts(&["--suite", "busy", "--shards", "17"]).unwrap();
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
        let o = campaign_opts(&[]).unwrap();
        assert_eq!(o.sample, 0);
        assert_eq!(o.effective_trace_cap(), 0);

        let o = campaign_opts(&["--sample", "500", "--trace-out", "dumps"]).unwrap();
        assert_eq!(o.sample, 500);
        assert_eq!(o.trace_out, Some(PathBuf::from("dumps")));
        // --trace-out alone gets the default capacity...
        assert_eq!(o.effective_trace_cap(), DEFAULT_DUMP_CAP);
        // ...and --trace-cap overrides it.
        let o = campaign_opts(&["--trace-out", "dumps", "--trace-cap", "64"]).unwrap();
        assert_eq!(o.effective_trace_cap(), 64);
        // --trace-cap without --trace-out keeps tracing off.
        let o = campaign_opts(&["--trace-cap", "64"]).unwrap();
        assert_eq!(o.effective_trace_cap(), 0);
        assert!(campaign_opts(&["--sample", "often"]).is_err());
        // --metrics-out drives registry collection.
        let o = campaign_opts(&[]).unwrap();
        assert_eq!(o.metrics_out, None);
        let o = campaign_opts(&["--metrics-out", "m.json"]).unwrap();
        assert_eq!(o.metrics_out, Some(PathBuf::from("m.json")));
    }

    /// Every row of the one suite table parses, builds a non-empty spec
    /// list, and is named in the usage text and the `unknown suite` error.
    #[test]
    fn every_suite_row_parses_and_yields_specs() {
        let usage = usage();
        let err = campaign_opts(&["--suite", "quantum"])
            .err()
            .expect("unknown suite is rejected");
        assert!(!usage.contains("{SUITE"), "unexpanded placeholder");
        for &campaign::Suite { name, help, .. } in SUITES {
            let o = campaign_opts(&["--suite", name]).unwrap();
            assert_eq!(o.suite.name, name);
            assert!(!o.specs().is_empty(), "suite {name} is empty");
            assert!(usage.contains(help), "usage misses suite {name}");
            assert!(err.contains(name), "error misses suite {name}: {err}");
        }
    }

    /// The run length is an argument of the two commands that run suites —
    /// and of nothing else.
    #[test]
    fn smoke_is_a_flag_of_campaign_and_figure_only() {
        assert_eq!(campaign_opts(&["--smoke"]).unwrap().size, Size::Smoke);
        let o = parse_for("figure", &["all", "--smoke"]).unwrap();
        assert_eq!(o.size, Size::Smoke);
        assert_eq!(parse_for("figure", &["all"]).unwrap().size, Size::Full);
        for cmd in COMMANDS {
            if !["campaign", "figure"].contains(&cmd.name) {
                let err = parse_for(cmd.name, &["--smoke"]).err().expect("rejected");
                assert_eq!(err, format!("unknown flag --smoke for {}", cmd.name));
            }
        }
        assert!(usage().contains("  --smoke "), "the flag is documented");
    }

    #[test]
    fn campaign_bad_inputs_are_rejected() {
        assert!(campaign_opts(&["--suite", "quantum"]).is_err());
        assert!(campaign_opts(&["--threads", "many"]).is_err());
        assert!(campaign_opts(&["--shards", "lots"]).is_err());
        assert!(campaign_opts(&["--shards"]).is_err());
        assert!(campaign_opts(&["--name"]).is_err());
        assert!(campaign_opts(&["--cache", "1"]).is_err());
    }

    /// A flag the command never reads is an error naming both, not a
    /// silently ignored argument; the same flag still parses where it is
    /// read.
    #[test]
    fn flags_a_command_does_not_read_are_rejected() {
        for (cmd, flag, val, reader) in [
            ("figure", "--mesh", "4x4", "sweep"),
            ("figure", "--format", "csv", "trace"),
            ("list-schemes", "--scheme", "ppf", "sweep"),
            ("schemes", "--scheme", "nopg", "sweep"),
            ("parsec", "--rate", "0.1", "sweep"),
            ("sweep", "--format", "csv", "trace"),
            ("sweep", "--benchmark", "canneal", "parsec"),
            ("faults", "--faults", "0.5", "trace"),
            ("metrics", "--trace-out", "t.json", "trace"),
        ] {
            let name: &[&str] = if cmd == "figure" {
                &["table1_codebook"]
            } else {
                &[]
            };
            let err = parse_for(cmd, &[name, &[flag, val]].concat());
            let err = err.err().expect("rejected");
            assert_eq!(err, format!("unknown flag {flag} for {cmd}"));
            assert!(parse_for(reader, &[flag, val]).is_ok(), "{reader} {flag}");
        }
        // Rejected before its value is looked at (or missed).
        assert_eq!(
            parse_for("figure", &["--mesh"]).err().unwrap(),
            "unknown flag --mesh for figure"
        );
    }

    /// Every argument every command lists has a parser arm (the listing and
    /// the `match` cannot drift apart) and shows up in that command's usage
    /// lines, which are the only `punchsim-cli <command>` lines the usage
    /// text has.
    #[test]
    fn every_listed_flag_parses_and_is_in_the_usage() {
        let usage = usage();
        assert!(!usage.contains("{COMMAND"), "unexpanded placeholder");
        assert_eq!(COMMANDS.len(), 11);
        let generated: String = COMMANDS.iter().map(Command::usage_lines).collect();
        for line in usage.lines().filter(|l| l.contains("punchsim-cli ")) {
            let own = line.starts_with("  punchsim-cli ") && generated.contains(line);
            assert!(own || line.starts_with("schemes:"), "hand-written: {line}");
        }
        for cmd in COMMANDS {
            assert!(usage.contains(&format!("  punchsim-cli {}", cmd.name)));
            let positionals: Vec<&str> = cmd
                .args()
                .filter(|a| Kind::of(a) == Kind::Positional)
                .map(|a| if a == "NAME" { "all" } else { a })
                .collect();
            for listed in cmd.args() {
                let flag = listed.split(' ').next().expect("non-empty listing");
                let val = match flag {
                    "--pattern" => "transpose",
                    "--scheme" => "ppf",
                    "--mesh" => "2x2",
                    "--topology" => "torus",
                    "--routing" => "yx",
                    "--benchmark" => "canneal",
                    "--format" => "csv",
                    "--suite" => "ci",
                    "--rate" | "--faults" | "--corrupt" => "0.5",
                    _ => "3",
                };
                let mut args = positionals.clone();
                let shown = match Kind::of(listed) {
                    Kind::Positional => format!(" {listed}"),
                    Kind::Bool => {
                        args.push(flag);
                        format!(" [{listed}]")
                    }
                    Kind::Value => {
                        args.extend([flag, val]);
                        format!(" [{listed}]")
                    }
                };
                let parsed = Opts::parse(cmd, &strs(&args));
                assert!(parsed.is_ok(), "{} {args:?}", cmd.name);
                assert_eq!(cmd.listed(flag), Some(listed));
                assert!(cmd.usage_lines().contains(&shown), "{} {shown}", cmd.name);
            }
            assert!(cmd.usage_lines().lines().all(|l| l.len() <= 78));
            assert!(usage.contains(&cmd.usage_lines()));
        }
    }

    /// The one integer reader behind every `N` flag: decimal or `0x` hex,
    /// range-checked against the option's own width.
    #[test]
    fn integer_flags_read_decimal_and_hex() {
        assert_eq!(int::<u64>("12648430", "seed"), Ok(0xC0FFEE));
        assert_eq!(int::<u64>("0xC0FFEE", "seed"), Ok(0xC0FFEE));
        assert_eq!(int::<u64>("0Xfa17", "seed"), Ok(0xFA17));
        assert_eq!(int::<u16>("0x10", "mesh width"), Ok(16));
        assert_eq!(
            int::<u16>("0x10000", "mesh width"),
            Err("bad mesh width".into())
        );
        for bad in ["", "0x", "-1", "0x-1", "12h", "c0ffee"] {
            assert_eq!(int::<u64>(bad, "seed"), Err("bad seed".into()), "{bad:?}");
        }
        let o = campaign_opts(&["--seed", "0xC0FFEE"]).unwrap();
        assert_eq!(o.seed, campaign::DEFAULT_SEED);
        let o = parse_for("sweep", &["--fault-seed", "0xFA17", "--cycles", "0x100"]).unwrap();
        assert_eq!((o.fault_seed, o.cycles), (0xFA17, 256));
    }

    #[test]
    fn compare_opts_parse() {
        let o = compare_opts(&["a.json", "b.json"]).unwrap();
        assert_eq!(o.baseline, PathBuf::from("a.json"));
        assert_eq!(o.current, PathBuf::from("b.json"));
        assert_eq!(o.tol, Tolerances::default());

        let o = compare_opts(&[
            "--tol-latency",
            "0.1",
            "a.json",
            "--tol-escalations",
            "5",
            "b.json",
        ])
        .unwrap();
        assert_eq!(o.tol.latency_rel, 0.1);
        assert_eq!(o.tol.escalations_abs, 5.0);
        assert_eq!(o.tol.delivered_rel, Tolerances::default().delivered_rel);

        assert!(compare_opts(&["only-one.json"]).is_err());
        assert!(compare_opts(&["a", "b", "c"]).is_err());
        assert!(compare_opts(&["a", "b", "--tol-latency", "x"]).is_err());
        assert!(compare_opts(&["a", "b", "--tol-jitter", "1"]).is_err());
    }
}
