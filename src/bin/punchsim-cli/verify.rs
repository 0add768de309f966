//! `verify`: the exhaustive wakeup-protocol check of one small mesh, its
//! byte-stable VERIFY artifact, and the replay of a counterexample through
//! the obs exporters.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use punchsim::prelude::*;

use super::parse::Opts;
use super::write_file;

pub fn verify(opts: &Opts) -> Result<ExitCode, String> {
    let cfg = &VerifyConfig {
        width: opts.mesh.width(),
        height: opts.mesh.height(),
        faulty: opts.faulty,
        broken: opts.broken,
        max_faults: opts.max_faults,
        ..VerifyConfig::mesh2x2(opts.scheme())
    };
    let started = Instant::now();
    let out = run_verification(cfg).map_err(|e| e.to_string())?;
    let exp = &out.exploration;
    eprintln!(
        "verify {}: {} states, {} edges, {} terminal(s), depth {}, peak frontier {} in {:.2?}",
        cfg.label(),
        exp.reachable,
        exp.edges,
        exp.terminals,
        exp.max_depth,
        exp.peak_frontier,
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
    let write = |path: &PathBuf, body: &str| {
        write_file(path, body)?;
        eprintln!("wrote {}", path.display());
        Ok::<(), String>(())
    };
    match &opts.out {
        Some(path) => write(path, &out.report)?,
        None => print!("{}", out.report),
    }
    if opts.replay_out.is_some() || opts.chrome_out.is_some() {
        match exp.first_counterexample() {
            None => eprintln!("note: nothing to replay — all properties proved"),
            Some(ce) => {
                let rep = punchsim::verify::replay(cfg, ce)
                    .map_err(|e| format!("counterexample replay failed: {e}"))?;
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
                if let Some(path) = &opts.replay_out {
                    write(path, &rep.to_jsonl())?;
                }
                if let Some(path) = &opts.chrome_out {
                    write(path, &rep.to_chrome_trace())?;
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
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
