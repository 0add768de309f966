//! The campaign layer's two commands: `campaign` runs a suite of specs
//! into `BENCH_<name>.json` + its timing sidecar, `compare` gates one such
//! artifact against another.

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use punchsim::campaign::{compare as gate, Json};
use punchsim::noc::check_shards;
use punchsim::obs;
use punchsim::prelude::*;

use super::parse::Opts;
use super::table::Table;
use super::write_metrics;

impl Opts {
    pub fn specs(&self) -> Vec<RunSpec> {
        self.suite.specs(self.seed, self.size)
    }

    /// Checks `--shards` against the router rows of every spec in the suite
    /// *before* any run starts, so a bad count is one typed [`ConfigError`]
    /// up front rather than a per-run failure midway through the campaign.
    pub fn validate_shards(&self, specs: &[RunSpec]) -> Result<(), ConfigError> {
        specs.iter().try_for_each(|spec| {
            let topo = match &spec.workload {
                Workload::Synthetic { topo, .. } => *topo,
                Workload::Parsec { benchmark, .. } => {
                    CmpConfig::new(*benchmark, spec.scheme).sim.noc.topology
                }
            };
            check_shards(self.shards, topo.height())
        })
    }
}

pub fn campaign(opts: &Opts) -> Result<ExitCode, String> {
    let specs = opts.specs();
    opts.validate_shards(&specs).map_err(|e| e.to_string())?;
    let name = opts
        .name
        .clone()
        .unwrap_or_else(|| opts.suite.name.to_string());
    let runner = Runner {
        threads: opts.threads,
        store: (!opts.no_cache).then(Store::in_target),
        observe: ObserveOpts {
            sample_every: opts.sample,
            trace_cap: opts.effective_trace_cap(),
            metrics: opts.metrics_out.is_some(),
        },
        shards: opts.shards,
    };
    let threads = runner.effective_threads(specs.len());
    let (total, size) = (specs.len(), opts.size);
    eprintln!("campaign {name}: {total} {size:?}-size runs on {threads} thread(s)");
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
    let out = opts.out.as_deref().unwrap_or(Path::new("bench-out"));
    let (main_path, timing_path) = report
        .write_artifacts(out)
        .map_err(|e| format!("cannot write artifacts to {}: {e}", out.display()))?;
    if let Some(dir) = &opts.trace_out {
        write_campaign_dumps(dir, &report)?;
    }
    if let Some(path) = &opts.metrics_out {
        match report.merged_registry() {
            Some(reg) => {
                write_metrics(path, &reg)?;
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
    Ok(if report.failures() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Writes one JSONL flight-recorder dump per traced run into `dir`,
/// named after the run id (`/` → `_`).
fn write_campaign_dumps(dir: &Path, report: &CampaignReport) -> Result<(), String> {
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
    let mut t = Table::new("run|p50|p95|p99|max");
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

fn load_artifact(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn compare(opts: &Opts) -> Result<ExitCode, String> {
    let base = load_artifact(&opts.baseline)?;
    let cur = load_artifact(&opts.current)?;
    let cmp = gate::compare(&base, &cur, &opts.tol)?;
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
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "perf gate FAILED: {} deviation(s), {} missing run(s), {} failed run(s)",
            cmp.deviations.len(),
            cmp.missing.len(),
            cmp.run_errors.len()
        );
        Ok(ExitCode::FAILURE)
    }
}
