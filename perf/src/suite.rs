//! The whole benchmark: every workload, tracing off then on, each run in
//! a child process; the table on stdout, `results.json`, and the
//! `--selfcheck` comparison of two back-to-back result sets.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use punchsim::campaign::Json;

use crate::catalog::{MetricDef, END_TO_END};
use crate::run::{detail_path, DEFAULT_SEED};
use crate::workloads::ALL;

/// Two result sets whose calibration loops differ by more than this were
/// not taken on the same quiet machine.
const CALIB_TOLERANCE: f64 = 0.05;

/// What the suite was asked to do.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: u64,
    pub out: PathBuf,
    /// Run two sets and require them to agree within the bounds.
    pub selfcheck: bool,
    /// Rewrite `golden.json` from this run's digests (default seed only).
    pub update_golden: bool,
}

/// One workload's two detail documents.
struct Row {
    name: &'static str,
    end_to_end: Json,
    per_layer: Json,
    /// `layer_ns` and `self_time_coverage` of the span trace.
    layers: Json,
}

/// Runs one (workload, trace) child and returns its detail document.
fn run_child(a: &SuiteArgs, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{workload} trace={trace}: {}", output.status));
    }
    let path = detail_path(&a.out, workload, trace);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_set(a: &SuiteArgs) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for wl in &ALL {
        eprintln!("perf: {} ...", wl.name);
        let end_to_end = run_child(a, wl.name, false)?;
        let per_layer = run_child(a, wl.name, true)?;
        let trace_path = a.out.join(format!("trace_{}.json", wl.name));
        let trace = std::fs::read_to_string(&trace_path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()))?;
        let mut layers = Json::obj();
        for key in ["self_time_coverage", "layer_ns"] {
            layers.push(key, trace.get(key).cloned().unwrap_or(Json::Null));
        }
        rows.push(Row {
            name: wl.name,
            end_to_end,
            per_layer,
            layers,
        });
    }
    Ok(rows)
}

fn metric(doc: &Json, name: &str, field: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get(field)?.as_f64()
}

fn ops_failed(doc: &Json) -> u64 {
    doc.get("ops_failed").and_then(Json::as_u64).unwrap_or(1)
}

/// Prints `workload name value unit` for every metric of a set.
fn print_set(rows: &[Row]) {
    for row in rows {
        for doc in [&row.end_to_end, &row.per_layer] {
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                continue;
            };
            for (name, m) in metrics {
                let get = |k| m.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                println!(
                    "{} {name} {} {unit} (min {} max {} n {})",
                    row.name,
                    get("value"),
                    get("min"),
                    get("max"),
                    get("n")
                );
            }
            for name in doc.get("absent").and_then(Json::as_arr).unwrap_or(&[]) {
                let name = name.as_str().unwrap_or("");
                println!("{} {name} absent: probe did not build", row.name);
            }
            for note in doc.get("notes").and_then(Json::as_arr).unwrap_or(&[]) {
                println!("{} note: {}", row.name, note.as_str().unwrap_or(""));
            }
            println!(
                "{} ops_total {} ops_failed {}",
                row.name,
                doc.get("ops_total").and_then(Json::as_u64).unwrap_or(0),
                ops_failed(doc)
            );
        }
    }
}

fn set_json(rows: &[Row]) -> Json {
    let mut workloads = Json::obj();
    for row in rows {
        let mut w = Json::obj();
        w.push("end_to_end", row.end_to_end.clone());
        w.push("per_layer", row.per_layer.clone());
        w.push("layers", row.layers.clone());
        workloads.push(row.name, w);
    }
    workloads
}

/// Whether two medians of the same code agree within the metric's bound.
fn agrees(def: &MetricDef, a: f64, b: f64) -> bool {
    if def.exact {
        a == b
    } else {
        (a - b).abs() <= def.bound * a.abs().min(b.abs()) + def.slack
    }
}

/// Compares two sets; prints every spread and returns the disagreements.
fn selfcheck(first: &[Row], second: &[Row]) -> Vec<String> {
    let mut bad = Vec::new();
    for (a, b) in first.iter().zip(second) {
        let calib = |row: &Row| {
            let c = row.end_to_end.get("calib_mops").and_then(Json::as_arr);
            c.and_then(|c| c.first()?.as_f64()).unwrap_or(0.0)
        };
        let (ca, cb) = (calib(a), calib(b));
        let noisy = (ca - cb).abs() > CALIB_TOLERANCE * ca.min(cb);
        println!(
            "selfcheck {} host.calib_mops {ca:.1} / {cb:.1}{}",
            a.name,
            if noisy { " noisy" } else { "" }
        );
        let digest = |row: &Row| row.end_to_end.get("digest").cloned();
        if digest(a) != digest(b) {
            bad.push(format!("{}: statistics digests differ", a.name));
        }
        for def in &END_TO_END {
            let field = |row: &Row, f| metric(&row.end_to_end, def.name, f).unwrap_or(f64::NAN);
            let (va, vb) = (field(a, "value"), field(b, "value"));
            let ok = agrees(def, va, vb);
            for (set, row) in [(1, a), (2, b)] {
                println!(
                    "selfcheck {} {} set{set} min {} median {} max {} n {}",
                    a.name,
                    def.name,
                    field(row, "min"),
                    field(row, "value"),
                    field(row, "max"),
                    field(row, "n")
                );
            }
            if !ok {
                bad.push(format!(
                    "{}: {} {va} vs {vb} {} (bound {}{})",
                    a.name,
                    def.name,
                    def.unit,
                    def.bound,
                    if noisy { ", machine noisy" } else { "" }
                ));
            }
        }
    }
    bad
}

fn write_golden(rows: &[Row]) -> Result<(), String> {
    let mut digests = Json::obj();
    for row in rows {
        let d = row.end_to_end.get("digest").cloned().unwrap_or(Json::Null);
        if row.per_layer.get("digest") != Some(&d) {
            return Err(format!("{}: traced and untraced digests differ", row.name));
        }
        digests.push(row.name, d);
    }
    let mut doc = Json::obj();
    doc.push("schema", Json::Str("punchsim-perf-golden/v1".to_string()));
    doc.push("seed", Json::Int(DEFAULT_SEED as i64));
    doc.push("digests", digests);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json");
    std::fs::write(path, doc.render()).map_err(|e| e.to_string())
}

/// Runs the suite; `Ok(true)` when nothing failed.
///
/// # Errors
///
/// A child that could not be run, or unreadable output files.
pub fn run(a: &SuiteArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&a.out).map_err(|e| e.to_string())?;
    let mut sets = vec![run_set(a)?];
    if a.selfcheck {
        sets.push(run_set(a)?);
    }
    let mut problems = Vec::new();
    for rows in &sets {
        print_set(rows);
        for row in rows {
            let failed = ops_failed(&row.end_to_end) + ops_failed(&row.per_layer);
            if failed > 0 {
                problems.push(format!("{}: ops_failed {failed}", row.name));
            }
        }
    }
    if a.selfcheck {
        problems.extend(selfcheck(&sets[0], &sets[1]));
    }
    if a.update_golden {
        if a.seed != DEFAULT_SEED {
            return Err("golden.json is defined at the default seed only".to_string());
        }
        write_golden(&sets[0])?;
    }
    let mut doc = Json::obj();
    doc.push("schema", Json::Str("punchsim-perf-results/v1".to_string()));
    doc.push("seed", Json::Int(a.seed as i64));
    doc.push("run_seconds", Json::Int(a.seconds as i64));
    doc.push(
        "threads",
        Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
    );
    doc.push(
        "validation",
        Json::Str(
            "model unvalidated against hardware (paper-shape comparison only); no error figure"
                .to_string(),
        ),
    );
    doc.push(
        "sets",
        Json::Arr(sets.iter().map(|s| set_json(s)).collect()),
    );
    doc.push(
        "problems",
        Json::Arr(problems.iter().cloned().map(Json::Str).collect()),
    );
    doc.push("claim", Json::Null);
    std::fs::write(a.out.join("results.json"), doc.render()).map_err(|e| e.to_string())?;
    for p in &problems {
        println!("FAIL {p}");
    }
    println!(
        "perf: {} workloads, {} problem(s); {}",
        ALL.len(),
        problems.len(),
        a.out.join("results.json").display()
    );
    Ok(problems.is_empty())
}
