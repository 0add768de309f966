//! The perf-regression gate: diff two campaign artifacts under tolerances.
//!
//! CI runs the smoke campaign, then compares its `BENCH_*.json` against the
//! checked-in `bench/baseline.json`. Three tier-1 metrics are gated per
//! run: delivered packets, average latency, and watchdog escalations. The
//! simulator is seed-deterministic, so the tolerances exist only to absorb
//! cross-platform libm differences (the synthetic arrival process draws
//! through `f64::ln`), not to forgive real regressions — an injected 10%
//! latency regression fails the default 5% gate with room to spare.

use crate::Json;

/// Allowed drift per gated metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Tolerances {
    /// Relative drift allowed on mean latency (0.05 = ±5%).
    pub latency_rel: f64,
    /// Relative drift allowed on delivered packets.
    pub delivered_rel: f64,
    /// Absolute drift allowed on escalation counts (healthy runs have 0;
    /// any systematic growth is a power-gating bug, not noise).
    pub escalations_abs: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            latency_rel: 0.05,
            delivered_rel: 0.02,
            escalations_abs: 2.0,
        }
    }
}

/// One gated metric outside tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Deviation {
    /// Run id.
    pub id: String,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
}

impl Deviation {
    /// Signed relative drift (`+0.10` = 10% above baseline).
    pub fn relative(&self) -> f64 {
        if self.baseline == 0.0 {
            if self.current == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.current / self.baseline - 1.0
        }
    }
}

impl std::fmt::Display for Deviation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} {:.4} -> {:.4} ({:+.1}%)",
            self.id,
            self.metric,
            self.baseline,
            self.current,
            self.relative() * 100.0
        )
    }
}

/// The outcome of one artifact-vs-artifact comparison.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Run ids checked in both artifacts.
    pub checked: usize,
    /// Gated metrics outside tolerance.
    pub deviations: Vec<Deviation>,
    /// Baseline run ids missing from the current artifact (a silently
    /// dropped configuration is a regression too).
    pub missing: Vec<String>,
    /// Current run ids absent from the baseline (informational: new
    /// configurations that are not yet gated).
    pub extra: Vec<String>,
    /// Error entries in the current artifact (`errors[].id`): runs that
    /// panicked or stalled. Always fatal.
    pub run_errors: Vec<String>,
}

impl Comparison {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.deviations.is_empty() && self.missing.is_empty() && self.run_errors.is_empty()
    }
}

fn runs_by_id(doc: &Json) -> Result<Vec<(&str, &Json)>, String> {
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("artifact has no runs array")?;
    runs.iter()
        .map(|r| {
            let id = r
                .get("id")
                .and_then(Json::as_str)
                .ok_or("run entry without id")?;
            let metrics = r.get("metrics").ok_or("run entry without metrics")?;
            Ok((id, metrics))
        })
        .collect()
}

fn metric(metrics: &Json, key: &str) -> Result<f64, String> {
    metrics
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("metric {key} missing or non-numeric"))
}

/// Compares parsed artifacts.
///
/// # Errors
///
/// Returns a message when either document does not have the campaign
/// schema (shape errors, not metric drift — those go in [`Comparison`]).
pub fn compare(baseline: &Json, current: &Json, tol: &Tolerances) -> Result<Comparison, String> {
    for (doc, which) in [(baseline, "baseline"), (current, "current")] {
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != crate::spec::SCHEMA_VERSION {
            return Err(format!(
                "{which} artifact schema {schema:?} != {:?}",
                crate::spec::SCHEMA_VERSION
            ));
        }
    }
    let base_runs = runs_by_id(baseline)?;
    let cur_runs = runs_by_id(current)?;
    let mut cmp = Comparison::default();
    if let Some(errors) = current.get("errors").and_then(Json::as_arr) {
        for e in errors {
            let id = e.get("id").and_then(Json::as_str).unwrap_or("<unknown>");
            cmp.run_errors.push(id.to_string());
        }
    }
    for (id, base_metrics) in &base_runs {
        let Some((_, cur_metrics)) = cur_runs.iter().find(|(cid, _)| cid == id) else {
            cmp.missing.push(id.to_string());
            continue;
        };
        cmp.checked += 1;
        for (key, rel_tol, abs_tol) in [
            ("delivered", Some(tol.delivered_rel), None),
            ("latency", Some(tol.latency_rel), None),
            ("escalations", None, Some(tol.escalations_abs)),
        ] {
            let b = metric(base_metrics, key)?;
            let c = metric(cur_metrics, key)?;
            let ok = match (rel_tol, abs_tol) {
                (Some(rel), _) => {
                    if b == 0.0 {
                        c == 0.0
                    } else {
                        ((c - b) / b).abs() <= rel
                    }
                }
                (None, Some(abs)) => (c - b).abs() <= abs,
                (None, None) => unreachable!(),
            };
            if !ok {
                cmp.deviations.push(Deviation {
                    id: id.to_string(),
                    metric: key,
                    baseline: b,
                    current: c,
                });
            }
        }
    }
    for (id, _) in &cur_runs {
        if !base_runs.iter().any(|(bid, _)| bid == id) {
            cmp.extra.push(id.to_string());
        }
    }
    Ok(cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(runs: &[(&str, u64, f64, u64)]) -> Json {
        let mut doc = Json::obj();
        doc.push("schema", Json::Str(crate::spec::SCHEMA_VERSION.to_string()));
        doc.push("name", Json::Str("t".to_string()));
        let runs = runs
            .iter()
            .map(|(id, delivered, latency, escalations)| {
                let mut m = Json::obj();
                m.push("delivered", Json::Int(*delivered as i64));
                m.push("latency", Json::Float(*latency));
                m.push("escalations", Json::Int(*escalations as i64));
                let mut r = Json::obj();
                r.push("id", Json::Str(id.to_string()));
                r.push("metrics", m);
                r
            })
            .collect();
        doc.push("runs", Json::Arr(runs));
        doc.push("errors", Json::Arr(vec![]));
        doc
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = artifact(&[("x/ppf/s1", 1000, 30.0, 0), ("y/ppf/s1", 900, 40.0, 0)]);
        let cmp = compare(&a, &a, &Tolerances::default()).unwrap();
        assert!(cmp.passed());
        assert_eq!(cmp.checked, 2);
    }

    #[test]
    fn ten_percent_latency_regression_fails_default_gate() {
        let base = artifact(&[("x/ppf/s1", 1000, 30.0, 0)]);
        let bad = artifact(&[("x/ppf/s1", 1000, 33.0, 0)]);
        let cmp = compare(&base, &bad, &Tolerances::default()).unwrap();
        assert!(!cmp.passed());
        assert_eq!(cmp.deviations.len(), 1);
        assert_eq!(cmp.deviations[0].metric, "latency");
        assert!((cmp.deviations[0].relative() - 0.10).abs() < 1e-9);
    }

    #[test]
    fn small_drift_within_tolerance_passes() {
        let base = artifact(&[("x/ppf/s1", 1000, 30.0, 0)]);
        let ok = artifact(&[("x/ppf/s1", 1005, 30.6, 1)]);
        assert!(compare(&base, &ok, &Tolerances::default())
            .unwrap()
            .passed());
    }

    #[test]
    fn escalation_growth_fails() {
        let base = artifact(&[("x/ppf/s1", 1000, 30.0, 0)]);
        let bad = artifact(&[("x/ppf/s1", 1000, 30.0, 5)]);
        let cmp = compare(&base, &bad, &Tolerances::default()).unwrap();
        assert_eq!(cmp.deviations.len(), 1);
        assert_eq!(cmp.deviations[0].metric, "escalations");
    }

    #[test]
    fn missing_runs_fail_extra_runs_inform() {
        let base = artifact(&[("a", 10, 1.0, 0), ("b", 10, 1.0, 0)]);
        let cur = artifact(&[("a", 10, 1.0, 0), ("c", 10, 1.0, 0)]);
        let cmp = compare(&base, &cur, &Tolerances::default()).unwrap();
        assert!(!cmp.passed());
        assert_eq!(cmp.missing, vec!["b".to_string()]);
        assert_eq!(cmp.extra, vec!["c".to_string()]);
    }

    #[test]
    fn run_errors_in_current_are_fatal() {
        let base = artifact(&[("a", 10, 1.0, 0)]);
        let mut cur = artifact(&[("a", 10, 1.0, 0)]);
        let mut e = Json::obj();
        e.push("id", Json::Str("b".to_string()));
        e.push("kind", Json::Str("panic".to_string()));
        e.push("message", Json::Str("boom".to_string()));
        // Replace the empty errors array.
        if let Json::Obj(pairs) = &mut cur {
            pairs.retain(|(k, _)| k != "errors");
        }
        cur.push("errors", Json::Arr(vec![e]));
        let cmp = compare(&base, &cur, &Tolerances::default()).unwrap();
        assert!(!cmp.passed());
        assert_eq!(cmp.run_errors, vec!["b".to_string()]);
    }

    #[test]
    fn wrong_schema_is_a_shape_error() {
        let mut bad = artifact(&[]);
        if let Json::Obj(pairs) = &mut bad {
            pairs[0].1 = Json::Str("other/v9".to_string());
        }
        let good = artifact(&[]);
        assert!(compare(&bad, &good, &Tolerances::default()).is_err());
        assert!(compare(&good, &bad, &Tolerances::default()).is_err());
    }
}
