//! Campaign artifacts: the deterministic `BENCH_<name>.json` and its
//! wall-clock timing sidecar.
//!
//! The split exists because the two files have incompatible contracts. The
//! main artifact contains only spec-determined data, so equal specs produce
//! byte-identical files no matter the thread count or machine load — that
//! is what the determinism test pins and what CI diffs against the
//! baseline. Wall-clock throughput (cycles/sec), cache hits and worker
//! counts are real observability data but inherently nondeterministic, so
//! they live in `BENCH_<name>.timing.json` next door.

use std::io;
use std::path::{Path, PathBuf};

use crate::runner::Outcome;
use crate::spec::SCHEMA_VERSION;
use crate::Json;

/// Timing-sidecar schema tag. v2 added per-run shard-thread counters and
/// the optional campaign-level merged metric registry; v3 added per-run
/// worker-pool counters; v4 made every run's `series` tile its measured
/// window (PARSEC rows used to start at cycle 0 and stop at the last whole
/// interval); v5 dropped the four per-run thread and pool counters, which
/// could only read 0 once campaign runs stopped sharding.
pub const TIMING_SCHEMA_VERSION: &str = "punchsim-campaign-timing/v5";

/// A finished campaign, ready to render into artifacts.
#[derive(Debug)]
pub struct CampaignReport {
    /// Campaign name; artifacts are `BENCH_<name>.json`.
    pub name: String,
    /// Worker threads the campaign ran with.
    pub threads: usize,
    /// Per-spec outcomes, in spec order.
    pub outcomes: Vec<Outcome>,
    /// Whole-campaign wall-clock time.
    pub wall_nanos: u64,
}

impl CampaignReport {
    /// Number of failed runs.
    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| o.error().is_some()).count()
    }

    /// The deterministic artifact document.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.push("schema", Json::Str(SCHEMA_VERSION.to_string()));
        doc.push("name", Json::Str(self.name.clone()));
        let mut runs = Vec::new();
        let mut errors = Vec::new();
        for outcome in &self.outcomes {
            match outcome {
                Outcome::Done(rec) => {
                    let mut r = Json::obj();
                    r.push("id", Json::Str(rec.spec.id()));
                    r.push("scheme", Json::Str(rec.spec.scheme.tag().to_string()));
                    r.push("seed", Json::Int(rec.spec.seed as i64));
                    r.push("workload", rec.spec.workload_json());
                    r.push("metrics", rec.metrics.to_json());
                    runs.push(r);
                }
                Outcome::Failed(err) => {
                    let mut e = Json::obj();
                    e.push("id", Json::Str(err.id.clone()));
                    let (kind, message) = match &err.kind {
                        crate::runner::RunErrorKind::Panic(m) => ("panic", m),
                        crate::runner::RunErrorKind::Sim(m) => ("sim", m),
                    };
                    e.push("kind", Json::Str(kind.to_string()));
                    e.push("message", Json::Str(message.clone()));
                    errors.push(e);
                }
            }
        }
        doc.push("runs", Json::Arr(runs));
        doc.push("errors", Json::Arr(errors));
        doc
    }

    /// The nondeterministic timing sidecar (wall-clock, cache hits,
    /// simulator throughput in cycles/sec).
    pub fn timing_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.push("schema", Json::Str(TIMING_SCHEMA_VERSION.to_string()));
        doc.push("name", Json::Str(self.name.clone()));
        doc.push("threads", Json::Int(self.threads as i64));
        doc.push("wall_nanos", Json::Int(self.wall_nanos as i64));
        let sim_cycles: u64 = self
            .outcomes
            .iter()
            .filter_map(Outcome::record)
            .filter(|r| !r.cached)
            .map(|r| r.metrics.total_cycles)
            .sum();
        doc.push("simulated_cycles", Json::Int(sim_cycles as i64));
        if self.wall_nanos > 0 {
            doc.push(
                "cycles_per_sec",
                Json::Float(sim_cycles as f64 * 1e9 / self.wall_nanos as f64),
            );
        }
        let mut runs = Vec::new();
        for rec in self.outcomes.iter().filter_map(Outcome::record) {
            let mut r = Json::obj();
            r.push("id", Json::Str(rec.spec.id()));
            r.push("cached", Json::Bool(rec.cached));
            r.push("wall_nanos", Json::Int(rec.wall_nanos as i64));
            if let Some(cps) = rec.cycles_per_sec() {
                r.push("cycles_per_sec", Json::Float(cps));
            }
            if !rec.series.is_empty() {
                r.push(
                    "series",
                    Json::Arr(rec.series.iter().map(|row| row.to_json()).collect()),
                );
            }
            runs.push(r);
        }
        doc.push("runs", Json::Arr(runs));
        if let Some(merged) = self.merged_registry() {
            doc.push("metrics", merged.to_json());
        }
        doc
    }

    /// The campaign-wide metric registry: every run's registry merged in
    /// spec order. Merging is order-independent (counters add, histograms
    /// merge elementwise, planes add cell-wise), so the result is the same
    /// no matter which worker ran which spec. `None` when no run collected
    /// metrics.
    pub fn merged_registry(&self) -> Option<punchsim_obs::metrics::Registry> {
        let mut merged: Option<punchsim_obs::metrics::Registry> = None;
        for rec in self.outcomes.iter().filter_map(Outcome::record) {
            if let Some(reg) = &rec.registry {
                merged
                    .get_or_insert_with(punchsim_obs::metrics::Registry::new)
                    .merge(reg);
            }
        }
        merged
    }

    /// Writes both artifacts into `dir` and returns their paths
    /// (deterministic artifact first).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if `dir` cannot be created or a
    /// file cannot be written.
    pub fn write_artifacts(&self, dir: &Path) -> io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let main = dir.join(format!("BENCH_{}.json", self.name));
        let timing = dir.join(format!("BENCH_{}.timing.json", self.name));
        std::fs::write(&main, self.to_json().render())?;
        std::fs::write(&timing, self.timing_json().render())?;
        Ok((main, timing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficPattern;
    use punchsim_types::{Mesh, RoutingKind, SchemeKind};

    use crate::runner::Runner;
    use crate::spec::{ObserveOpts, RunSpec, Workload};

    fn tiny_campaign() -> CampaignReport {
        let specs = vec![
            RunSpec {
                scheme: SchemeKind::NoPg,
                seed: 1,
                workload: Workload::Synthetic {
                    pattern: TrafficPattern::Neighbor,
                    topo: Mesh::new(4, 4).into(),
                    routing: RoutingKind::Xy,
                    rate: 0.02,
                    warmup_cycles: 50,
                    measure_cycles: 200,
                },
            },
            // Poisoned: surfaces as an `errors` entry, not a dead campaign.
            RunSpec {
                scheme: SchemeKind::NoPg,
                seed: 2,
                workload: Workload::Synthetic {
                    pattern: TrafficPattern::Neighbor,
                    topo: Mesh::new(4, 4).into(),
                    routing: RoutingKind::Xy,
                    rate: -1.0,
                    warmup_cycles: 50,
                    measure_cycles: 200,
                },
            },
        ];
        let runner = Runner {
            threads: 1,
            store: None,
            ..Default::default()
        };
        CampaignReport {
            name: "tiny".to_string(),
            threads: 1,
            outcomes: runner.run(&specs),
            wall_nanos: 12345,
        }
    }

    #[test]
    fn artifact_has_runs_and_errors() {
        let report = tiny_campaign();
        let doc = report.to_json();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA_VERSION));
        assert_eq!(doc.get("runs").unwrap().as_arr().unwrap().len(), 1);
        let errors = doc.get("errors").unwrap().as_arr().unwrap();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].get("kind").unwrap().as_str(), Some("sim"));
        assert_eq!(report.failures(), 1);
        // The artifact re-parses.
        Json::parse(&doc.render()).unwrap();
    }

    #[test]
    fn timing_sidecar_reports_throughput() {
        let report = tiny_campaign();
        let t = report.timing_json();
        assert_eq!(
            t.get("schema").unwrap().as_str(),
            Some(TIMING_SCHEMA_VERSION)
        );
        // One successful 250-cycle run.
        assert_eq!(t.get("simulated_cycles").unwrap().as_u64(), Some(250));
        assert!(t.get("cycles_per_sec").unwrap().as_f64().unwrap() > 0.0);
        // No sampling requested: no series key in the sidecar, so a run
        // carries exactly its id, cache flag and timings (v5: no thread or
        // pool counters).
        let runs = t.get("runs").unwrap().as_arr().unwrap();
        let Json::Obj(fields) = &runs[0] else {
            panic!("a run is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["id", "cached", "wall_nanos", "cycles_per_sec"]);
        // No metrics requested: no campaign-level registry either.
        assert!(t.get("metrics").is_none());
    }

    #[test]
    fn timing_sidecar_carries_merged_metrics_when_collected() {
        let specs = vec![
            RunSpec {
                scheme: SchemeKind::ConvOptPg,
                seed: 4,
                workload: Workload::Synthetic {
                    pattern: TrafficPattern::Neighbor,
                    topo: Mesh::new(4, 4).into(),
                    routing: RoutingKind::Xy,
                    rate: 0.02,
                    warmup_cycles: 50,
                    measure_cycles: 200,
                },
            },
            RunSpec {
                scheme: SchemeKind::PowerPunchFull,
                seed: 4,
                workload: Workload::Synthetic {
                    pattern: TrafficPattern::Neighbor,
                    topo: Mesh::new(4, 4).into(),
                    routing: RoutingKind::Xy,
                    rate: 0.02,
                    warmup_cycles: 50,
                    measure_cycles: 200,
                },
            },
        ];
        let runner = Runner {
            threads: 2,
            observe: ObserveOpts {
                metrics: true,
                ..ObserveOpts::NONE
            },
            ..Default::default()
        };
        let report = CampaignReport {
            name: "metered".to_string(),
            threads: 2,
            outcomes: runner.run(&specs),
            wall_nanos: 1,
        };
        // The merged registry sums the per-run deterministic counters.
        let merged = report.merged_registry().expect("metrics were collected");
        let delivered: u64 = report
            .outcomes
            .iter()
            .filter_map(Outcome::record)
            .map(|r| r.metrics.delivered)
            .sum();
        assert_eq!(merged.counter("packets_delivered_total"), delivered);
        // The sidecar embeds it; the deterministic artifact never does.
        let t = report.timing_json();
        assert!(t.get("metrics").unwrap().get("counters").is_some());
        assert!(!report.to_json().render().contains("tick_phase_nanos"));
        Json::parse(&t.render()).unwrap();
    }

    #[test]
    fn timing_sidecar_carries_series_when_sampled() {
        let specs = vec![RunSpec {
            scheme: SchemeKind::ConvOptPg,
            seed: 3,
            workload: Workload::Synthetic {
                pattern: TrafficPattern::Neighbor,
                topo: Mesh::new(4, 4).into(),
                routing: RoutingKind::Xy,
                rate: 0.02,
                warmup_cycles: 50,
                measure_cycles: 200,
            },
        }];
        let runner = Runner {
            threads: 1,
            observe: ObserveOpts {
                sample_every: 100,
                ..ObserveOpts::NONE
            },
            ..Default::default()
        };
        let report = CampaignReport {
            name: "sampled".to_string(),
            threads: 1,
            outcomes: runner.run(&specs),
            wall_nanos: 1,
        };
        let t = report.timing_json();
        let runs = t.get("runs").unwrap().as_arr().unwrap();
        let series = runs[0].get("series").unwrap().as_arr().unwrap();
        assert_eq!(series.len(), 2);
        assert!(series[0].get("off_fraction").unwrap().as_f64().is_some());
        // The deterministic artifact is oblivious to sampling.
        assert!(!report.to_json().render().contains("\"series\""));
        // And the sidecar still re-parses.
        Json::parse(&t.render()).unwrap();
    }

    #[test]
    fn artifacts_write_to_disk() {
        let dir = std::env::temp_dir().join(format!("punchsim-report-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = tiny_campaign();
        let (main, timing) = report.write_artifacts(&dir).unwrap();
        assert!(main.ends_with("BENCH_tiny.json"));
        let text = std::fs::read_to_string(&main).unwrap();
        assert_eq!(text, report.to_json().render());
        assert!(timing.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
