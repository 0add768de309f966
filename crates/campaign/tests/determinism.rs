//! Campaign-level determinism: the same specs and seeds must produce
//! byte-identical deterministic artifacts on 1 worker and on N workers,
//! with or without the result store in the loop.

use punchsim_campaign::traffic::TrafficPattern;
use punchsim_campaign::{CampaignReport, Json, RunSpec, Runner, Store, Workload};
use punchsim_types::{Mesh, RoutingKind, SchemeKind};

fn specs() -> Vec<RunSpec> {
    let mut v = Vec::new();
    for (i, pattern) in [
        TrafficPattern::UniformRandom,
        TrafficPattern::Transpose,
        TrafficPattern::Neighbor,
    ]
    .into_iter()
    .enumerate()
    {
        for scheme in [SchemeKind::ConvOptPg, SchemeKind::PowerPunchFull] {
            v.push(RunSpec {
                scheme,
                seed: 40 + i as u64,
                workload: Workload::Synthetic {
                    pattern,
                    topo: Mesh::new(4, 4).into(),
                    routing: RoutingKind::Xy,
                    rate: 0.03,
                    warmup_cycles: 100,
                    measure_cycles: 500,
                },
            });
        }
    }
    v
}

fn artifact_bytes(threads: usize, store: Option<Store>) -> String {
    let specs = specs();
    let runner = Runner {
        threads,
        store,
        ..Default::default()
    };
    let report = CampaignReport {
        name: "determinism".to_string(),
        threads,
        outcomes: runner.run(&specs),
        // Wall-clock never enters the deterministic artifact; prove it by
        // varying it wildly here.
        wall_nanos: 1_000_000 * threads as u64,
    };
    assert_eq!(report.failures(), 0);
    report.to_json().render()
}

#[test]
fn one_thread_and_many_threads_render_identical_artifacts() {
    let serial = artifact_bytes(1, None);
    let parallel = artifact_bytes(4, None);
    assert_eq!(
        serial, parallel,
        "artifact bytes must not depend on threads"
    );
    // And the artifact is valid JSON with every run present.
    let doc = Json::parse(&serial).unwrap();
    assert_eq!(
        doc.get("runs").unwrap().as_arr().unwrap().len(),
        specs().len()
    );
}

#[test]
fn cache_hits_render_the_same_artifact_as_fresh_runs() {
    let dir =
        std::env::temp_dir().join(format!("punchsim-determinism-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fresh = artifact_bytes(2, Some(Store::new(&dir)));
    let cached = artifact_bytes(3, Some(Store::new(&dir)));
    assert_eq!(fresh, cached, "cache hits must not change artifact bytes");
    assert_eq!(fresh, artifact_bytes(1, None));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spec_order_is_preserved_in_the_artifact() {
    let specs = specs();
    let runner = Runner {
        threads: 4,
        store: None,
        ..Default::default()
    };
    let outcomes = runner.run(&specs);
    let ids: Vec<String> = outcomes
        .iter()
        .map(|o| o.record().unwrap().spec.id())
        .collect();
    let expected: Vec<String> = specs.iter().map(RunSpec::id).collect();
    assert_eq!(ids, expected);
}
