//! Metrics are pure observation: collecting them never changes results.
//!
//! The registry, the latency histogram, the per-router planes and the
//! tick-phase profiler all ride along with the simulation; this file pins
//! the contract that none of them steers it. Three angles:
//!
//! * **Spec level** — `execute_observed` with metrics requested returns
//!   the exact [`Metrics`] that plain `execute` produces, across schemes
//!   and substrates (the same invariant PR 3 pinned for the event sink).
//! * **Kernel level** — enabling the profiler leaves [`PgCounters`] —
//!   including the new per-router attribution vectors — bit-identical
//!   between the shipped kernel and the reference oracle.
//! * **Internal consistency** — the exported planes sum to their global
//!   counters and the histogram agrees with the report percentiles, so a
//!   heatmap and a summary table drawn from the same registry can never
//!   contradict each other.

use punchsim::campaign::{ObserveOpts, RunSpec, Workload};
use punchsim::metrics::validate_exposition;
use punchsim::prelude::*;
use punchsim::types::Torus;

fn spec(scheme: SchemeKind, topo: Substrate, routing: RoutingKind) -> RunSpec {
    RunSpec {
        scheme,
        seed: 0xC0FFEE,
        workload: Workload::Synthetic {
            pattern: TrafficPattern::UniformRandom,
            topo,
            routing,
            rate: 0.02,
            warmup_cycles: 200,
            measure_cycles: 800,
        },
    }
}

/// Metrics-on vs metrics-off: the deterministic [`Metrics`] must be
/// equal, across every scheme and a non-default substrate/routing pair.
#[test]
fn metrics_collection_never_changes_results() {
    let substrates: [(Substrate, RoutingKind); 2] = [
        (Mesh::new(4, 4).into(), RoutingKind::Xy),
        (Torus::new(4, 4).into(), RoutingKind::Yx),
    ];
    for scheme in [
        SchemeKind::NoPg,
        SchemeKind::ConvOptPg,
        SchemeKind::PowerPunchSignal,
        SchemeKind::PowerPunchFull,
    ] {
        for (topo, routing) in substrates {
            let s = spec(scheme, topo, routing);
            let plain = s.execute().expect("healthy spec");
            let observed = s
                .execute_observed(ObserveOpts {
                    metrics: true,
                    ..ObserveOpts::NONE
                })
                .expect("healthy spec");
            assert_eq!(observed.metrics, plain, "{} drifted under metrics", s.id());
            assert!(observed.registry.is_some(), "{} lost its registry", s.id());
        }
    }
}

/// One profiled synthetic run on the shipped kernel or the reference
/// oracle; returns the report and the exported registry.
fn profiled_run(reference: bool, profiled: bool) -> (NetworkReport, Registry) {
    let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
    cfg.noc.topology = Mesh::new(6, 6).into();
    let mut sim = SyntheticSim::new(cfg, TrafficPattern::UniformRandom, 0.01);
    if reference {
        sim.network_mut().use_reference_kernel();
    }
    if profiled {
        sim.network_mut().enable_profiler();
    }
    let r = sim
        .run_experiment(300, 1_500)
        .expect("healthy run must complete");
    let mut reg = Registry::new();
    sim.network().export_metrics(&mut reg);
    (r, reg)
}

/// The profiler is wall-clock-only: switching it on, on either kernel,
/// leaves every power-gating counter — globals and the per-router
/// attribution vectors — bit-identical.
#[test]
fn profiler_leaves_pg_counters_identical_across_kernels() {
    let (reference, _) = profiled_run(true, false);
    for oracle in [true, false] {
        for profiled in [false, true] {
            let (r, _) = profiled_run(oracle, profiled);
            assert_eq!(
                r.pg, reference.pg,
                "PgCounters drifted: oracle {oracle}, profiled {profiled}"
            );
            assert_eq!(r.stats.packets_delivered, reference.stats.packets_delivered);
            assert_eq!(r.latency_p50(), reference.latency_p50());
            assert_eq!(r.latency_p99(), reference.latency_p99());
            assert_eq!(r.latency_max(), reference.latency_max());
        }
    }
}

/// Planes sum to their globals, the histogram matches the report, and
/// the whole registry renders to a valid Prometheus exposition.
#[test]
fn exported_registry_is_internally_consistent() {
    let (r, reg) = profiled_run(false, true);
    assert_eq!(
        reg.plane("router_wu_assertions").expect("exported").total(),
        r.pg.wu_assertions,
        "per-router WU plane must sum to the global counter"
    );
    assert_eq!(
        reg.plane("router_escalations").expect("exported").total(),
        r.pg.escalations,
    );
    assert_eq!(
        reg.plane("router_punch_hops")
            .expect("ppf exports it")
            .total(),
        r.pg.punch_hops,
        "per-router punch plane must sum to the global counter"
    );
    let hist = reg.hist("packet_latency_cycles").expect("exported");
    assert_eq!(hist.count(), r.stats.packets_delivered);
    assert_eq!(hist.max(), r.latency_max());
    assert_eq!(
        reg.counter("packets_delivered_total"),
        r.stats.packets_delivered
    );
    let expo = reg.to_prometheus();
    let stats = validate_exposition(&expo).expect("exposition must parse");
    assert!(stats.samples > 0);
    assert_eq!(stats.histograms, 1);
}
