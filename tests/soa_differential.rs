//! Differential conformance suite for the shipped tick kernel: the SoA
//! busy sweep, quiescence fast-forward and the sharded two-phase tick.
//!
//! Reference: `Network::use_reference_kernel` — the object-at-a-time
//! struct sweep ticking literally every cycle. Every case runs the same
//! experiment on the oracle and on the shipped kernel at several shard
//! counts, comparing the clock, per-router power states, PG counters and
//! the full bit-exact [`NetworkReport`] at every checkpoint. The kernel
//! and the shard count are execution details; any observable divergence
//! is a bug.

use punchsim::prelude::*;
use punchsim::traffic::InjectionConfig;

/// Exact digest of a report: every field of [`NetworkReport`] (f64 Debug
/// formatting round-trips, so string equality is bit equality).
fn digest(r: &NetworkReport) -> String {
    format!("{r:?}")
}

/// `shards: None` builds the reference oracle, `Some(n)` the shipped
/// kernel on `n` shards.
fn build(
    cfg: &SimConfig,
    pattern: TrafficPattern,
    inj: &InjectionConfig,
    shards: Option<usize>,
) -> SyntheticSim {
    let mut sim = SyntheticSim::with_injection(cfg.clone(), pattern, inj.clone());
    let net = sim.network_mut();
    match shards {
        None => net.use_reference_kernel(),
        Some(n) => net.set_shards(n).expect("valid shard count"),
    }
    sim
}

fn assert_same_state(label: &str, at: u64, a: &SyntheticSim, b: &SyntheticSim) {
    let (an, bn) = (a.network(), b.network());
    assert_eq!(an.cycle(), bn.cycle(), "{label}: clock diverged at {at}");
    assert_eq!(
        an.in_flight(),
        bn.in_flight(),
        "{label} cycle {at}: in-flight count diverged"
    );
    for r in 0..an.topology().nodes() {
        let node = NodeId(r as u16);
        assert_eq!(
            an.power_state(node),
            bn.power_state(node),
            "{label} cycle {at}: power state of router {r} diverged"
        );
    }
    let (ar, br) = (an.report(), bn.report());
    assert_eq!(ar.pg, br.pg, "{label} cycle {at}: PgCounters diverged");
    assert_eq!(
        digest(&ar),
        digest(&br),
        "{label} cycle {at}: NetworkReport diverged"
    );
}

/// One row of the differential table.
struct Case {
    name: &'static str,
    topo: Substrate,
    scheme: SchemeKind,
    inj: InjectionConfig,
    warmup: u64,
    measure: u64,
    chunk: u64,
}

/// Mixed load on the small substrates (moderate rate with bursts, so the
/// network oscillates between busy sweeps and quiescent gaps), plus the
/// two regimes the retired CI ratio gates ran at shortened windows: the
/// busy suite's sparse-busy 16x16/32x32 meshes (rate 5e-4, never
/// quiescent) and the fastpath suite's idle-dominated 8x8 (rate 5e-5,
/// mostly skipped).
fn cases() -> Vec<Case> {
    let mut mixed = InjectionConfig::at_rate(0.02);
    mixed.burstiness = 0.5;
    mixed.slack2_cycles = 6;
    let trio = [
        SchemeKind::NoPg,
        SchemeKind::ConvOptPg,
        SchemeKind::PowerPunchFull,
    ];
    let small: [(&'static str, Substrate); 3] = [
        ("mesh8x8", Mesh::new(8, 8).into()),
        ("torus8x8", Substrate::Torus(Torus::new(8, 8))),
        ("cmesh4x4c4", Substrate::CMesh(CMesh::new(4, 4, 4))),
    ];
    let mut cases: Vec<Case> = small
        .into_iter()
        .zip(trio)
        .map(|((name, topo), scheme)| Case {
            name,
            topo,
            scheme,
            inj: mixed.clone(),
            warmup: 200,
            measure: 800,
            chunk: 100,
        })
        .collect();
    for scheme in trio {
        cases.push(Case {
            name: "busy16x16",
            topo: Mesh::new(16, 16).into(),
            scheme,
            inj: InjectionConfig::at_rate(0.0005),
            warmup: 300,
            measure: 1_500,
            chunk: 500,
        });
        cases.push(Case {
            name: "busy32x32",
            topo: Mesh::new(32, 32).into(),
            scheme,
            inj: InjectionConfig::at_rate(0.0005),
            warmup: 200,
            measure: 800,
            chunk: 400,
        });
        cases.push(Case {
            name: "idle8x8",
            topo: Mesh::new(8, 8).into(),
            scheme,
            inj: InjectionConfig::at_rate(0.00005),
            warmup: 5_000,
            measure: 40_000,
            chunk: 10_000,
        });
    }
    cases
}

/// Every shard count of the shipped kernel must track the oracle in
/// lock-step, checkpoint by checkpoint, on every row of the table.
#[test]
fn soa_kernel_is_observably_identical_to_struct_reference() {
    for (i, case) in cases().into_iter().enumerate() {
        let mut cfg = SimConfig::with_scheme(case.scheme);
        cfg.noc.topology = case.topo;
        cfg.seed = 0x50A0 + i as u64;
        let pattern = TrafficPattern::UniformRandom;
        let mut reference = build(&cfg, pattern, &case.inj, None);
        let mut subjects: Vec<(String, SyntheticSim)> = [1usize, 3, 4]
            .into_iter()
            .map(|shards| {
                (
                    format!("{}/{:?} x{shards}", case.name, case.scheme),
                    build(&cfg, pattern, &case.inj, Some(shards)),
                )
            })
            .collect();
        reference.run(case.warmup).unwrap();
        reference.network_mut().reset_stats();
        for (label, s) in &mut subjects {
            s.run(case.warmup).unwrap();
            s.network_mut().reset_stats();
            assert_same_state(label, case.warmup, s, &reference);
        }
        let mut at = case.warmup;
        for _ in 0..(case.measure / case.chunk) {
            reference.run(case.chunk).unwrap();
            at += case.chunk;
            for (label, s) in &mut subjects {
                s.run(case.chunk).unwrap();
                assert_same_state(label, at, s, &reference);
            }
        }
    }
}

/// Shard-count validation is a typed `ConfigError`, not a panic.
#[test]
fn shard_count_validation_returns_typed_errors() {
    let cfg = SimConfig::with_scheme(SchemeKind::NoPg);
    let mut sim = SyntheticSim::new(cfg, TrafficPattern::UniformRandom, 0.0);
    let net = sim.network_mut();
    // Default 8x8 mesh: 8 router rows.
    assert!(matches!(net.set_shards(0), Err(ConfigError::ZeroShards)));
    assert!(matches!(
        net.set_shards(9),
        Err(ConfigError::ShardsExceedRows { shards: 9, rows: 8 })
    ));
    // The error carries a human-readable message for the CLI.
    let msg = ConfigError::ShardsExceedRows { shards: 9, rows: 8 }.to_string();
    assert!(msg.contains('9') && msg.contains('8'), "{msg}");
    // Valid counts stick; invalid attempts leave the old value in place.
    net.set_shards(8).unwrap();
    assert_eq!(net.shards(), 8);
    net.set_shards(10).unwrap_err();
    assert_eq!(net.shards(), 8);
    // The network still ticks normally after rejected reconfigurations.
    sim.run(100).unwrap();
}
