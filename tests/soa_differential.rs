//! Differential conformance suite for the shipped tick kernel: the SoA
//! busy sweep, the quiet-span fast-forward and the sharded two-phase tick.
//!
//! Reference: `Network::use_reference_kernel` — the object-at-a-time
//! struct sweep ticking literally every cycle. Every case runs the same
//! experiment on the oracle and on the shipped kernel at several shard
//! counts, comparing the clock, per-router power states, PG counters and
//! the full bit-exact [`NetworkReport`] at every checkpoint. The kernel
//! and the shard count are execution details; any observable divergence
//! is a bug.

use punchsim::noc::{Message, MsgClass};
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
    /// Link traversal cycles (1 is the Table 2 default every other suite
    /// runs; more planes of the delivery wheels are live at 3).
    link: u8,
    /// The router ([`table2`] everywhere but the two rows that move every
    /// VC ring's offset and wrap point and the 4-stage row).
    router: fn(&mut NocConfig),
    scheme: SchemeKind,
    inj: InjectionConfig,
    warmup: u64,
    measure: u64,
    chunk: u64,
}

/// Table 2's router: 3 stages, three vnets of two 3-flit data VCs and one
/// 1-flit control VC.
fn table2(_: &mut NocConfig) {}

/// `BW | VA | SA | ST`: a head that wins VA waits a cycle for SA.
fn four_stage(noc: &mut NocConfig) {
    noc.router_stages = 4;
}

/// 5-flit data and 2-flit control VCs.
fn deep(noc: &mut NocConfig) {
    noc.data_vc_depth = 5;
    noc.ctrl_vc_depth = 2;
}

/// The widest legal layout: 4 vnets x 8 VCs, the 32-bit mask width.
fn widest(noc: &mut NocConfig) {
    noc.vnets = 4;
    noc.data_vcs_per_vnet = 5;
    noc.ctrl_vcs_per_vnet = 3;
    assert_eq!(noc.vcs_per_port(), NocConfig::MAX_VCS_PER_PORT);
}

/// Mixed load on the small substrates (moderate rate with bursts, so the
/// network oscillates between busy sweeps and quiescent gaps), plus the
/// same mixed load over 3-cycle links, under two other VC layouts and on
/// 4-stage routers, plus the two regimes the retired CI ratio gates ran at
/// shortened windows: the busy suite's sparse-busy 16x16/32x32 meshes
/// (rate 5e-4, never quiescent) and the fastpath suite's idle-dominated 8x8
/// (rate 5e-5, mostly skipped), plus a contended 8x8 just under its knee
/// (uniform 0.35), where several inputs compete for one output and heads
/// win VA and SA in one cycle.
fn cases() -> Vec<Case> {
    let mut mixed = InjectionConfig::at_rate(0.02);
    mixed.burstiness = 0.5;
    let trio = [
        SchemeKind::NoPg,
        SchemeKind::ConvOptPg,
        SchemeKind::PowerPunchFull,
    ];
    // The 4x4 row carries four times the mixed rate, as if each of its
    // routers served four terminals.
    let mut mixed4 = InjectionConfig::at_rate(0.08);
    mixed4.burstiness = 0.5;
    let small: [(&'static str, Substrate, &InjectionConfig); 3] = [
        ("mesh8x8", Mesh::new(8, 8).into(), &mixed),
        ("torus8x8", Substrate::Torus(Torus::new(8, 8)), &mixed),
        ("mesh4x4", Mesh::new(4, 4).into(), &mixed4),
    ];
    let mut cases: Vec<Case> = small
        .into_iter()
        .zip(trio)
        .map(|((name, topo, inj), scheme)| Case {
            name,
            topo,
            link: 1,
            router: table2,
            scheme,
            inj: inj.clone(),
            warmup: 200,
            measure: 800,
            chunk: 100,
        })
        .collect();
    for scheme in trio {
        cases.push(Case {
            name: "mesh8x8-link3",
            topo: Mesh::new(8, 8).into(),
            link: 3,
            router: table2,
            scheme,
            inj: mixed.clone(),
            warmup: 200,
            measure: 800,
            chunk: 100,
        });
        cases.push(Case {
            name: "busy16x16",
            topo: Mesh::new(16, 16).into(),
            link: 1,
            router: table2,
            scheme,
            inj: InjectionConfig::at_rate(0.0005),
            warmup: 300,
            measure: 1_500,
            chunk: 500,
        });
        cases.push(Case {
            name: "busy32x32",
            topo: Mesh::new(32, 32).into(),
            link: 1,
            router: table2,
            scheme,
            inj: InjectionConfig::at_rate(0.0005),
            warmup: 200,
            measure: 800,
            chunk: 400,
        });
        cases.push(Case {
            name: "idle8x8",
            topo: Mesh::new(8, 8).into(),
            link: 1,
            router: table2,
            scheme,
            inj: InjectionConfig::at_rate(0.00005),
            warmup: 5_000,
            measure: 40_000,
            chunk: 10_000,
        });
    }
    let contended = InjectionConfig::at_rate(0.35);
    for (name, router, scheme, inj) in [
        (
            "mesh8x8-depth5/2",
            deep as fn(&mut NocConfig),
            SchemeKind::ConvOptPg,
            &mixed,
        ),
        ("mesh8x8-32vcs", widest, SchemeKind::PowerPunchFull, &mixed),
        ("mesh8x8-4stage", four_stage, SchemeKind::NoPg, &mixed),
        (
            "mesh8x8-4stage",
            four_stage,
            SchemeKind::PowerPunchFull,
            &mixed,
        ),
        ("mesh8x8-contended", table2, SchemeKind::NoPg, &contended),
        (
            "mesh8x8-contended",
            table2,
            SchemeKind::ConvOptPg,
            &contended,
        ),
    ] {
        cases.push(Case {
            name,
            topo: Mesh::new(8, 8).into(),
            link: 1,
            router,
            scheme,
            inj: inj.clone(),
            warmup: 200,
            measure: 800,
            chunk: 100,
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
        cfg.noc.link_latency = case.link;
        (case.router)(&mut cfg.noc);
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

/// With links longer than a cycle the last credits of a packet are still
/// on their wires when its tail ejects and the network goes quiescent, so
/// a fast-forward leaves them overdue and the first tick after it delivers
/// them late. That must be exact: the kernel at 1 and 3 shards is driven
/// through 1-cycle skips (`run(1)` plus a hook), short and long gaps and
/// a `run(10_000)`, each followed by a packet that needs those credits,
/// against the oracle that delivers every credit on time. Compared at every
/// hook: the clock, and the `encode_state` of a fork ticked once more —
/// the tick that lands whatever the skips left overdue. (Mid-skip the
/// kernel's own encoding legitimately shows the credit still on its wire;
/// that difference is asserted too, so the row cannot quietly stop
/// exercising late delivery.)
#[test]
fn credits_that_outlive_quiescence_are_delivered_exactly() {
    for scheme in [
        SchemeKind::NoPg,
        SchemeKind::ConvOptPg,
        SchemeKind::PowerPunchFull,
    ] {
        let mut cfg = SimConfig::with_scheme(scheme);
        cfg.noc.topology = Mesh::new(4, 4).into();
        cfg.noc.link_latency = 3;
        // Per hook: the cycle, the state, the state of a fork one tick on.
        type Log = Vec<(Cycle, Vec<u8>, Vec<u8>)>;
        let mut nets: Vec<(String, Network, Log)> = [None, Some(1), Some(3)]
            .into_iter()
            .map(|shards| {
                let pm = build_power_manager(&cfg).unwrap();
                let mut net = Network::new(&cfg.noc, pm).unwrap();
                match shards {
                    None => net.use_reference_kernel(),
                    Some(n) => net.set_shards(n).unwrap(),
                }
                (format!("{scheme:?} {shards:?}"), net, Vec::new())
            })
            .collect();
        // Runs `n` cycles on every network one at a time, logging after
        // each.
        let hooked = |nets: &mut Vec<(String, Network, Log)>, n: u64| {
            for (_, net, log) in nets.iter_mut() {
                for _ in 0..n {
                    net.run(1).unwrap();
                    let mut fork = net.try_clone().expect("no sink, clonable manager");
                    fork.tick().unwrap();
                    let (own, next) = (net.encode_state(), fork.encode_state());
                    log.push((
                        net.cycle(),
                        own.expect("encodable"),
                        next.expect("encodable"),
                    ));
                }
            }
        };
        // A 3-hop packet leaves link credits behind, a self-addressed one
        // the credit into its NI; the closing rounds spend both.
        for (gap, dst) in [(2u64, 3), (3, 0), (50, 3), (10_000, 0), (1, 0), (1, 3)] {
            for (_, net, _) in &mut nets {
                net.send(Message {
                    src: NodeId(0),
                    dst: NodeId(dst),
                    vnet: VnetId(0),
                    class: MsgClass::Data,
                    payload: 0,
                    gen_cycle: net.cycle(),
                })
                .unwrap();
            }
            while nets[0].1.in_flight() > 0 {
                hooked(&mut nets, 1);
            }
            // Quiescent with credits on the wire: the kernel skips from
            // here on, a cycle at a time or (last round) in one jump.
            assert!(nets.iter().all(|(_, net, _)| net.in_flight() == 0));
            if gap == 10_000 {
                for (_, net, _) in &mut nets {
                    net.run(gap).unwrap();
                }
                hooked(&mut nets, 1);
            } else {
                hooked(&mut nets, gap);
            }
        }
        let (oracle, subjects) = nets.split_first().unwrap();
        assert!(
            oracle.2.len() > 100,
            "{}: {} hooks",
            oracle.0,
            oracle.2.len()
        );
        for (label, net, log) in subjects {
            assert_eq!(net.cycle(), oracle.1.cycle(), "{label}: clock diverged");
            assert_eq!(log.len(), oracle.2.len(), "{label}: hook counts diverged");
            let mut overdue = 0;
            for (got, want) in log.iter().zip(&oracle.2) {
                assert_eq!(got.0, want.0, "{label}: hook cycles diverged");
                assert!(got.2 == want.2, "{label}: diverged after cycle {}", got.0);
                overdue += usize::from(got.1 != want.1);
            }
            assert!(
                overdue >= 6,
                "{label}: {overdue} hooks saw an overdue credit"
            );
            assert_eq!(
                digest(&net.report()),
                digest(&oracle.1.report()),
                "{label}: NetworkReport diverged"
            );
        }
    }
}

/// What a `run(k)` boundary shows of a network: the clock, the in-flight
/// count, the stall age, every router's power state, the whole report
/// and — where the manager encodes its state — the manager's own
/// encoding (idle counters included) and the outcome and `encode_state`
/// of a fork ticked once more. That tick lands whatever credits the skips
/// left overdue; until then the network's own encoding legitimately shows
/// them still on their wires (see the test above).
#[derive(PartialEq)]
struct Boundary {
    cycle: Cycle,
    in_flight: usize,
    stall_age: Cycle,
    power: Vec<String>,
    report: String,
    manager: Option<Vec<u8>>,
    next: Option<(bool, Option<Vec<u8>>)>,
}

fn boundary(net: &Network) -> Boundary {
    let nodes = net.topology().nodes();
    let power = (0..nodes).map(|r| format!("{:?}", net.power_state(NodeId(r as u16))));
    let mut manager = Vec::new();
    let encodes = net.power_manager().encode_state(net.cycle(), &mut manager);
    let next = net.try_clone().map(|mut fork| {
        let ok = fork.tick().is_ok();
        (ok, fork.encode_state())
    });
    Boundary {
        cycle: net.cycle(),
        in_flight: net.in_flight(),
        stall_age: net.stall_age(),
        power: power.collect(),
        report: digest(&net.report()),
        manager: encodes.then_some(manager),
        next,
    }
}

/// Quiet spans while packets fly: sparse single packets sent at `run(k)`
/// boundaries of random length, so the kernel skips NI latencies and link
/// flights with packets in flight, and the boundaries fall inside, at the
/// edge of and between such spans. On an 8x8 mesh and a 4x4 torus, with
/// 1- and 3-cycle links, under nopg, convopt and ppf, plus ppf under a
/// seeded fault injector (jitter, punch drops, a stuck-off epoch), the
/// kernel must match the reference at every boundary ([`Boundary`]; the
/// seeded injector neither forks nor encodes, so there the fork part is
/// absent on both sides). The profiler must show that skips happened
/// while packets were in flight.
#[test]
fn quiet_spans_while_packets_fly_match_the_reference() {
    let topos: [(&str, Substrate); 2] = [
        ("mesh8x8", Mesh::new(8, 8).into()),
        ("torus4x4", Substrate::Torus(Torus::new(4, 4))),
    ];
    let mut cases = Vec::new();
    for (name, topo) in topos {
        for link in [1u8, 3] {
            for scheme in [
                SchemeKind::NoPg,
                SchemeKind::ConvOptPg,
                SchemeKind::PowerPunchFull,
            ] {
                let mut cfg = SimConfig::with_scheme(scheme);
                cfg.noc.topology = topo;
                cfg.noc.link_latency = link;
                cases.push((format!("{name}-link{link}/{scheme:?}"), cfg));
            }
        }
    }
    let mut faulty = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
    faulty.faults.seed = 0xFA57;
    faulty.faults.max_wakeup_jitter = 2;
    faulty.faults.drop_punch_ppm = 100_000;
    faulty.faults.stuck_epochs = vec![StuckEpoch {
        router: NodeId(27),
        start: 300,
        duration: 150,
    }];
    cases.push(("mesh8x8-faults/PowerPunchFull".into(), faulty));
    for (i, (label, cfg)) in cases.into_iter().enumerate() {
        let build = |reference: bool| {
            let mut net = Network::new(&cfg.noc, build_power_manager(&cfg).unwrap()).unwrap();
            if reference {
                net.use_reference_kernel();
            } else {
                net.enable_profiler();
            }
            net
        };
        let (mut kernel, mut oracle) = (build(false), build(true));
        let nodes = kernel.topology().nodes() as u16;
        let mut rng = SimRng::seed_from_u64(0x9_1E7 + i as u64);
        let (mut boundaries, mut skips_in_flight) = (0, 0);
        while kernel.cycle() < 3_000 {
            if rng.random_bool_ppm(300_000) {
                let msg = Message {
                    src: NodeId(rng.random_range(0..nodes)),
                    dst: NodeId(rng.random_range(0..nodes)),
                    vnet: VnetId(rng.random_range(0..3u8)),
                    class: if rng.random_bool_ppm(500_000) {
                        MsgClass::Data
                    } else {
                        MsgClass::Control
                    },
                    payload: 0,
                    gen_cycle: kernel.cycle(),
                };
                kernel.send(msg.clone()).unwrap();
                oracle.send(msg).unwrap();
            }
            let k = rng.random_range(1..30u64);
            let skips = |n: &Network| n.profiler().unwrap().mark_count(Phase::FastForward);
            let before = skips(&kernel);
            kernel.run(k).unwrap();
            oracle.run(k).unwrap();
            if kernel.in_flight() > 0 {
                skips_in_flight += skips(&kernel) - before;
            }
            let (got, want) = (boundary(&kernel), boundary(&oracle));
            let at = want.cycle;
            assert_eq!(got.cycle, at, "{label}: clock diverged");
            assert_eq!(
                got.in_flight, want.in_flight,
                "{label} cycle {at}: in flight"
            );
            assert_eq!(
                got.stall_age, want.stall_age,
                "{label} cycle {at}: stall age"
            );
            assert_eq!(got.power, want.power, "{label} cycle {at}: power states");
            assert_eq!(got.report, want.report, "{label} cycle {at}: NetworkReport");
            assert!(got.manager == want.manager, "{label} cycle {at}: manager");
            assert!(got.next == want.next, "{label} cycle {at}: state diverged");
            boundaries += 1;
        }
        let forks = boundary(&kernel).next.is_some();
        assert_eq!(
            forks,
            !cfg.faults.is_active(),
            "{label}: only the seeded injector cannot fork"
        );
        assert!(boundaries > 150, "{label}: {boundaries} boundaries");
        assert!(
            skips_in_flight > 20,
            "{label}: {skips_in_flight} skips with packets in flight"
        );
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
