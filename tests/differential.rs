//! Differential conformance suite for the quiescence fast-forward kernel.
//!
//! Every case builds the *same* experiment twice — once on the reference
//! oracle (`Network::use_reference_kernel`: the struct sweep, every tick
//! executed literally) and once on the shipped kernel (quiescence
//! skip-ahead through `PowerManager::tick_quiet`) — and runs both in
//! lock-step chunks. Both sides go through the same traffic host, which
//! hands every gap between its own events to `Network::run`; the host skip
//! on its own is pinned in `punchsim-traffic`'s
//! `host_skip_matches_naive_ticking_exactly`.
//! At every checkpoint the two must agree on the clock, every router's
//! power state, the power-gating counters and the in-flight packet count;
//! at the end the complete [`NetworkReport`] must be identical down to
//! the last bit.
//!
//! Configurations are drawn from a seeded [`SimRng`], covering meshes and
//! tori under every routing they admit, punch depths H ∈ {2,3,4}, all five
//! schemes, injection rates from zero (pure quiescence) to moderate load,
//! burstiness, and fault profiles (jitter, punch drops, WU drops, stuck-off
//! epochs); the test asserts that the seed's draws reach every substrate
//! row and every scheme. Any divergence pinpoints an observable behavior
//! change introduced by skip-ahead — exactly what the quiet-span contract
//! (DESIGN.md §12) forbids.

use punchsim::prelude::*;
use punchsim::traffic::InjectionConfig;

/// One generated experiment description.
#[derive(Debug)]
struct Case {
    cfg: SimConfig,
    inj: InjectionConfig,
    pattern: TrafficPattern,
}

/// Exact digest of a report: every field of [`NetworkReport`] (f64 Debug
/// formatting round-trips, so string equality is bit equality).
fn digest(r: &NetworkReport) -> String {
    format!("{r:?}")
}

const SCHEMES: [SchemeKind; 5] = [
    SchemeKind::NoPg,
    SchemeKind::ConvPg,
    SchemeKind::ConvOptPg,
    SchemeKind::PowerPunchSignal,
    SchemeKind::PowerPunchFull,
];

/// The substrate pool: plain meshes under all three routing functions, and
/// tori under the DOR routings that stay acyclic on wrap links. Skip-ahead
/// must be observably exact on every one of them.
fn substrates() -> [(Substrate, RoutingKind); 7] {
    [
        (Mesh::new(4, 4).into(), RoutingKind::Xy),
        (Mesh::new(4, 4).into(), RoutingKind::Yx),
        (Mesh::new(4, 6).into(), RoutingKind::WestFirst),
        (Mesh::new(6, 6).into(), RoutingKind::Xy),
        (Mesh::new(8, 8).into(), RoutingKind::Xy),
        (Substrate::Torus(Torus::new(4, 4)), RoutingKind::Xy),
        (Substrate::Torus(Torus::new(6, 6)), RoutingKind::Yx),
    ]
}

fn draw_case(rng: &mut SimRng, id: u64) -> Case {
    let substrates = substrates();
    let rates = [0.0, 0.001, 0.005, 0.02];
    let patterns = [
        TrafficPattern::UniformRandom,
        TrafficPattern::Transpose,
        TrafficPattern::Neighbor,
    ];
    let (topo, routing) = substrates[rng.random_range(0..substrates.len())];
    let mut cfg = SimConfig::with_scheme(SCHEMES[rng.random_range(0..SCHEMES.len())]);
    cfg.noc.topology = topo;
    cfg.noc.routing = routing;
    cfg.power.punch_hops = rng.random_range(2..5u16);
    cfg.seed = 0xD1FF_0000 + id;
    // Fault profile: 0 = clean, then jitter / drops / stuck / everything.
    match rng.random_range(0..5u32) {
        0 => {}
        1 => cfg.faults.max_wakeup_jitter = rng.random_range(1..4u32),
        2 => {
            cfg.faults.drop_punch_ppm = 200_000;
            cfg.faults.drop_wu_ppm = 50_000;
        }
        3 => {
            cfg.faults.stuck_epochs = vec![StuckEpoch {
                router: NodeId(rng.random_range(0..topo.nodes() as u16)),
                start: rng.random_range(100..400u64),
                duration: rng.random_range(50..200u64),
            }];
        }
        _ => {
            cfg.faults.max_wakeup_jitter = 2;
            cfg.faults.drop_punch_ppm = 100_000;
            cfg.faults.stuck_epochs = vec![StuckEpoch {
                router: NodeId(rng.random_range(0..topo.nodes() as u16)),
                start: 150,
                duration: 120,
            }];
        }
    }
    cfg.faults.seed = 0xFA_0000 + id;
    let mut inj = InjectionConfig::at_rate(rates[rng.random_range(0..rates.len())]);
    inj.burstiness = if rng.random_bool_ppm(300_000) {
        0.5
    } else {
        0.0
    };
    cfg.power.slack2_cycles = rng.random_range(4..9u64) as u32;
    Case {
        cfg,
        inj,
        pattern: patterns[rng.random_range(0..patterns.len())],
    }
}

fn build(case: &Case, reference: bool) -> SyntheticSim {
    let mut sim = SyntheticSim::with_injection(case.cfg.clone(), case.pattern, case.inj.clone());
    if reference {
        sim.network_mut().use_reference_kernel();
    }
    sim
}

/// Compares the two simulations' observable state at one checkpoint.
fn assert_same_state(case_id: u64, at: u64, fast: &SyntheticSim, naive: &SyntheticSim) {
    let (fnet, nnet) = (fast.network(), naive.network());
    assert_eq!(
        fnet.cycle(),
        nnet.cycle(),
        "case {case_id}: clock diverged at checkpoint {at}"
    );
    assert_eq!(
        fnet.in_flight(),
        nnet.in_flight(),
        "case {case_id} cycle {at}: in-flight count diverged"
    );
    for r in 0..case_id_nodes(fast) {
        let node = NodeId(r as u16);
        assert_eq!(
            fnet.power_state(node),
            nnet.power_state(node),
            "case {case_id} cycle {at}: power state of router {r} diverged"
        );
    }
    let (fr, nr) = (fnet.report(), nnet.report());
    assert_eq!(
        fr.pg, nr.pg,
        "case {case_id} cycle {at}: PgCounters diverged"
    );
    assert_eq!(
        digest(&fr),
        digest(&nr),
        "case {case_id} cycle {at}: NetworkReport diverged"
    );
}

fn case_id_nodes(sim: &SyntheticSim) -> usize {
    sim.network().topology().nodes()
}

#[test]
fn fast_forward_is_observably_identical_to_naive_ticking() {
    let mut rng = SimRng::seed_from_u64(0xD1FF);
    let pool = substrates();
    let (mut rows, mut schemes) = ([0u32; 7], [0u32; SCHEMES.len()]);
    for id in 0..50u64 {
        let case = draw_case(&mut rng, id);
        let substrate = (case.cfg.noc.topology, case.cfg.noc.routing);
        let row = pool.iter().position(|&p| p == substrate);
        rows[row.expect("in the pool")] += 1;
        let scheme = SCHEMES.iter().position(|&s| s == case.cfg.scheme);
        schemes[scheme.expect("listed")] += 1;
        let mut fast = build(&case, false);
        let mut naive = build(&case, true);
        // Warm-up, then a measured window compared every `chunk` cycles.
        let (warmup, measure, chunk) = (200u64, 1_000u64, 100u64);
        fast.run(warmup).unwrap();
        naive.run(warmup).unwrap();
        fast.network_mut().reset_stats();
        naive.network_mut().reset_stats();
        assert_same_state(id, warmup, &fast, &naive);
        let mut at = warmup;
        for _ in 0..(measure / chunk) {
            fast.run(chunk).unwrap();
            naive.run(chunk).unwrap();
            at += chunk;
            assert_same_state(id, at, &fast, &naive);
        }
    }
    // The seed's draws must still reach every substrate and every scheme.
    assert!(rows.iter().all(|&n| n >= 2), "rows drawn {rows:?}");
    assert!(schemes.iter().all(|&n| n >= 5), "schemes drawn {schemes:?}");
}

/// The fast path must also agree through a *drain*: injection stops, the
/// network empties, long quiescent stretches follow.
#[test]
fn fast_forward_matches_naive_through_drain_and_deep_idle() {
    for (scheme, rate) in [
        (SchemeKind::ConvOptPg, 0.02),
        (SchemeKind::PowerPunchFull, 0.02),
        (SchemeKind::PowerPunchSignal, 0.005),
    ] {
        let run = |reference: bool| {
            let mut cfg = SimConfig::with_scheme(scheme);
            cfg.noc.topology = Mesh::new(6, 6).into();
            cfg.seed = 0xDEAD + f64::to_bits(rate);
            let mut sim = SyntheticSim::new(cfg, TrafficPattern::UniformRandom, rate);
            if reference {
                sim.network_mut().use_reference_kernel();
            }
            sim.run(2_000).unwrap();
            let drained = sim.drain(50_000).unwrap();
            // Deep idle after the drain: the skip path dominates here.
            let pre_idle = sim.network().cycle();
            sim.run(20_000).unwrap();
            (
                drained,
                pre_idle,
                sim.network().cycle(),
                digest(&sim.report()),
            )
        };
        assert_eq!(
            run(false),
            run(true),
            "scheme {scheme:?} diverged through drain/deep-idle"
        );
    }
}

/// Satellite check for the closed-form `router_ahead`: the coordinate-jump
/// implementation must name exactly the router a literal `next_hop` walk
/// reaches after `min(h, distance)` steps — for every routing function on
/// the mesh and the DOR routings on the torus.
#[test]
fn closed_form_router_ahead_matches_hop_by_hop_walk() {
    let views: Vec<RouteView> = vec![
        (Mesh::new(8, 8), RoutingKind::Xy).into(),
        (Mesh::new(8, 8), RoutingKind::Yx).into(),
        (Mesh::new(7, 5), RoutingKind::WestFirst).into(),
        (Substrate::Torus(Torus::new(6, 6)), RoutingKind::Xy).into(),
        (Substrate::Torus(Torus::new(5, 4)), RoutingKind::Yx).into(),
    ];
    for view in views {
        let topo = view.topo;
        for src in topo.iter_nodes() {
            for dst in topo.iter_nodes() {
                for h in 1..=4u16 {
                    // Reference: walk next_hop() literally, one hop at a
                    // time, stopping at the destination.
                    let mut walk = src;
                    for _ in 0..h {
                        if walk == dst {
                            break;
                        }
                        walk = view.next_hop(walk, dst).expect("en route");
                    }
                    let jump = view.router_ahead(src, dst, h);
                    assert_eq!(
                        jump, walk,
                        "{:?}/{:?}: ahead({src}, {dst}, {h})",
                        topo, view.routing
                    );
                    assert_eq!(
                        topo.distance(src, jump),
                        h.min(topo.distance(src, dst)),
                        "{:?}/{:?}: ahead() must sit min(h, dist) hops out",
                        topo,
                        view.routing
                    );
                }
            }
        }
    }
}
