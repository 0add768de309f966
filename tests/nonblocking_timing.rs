//! Cycle-exact verification of the paper's central claim (§3, §4.3): with
//! 3-hop punch signals and the injection-node slacks, an 8-cycle router
//! wakeup is *completely* hidden — a packet crossing a fully powered-down
//! network never waits for a wakeup, "as if all NoC routers were virtually
//! always powered on".

use punchsim::core::build_power_manager;
use punchsim::noc::{Message, MsgClass, Network};
use punchsim::types::{Mesh, NodeId, SchemeKind, SimConfig, VnetId};

/// Sends isolated packets across a sleeping 8x8 mesh and returns the total
/// wakeup-wait cycles and delivered count. Runs on the shipped kernel
/// (the long idle gaps between packets are exactly where quiescence
/// skip-ahead engages).
fn run_isolated_packets(scheme: SchemeKind, wakeup: u32, use_slack2: bool) -> (u64, u64) {
    run_isolated_packets_on(scheme, wakeup, use_slack2, false)
}

/// `reference` selects the cycle-by-cycle test oracle instead.
fn run_isolated_packets_on(
    scheme: SchemeKind,
    wakeup: u32,
    use_slack2: bool,
    reference: bool,
) -> (u64, u64) {
    let mut cfg = SimConfig::with_scheme(scheme);
    cfg.noc.topology = Mesh::new(8, 8).into();
    cfg.power.wakeup_latency = wakeup;
    let pm = build_power_manager(&cfg).unwrap();
    let mut net = Network::new(&cfg.noc, pm).unwrap();
    if reference {
        net.use_reference_kernel();
    }
    // Let every router fall asleep.
    net.run(50).unwrap();
    let flows: &[(u16, u16)] = &[
        (0, 7),   // 7 hops straight east
        (56, 7),  // corner to corner
        (24, 31), // row crossing
        (3, 59),  // column crossing
        (9, 54),  // diagonal (X then Y)
        (62, 16), // westward + north
    ];
    for &(src, dst) in flows {
        if use_slack2 {
            // Slack 2: the node knows a packet is coming 6 cycles before
            // the message reaches the NI (L2/directory access start).
            net.notify_future_injection(NodeId(src)).unwrap();
            net.run(6).unwrap();
        }
        net.send(Message {
            src: NodeId(src),
            dst: NodeId(dst),
            vnet: VnetId(0),
            class: MsgClass::Control,
            payload: 0,
            gen_cycle: net.cycle(),
        })
        .unwrap();
        // Plenty of time to drain and for all routers to re-sleep.
        net.run(250).unwrap();
        assert_eq!(net.in_flight(), 0, "packet must drain");
    }
    let r = net.report();
    let delivered = r.stats.packets_delivered;
    // The total from the mean: exact at these few small integer waits.
    let wait = (r.avg_wakeup_wait() * delivered as f64).round() as u64;
    (wait, delivered)
}

#[test]
fn power_punch_pg_hides_an_8_cycle_wakeup_completely() {
    let (wait, delivered) = run_isolated_packets(SchemeKind::PowerPunchFull, 8, true);
    assert_eq!(delivered, 6);
    assert_eq!(
        wait, 0,
        "Twakeup=8 must be fully hidden by 3-hop punches + NI slack"
    );
}

/// The tentpole guarantee, stated against the kernelized tick path: with
/// fast-forward enabled, low-injection Power Punch traffic at H=3 still
/// records *zero* wakeup-induced stall cycles, and the fast path agrees
/// with the cycle-by-cycle reference on every scheme — skip-ahead changes
/// wall-clock, never timing.
#[test]
fn fast_forward_keeps_wakeups_non_blocking_and_matches_naive() {
    for (scheme, slack2) in [
        (SchemeKind::PowerPunchFull, true),
        (SchemeKind::PowerPunchSignal, false),
        (SchemeKind::ConvOptPg, false),
    ] {
        let fast = run_isolated_packets_on(scheme, 8, slack2, false);
        let naive = run_isolated_packets_on(scheme, 8, slack2, true);
        assert_eq!(
            fast, naive,
            "{scheme:?}: fast path changed observable timing"
        );
    }
    let (wait, delivered) = run_isolated_packets(SchemeKind::PowerPunchFull, 8, true);
    assert_eq!(delivered, 6);
    assert_eq!(
        wait, 0,
        "H=3 + slacks must stay non-blocking under fast-forward"
    );
}

#[test]
fn wakeup_beyond_the_punch_slack_is_partially_exposed() {
    // 3-hop punches hide at most 3 x Trouter = 9 cycles in steady state
    // and slightly less at the first hop; Twakeup=14 must leak waiting.
    let (wait, delivered) = run_isolated_packets(SchemeKind::PowerPunchFull, 14, true);
    assert_eq!(delivered, 6);
    assert!(wait > 0, "a 14-cycle wakeup cannot be fully hidden at H=3");
}

#[test]
fn signal_only_scheme_exposes_the_source_router() {
    // Without NI slack the local router's wakeup is on the critical path
    // (§3: "not enough routing hop slack at injection nodes").
    let (wait, delivered) = run_isolated_packets(SchemeKind::PowerPunchSignal, 8, false);
    assert_eq!(delivered, 6);
    assert!(
        wait > 0,
        "PowerPunch-Signal must wait at sleeping source routers"
    );
}

#[test]
fn conventional_gating_waits_at_nearly_every_hop() {
    let (wait_conv, _) = run_isolated_packets(SchemeKind::ConvOptPg, 8, false);
    let (wait_pps, _) = run_isolated_packets(SchemeKind::PowerPunchSignal, 8, false);
    assert!(
        wait_conv > wait_pps * 3,
        "ConvOpt ({wait_conv}) must wait far more than PP-Signal ({wait_pps})"
    );
}

#[test]
fn four_stage_router_hides_up_to_twelve_cycles_in_steady_state() {
    // §4.1: 3-hop punches hide up to 12 cycles on a 4-stage router
    // (3 x Trouter = 12) — but only for routers 3+ hops from the source.
    // The first hop's margin comes from slack 1 (the 3-cycle NI pipeline)
    // plus one router traversal, about 9 cycles, so a 10-cycle wakeup
    // leaks exactly one wait cycle at hop 1 and nothing anywhere else,
    // while an 18-cycle wakeup leaks at every hop.
    let run = |wakeup: u32| {
        let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
        cfg.noc.topology = Mesh::new(8, 8).into();
        cfg.noc.router_stages = 4;
        cfg.power.wakeup_latency = wakeup;
        let pm = build_power_manager(&cfg).unwrap();
        let mut net = Network::new(&cfg.noc, pm).unwrap();
        net.run(50).unwrap();
        net.notify_future_injection(NodeId(0)).unwrap();
        net.run(6).unwrap();
        net.send(Message {
            src: NodeId(0),
            dst: NodeId(7),
            vnet: VnetId(0),
            class: MsgClass::Control,
            payload: 0,
            gen_cycle: net.cycle(),
        })
        .unwrap();
        net.run(400).unwrap();
        assert_eq!(net.in_flight(), 0);
        let r = net.report();
        (r.avg_wakeup_wait() * r.stats.packets_delivered as f64).round() as u64
    };
    let w10 = run(10);
    let w12 = run(12);
    let w18 = run(18);
    assert!(w10 <= 1, "only the first hop may leak at Twakeup=10: {w10}");
    assert!(
        w12 <= 3,
        "steady-state hops stay covered at Twakeup=12: {w12}"
    );
    assert!(w18 > w12, "beyond 3xTrouter the blocking returns: {w18}");
}
