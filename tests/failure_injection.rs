//! Failure injection: Power Punch's punch signals are an *optimization*;
//! the conventional WU handshake (Figure 2) remains as the correctness
//! safety net, and the watchdog's escalation path backstops even a wedged
//! handshake. These tests configure the library [`FaultInjector`] (via
//! `SimConfig::faults`) to drop, corrupt and delay power-gating sideband
//! events — or wedge a router outright — and assert that no packet is ever
//! lost and the network always drains; only performance may degrade.

use punchsim::core::build_power_manager;
use punchsim::noc::{Message, MsgClass, Network, PgCounters};
use punchsim::obs::{Event, FaultKind, RingSink};
use punchsim::types::{
    FaultConfig, Mesh, NodeId, RoutingKind, SchemeKind, SimConfig, SimError, SimRng, StallReport,
    StuckEpoch, Substrate, Torus, VnetId, WatchdogConfig,
};

/// Builds a faulted PowerPunch-PG config on `mesh` and runs a light random
/// workload through the real network + fault-injector stack (with a
/// recording sink attached), then drains. Returns (sent, delivered, the
/// drained network).
fn run_faulted_net(mesh: Mesh, faults: FaultConfig) -> (usize, usize, Network) {
    let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
    cfg.noc.topology = mesh.into();
    cfg.faults = faults;
    let pm = build_power_manager(&cfg).expect("valid config");
    let mut net = Network::new(&cfg.noc, pm).expect("valid config");
    net.set_sink(Box::new(RingSink::new(usize::MAX)));
    let n = mesh.nodes() as u16;
    let mut rng = SimRng::seed_from_u64(7);
    let mut sent = 0usize;
    for round in 0..600u64 {
        if round % 10 == 0 {
            let src = NodeId(rng.random_range(0..n));
            let dst = NodeId(rng.random_range(0..n));
            net.send(Message {
                src,
                dst,
                vnet: VnetId(0),
                class: MsgClass::Control,
                payload: 0,
                gen_cycle: 0,
            })
            .expect("in-mesh send");
            sent += 1;
        }
        net.tick()
            .expect("watchdog must stay quiet under punch faults");
    }
    let mut guard = 0;
    while net.in_flight() > 0 {
        net.tick().expect("watchdog must stay quiet while draining");
        guard += 1;
        assert!(guard < 100_000, "network failed to drain");
    }
    let delivered = net.drain_delivered().count();
    (sent, delivered, net)
}

/// [`run_faulted_net`] reduced to (sent, delivered, wakeup-wait mean, final
/// PG counters).
fn run_faulted(mesh: Mesh, faults: FaultConfig) -> (usize, usize, f64, PgCounters) {
    let (sent, delivered, net) = run_faulted_net(mesh, faults);
    let report = net.report();
    (sent, delivered, report.avg_wakeup_wait(), report.pg.clone())
}

fn drop_faults(prob: f64) -> FaultConfig {
    FaultConfig {
        seed: 99,
        drop_punch_ppm: FaultConfig::ppm(prob),
        ..FaultConfig::default()
    }
}

/// Acceptance: drop probability 1.0 *and* corruption on an 8x8
/// PowerPunchFull mesh — every packet still delivers and the watchdog
/// never files a stall report.
#[test]
fn losing_every_punch_event_degrades_but_never_deadlocks() {
    let mesh = Mesh::new(8, 8);
    let chaos = FaultConfig {
        seed: 99,
        drop_punch_ppm: FaultConfig::ppm(1.0),
        corrupt_punch_ppm: FaultConfig::ppm(0.5),
        max_wakeup_jitter: 3,
        ..FaultConfig::default()
    };
    let (sent, delivered, wait_chaos, pg) = run_faulted(mesh, chaos);
    assert_eq!(delivered, sent, "all packets delivered without any punches");
    assert!(pg.faults_injected > 0, "the injector actually fired");

    let (sent, delivered, wait_healthy, _) = run_faulted(mesh, FaultConfig::default());
    assert_eq!(delivered, sent);
    // Dropping punches turns the scheme into blocked-wakeup gating: the
    // waiting time rises, demonstrating the punches were doing real work.
    assert!(
        wait_chaos > wait_healthy,
        "dropped-punch wait {wait_chaos} vs healthy {wait_healthy}"
    );
}

#[test]
fn partial_event_loss_is_between_the_extremes() {
    let mesh = Mesh::new(4, 4);
    let (_, _, w0, _) = run_faulted(mesh, FaultConfig::default());
    let (sent, d, w50, _) = run_faulted(mesh, drop_faults(0.5));
    let (_, _, w100, _) = run_faulted(mesh, drop_faults(1.0));
    assert_eq!(d, sent);
    assert!(w0 <= w50 + 1e-9 && w50 <= w100 + 1e-9, "{w0} {w50} {w100}");
}

/// Corrupted codewords decode to *different valid* target sets: the wrong
/// routers wake up (wasting energy), but delivery is untouched because the
/// blocked flit's own WU handshake still reaches the right router.
#[test]
fn corrupted_punches_waste_energy_but_lose_nothing() {
    let faults = FaultConfig {
        seed: 5,
        corrupt_punch_ppm: FaultConfig::ppm(1.0),
        ..FaultConfig::default()
    };
    let (sent, delivered, _, pg) = run_faulted(Mesh::new(4, 4), faults);
    assert_eq!(delivered, sent);
    assert!(pg.faults_injected > 0, "corruptions were injected");
}

/// Acceptance: a stuck-off router epoch wedges the WU handshake entirely;
/// the watchdog's escalation path force-wakes the router, the escalation
/// counters tick, and every packet still delivers.
#[test]
fn stuck_off_router_is_escalated_and_all_packets_deliver() {
    let faults = FaultConfig {
        seed: 3,
        stuck_epochs: vec![StuckEpoch {
            router: NodeId(5),
            start: 50,
            duration: 5_000,
        }],
        ..FaultConfig::default()
    };
    let (sent, delivered, _, pg) = run_faulted(Mesh::new(4, 4), faults);
    assert_eq!(delivered, sent, "escalation recovered every packet");
    assert!(
        pg.escalations > 0,
        "the watchdog force-woke the stuck router (escalations = {})",
        pg.escalations
    );
    assert!(pg.faults_injected > 0, "the stuck epoch swallowed WUs");
}

/// Runs a workload on an arbitrary substrate + routing with the watchdog's
/// escalation path initially *disabled*, so a wedged sideband produces a
/// harvestable [`StallReport`] instead of a silent recovery. After the
/// first report, escalation is re-enabled and the run must drain fully.
/// Returns (sent, delivered, first stall report, final PG counters).
fn run_wedged(
    topo: Substrate,
    routing: RoutingKind,
    faults: FaultConfig,
) -> (usize, usize, Box<StallReport>, PgCounters) {
    let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
    cfg.noc.topology = topo;
    cfg.noc.routing = routing;
    cfg.noc.watchdog = WatchdogConfig {
        stall_threshold: 200,
        escalate_after: 0,
    };
    cfg.faults = faults;
    let pm = build_power_manager(&cfg).expect("valid config");
    let mut net = Network::new(&cfg.noc, pm).expect("valid config");
    let n = topo.nodes() as u16;
    let mut rng = SimRng::seed_from_u64(11);
    let mut sent = 0usize;
    let mut stall: Option<Box<StallReport>> = None;
    let mut round = 0u64;
    while round < 1_200 || net.in_flight() > 0 {
        if round < 1_200 && round % 40 == 0 {
            let src = NodeId(rng.random_range(0..n));
            let dst = NodeId(rng.random_range(0..n));
            net.send(Message {
                src,
                dst,
                vnet: VnetId(0),
                class: MsgClass::Control,
                payload: 0,
                gen_cycle: 0,
            })
            .expect("in-substrate send");
            sent += 1;
        }
        match net.tick() {
            Ok(()) => {}
            Err(SimError::Stall(report)) => {
                assert!(
                    stall.is_none(),
                    "a second stall after escalation was re-enabled"
                );
                stall = Some(report);
                // The safety net goes back on: from here the watchdog must
                // recover the run without losing a single flit.
                net.set_watchdog(WatchdogConfig {
                    stall_threshold: 200,
                    escalate_after: 32,
                });
            }
            Err(e) => panic!("unexpected simulation error: {e}"),
        }
        round += 1;
        assert!(round < 100_000, "network failed to drain");
    }
    let delivered = net.drain_delivered().count();
    let stall = stall.expect("the wedged sideband must produce a stall report");
    (sent, delivered, stall, net.report().pg.clone())
}

/// Acceptance (torus + YX): with every punch *and* every WU assertion
/// dropped, the sideband is fully wedged — the watchdog files a populated
/// stall report, and once escalation is re-enabled every flit still
/// delivers. Zero lost flits on a non-default substrate.
#[test]
fn torus_yx_wu_loss_stalls_then_recovers_losslessly() {
    let faults = FaultConfig {
        seed: 21,
        drop_punch_ppm: FaultConfig::ppm(1.0),
        drop_wu_ppm: FaultConfig::ppm(1.0),
        ..FaultConfig::default()
    };
    let topo = Substrate::Torus(Torus::try_new(4, 4).expect("4x4 torus"));
    let (sent, delivered, stall, pg) = run_wedged(topo, RoutingKind::Yx, faults);
    assert_eq!(delivered, sent, "zero lost flits after recovery");
    assert!(stall.stalled_for >= 200, "threshold honoured");
    assert!(
        stall.in_flight_packets > 0,
        "report names the stuck traffic"
    );
    assert!(
        stall.oldest_blocked.is_some(),
        "report identifies the oldest blocked packet"
    );
    assert!(
        !stall.off_routers.is_empty(),
        "report lists the sleeping routers"
    );
    assert!(pg.escalations > 0, "recovery went through force-wake");
}

/// Acceptance (torus + YX): a long stuck-off epoch swallows the WU
/// handshake of one router outright. Same contract: populated stall
/// report, then lossless recovery via escalation.
#[test]
fn torus_yx_stuck_epoch_stalls_then_recovers_losslessly() {
    let faults = FaultConfig {
        seed: 23,
        stuck_epochs: vec![StuckEpoch {
            router: NodeId(5),
            start: 40,
            duration: 100_000,
        }],
        ..FaultConfig::default()
    };
    let topo = Substrate::Torus(Torus::try_new(4, 4).expect("4x4 torus"));
    let (sent, delivered, stall, pg) = run_wedged(topo, RoutingKind::Yx, faults);
    assert_eq!(delivered, sent, "zero lost flits after recovery");
    assert!(stall.in_flight_packets > 0);
    assert!(stall.oldest_blocked.is_some());
    assert!(
        pg.escalations > 0,
        "only escalation can release a stuck-off router"
    );
    assert!(pg.faults_injected > 0, "the stuck epoch swallowed WUs");
}

/// Acceptance: the injector is deterministic — the same seed and config
/// produce bit-identical statistics run over run.
#[test]
fn identical_seeds_give_bit_identical_stats() {
    let faults = FaultConfig {
        seed: 1234,
        drop_punch_ppm: FaultConfig::ppm(0.35),
        corrupt_punch_ppm: FaultConfig::ppm(0.2),
        max_wakeup_jitter: 4,
        stuck_epochs: vec![StuckEpoch {
            router: NodeId(9),
            start: 100,
            duration: 400,
        }],
        ..FaultConfig::default()
    };
    let (sent_a, del_a, wait_a, pg_a) = run_faulted(Mesh::new(4, 4), faults.clone());
    let (sent_b, del_b, wait_b, pg_b) = run_faulted(Mesh::new(4, 4), faults);
    assert_eq!(sent_a, sent_b);
    assert_eq!(del_a, del_b);
    assert_eq!(wait_a.to_bits(), wait_b.to_bits(), "latency mean diverged");
    assert_eq!(pg_a, pg_b, "power-gating counters diverged");
}

/// Pins one seeded schedule to literals recorded before the seeded and the
/// scripted injector were merged: any change to the RNG draw order, the
/// stuck-mask arithmetic of overlapping epochs or the force-wake release
/// moves at least one of these numbers.
#[test]
fn seeded_schedule_reproduces_the_recorded_literals() {
    let stuck = NodeId(27);
    let faults = FaultConfig {
        seed: 0x5EED,
        drop_punch_ppm: FaultConfig::ppm(0.2),
        corrupt_punch_ppm: FaultConfig::ppm(0.1),
        drop_wu_ppm: FaultConfig::ppm(0.1),
        max_wakeup_jitter: 3,
        stuck_epochs: vec![
            StuckEpoch {
                router: stuck,
                start: 100,
                duration: 300,
            },
            StuckEpoch {
                router: stuck,
                start: 250,
                duration: 400,
            },
        ],
    };
    let (sent, delivered, mut net) = run_faulted_net(Mesh::new(8, 8), faults);
    let events = net.take_sink().expect("sink attached").snapshot();
    let count = |want: FaultKind| {
        events
            .iter()
            .filter(|s| matches!(s.event, Event::Fault { kind, .. } if kind == want))
            .count() as u64
    };
    let forced = events
        .iter()
        .filter(|s| matches!(s.event, Event::ForceWake { router } if router == stuck))
        .count();
    // `FaultStats`, read back through the trace (the injector is boxed
    // inside the network): per-kind counts, then what is left of the
    // total is jitter.
    let kinds = [
        FaultKind::PunchDropped,
        FaultKind::PunchCorrupted,
        FaultKind::WuDropped,
        FaultKind::StuckEpoch,
    ];
    assert_eq!(kinds.map(count), [97, 38, 146, 2]);
    let pg = net.report().pg;
    assert_eq!(pg.faults_injected, 97 + 38 + 146 + 2 + 622, "622 delayed");
    // Epoch 1 arms at 112 (router 27 first sleeps then), epoch 2 at 250
    // while epoch 1 still holds; epoch 1's window ends at 412 and the one
    // force-wake, at 440, releases what epoch 2 still held.
    assert_eq!((forced, pg.escalations), (1, 1));
    assert_eq!((sent, delivered), (60, 60));
}
