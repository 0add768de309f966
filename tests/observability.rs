//! End-to-end observability: the flight recorder makes failures *legible*.
//!
//! `tests/failure_injection.rs` proves the safety nets keep packets alive;
//! this file proves that when the nets are cut, the wreckage is
//! diagnosable. A stuck-off router with the escalation path disabled must
//! wedge into a [`SimError::Stall`] whose report carries the flight
//! recorder's tail — and that tail must show the missed wakeups (`WU
//! asserted` immediately answered by `fault wu-dropped`), which is exactly
//! the evidence a human needs to find the dead router. The companion tests
//! pin that observation never perturbs simulation results.

use punchsim::campaign::IntervalSeries;
use punchsim::core::build_power_manager;
use punchsim::noc::{Message, MsgClass, Network};
use punchsim::prelude::RingSink;
use punchsim::types::{
    FaultConfig, Mesh, NodeId, SchemeKind, SimConfig, SimError, StuckEpoch, VnetId,
};

/// A PowerPunch-PG 4x4 config with router R5 stuck off for effectively
/// the whole run.
fn stuck_router_config() -> SimConfig {
    let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
    cfg.noc.topology = Mesh::new(4, 4).into();
    cfg.faults = FaultConfig {
        seed: 3,
        stuck_epochs: vec![StuckEpoch {
            router: NodeId(5),
            start: 10,
            duration: 1_000_000,
        }],
        ..FaultConfig::default()
    };
    cfg
}

/// Acceptance (ISSUE 3): stuck-off router → watchdog stall → the report's
/// event dump shows the missed wakeups.
///
/// With `escalate_after = 0` the watchdog cannot force-wake R5, so a
/// packet routed through it blocks forever and the stall detector fires.
/// The interesting assertion is not the stall itself but its *narrative*:
/// the `last_events` tail must contain the WU assertions toward R5 and the
/// injected `wu-dropped` faults that swallowed them.
#[test]
fn stuck_router_stall_report_dumps_missed_wakeups() {
    let mut cfg = stuck_router_config();
    cfg.noc.watchdog.escalate_after = 0; // cut the safety net
    cfg.noc.watchdog.stall_threshold = 2_000; // fail fast
    let pm = build_power_manager(&cfg).expect("valid config");
    let mut net = Network::new(&cfg.noc, pm).expect("valid config");
    net.set_sink(Box::new(RingSink::new(4096)));

    // Idle long enough for the routers to gate off and the epoch to arm.
    for _ in 0..100 {
        net.tick().expect("idle network must not stall");
    }
    // One packet whose XY route crosses the stuck router: R4 → R5 → R6.
    net.send(Message {
        src: NodeId(4),
        dst: NodeId(6),
        vnet: VnetId(0),
        class: MsgClass::Control,
        payload: 0,
        gen_cycle: 0,
    })
    .expect("in-mesh send");

    let mut guard = 0u32;
    let err = loop {
        match net.tick() {
            Ok(()) => {
                guard += 1;
                assert!(guard < 50_000, "stall watchdog never fired");
            }
            Err(e) => break e,
        }
    };
    let SimError::Stall(report) = err else {
        panic!("expected a stall report, got {err:?}");
    };
    assert!(
        !report.last_events.is_empty(),
        "flight recorder tail missing from the stall report"
    );
    assert!(report.last_events.len() <= 32);
    let text = report.last_events.join("\n");
    assert!(
        text.contains("WU asserted toward R5"),
        "dump should show the blocked flit asking R5 to wake:\n{text}"
    );
    assert!(
        text.contains("fault wu-dropped at R5"),
        "dump should show the injector swallowing those wakeups:\n{text}"
    );
    // The rendered report carries the same evidence for log scrapers.
    let rendered = format!("{report}");
    assert!(rendered.contains("wu-dropped"), "{rendered}");
}

/// With the escalation path left at its default, the same stuck router is
/// force-woken instead of stalling — and the trace records the whole arc:
/// the epoch arming, the swallowed wakeups, then the watchdog's
/// force-wake.
#[test]
fn escalated_recovery_is_visible_in_the_trace() {
    let cfg = stuck_router_config();
    let pm = build_power_manager(&cfg).expect("valid config");
    let mut net = Network::new(&cfg.noc, pm).expect("valid config");
    net.set_sink(Box::new(RingSink::new(8192)));

    for _ in 0..100 {
        net.tick().expect("no stall expected");
    }
    net.send(Message {
        src: NodeId(4),
        dst: NodeId(6),
        vnet: VnetId(0),
        class: MsgClass::Control,
        payload: 0,
        gen_cycle: 0,
    })
    .expect("in-mesh send");
    let mut guard = 0u32;
    while net.in_flight() > 0 {
        net.tick().expect("escalation must prevent the stall");
        guard += 1;
        assert!(guard < 50_000, "network failed to drain");
    }
    assert_eq!(
        net.drain_delivered().filter(|m| m.dst == NodeId(6)).count(),
        1
    );

    let events = net.take_sink().expect("sink was attached").snapshot();
    let text: Vec<String> = events.iter().map(ToString::to_string).collect();
    let text = text.join("\n");
    assert!(text.contains("fault stuck-epoch at R5"), "{text}");
    assert!(text.contains("fault wu-dropped at R5"), "{text}");
    assert!(text.contains("watchdog force-wakes R5"), "{text}");
}

/// Observation is read-only: enabling the flight recorder must not change
/// a single delivered packet or latency bit.
#[test]
fn tracing_does_not_perturb_results() {
    use punchsim::prelude::{SyntheticSim, TrafficPattern};

    let run = |traced: bool| {
        let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
        cfg.noc.topology = Mesh::new(4, 4).into();
        let mut sim = SyntheticSim::new(cfg, TrafficPattern::Transpose, 0.05);
        if traced {
            sim.network_mut().set_sink(Box::new(RingSink::new(4096)));
        }
        sim.run_experiment(500, 2_000).expect("run succeeds")
    };
    let plain = run(false);
    let traced = run(true);
    assert_eq!(
        plain.stats.packets_delivered,
        traced.stats.packets_delivered
    );
    assert_eq!(
        plain.avg_packet_latency().to_bits(),
        traced.avg_packet_latency().to_bits(),
        "latency distribution diverged under tracing"
    );
    assert_eq!(plain.pg, traced.pg, "power-gating counters diverged");
}

/// Builds a mostly idle PowerPunch-PG network carrying one early burst —
/// quiescent stretches long enough that fast-forward jumps span many
/// sampling intervals.
fn mostly_idle_network(reference: bool) -> Network {
    let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
    cfg.noc.topology = Mesh::new(4, 4).into();
    let pm = build_power_manager(&cfg).expect("valid config");
    let mut net = Network::new(&cfg.noc, pm).expect("valid config");
    if reference {
        net.use_reference_kernel();
    }
    for (src, dst) in [(0u16, 15u16), (5, 10), (12, 3)] {
        net.send(Message {
            src: NodeId(src),
            dst: NodeId(dst),
            vnet: VnetId(0),
            class: MsgClass::Control,
            payload: 0,
            gen_cycle: 0,
        })
        .expect("in-mesh send");
    }
    net
}

/// Skip-ahead must not smear the time axis: run in sampling-interval
/// chunks, every jump ends at the sampling boundary, so interval rows carry
/// exactly the same `[start, end]` timestamps — and the same deltas — as a
/// cycle-by-cycle run, even when the jump spans many whole intervals.
#[test]
fn sample_timestamps_are_exact_across_fast_forward_jumps() {
    let rows = |reference: bool| {
        let mut net = mostly_idle_network(reference);
        let mut series = IntervalSeries::default();
        series.observe(net.cycle(), net.report());
        for _ in 0..25 {
            net.run(100).expect("idle network must not stall");
            series.observe(net.cycle(), net.report());
        }
        series.into_rows()
    };
    let fast = rows(false);
    let naive = rows(true);
    assert_eq!(fast.len(), 25, "one row per 100-cycle interval");
    for (i, row) in fast.iter().enumerate() {
        assert_eq!(row.start, i as u64 * 100, "interval {i} start");
        assert_eq!(row.end, (i as u64 + 1) * 100, "interval {i} end");
    }
    assert_eq!(fast, naive, "interval series must be mode-independent");
}

/// The watchdog's stall detector must not fire across a skipped stretch:
/// a quiescent network is *making no progress by design*, and the jump
/// accounts for that. A tiny threshold plus a multi-million-cycle idle
/// run would stall instantly if fast-forward left `last_progress` behind.
#[test]
fn watchdog_sees_no_phantom_stall_across_jumps() {
    let mut cfg = SimConfig::with_scheme(SchemeKind::ConvOptPg);
    cfg.noc.topology = Mesh::new(4, 4).into();
    cfg.noc.watchdog.stall_threshold = 50; // far below the jump spans
    let pm = build_power_manager(&cfg).expect("valid config");
    let mut net = Network::new(&cfg.noc, pm).expect("valid config");
    net.run(2_000_000)
        .expect("idle quiescence is not a stall, even across jumps");
    assert_eq!(net.cycle(), 2_000_000);
    // Real work right after the jump still delivers — and a real stall
    // right after a jump is still caught (the detector stays armed).
    net.send(Message {
        src: NodeId(0),
        dst: NodeId(15),
        vnet: VnetId(0),
        class: MsgClass::Control,
        payload: 0,
        gen_cycle: net.cycle(),
    })
    .expect("in-mesh send");
    net.run(500).expect("post-jump traffic must flow");
    assert_eq!(net.in_flight(), 0);
    assert_eq!(
        net.drain_delivered()
            .filter(|m| m.dst == NodeId(15))
            .count(),
        1
    );
}
