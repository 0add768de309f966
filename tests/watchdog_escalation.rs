//! Watchdog escalation accounting under a *scripted* fault schedule.
//!
//! The probabilistic fault tests assert `escalations > 0`; these pin the
//! count exactly. A scripted [`FaultInjector`] applies per-cycle fault
//! choices deterministically, so the number of times a blocked-WU streak
//! reaches `escalate_after` — and therefore `PgCounters::escalations` — is
//! fully determined by the script.

use punchsim::core::ConvPgManager;
use punchsim::faults::FaultInjector;
use punchsim::noc::{Message, MsgClass, Network};
use punchsim::types::{
    Cycle, FaultChoice, Mesh, NodeId, SchemeKind, SimConfig, VnetId, WatchdogConfig,
};

/// Runs one scripted episode on a 2x2 conventional-gating mesh: warm up
/// until every router sleeps, send `src -> dst`, arm `choice` for the next
/// cycle, then tick until delivery. Returns the final escalation count.
fn scripted_episode(escalate_after: Cycle, episodes: &[(u16, u16, FaultChoice)]) -> u64 {
    let mut cfg = SimConfig::with_scheme(SchemeKind::ConvPg);
    cfg.noc.topology = Mesh::new(2, 2).into();
    cfg.noc.watchdog = WatchdogConfig {
        stall_threshold: 10_000,
        escalate_after,
    };
    let base = ConvPgManager::new(cfg.noc.view(), &cfg.power, false);
    let pm = FaultInjector::scripted(Box::new(base), cfg.noc.topology);
    let mut net = Network::new(&cfg.noc, Box::new(pm)).expect("valid config");
    for &(src, dst, choice) in episodes {
        // Let every router fall asleep (idle_timeout is 4) so the stick
        // always lands on an off router.
        net.run(32).expect("quiet warmup");
        net.send(Message {
            src: NodeId(src),
            dst: NodeId(dst),
            vnet: VnetId(0),
            class: MsgClass::Control,
            payload: 0,
            gen_cycle: net.cycle(),
        })
        .expect("in-mesh send");
        assert!(net.arm_fault_choice(choice), "choice must be honoured");
        let mut guard = 0;
        while net.in_flight() > 0 {
            net.tick().expect("watchdog must recover, not stall");
            guard += 1;
            assert!(guard < 10_000, "episode failed to drain");
        }
    }
    net.report().pg.escalations
}

/// Two forever-stuck routers, each on the injecting node of its packet:
/// the WU handshake is swallowed, the streak reaches `escalate_after`
/// exactly once per episode (the force-wake resets the streak and the
/// 8-cycle wakeup completes well within a second window), and no other
/// router on either path ever gets close to the threshold. Exactly two
/// escalations — no more, no fewer.
#[test]
fn forever_sticks_escalate_exactly_once_per_episode() {
    let escalations = scripted_episode(
        12,
        &[
            (
                0,
                3,
                FaultChoice::StickOff {
                    router: NodeId(0),
                    duration: None,
                },
            ),
            (
                3,
                0,
                FaultChoice::StickOff {
                    router: NodeId(3),
                    duration: None,
                },
            ),
        ],
    );
    assert_eq!(escalations, 2, "one forced wake per stuck router, exactly");
}

/// A bounded stick that expires before the escalation window closes is
/// recovered by the ordinary WU handshake: the streak peaks at roughly
/// stick-duration + wakeup-latency, below the threshold, so the watchdog
/// never fires. Exactly zero escalations.
#[test]
fn expiring_stick_recovers_without_any_escalation() {
    let escalations = scripted_episode(
        24,
        &[(
            0,
            3,
            FaultChoice::StickOff {
                router: NodeId(0),
                duration: Some(4),
            },
        )],
    );
    assert_eq!(escalations, 0, "the safety net recovered below threshold");
}

/// The same schedule replayed gives the same count — the scripted injector
/// adds no hidden nondeterminism.
#[test]
fn scripted_escalation_counts_are_reproducible() {
    let script = [(
        0u16,
        3u16,
        FaultChoice::StickOff {
            router: NodeId(0),
            duration: None,
        },
    )];
    assert_eq!(scripted_episode(12, &script), scripted_episode(12, &script));
}
