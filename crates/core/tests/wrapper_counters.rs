//! Wrapper-chain counters regression, one body over both decision sources.
//!
//! `PowerManager::counters` returns a snapshot by value, and the injector
//! answers it as "the wrapped manager's snapshot with my own scalars
//! patched in". Nothing caches, so nothing can go stale — this suite pins
//! that: a wrapped `ppf` manager and a bare one, driven in lock-step
//! through faults that never perturb the event stream, must report equal
//! counters after *every* tick and after a `force_wake`, differing only in
//! `faults_injected`, with the per-router punch plane forwarded intact.
//!
//! It also pins one seeded schedule's [`FaultStats`] to literals recorded
//! before the seeded and the scripted injector were merged, so a changed
//! RNG draw order cannot hide behind "still deterministic".

use punchsim_core::faults::{FaultInjector, FaultStats};
use punchsim_core::PowerPunchManager;
use punchsim_noc::{IdleInfo, PgCounters, PmEvent, PowerManager, PowerState};
use punchsim_types::{Cycle, FaultChoice, FaultConfig, Mesh, NodeId, PowerConfig, StuckEpoch};

const N: usize = 16;

fn ppf(mesh: Mesh) -> Box<dyn PowerManager> {
    Box::new(PowerPunchManager::new(
        mesh,
        &PowerConfig::default(),
        4,
        true,
    ))
}

/// One cycle's events: a head arrival that launches a punch every fourth
/// cycle, so the fabric keeps hopping and routers keep waking.
fn events(c: Cycle) -> Vec<PmEvent> {
    if c % 4 == 0 {
        vec![PmEvent::HeadArrival {
            router: NodeId((c % N as u64) as u16),
            dst: NodeId(((c * 7 + 5) % N as u64) as u16),
        }]
    } else {
        Vec::new()
    }
}

/// `wrapped` must equal `bare` except for `faults_injected`, and the punch
/// plane must be present and sum to the scalar.
fn assert_forwarded(at: &str, wrapped: &PgCounters, bare: &PgCounters, faults: u64) {
    assert_eq!(wrapped.faults_injected, faults, "{at}: fault total");
    let mut patched = wrapped.clone();
    patched.faults_injected = bare.faults_injected;
    assert_eq!(&patched, bare, "{at}: wrapper and bare counters diverged");
    assert_eq!(wrapped.punch_hops_at.len(), N, "{at}: punch plane dropped");
    assert_eq!(
        wrapped.punch_hops_at.iter().sum::<u64>(),
        wrapped.punch_hops,
        "{at}: punch plane does not sum to punch_hops"
    );
}

/// The one fault of the lock-step run: router 15 sticks at cycle 40. It is
/// never a punch source, destination or waypoint of `events`, so it sleeps
/// early, nothing asserts a WU toward it, and the fault never perturbs the
/// event stream — the only injected fault is the window arming.
const STICK: StuckEpoch = StuckEpoch {
    router: NodeId(15),
    start: 40,
    duration: 1_000,
};

/// Drives `wrapped` and a bare `ppf` in lock-step for 120 cycles: `STICK`
/// arms at cycle 40 (scheduled by the seeded source's config; armed here
/// for the scripted one — `arm_choice` is a `false` no-op on the seeded
/// source) and the watchdog's `force_wake` clears it at cycle 60.
fn lockstep(name: &str, mut wrapped: FaultInjector) {
    let mut bare = ppf(Mesh::new(4, 4));
    let idle = [true; N];
    let mut saw_hops = false;
    for c in 0..120u64 {
        if c == STICK.start {
            wrapped.arm_choice(FaultChoice::StickOff {
                router: STICK.router,
                duration: Some(STICK.duration),
            });
        }
        let ev = events(c);
        wrapped.tick(c, &ev, IdleInfo { idle: &idle });
        bare.tick(c, &ev, IdleInfo { idle: &idle });
        let faults = u64::from(c >= STICK.start);
        let (w, b) = (wrapped.counters(), bare.counters());
        assert_forwarded(&format!("{name} tick {c}"), &w, &b, faults);
        saw_hops |= w.punch_hops > 0;
        if c == 60 {
            assert_eq!(wrapped.state(STICK.router), PowerState::Off);
            wrapped.force_wake(STICK.router, c);
            bare.force_wake(STICK.router, c);
            let (w, b) = (wrapped.counters(), bare.counters());
            assert_forwarded(&format!("{name} force_wake"), &w, &b, faults);
            assert_eq!(w.escalations, 1);
            // The stuck mask is cleared: the wrapper shows the inner gate.
            assert_eq!(wrapped.state(STICK.router), bare.state(STICK.router));
        }
    }
    assert!(saw_hops, "{name}: the run never exercised the punch fabric");
    assert_eq!(
        wrapped.stats(),
        &FaultStats {
            stuck_epochs_started: 1,
            forced_wakes: 1,
            ..FaultStats::default()
        },
        "{name}"
    );
}

#[test]
fn both_sources_forward_counters_after_every_tick_and_force_wake() {
    let mesh = Mesh::new(4, 4);
    let cfg = FaultConfig {
        stuck_epochs: vec![STICK],
        ..FaultConfig::default()
    };
    lockstep("seeded", FaultInjector::new(ppf(mesh), &cfg, mesh).unwrap());
    lockstep("scripted", FaultInjector::scripted(ppf(mesh), mesh));
}

/// Every seeded mechanism at once over a live `ppf` manager — punch drops,
/// corruption, WU loss, jitter and two overlapping epochs on one router,
/// force-woken mid-window — pinned to the statistics the pre-merge
/// `FaultInjector` produced for this exact input.
#[test]
fn seeded_fault_stats_reproduce_the_recorded_literals() {
    let mesh = Mesh::new(4, 4);
    let cfg = FaultConfig {
        seed: 0x5EED,
        drop_punch_ppm: FaultConfig::ppm(0.2),
        corrupt_punch_ppm: FaultConfig::ppm(0.1),
        drop_wu_ppm: FaultConfig::ppm(0.1),
        max_wakeup_jitter: 3,
        stuck_epochs: vec![
            StuckEpoch {
                router: NodeId(15),
                start: 30,
                duration: 100,
            },
            StuckEpoch {
                router: NodeId(15),
                start: 60,
                duration: 200,
            },
        ],
    };
    let mut f = FaultInjector::new(ppf(mesh), &cfg, mesh).unwrap();
    let idle = [true; N];
    for c in 0..400u64 {
        let mut ev = events(c);
        ev.push(PmEvent::BlockedNeed {
            router: NodeId((c % 3 + 13) as u16),
        });
        if c % 5 == 0 {
            ev.push(PmEvent::FutureInjection {
                node: NodeId((c % N as u64) as u16),
            });
        }
        f.tick(c, &ev, IdleInfo { idle: &idle });
        if c == 180 {
            f.force_wake(NodeId(15), c);
        }
    }
    assert_eq!(
        f.stats(),
        &FaultStats {
            punches_dropped: 36,
            punches_corrupted: 9,
            wu_dropped: 87,
            events_delayed: 338,
            stuck_epochs_started: 2,
            forced_wakes: 1,
        }
    );
    assert_eq!(f.counters().faults_injected, f.stats().total());
}
