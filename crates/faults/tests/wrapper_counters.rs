//! Wrapper-chain counters regression.
//!
//! `PowerManager::counters` returns a snapshot by value, and a wrapper
//! answers it as "the wrapped manager's snapshot with my own scalars
//! patched in". Nothing caches, so nothing can go stale — this suite pins
//! that: a wrapped `ppf` manager and a bare one, driven in lock-step
//! through faults that never perturb the event stream, must report equal
//! counters after *every* tick and after a `force_wake`, differing only in
//! `faults_injected`, with the per-router punch plane forwarded intact.

use punchsim_core::PowerPunchManager;
use punchsim_faults::{ChoiceInjector, FaultInjector};
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

/// Drives `wrapped` and a bare `ppf` in lock-step for 120 cycles, with a
/// `force_wake` of router 15 in the middle. Router 15 is never a punch
/// source, destination or waypoint of `events`, so it sleeps early and
/// stays off until forced. `faults_at(cycle)` is the fault total the
/// wrapper must report after that cycle's tick.
fn lockstep(mut wrapped: Box<dyn PowerManager>, faults_at: impl Fn(Cycle) -> u64) {
    let forced = NodeId(15);
    let mut bare = ppf(Mesh::new(4, 4));
    let idle = [true; N];
    let mut saw_hops = false;
    for c in 0..120u64 {
        let ev = events(c);
        wrapped.tick(c, &ev, IdleInfo { idle: &idle });
        bare.tick(c, &ev, IdleInfo { idle: &idle });
        let (w, b) = (wrapped.counters(), bare.counters());
        assert_forwarded(&format!("tick {c}"), &w, &b, faults_at(c));
        saw_hops |= w.punch_hops > 0;
        if c == 60 {
            assert_eq!(wrapped.state(forced), PowerState::Off);
            wrapped.force_wake(forced, c);
            bare.force_wake(forced, c);
            let (w, b) = (wrapped.counters(), bare.counters());
            assert_forwarded("force_wake", &w, &b, faults_at(c));
            assert_eq!(w.escalations, 1);
            // Any stuck mask is cleared: the wrapper shows the inner gate.
            assert_eq!(wrapped.state(forced), bare.state(forced));
        }
    }
    assert!(saw_hops, "the run never exercised the punch fabric");
}

#[test]
fn fault_injector_forwards_counters_after_every_tick_and_force_wake() {
    let mesh = Mesh::new(4, 4);
    // Zero-probability faults plus one stuck epoch on the router the
    // lock-step force-wakes: the only injected fault is the epoch arming
    // at its start cycle, and it never perturbs the event stream (nothing
    // asserts a WU toward router 15).
    let cfg = FaultConfig {
        stuck_epochs: vec![StuckEpoch {
            router: NodeId(15),
            start: 40,
            duration: 1_000,
        }],
        ..FaultConfig::default()
    };
    let wrapped = FaultInjector::new(ppf(mesh), &cfg, mesh).unwrap();
    lockstep(Box::new(wrapped), |c| u64::from(c >= 40));
}

#[test]
fn choice_injector_forwards_counters_under_the_none_choice() {
    let mesh = Mesh::new(4, 4);
    let mut wrapped = ChoiceInjector::new(ppf(mesh), mesh);
    assert!(wrapped.arm_choice(FaultChoice::None));
    lockstep(Box::new(wrapped), |_| 0);
}
