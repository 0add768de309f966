//! The eager reference implementation of the gate array — a full
//! O(routers) sweep per cycle with counters updated in place — and the
//! differential suite that pins the lazy [`GateArray`] against it, in the
//! same spirit as the struct-vs-SoA tick oracle. Test-only: compiled under
//! `cfg(test)` and part of no shipped API.
//!
//! Every trial drives the lazy array and the eager reference through an
//! identical random call sequence (idle vectors, wake requests, forced
//! wakes, quiet-span jumps, counter resets) and demands equal
//! per-router power states and equal [`PgCounters`] at every observation
//! point — including after *every single cycle*, which is exactly the
//! access pattern laziness could silently break. Watermark bookkeeping is
//! an execution detail; any observable divergence is a bug.

use punchsim_noc::{PgCounters, PowerState};
use punchsim_types::{Cycle, NodeId, SimRng};

use crate::gating::GateArray;

/// Internal state of one router's sleep switch (eager twin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EGate {
    On { idle_cycles: u32 },
    Off,
    Waking { ready_at: Cycle },
}

/// Eagerly-accounted gate array; same observable API subset as
/// [`GateArray`], O(routers) per cycle by construction.
#[derive(Debug, Clone)]
struct EagerGateArray {
    gates: Vec<EGate>,
    wakeup_latency: Cycle,
    idle_timeout: u32,
    counters: PgCounters,
}

impl EagerGateArray {
    /// Creates `n` routers, all powered on.
    fn new(n: usize, wakeup_latency: u32, idle_timeout: u32) -> Self {
        EagerGateArray {
            gates: vec![EGate::On { idle_cycles: 0 }; n],
            wakeup_latency: wakeup_latency as Cycle,
            idle_timeout,
            counters: PgCounters::new(n),
        }
    }

    /// Public power state of router `r`.
    fn state(&self, r: NodeId) -> PowerState {
        match self.gates[r.index()] {
            EGate::On { .. } => PowerState::On,
            EGate::Off => PowerState::Off,
            EGate::Waking { ready_at } => PowerState::WakingUp { ready_at },
        }
    }

    /// Activity counters (always exact — every cycle is accounted in
    /// place).
    fn counters(&self) -> &PgCounters {
        &self.counters
    }

    /// Eager per-cycle accounting sweep over every router.
    fn begin_cycle(&mut self, cycle: Cycle) {
        for (i, g) in self.gates.iter_mut().enumerate() {
            match *g {
                EGate::Off => self.counters.off_cycles[i] += 1,
                EGate::Waking { ready_at } => {
                    self.counters.waking_cycles[i] += 1;
                    if cycle + 1 >= ready_at {
                        *g = EGate::On { idle_cycles: 0 };
                    }
                }
                EGate::On { .. } => {}
            }
        }
    }

    /// See [`GateArray::request_wake`].
    fn request_wake(&mut self, r: NodeId, cycle: Cycle) {
        let i = r.index();
        match self.gates[i] {
            EGate::Off => {
                self.counters.wake_events[i] += 1;
                self.gates[i] = EGate::Waking {
                    ready_at: cycle + self.wakeup_latency,
                };
            }
            EGate::On { .. } => self.gates[i] = EGate::On { idle_cycles: 0 },
            EGate::Waking { .. } => self.counters.wu_retries += 1,
        }
    }

    /// See [`GateArray::force_wake`].
    fn force_wake(&mut self, r: NodeId, cycle: Cycle) {
        self.counters.record_escalation(r);
        if self.gates[r.index()] == EGate::Off {
            let i = r.index();
            self.counters.wake_events[i] += 1;
            self.gates[i] = EGate::Waking {
                ready_at: cycle + self.wakeup_latency,
            };
        }
    }

    /// See [`GateArray::reset_counters`].
    fn reset_counters(&mut self) {
        self.counters.reset();
    }

    /// Eager full-scan sleep sweep over every router.
    fn advance_idle(&mut self, idle: &[bool], mut may_sleep: impl FnMut(usize) -> bool) {
        for (i, g) in self.gates.iter_mut().enumerate() {
            if let EGate::On { idle_cycles } = *g {
                if idle[i] {
                    let ic = idle_cycles + 1;
                    if ic >= self.idle_timeout && may_sleep(i) {
                        self.counters.sleep_events[i] += 1;
                        *g = EGate::Off;
                    } else {
                        *g = EGate::On { idle_cycles: ic };
                    }
                } else {
                    *g = EGate::On { idle_cycles: 0 };
                }
            }
        }
    }

    /// Per-cycle loop equivalent of [`GateArray::advance_quiet`]
    /// (the eager spec has no closed form — it just replays the span).
    fn advance_quiet(
        &mut self,
        from: Cycle,
        to: Cycle,
        idle: &[bool],
        mut sleep_floor: impl FnMut(usize) -> Cycle,
    ) {
        for c in from..to {
            self.begin_cycle(c);
            self.advance_idle(idle, |i| c >= sleep_floor(i));
        }
    }
}

/// One observation point: states and counters must match exactly.
fn assert_same(trial: usize, cycle: Cycle, lazy: &GateArray, eager: &EagerGateArray, n: usize) {
    for i in 0..n {
        assert_eq!(
            lazy.state(NodeId(i as u16)),
            eager.state(NodeId(i as u16)),
            "trial {trial} cycle {cycle}: state of router {i} diverged"
        );
    }
    assert_eq!(
        &lazy.counters(),
        eager.counters(),
        "trial {trial} cycle {cycle}: counters diverged"
    );
}

/// `ready_at` of every router the eager reference holds mid-wakeup.
fn transients(eager: &EagerGateArray) -> Vec<Cycle> {
    eager
        .gates
        .iter()
        .filter_map(|g| match *g {
            EGate::Waking { ready_at } => Some(ready_at),
            _ => None,
        })
        .collect()
}

/// A wake cycle near `cycle`, possibly earlier than ones already used:
/// the public API accepts any order, so the promotion queue must insert
/// in order rather than append.
fn jittered(rng: &mut SimRng, cycle: Cycle) -> Cycle {
    (cycle + rng.next_u64() % 8).saturating_sub(4)
}

/// Random single-cycle traces, observed after every cycle. The sleep
/// veto, wake pattern and idleness all come from the same seeded stream
/// on both sides, so the two arrays see byte-identical call sequences.
/// Wakes and forced wakes arrive at jittered (non-monotone) cycles, and
/// counter resets land at random points; the trace must have observed
/// counters mid-wakeup, reset inside a transient and queued a wake ahead
/// of a later one.
#[test]
fn lazy_matches_eager_on_random_cycle_traces() {
    let mut rng = SimRng::seed_from_u64(0x1A2E61);
    let (mut mid_wake, mut reset_in_transient, mut out_of_order) = (0, 0, 0);
    for trial in 0..40 {
        let n = 1 + (rng.next_u64() % 24) as usize;
        let latency = 1 + (rng.next_u64() % 10) as u32;
        let timeout = (rng.next_u64() % 5) as u32;
        let mut lazy = GateArray::new(n, latency, timeout);
        let mut eager = EagerGateArray::new(n, latency, timeout);
        // A per-router veto horizon: router i may not sleep before this
        // cycle (stands in for the schemes' punch/forewarning vetoes).
        let floors: Vec<Cycle> = (0..n).map(|_| rng.next_u64() % 120).collect();
        for cycle in 0..160u64 {
            lazy.begin_cycle(cycle);
            eager.begin_cycle(cycle);
            // Sparse random events, identical on both sides.
            match rng.next_u64() % 16 {
                e @ 0..=3 => {
                    let r = NodeId((rng.next_u64() % n as u64) as u16);
                    let at = jittered(&mut rng, cycle);
                    if eager.gates[r.index()] == EGate::Off
                        && transients(&eager)
                            .iter()
                            .any(|&t| t > at + latency as Cycle)
                    {
                        out_of_order += 1;
                    }
                    if e < 2 {
                        lazy.request_wake(r, at);
                        eager.request_wake(r, at);
                    } else {
                        lazy.force_wake(r, at);
                        eager.force_wake(r, at);
                    }
                }
                4 => {
                    reset_in_transient += !transients(&eager).is_empty() as u32;
                    lazy.reset_counters();
                    eager.reset_counters();
                }
                _ => {}
            }
            let idle: Vec<bool> = (0..n).map(|_| rng.next_u64() % 4 != 0).collect();
            lazy.advance_idle(&idle, |i| cycle >= floors[i]);
            eager.advance_idle(&idle, |i| cycle >= floors[i]);
            // Observe after EVERY cycle: the counters must already be
            // exact, no matter how much debt the lazy side is carrying.
            assert_same(trial, cycle, &lazy, &eager, n);
            mid_wake += !transients(&eager).is_empty() as u32;
        }
    }
    assert!(mid_wake > 0, "no observation mid-wakeup");
    assert!(reset_in_transient > 0, "no reset inside a transient");
    assert!(out_of_order > 0, "every wake landed behind the queue");
}

/// Interleaved cycle-by-cycle stretches and bulk quiet-span jumps under
/// random constant idleness planes, with mid-trace counter resets.
/// Observation happens after every cycle *and* after every jump; a jump
/// that leaves stale debt or a reset that fails to cancel it diverges
/// immediately. Wake bursts right before a jump make
/// spans that promote several routers at once and spans that end with a
/// transient still running.
#[test]
fn lazy_matches_eager_across_bulk_jumps_and_resets() {
    let mut rng = SimRng::seed_from_u64(0xFA57_F01D);
    let (mut ends_mid_wake, mut promotes_several, mut busy_through_span) = (0, 0, 0);
    for trial in 0..30 {
        let n = 1 + (rng.next_u64() % 16) as usize;
        let latency = 1 + (rng.next_u64() % 8) as u32;
        let timeout = (rng.next_u64() % 4) as u32;
        let mut lazy = GateArray::new(n, latency, timeout);
        let mut eager = EagerGateArray::new(n, latency, timeout);
        let floors: Vec<Cycle> = (0..n).map(|_| rng.next_u64() % 200).collect();
        let mut cycle: Cycle = 0;
        for _segment in 0..12 {
            match rng.next_u64() % 5 {
                // Bulk jump: the quiet fast-forward path, sometimes right
                // after a burst of wakes at jittered cycles.
                k @ 0..=1 => {
                    if k == 1 {
                        for _ in 0..(1 + rng.next_u64() % 4) {
                            let r = NodeId((rng.next_u64() % n as u64) as u16);
                            let at = jittered(&mut rng, cycle);
                            lazy.request_wake(r, at);
                            eager.request_wake(r, at);
                        }
                    }
                    let before = transients(&eager).len();
                    let span = 1 + rng.next_u64() % 60;
                    // A constant plane with some routers busy: they stay
                    // on through the span, promoted or not.
                    let idle: Vec<bool> = (0..n).map(|_| rng.next_u64() % 4 != 0).collect();
                    busy_through_span += (0..n)
                        .filter(|&i| !idle[i] && eager.gates[i] != EGate::Off)
                        .count() as u32;
                    lazy.advance_quiet(cycle, cycle + span, &idle, |i| floors[i]);
                    eager.advance_quiet(cycle, cycle + span, &idle, |i| floors[i]);
                    cycle += span;
                    let after = transients(&eager).len();
                    ends_mid_wake += (after > 0) as u32;
                    promotes_several += (before >= after + 2) as u32;
                }
                // Counter reset at a window boundary (both sides must
                // forget exactly the same history, including lazy debt).
                2 => {
                    lazy.reset_counters();
                    eager.reset_counters();
                }
                // A cycle-by-cycle stretch with random wakes.
                _ => {
                    for _ in 0..(1 + rng.next_u64() % 20) {
                        lazy.begin_cycle(cycle);
                        eager.begin_cycle(cycle);
                        if rng.next_u64() % 5 == 0 {
                            let r = NodeId((rng.next_u64() % n as u64) as u16);
                            lazy.request_wake(r, cycle);
                            eager.request_wake(r, cycle);
                        }
                        let idle: Vec<bool> = (0..n).map(|_| rng.next_u64() % 3 != 0).collect();
                        lazy.advance_idle(&idle, |i| cycle >= floors[i]);
                        eager.advance_idle(&idle, |i| cycle >= floors[i]);
                        assert_same(trial, cycle, &lazy, &eager, n);
                        cycle += 1;
                    }
                }
            }
            assert_same(trial, cycle, &lazy, &eager, n);
        }
    }
    assert!(ends_mid_wake > 0, "no quiet span ended mid-wakeup");
    assert!(promotes_several > 0, "no quiet span promoted two routers");
    assert!(busy_through_span > 0, "no quiet span held a busy router");
}

/// Cloning mid-run must carry the lazy debt with it: the clone and the
/// original fold to identical counters, and diverge only through calls
/// made after the split.
#[test]
fn clone_carries_pending_debt_exactly() {
    let mut lazy = GateArray::new(6, 4, 1);
    let mut eager = EagerGateArray::new(6, 4, 1);
    for cycle in 0..30u64 {
        lazy.begin_cycle(cycle);
        eager.begin_cycle(cycle);
        lazy.advance_idle(&[true; 6], |i| i != 0);
        eager.advance_idle(&[true; 6], |i| i != 0);
    }
    // Clone while routers 1..6 are off and owe unfolded debt (no
    // counters() observation has happened yet).
    let cloned = lazy.clone();
    assert_eq!(&cloned.counters(), eager.counters());
    assert_eq!(&lazy.counters(), eager.counters());
}

/// The by-value contract: a snapshot is a plain copy, frozen at the call.
/// Advancing the array afterwards — per-cycle ticks, a quiet jump, a wake
/// out of `Off` that folds debt — never reaches back into it, and a fresh
/// snapshot still equals the eager reference.
#[test]
fn snapshot_is_frozen_while_the_array_advances() {
    let mut lazy = GateArray::new(5, 3, 1);
    let mut eager = EagerGateArray::new(5, 3, 1);
    let mut cycle: Cycle = 0;
    for _ in 0..12 {
        lazy.begin_cycle(cycle);
        eager.begin_cycle(cycle);
        lazy.advance_idle(&[true; 5], |i| i != 4);
        eager.advance_idle(&[true; 5], |i| i != 4);
        cycle += 1;
    }
    // Routers 0..4 are off and owe unfolded debt.
    let old = lazy.counters();
    let frozen = old.clone();
    assert_eq!(&old, eager.counters());
    assert!(old.total_off_cycles() > 0, "the snapshot must carry debt");
    for _ in 0..5 {
        lazy.begin_cycle(cycle);
        eager.begin_cycle(cycle);
        lazy.advance_idle(&[true; 5], |i| i != 4);
        eager.advance_idle(&[true; 5], |i| i != 4);
        cycle += 1;
    }
    lazy.advance_quiet(cycle, cycle + 40, &[true; 5], |_| 0);
    eager.advance_quiet(cycle, cycle + 40, &[true; 5], |_| 0);
    cycle += 40;
    lazy.begin_cycle(cycle);
    eager.begin_cycle(cycle);
    lazy.request_wake(NodeId(2), cycle);
    eager.request_wake(NodeId(2), cycle);
    assert_eq!(lazy.state(NodeId(2)), eager.state(NodeId(2)));
    assert_eq!(old, frozen, "advancing the array reached into a snapshot");
    let fresh = lazy.counters();
    assert_eq!(&fresh, eager.counters());
    assert!(fresh.off_cycles[2] > old.off_cycles[2]);
    assert_eq!(fresh.wake_events[2], old.wake_events[2] + 1);
}
