//! Per-router power-gate state machines shared by every gating scheme.
//!
//! Since PR 9 the hot per-cycle entry points ([`GateArray::begin_cycle`]
//! and [`GateArray::advance_idle`]) are sub-O(routers): they sweep an
//! *active-set* bitset (routers that are `On` or `Waking`) instead of
//! the whole gate vector, and powered-off routers accrue their
//! off-cycle statistics lazily — a per-router accounting watermark plus
//! a global unit counter; [`GateArray::counters`] returns a snapshot with
//! the outstanding debt added in. In the regime power gating exists for
//! (almost every router asleep) a cycle costs O(occupied) instead of
//! O(n). A snapshot is exactly equal to what the eager implementation
//! would report at every observation point; that contract is pinned by
//! the unit tests below, by the `gating_reference` test module replaying
//! random traces against its `EagerGateArray`, and end to end by the CI
//! no-drift gates.

use punchsim_noc::soa::for_each_one;
use punchsim_noc::{BitWords, PgCounters, PowerState};
use punchsim_types::{Cycle, NodeId};

/// Internal state of one router's sleep switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Powered on; tracks consecutive idle cycles for the timeout filter.
    On { idle_cycles: u32 },
    /// Power-gated.
    Off,
    /// Waking; fully on once `ready_at` is reached.
    Waking { ready_at: Cycle },
}

/// The array of sleep switches for all routers, with the wakeup/timeout
/// bookkeeping every scheme needs (Figure 1/2 of the paper).
///
/// Timing convention: [`GateArray::begin_cycle`] is called at the end of
/// network cycle `c` (inside the power manager's `tick`). State changes
/// requested during `tick(c)` become visible to the network at cycle `c+1`,
/// modelling the one-cycle latency of the power-gating controller.
///
/// # Laziness invariants
///
/// - `active` bit `i` is set iff `gates[i]` is `On` or `Waking`; `Off`
///   routers are swept by no per-cycle path.
/// - `acct_units` advances by 1 per [`GateArray::begin_cycle`] call and
///   by the span length per [`GateArray::advance_quiet`] call — the two
///   ways the eager implementation would have credited an off router.
/// - An `Off` router `i` is owed `acct_units - off_mark[i]` off-cycles
///   beyond `counters.off_cycles[i]`; every transition out of `Off`
///   folds that debt eagerly, and [`GateArray::counters`] adds all
///   remaining debt to the snapshot it returns.
///
/// Gate *states* (and therefore [`GateArray::state`],
/// [`GateArray::next_event_at`] and [`GateArray::encode_state`]) are
/// never deferred — only the off-cycle statistics are.
#[derive(Debug, Clone)]
pub struct GateArray {
    gates: Vec<Gate>,
    wakeup_latency: Cycle,
    idle_timeout: u32,
    /// Routers that are `On` or `Waking` — the only ones the per-cycle
    /// sweeps visit.
    active: BitWords,
    /// Lazy off-cycle accounting units elapsed (see the type-level
    /// invariants).
    acct_units: u64,
    /// The stored counters; `off_cycles` excludes the debt described
    /// above, every other entry is exact.
    counters: PgCounters,
    /// For an `Off` router `i`: the `acct_units` value through which
    /// `counters.off_cycles[i]` is folded. Meaningless (and unread) while
    /// the router is not `Off`.
    off_mark: Vec<u64>,
}

impl GateArray {
    /// Creates `n` routers, all powered on.
    pub fn new(n: usize, wakeup_latency: u32, idle_timeout: u32) -> Self {
        let mut active = BitWords::new(n);
        (0..n).for_each(|i| active.set(i));
        GateArray {
            gates: vec![Gate::On { idle_cycles: 0 }; n],
            wakeup_latency: wakeup_latency as Cycle,
            idle_timeout,
            active,
            acct_units: 0,
            counters: PgCounters::new(n),
            off_mark: vec![0; n],
        }
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` when managing zero routers.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Public power state of router `r`.
    pub fn state(&self, r: NodeId) -> PowerState {
        match self.gates[r.index()] {
            Gate::On { .. } => PowerState::On,
            Gate::Off => PowerState::Off,
            Gate::Waking { ready_at } => PowerState::WakingUp { ready_at },
        }
    }

    /// A snapshot of the activity counters: the stored counters plus
    /// every off router's owed off-cycles — exactly what the eager
    /// implementation would hold after the same call sequence. O(n): a
    /// copy of the per-router planes and one pass over the off routers.
    /// The array itself is untouched, so observing never perturbs later
    /// accounting.
    pub fn counters(&self) -> PgCounters {
        let mut snap = self.counters.clone();
        for (i, gate) in self.gates.iter().enumerate() {
            if *gate == Gate::Off {
                snap.off_cycles[i] += self.acct_units - self.off_mark[i];
            }
        }
        snap
    }

    /// Calls `f` for every active router, ascending. `f` may flip `active`
    /// bits freely: each word is snapshotted before its sweep, which is
    /// exactly the semantics the gate loops need (a gate cleared during
    /// the sweep is still visited once this cycle, like the eager full
    /// scan would).
    #[inline]
    fn for_each_active(&mut self, mut f: impl FnMut(&mut GateArray, usize)) {
        for w in 0..self.active.words().len() {
            let word = self.active.words()[w];
            for_each_one(&[word], 0, 64, |bit| f(self, w * 64 + bit));
        }
    }

    /// Folds router `i`'s owed off-cycles (called on every transition
    /// out of `Off`, so the debt never survives a state change).
    fn fold_one(&mut self, i: usize) {
        self.counters.off_cycles[i] += self.acct_units - self.off_mark[i];
        self.off_mark[i] = self.acct_units;
    }

    /// Resets counters (end of warm-up); states are preserved. Off
    /// routers restart their lazy accounting from zero debt.
    pub fn reset_counters(&mut self) {
        self.counters.reset();
        self.off_mark.fill(self.acct_units);
    }

    /// Extra sideband-activity counter hooks for the schemes.
    ///
    /// This handle is for *writing* scheme-owned scalars (punch hops, WU
    /// assertions, escalations); the per-router `off_cycles` plane may be
    /// stale through it, because folding it here every tick would undo
    /// the lazy accounting. Read through [`GateArray::counters`], whose
    /// snapshot includes the debt.
    pub fn counters_mut(&mut self) -> &mut PgCounters {
        &mut self.counters
    }

    /// Accounts the state each router held during `cycle` and promotes
    /// routers whose wakeup completes before the next cycle. Call exactly
    /// once at the start of every power-manager tick, before processing
    /// events.
    ///
    /// Cost: O(active routers) — powered-off routers are credited lazily
    /// via the accounting watermark.
    pub fn begin_cycle(&mut self, cycle: Cycle) {
        self.acct_units += 1;
        self.for_each_active(|this, i| {
            if let Gate::Waking { ready_at } = this.gates[i] {
                this.counters.waking_cycles[i] += 1;
                if cycle + 1 >= ready_at {
                    this.gates[i] = Gate::On { idle_cycles: 0 };
                }
            }
        });
    }

    /// Requests a wakeup of router `r` during `cycle`: an off router starts
    /// its wakeup transient and is fully on at `cycle + wakeup_latency`
    /// (the wakeup signal arrived *during* `cycle`, so the transient spans
    /// cycles `cycle..cycle + wakeup_latency`, hardware-style). On or
    /// already-waking routers are unaffected (but an on router's idle timer
    /// is reset).
    pub fn request_wake(&mut self, r: NodeId, cycle: Cycle) {
        let i = r.index();
        match self.gates[i] {
            Gate::Off => {
                self.fold_one(i);
                self.counters.wake_events[i] += 1;
                self.gates[i] = Gate::Waking {
                    ready_at: cycle + self.wakeup_latency,
                };
                self.active.set(i);
            }
            Gate::On { .. } => self.gates[i] = Gate::On { idle_cycles: 0 },
            // The level signal keeps retrying while the transient completes.
            Gate::Waking { .. } => self.counters.wu_retries += 1,
        }
    }

    /// Escalated wakeup from the network watchdog: unconditionally starts
    /// (or continues) the wakeup of router `r`, overriding whatever kept its
    /// sleep gate asserted. Counted separately from normal wake events so a
    /// non-zero [`PgCounters::escalations`] flags that the safety net fired.
    pub fn force_wake(&mut self, r: NodeId, cycle: Cycle) {
        self.counters.record_escalation(r);
        if self.gates[r.index()] == Gate::Off {
            let i = r.index();
            self.fold_one(i);
            self.counters.wake_events[i] += 1;
            self.gates[i] = Gate::Waking {
                ready_at: cycle + self.wakeup_latency,
            };
            self.active.set(i);
        }
    }

    /// Marks router `r` as "needed soon": resets the idle timer so the
    /// timeout filter will not power it off this cycle.
    pub fn keep_awake(&mut self, r: NodeId) {
        if let Gate::On { .. } = self.gates[r.index()] {
            self.gates[r.index()] = Gate::On { idle_cycles: 0 };
        }
    }

    /// Earliest cycle `>= now` at which any gate changes state under quiet
    /// all-idle ticks: a waking router's promotion tick, or an on router's
    /// sleep tick (its idle timeout, deferred past the scheme's
    /// `sleep_floor(i)` — the first cycle at which `may_sleep(i)` would hold).
    /// `None` when every gate is already off, i.e. the array is a fixed
    /// point apart from its off-cycle accounting. O(active routers).
    pub fn next_event_at(
        &self,
        now: Cycle,
        mut sleep_floor: impl FnMut(usize) -> Cycle,
    ) -> Option<Cycle> {
        let mut horizon: Option<Cycle> = None;
        for_each_one(self.active.words(), 0, self.gates.len(), |i| {
            let at = match self.gates[i] {
                Gate::Off => return,
                Gate::Waking { ready_at } => now.max(ready_at.saturating_sub(1)),
                Gate::On { idle_cycles } => {
                    let timeout_at = now
                        + self
                            .idle_timeout
                            .saturating_sub(idle_cycles.saturating_add(1))
                            as Cycle;
                    timeout_at.max(sleep_floor(i))
                }
            };
            horizon = Some(horizon.map_or(at, |h| h.min(at)));
        });
        horizon
    }

    /// Closed-form replay of the quiet span `[from, to)`: for every cycle
    /// `c` in the span, behaves exactly like
    /// `begin_cycle(c); advance_idle(&all_true, |i| c >= sleep_floor(i))`
    /// but in O(active routers) total instead of O(routers × span) —
    /// off routers' accounting advances through the shared unit counter
    /// without being visited. `sleep_floor` is the scheme's sleep veto
    /// expressed as a cycle: router `i` may not sleep before cycle
    /// `sleep_floor(i)` (0 for unconditional sleeping).
    ///
    /// The per-cycle equivalence is pinned by `quiet_advance_matches_loop`
    /// below and, end to end, by `tests/differential.rs`.
    pub fn advance_quiet(
        &mut self,
        from: Cycle,
        to: Cycle,
        mut sleep_floor: impl FnMut(usize) -> Cycle,
    ) {
        if to <= from {
            return;
        }
        let span = to - from;
        // Off routers owe `span` more off-cycles after this call — the
        // unit counter advances, their watermarks stay put.
        self.acct_units += span;
        let units = self.acct_units;
        let timeout = self.idle_timeout;
        self.for_each_active(|this, i| {
            // Resolve a waking gate first: it accrues waking cycles up to and
            // including its promotion tick, then evolves as On from there.
            let (on_from, ic0) = match this.gates[i] {
                Gate::Off => return,
                Gate::Waking { ready_at } => {
                    let promo = from.max(ready_at.saturating_sub(1));
                    if promo >= to {
                        this.counters.waking_cycles[i] += span;
                        return;
                    }
                    this.counters.waking_cycles[i] += promo - from + 1;
                    (promo, 0u32)
                }
                Gate::On { idle_cycles } => (from, idle_cycles),
            };
            // During tick `c >= on_from` the idle counter reads
            // `ic0 + (c - on_from) + 1`, so the timeout filter first passes
            // at `timeout_at`; the sleep lands at the later of that and the
            // scheme's floor.
            let timeout_at = on_from + timeout.saturating_sub(ic0.saturating_add(1)) as Cycle;
            let sleep_at = timeout_at.max(sleep_floor(i));
            if sleep_at < to {
                this.counters.sleep_events[i] += 1;
                // The eager form credits `(to - 1) - sleep_at` off-cycles
                // inside the span; express the same amount as lazy debt so
                // a follow-up fold is exact.
                this.off_mark[i] = units - ((to - 1) - sleep_at);
                this.gates[i] = Gate::Off;
                this.active.clear(i);
            } else {
                let add = (to - on_from).min(u32::MAX as Cycle) as u32;
                this.gates[i] = Gate::On {
                    idle_cycles: ic0.saturating_add(add),
                };
            }
        });
    }

    /// Appends the canonical snapshot encoding of every gate (see
    /// `punchsim_noc::snapshot`): the state tag plus its dynamic payload —
    /// `On` carries the idle counter (bounded by the timeout, past which the
    /// gate sleeps), `Waking` carries the remaining transient rebased
    /// against `now`. Counters are statistics and excluded.
    pub fn encode_state(&self, now: Cycle, out: &mut Vec<u8>) {
        use punchsim_noc::snapshot::{put_u32, put_u64, put_u8};
        for g in &self.gates {
            match *g {
                Gate::On { idle_cycles } => {
                    put_u8(out, 0);
                    // The timeout filter compares against `idle_timeout`;
                    // larger values behave identically, so saturate to keep
                    // long-idle states from encoding distinctly.
                    put_u32(out, idle_cycles.min(self.idle_timeout));
                }
                Gate::Off => {
                    put_u8(out, 1);
                    put_u32(out, 0);
                }
                Gate::Waking { ready_at } => {
                    put_u8(out, 2);
                    put_u64(out, ready_at.saturating_sub(now));
                }
            }
        }
    }

    /// Advances idle timers using the network's per-router idleness and
    /// powers off routers that pass the timeout filter and the
    /// scheme-specific `may_sleep` predicate. Call once per tick, after
    /// event processing. O(active routers): off and waking gates are
    /// skipped, exactly like the eager full scan would no-op them, and
    /// `may_sleep` is consulted for the same routers in the same order.
    pub fn advance_idle(&mut self, idle: &[bool], mut may_sleep: impl FnMut(usize) -> bool) {
        let timeout = self.idle_timeout;
        self.for_each_active(|this, i| {
            if let Gate::On { idle_cycles } = this.gates[i] {
                if idle[i] {
                    let ic = idle_cycles + 1;
                    if ic >= timeout && may_sleep(i) {
                        this.counters.sleep_events[i] += 1;
                        // Freshly asleep: zero debt as of now.
                        this.off_mark[i] = this.acct_units;
                        this.gates[i] = Gate::Off;
                        this.active.clear(i);
                    } else {
                        this.gates[i] = Gate::On { idle_cycles: ic };
                    }
                } else {
                    this.gates[i] = Gate::On { idle_cycles: 0 };
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleeps_after_timeout_idle_cycles() {
        let mut g = GateArray::new(1, 8, 4);
        let idle = [true];
        for c in 0..3 {
            g.begin_cycle(c);
            g.advance_idle(&idle, |_| true);
            assert_eq!(g.state(NodeId(0)), PowerState::On, "cycle {c}");
        }
        g.begin_cycle(3);
        g.advance_idle(&idle, |_| true);
        assert_eq!(g.state(NodeId(0)), PowerState::Off);
        assert_eq!(g.counters().sleep_events[0], 1);
    }

    #[test]
    fn activity_resets_idle_timer() {
        let mut g = GateArray::new(1, 8, 4);
        for c in 0..10 {
            g.begin_cycle(c);
            // Busy every third cycle: never reaches 4 consecutive idles.
            g.advance_idle(&[c % 3 != 0], |_| true);
        }
        assert_eq!(g.state(NodeId(0)), PowerState::On);
    }

    #[test]
    fn wakeup_takes_wakeup_latency_cycles() {
        let mut g = GateArray::new(1, 8, 4);
        // Put it to sleep.
        for c in 0..4 {
            g.begin_cycle(c);
            g.advance_idle(&[true], |_| true);
        }
        assert_eq!(g.state(NodeId(0)), PowerState::Off);
        // WU asserted during cycle 10.
        g.begin_cycle(10);
        g.request_wake(NodeId(0), 10);
        g.advance_idle(&[true], |_| true);
        assert_eq!(
            g.state(NodeId(0)),
            PowerState::WakingUp { ready_at: 18 },
            "the transient spans cycles 10..18; fully on at 10 + 8"
        );
        for c in 11..=17 {
            g.begin_cycle(c);
            g.advance_idle(&[true], |_| true);
        }
        // After tick(17) the router is on for cycle 18.
        assert_eq!(g.state(NodeId(0)), PowerState::On);
        assert_eq!(g.counters().wake_events[0], 1);
        // Cycles 11..=17 were accounted as waking (the arrival cycle 10 was
        // already counted as off).
        assert_eq!(g.counters().total_waking_cycles(), 7);
    }

    #[test]
    fn keep_awake_blocks_sleep() {
        let mut g = GateArray::new(1, 8, 2);
        for c in 0..20 {
            g.begin_cycle(c);
            g.keep_awake(NodeId(0)); // e.g. a punch forewarning each cycle
            g.advance_idle(&[true], |_| true);
        }
        assert_eq!(g.state(NodeId(0)), PowerState::On);
    }

    #[test]
    fn may_sleep_predicate_vetoes() {
        let mut g = GateArray::new(2, 8, 1);
        for c in 0..5 {
            g.begin_cycle(c);
            g.advance_idle(&[true, true], |i| i == 1);
        }
        assert_eq!(g.state(NodeId(0)), PowerState::On);
        assert_eq!(g.state(NodeId(1)), PowerState::Off);
    }

    #[test]
    fn off_cycles_accumulate() {
        let mut g = GateArray::new(1, 8, 1);
        for c in 0..10 {
            g.begin_cycle(c);
            g.advance_idle(&[true], |_| true);
        }
        // Slept after tick(0) (1 idle cycle >= timeout 1): off during 1..=9.
        assert_eq!(g.counters().total_off_cycles(), 9);
    }

    /// Lazy off-cycle debt folds identically no matter how observation
    /// points interleave with the cycle loop — including back-to-back
    /// `counters()` calls with no accounting progress in between.
    #[test]
    fn lazy_folding_is_observation_point_independent() {
        let mut sometimes = GateArray::new(3, 8, 1);
        let mut once = GateArray::new(3, 8, 1);
        let idle = [true, true, true];
        for c in 0..50 {
            sometimes.begin_cycle(c);
            sometimes.advance_idle(&idle, |i| i != 2);
            once.begin_cycle(c);
            once.advance_idle(&idle, |i| i != 2);
            if c % 7 == 0 {
                // Observing mid-run must not perturb later accounting.
                let a = sometimes.counters().total_off_cycles();
                let b = sometimes.counters().total_off_cycles();
                assert_eq!(a, b, "repeated observation changed the counters");
            }
        }
        assert_eq!(sometimes.counters(), once.counters());
        // Routers 0/1 slept after tick(0), router 2 was vetoed forever.
        assert_eq!(sometimes.counters().off_cycles, vec![49, 49, 0]);
    }

    /// `reset_counters` also cancels the lazy debt: off-time before the
    /// reset must never leak into the measured window.
    #[test]
    fn reset_counters_cancels_off_debt() {
        let mut g = GateArray::new(2, 8, 1);
        for c in 0..20 {
            g.begin_cycle(c);
            g.advance_idle(&[true, true], |_| true);
        }
        g.reset_counters();
        assert_eq!(g.counters().total_off_cycles(), 0);
        for c in 20..25 {
            g.begin_cycle(c);
            g.advance_idle(&[true, true], |_| true);
        }
        // Both routers off for the 5 post-reset cycles only.
        assert_eq!(g.counters().total_off_cycles(), 10);
    }

    /// Replays the quiet span per-cycle and via the closed form and demands
    /// bit-identical gates *and* counters, over randomized initial states,
    /// sleep floors and span lengths. This is the unit-level half of the
    /// fast-forward equivalence argument (the end-to-end half lives in
    /// `tests/differential.rs`).
    #[test]
    fn quiet_advance_matches_loop() {
        use punchsim_types::SimRng;
        let mut rng = SimRng::seed_from_u64(0x9A7E5);
        for trial in 0..200 {
            let n = 1 + (rng.next_u64() % 6) as usize;
            let latency = 1 + (rng.next_u64() % 12) as u32;
            let timeout = (rng.next_u64() % 6) as u32;
            let from: Cycle = rng.next_u64() % 50;
            let span: Cycle = rng.next_u64() % 40;
            let mut slow = GateArray::new(n, latency, timeout);
            // Randomize initial gate states through the public API.
            for i in 0..n {
                match rng.next_u64() % 3 {
                    0 => {} // stays On { idle_cycles: 0 }
                    1 => {
                        // Drive it Off: enough all-idle ticks starting well
                        // before `from`.
                        for c in 0..(timeout as Cycle + 1) {
                            slow.begin_cycle(c);
                            let idle: Vec<bool> = (0..n).map(|j| j == i).collect();
                            slow.advance_idle(&idle, |j| j == i);
                        }
                    }
                    _ => {
                        for c in 0..(timeout as Cycle + 1) {
                            slow.begin_cycle(c);
                            let idle: Vec<bool> = (0..n).map(|j| j == i).collect();
                            slow.advance_idle(&idle, |j| j == i);
                        }
                        slow.request_wake(
                            NodeId(i as u16),
                            from.saturating_sub(rng.next_u64() % 4),
                        );
                    }
                }
            }
            let floors: Vec<Cycle> = (0..n).map(|_| rng.next_u64() % 80).collect();
            let mut fast = slow.clone();
            let all_idle = vec![true; n];
            for c in from..from + span {
                slow.begin_cycle(c);
                slow.advance_idle(&all_idle, |i| c >= floors[i]);
            }
            fast.advance_quiet(from, from + span, |i| floors[i]);
            assert_eq!(slow.gates, fast.gates, "trial {trial} gates diverged");
            assert_eq!(
                slow.active.words(),
                fast.active.words(),
                "trial {trial} active set diverged"
            );
            assert_eq!(
                slow.counters(),
                fast.counters(),
                "trial {trial} counters diverged"
            );
        }
    }

    #[test]
    fn next_event_at_predicts_first_transition() {
        // One on router, timeout 4, floor 10: the timeout passes at tick 3
        // but the floor defers the sleep to tick 10.
        let g = GateArray::new(1, 8, 4);
        assert_eq!(g.next_event_at(0, |_| 10), Some(10));
        assert_eq!(g.next_event_at(0, |_| 0), Some(3));
        // A waking router promotes at ready_at - 1.
        let mut g = GateArray::new(1, 8, 1);
        for c in 0..2 {
            g.begin_cycle(c);
            g.advance_idle(&[true], |_| true);
        }
        g.request_wake(NodeId(0), 10);
        assert_eq!(g.next_event_at(10, |_| 0), Some(17));
        // An off router is a fixed point.
        let mut g = GateArray::new(1, 8, 1);
        for c in 0..2 {
            g.begin_cycle(c);
            g.advance_idle(&[true], |_| true);
        }
        assert_eq!(g.next_event_at(5, |_| 0), None);
    }

    /// The active set must mirror gate states exactly through every
    /// transition path (sleep, wake, force-wake, quiet spans).
    #[test]
    fn active_set_tracks_gate_states() {
        let mut g = GateArray::new(4, 3, 1);
        for c in 0..4 {
            g.begin_cycle(c);
            g.advance_idle(&[true, true, false, true], |i| i != 3);
        }
        // Routers 0/1 slept; 2 stayed busy; 3 was vetoed.
        for i in 0..4 {
            let on = !matches!(g.state(NodeId(i as u16)), PowerState::Off);
            assert_eq!(g.active.get(i), on, "router {i}");
        }
        g.request_wake(NodeId(0), 10);
        assert!(g.active.get(0));
        g.force_wake(NodeId(1), 10);
        assert!(g.active.get(1));
        g.advance_quiet(11, 40, |_| 0);
        for i in 0..4 {
            let on = !matches!(g.state(NodeId(i as u16)), PowerState::Off);
            assert_eq!(g.active.get(i), on, "router {i} after quiet span");
        }
    }
}
