//! Per-router power-gate state machines shared by every gating scheme.
//!
//! A cycle of the gate array costs what changes, not what exists. The three
//! router states are two bit planes — `on` and `waking`; Off is neither bit
//! — beside per-router scalars that only the owning state reads. Waking
//! routers also sit in a *promotion queue* ordered by `ready_at`, so
//! [`GateArray::begin_cycle`] pops only the routers whose transient ends
//! this cycle, and [`GateArray::advance_idle`] sweeps the `on` words only.
//! Off and waking routers accrue their per-cycle statistics lazily — one
//! global unit counter plus one watermark per router; [`GateArray::counters`]
//! returns a snapshot with the outstanding debt added in. In the regime
//! power gating exists for (almost every router asleep) a cycle costs
//! O(on + promotions) instead of O(n). A snapshot is exactly equal to what
//! the eager implementation would report at every observation point; that
//! contract is pinned by the unit tests below, by the `gating_reference`
//! test module replaying random traces against its `EagerGateArray`, and
//! end to end by the CI no-drift gates.

use std::collections::VecDeque;

use punchsim_noc::soa::for_each_one;
use punchsim_noc::{BitWords, PgCounters, PowerState};
use punchsim_types::{Cycle, NodeId};

/// The array of sleep switches for all routers, with the wakeup/timeout
/// bookkeeping every scheme needs (Figure 1/2 of the paper).
///
/// Timing convention: [`GateArray::begin_cycle`] is called at the end of
/// network cycle `c` (inside the power manager's `tick`). State changes
/// requested during `tick(c)` become visible to the network at cycle `c+1`,
/// modelling the one-cycle latency of the power-gating controller.
///
/// # Invariants
///
/// - `on` and `waking` never share a bit; a router with neither is Off.
/// - `promotions` holds exactly the waking routers, ordered by `ready_at`
///   (ties in any order — promotions commute).
/// - `acct_units` advances by 1 per [`GateArray::begin_cycle`] call and by
///   the span length per [`GateArray::advance_quiet`] call — the two ways
///   the eager implementation would have credited an off or waking router.
/// - An Off router `i` is owed `acct_units - mark[i]` off-cycles beyond
///   `counters.off_cycles[i]`, a waking one as many waking cycles beyond
///   `counters.waking_cycles[i]`. Every transition out of either state
///   folds that debt eagerly, and [`GateArray::counters`] adds all
///   remaining debt to the snapshot it returns.
///
/// Gate *states* (and therefore [`GateArray::state`] and
/// [`GateArray::encode_state`]) are never deferred — only the off and
/// waking statistics are.
#[derive(Debug, Clone)]
pub struct GateArray {
    wakeup_latency: Cycle,
    idle_timeout: u32,
    /// Routers powered on — the only ones the idle sweep visits.
    on: BitWords,
    /// Routers in a wakeup transient.
    waking: BitWords,
    /// For an on router: consecutive idle cycles, the timeout filter's
    /// counter. Stale otherwise.
    idle_cycles: Vec<u32>,
    /// For a waking router: the cycle it is fully on. Stale otherwise.
    ready_at: Vec<Cycle>,
    /// The waking routers, earliest `ready_at` first.
    promotions: VecDeque<NodeId>,
    /// Lazy accounting units elapsed (see the type-level invariants).
    acct_units: u64,
    /// The stored counters; `off_cycles` and `waking_cycles` exclude the
    /// debt described above, every other entry is exact.
    counters: PgCounters,
    /// For an Off or waking router `i`: the `acct_units` value through
    /// which its current state's counter is folded. Unread while on.
    mark: Vec<u64>,
}

impl GateArray {
    /// Creates `n` routers, all powered on.
    pub fn new(n: usize, wakeup_latency: u32, idle_timeout: u32) -> Self {
        let mut on = BitWords::new(n);
        (0..n).for_each(|i| on.set(i));
        GateArray {
            wakeup_latency: wakeup_latency as Cycle,
            idle_timeout,
            on,
            waking: BitWords::new(n),
            idle_cycles: vec![0; n],
            ready_at: vec![0; n],
            promotions: VecDeque::new(),
            acct_units: 0,
            counters: PgCounters::new(n),
            mark: vec![0; n],
        }
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.idle_cycles.len()
    }

    /// `true` when managing zero routers.
    pub fn is_empty(&self) -> bool {
        self.idle_cycles.is_empty()
    }

    /// Public power state of router `r`.
    pub fn state(&self, r: NodeId) -> PowerState {
        let i = r.index();
        if self.on.get(i) {
            PowerState::On
        } else if self.waking.get(i) {
            PowerState::WakingUp {
                ready_at: self.ready_at[i],
            }
        } else {
            PowerState::Off
        }
    }

    /// A snapshot of the activity counters: the stored counters plus every
    /// off and waking router's owed cycles — exactly what the eager
    /// implementation would hold after the same call sequence. O(n): a
    /// copy of the per-router planes and one pass over the plane words.
    /// The array itself is untouched, so observing never perturbs later
    /// accounting.
    pub fn counters(&self) -> PgCounters {
        let mut snap = self.counters.clone();
        let n = self.len();
        for (w, (&on, &waking)) in self.on.words().iter().zip(self.waking.words()).enumerate() {
            let base = w * 64;
            let top = (n - base).min(64);
            for_each_one(&[waking], 0, top, |b| {
                snap.waking_cycles[base + b] += self.acct_units - self.mark[base + b];
            });
            for_each_one(&[!(on | waking)], 0, top, |b| {
                snap.off_cycles[base + b] += self.acct_units - self.mark[base + b];
            });
        }
        snap
    }

    /// Resets counters (end of warm-up); states are preserved. Off and
    /// waking routers restart their lazy accounting from zero debt.
    pub fn reset_counters(&mut self) {
        self.counters.reset();
        self.mark.fill(self.acct_units);
    }

    /// Extra sideband-activity counter hooks for the schemes.
    ///
    /// This handle is for *writing* scheme-owned scalars (punch hops, WU
    /// assertions, escalations); the per-router `off_cycles` and
    /// `waking_cycles` planes may be stale through it, because folding them
    /// here every tick would undo the lazy accounting. Read through
    /// [`GateArray::counters`], whose snapshot includes the debt.
    pub fn counters_mut(&mut self) -> &mut PgCounters {
        &mut self.counters
    }

    /// Accounts the state each router held during `cycle` and promotes
    /// routers whose wakeup completes before the next cycle. Call exactly
    /// once at the start of every power-manager tick, before processing
    /// events.
    ///
    /// Cost: O(promotions) — off and waking routers are credited lazily
    /// via the accounting watermark.
    pub fn begin_cycle(&mut self, cycle: Cycle) {
        self.acct_units += 1;
        while let Some(&r) = self.promotions.front() {
            if cycle + 1 < self.ready_at[r.index()] {
                break;
            }
            self.promotions.pop_front();
            self.promote(r.index(), self.acct_units);
        }
    }

    /// Calls `f` for every on router, ascending. `f` may clear `on` bits:
    /// each word is read before its visits, so a router put to sleep during
    /// the sweep is still visited exactly once, like the eager full scan.
    #[inline]
    fn for_each_on(&mut self, mut f: impl FnMut(&mut GateArray, usize)) {
        for w in 0..self.on.words().len() {
            let word = self.on.words()[w];
            for_each_one(&[word], 0, 64, |bit| f(self, w * 64 + bit));
        }
    }

    /// Turns waking router `i` on, folding its waking cycles through
    /// accounting unit `units` (its promotion tick included).
    fn promote(&mut self, i: usize, units: u64) {
        self.counters.waking_cycles[i] += units - self.mark[i];
        self.waking.clear(i);
        self.on.set(i);
        self.idle_cycles[i] = 0;
    }

    /// Starts the wakeup transient of off router `r` during `cycle`.
    fn start_wake(&mut self, r: NodeId, cycle: Cycle) {
        let i = r.index();
        self.counters.off_cycles[i] += self.acct_units - self.mark[i];
        self.mark[i] = self.acct_units;
        self.counters.wake_events[i] += 1;
        let ready_at = cycle + self.wakeup_latency;
        self.ready_at[i] = ready_at;
        self.waking.set(i);
        // Every in-tree caller wakes at the current cycle with one fixed
        // latency, so wakes arrive in `ready_at` order and are pushed to
        // the back; an earlier `cycle` through the public API still
        // inserts in order.
        let behind = |q: &NodeId| self.ready_at[q.index()] <= ready_at;
        if self.promotions.back().is_none_or(behind) {
            self.promotions.push_back(r);
        } else {
            let at = self.promotions.partition_point(behind);
            self.promotions.insert(at, r);
        }
    }

    /// Requests a wakeup of router `r` during `cycle`: an off router starts
    /// its wakeup transient and is fully on at `cycle + wakeup_latency`
    /// (the wakeup signal arrived *during* `cycle`, so the transient spans
    /// cycles `cycle..cycle + wakeup_latency`, hardware-style). On or
    /// already-waking routers are unaffected (but an on router's idle timer
    /// is reset).
    pub fn request_wake(&mut self, r: NodeId, cycle: Cycle) {
        let i = r.index();
        if self.on.get(i) {
            self.idle_cycles[i] = 0;
        } else if self.waking.get(i) {
            // The level signal keeps retrying while the transient completes.
            self.counters.wu_retries += 1;
        } else {
            self.start_wake(r, cycle);
        }
    }

    /// Escalated wakeup from the network watchdog: unconditionally starts
    /// (or continues) the wakeup of router `r`, overriding whatever kept its
    /// sleep gate asserted. Counted separately from normal wake events so a
    /// non-zero [`PgCounters::escalations`] flags that the safety net fired.
    pub fn force_wake(&mut self, r: NodeId, cycle: Cycle) {
        self.counters.record_escalation(r);
        if self.state(r) == PowerState::Off {
            self.start_wake(r, cycle);
        }
    }

    /// Closed-form replay of the quiet span `[from, to)` under the constant
    /// idleness plane `idle`: for every cycle `c` in the span, behaves
    /// exactly like `begin_cycle(c); advance_idle(idle, |i| c >= sleep_floor(i))`
    /// but in O(on routers + promotions in the span) total instead of
    /// O(routers × span) — off and still-waking routers' accounting
    /// advances through the shared unit counter without being visited.
    /// A busy on router (`!idle[i]`), including one promoted inside the
    /// span, holds its idle count at 0 and never sleeps. `sleep_floor` is
    /// the scheme's sleep veto expressed as a cycle: router `i` may not
    /// sleep before cycle `sleep_floor(i)` (0 for unconditional sleeping).
    ///
    /// The per-cycle equivalence is pinned by `quiet_advance_matches_loop`
    /// below and, end to end, by `tests/differential.rs`.
    pub fn advance_quiet(
        &mut self,
        from: Cycle,
        to: Cycle,
        idle: &[bool],
        mut sleep_floor: impl FnMut(usize) -> Cycle,
    ) {
        if to <= from {
            return;
        }
        let units_at_from = self.acct_units;
        self.acct_units += to - from;
        // On routers keep their idleness through the whole span. Swept
        // before any promotion below sets an `on` bit.
        self.for_each_on(|this, i| {
            if idle[i] {
                let floor = sleep_floor(i);
                this.settle(i, from, this.idle_cycles[i], to, floor);
            } else {
                this.idle_cycles[i] = 0;
            }
        });
        // Waking routers whose promotion tick falls inside the span accrue
        // waking cycles up to and including it, then evolve as on from
        // there (a promotion zeroes the idle count, where a busy router
        // keeps it); the rest keep accruing lazily.
        while let Some(&r) = self.promotions.front() {
            let i = r.index();
            let promo = from.max(self.ready_at[i].saturating_sub(1));
            if promo >= to {
                break;
            }
            self.promotions.pop_front();
            self.promote(i, units_at_from + (promo - from + 1));
            if idle[i] {
                let floor = sleep_floor(i);
                self.settle(i, promo, 0, to, floor);
            }
        }
    }

    /// Evolves on router `i` through the quiet ticks `on_from..to`, its
    /// idle counter reading `ic0` before `on_from`. During tick
    /// `c >= on_from` the counter reads `ic0 + (c - on_from) + 1`, so the
    /// timeout filter first passes at `timeout_at`; the sleep lands at the
    /// later of that and the scheme's `floor`.
    fn settle(&mut self, i: usize, on_from: Cycle, ic0: u32, to: Cycle, floor: Cycle) {
        let timeout_at = on_from + self.idle_timeout.saturating_sub(ic0.saturating_add(1)) as Cycle;
        let sleep_at = timeout_at.max(floor);
        if sleep_at < to {
            self.counters.sleep_events[i] += 1;
            // The eager form credits `(to - 1) - sleep_at` off-cycles inside
            // the span; express the same amount as lazy debt so a follow-up
            // fold is exact.
            self.mark[i] = self.acct_units - ((to - 1) - sleep_at);
            self.on.clear(i);
        } else {
            let add = (to - on_from).min(u32::MAX as Cycle) as u32;
            self.idle_cycles[i] = ic0.saturating_add(add);
        }
    }

    /// Appends the canonical snapshot encoding of every gate (see
    /// `punchsim_noc::snapshot`): the state tag plus its dynamic payload —
    /// On carries the idle counter (bounded by the timeout, past which the
    /// gate sleeps), Waking carries the remaining transient rebased
    /// against `now`. Counters are statistics and excluded.
    pub fn encode_state(&self, now: Cycle, out: &mut Vec<u8>) {
        use punchsim_noc::snapshot::{put_u32, put_u64, put_u8};
        for i in 0..self.len() {
            if self.on.get(i) {
                put_u8(out, 0);
                // The timeout filter compares against `idle_timeout`;
                // larger values behave identically, so saturate to keep
                // long-idle states from encoding distinctly.
                put_u32(out, self.idle_cycles[i].min(self.idle_timeout));
            } else if self.waking.get(i) {
                put_u8(out, 2);
                put_u64(out, self.ready_at[i].saturating_sub(now));
            } else {
                put_u8(out, 1);
                put_u32(out, 0);
            }
        }
    }

    /// Advances idle timers using the network's per-router idleness and
    /// powers off routers that pass the timeout filter and the
    /// scheme-specific `may_sleep` predicate. Call once per tick, after
    /// event processing. O(on routers): off and waking gates are skipped,
    /// exactly like the eager full scan would no-op them, and `may_sleep`
    /// is consulted for the same routers in the same (ascending) order.
    pub fn advance_idle(&mut self, idle: &[bool], mut may_sleep: impl FnMut(usize) -> bool) {
        let timeout = self.idle_timeout;
        self.for_each_on(|this, i| {
            if !idle[i] {
                this.idle_cycles[i] = 0;
                return;
            }
            let ic = this.idle_cycles[i] + 1;
            if ic >= timeout && may_sleep(i) {
                this.counters.sleep_events[i] += 1;
                // Freshly asleep: zero debt as of now.
                this.mark[i] = this.acct_units;
                this.on.clear(i);
            } else {
                this.idle_cycles[i] = ic;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The state tag of every router, read back from `encode_state`.
    fn tags(g: &GateArray, now: Cycle) -> Vec<u8> {
        let mut bytes = Vec::new();
        g.encode_state(now, &mut bytes);
        let mut tags = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            tags.push(bytes[at]);
            at += if bytes[at] == 2 { 9 } else { 5 };
        }
        tags
    }

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
    fn wake_requests_to_an_on_router_block_sleep() {
        let mut g = GateArray::new(1, 8, 2);
        for c in 0..20 {
            g.begin_cycle(c);
            g.request_wake(NodeId(0), c); // e.g. a punch forewarning each cycle
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
    /// identical states, snapshot bytes *and* counters, over
    /// randomized initial states, idleness planes (a busy router among
    /// on, off and waking ones), sleep floors and span lengths. This is
    /// the unit-level half of the fast-forward equivalence argument (the
    /// end-to-end half lives in `tests/differential.rs`).
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
                    0 => {} // stays on with an idle counter of 0
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
            let idle: Vec<bool> = (0..n).map(|_| rng.next_u64() % 3 != 0).collect();
            for c in from..from + span {
                slow.begin_cycle(c);
                slow.advance_idle(&idle, |i| c >= floors[i]);
            }
            fast.advance_quiet(from, from + span, &idle, |i| floors[i]);
            let to = from + span;
            for i in 0..n {
                let r = NodeId(i as u16);
                assert_eq!(slow.state(r), fast.state(r), "trial {trial} router {i}");
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            slow.encode_state(to, &mut a);
            fast.encode_state(to, &mut b);
            assert_eq!(a, b, "trial {trial} snapshot bytes diverged");
            assert_eq!(
                slow.counters(),
                fast.counters(),
                "trial {trial} counters diverged"
            );
        }
    }

    /// Every transition path (sleep, veto, wake, force-wake, a quiet span
    /// that promotes and re-sleeps) lands in the expected state, and the
    /// snapshot encoding and counters agree with it.
    #[test]
    fn transition_paths_agree_on_state_encoding_and_counters() {
        let mut g = GateArray::new(4, 3, 1);
        for c in 0..4 {
            g.begin_cycle(c);
            g.advance_idle(&[true, true, false, true], |i| i != 3);
        }
        // Routers 0/1 slept; 2 stayed busy; 3 was vetoed.
        let on = PowerState::On;
        let states = |g: &GateArray| (0..4).map(|i| g.state(NodeId(i))).collect::<Vec<_>>();
        assert_eq!(states(&g), [PowerState::Off, PowerState::Off, on, on]);
        assert_eq!(tags(&g, 4), [1, 1, 0, 0]);
        g.request_wake(NodeId(0), 10);
        g.force_wake(NodeId(1), 10);
        let waking = PowerState::WakingUp { ready_at: 13 };
        assert_eq!(states(&g), [waking, waking, on, on]);
        assert_eq!(tags(&g, 10), [2, 2, 0, 0]);
        let c = g.counters();
        assert_eq!((c.wake_events[0], c.wake_events[1]), (1, 1));
        assert_eq!((c.escalations_at[0], c.escalations_at[1]), (0, 1));
        // Both promote at tick 12 (two waking cycles, 11 and 12), then
        // every router times out and sleeps inside the span.
        g.advance_quiet(11, 40, &[true; 4], |_| 0);
        assert_eq!(states(&g), [PowerState::Off; 4]);
        assert_eq!(tags(&g, 40), [1; 4]);
        assert_eq!(g.counters().waking_cycles, [2, 2, 0, 0]);
    }
}
