//! Deterministic fault injection for the power-gating machinery: one
//! wrapper, two decision sources.
//!
//! The Power Punch paper's central safety argument (§4.1–4.2) is that punch
//! signals are *pure optimization*: the conventional WU handshake — a level
//! signal re-asserted every stalled cycle — remains the correctness safety
//! net, so losing, corrupting or delaying punches can cost latency but never
//! deliverability. This crate makes that argument executable: a
//! [`FaultInjector`] wraps any [`PowerManager`] and perturbs the sideband
//! traffic flowing into it:
//!
//! * **punch drops** — punch-carrying events vanish in transit;
//! * **codeword corruption** — a punch decodes to a *different valid*
//!   target set, waking the wrong routers (modeled by rewriting the
//!   destination to another in-mesh router; every single-destination set is
//!   a valid codebook entry);
//! * **wakeup jitter** — surviving events are delivered a bounded uniform
//!   number of cycles late;
//! * **dropped WU assertions** — individual cycles of the level signal are
//!   lost (only delaying wakeups while `p < 1`);
//! * **stuck-off gates** — a router's sleep gate ignores every wakeup for a
//!   window (or until forced), exercising the network watchdog's escalating
//!   force-wake recovery.
//!
//! *What* a fault does — the stuck mask, the WU swallow, the event
//! filter/rewrite/delay path, the statistics, the trace, the quiet-window
//! contract — is one piece of code. *Whether* a fault happens comes from a
//! private decision source, and that is the only thing that differs between
//! the two ways of building an injector:
//!
//! * [`FaultInjector::new`] — **seeded**: every decision is a draw from one
//!   [`SimRng`] stream seeded by [`FaultConfig::seed`] (independent of the
//!   traffic seed, so a fault schedule is bit-reproducible across runs and
//!   stable under traffic changes), at the [`FaultConfig`] ppm rates, plus
//!   its scheduled [`StuckEpoch`]s. Answers "does the protocol survive
//!   *this* schedule". Cannot be cloned, encoded or armed (an RNG position
//!   and an unbounded jitter queue have no canonical rebased encoding).
//! * [`FaultInjector::scripted`] — **scripted**: no RNG at all; each tick
//!   applies exactly the one [`FaultChoice`] armed for it through
//!   [`PowerManager::arm_choice`] (default [`FaultChoice::None`]) plus an
//!   optional *standing* choice that applies every cycle. The exhaustive
//!   checker branches over the armed choice to answer "does it survive
//!   *every* schedule", so this source clones and encodes.
//!
//! A scripted choice applies to *all* matching events of its cycle — the
//! coarsest granularity that still contains every single-event fault,
//! keeping the checker's branching factor small without losing
//! counterexamples: any stall reachable by dropping one punch among several
//! is also reachable on a path where the punches occur on different cycles.

#![forbid(unsafe_code)]

use punchsim_noc::obs::{Event, FaultKind, Stamped};
use punchsim_noc::snapshot::{put_u64, put_u8};
use punchsim_noc::{IdleInfo, PgCounters, PmEvent, PowerManager, PowerState};
use punchsim_types::{
    ConfigError, Cycle, FaultChoice, FaultConfig, NodeId, SchemeKind, SimRng, StuckEpoch, Substrate,
};

/// Counts of each fault actually injected so far (as opposed to the
/// configured probabilities).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Punch-carrying events dropped in transit.
    pub punches_dropped: u64,
    /// Punch destinations rewritten to a different valid target.
    pub punches_corrupted: u64,
    /// Cycles of the conventional WU level signal lost (including every
    /// assertion swallowed by a stuck-off gate).
    pub wu_dropped: u64,
    /// Events delivered late due to wakeup jitter.
    pub events_delayed: u64,
    /// Stuck-off windows that armed.
    pub stuck_epochs_started: u64,
    /// Stuck-off windows cleared by the watchdog's force-wake escalation
    /// (rather than expiring on their own).
    pub forced_wakes: u64,
}

impl FaultStats {
    /// Total faults injected, the value surfaced as
    /// [`PgCounters::faults_injected`].
    pub fn total(&self) -> u64 {
        self.punches_dropped
            + self.punches_corrupted
            + self.wu_dropped
            + self.events_delayed
            + self.stuck_epochs_started
    }
}

/// Stuck-off status of one router's sleep gate. The derived order
/// (`No < Until(a) < Until(b) < Forever` for `a < b`) makes `max` the union
/// of overlapping stuck windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stuck {
    /// Not stuck.
    No,
    /// Stuck until the given cycle (exclusive), then released.
    Until(Cycle),
    /// Stuck until the watchdog force-wakes the router — the adversarial
    /// worst case for the bounded-stall property.
    Forever,
}

/// Where fault decisions come from — the only thing that differs between
/// the sampled and the enumerated injector.
#[derive(Debug, Clone)]
enum Source {
    /// Draws from one RNG stream at the configured rates.
    Seeded {
        rng: SimRng,
        /// Rates and jitter bound (its `stuck_epochs` moved to `pending`).
        cfg: FaultConfig,
        /// Scheduled epochs that have not armed yet, in schedule order.
        pending: Vec<StuckEpoch>,
    },
    /// Applies explicit per-cycle choices.
    Scripted {
        /// The choice armed for the next tick; consumed (reset to `None`)
        /// by it.
        armed: FaultChoice,
        /// Applied to the event stream of every tick, on top of `armed`.
        standing: FaultChoice,
    },
}

impl Source {
    /// Whether an event is lost in transit this cycle: a WU assertion
    /// reaching a healthy gate (`wu`), or a punch-carrying event.
    fn drops(&mut self, wu: bool) -> bool {
        match self {
            Source::Seeded { rng, cfg, .. } => {
                let ppm = if wu {
                    cfg.drop_wu_ppm
                } else {
                    cfg.drop_punch_ppm
                };
                ppm > 0 && rng.random_bool_ppm(ppm)
            }
            Source::Scripted { armed, standing } => {
                let lost = if wu {
                    FaultChoice::DropWu
                } else {
                    FaultChoice::DropPunch
                };
                [*armed, *standing].contains(&lost)
            }
        }
    }

    /// The wrong destination a surviving punch toward `dst` decodes to, or
    /// `None` when its codeword arrives intact.
    fn corrupts(&mut self, dst: NodeId, nodes: u16) -> Option<NodeId> {
        match self {
            Source::Seeded { rng, cfg, .. } => (cfg.corrupt_punch_ppm > 0
                && rng.random_bool_ppm(cfg.corrupt_punch_ppm))
            .then(|| corrupt_dst(rng, dst, nodes)),
            Source::Scripted { armed, standing } => {
                [*armed, *standing].into_iter().find_map(|c| match c {
                    FaultChoice::CorruptPunch { dst: bad } if bad != dst => Some(bad),
                    _ => None,
                })
            }
        }
    }

    /// Cycles a surviving event is delivered late.
    fn jitter(&mut self) -> Cycle {
        match self {
            Source::Seeded { rng, cfg, .. } if cfg.max_wakeup_jitter > 0 => {
                rng.random_range(0..cfg.max_wakeup_jitter + 1) as Cycle
            }
            _ => 0,
        }
    }
}

/// Rewrites `dst` to a different router among `nodes` — the decoded-to-
/// wrong-codeword model. Deterministic given the RNG stream position.
fn corrupt_dst(rng: &mut SimRng, dst: NodeId, nodes: u16) -> NodeId {
    if nodes <= 1 {
        return dst;
    }
    let pick = rng.random_range(0..nodes - 1);
    // Skip over the original so the corrupted value always differs.
    if pick >= dst.0 {
        NodeId(pick + 1)
    } else {
        NodeId(pick)
    }
}

/// A deterministic fault-injecting wrapper around any power manager.
///
/// Compose it over the scheme under test and attach the result to a
/// [`Network`](punchsim_noc::Network); the network sees the same
/// [`PowerManager`] interface, with faults applied to the event stream and
/// power states in between.
pub struct FaultInjector {
    inner: Box<dyn PowerManager>,
    topo: Substrate,
    source: Source,
    /// `stuck[r]` masks router `r` to Off and swallows its WU assertions.
    stuck: Vec<Stuck>,
    /// Events delayed by jitter, as `(due_cycle, event)`.
    delayed: Vec<(Cycle, PmEvent)>,
    /// Scratch buffer for the filtered event stream (reused across ticks).
    filtered: Vec<PmEvent>,
    stats: FaultStats,
    /// Injected-fault events buffered for the network's sink; `None` while
    /// tracing is disabled.
    trace: Option<Vec<Stamped>>,
}

impl FaultInjector {
    /// Wraps `inner` with the seeded fault schedule in `cfg` over `topo` (a
    /// bare [`punchsim_types::Mesh`] converts implicitly).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadStuckRouter`] if any scheduled stuck epoch
    /// names a router outside `topo`. This is checked here (not just in
    /// [`punchsim_types::SimConfig::validate`]) because the injector can be
    /// composed directly over hand-built managers, where the epoch would
    /// otherwise index out of bounds in the stuck mask.
    pub fn new(
        inner: Box<dyn PowerManager>,
        cfg: &FaultConfig,
        topo: impl Into<Substrate>,
    ) -> Result<Self, ConfigError> {
        let topo: Substrate = topo.into();
        if let Some(e) = cfg.stuck_epochs.iter().find(|e| !topo.contains(e.router)) {
            return Err(ConfigError::BadStuckRouter(e.router));
        }
        let mut cfg = cfg.clone();
        let pending = std::mem::take(&mut cfg.stuck_epochs);
        let source = Source::Seeded {
            rng: SimRng::seed_from_u64(cfg.seed),
            cfg,
            pending,
        };
        Ok(Self::with_source(inner, topo, source))
    }

    /// Wraps `inner` over `topo` with no RNG and no faults armed: faults
    /// happen if and only if a [`FaultChoice`] is armed for the cycle (via
    /// [`PowerManager::arm_choice`], reached through
    /// `Network::arm_fault_choice`) or stands (see
    /// [`FaultInjector::with_standing`]).
    pub fn scripted(inner: Box<dyn PowerManager>, topo: impl Into<Substrate>) -> Self {
        let source = Source::Scripted {
            armed: FaultChoice::None,
            standing: FaultChoice::None,
        };
        Self::with_source(inner, topo.into(), source)
    }

    fn with_source(inner: Box<dyn PowerManager>, topo: Substrate, source: Source) -> Self {
        FaultInjector {
            inner,
            topo,
            source,
            stuck: vec![Stuck::No; topo.nodes()],
            delayed: Vec::new(),
            filtered: Vec::new(),
            stats: FaultStats::default(),
            trace: None,
        }
    }

    /// Makes `choice` apply to the event stream of *every* cycle, on top of
    /// whatever is armed — a permanent defect rather than a transient one.
    /// `with_standing(FaultChoice::DropWu)` is a controller whose WU
    /// level-signal input is disconnected.
    ///
    /// # Panics
    ///
    /// Panics on a seeded injector, on a `CorruptPunch` destination outside
    /// the topology, and on `StickOff`: a gate sticks at an instant, which
    /// is what arming is for.
    pub fn with_standing(mut self, choice: FaultChoice) -> Self {
        assert!(
            !matches!(choice, FaultChoice::StickOff { .. }) && self.in_range(choice),
            "{choice:?} cannot stand"
        );
        match &mut self.source {
            Source::Scripted { standing, .. } => *standing = choice,
            Source::Seeded { .. } => panic!("a seeded injector takes no standing choice"),
        }
        self
    }

    /// Faults injected so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// `false` for a choice naming a router outside the topology (a
    /// `CorruptPunch` destination or a `StickOff` router — the same class
    /// of bug [`FaultInjector::new`] rejects).
    fn in_range(&self, choice: FaultChoice) -> bool {
        match choice {
            FaultChoice::CorruptPunch { dst: r } | FaultChoice::StickOff { router: r, .. } => {
                self.topo.contains(r)
            }
            _ => true,
        }
    }

    /// Buffers an injected-fault event while tracing is enabled.
    fn record_fault(&mut self, cycle: Cycle, kind: FaultKind, router: NodeId) {
        if let Some(buf) = self.trace.as_mut() {
            buf.push(Stamped {
                cycle,
                event: Event::Fault { kind, router },
            });
        }
    }

    /// Sticks `router`'s gate off from `cycle` for `duration` cycles
    /// (`None`: until forced), extending any window already in force.
    fn stick(&mut self, cycle: Cycle, router: NodeId, duration: Option<Cycle>) {
        let window = match duration {
            Some(d) => Stuck::Until(cycle.saturating_add(d)),
            None => Stuck::Forever,
        };
        let slot = &mut self.stuck[router.index()];
        *slot = (*slot).max(window);
        self.stats.stuck_epochs_started += 1;
        self.record_fault(cycle, FaultKind::StuckEpoch, router);
    }

    /// Releases timed stuck windows that ended, then arms the sticks the
    /// source asks for this cycle. Only an Off router can have its gate
    /// stick: the fault model freezes an existing gate state, it does not
    /// power routers down.
    fn advance_stuck(&mut self, cycle: Cycle) {
        for s in &mut self.stuck {
            if matches!(*s, Stuck::Until(until) if cycle >= until) {
                *s = Stuck::No;
            }
        }
        match &mut self.source {
            // A scheduled epoch waits for its start cycle *and* for the
            // router to sleep; overlapping epochs on one router union.
            Source::Seeded { pending, .. } => {
                let mut due = Vec::new();
                pending.retain(|e| {
                    let arm = cycle >= e.start && self.inner.state(e.router) == PowerState::Off;
                    if arm {
                        due.push(*e);
                    }
                    !arm
                });
                for e in due {
                    self.stick(cycle, e.router, Some(e.duration));
                }
            }
            // A second stick on an already-stuck router is a no-op, so the
            // checker's alphabet stays idempotent.
            &mut Source::Scripted {
                armed: FaultChoice::StickOff { router, duration },
                ..
            } => {
                if self.inner.state(router) == PowerState::Off
                    && self.stuck[router.index()] == Stuck::No
                {
                    self.stick(cycle, router, duration);
                }
            }
            Source::Scripted { .. } => {}
        }
    }

    /// Applies the stuck mask and the source's drop/corrupt/jitter
    /// decisions to one event; pushes the survivor into `filtered` (or
    /// `delayed`).
    fn perturb(&mut self, cycle: Cycle, mut ev: PmEvent) {
        // Where the signal originated (for fault tracing), whether it is
        // the conventional WU handshake (a level signal) rather than a
        // punch-carrying sideband event, and the destination it encodes.
        let (origin, wu, dst) = match &mut ev {
            PmEvent::BlockedNeed { router } => (*router, true, None),
            PmEvent::HeadArrival { router, dst } => (*router, false, Some(dst)),
            PmEvent::NiMessageKnown { node, dst } | PmEvent::NiReadyToInject { node, dst } => {
                (*node, false, Some(dst))
            }
            // Slack-2 forewarnings carry no destination but ride the same
            // sideband, so they share the punch drop decision.
            PmEvent::FutureInjection { node } => (*node, false, None),
        };
        // A stuck gate ignores the assertion outright — that is what
        // "stuck" means — before the source is even asked.
        if (wu && self.stuck[origin.index()] != Stuck::No) || self.source.drops(wu) {
            let (count, kind) = if wu {
                (&mut self.stats.wu_dropped, FaultKind::WuDropped)
            } else {
                (&mut self.stats.punches_dropped, FaultKind::PunchDropped)
            };
            *count += 1;
            self.record_fault(cycle, kind, origin);
            return;
        }
        if let Some(dst) = dst {
            if let Some(bad) = self.source.corrupts(*dst, self.topo.nodes() as u16) {
                *dst = bad;
                self.stats.punches_corrupted += 1;
                self.record_fault(cycle, FaultKind::PunchCorrupted, origin);
            }
        }
        match self.source.jitter() {
            0 => self.filtered.push(ev),
            d => {
                self.stats.events_delayed += 1;
                self.delayed.push((cycle + d, ev));
            }
        }
    }

    /// `true` while the injector itself has nothing in flight: no jittered
    /// event queued, no gate stuck, no epoch waiting to arm, no choice
    /// armed. (A standing choice only filters events, and a quiet window
    /// has none.)
    fn dormant(&self) -> bool {
        self.delayed.is_empty()
            && self.stuck.iter().all(|s| *s == Stuck::No)
            && match &self.source {
                Source::Seeded { pending, .. } => pending.is_empty(),
                Source::Scripted { armed, .. } => armed.is_none(),
            }
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("scheme", &self.inner.kind())
            .field("source", &self.source)
            .field("stats", &self.stats)
            .finish()
    }
}

impl PowerManager for FaultInjector {
    fn kind(&self) -> SchemeKind {
        self.inner.kind()
    }

    /// The inner state, masked to `Off` while `r` is stuck (the faulty
    /// sleep gate keeps the datapath unpowered no matter what the scheme
    /// decided). The default `is_available` goes through this method, so
    /// the network never routes into a stuck router's datapath.
    fn state(&self, r: NodeId) -> PowerState {
        if self.stuck[r.index()] != Stuck::No {
            PowerState::Off
        } else {
            self.inner.state(r)
        }
    }

    fn tick(&mut self, cycle: Cycle, events: &[PmEvent], idle: IdleInfo<'_>) {
        self.advance_stuck(cycle);
        // Jittered events whose delay elapsed are delivered this cycle,
        // ahead of the fresh ones.
        self.filtered.clear();
        let filtered = &mut self.filtered;
        self.delayed.retain(|&(at, ev)| {
            if at <= cycle {
                filtered.push(ev);
            }
            at > cycle
        });
        for &ev in events {
            self.perturb(cycle, ev);
        }
        if let Source::Scripted { armed, .. } = &mut self.source {
            *armed = FaultChoice::None;
        }
        self.inner.tick(cycle, &self.filtered, idle);
    }

    /// Escalated wakeup: releases any stuck window on `r` (the watchdog's
    /// force-wake overrides the faulty gate) and forwards.
    fn force_wake(&mut self, r: NodeId, cycle: Cycle) {
        if self.stuck[r.index()] != Stuck::No {
            self.stuck[r.index()] = Stuck::No;
            self.stats.forced_wakes += 1;
        }
        self.inner.force_wake(r, cycle);
    }

    fn pending_punches(&self) -> usize {
        self.inner.pending_punches() + self.delayed.len()
    }

    /// Earliest cycle at which this injector (or the wrapped scheme) could
    /// act: a jittered event coming due, a stuck window expiring, a
    /// scheduled epoch starting, or the inner manager's own horizon.
    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let mut horizon = self.inner.next_event_at(now);
        let mut merge = |c: Cycle| {
            let c = c.max(now);
            horizon = Some(horizon.map_or(c, |h| h.min(c)));
        };
        for &(at, _) in &self.delayed {
            merge(at);
        }
        for s in &self.stuck {
            if let Stuck::Until(until) = *s {
                merge(until);
            }
        }
        if let Source::Seeded { pending, .. } = &self.source {
            // Arming also depends on the inner gate being Off, which can
            // change any cycle once the start has passed.
            for e in pending {
                merge(e.start);
            }
        }
        horizon
    }

    /// Bulk-advances over a quiescent window. Safe to delegate to the
    /// wrapped manager only while the injector is [dormant]: a pending
    /// epoch could arm and a timed window expires on a schedule, both of
    /// which `advance_stuck` must observe per cycle.
    ///
    /// [dormant]: FaultInjector::dormant
    fn tick_quiet(&mut self, from: Cycle, to: Cycle, idle: IdleInfo<'_>) {
        if self.dormant() && idle.idle.iter().all(|&b| b) {
            self.inner.tick_quiet(from, to, idle);
        } else {
            for c in from..to {
                self.tick(c, &[], idle);
            }
        }
    }

    /// The wrapped manager's snapshot with this injector's fault total
    /// patched in.
    fn counters(&self) -> PgCounters {
        let mut snap = self.inner.counters();
        snap.faults_injected = self.stats.total();
        snap
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
        self.stats = FaultStats::default();
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.trace = enabled.then(Vec::new);
        self.inner.set_tracing(enabled);
    }

    /// Interleaves this injector's fault events with the wrapped scheme's
    /// own trace, ordered by cycle.
    fn drain_trace(&mut self) -> Vec<Stamped> {
        let mut out = self.trace.as_mut().map(std::mem::take).unwrap_or_default();
        out.extend(self.inner.drain_trace());
        out.sort_by_key(|s| s.cycle);
        out
    }

    /// `None` for the seeded source (and whenever the wrapped manager
    /// cannot be cloned).
    fn clone_boxed(&self) -> Option<Box<dyn PowerManager>> {
        if matches!(self.source, Source::Seeded { .. }) {
            return None;
        }
        Some(Box::new(FaultInjector {
            inner: self.inner.clone_boxed()?,
            topo: self.topo,
            source: self.source.clone(),
            stuck: self.stuck.clone(),
            delayed: self.delayed.clone(),
            filtered: Vec::new(),
            stats: self.stats.clone(),
            trace: self.trace.clone(),
        }))
    }

    /// `false` for the seeded source: an RNG position and a jitter queue
    /// of unbounded depth have no canonical rebased encoding.
    fn encode_state(&self, now: Cycle, out: &mut Vec<u8>) -> bool {
        let Source::Scripted { armed, .. } = &self.source else {
            return false;
        };
        // The armed choice is consumed by the very next tick; the checker
        // encodes states *between* ticks, where it is always `None`. The
        // standing choice never changes, so it distinguishes no states.
        debug_assert!(armed.is_none(), "encode_state with a choice armed");
        for s in &self.stuck {
            let (tag, left) = match *s {
                Stuck::No => (0, 0),
                Stuck::Until(until) => (1, until.saturating_sub(now)),
                Stuck::Forever => (2, 0),
            };
            put_u8(out, tag);
            put_u64(out, left);
        }
        self.inner.encode_state(now, out)
    }

    /// `false` for the seeded source and for a choice naming a router
    /// outside the topology.
    fn arm_choice(&mut self, choice: FaultChoice) -> bool {
        let ok = self.in_range(choice);
        match &mut self.source {
            Source::Scripted { armed, .. } if ok => {
                *armed = choice;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_noc::AlwaysOn;
    use punchsim_types::Mesh;

    const N: usize = 16;

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }

    /// A gate-array-free test double: per-router on/off switch, records
    /// the events it receives.
    struct Recorder {
        counters: PgCounters,
        seen: Vec<PmEvent>,
        off: Vec<bool>,
    }

    impl Recorder {
        /// All routers on except those in `off`.
        fn boxed(off: &[usize]) -> Box<dyn PowerManager> {
            let mut r = Recorder {
                counters: PgCounters::new(N),
                seen: Vec::new(),
                off: vec![false; N],
            };
            for &i in off {
                r.off[i] = true;
            }
            Box::new(r)
        }
    }

    impl PowerManager for Recorder {
        fn kind(&self) -> SchemeKind {
            SchemeKind::ConvPg
        }
        fn state(&self, r: NodeId) -> PowerState {
            if self.off[r.index()] {
                PowerState::Off
            } else {
                PowerState::On
            }
        }
        fn tick(&mut self, _cycle: Cycle, events: &[PmEvent], _idle: IdleInfo<'_>) {
            self.seen.extend_from_slice(events);
        }
        fn force_wake(&mut self, r: NodeId, _cycle: Cycle) {
            self.off[r.index()] = false;
        }
        fn counters(&self) -> PgCounters {
            self.counters.clone()
        }
        fn reset_counters(&mut self) {
            self.counters.reset();
        }
        fn next_event_at(&self, _now: Cycle) -> Option<Cycle> {
            None
        }
    }

    /// Inner double for horizon tests: always Off, no events of its own.
    struct Dormant {
        counters: PgCounters,
    }

    impl Dormant {
        fn boxed() -> Box<dyn PowerManager> {
            Box::new(Dormant {
                counters: PgCounters::new(N),
            })
        }
    }

    impl PowerManager for Dormant {
        fn kind(&self) -> SchemeKind {
            SchemeKind::ConvPg
        }
        fn state(&self, _r: NodeId) -> PowerState {
            PowerState::Off
        }
        fn tick(&mut self, _cycle: Cycle, _events: &[PmEvent], _idle: IdleInfo<'_>) {}
        fn force_wake(&mut self, _r: NodeId, _cycle: Cycle) {}
        fn counters(&self) -> PgCounters {
            self.counters.clone()
        }
        fn reset_counters(&mut self) {
            self.counters.reset();
        }
        fn next_event_at(&self, _now: Cycle) -> Option<Cycle> {
            None
        }
        fn tick_quiet(&mut self, _from: Cycle, _to: Cycle, _idle: IdleInfo<'_>) {}
    }

    fn head(router: u16, dst: u16) -> PmEvent {
        PmEvent::HeadArrival {
            router: NodeId(router),
            dst: NodeId(dst),
        }
    }

    fn wu(router: u16) -> PmEvent {
        PmEvent::BlockedNeed {
            router: NodeId(router),
        }
    }

    const BUSY: [bool; N] = [false; N];
    const IDLE: [bool; N] = [true; N];

    fn seeded(inner: Box<dyn PowerManager>, cfg: &FaultConfig) -> FaultInjector {
        FaultInjector::new(inner, cfg, mesh()).unwrap()
    }

    fn scripted(inner: Box<dyn PowerManager>) -> FaultInjector {
        FaultInjector::scripted(inner, mesh())
    }

    /// One injector per source over `inner()`, set up for the same faults:
    /// `cfg`'s single stuck epoch and, when `cfg` drops every punch, a
    /// standing `DropPunch`. The seeded source schedules the epoch itself;
    /// the scripted one has it armed by [`tick_both_ways`]. Jitter has no
    /// scripted counterpart and only perturbs the seeded instance.
    fn both_sources(
        inner: impl Fn() -> Box<dyn PowerManager>,
        cfg: &FaultConfig,
    ) -> [(&'static str, FaultInjector); 2] {
        assert_eq!(cfg.stuck_epochs.len(), 1);
        let standing = match cfg.drop_punch_ppm {
            0 => FaultChoice::None,
            1_000_000 => FaultChoice::DropPunch,
            other => panic!("no scripted counterpart for drop_punch_ppm = {other}"),
        };
        [
            ("seeded", seeded(inner(), cfg)),
            ("scripted", scripted(inner()).with_standing(standing)),
        ]
    }

    /// Ticks `f` at `c`, first arming the scripted counterpart of `epoch`
    /// when its start cycle comes up (`arm_choice` is a `false` no-op on
    /// the seeded source, whose config schedules the epoch).
    fn tick_both_ways(f: &mut FaultInjector, epoch: StuckEpoch, c: Cycle, events: &[PmEvent]) {
        if c == epoch.start {
            f.arm_choice(FaultChoice::StickOff {
                router: epoch.router,
                duration: Some(epoch.duration),
            });
        }
        f.tick(c, events, IdleInfo { idle: &BUSY });
    }

    fn one_epoch(router: u16, start: Cycle, duration: Cycle) -> FaultConfig {
        FaultConfig {
            stuck_epochs: vec![StuckEpoch {
                router: NodeId(router),
                start,
                duration,
            }],
            ..FaultConfig::default()
        }
    }

    // ---- both sources, one body ----

    #[test]
    fn no_faults_pass_everything_through() {
        let cfg = FaultConfig::default();
        for (name, mut f) in [
            ("seeded", seeded(Recorder::boxed(&[]), &cfg)),
            ("scripted", scripted(Recorder::boxed(&[]))),
        ] {
            for c in 0..10 {
                f.tick(c, &[head(0, 5), wu(3)], IdleInfo { idle: &BUSY });
            }
            assert_eq!(f.stats().total(), 0, "{name}");
            assert_eq!(f.counters().faults_injected, 0, "{name}");
            assert_eq!(f.pending_punches(), 0, "{name}");
        }
    }

    #[test]
    fn stuck_gate_masks_state_swallows_wu_and_force_wake_clears_it() {
        let cfg = one_epoch(3, 5, 1_000);
        let epoch = cfg.stuck_epochs[0];
        // Router 3 is genuinely off.
        for (name, mut f) in both_sources(|| Recorder::boxed(&[3]), &cfg) {
            for c in 0..5 {
                tick_both_ways(&mut f, epoch, c, &[]);
            }
            assert_eq!(f.stats().stuck_epochs_started, 0, "{name}: early");
            tick_both_ways(&mut f, epoch, 5, &[]);
            assert_eq!(f.stats().stuck_epochs_started, 1, "{name}");
            assert_eq!(f.state(NodeId(3)), PowerState::Off, "{name}");
            // WU assertions are swallowed while stuck.
            tick_both_ways(&mut f, epoch, 6, &[wu(3)]);
            assert_eq!(f.stats().wu_dropped, 1, "{name}");
            // Escalation clears the mask and reaches the inner gate.
            f.force_wake(NodeId(3), 7);
            assert_eq!(f.stats().forced_wakes, 1, "{name}");
            assert_eq!(f.state(NodeId(3)), PowerState::On, "{name}: inner woke");
            // The window is gone for good: it must not re-arm.
            for c in 8..30 {
                tick_both_ways(&mut f, epoch, c, &[wu(3)]);
            }
            assert_eq!(f.stats().stuck_epochs_started, 1, "{name}");
            assert_eq!(f.stats().wu_dropped, 1, "{name}");
        }
    }

    #[test]
    fn stick_only_applies_to_an_off_router_and_expires() {
        let cfg = one_epoch(3, 1, 5);
        let epoch = cfg.stuck_epochs[0];
        for (name, mut f) in both_sources(|| Recorder::boxed(&[3]), &cfg) {
            // Router 2 is on: a stick aimed at it never lands. (The seeded
            // twin of this is `seeded_epoch_waits_for_router_to_sleep`.)
            f.arm_choice(FaultChoice::StickOff {
                router: NodeId(2),
                duration: Some(5),
            });
            tick_both_ways(&mut f, epoch, 0, &[]);
            assert_eq!(f.stats().stuck_epochs_started, 0, "{name}");
            // Router 3 is off: it sticks, swallowing WU, until the expiry.
            tick_both_ways(&mut f, epoch, 1, &[]);
            assert_eq!(f.stats().stuck_epochs_started, 1, "{name}");
            assert_eq!(f.next_event_at(2), Some(6), "{name}: expiry horizon");
            tick_both_ways(&mut f, epoch, 2, &[wu(3)]);
            assert_eq!(f.stats().wu_dropped, 1, "{name}");
            // Past the expiry the mask is released (the inner gate is
            // still off, but WU assertions reach it again).
            tick_both_ways(&mut f, epoch, 6, &[]);
            tick_both_ways(&mut f, epoch, 7, &[wu(3)]);
            assert_eq!(f.stats().wu_dropped, 1, "{name}: released");
            assert_eq!(f.next_event_at(8), None, "{name}");
        }
    }

    #[test]
    fn tracing_surfaces_injected_faults_as_events() {
        let cfg = FaultConfig {
            drop_punch_ppm: 1_000_000,
            ..one_epoch(3, 0, 100)
        };
        let epoch = cfg.stuck_epochs[0];
        for (name, mut f) in both_sources(|| Recorder::boxed(&[3]), &cfg) {
            f.set_tracing(true);
            tick_both_ways(&mut f, epoch, 0, &[head(0, 5), wu(3)]);
            let kinds: Vec<FaultKind> = f
                .drain_trace()
                .iter()
                .filter_map(|s| match s.event {
                    Event::Fault { kind, .. } => Some(kind),
                    _ => None,
                })
                .collect();
            assert_eq!(
                kinds,
                [
                    FaultKind::StuckEpoch,
                    FaultKind::PunchDropped,
                    FaultKind::WuDropped
                ],
                "{name}"
            );
            // Drained once: the buffer is empty until the next fault.
            assert!(f.drain_trace().is_empty(), "{name}");
            // Disabled tracing buffers nothing.
            f.set_tracing(false);
            tick_both_ways(&mut f, epoch, 1, &[head(0, 5)]);
            assert!(f.drain_trace().is_empty(), "{name}");
            assert_eq!(f.stats().punches_dropped, 2, "{name}");
        }
    }

    #[test]
    fn tick_quiet_matches_per_cycle_loop_with_pending_work() {
        let cfg = FaultConfig {
            max_wakeup_jitter: 4,
            seed: 42,
            ..one_epoch(3, 10, 25)
        };
        let epoch = cfg.stuck_epochs[0];
        // Prologue: populate the (seeded) jitter queue and arm the epoch.
        let build = || {
            both_sources(Dormant::boxed, &cfg).map(|(name, mut f)| {
                for c in 0..12 {
                    tick_both_ways(&mut f, epoch, c, &[head(1, 9)]);
                }
                assert_eq!(f.stats().stuck_epochs_started, 1, "{name}");
                (name, f)
            })
        };
        for ((name, mut slow), (_, mut fast)) in build().into_iter().zip(build()) {
            for c in 12..80 {
                slow.tick(c, &[], IdleInfo { idle: &IDLE });
            }
            fast.tick_quiet(12, 80, IdleInfo { idle: &IDLE });
            assert_eq!(slow.stats(), fast.stats(), "{name}");
            assert_eq!(slow.pending_punches(), fast.pending_punches(), "{name}");
            assert_eq!(slow.counters(), fast.counters(), "{name}");
            assert_eq!(slow.next_event_at(80), fast.next_event_at(80), "{name}");
            assert_eq!(slow.state(NodeId(3)), fast.state(NodeId(3)), "{name}");
        }
    }

    #[test]
    fn dormant_tick_quiet_delegates_to_inner() {
        let cfg = FaultConfig::default();
        for (name, mut f) in [
            ("seeded", seeded(Box::new(AlwaysOn::new(N)), &cfg)),
            (
                "scripted",
                scripted(Box::new(AlwaysOn::new(N))).with_standing(FaultChoice::DropWu),
            ),
        ] {
            f.tick_quiet(0, 10_000, IdleInfo { idle: &IDLE });
            assert_eq!(f.stats().total(), 0, "{name}");
            assert_eq!(f.next_event_at(10_000), None, "{name}");
        }
    }

    // ---- the seeded source ----

    #[test]
    fn out_of_mesh_stuck_epoch_is_a_typed_config_error() {
        let cfg = one_epoch(99, 0, 10);
        let err = FaultInjector::new(Recorder::boxed(&[]), &cfg, mesh()).unwrap_err();
        assert_eq!(err, ConfigError::BadStuckRouter(NodeId(99)));
    }

    #[test]
    fn full_drop_removes_all_punch_events_but_spares_wu() {
        let cfg = FaultConfig {
            drop_punch_ppm: 1_000_000,
            ..FaultConfig::default()
        };
        let mut f = seeded(Recorder::boxed(&[]), &cfg);
        for c in 0..20 {
            f.tick(c, &[head(0, 5), wu(3)], IdleInfo { idle: &BUSY });
        }
        assert_eq!(f.stats().punches_dropped, 20);
        // The WU safety net is untouched by punch drops.
        assert_eq!(f.stats().wu_dropped, 0);
        assert_eq!(f.counters().faults_injected, 20);
    }

    #[test]
    fn corruption_rewrites_dst_to_valid_different_node() {
        let cfg = FaultConfig {
            corrupt_punch_ppm: 1_000_000,
            seed: 7,
            ..FaultConfig::default()
        };
        let mut f = seeded(Box::new(AlwaysOn::new(N)), &cfg);
        for c in 0..50 {
            f.tick(c, &[head(0, 5)], IdleInfo { idle: &BUSY });
        }
        assert_eq!(f.stats().punches_corrupted, 50);
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            let d = corrupt_dst(&mut rng, NodeId(5), N as u16);
            assert_ne!(d, NodeId(5));
            assert!(mesh().contains(d), "corrupted dst {d} must stay in-mesh");
        }
    }

    #[test]
    fn jitter_delays_but_never_loses_events() {
        let cfg = FaultConfig {
            max_wakeup_jitter: 3,
            seed: 11,
            ..FaultConfig::default()
        };
        let mut f = seeded(Recorder::boxed(&[]), &cfg);
        for c in 0..40 {
            f.tick(c, &[head(1, 9)], IdleInfo { idle: &BUSY });
        }
        // Drain the queue.
        for c in 40..50 {
            f.tick(c, &[], IdleInfo { idle: &BUSY });
        }
        assert!(f.stats().events_delayed > 0, "jitter should trigger");
        assert_eq!(f.pending_punches(), 0, "queue fully drained");
        assert_eq!(f.stats().punches_dropped, 0, "jitter never loses events");
    }

    #[test]
    fn seeded_epoch_waits_for_router_to_sleep() {
        // The recorder keeps router 2 on: the epoch may never arm.
        let mut f = seeded(Recorder::boxed(&[]), &one_epoch(2, 0, 100));
        for c in 0..10 {
            f.tick(c, &[], IdleInfo { idle: &BUSY });
        }
        assert_eq!(
            f.stats().stuck_epochs_started,
            0,
            "an on router cannot be stuck off"
        );
        assert_eq!(f.state(NodeId(2)), PowerState::On);
    }

    #[test]
    fn overlapping_epochs_on_one_router_union() {
        let cfg = FaultConfig {
            stuck_epochs: vec![
                StuckEpoch {
                    router: NodeId(3),
                    start: 0,
                    duration: 30,
                },
                StuckEpoch {
                    router: NodeId(3),
                    start: 10,
                    duration: 5,
                },
                StuckEpoch {
                    router: NodeId(3),
                    start: 20,
                    duration: 40,
                },
            ],
            ..FaultConfig::default()
        };
        let mut f = seeded(Dormant::boxed(), &cfg);
        let mut stuck_cycles = 0;
        for c in 0..100 {
            f.tick(c, &[wu(3)], IdleInfo { idle: &BUSY });
            stuck_cycles += u64::from(f.stats().wu_dropped == stuck_cycles + 1);
        }
        // Every epoch counts, a shorter one inside a longer one changes
        // nothing, and the mask holds until the last window ends at 60.
        assert_eq!(f.stats().stuck_epochs_started, 3);
        assert_eq!(f.stats().wu_dropped, 60);
        assert_eq!(f.next_event_at(100), None);
    }

    #[test]
    fn next_event_at_tracks_epochs_and_delayed_events() {
        let mut f = seeded(Dormant::boxed(), &one_epoch(3, 50, 100));
        // Pending epoch: the horizon is its start cycle (clamped to now).
        assert_eq!(f.next_event_at(10), Some(50));
        assert_eq!(f.next_event_at(60), Some(60));
        // A jittered event in flight bounds the horizon too.
        f.delayed.push((30, head(0, 5)));
        assert_eq!(f.next_event_at(10), Some(30));
        assert_eq!(f.next_event_at(40), Some(40), "overdue events fire now");
        f.delayed.clear();
        // Arm the epoch (the Dormant inner is Off) and check expiry.
        f.tick(50, &[], IdleInfo { idle: &BUSY });
        assert_eq!(f.stats().stuck_epochs_started, 1);
        assert_eq!(f.next_event_at(60), Some(150));
        // Once every epoch is done the injector adds no horizon.
        for c in 150..152 {
            f.tick(c, &[], IdleInfo { idle: &BUSY });
        }
        assert_eq!(f.next_event_at(200), None);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let cfg = FaultConfig {
            drop_punch_ppm: 300_000,
            corrupt_punch_ppm: 100_000,
            drop_wu_ppm: 50_000,
            max_wakeup_jitter: 2,
            seed: 99,
            ..FaultConfig::default()
        };
        let run = || {
            let mut f = seeded(Box::new(AlwaysOn::new(N)), &cfg);
            for c in 0..500 {
                let r = (c % 16) as u16;
                f.tick(
                    c,
                    &[head(r, ((c * 3) % 16) as u16), wu(r)],
                    IdleInfo { idle: &BUSY },
                );
            }
            f.stats().clone()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical seeds must give identical fault streams");
        assert!(a.total() > 0, "faults should actually fire at these rates");
    }

    #[test]
    fn the_seeded_source_cannot_be_cloned_encoded_or_armed() {
        let mut f = seeded(Box::new(AlwaysOn::new(N)), &FaultConfig::default());
        assert!(f.clone_boxed().is_none());
        assert!(!f.encode_state(0, &mut Vec::new()));
        assert!(!f.arm_choice(FaultChoice::DropPunch));
        assert!(!f.arm_choice(FaultChoice::None));
    }

    // ---- the scripted source ----

    #[test]
    fn armed_choice_is_one_shot() {
        let mut f = scripted(Recorder::boxed(&[]));
        assert!(f.arm_choice(FaultChoice::DropPunch));
        f.tick(0, &[head(0, 5)], IdleInfo { idle: &BUSY });
        assert_eq!(f.stats().punches_dropped, 1);
        // The next tick is fault-free again.
        f.tick(1, &[head(0, 5)], IdleInfo { idle: &BUSY });
        assert_eq!(f.stats().punches_dropped, 1);
    }

    #[test]
    fn drop_wu_swallows_the_level_signal_for_one_cycle() {
        let mut f = scripted(Recorder::boxed(&[]));
        assert!(f.arm_choice(FaultChoice::DropWu));
        f.tick(0, &[wu(3), head(0, 5)], IdleInfo { idle: &BUSY });
        assert_eq!(f.stats().wu_dropped, 1);
        assert_eq!(f.stats().punches_dropped, 0, "punches unaffected");
    }

    #[test]
    fn corrupt_punch_rewrites_all_destinations_that_cycle() {
        let mut f = scripted(Recorder::boxed(&[]));
        assert!(f.arm_choice(FaultChoice::CorruptPunch { dst: NodeId(9) }));
        f.tick(0, &[head(0, 5), head(1, 7)], IdleInfo { idle: &BUSY });
        assert_eq!(f.stats().punches_corrupted, 2);
    }

    #[test]
    fn standing_choice_applies_every_cycle_on_top_of_the_armed_one() {
        let mut f = scripted(Recorder::boxed(&[])).with_standing(FaultChoice::DropWu);
        assert!(f.arm_choice(FaultChoice::DropPunch));
        f.tick(0, &[wu(3), head(0, 5)], IdleInfo { idle: &BUSY });
        assert_eq!((f.stats().wu_dropped, f.stats().punches_dropped), (1, 1));
        // The armed choice is spent, the standing one is not.
        f.tick(1, &[wu(3), head(0, 5)], IdleInfo { idle: &BUSY });
        assert_eq!((f.stats().wu_dropped, f.stats().punches_dropped), (2, 1));
    }

    #[test]
    fn force_wake_releases_a_forever_stick() {
        let mut f = scripted(Recorder::boxed(&[3]));
        assert!(f.arm_choice(FaultChoice::StickOff {
            router: NodeId(3),
            duration: None,
        }));
        f.tick(0, &[], IdleInfo { idle: &BUSY });
        assert_eq!(f.state(NodeId(3)), PowerState::Off);
        assert_eq!(f.next_event_at(1), None, "nothing but a force-wake ends it");
        f.force_wake(NodeId(3), 1);
        assert_eq!(f.stats().forced_wakes, 1);
        assert_eq!(f.state(NodeId(3)), PowerState::On, "inner force_wake ran");
    }

    #[test]
    fn out_of_range_choices_are_rejected_not_armed() {
        let mut f = scripted(Recorder::boxed(&[]));
        assert!(!f.arm_choice(FaultChoice::StickOff {
            router: NodeId(99),
            duration: None,
        }));
        assert!(!f.arm_choice(FaultChoice::CorruptPunch { dst: NodeId(99) }));
        // Nothing armed: the next tick is fault-free.
        f.tick(0, &[head(0, 3)], IdleInfo { idle: &BUSY });
        assert_eq!(f.stats().total(), 0);
    }

    #[test]
    fn clone_boxed_and_encode_state_compose_over_the_inner_manager() {
        let f = scripted(Box::new(AlwaysOn::new(N)));
        let mut a = Vec::new();
        assert!(f.encode_state(0, &mut a));
        let clone = f.clone_boxed().expect("AlwaysOn is clonable");
        let mut b = Vec::new();
        assert!(clone.encode_state(0, &mut b));
        assert_eq!(a, b, "clone encodes identically");
        // Recorder has neither clone_boxed nor encode_state: the
        // composition reports failure instead of a partial answer.
        let g = scripted(Recorder::boxed(&[]));
        assert!(g.clone_boxed().is_none());
        assert!(!g.encode_state(1, &mut Vec::new()));
    }

    #[test]
    fn timed_stick_encoding_is_rebased_to_now() {
        // Two copies stuck by the same window at different absolute times
        // must encode identically at equal remaining durations.
        let encode_after = |start: Cycle| {
            let mut f = scripted(Dormant::boxed());
            assert!(f.arm_choice(FaultChoice::StickOff {
                router: NodeId(1),
                duration: Some(8),
            }));
            f.tick(start, &[], IdleInfo { idle: &BUSY });
            let mut out = Vec::new();
            f.encode_state(start + 3, &mut out);
            out
        };
        assert_eq!(encode_after(0), encode_after(1_000));
        assert_eq!(encode_after(0)[9..18], [1, 5, 0, 0, 0, 0, 0, 0, 0]);
    }
}
