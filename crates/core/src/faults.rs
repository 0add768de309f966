//! Deterministic fault injection for the power-gating machinery: one
//! wrapper, two decision sources.
//!
//! The Power Punch paper's central safety argument (§4.1–4.2) is that punch
//! signals are *pure optimization*: the conventional WU handshake — a level
//! signal re-asserted every stalled cycle — remains the correctness safety
//! net, so losing, corrupting or delaying punches can cost latency but never
//! deliverability. This module makes that argument executable: a
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

    /// `true` while the injector has no transient of its own: no jittered
    /// event queued, no timed stuck window running, no epoch waiting to
    /// arm, no choice armed. A stick until forced and a standing choice
    /// never change on their own — the first only masks `state`, the
    /// second only filters events, and a quiet span has none.
    fn dormant(&self) -> bool {
        self.delayed.is_empty()
            && !self.stuck.iter().any(|s| matches!(s, Stuck::Until(_)))
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
    /// decided). The network reads availability off this state
    /// (`PowerState::available_by`), so it never routes into a stuck
    /// router's datapath.
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

    /// Ticks until the injector is dormant — a jittered event comes due,
    /// a timed window expires, a pending epoch arms, an armed choice is
    /// consumed, each on a schedule `tick` must observe per cycle — then
    /// hands the rest of the span to the wrapped manager's own
    /// `tick_quiet`.
    fn tick_quiet(&mut self, from: Cycle, to: Cycle, idle: IdleInfo<'_>) {
        let mut c = from;
        while c < to && !self.dormant() {
            self.tick(c, &[], idle);
            c += 1;
        }
        self.inner.tick_quiet(c, to, idle);
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
    //! Only what reaches private state (`corrupt_dst`); everything the
    //! public API can show is pinned in `tests/faults.rs` and
    //! `tests/wrapper_counters.rs`.

    use super::*;
    use punchsim_noc::AlwaysOn;
    use punchsim_types::Mesh;

    const N: usize = 16;
    const BUSY: [bool; N] = [false; N];

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }

    fn head(router: u16, dst: u16) -> PmEvent {
        PmEvent::HeadArrival {
            router: NodeId(router),
            dst: NodeId(dst),
        }
    }

    fn seeded(inner: Box<dyn PowerManager>, cfg: &FaultConfig) -> FaultInjector {
        FaultInjector::new(inner, cfg, mesh()).unwrap()
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
            assert!(
                d.index() < mesh().nodes(),
                "corrupted dst {d} must stay in-mesh"
            );
        }
    }
}
