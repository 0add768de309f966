//! RNG-free, per-cycle fault injection driven by explicit
//! [`FaultChoice`]s — the enumerable counterpart of [`FaultInjector`].
//!
//! The sampled injector answers "does the protocol survive *this seeded
//! schedule* of faults"; the exhaustive checker needs the universally
//! quantified question "does it survive *every* schedule". That requires
//! the fault alphabet to be an explicit per-cycle decision the checker can
//! branch on, so [`ChoiceInjector`] holds no RNG at all: each tick applies
//! exactly the one [`FaultChoice`] armed for it (default
//! [`FaultChoice::None`]) to the whole event stream of that cycle, then
//! forgets it.
//!
//! A choice applies to *all* matching events of its cycle — the coarsest
//! granularity that still contains every single-event fault, keeping the
//! branching factor (and thus the reachable set) small without losing
//! counterexamples: any stall reachable by dropping one punch among
//! several is also reachable on a path where the punches occur on
//! different cycles.
//!
//! [`FaultInjector`]: crate::FaultInjector

use punchsim_noc::obs::{Event, FaultKind, Stamped};
use punchsim_noc::{IdleInfo, PgCounters, PmEvent, PowerManager, PowerState};
use punchsim_types::{ConfigError, Cycle, FaultChoice, NodeId, SchemeKind, Substrate};

use crate::FaultStats;

/// Stuck-off status of one router under scripted [`FaultChoice::StickOff`]
/// faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stuck {
    /// Not stuck.
    No,
    /// Stuck until the given cycle (exclusive), then released.
    Until(Cycle),
    /// Stuck until the watchdog force-wakes the router — the adversarial
    /// worst case for the bounded-stall property.
    Forever,
}

/// A deterministic, enumerable fault-injecting wrapper: faults happen if
/// and only if a [`FaultChoice`] was armed for the cycle (via
/// [`PowerManager::arm_choice`], reached through
/// `Network::arm_fault_choice`).
pub struct ChoiceInjector {
    inner: Box<dyn PowerManager>,
    topo: Substrate,
    /// The choice armed for the next tick; consumed (reset to `None`) by it.
    armed: FaultChoice,
    stuck: Vec<Stuck>,
    /// Scratch for the filtered event stream (reused across ticks).
    filtered: Vec<PmEvent>,
    stats: FaultStats,
    /// Injected-fault events buffered for the network's sink; `None` while
    /// tracing is disabled.
    trace: Option<Vec<Stamped>>,
}

impl ChoiceInjector {
    /// Wraps `inner` over `topo` (a bare [`punchsim_types::Mesh`] converts
    /// implicitly) with no faults armed.
    pub fn new(inner: Box<dyn PowerManager>, topo: impl Into<Substrate>) -> Self {
        let topo: Substrate = topo.into();
        ChoiceInjector {
            inner,
            topo,
            armed: FaultChoice::None,
            stuck: vec![Stuck::No; topo.nodes()],
            filtered: Vec::new(),
            stats: FaultStats::default(),
            trace: None,
        }
    }

    /// Faults injected so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The wrapped power manager.
    pub fn inner(&self) -> &dyn PowerManager {
        self.inner.as_ref()
    }

    /// Validates a choice against the topology without arming it.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadStuckRouter`] when the choice names a
    /// router outside the topology (both `CorruptPunch` destinations and
    /// `StickOff` routers must be in range — the same class of bug the
    /// validated [`crate::FaultInjector::new`] rejects).
    pub fn validate_choice(&self, choice: FaultChoice) -> Result<(), ConfigError> {
        let named = match choice {
            FaultChoice::CorruptPunch { dst } => Some(dst),
            FaultChoice::StickOff { router, .. } => Some(router),
            _ => None,
        };
        match named {
            Some(r) if !self.topo.contains(r) => Err(ConfigError::BadStuckRouter(r)),
            _ => Ok(()),
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

    /// Releases timed stuck windows whose expiry has passed.
    fn expire_stuck(&mut self, cycle: Cycle) {
        for s in &mut self.stuck {
            if let Stuck::Until(until) = *s {
                if cycle >= until {
                    *s = Stuck::No;
                }
            }
        }
    }

    /// Applies `choice` to one event: `true` keeps it (possibly rewritten
    /// in place), `false` drops it. Stuck routers swallow their WU
    /// assertions regardless of the choice — that is what "stuck" means.
    fn apply(&mut self, cycle: Cycle, choice: FaultChoice, ev: &mut PmEvent) -> bool {
        if let PmEvent::BlockedNeed { router } = *ev {
            if self.stuck[router.index()] != Stuck::No {
                self.stats.wu_dropped += 1;
                self.record_fault(cycle, FaultKind::WuDropped, router);
                return false;
            }
        }
        match (choice, ev) {
            (FaultChoice::DropWu, &mut PmEvent::BlockedNeed { router }) => {
                self.stats.wu_dropped += 1;
                self.record_fault(cycle, FaultKind::WuDropped, router);
                false
            }
            (
                FaultChoice::DropPunch,
                &mut (PmEvent::HeadArrival { router: origin, .. }
                | PmEvent::NiMessageKnown { node: origin, .. }
                | PmEvent::NiReadyToInject { node: origin, .. }
                | PmEvent::FutureInjection { node: origin }),
            ) => {
                self.stats.punches_dropped += 1;
                self.record_fault(cycle, FaultKind::PunchDropped, origin);
                false
            }
            (
                FaultChoice::CorruptPunch { dst: bad },
                PmEvent::HeadArrival {
                    router: origin,
                    dst,
                }
                | PmEvent::NiMessageKnown { node: origin, dst }
                | PmEvent::NiReadyToInject { node: origin, dst },
            ) => {
                if *dst != bad {
                    *dst = bad;
                    let origin = *origin;
                    self.stats.punches_corrupted += 1;
                    self.record_fault(cycle, FaultKind::PunchCorrupted, origin);
                }
                true
            }
            _ => true,
        }
    }
}

impl std::fmt::Debug for ChoiceInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChoiceInjector")
            .field("scheme", &self.inner.kind())
            .field("armed", &self.armed)
            .field("stats", &self.stats)
            .finish()
    }
}

impl PowerManager for ChoiceInjector {
    fn kind(&self) -> SchemeKind {
        self.inner.kind()
    }

    /// The inner state, masked to `Off` while the router is stuck (the
    /// faulty sleep gate keeps the datapath unpowered no matter what the
    /// scheme decided).
    fn state(&self, r: NodeId) -> PowerState {
        if self.stuck[r.index()] != Stuck::No {
            PowerState::Off
        } else {
            self.inner.state(r)
        }
    }

    fn tick(&mut self, cycle: Cycle, events: &[PmEvent], idle: IdleInfo<'_>) {
        self.expire_stuck(cycle);
        let choice = std::mem::take(&mut self.armed);
        if let FaultChoice::StickOff { router, duration } = choice {
            // Only an Off router can have its sleep gate stick: the fault
            // model freezes an existing gate state, it does not power
            // routers down.
            if self.inner.state(router) == PowerState::Off
                && self.stuck[router.index()] == Stuck::No
            {
                self.stuck[router.index()] = match duration {
                    Some(d) => Stuck::Until(cycle.saturating_add(d)),
                    None => Stuck::Forever,
                };
                self.stats.stuck_epochs_started += 1;
                self.record_fault(cycle, FaultKind::StuckEpoch, router);
            }
        }
        self.filtered.clear();
        for &ev in events {
            let mut ev = ev;
            if self.apply(cycle, choice, &mut ev) {
                self.filtered.push(ev);
            }
        }
        let filtered = std::mem::take(&mut self.filtered);
        self.inner.tick(cycle, &filtered, idle);
        self.filtered = filtered;
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
        self.inner.pending_punches()
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let mut horizon = self.inner.next_event_at(now);
        for s in &self.stuck {
            if let Stuck::Until(until) = *s {
                let c = until.max(now);
                horizon = Some(horizon.map_or(c, |h| h.min(c)));
            }
        }
        horizon
    }

    /// Bulk-advances over a quiescent window; safe to delegate only while
    /// the injector is fully dormant (nothing armed, nothing stuck).
    fn tick_quiet(&mut self, from: Cycle, to: Cycle, idle: IdleInfo<'_>) {
        let dormant = self.armed.is_none()
            && self.stuck.iter().all(|s| *s == Stuck::No)
            && idle.idle.iter().all(|&b| b);
        if dormant {
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

    fn drain_trace(&mut self) -> Vec<Stamped> {
        let mut out = self.trace.as_mut().map(std::mem::take).unwrap_or_default();
        out.extend(self.inner.drain_trace());
        out.sort_by_key(|s| s.cycle);
        out
    }

    fn clone_boxed(&self) -> Option<Box<dyn PowerManager>> {
        let inner = self.inner.clone_boxed()?;
        Some(Box::new(ChoiceInjector {
            inner,
            topo: self.topo,
            armed: self.armed,
            stuck: self.stuck.clone(),
            filtered: Vec::new(),
            stats: self.stats.clone(),
            trace: self.trace.clone(),
        }))
    }

    fn encode_state(&self, now: Cycle, out: &mut Vec<u8>) -> bool {
        use punchsim_noc::snapshot::{put_u64, put_u8};
        // The armed choice is consumed by the very next tick; the checker
        // encodes states *between* ticks, where it is always `None`.
        debug_assert!(self.armed.is_none(), "encode_state with a choice armed");
        for s in &self.stuck {
            match *s {
                Stuck::No => {
                    put_u8(out, 0);
                    put_u64(out, 0);
                }
                Stuck::Until(until) => {
                    put_u8(out, 1);
                    put_u64(out, until.saturating_sub(now));
                }
                Stuck::Forever => {
                    put_u8(out, 2);
                    put_u64(out, 0);
                }
            }
        }
        self.inner.encode_state(now, out)
    }

    fn arm_choice(&mut self, choice: FaultChoice) -> bool {
        if self.validate_choice(choice).is_err() {
            return false;
        }
        self.armed = choice;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_noc::AlwaysOn;
    use punchsim_types::Mesh;

    fn idle_none(n: usize) -> Vec<bool> {
        vec![false; n]
    }

    fn head(router: u16, dst: u16) -> PmEvent {
        PmEvent::HeadArrival {
            router: NodeId(router),
            dst: NodeId(dst),
        }
    }

    /// Minimal inner double: per-router on/off switch, records events.
    struct Recorder {
        counters: PgCounters,
        seen: Vec<PmEvent>,
        off: Vec<bool>,
    }

    impl Recorder {
        fn new(n: usize) -> Self {
            Recorder {
                counters: PgCounters::new(n),
                seen: Vec::new(),
                off: vec![false; n],
            }
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
    }

    #[test]
    fn unarmed_ticks_pass_everything_through() {
        let mesh = Mesh::new(4, 4);
        let mut f = ChoiceInjector::new(Box::new(Recorder::new(16)), mesh);
        let idle = idle_none(16);
        for c in 0..10 {
            f.tick(
                c,
                &[head(0, 5), PmEvent::BlockedNeed { router: NodeId(3) }],
                IdleInfo { idle: &idle },
            );
        }
        assert_eq!(f.stats().total(), 0);
    }

    #[test]
    fn armed_choice_is_one_shot() {
        let mesh = Mesh::new(4, 4);
        let mut f = ChoiceInjector::new(Box::new(Recorder::new(16)), mesh);
        let idle = idle_none(16);
        assert!(f.arm_choice(FaultChoice::DropPunch));
        f.tick(0, &[head(0, 5)], IdleInfo { idle: &idle });
        assert_eq!(f.stats().punches_dropped, 1);
        // The next tick is fault-free again.
        f.tick(1, &[head(0, 5)], IdleInfo { idle: &idle });
        assert_eq!(f.stats().punches_dropped, 1);
    }

    #[test]
    fn drop_wu_swallows_the_level_signal_for_one_cycle() {
        let mesh = Mesh::new(4, 4);
        let mut f = ChoiceInjector::new(Box::new(Recorder::new(16)), mesh);
        let idle = idle_none(16);
        assert!(f.arm_choice(FaultChoice::DropWu));
        f.tick(
            0,
            &[PmEvent::BlockedNeed { router: NodeId(3) }, head(0, 5)],
            IdleInfo { idle: &idle },
        );
        assert_eq!(f.stats().wu_dropped, 1);
        assert_eq!(f.stats().punches_dropped, 0, "punches unaffected");
    }

    #[test]
    fn corrupt_punch_rewrites_all_destinations_that_cycle() {
        let mesh = Mesh::new(4, 4);
        let mut f = ChoiceInjector::new(Box::new(Recorder::new(16)), mesh);
        let idle = idle_none(16);
        assert!(f.arm_choice(FaultChoice::CorruptPunch { dst: NodeId(9) }));
        f.tick(0, &[head(0, 5), head(1, 7)], IdleInfo { idle: &idle });
        assert_eq!(f.stats().punches_corrupted, 2);
    }

    #[test]
    fn stick_off_only_applies_to_an_off_router_and_expires() {
        let mesh = Mesh::new(4, 4);
        let mut inner = Recorder::new(16);
        inner.off[3] = true;
        let mut f = ChoiceInjector::new(Box::new(inner), mesh);
        let idle = idle_none(16);
        // Router 2 is on: the choice is a no-op.
        assert!(f.arm_choice(FaultChoice::StickOff {
            router: NodeId(2),
            duration: Some(5),
        }));
        f.tick(0, &[], IdleInfo { idle: &idle });
        assert_eq!(f.stats().stuck_epochs_started, 0);
        // Router 3 is off: it sticks, swallowing WU, until the expiry.
        assert!(f.arm_choice(FaultChoice::StickOff {
            router: NodeId(3),
            duration: Some(5),
        }));
        f.tick(1, &[], IdleInfo { idle: &idle });
        assert_eq!(f.stats().stuck_epochs_started, 1);
        assert_eq!(f.state(NodeId(3)), PowerState::Off);
        f.tick(
            2,
            &[PmEvent::BlockedNeed { router: NodeId(3) }],
            IdleInfo { idle: &idle },
        );
        assert_eq!(f.stats().wu_dropped, 1);
        // Past the expiry the mask is released (the inner gate is still
        // off, but WU assertions reach it again).
        f.tick(6, &[], IdleInfo { idle: &idle });
        f.tick(
            7,
            &[PmEvent::BlockedNeed { router: NodeId(3) }],
            IdleInfo { idle: &idle },
        );
        assert_eq!(f.stats().wu_dropped, 1, "released after expiry");
    }

    #[test]
    fn force_wake_releases_a_forever_stick() {
        let mesh = Mesh::new(4, 4);
        let mut inner = Recorder::new(16);
        inner.off[3] = true;
        let mut f = ChoiceInjector::new(Box::new(inner), mesh);
        let idle = idle_none(16);
        assert!(f.arm_choice(FaultChoice::StickOff {
            router: NodeId(3),
            duration: None,
        }));
        f.tick(0, &[], IdleInfo { idle: &idle });
        assert_eq!(f.state(NodeId(3)), PowerState::Off);
        f.force_wake(NodeId(3), 1);
        assert_eq!(f.stats().forced_wakes, 1);
        assert_eq!(f.state(NodeId(3)), PowerState::On, "inner force_wake ran");
    }

    #[test]
    fn out_of_range_choices_are_rejected_not_armed() {
        let mesh = Mesh::new(2, 2);
        let mut f = ChoiceInjector::new(Box::new(Recorder::new(4)), mesh);
        assert!(!f.arm_choice(FaultChoice::StickOff {
            router: NodeId(99),
            duration: None,
        }));
        assert!(!f.arm_choice(FaultChoice::CorruptPunch { dst: NodeId(99) }));
        assert!(f.validate_choice(FaultChoice::DropPunch).is_ok());
        // Nothing armed: the next tick is fault-free.
        let idle = idle_none(4);
        f.tick(0, &[head(0, 3)], IdleInfo { idle: &idle });
        assert_eq!(f.stats().total(), 0);
    }

    #[test]
    fn clone_boxed_and_encode_state_compose_over_always_on() {
        let mesh = Mesh::new(2, 2);
        let f = ChoiceInjector::new(Box::new(AlwaysOn::new(4)), mesh);
        let mut a = Vec::new();
        assert!(f.encode_state(0, &mut a));
        let clone = f.clone_boxed().expect("AlwaysOn is clonable");
        let mut b = Vec::new();
        assert!(clone.encode_state(0, &mut b));
        assert_eq!(a, b, "clone encodes identically");
        // A timed stick changes the encoding, and rebasing keeps two
        // time-shifted copies identical.
        let mut inner = Recorder::new(4);
        inner.off[1] = true;
        let mut g = ChoiceInjector::new(Box::new(inner), mesh);
        let idle = idle_none(4);
        assert!(g.arm_choice(FaultChoice::StickOff {
            router: NodeId(1),
            duration: Some(8),
        }));
        g.tick(0, &[], IdleInfo { idle: &idle });
        let mut c = Vec::new();
        // Recorder has no encode_state: the composition reports failure.
        assert!(!g.encode_state(1, &mut c));
    }
}
