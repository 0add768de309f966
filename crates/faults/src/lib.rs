//! Seeded, deterministic fault injection for the power-gating machinery.
//!
//! The Power Punch paper's central safety argument (§4.1–4.2) is that punch
//! signals are *pure optimization*: the conventional WU handshake — a level
//! signal re-asserted every stalled cycle — remains the correctness safety
//! net, so losing, corrupting or delaying punches can cost latency but never
//! deliverability. This crate makes that argument executable: a
//! [`FaultInjector`] wraps any [`PowerManager`] and perturbs the sideband
//! traffic flowing into it according to a [`FaultConfig`]:
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
//! * **stuck-off epochs** — a router's sleep gate ignores every wakeup for
//!   a scheduled window, exercising the network watchdog's escalating
//!   force-wake recovery.
//!
//! All randomness comes from one [`SimRng`] stream seeded by
//! [`FaultConfig::seed`], independent of the traffic seed, so a fault
//! schedule is bit-reproducible across runs and stable under traffic
//! changes.

#![forbid(unsafe_code)]

use punchsim_noc::obs::{Event, FaultKind, Stamped};
use punchsim_noc::{IdleInfo, PgCounters, PmEvent, PowerManager, PowerState};
use punchsim_types::{
    ConfigError, Cycle, FaultConfig, NodeId, SchemeKind, SimRng, StuckEpoch, Substrate,
};

pub mod choice;

pub use choice::ChoiceInjector;

/// Counts of each fault actually injected so far (as opposed to the
/// configured probabilities).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Punch-carrying events dropped in transit.
    pub punches_dropped: u64,
    /// Punch destinations rewritten to a different valid target.
    pub punches_corrupted: u64,
    /// Cycles of the conventional WU level signal lost (including every
    /// assertion swallowed by an armed stuck-off epoch).
    pub wu_dropped: u64,
    /// Events delivered late due to wakeup jitter.
    pub events_delayed: u64,
    /// Stuck-off epochs that armed.
    pub stuck_epochs_started: u64,
    /// Stuck-off epochs cleared by the watchdog's force-wake escalation
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

/// Lifecycle of one scheduled [`StuckEpoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EpochState {
    /// Waiting for the start cycle and an Off router.
    Pending,
    /// The router is stuck: externally Off, ignoring wakeups until `until`.
    Armed {
        /// First cycle at which the epoch expires on its own.
        until: Cycle,
    },
    /// Expired or cleared by a force-wake.
    Done,
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
    rng: SimRng,
    cfg: FaultConfig,
    /// Events delayed by jitter, as `(due_cycle, event)`.
    delayed: Vec<(Cycle, PmEvent)>,
    /// Scratch buffer for the filtered event stream (reused across ticks).
    filtered: Vec<PmEvent>,
    epochs: Vec<(StuckEpoch, EpochState)>,
    /// `stuck[r]` while some armed epoch masks router `r` to Off.
    stuck: Vec<bool>,
    stats: FaultStats,
    /// Injected-fault events buffered for the network's sink; `None` while
    /// tracing is disabled.
    trace: Option<Vec<Stamped>>,
}

impl FaultInjector {
    /// Wraps `inner` with the fault schedule in `cfg` over `topo` (a bare
    /// [`punchsim_types::Mesh`] converts implicitly).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadStuckRouter`] if any scheduled stuck epoch
    /// names a router outside `topo`. This is checked here (not just in
    /// [`punchsim_types::SimConfig::validate`]) because the injector can be
    /// composed directly over hand-built managers, where the epoch would
    /// otherwise index out of bounds deep inside `advance_epochs`.
    pub fn new(
        inner: Box<dyn PowerManager>,
        cfg: &FaultConfig,
        topo: impl Into<Substrate>,
    ) -> Result<Self, ConfigError> {
        let topo: Substrate = topo.into();
        if let Some(e) = cfg.stuck_epochs.iter().find(|e| !topo.contains(e.router)) {
            return Err(ConfigError::BadStuckRouter(e.router));
        }
        Ok(FaultInjector {
            inner,
            topo,
            rng: SimRng::seed_from_u64(cfg.seed),
            cfg: cfg.clone(),
            delayed: Vec::new(),
            filtered: Vec::new(),
            epochs: cfg
                .stuck_epochs
                .iter()
                .map(|&e| (e, EpochState::Pending))
                .collect(),
            stuck: vec![false; topo.nodes()],
            stats: FaultStats::default(),
            trace: None,
        })
    }

    /// Faults injected so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The wrapped power manager.
    pub fn inner(&self) -> &dyn PowerManager {
        self.inner.as_ref()
    }

    /// Arms pending epochs whose start cycle has passed *and* whose router
    /// is actually Off (a powered-on router cannot be stuck off), and
    /// expires armed epochs whose window ended.
    fn advance_epochs(&mut self, cycle: Cycle) {
        let mut changed = false;
        let mut armed_now = Vec::new();
        for (e, st) in &mut self.epochs {
            match *st {
                EpochState::Pending => {
                    if cycle >= e.start && self.inner.state(e.router) == PowerState::Off {
                        *st = EpochState::Armed {
                            until: cycle.saturating_add(e.duration),
                        };
                        self.stats.stuck_epochs_started += 1;
                        armed_now.push(e.router);
                        changed = true;
                    }
                }
                EpochState::Armed { until } => {
                    if cycle >= until {
                        *st = EpochState::Done;
                        changed = true;
                    }
                }
                EpochState::Done => {}
            }
        }
        if changed {
            // A router may appear in several epochs: recompute the union.
            self.stuck.iter_mut().for_each(|s| *s = false);
            for (e, st) in &self.epochs {
                if matches!(st, EpochState::Armed { .. }) {
                    self.stuck[e.router.index()] = true;
                }
            }
        }
        for r in armed_now {
            self.record_fault(cycle, FaultKind::StuckEpoch, r);
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

    /// Rewrites `dst` to a different in-topology router — the decoded-to-
    /// wrong-codeword model. Deterministic given the RNG stream position.
    fn corrupt_dst(&mut self, dst: NodeId) -> NodeId {
        let n = self.topo.nodes() as u16;
        if n <= 1 {
            return dst;
        }
        let pick = self.rng.random_range(0..n - 1);
        // Skip over the original so the corrupted value always differs.
        if pick >= dst.0 {
            NodeId(pick + 1)
        } else {
            NodeId(pick)
        }
    }

    /// Applies drop/corrupt/jitter to one event; pushes the survivor into
    /// `filtered` (or `delayed`).
    fn perturb(&mut self, cycle: Cycle, ev: PmEvent) {
        // Where the perturbed signal originated, for fault-event tracing.
        let origin = match ev {
            PmEvent::HeadArrival { router, .. } | PmEvent::BlockedNeed { router } => router,
            PmEvent::NiMessageKnown { node, .. }
            | PmEvent::FutureInjection { node }
            | PmEvent::NiReadyToInject { node, .. } => node,
        };
        let mut ev = ev;
        match &mut ev {
            // The conventional WU handshake: a level signal.
            PmEvent::BlockedNeed { router } => {
                if self.stuck[router.index()] {
                    // The stuck gate ignores the assertion outright.
                    self.stats.wu_dropped += 1;
                    self.record_fault(cycle, FaultKind::WuDropped, origin);
                    return;
                }
                if self.cfg.drop_wu_ppm > 0 && self.rng.random_bool_ppm(self.cfg.drop_wu_ppm) {
                    self.stats.wu_dropped += 1;
                    self.record_fault(cycle, FaultKind::WuDropped, origin);
                    return;
                }
            }
            // Punch-carrying sideband events.
            PmEvent::HeadArrival { dst, .. }
            | PmEvent::NiMessageKnown { dst, .. }
            | PmEvent::NiReadyToInject { dst, .. } => {
                if self.cfg.drop_punch_ppm > 0 && self.rng.random_bool_ppm(self.cfg.drop_punch_ppm)
                {
                    self.stats.punches_dropped += 1;
                    self.record_fault(cycle, FaultKind::PunchDropped, origin);
                    return;
                }
                if self.cfg.corrupt_punch_ppm > 0
                    && self.rng.random_bool_ppm(self.cfg.corrupt_punch_ppm)
                {
                    let d = *dst;
                    *dst = self.corrupt_dst(d);
                    self.stats.punches_corrupted += 1;
                    self.record_fault(cycle, FaultKind::PunchCorrupted, origin);
                }
            }
            // Slack-2 forewarnings carry no destination but ride the same
            // sideband, so they share the punch drop probability.
            PmEvent::FutureInjection { .. } => {
                if self.cfg.drop_punch_ppm > 0 && self.rng.random_bool_ppm(self.cfg.drop_punch_ppm)
                {
                    self.stats.punches_dropped += 1;
                    self.record_fault(cycle, FaultKind::PunchDropped, origin);
                    return;
                }
            }
        }
        if self.cfg.max_wakeup_jitter > 0 {
            let d = self.rng.random_range(0..self.cfg.max_wakeup_jitter + 1) as Cycle;
            if d > 0 {
                self.stats.events_delayed += 1;
                self.delayed.push((cycle + d, ev));
                return;
            }
        }
        self.filtered.push(ev);
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("scheme", &self.inner.kind())
            .field("stats", &self.stats)
            .finish()
    }
}

impl PowerManager for FaultInjector {
    fn kind(&self) -> SchemeKind {
        self.inner.kind()
    }

    /// The inner state, masked to `Off` while a stuck epoch is armed on
    /// `r`. The default `is_available` goes through this method, so the
    /// network never routes into a stuck router's datapath.
    fn state(&self, r: NodeId) -> PowerState {
        if self.stuck[r.index()] {
            PowerState::Off
        } else {
            self.inner.state(r)
        }
    }

    fn tick(&mut self, cycle: Cycle, events: &[PmEvent], idle: IdleInfo<'_>) {
        self.advance_epochs(cycle);
        // Jittered events whose delay elapsed are delivered this cycle.
        let mut due = Vec::new();
        self.delayed.retain(|(at, ev)| {
            if *at <= cycle {
                due.push(*ev);
                false
            } else {
                true
            }
        });
        self.filtered.clear();
        self.filtered.extend(due);
        for &ev in events {
            self.perturb(cycle, ev);
        }
        let filtered = std::mem::take(&mut self.filtered);
        self.inner.tick(cycle, &filtered, idle);
        self.filtered = filtered;
    }

    /// Escalated wakeup: clears any armed stuck epoch on `r` (the
    /// watchdog's force-wake overrides the faulty gate) and forwards.
    fn force_wake(&mut self, r: NodeId, cycle: Cycle) {
        if self.stuck[r.index()] {
            self.stuck[r.index()] = false;
            self.stats.forced_wakes += 1;
            for (e, st) in &mut self.epochs {
                if e.router == r && matches!(st, EpochState::Armed { .. }) {
                    *st = EpochState::Done;
                }
            }
        }
        self.inner.force_wake(r, cycle);
    }

    fn pending_punches(&self) -> usize {
        self.inner.pending_punches() + self.delayed.len()
    }

    /// Earliest cycle at which this injector (or the wrapped scheme) could
    /// act: a jittered event coming due, a stuck epoch arming or expiring,
    /// or the inner manager's own horizon.
    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let mut horizon = self.inner.next_event_at(now);
        let mut merge = |c: Cycle| {
            let c = c.max(now);
            horizon = Some(horizon.map_or(c, |h| h.min(c)));
        };
        for &(at, _) in &self.delayed {
            merge(at);
        }
        for (e, st) in &self.epochs {
            match st {
                // Arming also depends on the inner gate being Off, which
                // can change any cycle once the start has passed.
                EpochState::Pending => merge(e.start),
                EpochState::Armed { until } => merge(*until),
                EpochState::Done => {}
            }
        }
        horizon
    }

    /// Bulk-advances over a quiescent window. Safe to delegate to the
    /// wrapped manager only when the injector itself has no pending work:
    /// no jittered events in flight and every stuck epoch finished (a
    /// `Pending` epoch could arm and an `Armed` one expires on a schedule,
    /// both of which `advance_epochs` must observe per cycle).
    fn tick_quiet(&mut self, from: Cycle, to: Cycle, idle: IdleInfo<'_>) {
        let dormant = self.delayed.is_empty()
            && self.epochs.iter().all(|(_, st)| *st == EpochState::Done)
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

    /// Interleaves this injector's fault events with the wrapped scheme's
    /// own trace, ordered by cycle.
    fn drain_trace(&mut self) -> Vec<Stamped> {
        let mut out = self.trace.as_mut().map(std::mem::take).unwrap_or_default();
        out.extend(self.inner.drain_trace());
        out.sort_by_key(|s| s.cycle);
        out
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

    /// A gate-array-free test double that records the events it receives.
    struct Recorder {
        counters: PgCounters,
        seen: Vec<PmEvent>,
        off: Vec<bool>,
        forced: Vec<NodeId>,
    }

    impl Recorder {
        fn new(n: usize) -> Self {
            Recorder {
                counters: PgCounters::new(n),
                seen: Vec::new(),
                off: vec![false; n],
                forced: Vec::new(),
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
            self.forced.push(r);
            self.off[r.index()] = false;
        }
        fn counters(&self) -> PgCounters {
            self.counters.clone()
        }
        fn reset_counters(&mut self) {
            self.counters.reset();
        }
    }

    fn head(router: u16, dst: u16) -> PmEvent {
        PmEvent::HeadArrival {
            router: NodeId(router),
            dst: NodeId(dst),
        }
    }

    #[test]
    fn out_of_mesh_stuck_epoch_is_a_typed_config_error() {
        let mesh = Mesh::new(4, 4);
        let cfg = FaultConfig {
            stuck_epochs: vec![StuckEpoch {
                router: NodeId(99),
                start: 0,
                duration: 10,
            }],
            ..FaultConfig::default()
        };
        // Previously this epoch would have indexed out of bounds deep in
        // `advance_epochs`; now construction rejects it up front.
        let err = FaultInjector::new(Box::new(Recorder::new(16)), &cfg, mesh).unwrap_err();
        assert_eq!(err, ConfigError::BadStuckRouter(NodeId(99)));
    }

    #[test]
    fn inactive_config_passes_everything_through() {
        let mesh = Mesh::new(4, 4);
        let cfg = FaultConfig::default();
        let mut f = FaultInjector::new(Box::new(Recorder::new(16)), &cfg, mesh).unwrap();
        let evs = [head(0, 5), PmEvent::BlockedNeed { router: NodeId(3) }];
        for c in 0..10 {
            f.tick(
                c,
                &evs,
                IdleInfo {
                    idle: &idle_none(16),
                },
            );
        }
        assert_eq!(f.stats().total(), 0);
        assert_eq!(f.counters().faults_injected, 0);
    }

    #[test]
    fn full_drop_removes_all_punch_events_but_spares_wu() {
        let mesh = Mesh::new(4, 4);
        let cfg = FaultConfig {
            drop_punch_ppm: 1_000_000,
            ..FaultConfig::default()
        };
        let mut f = FaultInjector::new(Box::new(Recorder::new(16)), &cfg, mesh).unwrap();
        for c in 0..20 {
            f.tick(
                c,
                &[head(0, 5), PmEvent::BlockedNeed { router: NodeId(3) }],
                IdleInfo {
                    idle: &idle_none(16),
                },
            );
        }
        assert_eq!(f.stats().punches_dropped, 20);
        // The WU safety net is untouched by punch drops.
        assert_eq!(f.stats().wu_dropped, 0);
        assert_eq!(f.counters().faults_injected, 20);
    }

    #[test]
    fn corruption_rewrites_dst_to_valid_different_node() {
        let mesh = Mesh::new(4, 4);
        let cfg = FaultConfig {
            corrupt_punch_ppm: 1_000_000,
            seed: 7,
            ..FaultConfig::default()
        };
        let mut f = FaultInjector::new(Box::new(AlwaysOn::new(16)), &cfg, mesh).unwrap();
        for c in 0..50 {
            f.tick(
                c,
                &[head(0, 5)],
                IdleInfo {
                    idle: &idle_none(16),
                },
            );
        }
        assert_eq!(f.stats().punches_corrupted, 50);
        for _ in 0..100 {
            let d = f.corrupt_dst(NodeId(5));
            assert_ne!(d, NodeId(5));
            assert!(mesh.contains(d), "corrupted dst {d} must stay in-mesh");
        }
    }

    #[test]
    fn jitter_delays_but_never_loses_events() {
        let mesh = Mesh::new(4, 4);
        let cfg = FaultConfig {
            max_wakeup_jitter: 3,
            seed: 11,
            ..FaultConfig::default()
        };
        let mut f = FaultInjector::new(Box::new(Recorder::new(16)), &cfg, mesh).unwrap();
        for c in 0..40 {
            f.tick(
                c,
                &[head(1, 9)],
                IdleInfo {
                    idle: &idle_none(16),
                },
            );
        }
        // Drain the queue.
        for c in 40..50 {
            f.tick(
                c,
                &[],
                IdleInfo {
                    idle: &idle_none(16),
                },
            );
        }
        assert!(f.stats().events_delayed > 0, "jitter should trigger");
        assert_eq!(f.pending_punches(), 0, "queue fully drained");
        assert_eq!(f.stats().punches_dropped, 0, "jitter never loses events");
    }

    #[test]
    fn stuck_epoch_masks_state_and_force_wake_clears_it() {
        let mesh = Mesh::new(4, 4);
        let mut inner = Recorder::new(16);
        inner.off[3] = true; // router 3 is genuinely off
        let cfg = FaultConfig {
            stuck_epochs: vec![StuckEpoch {
                router: NodeId(3),
                start: 5,
                duration: 1_000,
            }],
            ..FaultConfig::default()
        };
        let mut f = FaultInjector::new(Box::new(inner), &cfg, mesh).unwrap();
        let idle = idle_none(16);
        for c in 0..5 {
            f.tick(c, &[], IdleInfo { idle: &idle });
        }
        assert_eq!(f.stats().stuck_epochs_started, 0, "not armed before start");
        f.tick(5, &[], IdleInfo { idle: &idle });
        assert_eq!(f.stats().stuck_epochs_started, 1);
        assert_eq!(f.state(NodeId(3)), PowerState::Off);
        // WU assertions are swallowed while stuck.
        f.tick(
            6,
            &[PmEvent::BlockedNeed { router: NodeId(3) }],
            IdleInfo { idle: &idle },
        );
        assert_eq!(f.stats().wu_dropped, 1);
        // Escalation clears the mask and reaches the inner gate.
        f.force_wake(NodeId(3), 7);
        assert_eq!(f.stats().forced_wakes, 1);
        assert_eq!(f.state(NodeId(3)), PowerState::On, "inner force_wake ran");
        // The epoch is done: it must not re-arm.
        for c in 8..30 {
            f.tick(c, &[], IdleInfo { idle: &idle });
        }
        assert_eq!(f.stats().stuck_epochs_started, 1);
    }

    #[test]
    fn stuck_epoch_waits_for_router_to_sleep() {
        let mesh = Mesh::new(4, 4);
        let cfg = FaultConfig {
            stuck_epochs: vec![StuckEpoch {
                router: NodeId(2),
                start: 0,
                duration: 100,
            }],
            ..FaultConfig::default()
        };
        // The recorder keeps router 2 on: the epoch may never arm.
        let mut f = FaultInjector::new(Box::new(Recorder::new(16)), &cfg, mesh).unwrap();
        let idle = idle_none(16);
        for c in 0..10 {
            f.tick(c, &[], IdleInfo { idle: &idle });
        }
        assert_eq!(
            f.stats().stuck_epochs_started,
            0,
            "an on router cannot be stuck off"
        );
        assert_eq!(f.state(NodeId(2)), PowerState::On);
    }

    #[test]
    fn tracing_surfaces_injected_faults_as_events() {
        let mesh = Mesh::new(4, 4);
        let mut inner = Recorder::new(16);
        inner.off[3] = true;
        let cfg = FaultConfig {
            drop_punch_ppm: 1_000_000,
            stuck_epochs: vec![StuckEpoch {
                router: NodeId(3),
                start: 0,
                duration: 100,
            }],
            ..FaultConfig::default()
        };
        let mut f = FaultInjector::new(Box::new(inner), &cfg, mesh).unwrap();
        f.set_tracing(true);
        let idle = idle_none(16);
        f.tick(
            0,
            &[head(0, 5), PmEvent::BlockedNeed { router: NodeId(3) }],
            IdleInfo { idle: &idle },
        );
        let events = f.drain_trace();
        let kinds: Vec<FaultKind> = events
            .iter()
            .filter_map(|s| match s.event {
                Event::Fault { kind, .. } => Some(kind),
                _ => None,
            })
            .collect();
        assert!(kinds.contains(&FaultKind::StuckEpoch), "{events:?}");
        assert!(kinds.contains(&FaultKind::PunchDropped), "{events:?}");
        assert!(kinds.contains(&FaultKind::WuDropped), "{events:?}");
        // Drained once: the buffer is empty until the next perturbation.
        assert!(f.drain_trace().is_empty());
        // Disabled tracing buffers nothing.
        f.set_tracing(false);
        f.tick(1, &[head(0, 5)], IdleInfo { idle: &idle });
        assert!(f.drain_trace().is_empty());
    }

    /// Inner double for horizon tests: always Off, no events of its own.
    struct Dormant {
        counters: PgCounters,
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

    #[test]
    fn next_event_at_tracks_epochs_and_delayed_events() {
        let mesh = Mesh::new(4, 4);
        let cfg = FaultConfig {
            stuck_epochs: vec![StuckEpoch {
                router: NodeId(3),
                start: 50,
                duration: 100,
            }],
            ..FaultConfig::default()
        };
        let inner = Dormant {
            counters: PgCounters::new(16),
        };
        let mut f = FaultInjector::new(Box::new(inner), &cfg, mesh).unwrap();
        // Pending epoch: the horizon is its start cycle (clamped to now).
        assert_eq!(f.next_event_at(10), Some(50));
        assert_eq!(f.next_event_at(60), Some(60));
        // A jittered event in flight bounds the horizon too.
        f.delayed.push((30, head(0, 5)));
        assert_eq!(f.next_event_at(10), Some(30));
        assert_eq!(f.next_event_at(40), Some(40), "overdue events fire now");
        f.delayed.clear();
        // Arm the epoch (the Dormant inner is Off) and check expiry.
        let idle = idle_none(16);
        f.tick(50, &[], IdleInfo { idle: &idle });
        assert_eq!(f.stats().stuck_epochs_started, 1);
        assert_eq!(f.next_event_at(60), Some(150));
        // Once every epoch is done the injector adds no horizon.
        for c in 150..152 {
            f.tick(c, &[], IdleInfo { idle: &idle });
        }
        assert_eq!(f.next_event_at(200), None);
    }

    #[test]
    fn tick_quiet_matches_per_cycle_loop_with_pending_work() {
        let mesh = Mesh::new(4, 4);
        let cfg = FaultConfig {
            max_wakeup_jitter: 4,
            stuck_epochs: vec![StuckEpoch {
                router: NodeId(3),
                start: 10,
                duration: 25,
            }],
            seed: 42,
            ..FaultConfig::default()
        };
        let build = || {
            let inner = Dormant {
                counters: PgCounters::new(16),
            };
            let mut f = FaultInjector::new(Box::new(inner), &cfg, mesh).unwrap();
            let idle = idle_none(16);
            // Prologue: populate the jitter queue and arm the epoch.
            for c in 0..12 {
                f.tick(c, &[head(1, 9)], IdleInfo { idle: &idle });
            }
            f
        };
        let all_idle = vec![true; 16];
        let mut slow = build();
        for c in 12..80 {
            slow.tick(c, &[], IdleInfo { idle: &all_idle });
        }
        let mut fast = build();
        fast.tick_quiet(12, 80, IdleInfo { idle: &all_idle });
        assert_eq!(slow.stats(), fast.stats());
        assert_eq!(slow.pending_punches(), fast.pending_punches());
        assert_eq!(slow.counters(), fast.counters());
        assert_eq!(slow.next_event_at(80), fast.next_event_at(80));
    }

    #[test]
    fn dormant_tick_quiet_delegates_to_inner() {
        let mesh = Mesh::new(4, 4);
        let cfg = FaultConfig::default();
        let mut f = FaultInjector::new(Box::new(AlwaysOn::new(16)), &cfg, mesh).unwrap();
        let all_idle = vec![true; 16];
        f.tick_quiet(0, 10_000, IdleInfo { idle: &all_idle });
        assert_eq!(f.stats().total(), 0);
        assert_eq!(f.next_event_at(10_000), None);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let mesh = Mesh::new(4, 4);
        let cfg = FaultConfig {
            drop_punch_ppm: 300_000,
            corrupt_punch_ppm: 100_000,
            drop_wu_ppm: 50_000,
            max_wakeup_jitter: 2,
            seed: 99,
            ..FaultConfig::default()
        };
        let run = || {
            let mut f = FaultInjector::new(Box::new(AlwaysOn::new(16)), &cfg, mesh).unwrap();
            let idle = vec![false; 16];
            for c in 0..500 {
                f.tick(
                    c,
                    &[
                        head((c % 16) as u16, ((c * 3) % 16) as u16),
                        PmEvent::BlockedNeed {
                            router: NodeId((c % 16) as u16),
                        },
                    ],
                    IdleInfo { idle: &idle },
                );
            }
            f.stats().clone()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical seeds must give identical fault streams");
        assert!(a.total() > 0, "faults should actually fire at these rates");
    }
}
