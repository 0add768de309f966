//! The power-management interface between the network substrate and a
//! power-gating scheme.
//!
//! The network reports micro-architectural events ([`PmEvent`]) and per-router
//! idleness each cycle; the [`PowerManager`] decides which routers are on,
//! off or waking. The schemes themselves (conventional, ConvOpt, Power
//! Punch) live in `punchsim-core`; this crate only provides the trait and
//! the trivial [`AlwaysOn`] baseline so the substrate is testable on its own.

use punchsim_obs::{PowerTag, Stamped};
use punchsim_types::{Cycle, FaultChoice, NodeId, SchemeKind};

/// Power state of one router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Powered on; can receive, allocate and forward flits.
    On,
    /// Power-gated; blocks every path through the router.
    Off,
    /// Waking up; becomes `On` at the stored cycle.
    WakingUp {
        /// First cycle at which the router is fully on.
        ready_at: Cycle,
    },
}

impl PowerState {
    /// `true` only for `On`.
    #[inline]
    pub fn is_on(self) -> bool {
        matches!(self, PowerState::On)
    }

    /// The observability label of this state (drops the `ready_at` cycle;
    /// the transition event's own timestamp carries the timing).
    #[inline]
    pub fn tag(self) -> PowerTag {
        match self {
            PowerState::On => PowerTag::On,
            PowerState::Off => PowerTag::Off,
            PowerState::WakingUp { .. } => PowerTag::Waking,
        }
    }
}

/// A micro-architectural event reported to the power manager.
///
/// Events generated during cycle `t` are processed by
/// [`PowerManager::tick`] for cycle `t`; their effects (wakeups, punch
/// signals) become visible to the network from cycle `t + 1`, matching the
/// one-cycle controller latency of the hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmEvent {
    /// A head flit was latched (BW stage) at `router` for a packet headed to
    /// `dst`. This is where look-ahead information becomes available: the
    /// ConvOpt early wakeup (paper ref. 24) and the Power Punch multi-hop
    /// wakeup (§4.1) are both generated here.
    HeadArrival {
        /// Router that latched the head flit.
        router: NodeId,
        /// Packet destination.
        dst: NodeId,
    },
    /// A head-of-line flit at a neighbour of `router` (or at its local NI)
    /// is stalled because `router` is not on. This is the conventional WU
    /// handshake signal of Figure 2; it is re-emitted every stalled cycle
    /// (a level signal).
    BlockedNeed {
        /// The sleeping router that must wake for traffic to proceed.
        router: NodeId,
    },
    /// A message entered the NI at `node` and its destination is now known —
    /// the beginning of "slack 1" (§4.2). Emitted `ni_latency` cycles before
    /// the packet could first inject.
    NiMessageKnown {
        /// Injecting node.
        node: NodeId,
        /// Message destination.
        dst: NodeId,
    },
    /// The endpoint at `node` knows a packet *will* be generated although
    /// its destination is not known yet — the beginning of "slack 2" (§4.2),
    /// e.g. the start of an L2/directory access.
    FutureInjection {
        /// Node that will inject.
        node: NodeId,
    },
    /// The packet at the head of the NI at `node` has finished the NI
    /// pipeline and is attempting to inject (the paper's "checking the
    /// availability of the connected input port").
    NiReadyToInject {
        /// Injecting node.
        node: NodeId,
        /// Packet destination.
        dst: NodeId,
    },
}

/// Per-cycle idleness snapshot handed to [`PowerManager::tick`].
#[derive(Debug, Clone, Copy)]
pub struct IdleInfo<'a> {
    /// `idle[r]` is `true` when router `r`'s datapath is empty *and* no flit
    /// is in flight toward it on any incoming link (the paper's two-cycle
    /// safety timeout is subsumed by the in-flight check).
    pub idle: &'a [bool],
}

/// Aggregate power-gating activity counters for a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PgCounters {
    /// Per-router cycles spent fully off.
    pub off_cycles: Vec<u64>,
    /// Per-router cycles spent in the wakeup transient.
    pub waking_cycles: Vec<u64>,
    /// Per-router count of sleep transitions (each costs roughly one
    /// break-even time of energy overhead).
    pub sleep_events: Vec<u64>,
    /// Per-router count of wakeup transitions.
    pub wake_events: Vec<u64>,
    /// Total punch-signal link traversals (sideband wire activity).
    pub punch_hops: u64,
    /// Per-router punch hops: `punch_hops_at[r]` counts the sideband
    /// punch-signal link traversals *departing* router `r`. Sums to
    /// `punch_hops`; the heatmap plane behind `router_punch_hops`. Empty
    /// for schemes without a punch fabric.
    pub punch_hops_at: Vec<u64>,
    /// Total cycles a conventional WU wire was asserted.
    pub wu_assertions: u64,
    /// Per-router WU assertions: `wu_assertions_at[r]` counts the cycles
    /// a WU wire was asserted *for* router `r` (the router being woken).
    /// Sums to `wu_assertions`; the heatmap plane behind
    /// `router_wu_assertions`.
    pub wu_assertions_at: Vec<u64>,
    /// Per-router force-wake escalations (sums to `escalations`).
    pub escalations_at: Vec<u64>,
    /// WU assertions that found the target already mid-wakeup — the level
    /// signal retrying while the gate transient completes.
    pub wu_retries: u64,
    /// Force-wake escalations: the watchdog timed out a WU that a (stuck)
    /// router kept ignoring and overrode its sleep gate.
    pub escalations: u64,
    /// Faults injected into the power-gating machinery (0 without a fault
    /// injector): dropped/corrupted/delayed sideband events and stuck-off
    /// epochs.
    pub faults_injected: u64,
    /// Bufferless-router deflections: head flits that lost a same-cycle
    /// latch arbitration and were bounced onto a longer path (0 for every
    /// buffered scheme).
    pub deflections: u64,
}

impl PgCounters {
    /// Creates zeroed counters for `n` routers.
    pub fn new(n: usize) -> Self {
        PgCounters {
            off_cycles: vec![0; n],
            waking_cycles: vec![0; n],
            sleep_events: vec![0; n],
            wake_events: vec![0; n],
            punch_hops: 0,
            punch_hops_at: Vec::new(),
            wu_assertions: 0,
            wu_assertions_at: vec![0; n],
            escalations_at: vec![0; n],
            wu_retries: 0,
            escalations: 0,
            faults_injected: 0,
            deflections: 0,
        }
    }

    /// Records one WU-wire assertion toward router `r` (global total and
    /// the per-router plane together).
    pub fn record_wu_assertion(&mut self, r: NodeId) {
        self.wu_assertions += 1;
        if let Some(c) = self.wu_assertions_at.get_mut(r.index()) {
            *c += 1;
        }
    }

    /// Records one force-wake escalation of router `r`.
    pub fn record_escalation(&mut self, r: NodeId) {
        self.escalations += 1;
        if let Some(c) = self.escalations_at.get_mut(r.index()) {
            *c += 1;
        }
    }

    /// Sum of off cycles over all routers.
    pub fn total_off_cycles(&self) -> u64 {
        self.off_cycles.iter().sum()
    }

    /// Sum of waking cycles over all routers.
    pub fn total_waking_cycles(&self) -> u64 {
        self.waking_cycles.iter().sum()
    }

    /// Sum of wake events over all routers.
    pub fn total_wake_events(&self) -> u64 {
        self.wake_events.iter().sum()
    }

    /// Resets every counter to zero (used at the end of warm-up).
    pub fn reset(&mut self) {
        for v in [
            &mut self.off_cycles,
            &mut self.waking_cycles,
            &mut self.sleep_events,
            &mut self.wake_events,
            &mut self.punch_hops_at,
            &mut self.wu_assertions_at,
            &mut self.escalations_at,
        ] {
            v.iter_mut().for_each(|c| *c = 0);
        }
        self.punch_hops = 0;
        self.wu_assertions = 0;
        self.wu_retries = 0;
        self.escalations = 0;
        self.faults_injected = 0;
        self.deflections = 0;
    }
}

/// A power-gating scheme controlling all routers of one network.
///
/// Implementations live in `punchsim-core`; the network calls
/// [`PowerManager::tick`] exactly once per cycle, after delivering that
/// cycle's events.
///
/// Managers must be `Sync`: during a sharded tick every shard — the host
/// thread and the pool workers alike — reads [`PowerManager::state`] and
/// [`PowerManager::is_available`] through one shared `&dyn PowerManager`,
/// the way every neighbour reads a router's PG wire in hardware. All
/// mutation goes through `&mut self` on the host thread between sweeps,
/// so plain-data managers satisfy the bound for free.
pub trait PowerManager: Sync {
    /// Which scheme this manager implements.
    fn kind(&self) -> SchemeKind;

    /// Current power state of router `r`.
    fn state(&self, r: NodeId) -> PowerState;

    /// `true` when router `r` will be able to receive a flit that arrives at
    /// cycle `by`: it is on now, or its deterministic wakeup countdown
    /// completes by then. This lets switch allocation overlap the tail of a
    /// wakeup with flit transit — the paper's hiding arithmetic
    /// (`Twakeup/Trouter` hops, §3) assumes exactly this overlap.
    fn is_available(&self, r: NodeId, by: Cycle) -> bool {
        match self.state(r) {
            PowerState::On => true,
            PowerState::WakingUp { ready_at } => ready_at <= by,
            PowerState::Off => false,
        }
    }

    /// Advances the manager by one cycle: process `events` generated during
    /// `cycle`, move wakeup timers, propagate punch signals, and take sleep
    /// decisions using `idle`.
    fn tick(&mut self, cycle: Cycle, events: &[PmEvent], idle: IdleInfo<'_>);

    /// Escalated wakeup: the network watchdog timed out the level-signaled
    /// WU handshake on router `r` and overrides its sleep gate — the
    /// hardware's last-resort force-wake path. Implementations must clear
    /// any fault condition keeping `r` off and start (or continue) its
    /// wakeup; schemes without gating ignore it.
    fn force_wake(&mut self, _r: NodeId, _cycle: Cycle) {}

    /// Punch signals currently in flight or queued in the sideband fabric
    /// (0 for schemes without one). Used by stall diagnostics.
    fn pending_punches(&self) -> usize {
        0
    }

    /// A snapshot of the activity counters accumulated so far, by value:
    /// schemes that account lazily fold their outstanding debt into the
    /// copy, and wrappers patch their own scalars into the wrapped
    /// manager's snapshot. O(routers) — meant for observation points
    /// (`Network::report`, `obs_sample`, `export_metrics`), not for the
    /// per-cycle path.
    fn counters(&self) -> PgCounters;

    /// Resets activity counters (end of warm-up). Power states are kept.
    fn reset_counters(&mut self);

    /// Enables or disables scheme-internal event tracing. While enabled,
    /// the manager buffers cycle-stamped events (punch emissions, fault
    /// injections, ...) for the network to collect with
    /// [`PowerManager::drain_trace`] after each tick. Managers with nothing
    /// scheme-specific to report keep the default no-op.
    fn set_tracing(&mut self, _enabled: bool) {}

    /// Takes the events buffered since the last drain (empty unless
    /// [`PowerManager::set_tracing`] enabled tracing). Wrapper managers
    /// must interleave their own events with the wrapped manager's.
    fn drain_trace(&mut self) -> Vec<Stamped> {
        Vec::new()
    }

    /// Advances the manager over the quiet span `[from, to)` — the one
    /// quiet-time contract. The span carries no events and `idle` is the
    /// all-idle plane; the network calls this for a quiescent stretch of
    /// any length (`Network::run`, DESIGN.md §12). Whatever the span
    /// length, the manager must end in exactly the state — power states,
    /// counters, snapshot bytes, queued work — that `to - from` calls of
    /// `tick(c, &[], idle)` would leave.
    ///
    /// The default is that literal per-cycle loop, always correct. Overrides
    /// tick per cycle only while their own transient lasts (punches on the
    /// sideband, circuits held, fault windows running), then finish the
    /// span in closed form, so a quiet span costs the transient, not its
    /// length.
    fn tick_quiet(&mut self, from: Cycle, to: Cycle, idle: IdleInfo<'_>) {
        for c in from..to {
            self.tick(c, &[], idle);
        }
    }

    // --- model-checker hooks (all optional) -----------------------------
    //
    // The exhaustive wakeup-protocol checker (`punchsim-verify`) explores
    // the joint state space of the network and its power manager. That
    // needs three capabilities a plain manager does not have: forking the
    // manager at a state (`clone_boxed`), folding its dynamic state into a
    // canonical byte encoding (`encode_state`), and arming an enumerated
    // fault choice for the next tick (`arm_choice`). They are default
    // methods rather than a sub-trait because trait upcasting is not
    // available at this crate's MSRV; managers that do not opt in simply
    // return `None`/`false` and the checker refuses them with a typed
    // error instead of producing unsound results.

    /// Forks this manager at its current state, or `None` when the
    /// implementation cannot be cloned (e.g. it samples an RNG stream whose
    /// future draws are not part of the observable state).
    fn clone_boxed(&self) -> Option<Box<dyn PowerManager>> {
        None
    }

    /// Appends a canonical, *time-rebased* encoding of all dynamic state to
    /// `out`: every stored absolute cycle must be encoded relative to `now`
    /// so that states differing only by a uniform time shift encode
    /// identically. Monotone counters (statistics) must be excluded — they
    /// would make every state unique and the reachable set unbounded.
    /// Returns `false` when the manager does not support encoding (the
    /// buffer may then hold a partial write; callers must discard it).
    fn encode_state(&self, _now: Cycle, _out: &mut Vec<u8>) -> bool {
        false
    }

    /// Arms `choice` to perturb the *next* [`PowerManager::tick`], then
    /// disarm. Returns `false` when this manager does not support scripted
    /// fault choices (the default); the fault-free [`FaultChoice::None`]
    /// must still be accepted by implementations that do.
    fn arm_choice(&mut self, _choice: FaultChoice) -> bool {
        false
    }
}

/// The `No-PG` baseline: every router is always on.
#[derive(Debug, Clone)]
pub struct AlwaysOn {
    counters: PgCounters,
}

impl AlwaysOn {
    /// Creates the baseline manager for `n` routers.
    pub fn new(n: usize) -> Self {
        AlwaysOn {
            counters: PgCounters::new(n),
        }
    }
}

impl PowerManager for AlwaysOn {
    fn kind(&self) -> SchemeKind {
        SchemeKind::NoPg
    }

    fn state(&self, _r: NodeId) -> PowerState {
        PowerState::On
    }

    fn tick(&mut self, _cycle: Cycle, _events: &[PmEvent], _idle: IdleInfo<'_>) {}

    fn counters(&self) -> PgCounters {
        self.counters.clone()
    }

    fn reset_counters(&mut self) {
        self.counters.reset();
    }

    /// Every router is always on: quiet ticks never change anything.
    fn tick_quiet(&mut self, _from: Cycle, _to: Cycle, _idle: IdleInfo<'_>) {}

    fn clone_boxed(&self) -> Option<Box<dyn PowerManager>> {
        Some(Box::new(self.clone()))
    }

    /// No dynamic state beyond the (excluded) counters: the encoding is
    /// empty and always supported.
    fn encode_state(&self, _now: Cycle, _out: &mut Vec<u8>) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_on_stays_on() {
        let mut m = AlwaysOn::new(4);
        assert!(m.state(NodeId(0)).is_on());
        m.tick(
            1,
            &[PmEvent::BlockedNeed { router: NodeId(1) }],
            IdleInfo { idle: &[true; 4] },
        );
        assert!(m.state(NodeId(1)).is_on());
        assert_eq!(m.counters().total_off_cycles(), 0);
        assert_eq!(m.kind(), SchemeKind::NoPg);
    }

    #[test]
    fn counters_reset() {
        let mut c = PgCounters::new(2);
        c.off_cycles[0] = 5;
        c.punch_hops = 7;
        c.reset();
        assert_eq!(c.total_off_cycles(), 0);
        assert_eq!(c.punch_hops, 0);
    }

    #[test]
    fn state_predicates() {
        assert!(PowerState::On.is_on());
        assert!(!PowerState::Off.is_on());
        assert!(!PowerState::WakingUp { ready_at: 3 }.is_on());
    }

    #[test]
    fn states_map_to_observability_tags() {
        assert_eq!(PowerState::On.tag(), PowerTag::On);
        assert_eq!(PowerState::Off.tag(), PowerTag::Off);
        assert_eq!(PowerState::WakingUp { ready_at: 9 }.tag(), PowerTag::Waking);
    }

    #[test]
    fn tracing_hooks_default_to_no_op() {
        let mut m = AlwaysOn::new(4);
        m.set_tracing(true);
        m.tick(1, &[], IdleInfo { idle: &[true; 4] });
        assert!(m.drain_trace().is_empty());
    }

    #[test]
    fn always_on_is_a_fixed_point_of_quiet_spans() {
        let mut m = AlwaysOn::new(4);
        m.tick_quiet(0, 1_000_000, IdleInfo { idle: &[true; 4] });
        assert!(m.state(NodeId(3)).is_on());
        assert_eq!(m.counters().total_off_cycles(), 0);
    }

    /// A manager that only implements the required methods is still exact
    /// over a quiet span: the default `tick_quiet` is the literal per-cycle
    /// loop.
    #[test]
    fn default_tick_quiet_is_the_per_cycle_loop() {
        struct Minimal {
            c: PgCounters,
            ticks: u64,
        }
        impl PowerManager for Minimal {
            fn kind(&self) -> SchemeKind {
                SchemeKind::NoPg
            }
            fn state(&self, _r: NodeId) -> PowerState {
                PowerState::On
            }
            fn tick(&mut self, _cycle: Cycle, _events: &[PmEvent], _idle: IdleInfo<'_>) {
                self.ticks += 1;
            }
            fn counters(&self) -> PgCounters {
                self.c.clone()
            }
            fn reset_counters(&mut self) {}
        }
        let mut m = Minimal {
            c: PgCounters::new(1),
            ticks: 0,
        };
        m.tick_quiet(10, 15, IdleInfo { idle: &[true] });
        assert_eq!(m.ticks, 5, "default tick_quiet is the per-cycle loop");
    }
}
