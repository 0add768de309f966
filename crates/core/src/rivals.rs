//! The structurally different rival baselines of ROADMAP item 3 — power
//! schemes from *other* papers that attack NoC static power from different
//! sides than Power Punch does:
//!
//! * [`SdmCircuitManager`] — SDM-based circuit switching ("Ultra Low-Power
//!   SDM-based Circuit-Switching for NoCs"): a setup request walks the
//!   route ahead of the head flit at [`SETUP_CYCLES_PER_HOP`]; once every
//!   router on the path has its space-division lane configured, the
//!   circuit is *established* and its routers are bypassed — they report
//!   `On` to the network (data flows through the pre-configured lanes)
//!   while their control plane keeps sleeping and accruing gated cycles.
//!   The interesting trade against Power Punch is **setup latency vs.
//!   punch-ahead latency**: a punch covers only `H` hops ahead but takes
//!   effect one hop per cycle; a circuit covers the whole path but pays
//!   the slower per-hop setup walk from the source, and only pays it on a
//!   cold start — held circuits are free.
//! * [`RingRouterManager`] — a bufferless ring-style router ("A Ring
//!   Router Microarchitecture for NoCs"): there are no buffers to leak,
//!   so there is nothing to power-gate and no wakeup latency — but two
//!   head flits reaching the same router latch in the same cycle contend,
//!   and the loser is deflected for [`DEFLECT_PENALTY`] cycles (modeled
//!   as a short busy window on the router).
//!
//! Both managers keep the conventional WU handshake as a safety net
//! (`BlockedNeed` always wakes), so the watchdog's liveness guarantees
//! hold unchanged. Modeling simplifications vs. the source papers are
//! documented in DESIGN.md §18.

use punchsim_noc::snapshot::{put_bool, put_u16, put_u64};
use punchsim_noc::{IdleInfo, PgCounters, PmEvent, PowerManager, PowerState};
use punchsim_types::routing::route_path;
use punchsim_types::{Cycle, NodeId, PowerConfig, RouteView, SchemeKind};

use crate::gating::GateArray;

/// Cycles the SDM setup request needs per hop: slower than the punch
/// sideband's one hop per cycle because each hop arbitrates for and
/// configures a space-division lane before forwarding the request.
pub const SETUP_CYCLES_PER_HOP: Cycle = 2;

/// Cycles a deflected entrant is bounced for at a bufferless ring latch.
pub const DEFLECT_PENALTY: Cycle = 2;

/// One space-division circuit: the route it owns and the state of its
/// setup wavefront.
#[derive(Debug, Clone)]
struct Circuit {
    src: NodeId,
    dst: NodeId,
    /// Every router of the route, source first, destination last.
    path: Vec<NodeId>,
    /// Index of the next router the setup wavefront configures; the
    /// circuit is established once it reaches `path.len()`.
    wavefront: usize,
    /// Cycle at which the wavefront next advances.
    next_advance: Cycle,
    established: bool,
    /// Last cycle the circuit was opened/refreshed or carried a head flit.
    last_use: Cycle,
}

/// SDM-based circuit-switching power management (see module docs).
#[derive(Debug, Clone)]
pub struct SdmCircuitManager {
    view: RouteView,
    gate: GateArray,
    circuits: Vec<Circuit>,
    /// Refcount of established circuits covering each router; a covered
    /// router reports `On` (bypass) regardless of its internal gate state.
    circuit_cover: Vec<u32>,
    /// Idle-vector scratch: covered routers are treated as idle so their
    /// control plane can sleep while circuit data flows through the lanes.
    idle_buf: Vec<bool>,
    /// An established circuit idle for longer than this is torn down
    /// (lane reclaim), once every router on its path is quiescent.
    hold_cycles: Cycle,
    /// Total SDM lanes: at most one outstanding circuit per router on
    /// average; cold setups beyond the cap fall back to the WU safety net.
    max_circuits: usize,
}

impl SdmCircuitManager {
    /// Creates the SDM circuit-switching scheme over any topology/routing
    /// pair. `hop_latency` (router stages + link) sizes the circuit hold
    /// window the way it sizes the punch forewarn window.
    pub fn new(view: impl Into<RouteView>, power: &PowerConfig, hop_latency: u64) -> Self {
        let view: RouteView = view.into();
        let n = view.topo.nodes();
        SdmCircuitManager {
            view,
            gate: GateArray::new(n, power.wakeup_latency, power.idle_timeout),
            circuits: Vec::new(),
            circuit_cover: vec![0; n],
            idle_buf: Vec::with_capacity(n),
            // Long enough that a wormhole packet's tail clears the path
            // before reclaim; short enough that cold traffic can't pin the
            // whole mesh established forever.
            hold_cycles: (8 * hop_latency).max(32),
            max_circuits: n,
        }
    }

    /// Established circuits currently held (for tests and diagnostics).
    pub fn established_circuits(&self) -> usize {
        self.circuits.iter().filter(|c| c.established).count()
    }

    fn open_circuit(&mut self, src: NodeId, dst: NodeId, cycle: Cycle) {
        if src == dst {
            return;
        }
        if let Some(c) = self
            .circuits
            .iter_mut()
            .find(|c| c.src == src && c.dst == dst)
        {
            c.last_use = cycle;
            return;
        }
        if self.circuits.len() >= self.max_circuits {
            // No free SDM lane: the packet rides the conventional WU
            // safety net instead.
            return;
        }
        let mut path = vec![src];
        path.extend(route_path(self.view, src, dst));
        self.circuits.push(Circuit {
            src,
            dst,
            path,
            // The source router's lane is configured locally at request
            // time; the wavefront starts at its first downstream hop.
            wavefront: 1,
            next_advance: cycle + SETUP_CYCLES_PER_HOP,
            established: false,
            last_use: cycle,
        });
    }
}

impl PowerManager for SdmCircuitManager {
    fn kind(&self) -> SchemeKind {
        SchemeKind::SdmCircuit
    }

    fn state(&self, r: NodeId) -> PowerState {
        if self.circuit_cover[r.index()] > 0 {
            // Established circuits bypass the gated control plane: the
            // router is usable by the network even while its gate FSM
            // sleeps (and keeps accruing gated cycles for the energy
            // model).
            PowerState::On
        } else {
            self.gate.state(r)
        }
    }

    fn tick(&mut self, cycle: Cycle, events: &[PmEvent], idle: IdleInfo<'_>) {
        self.gate.begin_cycle(cycle);
        for ev in events {
            match *ev {
                // Setup launches the moment the NI knows the destination —
                // the same look-ahead slack Power Punch taps for slack 1.
                PmEvent::NiMessageKnown { node, dst } => {
                    self.open_circuit(node, dst, cycle);
                }
                // If the message skipped the slack-1 notification, the
                // injection attempt itself opens the circuit.
                PmEvent::NiReadyToInject { node, dst } => {
                    self.open_circuit(node, dst, cycle);
                }
                // A head flit traversing a circuit keeps it held.
                PmEvent::HeadArrival { router, dst } => {
                    for c in &mut self.circuits {
                        if c.dst == dst && c.path.contains(&router) {
                            c.last_use = cycle;
                        }
                    }
                }
                // Safety net: the conventional WU handshake still wakes a
                // sleeping router the setup wavefront has not reached.
                PmEvent::BlockedNeed { router } => {
                    self.gate.counters_mut().record_wu_assertion(router);
                    self.gate.request_wake(router, cycle);
                }
                PmEvent::FutureInjection { .. } => {}
            }
        }
        // Advance setup wavefronts one lane configuration at a time.
        for c in &mut self.circuits {
            if !c.established && cycle >= c.next_advance {
                // One sideband traversal carries the request to the next
                // router on the path.
                self.gate.counters_mut().punch_hops += 1;
                c.wavefront += 1;
                c.next_advance = cycle + SETUP_CYCLES_PER_HOP;
                if c.wavefront >= c.path.len() {
                    c.established = true;
                    for r in &c.path {
                        self.circuit_cover[r.index()] += 1;
                    }
                }
            }
        }
        // Reclaim lanes: tear down circuits idle past the hold window once
        // their whole path is quiescent (no flit inside or in flight
        // toward any of its routers — the same condition router sleep
        // uses, so a gated-off ex-circuit router never holds a flit).
        let mut i = 0;
        while i < self.circuits.len() {
            let c = &self.circuits[i];
            let expired = cycle.saturating_sub(c.last_use) > self.hold_cycles;
            let drained = c.path.iter().all(|r| idle.idle[r.index()]);
            if expired && (!c.established || drained) {
                let c = self.circuits.remove(i);
                if c.established {
                    for r in &c.path {
                        self.circuit_cover[r.index()] -= 1;
                    }
                }
            } else {
                i += 1;
            }
        }
        // Sleep decisions: a covered router counts as idle — its datapath
        // activity rides the pre-configured SDM lanes, not the gated
        // control plane.
        self.idle_buf.clear();
        self.idle_buf.extend_from_slice(idle.idle);
        for (i, &c) in self.circuit_cover.iter().enumerate() {
            if c > 0 {
                self.idle_buf[i] = true;
            }
        }
        let SdmCircuitManager { gate, idle_buf, .. } = self;
        gate.advance_idle(idle_buf, |_| true);
    }

    fn force_wake(&mut self, r: NodeId, cycle: Cycle) {
        self.gate.force_wake(r, cycle);
    }

    fn pending_punches(&self) -> usize {
        // Setup requests still walking their path (stall diagnostics).
        self.circuits.iter().filter(|c| !c.established).count()
    }

    fn counters(&self) -> PgCounters {
        self.gate.counters()
    }

    fn reset_counters(&mut self) {
        self.gate.reset_counters();
    }

    /// Ticks while any circuit is held — wavefronts advance and hold
    /// windows expire on their own schedule, and with no head flit to
    /// refresh it every circuit is reclaimed within the hold window — then
    /// the gate array replays the unconditional idle sweep in closed form.
    fn tick_quiet(&mut self, from: Cycle, to: Cycle, idle: IdleInfo<'_>) {
        let mut c = from;
        while c < to && !self.circuits.is_empty() {
            self.tick(c, &[], idle);
            c += 1;
        }
        self.gate.advance_quiet(c, to, |_| 0);
    }

    fn clone_boxed(&self) -> Option<Box<dyn PowerManager>> {
        Some(Box::new(self.clone()))
    }

    fn encode_state(&self, now: Cycle, out: &mut Vec<u8>) -> bool {
        self.gate.encode_state(now, out);
        put_u64(out, self.circuits.len() as u64);
        for c in &self.circuits {
            put_u16(out, c.src.0);
            put_u16(out, c.dst.0);
            put_u64(out, c.wavefront as u64);
            put_bool(out, c.established);
            // Rebased cycles: the wavefront schedule is in the future, the
            // last use in the past; both are bounded windows.
            put_u64(out, c.next_advance.saturating_sub(now));
            put_u64(out, now.saturating_sub(c.last_use));
        }
        // `circuit_cover` is derivable from the established circuits and
        // `idle_buf` is per-tick scratch; both excluded.
        true
    }
}

/// Bufferless ring-style router power management (see module docs).
#[derive(Debug, Clone)]
pub struct RingRouterManager {
    counters: PgCounters,
    now: Cycle,
    /// Last cycle a head flit latched at each router (`Cycle::MAX` =
    /// never); a second head in the same cycle is a deflection.
    last_head: Vec<Cycle>,
    /// Deflection busy window per router: until this cycle the latch is
    /// re-circulating the loser and admits no new entrant.
    busy_until: Vec<Cycle>,
}

impl RingRouterManager {
    /// Creates the bufferless ring-router model for `n` routers.
    pub fn new(n: usize) -> Self {
        RingRouterManager {
            counters: PgCounters::new(n),
            now: 0,
            last_head: vec![Cycle::MAX; n],
            busy_until: vec![0; n],
        }
    }
}

impl PowerManager for RingRouterManager {
    fn kind(&self) -> SchemeKind {
        SchemeKind::RingRouter
    }

    fn state(&self, r: NodeId) -> PowerState {
        let until = self.busy_until[r.index()];
        if until > self.now {
            // Not a wakeup transient but the same observable shape: the
            // router admits no new entrant until the deflected flit has
            // cleared the latch.
            PowerState::WakingUp { ready_at: until }
        } else {
            PowerState::On
        }
    }

    fn tick(&mut self, cycle: Cycle, events: &[PmEvent], _idle: IdleInfo<'_>) {
        self.now = cycle;
        for ev in events {
            if let PmEvent::HeadArrival { router, .. } = *ev {
                let i = router.index();
                if self.last_head[i] == cycle {
                    // Same-cycle latch contention: the loser deflects.
                    self.counters.deflections += 1;
                    self.busy_until[i] = self.busy_until[i].max(cycle + 1 + DEFLECT_PENALTY);
                } else {
                    self.last_head[i] = cycle;
                }
            }
        }
    }

    fn force_wake(&mut self, r: NodeId, _cycle: Cycle) {
        self.busy_until[r.index()] = 0;
    }

    fn counters(&self) -> PgCounters {
        self.counters.clone()
    }

    fn reset_counters(&mut self) {
        self.counters.reset();
    }

    fn tick_quiet(&mut self, from: Cycle, to: Cycle, _idle: IdleInfo<'_>) {
        if to > from {
            // Per-cycle quiet ticks only move the clock; busy windows are
            // stored absolute and expire by comparison against it.
            self.now = to - 1;
        }
    }

    fn clone_boxed(&self) -> Option<Box<dyn PowerManager>> {
        Some(Box::new(self.clone()))
    }

    fn encode_state(&self, now: Cycle, out: &mut Vec<u8>) -> bool {
        for &until in &self.busy_until {
            put_u64(out, until.saturating_sub(now));
        }
        // `last_head` only matters within the cycle it was written.
        for &last in &self.last_head {
            put_bool(out, last == now);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::Mesh;

    fn power() -> PowerConfig {
        PowerConfig::default()
    }

    fn all_idle(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    fn sleep_all(m: &mut dyn PowerManager, n: usize, from: Cycle, ticks: u64) {
        let idle = all_idle(n);
        for c in from..from + ticks {
            m.tick(c, &[], IdleInfo { idle: &idle });
        }
    }

    #[test]
    fn sdm_setup_establishes_and_bypasses_gated_routers() {
        let mesh = Mesh::new(8, 8);
        let mut m = SdmCircuitManager::new(mesh, &power(), 5);
        sleep_all(&mut m, 64, 0, 10);
        for r in [24, 25, 26, 27, 28] {
            assert_eq!(m.state(NodeId(r)), PowerState::Off);
        }
        // NI at R24 learns a message for R28: a 4-hop circuit opens.
        let idle = all_idle(64);
        m.tick(
            10,
            &[PmEvent::NiMessageKnown {
                node: NodeId(24),
                dst: NodeId(28),
            }],
            IdleInfo { idle: &idle },
        );
        assert_eq!(m.pending_punches(), 1, "one wavefront in flight");
        // The wavefront configures one lane per SETUP_CYCLES_PER_HOP; the
        // path holds 5 routers and the source is pre-configured, so the
        // circuit establishes after 4 advances. Mid-setup nothing reports
        // On — the bypass is end-to-end or nothing.
        for c in 11..=17 {
            assert_eq!(m.state(NodeId(28)), PowerState::Off, "cycle {c}");
            m.tick(c, &[], IdleInfo { idle: &idle });
        }
        m.tick(18, &[], IdleInfo { idle: &idle });
        assert_eq!(m.established_circuits(), 1);
        assert_eq!(m.pending_punches(), 0);
        for r in [24, 25, 26, 27, 28] {
            assert_eq!(m.state(NodeId(r)), PowerState::On, "R{r} bypassed");
        }
        // The bypass never woke the gate FSM: gated cycles keep accruing
        // while the router is externally usable (the SDM energy story).
        let off_before = m.counters().off_cycles[26];
        m.tick(19, &[], IdleInfo { idle: &idle });
        m.tick(20, &[], IdleInfo { idle: &idle });
        assert!(m.counters().off_cycles[26] > off_before);
        assert_eq!(m.state(NodeId(26)), PowerState::On);
        // Setup traffic is visible as sideband hops.
        assert_eq!(m.counters().punch_hops, 4);
    }

    #[test]
    fn sdm_circuit_tears_down_after_hold_window() {
        let mesh = Mesh::new(8, 8);
        let mut m = SdmCircuitManager::new(mesh, &power(), 5);
        let idle = all_idle(64);
        m.tick(
            0,
            &[PmEvent::NiMessageKnown {
                node: NodeId(24),
                dst: NodeId(28),
            }],
            IdleInfo { idle: &idle },
        );
        for c in 1..=9 {
            m.tick(c, &[], IdleInfo { idle: &idle });
        }
        assert_eq!(m.established_circuits(), 1);
        // Unused past the hold window, the lane is reclaimed and the
        // path's routers fall back to their (sleeping) gate state.
        sleep_all(&mut m, 64, 10, 60);
        assert_eq!(m.established_circuits(), 0);
        assert_eq!(m.state(NodeId(26)), PowerState::Off);
    }

    #[test]
    fn sdm_blocked_need_safety_net_still_wakes() {
        let mesh = Mesh::new(8, 8);
        let mut m = SdmCircuitManager::new(mesh, &power(), 5);
        sleep_all(&mut m, 64, 0, 10);
        assert_eq!(m.state(NodeId(5)), PowerState::Off);
        m.tick(
            10,
            &[PmEvent::BlockedNeed { router: NodeId(5) }],
            IdleInfo {
                idle: &all_idle(64),
            },
        );
        assert!(matches!(m.state(NodeId(5)), PowerState::WakingUp { .. }));
        assert_eq!(m.counters().wu_assertions, 1);
    }

    /// A quiet span that starts mid-setup: the circuit establishes, idles
    /// past its hold window and is reclaimed inside the per-cycle prefix,
    /// and the span outlives all of that by 10 000 cycles of closed form.
    #[test]
    fn sdm_tick_quiet_matches_per_cycle_loop() {
        let mesh = Mesh::new(8, 8);
        let idle = all_idle(64);
        let mk = || SdmCircuitManager::new(mesh, &power(), 5);
        let prologue = |m: &mut SdmCircuitManager| {
            sleep_all(m, 64, 0, 10);
            m.tick(
                10,
                &[
                    PmEvent::NiMessageKnown {
                        node: NodeId(24),
                        dst: NodeId(28),
                    },
                    PmEvent::BlockedNeed { router: NodeId(5) },
                ],
                IdleInfo { idle: &idle },
            );
        };
        let mut slow = mk();
        let mut fast = mk();
        prologue(&mut slow);
        prologue(&mut fast);
        // The transient: setup, then the hold window, then reclaim.
        let mut reclaimed = 11;
        while !slow.circuits.is_empty() {
            slow.tick(reclaimed, &[], IdleInfo { idle: &idle });
            reclaimed += 1;
        }
        let end = reclaimed + 10_000;
        for c in reclaimed..end {
            slow.tick(c, &[], IdleInfo { idle: &idle });
        }
        fast.tick_quiet(11, end, IdleInfo { idle: &idle });
        for r in 0..64 {
            assert_eq!(slow.state(NodeId(r)), fast.state(NodeId(r)), "router {r}");
        }
        assert_eq!(slow.counters(), fast.counters());
        assert!(fast.circuits.is_empty());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert!(slow.encode_state(end, &mut a) && fast.encode_state(end, &mut b));
        assert_eq!(a, b, "snapshot bytes");
    }

    #[test]
    fn ring_router_is_always_on_without_contention() {
        let mesh = Mesh::new(8, 8);
        let mut m = RingRouterManager::new(mesh.nodes());
        sleep_all(&mut m, 64, 0, 50);
        for r in 0..64 {
            assert_eq!(m.state(NodeId(r)), PowerState::On);
        }
        assert_eq!(m.counters().total_off_cycles(), 0);
        // A lone head flit latches without deflection.
        m.tick(
            50,
            &[PmEvent::HeadArrival {
                router: NodeId(9),
                dst: NodeId(12),
            }],
            IdleInfo {
                idle: &all_idle(64),
            },
        );
        assert_eq!(m.counters().deflections, 0);
        assert_eq!(m.state(NodeId(9)), PowerState::On);
    }

    #[test]
    fn ring_router_deflects_same_cycle_contenders() {
        let mesh = Mesh::new(8, 8);
        let mut m = RingRouterManager::new(mesh.nodes());
        let idle = all_idle(64);
        // Two heads reach R9's latch in the same cycle: one deflects and
        // the router is busy for the penalty window.
        m.tick(
            10,
            &[
                PmEvent::HeadArrival {
                    router: NodeId(9),
                    dst: NodeId(12),
                },
                PmEvent::HeadArrival {
                    router: NodeId(9),
                    dst: NodeId(33),
                },
            ],
            IdleInfo { idle: &idle },
        );
        assert_eq!(m.counters().deflections, 1);
        assert_eq!(
            m.state(NodeId(9)),
            PowerState::WakingUp {
                ready_at: 10 + 1 + DEFLECT_PENALTY
            }
        );
        // The busy window expires on its own.
        for c in 11..=13 {
            m.tick(c, &[], IdleInfo { idle: &idle });
        }
        assert_eq!(m.state(NodeId(9)), PowerState::On);
    }

    #[test]
    fn ring_tick_quiet_matches_per_cycle_loop() {
        let idle = all_idle(64);
        let prologue = |m: &mut RingRouterManager| {
            m.tick(
                0,
                &[
                    PmEvent::HeadArrival {
                        router: NodeId(9),
                        dst: NodeId(12),
                    },
                    PmEvent::HeadArrival {
                        router: NodeId(9),
                        dst: NodeId(33),
                    },
                ],
                IdleInfo { idle: &idle },
            );
        };
        let mut slow = RingRouterManager::new(64);
        let mut fast = RingRouterManager::new(64);
        prologue(&mut slow);
        prologue(&mut fast);
        for c in 1..40 {
            slow.tick(c, &[], IdleInfo { idle: &idle });
        }
        fast.tick_quiet(1, 40, IdleInfo { idle: &idle });
        for r in 0..64 {
            assert_eq!(slow.state(NodeId(r)), fast.state(NodeId(r)), "router {r}");
        }
        assert_eq!(slow.counters(), fast.counters());
    }
}
