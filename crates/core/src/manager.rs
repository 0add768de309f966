//! Power-gating scheme implementations of the [`PowerManager`] trait.
//!
//! * [`ConvPgManager`] — conventional power-gating (Figure 2 handshake),
//!   optionally with the ConvOpt optimizations: the idle-timeout filter and
//!   the one-hop early wakeup at route-computation time (paper ref. 24).
//! * [`PowerPunchManager`] — the paper's contribution: multi-hop punch
//!   signals (§4.1) and, optionally, injection-node slack (§4.2).

use punchsim_noc::obs::{Event, Stamped};
use punchsim_noc::{IdleInfo, PgCounters, PmEvent, PowerManager, PowerState};
use punchsim_types::{Cycle, NodeId, PowerConfig, RouteView, SchemeKind};

use crate::gating::GateArray;
use crate::punch::PunchFabric;

/// Conventional power-gating: the WU wire of Figure 2 wakes a sleeping
/// router when a neighbour (or the local NI) has a stalled packet for it.
///
/// With `early_wakeup`, the WU is additionally asserted as soon as the
/// output direction of an arriving head flit is computed (look-ahead
/// routing), hiding roughly one router-pipeline's worth of wakeup latency
/// (paper ref. 24) — the paper's `ConvOpt-PG` when combined with the
/// 4-cycle timeout filter.
#[derive(Debug, Clone)]
pub struct ConvPgManager {
    kind: SchemeKind,
    view: RouteView,
    gate: GateArray,
    early_wakeup: bool,
}

impl ConvPgManager {
    /// Creates the conventional scheme over any topology/routing pair (a
    /// bare [`punchsim_types::Mesh`] means XY routing). `early_wakeup`
    /// selects ConvOpt behaviour; plain conventional gating uses the
    /// minimum 2-cycle timeout, ConvOpt uses `power.idle_timeout`.
    pub fn new(view: impl Into<RouteView>, power: &PowerConfig, early_wakeup: bool) -> Self {
        let view: RouteView = view.into();
        let timeout = if early_wakeup {
            power.idle_timeout
        } else {
            2 // the minimum needed to let in-flight flits land (§2.2)
        };
        ConvPgManager {
            kind: if early_wakeup {
                SchemeKind::ConvOptPg
            } else {
                SchemeKind::ConvPg
            },
            view,
            gate: GateArray::new(view.topo.nodes(), power.wakeup_latency, timeout),
            early_wakeup,
        }
    }
}

impl PowerManager for ConvPgManager {
    fn kind(&self) -> SchemeKind {
        self.kind
    }

    fn state(&self, r: NodeId) -> PowerState {
        self.gate.state(r)
    }

    fn tick(&mut self, cycle: Cycle, events: &[PmEvent], idle: IdleInfo<'_>) {
        self.gate.begin_cycle(cycle);
        for ev in events {
            match *ev {
                PmEvent::BlockedNeed { router } => {
                    self.gate.counters_mut().record_wu_assertion(router);
                    self.gate.request_wake(router, cycle);
                }
                PmEvent::HeadArrival { router, dst } if self.early_wakeup => {
                    if let Some(next) = self.view.next_hop(router, dst) {
                        self.gate.counters_mut().record_wu_assertion(next);
                        self.gate.request_wake(next, cycle);
                    }
                }
                // Conventional gating has no multi-hop or NI-slack channel.
                _ => {}
            }
        }
        self.gate.advance_idle(idle.idle, |_| true);
    }

    fn force_wake(&mut self, r: NodeId, cycle: Cycle) {
        self.gate.force_wake(r, cycle);
    }

    fn counters(&self) -> PgCounters {
        self.gate.counters()
    }

    fn reset_counters(&mut self) {
        self.gate.reset_counters();
    }

    /// Conventional gating has no transient of its own: a quiet tick is
    /// `begin_cycle` + an unconditional idle sweep, which the gate array
    /// replays in closed form.
    fn tick_quiet(&mut self, from: Cycle, to: Cycle, idle: IdleInfo<'_>) {
        self.gate.advance_quiet(from, to, idle.idle, |_| 0);
    }

    fn clone_boxed(&self) -> Option<Box<dyn PowerManager>> {
        Some(Box::new(self.clone()))
    }

    fn encode_state(&self, now: Cycle, out: &mut Vec<u8>) -> bool {
        // All dynamic state lives in the gate array; `kind`/`view`/
        // `early_wakeup` are construction-time constants.
        self.gate.encode_state(now, out);
        true
    }
}

/// The Power Punch scheme (§4): punch signals race ahead of packets through
/// the sideband fabric, waking every router on the imminent path; with
/// `ni_slack`, wakeups additionally exploit "slack 1" (destination known at
/// NI entry) and "slack 2" (L2/directory access start) at injection nodes.
#[derive(Debug, Clone)]
pub struct PowerPunchManager {
    kind: SchemeKind,
    gate: GateArray,
    fabric: PunchFabric,
    /// Slack 1: punches launch at NI entry (destination just known).
    slack1: bool,
    /// Slack 2: the local router wakes at resource-access start.
    slack2: bool,
    /// Sleep filter: a router notified by a punch may not power off until
    /// this cycle — it knows a packet arrives within the window (§4.3),
    /// which replaces blind timeout filtering with exact forewarning.
    forewarn_until: Vec<Cycle>,
    forewarn_window: Cycle,
    /// Punch emissions/deliveries buffered for the network's event sink;
    /// `None` while tracing is disabled (the common case — recording then
    /// costs one branch per punch).
    trace: Option<Vec<Stamped>>,
}

impl PowerPunchManager {
    /// Creates the Power Punch scheme over any topology/routing pair (a
    /// bare [`punchsim_types::Mesh`] means XY routing). `ni_slack = false`
    /// is the paper's `PowerPunch-Signal`, `true` is the full
    /// `PowerPunch-PG`.
    ///
    /// `hop_latency` is the per-hop packet latency (router stages + link),
    /// used to size the forewarning window.
    pub fn new(
        view: impl Into<RouteView>,
        power: &PowerConfig,
        hop_latency: u64,
        ni_slack: bool,
    ) -> Self {
        Self::with_slacks(view, power, hop_latency, ni_slack, ni_slack)
    }

    /// Creates a Power Punch manager with the two injection-node slack
    /// mechanisms (§4.2) controlled independently — an ablation hook.
    /// `slack1` launches punches at NI entry; `slack2` wakes the local
    /// router at resource-access start. The paper's `PowerPunch-PG` is
    /// both on; `PowerPunch-Signal` is both off.
    pub fn with_slacks(
        view: impl Into<RouteView>,
        power: &PowerConfig,
        hop_latency: u64,
        slack1: bool,
        slack2: bool,
    ) -> Self {
        let view: RouteView = view.into();
        PowerPunchManager {
            kind: if slack1 || slack2 {
                SchemeKind::PowerPunchFull
            } else {
                SchemeKind::PowerPunchSignal
            },
            gate: GateArray::new(view.topo.nodes(), power.wakeup_latency, power.idle_timeout),
            fabric: PunchFabric::new(view, power.punch_hops),
            slack1,
            slack2,
            forewarn_until: vec![0; view.topo.nodes()],
            trace: None,
            // A punch notification means a packet arrives within at most
            // H hops of packet flight time; afterwards the regular idle
            // timeout takes over (the punch gives *exact* short-horizon
            // knowledge, so the window must not outlive it — §4.3).
            forewarn_window: power.punch_hops as u64 * hop_latency,
        }
    }

    /// The punch fabric (for inspection in tests and examples).
    pub fn fabric(&self) -> &PunchFabric {
        &self.fabric
    }

    fn notify_local(&mut self, node: NodeId, cycle: Cycle) {
        self.gate.request_wake(node, cycle);
        self.forewarn_until[node.index()] =
            self.forewarn_until[node.index()].max(cycle + self.forewarn_window);
    }

    /// Generates a punch and, when tracing, records the emission with its
    /// resolved target (`min(H, dist)` hops ahead).
    fn punch(&mut self, cycle: Cycle, router: NodeId, dst: NodeId) {
        let target = self.fabric.generate(router, dst);
        if let (Some(target), Some(buf)) = (target, self.trace.as_mut()) {
            buf.push(Stamped {
                cycle,
                event: Event::PunchEmit {
                    router,
                    dst,
                    target,
                },
            });
        }
    }
}

impl PowerManager for PowerPunchManager {
    fn kind(&self) -> SchemeKind {
        self.kind
    }

    fn state(&self, r: NodeId) -> PowerState {
        self.gate.state(r)
    }

    fn tick(&mut self, cycle: Cycle, events: &[PmEvent], idle: IdleInfo<'_>) {
        self.gate.begin_cycle(cycle);
        for ev in events {
            match *ev {
                // Multi-hop punch: generated the moment a head flit is
                // buffered (look-ahead information is available then).
                PmEvent::HeadArrival { router, dst } => {
                    self.punch(cycle, router, dst);
                }
                // Safety net: the conventional handshake still exists (a
                // punch that could not fully cover the wakeup leaves a
                // stalled packet; the WU wire keeps the guarantee).
                PmEvent::BlockedNeed { router } => {
                    self.gate.counters_mut().record_wu_assertion(router);
                    self.gate.request_wake(router, cycle);
                }
                // Slack 1 (PowerPunch-PG): destination known at NI entry.
                PmEvent::NiMessageKnown { node, dst } if self.slack1 => {
                    self.notify_local(node, cycle);
                    self.punch(cycle, node, dst);
                }
                // Without slack 1, punches launch when the packet is ready
                // to inject (PowerPunch-Signal).
                PmEvent::NiReadyToInject { node, dst } if !self.slack1 => {
                    self.notify_local(node, cycle);
                    self.punch(cycle, node, dst);
                }
                // Slack 2 (PowerPunch-PG): a packet will be generated, so
                // wake the local router even before the destination exists.
                PmEvent::FutureInjection { node } if self.slack2 => {
                    self.notify_local(node, cycle);
                }
                _ => {}
            }
        }
        // Advance punch signals one hop; every router they reach wakes up
        // (or stays awake) and learns a packet is imminent.
        let gate = &mut self.gate;
        let forewarn_until = &mut self.forewarn_until;
        let window = self.forewarn_window;
        let trace = &mut self.trace;
        self.fabric.tick(|r| {
            gate.request_wake(r, cycle);
            forewarn_until[r.index()] = forewarn_until[r.index()].max(cycle + window);
            if let Some(buf) = trace.as_mut() {
                buf.push(Stamped {
                    cycle,
                    event: Event::PunchDeliver { router: r },
                });
            }
        });
        let fw = &self.forewarn_until;
        self.gate.advance_idle(idle.idle, |i| cycle >= fw[i]);
    }

    fn force_wake(&mut self, r: NodeId, cycle: Cycle) {
        self.gate.force_wake(r, cycle);
    }

    fn pending_punches(&self) -> usize {
        self.fabric.pending()
    }

    fn counters(&self) -> PgCounters {
        // The fabric owns both punch statistics; they join the gate
        // array's snapshot here rather than being mirrored every tick.
        let mut snap = self.gate.counters();
        snap.punch_hops = self.fabric.hops_sent;
        snap.punch_hops_at = self.fabric.hops_sent_at.clone();
        snap
    }

    fn reset_counters(&mut self) {
        self.gate.reset_counters();
        self.fabric.hops_sent = 0;
        self.fabric.hops_sent_at.iter_mut().for_each(|c| *c = 0);
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.trace = enabled.then(Vec::new);
    }

    fn drain_trace(&mut self) -> Vec<Stamped> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Ticks while punches still sweep the sideband (at most `H` hops per
    /// punch), then the idle fabric makes the per-cycle tick collapse to
    /// `begin_cycle` + `advance_idle` with the forewarning floor, which the
    /// gate array replays in closed form.
    fn tick_quiet(&mut self, from: Cycle, to: Cycle, idle: IdleInfo<'_>) {
        let mut c = from;
        while c < to && !self.fabric.is_idle() {
            self.tick(c, &[], idle);
            c += 1;
        }
        let fw = &self.forewarn_until;
        self.gate.advance_quiet(c, to, idle.idle, |i| fw[i]);
    }

    fn clone_boxed(&self) -> Option<Box<dyn PowerManager>> {
        Some(Box::new(self.clone()))
    }

    fn encode_state(&self, now: Cycle, out: &mut Vec<u8>) -> bool {
        use punchsim_noc::snapshot::put_u64;
        self.gate.encode_state(now, out);
        // Forewarning floors, rebased: 0 means "may sleep now"; positive
        // values are bounded by the forewarn window.
        for &until in &self.forewarn_until {
            put_u64(out, until.saturating_sub(now));
        }
        self.fabric.encode_state(out);
        // The trace buffer is drained to the sink and never feeds back into
        // dynamics; excluded.
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
    fn conv_wakes_only_on_blocked_need() {
        let mesh = Mesh::new(4, 4);
        let mut m = ConvPgManager::new(mesh, &power(), false);
        sleep_all(&mut m, 16, 0, 10);
        assert_eq!(m.state(NodeId(5)), PowerState::Off);
        m.tick(
            10,
            &[PmEvent::BlockedNeed { router: NodeId(5) }],
            IdleInfo {
                idle: &all_idle(16),
            },
        );
        assert!(matches!(m.state(NodeId(5)), PowerState::WakingUp { .. }));
        // Twakeup = 8, requested during 10: on at 18.
        assert_eq!(m.state(NodeId(5)), PowerState::WakingUp { ready_at: 18 });
    }

    #[test]
    fn convopt_early_wakeup_targets_next_hop() {
        let mesh = Mesh::new(8, 8);
        let mut m = ConvPgManager::new(mesh, &power(), true);
        sleep_all(&mut m, 64, 0, 10);
        assert_eq!(m.state(NodeId(28)), PowerState::Off);
        // Head flit latched at R27 headed to R31: next hop R28 wakes now.
        m.tick(
            10,
            &[PmEvent::HeadArrival {
                router: NodeId(27),
                dst: NodeId(31),
            }],
            IdleInfo {
                idle: &all_idle(64),
            },
        );
        assert!(matches!(m.state(NodeId(28)), PowerState::WakingUp { .. }));
        // But not the router 2 hops ahead: conventional WU is single-hop.
        assert_eq!(m.state(NodeId(29)), PowerState::Off);
    }

    #[test]
    fn punch_wakes_routers_ahead_in_sequence() {
        let mesh = Mesh::new(8, 8);
        let mut m = PowerPunchManager::new(mesh, &power(), 4, false);
        sleep_all(&mut m, 64, 0, 10);
        for r in [25, 26, 27, 28, 29] {
            assert_eq!(m.state(NodeId(r)), PowerState::Off);
        }
        // Head latched at R26 for destination R31: target is R29.
        m.tick(
            10,
            &[PmEvent::HeadArrival {
                router: NodeId(26),
                dst: NodeId(31),
            }],
            IdleInfo {
                idle: &all_idle(64),
            },
        );
        // Fabric delivers one hop per cycle: 26 notified at tick 10 (local
        // generation), 27 at 11, 28 at 12, 29 at 13.
        assert!(matches!(m.state(NodeId(26)), PowerState::WakingUp { .. }));
        assert_eq!(m.state(NodeId(27)), PowerState::Off);
        m.tick(
            11,
            &[],
            IdleInfo {
                idle: &all_idle(64),
            },
        );
        assert!(matches!(m.state(NodeId(27)), PowerState::WakingUp { .. }));
        m.tick(
            12,
            &[],
            IdleInfo {
                idle: &all_idle(64),
            },
        );
        assert!(matches!(m.state(NodeId(28)), PowerState::WakingUp { .. }));
        m.tick(
            13,
            &[],
            IdleInfo {
                idle: &all_idle(64),
            },
        );
        assert_eq!(
            m.state(NodeId(29)),
            PowerState::WakingUp { ready_at: 13 + 8 }
        );
        // R30 (beyond the 3-hop target) stays asleep.
        assert_eq!(m.state(NodeId(30)), PowerState::Off);
        assert!(m.counters().punch_hops >= 3);
    }

    #[test]
    fn forewarned_router_defers_sleep() {
        let mesh = Mesh::new(8, 8);
        let mut m = PowerPunchManager::new(mesh, &power(), 4, false);
        // Notify R27 via a punch from R26 while everything is still on.
        m.tick(
            0,
            &[PmEvent::HeadArrival {
                router: NodeId(26),
                dst: NodeId(31),
            }],
            IdleInfo {
                idle: &all_idle(64),
            },
        );
        // R27 was notified at tick 1; with window 3*4=12 it must not
        // sleep before cycle 13 even though it is idle past the timeout.
        sleep_all(&mut m, 64, 1, 10);
        assert_eq!(m.state(NodeId(27)), PowerState::On, "forewarned");
        // An un-notified far-away router slept long ago.
        assert_eq!(m.state(NodeId(60)), PowerState::Off);
        sleep_all(&mut m, 64, 11, 10);
        assert_eq!(m.state(NodeId(27)), PowerState::Off, "window expired");
    }

    #[test]
    fn ni_slack_wakes_local_router_on_future_injection() {
        let mesh = Mesh::new(8, 8);
        let mut m = PowerPunchManager::new(mesh, &power(), 4, true);
        sleep_all(&mut m, 64, 0, 10);
        m.tick(
            10,
            &[PmEvent::FutureInjection { node: NodeId(24) }],
            IdleInfo {
                idle: &all_idle(64),
            },
        );
        assert!(matches!(m.state(NodeId(24)), PowerState::WakingUp { .. }));
        // Signal-only scheme ignores slack 2.
        let mut s = PowerPunchManager::new(mesh, &power(), 4, false);
        sleep_all(&mut s, 64, 0, 10);
        s.tick(
            10,
            &[PmEvent::FutureInjection { node: NodeId(24) }],
            IdleInfo {
                idle: &all_idle(64),
            },
        );
        assert_eq!(s.state(NodeId(24)), PowerState::Off);
    }

    #[test]
    fn tracing_buffers_punch_emissions_and_deliveries() {
        let mesh = Mesh::new(8, 8);
        let mut m = PowerPunchManager::new(mesh, &power(), 4, false);
        m.set_tracing(true);
        m.tick(
            10,
            &[PmEvent::HeadArrival {
                router: NodeId(26),
                dst: NodeId(31),
            }],
            IdleInfo {
                idle: &all_idle(64),
            },
        );
        let first = m.drain_trace();
        // The emission names the resolved 3-hop target R29; the fabric's
        // same-cycle local sweep notifies R26.
        assert!(first.iter().any(|s| s.event
            == Event::PunchEmit {
                router: NodeId(26),
                dst: NodeId(31),
                target: NodeId(29),
            }));
        assert!(first
            .iter()
            .any(|s| s.event == Event::PunchDeliver { router: NodeId(26) } && s.cycle == 10));
        // Subsequent ticks sweep the punch one hop per cycle.
        let mut delivered = Vec::new();
        for c in 11..=13 {
            m.tick(
                c,
                &[],
                IdleInfo {
                    idle: &all_idle(64),
                },
            );
            delivered.extend(m.drain_trace());
        }
        for r in [27, 28, 29] {
            assert!(
                delivered
                    .iter()
                    .any(|s| s.event == Event::PunchDeliver { router: NodeId(r) }),
                "R{r} missing from {delivered:?}"
            );
        }
        // Disabling tracing stops buffering.
        m.set_tracing(false);
        m.tick(
            14,
            &[PmEvent::HeadArrival {
                router: NodeId(0),
                dst: NodeId(7),
            }],
            IdleInfo {
                idle: &all_idle(64),
            },
        );
        assert!(m.drain_trace().is_empty());
    }

    /// Drives two identically-prepared managers through the same quiet span
    /// — one per-cycle, one via `tick_quiet` — and demands identical power
    /// states, counters and snapshot bytes. The span starts while the punch
    /// still sweeps the sideband (Power Punch's per-cycle prefix) or after
    /// it drained, and outlives every transient by 10 000 cycles: the
    /// forewarning floor, wakeup promotions and sleep timeouts must all
    /// survive the closed form.
    #[test]
    fn tick_quiet_matches_per_cycle_loop() {
        let mesh = Mesh::new(8, 8);
        let idle = all_idle(64);
        let prologue = |m: &mut dyn PowerManager, start: Cycle| {
            // Punch from R26 (sweeps 26..=29 over ticks 10..=13) and a
            // blocked wakeup on R5, then tick up to the span.
            sleep_all(m, 64, 0, 10);
            m.tick(
                10,
                &[
                    PmEvent::HeadArrival {
                        router: NodeId(26),
                        dst: NodeId(31),
                    },
                    PmEvent::BlockedNeed { router: NodeId(5) },
                ],
                IdleInfo { idle: &idle },
            );
            for c in 11..start {
                m.tick(c, &[], IdleInfo { idle: &idle });
            }
        };
        let make: [fn(Mesh) -> Box<dyn PowerManager>; 3] = [
            |m| Box::new(PowerPunchManager::new(m, &PowerConfig::default(), 4, true)),
            |m| Box::new(ConvPgManager::new(m, &PowerConfig::default(), true)),
            |m| Box::new(ConvPgManager::new(m, &PowerConfig::default(), false)),
        ];
        for (start, busy) in [(11, true), (17, false)] {
            for mk in make {
                let mut slow = mk(mesh);
                let mut fast = mk(mesh);
                prologue(slow.as_mut(), start);
                prologue(fast.as_mut(), start);
                let kind = slow.kind();
                if kind == SchemeKind::PowerPunchFull {
                    assert_eq!(fast.pending_punches() > 0, busy, "start {start}");
                }
                let end = start + 10_000;
                for c in start..end {
                    slow.tick(c, &[], IdleInfo { idle: &idle });
                }
                fast.tick_quiet(start, end, IdleInfo { idle: &idle });
                for r in 0..64 {
                    assert_eq!(
                        slow.state(NodeId(r)),
                        fast.state(NodeId(r)),
                        "router {r} diverged under {kind:?} from {start}"
                    );
                }
                assert_eq!(slow.counters(), fast.counters(), "{kind:?} from {start}");
                let (mut a, mut b) = (Vec::new(), Vec::new());
                assert!(slow.encode_state(end, &mut a) && fast.encode_state(end, &mut b));
                assert_eq!(a, b, "{kind:?} from {start}: snapshot bytes");
            }
        }
    }

    /// The fabric's wires and queued generations are dynamic state: a fork
    /// taken mid-flight (what `verify::explore` does through
    /// `Network::try_clone`) must carry them, and a counter reset must not
    /// strand punches on the wires.
    #[test]
    fn mid_flight_clone_and_counter_reset_keep_punches_moving() {
        let idle = all_idle(64);
        let mut orig = PowerPunchManager::new(Mesh::new(8, 8), &power(), 4, false);
        sleep_all(&mut orig, 64, 0, 10);
        // Three punches queued on one router/direction, the last one
        // turning south at R28: after two ticks a wire is live, a relay is
        // re-armed and a generation is still queued.
        let heads = [(26, 31), (26, 28), (26, 44)].map(|(r, d)| PmEvent::HeadArrival {
            router: NodeId(r),
            dst: NodeId(d),
        });
        orig.tick(10, &heads, IdleInfo { idle: &idle });
        orig.tick(11, &[], IdleInfo { idle: &idle });
        assert!(orig.pending_punches() > 1);
        let mut fork = orig.clone_boxed().expect("ppf forks");
        orig.reset_counters();
        fork.reset_counters();
        for c in 12..62 {
            orig.tick(c, &[], IdleInfo { idle: &idle });
            fork.tick(c, &[], IdleInfo { idle: &idle });
            let (mut a, mut b) = (Vec::new(), Vec::new());
            assert!(orig.encode_state(c + 1, &mut a) && fork.encode_state(c + 1, &mut b));
            assert_eq!(a, b, "cycle {c}");
            assert_eq!(orig.counters(), fork.counters(), "cycle {c}");
        }
        // Every punch was delivered after the reset: the sideband drained
        // and the far targets (R29 three hops east, R36 after the turn)
        // were woken by it.
        assert_eq!(orig.pending_punches(), 0);
        let woken = orig.counters().wake_events;
        assert!(woken[29] == 1 && woken[36] == 1, "{woken:?}");
        assert!(orig.counters().punch_hops > 0);
    }

    #[test]
    fn scheme_kinds_are_reported() {
        let mesh = Mesh::new(4, 4);
        assert_eq!(
            ConvPgManager::new(mesh, &power(), false).kind(),
            SchemeKind::ConvPg
        );
        assert_eq!(
            ConvPgManager::new(mesh, &power(), true).kind(),
            SchemeKind::ConvOptPg
        );
        assert_eq!(
            PowerPunchManager::new(mesh, &power(), 4, false).kind(),
            SchemeKind::PowerPunchSignal
        );
        assert_eq!(
            PowerPunchManager::new(mesh, &power(), 4, true).kind(),
            SchemeKind::PowerPunchFull
        );
    }
}
