//! The progress watchdog that rides along with every tick: cheap per-cycle
//! invariant checks (flit conservation; no flit into a powered-off router's
//! datapath), a no-forward-progress detector that surfaces a structured
//! [`StallReport`] instead of silently looping, and an escalation path that
//! force-wakes a router whose sleep gate keeps ignoring the level-signaled
//! WU handshake — the executable form of the paper's §4.1–4.2 safety-net
//! argument.
//!
//! [`Watchdog`] owns the state behind all three (lifetime of the network,
//! never reset) and the invariants among it: `injected == delivered +
//! in_flight`, and bit `r` of `streaking` set iff `streak[r] != 0`.

use punchsim_obs::Event;
use punchsim_types::{
    BlockedPacket, Cycle, InvariantViolation, NodeId, PacketId, SimError, StallReport,
    WatchdogConfig,
};

use super::observe::Observers;
use super::Network;
use crate::power::{PmEvent, PowerManager, PowerState};
use crate::snapshot::put_u64;
use crate::soa::BitWords;

#[derive(Debug, Clone, Default)]
pub(crate) struct Watchdog {
    /// Flits accepted by `send`, flits of fully delivered packets, and
    /// flits between NI enqueue and tail ejection, since construction.
    injected: u64,
    delivered: u64,
    in_flight: u64,
    /// Last cycle that saw a flit latch, NI send, departure or ejection.
    pub(super) last_progress: Cycle,
    /// Any flit movement during the current tick.
    pub(super) moved: bool,
    /// Consecutive cycles each router's WU has been asserted and ignored.
    pub(super) streak: Vec<Cycle>,
    /// Bit `r` set iff `streak[r]` is non-zero, so the escalation scan
    /// visits streaking routers only, and none on the common cycle.
    streaking: BitWords,
    /// Routers named by a `BlockedNeed` this cycle (all-clear between
    /// ticks): the escalation scan's per-tick scratch.
    seen: BitWords,
    /// First invariant violation observed (latched; tick keeps failing).
    pub(super) violation: Option<InvariantViolation>,
}

impl Watchdog {
    pub fn new(n: usize) -> Self {
        Watchdog {
            streak: vec![0; n],
            streaking: BitWords::new(n),
            seen: BitWords::new(n),
            ..Watchdog::default()
        }
    }

    /// `flits` more flits entered an NI queue.
    pub fn admit(&mut self, flits: u64) {
        self.injected += flits;
        self.in_flight += flits;
    }

    /// A packet of `flits` flits ejected its tail.
    pub fn retire(&mut self, flits: u64) {
        self.delivered += flits;
        self.in_flight = self.in_flight.saturating_sub(flits);
    }

    /// Cycles since forward progress was last seen, at clock `cycle`.
    pub fn stall_age(&self, cycle: Cycle) -> Cycle {
        cycle.saturating_sub(1).saturating_sub(self.last_progress)
    }

    /// The watchdog's share of [`Network::encode_state`]: both parts are
    /// bounded (escalation resets streaks, a stall report re-arms the
    /// progress clock) and behaviour-relevant. The conservation totals
    /// never feed back into dynamics and stay out.
    pub fn encode_state(&self, cycle: Cycle, out: &mut Vec<u8>) {
        for &s in &self.streak {
            put_u64(out, s);
        }
        put_u64(out, self.stall_age(cycle));
    }

    /// Tracks per-router `BlockedNeed` streaks over this cycle's `events`
    /// and force-wakes any router whose sleep gate has ignored the
    /// level-signaled WU handshake for `after` consecutive cycles
    /// ([`WatchdogConfig::escalate_after`]; 0 = never).
    #[inline]
    pub fn escalate(
        &mut self,
        now: Cycle,
        after: Cycle,
        events: &[PmEvent],
        pm: &mut dyn PowerManager,
        obs: &mut Observers,
    ) {
        for ev in events {
            if let PmEvent::BlockedNeed { router } = ev {
                self.seen.set(router.index());
            }
        }
        // Common cycle: no blocked wakeups now and none outstanding — the
        // whole streak scan is a no-op.
        if self.seen.none_set() && self.streaking.none_set() {
            return;
        }
        // Only routers named this cycle or carrying a streak can change;
        // ascending order keeps force-wakes in router-index order.
        for w in 0..self.streaking.words().len() {
            let seen = self.seen.words()[w];
            let mut visit = seen | self.streaking.words()[w];
            while visit != 0 {
                let bit = visit.trailing_zeros() as usize;
                let idx = w * 64 + bit;
                visit &= visit - 1;
                if seen >> bit & 1 == 0 {
                    self.streak[idx] = 0;
                    self.streaking.clear(idx);
                    continue;
                }
                self.streak[idx] += 1;
                self.streaking.set(idx);
                if after > 0 && self.streak[idx] >= after {
                    let router = NodeId(idx as u16);
                    pm.force_wake(router, now);
                    obs.emit(now, || Event::ForceWake { router });
                    self.streak[idx] = 0;
                    self.streaking.clear(idx);
                }
            }
        }
        self.seen.clear_all();
    }

    /// End-of-tick invariant and progress checks with `packets` packets in
    /// flight. `Ok(Some(stalled_for))` when the stall threshold is reached;
    /// the progress clock is then re-armed, so a caller that deliberately
    /// keeps ticking gets one report per threshold window rather than one
    /// per cycle.
    ///
    /// # Errors
    ///
    /// [`SimError::Invariant`] for a latched or new violation.
    #[inline]
    pub fn check(
        &mut self,
        now: Cycle,
        cfg: &WatchdogConfig,
        packets: usize,
    ) -> Result<Option<Cycle>, SimError> {
        if cfg.invariant_checks {
            if let Some(v) = &self.violation {
                return Err(SimError::Invariant(v.clone()));
            }
            if self.injected != self.delivered + self.in_flight {
                let v = InvariantViolation::FlitConservation {
                    cycle: now,
                    injected: self.injected,
                    delivered: self.delivered,
                    in_flight: self.in_flight,
                };
                self.violation = Some(v.clone());
                return Err(SimError::Invariant(v));
            }
        }
        if self.moved || packets == 0 {
            self.last_progress = now;
            return Ok(None);
        }
        let stalled_for = now.saturating_sub(self.last_progress);
        if cfg.stall_threshold == 0 || stalled_for < cfg.stall_threshold {
            return Ok(None);
        }
        self.last_progress = now;
        Ok(Some(stalled_for))
    }
}

impl Network {
    /// Replaces the watchdog configuration (thresholds, invariant checks).
    pub fn set_watchdog(&mut self, w: WatchdogConfig) {
        self.cfg.watchdog = w;
    }

    /// The active watchdog configuration.
    pub fn watchdog(&self) -> &WatchdogConfig {
        &self.cfg.watchdog
    }

    /// Cycles since the watchdog last saw forward progress (0 while idle or
    /// right after movement; bounded by the stall threshold, past which
    /// [`Network::tick`] errors out).
    pub fn stall_age(&self) -> Cycle {
        self.watchdog.stall_age(self.cycle)
    }

    /// Per-router count of consecutive cycles the WU handshake has been
    /// asserted and ignored (indexed by node id).
    pub fn blocked_streaks(&self) -> &[Cycle] {
        &self.watchdog.streak
    }

    /// The escalation step of a tick. Runs before the power phase so the
    /// streak scan sees this cycle's events.
    pub(super) fn watchdog_escalate(&mut self, now: Cycle) {
        self.watchdog.escalate(
            now,
            self.cfg.watchdog.escalate_after,
            &self.events,
            self.pm.as_mut(),
            &mut self.obs,
        );
    }

    /// The closing step of a tick (the clock already reads `now + 1`).
    pub(super) fn watchdog_check(&mut self, now: Cycle) -> Result<(), SimError> {
        let in_flight = self.packets.len();
        let Some(stalled_for) = self.watchdog.check(now, &self.cfg.watchdog, in_flight)? else {
            return Ok(());
        };
        self.obs.emit(now, || Event::Stall {
            stalled_for,
            in_flight: in_flight as u64,
        });
        Err(SimError::Stall(Box::new(
            self.stall_report(now, stalled_for),
        )))
    }

    /// Snapshot of everything needed to diagnose a wedged network.
    fn stall_report(&self, now: Cycle, stalled_for: Cycle) -> StallReport {
        let mut off_routers = Vec::new();
        let mut waking_routers = Vec::new();
        for id in self.view.topo.iter_nodes() {
            match self.pm.state(id) {
                PowerState::Off => off_routers.push(id),
                PowerState::WakingUp { .. } => waking_routers.push(id),
                PowerState::On => {}
            }
        }
        let oldest_blocked = self
            .packets
            .iter()
            .min_by_key(|(id, meta)| (meta.ni_enqueue, **id))
            .map(|(id, meta)| BlockedPacket {
                packet: PacketId(*id),
                age: now.saturating_sub(meta.ni_enqueue),
                blocked_on: meta.blocked_on,
            });
        StallReport {
            cycle: now,
            stalled_for,
            in_flight_packets: self.packets.len(),
            off_routers,
            waking_routers,
            oldest_blocked,
            pending_punches: self.pm.pending_punches(),
            // The flight-recorder tail: the cycle-by-cycle story of what
            // the network tried (and failed) to do leading up to the stall.
            last_events: self.obs.recorder_tail(32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{msg, net_with, AlwaysOff};
    use super::*;
    use crate::power::AlwaysOn;
    use crate::MsgClass;
    use punchsim_types::NocConfig;

    fn watchdog_cfg(stall_threshold: u64, escalate_after: u64) -> NocConfig {
        NocConfig {
            watchdog: WatchdogConfig {
                stall_threshold,
                invariant_checks: true,
                escalate_after,
            },
            ..NocConfig::default()
        }
    }

    /// The event-driven escalation scan against the full `0..n` scan it
    /// replaced, restated here as the spec: equal streaks every cycle and
    /// equal force-wake order, on a mesh spanning three bitset words.
    #[test]
    fn escalation_scan_matches_the_full_scan_spec() {
        use punchsim_types::SimRng;
        let after = 3;
        let cfg = NocConfig {
            topology: punchsim_types::Mesh::new(12, 12).into(),
            watchdog: WatchdogConfig {
                escalate_after: after,
                ..NocConfig::default().watchdog
            },
            ..NocConfig::default()
        };
        let mut n = Network::new(&cfg, Box::new(AlwaysOn::new(144))).unwrap();
        n.set_sink(Box::new(punchsim_obs::VecSink::new()));
        let mut rng = SimRng::seed_from_u64(0xE5CA);
        let mut spec = vec![0 as Cycle; 144];
        let mut spec_woken = Vec::new();
        // A few routers blocked for runs of cycles (so streaks build up,
        // escalate and reset), unrelated events, and fully quiet cycles.
        let mut blocked: Vec<(u16, u64)> = Vec::new();
        for now in 0..600 {
            blocked.retain(|&(_, until)| until > now);
            if rng.random_bool_ppm(150_000) {
                blocked.push((rng.random_range(0..144), now + rng.random_range(1..9u64)));
            }
            n.events.push(PmEvent::HeadArrival {
                router: NodeId(rng.random_range(0..144)),
                dst: NodeId(0),
            });
            for &(r, _) in &blocked {
                n.events.push(PmEvent::BlockedNeed { router: NodeId(r) });
            }
            for (idx, streak) in spec.iter_mut().enumerate() {
                if !blocked.iter().any(|&(r, _)| r as usize == idx) {
                    *streak = 0;
                    continue;
                }
                *streak += 1;
                if *streak >= after {
                    spec_woken.push((now, idx as u16));
                    *streak = 0;
                }
            }
            n.watchdog_escalate(now);
            n.events.clear();
            assert_eq!(n.blocked_streaks(), &spec[..], "cycle {now}");
        }
        let woken: Vec<(Cycle, u16)> = n
            .take_sink()
            .expect("attached above")
            .snapshot()
            .iter()
            .filter_map(|s| match s.event {
                Event::ForceWake { router } => Some((s.cycle, router.0)),
                _ => None,
            })
            .collect();
        assert!(woken.len() > 10, "trace too thin: {woken:?}");
        assert_eq!(woken, spec_woken);
    }

    #[test]
    fn watchdog_reports_stall_against_wedged_router() {
        let mut n = net_with(&watchdog_cfg(50, 8), AlwaysOff::boxed);
        n.send(msg(0, 9, MsgClass::Control)).unwrap();
        let mut stall = None;
        for _ in 0..200 {
            match n.tick() {
                Ok(()) => {}
                Err(SimError::Stall(r)) => {
                    stall = Some(*r);
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let r = stall.expect("watchdog must fire within 200 cycles");
        assert!(r.stalled_for >= 50);
        assert_eq!(r.in_flight_packets, 1);
        // Every router is off; the blocked packet names its local router R0.
        assert_eq!(r.off_routers.len(), 64);
        let oldest = r.oldest_blocked.expect("one packet is in flight");
        assert_eq!(oldest.blocked_on, Some(NodeId(0)));
        assert!(oldest.age >= 50);
    }

    #[test]
    fn stall_report_rearms_per_threshold_window() {
        let mut n = net_with(&watchdog_cfg(30, 0), AlwaysOff::boxed);
        n.send(msg(0, 1, MsgClass::Control)).unwrap();
        let mut stalls = 0;
        for _ in 0..200 {
            if matches!(n.tick(), Err(SimError::Stall(_))) {
                stalls += 1;
            }
        }
        // ~200 cycles / 30-cycle threshold: a handful of reports, not 170.
        assert!((2..=7).contains(&stalls), "got {stalls} stall reports");
    }

    #[test]
    fn idle_network_never_stalls() {
        let mut n = net_with(&watchdog_cfg(5, 0), |n| Box::new(AlwaysOn::new(n)));
        // No traffic at all: an empty network is idle, not stalled.
        n.run(500).unwrap();
    }
}
