//! Running many cycles: the quiet-datapath rule, the skip over a quiet
//! span (one `PowerManager::tick_quiet` call), `run`, and the late
//! delivery of the one thing a skip can leave overdue — credits.

use punchsim_obs::metrics::PhaseProfiler;
use punchsim_types::{Cycle, SimError};

use super::Network;
use crate::power::IdleInfo;
use crate::soa::{self, CREDIT_LANES};

impl Network {
    /// `true` when no packet is anywhere between NI enqueue and tail
    /// ejection (so every router datapath, NI queue and wire but the credit
    /// wires is empty), no power-manager event is buffered and no invariant
    /// violation is latched. Until new host input only the power manager's
    /// own transient — punches on the sideband, wakeups completing, sleep
    /// timeouts — can change state, and [`Network::run`] on the shipped
    /// kernel, with no sink attached, skips straight to the end of its
    /// span.
    ///
    /// All three checks are O(1).
    pub fn quiescent(&self) -> bool {
        self.packets.is_empty() && self.events.is_empty() && self.watchdog.violation.is_none()
    }

    /// On the first tick after a skip, delivers on this thread every credit
    /// whose cycle the skip passed over, so the shards only ever see the
    /// one plane due now. The skip's note stays up across back-to-back
    /// skips; a tick that follows a tick does not look, because only a
    /// skip can leave a credit late. Exact although late: applying a
    /// credit is a commutative increment, and nothing read the counters
    /// in between — no router held a flit and no NI could act during the
    /// skip.
    pub(super) fn deliver_late_credits(&mut self, now: Cycle) {
        if !std::mem::take(&mut self.skipped) {
            return;
        }
        while let Some(due) = self.credits.next_due().filter(|&at| at < now) {
            let (words, slots) = self.credits.plane_mut(due);
            soa::for_each_one(words, 0, self.routers.len(), |idx| {
                let lanes = &mut slots[idx * CREDIT_LANES..][..CREDIT_LANES];
                soa::deliver_credits(lanes, &mut self.routers[idx], &mut self.nis[idx]);
            });
            self.credits.retire(due);
        }
    }

    /// The end `t <= end` of the quiet span `[cycle, t)` that `run` may
    /// skip, or `None` when this cycle must tick. A span is quiet when
    /// ticking through it would change nothing but the power manager and
    /// the credit counters no one reads in it:
    ///
    /// - the network runs the shipped kernel with no sink (per-cycle
    ///   transition recording needs the per-cycle path), no buffered
    ///   event, no latched violation and no open WU streak;
    /// - no router holds a flit (`soa.occ` is empty);
    /// - no flit and no ejection is due before `t`;
    /// - no NI can act before `t`: an NI acts at its front packet's
    ///   `ready_at`, which a started packet has already reached;
    /// - `t` is no later than `last_progress + stall_threshold`, so a stall
    ///   is still reported on the cycle the per-cycle path reports it.
    ///
    /// An empty network meets the last four trivially: its span runs to
    /// `end`. Cost: O(1) while a router holds a flit, else O(period + NIs
    /// with queued packets).
    fn quiet_span(&self, end: Cycle) -> Option<Cycle> {
        if self.reference
            || self.obs.tracing()
            || !self.events.is_empty()
            || self.watchdog.violation.is_some()
            || self.watchdog.streak_open()
        {
            return None;
        }
        if self.packets.is_empty() {
            return Some(end);
        }
        if !self.soa.occ.none_set() {
            return None;
        }
        let mut t = end;
        let threshold = self.cfg.watchdog.stall_threshold;
        if threshold > 0 {
            t = t.min(self.watchdog.last_progress.saturating_add(threshold));
        }
        for due in [self.flits.next_due(), self.ejects.next_due()] {
            t = t.min(due.unwrap_or(t));
        }
        soa::for_each_one(self.soa.ni_pend.words(), 0, self.nis.len(), |idx| {
            t = t.min(self.nis[idx].next_ready().unwrap_or(t));
        });
        (t > self.cycle).then_some(t)
    }

    /// Advances the clock over the quiet span `[cycle, to)` that
    /// [`Network::quiet_span`] returned, in one bulk power-manager update
    /// against the idleness plane every cycle of the span would build.
    fn skip(&mut self, to: Cycle) {
        self.obs.profile(PhaseProfiler::begin_skip);
        debug_assert!(self
            .routers
            .iter()
            .all(crate::router::Router::datapath_empty));
        self.fill_idle();
        let idle = IdleInfo {
            idle: &self.soa.idle,
        };
        self.pm.tick_quiet(self.cycle, to, idle);
        self.cycle = to;
        // The per-cycle path refreshes `last_progress` every cycle while no
        // packets are in flight; mirror its final value so stall detection
        // sees no phantom gap across the jump. With packets in flight no
        // cycle of the span moved anything, so it stays.
        if self.packets.is_empty() {
            self.watchdog.last_progress = to - 1;
        }
        self.skipped = true;
        self.obs.profile(PhaseProfiler::end_skip);
    }

    /// Runs `n` cycles, stopping at the first error.
    ///
    /// Quiet-datapath spans are skipped: wherever no router holds a flit
    /// and nothing is due on a flit or ejection wire or at an NI (see
    /// `quiet_span`), the span up to the next such event is handed to
    /// [`crate::PowerManager::tick_quiet`] in one call, which costs the
    /// manager's own transient rather than the span length; a quiescent
    /// network skips to the end of `n`. While an event sink is attached,
    /// and on the reference kernel, every cycle ticks individually.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`Network::tick`], on the cycle
    /// ticking every cycle would have raised it.
    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        let end = self.cycle.saturating_add(n);
        while self.cycle < end {
            if let Some(to) = self.quiet_span(end) {
                self.skip(to);
                // A span ends where a flit, an ejection, an NI or the stall
                // check is due, which the next cycle ticks without asking.
                if to == end {
                    break;
                }
            }
            self.tick()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{delivered_to, msg, net, net_with, AlwaysOff};
    use crate::power::{AlwaysOn, PowerManager};
    use crate::MsgClass;
    use punchsim_obs::metrics::Phase;
    use punchsim_types::{NocConfig, SimError, WatchdogConfig};

    /// Bursty traffic separated by long quiescent gaps: the fast-forward
    /// kernel must reproduce the naive per-cycle run exactly — same final
    /// cycle, same delivered counts, same latencies, same deliveries.
    #[test]
    fn fast_forward_matches_naive_run() {
        let run = |reference: bool| {
            let mut n = net();
            if reference {
                n.use_reference_kernel();
            }
            let mut delivered = 0usize;
            for burst in 0..3u16 {
                for i in 0..8u16 {
                    n.send(msg((burst * 11 + i) % 64, (i * 7 + 3) % 64, MsgClass::Data))
                        .unwrap();
                }
                n.run(1_000).unwrap();
                delivered += n.drain_delivered().count();
            }
            let r = n.report();
            (
                n.cycle(),
                delivered,
                r.stats.packets_delivered,
                r.stats.latency.mean().to_bits(),
                r.stats.link_traversals,
                r.ni_flits,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn quiescence_is_reported() {
        let mut n = net();
        assert!(n.quiescent());
        n.send(msg(0, 3, MsgClass::Control)).unwrap();
        assert!(!n.quiescent(), "in-flight packet blocks quiescence");
        n.run(40).unwrap();
        assert!(n.quiescent(), "drained network is quiescent again");
    }

    #[test]
    fn fast_forward_advances_clock_in_one_jump() {
        let mut n = net();
        n.run(1_000_000).unwrap();
        assert_eq!(n.cycle(), 1_000_000);
        // The jump must leave stall detection armed exactly like the
        // per-cycle path: traffic injected afterwards still delivers.
        n.send(msg(0, 9, MsgClass::Control)).unwrap();
        n.run(60).unwrap();
        assert_eq!(delivered_to(&mut n, 9), 1);
    }

    /// A packet in flight no longer pins the clock to one tick per cycle:
    /// the NI latency before its head injects and every link flight whose
    /// router datapaths are empty are skipped, and what is left ticks —
    /// each hop's latch-to-departure pipeline and the ejection. (The
    /// largest stall threshold must not overflow the span's bound.)
    #[test]
    fn quiet_spans_are_skipped_while_a_packet_flies() {
        let cfg = NocConfig {
            link_latency: 3,
            ni_latency: 6,
            watchdog: WatchdogConfig {
                stall_threshold: u64::MAX,
                escalate_after: 0,
            },
            ..NocConfig::default()
        };
        let mut n = net_with(&cfg, |n| Box::new(AlwaysOn::new(n)));
        n.enable_profiler();
        n.send(msg(0, 3, MsgClass::Control)).unwrap();
        n.run(100).unwrap();
        assert_eq!(delivered_to(&mut n, 3), 1);
        let p = n.profiler().expect("enabled above");
        let (ticked, skips) = (
            p.mark_count(Phase::PowerTick),
            p.mark_count(Phase::FastForward),
        );
        // 31 cycles from send to delivery, 11 of them ticked.
        let latency = n.report().stats.latency.mean();
        assert!(skips >= 5, "{skips} skips");
        assert!(
            (ticked as f64) < latency / 2.0,
            "{ticked} of {latency} cycles in flight ticked"
        );
    }

    /// A stall surfaces from `run(n)` on the cycle, and with the report,
    /// that `n` calls of `tick()` give: for a wedged network (every router
    /// off, the packet blocked at its NI, so nothing is ever quiet) and for
    /// a quiet one whose NI latency outlasts the stall threshold, where
    /// the skip must stop short of the stall cycle.
    #[test]
    fn stalls_surface_on_the_cycle_ticking_reports_them() {
        type Pm = fn(usize) -> Box<dyn PowerManager>;
        let (off, on): (Pm, Pm) = (AlwaysOff::boxed, |n| Box::new(AlwaysOn::new(n)));
        for (ni_latency, pm, at) in [(3, off, 16), (40, on, 16)] {
            let cfg = NocConfig {
                ni_latency,
                watchdog: WatchdogConfig {
                    stall_threshold: 15,
                    escalate_after: 0,
                },
                ..NocConfig::default()
            };
            let stall = |ticking: bool| {
                let mut n = net_with(&cfg, pm);
                n.tick().unwrap();
                n.send(msg(0, 9, MsgClass::Control)).unwrap();
                let r = if ticking {
                    (0..30).try_for_each(|_| n.tick())
                } else {
                    n.run(30)
                };
                let Err(SimError::Stall(report)) = r else {
                    panic!("no stall: {r:?}");
                };
                (n.cycle(), format!("{report:?}"))
            };
            let (run, tick) = (stall(false), stall(true));
            assert_eq!(run, tick, "NI latency {ni_latency}");
            assert_eq!(run.0, at, "NI latency {ni_latency}");
        }
    }
}
