//! Running many cycles: quiescence, the fast-forward over quiescent spans
//! (one `PowerManager::tick_quiet` call), `run`/`run_hooked`, and the late
//! delivery of the one thing a skip can leave in flight — credits.

use punchsim_obs::metrics::PhaseProfiler;
use punchsim_types::{ConfigError, Cycle, SimError};

use super::Network;
use crate::power::IdleInfo;
use crate::soa::{self, CREDIT_LANES};

impl Network {
    /// `true` when nothing can change network state before new host input:
    /// no packets anywhere between NI enqueue and tail ejection (which
    /// implies every router datapath and NI queue is empty), no buffered
    /// power-manager events, no punch signals sweeping the sideband fabric,
    /// and no latched invariant violation. Credits still in flight are
    /// allowed: the first tick after the skip delivers them unchanged
    /// (`deliver_late_credits`) and nothing reads the upstream counters
    /// they restore until the next flit exists.
    ///
    /// All four checks are O(1).
    pub fn quiescent(&self) -> bool {
        self.packets.is_empty()
            && self.events.is_empty()
            && self.watchdog.violation.is_none()
            && self.pm.pending_punches() == 0
    }

    /// Delivers, on this thread, every credit whose cycle a fast-forward
    /// skipped, so the shards only ever see the one plane due now. Exact
    /// although late: applying a credit is a commutative increment and
    /// nothing read the counters in between (the network was quiescent).
    pub(super) fn deliver_late_credits(&mut self, now: Cycle) {
        while let Some(due) = self.credits.earliest_before(now) {
            let (words, slots) = self.credits.plane_mut(due);
            soa::for_each_one(words, 0, self.routers.len(), |idx| {
                let lanes = &mut slots[idx * CREDIT_LANES..][..CREDIT_LANES];
                soa::deliver_credits(lanes, &mut self.routers[idx], &mut self.nis[idx]);
            });
            self.credits.retire(due);
        }
    }

    /// Advances the clock over the quiescent span `[cycle, cycle + span)`
    /// in one bulk power-manager update. Caller must have checked
    /// [`Network::may_fast_forward`].
    fn fast_forward(&mut self, span: u64) {
        self.obs.profile(PhaseProfiler::begin_skip);
        debug_assert!(self.may_fast_forward());
        debug_assert!(self
            .routers
            .iter()
            .all(crate::router::Router::datapath_empty));
        let from = self.cycle;
        let to = from + span;
        for w in 0..self.soa.occ.words().len() {
            self.soa.set_busy(w, 0);
        }
        let idle = IdleInfo {
            idle: &self.soa.idle,
        };
        self.pm.tick_quiet(from, to, idle);
        self.cycle = to;
        // The per-cycle path refreshes `last_progress` every cycle while no
        // packets are in flight; mirror its final value so stall detection
        // sees no phantom gap across the jump.
        self.watchdog.last_progress = to - 1;
        self.obs.profile(PhaseProfiler::end_skip);
    }

    /// `true` when `run`/`run_hooked` may skip ahead right now: on the
    /// shipped kernel, quiescent, and untraced (per-cycle transition
    /// recording needs the per-cycle path).
    fn may_fast_forward(&self) -> bool {
        !self.reference && !self.obs.tracing() && self.quiescent()
    }

    /// Runs `n` cycles, stopping at the first error.
    ///
    /// Quiescent stretches are skipped: once [`Network::quiescent`] holds,
    /// the rest of the span is handed to
    /// [`crate::PowerManager::tick_quiet`] in one call, which costs the
    /// manager's own transient rather than the span length. While an event
    /// sink is attached (per-cycle transition recording), and on the
    /// reference kernel, every cycle ticks individually.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`Network::tick`].
    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        let mut left = n;
        while left > 0 {
            if self.may_fast_forward() {
                self.fast_forward(left);
                return Ok(());
            }
            self.tick()?;
            left -= 1;
        }
        Ok(())
    }

    /// Runs `n` cycles like [`Network::run`], invoking `hook` after every
    /// `every` cycles (and once more after the final cycle, if it did not
    /// land on a multiple). Campaign runners use this for per-run progress
    /// and wall-clock throughput sampling without instrumenting `tick`.
    ///
    /// Fast-forward jumps are capped at hook boundaries, so the hook fires
    /// at exactly the same cycles as under per-cycle ticking — samplers
    /// see identical interval timestamps either way.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroHookPeriod`] if `every` is zero
    /// (a hook that can never fire; previously this panicked, which is the
    /// wrong failure mode for a value that typically arrives from campaign
    /// configuration). Otherwise propagates the first error from
    /// [`Network::tick`]; the hook does not run for the failing window.
    pub fn run_hooked(
        &mut self,
        n: u64,
        every: u64,
        hook: &mut dyn FnMut(&Network),
    ) -> Result<(), SimError> {
        if every == 0 {
            return Err(SimError::Config(ConfigError::ZeroHookPeriod));
        }
        let mut i = 0;
        while i < n {
            if self.may_fast_forward() {
                // Skip to the next hook boundary (or the end of the span).
                let span = (every - i % every).min(n - i);
                self.fast_forward(span);
                i += span;
            } else {
                self.tick()?;
                i += 1;
            }
            if i % every == 0 {
                hook(self);
            }
        }
        if n % every != 0 {
            hook(self);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{delivered_to, msg, net};
    use super::*;
    use crate::MsgClass;

    #[test]
    fn run_hooked_fires_per_window_and_at_end() {
        let mut n = net();
        let mut cycles_seen = Vec::new();
        n.run_hooked(25, 10, &mut |net| cycles_seen.push(net.cycle()))
            .unwrap();
        assert_eq!(cycles_seen, vec![10, 20, 25]);
        let mut exact = Vec::new();
        n.run_hooked(20, 10, &mut |net| exact.push(net.cycle()))
            .unwrap();
        assert_eq!(exact, vec![35, 45]);
    }

    #[test]
    fn hooked_run_rejects_zero_period() {
        let mut n = net();
        let err = n.run_hooked(10, 0, &mut |_| {}).unwrap_err();
        assert!(matches!(err, SimError::Config(ConfigError::ZeroHookPeriod)));
    }

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
                r.stats.hops.mean().to_bits(),
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
}
