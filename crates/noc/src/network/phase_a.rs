//! The tick, and its compute half: phase A runs each shard's slice of the
//! cycle over shard-owned state only ([`crate::soa::shard_phase_a`], inline
//! or on the pool — [`Sharding`](crate::shard::Sharding) decides), recording
//! every cross-router effect for the serial commit. The shard-count knobs
//! the host sees live here with it.

use punchsim_obs::metrics::{Phase, PhaseProfiler};
use punchsim_types::{ConfigError, Cycle, SimError};

use super::Network;
use crate::soa::{PmAvail, ShardView, TickCtx};

impl Network {
    /// Advances the network by one cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invariant`] when a per-cycle invariant check
    /// fails (flit conservation, flit into a powered-off router), and
    /// [`SimError::Stall`] when no flit has moved for longer than
    /// [`punchsim_types::WatchdogConfig::stall_threshold`] while packets
    /// are in flight. An invariant violation is latched: every subsequent
    /// tick keeps returning it. A stall re-arms, so a caller that
    /// intentionally keeps ticking past it will get a fresh report each
    /// threshold window.
    pub fn tick(&mut self) -> Result<(), SimError> {
        if self.reference {
            return self.tick_reference();
        }
        self.obs.profile(PhaseProfiler::begin_tick);
        let now = self.cycle;
        self.watchdog.moved = false;
        let pool_wait = self.soa_phase_a(now)?;
        self.obs.phase(Phase::SoaPhaseA);
        if pool_wait > 0 {
            // The interval just charged includes the host's blocked wait at
            // the pool barrier; move it to its own phase (totals, and thus
            // coverage, are conserved).
            self.obs
                .profile(|pr| pr.transfer(Phase::SoaPhaseA, Phase::PoolWait, pool_wait));
        }
        self.soa_commit(now);
        self.obs.phase(Phase::SoaCommit);
        self.watchdog_escalate(now);
        self.obs.phase(Phase::Watchdog);
        self.power_tick_soa(now);
        self.obs.phase(Phase::PowerTick);
        self.cycle = now + 1;
        let r = self.watchdog_check(now);
        self.obs.phase(Phase::Watchdog);
        r
    }

    /// Hands the whole mesh, this cycle's due planes and one shared
    /// [`PmAvail`] to [`crate::shard::Sharding::phase_a`]; returns and
    /// fails as that does.
    fn soa_phase_a(&mut self, now: Cycle) -> Result<u64, SimError> {
        self.deliver_late_credits(now);
        let link = self.cfg.link_latency as Cycle;
        let (flit_due, flits) = self.flits.plane_mut(now);
        let (credit_due, credits) = self.credits.plane_mut(now);
        let (eject_due, ejects) = self.ejects.plane_mut(now);
        let ctx = TickCtx {
            now,
            violation_open: self.watchdog.violation.is_none(),
            neighbors: &self.soa.neighbors,
            occ: self.soa.occ.words(),
            ni_pend: self.soa.ni_pend.words(),
            flit_due,
            credit_due,
            eject_due,
        };
        let avail = PmAvail {
            pm: self.pm.as_ref(),
            arrival_by: now + 2 + link,
            local_by: now + 1 + link,
        };
        let whole = ShardView {
            lo: 0,
            hi: self.routers.len(),
            routers: &mut self.routers,
            nis: &mut self.nis,
            flits,
            credits,
            ejects,
        };
        self.shard.phase_a(whole, &ctx, &avail)
    }

    /// Sets the row-band shard count for phase A of the tick (`1`, the
    /// construction default, runs it inline on the calling thread). Shard
    /// count never changes results — phase A is confined to shard-owned
    /// state and the commit order is fixed — so this is an execution knob
    /// like the campaign thread count, not part of any run specification.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroShards`] for `0` and
    /// [`ConfigError::ShardsExceedRows`] when `shards` exceeds the
    /// topology's router rows (a shard would own no rows).
    pub fn set_shards(&mut self, shards: usize) -> Result<(), ConfigError> {
        self.shard.set_count(self.view.topo, shards)
    }

    /// The active shard count.
    pub fn shards(&self) -> usize {
        self.shard.count()
    }

    /// Shard-thread creation overhead since the last stats reset:
    /// `(spawn_count, spawn_nanos)` — pool worker threads created for the
    /// sharded phase A and the wall time spent issuing those creations.
    /// Stays `<= shards - 1` per pool lifetime no matter how many ticks
    /// run; `(0, 0)` while `shards == 1`.
    pub fn spawn_stats(&self) -> (u64, u64) {
        self.shard.spawned
    }

    /// Pool dispatch overhead since the last stats reset:
    /// `(pool_ticks, pool_wait_nanos)` — sharded ticks dispatched through
    /// the persistent worker pool, and the wall time the host thread
    /// spent blocked at the completion barrier after finishing its own
    /// shard. `(0, 0)` while `shards == 1`.
    pub fn pool_stats(&self) -> (u64, u64) {
        self.shard.pooled
    }

    /// Test hook: the next sharded tick runs a panicking job in its last
    /// worker, exercising the pool's typed-error path
    /// ([`SimError::ShardPanic`] instead of a hang). Only meaningful while
    /// `shards > 1`.
    #[doc(hidden)]
    pub fn debug_panic_next_pooled_tick(&mut self) {
        self.shard.panic_next = true;
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{msg, net_with};
    use crate::flit::MsgClass;
    use crate::link::Wheel;
    use crate::power::AlwaysOn;
    use crate::soa::{CREDIT_LANES, FLIT_LANES};
    use punchsim_types::{Cycle, Mesh, NocConfig};

    /// The lanes into `router` of `wheel` that carry an item due at `now`,
    /// as a mask: bit `i` for lane `i`.
    fn due_lanes<T>(wheel: &mut Wheel<T>, now: Cycle, router: usize, lanes: usize) -> u32 {
        let (_, slots) = wheel.plane_mut(now);
        let wires = &slots[router * lanes..][..lanes];
        (0..lanes).fold(0, |mask, i| mask | u32::from(wires[i].is_some()) << i)
    }

    /// Phase A's lane walks against the reference kernel's port loops, on
    /// a cycle when one router has work on every lane: the centre of a
    /// 3x3 mesh takes flits on all five input lanes (four streams crossing
    /// it straight from each neighbour, and its own NI's) and credits on
    /// all five credit lanes that carry one — the four link outputs and
    /// the NI's; the `Local` output's lane never does. A lane mapped to
    /// the wrong port or direction, or an NI credit dealt to the router,
    /// shows in `report()` or `encode_state()` within a tick.
    #[test]
    fn every_lane_due_at_one_router_matches_the_reference_kernel() {
        let cfg = NocConfig {
            topology: Mesh::new(3, 3).into(),
            ..NocConfig::default()
        };
        let build = || net_with(&cfg, |n| Box::new(AlwaysOn::new(n)));
        let (mut kernel, mut oracle) = (build(), build());
        oracle.use_reference_kernel();
        for _ in 0..4 {
            for (src, dst) in [(1, 7), (3, 5), (5, 3), (7, 1), (4, 0)] {
                for n in [&mut kernel, &mut oracle] {
                    n.send(msg(src, dst, MsgClass::Data)).unwrap();
                }
            }
        }
        let (centre, mut every_lane) = (4, 0);
        while kernel.in_flight() > 0 {
            let now = kernel.cycle();
            let flits = due_lanes(&mut kernel.flits, now, centre, FLIT_LANES);
            let credits = due_lanes(&mut kernel.credits, now, centre, CREDIT_LANES);
            assert_eq!(
                credits & 1,
                0,
                "cycle {now}: a credit on the Local output's lane"
            );
            every_lane += u32::from(flits == 0b1_1111 && credits == 0b11_1110);
            kernel.tick().unwrap();
            oracle.tick().unwrap();
            let (a, b) = (kernel.report(), oracle.report());
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "cycle {now}");
            let state = kernel.encode_state();
            assert!(state.is_some(), "an always-on network encodes");
            assert_eq!(state, oracle.encode_state(), "cycle {now}");
            assert!(now < 500, "the streams never drained");
        }
        assert_eq!(oracle.in_flight(), 0);
        assert!(every_lane > 0, "no cycle had every lane due at the centre");
    }
}
