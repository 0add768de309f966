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
    /// topology's router rows (a shard would own no rows): the rule of
    /// [`crate::check_shards`].
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
