//! Row-band sharding of phase A: the shard count, the rows each shard owns,
//! the per-shard outcome buffers, and the persistent worker pool
//! ([`crate::pool`]) that runs shards `1..` while the host thread runs
//! shard 0 — with the pool's instrumentation and its test hooks.
//!
//! Sharding is an execution detail: phase A touches shard-owned state only
//! and the commit order is fixed, so results are bit-exact for every count.
//! It is also the one place, with `pool.rs`, where this crate needs
//! `unsafe`: a pool [`Job`] erases the [`ShardTask`] it points at.
//!
//! Deleting the pool is three steps: delete `pool.rs`; delete here
//! [`ShardTask`], the two `run_shard_task*` entry points, `ensure_pool`
//! and the `pool`/`spawned`/`pooled`/`panic_next` fields; let
//! [`Sharding::phase_a`] keep only its inline loop.

use punchsim_types::{ConfigError, SimError, Substrate};

use crate::pool::{Job, ShardPool};
use crate::power::PowerManager;
use crate::soa::{self, PmAvail, ShardBuf, ShardView, TickCtx};

/// The one `shards`-versus-rows rule: sharding cuts the mesh into row
/// bands, so a count must be at least 1 and leave every shard a row.
///
/// # Errors
///
/// [`ConfigError::ZeroShards`] for `0`, [`ConfigError::ShardsExceedRows`]
/// when `shards` exceeds `rows`.
fn check_shards(shards: usize, rows: u16) -> Result<(), ConfigError> {
    if shards == 0 {
        return Err(ConfigError::ZeroShards);
    }
    if shards > rows as usize {
        return Err(ConfigError::ShardsExceedRows { shards, rows });
    }
    Ok(())
}

/// One pooled shard's phase-A work for one tick: the shard view plus the
/// shared read-only tick context, bundled so a type-erased pool [`Job`]
/// can point at it. Lives on `phase_a`'s stack; the pool's completion
/// barrier guarantees workers are done with it before that frame unwinds.
struct ShardTask<'a, 'b> {
    sv: ShardView<'b>,
    ctx: &'a TickCtx<'b>,
    avail: &'a PmAvail<'b>,
    buf: &'a mut ShardBuf,
}

// A pool `Job` erases `ShardTask` to a raw pointer, so the compiler cannot
// see what crosses to the worker thread. These assertions put the check
// back: the task as a whole must be `Send` (it is handed to exactly one
// worker), which in turn needs the manager every shard reads through
// `PmAvail` to be `Sync`. `Job`'s `unsafe impl Send` relies on both.
const _: () = {
    const fn assert_send<T: ?Sized + Send>() {}
    const fn assert_sync<T: ?Sized + Sync>() {}
    assert_sync::<dyn PowerManager>();
    assert_send::<ShardTask<'_, '_>>();
};

/// Pool job entry point for one shard's phase A.
///
/// # Safety
///
/// `p` must point at a live, exclusively-owned [`ShardTask`] — upheld by
/// [`Sharding::phase_a`], which hands each task to exactly one worker and
/// blocks at the pool barrier until all of them are done.
unsafe fn run_shard_task(p: *mut ()) {
    let t = unsafe { &mut *(p as *mut ShardTask<'_, '_>) };
    soa::shard_phase_a(&mut t.sv, t.ctx, t.avail, t.buf);
}

/// Test-hook variant of [`run_shard_task`] that panics instead of
/// working, driving the pool's typed-error path
/// (see `Sharding::panic_next`).
unsafe fn run_shard_task_panicking(_p: *mut ()) {
    panic!("injected shard panic (test hook)");
}

/// How a network's phase A is cut up and executed. Never part of a fork:
/// a clone starts from [`Sharding::new`] with the parent's count, so it
/// owns no threads until it runs a sharded tick of its own.
#[derive(Default)]
pub(crate) struct Sharding {
    /// Row-band shard count (1 = no threading).
    count: usize,
    /// The row bands as node ranges, one per shard (see
    /// [`soa::shard_bounds`]).
    bounds: Vec<(usize, usize)>,
    /// Per-shard phase-A outcomes, filled by [`Sharding::phase_a`] and
    /// drained by the commit (reused: a steady-state tick allocates
    /// nothing with one shard, and only its `count - 1`-element task list
    /// with more — pinned by `tests/tick_allocations.rs`).
    pub bufs: Vec<ShardBuf>,
    /// Created lazily on the first sharded tick; `None` for one shard,
    /// before that tick, or while the OS refuses the threads.
    pool: Option<ShardPool>,
    /// Pool worker threads created since the last stats reset (at most
    /// `count - 1` per pool lifetime), and the nanoseconds spent on it.
    pub spawned: (u64, u64),
    /// Ticks dispatched through the pool since the last stats reset, and
    /// the nanoseconds the host spent at its completion barrier.
    pub pooled: (u64, u64),
    /// Test hook: the next pooled phase A panics in its last worker.
    pub panic_next: bool,
}

impl Sharding {
    /// `count` row bands over `topo`; the caller has checked `count`
    /// (see [`check_shards`]).
    pub fn new(topo: Substrate, count: usize) -> Self {
        Sharding {
            count,
            bounds: soa::shard_bounds(topo.width(), topo.height(), count),
            ..Sharding::default()
        }
    }

    /// Re-cuts `topo` into `shards` bands. A pool sized for a different
    /// count is torn down here (workers joined); the right-sized one is
    /// re-created lazily on the next sharded tick.
    pub fn set_count(&mut self, topo: Substrate, shards: usize) -> Result<(), ConfigError> {
        check_shards(shards, topo.height())?;
        self.count = shards;
        self.bounds = soa::shard_bounds(topo.width(), topo.height(), shards);
        if self
            .pool
            .as_ref()
            .is_some_and(|p| p.workers() != shards - 1)
        {
            self.pool = None;
        }
        Ok(())
    }

    pub fn count(&self) -> usize {
        self.count
    }

    /// Runs phase A over `whole`, cut along the row bands: on this thread
    /// for one shard, on the persistent worker pool for more. Either way
    /// every shard reads power availability straight from the manager
    /// through the one shared `avail`, and reports into its own
    /// [`Sharding::bufs`] entry.
    ///
    /// Returns the wall nanoseconds the host spent blocked at the pool's
    /// completion barrier (0 for inline execution).
    ///
    /// # Errors
    ///
    /// [`SimError::ShardPanic`] when a pool worker's shard panicked; the
    /// pool itself survives and later ticks may proceed.
    #[inline]
    pub fn phase_a(
        &mut self,
        whole: ShardView<'_>,
        ctx: &TickCtx<'_>,
        avail: &PmAvail<'_>,
    ) -> Result<u64, SimError> {
        if self.bufs.len() != self.count {
            self.bufs.resize_with(self.count, ShardBuf::default);
        }
        for b in &mut self.bufs {
            b.reset();
        }
        if self.count > 1 {
            self.ensure_pool(self.count - 1);
        }
        let inject_panic = std::mem::take(&mut self.panic_next);
        let mut views = soa::split_shards(whole, &self.bounds);
        let Some(pool) = self.pool.as_ref() else {
            // One shard (no pool exists), or pool creation failed (the OS
            // is out of threads; `ensure_pool` retries next tick): run
            // every shard view on this thread, in shard order. Same
            // record-then-commit protocol, so still bit-exact.
            for (mut sv, buf) in views.zip(self.bufs.iter_mut()) {
                soa::shard_phase_a(&mut sv, ctx, avail, buf);
            }
            return Ok(0);
        };
        // Publish one job per parked worker, run shard 0 on this thread,
        // then wait at the completion barrier. Jobs borrow this stack
        // frame; that is sound because `run_tick` never returns (even by
        // unwinding) before every worker passed the barrier.
        let mut sv0 = views.next().expect("at least one shard");
        let (buf0, bufs) = self.bufs.split_at_mut(1);
        let mut tasks: Vec<ShardTask<'_, '_>> = views
            .zip(bufs.iter_mut())
            .map(|(sv, buf)| ShardTask {
                sv,
                ctx,
                avail,
                buf,
            })
            .collect();
        let last = tasks.len().saturating_sub(1);
        let jobs = tasks.iter_mut().enumerate().map(|(i, t)| Job {
            run: if inject_panic && i == last {
                run_shard_task_panicking
            } else {
                run_shard_task
            },
            data: t as *mut ShardTask<'_, '_> as *mut (),
        });
        let wait = pool
            .run_tick(jobs, || {
                soa::shard_phase_a(&mut sv0, ctx, avail, &mut buf0[0])
            })
            .map_err(|p| SimError::ShardPanic {
                // Worker k owns shard k + 1 (shard 0 is the host).
                shard: p.worker + 1,
                message: p.message,
            })?;
        self.pooled.0 += 1;
        self.pooled.1 += wait;
        Ok(wait)
    }

    /// Creates (or re-creates) the persistent pool for `workers` shard
    /// threads. A creation failure is not fatal: this tick runs its shards
    /// on the host thread and the next tick retries.
    fn ensure_pool(&mut self, workers: usize) {
        if self.pool.as_ref().is_some_and(|p| p.workers() == workers) {
            return;
        }
        self.pool = None;
        if let Ok((pool, spawn_ns)) = ShardPool::new(workers) {
            self.spawned.0 += workers as u64;
            self.spawned.1 += spawn_ns;
            self.pool = Some(pool);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::network::testkit::{msg, net};
    use crate::{MsgClass, Network};

    /// When the OS refuses the pool's threads, a sharded tick must run its
    /// shards on the host thread — same results, no threads, no panic — and
    /// bring the pool up as soon as creation succeeds again.
    #[test]
    fn failed_pool_creation_runs_shards_on_the_host_and_retries() {
        let drive = |n: &mut Network| {
            for i in 0..50u16 {
                n.send(msg(i % 64, (i * 7 + 3) % 64, MsgClass::Data))
                    .unwrap();
                n.tick().unwrap();
            }
        };
        let digest = |n: &Network| format!("{:?}", n.report());
        let mut serial = net();
        let mut sharded = net();
        sharded.set_shards(4).unwrap();
        crate::pool::FAIL_NEW.with(|f| f.set(true));
        drive(&mut serial);
        drive(&mut sharded);
        crate::pool::FAIL_NEW.with(|f| f.set(false));
        assert_eq!(sharded.spawn_stats().0, 0, "no thread was ever created");
        assert_eq!(sharded.pool_stats().0, 0, "no tick went through a pool");
        assert_eq!(digest(&sharded), digest(&serial));
        drive(&mut serial);
        drive(&mut sharded);
        assert_eq!(sharded.spawn_stats().0, 3, "the next tick retried");
        assert!(sharded.pool_stats().0 > 0);
        assert_eq!(digest(&sharded), digest(&serial));
    }
}
