//! Persistent shard worker pool for the two-phase sharded SoA tick.
//!
//! Spawning phase-A shard threads with `std::thread::scope` every tick
//! cost ~6 μs/spawn — 16% of 32x32 wall time at four shards. This module
//! keeps long-lived worker threads parked on a condvar epoch barrier
//! instead: the host publishes one type-erased [`Job`] per worker, bumps
//! the epoch, runs shard 0 itself, and blocks until every worker has
//! checked back in. Workers are created once (lazily, on the first
//! sharded tick), re-created only when the shard count changes, and
//! joined on drop.
//!
//! # Safety model
//!
//! A job is a raw `(fn, data)` pair whose `data` points at borrows of the
//! dispatching tick's stack (shard views into the network's per-router
//! state). That is sound because [`ShardPool::run_tick`] does not return
//! — not even by unwinding — until every worker has finished its job and
//! passed the completion barrier, so the pointed-to state strictly
//! outlives every worker access. Shard views are disjoint row bands, so
//! concurrent workers never alias.
//!
//! # Failure model
//!
//! A panicking job must never hang the simulation: workers run jobs
//! under `catch_unwind`, always reach the completion barrier, and report
//! the panic payload back to the host, which surfaces it as a typed
//! [`PoolPanic`] (mapped to `SimError::ShardPanic` by the network). The
//! pool itself stays usable after a panic — the worker parks again and
//! picks up the next epoch.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One type-erased unit of shard work: `unsafe { (run)(data) }` executes
/// a single shard's phase A.
///
/// # Safety
///
/// The constructor of a `Job` promises that `data` stays valid (and
/// unaliased by the host) until the dispatching [`ShardPool::run_tick`]
/// call's completion barrier has passed.
pub(crate) struct Job {
    pub run: unsafe fn(*mut ()),
    pub data: *mut (),
}

// SAFETY: a Job is only a (fn, pointer) pair; the pointed-to shard state
// is accessed by exactly one worker between dispatch and the completion
// barrier, while the host is excluded from it (disjoint row-band splits).
// The erased pointee must itself be fit to cross threads: the one
// production pointee, `network::ShardTask`, is asserted `Send` (and the
// `dyn PowerManager` it shares with the other shards `Sync`) at compile
// time next to its definition, so a `!Sync` manager or a thread-bound
// field in a shard view fails the build instead of hiding behind this impl.
unsafe impl Send for Job {}

/// A shard worker panicked while running its job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolPanic {
    /// Worker index (shard `index + 1`; shard 0 runs on the host thread).
    pub worker: usize,
    /// Stringified panic payload.
    pub message: String,
}

impl std::fmt::Display for PoolPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard worker {} panicked: {}", self.worker, self.message)
    }
}

impl std::error::Error for PoolPanic {}

struct State {
    /// Bumped once per dispatched tick; workers run when they see an
    /// epoch they have not processed yet.
    epoch: u64,
    /// One slot per worker, taken by its owner at the start of an epoch.
    jobs: Vec<Option<Job>>,
    /// Workers that have finished the current epoch's job.
    done: usize,
    /// First panic observed this epoch, if any.
    panic: Option<PoolPanic>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers: new epoch published, or shutdown.
    work: Condvar,
    /// Signals the host: all workers done with the current epoch.
    idle: Condvar,
}

/// Long-lived shard worker threads parked on a condvar epoch barrier.
pub(crate) struct ShardPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// Spawns `workers` parked threads. Returns the pool and the wall
    /// nanoseconds spent issuing the spawns (the one-off cost the pool
    /// amortizes over every later tick), or the OS error if a thread
    /// could not be created — the caller then runs its shards itself.
    pub fn new(workers: usize) -> std::io::Result<(Self, u64)> {
        #[cfg(test)]
        if FAIL_NEW.with(std::cell::Cell::get) {
            return Err(std::io::Error::other("injected pool-creation failure"));
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                jobs: (0..workers).map(|_| None).collect(),
                done: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let t0 = Instant::now();
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let sh = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("pp-shard-{}", i + 1))
                .spawn(move || worker_loop(&sh, i));
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // Join what we started before reporting failure.
                    let pool = ShardPool {
                        shared,
                        workers: handles,
                    };
                    drop(pool);
                    return Err(e);
                }
            }
        }
        let spawn_nanos = t0.elapsed().as_nanos() as u64;
        let pool = ShardPool {
            shared,
            workers: handles,
        };
        Ok((pool, spawn_nanos))
    }

    /// Number of worker threads (the host thread is not counted).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Dispatches one tick: publishes `jobs` (exactly one per worker),
    /// wakes the pool, runs `host` on the calling thread (shard 0), then
    /// blocks until every worker has finished. Returns the wall
    /// nanoseconds the host spent waiting at the completion barrier
    /// after `host` returned.
    ///
    /// The completion barrier is unconditional: even if `host` unwinds,
    /// the barrier is waited out before the panic propagates, so job
    /// data can safely borrow the caller's stack.
    ///
    /// # Errors
    ///
    /// [`PoolPanic`] when any worker's job panicked this tick; the pool
    /// remains usable.
    pub fn run_tick(
        &self,
        jobs: impl IntoIterator<Item = Job>,
        host: impl FnOnce(),
    ) -> Result<u64, PoolPanic> {
        {
            let mut st = lock(&self.shared.state);
            debug_assert!(st.done == 0 || st.done == self.workers.len());
            st.done = 0;
            st.panic = None;
            let mut count = 0usize;
            for (slot, job) in st.jobs.iter_mut().zip(jobs) {
                *slot = Some(job);
                count += 1;
            }
            debug_assert_eq!(count, self.workers.len(), "one job per worker");
            st.epoch = st.epoch.wrapping_add(1);
            self.shared.work.notify_all();
        }
        // The guard guarantees the barrier is waited out even if the host
        // shard panics below.
        let mut guard = BarrierGuard {
            shared: &self.shared,
            expected: self.workers.len(),
            waited: false,
        };
        host();
        let t0 = Instant::now();
        guard.wait();
        let wait_nanos = t0.elapsed().as_nanos() as u64;
        let mut st = lock(&self.shared.state);
        match st.panic.take() {
            Some(p) => Err(p),
            None => Ok(wait_nanos),
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.workers.drain(..) {
            // A worker's loop body cannot panic (jobs run under
            // catch_unwind), so join errors are unreachable; swallow
            // rather than double-panic in drop.
            let _ = h.join();
        }
    }
}

/// Waits out the completion barrier on drop, so `run_tick`'s job borrows
/// stay valid even when the host shard unwinds.
struct BarrierGuard<'a> {
    shared: &'a Shared,
    expected: usize,
    waited: bool,
}

impl BarrierGuard<'_> {
    fn wait(&mut self) {
        if self.waited {
            return;
        }
        let mut st = lock(&self.shared.state);
        while st.done < self.expected {
            st = match self.shared.idle.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        self.waited = true;
    }
}

impl Drop for BarrierGuard<'_> {
    fn drop(&mut self) {
        self.wait();
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    // Worker bodies never panic while holding the lock (jobs run outside
    // it, under catch_unwind), so poisoning is unreachable; recover the
    // guard rather than unwrap-panic if it ever happens.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    break;
                }
                st = match shared.work.wait(st) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            seen = st.epoch;
            st.jobs[index].take()
        };
        let panicked = match job {
            // SAFETY: the dispatcher's barrier (run_tick / BarrierGuard)
            // keeps `job.data` alive and unaliased until we report done.
            Some(job) => panic::catch_unwind(AssertUnwindSafe(|| unsafe { (job.run)(job.data) }))
                .err()
                .map(payload_to_string),
            None => None,
        };
        let mut st = lock(&shared.state);
        if let Some(message) = panicked {
            st.panic.get_or_insert(PoolPanic {
                worker: index,
                message,
            });
        }
        st.done += 1;
        shared.idle.notify_all();
    }
}

#[cfg(test)]
thread_local! {
    /// Unit-test hook: while set, [`ShardPool::new`] on this thread fails
    /// like an OS that is out of threads.
    pub(crate) static FAIL_NEW: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A job that adds `arg` into a shared counter.
    struct AddTask<'a> {
        sum: &'a AtomicU64,
        arg: u64,
    }

    unsafe fn run_add(p: *mut ()) {
        let t = unsafe { &mut *(p as *mut AddTask) };
        t.sum.fetch_add(t.arg, Ordering::SeqCst);
    }

    unsafe fn run_panic(_p: *mut ()) {
        panic!("injected worker panic");
    }

    fn add_jobs<'a>(tasks: &mut [AddTask<'a>]) -> Vec<Job> {
        tasks
            .iter_mut()
            .map(|t| Job {
                run: run_add,
                data: t as *mut AddTask as *mut (),
            })
            .collect()
    }

    #[test]
    fn runs_every_job_every_epoch() {
        let (pool, spawn_nanos) = ShardPool::new(3).expect("spawn pool");
        assert_eq!(pool.workers(), 3);
        assert!(spawn_nanos > 0);
        let sum = AtomicU64::new(0);
        for round in 0..50u64 {
            let mut tasks: Vec<AddTask> = (0..3)
                .map(|i| AddTask {
                    sum: &sum,
                    arg: i + 1,
                })
                .collect();
            let jobs = add_jobs(&mut tasks);
            let wait = pool
                .run_tick(jobs, || {
                    sum.fetch_add(100, Ordering::SeqCst);
                })
                .expect("no panic");
            let _ = wait;
            assert_eq!(sum.load(Ordering::SeqCst), (round + 1) * 106);
        }
    }

    #[test]
    fn worker_panic_is_reported_not_hung_and_pool_survives() {
        let (pool, _) = ShardPool::new(2).expect("spawn pool");
        let sum = AtomicU64::new(0);
        let mut ok = AddTask { sum: &sum, arg: 7 };
        let jobs = vec![
            Job {
                run: run_add,
                data: &mut ok as *mut AddTask as *mut (),
            },
            Job {
                run: run_panic,
                data: std::ptr::null_mut(),
            },
        ];
        let err = pool.run_tick(jobs, || {}).expect_err("panic surfaces");
        assert_eq!(err.worker, 1);
        assert!(err.message.contains("injected worker panic"), "{err}");
        // The non-panicking worker still ran.
        assert_eq!(sum.load(Ordering::SeqCst), 7);
        // The pool is reusable after the panic.
        let mut tasks: Vec<AddTask> = (0..2).map(|_| AddTask { sum: &sum, arg: 1 }).collect();
        pool.run_tick(add_jobs(&mut tasks), || {})
            .expect("clean epoch");
        assert_eq!(sum.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn host_panic_still_waits_out_the_barrier() {
        let (pool, _) = ShardPool::new(2).expect("spawn pool");
        let sum = AtomicU64::new(0);
        let mut tasks: Vec<AddTask> = (0..2).map(|_| AddTask { sum: &sum, arg: 5 }).collect();
        let jobs = add_jobs(&mut tasks);
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.run_tick(jobs, || panic!("host shard panicked"));
        }));
        assert!(r.is_err());
        // Both worker jobs completed before the unwind escaped run_tick;
        // the borrowed tasks were never dangling.
        assert_eq!(sum.load(Ordering::SeqCst), 10);
        // And the pool still works.
        let mut tasks: Vec<AddTask> = (0..2).map(|_| AddTask { sum: &sum, arg: 1 }).collect();
        pool.run_tick(add_jobs(&mut tasks), || {})
            .expect("clean epoch");
        assert_eq!(sum.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn drop_joins_all_workers() {
        let (pool, _) = ShardPool::new(4).expect("spawn pool");
        let sum = AtomicU64::new(0);
        let mut tasks: Vec<AddTask> = (0..4).map(|_| AddTask { sum: &sum, arg: 1 }).collect();
        pool.run_tick(add_jobs(&mut tasks), || {})
            .expect("clean epoch");
        drop(pool); // must not hang or leak parked threads
        assert_eq!(sum.load(Ordering::SeqCst), 4);
    }
}
