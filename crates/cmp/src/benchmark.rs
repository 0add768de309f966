//! PARSEC-like benchmark presets and the synthetic cores that execute them.
//!
//! The paper evaluates on eight multi-threaded PARSEC benchmarks under
//! gem5 full-system simulation. We cannot ship PARSEC + an x86 OS, so each
//! benchmark becomes a *workload preset*: a synthetic in-order core per tile
//! executing a parameterized instruction mix (compute bursts, private and
//! shared memory references, read/write ratio, working-set sizes) chosen to
//! produce the same class of NoC behaviour — low average load, bursty
//! coherence traffic, and execution time that responds to network latency.
//! DESIGN.md documents this substitution.

use punchsim_types::SimRng;

use crate::protocol::BlockAddr;

/// A PARSEC-like workload preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Option pricing: tiny working set, almost no sharing, lowest traffic.
    Blackscholes,
    /// Body tracking: medium traffic, moderate read sharing.
    Bodytrack,
    /// Cache-hostile simulated annealing: large random working set, the
    /// highest network load of the suite.
    Canneal,
    /// Pipelined compression: high traffic, producer-consumer sharing.
    Dedup,
    /// Content-based similarity search: medium-high, shared read-mostly.
    Ferret,
    /// Fluid dynamics: neighbour sharing, medium-low traffic.
    Fluidanimate,
    /// Monte-Carlo swaption pricing: compute-bound, very low traffic.
    Swaptions,
    /// Video encoding: medium traffic, bursty, write-heavy shared refs.
    X264,
}

impl Benchmark {
    /// The eight benchmarks of the paper's figures, in figure order.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::Blackscholes,
        Benchmark::Bodytrack,
        Benchmark::Canneal,
        Benchmark::Dedup,
        Benchmark::Ferret,
        Benchmark::Fluidanimate,
        Benchmark::Swaptions,
        Benchmark::X264,
    ];

    /// Lower-case display name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Blackscholes => "blackscholes",
            Benchmark::Bodytrack => "bodytrack",
            Benchmark::Canneal => "canneal",
            Benchmark::Dedup => "dedup",
            Benchmark::Ferret => "ferret",
            Benchmark::Fluidanimate => "fluidanimate",
            Benchmark::Swaptions => "swaptions",
            Benchmark::X264 => "x264",
        }
    }

    /// The workload parameters of this preset.
    pub fn params(self) -> WorkloadParams {
        // private_blocks: per-core private working set (64 B blocks).
        // shared_blocks: global shared working set.
        // mem_ratio: fraction of instructions that reference memory.
        // shared_frac: fraction of references into the shared region.
        // write_frac: fraction of references that are stores.
        // burst: mean compute-burst length between memory instructions is
        //        derived from mem_ratio; `burst_cv` adds irregularity.
        match self {
            Benchmark::Blackscholes => WorkloadParams {
                private_blocks: 180,
                shared_blocks: 50000,
                mem_ratio: 0.22,
                shared_frac: 0.0008,
                write_frac: 0.2,
                hot_frac: 0.0,
            },
            Benchmark::Bodytrack => WorkloadParams {
                private_blocks: 200,
                shared_blocks: 80000,
                mem_ratio: 0.28,
                shared_frac: 0.0018,
                write_frac: 0.22,
                hot_frac: 0.25,
            },
            Benchmark::Canneal => WorkloadParams {
                private_blocks: 220,
                shared_blocks: 500000,
                mem_ratio: 0.32,
                shared_frac: 0.005,
                write_frac: 0.25,
                hot_frac: 0.05,
            },
            Benchmark::Dedup => WorkloadParams {
                private_blocks: 210,
                shared_blocks: 200000,
                mem_ratio: 0.3,
                shared_frac: 0.0028,
                write_frac: 0.3,
                hot_frac: 0.15,
            },
            Benchmark::Ferret => WorkloadParams {
                private_blocks: 200,
                shared_blocks: 150000,
                mem_ratio: 0.3,
                shared_frac: 0.0022,
                write_frac: 0.18,
                hot_frac: 0.2,
            },
            Benchmark::Fluidanimate => WorkloadParams {
                private_blocks: 190,
                shared_blocks: 100000,
                mem_ratio: 0.26,
                shared_frac: 0.0012,
                write_frac: 0.28,
                hot_frac: 0.4,
            },
            Benchmark::Swaptions => WorkloadParams {
                private_blocks: 170,
                shared_blocks: 40000,
                mem_ratio: 0.2,
                shared_frac: 0.0005,
                write_frac: 0.15,
                hot_frac: 0.0,
            },
            Benchmark::X264 => WorkloadParams {
                private_blocks: 210,
                shared_blocks: 120000,
                mem_ratio: 0.29,
                shared_frac: 0.0032,
                write_frac: 0.35,
                hot_frac: 0.3,
            },
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tunable parameters of a workload preset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Per-core private working set in 64 B blocks.
    pub private_blocks: u64,
    /// Shared working set in 64 B blocks.
    pub shared_blocks: u64,
    /// Fraction of instructions that are memory references.
    pub mem_ratio: f64,
    /// Fraction of memory references to the shared region.
    pub shared_frac: f64,
    /// Fraction of memory references that are stores.
    pub write_frac: f64,
    /// Fraction of shared references that hit a small hot subset (models
    /// locks, queues and boundary data — drives invalidation traffic).
    pub hot_frac: f64,
}

/// One memory reference produced by a synthetic core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Referenced block.
    pub addr: BlockAddr,
    /// Store (`true`) or load.
    pub is_write: bool,
}

/// Base of the shared address region (block-address space).
const SHARED_BASE: BlockAddr = 1 << 40;
/// Size of the hot shared subset in blocks.
const HOT_BLOCKS: u64 = 64;

/// A synthetic in-order core executing a workload preset.
///
/// The core alternates compute bursts (1 instruction/cycle) and memory
/// references; it blocks while a reference misses in the L1. This is the
/// mechanism through which NoC latency becomes execution time, as in the
/// paper's full-system runs.
#[derive(Debug, Clone)]
pub struct SyntheticCore {
    params: WorkloadParams,
    core_idx: u64,
    /// Instructions retired so far.
    pub retired: u64,
    /// Target instruction count.
    pub quota: u64,
    /// Remaining cycles of the current compute burst.
    burst_left: u64,
}

impl SyntheticCore {
    /// Creates a core running `bench` for `quota` instructions.
    pub fn new(bench: Benchmark, core_idx: u64, quota: u64) -> Self {
        SyntheticCore {
            params: bench.params(),
            core_idx,
            retired: 0,
            quota,
            burst_left: 0,
        }
    }

    /// `true` once the instruction quota is met.
    pub fn done(&self) -> bool {
        self.retired >= self.quota
    }

    /// Advances one cycle of compute; returns the memory reference to issue
    /// when the current burst ends, or `None` while still computing (or
    /// when done).
    pub fn tick(&mut self, rng: &mut SimRng) -> Option<MemRef> {
        if self.done() {
            return None;
        }
        if self.burst_left > 0 {
            self.burst_left -= 1;
            self.retired += 1;
            return None;
        }
        // End of burst: issue one memory instruction and draw the next
        // burst length (geometric with mean (1-mem_ratio)/mem_ratio).
        self.retired += 1;
        let mean = (1.0 - self.params.mem_ratio) / self.params.mem_ratio;
        let u: f64 = rng.random_f64();
        self.burst_left = (-(1.0 - u).ln() * mean).round() as u64;
        Some(self.gen_ref(rng))
    }

    fn gen_ref(&self, rng: &mut SimRng) -> MemRef {
        let p = &self.params;
        let is_write;
        let addr;
        if rng.random_f64() < p.shared_frac {
            is_write = rng.random_f64() < p.write_frac;
            let hot = rng.random_f64() < p.hot_frac;
            let span = if hot { HOT_BLOCKS } else { p.shared_blocks };
            addr = SHARED_BASE + rng.random_range(0..span);
        } else {
            is_write = rng.random_f64() < p.write_frac;
            let base = (self.core_idx + 1) << 24;
            addr = base + rng.random_range(0..p.private_blocks);
        }
        MemRef { addr, is_write }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_cover_all_eight() {
        assert_eq!(Benchmark::ALL.len(), 8);
        let names: Vec<_> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        assert!(names.contains(&"canneal"));
        for b in Benchmark::ALL {
            let p = b.params();
            assert!(p.mem_ratio > 0.0 && p.mem_ratio < 1.0);
            assert!(p.shared_frac >= 0.0 && p.shared_frac <= 1.0);
            assert!(p.private_blocks > 0);
        }
    }

    #[test]
    fn core_retires_quota_and_stops() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut c = SyntheticCore::new(Benchmark::Swaptions, 0, 1_000);
        let mut refs = 0;
        let mut cycles = 0u64;
        while !c.done() {
            cycles += 1;
            if c.tick(&mut rng).is_some() {
                refs += 1;
            }
            assert!(cycles < 100_000, "must terminate");
        }
        assert_eq!(c.retired, 1_000);
        assert!(c.tick(&mut rng).is_none());
        // Memory ratio roughly honoured.
        let ratio = refs as f64 / 1_000.0;
        assert!((0.1..0.35).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn private_refs_are_core_disjoint() {
        let mut rng = SimRng::seed_from_u64(9);
        let c0 = SyntheticCore::new(Benchmark::Blackscholes, 0, 10);
        let c1 = SyntheticCore::new(Benchmark::Blackscholes, 1, 10);
        for _ in 0..200 {
            let a = c0.gen_ref(&mut rng);
            let b = c1.gen_ref(&mut rng);
            if a.addr < SHARED_BASE && b.addr < SHARED_BASE {
                assert_ne!(a.addr >> 24, b.addr >> 24);
            }
        }
    }

    #[test]
    fn shared_refs_land_in_shared_region() {
        let mut rng = SimRng::seed_from_u64(11);
        let c = SyntheticCore::new(Benchmark::Canneal, 3, 10);
        let span = Benchmark::Canneal.params().shared_blocks;
        let mut saw_shared = false;
        for _ in 0..500 {
            let r = c.gen_ref(&mut rng);
            if r.addr >= SHARED_BASE {
                saw_shared = true;
                assert!(r.addr < SHARED_BASE + span);
            }
        }
        assert!(saw_shared, "canneal must reference shared data");
    }
}
