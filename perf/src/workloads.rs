//! The six fixed workloads. Window sizes are the ISSUE's numbers scaled by
//! one common factor (0.5) so a repetition takes 1.1–1.5 s on the 2-core
//! reference box and seven of them fit the 10 s measuring budget.

use punchsim::prelude::{Benchmark, SchemeKind};

/// What one repetition simulates.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Open-loop Bernoulli uniform-random traffic on a `w`x`h` mesh.
    Synth {
        w: u16,
        h: u16,
        /// Offered load, flits/node/cycle.
        rate: f64,
        warmup: u64,
        measure: u64,
    },
    /// Closed-loop full-system run: cores stall on their misses.
    Cmp {
        benchmark: Benchmark,
        instr: u64,
        warmup_instr: u64,
    },
    /// The campaign layer over the fixed spec list in `rep::campaign_specs`.
    Campaign,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub scheme: SchemeKind,
    /// Whether the traced run adds a `set_shards(2)` pass (rows where the
    /// SoA phase A does enough work for sharding to be defined).
    pub shard_pass: bool,
    /// Whether the traced run adds a pass with a `RingSink` attached (the
    /// ROADMAP's <=3% observation contract is stated on this row).
    pub sink_pass: bool,
    /// Mesh and load the layer probes replay for this workload:
    /// `(w, h, flits/node/cycle)`.
    pub probe: (u16, u16, f64),
}

/// Every workload, in reporting order. The one-line *why* of each lives
/// in `BENCHMARK.json` and `README.md`.
pub const ALL: [Workload; 6] = [
    Workload {
        name: "cmp8_canneal",
        kind: Kind::Cmp {
            benchmark: Benchmark::Canneal,
            instr: 4_000,
            warmup_instr: 400,
        },
        scheme: SchemeKind::PowerPunchFull,
        shard_pass: false,
        sink_pass: false,
        probe: (8, 8, 0.02),
    },
    Workload {
        name: "idle8_ppf",
        kind: Kind::Synth {
            w: 8,
            h: 8,
            rate: 5e-5,
            warmup: 1_000_000,
            measure: 10_000_000,
        },
        scheme: SchemeKind::PowerPunchFull,
        shard_pass: false,
        sink_pass: false,
        probe: (8, 8, 5e-5),
    },
    Workload {
        name: "sparse32_ppf",
        kind: Kind::Synth {
            w: 32,
            h: 32,
            rate: 5e-4,
            warmup: 2_500,
            measure: 20_000,
        },
        scheme: SchemeKind::PowerPunchFull,
        shard_pass: true,
        sink_pass: true,
        probe: (32, 32, 5e-4),
    },
    Workload {
        name: "sparse32_convopt",
        kind: Kind::Synth {
            w: 32,
            h: 32,
            rate: 5e-4,
            warmup: 2_500,
            measure: 20_000,
        },
        scheme: SchemeKind::ConvOptPg,
        shard_pass: true,
        sink_pass: false,
        probe: (32, 32, 5e-4),
    },
    Workload {
        name: "dense16_nopg",
        kind: Kind::Synth {
            w: 16,
            h: 16,
            rate: 0.08,
            warmup: 500,
            measure: 3_000,
        },
        scheme: SchemeKind::NoPg,
        shard_pass: true,
        sink_pass: false,
        probe: (16, 16, 0.08),
    },
    Workload {
        name: "campaign_mixed",
        kind: Kind::Campaign,
        scheme: SchemeKind::PowerPunchFull,
        shard_pass: false,
        sink_pass: false,
        probe: (8, 8, 0.005),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
