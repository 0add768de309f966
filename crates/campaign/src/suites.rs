//! What runs: [`SUITES`], the one definition of every campaign suite, and
//! [`Size`], how long its runs are.
//!
//! The paper's evaluation is a fixed grid — eight PARSEC presets × four
//! schemes for Figures 7–11, pattern × load sweeps for Figures 12–13 — so a
//! suite is a row of data, and [`Suite::specs`] is the one function that
//! expands a row into its [`RunSpec`] list.

use crate::traffic::TrafficPattern::{self, Transpose, UniformRandom};
use punchsim_cmp::Benchmark;
use punchsim_types::RoutingKind::{self, Xy, Yx};
use punchsim_types::SchemeKind::{self, *};
use punchsim_types::{Mesh, Torus};

use crate::spec::{RunSpec, Workload};

/// The default seed, matching `SimConfig::default().seed` so campaign
/// results line up with ad-hoc CLI runs of the same configuration.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// How long a suite's runs are: paper scale, or the shortened lengths every
/// `bench/` baseline is recorded at. An argument (the CLI's `--smoke`),
/// never ambient: nothing in this crate reads the environment for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One row of [`SUITES`]: a named spec list as data — substrates ×
/// patterns × rates × schemes of synthetic traffic unless `kind` says
/// otherwise. Rows spell only what differs from `POINT`.
pub struct Suite {
    /// The CLI's `--suite` name.
    pub name: &'static str,
    /// One line for the usage text.
    pub help: &'static str,
    kind: Kind,
    /// `(wraps, width, height, routing)`: a torus or a mesh (`Mesh::new`
    /// validates, so the substrate itself cannot sit in a `const`).
    substrates: &'static [(bool, u16, u16, RoutingKind)],
    patterns: &'static [TrafficPattern],
    /// Flits/node/cycle.
    rates: &'static [f64],
    schemes: &'static [SchemeKind],
    /// `[full, smoke]` measured cycles (`Parsec`: instructions per core),
    /// after `measure / warmup_div` more to warm up.
    measure: [u64; 2],
    warmup_div: u64,
}

enum Kind {
    Grid,
    /// Closed loop: `Benchmark::ALL` × schemes; the other axes are unread.
    Parsec,
    /// The spec lists of other rows, one after the other; nothing else read.
    Concat(&'static [&'static Suite]),
}

/// The CLI's default operating point: uniform-random traffic at the
/// PARSEC-average load on the 8x8 XY mesh under every evaluated scheme.
const POINT: Suite = Suite {
    name: "",
    help: "",
    kind: Kind::Grid,
    substrates: &[(false, 8, 8, Xy)],
    patterns: &[UniformRandom],
    rates: &[0.005],
    schemes: &SchemeKind::EVALUATED,
    measure: [20_000, 6_000],
    warmup_div: 4,
};

/// Figures 7–11; `figure`'s six PARSEC rows share one pass over it.
pub const PARSEC: Suite = Suite {
    name: "parsec",
    help: "closed-loop PARSEC-like CMP runs",
    kind: Kind::Parsec,
    measure: [80_000, 20_000],
    warmup_div: 10,
    ..POINT
};

/// Every parameter-free pattern at `POINT`; `figure`'s synthetic rows run
/// for this suite's [`Suite::window`].
pub const SYNTH: Suite = Suite {
    name: "synth",
    help: "synthetic traffic sweeps",
    patterns: &TrafficPattern::SYNTHETIC,
    ..POINT
};

/// **The** definition of every suite: `--suite` validation, the usage text,
/// the `unknown suite` message and `figure` all read this table.
pub const SUITES: &[Suite] = &[
    PARSEC,
    SYNTH,
    // `bench/baseline.json` is this suite at `Size::Smoke`.
    Suite {
        name: "ci",
        help: "parsec + synth",
        kind: Kind::Concat(&[&PARSEC, &SYNTH]),
        ..POINT
    },
    // A mostly-gated fabric, the regime fast-forward exists for; the
    // window must dwarf set-up. `perf/`'s `idle8_ppf` row tracks its speed,
    // and `bench/baseline_fastpath.json` (an identity-gate row) is this
    // suite at `Size::Smoke`.
    Suite {
        name: "fastpath",
        help: "idle-dominated runs",
        rates: &[0.00005],
        measure: [10_000_000, 2_000_000],
        warmup_div: 8,
        ..POINT
    },
    // The derived (not hand-coded) codebooks end to end; EXPERIMENTS.md's
    // torus-vs-mesh recipe.
    Suite {
        name: "substrate",
        help: "torus / YX sweep",
        substrates: &[(true, 8, 8, Xy), (false, 8, 8, Yx)],
        patterns: &[UniformRandom, Transpose],
        ..POINT
    },
    // Never quiescent (mesh-wide a packet every ~2 cycles at 32x32) yet few
    // routers busy on any one cycle: the coherence-traffic shape the SoA
    // sweep exists for; `perf/`'s `sparse32_*`. `bench/baseline_busy.json`
    // is this suite at `Size::Smoke`.
    Suite {
        name: "busy",
        help: "large-mesh busy-regime scalability runs",
        substrates: &[(false, 16, 16, Xy), (false, 32, 32, Xy)],
        rates: &[0.0005],
        schemes: &[NoPg, ConvOptPg, PowerPunchFull],
        measure: [40_000, 12_000],
        warmup_div: 8,
        ..POINT
    },
    // `bench/baseline_schemes.json` is this suite at `Size::Smoke`: adding
    // a scheme must not move a bit of the paper's five.
    Suite {
        name: "schemes",
        help: "one run per paper scheme (the identity_gate.sh baseline)",
        schemes: &[NoPg, ConvPg, ConvOptPg, PowerPunchSignal, PowerPunchFull],
        ..POINT
    },
];

/// Looks a suite up by its `--suite` name.
pub fn suite(name: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|s| s.name == name)
}

impl Suite {
    /// `(warm-up, measured)` length of the row's own runs at `size`.
    pub fn window(&self, size: Size) -> (u64, u64) {
        let measure = self.measure[size as usize];
        (measure / self.warmup_div, measure)
    }

    /// The spec list in artifact order: substrate → pattern → rate (or
    /// benchmark) → scheme.
    pub fn specs(&self, seed: u64, size: Size) -> Vec<RunSpec> {
        let (warmup, measure) = self.window(size);
        let mut workloads = Vec::new();
        match self.kind {
            Kind::Concat(rows) => return rows.iter().flat_map(|s| s.specs(seed, size)).collect(),
            Kind::Parsec => workloads.extend(Benchmark::ALL.map(|benchmark| Workload::Parsec {
                benchmark,
                instr_per_core: measure,
                warmup_instr: warmup,
            })),
            Kind::Grid => {
                for &(wraps, w, h, routing) in self.substrates {
                    let topo = if wraps {
                        Torus::new(w, h).into()
                    } else {
                        Mesh::new(w, h).into()
                    };
                    for &pattern in self.patterns {
                        workloads.extend(self.rates.iter().map(|&rate| Workload::Synthetic {
                            pattern,
                            topo,
                            routing,
                            rate,
                            warmup_cycles: warmup,
                            measure_cycles: measure,
                        }));
                    }
                }
            }
        }
        let under = |workload| {
            let spec = move |&scheme| RunSpec {
                scheme,
                seed,
                workload: Workload::clone(workload),
            };
            self.schemes.iter().map(spec)
        };
        workloads.iter().flat_map(under).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Fnv64;

    /// `(name, [full, smoke] × (len, Fnv64 over every spec's id and
    /// content hash))` at [`DEFAULT_SEED`], recorded from the eight
    /// hand-unrolled builders this table replaced: the spec lists behind
    /// every `bench/` baseline and store entry. Nothing else pins
    /// `fastpath`, `busy` or any full size.
    const RECORDED: [(&str, [(usize, u64); 2]); 7] = [
        (
            "parsec",
            [(32, 0xeb4fa2cbe74fae3a), (32, 0xfcc3fd84937b5b47)],
        ),
        (
            "synth",
            [(28, 0x0ee43c43452c7139), (28, 0x75256b9cec6a5d0c)],
        ),
        ("ci", [(60, 0x5661c342cccd691e), (60, 0xb204d02b395d9c7f)]),
        (
            "fastpath",
            [(4, 0x4e5a75a011fd532c), (4, 0x1f096f7b022c3e02)],
        ),
        (
            "substrate",
            [(16, 0xecb1693379a067ce), (16, 0x74dcbc86e82773d7)],
        ),
        ("busy", [(6, 0xaafa3cd11731c888), (6, 0x742b1fa2abcb0ba2)]),
        (
            "schemes",
            [(5, 0xe375a2b9e3244721), (5, 0x57a39eb943ede4c3)],
        ),
    ];

    fn ids(specs: &[RunSpec]) -> Vec<String> {
        specs.iter().map(RunSpec::id).collect()
    }

    #[test]
    fn suites_have_expected_shapes() {
        assert_eq!(SUITES.len(), RECORDED.len());
        for (row, (name, recorded)) in SUITES.iter().zip(RECORDED) {
            assert_eq!(row.name, name, "table order");
            assert_eq!(suite(name).unwrap().name, name);
            for (size, want) in [Size::Full, Size::Smoke].into_iter().zip(recorded) {
                let specs = row.specs(DEFAULT_SEED, size);
                let mut h = Fnv64::new();
                for s in &specs {
                    h.write_str(&s.id()).write_u64(s.content_hash());
                }
                assert_eq!((specs.len(), h.finish()), want, "{name} at {size:?}");
                // Ids are the artifact keys: unique within a suite.
                let mut unique = ids(&specs);
                unique.sort();
                unique.dedup();
                assert_eq!(unique.len(), specs.len(), "{name} at {size:?}");
            }
        }
        let specs = |name: &str| suite(name).unwrap().specs(9, Size::Smoke);
        let synthetic = |s: &RunSpec| match s.workload {
            Workload::Synthetic { rate, topo, .. } => (rate, topo.nodes() as f64),
            Workload::Parsec { .. } => panic!("{} must be synthetic", s.id()),
        };
        assert_eq!(specs("ci"), [specs("parsec"), specs("synth")].concat());
        // Every id names its substrate: no two substrates collide.
        let substrate = ids(&specs("substrate"));
        for tag in ["/torus8x8/", "/8x8-yx/"] {
            assert!(substrate.iter().any(|i| i.contains(tag)), "{tag}");
        }
        for s in &specs("fastpath") {
            assert!(synthetic(s).0 < 0.001, "fastpath runs are idle-dominated");
        }
        let busy = specs("busy");
        assert!(ids(&busy).iter().any(|i| i.contains("16x16")));
        assert!(ids(&busy).iter().any(|i| i.contains("32x32")));
        for s in &busy {
            // Aggregate arrivals/cycle, not per-node rate, is what keeps a
            // mesh busy: the inter-arrival gap must sit well inside packet
            // latency so the network never goes quiescent.
            let (rate, nodes) = synthetic(s);
            assert!(rate * nodes >= 0.1, "busy runs keep packets in flight");
        }
    }

    #[test]
    fn suite_hashes_depend_on_seed() {
        let ci = suite("ci").unwrap();
        let hashes = |seed| -> Vec<u64> {
            let specs = ci.specs(seed, Size::Smoke);
            specs.iter().map(RunSpec::content_hash).collect()
        };
        assert!(hashes(1).iter().zip(hashes(2)).all(|(x, y)| *x != y));
    }
}
