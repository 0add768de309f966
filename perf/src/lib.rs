//! The committed performance benchmark for `punchsim` (see `README.md`).
//!
//! Everything here measures the simulator from outside: timed calls into
//! public functions, and the shipped `PhaseProfiler` read through
//! `Network::enable_profiler()/take_profiler()`. The library holds what
//! the end-to-end runner needs and stays on the narrow, stable surface
//! (`SyntheticSim`, `CmpSim`, `PowerModel`, `Runner`/`Store`/`RunSpec`,
//! `Json`, `Network::{set_shards,enable_profiler,take_profiler,report}`);
//! probes of internals live in `src/bin/perf_probe.rs`, which builds
//! separately so a changed internal signature cannot take the end-to-end
//! numbers down with it.

pub mod catalog;
pub mod rep;
pub mod run;
pub mod span;
pub mod suite;
pub mod util;
pub mod workloads;
