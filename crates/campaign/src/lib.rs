//! # punchsim-campaign
//!
//! The parallel campaign layer: describe a set of simulation runs as
//! declarative [`RunSpec`]s (scheme × workload × config × seed), execute
//! them on a scoped worker pool with per-run panic isolation and an
//! incremental content-hashed result [`Store`], and emit schema-versioned
//! `BENCH_<name>.json` artifacts that the CLI and CI's perf-regression gate
//! consume.
//!
//! The paper's evaluation (Figures 7–13, Table 1) is an 8-benchmark ×
//! 4-scheme full-system campaign plus synthetic sweeps; [`SUITES`] is the
//! one table that says which runs each named suite is, and [`Size`] how
//! long they are. Every run is independent, so the campaign is
//! embarrassingly parallel; the runner keeps result *ordering*
//! deterministic regardless of worker count, which keeps the artifacts
//! byte-identical between `--threads 1` and `--threads N` (pinned by
//! `tests/determinism.rs`).
//!
//! Everything here is dependency-free by construction: JSON emission and
//! parsing, the FNV-1a/SplitMix64 content hash, and the thread pool are
//! hand-rolled on `std`, like `SimRng` before them.
//!
//! # Quickstart
//!
//! ```
//! use punchsim_campaign::{Runner, Size, DEFAULT_SEED, SYNTH};
//!
//! let specs = SYNTH.specs(DEFAULT_SEED, Size::Smoke);
//! let runner = Runner { threads: 2, ..Runner::default() };
//! let outcomes = runner.run(&specs[..2]);
//! assert!(outcomes.iter().all(|o| o.record().is_some()));
//! ```

#![forbid(unsafe_code)]

pub mod compare;
pub mod hash;
pub mod report;
pub mod runner;
pub mod series;
pub mod spec;
pub mod store;
pub mod suites;

/// The shared JSON value now lives in `punchsim-obs`; re-exported here so
/// existing `punchsim_campaign::json::Json` paths keep working.
pub use punchsim_obs::json;

pub use compare::{compare, Comparison, Deviation, Tolerances};
pub use json::{Json, JsonError};
pub use report::{CampaignReport, TIMING_SCHEMA_VERSION};
pub use runner::{Outcome, RunError, RunErrorKind, RunRecord, Runner};
pub use series::{IntervalRow, IntervalSeries};
pub use spec::{Metrics, ObserveOpts, RunSpec, Workload, SCHEMA_VERSION};
pub use store::Store;
pub use suites::{suite, Size, Suite, DEFAULT_SEED, PARSEC, SUITES, SYNTH};
