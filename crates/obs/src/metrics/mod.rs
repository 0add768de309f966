//! Typed metrics for punchsim: registry, log-bucketed histograms,
//! per-router counter planes, a tick-phase wall-time profiler, and two
//! exposition formats (Prometheus text and a JSON snapshot merged into
//! the campaign `.timing.json` sidecars).
//!
//! # Zero-overhead contract
//!
//! Like the event sinks of [`crate::sink`], metrics *observe* the
//! simulation and never steer it. The network-side hooks are `Option`-gated so the disabled
//! path costs one well-predicted branch per tick, and everything a
//! registry exports is either deterministic (counters, histograms of
//! cycle values) or explicitly quarantined to the nondeterministic
//! timing sidecar (wall-time phase attribution). Enabling metrics must
//! leave every `BENCH_*.json` artifact byte-identical — CI pins this via
//! the `ci-metered` row of `scripts/identity_gate.sh`.

mod expo;
mod hist;
mod profile;
mod registry;

pub use expo::{validate_exposition, ExpoStats};
pub use hist::{LogHistogram, BUCKETS, SUB_BITS};
pub use profile::{Phase, PhaseProfiler};
pub use registry::{Plane, Registry};
