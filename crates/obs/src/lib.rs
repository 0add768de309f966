//! Cycle-resolved observability for `punchsim`: structured event tracing,
//! flight recording, and trace exporters.
//!
//! The Power Punch argument (HPCA 2015, §4) is a *timing* claim — punches
//! launched `min(H, remaining hops)` ahead plus NI slack hide the wakeup
//! latency — and end-of-run aggregates cannot show whether an individual
//! wakeup actually arrived in time. This crate makes the timeline itself
//! observable:
//!
//! * [`event`] — the [`Event`] taxonomy: power transitions, punch
//!   emit/deliver, WU assertions, NI slack-1/slack-2 firings, BET epochs,
//!   stalls, force-wake escalations, injected faults.
//! * [`sink`] — [`RingSink`], the one event recorder: a ring-buffer flight
//!   recorder whose capacity may be `usize::MAX` to keep the whole run (a
//!   host with tracing off holds no recorder).
//! * [`export`] — JSONL and Chrome trace-event JSON renderers (the
//!   latter loads in `chrome://tracing` / Perfetto with one track per
//!   router and flow arrows for punch signals).
//! * [`json`] — the workspace's shared dependency-free JSON value
//!   (deterministic emission, strict parsing), previously private to the
//!   campaign crate.
//! * [`metrics`] — the typed metric [`metrics::Registry`], log-bucketed
//!   histograms, per-router counter planes, the tick-phase profiler and
//!   the Prometheus/JSON exposition (the former `punchsim-metrics` crate).
//!
//! Only `punchsim-types` sits below this crate, so every layer of the
//! simulator — NoC, power managers, fault injector, CMP, campaign runner —
//! can emit events without dependency cycles.

#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod sink;

pub use event::{Event, FaultKind, PowerTag, Stamped};
pub use export::{chrome_trace, to_jsonl};
pub use json::{Json, JsonError};
pub use sink::RingSink;
