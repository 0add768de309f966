//! # punchsim
//!
//! A from-scratch, cycle-accurate network-on-chip simulator reproducing
//! *Power Punch: Towards Non-blocking Power-gating of NoC Routers*
//! (Chen, Zhu, Pedram, Pinkston — HPCA 2015).
//!
//! This facade crate re-exports the seven workspace crates (and, under their
//! old crate-level names, the four modules that used to be crates):
//!
//! * [`types`] — mesh geometry, XY routing, configuration (Table 2)
//! * [`noc`] — the cycle-accurate router/network substrate
//! * [`core`] — the paper's contribution: power-gating controllers and the
//!   Power Punch punch-signal fabric and codebook (Table 1)
//!   * [`faults`] (`core::faults`) — deterministic fault injection for the
//!     power-gating machinery (punch drops/corruption, stuck-off routers)
//! * [`obs`] — cycle-resolved observability: structured event tracing,
//!   flight recording, and JSONL/Chrome-trace exporters (load the latter
//!   in Perfetto)
//!   * [`metrics`] (`obs::metrics`) — typed metric registry, log-bucketed
//!     latency histograms, per-router counter planes, tick-phase profiler,
//!     and Prometheus/JSON exposition
//! * [`cmp`] — MESI-directory CMP substrate standing in for gem5+PARSEC
//! * [`campaign`] — parallel campaign runner, content-hashed result store
//!   and machine-readable `BENCH_*.json` artifacts (the CI perf gate);
//!   `campaign::SUITES` is the one table of what each suite runs
//!   * [`traffic`] (`campaign::traffic`) — synthetic traffic patterns and
//!     injection processes
//!   * [`power`] (`campaign::power`) — DSENT-like router energy model and
//!     accounting
//! * [`verify`] — exhaustive wakeup-protocol model checker with
//!   counterexample replay
//!
//! # Quickstart
//!
//! ```
//! use punchsim::prelude::*;
//!
//! let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
//! cfg.noc.topology = Mesh::new(4, 4).into();
//! let mut sim = SyntheticSim::new(
//!     cfg,
//!     TrafficPattern::UniformRandom,
//!     0.02, // flits/node/cycle
//! );
//! sim.run(5_000).unwrap();
//! let report = sim.report();
//! assert!(report.stats.packets_delivered > 0);
//! ```

#![forbid(unsafe_code)]

pub use punchsim_campaign as campaign;
pub use punchsim_campaign::power;
pub use punchsim_campaign::traffic;
pub use punchsim_cmp as cmp;
pub use punchsim_core as core;
pub use punchsim_core::faults;
pub use punchsim_noc as noc;
pub use punchsim_obs as obs;
pub use punchsim_obs::metrics;
pub use punchsim_types as types;
pub use punchsim_verify as verify;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use punchsim_campaign::power::{EnergyBreakdown, PowerModel};
    pub use punchsim_campaign::traffic::{SyntheticSim, TrafficPattern};
    pub use punchsim_campaign::{
        CampaignReport, Metrics, ObserveOpts, Outcome, RunRecord, RunSpec, Runner, Store, Workload,
    };
    pub use punchsim_cmp::{Benchmark, CmpConfig, CmpReport, CmpSim};
    pub use punchsim_core::build_power_manager;
    pub use punchsim_core::faults::{FaultInjector, FaultStats};
    pub use punchsim_noc::{Network, NetworkReport, PowerManager};
    pub use punchsim_obs::metrics::{LogHistogram, Phase, PhaseProfiler, Plane, Registry};
    pub use punchsim_obs::{Event, RingSink, Stamped};
    pub use punchsim_types::{
        ConfigError, Cycle, Direction, FaultConfig, Mesh, NocConfig, NodeId, PacketId, Port,
        PowerConfig, RouteView, RoutingKind, SchemeKind, SimConfig, SimError, SimRng, StallReport,
        StuckEpoch, Substrate, Torus, VnetId, WatchdogConfig,
    };
    pub use punchsim_verify::{run_verification, VerifyConfig, VerifyOutcome};
}
