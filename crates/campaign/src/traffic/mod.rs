//! Synthetic traffic generation: the workload of every synthetic
//! [`RunSpec`](crate::RunSpec).
//!
//! Provides the traffic patterns of §6.4 of the Power Punch paper (uniform
//! random, transpose, bit-complement, plus the usual extras) and an
//! open-loop Bernoulli injection harness, [`SyntheticSim`], that drives a
//! network under any power-gating scheme across the full load range.
//!
//! # Examples
//!
//! ```
//! use punchsim_campaign::traffic::{SyntheticSim, TrafficPattern};
//! use punchsim_types::{Mesh, SchemeKind, SimConfig};
//!
//! let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
//! cfg.noc.topology = Mesh::new(4, 4).into();
//! let mut sim = SyntheticSim::new(cfg, TrafficPattern::Transpose, 0.03);
//! let report = sim.run_experiment(1_000, 4_000).unwrap();
//! assert!(report.stats.packets_delivered > 0);
//! ```

pub mod pattern;
pub mod sim;

pub use pattern::TrafficPattern;
pub use sim::{InjectionConfig, SyntheticSim};
