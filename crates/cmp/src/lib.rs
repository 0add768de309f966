//! A 64-core CMP substrate for `punchsim`: synthetic cores, private L1s, a
//! shared distributed L2 with a blocking MESI directory, and corner memory
//! controllers — all communicating over the `punchsim-noc` mesh. This is
//! the stand-in for the paper's gem5 + PARSEC full-system platform (the
//! substitution is documented in DESIGN.md).
//!
//! * [`protocol`] — MESI message opcodes, vnet mapping, wire encoding
//! * [`cache`] — generic set-associative tag arrays (L1 and L2)
//! * [`tile`] — the private L1 controller (with the writeback-race buffer)
//! * [`dir`] — the blocking full-map directory + L2 bank
//! * [`mem`] — fixed-latency memory controllers at the mesh corners
//! * [`benchmark`] — the eight PARSEC-like workload presets
//! * [`sim`] — the full-system simulator producing execution time
//!
//! # Examples
//!
//! ```no_run
//! use punchsim_cmp::{Benchmark, CmpConfig, CmpSim};
//! use punchsim_types::SchemeKind;
//!
//! let cfg = CmpConfig::new(Benchmark::Canneal, SchemeKind::PowerPunchFull);
//! let report = CmpSim::new(cfg).run();
//! println!(
//!     "canneal under PowerPunch-PG: {} cycles, latency {:.1}",
//!     report.exec_cycles,
//!     report.net.avg_packet_latency()
//! );
//! ```

#![forbid(unsafe_code)]

pub mod benchmark;
pub mod cache;
pub mod dir;
pub mod mem;
pub mod protocol;
pub mod sim;
pub mod tile;

pub use benchmark::{Benchmark, SyntheticCore, WorkloadParams};
pub use cache::Residency;
pub use dir::{DirBank, DirState};
pub use mem::MemCtrl;
pub use protocol::{BlockAddr, Op, ProtoMsg};
pub use sim::{CmpConfig, CmpReport, CmpSim};
pub use tile::{L1State, L1};
