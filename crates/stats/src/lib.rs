//! Statistics primitives and plain-text table rendering for `punchsim`.
//!
//! The figure harnesses in `punchsim-bench` print each paper table/figure as
//! an aligned text table or CSV; the building blocks live here so library
//! users can collect the same statistics programmatically.
//!
//! # Examples
//!
//! ```
//! use punchsim_stats::RunningStats;
//!
//! let mut lat = RunningStats::new();
//! for v in [10.0, 12.0, 14.0] {
//!     lat.record(v);
//! }
//! assert_eq!(lat.mean(), 12.0);
//! assert_eq!(lat.count(), 3);
//! ```

#![forbid(unsafe_code)]

pub mod running;
pub mod table;

pub use running::RunningStats;
pub use table::Table;
