//! Router energy and area models for `punchsim`.
//!
//! The paper obtains router power from DSENT at 45 nm. We reproduce an
//! analytical model of the same structure — per-component static power,
//! per-event dynamic energy, and power-gating overhead anchored to the
//! break-even time — calibrated to the paper's two observable anchors:
//!
//! * router static power is ~64% of total router power at PARSEC-average
//!   load (§2.1);
//! * total 8x8-mesh router static power is ≈ 1.8 W (Figure 12, bottom row).
//!
//! All energy results in the paper are *ratios* against the same model's
//! `No-PG` baseline, so any internally consistent calibration that matches
//! the anchors reproduces the reported savings; see DESIGN.md.

#![forbid(unsafe_code)]

pub mod area;
pub mod model;

pub use area::AreaModel;
pub use model::{EnergyBreakdown, PowerModel};
