//! Router energy and area models for `punchsim`.
//!
//! The paper obtains router power from DSENT at 45 nm. We reproduce an
//! analytical model of the same structure — per-component static power,
//! per-event dynamic energy, and power-gating overhead anchored to the
//! break-even time — calibrated to the paper's two observable anchors:
//!
//! * router static power is ~64% of total router power (§2.1) — pinned by
//!   `static_share_near_64pct_at_parsec_load` at 0.05 flits/node/cycle.
//!   The campaign suites and `figure` rows run ten times lower, at 0.005,
//!   where the share measures 92.7% (`figure disc_motivation`);
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
