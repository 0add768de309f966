//! Exhaustive wakeup-protocol model checker with counterexample replay.
//!
//! For small meshes (2x2, 2x3) this crate explores the *entire* joint
//! state space of the power FSMs, BET epochs, punch sideband and the WU
//! handshake — fault-free and under a per-cycle fault alphabet (punch
//! drop/corruption, WU loss, stuck-off epochs) — and either proves three
//! properties or produces a minimal counterexample:
//!
//! * **no-lost-wakeup** — a pending WU handshake always reaches a state
//!   where its target router is on or waking (or the watchdog reports it);
//! * **no-deadlock** — every reachable state can still reach full
//!   delivery or a reported watchdog stall;
//! * **bounded-stall** — no reachable state's stall age exceeds the
//!   configured bound without a report.
//!
//! Counterexamples lower into `punchsim-obs` event streams and replay
//! through the standard JSONL / Chrome-trace exporters, so a protocol bug
//! found by the checker can be inspected in Perfetto exactly like any
//! simulated run. The emitted `VERIFY_<config>.json` artifacts are
//! byte-stable and gated in CI.
//!
//! # Examples
//!
//! Prove the fault-free 2x2 Power Punch scenario:
//!
//! ```
//! use punchsim_types::SchemeKind;
//! use punchsim_verify::{run_verification, VerifyConfig};
//!
//! let cfg = VerifyConfig::mesh2x2(SchemeKind::PowerPunchFull);
//! let outcome = run_verification(&cfg).unwrap();
//! assert!(outcome.exploration.all_proved());
//! ```

#![forbid(unsafe_code)]

pub mod checker;
pub mod replay;
pub mod report;
pub mod scenario;

pub use checker::{
    explore, Counterexample, Exploration, PropertyResult, VerifyError, ViolationKind,
    PROP_BOUNDED_STALL, PROP_NO_DEADLOCK, PROP_NO_LOST_WAKEUP,
};
pub use replay::{replay, Replay};
pub use report::{render_report, SCHEMA};
pub use scenario::{
    build_network, VerifyConfig, ESCALATE_AFTER, MAX_DEPTH, MAX_ROUTERS, MAX_STATES, STALL_BOUND,
    STICK_DURATION, WARMUP,
};

/// One completed verification: the exploration plus the rendered artifact.
#[derive(Debug)]
pub struct VerifyOutcome {
    /// State-space statistics and the three property verdicts.
    pub exploration: Exploration,
    /// The byte-stable `VERIFY_<label>.json` artifact body.
    pub report: String,
}

/// Runs [`explore`] on `cfg` and renders the artifact.
///
/// # Errors
///
/// Those of [`explore`]. A property *violation* is not an error — it is
/// reported in the outcome with a minimal counterexample.
pub fn run_verification(cfg: &VerifyConfig) -> Result<VerifyOutcome, VerifyError> {
    let exploration = explore(cfg)?;
    let report = render_report(cfg, &exploration);
    Ok(VerifyOutcome {
        exploration,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::{FaultChoice, SchemeKind};

    #[test]
    fn clean_2x2_power_punch_proves_all_three() {
        let cfg = VerifyConfig::mesh2x2(SchemeKind::PowerPunchFull);
        let out = run_verification(&cfg).unwrap();
        assert!(out.exploration.all_proved(), "{:?}", out.exploration);
        assert!(out.exploration.terminals > 0);
        assert!(out.exploration.max_stall_age <= STALL_BOUND);
        assert!(out.report.contains("\"verified\": true"));
    }

    #[test]
    fn clean_2x2_conventional_proves_all_three() {
        let cfg = VerifyConfig::mesh2x2(SchemeKind::ConvPg);
        let out = run_verification(&cfg).unwrap();
        assert!(out.exploration.all_proved(), "{:?}", out.exploration);
    }

    #[test]
    fn faulty_2x2_power_punch_proves_under_two_faults() {
        let cfg = VerifyConfig::mesh2x2(SchemeKind::PowerPunchFull).with_faults();
        let out = run_verification(&cfg).unwrap();
        assert!(out.exploration.all_proved(), "{:?}", out.exploration);
        // Fault branching must actually widen the space beyond the single
        // fault-free trajectory.
        assert!(
            out.exploration.reachable > 1_000,
            "{}",
            out.exploration.reachable
        );
        assert!(out.exploration.terminals > 1);
    }

    #[test]
    fn broken_manager_yields_lost_wakeup_counterexample() {
        let cfg = VerifyConfig::mesh2x2(SchemeKind::ConvPg).with_broken_manager();
        let out = run_verification(&cfg).unwrap();
        let lost = &out.exploration.properties[0];
        assert_eq!(lost.name, PROP_NO_LOST_WAKEUP);
        assert!(!lost.proved, "{:?}", out.exploration);
        let ce = lost.counterexample.as_ref().expect("counterexample");
        assert!(ce.ends_in_error);
        assert!(!ce.choices.is_empty());
    }

    /// The disconnected WU input and the armed per-cycle faults live in one
    /// fault layer: branching over the alphabet on top of the standing
    /// `DropWu` must still reach the lost wakeup, at the fault-free depth
    /// (no two faults can reconnect the WU input or wake the path sooner
    /// than BFS finds the all-`none` trace).
    #[test]
    fn broken_and_faulty_in_one_layer_still_finds_the_lost_wakeup() {
        let broken = VerifyConfig::mesh2x2(SchemeKind::ConvPg).with_broken_manager();
        let both = broken.with_faults();
        let alone = run_verification(&broken).unwrap().exploration;
        let out = run_verification(&both).unwrap().exploration;
        assert!(out.reachable > alone.reachable, "faults widen the space");
        let lost = &out.properties[0];
        assert!(!lost.proved, "{out:?}");
        let ce = lost.counterexample.as_ref().expect("counterexample");
        assert_eq!(ce.kind, ViolationKind::LostWakeup);
        assert!(ce.ends_in_error);
        assert_eq!(
            ce.choices.len(),
            alone.first_counterexample().unwrap().choices.len()
        );
        let rep = replay(&both, ce).unwrap();
        assert!(rep.error.is_some(), "replay must reproduce the stall");
    }

    #[test]
    fn broken_counterexample_replays_through_obs() {
        let cfg = VerifyConfig::mesh2x2(SchemeKind::ConvPg).with_broken_manager();
        let out = run_verification(&cfg).unwrap();
        let ce = out
            .exploration
            .first_counterexample()
            .expect("counterexample");
        let rep = replay(&cfg, ce).unwrap();
        assert!(rep.error.is_some(), "replay must reproduce the stall");
        assert!(!rep.events.is_empty());
        assert!(rep.to_jsonl().lines().count() >= rep.events.len());
        assert!(rep.to_chrome_trace().contains("traceEvents"));
    }

    #[test]
    fn reports_are_byte_stable() {
        let cfg = VerifyConfig::mesh2x2(SchemeKind::PowerPunchFull);
        let a = run_verification(&cfg).unwrap().report;
        let b = run_verification(&cfg).unwrap().report;
        assert_eq!(a, b);
    }

    /// `replay` steps the checker's own edge: a choice the replayed manager
    /// cannot honour (a clean scenario has no fault layer) is a typed
    /// error, not a tick without the fault.
    #[test]
    fn replay_rejects_a_choice_the_manager_cannot_honour() {
        let cfg = VerifyConfig::mesh2x2(SchemeKind::PowerPunchFull);
        let ce = Counterexample {
            choices: vec![FaultChoice::None, FaultChoice::DropPunch],
            kind: ViolationKind::LostWakeup,
            detail: String::new(),
            ends_in_error: false,
        };
        assert!(matches!(
            replay(&cfg, &ce),
            Err(VerifyError::ReplayDiverged(_))
        ));
    }

    /// A mesh past `MAX_ROUTERS` is a typed error before anything is built,
    /// not a mask shift overflow (debug) or routers silently left unchecked
    /// (release).
    #[test]
    fn a_6x6_mesh_is_intractable() {
        let cfg = VerifyConfig {
            width: 6,
            height: 6,
            ..VerifyConfig::mesh2x2(SchemeKind::PowerPunchFull)
        };
        let err = run_verification(&cfg).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::Intractable {
                    width: 6,
                    height: 6
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("(got 6x6)"), "{err}");
    }

    #[test]
    fn labels_distinguish_modes() {
        let base = VerifyConfig::mesh2x3(SchemeKind::PowerPunchFull);
        assert_eq!(base.label(), "2x3_ppf_clean");
        assert_eq!(base.with_faults().label(), "2x3_ppf_faulty");
        assert_eq!(base.with_broken_manager().label(), "2x3_ppf_broken");
    }
}
