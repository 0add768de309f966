//! The cheap 2x2 exhaustive-verification rows, rendered through the
//! library and compared byte for byte with their checked-in
//! `bench/VERIFY_*.json` artifacts (the same files the `verify-*` rows of
//! `scripts/identity_gate.sh` pin through the CLI).

use punchsim::types::SchemeKind;
use punchsim::verify::{run_verification, VerifyConfig};

fn reproduces(cfg: VerifyConfig) {
    let path = format!(
        "{}/bench/VERIFY_{}.json",
        env!("CARGO_MANIFEST_DIR"),
        cfg.label()
    );
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let got = run_verification(&cfg).unwrap().report;
    assert!(got == want, "{path} drifted; rendered:\n{got}");
}

#[test]
fn ppf_clean_2x2() {
    reproduces(VerifyConfig::mesh2x2(SchemeKind::PowerPunchFull));
}

#[test]
fn conv_clean_2x2() {
    reproduces(VerifyConfig::mesh2x2(SchemeKind::ConvPg));
}

#[test]
fn nopg_clean_2x2() {
    reproduces(VerifyConfig::mesh2x2(SchemeKind::NoPg));
}

#[test]
fn convopt_clean_2x2() {
    reproduces(VerifyConfig::mesh2x2(SchemeKind::ConvOptPg));
}

#[test]
fn pps_clean_2x2() {
    reproduces(VerifyConfig::mesh2x2(SchemeKind::PowerPunchSignal));
}

#[test]
fn ppf_faulty_2x2() {
    reproduces(VerifyConfig::mesh2x2(SchemeKind::PowerPunchFull).with_faults());
}

#[test]
fn conv_broken_2x2() {
    reproduces(VerifyConfig::mesh2x2(SchemeKind::ConvPg).with_broken_manager());
}
