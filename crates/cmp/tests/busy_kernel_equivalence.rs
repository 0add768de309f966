//! The busy-tick kernel and sharded ticking are execution details: a
//! full-system run must produce bit-identical results whether the network
//! ticks on the shipped kernel (SoA bitset sweep, any shard count) or on
//! the reference oracle (per-router struct sweep). The synthetic-traffic
//! differential suite (`tests/soa_differential.rs` at the workspace root)
//! pins this cycle-by-cycle on open-loop traffic; this test pins it end to
//! end through the MESI protocol stack, where injection timing feeds back
//! into core progress and any divergence compounds into different
//! instruction counts.

use punchsim_cmp::{Benchmark, CmpConfig, CmpSim};
use punchsim_types::SchemeKind;

/// `shards: None` runs the reference oracle instead of the shipped kernel.
fn digest(benchmark: Benchmark, scheme: SchemeKind, shards: Option<usize>) -> String {
    let mut cfg = CmpConfig::new(benchmark, scheme);
    cfg.instr_per_core = 500;
    cfg.warmup_instr = 50;
    let mut sim = CmpSim::new(cfg);
    match shards {
        None => sim.network_mut().use_reference_kernel(),
        Some(n) => sim
            .network_mut()
            .set_shards(n)
            .expect("8 rows accommodate the test's shard counts"),
    }
    let r = sim.run();
    // The full Debug rendering covers every report field, float bits and
    // all — any divergence anywhere shows up as a string mismatch.
    format!("{r:?}")
}

#[test]
fn full_system_runs_are_identical_across_busy_kernels_and_shards() {
    for (benchmark, scheme) in [
        (Benchmark::Canneal, SchemeKind::PowerPunchFull),
        (Benchmark::Blackscholes, SchemeKind::ConvOptPg),
    ] {
        let reference = digest(benchmark, scheme, None);
        for shards in [1, 2, 4] {
            assert_eq!(
                reference,
                digest(benchmark, scheme, Some(shards)),
                "{benchmark:?}/{scheme:?} diverged from the oracle at {shards} shard(s)"
            );
        }
    }
}
