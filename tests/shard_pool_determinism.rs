//! Determinism battery for the persistent shard worker pool.
//!
//! The pool is an *execution* detail: sharded phase A runs on long-lived
//! parked workers, but the record-then-commit order is that of the serial
//! tick, so every observable — the bit-exact [`NetworkReport`] digest
//! (latency histogram percentiles included),
//! [`punchsim::noc::PgCounters`], per-router power states — must be
//! byte-identical to the reference oracle across shard counts, across
//! mid-run shard resizes (pool teardown/re-create), and across pool
//! lifetimes. The battery also pins the thread-accounting contract
//! (creations bounded by the shard count, never per tick) and the typed
//! worker-panic error path (a panicking shard surfaces as
//! [`SimError::ShardPanic`], never a hang, and the pool survives it).

use punchsim::prelude::*;

/// Exact digest of a report: every field of [`NetworkReport`] (f64 Debug
/// formatting round-trips, so string equality is bit equality).
fn digest(r: &NetworkReport) -> String {
    format!("{r:?}")
}

/// `shards: None` builds the reference oracle (struct sweep, no worker
/// threads of any kind), `Some(n)` the shipped kernel on `n` shards.
fn build(cfg: &SimConfig, rate: f64, shards: Option<usize>) -> SyntheticSim {
    let mut sim = SyntheticSim::new(cfg.clone(), TrafficPattern::UniformRandom, rate);
    let net = sim.network_mut();
    match shards {
        None => net.use_reference_kernel(),
        Some(n) => net.set_shards(n).expect("valid shard count"),
    }
    sim
}

fn assert_same_state(label: &str, at: u64, a: &SyntheticSim, b: &SyntheticSim) {
    let (an, bn) = (a.network(), b.network());
    assert_eq!(an.cycle(), bn.cycle(), "{label}: clock diverged at {at}");
    for r in 0..an.topology().nodes() {
        let node = NodeId(r as u16);
        assert_eq!(
            an.power_state(node),
            bn.power_state(node),
            "{label} cycle {at}: power state of router {r} diverged"
        );
    }
    let (ar, br) = (an.report(), bn.report());
    assert_eq!(ar.pg, br.pg, "{label} cycle {at}: PgCounters diverged");
    assert_eq!(
        digest(&ar),
        digest(&br),
        "{label} cycle {at}: NetworkReport diverged"
    );
}

/// Runs `cfg` on the oracle and on the shipped kernel at every count in
/// `shard_counts`, in lock-step: 200 warm-up cycles, a stats reset, then
/// 600 measured cycles checkpointed against the oracle every 200. Returns
/// the oracle's final report.
fn check_against_oracle(
    name: &str,
    cfg: &SimConfig,
    rate: f64,
    shard_counts: &[usize],
) -> NetworkReport {
    let mut reference = build(cfg, rate, None);
    let mut subjects: Vec<(String, SyntheticSim)> = shard_counts
        .iter()
        .map(|&n| (format!("{name} x{n}"), build(cfg, rate, Some(n))))
        .collect();
    let (warmup, measure, chunk) = (200u64, 600u64, 200u64);
    reference.run(warmup).unwrap();
    reference.network_mut().reset_stats();
    for (label, s) in &mut subjects {
        s.run(warmup).unwrap();
        s.network_mut().reset_stats();
        assert_same_state(label, warmup, s, &reference);
    }
    let mut at = warmup;
    for _ in 0..(measure / chunk) {
        reference.run(chunk).unwrap();
        at += chunk;
        for (label, s) in &mut subjects {
            s.run(chunk).unwrap();
            assert_same_state(label, at, s, &reference);
        }
    }
    reference.report()
}

/// The full matrix: shards {1,2,4,7} on mesh and torus under both gating
/// schemes, checkpointed against the oracle every 200 cycles.
#[test]
fn pooled_execution_is_bit_exact_across_the_matrix() {
    let substrates: [(&str, Substrate); 2] = [
        ("mesh8x8", Mesh::new(8, 8).into()),
        ("torus8x8", Substrate::Torus(Torus::new(8, 8))),
    ];
    let schemes = [SchemeKind::ConvOptPg, SchemeKind::PowerPunchFull];
    for (si, &(name, topo)) in substrates.iter().enumerate() {
        for (ki, &scheme) in schemes.iter().enumerate() {
            let mut cfg = SimConfig::with_scheme(scheme);
            cfg.noc.topology = topo;
            cfg.seed = 0xB007 + (si * 2 + ki) as u64;
            check_against_oracle(&format!("{name}/{scheme:?}"), &cfg, 0.02, &[1, 2, 4, 7]);
        }
    }
}

/// Faults x shards: under a fault profile every shard — pool workers
/// included — reads the `FaultInjector` wrapper's *masked* power state
/// (`Off` while a stuck epoch is armed) concurrently, straight from the
/// manager. Lossy sideband, jittered wakeups and stuck sleep gates must
/// leave the run bit-identical to the oracle at every shard count, and the
/// row must actually reach the masked path: at least one stuck epoch arms
/// and the watchdog escalates inside the measured window.
#[test]
fn faulted_pooled_execution_is_bit_exact() {
    for (ki, scheme) in [SchemeKind::ConvOptPg, SchemeKind::PowerPunchFull]
        .into_iter()
        .enumerate()
    {
        let mut cfg = SimConfig::with_scheme(scheme);
        cfg.noc.topology = Mesh::new(8, 8).into();
        cfg.seed = 0xFA17 + ki as u64;
        cfg.faults = FaultConfig {
            seed: 0x5EED + ki as u64,
            drop_punch_ppm: FaultConfig::ppm(0.2),
            drop_wu_ppm: FaultConfig::ppm(0.1),
            max_wakeup_jitter: 3,
            // Central routers in different row bands, arming after the
            // warm-up reset and outliving the run unless force-woken.
            stuck_epochs: [19u16, 28, 35, 44]
                .into_iter()
                .map(|r| StuckEpoch {
                    router: NodeId(r),
                    start: 210,
                    duration: 10_000,
                })
                .collect(),
            ..FaultConfig::default()
        };
        let pg = check_against_oracle(&format!("faulted/{scheme:?}"), &cfg, 0.02, &[1, 2, 4]).pg;
        assert!(
            pg.escalations > 0 && pg.faults_injected > 0,
            "{scheme:?}: the fault row went vacuous \
             (escalations {}, faults {})",
            pg.escalations,
            pg.faults_injected
        );
    }
}

/// Mid-run shard resizes (the pool is torn down and lazily re-created at
/// the new width) must be seamless — the run must land on the same digest
/// as a serial run that never reconfigured anything.
#[test]
fn midrun_resizes_change_nothing() {
    let run = |reconfigure: bool| {
        let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
        cfg.noc.topology = Mesh::new(8, 8).into();
        cfg.seed = 0x9E512E;
        let mut sim = SyntheticSim::new(cfg, TrafficPattern::Transpose, 0.02);
        // Growing, shrinking (through 1: no pool at all), re-growing.
        for shards in [1usize, 2, 7, 4, 1, 2] {
            if reconfigure {
                sim.network_mut().set_shards(shards).unwrap();
            }
            sim.run(250).unwrap();
        }
        digest(&sim.report())
    };
    assert_eq!(run(false), run(true));
}

/// Thread accounting: a sharded run creates at most `shards - 1` worker
/// threads over its whole lifetime, and every sharded tick is counted.
#[test]
fn pooled_runs_create_at_most_shards_threads() {
    let shards = 4usize;
    let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
    cfg.noc.topology = Mesh::new(8, 8).into();
    cfg.seed = 0x1007;
    let mut sim = SyntheticSim::new(cfg, TrafficPattern::UniformRandom, 0.05);
    sim.network_mut().set_shards(shards).unwrap();
    sim.run(2_000).unwrap();
    let (spawn_count, _spawn_nanos) = sim.network().spawn_stats();
    let (pool_ticks, _pool_wait) = sim.network().pool_stats();
    assert!(
        pool_ticks > 0,
        "busy run never took the pooled sharded path"
    );
    assert!(
        spawn_count < shards as u64,
        "pooled run created {spawn_count} threads; \
         the pool must cap creations at shards - 1 = {}",
        shards - 1
    );
    // Resetting stats at a measured-window boundary leaves an
    // already-created pool invisible: the window reports zero creations.
    sim.network_mut().reset_stats();
    sim.run(1_000).unwrap();
    let (windowed, _) = sim.network().spawn_stats();
    assert_eq!(
        windowed, 0,
        "the pool was created during warm-up; the measured window must \
         report zero thread creations"
    );
    let (windowed_ticks, _) = sim.network().pool_stats();
    assert!(windowed_ticks > 0, "pooled ticks continue after the reset");
}

/// A panicking shard worker must surface as the typed
/// [`SimError::ShardPanic`] — not deadlock the barrier, not abort the
/// process — and the pool must survive to run later ticks.
#[test]
fn worker_panic_is_a_typed_error_and_the_pool_survives() {
    let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
    cfg.noc.topology = Mesh::new(8, 8).into();
    cfg.seed = 0xDEAD;
    let mut sim = SyntheticSim::new(cfg, TrafficPattern::UniformRandom, 0.05);
    sim.network_mut().set_shards(4).unwrap();
    sim.run(100).unwrap();
    // Arm the test hook: the next pooled sharded tick runs its last
    // worker job as a deliberate panic. The worker's unwind is noisy on
    // stderr but must be *contained*.
    sim.network_mut().debug_panic_next_pooled_tick();
    let err = sim
        .run(200)
        .expect_err("the armed tick must fail, not complete");
    match err {
        SimError::ShardPanic { shard, message } => {
            assert!(shard >= 1, "shard 0 is the host thread, never a worker");
            assert!(
                message.contains("injected shard panic"),
                "panic payload must round-trip: {message}"
            );
        }
        other => panic!("expected ShardPanic, got {other:?}"),
    }
    // The barrier was fully drained: later ticks reuse the same pool and
    // dropping the simulation joins every worker without hanging.
    sim.run(200)
        .expect("the pool must survive a contained worker panic");
    let (pool_ticks, _) = sim.network().pool_stats();
    assert!(pool_ticks > 1, "post-panic ticks still run pooled");
}
