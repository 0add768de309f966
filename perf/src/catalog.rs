//! Every metric the benchmark reports, in reporting order. `BENCHMARK.json`
//! lists the same names, units and bounds (and each metric's direction);
//! `run.sh --selfcheck` compares two result sets against the bounds here.

/// Where a per-layer value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The end-to-end runner: profiler phases, spans, report counts.
    Harness,
    /// `perf_probe`, built separately; absent when it does not build.
    Probe,
}

use Source::{Harness as H, Probe as P};

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Simulated (exact for a fixed seed) rather than host time.
    pub exact: bool,
    /// End-to-end only: relative bound by which the median may worsen.
    pub bound: f64,
    /// End-to-end only: absolute slack the selfcheck adds to the bound
    /// (`setup_s`: 20 ms, `peak_rss_mib`: 1 MiB).
    pub slack: f64,
    pub source: Source,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    exact: bool,
    bound: f64,
    slack: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact,
        bound,
        slack,
        source: Source::Harness,
    }
}

const fn layer(name: &'static str, unit: &'static str, source: Source) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: false,
        bound: 0.0,
        slack: 0.0,
        source,
    }
}

/// The end-to-end metrics, reported for every workload with tracing off.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("sim_cycles_per_s", "cyc/s", false, 0.25, 0.0),
    e2e("host_ns_per_packet", "ns", false, 0.25, 0.0),
    e2e("run_wall_s", "s", false, 0.25, 0.0),
    e2e("setup_s", "s", false, 0.25, 0.020),
    e2e("peak_rss_mib", "MiB", false, 0.10, 1.0),
    e2e("pkt_latency_cyc", "cyc", true, 0.05, 0.0),
    e2e("pkt_latency_p99_cyc", "cyc", true, 0.15, 0.0),
    e2e("static_energy_vs_nopg", "frac", true, 0.10, 0.0),
];

/// The per-layer metrics, reported for every workload by the traced run.
/// A metric whose layer a workload never enters reads 0 and is listed
/// under `not_applicable` in the run's detail file.
pub const PER_LAYER: [MetricDef; 63] = [
    layer("traffic.host_share", "frac", H),
    layer("traffic.host_ns_per_cycle", "ns", H),
    layer("traffic.new_ms", "ms", H),
    layer("traffic.destination_ns", "ns", P),
    layer("traffic.injected_pkts", "count", H),
    layer("noc.tick_share", "frac", H),
    layer("noc.soa_phase_a_share", "frac", H),
    layer("noc.soa_commit_share", "frac", H),
    layer("noc.soa_rebuild_share", "frac", H),
    layer("noc.struct_phases_share", "frac", H),
    layer("noc.watchdog_share", "frac", H),
    layer("noc.fast_forward_share", "frac", H),
    layer("noc.ticked_cycles", "count", H),
    layer("noc.skip_ratio", "frac", H),
    layer("noc.ns_per_ticked_cycle", "ns", H),
    layer("noc.flit_hops", "count", H),
    layer("noc.ns_per_flit_hop", "ns", H),
    layer("noc.new_ms", "ms", P),
    layer("noc.report_ms", "ms", H),
    layer("noc.send_ns", "ns", P),
    layer("noc.pool_wait_share", "frac", H),
    layer("noc.shard2_speedup", "x", H),
    layer("noc.spawned_threads", "count", H),
    layer("core.power_tick_share", "frac", H),
    layer("core.pm_tick_ns_per_cycle", "ns", P),
    layer("core.gate_ns_per_cycle", "ns", P),
    layer("core.fabric_ns_per_cycle", "ns", P),
    layer("core.scheme_logic_ns_per_cycle", "ns", P),
    layer("core.build_pm_ms", "ms", P),
    layer("core.codebook_enumerate_ms", "ms", P),
    layer("core.wakeup_wait_cyc_per_pkt", "cyc", H),
    layer("core.punch_hops", "count", H),
    layer("core.wake_events", "count", H),
    layer("core.sleep_events", "count", H),
    layer("core.wu_assertions", "count", H),
    layer("core.escalations", "count", H),
    layer("cmp.tick_share", "frac", H),
    layer("cmp.ns_per_instr", "ns", H),
    layer("cmp.new_ms", "ms", H),
    layer("cmp.instr", "count", H),
    layer("cmp.l1_miss_rate", "frac", H),
    layer("cmp.exec_cycles", "cyc", H),
    layer("power.breakdown_us", "us", H),
    layer("power.static_energy_saved_frac", "frac", H),
    layer("campaign.simulate_share", "frac", H),
    layer("campaign.worker_idle_share", "frac", H),
    layer("campaign.hash_us_per_spec", "us", H),
    layer("campaign.store_save_us", "us", H),
    layer("campaign.store_load_us", "us", H),
    layer("campaign.cache_hit_pass_ms", "ms", H),
    layer("campaign.cache_hits", "count", H),
    layer("campaign.render_ms", "ms", H),
    layer("campaign.write_artifacts_ms", "ms", H),
    layer("campaign.compare_ms", "ms", H),
    layer("obs.json_render_mb_per_s", "MB/s", H),
    layer("obs.json_parse_mb_per_s", "MB/s", H),
    layer("obs.ring_sink_overhead_frac", "frac", H),
    layer("metrics.profiler_overhead_frac", "frac", H),
    layer("metrics.profile_coverage", "frac", H),
    layer("metrics.export_ms", "ms", H),
    layer("metrics.hist_record_ns", "ns", P),
    layer("types.route_ns", "ns", P),
    layer("host.calib_mops", "Mops/s", H),
];
