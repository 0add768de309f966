//! Network-level statistics and the end-of-run report.

use punchsim_obs::metrics::LogHistogram;
use punchsim_types::{Cycle, SchemeKind};

use crate::power::PgCounters;
use crate::router::RouterActivity;

/// Aggregated per-run network statistics, updated as packets complete.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Packets injected into NI queues (measured window).
    pub packets_injected: u64,
    /// Packets fully delivered (measured window): the one delivery count,
    /// and the `n` of every mean below.
    pub packets_delivered: u64,
    /// Flits delivered (measured window).
    pub flits_delivered: u64,
    /// Log-bucketed end-to-end latency (NI enqueue to tail ejection) of
    /// every measured delivery, with its exact sum. Cycle-valued samples
    /// make the histogram — and therefore the report percentiles — fully
    /// deterministic across kernels, shard counts and thread counts.
    pub latency_hist: LogHistogram,
    /// Flit link traversals (inter-router links only; energy input).
    pub link_traversals: u64,
    /// Mean end-to-end latency.
    latency_mean: f64,
    /// Mean powered-off routers encountered per packet (Figure 9).
    pg_encounters_mean: f64,
    /// Mean cycles per packet spent waiting on router wakeups (Figure 10).
    wakeup_wait_mean: f64,
}

impl NetStats {
    /// Counts one measured delivery of a packet that took `latency`
    /// cycles, met `pg_encounters` powered-off routers and waited
    /// `wakeup_wait` cycles on wakeups.
    ///
    /// The means are Welford running means, not sum ÷ count: the two
    /// differ in the last bits, and the recorded artifacts pin these.
    pub fn record_delivery(&mut self, latency: Cycle, pg_encounters: u64, wakeup_wait: u64) {
        self.packets_delivered += 1;
        self.latency_hist.record(latency);
        let n = self.packets_delivered as f64;
        let welford = |mean: &mut f64, v: u64| *mean += (v as f64 - *mean) / n;
        welford(&mut self.latency_mean, latency);
        welford(&mut self.pg_encounters_mean, pg_encounters);
        welford(&mut self.wakeup_wait_mean, wakeup_wait);
    }
}

/// A snapshot of everything a power model or a `figure` row needs after
/// (or during) a run.
#[derive(Debug, Clone)]
pub struct NetworkReport {
    /// Scheme that produced this run.
    pub scheme: SchemeKind,
    /// Number of routers.
    pub routers: usize,
    /// Cycles in the measured window.
    pub cycles: Cycle,
    /// Delivered-traffic statistics.
    pub stats: NetStats,
    /// Summed router datapath activity (measured window).
    pub activity: RouterActivity,
    /// Power-gating counters (measured window).
    pub pg: PgCounters,
    /// Flits handled by NIs (inject + eject), for NI energy.
    pub ni_flits: u64,
    /// Average injected load over the measured window, flits/node/cycle.
    pub offered_load: f64,
}

impl NetworkReport {
    /// Mean end-to-end packet latency in cycles; 0.0 when no packet was
    /// delivered in the measured window (matching the other `avg_*` and
    /// ratio helpers, which all define "empty run" as 0.0, never NaN).
    pub fn avg_packet_latency(&self) -> f64 {
        self.stats.latency_mean
    }

    /// Median end-to-end packet latency in cycles (0 on an empty run;
    /// like all histogram quantiles, within one sub-bucket of the true
    /// order statistic — see [`LogHistogram::percentile`]).
    pub fn latency_p50(&self) -> u64 {
        self.stats.latency_hist.percentile(0.50)
    }

    /// 95th-percentile end-to-end packet latency in cycles.
    pub fn latency_p95(&self) -> u64 {
        self.stats.latency_hist.percentile(0.95)
    }

    /// 99th-percentile end-to-end packet latency in cycles.
    pub fn latency_p99(&self) -> u64 {
        self.stats.latency_hist.percentile(0.99)
    }

    /// Exact maximum end-to-end packet latency in cycles.
    pub fn latency_max(&self) -> u64 {
        self.stats.latency_hist.max()
    }

    /// Fraction of router-cycles spent fully off (static-energy saving
    /// potential before overheads).
    pub fn off_fraction(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.pg.total_off_cycles() as f64 / (self.cycles as f64 * self.routers as f64)
    }

    /// Mean number of powered-off routers encountered per packet (Fig. 9);
    /// 0.0 on an empty run.
    pub fn avg_pg_encounters(&self) -> f64 {
        self.stats.pg_encounters_mean
    }

    /// Mean cycles per packet waiting for wakeups (Fig. 10); 0.0 on an
    /// empty run.
    pub fn avg_wakeup_wait(&self) -> f64 {
        self.stats.wakeup_wait_mean
    }

    /// Delivered throughput in flits/node/cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.stats.flits_delivered as f64 / (self.cycles as f64 * self.routers as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::SimRng;

    fn report(routers: usize, cycles: Cycle, stats: NetStats) -> NetworkReport {
        NetworkReport {
            scheme: SchemeKind::NoPg,
            routers,
            cycles,
            stats,
            activity: RouterActivity::default(),
            pg: PgCounters::new(routers),
            ni_flits: 0,
            offered_load: 0.0,
        }
    }

    #[test]
    fn means_are_welford_bit_for_bit() {
        // The reference is the Welford step the recorded artifacts were
        // produced with; a sum ÷ count mean differs from it in the last
        // bits on most integer streams, and fails here.
        let mut rng = SimRng::seed_from_u64(0x5EED);
        for len in [0u64, 1, 10_000] {
            let mut stats = NetStats::default();
            let mut reference = [0.0f64; 3];
            for i in 1..=len {
                let sample = [
                    10 + rng.next_u64() % 500,
                    rng.next_u64() % 8,
                    rng.next_u64() % 40,
                ];
                stats.record_delivery(sample[0], sample[1], sample[2]);
                for (mean, v) in reference.iter_mut().zip(sample) {
                    let delta = v as f64 - *mean;
                    *mean += delta / i as f64;
                }
            }
            let r = report(1, 1, stats);
            let means = [
                r.avg_packet_latency(),
                r.avg_pg_encounters(),
                r.avg_wakeup_wait(),
            ];
            assert_eq!(r.stats.packets_delivered, len);
            assert_eq!(r.stats.latency_hist.count(), len);
            assert_eq!(means.map(f64::to_bits), reference.map(f64::to_bits));
        }
    }

    #[test]
    fn report_ratios() {
        let mut stats = NetStats::default();
        stats.record_delivery(10, 0, 0);
        stats.record_delivery(20, 0, 0);
        stats.flits_delivered = 640;
        let mut r = report(2, 100, stats);
        r.pg.off_cycles = vec![50, 150];
        assert_eq!(r.avg_packet_latency(), 15.0);
        assert_eq!(r.latency_p50(), 10);
        assert_eq!(r.latency_max(), 20);
        assert_eq!(r.off_fraction(), 1.0);
        assert!((r.throughput() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn empty_run_averages_are_zero_not_nan() {
        // Regression: every avg_*/ratio helper must agree that an empty
        // measured window reads 0.0 (finite), so downstream JSON reports
        // never see NaN.
        let r = report(0, 0, NetStats::default());
        for v in [
            r.avg_packet_latency(),
            r.off_fraction(),
            r.avg_pg_encounters(),
            r.avg_wakeup_wait(),
            r.throughput(),
        ] {
            assert_eq!(v, 0.0);
            assert!(v.is_finite());
        }
    }
}
