//! Network-level statistics and the end-of-run report.

use punchsim_obs::metrics::LogHistogram;
use punchsim_types::{Cycle, SchemeKind};

use crate::power::PgCounters;
use crate::router::RouterActivity;

/// Streaming statistics over a sequence of `f64` samples using Welford's
/// online algorithm (numerically stable, O(1) memory).
///
/// # Examples
///
/// ```
/// use punchsim_noc::RunningStats;
///
/// let mut lat = RunningStats::default();
/// [10.0, 12.0, 14.0].map(|v| lat.record(v));
/// assert_eq!((lat.count(), lat.sum(), lat.mean()), (3, 36.0, 12.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    sum: f64,
}

impl RunningStats {
    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }
}

/// Aggregated per-run network statistics, updated as packets complete.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Packets injected into NI queues (measured window).
    pub packets_injected: u64,
    /// Packets fully delivered (measured window).
    pub packets_delivered: u64,
    /// Flits delivered (measured window).
    pub flits_delivered: u64,
    /// End-to-end latency: NI enqueue to tail ejection.
    pub latency: RunningStats,
    /// Log-bucketed end-to-end latency distribution, recorded alongside
    /// `latency` for every measured delivery. Always on: the record is a
    /// handful of integer ops per packet, and cycle-valued samples make
    /// the histogram — and therefore the report percentiles — fully
    /// deterministic across kernels, shard counts and thread counts.
    pub latency_hist: LogHistogram,
    /// Network latency: head injection into the router to tail ejection.
    pub net_latency: RunningStats,
    /// Hop counts of delivered packets.
    pub hops: RunningStats,
    /// Powered-off routers encountered per packet (Figure 9).
    pub pg_encounters: RunningStats,
    /// Cycles per packet spent waiting on router wakeups (Figure 10).
    pub wakeup_wait: RunningStats,
    /// Flit link traversals (inter-router links only; energy input).
    pub link_traversals: u64,
}

impl NetStats {
    /// Resets every aggregate (end of warm-up).
    pub fn reset(&mut self) {
        *self = NetStats::default();
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
        if self.stats.latency.count() == 0 {
            return 0.0;
        }
        self.stats.latency.mean()
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
        if self.stats.pg_encounters.count() == 0 {
            return 0.0;
        }
        self.stats.pg_encounters.mean()
    }

    /// Mean cycles per packet waiting for wakeups (Fig. 10); 0.0 on an
    /// empty run.
    pub fn avg_wakeup_wait(&self) -> f64 {
        if self.stats.wakeup_wait.count() == 0 {
            return 0.0;
        }
        self.stats.wakeup_wait.mean()
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

    #[test]
    fn running_stats_moments() {
        let mut s = RunningStats::default();
        assert_eq!((s.count(), s.mean(), s.variance()), (0, 0.0, 0.0));
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!((s.mean(), s.sum()), (5.0, 40.0));
        assert!((s.variance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn report_ratios() {
        let mut stats = NetStats::default();
        stats.latency.record(10.0);
        stats.latency.record(20.0);
        stats.latency_hist.record(10);
        stats.latency_hist.record(20);
        stats.flits_delivered = 640;
        let mut pg = PgCounters::new(2);
        pg.off_cycles = vec![50, 150];
        let r = NetworkReport {
            scheme: SchemeKind::NoPg,
            routers: 2,
            cycles: 100,
            stats,
            activity: RouterActivity::default(),
            pg,
            ni_flits: 0,
            offered_load: 0.0,
        };
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
        let r = NetworkReport {
            scheme: SchemeKind::NoPg,
            routers: 0,
            cycles: 0,
            stats: NetStats::default(),
            activity: RouterActivity::default(),
            pg: PgCounters::new(0),
            ni_flits: 0,
            offered_load: 0.0,
        };
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
