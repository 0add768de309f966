//! Periodic time-series sampling: per-interval metrics rolled from
//! cumulative counters.
//!
//! The simulator's aggregates (`NetStats`, `PgCounters`) are cumulative;
//! a [`Sampler`] turns periodic snapshots of them ([`Sample`]) into
//! per-interval deltas ([`IntervalRow`]) — delivered packets, mean latency,
//! off-fraction, punch-signal link utilization, WU assertions, escalations
//! per interval — so a campaign's `.timing.json` sidecar can show how a run
//! *evolved*, not just where it ended.
//!
//! The host drives the sampler between run chunks (or from `CmpSim`'s
//! progress hook), which keeps the sampler read-only with respect to the
//! simulation: attaching one cannot perturb deterministic results.

use crate::json::Json;
use punchsim_types::Cycle;

/// A cumulative snapshot of the counters the sampler differentiates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// Current cycle.
    pub cycle: Cycle,
    /// Packets delivered since measurement start.
    pub delivered: u64,
    /// Sum of measured packet latencies.
    pub latency_sum: f64,
    /// Number of measured packet latencies.
    pub latency_count: u64,
    /// Total router-cycles spent powered off, across all routers.
    pub off_cycles: u64,
    /// Punch-signal link traversals (sideband wire activity).
    pub punch_hops: u64,
    /// Watchdog force-wake escalations.
    pub escalations: u64,
    /// Conventional WU handshake assertions.
    pub wu_assertions: u64,
}

/// One closed sampling interval, as deltas of the cumulative counters.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRow {
    /// First cycle of the interval (exclusive of the previous sample).
    pub start: Cycle,
    /// Last cycle of the interval.
    pub end: Cycle,
    /// Packets delivered during the interval.
    pub delivered: u64,
    /// Mean latency of packets delivered during the interval (0 if none).
    pub avg_latency: f64,
    /// Fraction of router-cycles spent off during the interval.
    pub off_fraction: f64,
    /// Punch-signal link traversals during the interval.
    pub punch_hops: u64,
    /// Force-wake escalations during the interval.
    pub escalations: u64,
    /// WU assertions during the interval.
    pub wu_assertions: u64,
}

impl IntervalRow {
    /// Serializes into a JSON object with a stable key order.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("start", Json::Int(self.start as i64));
        o.push("end", Json::Int(self.end as i64));
        o.push("delivered", Json::Int(self.delivered as i64));
        o.push("avg_latency", Json::Float(self.avg_latency));
        o.push("off_fraction", Json::Float(self.off_fraction));
        o.push("punch_hops", Json::Int(self.punch_hops as i64));
        o.push("escalations", Json::Int(self.escalations as i64));
        o.push("wu_assertions", Json::Int(self.wu_assertions as i64));
        o
    }
}

/// Rolls periodic [`Sample`]s into [`IntervalRow`]s.
#[derive(Debug, Clone)]
pub struct Sampler {
    routers: usize,
    last: Sample,
    primed: bool,
    rows: Vec<IntervalRow>,
}

impl Sampler {
    /// Creates a sampler for a mesh of `routers` routers (used to normalize
    /// the off-fraction).
    pub fn new(routers: usize) -> Self {
        Sampler {
            routers: routers.max(1),
            last: Sample::default(),
            primed: false,
            rows: Vec::new(),
        }
    }

    /// Feeds one cumulative snapshot. The first call primes the baseline;
    /// each later call with an advanced cycle closes one interval.
    ///
    /// Counter resets (e.g. warmup-end `reset_stats`) are tolerated: deltas
    /// saturate at zero instead of underflowing.
    pub fn observe(&mut self, s: Sample) {
        if !self.primed {
            self.last = s;
            self.primed = true;
            return;
        }
        if s.cycle <= self.last.cycle {
            // Same cycle (or a host rewind after reset): re-prime.
            self.last = s;
            return;
        }
        let dt = (s.cycle - self.last.cycle) as f64;
        let d_count = s.latency_count.saturating_sub(self.last.latency_count);
        let d_sum = (s.latency_sum - self.last.latency_sum).max(0.0);
        let avg_latency = if d_count > 0 {
            d_sum / d_count as f64
        } else {
            0.0
        };
        let d_off = s.off_cycles.saturating_sub(self.last.off_cycles);
        self.rows.push(IntervalRow {
            start: self.last.cycle,
            end: s.cycle,
            delivered: s.delivered.saturating_sub(self.last.delivered),
            avg_latency,
            off_fraction: d_off as f64 / (self.routers as f64 * dt),
            punch_hops: s.punch_hops.saturating_sub(self.last.punch_hops),
            escalations: s.escalations.saturating_sub(self.last.escalations),
            wu_assertions: s.wu_assertions.saturating_sub(self.last.wu_assertions),
        });
        self.last = s;
    }

    /// The closed intervals so far.
    pub fn rows(&self) -> &[IntervalRow] {
        &self.rows
    }

    /// Consumes the sampler, returning its intervals.
    pub fn into_rows(self) -> Vec<IntervalRow> {
        self.rows
    }

    /// Serializes all intervals into a JSON array.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.rows.iter().map(IntervalRow::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycle: Cycle, delivered: u64, sum: f64, count: u64, off: u64) -> Sample {
        Sample {
            cycle,
            delivered,
            latency_sum: sum,
            latency_count: count,
            off_cycles: off,
            punch_hops: delivered * 3,
            escalations: 0,
            wu_assertions: delivered,
        }
    }

    #[test]
    fn intervals_are_deltas_of_cumulative_counters() {
        let mut s = Sampler::new(16);
        s.observe(sample(0, 0, 0.0, 0, 0));
        s.observe(sample(100, 10, 200.0, 10, 400));
        s.observe(sample(200, 30, 700.0, 30, 400));
        let rows = s.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].delivered, 10);
        assert_eq!(rows[0].avg_latency, 20.0);
        // 400 off router-cycles over 16 routers * 100 cycles.
        assert!((rows[0].off_fraction - 0.25).abs() < 1e-12);
        assert_eq!(rows[1].delivered, 20);
        assert_eq!(rows[1].avg_latency, 25.0);
        assert_eq!(rows[1].off_fraction, 0.0);
        assert_eq!(rows[1].punch_hops, 60);
    }

    #[test]
    fn empty_interval_has_zero_latency_not_nan() {
        let mut s = Sampler::new(4);
        s.observe(sample(0, 0, 0.0, 0, 0));
        s.observe(sample(50, 0, 0.0, 0, 0));
        assert_eq!(s.rows()[0].avg_latency, 0.0);
        assert!(s.rows()[0].avg_latency.is_finite());
    }

    #[test]
    fn counter_reset_saturates_instead_of_underflowing() {
        let mut s = Sampler::new(4);
        s.observe(sample(0, 100, 1000.0, 100, 50));
        // Host reset its stats between observations.
        s.observe(sample(10, 2, 6.0, 2, 0));
        let row = &s.rows()[0];
        assert_eq!(row.delivered, 0);
        assert_eq!(row.avg_latency, 0.0);
        assert_eq!(row.off_fraction, 0.0);
    }

    #[test]
    fn json_rows_render_deterministically() {
        let mut s = Sampler::new(4);
        s.observe(sample(0, 0, 0.0, 0, 0));
        s.observe(sample(10, 1, 5.0, 1, 0));
        let a = s.to_json().render();
        let b = s.to_json().render();
        assert_eq!(a, b);
        assert!(a.contains("\"avg_latency\": 5.0"));
    }
}
