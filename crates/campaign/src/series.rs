//! The per-interval time series of an observed run, read off the run's own
//! reports: `Network::report` is cumulative over the measured window, so
//! two reports taken at cycles `a < b` differ by what the run did in
//! `(a, b]`. Reports are read between ticks, so a series cannot perturb
//! the run.

use punchsim_noc::NetworkReport;
use punchsim_types::Cycle;

use crate::json::Json;

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

/// Rolls a run's `(cycle, report)` pairs into [`IntervalRow`]s that tile
/// its measured window.
#[derive(Debug, Default)]
pub struct IntervalSeries {
    last: Option<(Cycle, NetworkReport)>,
    rows: Vec<IntervalRow>,
}

impl IntervalSeries {
    /// Feeds the network's report at `cycle`, closing the interval since
    /// the previous call (none at the same cycle: that re-primes).
    ///
    /// A report whose window (`cycle - report.cycles` on) opened since the
    /// previous call — the first call, or the warm-up's `reset_stats` —
    /// restarts the series: the rows so far belong to an earlier window,
    /// and the new one is diffed against zero counts at its start. Deltas
    /// saturate at zero instead of underflowing.
    pub fn observe(&mut self, cycle: Cycle, report: NetworkReport) {
        let start = cycle - report.cycles;
        let last = self.last.take();
        let (from, prev) = match &last {
            Some((at, prev)) if at - prev.cycles == start => (*at, Some(prev)),
            _ => {
                self.rows.clear();
                (start, None)
            }
        };
        if cycle > from {
            let delta = |f: fn(&NetworkReport) -> u64| f(&report).saturating_sub(prev.map_or(0, f));
            let delivered = delta(|r| r.stats.packets_delivered);
            let latency_sum = |r: &NetworkReport| r.stats.latency_hist.sum();
            let d_sum = latency_sum(&report).saturating_sub(prev.map_or(0, latency_sum));
            let d_off = delta(|r| r.pg.total_off_cycles());
            self.rows.push(IntervalRow {
                start: from,
                end: cycle,
                delivered,
                avg_latency: if delivered > 0 {
                    d_sum as f64 / delivered as f64
                } else {
                    0.0
                },
                off_fraction: d_off as f64 / (report.routers.max(1) as f64 * (cycle - from) as f64),
                punch_hops: delta(|r| r.pg.punch_hops),
                escalations: delta(|r| r.pg.escalations),
                wu_assertions: delta(|r| r.pg.wu_assertions),
            });
        }
        self.last = Some((cycle, report));
    }

    /// Consumes the collector, returning its intervals.
    pub fn into_rows(self) -> Vec<IntervalRow> {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_noc::{NetStats, PgCounters, RouterActivity};
    use punchsim_types::SchemeKind;

    /// A 16-router report whose window is `cycles` long, with `n` packets
    /// of `latency` cycles for each `(n, latency)` in `packets`, and `off`
    /// router-cycles off.
    fn report(cycles: Cycle, packets: &[(u64, u64)], off: u64) -> NetworkReport {
        let mut stats = NetStats::default();
        for &(n, latency) in packets {
            (0..n).for_each(|_| stats.record_delivery(latency, 0, 0));
        }
        let delivered = stats.packets_delivered;
        let mut pg = PgCounters::new(16);
        pg.off_cycles[0] = off;
        pg.punch_hops = delivered * 3;
        pg.wu_assertions = delivered;
        NetworkReport {
            scheme: SchemeKind::ConvOptPg,
            routers: 16,
            cycles,
            stats,
            activity: RouterActivity::default(),
            pg,
            ni_flits: 0,
            offered_load: 0.0,
        }
    }

    #[test]
    fn intervals_are_deltas_of_cumulative_counters() {
        let mut s = IntervalSeries::default();
        s.observe(0, report(0, &[], 0));
        s.observe(100, report(100, &[(10, 20)], 400));
        s.observe(200, report(200, &[(10, 20), (20, 25)], 400));
        let rows = &s.rows;
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
        let mut s = IntervalSeries::default();
        s.observe(0, report(0, &[], 0));
        s.observe(50, report(50, &[], 0));
        assert_eq!(s.rows[0].avg_latency, 0.0);
        assert!(s.rows[0].avg_latency.is_finite());
    }

    #[test]
    fn counter_drop_saturates_instead_of_underflowing() {
        let mut s = IntervalSeries::default();
        s.observe(0, report(0, &[], 0));
        s.observe(10, report(10, &[(100, 10)], 50));
        // Counters that fall within one window clamp to an empty row.
        s.observe(20, report(20, &[(2, 3)], 0));
        let row = &s.rows[1];
        assert_eq!(row.delivered, 0);
        assert_eq!(row.avg_latency, 0.0);
        assert_eq!(row.off_fraction, 0.0);
    }

    #[test]
    fn a_reset_restarts_the_series_at_the_new_window() {
        let mut s = IntervalSeries::default();
        // A first report taken after its window opened is diffed from zero.
        s.observe(100, report(100, &[(100, 10)], 50));
        assert_eq!((s.rows[0].start, s.rows[0].delivered), (0, 100));
        // The host resets at cycle 150: the warm-up rows go, and the new
        // window's first row starts at the reset.
        s.observe(200, report(50, &[(2, 3)], 0));
        let rows = &s.rows;
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].start, rows[0].end, rows[0].delivered),
            (150, 200, 2)
        );
        assert_eq!(rows[0].avg_latency, 3.0);
        // A reset at the very cycle of the last report counts from zero
        // too, not from that report's (pre-reset) counters.
        s.observe(250, report(50, &[(4, 3)], 0));
        let rows = &s.rows;
        assert_eq!(
            (rows[0].start, rows[0].end, rows[0].delivered),
            (200, 250, 4)
        );
    }

    #[test]
    fn same_cycle_observation_reprimes() {
        let mut s = IntervalSeries::default();
        s.observe(0, report(0, &[], 0));
        s.observe(0, report(0, &[(5, 4)], 0));
        assert!(s.rows.is_empty(), "no interval closes at the same cycle");
        s.observe(10, report(10, &[(7, 4)], 0));
        assert_eq!(s.rows[0].delivered, 2, "diffed against the re-prime");
    }

    #[test]
    fn json_rows_render_deterministically() {
        let mut s = IntervalSeries::default();
        s.observe(0, report(0, &[], 0));
        s.observe(10, report(10, &[(1, 5)], 0));
        let render = || s.rows[0].to_json().render();
        assert_eq!(render(), render());
        assert!(render().contains("\"avg_latency\": 5.0"));
    }
}
