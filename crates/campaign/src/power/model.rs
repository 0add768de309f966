//! The per-event / per-cycle router energy model.

use punchsim_noc::NetworkReport;
use punchsim_types::SchemeKind;

/// Energy of one measured window, decomposed the way Figure 11 of the paper
/// plots it: dynamic (activity-driven), static (leakage while powered), and
/// power-gating overhead (wake bursts, sleep distribution, punch/WU wires).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Activity-proportional energy, in picojoules.
    pub dynamic_pj: f64,
    /// Leakage energy of powered-on routers (plus the always-on controller
    /// residual of gated routers), in picojoules.
    pub static_pj: f64,
    /// Energy wasted by power-gating itself: wake transients (break-even
    /// accounting), punch-signal and WU wire switching, in picojoules.
    pub overhead_pj: f64,
}

impl EnergyBreakdown {
    /// Total router energy.
    pub fn total_pj(&self) -> f64 {
        self.dynamic_pj + self.static_pj + self.overhead_pj
    }

    /// Static energy including PG overhead — the paper's "total router
    /// static energy" bar (the bottom two bars of Figure 11), used for the
    /// net static-savings comparison.
    pub fn net_static_pj(&self) -> f64 {
        self.static_pj + self.overhead_pj
    }
}

/// A DSENT-like analytical router power model at 45 nm / 1 GHz.
///
/// Constants are per-event energies in picojoules and per-cycle leakage in
/// picojoules per cycle (numerically equal to mW at 1 GHz).
///
/// # Examples
///
/// ```
/// use punchsim_campaign::power::PowerModel;
///
/// let m = PowerModel::default_45nm();
/// // Figure 12 anchor: 64 always-on routers burn ~1.8 W of static power.
/// let w = 64.0 * m.router_static_pj_per_cycle / 1000.0; // pJ/ns -> W
/// assert!((1.6..2.0).contains(&w));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Leakage of one powered-on router per cycle (pJ); ≈ 28 mW at 1 GHz.
    pub router_static_pj_per_cycle: f64,
    /// Fraction of router static that remains when gated (the always-on
    /// PG controller and retention logic).
    pub gated_residual: f64,
    /// Buffer write energy per flit (pJ).
    pub buffer_write_pj: f64,
    /// Buffer read energy per flit (pJ).
    pub buffer_read_pj: f64,
    /// Crossbar traversal energy per flit (pJ).
    pub crossbar_pj: f64,
    /// Allocator arbitration energy per grant (pJ).
    pub arbitration_pj: f64,
    /// Link traversal energy per flit per hop (pJ, 128-bit link).
    pub link_pj: f64,
    /// NI processing energy per flit (pJ).
    pub ni_pj: f64,
    /// Punch-signal wire energy per link traversal (pJ; a 5-bit sideband
    /// next to a 128-bit link).
    pub punch_hop_pj: f64,
    /// WU wire assertion energy (pJ).
    pub wu_pj: f64,
    /// Break-even time in cycles: one wake burst costs
    /// `break_even_time x router_static_pj_per_cycle`.
    pub break_even_time: f64,
}

impl PowerModel {
    /// The calibrated 45 nm model used throughout the evaluation.
    pub fn default_45nm() -> Self {
        PowerModel {
            router_static_pj_per_cycle: 28.0,
            gated_residual: 0.02,
            buffer_write_pj: 12.0,
            buffer_read_pj: 10.0,
            crossbar_pj: 15.0,
            arbitration_pj: 1.0,
            link_pj: 12.0,
            ni_pj: 5.0,
            punch_hop_pj: 0.6,
            wu_pj: 0.1,
            break_even_time: 10.0,
        }
    }

    /// The model of every scheme, [`PowerModel::default_45nm`]: all of them
    /// run on the paper's buffered VC router. Kept because the benchmark
    /// harness in `perf/` names it.
    pub fn for_scheme(_: SchemeKind) -> Self {
        Self::default_45nm()
    }

    /// Computes the energy breakdown of a measured window.
    pub fn breakdown(&self, r: &NetworkReport) -> EnergyBreakdown {
        let a = &r.activity;
        // Every switch grant reads one flit out of a buffer and sends it
        // across the crossbar.
        let grants = a.sa_grants as f64;
        let dynamic_pj = a.buffer_writes as f64 * self.buffer_write_pj
            + grants * self.buffer_read_pj
            + grants * self.crossbar_pj
            + (a.va_grants + a.sa_grants) as f64 * self.arbitration_pj
            + r.stats.link_traversals as f64 * self.link_pj
            + r.ni_flits as f64 * self.ni_pj;
        let total_router_cycles = r.cycles as f64 * r.routers as f64;
        let gated_cycles = (r.pg.total_off_cycles() + r.pg.total_waking_cycles()) as f64;
        let powered_cycles = (total_router_cycles - gated_cycles).max(0.0);
        let static_pj = powered_cycles * self.router_static_pj_per_cycle
            + gated_cycles * self.router_static_pj_per_cycle * self.gated_residual;
        let overhead_pj = r.pg.total_wake_events() as f64
            * self.break_even_time
            * self.router_static_pj_per_cycle
            + r.pg.punch_hops as f64 * self.punch_hop_pj
            + r.pg.wu_assertions as f64 * self.wu_pj;
        EnergyBreakdown {
            dynamic_pj,
            static_pj,
            overhead_pj,
        }
    }

    /// Average router static power (including PG overhead) over the window,
    /// in watts at 1 GHz — the Figure 12 bottom-row metric.
    pub fn static_power_watts(&self, r: &NetworkReport) -> f64 {
        if r.cycles == 0 {
            return 0.0;
        }
        self.breakdown(r).net_static_pj() / r.cycles as f64 / 1000.0
    }

    /// The `No-PG` static energy of the same window (every router on for
    /// every cycle) — the denominator of the paper's "savings of router
    /// static energy" percentages.
    pub fn baseline_static_pj(&self, r: &NetworkReport) -> f64 {
        r.cycles as f64 * r.routers as f64 * self.router_static_pj_per_cycle
    }

    /// Fraction of `No-PG` static energy saved net of all PG overheads.
    pub fn static_savings(&self, r: &NetworkReport) -> f64 {
        let base = self.baseline_static_pj(r);
        if base == 0.0 {
            return 0.0;
        }
        1.0 - self.breakdown(r).net_static_pj() / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_noc::{NetStats, PgCounters, RouterActivity};
    use punchsim_types::SchemeKind;

    fn report(cycles: u64, routers: usize) -> NetworkReport {
        NetworkReport {
            scheme: SchemeKind::NoPg,
            routers,
            cycles,
            stats: NetStats::default(),
            activity: RouterActivity::default(),
            pg: PgCounters::new(routers),
            ni_flits: 0,
            offered_load: 0.0,
        }
    }

    #[test]
    fn no_pg_has_full_static_no_overhead() {
        let m = PowerModel::default_45nm();
        let r = report(1000, 64);
        let b = m.breakdown(&r);
        assert_eq!(b.dynamic_pj, 0.0);
        assert_eq!(b.overhead_pj, 0.0);
        assert_eq!(b.static_pj, 1000.0 * 64.0 * 28.0);
        assert_eq!(m.static_savings(&r), 0.0);
    }

    #[test]
    fn off_cycles_save_static() {
        let m = PowerModel::default_45nm();
        let mut r = report(1000, 2);
        r.pg.off_cycles = vec![900, 0];
        let b = m.breakdown(&r);
        // 1100 powered cycles + residual for 900.
        let expected = 1100.0 * 28.0 + 900.0 * 28.0 * 0.02;
        assert!((b.static_pj - expected).abs() < 1e-9);
        assert!(m.static_savings(&r) > 0.4);
    }

    #[test]
    fn break_even_time_is_honored() {
        // An off period of exactly BET cycles nets out to ~zero savings.
        let m = PowerModel::default_45nm();
        let mut r = report(100, 1);
        r.pg.off_cycles = vec![10];
        r.pg.wake_events = vec![1];
        let b = m.breakdown(&r);
        let saved = 10.0 * 28.0 * (1.0 - 0.02);
        let cost = 10.0 * 28.0;
        assert!((b.net_static_pj() - (100.0 * 28.0 - saved + cost)).abs() < 1e-9);
        // Net effect is slightly negative (residual leakage): gating a
        // BET-length idle period does not pay off — hence the filter.
        assert!(m.static_savings(&r) <= 0.0);
    }

    #[test]
    fn dynamic_counts_all_events() {
        let m = PowerModel::default_45nm();
        let mut r = report(10, 1);
        r.activity.buffer_writes = 2;
        r.activity.va_grants = 1;
        r.activity.sa_grants = 2;
        r.stats.link_traversals = 3;
        r.ni_flits = 4;
        let b = m.breakdown(&r);
        let expected = 2.0 * 12.0 + 2.0 * 10.0 + 2.0 * 15.0 + 3.0 * 1.0 + 3.0 * 12.0 + 4.0 * 5.0;
        assert!((b.dynamic_pj - expected).abs() < 1e-9);
    }

    #[test]
    fn static_share_near_64pct_at_parsec_load() {
        // Calibration anchor (§2.1): with ~0.05 flits/node/cycle of traffic
        // travelling ~6 hops, static should be ~64% of total router power.
        let m = PowerModel::default_45nm();
        let cycles = 100_000u64;
        let routers = 64usize;
        let mut r = report(cycles, routers);
        let flits = 0.05 * cycles as f64 * routers as f64;
        let hops = 5.3;
        r.activity.buffer_writes = (flits * (hops + 1.0)) as u64;
        r.activity.sa_grants = r.activity.buffer_writes;
        r.activity.va_grants = (flits / 5.0) as u64;
        r.stats.link_traversals = (flits * hops) as u64;
        r.ni_flits = (flits * 2.0) as u64;
        let b = m.breakdown(&r);
        let share = b.static_pj / b.total_pj();
        assert!(
            (0.55..0.72).contains(&share),
            "static share {share} outside calibration band"
        );
    }
}
