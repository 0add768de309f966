//! Every setting is read: moving any `NocConfig` or `PowerConfig` field to
//! another valid value changes what a run reports. A field that changes
//! nothing reports a number it did not produce; delete it instead. The
//! `watchdog` fields are left to the watchdog and fault tests, because on
//! a healthy run they must change nothing.

use punchsim::prelude::*;

/// `Debug` of the report of a short 4x4 PowerPunch-PG run: every counter,
/// moment and histogram bucket.
fn report(cfg: SimConfig) -> String {
    let mut sim = SyntheticSim::new(cfg, TrafficPattern::UniformRandom, 0.1);
    sim.run(2_000).expect("a valid config runs");
    format!("{:?}", sim.report())
}

/// A setting's name and a change of it to another valid value.
type Row = (&'static str, fn(&mut SimConfig));

fn base() -> SimConfig {
    let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
    cfg.noc.topology = Mesh::new(4, 4).into();
    cfg
}

#[test]
fn every_setting_changes_what_a_run_reports() {
    // Spelled out without `..`, so a new field does not compile until it
    // has a row below.
    let NocConfig {
        topology: _,
        routing: _,
        vnets: _,
        data_vcs_per_vnet: _,
        data_vc_depth: _,
        ctrl_vcs_per_vnet: _,
        ctrl_vc_depth: _,
        router_stages: _,
        link_latency: _,
        ni_latency: _,
        data_packet_flits: _,
        ctrl_packet_flits: _,
        watchdog: _,
    } = NocConfig::default();
    let PowerConfig {
        wakeup_latency: _,
        idle_timeout: _,
        punch_hops: _,
        slack2_cycles: _,
    } = PowerConfig::default();
    let rows: [Row; 16] = [
        ("noc.topology", |c| c.noc.topology = Torus::new(4, 4).into()),
        ("noc.routing", |c| c.noc.routing = RoutingKind::Yx),
        ("noc.vnets", |c| c.noc.vnets = 2),
        ("noc.data_vcs_per_vnet", |c| c.noc.data_vcs_per_vnet = 1),
        ("noc.data_vc_depth", |c| c.noc.data_vc_depth = 2),
        ("noc.ctrl_vcs_per_vnet", |c| c.noc.ctrl_vcs_per_vnet = 2),
        ("noc.ctrl_vc_depth", |c| c.noc.ctrl_vc_depth = 2),
        ("noc.router_stages", |c| c.noc.router_stages = 4),
        ("noc.link_latency", |c| c.noc.link_latency = 2),
        ("noc.ni_latency", |c| c.noc.ni_latency = 4),
        ("noc.data_packet_flits", |c| c.noc.data_packet_flits = 4),
        ("noc.ctrl_packet_flits", |c| c.noc.ctrl_packet_flits = 2),
        ("power.wakeup_latency", |c| c.power.wakeup_latency = 10),
        ("power.idle_timeout", |c| c.power.idle_timeout = 8),
        ("power.punch_hops", |c| c.power.punch_hops = 2),
        ("power.slack2_cycles", |c| c.power.slack2_cycles = 12),
    ];
    let reference = report(base());
    let inert: Vec<&str> = rows
        .iter()
        .filter(|(_, set)| {
            let mut cfg = base();
            set(&mut cfg);
            cfg.validate().expect("each row sets a valid value");
            report(cfg) == reference
        })
        .map(|(name, _)| *name)
        .collect();
    assert!(inert.is_empty(), "settings that change nothing: {inert:?}");
}
