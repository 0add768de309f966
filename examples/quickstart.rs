//! Quickstart: run one network under Power Punch and print the headline
//! numbers next to the No-PG baseline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use punchsim::prelude::*;

fn main() {
    let pm = PowerModel::default_45nm();
    println!("punchsim quickstart — 8x8 mesh, uniform random, 0.005 flits/node/cycle\n");
    println!(
        "{:<18} {:>13} {:>12} {:>10} {:>6} {:>15}",
        "scheme", "latency (cyc)", "blocked/pkt", "wait (cyc)", "off %", "static saved %"
    );
    for scheme in SchemeKind::EVALUATED {
        // An 8x8 mesh (Table 2 of the paper) under light uniform traffic.
        let cfg = SimConfig::with_scheme(scheme);
        let mut sim = SyntheticSim::new(cfg, TrafficPattern::UniformRandom, 0.005);
        let report = sim.run_experiment(5_000, 20_000).unwrap();
        println!(
            "{:<18} {:>13.1} {:>12.2} {:>10.2} {:>6.1} {:>15.1}",
            scheme.label(),
            report.avg_packet_latency(),
            report.avg_pg_encounters(),
            report.avg_wakeup_wait(),
            report.off_fraction() * 100.0,
            pm.static_savings(&report) * 100.0,
        );
    }
    println!(
        "\nPower Punch wakes routers ahead of packets, so it keeps the No-PG\n\
         latency while saving almost as much static energy as blind gating."
    );
}
