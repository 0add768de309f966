//! Spatial view: an ASCII heatmap of how often each router is powered off
//! under an asymmetric (hotspot) workload — routers on hot paths stay on,
//! the rest sleep almost permanently. Shows Power Punch gating following
//! the traffic's spatial structure.
//!
//! ```sh
//! cargo run --release --example power_map
//! ```

use punchsim::prelude::*;
use punchsim::types::Coord;

fn main() {
    let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
    let mesh = Substrate::from(Mesh::new(8, 8));
    cfg.noc.topology = mesh;
    // All traffic converges on R27 (the paper's Figure 4 focus router).
    let mut sim = SyntheticSim::new(cfg, TrafficPattern::Hotspot(NodeId(27)), 0.004);
    let report = sim.run_experiment(3_000, 20_000).unwrap();

    println!(
        "router off-time under a hotspot at R27 (PowerPunch-PG, {} cycles)\n",
        report.cycles
    );
    println!("legend: '#' ~always on  '+' mostly on  '.' mostly off  ' ' ~always off\n");
    for y in 0..mesh.height() {
        let mut row = String::new();
        for x in 0..mesh.width() {
            let n = mesh.node(Coord::new(x, y));
            let off = report.pg.off_cycles[n.index()] as f64 / report.cycles as f64;
            let c = match off {
                o if o < 0.25 => '#',
                o if o < 0.50 => '+',
                o if o < 0.85 => '.',
                _ => ' ',
            };
            row.push(c);
            row.push(' ');
        }
        println!("   {row}");
    }
    let total_off = report.off_fraction() * 100.0;
    println!("\nnetwork-wide off fraction: {total_off:.1}%");
    println!(
        "latency {:.1} cycles, wakeup waits {:.2} cycles/packet",
        report.avg_packet_latency(),
        report.avg_wakeup_wait()
    );
}
