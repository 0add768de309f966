//! §6.6(2): scalability — PowerPunch-PG's latency reduction over ConvOpt-PG
//! at a fixed light load for 4x4 through 64x64 meshes.
//!
//! Paper shape to match: 43.4% / 54.9% / 69.1% at 0.01 flits/node/cycle
//! for 4x4/8x8/16x16 — the advantage grows with network size because
//! conventional gating accumulates wakeup latency per hop while punch
//! signals always run H hops ahead. Our ConvOpt baseline additionally
//! overlaps the wakeup tail with flit transit (see DESIGN.md), which
//! makes it stronger on long paths, so the trend is reproduced at a lower
//! load (0.002) and with a gentler slope; see EXPERIMENTS.md.
//!
//! The 32x32 and 64x64 rows extrapolate past the paper's largest mesh
//! (no published number — the paper column shows "—"): they exist to
//! exercise the SoA busy-tick kernel at the sizes it was built for, and
//! to check the hop-count advantage keeps holding as diameters double.
//! Sharded ticking speeds such meshes up without changing a single
//! result byte: run the `busy` campaign suite with `--shards N`.

use punchsim::stats::Table;
use punchsim::traffic::{SyntheticSim, TrafficPattern};
use punchsim::types::{Mesh, SchemeKind, SimConfig};
use punchsim_bench::synth_cycles;

fn main() {
    println!("== §6.6(2): scalability at 0.002 flits/node/cycle ==");
    let mut t = Table::new([
        "mesh",
        "No-PG",
        "ConvOpt-PG",
        "PowerPunch-PG",
        "PP-PG reduction vs ConvOpt",
        "paper",
    ]);
    let mut reductions = Vec::new();
    let meshes = [
        ((4u16, 4u16), "43.4%"),
        ((8, 8), "54.9%"),
        ((16, 16), "69.1%"),
        ((32, 32), "—"),
        ((64, 64), "—"),
    ];
    for ((w, h), paper) in meshes {
        let run = |scheme| {
            let mut cfg = SimConfig::with_scheme(scheme);
            cfg.noc.topology = Mesh::new(w, h).into();
            let mut sim = SyntheticSim::new(cfg, TrafficPattern::UniformRandom, 0.002);
            sim.run_experiment(synth_cycles() / 4, synth_cycles()).unwrap()
                .avg_packet_latency()
        };
        let no = run(SchemeKind::NoPg);
        let conv = run(SchemeKind::ConvOptPg);
        let pp = run(SchemeKind::PowerPunchFull);
        let red = 1.0 - pp / conv;
        reductions.push(red);
        t.row([
            format!("{w}x{h}"),
            format!("{no:.1}"),
            format!("{conv:.1}"),
            format!("{pp:.1}"),
            format!("{:.1}%", red * 100.0),
            paper.to_string(),
        ]);
    }
    println!("{t}");
    assert!(
        *reductions.last().unwrap() > reductions[0] - 0.01,
        "the advantage must not shrink with mesh size: {reductions:?}"
    );
    println!("disc_scalability: OK (advantage sustained as the network grows)");
}
