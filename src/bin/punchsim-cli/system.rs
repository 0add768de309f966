//! The commands that run no synthetic traffic: the full-system `parsec`
//! run, and `list-schemes` (what `--scheme` accepts).

use std::process::ExitCode;

use punchsim::prelude::*;

use super::parse::Opts;
use super::synth::sim_err;
use super::table::Table;

pub fn parsec(opts: &Opts) -> Result<ExitCode, String> {
    let mut cfg = CmpConfig::new(opts.benchmark, opts.scheme);
    cfg.instr_per_core = opts.instr;
    cfg.warmup_instr = opts.instr / 10;
    println!(
        "full-system: {} under {} ({} instructions/core)...",
        opts.benchmark, opts.scheme, opts.instr
    );
    let mut sim = CmpSim::new(cfg);
    sim.network_mut()
        .set_shards(opts.shards)
        .map_err(|e| sim_err(e.into()))?;
    let r = sim.run();
    println!("completed:        {}", r.completed);
    println!("execution cycles: {}", r.exec_cycles);
    println!("L1 miss rate:     {:.3}%", r.l1_miss_rate * 100.0);
    for (level, res) in [("L1", r.l1_residency), ("L2", r.l2_residency)] {
        println!(
            "{level} resident:      {} / {} lines",
            res.resident, res.capacity
        );
    }
    println!("packet latency:   {:.1} cycles", r.net.avg_packet_latency());
    println!("blocked/packet:   {:.2}", r.net.avg_pg_encounters());
    println!(
        "offered load:     {:.4} flits/node/cycle",
        r.net.offered_load
    );
    println!("router off:       {:.1}%", r.net.off_fraction() * 100.0);
    Ok(ExitCode::SUCCESS)
}

/// Prints `SchemeKind::METAS`: every tag with its paper label and one-line
/// description. The single source of truth for what `--scheme` accepts.
pub fn list_schemes(_: &Opts) -> Result<ExitCode, String> {
    let mut t = Table::new("tag|scheme|description");
    for k in SchemeKind::ALL {
        t.row([k.tag(), k.label(), k.meta().description]);
    }
    println!("registered schemes (pass a tag or label to --scheme):");
    println!("{t}");
    Ok(ExitCode::SUCCESS)
}
