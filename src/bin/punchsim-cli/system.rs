//! `parsec`: one full-system run of a PARSEC-like benchmark on the CMP.

use std::process::ExitCode;

use punchsim::prelude::*;

use super::parse::Opts;

pub fn parsec(opts: &Opts) -> Result<ExitCode, String> {
    let mut cfg = CmpConfig::new(opts.benchmark, opts.scheme());
    cfg.instr_per_core = opts.instr;
    cfg.warmup_instr = opts.instr / 10;
    println!(
        "full-system: {} under {} ({} instructions/core)...",
        opts.benchmark,
        opts.scheme(),
        opts.instr
    );
    let r = CmpSim::new(cfg).run();
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
