//! `figure NAME`: the paper's evaluation, one [`FIGURES`] row per artifact —
//! Table 1, Figures 7–13, §6.6, the §2.1 motivation number and the ablations
//! of the design choices. A row's `Err` — a shape the reproduction must have
//! and does not — is the command's exit status. `--smoke` shortens every run.
//!
//! Three families: the analytic rows read the [`Codebook`]; the PARSEC rows
//! share one pass over `campaign::PARSEC` ([`Ctx::parsec`]); the synthetic
//! rows are points × schemes × columns through [`synth_table`], each run
//! as long as `campaign::SYNTH`'s.

use std::process::ExitCode;

use punchsim::campaign::{self, Metrics, Size};
use punchsim::core::manager::PowerPunchManager;
use punchsim::core::Codebook;
use punchsim::noc::{Message, MsgClass};
use punchsim::power::AreaModel;
use punchsim::prelude::*;
use punchsim::traffic::InjectionConfig;
use punchsim::types::SchemeKind::{ConvOptPg, ConvPg, NoPg, PowerPunchFull, PowerPunchSignal};

use super::parse::Opts;
use super::synth::{percent, sim_err, Cell, BLOCKED, LATENCY, OFF, WAIT};
use super::table::Table;

/// One reproduced artifact.
pub struct Figure {
    pub name: &'static str,
    /// The paper artifact and what the row measures.
    pub artifact: &'static str,
    /// The paper's numbers, or the shape it argues for where it has none.
    pub paper: &'static str,
    run: fn(&mut Ctx) -> Result<(), String>,
}

pub const FIGURES: &[Figure] = &[
    Figure {
        name: "table1_codebook",
        artifact: "Table 1: punch-signal sets, X+ link of R27 (8x8, H=3)",
        paper: "22 sets in 5 bits; Y-direction links 2 bits",
        run: table1_codebook,
    },
    Figure {
        name: "fig07_latency",
        artifact: "Figure 7: average packet latency (cycles), PARSEC",
        paper: "over No-PG: ConvOpt-PG +69.1%, PowerPunch-Signal +12.6%, PowerPunch-PG +7.9%",
        run: fig07_latency,
    },
    Figure {
        name: "fig08_exec_time",
        artifact: "Figure 8: execution time normalized to No-PG",
        paper: "PowerPunch-Signal +2.3%, PowerPunch-PG +0.4%; ConvOpt-PG visibly worse",
        run: fig08_exec_time,
    },
    Figure {
        name: "fig09_blocked_routers",
        artifact: "Figure 9: powered-off routers encountered per packet",
        paper: "4.21 (ConvOpt-PG) -> 1.09 (PowerPunch-Signal) -> 0.96 (PowerPunch-PG)",
        run: fig09_blocked_routers,
    },
    Figure {
        name: "fig10_wakeup_wait",
        artifact: "Figure 10: cycles/packet waiting for router wakeup",
        paper: "PP-PG improves on PP-Signal by 36.2% (the NI slack); both far below ConvOpt-PG",
        run: fig10_wakeup_wait,
    },
    Figure {
        name: "fig11_energy",
        artifact: "Figure 11: router energy breakdown, normalized",
        paper: "~83% net static saved by all three; total saved 50.3% / 52.9% / 54.1%",
        run: fig11_energy,
    },
    Figure {
        name: "fig12_sweeps",
        artifact: "Figure 12: latency / static power vs load",
        paper:
            "ConvOpt-PG is worst at low load, above No-PG everywhere; PowerPunch-PG tracks\n       \
                No-PG to the same saturation; both gate static power from ~0 W up to ~1.8 W",
        run: fig12_sweeps,
    },
    Figure {
        name: "fig13_sensitivity",
        artifact: "Figure 13: wakeup-latency / pipeline sensitivity",
        paper:
            "PP-PG within 2.4%-9.2% of No-PG, worst at Twakeup=10 on the 3-stage router\n       \
                (3-hop punches hide at most 9 cycles); ConvOpt-PG is 1.5x-2x",
        run: fig13_sensitivity,
    },
    Figure {
        name: "disc_motivation",
        artifact: "§2.1: static share of router power under No-PG",
        paper: "~64% at real-application loads (ours are lower and smoother: static dominates)",
        run: disc_motivation,
    },
    Figure {
        name: "disc_area",
        artifact: "§6.6(1): punch-network hardware cost",
        paper: "2.4% additional NoC area for the 5-bit/2-bit H=3 design",
        run: disc_area,
    },
    Figure {
        name: "disc_scalability",
        artifact: "§6.6(2): PP-PG latency reduction vs ConvOpt by mesh",
        paper: "43.4% / 54.9% / 69.1% for 4x4 / 8x8 / 16x16 at 0.01: the advantage grows\n       \
                (our ConvOpt overlaps wakeup with flit transit: shown at 0.002, gentler slope)",
        run: disc_scalability,
    },
    Figure {
        name: "abl_punch_hops",
        artifact: "§4.1 ablation: punch depth H (3-stage, Twakeup=8)",
        paper: "H=2 cannot cover Twakeup=8 (2 x Trouter = 6), H=3 can; H=4 only spends wires",
        run: abl_punch_hops,
    },
    Figure {
        name: "abl_timeout",
        artifact: "§2.3 ablation: idle timeout (the paper fixes 4)",
        paper: "ConvOpt trades latency for savings through the timeout; PP-PG's latency stays flat",
        run: abl_timeout,
    },
    Figure {
        name: "abl_conv_opts",
        artifact: "§2.3 ablation: Conv -> ConvOpt -> PP-Signal -> PP-PG",
        paper:
            "each step cuts waiting: blocked-only > one-hop early wakeups > punches > + NI slack",
        run: abl_conv_opts,
    },
    Figure {
        name: "abl_ni_slacks",
        artifact: "§4.2 ablation: the two NI slack sources, separately",
        paper: "slack 1 helps the first hops, slack 2 removes the local wakeup; both make PP-PG",
        run: abl_ni_slacks,
    },
    Figure {
        name: "abl_burstiness",
        artifact: "ablation: traffic burstiness (0.005 flits/node/cycle)",
        paper: "bursts lengthen idle periods for all; PP-PG stays at No-PG, ConvOpt pays at onsets",
        run: abl_burstiness,
    },
];

/// What a row runs over: the command line, and the PARSEC campaign once
/// any row has asked for it.
struct Ctx<'a> {
    opts: &'a Opts,
    parsec: Option<Vec<Metrics>>,
}

pub fn figure(opts: &Opts) -> Result<ExitCode, String> {
    let mut ctx = Ctx { opts, parsec: None };
    let mut failed = 0;
    for f in opts.figures {
        println!("== {}: {} ==\npaper: {}", f.name, f.artifact, f.paper);
        match (f.run)(&mut ctx) {
            Ok(()) => println!("{}: OK\n", f.name),
            Err(e) => {
                failed += 1;
                println!("{}: FAILED: {e}\n", f.name);
            }
        }
    }
    match failed {
        0 => Ok(ExitCode::SUCCESS),
        n => Err(format!("{n} of {} figure(s) failed", opts.figures.len())),
    }
}

fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

fn pct(ratio: f64) -> String {
    percent(ratio) + "%"
}

// --- analytic rows: the codebook -----------------------------------------

fn table1_codebook(_: &mut Ctx) -> Result<(), String> {
    let cb = Codebook::enumerate(Mesh::new(8, 8), 3);
    let link = cb.link(NodeId(27), Direction::East).expect("interior link");
    let mut t = Table::new("#|set of targeted routers|punch signal");
    for (i, set) in link.sets().iter().enumerate() {
        let code = link.encode(set).expect("in codebook");
        t.row([(i + 1).to_string(), set.to_string(), format!("{code:05b}")]);
    }
    println!("{t}");
    let (sets, bits, y) = (link.set_count(), link.width_bits(), cb.max_y_width());
    println!("measured: {sets} sets in {bits} bits; Y-direction links {y} bits");
    ensure((sets, bits, y) == (22, 5, 2), || {
        "Table 1 must reproduce exactly".into()
    })
}

fn disc_area(_: &mut Ctx) -> Result<(), String> {
    let area = AreaModel::default_45nm();
    let mut t = Table::new("punch depth H|X bits|Y bits|wire bits/router|NoC area overhead");
    let [_, h3, _] = [2u16, 3, 4].map(|h| {
        let cb = Codebook::enumerate(Mesh::new(8, 8), h);
        let (x, y) = (cb.max_x_width(), cb.max_y_width());
        let overhead = area.punch_overhead(x, y);
        let wires = [u32::from(h), x, y, 2 * x + 2 * y].map(|n| n.to_string());
        t.row(wires.into_iter().chain([pct(overhead)]));
        overhead
    });
    println!("{t}");
    ensure((0.015..0.035).contains(&h3), || {
        format!("H=3 area overhead {h3} out of band")
    })
}

// --- PARSEC rows: one campaign pass --------------------------------------

/// How many schemes each benchmark of the campaign ran under.
const EVALUATED: usize = SchemeKind::EVALUATED.len();

impl Ctx<'_> {
    /// The metrics of `campaign::PARSEC` — every benchmark under
    /// every evaluated scheme, benchmark-major — run (or loaded from the
    /// result store) on first use and shared by all six PARSEC rows.
    fn parsec(&mut self) -> Result<&[Metrics], String> {
        if self.parsec.is_none() {
            let specs = campaign::PARSEC.specs(campaign::DEFAULT_SEED, self.opts.size);
            let runner = Runner {
                threads: self.opts.threads,
                store: (!self.opts.no_cache).then(Store::in_target),
                ..Runner::default()
            };
            let outcomes = runner.run_with(&specs, &|_, outcome| {
                if let Some(rec) = outcome.record().filter(|rec| !rec.cached) {
                    eprintln!("ran {}", rec.spec.id());
                }
            });
            let metrics = outcomes.iter().map(|outcome| match outcome.record() {
                Some(rec) if rec.metrics.completed => Ok(rec.metrics.clone()),
                Some(rec) => Err(format!("{} did not complete", rec.spec.id())),
                None => Err(outcome.error().expect("not a record").to_string()),
            });
            self.parsec = Some(metrics.collect::<Result<_, _>>()?);
        }
        Ok(self.parsec.as_deref().expect("filled above"))
    }
}

/// Each benchmark with its runs, in `SchemeKind::EVALUATED` order.
fn per_benchmark(runs: &[Metrics]) -> impl Iterator<Item = (Benchmark, &[Metrics])> {
    Benchmark::ALL.into_iter().zip(runs.chunks(EVALUATED))
}

/// Mean over the benchmarks of `f(run under scheme `ix`, its No-PG run)`.
fn mean(runs: &[Metrics], ix: usize, f: impl Fn(&Metrics, &Metrics) -> f64) -> f64 {
    let sum: f64 = per_benchmark(runs).map(|(_, r)| f(&r[ix], &r[0])).sum();
    sum / Benchmark::ALL.len() as f64
}

/// One row per benchmark, one `cell(run, its No-PG run)` per evaluated
/// scheme from index `from` on.
fn benchmark_table(runs: &[Metrics], from: usize, cell: impl Fn(&Metrics, &Metrics) -> String) {
    let schemes = SchemeKind::EVALUATED[from..].iter().map(|s| s.label());
    let mut t = Table::new(&format!(
        "benchmark|{}",
        schemes.collect::<Vec<_>>().join("|")
    ));
    for (b, r) in per_benchmark(runs) {
        let cells = r[from..].iter().map(|m| cell(m, &r[0]));
        t.row([b.name().to_string()].into_iter().chain(cells));
    }
    println!("{t}");
}

fn label(ix: usize) -> &'static str {
    SchemeKind::EVALUATED[ix].label()
}

fn fig07_latency(ctx: &mut Ctx) -> Result<(), String> {
    let runs = ctx.parsec()?;
    benchmark_table(runs, 0, |m, _| format!("{:.1}", m.latency));
    let base = mean(runs, 0, |m, _| m.latency);
    println!("average latency increase over No-PG (paper in parentheses):");
    for (ix, paper) in [(1, "+69.1%"), (2, "+12.6%"), (3, "+7.9%")] {
        let avg = mean(runs, ix, |m, _| m.latency);
        let up = (avg / base - 1.0) * 100.0;
        println!("  {:<18} {up:+.1}%   (paper {paper})", label(ix));
    }
    Ok(())
}

fn fig08_exec_time(ctx: &mut Ctx) -> Result<(), String> {
    let runs = ctx.parsec()?;
    let slowdown = |m: &Metrics, base: &Metrics| m.exec_cycles as f64 / base.exec_cycles as f64;
    benchmark_table(runs, 0, |m, base| format!("{:.3}", slowdown(m, base)));
    println!("average execution-time increase (paper in parentheses):");
    for (ix, paper) in [(1, ""), (2, "   (paper +2.3%)"), (3, "   (paper +0.4%)")] {
        let up = (mean(runs, ix, slowdown) - 1.0) * 100.0;
        println!("  {:<18} {up:+.2}%{paper}", label(ix));
    }
    Ok(())
}

fn fig09_blocked_routers(ctx: &mut Ctx) -> Result<(), String> {
    let runs = ctx.parsec()?;
    benchmark_table(runs, 1, |m, _| format!("{:.2}", m.encounters));
    println!("averages (paper in parentheses):");
    for (ix, paper) in [(1, "4.21"), (2, "1.09"), (3, "0.96")] {
        let avg = mean(runs, ix, |m, _| m.encounters);
        println!("  {:<18} {avg:.2}   (paper {paper})", label(ix));
    }
    Ok(())
}

fn fig10_wakeup_wait(ctx: &mut Ctx) -> Result<(), String> {
    let runs = ctx.parsec()?;
    benchmark_table(runs, 1, |m, _| format!("{:.2}", m.wait));
    let [conv, pps, ppf] = [1, 2, 3].map(|ix| mean(runs, ix, |m, _| m.wait));
    println!("averages: ConvOpt {conv:.2}, PP-Signal {pps:.2}, PP-PG {ppf:.2}");
    if pps > 0.0 {
        let gain = pct(1.0 - ppf / pps);
        println!("PP-PG improvement over PP-Signal: {gain}   (paper: 36.2%)");
    }
    Ok(())
}

fn fig11_energy(ctx: &mut Ctx) -> Result<(), String> {
    let runs = ctx.parsec()?;
    let total = |m: &Metrics| m.dynamic_pj + m.static_pj + m.overhead_pj;
    let mut t = Table::new("benchmark|scheme|dynamic|static|PG overhead|total");
    for (b, r) in per_benchmark(runs) {
        let base = total(&r[0]);
        for (ix, m) in r.iter().enumerate() {
            let parts = [m.dynamic_pj, m.static_pj, m.overhead_pj, total(m)];
            let cells = parts.map(|pj| format!("{:.3}", pj / base));
            t.row(
                [b.name(), label(ix)]
                    .map(String::from)
                    .into_iter()
                    .chain(cells),
            );
        }
    }
    println!("{t}");
    println!("averages (paper in parentheses):");
    for (ix, paper) in ["0.0%", "50.3%", "52.9%", "54.1%"].into_iter().enumerate() {
        let spent = mean(runs, ix, |m, base| total(m) / total(base));
        let net_static = mean(runs, ix, |m, base| {
            (m.static_pj + m.overhead_pj) / base.static_pj
        });
        println!(
            "  {:<18} total energy saved {:>5.1}% (paper {paper}); \
             net static saved {:>5.1}% (paper ~83%)",
            label(ix),
            (1.0 - spent) * 100.0,
            (1.0 - net_static) * 100.0,
        );
    }
    Ok(())
}

fn disc_motivation(ctx: &mut Ctx) -> Result<(), String> {
    let runs = ctx.parsec()?;
    let static_share = |m: &Metrics, _: &Metrics| m.static_pj / (m.dynamic_pj + m.static_pj);
    let mut t = Table::new("benchmark|static share|offered traffic energy share");
    for (b, r) in per_benchmark(runs) {
        let share = static_share(&r[0], &r[0]);
        t.row([b.name().to_string(), pct(share), pct(1.0 - share)]);
    }
    println!("{t}");
    let avg = mean(runs, 0, static_share);
    println!("average static share: {}   (paper: ~64%)", pct(avg));
    ensure(avg > 0.6, || {
        format!("static must dominate at real-application loads (got {avg})")
    })
}

// --- synthetic rows: points x schemes x columns ---------------------------

/// One synthetic experiment of a row.
struct Exp {
    cfg: SimConfig,
    pattern: TrafficPattern,
    inj: InjectionConfig,
}

impl Exp {
    /// `scheme`'s default configuration after `tweak`, under uniform-random
    /// traffic at `rate` flits/node/cycle.
    fn uniform(scheme: SchemeKind, rate: f64, tweak: impl FnOnce(&mut SimConfig)) -> Exp {
        let mut cfg = SimConfig::with_scheme(scheme);
        tweak(&mut cfg);
        let pattern = TrafficPattern::UniformRandom;
        let inj = InjectionConfig::at_rate(rate);
        Exp { cfg, pattern, inj }
    }

    /// Runs for the `synth` suite's window at `size`.
    fn run(self, size: Size) -> Result<NetworkReport, String> {
        let (warmup, measure) = campaign::SYNTH.window(size);
        SyntheticSim::with_injection(self.cfg, self.pattern, self.inj)
            .run_experiment(warmup, measure)
            .map_err(sim_err)
    }
}

/// The schemes of Figures 12 and 13, and 0.005 flits/node/cycle, the
/// PARSEC-average load (see EXPERIMENTS.md) of Figure 13 and the ablations.
const THREE: [SchemeKind; 3] = [NoPg, ConvOptPg, PowerPunchFull];
const PARSEC_LOAD: f64 = 0.005;

/// A column — a [`Cell`], or a closure over what the row measured first —
/// and a trailing cell over all of a row's reports.
type Col<'a> = &'a dyn Fn(&NetworkReport) -> String;
type Tail<'a> = &'a dyn Fn(&[NetworkReport]) -> String;
const SAVED: Cell = |r| percent(PowerModel::default_45nm().static_savings(r));

/// The shape the synthetic rows share. Each table row is a point: its label,
/// then its experiments — one per scheme, or just one — run and read through
/// every column (column-major: all experiments under the first column, then
/// the second, ...), then `tail`'s cell over the row's reports. `header` and
/// each label separate their cells with `|`. Prints the table; returns the reports.
fn synth_table(
    size: Size,
    header: &str,
    points: impl IntoIterator<Item = (String, Vec<Exp>)>,
    cols: &[Col],
    tail: Option<Tail>,
) -> Result<Vec<Vec<NetworkReport>>, String> {
    let mut t = Table::new(header);
    let mut all = Vec::new();
    for (label, exps) in points {
        let mut cells: Vec<String> = label.split('|').map(String::from).collect();
        let reports = exps.into_iter().map(|exp| exp.run(size));
        let reports: Vec<NetworkReport> = reports.collect::<Result<_, _>>()?;
        for col in cols {
            cells.extend(reports.iter().map(col));
        }
        cells.extend(tail.map(|cell| cell(&reports)));
        t.row(cells);
        all.push(reports);
    }
    println!("{t}");
    Ok(all)
}

fn fig12_sweeps(ctx: &mut Ctx) -> Result<(), String> {
    let pm = PowerModel::default_45nm();
    for pattern in TrafficPattern::FIGURE12 {
        // Transpose and bit-complement saturate earlier than uniform.
        let rates: &[f64] = if pattern == TrafficPattern::UniformRandom {
            &[0.0025, 0.01, 0.02, 0.04, 0.08, 0.12, 0.16, 0.20]
        } else {
            &[0.0025, 0.01, 0.02, 0.04, 0.06, 0.09, 0.12]
        };
        let point = |&rate: &f64| {
            let exps = THREE.map(|scheme| Exp {
                pattern,
                ..Exp::uniform(scheme, rate, |_| {})
            });
            (format!("{rate:.4}"), exps.into())
        };
        println!("{pattern}:");
        synth_table(
            ctx.opts.size,
            "load|No-PG lat|ConvOpt lat|PP-PG lat|No-PG W|ConvOpt W|PP-PG W",
            rates.iter().map(point),
            &[&LATENCY, &|r| format!("{:.2}", pm.static_power_watts(r))],
            None,
        )?;
    }
    Ok(())
}

fn fig13_sensitivity(ctx: &mut Ctx) -> Result<(), String> {
    let grid = [(3u8, [6u32, 8, 10]), (4u8, [8, 10, 12])];
    let points = grid.into_iter().flat_map(|(stages, wakeups)| {
        wakeups.map(|wakeup| {
            let tweak = |cfg: &mut SimConfig| {
                cfg.noc.router_stages = stages;
                cfg.power.wakeup_latency = wakeup;
                cfg.power.punch_hops = 3;
            };
            let exps = THREE.map(|scheme| Exp::uniform(scheme, PARSEC_LOAD, tweak));
            (format!("{stages}-stage|{wakeup}"), exps.into())
        })
    });
    synth_table(
        ctx.opts.size,
        "router|Twakeup|No-PG|ConvOpt-PG|PowerPunch-PG|PP-PG vs No-PG",
        points,
        &[&LATENCY],
        Some(&|r| {
            let over = r[2].avg_packet_latency() / r[0].avg_packet_latency() - 1.0;
            format!("{:+.1}%", over * 100.0)
        }),
    )
    .map(drop)
}

/// The 32x32 and 64x64 rows extrapolate past the paper's largest mesh: they
/// are printed as observations, not asserted — the reduction peaks at 16x16.
fn disc_scalability(ctx: &mut Ctx) -> Result<(), String> {
    let paper = ["43.4%", "54.9%", "69.1%", "—", "—"];
    let point = |(side, paper): (u16, &str)| {
        let tweak = |cfg: &mut SimConfig| cfg.noc.topology = Mesh::new(side, side).into();
        let exps = THREE.map(|scheme| Exp::uniform(scheme, 0.002, tweak));
        (format!("{side}x{side}|{paper}"), exps.into())
    };
    let reduction =
        |r: &[NetworkReport]| 1.0 - r[2].avg_packet_latency() / r[1].avg_packet_latency();
    let reports = synth_table(
        ctx.opts.size,
        "mesh|paper|No-PG|ConvOpt-PG|PowerPunch-PG|PP-PG reduction vs ConvOpt",
        [4, 8, 16, 32, 64].into_iter().zip(paper).map(point),
        &[&LATENCY],
        Some(&|r| pct(reduction(r))),
    )?;
    let reductions: Vec<f64> = reports.iter().map(|r| reduction(r)).collect();
    let (paper_range, beyond) = reductions.split_at(3);
    let [at32, at64] = [beyond[0], beyond[1]].map(pct);
    println!("beyond the paper's range (observations): 32x32 {at32}, 64x64 {at64}");
    ensure(paper_range.windows(2).all(|w| w[1] > w[0]), || {
        format!("the advantage must grow from 4x4 to 16x16: {paper_range:?}")
    })
}

fn abl_punch_hops(ctx: &mut Ctx) -> Result<(), String> {
    let base = Exp::uniform(NoPg, PARSEC_LOAD, |_| {}).run(ctx.opts.size)?;
    let base = base.avg_packet_latency();
    let point = |h: u16| {
        let exp = Exp::uniform(PowerPunchFull, PARSEC_LOAD, |cfg| cfg.power.punch_hops = h);
        (h.to_string(), vec![exp])
    };
    let vs_base =
        |r: &NetworkReport| format!("{:+.1}%", (r.avg_packet_latency() / base - 1.0) * 100.0);
    let punch_hops = |r: &NetworkReport| r.pg.punch_hops.to_string();
    synth_table(
        ctx.opts.size,
        "H|latency|vs No-PG|wait cyc/pkt|off %|static saved %|punch hops sent",
        (1..=4).map(point),
        &[&LATENCY, &vs_base, &WAIT, &OFF, &SAVED, &punch_hops],
        None,
    )
    .map(drop)
}

fn abl_timeout(ctx: &mut Ctx) -> Result<(), String> {
    for scheme in [ConvOptPg, PowerPunchFull] {
        let point = |timeout: u32| {
            let tweak = |cfg: &mut SimConfig| cfg.power.idle_timeout = timeout;
            let exp = Exp::uniform(scheme, PARSEC_LOAD, tweak);
            (timeout.to_string(), vec![exp])
        };
        let wakes = |r: &NetworkReport| r.pg.total_wake_events().to_string();
        println!("under {scheme}:");
        synth_table(
            ctx.opts.size,
            "timeout (cyc)|latency|wait cyc/pkt|off %|wake events|static saved %",
            [2, 4, 8, 16, 32].map(point),
            &[&LATENCY, &WAIT, &OFF, &wakes, &SAVED],
            None,
        )?;
    }
    Ok(())
}

fn abl_conv_opts(ctx: &mut Ctx) -> Result<(), String> {
    let ladder = [NoPg, ConvPg, ConvOptPg, PowerPunchSignal, PowerPunchFull];
    let point = |scheme: SchemeKind| {
        let exp = Exp::uniform(scheme, PARSEC_LOAD, |_| {});
        (scheme.label().to_string(), vec![exp])
    };
    synth_table(
        ctx.opts.size,
        "scheme|latency|blocked/pkt|wait cyc/pkt|off %",
        ladder.map(point),
        &[&LATENCY, &BLOCKED, &WAIT, &OFF],
        None,
    )
    .map(drop)
}

fn abl_burstiness(ctx: &mut Ctx) -> Result<(), String> {
    let points = [0.0, 0.3, 0.6, 0.8].into_iter().flat_map(|b| {
        THREE.map(|scheme| {
            let mut exp = Exp::uniform(scheme, PARSEC_LOAD, |_| {});
            exp.inj.burstiness = b;
            (format!("{b:.1}|{scheme}"), vec![exp])
        })
    });
    synth_table(
        ctx.opts.size,
        "burstiness|scheme|latency|wait/pkt|off %|static saved %",
        points,
        &[&LATENCY, &WAIT, &OFF, &SAVED],
        None,
    )
    .map(drop)
}

/// Slack 1: the destination is known at NI entry, so punches leave
/// `ni_latency` (~3) cycles early. Slack 2: the node knows "a packet is
/// coming" at resource-access start, so the local router wakes ~6 cycles
/// earlier still. `PowerPunchManager::with_slacks` pulls them apart; it is the
/// one manager `build_power_manager` cannot build, hence the hand-driven network.
fn abl_ni_slacks(ctx: &mut Ctx) -> Result<(), String> {
    let header = "slack 1 (NI entry)|slack 2 (resource access)|latency|wait cyc/pkt|blocked/pkt";
    let mut t = Table::new(header);
    let on_off = |on| if on { "on" } else { "off" }.to_string();
    for (s1, s2) in [(false, false), (true, false), (false, true), (true, true)] {
        let cfg = SimConfig::with_scheme(PowerPunchSignal);
        let (topo, hop) = (cfg.noc.topology, cfg.noc.hop_latency());
        let pm = PowerPunchManager::with_slacks(topo, &cfg.power, hop, s1, s2);
        let mut net = Network::new(&cfg.noc, Box::new(pm)).map_err(sim_err)?;
        let r = drive(&mut net, campaign::SYNTH.window(ctx.opts.size)).map_err(sim_err)?;
        t.row([on_off(s1), on_off(s2), LATENCY(&r), WAIT(&r), BLOCKED(&r)]);
    }
    println!("{t}");
    Ok(())
}

/// Drives `net` with a deterministic light load (about one packet every 8
/// cycles on the 64-node mesh), announcing each injection to its node 6
/// cycles ahead — the slack-2 notification.
fn drive(net: &mut Network, (warmup, cycles): (u64, u64)) -> Result<NetworkReport, SimError> {
    let nodes = net.topology().nodes() as u64;
    let mut pending: Vec<(u64, NodeId, NodeId)> = Vec::new();
    let mut seed = 0x9E3779B97F4A7C15u64;
    let mut rand = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for c in 0..(warmup + cycles) {
        if c == warmup {
            net.reset_stats();
        }
        if rand() % 8 == 0 {
            let src = NodeId((rand() % nodes) as u16);
            let dst = NodeId((rand() % nodes) as u16);
            net.notify_future_injection(src)?;
            pending.push((c + 6, src, dst));
        }
        // Announcements are pushed in cycle order: the due ones lead.
        let due = pending.partition_point(|&(at, ..)| at <= c);
        for (_, src, dst) in pending.drain(..due) {
            net.send(Message {
                src,
                dst,
                vnet: VnetId(0),
                class: MsgClass::Control,
                payload: 0,
                gen_cycle: c,
            })?;
        }
        net.tick()?;
        net.drain_delivered();
    }
    Ok(net.report())
}

#[cfg(test)]
mod tests {
    use super::FIGURES;

    /// The rows are exactly the per-experiment index of EXPERIMENTS.md
    /// (its backticked first column), each once.
    #[test]
    fn figures_are_unique_and_match_the_experiments_index() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let index = doc
            .split("## Per-experiment index")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("EXPERIMENTS.md has a per-experiment index");
        let mut documented: Vec<&str> = index
            .lines()
            .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
            .collect();
        let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), 16);
        documented.sort_unstable();
        names.sort_unstable();
        assert_eq!(names, documented);
        names.dedup();
        assert_eq!(names.len(), 16, "duplicate figure name");
    }
}
