//! Layer probes: timed calls into internals below the end-to-end surface
//! (`PowerManager::tick`, `GateArray`, `PunchFabric`, `Codebook`,
//! `RouteView`, `LogHistogram`, `Network::{new,send}`,
//! `TrafficPattern::destination`), replayed on the workload's mesh, scheme
//! and load. Prints one `name value unit` line per metric.
//!
//! A binary of its own so that a later change to one of these signatures
//! costs only these metrics (reported as absent), never the end-to-end run.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use punchsim::core::{build_power_manager, Codebook, GateArray, PunchFabric};
use punchsim::metrics::LogHistogram;
use punchsim::noc::{IdleInfo, Message, MsgClass, Network, PmEvent};
use punchsim::traffic::{InjectionConfig, TrafficPattern};
use punchsim::types::{Mesh, NodeId, RouteView, SchemeKind, SimConfig, SimRng, VnetId};
use punchsim_perf::util::median;
use punchsim_perf::workloads;

/// Cycles of the replayed power-manager stream.
const CYCLES: usize = 8192;
/// Calls per micro-probe (`route`, `destination`, `hist.record`).
const CALLS: usize = 1 << 20;
/// Messages the `send` probe enqueues.
const SENDS: usize = 4096;
/// Share of routers the idle vector marks occupied besides those a head
/// flit just reached.
const OCCUPIED: f64 = 0.02;

/// A seed-generated stream of what the network hands the power manager:
/// per cycle, the `HeadArrival` events of packets walking their routes
/// one hop per `hop` cycles at the workload's packet rate, and an idle
/// vector with the routers holding a head plus `OCCUPIED` of the rest busy.
struct Stream {
    events: Vec<Vec<PmEvent>>,
    idle: Vec<Vec<bool>>,
}

fn stream(view: RouteView, pkt_rate: f64, hop: u64, rng: &mut SimRng) -> Stream {
    let n = view.topo.nodes();
    let per_cycle = pkt_rate * n as f64;
    let node = |rng: &mut SimRng| NodeId(rng.random_range(0..n as u16));
    let mut heads: Vec<(NodeId, NodeId, u64)> = Vec::new();
    let mut busy = vec![false; n];
    let mut events = Vec::with_capacity(CYCLES);
    let mut idle = Vec::with_capacity(CYCLES);
    for c in 0..CYCLES as u64 {
        let mut now = Vec::new();
        let born = per_cycle as u64 + u64::from(rng.random_f64() < per_cycle.fract());
        for _ in 0..born {
            let (src, dst) = (node(rng), node(rng));
            if src != dst {
                now.push(PmEvent::HeadArrival { router: src, dst });
                heads.push((src, dst, c + hop));
            }
        }
        heads.retain_mut(|(at, dst, due)| {
            if *due > c {
                return true;
            }
            let Some(next) = view.next_hop(*at, *dst) else {
                return false;
            };
            now.push(PmEvent::HeadArrival {
                router: next,
                dst: *dst,
            });
            (*at, *due) = (next, c + hop);
            next != *dst
        });
        if c % 64 == 0 {
            for b in &mut busy {
                *b = rng.random_f64() < OCCUPIED;
            }
        }
        let mut vacant: Vec<bool> = busy.iter().map(|b| !b).collect();
        for (at, _, _) in &heads {
            vacant[at.index()] = false;
        }
        events.push(now);
        idle.push(vacant);
    }
    Stream { events, idle }
}

/// Nanoseconds per call of `f` over `calls` calls.
fn ns_per(calls: usize, f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// Median milliseconds of `f` over five runs.
fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let ms: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(wl), Some(seed)) = (
        args.iter()
            .position(|a| a == "--workload")
            .and_then(|i| workloads::by_name(args.get(i + 1)?)),
        args.iter()
            .position(|a| a == "--seed")
            .and_then(|i| args.get(i + 1)?.parse::<u64>().ok()),
    ) else {
        eprintln!("usage: perf_probe --workload <name> --seed <n>");
        return ExitCode::from(2);
    };
    let (w, h, rate) = wl.probe;
    let mut cfg = SimConfig::with_scheme(wl.scheme);
    cfg.noc.topology = Mesh::new(w, h).into();
    cfg.seed = seed;
    let view = cfg.noc.view();
    let n = view.topo.nodes();
    let mut rng = SimRng::seed_from_u64(seed);
    let node = |rng: &mut SimRng| NodeId(rng.random_range(0..n as u16));
    let flits = InjectionConfig::at_rate(rate)
        .avg_packet_flits(cfg.noc.ctrl_packet_flits, cfg.noc.data_packet_flits);
    let s = stream(view, rate / flits, cfg.noc.hop_latency(), &mut rng);

    // core: the whole manager, then the two mechanisms below it.
    let mut pm = build_power_manager(&cfg).expect("workload configs are valid");
    let pm_ns = ns_per(CYCLES, || {
        for (c, (ev, idle)) in s.events.iter().zip(&s.idle).enumerate() {
            pm.tick(c as u64, ev, IdleInfo { idle });
        }
    });
    black_box(pm.counters());
    let gated = wl.scheme != SchemeKind::NoPg;
    let gate_ns = if gated {
        let mut gates = GateArray::new(n, cfg.power.wakeup_latency, cfg.power.idle_timeout);
        let ns = ns_per(CYCLES, || {
            for (c, (ev, idle)) in s.events.iter().zip(&s.idle).enumerate() {
                gates.begin_cycle(c as u64);
                for e in ev {
                    if let PmEvent::HeadArrival { router, dst } = *e {
                        gates.request_wake(view.router_ahead(router, dst, 1), c as u64);
                    }
                }
                gates.advance_idle(idle, |_| true);
            }
        });
        black_box(gates.counters());
        ns
    } else {
        0.0
    };
    let punches = matches!(
        wl.scheme,
        SchemeKind::PowerPunchSignal | SchemeKind::PowerPunchFull
    );
    let fabric_ns = if punches {
        let mut fabric = PunchFabric::new(view, cfg.power.punch_hops);
        let mut notified = 0usize;
        let ns = ns_per(CYCLES, || {
            for ev in &s.events {
                for e in ev {
                    if let PmEvent::HeadArrival { router, dst } = *e {
                        fabric.generate(router, dst);
                    }
                }
                fabric.tick(|r| notified += r.index());
            }
        });
        black_box((notified, fabric.hops_sent));
        ns
    } else {
        0.0
    };
    println!("core.pm_tick_ns_per_cycle {pm_ns} ns");
    println!("core.gate_ns_per_cycle {gate_ns} ns");
    println!("core.fabric_ns_per_cycle {fabric_ns} ns");
    println!(
        "core.scheme_logic_ns_per_cycle {} ns",
        (pm_ns - gate_ns - fabric_ns).max(0.0)
    );
    println!(
        "core.build_pm_ms {} ms",
        median_ms(|| build_power_manager(&cfg).map(|_| ()))
    );
    println!(
        "core.codebook_enumerate_ms {} ms",
        median_ms(|| Codebook::enumerate(view, cfg.power.punch_hops))
    );

    // noc: construction and the injection entry point.
    let mut new_ms = Vec::new();
    let mut net = None;
    for _ in 0..5 {
        let pm = build_power_manager(&cfg).expect("workload configs are valid");
        let started = Instant::now();
        let built = Network::new(&cfg.noc, pm).expect("workload configs are valid");
        new_ms.push(started.elapsed().as_secs_f64() * 1e3);
        net = Some(built);
    }
    println!("noc.new_ms {} ms", median(&new_ms));
    let mut net = net.expect("built above");
    let pairs: Vec<(NodeId, NodeId)> = (0..CALLS)
        .map(|_| (node(&mut rng), node(&mut rng)))
        .collect();
    let send_ns = ns_per(SENDS, || {
        for &(src, dst) in pairs.iter().filter(|(a, b)| a != b).take(SENDS) {
            let sent = net.send(Message {
                src,
                dst,
                vnet: VnetId(0),
                class: MsgClass::Control,
                payload: 0,
                gen_cycle: 0,
            });
            black_box(sent.is_ok());
        }
    });
    println!("noc.send_ns {send_ns} ns");

    // types, traffic, metrics: one hot function each.
    let route_ns = ns_per(CALLS, || {
        for &(a, b) in &pairs {
            black_box(view.next_hop(a, b));
        }
    });
    println!("types.route_ns {route_ns} ns");
    let dest_ns = ns_per(CALLS, || {
        for &(src, _) in &pairs {
            black_box(TrafficPattern::UniformRandom.destination(view.topo, src, &mut rng));
        }
    });
    println!("traffic.destination_ns {dest_ns} ns");
    let samples: Vec<u64> = (0..CALLS).map(|_| rng.random_range(1..2048u64)).collect();
    let mut hist = LogHistogram::new();
    let hist_ns = ns_per(CALLS, || {
        for &v in &samples {
            hist.record(v);
        }
    });
    black_box(hist.count());
    println!("metrics.hist_record_ns {hist_ns} ns");
    ExitCode::SUCCESS
}
