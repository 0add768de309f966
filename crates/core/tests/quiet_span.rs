//! `PowerManager::tick_quiet` against the per-cycle loop it stands for,
//! under the widened contract: the plane a quiet span is handed is any
//! constant plane, not only the all-idle one, because the network skips
//! spans in which packets still fly toward some routers. Every manager
//! `build_power_manager` can build — with and without the seeded fault
//! injector — plus each scheme under the scripted injector is driven
//! into a random mix of on, waking and off routers, then through a span
//! whose plane keeps some of each busy.

use punchsim_core::build_power_manager;
use punchsim_core::faults::FaultInjector;
use punchsim_noc::{IdleInfo, PmEvent, PowerManager, PowerState};
use punchsim_types::{Cycle, Mesh, NodeId, SchemeKind, SimConfig, SimRng, StuckEpoch};

const N: u16 = 16;

/// Every manager under test, by name: each scheme bare, under the seeded
/// injector (jitter, drops, one stuck-off epoch) and under the scripted
/// one.
fn managers() -> Vec<(String, SimConfig, bool)> {
    let mut out = Vec::new();
    for scheme in SchemeKind::ALL {
        let mut cfg = SimConfig::with_scheme(scheme);
        cfg.noc.topology = Mesh::new(4, 4).into();
        out.push((format!("{scheme:?}"), cfg.clone(), false));
        out.push((format!("{scheme:?}/scripted"), cfg.clone(), true));
        cfg.faults.seed = 0x51E7;
        cfg.faults.max_wakeup_jitter = 2;
        cfg.faults.drop_punch_ppm = 100_000;
        cfg.faults.drop_wu_ppm = 50_000;
        cfg.faults.stuck_epochs = vec![StuckEpoch {
            router: NodeId(5),
            start: 20,
            duration: 30,
        }];
        out.push((format!("{scheme:?}/seeded"), cfg, false));
    }
    out
}

fn build(cfg: &SimConfig, scripted: bool) -> Box<dyn PowerManager> {
    let pm = build_power_manager(cfg).expect("valid config");
    if scripted {
        Box::new(FaultInjector::scripted(pm, cfg.noc.topology))
    } else {
        pm
    }
}

/// One random cycle of stimulus: sparse events of every kind, mostly
/// idle routers.
fn stimulus(rng: &mut SimRng) -> (Vec<PmEvent>, Vec<bool>) {
    let mut events = Vec::new();
    for _ in 0..rng.random_range(0..3u32) {
        let (a, b) = (rng.random_range(0..N), rng.random_range(0..N));
        let (a, b) = (NodeId(a), NodeId(b));
        events.push(match rng.random_range(0..5u32) {
            0 => PmEvent::HeadArrival { router: a, dst: b },
            1 => PmEvent::BlockedNeed { router: a },
            2 => PmEvent::NiMessageKnown { node: a, dst: b },
            3 => PmEvent::FutureInjection { node: a },
            _ => PmEvent::NiReadyToInject { node: a, dst: b },
        });
    }
    let idle = (0..N).map(|_| !rng.random_bool_ppm(100_000)).collect();
    (events, idle)
}

/// Everything observable about a manager: power states, counters and,
/// where it encodes, its snapshot bytes.
fn observe(pm: &dyn PowerManager, now: Cycle) -> (Vec<PowerState>, String, Option<Vec<u8>>) {
    let states = (0..N).map(|r| pm.state(NodeId(r))).collect();
    let mut bytes = Vec::new();
    let encoded = pm.encode_state(now, &mut bytes).then_some(bytes);
    (states, format!("{:?}", pm.counters()), encoded)
}

/// `tick_quiet(from, to, idle)` leaves exactly what `to - from` calls of
/// `tick(c, &[], idle)` leave, for random constant planes with busy on,
/// waking and off routers, span lengths from one cycle to thousands, and
/// states reached by random event traces; and the two stay in step on
/// the per-cycle trace that follows.
#[test]
fn tick_quiet_with_busy_routers_matches_the_per_cycle_loop() {
    let mut rng = SimRng::seed_from_u64(0x0B05_7A11);
    let mut busy_in = [0u32; 3]; // on, waking, off at the span's start
    for (name, cfg, scripted) in managers() {
        for trial in 0..12 {
            let (mut slow, mut fast) = (build(&cfg, scripted), build(&cfg, scripted));
            let mut c: Cycle = 0;
            for _ in 0..rng.random_range(5..60u32) {
                let (events, idle) = stimulus(&mut rng);
                slow.tick(c, &events, IdleInfo { idle: &idle });
                fast.tick(c, &events, IdleInfo { idle: &idle });
                c += 1;
            }
            let idle: Vec<bool> = (0..N).map(|_| rng.random_range(0..4u32) != 0).collect();
            for (r, _) in idle.iter().enumerate().filter(|(_, &i)| !i) {
                busy_in[match slow.state(NodeId(r as u16)) {
                    PowerState::On => 0,
                    PowerState::WakingUp { .. } => 1,
                    PowerState::Off => 2,
                }] += 1;
            }
            let span = if trial == 0 {
                5_000
            } else {
                rng.random_range(1..120u64)
            };
            for at in c..c + span {
                slow.tick(at, &[], IdleInfo { idle: &idle });
            }
            fast.tick_quiet(c, c + span, IdleInfo { idle: &idle });
            c += span;
            let at = format!("{name} trial {trial} span {span}");
            assert_eq!(observe(&*slow, c), observe(&*fast, c), "{at}");
            for _ in 0..20 {
                let (events, idle) = stimulus(&mut rng);
                slow.tick(c, &events, IdleInfo { idle: &idle });
                fast.tick(c, &events, IdleInfo { idle: &idle });
                c += 1;
            }
            assert_eq!(observe(&*slow, c), observe(&*fast, c), "{at}, after");
        }
    }
    assert!(
        busy_in.iter().all(|&n| n > 20),
        "busy on/waking/off: {busy_in:?}"
    );
}
