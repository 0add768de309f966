//! The fault injector through its public API: the behaviours both decision
//! sources share (one body, run over a seeded and a scripted injector),
//! then what is particular to each. The one test that reaches private
//! state stays beside the code in `src/faults.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use punchsim_core::faults::FaultInjector;
use punchsim_core::PowerPunchManager;
use punchsim_noc::obs::{Event, FaultKind};
use punchsim_noc::{AlwaysOn, IdleInfo, PgCounters, PmEvent, PowerManager, PowerState};
use punchsim_types::{
    ConfigError, Cycle, FaultChoice, FaultConfig, Mesh, NodeId, PowerConfig, SchemeKind, StuckEpoch,
};

const N: usize = 16;

fn mesh() -> Mesh {
    Mesh::new(4, 4)
}

/// A gate-array-free test double: per-router on/off switch, records
/// the events it receives.
struct Recorder {
    counters: PgCounters,
    seen: Vec<PmEvent>,
    off: Vec<bool>,
}

impl Recorder {
    /// All routers on except those in `off`.
    fn boxed(off: &[usize]) -> Box<dyn PowerManager> {
        let mut r = Recorder {
            counters: PgCounters::new(N),
            seen: Vec::new(),
            off: vec![false; N],
        };
        for &i in off {
            r.off[i] = true;
        }
        Box::new(r)
    }
}

impl PowerManager for Recorder {
    fn kind(&self) -> SchemeKind {
        SchemeKind::ConvPg
    }
    fn state(&self, r: NodeId) -> PowerState {
        if self.off[r.index()] {
            PowerState::Off
        } else {
            PowerState::On
        }
    }
    fn tick(&mut self, _cycle: Cycle, events: &[PmEvent], _idle: IdleInfo<'_>) {
        self.seen.extend_from_slice(events);
    }
    fn force_wake(&mut self, r: NodeId, _cycle: Cycle) {
        self.off[r.index()] = false;
    }
    fn counters(&self) -> PgCounters {
        self.counters.clone()
    }
    fn reset_counters(&mut self) {
        self.counters.reset();
    }
}

/// Inner double for quiet-span tests: always Off, no events or state of
/// its own, so a quiet span is a no-op in closed form; counts the cycles
/// it is ticked one at a time.
struct Dormant {
    counters: PgCounters,
    ticks: Arc<AtomicU64>,
}

impl Dormant {
    fn boxed() -> Box<dyn PowerManager> {
        Self::counting(Arc::default())
    }

    fn counting(ticks: Arc<AtomicU64>) -> Box<dyn PowerManager> {
        Box::new(Dormant {
            counters: PgCounters::new(N),
            ticks,
        })
    }
}

impl PowerManager for Dormant {
    fn kind(&self) -> SchemeKind {
        SchemeKind::ConvPg
    }
    fn state(&self, _r: NodeId) -> PowerState {
        PowerState::Off
    }
    fn tick(&mut self, _cycle: Cycle, _events: &[PmEvent], _idle: IdleInfo<'_>) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }
    fn force_wake(&mut self, _r: NodeId, _cycle: Cycle) {}
    fn counters(&self) -> PgCounters {
        self.counters.clone()
    }
    fn reset_counters(&mut self) {
        self.counters.reset();
    }
    fn tick_quiet(&mut self, _from: Cycle, _to: Cycle, _idle: IdleInfo<'_>) {}
    fn encode_state(&self, _now: Cycle, _out: &mut Vec<u8>) -> bool {
        true
    }
}

fn head(router: u16, dst: u16) -> PmEvent {
    PmEvent::HeadArrival {
        router: NodeId(router),
        dst: NodeId(dst),
    }
}

fn wu(router: u16) -> PmEvent {
    PmEvent::BlockedNeed {
        router: NodeId(router),
    }
}

const BUSY: [bool; N] = [false; N];
const IDLE: [bool; N] = [true; N];

fn seeded(inner: Box<dyn PowerManager>, cfg: &FaultConfig) -> FaultInjector {
    FaultInjector::new(inner, cfg, mesh()).unwrap()
}

fn scripted(inner: Box<dyn PowerManager>) -> FaultInjector {
    FaultInjector::scripted(inner, mesh())
}

/// One injector per source over `inner()`, set up for the same faults:
/// `cfg`'s single stuck epoch and, when `cfg` drops every punch, a
/// standing `DropPunch`. The seeded source schedules the epoch itself;
/// the scripted one has it armed by [`tick_both_ways`]. Jitter has no
/// scripted counterpart and only perturbs the seeded instance.
fn both_sources(
    inner: impl Fn() -> Box<dyn PowerManager>,
    cfg: &FaultConfig,
) -> [(&'static str, FaultInjector); 2] {
    assert_eq!(cfg.stuck_epochs.len(), 1);
    let standing = match cfg.drop_punch_ppm {
        0 => FaultChoice::None,
        1_000_000 => FaultChoice::DropPunch,
        other => panic!("no scripted counterpart for drop_punch_ppm = {other}"),
    };
    [
        ("seeded", seeded(inner(), cfg)),
        ("scripted", scripted(inner()).with_standing(standing)),
    ]
}

/// Ticks `f` at `c` over an all-idle plane, first arming the scripted
/// counterpart of `epoch` when its start cycle comes up (`arm_choice` is
/// a `false` no-op on the seeded source, whose config schedules the
/// epoch).
fn tick_both_ways(f: &mut FaultInjector, epoch: StuckEpoch, c: Cycle, events: &[PmEvent]) {
    if c == epoch.start {
        f.arm_choice(FaultChoice::StickOff {
            router: epoch.router,
            duration: Some(epoch.duration),
        });
    }
    f.tick(c, events, IdleInfo { idle: &IDLE });
}

fn one_epoch(router: u16, start: Cycle, duration: Cycle) -> FaultConfig {
    FaultConfig {
        stuck_epochs: vec![StuckEpoch {
            router: NodeId(router),
            start,
            duration,
        }],
        ..FaultConfig::default()
    }
}

// ---- both sources, one body ----

#[test]
fn no_faults_pass_everything_through() {
    let cfg = FaultConfig::default();
    for (name, mut f) in [
        ("seeded", seeded(Recorder::boxed(&[]), &cfg)),
        ("scripted", scripted(Recorder::boxed(&[]))),
    ] {
        for c in 0..10 {
            f.tick(c, &[head(0, 5), wu(3)], IdleInfo { idle: &BUSY });
        }
        assert_eq!(f.stats().total(), 0, "{name}");
        assert_eq!(f.counters().faults_injected, 0, "{name}");
        assert_eq!(f.pending_punches(), 0, "{name}");
    }
}

#[test]
fn stuck_gate_masks_state_swallows_wu_and_force_wake_clears_it() {
    let cfg = one_epoch(3, 5, 1_000);
    let epoch = cfg.stuck_epochs[0];
    // Router 3 is genuinely off.
    for (name, mut f) in both_sources(|| Recorder::boxed(&[3]), &cfg) {
        for c in 0..5 {
            tick_both_ways(&mut f, epoch, c, &[]);
        }
        assert_eq!(f.stats().stuck_epochs_started, 0, "{name}: early");
        tick_both_ways(&mut f, epoch, 5, &[]);
        assert_eq!(f.stats().stuck_epochs_started, 1, "{name}");
        assert_eq!(f.state(NodeId(3)), PowerState::Off, "{name}");
        // WU assertions are swallowed while stuck.
        tick_both_ways(&mut f, epoch, 6, &[wu(3)]);
        assert_eq!(f.stats().wu_dropped, 1, "{name}");
        // Escalation clears the mask and reaches the inner gate.
        f.force_wake(NodeId(3), 7);
        assert_eq!(f.stats().forced_wakes, 1, "{name}");
        assert_eq!(f.state(NodeId(3)), PowerState::On, "{name}: inner woke");
        // The window is gone for good: it must not re-arm.
        for c in 8..30 {
            tick_both_ways(&mut f, epoch, c, &[wu(3)]);
        }
        assert_eq!(f.stats().stuck_epochs_started, 1, "{name}");
        assert_eq!(f.stats().wu_dropped, 1, "{name}");
    }
}

#[test]
fn stick_only_applies_to_an_off_router_and_expires() {
    let cfg = one_epoch(3, 1, 5);
    let epoch = cfg.stuck_epochs[0];
    for (name, mut f) in both_sources(|| Recorder::boxed(&[3]), &cfg) {
        // Router 2 is on: a stick aimed at it never lands. (The seeded
        // twin of this is `seeded_epoch_waits_for_router_to_sleep`.)
        f.arm_choice(FaultChoice::StickOff {
            router: NodeId(2),
            duration: Some(5),
        });
        tick_both_ways(&mut f, epoch, 0, &[]);
        assert_eq!(f.stats().stuck_epochs_started, 0, "{name}");
        // Router 3 is off: it sticks, swallowing WU, until the expiry.
        tick_both_ways(&mut f, epoch, 1, &[]);
        assert_eq!(f.stats().stuck_epochs_started, 1, "{name}");
        tick_both_ways(&mut f, epoch, 2, &[wu(3)]);
        assert_eq!(f.stats().wu_dropped, 1, "{name}");
        // Past the expiry the mask is released (the inner gate is
        // still off, but WU assertions reach it again).
        tick_both_ways(&mut f, epoch, 6, &[]);
        tick_both_ways(&mut f, epoch, 7, &[wu(3)]);
        assert_eq!(f.stats().wu_dropped, 1, "{name}: released");
    }
}

#[test]
fn tracing_surfaces_injected_faults_as_events() {
    let cfg = FaultConfig {
        drop_punch_ppm: 1_000_000,
        ..one_epoch(3, 0, 100)
    };
    let epoch = cfg.stuck_epochs[0];
    for (name, mut f) in both_sources(|| Recorder::boxed(&[3]), &cfg) {
        f.set_tracing(true);
        tick_both_ways(&mut f, epoch, 0, &[head(0, 5), wu(3)]);
        let kinds: Vec<FaultKind> = f
            .drain_trace()
            .iter()
            .filter_map(|s| match s.event {
                Event::Fault { kind, .. } => Some(kind),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            [
                FaultKind::StuckEpoch,
                FaultKind::PunchDropped,
                FaultKind::WuDropped
            ],
            "{name}"
        );
        // Drained once: the buffer is empty until the next fault.
        assert!(f.drain_trace().is_empty(), "{name}");
        // Disabled tracing buffers nothing.
        f.set_tracing(false);
        tick_both_ways(&mut f, epoch, 1, &[head(0, 5)]);
        assert!(f.drain_trace().is_empty(), "{name}");
        assert_eq!(f.stats().punches_dropped, 2, "{name}");
    }
}

/// A quiet span that opens with the injector's own work pending — a stuck
/// window ending in the span's second cycle and, on the seeded source,
/// jittered events due after that — over an inner with nothing of its own
/// and over a Power Punch manager whose fabric is still sweeping (on the
/// scripted source it outlives the injector's transient). Every transient
/// is over by cycle 60; the span runs 10 000 cycles past that.
#[test]
fn tick_quiet_matches_per_cycle_loop_with_pending_work() {
    const END: Cycle = 10_060;
    let cfg = FaultConfig {
        max_wakeup_jitter: 4,
        seed: 42,
        ..one_epoch(3, 10, 3)
    };
    let epoch = cfg.stuck_epochs[0];
    fn ppf() -> Box<dyn PowerManager> {
        Box::new(PowerPunchManager::new(
            mesh(),
            &PowerConfig::default(),
            4,
            true,
        ))
    }
    let dormant: fn() -> Box<dyn PowerManager> = Dormant::boxed;
    for (inner_name, inner) in [("dormant", dormant), ("ppf", ppf)] {
        // Prologue: populate the (seeded) jitter queue, arm the epoch and
        // leave a punch on the sideband.
        let build = || {
            both_sources(inner, &cfg).map(|(name, mut f)| {
                for c in 0..12 {
                    tick_both_ways(&mut f, epoch, c, &[head(1, 9)]);
                }
                assert_eq!(f.stats().stuck_epochs_started, 1, "{inner_name}/{name}");
                if inner_name == "ppf" {
                    assert!(f.pending_punches() > 0, "{name}: sideband busy");
                }
                (name, f)
            })
        };
        for ((name, mut slow), (_, mut fast)) in build().into_iter().zip(build()) {
            for c in 12..END {
                slow.tick(c, &[], IdleInfo { idle: &IDLE });
            }
            fast.tick_quiet(12, END, IdleInfo { idle: &IDLE });
            let at = format!("{inner_name}/{name}");
            assert_eq!(slow.stats(), fast.stats(), "{at}");
            assert_eq!(slow.pending_punches(), fast.pending_punches(), "{at}");
            assert_eq!(slow.counters(), fast.counters(), "{at}");
            for r in 0..N as u16 {
                assert_eq!(slow.state(NodeId(r)), fast.state(NodeId(r)), "{at}: R{r}");
            }
            if name == "scripted" {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                assert!(slow.encode_state(END, &mut a) && fast.encode_state(END, &mut b));
                assert_eq!(a, b, "{at}: snapshot bytes");
            }
        }
    }
}

/// The injector ticks its inner manager cycle by cycle only through its
/// own transient: a 5-cycle stick over an inner with a closed-form quiet
/// span costs a handful of inner ticks, however long the span.
#[test]
fn a_quiet_span_ticks_the_inner_manager_only_through_the_stuck_window() {
    let ticks = Arc::new(AtomicU64::new(0));
    let mut f = scripted(Dormant::counting(Arc::clone(&ticks)));
    assert!(f.arm_choice(FaultChoice::StickOff {
        router: NodeId(3),
        duration: Some(5),
    }));
    f.tick_quiet(1, 1_000_001, IdleInfo { idle: &IDLE });
    assert_eq!(f.stats().stuck_epochs_started, 1);
    let n = ticks.load(Ordering::Relaxed);
    assert!(n <= 7, "{n} inner ticks for a 5-cycle window");
    // The window expired inside the span: WU reaches the gate again.
    f.tick(1_000_001, &[wu(3)], IdleInfo { idle: &IDLE });
    assert_eq!(f.stats().wu_dropped, 0);
}

#[test]
fn dormant_tick_quiet_delegates_to_inner() {
    let cfg = FaultConfig::default();
    for (name, mut f) in [
        ("seeded", seeded(Box::new(AlwaysOn::new(N)), &cfg)),
        (
            "scripted",
            scripted(Box::new(AlwaysOn::new(N))).with_standing(FaultChoice::DropWu),
        ),
    ] {
        f.tick_quiet(0, 10_000, IdleInfo { idle: &IDLE });
        assert_eq!(f.stats().total(), 0, "{name}");
        assert_eq!(f.pending_punches(), 0, "{name}");
    }
}

// ---- the seeded source ----

#[test]
fn out_of_mesh_stuck_epoch_is_a_typed_config_error() {
    let cfg = one_epoch(99, 0, 10);
    let err = FaultInjector::new(Recorder::boxed(&[]), &cfg, mesh()).unwrap_err();
    assert_eq!(err, ConfigError::BadStuckRouter(NodeId(99)));
}

#[test]
fn full_drop_removes_all_punch_events_but_spares_wu() {
    let cfg = FaultConfig {
        drop_punch_ppm: 1_000_000,
        ..FaultConfig::default()
    };
    let mut f = seeded(Recorder::boxed(&[]), &cfg);
    for c in 0..20 {
        f.tick(c, &[head(0, 5), wu(3)], IdleInfo { idle: &BUSY });
    }
    assert_eq!(f.stats().punches_dropped, 20);
    // The WU safety net is untouched by punch drops.
    assert_eq!(f.stats().wu_dropped, 0);
    assert_eq!(f.counters().faults_injected, 20);
}

#[test]
fn jitter_delays_but_never_loses_events() {
    let cfg = FaultConfig {
        max_wakeup_jitter: 3,
        seed: 11,
        ..FaultConfig::default()
    };
    let mut f = seeded(Recorder::boxed(&[]), &cfg);
    for c in 0..40 {
        f.tick(c, &[head(1, 9)], IdleInfo { idle: &BUSY });
    }
    // Drain the queue.
    for c in 40..50 {
        f.tick(c, &[], IdleInfo { idle: &BUSY });
    }
    assert!(f.stats().events_delayed > 0, "jitter should trigger");
    assert_eq!(f.pending_punches(), 0, "queue fully drained");
    assert_eq!(f.stats().punches_dropped, 0, "jitter never loses events");
}

#[test]
fn seeded_epoch_waits_for_router_to_sleep() {
    // The recorder keeps router 2 on: the epoch may never arm.
    let mut f = seeded(Recorder::boxed(&[]), &one_epoch(2, 0, 100));
    for c in 0..10 {
        f.tick(c, &[], IdleInfo { idle: &BUSY });
    }
    assert_eq!(
        f.stats().stuck_epochs_started,
        0,
        "an on router cannot be stuck off"
    );
    assert_eq!(f.state(NodeId(2)), PowerState::On);
}

#[test]
fn overlapping_epochs_on_one_router_union() {
    let cfg = FaultConfig {
        stuck_epochs: vec![
            StuckEpoch {
                router: NodeId(3),
                start: 0,
                duration: 30,
            },
            StuckEpoch {
                router: NodeId(3),
                start: 10,
                duration: 5,
            },
            StuckEpoch {
                router: NodeId(3),
                start: 20,
                duration: 40,
            },
        ],
        ..FaultConfig::default()
    };
    let mut f = seeded(Dormant::boxed(), &cfg);
    let mut stuck_cycles = 0;
    for c in 0..100 {
        f.tick(c, &[wu(3)], IdleInfo { idle: &BUSY });
        stuck_cycles += u64::from(f.stats().wu_dropped == stuck_cycles + 1);
    }
    // Every epoch counts, a shorter one inside a longer one changes
    // nothing, and the mask holds until the last window ends at 60.
    assert_eq!(f.stats().stuck_epochs_started, 3);
    assert_eq!(f.stats().wu_dropped, 60);
}

#[test]
fn same_seed_same_fault_schedule() {
    let cfg = FaultConfig {
        drop_punch_ppm: 300_000,
        corrupt_punch_ppm: 100_000,
        drop_wu_ppm: 50_000,
        max_wakeup_jitter: 2,
        seed: 99,
        ..FaultConfig::default()
    };
    let run = || {
        let mut f = seeded(Box::new(AlwaysOn::new(N)), &cfg);
        for c in 0..500 {
            let r = (c % 16) as u16;
            f.tick(
                c,
                &[head(r, ((c * 3) % 16) as u16), wu(r)],
                IdleInfo { idle: &BUSY },
            );
        }
        f.stats().clone()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical seeds must give identical fault streams");
    assert!(a.total() > 0, "faults should actually fire at these rates");
}

#[test]
fn the_seeded_source_cannot_be_cloned_encoded_or_armed() {
    let mut f = seeded(Box::new(AlwaysOn::new(N)), &FaultConfig::default());
    assert!(f.clone_boxed().is_none());
    assert!(!f.encode_state(0, &mut Vec::new()));
    assert!(!f.arm_choice(FaultChoice::DropPunch));
    assert!(!f.arm_choice(FaultChoice::None));
}

// ---- the scripted source ----

#[test]
fn armed_choice_is_one_shot() {
    let mut f = scripted(Recorder::boxed(&[]));
    assert!(f.arm_choice(FaultChoice::DropPunch));
    f.tick(0, &[head(0, 5)], IdleInfo { idle: &BUSY });
    assert_eq!(f.stats().punches_dropped, 1);
    // The next tick is fault-free again.
    f.tick(1, &[head(0, 5)], IdleInfo { idle: &BUSY });
    assert_eq!(f.stats().punches_dropped, 1);
}

#[test]
fn drop_wu_swallows_the_level_signal_for_one_cycle() {
    let mut f = scripted(Recorder::boxed(&[]));
    assert!(f.arm_choice(FaultChoice::DropWu));
    f.tick(0, &[wu(3), head(0, 5)], IdleInfo { idle: &BUSY });
    assert_eq!(f.stats().wu_dropped, 1);
    assert_eq!(f.stats().punches_dropped, 0, "punches unaffected");
}

#[test]
fn corrupt_punch_rewrites_all_destinations_that_cycle() {
    let mut f = scripted(Recorder::boxed(&[]));
    assert!(f.arm_choice(FaultChoice::CorruptPunch { dst: NodeId(9) }));
    f.tick(0, &[head(0, 5), head(1, 7)], IdleInfo { idle: &BUSY });
    assert_eq!(f.stats().punches_corrupted, 2);
}

#[test]
fn standing_choice_applies_every_cycle_on_top_of_the_armed_one() {
    let mut f = scripted(Recorder::boxed(&[])).with_standing(FaultChoice::DropWu);
    assert!(f.arm_choice(FaultChoice::DropPunch));
    f.tick(0, &[wu(3), head(0, 5)], IdleInfo { idle: &BUSY });
    assert_eq!((f.stats().wu_dropped, f.stats().punches_dropped), (1, 1));
    // The armed choice is spent, the standing one is not.
    f.tick(1, &[wu(3), head(0, 5)], IdleInfo { idle: &BUSY });
    assert_eq!((f.stats().wu_dropped, f.stats().punches_dropped), (2, 1));
}

#[test]
fn force_wake_releases_a_forever_stick() {
    let mut f = scripted(Recorder::boxed(&[3]));
    assert!(f.arm_choice(FaultChoice::StickOff {
        router: NodeId(3),
        duration: None,
    }));
    f.tick(0, &[], IdleInfo { idle: &BUSY });
    assert_eq!(f.state(NodeId(3)), PowerState::Off);
    f.tick_quiet(1, 10_000, IdleInfo { idle: &IDLE });
    assert_eq!(
        f.state(NodeId(3)),
        PowerState::Off,
        "nothing but a force-wake ends it"
    );
    f.force_wake(NodeId(3), 10_000);
    assert_eq!(f.stats().forced_wakes, 1);
    assert_eq!(f.state(NodeId(3)), PowerState::On, "inner force_wake ran");
}

#[test]
fn out_of_range_choices_are_rejected_not_armed() {
    let mut f = scripted(Recorder::boxed(&[]));
    assert!(!f.arm_choice(FaultChoice::StickOff {
        router: NodeId(99),
        duration: None,
    }));
    assert!(!f.arm_choice(FaultChoice::CorruptPunch { dst: NodeId(99) }));
    // Nothing armed: the next tick is fault-free.
    f.tick(0, &[head(0, 3)], IdleInfo { idle: &BUSY });
    assert_eq!(f.stats().total(), 0);
}

#[test]
fn clone_boxed_and_encode_state_compose_over_the_inner_manager() {
    let f = scripted(Box::new(AlwaysOn::new(N)));
    let mut a = Vec::new();
    assert!(f.encode_state(0, &mut a));
    let clone = f.clone_boxed().expect("AlwaysOn is clonable");
    let mut b = Vec::new();
    assert!(clone.encode_state(0, &mut b));
    assert_eq!(a, b, "clone encodes identically");
    // Recorder has neither clone_boxed nor encode_state: the
    // composition reports failure instead of a partial answer.
    let g = scripted(Recorder::boxed(&[]));
    assert!(g.clone_boxed().is_none());
    assert!(!g.encode_state(1, &mut Vec::new()));
}

#[test]
fn timed_stick_encoding_is_rebased_to_now() {
    // Two copies stuck by the same window at different absolute times
    // must encode identically at equal remaining durations.
    let encode_after = |start: Cycle| {
        let mut f = scripted(Dormant::boxed());
        assert!(f.arm_choice(FaultChoice::StickOff {
            router: NodeId(1),
            duration: Some(8),
        }));
        f.tick(start, &[], IdleInfo { idle: &BUSY });
        let mut out = Vec::new();
        f.encode_state(start + 3, &mut out);
        out
    };
    assert_eq!(encode_after(0), encode_after(1_000));
    assert_eq!(encode_after(0)[9..18], [1, 5, 0, 0, 0, 0, 0, 0, 0]);
}
