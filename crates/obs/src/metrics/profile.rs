//! The tick-phase wall-time profiler.
//!
//! Attribution uses boundary timestamps: the profiler keeps one
//! `Instant` and every charge books the elapsed time since the previous
//! boundary, then advances the boundary. No nesting, no unattributed
//! gaps — [`PhaseProfiler::total_nanos`] equals the wall time from the
//! first boundary to the last, which is what lets the CI gate demand that
//! phase timings cover ≥90% of a run's measured wall-time.
//!
//! A clock read costs ~30 ns and a tick has six phase boundaries, which
//! is 5-20% of a microsecond-scale tick. So only one tick in
//! `SAMPLE_EVERY` (31) is split by phase: a *sampled* window runs
//! from one [`PhaseProfiler::begin_tick`] to the next and reads the clock
//! at every [`PhaseProfiler::mark`]; the ticks in between coast — their
//! marks are counted but read no clock — and the whole stretch (ticks plus
//! the host time between them) is booked as one unsplit lump when the next
//! sampled window opens. Readers get the lump back pro rata:
//! [`PhaseProfiler::nanos`] scales each phase's sampled time by
//! `(sampled + unsplit) / sampled`, an unbiased estimate because sampled
//! and coasting windows have the same make-up (one tick, one host gap).
//! Fast-forward jumps are rare and long, so they are always timed exactly
//! and stay outside the scaling, as is the host gap that follows one.
//!
//! Everything here is wall-clock and therefore nondeterministic; phase
//! counters are exported only into registries bound for the
//! `.timing.json` sidecar, never into `BENCH_*.json` artifacts.

use std::time::Instant;

use super::registry::Registry;

/// One slice of a simulation tick (or of the run loop around it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Time outside the network tick proper: the traffic harness, event
    /// heap, injection bookkeeping — everything between two ticks.
    Host,
    /// Struct kernel: link traversal / flit delivery scan.
    DeliverFlits,
    /// Struct kernel: credit return scan.
    DeliverCredits,
    /// Struct kernel: switch allocation over occupied routers.
    Allocate,
    /// Struct kernel: ejection delivery.
    Eject,
    /// Struct kernel: NI injection attempts.
    Inject,
    /// SoA kernel: rebuilding the structure-of-arrays mirror after a
    /// struct-path excursion.
    SoaRebuild,
    /// SoA kernel: phase A — the read-only word sweep (single-shard
    /// inline or sharded across row bands).
    SoaPhaseA,
    /// SoA kernel: the commit pass applying recorded decisions in
    /// router order.
    SoaCommit,
    /// Power-manager tick: gate accounting, punch fabric, sleep/wake
    /// decisions.
    PowerTick,
    /// Watchdog escalation scan + stall check.
    Watchdog,
    /// Quiescence fast-forward (closed-form quiet advance).
    FastForward,
    /// SoA kernel, pooled sharded ticks only: host wall time blocked at
    /// the worker pool's completion barrier after finishing its own
    /// shard (load imbalance across shards, not compute).
    PoolWait,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 13] = [
        Phase::Host,
        Phase::DeliverFlits,
        Phase::DeliverCredits,
        Phase::Allocate,
        Phase::Eject,
        Phase::Inject,
        Phase::SoaRebuild,
        Phase::SoaPhaseA,
        Phase::SoaCommit,
        Phase::PowerTick,
        Phase::Watchdog,
        Phase::FastForward,
        Phase::PoolWait,
    ];

    /// Stable snake_case name used as the `phase` label value.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Host => "host",
            Phase::DeliverFlits => "deliver_flits",
            Phase::DeliverCredits => "deliver_credits",
            Phase::Allocate => "allocate",
            Phase::Eject => "eject",
            Phase::Inject => "inject",
            Phase::SoaRebuild => "soa_rebuild",
            Phase::SoaPhaseA => "soa_phase_a",
            Phase::SoaCommit => "soa_commit",
            Phase::PowerTick => "power_tick",
            Phase::Watchdog => "watchdog",
            Phase::FastForward => "fast_forward",
            Phase::PoolWait => "pool_wait",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const PHASES: usize = Phase::ALL.len();

/// One tick in this many is split by phase (see the module docs). Prime,
/// so the sample cannot lock onto the power-of-two periods of the simulated
/// hardware (wake-up latencies, epoch lengths).
const SAMPLE_EVERY: u64 = 31;

/// What the interval since the last boundary is, i.e. how the next
/// [`PhaseProfiler::begin`] books it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Span {
    /// A sampled window: marks read the clock; its trailing host gap goes
    /// to [`Phase::Host`].
    #[default]
    Sampled,
    /// Unsampled ticks: marks only count; booked as one unsplit lump.
    Coasting,
    /// The host gap after a fast-forward: timed exactly, kept out of the
    /// pro-rata weights.
    AfterSkip,
}

/// Accumulated per-phase wall time and mark counts.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    /// Exactly timed nanoseconds: sampled windows, and every fast-forward.
    nanos: [u64; PHASES],
    marks: [u64; PHASES],
    last: Option<Instant>,
    span: Span,
    /// Ticks begun since construction or the last reset.
    ticks: u64,
    /// Wall time of coasting stretches, not split by phase.
    unsplit: u64,
    /// Host gaps that followed a fast-forward.
    skip_host: u64,
}

impl PhaseProfiler {
    /// A profiler with no boundary set; the first mark only starts the
    /// clock.
    pub fn new() -> Self {
        PhaseProfiler::default()
    }

    /// Nanoseconds since the previous boundary (0 when there was none);
    /// moves the boundary to now.
    #[inline]
    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let elapsed = self
            .last
            .map_or(0, |last| now.duration_since(last).as_nanos() as u64);
        self.last = Some(now);
        elapsed
    }

    /// Closes the open interval as its [`Span`] says and opens a sampled
    /// window (`sample`) or lets the ticks coast.
    #[inline]
    fn begin(&mut self, sample: bool) {
        self.marks[Phase::Host.index()] += 1;
        match self.span {
            Span::Sampled => self.nanos[Phase::Host.index()] += self.lap(),
            Span::AfterSkip => self.skip_host += self.lap(),
            Span::Coasting if sample => self.unsplit += self.lap(),
            Span::Coasting => {}
        }
        self.span = if sample {
            Span::Sampled
        } else {
            Span::Coasting
        };
    }

    /// Opens a tick: the time since the last tick's final mark was
    /// [`Phase::Host`]. Every `SAMPLE_EVERY`-th tick (the first included)
    /// is a sampled window.
    #[inline]
    pub fn begin_tick(&mut self) {
        let sample = self.ticks % SAMPLE_EVERY == 0;
        self.ticks += 1;
        self.begin(sample);
    }

    /// Opens a fast-forward jump; always timed.
    pub fn begin_skip(&mut self) {
        self.begin(true);
    }

    /// Closes the jump opened by [`PhaseProfiler::begin_skip`], charging
    /// it to [`Phase::FastForward`].
    pub fn end_skip(&mut self) {
        self.mark(Phase::FastForward);
        self.span = Span::AfterSkip;
    }

    /// Charges the time since the previous boundary to `phase` and moves
    /// the boundary to now. Inside a coasting tick it only counts the mark.
    #[inline]
    pub fn mark(&mut self, phase: Phase) {
        let i = phase.index();
        if self.span == Span::Coasting {
            self.marks[i] += 1;
            return;
        }
        if self.last.is_some() {
            self.marks[i] += 1;
        }
        self.nanos[i] += self.lap();
    }

    /// Drops the boundary so the next mark starts a fresh interval
    /// (used when leaving profiled code for an unbounded wait).
    pub fn detach(&mut self) {
        self.last = None;
    }

    /// Reattributes `nanos` of already-charged time from `from` to `to`
    /// (saturating at what `from` currently holds). For callers that
    /// measured an inner wait within a marked span — e.g. the shard
    /// pool's completion barrier inside the phase-A interval — and want
    /// it under its own phase without adding boundary timestamps to the
    /// hot path. The all-phase total (and thus the CI coverage ratio) is
    /// conserved exactly.
    pub fn transfer(&mut self, from: Phase, to: Phase, nanos: u64) {
        if self.span == Span::Coasting {
            return; // nothing was just charged to `from`
        }
        let moved = nanos.min(self.nanos[from.index()]);
        if moved == 0 {
            return;
        }
        self.nanos[from.index()] -= moved;
        self.nanos[to.index()] += moved;
        self.marks[to.index()] += 1;
    }

    /// Nanoseconds attributed to `phase`: its exactly timed share plus its
    /// pro-rata share of the coasting stretches (module docs).
    pub fn nanos(&self, phase: Phase) -> u64 {
        let own = self.nanos[phase.index()];
        if phase == Phase::FastForward {
            return own;
        }
        let sampled = self.nanos.iter().sum::<u64>() - self.nanos[Phase::FastForward.index()];
        let scaled = if sampled == 0 {
            0
        } else {
            (u128::from(self.unsplit) * u128::from(own) / u128::from(sampled)) as u64
        };
        let skip_host = if phase == Phase::Host {
            self.skip_host
        } else {
            0
        };
        own + scaled + skip_host
    }

    /// Number of intervals charged to `phase`, coasting ticks included (so
    /// `mark_count(Phase::PowerTick)` is the number of ticked cycles).
    pub fn mark_count(&self, phase: Phase) -> u64 {
        self.marks[phase.index()]
    }

    /// All measured wall time, split or not — the span from the first
    /// boundary to the last. At most `SAMPLE_EVERY - 1` trailing coasting
    /// ticks are still open and not in it.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum::<u64>() + self.unsplit + self.skip_host
    }

    /// Zeroes all accumulators and drops the boundary.
    pub fn reset(&mut self) {
        *self = PhaseProfiler::default();
    }

    /// Exports per-phase counters into `reg` as
    /// `tick_phase_nanos{phase=...}` / `tick_phase_marks{phase=...}`
    /// (zero phases are skipped to keep the exposition tight).
    pub fn export(&self, reg: &mut Registry) {
        for p in Phase::ALL {
            let n = self.nanos(p);
            if n == 0 && self.mark_count(p) == 0 {
                continue;
            }
            let lbl = [("phase", p.name())];
            reg.inc(&Registry::key_with("tick_phase_nanos", &lbl), n);
            reg.inc(
                &Registry::key_with("tick_phase_marks", &lbl),
                self.mark_count(p),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_partition_elapsed_time() {
        let mut p = PhaseProfiler::new();
        p.mark(Phase::Host); // starts the clock, charges nothing
        assert_eq!(p.total_nanos(), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.mark(Phase::PowerTick);
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.mark(Phase::Watchdog);
        assert!(p.nanos(Phase::PowerTick) >= 1_000_000);
        assert!(p.nanos(Phase::Watchdog) >= 500_000);
        assert_eq!(p.nanos(Phase::Host), 0);
        assert_eq!(
            p.total_nanos(),
            p.nanos(Phase::PowerTick) + p.nanos(Phase::Watchdog)
        );
        assert_eq!(p.mark_count(Phase::PowerTick), 1);

        p.detach();
        p.mark(Phase::Host);
        assert_eq!(p.nanos(Phase::Host), 0, "detach drops the interval");
    }

    #[test]
    fn coasting_ticks_count_marks_and_lose_no_time() {
        let started = Instant::now();
        let mut p = PhaseProfiler::new();
        for _ in 0..=SAMPLE_EVERY {
            p.begin_tick();
            std::thread::sleep(std::time::Duration::from_millis(1));
            p.mark(Phase::SoaPhaseA);
            p.mark(Phase::PowerTick);
        }
        // Ticks 0 and SAMPLE_EVERY were sampled, the ones between coasted.
        assert_eq!(p.mark_count(Phase::PowerTick), SAMPLE_EVERY + 1);
        assert_eq!(p.unsplit, p.total_nanos() - p.nanos.iter().sum::<u64>());
        assert!(p.unsplit >= (SAMPLE_EVERY - 1) * 1_000_000);
        assert!(p.nanos[Phase::SoaPhaseA.index()] >= 2_000_000);
        assert!(p.nanos[Phase::SoaPhaseA.index()] < p.unsplit);
        // The estimate hands the lump back: phase A slept through every
        // tick, so it gets (nearly) all of it.
        assert!(p.nanos(Phase::SoaPhaseA) >= SAMPLE_EVERY * 1_000_000);
        let split: u64 = Phase::ALL.iter().map(|&ph| p.nanos(ph)).sum();
        assert!(p.total_nanos() - split < PHASES as u64, "rounding only");
        assert!(u128::from(p.total_nanos()) <= started.elapsed().as_nanos());
    }

    #[test]
    fn unsplit_time_is_shared_pro_rata_outside_fast_forward() {
        let mut p = PhaseProfiler::new();
        p.nanos[Phase::Host.index()] = 100;
        p.nanos[Phase::SoaPhaseA.index()] = 300;
        p.nanos[Phase::FastForward.index()] = 1_000;
        p.unsplit = 800;
        p.skip_host = 50;
        assert_eq!(p.nanos(Phase::Host), 100 + 200 + 50);
        assert_eq!(p.nanos(Phase::SoaPhaseA), 300 + 600);
        assert_eq!(p.nanos(Phase::FastForward), 1_000);
        assert_eq!(p.nanos(Phase::PowerTick), 0);
        assert_eq!(p.total_nanos(), 350 + 900 + 1_000);
    }

    #[test]
    fn fast_forward_and_its_host_gap_are_timed_exactly() {
        let mut p = PhaseProfiler::new();
        p.begin_tick(); // sampled
        p.mark(Phase::PowerTick);
        p.begin_tick(); // coasting
        p.begin_skip(); // closes the coasting stretch
        assert!(p.unsplit > 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.end_skip();
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.begin_tick(); // coasting again, but the gap after a skip is read
        assert!(p.nanos(Phase::FastForward) >= 1_000_000);
        assert!(p.skip_host >= 1_000_000);
        assert_eq!(p.mark_count(Phase::FastForward), 1);
        let before = p.total_nanos();
        p.mark(Phase::PowerTick);
        assert_eq!(p.total_nanos(), before, "coasting marks read no clock");
    }

    #[test]
    fn export_emits_labeled_counters() {
        let mut p = PhaseProfiler::new();
        p.mark(Phase::Host);
        p.mark(Phase::SoaCommit);
        let mut reg = Registry::new();
        p.export(&mut reg);
        let text = reg.to_prometheus();
        assert!(text.contains("tick_phase_marks{phase=\"soa_commit\"} 1"));
        assert!(!text.contains("phase=\"fast_forward\""));
    }
}
