//! Everything that watches a run without being part of it: the structured
//! event sink with the power-tag shadow and BET epochs its transition
//! records need, and the tick-phase wall-time profiler.
//!
//! [`Observers`] is the only code that records an event or charges a phase,
//! so "zero cost when off" is the `Option` test at the top of each method
//! here, and "zero effect when on" is that nothing in this file writes
//! simulation state (it only switches the manager's own tracing on and off).
//! Observers never clone: a fork starts with `Observers::default()`.

use punchsim_obs::metrics::{Phase, PhaseProfiler};
use punchsim_obs::{Event, PowerTag, RingSink};
use punchsim_types::{Cycle, NodeId};

use super::Network;
use crate::power::{PmEvent, PowerManager};

#[derive(Default)]
pub(crate) struct Observers {
    /// `None` = tracing disabled.
    sink: Option<Box<RingSink>>,
    /// Last observed power tag per router, for transition detection.
    power_shadow: Vec<PowerTag>,
    /// Cycle each currently-off router went off at (BET epoch tracking).
    off_since: Vec<Cycle>,
    /// `None` = profiling disabled. Wall-clock data never feeds back into
    /// simulation state and is exported only toward the nondeterministic
    /// timing sidecar.
    profiler: Option<PhaseProfiler>,
}

impl Observers {
    /// `true` while a sink is attached: every cycle must then tick
    /// individually (per-cycle transition recording), and the network
    /// cannot be forked (see `Network::try_clone`).
    pub fn tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event `ev` builds, stamped `at`; builds nothing while
    /// tracing is off.
    #[inline]
    pub fn emit(&mut self, at: Cycle, ev: impl FnOnce() -> Event) {
        if let Some(s) = self.sink.as_mut() {
            s.record(at, &ev());
        }
    }

    /// Mirrors this cycle's PM events into the trace before the manager
    /// consumes them. `HeadArrival` is skipped: it fires for every hop of
    /// every packet and carries no power-gating decision by itself (punch
    /// emission is traced by the manager).
    #[inline]
    pub fn mirror(&mut self, now: Cycle, events: &[PmEvent]) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        for ev in events {
            let obs_ev = match *ev {
                PmEvent::HeadArrival { .. } => continue,
                PmEvent::BlockedNeed { router } => Event::WuAssert { router },
                PmEvent::NiMessageKnown { node, dst } => Event::Slack1 { node, dst },
                PmEvent::FutureInjection { node } => Event::Slack2 { node },
                PmEvent::NiReadyToInject { node, dst } => Event::NiReady { node, dst },
            };
            sink.record(now, &obs_ev);
        }
    }

    /// Diffs every router's power tag against the shadow copy, recording
    /// [`Event::Power`] transitions and [`Event::BetEpoch`] ends, then pulls
    /// the manager's own buffered trace (punch emissions, faults).
    #[inline]
    pub fn power_transitions(&mut self, now: Cycle, pm: &mut dyn PowerManager) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        for (idx, prev) in self.power_shadow.iter_mut().enumerate() {
            let router = NodeId(idx as u16);
            let tag = pm.state(router).tag();
            if tag == *prev {
                continue;
            }
            let from = *prev;
            sink.record(
                now,
                &Event::Power {
                    router,
                    from,
                    to: tag,
                },
            );
            if from == PowerTag::Off {
                let off_cycles = now.saturating_sub(self.off_since[idx]);
                sink.record(now, &Event::BetEpoch { router, off_cycles });
            }
            if tag == PowerTag::Off {
                self.off_since[idx] = now;
            }
            *prev = tag;
        }
        for st in pm.drain_trace() {
            sink.record(st.cycle, &st.event);
        }
    }

    /// The last `max` recorded events, rendered (empty while tracing is
    /// off): the flight-recorder tail of a stall report.
    pub fn recorder_tail(&self, max: usize) -> Vec<String> {
        let Some(sink) = self.sink.as_ref() else {
            return Vec::new();
        };
        let all = sink.snapshot();
        let skip = all.len().saturating_sub(max);
        all[skip..].iter().map(|st| st.to_string()).collect()
    }

    /// Charges the wall time since the previous phase boundary to `p`.
    #[inline]
    pub fn phase(&mut self, p: Phase) {
        self.profile(|pr| pr.mark(p));
    }

    /// Hands the profiler to `f` — to open a tick or a fast-forward skip,
    /// move pool-wait time between phases, restart at the warm-up boundary —
    /// and does nothing while profiling is off.
    #[inline]
    pub fn profile(&mut self, f: impl FnOnce(&mut PhaseProfiler)) {
        if let Some(pr) = self.profiler.as_mut() {
            f(pr);
        }
    }
}

impl Network {
    /// Attaches a structured event sink: from the next tick on, power-state
    /// transitions, punch/wakeup activity, NI slack events and packet
    /// inject/deliver milestones are recorded into it. Replaces any
    /// previously attached sink. Tracing does not alter simulation
    /// behaviour; with no sink attached the only overhead is one branch
    /// per emission site.
    pub fn set_sink(&mut self, sink: Box<RingSink>) {
        // Prime the shadow from the current states so the first diff only
        // reports genuine transitions.
        let tags = self.view.topo.iter_nodes().map(|r| self.pm.state(r).tag());
        self.obs.power_shadow = tags.collect();
        self.obs.off_since = vec![self.cycle; self.view.topo.nodes()];
        self.pm.set_tracing(true);
        self.obs.sink = Some(sink);
    }

    /// The attached event sink, if any.
    pub fn sink(&self) -> Option<&RingSink> {
        self.obs.sink.as_deref()
    }

    /// Detaches and returns the event sink, disabling structured tracing.
    pub fn take_sink(&mut self) -> Option<Box<RingSink>> {
        if self.obs.tracing() {
            self.pm.set_tracing(false);
        }
        self.obs.sink.take()
    }

    /// Attaches a fresh tick-phase profiler: from the next tick on, phase
    /// boundaries charge elapsed wall time to their phase (a sample of
    /// the ticks is split, the rest are attributed pro rata; see
    /// [`PhaseProfiler`]). Profiling observes the simulation clock loop
    /// only — it cannot change results.
    pub fn enable_profiler(&mut self) {
        self.obs.profiler = Some(PhaseProfiler::new());
    }

    /// The attached phase profiler, if any.
    pub fn profiler(&self) -> Option<&PhaseProfiler> {
        self.obs.profiler.as_ref()
    }

    /// Detaches and returns the phase profiler, disabling profiling.
    pub fn take_profiler(&mut self) -> Option<PhaseProfiler> {
        self.obs.profiler.take()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{msg, net, net_with, AlwaysOff};
    use super::*;
    use crate::MsgClass;
    use punchsim_types::{NocConfig, SimError, WatchdogConfig};

    #[test]
    fn sink_records_packet_and_slack_events() {
        let mut n = net();
        n.set_sink(Box::new(RingSink::new(usize::MAX)));
        n.send(msg(0, 3, MsgClass::Control)).unwrap();
        n.run(40).unwrap();
        let sink = n.take_sink().expect("sink was attached");
        let events = sink.snapshot();
        let kinds: Vec<&str> = events.iter().map(|s| s.event.kind()).collect();
        assert!(kinds.contains(&"inject"), "{kinds:?}");
        assert!(kinds.contains(&"slack1"), "{kinds:?}");
        assert!(kinds.contains(&"ni-ready"), "{kinds:?}");
        assert!(kinds.contains(&"deliver"), "{kinds:?}");
        // Stamps are monotone non-decreasing within the recording order.
        assert!(events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        // The deliver event carries the same latency the stats measured.
        let lat = events
            .iter()
            .find_map(|s| match s.event {
                Event::Deliver { latency, .. } => Some(latency),
                _ => None,
            })
            .expect("deliver recorded");
        assert_eq!(lat, 20);
        // Detaching turns recording back off.
        assert!(n.sink().is_none());
    }

    #[test]
    fn tracing_does_not_alter_simulation_results() {
        let run = |traced: bool| {
            let mut n = net();
            if traced {
                n.set_sink(Box::new(RingSink::new(512)));
            }
            for i in 0..50u16 {
                n.send(msg(i % 64, (i * 7 + 3) % 64, MsgClass::Data))
                    .unwrap();
                n.tick().unwrap();
            }
            n.run(1500).unwrap();
            let r = n.report();
            (r.stats.packets_delivered, r.avg_packet_latency())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stall_report_carries_flight_recorder_tail() {
        let cfg = NocConfig {
            watchdog: WatchdogConfig {
                stall_threshold: 50,
                escalate_after: 8,
            },
            ..NocConfig::default()
        };
        let mut n = net_with(&cfg, AlwaysOff::boxed);
        n.set_sink(Box::new(punchsim_obs::RingSink::new(64)));
        n.send(msg(0, 9, MsgClass::Control)).unwrap();
        let report = loop {
            match n.tick() {
                Ok(()) => {}
                Err(SimError::Stall(r)) => break *r,
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert!(!report.last_events.is_empty());
        assert!(report.last_events.len() <= 32);
        // The tail shows the ignored WU handshake toward the wedged local
        // router — the whole point of the flight recorder.
        assert!(
            report.last_events.iter().any(|e| e.contains("WU asserted")),
            "{:?}",
            report.last_events
        );
    }
}
