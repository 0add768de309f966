//! Event sinks: where the simulator's instrumentation points deliver
//! [`Stamped`] events.
//!
//! Three implementations cover the intended operating points:
//!
//! * [`NullSink`] — the zero-overhead disabled path. Hosts keep their sink
//!   behind an `Option`, so the *usual* disabled cost is one branch; the
//!   null sink exists for call sites that want a sink unconditionally.
//! * [`RingSink`] — a bounded "flight recorder": keeps the most recent N
//!   events and counts what it evicted. This is what the watchdog dumps
//!   into a `StallReport` when a run wedges.
//! * [`VecSink`] — unbounded capture for tests and the `trace` subcommand,
//!   where the whole run's event stream becomes the artifact.

use crate::event::{Event, Stamped};
use punchsim_types::Cycle;
use std::collections::VecDeque;

/// A destination for cycle-stamped events.
///
/// Implementations must be cheap: instrumentation points fire on hot paths
/// and rely on `record` being a plain buffer write (no I/O, no locking).
pub trait EventSink: std::fmt::Debug {
    /// Records one event at `cycle`.
    fn record(&mut self, cycle: Cycle, event: &Event);

    /// The currently retained events, oldest first.
    fn snapshot(&self) -> Vec<Stamped>;

    /// Total events offered to the sink, including any it discarded.
    fn recorded(&self) -> u64;
}

/// Discards everything. The measured-zero-overhead stand-in for "tracing
/// compiled in, disabled at runtime".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, _cycle: Cycle, _event: &Event) {}

    fn snapshot(&self) -> Vec<Stamped> {
        Vec::new()
    }

    fn recorded(&self) -> u64 {
        0
    }
}

/// A bounded flight recorder retaining the most recent `capacity` events.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: VecDeque<Stamped>,
    capacity: usize,
    dropped: u64,
    recorded: u64,
}

impl RingSink {
    /// Creates a recorder holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingSink {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
            recorded: 0,
        }
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl EventSink for RingSink {
    fn record(&mut self, cycle: Cycle, event: &Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Stamped {
            cycle,
            event: *event,
        });
        self.recorded += 1;
    }

    fn snapshot(&self) -> Vec<Stamped> {
        self.buf.iter().copied().collect()
    }

    fn recorded(&self) -> u64 {
        self.recorded
    }
}

/// Unbounded capture, for tests and whole-run trace artifacts.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<Stamped>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The captured events, oldest first.
    pub fn events(&self) -> &[Stamped] {
        &self.events
    }
}

impl EventSink for VecSink {
    fn record(&mut self, cycle: Cycle, event: &Event) {
        self.events.push(Stamped {
            cycle,
            event: *event,
        });
    }

    fn snapshot(&self) -> Vec<Stamped> {
        self.events.clone()
    }

    fn recorded(&self) -> u64 {
        self.events.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::NodeId;

    fn ev(n: u16) -> Event {
        Event::WuAssert { router: NodeId(n) }
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let mut s = RingSink::new(3);
        for i in 0..5u64 {
            s.record(i, &ev(i as u16));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.recorded(), 5);
        let cycles: Vec<u64> = s.snapshot().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn ring_capacity_zero_is_clamped_not_silently_lossy() {
        let mut s = RingSink::new(0);
        s.record(7, &ev(1));
        assert_eq!(s.capacity(), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn null_sink_drops_everything() {
        let mut s = NullSink;
        s.record(1, &ev(0));
        assert!(s.snapshot().is_empty());
        assert_eq!(s.recorded(), 0);
    }

    #[test]
    fn vec_sink_keeps_everything_in_order() {
        let mut s = VecSink::new();
        for i in 0..4u64 {
            s.record(i, &ev(i as u16));
        }
        assert_eq!(s.recorded(), 4);
        assert_eq!(s.events().len(), 4);
        assert!(s.events().windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }
}
