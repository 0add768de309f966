//! The event recorder: where the simulator's instrumentation points
//! deliver [`Stamped`] events.
//!
//! Hosts keep their recorder behind an `Option`, so tracing switched off
//! costs one branch and needs no recorder at all. [`RingSink`] is the one
//! recorder: it keeps the most recent N events and counts what it evicted.
//! The watchdog dumps it into a `StallReport` when a run wedges. Its buffer
//! grows on demand, so the capacity bounds what is kept, not what is
//! reserved, and `RingSink::new(usize::MAX)` keeps the whole run.

use crate::event::{Event, Stamped};
use punchsim_types::Cycle;
use std::collections::VecDeque;

/// A flight recorder retaining the most recent `capacity` events.
///
/// Recording is a plain buffer write (no I/O, no locking): instrumentation
/// points fire on hot paths.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: VecDeque<Stamped>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a recorder holding at most `capacity` events (min 1). Nothing
    /// is reserved up front: the buffer grows as events arrive, so any
    /// capacity is cheap until that many events have been recorded.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
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

    /// Records one event at `cycle`, evicting the oldest when full.
    pub fn record(&mut self, cycle: Cycle, event: &Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Stamped {
            cycle,
            event: *event,
        });
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Stamped> {
        self.buf.iter().copied().collect()
    }

    /// Total events offered, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.buf.len() as u64 + self.dropped
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
    fn ring_capacity_bounds_what_is_kept_not_what_is_reserved() {
        // Regression: a capacity near `usize::MAX / 4` used to be reserved
        // up front and aborted with "capacity overflow".
        let mut s = RingSink::new(1 << 62);
        for i in 0..3u64 {
            s.record(i, &ev(i as u16));
        }
        assert_eq!(s.capacity(), 1 << 62);
        assert_eq!((s.len(), s.dropped(), s.recorded()), (3, 0, 3));
        let s = RingSink::new(usize::MAX);
        assert!(s.is_empty());
    }

    #[test]
    fn unbounded_ring_keeps_everything_in_order() {
        let mut s = RingSink::new(usize::MAX);
        for i in 0..4u64 {
            s.record(i, &ev(i as u16));
        }
        assert_eq!((s.recorded(), s.len(), s.dropped()), (4, 4, 0));
        let events = s.snapshot();
        assert!(events.windows(2).all(|w| w[0].cycle < w[1].cycle));
    }
}
