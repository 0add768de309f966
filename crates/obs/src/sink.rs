//! The event recorder: where the simulator's instrumentation points
//! deliver [`Stamped`] events.
//!
//! Hosts keep their recorder behind an `Option`, so tracing switched off
//! costs one branch and needs no recorder at all. [`RingSink`] is the one
//! recorder: it keeps the most recent N events and evicts the oldest. The
//! watchdog renders its tail into a `StallReport` when a run wedges. Its
//! buffer grows on demand, so the capacity bounds what is kept, not what is
//! reserved, and `RingSink::new(usize::MAX)` keeps the whole run.

use crate::event::{Event, Stamped};
use punchsim_types::Cycle;
use std::collections::vec_deque::{Iter, VecDeque};

/// A flight recorder retaining the most recent `capacity` events.
///
/// Recording is a plain buffer write (no I/O, no locking): instrumentation
/// points fire on hot paths.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: VecDeque<Stamped>,
    capacity: usize,
}

impl RingSink {
    /// Creates a recorder holding at most `capacity` events (min 1). Nothing
    /// is reserved up front: the buffer grows as events arrive, so any
    /// capacity is cheap until that many events have been recorded.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records one event at `cycle`, evicting the oldest when full.
    pub fn record(&mut self, cycle: Cycle, event: &Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(Stamped {
            cycle,
            event: *event,
        });
    }

    /// The retained events, oldest first.
    pub fn iter(&self) -> Iter<'_, Stamped> {
        self.buf.iter()
    }

    /// The last `n` retained events (fewer if fewer are kept), oldest
    /// first, read in place.
    pub fn tail(&self, n: usize) -> Iter<'_, Stamped> {
        self.buf.range(self.buf.len().saturating_sub(n)..)
    }

    /// The retained events, oldest first, handed over without a copy.
    pub fn into_vec(self) -> Vec<Stamped> {
        self.buf.into()
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
        let cycles: Vec<u64> = s.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        let tail: Vec<u64> = s.tail(2).map(|e| e.cycle).collect();
        assert_eq!(tail, vec![3, 4]);
        assert_eq!(s.tail(9).count(), 3);
        assert_eq!(s.tail(0).count(), 0);
    }

    #[test]
    fn ring_capacity_zero_is_clamped_not_silently_lossy() {
        let mut s = RingSink::new(0);
        s.record(7, &ev(1));
        assert_eq!(s.len(), 1);
        s.record(8, &ev(2));
        let cycles: Vec<u64> = s.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![8]);
    }

    #[test]
    fn ring_capacity_bounds_what_is_kept_not_what_is_reserved() {
        // Regression: a capacity near `usize::MAX / 4` used to be reserved
        // up front and aborted with "capacity overflow".
        let mut s = RingSink::new(1 << 62);
        for i in 0..3u64 {
            s.record(i, &ev(i as u16));
        }
        assert_eq!(s.len(), 3);
        let s = RingSink::new(usize::MAX);
        assert!(s.is_empty());
    }

    #[test]
    fn unbounded_ring_keeps_everything_in_order() {
        let mut s = RingSink::new(usize::MAX);
        for i in 0..4u64 {
            s.record(i, &ev(i as u16));
        }
        assert_eq!(s.len(), 4);
        let events = s.into_vec();
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0].cycle < w[1].cycle));
    }
}
