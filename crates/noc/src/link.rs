//! Fixed-latency delivery wheels modelling links, credit wires and the
//! NI-to-router connections.
//!
//! A wire carries at most one item per cycle, so everything in flight on
//! every wire of the mesh fits in slots addressed by (due cycle, router,
//! lane). Delivery then *sweeps* the one plane that is due instead of
//! polling a queue per wire for timestamps.

use punchsim_types::Cycle;

use crate::snapshot::{put_u64, put_u8};
use crate::soa::BitWords;

/// In-flight items of one kind (flits, credits, ejections) for a whole
/// mesh: `period` planes of `nodes * lanes` direct-mapped slots, the plane
/// of due cycle `c` being `c % period` — a mask, since the period is
/// rounded up to a power of two — plus per plane one bit per router
/// (set iff the router has an item there), the due cycle its items share,
/// how many it holds and the span of bit words its puts touched.
///
/// The owner sweeps plane `now` every cycle ([`Wheel::plane_mut`], `take`
/// each slot under a set bit, then [`Wheel::retire`]) and may schedule up
/// to `period - 1` cycles ahead. A plane still holding items of another
/// cycle when its turn comes round again — an item that missed its
/// delivery — is a panic, not a silent loss.
///
/// # Examples
///
/// ```
/// use punchsim_noc::link::Wheel;
///
/// // 4 routers, 2 lanes each, deliveries up to 3 cycles ahead.
/// let mut w: Wheel<&str> = Wheel::new(4, 2, 4);
/// w.put(5, 3, 1, "hello");
/// assert_eq!(w.live(), 1);
/// let (due, slots) = w.plane_mut(4);
/// assert!(due[0] == 0 && slots.iter().all(Option::is_none));
/// let (due, slots) = w.plane_mut(5);
/// assert_eq!(due[0], 0b1000);
/// assert_eq!(slots[3 * 2 + 1].take(), Some("hello"));
/// assert_eq!(w.retire(5), 1);
/// assert_eq!(w.live(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Wheel<T> {
    nodes: usize,
    lanes: usize,
    slots: Vec<Option<T>>,
    due: Vec<BitWords>,
    /// Per plane, the due cycle of its items (meaningful while it holds
    /// any).
    due_at: Vec<Cycle>,
    /// Per plane, items put and not yet retired.
    held: Vec<usize>,
    /// Per plane, the words `[lo, hi)` of its router bits that hold a set
    /// bit (meaningful while it holds any): all `retire` clears.
    touched: Vec<(usize, usize)>,
    /// Items in flight across all planes.
    live: usize,
}

impl<T> Wheel<T> {
    /// An empty wheel over `nodes` routers with `lanes` wires into each,
    /// taking deliveries up to `period - 1` cycles ahead, `period` rounded
    /// up to a power of two.
    pub fn new(nodes: usize, lanes: usize, period: usize) -> Self {
        let period = period.next_power_of_two();
        Wheel {
            nodes,
            lanes,
            slots: (0..period * nodes * lanes).map(|_| None).collect(),
            due: vec![BitWords::new(nodes); period],
            due_at: vec![0; period],
            held: vec![0; period],
            touched: vec![(0, 0); period],
            live: 0,
        }
    }

    fn step(&self, due: Cycle) -> usize {
        due as usize & (self.held.len() - 1)
    }

    /// Where plane `step` keeps the lanes into `node`.
    fn lanes_of(&self, step: usize, node: usize) -> std::ops::Range<usize> {
        let at = (step * self.nodes + node) * self.lanes;
        at..at + self.lanes
    }

    /// Where plane `step` keeps its slots.
    fn plane_of(&self, step: usize) -> std::ops::Range<usize> {
        self.lanes_of(step, 0).start..self.lanes_of(step + 1, 0).start
    }

    /// Schedules `item` for delivery over `lane` into `node` at cycle `due`.
    ///
    /// # Panics
    ///
    /// Panics if the lane already carries an item due that cycle (a wire
    /// moves one item per cycle), or if the plane still holds items of an
    /// earlier cycle (scheduled a whole period ahead, or never delivered).
    pub fn put(&mut self, due: Cycle, node: usize, lane: usize, item: T) {
        let step = self.step(due);
        assert!(
            self.held[step] == 0 || self.due_at[step] == due,
            "plane collision: cycle {due} scheduled over undelivered cycle {}",
            self.due_at[step]
        );
        let at = self.lanes_of(step, node).start + lane;
        let slot = &mut self.slots[at];
        assert!(
            slot.is_none(),
            "lane {lane} into router {node} already carries an item due at {due}"
        );
        *slot = Some(item);
        self.due[step].set(node);
        let w = node / 64;
        let touched = &mut self.touched[step];
        *touched = if self.held[step] == 0 {
            (w, w + 1)
        } else {
            (touched.0.min(w), touched.1.max(w + 1))
        };
        self.due_at[step] = due;
        self.held[step] += 1;
        self.live += 1;
    }

    /// Items in flight.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Bit `r` of word `w` set iff router `64 * w + r` has an item in
    /// flight toward it in any plane (retired planes are all-clear).
    pub fn live_word(&self, w: usize) -> u64 {
        self.due.iter().fold(0, |acc, p| acc | p.words()[w])
    }

    /// `true` when any item is in flight toward `node`, by scanning its
    /// slots in every plane — the test oracle's way of asking, independent
    /// of the router bits [`Wheel::live_word`] reads.
    pub fn inbound(&self, node: usize) -> bool {
        (0..self.held.len()).any(|step| {
            let lanes = &self.slots[self.lanes_of(step, node)];
            lanes.iter().any(Option::is_some)
        })
    }

    /// The earliest due cycle of any item in flight: the next plane a sweep
    /// delivers from, or one whose delivery cycle was skipped when it lies
    /// in the past. O(period).
    pub fn next_due(&self) -> Option<Cycle> {
        if self.live == 0 {
            return None;
        }
        let planes = self.held.iter().zip(&self.due_at);
        let held = planes.filter(|&(&held, _)| held > 0);
        held.map(|(_, &at)| at).min()
    }

    /// The plane due at `due`: its router bits and its `nodes * lanes`
    /// slots, router-major. The sweep `take`s every slot under a set bit.
    ///
    /// # Panics
    ///
    /// Panics if the plane holds items of another cycle, and (debug builds)
    /// if any earlier plane was never delivered.
    pub fn plane_mut(&mut self, due: Cycle) -> (&[u64], &mut [Option<T>]) {
        let step = self.step(due);
        assert!(
            self.held[step] == 0 || self.due_at[step] == due,
            "plane of cycle {} swept at cycle {due}",
            self.due_at[step]
        );
        debug_assert!(
            self.next_due().is_none_or(|at| at >= due),
            "a delivery was missed"
        );
        let plane = self.plane_of(step);
        (self.due[step].words(), &mut self.slots[plane])
    }

    /// Closes the sweep of plane `due`, every slot of which has been taken;
    /// returns how many items it held. Clears only the bit words its puts
    /// touched, so it is O(1) for a plane that held none.
    pub fn retire(&mut self, due: Cycle) -> usize {
        let step = self.step(due);
        let held = std::mem::take(&mut self.held[step]);
        if held > 0 {
            debug_assert_eq!(self.due_at[step], due);
            debug_assert!(self.slots[self.plane_of(step)].iter().all(Option::is_none));
            let (lo, hi) = self.touched[step];
            self.due[step].clear_words(lo..hi);
            debug_assert!(self.due[step].none_set());
            self.live -= held;
        }
        held
    }

    /// Appends the canonical snapshot encoding (see [`crate::snapshot`]) of
    /// `lanes`, router-major: per lane a count, then each item in flight on
    /// it as (due cycle rebased against `now`, `item`'s own encoding),
    /// earliest first — a FIFO wire's contents.
    pub fn encode_state(
        &self,
        now: Cycle,
        lanes: std::ops::Range<usize>,
        out: &mut Vec<u8>,
        mut item: impl FnMut(&T, &mut Vec<u8>),
    ) {
        let mut steps: Vec<usize> = (0..self.held.len()).filter(|&s| self.held[s] > 0).collect();
        steps.sort_unstable_by_key(|&s| self.due_at[s]);
        for node in 0..self.nodes {
            for lane in lanes.clone() {
                let queued = steps.iter().filter_map(|&s| {
                    let slot = &self.slots[self.lanes_of(s, node).start + lane];
                    slot.as_ref().map(|it| (self.due_at[s], it))
                });
                put_u8(out, queued.clone().count() as u8);
                for (at, it) in queued {
                    put_u64(out, at.saturating_sub(now));
                    item(it, out);
                }
            }
        }
    }
}

#[cfg(test)]
/// The polled FIFO pipe the wheels replaced, one `VecDeque` per wire: the
/// reference [`Wheel`] is tested against.
#[derive(Debug, Clone)]
struct Pipe<T> {
    queue: std::collections::VecDeque<(Cycle, T)>,
}

#[cfg(test)]
impl<T> Pipe<T> {
    fn new() -> Self {
        Pipe {
            queue: std::collections::VecDeque::new(),
        }
    }

    /// Schedules `item` for delivery at cycle `at` (in order).
    fn push_at(&mut self, item: T, at: Cycle) {
        assert!(
            self.queue.back().is_none_or(|(t, _)| *t <= at),
            "out-of-order pipe scheduling"
        );
        self.queue.push_back((at, item));
    }

    /// Pops the next item whose delivery cycle is `<= now`, if any.
    fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.queue.front().is_some_and(|(t, _)| *t <= now) {
            self.queue.pop_front().map(|(_, item)| item)
        } else {
            None
        }
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::SimRng;

    #[test]
    fn delivers_in_order_at_time() {
        let mut p = Pipe::new();
        p.push_at(1, 10);
        p.push_at(2, 10);
        p.push_at(3, 12);
        assert_eq!(p.pop_ready(9), None);
        assert_eq!(p.pop_ready(10), Some(1));
        assert_eq!(p.pop_ready(10), Some(2));
        assert_eq!(p.pop_ready(10), None);
        assert_eq!(p.pop_ready(12), Some(3));
        assert!(p.is_empty());
    }

    #[test]
    fn late_pop_still_delivers() {
        let mut p = Pipe::new();
        p.push_at("x", 1);
        assert_eq!(p.pop_ready(100), Some("x"));
    }

    /// One delivery: (router, lane, item).
    type Got = (usize, usize, u32);

    /// Everything due by `now`, skipped planes first (the order the network
    /// drains them in), each plane router-major.
    fn sweep(w: &mut Wheel<u32>, lanes: usize, now: Cycle) -> Vec<Got> {
        let mut got = Vec::new();
        let mut plane = |w: &mut Wheel<u32>, due: Cycle| {
            let before = got.len();
            let (words, slots) = w.plane_mut(due);
            crate::soa::for_each_one(words, 0, slots.len() / lanes, |node| {
                for lane in 0..lanes {
                    if let Some(item) = slots[node * lanes + lane].take() {
                        got.push((node, lane, item));
                    }
                }
            });
            assert_eq!(w.retire(due), got.len() - before);
        };
        while let Some(due) = w.next_due().filter(|&at| at < now) {
            plane(w, due);
        }
        plane(w, now);
        got
    }

    /// Wheel against one `Pipe` per wire, in lock step from one seeded
    /// stimulus: a fixed delay per wire and at most one push per wire per
    /// cycle (what a link does), with stretches of skipped cycles that
    /// leave items overdue (what a fast-forward does to credits). Every
    /// ticked cycle both must deliver the same items, in the same order
    /// wire by wire, and encode to the same bytes.
    #[test]
    fn wheel_matches_one_pipe_per_wire_in_lock_step() {
        const NODES: usize = 70; // two bit words
        const LANES: usize = 3;
        for period in 3..=6usize {
            let mut rng = SimRng::seed_from_u64(0x11E1 + period as u64);
            let mut wheel: Wheel<u32> = Wheel::new(NODES, LANES, period);
            let mut pipes: Vec<Pipe<u32>> = (0..NODES * LANES).map(|_| Pipe::new()).collect();
            let delay = |node: usize, lane: usize| 1 + ((node + lane) % (period - 1)) as Cycle;
            let (mut now, mut next_item) = (0 as Cycle, 0u32);
            let (mut delivered, mut late) = (0usize, 0usize);
            // The two skip lengths every run must see, then random ones.
            let mut skips = vec![50, 1];
            for tick in 0..3_000 {
                if tick % 40 == 39 {
                    now += skips
                        .pop()
                        .unwrap_or_else(|| rng.random_range(1..2 * period as u64 + 2));
                }
                late += usize::from(wheel.next_due().is_some_and(|at| at < now));
                let mut got = sweep(&mut wheel, LANES, now);
                let mut want: Vec<Got> = Vec::new();
                for (i, p) in pipes.iter_mut().enumerate() {
                    while let Some(item) = p.pop_ready(now) {
                        want.push((i / LANES, i % LANES, item));
                    }
                }
                // A skipped plane is drained ahead of the due one, so across
                // wires the order may differ; per wire it may not.
                got.sort_by_key(|&(node, lane, _)| (node, lane));
                assert_eq!(got, want, "period {period} cycle {now}");
                delivered += got.len();
                for node in 0..NODES {
                    for lane in 0..LANES {
                        if rng.random_bool_ppm(120_000) {
                            next_item += 1;
                            let due = now + delay(node, lane);
                            wheel.put(due, node, lane, next_item);
                            pipes[node * LANES + lane].push_at(next_item, due);
                        }
                    }
                }
                let (mut a, mut b) = (Vec::new(), Vec::new());
                wheel.encode_state(now, 0..LANES, &mut a, |it, out| out.push(*it as u8));
                for p in &pipes {
                    put_u8(&mut b, p.queue.len() as u8);
                    for &(at, it) in &p.queue {
                        put_u64(&mut b, at.saturating_sub(now));
                        b.push(it as u8);
                    }
                }
                assert_eq!(a, b, "period {period} cycle {now}");
                assert_eq!(
                    wheel.live(),
                    pipes.iter().map(|p| p.queue.len()).sum::<usize>()
                );
                now += 1;
            }
            assert!(delivered > 50_000, "period {period}: only {delivered}");
            assert!(late > 20, "period {period}: only {late} late sweeps");
        }
    }

    #[test]
    #[should_panic(expected = "already carries an item")]
    fn a_second_item_on_one_lane_in_one_cycle_panics() {
        let mut w: Wheel<u8> = Wheel::new(4, 2, 4);
        w.put(7, 2, 1, 1);
        w.put(7, 2, 0, 2); // another lane of the same router is fine
        w.put(7, 2, 1, 3);
    }

    #[test]
    #[should_panic(expected = "plane collision")]
    fn scheduling_over_an_undelivered_plane_panics() {
        let mut w: Wheel<u8> = Wheel::new(4, 2, 4);
        w.put(7, 2, 1, 1);
        w.put(11, 0, 0, 2); // 11 % 4 == 7 % 4, and cycle 7 never swept
    }

    #[test]
    #[should_panic(expected = "plane collision")]
    fn a_period_rounded_up_still_panics_a_full_period_ahead() {
        let mut w: Wheel<u8> = Wheel::new(4, 2, 3); // four planes
        w.put(7, 2, 1, 1);
        w.put(10, 0, 0, 2); // three ahead: a plane of its own
        w.put(11, 0, 0, 3); // 11 & 3 == 7 & 3, and cycle 7 never swept
    }

    #[test]
    fn an_empty_wheel_costs_nothing_to_sweep() {
        let mut w: Wheel<u8> = Wheel::new(130, 5, 4);
        assert_eq!(w.next_due(), None);
        assert_eq!(w.retire(999), 0);
        assert_eq!(w.live_word(2), 0);
        w.put(1_003, 0, 0, 8);
        w.put(1_001, 129, 4, 9);
        assert_eq!(w.live_word(2), 0b10);
        assert_eq!(w.next_due(), Some(1_001));
    }
}
