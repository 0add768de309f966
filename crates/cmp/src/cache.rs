//! A generic set-associative cache directory (tags + per-line state, no
//! data values — the simulator tracks coherence, not contents).
//!
//! Storage follows residency: a set owns no line slots until its first
//! insert and grows to at most `ways`, so a cache the workload barely
//! touches costs little more than its per-set headers.

use crate::protocol::BlockAddr;

/// One cache line: its block address and a caller-defined state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line<S> {
    /// Block address stored in this way.
    pub addr: BlockAddr,
    /// Coherence (or validity) state.
    pub state: S,
}

/// Lines resident in a cache (or a sum of caches), against its capacity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Residency {
    /// Lines resident now.
    pub resident: usize,
    /// Lines the cache can hold: sets x ways.
    pub capacity: usize,
}

impl std::iter::Sum for Residency {
    fn sum<I: Iterator<Item = Residency>>(iter: I) -> Self {
        iter.fold(Residency::default(), |a, b| Residency {
            resident: a.resident + b.resident,
            capacity: a.capacity + b.capacity,
        })
    }
}

/// A set-associative cache with LRU replacement. Each set starts empty and
/// grows on demand, never past `ways` lines of capacity.
///
/// # Examples
///
/// ```
/// use punchsim_cmp::cache::SetAssoc;
///
/// // 4 sets x 2 ways.
/// let mut c: SetAssoc<u8> = SetAssoc::new(4, 2);
/// assert_eq!(c.insert(0x10, 1), None);
/// assert_eq!(c.insert(0x14, 2), None); // same set, second way
/// assert_eq!(c.get(0x10).copied(), Some(1));
/// // Third block in the set evicts the LRU line (0x14).
/// let victim = c.insert(0x18, 3).unwrap();
/// assert_eq!(victim.addr, 0x14);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssoc<S> {
    /// Per set, most-recently-used first; capacity grows with residency.
    sets: Vec<Vec<Line<S>>>,
    ways: usize,
}

/// Moves `set[pos]` to the front (MRU), shifting the lines before it one
/// way back: a memmove of `pos` lines and one store.
#[inline]
fn to_front<S: Copy>(set: &mut [Line<S>], pos: usize) {
    let line = set[pos];
    set.copy_within(..pos, 1);
    set[0] = line;
}

impl<S: Copy> SetAssoc<S> {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "need at least one way");
        SetAssoc {
            sets: (0..sets).map(|_| Vec::new()).collect(),
            ways,
        }
    }

    /// Builds from capacity in blocks.
    pub fn with_capacity_blocks(blocks: usize, ways: usize) -> Self {
        let sets = (blocks / ways).next_power_of_two();
        SetAssoc::new(sets, ways)
    }

    fn set_of(&self, addr: BlockAddr) -> usize {
        // Mix upper bits so strided/private-region addresses spread.
        let h = addr ^ (addr >> 16) ^ (addr >> 32);
        (h as usize) & (self.sets.len() - 1)
    }

    /// Looks up `addr`, refreshing LRU; returns the state if present.
    pub fn get(&mut self, addr: BlockAddr) -> Option<&S> {
        let s = self.set_of(addr);
        let set = &mut self.sets[s];
        let pos = set.iter().position(|l| l.addr == addr)?;
        to_front(set, pos);
        Some(&set[0].state)
    }

    /// Looks up `addr` without LRU update; returns a mutable state.
    pub fn peek_mut(&mut self, addr: BlockAddr) -> Option<&mut S> {
        let s = self.set_of(addr);
        self.sets[s]
            .iter_mut()
            .find(|l| l.addr == addr)
            .map(|l| &mut l.state)
    }

    /// `true` if `addr` is cached (no LRU update).
    pub fn contains(&self, addr: BlockAddr) -> bool {
        let s = self.set_of(addr);
        self.sets[s].iter().any(|l| l.addr == addr)
    }

    /// Inserts `addr` with `state` as MRU; returns the evicted line if the
    /// set was full. Re-inserting an existing address updates its state.
    pub fn insert(&mut self, addr: BlockAddr, state: S) -> Option<Line<S>> {
        let s = self.set_of(addr);
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|l| l.addr == addr) {
            to_front(set, pos);
            set[0].state = state;
            return None;
        }
        let line = Line { addr, state };
        if set.len() == self.ways {
            let victim = std::mem::replace(&mut set[self.ways - 1], line);
            to_front(set, self.ways - 1);
            return Some(victim);
        }
        if set.len() == set.capacity() {
            // Grow geometrically (from 4 lines) but never past `ways`.
            let cap = (set.capacity() * 2).max(4).min(self.ways);
            set.reserve_exact(cap - set.len());
        }
        set.insert(0, line);
        None
    }

    /// Removes `addr`, returning its line if it was present.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<Line<S>> {
        let s = self.set_of(addr);
        let set = &mut self.sets[s];
        let pos = set.iter().position(|l| l.addr == addr)?;
        Some(set.remove(pos))
    }

    /// The line that would be evicted by inserting a (new) `addr` now.
    pub fn victim_for(&self, addr: BlockAddr) -> Option<&Line<S>> {
        let s = self.set_of(addr);
        let set = &self.sets[s];
        if set.iter().any(|l| l.addr == addr) || set.len() < self.ways {
            None
        } else {
            set.last()
        }
    }

    /// Iterates over all resident lines in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Line<S>> {
        self.sets.iter().flatten()
    }

    /// Lines resident now, against the capacity.
    pub fn residency(&self) -> Residency {
        Residency {
            resident: self.len(),
            capacity: self.sets.len() * self.ways,
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// `true` when no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_order_respected() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Touch 1 so 2 becomes LRU.
        assert_eq!(c.get(1).copied(), Some(10));
        let v = c.insert(3, 30).unwrap();
        assert_eq!(v.addr, 2);
        assert!(c.contains(1));
        assert!(c.contains(3));
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(c.insert(1, 11).is_none());
        assert_eq!(c.get(1).copied(), Some(11));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn victim_for_predicts_eviction() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2);
        c.insert(1, 10);
        assert!(c.victim_for(2).is_none()); // set not full
        c.insert(2, 20);
        assert_eq!(c.victim_for(3).unwrap().addr, 1);
        assert!(c.victim_for(1).is_none()); // hit: no eviction
        let v = c.insert(3, 30).unwrap();
        assert_eq!(v.addr, 1);
    }

    #[test]
    fn storage_follows_residency_and_never_exceeds_ways() {
        let fresh: SetAssoc<u8> = SetAssoc::with_capacity_blocks(4096, 16);
        assert_eq!(
            fresh.residency(),
            Residency {
                resident: 0,
                capacity: 4096
            }
        );
        assert!(
            fresh.sets.iter().all(|s| s.capacity() == 0),
            "a fresh cache owns no line storage"
        );
        for ways in [1, 2, 3, 5, 16] {
            let mut c: SetAssoc<u8> = SetAssoc::new(1, ways);
            for a in 0..3 * ways as u64 {
                c.insert(a, 0);
                let set = &c.sets[0];
                assert!(set.capacity() <= ways, "{ways} ways: {}", set.capacity());
            }
            assert_eq!(c.len(), ways);
        }
    }

    #[test]
    fn mru_order_survives_hits_reinserts_and_evictions() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 4);
        for a in 1..=4 {
            c.insert(a, a as u32);
        }
        let order = |c: &SetAssoc<u32>| c.iter().map(|l| l.addr).collect::<Vec<_>>();
        assert_eq!(order(&c), [4, 3, 2, 1]);
        c.get(2);
        assert_eq!(order(&c), [2, 4, 3, 1]);
        assert!(c.insert(3, 30).is_none());
        assert_eq!(order(&c), [3, 2, 4, 1]);
        assert_eq!(c.insert(5, 50).map(|l| l.addr), Some(1));
        assert_eq!(order(&c), [5, 3, 2, 4]);
        assert_eq!(c.remove(2).map(|l| l.state), Some(2));
        assert_eq!(order(&c), [5, 3, 4]);
    }

    #[test]
    fn remove_and_capacity() {
        let mut c: SetAssoc<u8> = SetAssoc::with_capacity_blocks(512, 2);
        for a in 0..600u64 {
            c.insert(a * 64, 0);
        }
        assert!(c.len() <= 512);
        let resident = (0..600u64)
            .map(|a| a * 64)
            .find(|&a| c.contains(a))
            .unwrap();
        assert!(c.remove(resident).is_some());
        assert!(!c.contains(resident));
        assert!(c.remove(resident).is_none());
    }
}
