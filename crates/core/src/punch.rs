//! Punch signals: normalized target sets and the sideband fabric that
//! relays them one hop per cycle (§4.1 of the paper).
//!
//! A *punch signal* is the merged encoding of every wakeup signal crossing a
//! link in one cycle. Thanks to XY-routing turn restrictions and the
//! *implied target* rule (a target on the path to a farther target can be
//! dropped), the set of distinct signals per link is tiny — 22 on an X link
//! for 3-hop punches (Table 1), 3 on a Y link — so merging is contention-free
//! with 5-bit/2-bit wires. This module carries the *sets*; the codeword
//! assignment lives in [`crate::codebook`].
//!
//! [`PunchFabric`] holds state only for what is in flight — a list of the
//! sets on the wires and a list of queued local generations, merged in
//! ascending router order each tick — so the sideband costs what it
//! carries, not the size of the mesh.

use punchsim_types::{Direction, NodeId, RouteView};

/// Maximum distinct targets a single punch signal can carry after
/// normalization (2 suffices for 3-hop punches on X links; 4-hop punches
/// need one more; the extra headroom is asserted, never silently dropped).
pub const MAX_TARGETS: usize = 6;

/// A normalized set of targeted routers carried by one punch signal.
///
/// Invariants: no duplicate targets, and no target lies on the XY path (from
/// the sending router) to another target — such *implied* targets are
/// removed by [`PunchSet::insert_normalized`], because every router a punch
/// passes through is woken anyway (§4.1 step 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PunchSet {
    targets: [NodeId; MAX_TARGETS],
    len: u8,
}

impl PunchSet {
    /// The empty signal (idle wire).
    pub fn new() -> Self {
        PunchSet::default()
    }

    /// Number of explicit targets.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when the wire is idle.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The explicit targets, in insertion-then-normalization order.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets[..self.len as usize]
    }

    /// `true` if `t` is an explicit target.
    pub fn contains(&self, t: NodeId) -> bool {
        self.targets().contains(&t)
    }

    /// Inserts `t` into the set, maintaining the normalization invariant
    /// with respect to routes rooted at `sender` (under `view`'s topology
    /// and routing function):
    ///
    /// * if `t` lies on the path to an existing target, it is implied —
    ///   nothing changes;
    /// * existing targets that lie on the path to `t` become implied and
    ///   are removed.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_TARGETS`] independent targets accumulate —
    /// the fabric's one-local-generation-per-cycle arbitration makes that
    /// unreachable.
    pub fn insert_normalized(&mut self, view: impl Into<RouteView>, sender: NodeId, t: NodeId) {
        let view = view.into();
        debug_assert_ne!(t, sender, "a punch target is never the sender");
        let mut keep = [NodeId(0); MAX_TARGETS];
        let mut n = 0usize;
        for &old in self.targets() {
            if old == t || view.on_path(sender, old, t) {
                // `t` is implied by `old`: set unchanged.
                return;
            }
            if !view.on_path(sender, t, old) {
                keep[n] = old;
                n += 1;
            }
        }
        assert!(n < MAX_TARGETS, "punch set overflow");
        keep[n] = t;
        n += 1;
        self.targets = keep;
        self.len = n as u8;
    }

    /// A canonical (sorted) copy, for codebook lookup and comparison.
    pub fn canonical(&self) -> PunchSet {
        let mut c = *self;
        c.targets[..c.len as usize].sort_unstable();
        c
    }
}

impl std::fmt::Display for PunchSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.targets().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", t.0)?;
        }
        write!(f, "}}")
    }
}

/// One punch set on a wire: it reaches router `to` over the link on `to`'s
/// `from` side (the sender is `to`'s neighbour that way) at the next tick.
#[derive(Debug, Clone, Copy)]
struct Wire {
    to: NodeId,
    from: Direction,
    set: PunchSet,
}

/// One queued local generation: a wakeup for `target`, waiting to leave
/// `router` toward `dir`.
#[derive(Debug, Clone, Copy)]
struct Gen {
    router: NodeId,
    dir: Direction,
    target: NodeId,
}

/// The per-link punch wires of the whole mesh, advanced one hop per cycle.
///
/// Each cycle, a router merges (a) punch sets reaching it on its input wires
/// and (b) at most one locally generated wakeup per output direction
/// (additional local wakeups wait a cycle in a small queue — the hardware
/// encoder can only express codebook sets), then forwards each target along
/// its route. Every router a set arrives at is *notified*: the power
/// manager wakes it if off and defers its sleep timer.
///
/// # Transit lists
///
/// The fabric holds state only for what is in flight: two short lists,
/// not per-router wires and queues, so a tick costs O(sets in flight +
/// queued generations), not O(mesh). Between ticks:
///
/// - `wires` holds one entry per non-empty wire, sorted by `(to, from)`
///   (each key is unique: `from` names the sender);
/// - `gens` holds the queued generations sorted by router, FIFO within
///   each `(router, dir)`;
/// - a tick merges the two in ascending router order, visiting each router
///   once with its arrivals in `from` order and then at most one
///   generation per output, so notify order, merge order (`insert_normalized`),
///   `hops_sent_at`, [`PunchFabric::in_flight`] and `encode_state` are
///   exactly those of a `0..n` sweep (kept as the test oracle in
///   `punch_reference.rs`).
#[derive(Debug, Clone)]
pub struct PunchFabric {
    view: RouteView,
    hops: u16,
    /// Sets in flight, delivered next tick.
    wires: Vec<Wire>,
    /// Locally generated targets not yet sent.
    gens: Vec<Gen>,
    /// Total non-idle signal link traversals (wire energy metric).
    pub hops_sent: u64,
    /// Per-router breakdown of `hops_sent`: `hops_sent_at[r]` counts the
    /// traversals departing router `r` (sums to `hops_sent`). A
    /// statistic like `hops_sent`, excluded from `encode_state`.
    pub hops_sent_at: Vec<u64>,
    /// Routers visited by `tick`: pins the cost model without a clock.
    #[cfg(test)]
    pub(crate) visits: u64,
}

impl PunchFabric {
    /// Creates an idle fabric over the given substrate + routing (a bare
    /// `Mesh` selects XY) with punch depth `hops`.
    pub fn new(view: impl Into<RouteView>, hops: u16) -> Self {
        let view = view.into();
        let n = view.topo.nodes();
        PunchFabric {
            view,
            hops,
            wires: Vec::new(),
            gens: Vec::new(),
            hops_sent: 0,
            hops_sent_at: vec![0; n],
            #[cfg(test)]
            visits: 0,
        }
    }

    /// Punch depth H (how many hops ahead wakeups target).
    pub fn hops(&self) -> u16 {
        self.hops
    }

    /// Appends the fabric's canonical snapshot encoding (see
    /// `punchsim_noc::snapshot`): for every router and input direction the
    /// punch set on that wire (canonical target order — merge order within
    /// a cycle is not semantic; an idle wire is an empty set), then for
    /// every router and output direction its queued locally-generated
    /// targets. `hops_sent` is a statistic (monotone) and excluded.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use punchsim_noc::snapshot::{put_u16, put_u8};
        let n = self.view.topo.nodes();
        let mut wires = self.wires.iter().peekable();
        for r in 0..n {
            for from in Direction::ALL {
                match wires.next_if(|w| w.to.index() == r && w.from == from) {
                    Some(w) => {
                        let canon = w.set.canonical();
                        put_u8(out, canon.len() as u8);
                        for &t in canon.targets() {
                            put_u16(out, t.0);
                        }
                    }
                    None => put_u8(out, 0),
                }
            }
        }
        let mut rest = &self.gens[..];
        for r in 0..n {
            let (run, tail) = rest.split_at(rest.partition_point(|g| g.router.index() == r));
            rest = tail;
            for dir in Direction::ALL {
                put_u8(out, run.iter().filter(|g| g.dir == dir).count() as u8);
                for g in run.iter().filter(|g| g.dir == dir) {
                    put_u16(out, g.target.0);
                }
            }
        }
    }

    /// Queues a wakeup generated at `router` for a packet destined to `dst`,
    /// returning the punched target for observability.
    ///
    /// The target is the router `min(H, dist)` hops ahead on the route
    /// (§4.1 step 1). Nothing is queued when `router == dst` (returns
    /// `None`).
    pub fn generate(&mut self, router: NodeId, dst: NodeId) -> Option<NodeId> {
        if router == dst {
            return None;
        }
        let target = self.view.router_ahead(router, dst, self.hops);
        let dir = self
            .view
            .direction(router, target)
            .expect("target != router by construction");
        // Behind every generation already queued at `router`: FIFO.
        let at = self.gens.partition_point(|g| g.router <= router);
        self.gens.insert(
            at,
            Gen {
                router,
                dir,
                target,
            },
        );
        Some(target)
    }

    /// Advances the fabric one cycle. Calls `notify(router)` for every
    /// router that receives a punch arrival (targeted *or* en route — both
    /// must stay awake or wake up), in ascending router order.
    ///
    /// Cost: O(sets in flight + queued generations).
    pub fn tick(&mut self, mut notify: impl FnMut(NodeId)) {
        let arrived = self.wires.len();
        let queued = self.gens.len();
        // `w`/`g` read this cycle's entries; generations that stay queued
        // are compacted to `kept`, and shipped sets are appended behind
        // the arrivals (dropped below).
        let (mut w, mut g, mut kept) = (0, 0, 0);
        loop {
            let wire = self.wires[..arrived].get(w).map(|x| x.to);
            let gen = self.gens[..queued].get(g).map(|x| x.router);
            let Some(here) = wire.into_iter().chain(gen).min() else {
                break;
            };
            #[cfg(test)]
            {
                self.visits += 1;
            }
            let mut outgoing = [PunchSet::new(); 4];
            while w < arrived && self.wires[w].to == here {
                for &t in self.wires[w].set.targets() {
                    if t == here {
                        continue; // final target reached; consumed
                    }
                    let dir = self.view.direction(here, t).expect("t != here");
                    outgoing[dir.index()].insert_normalized(self.view, here, t);
                }
                w += 1;
            }
            // One local generation per output; later ones for the same
            // output stay queued, in order.
            let mut popped = [false; 4];
            while g < queued && self.gens[g].router == here {
                let gen = self.gens[g];
                g += 1;
                let d = gen.dir.index();
                if popped[d] {
                    self.gens[kept] = gen;
                    kept += 1;
                } else {
                    popped[d] = true;
                    outgoing[d].insert_normalized(self.view, here, gen.target);
                }
            }
            // Every visited router holds an arrival or pops a generation
            // (the first of its output), and both notify: generations wake
            // the local router when it is the first hop of an injection
            // punch.
            notify(here);
            for (d, set) in outgoing.into_iter().enumerate() {
                if set.is_empty() {
                    continue;
                }
                let dir = Direction::ALL[d];
                let Some(to) = self.view.topo.neighbor(here, dir) else {
                    debug_assert!(false, "punch target routed off the substrate");
                    continue;
                };
                self.hops_sent += 1;
                self.hops_sent_at[here.index()] += 1;
                self.wires.push(Wire {
                    to,
                    from: dir.opposite(),
                    set,
                });
            }
        }
        self.gens.truncate(kept);
        self.wires.drain(..arrived);
        self.wires.sort_unstable_by_key(|w| (w.to, w.from));
    }

    /// In-flight punch sets as `(link_source, direction, set)` — the set is
    /// currently traversing the wire leaving `link_source` toward
    /// `direction` (test and validation hook).
    pub fn in_flight(&self) -> Vec<(NodeId, Direction, PunchSet)> {
        self.wires
            .iter()
            .map(|w| {
                let src = self
                    .view
                    .topo
                    .neighbor(w.to, w.from)
                    .expect("punch arrived over a real link");
                (src, w.from.opposite(), w.set)
            })
            .collect()
    }

    /// Number of punch signals in flight on wires plus locally queued
    /// generations — the sideband backlog reported in stall diagnostics.
    /// O(1): the two list lengths.
    pub fn pending(&self) -> usize {
        debug_assert!(
            self.wires
                .windows(2)
                .all(|p| (p[0].to, p[0].from) < (p[1].to, p[1].from))
                && self.gens.windows(2).all(|p| p[0].router <= p[1].router),
            "transit lists out of order"
        );
        self.wires.len() + self.gens.len()
    }

    /// `true` when no signals are in flight and no generations queued. O(1).
    pub fn is_idle(&self) -> bool {
        self.pending() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::Mesh;

    fn mesh8() -> Mesh {
        Mesh::new(8, 8)
    }

    #[test]
    fn implied_targets_are_dropped() {
        // §4.1 step 4: merging 27->21 with 26->29 keeps only {21} on the
        // 27->28 wire, because 29 lies on the path from 27 to 21.
        let m = mesh8();
        let mut s = PunchSet::new();
        s.insert_normalized(m, NodeId(27), NodeId(21));
        s.insert_normalized(m, NodeId(27), NodeId(29));
        assert_eq!(s.targets(), &[NodeId(21)]);
        // Insertion order must not matter.
        let mut s2 = PunchSet::new();
        s2.insert_normalized(m, NodeId(27), NodeId(29));
        s2.insert_normalized(m, NodeId(27), NodeId(21));
        assert_eq!(s2.targets(), &[NodeId(21)]);
    }

    #[test]
    fn independent_targets_coexist() {
        // Table 1 entry 13: {21, 36} is a valid two-target set.
        let m = mesh8();
        let mut s = PunchSet::new();
        s.insert_normalized(m, NodeId(27), NodeId(21));
        s.insert_normalized(m, NodeId(27), NodeId(36));
        let c = s.canonical();
        assert_eq!(c.targets(), &[NodeId(21), NodeId(36)]);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let m = mesh8();
        let mut s = PunchSet::new();
        s.insert_normalized(m, NodeId(27), NodeId(29));
        s.insert_normalized(m, NodeId(27), NodeId(29));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn generate_targets_min_hops_ahead() {
        let m = mesh8();
        let mut f = PunchFabric::new(m, 3);
        // Packet at R26 destined to R31: target R29 (paper example).
        f.generate(NodeId(26), NodeId(31));
        let mut notified = Vec::new();
        // Cycle 1: the set leaves R26 eastward and arrives at R27.
        f.tick(|r| notified.push(r));
        assert_eq!(notified, vec![NodeId(26)]);
        notified.clear();
        f.tick(|r| notified.push(r));
        assert_eq!(notified, vec![NodeId(27)]);
        notified.clear();
        f.tick(|r| notified.push(r));
        assert_eq!(notified, vec![NodeId(28)]);
        notified.clear();
        f.tick(|r| notified.push(r));
        assert_eq!(notified, vec![NodeId(29)]);
        notified.clear();
        // Consumed at the target: nothing further.
        f.tick(|r| notified.push(r));
        assert!(notified.is_empty());
        assert!(f.is_idle());
        assert_eq!(f.hops_sent, 3);
    }

    #[test]
    fn turning_punch_follows_xy_path() {
        let m = mesh8();
        let mut f = PunchFabric::new(m, 3);
        // R26 -> dst R44 (x=4,y=5): path 27, 28, then south; 3-hop target
        // is R36 (x=4,y=4).
        f.generate(NodeId(26), NodeId(44));
        let mut seen = Vec::new();
        for _ in 0..6 {
            f.tick(|r| seen.push(r));
        }
        assert_eq!(
            seen,
            vec![NodeId(26), NodeId(27), NodeId(28), NodeId(36)],
            "notification sweeps the XY path to the 3-hop target"
        );
    }

    #[test]
    fn same_cycle_generations_merge_contention_free() {
        let m = mesh8();
        let mut f = PunchFabric::new(m, 3);
        // R27 targets R21 (via 28); simultaneously R26's relay would do so
        // too. Generate two wakeups at 27 with different destinations whose
        // targets share the eastward wire.
        f.generate(NodeId(27), NodeId(23)); // target 3 hops east: R30
        f.generate(NodeId(27), NodeId(21)); // target R21 (2 east, 1 north)
                                            // One local generation per output per cycle: the second waits.
        let mut rounds: Vec<Vec<NodeId>> = Vec::new();
        for _ in 0..8 {
            let mut v = Vec::new();
            f.tick(|r| v.push(r));
            rounds.push(v);
        }
        let all: Vec<NodeId> = rounds.concat();
        // Both 30 and 21 eventually get notified.
        assert!(all.contains(&NodeId(30)));
        assert!(all.contains(&NodeId(21)));
        assert!(f.is_idle());
    }

    #[test]
    fn relay_merges_with_local_generation() {
        let m = mesh8();
        let mut f = PunchFabric::new(m, 3);
        // A relay from R26 (target 36, turning south at 28) and a local
        // generation at R27 (target 30, straight east) share the 27->28 wire
        // in the same cycle without delaying each other.
        f.generate(NodeId(26), NodeId(36));
        f.tick(|_| {}); // 26 -> 27 in flight
        f.generate(NodeId(27), NodeId(23)); // target R30 via east
        let mut seen = Vec::new();
        for _ in 0..6 {
            f.tick(|r| seen.push(r));
        }
        assert!(seen.contains(&NodeId(36)));
        assert!(seen.contains(&NodeId(30)));
        // 36 and 30 diverge at 28; both were carried across 27->28 at once.
        assert!(f.is_idle());
    }
}
