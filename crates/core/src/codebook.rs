//! Punch signals and their codebooks (§4.1 steps 3–5 of the paper). A
//! [`PunchSet`] is the normalized target set one signal carries; a link's
//! codebook is the fixpoint closure of every set it can carry, each a merge
//! of at most one local generation and one relayed set per upstream link.
//! The turn model enters only through [`RouteView`]: Table 1 (22 sets in 5
//! bits on R27's X+ link, 8x8 XY mesh, H = 3) and the 2-bit Y links are the
//! XY case, YX transposes them, and the same closure step run around one
//! router derives the fabric's wire format ([`crate::punch`]).

use std::collections::BTreeSet;

use punchsim_types::{Direction, NodeId, RouteView};

/// Maximum targets of one normalized punch signal (2 suffice at H = 3, 3 at
/// H = 4; overflowing the headroom is asserted, never silently dropped).
pub const MAX_TARGETS: usize = 6;

/// A normalized set of targeted routers carried by one punch signal.
///
/// Invariants: no duplicate targets, and no target lies on the route (from
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

    /// Inserts `t`, keeping the set normalized for routes from `sender`:
    /// `t` is dropped if it lies on the path to a target, and targets on
    /// the path to `t` are removed.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_TARGETS`] independent targets accumulate.
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

    /// This set with `targets` inserted, normalized for routes from `sender`.
    #[inline]
    pub(crate) fn with(mut self, view: RouteView, sender: NodeId, targets: &[NodeId]) -> Self {
        for &t in targets {
            self.insert_normalized(view, sender, t);
        }
        self
    }

    /// A canonical (sorted) copy, for codebook lookup and comparison.
    #[inline]
    pub fn canonical(&self) -> PunchSet {
        let mut c = *self;
        c.targets[..c.len as usize].sort_unstable();
        c
    }

    /// Every target moved by `f` (a translation keeps the set normalized).
    pub(crate) fn translated(&self, mut f: impl FnMut(NodeId) -> NodeId) -> PunchSet {
        let mut c = *self;
        for t in &mut c.targets[..c.len as usize] {
            *t = f(*t);
        }
        c.canonical()
    }
}

impl std::fmt::Display for PunchSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ids: Vec<String> = self.targets().iter().map(|t| t.0.to_string()).collect();
        write!(f, "{{{}}}", ids.join(", "))
    }
}

/// The relay of `set` arriving at `r` toward `dir`: the targets that leave
/// that way, normalized for routes from `r`.
#[inline]
pub(crate) fn relay(view: RouteView, r: NodeId, dir: Direction, set: &PunchSet) -> PunchSet {
    let mut out = PunchSet::new();
    for &t in set.targets() {
        if t != r && view.direction(r, t) == Some(dir) {
            out.insert_normalized(view, r, t);
        }
    }
    out
}

/// One closure step of the link leaving `r` toward `dir`: adds to `out`
/// every canonical non-empty set it carries in a cycle where each input
/// holds one of the sets `arriving` over it (or nothing) and at most one of
/// the local generations `gens` joins.
pub(crate) fn link_sets<'a>(
    view: RouteView,
    r: NodeId,
    dir: Direction,
    arriving: impl IntoIterator<Item = &'a BTreeSet<PunchSet>>,
    gens: &[NodeId],
    out: &mut BTreeSet<PunchSet>,
) {
    // Combine relays across inputs (each may be absent), then with at most
    // one local generation.
    let mut combos = vec![PunchSet::new()];
    for sets in arriving {
        let relays = sets.iter().map(|s| relay(view, r, dir, s).canonical());
        let relays: BTreeSet<PunchSet> = relays.filter(|s| !s.is_empty()).collect();
        let mut next = Vec::with_capacity(combos.len() * (relays.len() + 1));
        for &base in &combos {
            next.push(base);
            next.extend(relays.iter().map(|s| base.with(view, r, s.targets())));
        }
        combos = next;
    }
    for base in combos {
        let local = gens.iter().map(|&g| base.with(view, r, &[g]));
        let all = std::iter::once(base).chain(local).filter(|s| !s.is_empty());
        out.extend(all.map(|s| s.canonical()));
    }
}

/// The codebook of one directed link: every non-empty normalized target set
/// it can carry, in canonical order (code `c` is the `c - 1`-th; 0 is the
/// idle wire), plus the derived wire width.
#[derive(Debug, Clone)]
pub struct LinkCodebook {
    /// Router the link leaves.
    pub from: NodeId,
    /// Direction the link points.
    pub dir: Direction,
    sets: Vec<PunchSet>,
}

impl LinkCodebook {
    /// Number of distinct non-empty signals.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// The distinct signals, canonical (sorted targets), ascending.
    pub fn sets(&self) -> &[PunchSet] {
        &self.sets
    }

    /// Wire width in bits: enough codewords for every set plus the idle
    /// state (code 0).
    pub fn width_bits(&self) -> u32 {
        usize::BITS - self.sets.len().leading_zeros()
    }

    /// The codeword assigned to `set` (0 is the idle wire), or `None` if the
    /// set is not expressible on this link.
    pub fn encode(&self, set: &PunchSet) -> Option<u16> {
        if set.is_empty() {
            return Some(0);
        }
        let found = self.sets.binary_search(&set.canonical()).ok();
        found.map(|i| i as u16 + 1)
    }

    /// The target set for a codeword, or `None` if out of range.
    pub fn decode(&self, code: u16) -> Option<PunchSet> {
        match code {
            0 => Some(PunchSet::new()),
            c => self.sets.get(c as usize - 1).copied(),
        }
    }
}

/// All link codebooks of a topology for a given punch depth.
#[derive(Debug, Clone)]
pub struct Codebook {
    /// Indexed `4 * router + direction`; `None` at topology edges.
    links: Vec<Option<LinkCodebook>>,
}

impl Codebook {
    /// Enumerates the codebooks of a topology/routing pair (a bare
    /// [`punchsim_types::Mesh`] means XY, as in the paper) at punch depth
    /// `hops` by fixpoint closure; polynomial in the network's size.
    pub fn enumerate(view: impl Into<RouteView>, hops: u16) -> Self {
        let view: RouteView = view.into();
        let topo = view.topo;
        let at = |r: NodeId, d: Direction| 4 * r.index() + d.index();
        let links = || {
            topo.iter_nodes()
                .flat_map(|r| Direction::ALL.map(|d| (r, d)))
        };
        // Locally generated targets per link: every router within `hops`
        // whose route leaves through it.
        let mut gen = vec![Vec::new(); 4 * topo.nodes()];
        for r in topo.iter_nodes() {
            let near = topo
                .iter_nodes()
                .filter(|&t| t != r && topo.distance(r, t) <= hops);
            near.for_each(|t| gen[at(r, view.direction(r, t).expect("t != r"))].push(t));
        }
        let mut sets = vec![BTreeSet::new(); 4 * topo.nodes()];
        let mut changed = true;
        while changed {
            changed = false;
            for (r, dir) in links().filter(|&(r, d)| topo.neighbor(r, d).is_some()) {
                // A link is never its own upstream: fill it out of place.
                let mut out = std::mem::take(&mut sets[at(r, dir)]);
                let before = out.len();
                // The link arriving from side `f` leaves the neighbour there
                // toward `r`.
                let up = |f: Direction| Some(&sets[at(topo.neighbor(r, f)?, f.opposite())]);
                let arriving = Direction::ALL.into_iter().filter_map(up);
                link_sets(view, r, dir, arriving, &gen[at(r, dir)], &mut out);
                changed |= out.len() != before;
                sets[at(r, dir)] = out;
            }
        }
        let link = |((from, dir), sets): ((NodeId, Direction), BTreeSet<_>)| {
            let sets = sets.into_iter().collect();
            topo.neighbor(from, dir)
                .map(|_| LinkCodebook { from, dir, sets })
        };
        let links = links().zip(sets).map(link).collect();
        Codebook { links }
    }

    /// The codebook of the link leaving `r` toward `dir`, or `None` at a
    /// mesh edge.
    pub fn link(&self, r: NodeId, dir: Direction) -> Option<&LinkCodebook> {
        self.links[4 * r.index() + dir.index()].as_ref()
    }

    /// Iterates over all link codebooks.
    pub fn iter(&self) -> impl Iterator<Item = &LinkCodebook> {
        self.links.iter().flatten()
    }

    /// The widest X-direction link in bits.
    pub fn max_x_width(&self) -> u32 {
        let x = self.iter().filter(|l| l.dir.is_x());
        x.map(LinkCodebook::width_bits).max().unwrap_or(0)
    }

    /// The widest Y-direction link in bits.
    pub fn max_y_width(&self) -> u32 {
        let y = self.iter().filter(|l| l.dir.is_y());
        y.map(LinkCodebook::width_bits).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::{Mesh, RoutingKind};

    #[test]
    fn implied_targets_are_dropped() {
        // §4.1 step 4: merging 27->21 with 26->29 keeps only {21} on the
        // 27->28 wire, because 29 lies on the path from 27 to 21.
        let m = Mesh::new(8, 8);
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
        let m = Mesh::new(8, 8);
        let mut s = PunchSet::new();
        s.insert_normalized(m, NodeId(27), NodeId(21));
        s.insert_normalized(m, NodeId(27), NodeId(36));
        let c = s.canonical();
        assert_eq!(c.targets(), &[NodeId(21), NodeId(36)]);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let m = Mesh::new(8, 8);
        let mut s = PunchSet::new();
        s.insert_normalized(m, NodeId(27), NodeId(29));
        s.insert_normalized(m, NodeId(27), NodeId(29));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn table1_x_plus_of_r27_has_22_sets_in_5_bits() {
        // The paper's Table 1: all distinctive target sets on the X+ link
        // of R27 in an 8x8 mesh with 3-hop punches.
        let cb = Codebook::enumerate(Mesh::new(8, 8), 3);
        let link = cb.link(NodeId(27), Direction::East).unwrap();
        assert_eq!(link.set_count(), 22);
        assert_eq!(link.width_bits(), 5);
    }

    #[test]
    fn table1_contains_paper_examples() {
        let cb = Codebook::enumerate(Mesh::new(8, 8), 3);
        let link = cb.link(NodeId(27), Direction::East).unwrap();
        let m = Mesh::new(8, 8);
        let set = |ids: &[u16]| {
            let mut s = PunchSet::new();
            for &i in ids {
                s.insert_normalized(m, NodeId(27), NodeId(i));
            }
            s.canonical()
        };
        // Entries 1, 8, 13, 19, 22 of Table 1.
        for ids in [
            &[28][..],
            &[29][..],
            &[21, 36][..],
            &[44, 29][..],
            &[29, 36][..],
        ] {
            let s = set(ids);
            assert!(link.encode(&s).is_some(), "set {s} must be in the codebook");
        }
        // Merging 27->21 with 26->29 yields plain {21} (entry 3): both are
        // encodable and 29 is implied.
        let merged = set(&[21, 29]);
        assert_eq!(merged, set(&[21]));
    }

    #[test]
    fn y_links_need_2_bits() {
        // §4.1 step 4: Y-direction punch signals have 3 distinctive sets
        // (straight-line targets only), so 2 bits suffice.
        let cb = Codebook::enumerate(Mesh::new(8, 8), 3);
        for l in cb.iter().filter(|l| l.dir.is_y()) {
            assert!(
                l.set_count() <= 3,
                "link {}->{} has {} sets",
                l.from,
                l.dir,
                l.set_count()
            );
            // Every Y set is a singleton after normalization.
            for s in l.sets() {
                assert_eq!(s.len(), 1, "Y set {s} must be a singleton");
            }
        }
        assert_eq!(cb.max_y_width(), 2);
    }

    #[test]
    fn x_links_fit_5_bits_at_h3() {
        let cb = Codebook::enumerate(Mesh::new(8, 8), 3);
        assert_eq!(cb.max_x_width(), 5);
        // No X set carries more than 2 explicit targets at H=3.
        for l in cb.iter().filter(|l| l.dir.is_x()) {
            for s in l.sets() {
                assert!(s.len() <= 2, "{s} on {}->{}", l.from, l.dir);
            }
        }
    }

    #[test]
    fn h4_x_links_fit_8_bits() {
        // §4.1 step 5: "for the case of 4-hop wakeup signal slack, the
        // width of punch signals is 8-bit for the X directions and 2-bit
        // for the Y directions". Our enumeration confirms the 8-bit X
        // claim exactly (145 sets on the worst link). Y links carry 4
        // straight-line distances plus the idle state = 5 codes, which
        // needs 3 bits; the paper's "2-bit" figure counts only the 4
        // distances (idle signalled separately). See EXPERIMENTS.md.
        let cb = Codebook::enumerate(Mesh::new(8, 8), 4);
        assert_eq!(cb.max_x_width(), 8);
        assert_eq!(cb.max_y_width(), 3);
        for l in cb.iter().filter(|l| l.dir.is_y()) {
            assert!(l.set_count() <= 4);
        }
    }

    #[test]
    fn yx_routing_transposes_the_paper_widths() {
        // Under YX routing the roles of the axes swap: Y links carry the
        // rich multi-target sets (5 bits at H=3 on 8x8) and X links carry
        // only straight-line singletons (2 bits). The derivation needs no
        // YX-specific code — the turn model alone produces the transpose
        // of Table 1.
        let cb = Codebook::enumerate((Mesh::new(8, 8), RoutingKind::Yx), 3);
        assert_eq!(cb.max_y_width(), 5);
        assert_eq!(cb.max_x_width(), 2);
        for l in cb.iter().filter(|l| l.dir.is_x()) {
            assert!(l.set_count() <= 3);
            for s in l.sets() {
                assert_eq!(s.len(), 1, "X set {s} must be a singleton under YX");
            }
        }
        // The transposed worst-case link mirrors R27's X+ link: same set
        // count on the Y+ link of the transposed coordinate.
        let link = cb.link(NodeId(27), Direction::South).unwrap();
        assert_eq!(link.set_count(), 22);
    }

    #[test]
    fn torus_links_enumerate_everywhere() {
        // On a torus every router has all four links (wraparound), and XY
        // routing with wrapped minimal deltas still converges to a finite
        // codebook. Width can only grow relative to the mesh since every
        // link sees at least the mesh's relay traffic patterns.
        use punchsim_types::{Substrate, Torus};
        let t = Substrate::Torus(Torus::new(5, 5));
        let cb = Codebook::enumerate(t, 2);
        for r in t.iter_nodes() {
            for dir in Direction::ALL {
                assert!(cb.link(r, dir).is_some(), "torus link {r}->{dir} missing");
            }
        }
        assert!(cb.max_x_width() >= 1);
        assert!(cb.max_y_width() >= 1);
    }

    #[test]
    fn h2_is_narrower_than_h3() {
        let cb2 = Codebook::enumerate(Mesh::new(8, 8), 2);
        let cb3 = Codebook::enumerate(Mesh::new(8, 8), 3);
        assert!(cb2.max_x_width() < cb3.max_x_width());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cb = Codebook::enumerate(Mesh::new(8, 8), 3);
        let link = cb.link(NodeId(27), Direction::East).unwrap();
        for (i, s) in link.sets().iter().enumerate() {
            let code = link.encode(s).unwrap();
            assert_eq!(code as usize, i + 1);
            assert_eq!(link.decode(code).unwrap(), *s);
        }
        assert_eq!(link.decode(0).unwrap(), PunchSet::new());
        assert_eq!(link.encode(&PunchSet::new()).unwrap(), 0);
        assert!(link.decode(999).is_none());
    }

    #[test]
    fn encode_is_canonical_order_on_every_link() {
        // The encoder assigns index + 1 in canonical set order.
        let cb = Codebook::enumerate(Mesh::new(8, 8), 3);
        for l in cb.iter() {
            for (i, s) in l.sets().iter().enumerate() {
                assert_eq!(l.encode(s), Some((i + 1) as u16), "{s} on {}", l.from);
                assert_eq!(l.sets.binary_search(s).ok(), Some(i), "canonical order");
            }
            // Unknown sets still encode to None.
            let mut alien = PunchSet::new();
            alien.insert_normalized(Mesh::new(8, 8), NodeId(0), NodeId(1));
            if !l.sets().contains(&alien.canonical()) {
                assert_eq!(l.encode(&alien), None);
            }
        }
    }

    #[test]
    fn edge_links_are_absent() {
        let cb = Codebook::enumerate(Mesh::new(4, 4), 3);
        assert!(cb.link(NodeId(0), Direction::North).is_none());
        assert!(cb.link(NodeId(0), Direction::West).is_none());
        assert!(cb.link(NodeId(0), Direction::East).is_some());
    }
}
