//! Punch-signal codebooks: enumerating every distinct target set a link can
//! carry, and assigning the codewords that make merging contention-free.
//!
//! This reproduces §4.1 steps 3–5 of the paper, generalized over the
//! topology/routing trait layer. For each directed link the closure of
//! reachable *normalized* target sets is computed by fixpoint: a link's
//! sets are all combinations of (a) at most one locally generated wakeup
//! and (b) the relayed remainder of sets arriving on the upstream links,
//! filtered by the routing function's next-hop direction and normalized
//! (implied targets dropped). Nothing here is XY-specific: the turn model
//! enters only through [`RouteView::direction`] and the path predicate
//! inside [`PunchSet::insert_normalized`]. Table 1 of the paper — the 22
//! sets on the X+ link of router 27 of an 8x8 XY mesh for 3-hop punches,
//! encodable in 5 bits — falls out of this enumeration as the special
//! case `RoutingKind::Xy`, as do the 2-bit Y links; YX routing yields the
//! transposed widths.

use std::collections::{BTreeSet, HashMap};

use punchsim_types::{Direction, NodeId, RouteView, Substrate};

use crate::punch::PunchSet;

/// The codebook of one directed link: every non-empty normalized target set
/// it can carry, in canonical order, plus the derived wire width.
#[derive(Debug, Clone)]
pub struct LinkCodebook {
    /// Router the link leaves.
    pub from: NodeId,
    /// Direction the link points.
    pub dir: Direction,
    sets: Vec<PunchSet>,
    /// Precomputed encoder: canonical set → codeword. Built once at
    /// enumeration time so the per-cycle encode is a hash probe, not a
    /// binary search over the set list (the hardware analogue: the encoder
    /// ROM is synthesized with the codebook, not searched at runtime).
    codes: HashMap<PunchSet, u16>,
}

impl LinkCodebook {
    /// Builds a link codebook from its canonical set list, deriving the
    /// encode lookup table. Codewords are `index + 1` in canonical order
    /// (0 stays the idle wire), exactly as the search-based encoder
    /// assigned them.
    fn new(from: NodeId, dir: Direction, sets: Vec<PunchSet>) -> Self {
        let codes = sets
            .iter()
            .enumerate()
            .map(|(i, s)| (*s, (i + 1) as u16))
            .collect();
        LinkCodebook {
            from,
            dir,
            sets,
            codes,
        }
    }
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
    /// set is not expressible on this link — which the fabric's generation
    /// arbitration guarantees never happens. O(1) via the lookup table.
    pub fn encode(&self, set: &PunchSet) -> Option<u16> {
        if set.is_empty() {
            return Some(0);
        }
        self.codes.get(&set.canonical()).copied()
    }

    /// The target set for a codeword, or `None` if out of range.
    pub fn decode(&self, code: u16) -> Option<PunchSet> {
        if code == 0 {
            return Some(PunchSet::new());
        }
        self.sets.get(code as usize - 1).copied()
    }
}

/// All link codebooks of a topology for a given punch depth.
#[derive(Debug, Clone)]
pub struct Codebook {
    view: RouteView,
    hops: u16,
    /// Indexed `[router][direction]`; `None` at topology edges.
    links: Vec<[Option<LinkCodebook>; 4]>,
}

impl Codebook {
    /// Enumerates the codebooks for a topology/routing pair with punch
    /// depth `hops` by fixpoint closure. Accepts anything convertible to a
    /// [`RouteView`] — a bare [`punchsim_types::Mesh`] means XY routing,
    /// matching the paper. Cost is polynomial in network size and tiny in
    /// practice (an 8x8 mesh at H=3 converges in a few iterations).
    pub fn enumerate(view: impl Into<RouteView>, hops: u16) -> Self {
        let view: RouteView = view.into();
        let topo = view.topo;
        let n = topo.nodes();
        // Locally generated targets per (router, out-dir): every router
        // within `hops` whose route leaves through that direction.
        let gen: Vec<[Vec<NodeId>; 4]> = topo
            .iter_nodes()
            .map(|r| {
                let mut g: [Vec<NodeId>; 4] = Default::default();
                for t in topo.iter_nodes() {
                    if t == r || topo.distance(r, t) > hops {
                        continue;
                    }
                    let d = view.direction(r, t).expect("t != r");
                    g[d.index()].push(t);
                }
                g
            })
            .collect();
        // Reachable set closure per directed link.
        let mut sets: Vec<[BTreeSet<PunchSet>; 4]> = vec![Default::default(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for r in topo.iter_nodes() {
                for dir in Direction::ALL {
                    if topo.neighbor(r, dir).is_none() {
                        continue;
                    }
                    // Options arriving from each upstream link, filtered to
                    // the targets that continue through (r, dir).
                    let mut relay_options: Vec<Vec<PunchSet>> = Vec::new();
                    for in_dir in Direction::ALL {
                        let Some(up) = topo.neighbor(r, in_dir) else {
                            continue;
                        };
                        // The upstream link points from `up` toward `r`.
                        let up_link = &sets[up.index()][in_dir.opposite().index()];
                        let mut filtered: BTreeSet<PunchSet> = BTreeSet::new();
                        for s in up_link {
                            let mut f = PunchSet::new();
                            for &t in s.targets() {
                                if t == r {
                                    continue; // consumed at r
                                }
                                if view.direction(r, t) == Some(dir) {
                                    f.insert_normalized(view, r, t);
                                }
                            }
                            if !f.is_empty() {
                                filtered.insert(f.canonical());
                            }
                        }
                        if !filtered.is_empty() {
                            relay_options.push(filtered.into_iter().collect());
                        }
                    }
                    // Combine relays across upstream links (each may be
                    // absent), then with at most one local generation.
                    let mut combos: Vec<PunchSet> = vec![PunchSet::new()];
                    for opts in &relay_options {
                        let mut next = Vec::with_capacity(combos.len() * (opts.len() + 1));
                        for base in &combos {
                            next.push(*base);
                            for s in opts {
                                let mut merged = *base;
                                for &t in s.targets() {
                                    merged.insert_normalized(view, r, t);
                                }
                                next.push(merged);
                            }
                        }
                        combos = next;
                    }
                    let out = &mut sets[r.index()][dir.index()];
                    let before = out.len();
                    for base in &combos {
                        if !base.is_empty() {
                            out.insert(base.canonical());
                        }
                        for &g in &gen[r.index()][dir.index()] {
                            let mut merged = *base;
                            merged.insert_normalized(view, r, g);
                            out.insert(merged.canonical());
                        }
                    }
                    if out.len() != before {
                        changed = true;
                    }
                }
            }
        }
        let links = topo
            .iter_nodes()
            .map(|r| {
                let mut row: [Option<LinkCodebook>; 4] = Default::default();
                for dir in Direction::ALL {
                    if topo.neighbor(r, dir).is_none() {
                        continue;
                    }
                    row[dir.index()] = Some(LinkCodebook::new(
                        r,
                        dir,
                        sets[r.index()][dir.index()].iter().copied().collect(),
                    ));
                }
                row
            })
            .collect();
        Codebook { view, hops, links }
    }

    /// The topology/routing pair this codebook was enumerated for.
    pub fn view(&self) -> RouteView {
        self.view
    }

    /// The topology this codebook was enumerated for.
    pub fn topology(&self) -> Substrate {
        self.view.topo
    }

    /// The punch depth H.
    pub fn hops(&self) -> u16 {
        self.hops
    }

    /// The codebook of the link leaving `r` toward `dir`, or `None` at a
    /// mesh edge.
    pub fn link(&self, r: NodeId, dir: Direction) -> Option<&LinkCodebook> {
        self.links[r.index()][dir.index()].as_ref()
    }

    /// Iterates over all link codebooks.
    pub fn iter(&self) -> impl Iterator<Item = &LinkCodebook> {
        self.links.iter().flatten().flatten()
    }

    /// The widest X-direction link in bits.
    pub fn max_x_width(&self) -> u32 {
        self.iter()
            .filter(|l| l.dir.is_x())
            .map(LinkCodebook::width_bits)
            .max()
            .unwrap_or(0)
    }

    /// The widest Y-direction link in bits.
    pub fn max_y_width(&self) -> u32 {
        self.iter()
            .filter(|l| l.dir.is_y())
            .map(LinkCodebook::width_bits)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::{Mesh, RoutingKind};

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
        use punchsim_types::Torus;
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
    fn encode_lut_matches_canonical_order_on_every_link() {
        // The lookup-table encoder must assign exactly the codes the old
        // binary-search encoder did: index + 1 in canonical set order.
        let cb = Codebook::enumerate(Mesh::new(8, 8), 3);
        for l in cb.iter() {
            for (i, s) in l.sets().iter().enumerate() {
                assert_eq!(l.encode(s), Some((i + 1) as u16), "{s} on {}", l.from);
                assert_eq!(l.sets.binary_search(s).ok(), Some(i), "canonical order");
            }
            // Unknown sets still encode to None.
            let mut alien = PunchSet::new();
            alien.insert_normalized(cb.view(), NodeId(0), NodeId(1));
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
