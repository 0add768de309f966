//! Network substrates: one enum, geometry written once.
//!
//! The paper evaluates Power Punch on an 8x8 XY mesh, but its §4.1 codeword
//! derivation is a theorem about *turn restrictions*, not about meshes or XY
//! specifically. All it needs from the substrate is a deterministic turn
//! model over a `width x height` router grid, so the punch fabric, codebook
//! enumeration, NoC kernel and campaign layer run unchanged over a 2D
//! [`Mesh`] or a wrap-around [`Torus`].
//!
//! [`Substrate`] is the `Copy`/`Eq`/`Hash` handle that configuration
//! structures store. Both substrates are the same row-major grid and differ
//! only in whether their links wrap, so the geometry is one set of inherent
//! methods over `(width, height, wraps)`, written here and nowhere else;
//! the variants carry the validated dimensions and the stable artifact tag
//! (`8x8`, `torus8x8`).

use crate::direction::Direction;
use crate::error::ConfigError;
use crate::geometry::{Coord, Mesh};
use crate::NodeId;

/// A 2D torus: the mesh grid with every row and column closed into a ring.
///
/// Wrap links halve the network diameter but introduce cyclic channel
/// dependencies, so only dimension-ordered routing (XY/YX) is admitted on a
/// torus — see [`RoutingKind::validate_on`](crate::routing::RoutingKind).
///
/// # Examples
///
/// ```
/// use punchsim_types::{Direction, NodeId, Substrate, Torus};
///
/// let t = Substrate::from(Torus::new(4, 4));
/// // R0 wraps west to the end of its row and north to the bottom row.
/// assert_eq!(t.neighbor(NodeId(0), Direction::West), Some(NodeId(3)));
/// assert_eq!(t.neighbor(NodeId(0), Direction::North), Some(NodeId(12)));
/// // Opposite corners are 2 hops apart instead of the mesh's 6.
/// assert_eq!(t.distance(NodeId(0), NodeId(15)), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Torus {
    width: u16,
    height: u16,
}

impl Torus {
    /// Creates a `width x height` torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2 (a 1-wide ring is a self-loop)
    /// or the torus has more routers than node ids.
    pub fn new(width: u16, height: u16) -> Self {
        Torus::try_new(width, height).expect("invalid torus dimensions")
    }

    /// Creates a `width x height` torus, returning a typed error when a
    /// dimension is below 2 or the routers outnumber the node ids.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadTopologyDims`] when `width < 2` or `height < 2`,
    /// [`ConfigError::TooManyNodes`] when `width * height > u16::MAX`.
    pub fn try_new(width: u16, height: u16) -> Result<Self, ConfigError> {
        Mesh::checked("torus", width, height, 2)?;
        Ok(Torus { width, height })
    }
}

/// Shortest wrapped offset of `d` on a ring of `n`, in `(-n/2, n/2]`:
/// exact half-ring ties resolve to the positive (East/South) direction.
fn ring_delta(d: i32, n: i32) -> i32 {
    let m = d.rem_euclid(n);
    if m * 2 > n {
        m - n
    } else {
        m
    }
}

/// The storable topology handle: which substrate a configuration, spec or
/// simulation runs on — a `width x height` router grid with row-major ids
/// (Figure 4 numbering) and four link directions. `Copy`/`Eq`/`Hash` so it
/// slots into configs and content hashes. The two primitives beyond plain
/// grid geometry are [`Substrate::delta`] (wrap-aware signed travel) and
/// [`Substrate::advance`] (the closed-form jump `k` hops in one direction —
/// the basis of O(1) punch-target computation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Substrate {
    /// Plain 2D mesh (the paper's substrate).
    Mesh(Mesh),
    /// 2D torus (wrap-around links).
    Torus(Torus),
}

impl Substrate {
    /// `(width, height, wraps)`: everything the geometry below depends on.
    #[inline]
    fn grid(&self) -> (u16, u16, bool) {
        match self {
            Substrate::Mesh(m) => (m.width(), m.height(), false),
            Substrate::Torus(t) => (t.width, t.height, true),
        }
    }

    /// Stable tag used in artifact ids and content hashes: `8x8` for a
    /// mesh, `torus8x8` for a torus.
    /// Never rename a tag: artifact names and baselines depend on them.
    pub fn tag(&self) -> String {
        let (w, h, _) = self.grid();
        match self {
            Substrate::Mesh(_) => format!("{w}x{h}"),
            Substrate::Torus(_) => format!("torus{w}x{h}"),
        }
    }

    /// Short kind name for error messages and CLI help.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Substrate::Mesh(_) => "mesh",
            Substrate::Torus(_) => "torus",
        }
    }

    /// Number of router columns.
    #[inline]
    pub fn width(&self) -> u16 {
        self.grid().0
    }

    /// Number of router rows.
    #[inline]
    pub fn height(&self) -> u16 {
        self.grid().1
    }

    /// Total number of routers.
    #[inline]
    pub fn nodes(&self) -> usize {
        let (w, h, _) = self.grid();
        w as usize * h as usize
    }

    /// Returns `true` if `node` is a valid id for this substrate.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        node.index() < self.nodes()
    }

    /// Converts a node id to its coordinate (row-major, Figure 4 numbering).
    #[inline]
    pub fn coord(&self, node: NodeId) -> Coord {
        debug_assert!(self.contains(node));
        let w = self.width();
        Coord::new(node.0 % w, node.0 / w)
    }

    /// Converts a coordinate to its node id.
    #[inline]
    pub fn node(&self, c: Coord) -> NodeId {
        let (w, h, _) = self.grid();
        debug_assert!(c.x < w && c.y < h);
        NodeId(c.y * w + c.x)
    }

    /// The coordinate `k` hops from `c` in direction `dir`: wrapped where
    /// the grid wraps, `None` where the run would leave a grid that does not.
    #[inline]
    fn jump(&self, c: Coord, dir: Direction, k: u16) -> Option<Coord> {
        let (w, h, wraps) = self.grid();
        let (w, h, k) = (w as i32, h as i32, k as i32);
        let (x, y) = (c.x as i32, c.y as i32);
        let (x, y) = match dir {
            Direction::East => (x + k, y),
            Direction::West => (x - k, y),
            Direction::South => (x, y + k),
            Direction::North => (x, y - k),
        };
        if wraps {
            Some(Coord::new(x.rem_euclid(w) as u16, y.rem_euclid(h) as u16))
        } else {
            ((0..w).contains(&x) && (0..h).contains(&y)).then(|| Coord::new(x as u16, y as u16))
        }
    }

    /// The neighbour of `node` in direction `dir`, or `None` where no link
    /// exists (mesh edges; a torus always has one).
    #[inline]
    pub fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        self.jump(self.coord(node), dir, 1).map(|c| self.node(c))
    }

    /// The signed per-axis travel `(dx, dy)` a minimal route from `from` to
    /// `to` performs: positive `dx` is eastward, positive `dy` southward.
    /// On a torus this is the shortest wrapped offset, with exact half-ring
    /// ties broken toward East/South so routing stays deterministic.
    #[inline]
    pub fn delta(&self, from: NodeId, to: NodeId) -> (i32, i32) {
        let (w, h, wraps) = self.grid();
        let (f, t) = (self.coord(from), self.coord(to));
        let (dx, dy) = (t.x as i32 - f.x as i32, t.y as i32 - f.y as i32);
        if wraps {
            (ring_delta(dx, w as i32), ring_delta(dy, h as i32))
        } else {
            (dx, dy)
        }
    }

    /// Minimal hop distance between two nodes.
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> u16 {
        let (dx, dy) = self.delta(a, b);
        (dx.unsigned_abs() + dy.unsigned_abs()) as u16
    }

    /// The node exactly `k` hops from `node` in direction `dir` — a
    /// closed-form coordinate jump, never a hop-by-hop walk.
    ///
    /// # Panics
    ///
    /// Panics if the run leaves a grid that does not wrap (a mesh has
    /// edges). Routing functions only ever advance along runs produced from
    /// [`Substrate::delta`], which stay on the grid by construction.
    #[inline]
    pub fn advance(&self, node: NodeId, dir: Direction, k: u16) -> NodeId {
        match self.jump(self.coord(node), dir, k) {
            Some(c) => self.node(c),
            None => panic!("{k} hops {dir} of {node} leaves {self}"),
        }
    }

    /// If travelling from `from` in direction `dir` reaches `to` after
    /// `k >= 1` straight hops (without leaving the grid), returns `Some(k)`.
    /// This is what lets `on_path` checks stay closed-form per segment.
    #[inline]
    pub fn steps_between(&self, from: NodeId, to: NodeId, dir: Direction) -> Option<u16> {
        let (w, h, wraps) = self.grid();
        let (f, t) = (self.coord(from), self.coord(to));
        let (fx, fy, tx, ty) = (f.x as i32, f.y as i32, t.x as i32, t.y as i32);
        let (k, ring) = match dir {
            Direction::East if fy == ty => (tx - fx, w),
            Direction::West if fy == ty => (fx - tx, w),
            Direction::South if fx == tx => (ty - fy, h),
            Direction::North if fx == tx => (fy - ty, h),
            _ => return None,
        };
        let k = if wraps { k.rem_euclid(ring as i32) } else { k };
        (k > 0).then_some(k as u16)
    }

    /// Iterates over all node ids in ascending order.
    pub fn iter_nodes(&self) -> std::iter::Map<std::ops::Range<u16>, fn(u16) -> NodeId> {
        (0..self.nodes() as u16).map(NodeId)
    }

    /// `true` when links wrap around (only the torus: the substrate then
    /// contains rings). Turn restrictions alone cannot break cycles through
    /// wrap links, which is why config validation rejects
    /// non-dimension-ordered routing here.
    #[inline]
    pub fn wraps(&self) -> bool {
        self.grid().2
    }
}

impl Default for Substrate {
    /// The paper's default substrate: the 8x8 mesh.
    fn default() -> Self {
        Substrate::Mesh(Mesh::new(8, 8))
    }
}

impl From<Mesh> for Substrate {
    fn from(m: Mesh) -> Self {
        Substrate::Mesh(m)
    }
}

impl From<Torus> for Substrate {
    fn from(t: Torus) -> Self {
        Substrate::Torus(t)
    }
}

impl std::fmt::Display for Substrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hop counts from `from` to every node, by breadth-first search over
    /// `neighbor` alone.
    fn bfs(s: Substrate, from: NodeId) -> Vec<u16> {
        let mut dist = vec![u16::MAX; s.nodes()];
        dist[from.index()] = 0;
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            for nb in Direction::ALL.into_iter().filter_map(|d| s.neighbor(n, d)) {
                if dist[nb.index()] == u16::MAX {
                    dist[nb.index()] = dist[n.index()] + 1;
                    queue.push_back(nb);
                }
            }
        }
        dist
    }

    /// The one geometry, on every substrate: `neighbor` is one coordinate
    /// step (off a mesh edge `None`, wrapped on a torus), and the closed
    /// forms `advance`/`steps_between`/`delta`/`distance` agree with
    /// hop-by-hop `neighbor` walks. The 4x4 torus has exact half-ring ties,
    /// the 5x3 one has none.
    #[test]
    fn closed_forms_match_neighbor_walks_on_every_substrate() {
        let table: [(Substrate, bool); 3] = [
            (Mesh::new(5, 3).into(), false),
            (Torus::new(5, 3).into(), true),
            (Torus::new(4, 4).into(), true),
        ];
        for (s, wraps) in table {
            let (w, h) = (s.width() as i32, s.height() as i32);
            assert_eq!(s.nodes(), (w * h) as usize, "{s}");
            assert_eq!(s.wraps(), wraps, "{s}");
            for n in s.iter_nodes() {
                let c = s.coord(n);
                assert_eq!(s.node(c), n, "{s}");
                for d in Direction::ALL {
                    let (x, y) = match d {
                        Direction::North => (c.x as i32, c.y as i32 - 1),
                        Direction::East => (c.x as i32 + 1, c.y as i32),
                        Direction::South => (c.x as i32, c.y as i32 + 1),
                        Direction::West => (c.x as i32 - 1, c.y as i32),
                    };
                    let on_grid = (0..w).contains(&x) && (0..h).contains(&y);
                    let step = Coord::new(x.rem_euclid(w) as u16, y.rem_euclid(h) as u16);
                    let want = (wraps || on_grid).then(|| s.node(step));
                    assert_eq!(s.neighbor(n, d), want, "{s}: {n} {d}");

                    // Walk until the edge (mesh) or once round the ring and
                    // one more (torus); `first[t]` is the hop count at which
                    // the walk first stands on `t`.
                    let mut first = vec![None; s.nodes()];
                    let mut cur = n;
                    for k in 1..=(w.max(h) as u16 + 1) {
                        let Some(next) = s.neighbor(cur, d) else {
                            break;
                        };
                        cur = next;
                        assert_eq!(s.advance(n, d, k), cur, "{s}: {n} {d} {k}");
                        // Zero steps is not "between", and neither is the
                        // full lap that brings a ring walk back to `n`.
                        if cur != n {
                            first[cur.index()].get_or_insert(k);
                        }
                    }
                    for t in s.iter_nodes() {
                        assert_eq!(
                            s.steps_between(n, t, d),
                            first[t.index()],
                            "{s}: {n} -> {t} going {d}"
                        );
                    }
                }
                let hops = bfs(s, n);
                for t in s.iter_nodes() {
                    let (dx, dy) = s.delta(n, t);
                    // Minimal, and on a ring in (-n/2, n/2]: exact
                    // half-ring ties go East/South.
                    assert_eq!(s.distance(n, t), hops[t.index()], "{s}: {n} -> {t}");
                    assert_eq!(dx.abs() + dy.abs(), hops[t.index()] as i32);
                    if wraps {
                        assert!(-w < 2 * dx && 2 * dx <= w, "{s}: {n} -> {t} dx {dx}");
                        assert!(-h < 2 * dy && 2 * dy <= h, "{s}: {n} -> {t} dy {dy}");
                    }
                    // Travelling the delta arrives.
                    let xd = if dx >= 0 {
                        Direction::East
                    } else {
                        Direction::West
                    };
                    let yd = if dy >= 0 {
                        Direction::South
                    } else {
                        Direction::North
                    };
                    let mid = s.advance(n, xd, dx.unsigned_abs() as u16);
                    assert_eq!(s.advance(mid, yd, dy.unsigned_abs() as u16), t);
                }
            }
        }
    }

    #[test]
    fn degenerate_and_oversized_grids_name_themselves_in_the_error() {
        assert!(matches!(
            Torus::try_new(1, 4),
            Err(ConfigError::BadTopologyDims { kind: "torus", .. })
        ));
        assert!(Torus::try_new(2, 2).is_ok());
        assert_eq!(
            Torus::try_new(256, 256),
            Err(ConfigError::TooManyNodes {
                kind: "torus",
                width: 256,
                height: 256
            })
        );
    }

    #[test]
    #[should_panic(expected = "leaves 5x3")]
    fn advancing_off_a_mesh_edge_panics() {
        Substrate::from(Mesh::new(5, 3)).advance(NodeId(3), Direction::East, 2);
    }

    #[test]
    fn substrate_tags_are_stable() {
        assert_eq!(Substrate::from(Mesh::new(8, 8)).tag(), "8x8");
        assert_eq!(Substrate::from(Torus::new(8, 8)).tag(), "torus8x8");
        assert_eq!(Substrate::default().tag(), "8x8");
    }

    #[test]
    fn torus_accessors_and_literals() {
        let s: Substrate = Torus::new(4, 6).into();
        assert_eq!((s.nodes(), s.width(), s.height()), (24, 4, 6));
        assert_eq!(s.neighbor(NodeId(0), Direction::North), Some(NodeId(20)));
        assert_eq!(s.coord(NodeId(5)), Coord::new(1, 1));
        let t: Substrate = Torus::new(8, 8).into();
        // R0 -> R7 is one hop west on the ring, not seven east; the exact
        // half-ring tie R0 <-> R4 goes east both ways.
        assert_eq!(t.delta(NodeId(0), NodeId(7)), (-1, 0));
        assert_eq!(t.delta(NodeId(0), NodeId(4)), (4, 0));
        assert_eq!(t.delta(NodeId(4), NodeId(0)), (4, 0));
        assert_eq!(
            t.steps_between(NodeId(7), NodeId(0), Direction::East),
            Some(1)
        );
        assert_eq!(
            t.steps_between(NodeId(0), NodeId(7), Direction::East),
            Some(7)
        );
    }
}
