//! First-class network topologies: the trait and its implementations.
//!
//! The paper evaluates Power Punch on an 8x8 XY mesh, but its §4.1 codeword
//! derivation is a theorem about *turn restrictions*, not about meshes or XY
//! specifically. This module lifts the substrate into a [`Topology`] trait so
//! the punch fabric, codebook enumeration, NoC kernel and campaign layer can
//! run over a 2D [`Mesh`](crate::Mesh), a wrap-around [`Torus`], or a
//! concentrated mesh ([`CMesh`]) without any of them knowing which.
//!
//! [`Substrate`] is the `Copy`/`Eq`/`Hash` handle that configuration
//! structures store; it dispatches every trait method to the concrete
//! topology and renders a stable tag for artifact ids (`8x8`, `torus8x8`,
//! `c4x4x4`).

use crate::direction::Direction;
use crate::error::ConfigError;
use crate::geometry::{Coord, Mesh};
use crate::NodeId;

/// The geometric contract every substrate provides: a `width x height`
/// router grid with row-major ids, four link directions, and enough
/// arithmetic for routing functions to plan straight-line runs without
/// walking hop by hop.
///
/// The two primitives beyond plain mesh geometry are [`Topology::delta`]
/// (the signed per-axis travel a minimal route performs, wrap-aware on a
/// torus) and [`Topology::advance`] (the closed-form coordinate jump `k`
/// hops in one direction — the basis of O(1) punch-target computation).
pub trait Topology {
    /// Number of router columns.
    fn width(&self) -> u16;

    /// Number of router rows.
    fn height(&self) -> u16;

    /// Total number of routers.
    fn nodes(&self) -> usize {
        self.width() as usize * self.height() as usize
    }

    /// Returns `true` if `node` is a valid id for this topology.
    fn contains(&self, node: NodeId) -> bool {
        node.index() < self.nodes()
    }

    /// Converts a node id to its coordinate (row-major, Figure 4 numbering).
    fn coord(&self, node: NodeId) -> Coord {
        debug_assert!(self.contains(node));
        Coord {
            x: node.0 % self.width(),
            y: node.0 / self.width(),
        }
    }

    /// Converts a coordinate to its node id.
    fn node(&self, c: Coord) -> NodeId {
        debug_assert!(c.x < self.width() && c.y < self.height());
        NodeId(c.y * self.width() + c.x)
    }

    /// The neighbour of `node` in direction `dir`, or `None` where no link
    /// exists (mesh edges; a torus always has one).
    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId>;

    /// The signed per-axis travel `(dx, dy)` a minimal route from `from` to
    /// `to` performs: positive `dx` is eastward, positive `dy` southward.
    /// On a torus this is the shortest wrapped offset, with exact half-ring
    /// ties broken toward East/South so routing stays deterministic.
    fn delta(&self, from: NodeId, to: NodeId) -> (i32, i32);

    /// Minimal hop distance between two nodes.
    fn distance(&self, a: NodeId, b: NodeId) -> u16 {
        let (dx, dy) = self.delta(a, b);
        (dx.unsigned_abs() + dy.unsigned_abs()) as u16
    }

    /// The node exactly `k` hops from `node` in direction `dir` — a
    /// closed-form coordinate jump, never a hop-by-hop walk.
    ///
    /// The caller must ensure the run stays on the grid (a mesh has edges);
    /// routing functions only ever advance along runs produced from
    /// [`Topology::delta`], which satisfies this by construction.
    fn advance(&self, node: NodeId, dir: Direction, k: u16) -> NodeId;

    /// If travelling from `from` in direction `dir` reaches `to` after
    /// `k >= 1` straight hops (without leaving the grid), returns `Some(k)`.
    /// This is what lets `on_path` checks stay closed-form per segment.
    fn steps_between(&self, from: NodeId, to: NodeId, dir: Direction) -> Option<u16>;

    /// `true` when links wrap around (the substrate contains rings). Turn
    /// restrictions alone cannot break cycles through wrap links, which is
    /// why config validation rejects non-dimension-ordered routing here.
    fn wraps(&self) -> bool {
        false
    }

    /// Terminals (NIs) multiplexed onto each router. 1 everywhere except a
    /// concentrated mesh, where the synthetic harness scales per-router
    /// offered load by this factor.
    fn concentration(&self) -> u16 {
        1
    }

    /// Iterates over all node ids in ascending order.
    fn iter_nodes(&self) -> std::iter::Map<std::ops::Range<u16>, fn(u16) -> NodeId> {
        (0..self.nodes() as u16).map(NodeId)
    }
}

impl Topology for Mesh {
    fn width(&self) -> u16 {
        Mesh::width(*self)
    }

    fn height(&self) -> u16 {
        Mesh::height(*self)
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        Mesh::neighbor(*self, node, dir)
    }

    fn delta(&self, from: NodeId, to: NodeId) -> (i32, i32) {
        let (f, t) = (Mesh::coord(*self, from), Mesh::coord(*self, to));
        (t.x as i32 - f.x as i32, t.y as i32 - f.y as i32)
    }

    fn advance(&self, node: NodeId, dir: Direction, k: u16) -> NodeId {
        let c = Mesh::coord(*self, node);
        let n = match dir {
            Direction::East => Coord::new(c.x + k, c.y),
            Direction::West => Coord::new(c.x - k, c.y),
            Direction::South => Coord::new(c.x, c.y + k),
            Direction::North => Coord::new(c.x, c.y - k),
        };
        Mesh::node(*self, n)
    }

    fn steps_between(&self, from: NodeId, to: NodeId, dir: Direction) -> Option<u16> {
        let (f, t) = (Mesh::coord(*self, from), Mesh::coord(*self, to));
        let k = match dir {
            Direction::East if f.y == t.y && t.x > f.x => t.x - f.x,
            Direction::West if f.y == t.y && t.x < f.x => f.x - t.x,
            Direction::South if f.x == t.x && t.y > f.y => t.y - f.y,
            Direction::North if f.x == t.x && t.y < f.y => f.y - t.y,
            _ => return None,
        };
        Some(k)
    }
}

/// A 2D torus: the mesh grid with every row and column closed into a ring.
///
/// Wrap links halve the network diameter but introduce cyclic channel
/// dependencies, so only dimension-ordered routing (XY/YX) is admitted on a
/// torus — see [`RoutingKind::validate_on`](crate::routing::RoutingKind).
///
/// # Examples
///
/// ```
/// use punchsim_types::{topology::{Topology, Torus}, Direction, NodeId};
///
/// let t = Torus::new(4, 4);
/// // R0 wraps west to the end of its row and north to the bottom row.
/// assert_eq!(t.neighbor(NodeId(0), Direction::West), Some(NodeId(3)));
/// assert_eq!(t.neighbor(NodeId(0), Direction::North), Some(NodeId(12)));
/// // Opposite corners are 4 hops apart instead of the mesh's 6.
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

impl Topology for Torus {
    fn width(&self) -> u16 {
        self.width
    }

    fn height(&self) -> u16 {
        self.height
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        Some(self.advance(node, dir, 1))
    }

    fn delta(&self, from: NodeId, to: NodeId) -> (i32, i32) {
        let (f, t) = (self.coord(from), self.coord(to));
        (
            ring_delta(t.x as i32 - f.x as i32, self.width as i32),
            ring_delta(t.y as i32 - f.y as i32, self.height as i32),
        )
    }

    fn advance(&self, node: NodeId, dir: Direction, k: u16) -> NodeId {
        let c = self.coord(node);
        let (w, h) = (self.width as i32, self.height as i32);
        let (mut x, mut y) = (c.x as i32, c.y as i32);
        match dir {
            Direction::East => x = (x + k as i32).rem_euclid(w),
            Direction::West => x = (x - k as i32).rem_euclid(w),
            Direction::South => y = (y + k as i32).rem_euclid(h),
            Direction::North => y = (y - k as i32).rem_euclid(h),
        }
        self.node(Coord::new(x as u16, y as u16))
    }

    fn steps_between(&self, from: NodeId, to: NodeId, dir: Direction) -> Option<u16> {
        let (f, t) = (self.coord(from), self.coord(to));
        let (w, h) = (self.width as i32, self.height as i32);
        let k = match dir {
            Direction::East if f.y == t.y => (t.x as i32 - f.x as i32).rem_euclid(w),
            Direction::West if f.y == t.y => (f.x as i32 - t.x as i32).rem_euclid(w),
            Direction::South if f.x == t.x => (t.y as i32 - f.y as i32).rem_euclid(h),
            Direction::North if f.x == t.x => (f.y as i32 - t.y as i32).rem_euclid(h),
            _ => return None,
        };
        (k > 0).then_some(k as u16)
    }

    fn wraps(&self) -> bool {
        true
    }
}

/// A concentrated mesh: a `width x height` router grid where each router
/// multiplexes `concentration` network interfaces (terminals), as in CMesh
/// designs that trade per-tile routers for fewer, busier ones.
///
/// Routing-wise a CMesh is a mesh over its routers; the concentration
/// factor is carried as topology metadata and used by the synthetic
/// harness to scale per-router offered load (each router injects on behalf
/// of `concentration` terminals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CMesh {
    routers: Mesh,
    concentration: u16,
}

impl CMesh {
    /// Creates a concentrated mesh of `width x height` routers with
    /// `concentration` terminals each.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `concentration` is zero.
    pub fn new(width: u16, height: u16, concentration: u16) -> Self {
        CMesh::try_new(width, height, concentration).expect("invalid concentrated mesh")
    }

    /// Creates a concentrated mesh, returning a typed error on zero
    /// dimensions or zero concentration.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadTopologyDims`] on a zero dimension,
    /// [`ConfigError::TooManyNodes`] when `width * height > u16::MAX` and
    /// [`ConfigError::BadConcentration`] on a zero concentration factor.
    pub fn try_new(width: u16, height: u16, concentration: u16) -> Result<Self, ConfigError> {
        let routers = Mesh::checked("cmesh", width, height, 1)?;
        if concentration == 0 {
            return Err(ConfigError::BadConcentration);
        }
        Ok(CMesh {
            routers,
            concentration,
        })
    }

    /// The underlying router grid.
    pub fn routers(self) -> Mesh {
        self.routers
    }
}

impl Topology for CMesh {
    fn width(&self) -> u16 {
        Mesh::width(self.routers)
    }

    fn height(&self) -> u16 {
        Mesh::height(self.routers)
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        Mesh::neighbor(self.routers, node, dir)
    }

    fn delta(&self, from: NodeId, to: NodeId) -> (i32, i32) {
        Topology::delta(&self.routers, from, to)
    }

    fn advance(&self, node: NodeId, dir: Direction, k: u16) -> NodeId {
        Topology::advance(&self.routers, node, dir, k)
    }

    fn steps_between(&self, from: NodeId, to: NodeId, dir: Direction) -> Option<u16> {
        Topology::steps_between(&self.routers, from, to, dir)
    }

    fn concentration(&self) -> u16 {
        self.concentration
    }
}

/// The storable topology handle: which concrete substrate a configuration,
/// spec or simulation runs on. `Copy`/`Eq`/`Hash` so it slots into configs
/// and content hashes exactly like `Mesh` did before the trait existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Substrate {
    /// Plain 2D mesh (the paper's substrate).
    Mesh(Mesh),
    /// 2D torus (wrap-around links).
    Torus(Torus),
    /// Concentrated mesh (several terminals per router).
    CMesh(CMesh),
}

macro_rules! dispatch {
    ($self:expr, $t:ident => $e:expr) => {
        match $self {
            Substrate::Mesh($t) => $e,
            Substrate::Torus($t) => $e,
            Substrate::CMesh($t) => $e,
        }
    };
}

impl Substrate {
    /// Stable tag used in artifact ids and content hashes: `8x8` for a
    /// mesh (byte-identical to the pre-trait rendering), `torus8x8` for a
    /// torus, `c4x4x4` for a concentrated mesh (`c{W}x{H}x{C}`).
    /// Never rename a tag: artifact names and baselines depend on them.
    pub fn tag(&self) -> String {
        match self {
            Substrate::Mesh(m) => format!("{}x{}", m.width(), m.height()),
            Substrate::Torus(t) => format!("torus{}x{}", Topology::width(t), Topology::height(t)),
            Substrate::CMesh(c) => format!(
                "c{}x{}x{}",
                Topology::width(c),
                Topology::height(c),
                c.concentration
            ),
        }
    }

    /// Short kind name for error messages and CLI help.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Substrate::Mesh(_) => "mesh",
            Substrate::Torus(_) => "torus",
            Substrate::CMesh(_) => "cmesh",
        }
    }

    /// Number of router columns.
    #[inline]
    pub fn width(&self) -> u16 {
        dispatch!(self, t => Topology::width(t))
    }

    /// Number of router rows.
    #[inline]
    pub fn height(&self) -> u16 {
        dispatch!(self, t => Topology::height(t))
    }

    /// Total number of routers.
    #[inline]
    pub fn nodes(&self) -> usize {
        dispatch!(self, t => Topology::nodes(t))
    }

    /// Returns `true` if `node` is a valid id for this substrate.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        dispatch!(self, t => Topology::contains(t, node))
    }

    /// Converts a node id to its coordinate.
    #[inline]
    pub fn coord(&self, node: NodeId) -> Coord {
        dispatch!(self, t => Topology::coord(t, node))
    }

    /// Converts a coordinate to its node id.
    #[inline]
    pub fn node(&self, c: Coord) -> NodeId {
        dispatch!(self, t => Topology::node(t, c))
    }

    /// The neighbour of `node` in direction `dir`, or `None` where no link
    /// exists.
    #[inline]
    pub fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        dispatch!(self, t => Topology::neighbor(t, node, dir))
    }

    /// Minimal hop distance between two nodes.
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> u16 {
        dispatch!(self, t => Topology::distance(t, a, b))
    }

    /// Iterates over all node ids in ascending order.
    pub fn iter_nodes(&self) -> std::iter::Map<std::ops::Range<u16>, fn(u16) -> NodeId> {
        (0..self.nodes() as u16).map(NodeId)
    }

    /// Directions in which `node` has a neighbour, in fixed N,E,S,W order.
    pub fn neighbor_dirs(&self, node: NodeId) -> impl Iterator<Item = Direction> + use<> {
        let s = *self;
        Direction::ALL
            .into_iter()
            .filter(move |&d| s.neighbor(node, d).is_some())
    }

    /// Whether any link wraps around (true only for the torus).
    #[inline]
    pub fn wraps(&self) -> bool {
        dispatch!(self, t => Topology::wraps(t))
    }

    /// Terminals multiplexed per router (1 except for concentrated meshes).
    #[inline]
    pub fn concentration(&self) -> u16 {
        dispatch!(self, t => Topology::concentration(t))
    }
}

impl Topology for Substrate {
    fn width(&self) -> u16 {
        Substrate::width(self)
    }

    fn height(&self) -> u16 {
        Substrate::height(self)
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        Substrate::neighbor(self, node, dir)
    }

    fn delta(&self, from: NodeId, to: NodeId) -> (i32, i32) {
        dispatch!(self, t => Topology::delta(t, from, to))
    }

    fn advance(&self, node: NodeId, dir: Direction, k: u16) -> NodeId {
        dispatch!(self, t => Topology::advance(t, node, dir, k))
    }

    fn steps_between(&self, from: NodeId, to: NodeId, dir: Direction) -> Option<u16> {
        dispatch!(self, t => Topology::steps_between(t, from, to, dir))
    }

    fn wraps(&self) -> bool {
        dispatch!(self, t => Topology::wraps(t))
    }

    fn concentration(&self) -> u16 {
        dispatch!(self, t => Topology::concentration(t))
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

impl From<CMesh> for Substrate {
    fn from(c: CMesh) -> Self {
        Substrate::CMesh(c)
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

    #[test]
    fn mesh_delta_and_advance_are_plain_offsets() {
        let m = Mesh::new(8, 8);
        assert_eq!(Topology::delta(&m, NodeId(27), NodeId(31)), (4, 0));
        assert_eq!(Topology::delta(&m, NodeId(31), NodeId(27)), (-4, 0));
        assert_eq!(
            Topology::advance(&m, NodeId(27), Direction::East, 4),
            NodeId(31)
        );
        assert_eq!(
            Topology::advance(&m, NodeId(27), Direction::South, 2),
            NodeId(43)
        );
    }

    #[test]
    fn mesh_steps_between_requires_straight_lines() {
        let m = Mesh::new(8, 8);
        assert_eq!(
            Topology::steps_between(&m, NodeId(26), NodeId(29), Direction::East),
            Some(3)
        );
        assert_eq!(
            Topology::steps_between(&m, NodeId(26), NodeId(29), Direction::West),
            None
        );
        // Different row: not a straight east run.
        assert_eq!(
            Topology::steps_between(&m, NodeId(26), NodeId(37), Direction::East),
            None
        );
        // Zero steps is not "between".
        assert_eq!(
            Topology::steps_between(&m, NodeId(26), NodeId(26), Direction::East),
            None
        );
    }

    #[test]
    fn torus_wraps_in_all_directions() {
        let t = Torus::new(4, 4);
        for n in t.iter_nodes() {
            for d in Direction::ALL {
                let nb = t.neighbor(n, d).expect("torus has no edges");
                assert_eq!(t.neighbor(nb, d.opposite()), Some(n), "{n} {d}");
            }
        }
    }

    #[test]
    fn torus_delta_takes_the_short_way_round() {
        let t = Torus::new(8, 8);
        // R0 -> R7 is one hop west on the ring, not seven east.
        assert_eq!(t.delta(NodeId(0), NodeId(7)), (-1, 0));
        // Exact half-ring ties break toward East/South.
        assert_eq!(t.delta(NodeId(0), NodeId(4)), (4, 0));
        assert_eq!(t.delta(NodeId(4), NodeId(0)), (4, 0));
        assert_eq!(t.distance(NodeId(0), NodeId(63)), 2);
    }

    #[test]
    fn torus_advance_matches_repeated_neighbor() {
        let t = Torus::new(5, 3);
        for n in t.iter_nodes() {
            for d in Direction::ALL {
                let mut cur = n;
                for k in 1..=6u16 {
                    cur = t.neighbor(cur, d).unwrap();
                    assert_eq!(t.advance(n, d, k), cur, "{n} {d} {k}");
                }
            }
        }
    }

    #[test]
    fn torus_steps_between_wraps() {
        let t = Torus::new(8, 8);
        // R7 east-wraps to R0 in one step.
        assert_eq!(
            t.steps_between(NodeId(7), NodeId(0), Direction::East),
            Some(1)
        );
        assert_eq!(
            t.steps_between(NodeId(0), NodeId(7), Direction::East),
            Some(7)
        );
        assert_eq!(
            t.steps_between(NodeId(0), NodeId(7), Direction::West),
            Some(1)
        );
        assert_eq!(t.steps_between(NodeId(0), NodeId(0), Direction::East), None);
    }

    #[test]
    fn torus_rejects_degenerate_dims() {
        assert!(matches!(
            Torus::try_new(1, 4),
            Err(ConfigError::BadTopologyDims { kind: "torus", .. })
        ));
        assert!(Torus::try_new(2, 2).is_ok());
    }

    #[test]
    fn oversized_torus_and_cmesh_name_themselves_in_the_error() {
        assert_eq!(
            Torus::try_new(256, 256),
            Err(ConfigError::TooManyNodes {
                kind: "torus",
                width: 256,
                height: 256
            })
        );
        assert_eq!(
            CMesh::try_new(300, 300, 4),
            Err(ConfigError::TooManyNodes {
                kind: "cmesh",
                width: 300,
                height: 300
            })
        );
        assert!(matches!(
            CMesh::try_new(0, 4, 4),
            Err(ConfigError::BadTopologyDims { kind: "cmesh", .. })
        ));
    }

    #[test]
    fn cmesh_routes_like_its_router_grid() {
        let c = CMesh::new(4, 4, 4);
        let m = Mesh::new(4, 4);
        assert_eq!(Topology::nodes(&c), 16);
        assert_eq!(Topology::concentration(&c), 4);
        for n in Topology::iter_nodes(&c) {
            for d in Direction::ALL {
                assert_eq!(Topology::neighbor(&c, n, d), Mesh::neighbor(m, n, d));
            }
        }
        assert!(matches!(
            CMesh::try_new(4, 4, 0),
            Err(ConfigError::BadConcentration)
        ));
    }

    #[test]
    fn substrate_tags_are_stable() {
        assert_eq!(Substrate::from(Mesh::new(8, 8)).tag(), "8x8");
        assert_eq!(Substrate::from(Torus::new(8, 8)).tag(), "torus8x8");
        assert_eq!(Substrate::from(CMesh::new(4, 4, 4)).tag(), "c4x4x4");
        assert_eq!(Substrate::default().tag(), "8x8");
    }

    #[test]
    fn substrate_dispatch_matches_concrete() {
        let s: Substrate = Torus::new(4, 6).into();
        assert_eq!(s.nodes(), 24);
        assert_eq!(s.width(), 4);
        assert_eq!(s.height(), 6);
        assert!(Topology::wraps(&s));
        assert_eq!(s.neighbor(NodeId(0), Direction::North), Some(NodeId(20)));
        assert_eq!(s.coord(NodeId(5)), Coord::new(1, 1));
        assert_eq!(s.node(Coord::new(1, 1)), NodeId(5));
        assert_eq!(s.neighbor_dirs(NodeId(0)).count(), 4);
    }
}
