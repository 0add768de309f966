//! Grid coordinates and the checked mesh dimensions.
//!
//! Numbering follows Figure 4 of the paper: node 0 is the north-west corner,
//! ids increase eastward along a row, then southward row by row. `X+` points
//! east and `Y+` points south (toward larger ids in both cases). The
//! geometry over these coordinates (node/coordinate conversion, neighbours,
//! distances) is written once, on [`Substrate`](crate::Substrate).

use crate::error::ConfigError;

/// A position in the mesh, `x` eastward and `y` southward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Coord {
    /// Column, increasing eastward (`X+`).
    pub x: u16,
    /// Row, increasing southward (`Y+`).
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate from column `x` and row `y`.
    #[inline]
    pub fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A 2D mesh topology of `width x height` tiles: validated dimensions,
/// whose geometry is that of the [`Substrate`](crate::Substrate) it
/// converts into.
///
/// # Examples
///
/// ```
/// use punchsim_types::{Coord, Mesh, NodeId, Substrate};
///
/// let mesh = Substrate::from(Mesh::new(8, 8));
/// assert_eq!(mesh.nodes(), 64);
/// assert_eq!(mesh.coord(NodeId(27)), Coord::new(3, 3));
/// assert_eq!(mesh.node(Coord::new(3, 3)), NodeId(27));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Creates a `width x height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the mesh has more routers than
    /// node ids. Use [`Mesh::try_new`] where a typed error is wanted instead
    /// (CLI parsing, config validation).
    pub fn new(width: u16, height: u16) -> Self {
        Mesh::try_new(width, height).expect("invalid mesh dimensions")
    }

    /// Creates a `width x height` mesh, rejecting unusable dimensions
    /// through the typed-error path: a `0xN` mesh has no nodes (every
    /// coordinate conversion on it would divide by zero), and a mesh of
    /// more than `u16::MAX` routers has more routers than [`NodeId`](crate::NodeId)s.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadTopologyDims`] when either dimension is zero,
    /// [`ConfigError::TooManyNodes`] when `width * height > u16::MAX`.
    pub fn try_new(width: u16, height: u16) -> Result<Self, ConfigError> {
        Mesh::checked("mesh", width, height, 1)
    }

    /// The router grid of a `kind` topology: no dimension below `min_dim`,
    /// and few enough routers that both every router's id and the router
    /// count itself fit the `u16` of a [`NodeId`](crate::NodeId).
    pub(crate) fn checked(
        kind: &'static str,
        width: u16,
        height: u16,
        min_dim: u16,
    ) -> Result<Self, ConfigError> {
        if width < min_dim || height < min_dim {
            return Err(ConfigError::BadTopologyDims {
                kind,
                width,
                height,
            });
        }
        if u32::from(width) * u32::from(height) > u32::from(u16::MAX) {
            return Err(ConfigError::TooManyNodes {
                kind,
                width,
                height,
            });
        }
        Ok(Mesh { width, height })
    }

    /// Mesh width (number of columns).
    #[inline]
    pub fn width(self) -> u16 {
        self.width
    }

    /// Mesh height (number of rows).
    #[inline]
    pub fn height(self) -> u16 {
        self.height
    }

    /// Total number of nodes.
    #[inline]
    pub fn nodes(self) -> usize {
        self.width as usize * self.height as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Direction, NodeId, Substrate};

    fn mesh(width: u16, height: u16) -> Substrate {
        Mesh::new(width, height).into()
    }

    #[test]
    fn coord_roundtrip_8x8() {
        let m = mesh(8, 8);
        for n in m.iter_nodes() {
            assert_eq!(m.node(m.coord(n)), n);
        }
    }

    #[test]
    fn paper_figure4_positions() {
        // Figure 4: R27 is at column 3, row 3 of the 8x8 mesh; R28 is its
        // eastern (X+) neighbour, R35 its southern (Y+) neighbour.
        let m = mesh(8, 8);
        assert_eq!(m.coord(NodeId(27)), Coord::new(3, 3));
        assert_eq!(m.neighbor(NodeId(27), Direction::East), Some(NodeId(28)));
        assert_eq!(m.neighbor(NodeId(27), Direction::South), Some(NodeId(35)));
        assert_eq!(m.neighbor(NodeId(27), Direction::North), Some(NodeId(19)));
        assert_eq!(m.neighbor(NodeId(27), Direction::West), Some(NodeId(26)));
    }

    #[test]
    fn edges_have_no_neighbor() {
        let m = mesh(4, 4);
        assert_eq!(m.neighbor(NodeId(0), Direction::North), None);
        assert_eq!(m.neighbor(NodeId(0), Direction::West), None);
        assert_eq!(m.neighbor(NodeId(15), Direction::South), None);
        assert_eq!(m.neighbor(NodeId(15), Direction::East), None);
    }

    #[test]
    fn distance_is_manhattan() {
        let m = mesh(8, 8);
        assert_eq!(m.distance(NodeId(0), NodeId(63)), 14);
        assert_eq!(m.distance(NodeId(27), NodeId(27)), 0);
        assert_eq!(m.distance(NodeId(27), NodeId(31)), 4);
    }

    #[test]
    fn rectangular_mesh() {
        let m = mesh(4, 2);
        assert_eq!(m.nodes(), 8);
        assert_eq!(m.coord(NodeId(5)), Coord::new(1, 1));
        assert_eq!(m.neighbor(NodeId(3), Direction::South), Some(NodeId(7)));
    }

    /// `Substrate::coord` checks its argument only in debug builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn out_of_range_coord_panics() {
        mesh(4, 4).coord(NodeId(16));
    }

    #[test]
    fn zero_dimensions_are_a_typed_error() {
        for (w, h) in [(0, 4), (4, 0), (0, 0)] {
            assert!(matches!(
                Mesh::try_new(w, h),
                Err(ConfigError::BadTopologyDims { kind: "mesh", .. })
            ));
        }
        assert_eq!(Mesh::try_new(4, 4), Ok(Mesh::new(4, 4)));
    }

    #[test]
    fn more_routers_than_node_ids_is_a_typed_error() {
        // 65 536 routers used to truncate through `nodes() as u16`;
        // 90 000 wrapped `NodeId` itself.
        for (w, h) in [(256, 256), (300, 300), (u16::MAX, 2)] {
            assert_eq!(
                Mesh::try_new(w, h),
                Err(ConfigError::TooManyNodes {
                    kind: "mesh",
                    width: w,
                    height: h
                })
            );
        }
        // The largest grids that still fit.
        assert_eq!(Mesh::new(255, 257).nodes(), usize::from(u16::MAX));
        assert_eq!(Mesh::new(u16::MAX, 1).nodes(), usize::from(u16::MAX));
    }

    #[test]
    fn within_three_hops_of_r27() {
        // Section 3: "There are 24 routers within 3 hops of router 27".
        let m = mesh(8, 8);
        let n = m
            .iter_nodes()
            .filter(|&x| x != NodeId(27) && m.distance(NodeId(27), x) <= 3)
            .count();
        assert_eq!(n, 24);
    }
}
