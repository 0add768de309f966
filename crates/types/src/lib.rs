//! Foundational types for the `punchsim` NoC simulator.
//!
//! This crate defines the vocabulary shared by every other `punchsim` crate:
//! node/router identifiers, grid [`geometry`] (coordinates and checked mesh
//! dimensions), port [`direction`]s, the [`topology`] handle ([`Substrate`]:
//! mesh or torus, the one geometry), turn-model [`routing`] ([`RoutingKind`]
//! planned over a substrate by a [`RouteView`]), and the simulation
//! [`config`] structures mirroring Table 2 of the Power Punch paper (HPCA
//! 2015).
//!
//! # Examples
//!
//! ```
//! use punchsim_types::{Mesh, NodeId, RouteView};
//!
//! // A mesh routes XY unless told otherwise.
//! let view = RouteView::from(Mesh::new(8, 8));
//! // XY routing moves in X first: 27 -> 28.
//! assert_eq!(view.next_hop(NodeId(27), NodeId(31)), Some(NodeId(28)));
//! ```

#![forbid(unsafe_code)]

pub mod choice;
pub mod config;
pub mod direction;
pub mod error;
pub mod geometry;
pub mod rng;
pub mod routing;
pub mod topology;

pub use choice::FaultChoice;
pub use config::{
    FaultConfig, NocConfig, PowerConfig, SchemeKind, SchemeMeta, SchemePowerProfile, SimConfig,
    StuckEpoch, WatchdogConfig,
};
pub use direction::{Direction, Port, PortMap};
pub use error::{BlockedPacket, ConfigError, InvariantViolation, SimError, StallReport};
pub use geometry::{Coord, Mesh};
pub use rng::SimRng;
pub use routing::{RouteView, RoutingKind};
pub use topology::{Substrate, Torus};

/// A simulation timestamp, in router clock cycles.
pub type Cycle = u64;

/// Identifier of a node (tile) in the mesh; routers and network interfaces
/// share this numbering, row-major from the top-left corner as in Figure 4
/// of the paper (node 0 at the north-west corner, X+ eastward, Y+ southward).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Returns the raw index as a `usize`, for indexing per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

/// Identifier of a packet, unique within a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PacketId(pub u64);

impl std::fmt::Display for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifier of a virtual network (message class). The MESI protocol in
/// `punchsim-cmp` uses three: request, forward, and response, which is the
/// minimum for deadlock freedom stated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VnetId(pub u8);

impl VnetId {
    /// Returns the raw index as a `usize`, for indexing per-vnet tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VnetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VN{}", self.0)
    }
}
