//! Cycle-accurate 2D-mesh network-on-chip substrate for `punchsim`.
//!
//! This crate implements the network the Power Punch paper (HPCA 2015)
//! evaluates on: a mesh of wormhole virtual-channel routers with credit-based
//! flow control, look-ahead XY routing, speculative switch allocation
//! (3-stage) or plain allocation (4-stage), and per-node network interfaces —
//! the same microarchitecture GARNET models inside gem5.
//!
//! Power-gating schemes plug in through the [`PowerManager`] trait; the
//! schemes themselves (conventional, ConvOpt, Power Punch) live in
//! `punchsim-core`. The [`AlwaysOn`] baseline here is the paper's `No-PG`.
//!
//! # Examples
//!
//! ```
//! use punchsim_noc::{Network, Message, MsgClass, AlwaysOn};
//! use punchsim_types::{NocConfig, NodeId, VnetId};
//!
//! let cfg = NocConfig::default();
//! let mut net = Network::new(&cfg, Box::new(AlwaysOn::new(cfg.topology.nodes()))).unwrap();
//! net.send(Message {
//!     src: NodeId(0),
//!     dst: NodeId(63),
//!     vnet: VnetId(0),
//!     class: MsgClass::Data,
//!     payload: 7,
//!     gen_cycle: 0,
//! })
//! .unwrap();
//! while net.in_flight() > 0 {
//!     net.tick().unwrap();
//! }
//! assert_eq!(net.drain_delivered().filter(|m| m.dst == NodeId(63)).count(), 1);
//! ```

pub use punchsim_obs as obs;

pub mod flit;
pub mod link;
pub mod network;
pub mod ni;
mod pool;
pub mod power;
pub mod router;
mod shard;
pub mod snapshot;
pub mod soa;
pub mod stats;
pub mod vc;

pub use flit::{Flit, FlitKind, Message, MsgClass, PacketMeta};
pub use network::Network;
pub use power::{AlwaysOn, IdleInfo, PgCounters, PmEvent, PowerManager, PowerState};
pub use router::{Router, RouterActivity};
pub use shard::check_shards;
pub use soa::BitWords;
pub use stats::{NetStats, NetworkReport, RunningStats};
pub use vc::VcLayout;
