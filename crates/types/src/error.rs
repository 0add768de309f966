//! Typed errors for configuration validation and simulation execution.
//!
//! The simulator's correctness story (the paper's §4.1–4.2 "punches are only
//! an optimization" argument) is only checkable if failures surface as
//! structured data rather than panics or silent infinite loops. This module
//! defines the three layers of that story:
//!
//! * [`ConfigError`] — a configuration violates a static constraint;
//! * [`InvariantViolation`] — a per-cycle runtime invariant broke (flits
//!   lost, or a flit latched into a powered-off router's datapath);
//! * [`StallReport`] — the network made no forward progress for longer than
//!   the watchdog threshold; carries everything needed to diagnose which
//!   router or wakeup path wedged.
//!
//! All three fold into [`SimError`], the error type returned by fallible
//! network operations.

use crate::{Cycle, NodeId, PacketId, SchemeKind, VnetId};

/// A statically invalid configuration value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `vnets` was zero; at least one virtual network is required.
    NoVnets,
    /// A vnet had neither data nor control VCs.
    NoVcs,
    /// More VCs per input port than the router's per-port occupancy mask
    /// (and the `u8` round-robin pointers of its state encoding) can hold.
    TooManyVcs {
        /// Requested VCs per port (`vnets x (data + ctrl)`).
        per_port: usize,
        /// Largest supported value ([`crate::NocConfig::MAX_VCS_PER_PORT`]).
        max: usize,
    },
    /// A VC class has VCs but zero buffer depth: it would start with no
    /// credits, so its first packet could never inject.
    ZeroVcDepth,
    /// `router_stages` outside the modeled 3..=4 range.
    BadRouterStages(u8),
    /// `link_latency` must be at least one cycle.
    ZeroLinkLatency,
    /// A packet class had zero flits.
    EmptyPacket,
    /// `punch_hops` outside 1..=4 (the paper evaluates 2–4).
    BadPunchHops(u16),
    /// `wakeup_latency` must be non-zero.
    ZeroWakeupLatency,
    /// A fault probability exceeded 1.0 (1_000_000 ppm).
    BadProbability {
        /// Which `FaultConfig` field was out of range.
        field: &'static str,
        /// The offending parts-per-million value.
        ppm: u32,
    },
    /// A stuck-off epoch referenced a router outside the mesh.
    BadStuckRouter(NodeId),
    /// A topology was given degenerate dimensions (zero for a mesh,
    /// below 2 for a torus ring).
    BadTopologyDims {
        /// Topology kind name (`"mesh"`, `"torus"`).
        kind: &'static str,
        /// Offending width.
        width: u16,
        /// Offending height.
        height: u16,
    },
    /// A topology has more routers than there are [`NodeId`]s (a `u16`;
    /// the router count must fit one too).
    TooManyNodes {
        /// Topology kind name (`"mesh"`, `"torus"`).
        kind: &'static str,
        /// Offending width.
        width: u16,
        /// Offending height.
        height: u16,
    },
    /// A synthetic injection rate was negative, NaN or infinite.
    BadInjectionRate {
        /// The offending rate as given (`f64` has no `Eq`).
        rate: String,
    },
    /// A scheme tag/label did not match any registered scheme.
    UnknownScheme {
        /// The unrecognized input string.
        input: String,
    },
    /// Sharded ticking was requested with zero shards (`--shards 0`).
    ZeroShards,
    /// Sharded ticking was asked to cut the mesh into more row shards than
    /// the topology has router rows, leaving at least one shard empty.
    ShardsExceedRows {
        /// Requested shard count.
        shards: usize,
        /// Router rows available to partition.
        rows: u16,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoVnets => write!(f, "at least one virtual network is required"),
            ConfigError::NoVcs => write!(f, "each vnet needs at least one VC"),
            ConfigError::TooManyVcs { per_port, max } => {
                write!(f, "{per_port} VCs per port exceed the supported {max}")
            }
            ConfigError::ZeroVcDepth => {
                write!(f, "a VC class with VCs needs a buffer depth of at least 1")
            }
            ConfigError::BadRouterStages(s) => {
                write!(f, "router_stages must be 3 or 4, got {s}")
            }
            ConfigError::ZeroLinkLatency => write!(f, "link_latency must be at least 1 cycle"),
            ConfigError::EmptyPacket => write!(f, "packets must have at least one flit"),
            ConfigError::BadPunchHops(h) => {
                write!(
                    f,
                    "punch_hops must be in 1..=4 (paper evaluates 2-4), got {h}"
                )
            }
            ConfigError::ZeroWakeupLatency => write!(f, "wakeup_latency must be non-zero"),
            ConfigError::BadProbability { field, ppm } => {
                write!(f, "fault probability {field} = {ppm} ppm exceeds 1_000_000")
            }
            ConfigError::BadStuckRouter(r) => {
                write!(f, "stuck-off epoch names router {r} outside the mesh")
            }
            ConfigError::BadTopologyDims {
                kind,
                width,
                height,
            } => {
                write!(f, "{kind} dimensions {width}x{height} are degenerate")
            }
            ConfigError::TooManyNodes {
                kind,
                width,
                height,
            } => {
                write!(
                    f,
                    "{kind} {width}x{height} has {} routers, more than the {} \
                     a 16-bit node id can name",
                    u32::from(*width) * u32::from(*height),
                    u16::MAX
                )
            }
            ConfigError::BadInjectionRate { rate } => {
                write!(f, "injection rate must be a finite number >= 0, got {rate}")
            }
            ConfigError::UnknownScheme { input } => {
                let tags = SchemeKind::METAS.map(|m| m.tag).join(", ");
                write!(f, "unknown scheme {input:?} ({tags})")
            }
            ConfigError::ZeroShards => {
                write!(f, "sharded ticking needs at least 1 shard (--shards 0)")
            }
            ConfigError::ShardsExceedRows { shards, rows } => {
                write!(
                    f,
                    "{shards} shards exceed the {rows} router rows available \
                     (each shard must own at least one row)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A broken per-cycle runtime invariant detected by the network watchdog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// Flit conservation failed: every injected flit must be delivered or
    /// still in flight (`injected == delivered + in_flight`).
    FlitConservation {
        /// Cycle of detection.
        cycle: Cycle,
        /// Flits injected since construction.
        injected: u64,
        /// Flits fully delivered since construction.
        delivered: u64,
        /// Flits currently tracked in flight.
        in_flight: u64,
    },
    /// A flit was latched into the datapath of a router whose power state
    /// was `Off` — the gating protocol guarantees this never happens (a
    /// router may only sleep when nothing is in flight toward it).
    FlitIntoOffRouter {
        /// Cycle of detection.
        cycle: Cycle,
        /// The powered-off router that received a flit.
        router: NodeId,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::FlitConservation {
                cycle,
                injected,
                delivered,
                in_flight,
            } => write!(
                f,
                "cycle {cycle}: flit conservation broken \
                 (injected {injected} != delivered {delivered} + in-flight {in_flight})"
            ),
            InvariantViolation::FlitIntoOffRouter { cycle, router } => write!(
                f,
                "cycle {cycle}: flit latched into powered-off router {router}"
            ),
        }
    }
}

/// The oldest packet blocked at the moment a stall was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedPacket {
    /// Packet id.
    pub packet: PacketId,
    /// Cycles since the packet entered its NI.
    pub age: Cycle,
    /// The powered-off router it was last counted blocked on, if any.
    pub blocked_on: Option<NodeId>,
}

/// Structured diagnosis produced when the network makes no forward progress
/// for longer than the watchdog threshold, instead of silently looping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// Cycle at which the stall was declared.
    pub cycle: Cycle,
    /// Consecutive cycles without forward progress.
    pub stalled_for: Cycle,
    /// Packets somewhere between NI enqueue and tail ejection.
    pub in_flight_packets: usize,
    /// Routers reported fully off.
    pub off_routers: Vec<NodeId>,
    /// Routers currently in their wakeup transient.
    pub waking_routers: Vec<NodeId>,
    /// The oldest packet still in flight.
    pub oldest_blocked: Option<BlockedPacket>,
    /// Punch signals still in flight or queued in the sideband fabric.
    pub pending_punches: usize,
    /// The tail of the flight recorder at detection time (pre-rendered,
    /// oldest first; empty when tracing was disabled). This is the
    /// cycle-by-cycle story of what the network did — and failed to do —
    /// in the window leading up to the stall.
    pub last_events: Vec<String>,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no forward progress for {} cycles at cycle {}: {} packets in flight, \
             {} routers off, {} waking, {} punches pending",
            self.stalled_for,
            self.cycle,
            self.in_flight_packets,
            self.off_routers.len(),
            self.waking_routers.len(),
            self.pending_punches
        )?;
        if let Some(b) = &self.oldest_blocked {
            write!(f, "; oldest packet {} ({} cycles old", b.packet, b.age)?;
            match b.blocked_on {
                Some(r) => write!(f, ", blocked on {r})")?,
                None => write!(f, ")")?,
            }
        }
        if !self.last_events.is_empty() {
            write!(f, "; last {} events:", self.last_events.len())?;
            for e in &self.last_events {
                write!(f, "\n  {e}")?;
            }
        }
        Ok(())
    }
}

/// Any error a simulation run can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// A node id was outside the mesh.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes in the mesh.
        nodes: usize,
    },
    /// A vnet id was outside the configured vnet count.
    VnetOutOfRange {
        /// The offending vnet.
        vnet: VnetId,
        /// Configured number of vnets.
        vnets: u8,
    },
    /// The watchdog declared a no-forward-progress stall.
    Stall(Box<StallReport>),
    /// A per-cycle invariant check failed.
    Invariant(InvariantViolation),
    /// A sharded-tick worker thread panicked. The persistent shard pool
    /// converts worker panics into this typed error (instead of hanging
    /// at its completion barrier or aborting the process); the pool — and
    /// the simulation loop around it — stay usable.
    ShardPanic {
        /// Index of the shard whose worker panicked (shard 0 runs on the
        /// host thread and propagates panics natively).
        shard: usize,
        /// Stringified panic payload from the worker.
        message: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} outside mesh of {nodes} nodes")
            }
            SimError::VnetOutOfRange { vnet, vnets } => {
                write!(f, "vnet {vnet} outside configured {vnets} vnets")
            }
            SimError::Stall(r) => write!(f, "network stalled: {r}"),
            SimError::Invariant(v) => write!(f, "invariant violated: {v}"),
            SimError::ShardPanic { shard, message } => {
                write!(f, "shard {shard} worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ConfigError::BadRouterStages(7);
        assert!(e.to_string().contains('7'));
        let s = SimError::NodeOutOfRange {
            node: NodeId(99),
            nodes: 64,
        };
        assert!(s.to_string().contains("R99"));
        assert!(s.to_string().contains("64"));
    }

    #[test]
    fn stall_report_display_names_blocked_router() {
        let r = StallReport {
            cycle: 500,
            stalled_for: 200,
            in_flight_packets: 3,
            off_routers: vec![NodeId(5)],
            waking_routers: vec![],
            oldest_blocked: Some(BlockedPacket {
                packet: PacketId(7),
                age: 450,
                blocked_on: Some(NodeId(5)),
            }),
            pending_punches: 0,
            last_events: vec![],
        };
        let s = SimError::Stall(Box::new(r)).to_string();
        assert!(s.contains("P7"), "{s}");
        assert!(s.contains("R5"), "{s}");
    }

    #[test]
    fn stall_report_display_appends_flight_recorder_tail() {
        let r = StallReport {
            cycle: 500,
            stalled_for: 200,
            in_flight_packets: 1,
            off_routers: vec![],
            waking_routers: vec![],
            oldest_blocked: None,
            pending_punches: 0,
            last_events: vec![
                "[498] WU asserted toward R5".to_string(),
                "[499] fault wu-dropped at R5".to_string(),
            ],
        };
        let s = r.to_string();
        assert!(s.contains("last 2 events"), "{s}");
        assert!(s.contains("wu-dropped"), "{s}");
    }

    #[test]
    fn config_error_converts_to_sim_error() {
        let s: SimError = ConfigError::NoVnets.into();
        assert!(matches!(s, SimError::Config(ConfigError::NoVnets)));
        use std::error::Error;
        assert!(s.source().is_some());
    }
}
