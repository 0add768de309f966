//! Messages, packets and flits.
//!
//! Endpoints (traffic generators, cache controllers) exchange [`Message`]s;
//! the network interface segments each message into a packet of [`Flit`]s
//! and reassembles it at the destination.

use punchsim_types::{Cycle, NodeId, PacketId, Port, VnetId};

/// Message class, which selects the VC type and the packet length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Short message (requests, acks): one flit, travels in control VCs.
    Control,
    /// Long message (cache-line data): multi-flit, travels in data VCs.
    Data,
}

impl MsgClass {
    /// Stable index in `0..2`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MsgClass::Control => 0,
            MsgClass::Data => 1,
        }
    }
}

/// An end-to-end message handed to / delivered by a network interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Virtual network (message class for deadlock avoidance).
    pub vnet: VnetId,
    /// Control (1 flit) or data (cache line) message.
    pub class: MsgClass,
    /// Opaque payload interpreted by the endpoint (e.g. a protocol event).
    pub payload: u64,
    /// Cycle at which the producing endpoint generated the message.
    pub gen_cycle: Cycle,
}

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries routing info.
    Head,
    /// Intermediate flit.
    Body,
    /// Last flit of a multi-flit packet; releases resources.
    Tail,
    /// Single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// `true` for `Head` and `HeadTail`.
    #[inline]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// `true` for `Tail` and `HeadTail`.
    #[inline]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }

    /// Stable discriminant for state snapshots.
    #[inline]
    pub fn tag(self) -> u8 {
        match self {
            FlitKind::Head => 0,
            FlitKind::Body => 1,
            FlitKind::Tail => 2,
            FlitKind::HeadTail => 3,
        }
    }
}

/// A flow-control unit traversing the network.
///
/// The `route_port` field implements *look-ahead routing* (Figure 3 of the
/// paper): the output port a flit will request at router `i` is computed at
/// router `i-1` (or at the NI for the first hop), so route computation never
/// occupies a pipeline stage.
///
/// 24 bytes, and the build keeps it so: every wheel slot, ring slot and
/// [`crate::router::Departure`] holds one. It carries no latch cycle — the
/// router knows which front flits are in their BW cycle (see
/// [`crate::router::Router::latch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Packet this flit belongs to.
    pub packet: PacketId,
    /// Head/body/tail position.
    pub kind: FlitKind,
    /// Virtual network of the packet.
    pub vnet: VnetId,
    /// Control or data class (selects VC type).
    pub class: MsgClass,
    /// Final destination node.
    pub dst: NodeId,
    /// Output port to request at the router currently holding the flit
    /// (pre-computed one hop ahead — look-ahead routing).
    pub route_port: Port,
    /// Input VC index at the router currently holding the flit, assigned by
    /// the upstream VC allocator (or the NI for the first hop).
    pub vc: u8,
    /// Sequence number within the packet (head = 0).
    pub seq: u16,
}

const _: () = assert!(std::mem::size_of::<Flit>() == 24);

impl Flit {
    /// Appends this flit's canonical snapshot encoding (see
    /// [`crate::snapshot`]): every field that affects future dynamics.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_u16, put_u64, put_u8};
        put_u64(out, self.packet.0);
        put_u8(out, self.kind.tag());
        put_u8(out, self.vnet.0);
        put_u8(out, self.class.index() as u8);
        put_u16(out, self.dst.0);
        put_u8(out, self.route_port.index() as u8);
        put_u8(out, self.vc);
        put_u16(out, self.seq);
    }
}

/// Per-packet bookkeeping kept by the network from injection to ejection.
#[derive(Debug, Clone)]
pub struct PacketMeta {
    /// The message this packet carries (returned at ejection).
    pub message: Message,
    /// Number of flits in the packet.
    pub len_flits: u16,
    /// Cycle the message entered the NI injection queue.
    pub ni_enqueue: Cycle,
    /// Cycle the head flit left the NI into the local router (0 until then).
    pub inject: Cycle,
    /// Hops traversed so far.
    pub hops: u16,
    /// Number of powered-off (or waking) routers encountered on the way
    /// (Figure 9 metric).
    pub pg_encounters: u32,
    /// Cycles spent stalled waiting for a router to finish waking up
    /// (Figure 10 metric).
    pub wakeup_wait: u64,
    /// The router this packet is currently counted as blocked on, so each
    /// powered-off router is counted once per encounter (Figure 9).
    pub blocked_on: Option<NodeId>,
    /// Whether this packet counts toward measured statistics (false for
    /// packets injected during warm-up).
    pub measured: bool,
}

impl PacketMeta {
    /// Creates bookkeeping for a message entering the NI at `ni_enqueue`.
    pub fn new(message: Message, len_flits: u16, ni_enqueue: Cycle, measured: bool) -> Self {
        PacketMeta {
            message,
            len_flits,
            ni_enqueue,
            inject: 0,
            hops: 0,
            pg_encounters: 0,
            wakeup_wait: 0,
            blocked_on: None,
            measured,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_kind_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(FlitKind::HeadTail.is_head());
        assert!(FlitKind::HeadTail.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head());
        assert!(!FlitKind::Body.is_tail());
        assert!(!FlitKind::Head.is_tail());
    }

    #[test]
    fn class_indices_distinct() {
        assert_ne!(MsgClass::Control.index(), MsgClass::Data.index());
    }
}
