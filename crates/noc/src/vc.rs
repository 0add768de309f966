//! Virtual channels and input-port buffering.

use std::collections::VecDeque;

use punchsim_types::{NocConfig, Port, VnetId};

use crate::flit::{Flit, MsgClass};

/// Layout of the VCs of one input port: for each virtual network, first the
/// data VCs, then the control VCs (§2.1: two 3-flit data VCs and one 1-flit
/// control VC per vnet by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcLayout {
    vnets: u8,
    data_per_vnet: u8,
    data_depth: u8,
    ctrl_per_vnet: u8,
    ctrl_depth: u8,
}

impl VcLayout {
    /// Derives the layout from a network configuration.
    pub fn new(cfg: &NocConfig) -> Self {
        VcLayout {
            vnets: cfg.vnets,
            data_per_vnet: cfg.data_vcs_per_vnet,
            data_depth: cfg.data_vc_depth,
            ctrl_per_vnet: cfg.ctrl_vcs_per_vnet,
            ctrl_depth: cfg.ctrl_vc_depth,
        }
    }

    /// VCs per vnet (data + control).
    #[inline]
    pub fn per_vnet(self) -> usize {
        self.data_per_vnet as usize + self.ctrl_per_vnet as usize
    }

    /// Total VCs in the port.
    #[inline]
    pub fn total(self) -> usize {
        self.vnets as usize * self.per_vnet()
    }

    /// Buffer depth (flits) of VC `idx`.
    pub fn depth(self, idx: usize) -> usize {
        let within = idx % self.per_vnet();
        if within < self.data_per_vnet as usize {
            self.data_depth as usize
        } else {
            self.ctrl_depth as usize
        }
    }

    /// The vnet VC `idx` belongs to.
    pub fn vnet(self, idx: usize) -> VnetId {
        VnetId((idx / self.per_vnet()) as u8)
    }

    /// The message class VC `idx` serves.
    pub fn class(self, idx: usize) -> MsgClass {
        let within = idx % self.per_vnet();
        if within < self.data_per_vnet as usize {
            MsgClass::Data
        } else {
            MsgClass::Control
        }
    }

    /// Indices of the VCs serving `(vnet, class)`, in ascending order.
    pub fn candidates(self, vnet: VnetId, class: MsgClass) -> std::ops::Range<usize> {
        let base = vnet.index() * self.per_vnet();
        match class {
            MsgClass::Data => base..base + self.data_per_vnet as usize,
            MsgClass::Control => base + self.data_per_vnet as usize..base + self.per_vnet(),
        }
    }
}

/// State of the packet currently at the front of a VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcRoute {
    /// No packet, or the head flit has not been granted an output VC yet.
    Unrouted,
    /// The head won VC allocation in the given cycle for `(out_port, out_vc)`;
    /// in 4-stage mode switch allocation may only start the following cycle.
    Routed {
        /// Output port the packet is traversing toward.
        out_port: Port,
        /// Downstream VC index granted by VA.
        out_vc: usize,
        /// Cycle VA was won (for the VA->SA pipeline bubble in 4-stage mode).
        va_cycle: u64,
    },
}

/// One virtual-channel FIFO of an input port.
#[derive(Debug, Clone)]
pub struct Vc {
    flits: VecDeque<Flit>,
    depth: usize,
    /// Allocation state of the packet at the front of the queue.
    pub route: VcRoute,
}

impl Vc {
    /// Creates an empty VC with the given buffer depth.
    pub fn new(depth: usize) -> Self {
        Vc {
            flits: VecDeque::with_capacity(depth),
            depth,
            route: VcRoute::Unrouted,
        }
    }

    /// Buffer depth in flits.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of buffered flits.
    #[inline]
    pub fn len(&self) -> usize {
        self.flits.len()
    }

    /// `true` when no flits are buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.flits.is_empty()
    }

    /// Latches a flit into the buffer (the BW stage).
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — upstream credit accounting must make
    /// this impossible.
    pub fn push(&mut self, flit: Flit) {
        assert!(
            self.flits.len() < self.depth,
            "VC overflow: credit accounting violated"
        );
        self.flits.push_back(flit);
    }

    /// The flit at the front of the queue, if any.
    #[inline]
    pub fn front(&self) -> Option<&Flit> {
        self.flits.front()
    }

    /// Removes and returns the front flit (on a switch-allocation grant).
    pub fn pop(&mut self) -> Option<Flit> {
        self.flits.pop_front()
    }

    /// Appends this VC's canonical snapshot encoding (see
    /// [`crate::snapshot`]): the buffered flits and the allocation state of
    /// the front packet. `va_cycle` is excluded — it only distinguishes
    /// same-cycle speculative grants, and between ticks it is always
    /// strictly below the current cycle, so it carries no information in
    /// the rebased encoding.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use crate::snapshot::put_u8;
        put_u8(out, self.flits.len() as u8);
        for flit in &self.flits {
            flit.encode_state(out);
        }
        match self.route {
            VcRoute::Unrouted => put_u8(out, 0),
            VcRoute::Routed {
                out_port, out_vc, ..
            } => {
                put_u8(out, 1);
                put_u8(out, out_port.index() as u8);
                put_u8(out, out_vc as u8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::NocConfig;

    fn layout() -> VcLayout {
        VcLayout::new(&NocConfig::default())
    }

    #[test]
    fn default_layout_matches_table2() {
        let l = layout();
        assert_eq!(l.total(), 9); // 3 vnets x (2 data + 1 ctrl)
        assert_eq!(l.per_vnet(), 3);
        // VC 0,1 are vnet0 data; VC 2 is vnet0 control.
        assert_eq!(l.class(0), MsgClass::Data);
        assert_eq!(l.class(1), MsgClass::Data);
        assert_eq!(l.class(2), MsgClass::Control);
        assert_eq!(l.depth(0), 3);
        assert_eq!(l.depth(2), 1);
        assert_eq!(l.vnet(5), VnetId(1));
        assert_eq!(l.vnet(8), VnetId(2));
    }

    #[test]
    fn candidate_ranges() {
        let l = layout();
        assert_eq!(l.candidates(VnetId(0), MsgClass::Data), 0..2);
        assert_eq!(l.candidates(VnetId(0), MsgClass::Control), 2..3);
        assert_eq!(l.candidates(VnetId(2), MsgClass::Data), 6..8);
        assert_eq!(l.candidates(VnetId(2), MsgClass::Control), 8..9);
    }

    #[test]
    fn vc_fifo_order() {
        use crate::flit::{FlitKind, MsgClass};
        use punchsim_types::{NodeId, PacketId, Port};
        let mut vc = Vc::new(3);
        for seq in 0..3 {
            vc.push(Flit {
                packet: PacketId(1),
                kind: if seq == 0 {
                    FlitKind::Head
                } else {
                    FlitKind::Body
                },
                vnet: VnetId(0),
                class: MsgClass::Data,
                dst: NodeId(5),
                route_port: Port::Local,
                vc: 0,
                seq,
                latched_at: 0,
            });
        }
        assert_eq!(vc.len(), 3);
        assert_eq!(vc.pop().unwrap().seq, 0);
        assert_eq!(vc.pop().unwrap().seq, 1);
        assert_eq!(vc.front().unwrap().seq, 2);
    }

    #[test]
    #[should_panic]
    fn vc_overflow_panics() {
        use crate::flit::{FlitKind, MsgClass};
        use punchsim_types::{NodeId, PacketId, Port};
        let mut vc = Vc::new(1);
        let f = Flit {
            packet: PacketId(1),
            kind: FlitKind::HeadTail,
            vnet: VnetId(0),
            class: MsgClass::Control,
            dst: NodeId(0),
            route_port: Port::Local,
            vc: 0,
            seq: 0,
            latched_at: 0,
        };
        vc.push(f);
        vc.push(f);
    }
}
