//! Virtual channels: the layout of an input port's VCs, and one VC as
//! plain data — a ring in its router's flit slab plus a compact control
//! word.

use punchsim_types::{NocConfig, NodeId, PacketId, Port, VnetId};

use crate::flit::{Flit, FlitKind, MsgClass};

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

    /// Buffer slots of one whole port (the sum of its VCs' depths).
    pub fn port_flits(self) -> usize {
        self.vnets as usize * self.vnet_flits()
    }

    fn vnet_flits(self) -> usize {
        let data = self.data_per_vnet as usize * self.data_depth as usize;
        data + self.ctrl_per_vnet as usize * self.ctrl_depth as usize
    }

    /// Where VC `idx`'s ring starts within its port's share of a router's
    /// flit slab: the depths of the VCs before it, back to back.
    pub fn offset(self, idx: usize) -> usize {
        let (vnet, within) = (idx / self.per_vnet(), idx % self.per_vnet());
        let data = self.data_per_vnet as usize;
        let before = if within < data {
            within * self.data_depth as usize
        } else {
            data * self.data_depth as usize + (within - data) * self.ctrl_depth as usize
        };
        vnet * self.vnet_flits() + before
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

    /// [`VcLayout::candidates`] as a VC mask (bit `v` set iff VC `v`
    /// serves `(vnet, class)`).
    #[inline]
    pub fn candidate_mask(self, vnet: VnetId, class: MsgClass) -> u32 {
        let r = self.candidates(vnet, class);
        ((1u64 << r.end) - (1u64 << r.start)) as u32
    }
}

/// What an unwritten ring slot holds; never read as a flit.
pub(crate) const VACANT: Flit = Flit {
    packet: PacketId(0),
    kind: FlitKind::Body,
    vnet: VnetId(0),
    class: MsgClass::Data,
    dst: NodeId(0),
    route_port: Port::Local,
    vc: 0,
    seq: 0,
};

/// One input VC's control word (8 bytes): where its ring sits in the
/// router's flit slab, the ring's head and length, and the output its front
/// packet won in VC allocation — meaningful while the router's `routed` bit
/// for the VC is set.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VcState {
    base: u16,
    head: u8,
    len: u8,
    depth: u8,
    /// [`Port::index`] of the output the front packet won.
    pub out_port: u8,
    /// The downstream VC it won there.
    pub out_vc: u8,
}

const _: () = assert!(std::mem::size_of::<VcState>() == 8);

impl VcState {
    /// An empty VC of `depth` flits whose ring starts at slab index `base`.
    pub fn new(base: usize, depth: usize) -> Self {
        VcState {
            base: u16::try_from(base).expect("a router's slab fits u16 offsets"),
            head: 0,
            len: 0,
            depth: depth as u8,
            out_port: 0,
            out_vc: 0,
        }
    }

    /// Number of buffered flits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no flits are buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `flit` to the ring in `slab` (the BW stage).
    ///
    /// # Panics
    ///
    /// Panics if the ring is full — upstream credit accounting must make
    /// this impossible.
    #[inline]
    pub fn push(&mut self, slab: &mut [Flit], flit: Flit) {
        assert!(
            self.len < self.depth,
            "VC overflow: credit accounting violated"
        );
        let mut at = self.head as usize + self.len as usize;
        if at >= self.depth as usize {
            at -= self.depth as usize;
        }
        slab[self.base as usize + at] = flit;
        self.len += 1;
    }

    /// The flit at the front of a non-empty ring.
    #[inline]
    pub fn front<'a>(&self, slab: &'a [Flit]) -> &'a Flit {
        debug_assert!(self.len > 0, "front of an empty VC");
        &slab[self.base as usize + self.head as usize]
    }

    /// Removes and returns the front flit of a non-empty ring (on a
    /// switch-allocation grant).
    #[inline]
    pub fn pop(&mut self, slab: &[Flit]) -> Flit {
        let flit = *self.front(slab);
        self.head += 1;
        if self.head == self.depth {
            self.head = 0;
        }
        self.len -= 1;
        flit
    }

    /// The buffered flits, front first.
    pub fn flits<'a>(&self, slab: &'a [Flit]) -> impl Iterator<Item = &'a Flit> {
        let (base, head, depth) = (self.base as usize, self.head as usize, self.depth as usize);
        (0..self.len as usize).map(move |i| &slab[base + (head + i) % depth])
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
        // Rings back to back: 3 + 3 + 1 flits per vnet.
        assert_eq!(l.port_flits(), 21);
        let offsets: Vec<usize> = (0..9).map(|i| l.offset(i)).collect();
        assert_eq!(offsets, vec![0, 3, 6, 7, 10, 13, 14, 17, 20]);
    }

    #[test]
    fn candidate_ranges() {
        let l = layout();
        assert_eq!(l.candidates(VnetId(0), MsgClass::Data), 0..2);
        assert_eq!(l.candidates(VnetId(0), MsgClass::Control), 2..3);
        assert_eq!(l.candidates(VnetId(2), MsgClass::Data), 6..8);
        assert_eq!(l.candidates(VnetId(2), MsgClass::Control), 8..9);
        assert_eq!(l.candidate_mask(VnetId(2), MsgClass::Data), 0b0_1100_0000);
        // The last VC of the widest layout sits on the mask's top bit.
        let wide = VcLayout::new(&NocConfig {
            vnets: 4,
            data_vcs_per_vnet: 5,
            ctrl_vcs_per_vnet: 3,
            ..NocConfig::default()
        });
        assert_eq!(
            wide.candidate_mask(VnetId(3), MsgClass::Control),
            0xE000_0000
        );
    }

    fn flit(seq: u16) -> Flit {
        Flit {
            packet: PacketId(1),
            kind: if seq == 0 {
                FlitKind::Head
            } else {
                FlitKind::Body
            },
            dst: NodeId(5),
            seq,
            ..VACANT
        }
    }

    #[test]
    fn vc_fifo_order() {
        // A 3-deep ring in the middle of a slab, pushed and popped across
        // its wrap point; its neighbours' slots are never written.
        let mut slab = vec![VACANT; 7];
        let mut vc = VcState::new(2, 3);
        for seq in 0..3 {
            vc.push(&mut slab, flit(seq));
        }
        assert_eq!(vc.len(), 3);
        assert_eq!(vc.pop(&slab).seq, 0);
        assert_eq!(vc.pop(&slab).seq, 1);
        assert_eq!(vc.front(&slab).seq, 2);
        vc.push(&mut slab, flit(3));
        vc.push(&mut slab, flit(4));
        let order: Vec<u16> = vc.flits(&slab).map(|f| f.seq).collect();
        assert_eq!(order, vec![2, 3, 4]);
        assert_eq!((vc.pop(&slab).seq, vc.pop(&slab).seq), (2, 3));
        assert_eq!(vc.front(&slab).seq, 4);
        for i in [0, 1, 5, 6] {
            assert_eq!(slab[i], VACANT, "slot {i}");
        }
    }

    #[test]
    #[should_panic(expected = "VC overflow")]
    fn vc_overflow_panics() {
        let mut slab = vec![VACANT; 1];
        let mut vc = VcState::new(0, 1);
        let f = Flit {
            kind: FlitKind::HeadTail,
            class: MsgClass::Control,
            ..VACANT
        };
        vc.push(&mut slab, f);
        vc.push(&mut slab, f);
    }
}
