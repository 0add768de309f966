//! Virtual channels: the layout of an input port's VCs, and one VC as
//! plain data — a linked FIFO through its router's flit pool plus a compact
//! control word.

use punchsim_types::{NocConfig, VnetId};

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

/// The link that ends a chain: no next slot, or no slot at all.
const NIL: u16 = u16::MAX;

/// A router's buffered flits: slots that grow to the router's high-water
/// mark of buffered flits, each VC a FIFO linked through them, and a free
/// list (linked the same way) that recycles popped slots.
#[derive(Debug, Clone)]
pub(crate) struct FlitPool {
    flits: Vec<Flit>,
    /// Per slot, the next slot of its VC's FIFO or of the free list.
    next: Vec<u16>,
    /// First free slot.
    free: u16,
}

impl FlitPool {
    /// An empty pool, which holds no slot until a flit arrives.
    pub fn new() -> Self {
        FlitPool {
            flits: Vec::new(),
            next: Vec::new(),
            free: NIL,
        }
    }

    /// Checks the links against the VCs that own them: each VC's chain
    /// holds `len` slots and ends at `tail`, no slot sits in two chains or
    /// in a chain and the free list, and live plus free slots are all the
    /// slots. Without a heap request: a walk that ends on a `NIL` link
    /// revisited no slot, and chains that share a slot share their last.
    pub fn check(&self, vcs: &[VcState]) {
        let (mut at, mut free, mut free_last) = (self.free, 0, NIL);
        while at != NIL {
            free += 1;
            assert!(free <= self.flits.len(), "free list loops");
            (free_last, at) = (at, self.next[at as usize]);
        }
        let mut live = 0;
        for (i, vc) in vcs.iter().enumerate().filter(|(_, vc)| !vc.is_empty()) {
            let last = (1..vc.len()).fold(vc.head, |at, _| self.next[at as usize]);
            let ends = last == vc.tail && self.next[last as usize] == NIL;
            assert!(ends, "vc{i}: its {} slots end at its tail", vc.len());
            let shared = vcs[i + 1..].iter().any(|o| !o.is_empty() && o.tail == last);
            assert!(!shared && last != free_last, "vc{i}: chains share a slot");
            live += vc.len();
        }
        assert_eq!(live + free, self.flits.len(), "live + free slots");
    }
}

/// One input VC's control word (8 bytes): the first and last slot of its
/// FIFO in the router's [`FlitPool`], its length and depth, and the output
/// its front packet won in VC allocation — meaningful while the router's
/// `routed` bit for the VC is set.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VcState {
    head: u16,
    tail: u16,
    len: u8,
    depth: u8,
    /// `Port::index` of the output the front packet won.
    pub out_port: u8,
    /// The downstream VC it won there.
    pub out_vc: u8,
}

const _: () = assert!(std::mem::size_of::<VcState>() == 8);

impl VcState {
    /// An empty VC of `depth` flits.
    pub fn new(depth: usize) -> Self {
        VcState {
            head: NIL,
            tail: NIL,
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

    /// Appends `flit` in a free slot of `pool` (the BW stage), growing the
    /// pool by one slot when none is free.
    ///
    /// # Panics
    ///
    /// Panics if the VC is full — upstream credit accounting must make
    /// this impossible.
    #[inline]
    pub fn push(&mut self, pool: &mut FlitPool, flit: Flit) {
        assert!(
            self.len < self.depth,
            "VC overflow: credit accounting violated"
        );
        if pool.free == NIL {
            pool.free = pool.flits.len() as u16;
            pool.flits.push(flit);
            pool.next.push(NIL);
        }
        let at = pool.free;
        pool.free = pool.next[at as usize];
        pool.flits[at as usize] = flit;
        pool.next[at as usize] = NIL;
        if self.len == 0 {
            self.head = at;
        } else {
            pool.next[self.tail as usize] = at;
        }
        self.tail = at;
        self.len += 1;
    }

    /// The flit at the front of a non-empty VC.
    #[inline]
    pub fn front<'a>(&self, pool: &'a FlitPool) -> &'a Flit {
        debug_assert!(self.len > 0, "front of an empty VC");
        &pool.flits[self.head as usize]
    }

    /// Removes and returns the front flit of a non-empty VC (on a
    /// switch-allocation grant), returning its slot to the free list.
    #[inline]
    pub fn pop(&mut self, pool: &mut FlitPool) -> Flit {
        let at = self.head as usize;
        let flit = *self.front(pool);
        self.head = pool.next[at];
        pool.next[at] = pool.free;
        pool.free = at as u16;
        self.len -= 1;
        flit
    }

    /// The buffered flits, front first.
    pub fn flits<'a>(&self, pool: &'a FlitPool) -> impl Iterator<Item = &'a Flit> {
        std::iter::successors(Some(self.head), |&at| Some(pool.next[at as usize]))
            .take(self.len())
            .map(|at| &pool.flits[at as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::NocConfig;

    impl VcLayout {
        /// The vnet VC `idx` belongs to.
        pub(crate) fn vnet(self, idx: usize) -> VnetId {
            VnetId((idx / self.per_vnet()) as u8)
        }

        /// The message class VC `idx` serves.
        pub(crate) fn class(self, idx: usize) -> MsgClass {
            let within = idx % self.per_vnet();
            if within < self.data_per_vnet as usize {
                MsgClass::Data
            } else {
                MsgClass::Control
            }
        }
    }

    impl FlitPool {
        /// Slots grown so far (live or free).
        pub(crate) fn slots(&self) -> usize {
            self.flits.len()
        }
    }

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
        use crate::flit::FlitKind;
        use punchsim_types::{NodeId, PacketId};
        let kind = if seq == 0 {
            FlitKind::Head
        } else {
            FlitKind::Body
        };
        Flit::new(PacketId(1), kind, VnetId(0), MsgClass::Data, NodeId(5), seq)
    }

    #[test]
    fn vc_fifo_order() {
        // Two 3-deep VCs interleaved through one pool: each keeps its own
        // order, and popped slots are reused before the pool grows.
        let mut pool = FlitPool::new();
        let mut vcs = [VcState::new(3), VcState::new(3)];
        for seq in 0..3 {
            vcs[seq as usize % 2].push(&mut pool, flit(seq));
        }
        vcs[1].push(&mut pool, flit(10));
        pool.check(&vcs);
        assert_eq!((vcs[0].len(), vcs[1].len(), pool.slots()), (2, 2, 4));
        assert_eq!(vcs[0].pop(&mut pool).seq, 0);
        assert_eq!(vcs[1].pop(&mut pool).seq, 1);
        assert_eq!(vcs[0].front(&pool).seq, 2);
        vcs[0].push(&mut pool, flit(3));
        vcs[0].push(&mut pool, flit(4));
        pool.check(&vcs);
        assert_eq!(pool.slots(), 4, "popped slots are reused");
        let order: Vec<u16> = vcs[0].flits(&pool).map(|f| f.seq).collect();
        assert_eq!(order, vec![2, 3, 4]);
        assert_eq!(
            (vcs[0].pop(&mut pool).seq, vcs[0].pop(&mut pool).seq),
            (2, 3)
        );
        assert_eq!(vcs[0].front(&pool).seq, 4);
        assert_eq!(vcs[1].front(&pool).seq, 10);
        pool.check(&vcs);
    }

    #[test]
    #[should_panic(expected = "VC overflow")]
    fn vc_overflow_panics() {
        let mut pool = FlitPool::new();
        let mut vc = VcState::new(1);
        vc.push(&mut pool, flit(0));
        vc.push(&mut pool, flit(0));
    }
}
