//! The network interface (NI): message segmentation, injection-side VC
//! allocation, and packet reassembly at ejection.
//!
//! The injection path models Figure 6 of the paper: a message entering the
//! NI spends `ni_latency` cycles in NI processing (encapsulation, VC
//! arbitration, availability check) before its head flit can enter the local
//! router — and the moment it *enters* the NI its destination is known,
//! which is the "slack 1" exploited by Power Punch.

use std::collections::VecDeque;

use punchsim_types::{Cycle, NodeId, PacketId, Port, VnetId};

use crate::flit::{Flit, FlitKind, Message, MsgClass};
use crate::vc::VcLayout;

/// A packet queued or in flight at the injection side of an NI.
#[derive(Debug, Clone)]
struct PendingPacket {
    id: PacketId,
    dst: NodeId,
    vnet: VnetId,
    class: MsgClass,
    len: u16,
    /// First cycle the head may inject (enqueue + NI latency).
    ready_at: Cycle,
    /// Emitted the one-shot `NiReadyToInject` edge event already.
    announced: bool,
    /// Local-router input VC allocated to this packet, once started.
    vc: Option<usize>,
    /// Next flit sequence number to send.
    next_seq: u16,
    /// Look-ahead output port at the local router.
    route_port: Port,
}

/// Per-node network interface.
#[derive(Debug, Clone)]
pub struct Ni {
    node: NodeId,
    layout: VcLayout,
    ni_latency: u8,
    /// Per-vnet injection queues (head-of-line per vnet, as in GARNET).
    queues: Vec<VecDeque<PendingPacket>>,
    /// Credits toward the local router's `Local` input port, per VC.
    credits: Vec<u32>,
    /// VCs of the local input port currently owned by an NI packet.
    vc_busy: Vec<bool>,
    /// Round-robin pointer over vnets for the shared NI-to-router channel.
    rr: usize,
    /// Packets currently being reassembled at the ejection side do not need
    /// per-flit storage: per-VC FIFO order guarantees the tail arrives last,
    /// so ejection completion is detected on tail flits alone.
    flits_ejected: u64,
}

impl Ni {
    /// Creates the NI for `node`.
    pub fn new(node: NodeId, layout: VcLayout, ni_latency: u8) -> Self {
        let total = layout.total();
        Ni {
            node,
            layout,
            ni_latency,
            queues: vec![VecDeque::new(); layout.vnet_count()],
            credits: (0..total).map(|i| layout.depth(i) as u32).collect(),
            vc_busy: vec![false; total],
            rr: 0,
            flits_ejected: 0,
        }
    }

    /// The node this NI is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Appends this NI's canonical snapshot encoding (see
    /// [`crate::snapshot`]): the per-vnet injection queues (with `ready_at`
    /// rebased against `now`), local-port credits, VC ownership and the
    /// vnet round-robin pointer. `flits_ejected` is a statistic (monotone)
    /// and excluded.
    pub fn encode_state(&self, now: Cycle, out: &mut Vec<u8>) {
        use crate::snapshot::{put_bool, put_u16, put_u64, put_u8};
        for queue in &self.queues {
            put_u8(out, queue.len() as u8);
            for p in queue {
                put_u64(out, p.id.0);
                put_u16(out, p.dst.0);
                put_u8(out, p.vnet.0);
                put_u8(out, p.class.index() as u8);
                put_u16(out, p.len);
                put_u64(out, p.ready_at.saturating_sub(now));
                put_bool(out, p.announced);
                match p.vc {
                    None => put_u8(out, 0xFF),
                    Some(vc) => put_u8(out, vc as u8),
                }
                put_u16(out, p.next_seq);
                put_u8(out, p.route_port.index() as u8);
            }
        }
        for &c in &self.credits {
            put_u8(out, c as u8);
        }
        for &b in &self.vc_busy {
            put_bool(out, b);
        }
        put_u8(out, self.rr as u8);
    }

    /// Queues a message for injection at `cycle`; returns the cycle at which
    /// it will first be able to inject (end of the NI pipeline).
    ///
    /// # Panics
    ///
    /// Panics if the message's vnet is out of range.
    pub fn enqueue(&mut self, id: PacketId, msg: &Message, len: u16, cycle: Cycle) -> Cycle {
        let ready_at = cycle + self.ni_latency as Cycle;
        let route_port = Port::Local; // placeholder; set below by caller info
        self.queues[msg.vnet.index()].push_back(PendingPacket {
            id,
            dst: msg.dst,
            vnet: msg.vnet,
            class: msg.class,
            len,
            ready_at,
            announced: false,
            vc: None,
            next_seq: 0,
            route_port,
        });
        ready_at
    }

    /// Sets the look-ahead route (output port at the local router) for the
    /// most recently enqueued packet on `vnet`. Called by the network right
    /// after [`Ni::enqueue`], which keeps this type topology-agnostic.
    pub fn set_route_of_last(&mut self, vnet: VnetId, route_port: Port) {
        let p = self.queues[vnet.index()]
            .back_mut()
            .expect("set_route_of_last follows enqueue");
        p.route_port = route_port;
    }

    /// Returns a credit for local-input VC `vc`.
    pub fn credit(&mut self, vc: usize) {
        self.credits[vc] += 1;
        debug_assert!(self.credits[vc] <= self.layout.depth(vc) as u32);
    }

    /// Number of messages waiting or in flight on the injection side.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// `true` while a packet has injected its head but not yet its tail —
    /// the local router must not power off in that window. O(vnets): only
    /// a queue's front packet is ever given a VC, and sending its tail pops
    /// it.
    pub fn mid_packet(&self) -> bool {
        let mid = self
            .queues
            .iter()
            .any(|q| q.front().is_some_and(|p| p.vc.is_some()));
        debug_assert_eq!(
            mid,
            self.queues.iter().flatten().any(|p| p.vc.is_some()),
            "a packet behind its queue's front owns a VC"
        );
        mid
    }

    /// Flits delivered to this NI so far (ejection-side activity counter).
    pub fn flits_ejected(&self) -> u64 {
        self.flits_ejected
    }

    /// Records the arrival of an ejected flit; returns the packet id when
    /// `flit` completes its packet (tail arrival).
    pub fn eject(&mut self, flit: &Flit) -> Option<PacketId> {
        self.flits_ejected += 1;
        flit.kind().is_tail().then_some(flit.packet)
    }

    /// Runs one injection cycle and returns the flit sent toward the local
    /// router, if any: at most one (the NI-to-router channel is as wide as
    /// a link). `router_on` is the PG handshake state of the local router.
    ///
    /// Appended to the caller's (flat, reused) vectors: to `newly_ready`
    /// every packet that became ready to inject this cycle, with its
    /// destination (one-shot edge, used by `PowerPunch-Signal` to launch
    /// punches and by Fig. 9 to count a powered-off local router); to
    /// `blocked_on_local` every packet whose head is ready but stalled
    /// because the local router is not fully on (re-reported every stalled
    /// cycle).
    pub fn tick_inject(
        &mut self,
        cycle: Cycle,
        router_on: bool,
        newly_ready: &mut Vec<(PacketId, NodeId)>,
        blocked_on_local: &mut Vec<PacketId>,
    ) -> Option<Flit> {
        let nv = self.queues.len();
        // Edge events + blocked reporting for every head-of-queue packet.
        for q in &mut self.queues {
            let Some(p) = q.front_mut() else { continue };
            if p.ready_at > cycle {
                continue;
            }
            if !p.announced {
                p.announced = true;
                newly_ready.push((p.id, p.dst));
            }
            if p.vc.is_none() && !router_on {
                blocked_on_local.push(p.id);
            }
        }
        // Pick one vnet to send a flit from, round-robin, preferring
        // in-flight packets (they own a VC) and then new heads.
        for pass in 0..2 {
            for off in 0..nv {
                let v = (self.rr + off) % nv;
                let Some(p) = self.queues[v].front_mut() else {
                    continue;
                };
                if p.ready_at > cycle {
                    continue;
                }
                let started = p.vc.is_some();
                if pass == 0 && !started {
                    continue; // pass 0: continue in-flight packets only
                }
                if pass == 1 && started {
                    continue;
                }
                if !router_on {
                    continue; // PG handshake: cannot send into an off router
                }
                // Allocate a VC for a new head.
                if p.vc.is_none() {
                    let mut cand = self.layout.candidates(p.vnet, p.class);
                    let free = cand.find(|&c| !self.vc_busy[c] && self.credits[c] > 0);
                    let Some(vc) = free else { continue };
                    self.vc_busy[vc] = true;
                    p.vc = Some(vc);
                }
                let vc = p.vc.expect("allocated above");
                if self.credits[vc] == 0 {
                    continue; // wait for buffer space
                }
                // Send one flit.
                self.credits[vc] -= 1;
                let kind = match (p.next_seq, p.len) {
                    (0, 1) => FlitKind::HeadTail,
                    (0, _) => FlitKind::Head,
                    (s, l) if s + 1 == l => FlitKind::Tail,
                    _ => FlitKind::Body,
                };
                let mut flit = Flit::new(p.id, kind, p.vnet, p.class, p.dst, p.next_seq);
                flit.route_port = p.route_port;
                flit.vc = vc as u8;
                p.next_seq += 1;
                if kind.is_tail() {
                    self.vc_busy[vc] = false;
                    self.queues[v].pop_front();
                }
                self.rr = (v + 1) % nv;
                return Some(flit);
            }
        }
        None
    }
}

impl VcLayout {
    /// Number of virtual networks in the layout.
    pub fn vnet_count(self) -> usize {
        self.total() / self.per_vnet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::{Direction, NocConfig};

    fn mk_ni() -> Ni {
        let cfg = NocConfig::default();
        Ni::new(NodeId(0), VcLayout::new(&cfg), cfg.ni_latency)
    }

    /// One injection cycle with throwaway report vectors.
    fn inject(ni: &mut Ni, cycle: Cycle, router_on: bool) -> Option<Flit> {
        ni.tick_inject(cycle, router_on, &mut Vec::new(), &mut Vec::new())
    }

    fn msg(dst: u16, vnet: u8, class: MsgClass) -> Message {
        Message {
            src: NodeId(0),
            dst: NodeId(dst),
            vnet: VnetId(vnet),
            class,
            payload: 0,
            gen_cycle: 0,
        }
    }

    #[test]
    fn ni_latency_gates_injection() {
        let mut ni = mk_ni();
        let m = msg(5, 0, MsgClass::Control);
        let ready = ni.enqueue(PacketId(1), &m, 1, 10);
        ni.set_route_of_last(VnetId(0), Port::Link(Direction::East));
        assert_eq!(ready, 13);
        for c in 10..13 {
            assert!(inject(&mut ni, c, true).is_none());
        }
        let f = inject(&mut ni, 13, true).expect("head injects when ready");
        assert_eq!(f.kind(), FlitKind::HeadTail);
        assert_eq!(f.route_port, Port::Link(Direction::East));
        assert_eq!(f.packet, PacketId(1));
        assert_eq!(ni.pending(), 0);
    }

    #[test]
    fn blocked_when_router_off() {
        let mut ni = mk_ni();
        let m = msg(5, 0, MsgClass::Control);
        ni.enqueue(PacketId(1), &m, 1, 0);
        ni.set_route_of_last(VnetId(0), Port::Link(Direction::East));
        let (mut ready, mut blocked) = (Vec::new(), Vec::new());
        let o = ni.tick_inject(3, false, &mut ready, &mut blocked);
        assert!(o.is_none());
        assert_eq!(blocked, vec![PacketId(1)]);
        assert_eq!(ready, vec![(PacketId(1), NodeId(5))]);
        // The edge event fires only once; the stall is re-reported, after
        // whatever the caller's vectors already hold.
        let o = ni.tick_inject(4, false, &mut ready, &mut blocked);
        assert!(o.is_none());
        assert_eq!(ready.len(), 1);
        assert_eq!(blocked, vec![PacketId(1), PacketId(1)]);
        // Router wakes: injection proceeds.
        let o = ni.tick_inject(5, true, &mut ready, &mut blocked);
        assert!(o.is_some());
        assert_eq!((ready.len(), blocked.len()), (1, 2));
    }

    #[test]
    fn multi_flit_streams_in_order_and_respects_credits() {
        let mut ni = mk_ni();
        let m = msg(5, 1, MsgClass::Data);
        ni.enqueue(PacketId(2), &m, 5, 0);
        ni.set_route_of_last(VnetId(1), Port::Link(Direction::East));
        let mut seqs = Vec::new();
        for c in 3..20 {
            if let Some(f) = inject(&mut ni, c, true) {
                seqs.push((f.seq, f.kind()));
                // don't return credits: only depth(=3) flits may flow
            }
        }
        assert_eq!(seqs.len(), 3);
        assert_eq!(seqs[0].0, 0);
        assert_eq!(seqs[0].1, FlitKind::Head);
        // Return credits; the remaining two flits flow.
        ni.credit(seqs[0].0 as usize + 3); // vc index of vnet1 data vc0 = 3
        ni.credit(3);
        let mut more = Vec::new();
        for c in 20..30 {
            if let Some(f) = inject(&mut ni, c, true) {
                more.push(f.kind());
            }
        }
        assert_eq!(more, vec![FlitKind::Body, FlitKind::Tail]);
        assert_eq!(ni.pending(), 0);
        assert!(!ni.mid_packet());
    }

    #[test]
    fn vnets_share_channel_round_robin() {
        let mut ni = mk_ni();
        ni.enqueue(PacketId(1), &msg(5, 0, MsgClass::Control), 1, 0);
        ni.set_route_of_last(VnetId(0), Port::Link(Direction::East));
        ni.enqueue(PacketId(2), &msg(6, 2, MsgClass::Control), 1, 0);
        ni.set_route_of_last(VnetId(2), Port::Link(Direction::East));
        let a = inject(&mut ni, 3, true).expect("one flit");
        let b = inject(&mut ni, 4, true).expect("other flit");
        assert_ne!(a.packet, b.packet);
    }

    #[test]
    fn eject_completes_on_tail() {
        let mut ni = mk_ni();
        let mk =
            |kind, seq| Flit::new(PacketId(9), kind, VnetId(0), MsgClass::Data, NodeId(0), seq);
        assert_eq!(ni.eject(&mk(FlitKind::Head, 0)), None);
        assert_eq!(ni.eject(&mk(FlitKind::Body, 1)), None);
        assert_eq!(ni.eject(&mk(FlitKind::Tail, 2)), Some(PacketId(9)));
        assert_eq!(ni.flits_ejected(), 3);
    }

    #[test]
    fn mid_packet_blocks_router_sleep_window() {
        let mut ni = mk_ni();
        ni.enqueue(PacketId(3), &msg(5, 0, MsgClass::Data), 5, 0);
        ni.set_route_of_last(VnetId(0), Port::Link(Direction::East));
        assert!(!ni.mid_packet());
        inject(&mut ni, 3, true); // head sent
        assert!(ni.mid_packet());
        for c in 4..8 {
            // The router drains each flit promptly, returning the credit.
            ni.credit(0);
            inject(&mut ni, c, true);
        }
        assert!(!ni.mid_packet()); // tail sent
    }
}
