//! The private L1 cache controller of one tile.
//!
//! In-order cores block on L1 misses, so each L1 has at most one
//! outstanding demand miss, plus a small writeback buffer whose entries
//! live until the home acknowledges the eviction — the buffer is what
//! resolves the classic writeback/forward races.

use punchsim_types::NodeId;

use crate::cache::SetAssoc;
use crate::protocol::{BlockAddr, Op, ProtoMsg};

/// MESI state of a resident L1 line (`I` = not resident).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1State {
    /// Shared, clean, read-only.
    S,
    /// Exclusive, clean, writable-by-upgrade-in-place.
    E,
    /// Modified, dirty.
    M,
}

/// The single outstanding demand miss of the in-order core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingMiss {
    /// Block being fetched.
    pub addr: BlockAddr,
    /// Whether the access was a store.
    pub is_write: bool,
    /// An `Inv` overtook the (shared) data grant: consume the data to
    /// satisfy the load but do not install the line (the gem5 `IS_I`
    /// treatment of the Inv-vs-Data race).
    pub invalidated: bool,
}

/// Counters for L1 behaviour (model validation and load calibration).
#[derive(Debug, Clone, Copy, Default)]
pub struct L1Stats {
    /// Load references.
    pub loads: u64,
    /// Store references.
    pub stores: u64,
    /// Demand misses sent to the home (includes S->M upgrades).
    pub misses: u64,
    /// Dirty writebacks issued.
    pub writebacks: u64,
    /// Invalidations received.
    pub invalidations: u64,
    /// Forwards served from the writeback buffer (race resolution).
    pub wb_forwards: u64,
}

/// Outcome of a core reference at the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Served locally in one cycle.
    Hit,
    /// A coherence transaction was issued; the core must block.
    Miss,
}

/// One tile's private L1 cache + coherence controller.
#[derive(Debug, Clone)]
pub struct L1 {
    node: NodeId,
    cache: SetAssoc<L1State>,
    pending: Option<PendingMiss>,
    /// Blocks evicted from E/M whose `PutE`/`PutM` has not been
    /// acknowledged yet.
    wb: Vec<BlockAddr>,
    /// Forwards that arrived before our own exclusive grant for the same
    /// block (a 1-flit forward can outrun the multi-flit grant); they are
    /// served right after the grant installs.
    deferred_fwd: Vec<(NodeId, ProtoMsg)>,
    /// Behaviour counters.
    pub stats: L1Stats,
}

/// Messages an L1 emits this cycle: `(destination, message)`.
pub type Out = Vec<(NodeId, ProtoMsg)>;

impl L1 {
    /// Creates an L1 with `blocks` capacity and `ways` associativity.
    pub fn new(node: NodeId, blocks: usize, ways: usize) -> Self {
        L1 {
            node,
            cache: SetAssoc::with_capacity_blocks(blocks, ways),
            pending: None,
            wb: Vec::new(),
            deferred_fwd: Vec::new(),
            stats: L1Stats::default(),
        }
    }

    /// Issues a core reference. `home` is the block's home bank.
    ///
    /// # Panics
    ///
    /// Panics if a miss is issued while another is outstanding (the
    /// in-order core must block).
    pub fn access(
        &mut self,
        addr: BlockAddr,
        is_write: bool,
        home: NodeId,
        out: &mut Out,
    ) -> Access {
        if is_write {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        match self.cache.get(addr).copied() {
            Some(L1State::M) => Access::Hit,
            Some(L1State::E) => {
                if is_write {
                    *self.cache.peek_mut(addr).expect("resident") = L1State::M;
                }
                Access::Hit
            }
            Some(L1State::S) if !is_write => Access::Hit,
            Some(L1State::S) => {
                // Upgrade: request ownership; the S copy may be invalidated
                // under us while we wait, which is fine — DataExcl re-fills.
                self.start_miss(addr, true, home, out);
                Access::Miss
            }
            None => {
                self.start_miss(addr, is_write, home, out);
                Access::Miss
            }
        }
    }

    fn start_miss(&mut self, addr: BlockAddr, is_write: bool, home: NodeId, out: &mut Out) {
        assert!(self.pending.is_none(), "in-order core: one miss at a time");
        self.pending = Some(PendingMiss {
            addr,
            is_write,
            invalidated: false,
        });
        self.stats.misses += 1;
        let op = if is_write { Op::GetM } else { Op::GetS };
        out.push((home, ProtoMsg::new(op, addr)));
    }

    /// Handles a protocol message delivered to this tile. Returns `true`
    /// when the pending miss completed and the core may resume.
    ///
    /// `home_of` maps a block to its home bank (needed for evictions
    /// triggered by fills).
    pub fn handle(
        &mut self,
        src: NodeId,
        msg: ProtoMsg,
        home_of: impl Fn(BlockAddr) -> NodeId,
        out: &mut Out,
    ) -> bool {
        match msg.op {
            Op::Data | Op::DataExcl => {
                let p = self
                    .pending
                    .take()
                    .expect("data grant without a pending miss");
                debug_assert_eq!(p.addr, msg.addr, "grant for the wrong block");
                // A shared grant overtaken by an Inv satisfies the load but
                // is not installed; exclusive grants are always fresh (the
                // home serialized any Inv before granting ownership).
                if msg.op == Op::Data && p.invalidated {
                    return true;
                }
                let state = match (msg.op, p.is_write) {
                    (Op::Data, _) => L1State::S,
                    (Op::DataExcl, true) => L1State::M,
                    (Op::DataExcl, false) => L1State::E,
                    _ => unreachable!(),
                };
                if let Some(victim) = self.cache.insert(msg.addr, state) {
                    let home = home_of(victim.addr);
                    match victim.state {
                        L1State::M => {
                            self.stats.writebacks += 1;
                            self.wb.push(victim.addr);
                            out.push((home, ProtoMsg::new(Op::PutM, victim.addr)));
                        }
                        L1State::E => {
                            self.wb.push(victim.addr);
                            out.push((home, ProtoMsg::new(Op::PutE, victim.addr)));
                        }
                        L1State::S => {} // silent S eviction
                    }
                }
                // Serve any forward that outran this grant, now that the
                // line is resident (the home's order: grant, then forward).
                if let Some(pos) = self
                    .deferred_fwd
                    .iter()
                    .position(|(_, m)| m.addr == msg.addr)
                {
                    let (fsrc, fmsg) = self.deferred_fwd.remove(pos);
                    self.handle(fsrc, fmsg, home_of, out);
                }
                true
            }
            Op::Inv => {
                // Invalidate whatever we have (possibly nothing — sharer
                // lists can be stale after silent S evictions) and ack the
                // home, which collects acks for the writer.
                self.stats.invalidations += 1;
                let had_line = self.cache.remove(msg.addr).is_some();
                if !had_line {
                    if let Some(p) = self.pending.as_mut() {
                        if p.addr == msg.addr {
                            // The Inv may have overtaken our shared grant.
                            p.invalidated = true;
                        }
                    }
                }
                out.push((src, ProtoMsg::new(Op::InvAck, msg.addr)));
                false
            }
            Op::FwdGetS => {
                if let Some(st @ (L1State::M | L1State::E)) = self.cache.peek_mut(msg.addr) {
                    *st = L1State::S;
                    out.push((src, ProtoMsg::new(Op::OwnerData, msg.addr)));
                } else if self.wb.contains(&msg.addr) {
                    // Our own eviction races this forward (possibly our own
                    // re-request): the WB buffer must answer, or the home
                    // would wait on us forever.
                    self.forward_from_wb(src, msg.addr, out);
                } else if self.awaiting_grant(msg.addr) {
                    self.deferred_fwd.push((src, msg));
                } else {
                    self.forward_from_wb(src, msg.addr, out);
                }
                false
            }
            Op::FwdGetM => {
                if matches!(
                    self.cache.peek_mut(msg.addr).copied(),
                    Some(L1State::M | L1State::E)
                ) {
                    self.cache.remove(msg.addr);
                    out.push((src, ProtoMsg::new(Op::OwnerData, msg.addr)));
                } else if self.wb.contains(&msg.addr) {
                    self.forward_from_wb(src, msg.addr, out);
                } else if self.awaiting_grant(msg.addr) {
                    self.deferred_fwd.push((src, msg));
                } else {
                    self.forward_from_wb(src, msg.addr, out);
                }
                false
            }
            Op::WbAck => {
                if let Some(pos) = self.wb.iter().position(|&a| a == msg.addr) {
                    self.wb.remove(pos);
                }
                false
            }
            other => panic!("L1 at {} received unexpected {:?}", self.node, other),
        }
    }

    /// `true` when a forward for `addr` must wait for our own exclusive
    /// grant, which is still in flight (the home made us owner before
    /// forwarding, and the 1-flit forward can outrun the multi-flit grant).
    fn awaiting_grant(&self, addr: BlockAddr) -> bool {
        self.pending.is_some_and(|p| p.addr == addr)
    }

    /// A forward raced an eviction: serve it from the writeback buffer if
    /// the block is there, otherwise tell the home the data went by `PutM`.
    fn forward_from_wb(&mut self, home: NodeId, addr: BlockAddr, out: &mut Out) {
        if self.wb.contains(&addr) {
            self.stats.wb_forwards += 1;
            out.push((home, ProtoMsg::new(Op::OwnerData, addr)));
        } else {
            out.push((home, ProtoMsg::new(Op::FwdNack, addr)));
        }
    }

    /// All resident lines as `(block, state)` pairs (test hook).
    pub fn resident(&self) -> Vec<(BlockAddr, L1State)> {
        self.cache.iter().map(|l| (l.addr, l.state)).collect()
    }

    /// `true` if the L1 holds `addr` in any state (test hook).
    pub fn holds(&self, addr: BlockAddr) -> bool {
        self.cache.contains(addr)
    }

    /// Resident state of `addr`, if any (test hook).
    pub fn state_of(&mut self, addr: BlockAddr) -> Option<L1State> {
        self.cache.peek_mut(addr).map(|s| *s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOME: NodeId = NodeId(9);

    fn l1() -> L1 {
        L1::new(NodeId(1), 8, 2)
    }

    fn home_of(_: BlockAddr) -> NodeId {
        HOME
    }

    #[test]
    fn read_miss_fetch_then_hit() {
        let mut c = l1();
        let mut out = Out::new();
        assert_eq!(c.access(0x40, false, HOME, &mut out), Access::Miss);
        assert_eq!(out, vec![(HOME, ProtoMsg::new(Op::GetS, 0x40))]);
        out.clear();
        let resumed = c.handle(HOME, ProtoMsg::new(Op::DataExcl, 0x40), home_of, &mut out);
        assert!(resumed);
        assert_eq!(c.state_of(0x40), Some(L1State::E));
        assert_eq!(c.access(0x40, false, HOME, &mut out), Access::Hit);
        // Silent E->M upgrade on a store hit.
        assert_eq!(c.access(0x40, true, HOME, &mut out), Access::Hit);
        assert_eq!(c.state_of(0x40), Some(L1State::M));
    }

    #[test]
    fn shared_write_upgrades_via_getm() {
        let mut c = l1();
        let mut out = Out::new();
        c.access(0x40, false, HOME, &mut out);
        out.clear();
        c.handle(HOME, ProtoMsg::new(Op::Data, 0x40), home_of, &mut out);
        assert_eq!(c.state_of(0x40), Some(L1State::S));
        assert_eq!(c.access(0x40, true, HOME, &mut out), Access::Miss);
        assert_eq!(out, vec![(HOME, ProtoMsg::new(Op::GetM, 0x40))]);
        out.clear();
        c.handle(HOME, ProtoMsg::new(Op::DataExcl, 0x40), home_of, &mut out);
        assert_eq!(c.state_of(0x40), Some(L1State::M));
    }

    #[test]
    fn inv_during_upgrade_still_completes() {
        let mut c = l1();
        let mut out = Out::new();
        c.access(0x40, false, HOME, &mut out);
        c.handle(
            HOME,
            ProtoMsg::new(Op::Data, 0x40),
            home_of,
            &mut Out::new(),
        );
        c.access(0x40, true, HOME, &mut Out::new());
        // Another core won the race: we get invalidated while upgrading.
        out.clear();
        let resumed = c.handle(HOME, ProtoMsg::new(Op::Inv, 0x40), home_of, &mut out);
        assert!(!resumed);
        assert_eq!(out, vec![(HOME, ProtoMsg::new(Op::InvAck, 0x40))]);
        assert!(!c.holds(0x40));
        // The DataExcl still arrives and refills in M.
        let resumed = c.handle(
            HOME,
            ProtoMsg::new(Op::DataExcl, 0x40),
            home_of,
            &mut Out::new(),
        );
        assert!(resumed);
        assert_eq!(c.state_of(0x40), Some(L1State::M));
    }

    #[test]
    fn dirty_eviction_issues_putm_and_buffers() {
        let mut c = L1::new(NodeId(1), 2, 2); // 1 set x 2 ways
        let mut out = Out::new();
        for (i, addr) in [0x40u64, 0x80].iter().enumerate() {
            c.access(*addr, true, HOME, &mut out);
            c.handle(
                HOME,
                ProtoMsg::new(Op::DataExcl, *addr),
                home_of,
                &mut Out::new(),
            );
            let _ = i;
        }
        out.clear();
        // Third block evicts LRU (0x40, Modified).
        c.access(0xC0, false, HOME, &mut out);
        c.handle(HOME, ProtoMsg::new(Op::Data, 0xC0), home_of, &mut out);
        assert!(out.contains(&(HOME, ProtoMsg::new(Op::PutM, 0x40))));
        // The block sits in the WB buffer: a racing forward is served.
        out.clear();
        c.handle(HOME, ProtoMsg::new(Op::FwdGetM, 0x40), home_of, &mut out);
        assert_eq!(out, vec![(HOME, ProtoMsg::new(Op::OwnerData, 0x40))]);
        assert_eq!(c.stats.wb_forwards, 1);
        // WbAck clears the buffer; a later forward is nacked.
        c.handle(
            HOME,
            ProtoMsg::new(Op::WbAck, 0x40),
            home_of,
            &mut Out::new(),
        );
        out.clear();
        c.handle(HOME, ProtoMsg::new(Op::FwdGetS, 0x40), home_of, &mut out);
        assert_eq!(out, vec![(HOME, ProtoMsg::new(Op::FwdNack, 0x40))]);
    }

    #[test]
    fn fwd_gets_downgrades_owner() {
        let mut c = l1();
        c.access(0x40, true, HOME, &mut Out::new());
        c.handle(
            HOME,
            ProtoMsg::new(Op::DataExcl, 0x40),
            home_of,
            &mut Out::new(),
        );
        let mut out = Out::new();
        c.handle(HOME, ProtoMsg::new(Op::FwdGetS, 0x40), home_of, &mut out);
        assert_eq!(out, vec![(HOME, ProtoMsg::new(Op::OwnerData, 0x40))]);
        assert_eq!(c.state_of(0x40), Some(L1State::S));
        // FwdGetM removes the line entirely.
        out.clear();
        c.access(0x40, true, HOME, &mut out); // re-upgrade pending
        out.clear();
        c.handle(HOME, ProtoMsg::new(Op::Inv, 0x40), home_of, &mut out);
        assert!(!c.holds(0x40));
    }

    #[test]
    fn forward_that_outran_the_grant_is_deferred_until_install() {
        // The home granted us exclusivity and immediately forwarded the
        // next requestor to us; the 1-flit forward arrives first.
        let mut c = l1();
        let mut out = Out::new();
        c.access(0x40, true, HOME, &mut out); // pending GetM
        out.clear();
        let resumed = c.handle(
            HOME,
            ProtoMsg::with_aux(Op::FwdGetM, 0x40, NodeId(2)),
            home_of,
            &mut out,
        );
        assert!(!resumed);
        assert!(out.is_empty(), "forward must wait for the grant: {out:?}");
        // The grant lands: install M, then serve the deferred forward
        // (losing the line again) in the same step.
        let resumed = c.handle(HOME, ProtoMsg::new(Op::DataExcl, 0x40), home_of, &mut out);
        assert!(resumed);
        assert_eq!(out, vec![(HOME, ProtoMsg::new(Op::OwnerData, 0x40))]);
        assert!(!c.holds(0x40), "FwdGetM surrendered the line");
    }

    #[test]
    fn deferred_fwd_gets_downgrades_after_install() {
        let mut c = l1();
        c.access(0x40, false, HOME, &mut Out::new()); // pending GetS
        let mut out = Out::new();
        c.handle(
            HOME,
            ProtoMsg::with_aux(Op::FwdGetS, 0x40, NodeId(2)),
            home_of,
            &mut out,
        );
        assert!(out.is_empty());
        c.handle(HOME, ProtoMsg::new(Op::DataExcl, 0x40), home_of, &mut out);
        assert_eq!(out, vec![(HOME, ProtoMsg::new(Op::OwnerData, 0x40))]);
        assert_eq!(
            c.state_of(0x40),
            Some(L1State::S),
            "downgraded by the forward"
        );
    }

    #[test]
    fn inv_that_outran_a_shared_grant_suppresses_install() {
        // We asked for a read copy; the home granted Data(S) and then a
        // writer invalidated all sharers. The Inv overtakes the grant.
        let mut c = l1();
        c.access(0x40, false, HOME, &mut Out::new()); // pending GetS
        let mut out = Out::new();
        let resumed = c.handle(HOME, ProtoMsg::new(Op::Inv, 0x40), home_of, &mut out);
        assert!(!resumed);
        assert_eq!(out, vec![(HOME, ProtoMsg::new(Op::InvAck, 0x40))]);
        // The stale Data arrives: the load completes, but the line is NOT
        // installed (it was already invalidated).
        let resumed = c.handle(
            HOME,
            ProtoMsg::new(Op::Data, 0x40),
            home_of,
            &mut Out::new(),
        );
        assert!(resumed, "the core's load still completes");
        assert!(!c.holds(0x40), "stale shared copy must not be kept");
    }

    #[test]
    fn exclusive_grant_after_stale_inv_still_installs() {
        // The Inv belonged to an *earlier* transaction (we were a stale
        // sharer); our own GetM was queued behind it, so its DataExcl is
        // fresh and must install.
        let mut c = l1();
        c.access(0x40, true, HOME, &mut Out::new()); // pending GetM
        c.handle(HOME, ProtoMsg::new(Op::Inv, 0x40), home_of, &mut Out::new());
        let resumed = c.handle(
            HOME,
            ProtoMsg::new(Op::DataExcl, 0x40),
            home_of,
            &mut Out::new(),
        );
        assert!(resumed);
        assert_eq!(c.state_of(0x40), Some(L1State::M));
    }

    #[test]
    fn inv_for_absent_block_still_acked() {
        let mut c = l1();
        let mut out = Out::new();
        c.handle(HOME, ProtoMsg::new(Op::Inv, 0x77), home_of, &mut out);
        assert_eq!(out, vec![(HOME, ProtoMsg::new(Op::InvAck, 0x77))]);
    }
}
