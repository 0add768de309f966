//! The shared L2 bank + blocking full-map directory of one tile.
//!
//! The directory serializes transactions per block: while one is in flight
//! the block is *busy* and later requests queue behind it. Requests finish
//! by data grant; the serialization plus the L1 writeback buffer resolve
//! every forward/writeback race (see `tile.rs`).
//!
//! The home-side state is kept in three maps, each holding only what is
//! live: the stable [`DirState`] of blocks some L1 holds (an `Uncached`
//! block has no entry), the in-flight transaction of busy blocks, and the
//! requests queued behind them.

use std::collections::{HashMap, VecDeque};

use punchsim_types::NodeId;

use crate::cache::{Residency, SetAssoc};
use crate::protocol::{BlockAddr, Op, ProtoMsg};

/// Stable directory state of a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// No L1 holds the block.
    Uncached,
    /// Read-only copies at the listed L1s (possibly stale after silent S
    /// evictions — those sharers simply ack their invalidations). The order
    /// is the order of arrival, and it is the order a writer's `Inv`s go
    /// out in.
    Shared(Vec<NodeId>),
    /// One L1 holds the block in E or M.
    Owned(NodeId),
}

/// What the in-flight transaction is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiting {
    /// A memory fetch.
    Mem,
    /// Data from the current owner (a forward is outstanding).
    OwnerData,
    /// The remaining invalidation acks.
    InvAcks(u32),
}

/// An in-flight transaction.
#[derive(Debug, Clone, Copy)]
struct Txn {
    req: NodeId,
    is_write: bool,
    waiting: Waiting,
}

/// Messages a directory emits this cycle: `(destination, message)`.
pub type Out = Vec<(NodeId, ProtoMsg)>;

/// One tile's L2 bank and directory slice.
#[derive(Debug, Clone)]
pub struct DirBank {
    node: NodeId,
    /// L2 data array: `true` = dirty with respect to memory.
    l2: SetAssoc<bool>,
    /// Stable state of every block not `Uncached`.
    states: HashMap<BlockAddr, DirState>,
    /// The in-flight transaction of every busy block.
    txns: HashMap<BlockAddr, Txn>,
    /// Requests waiting for a busy block, in arrival order (no empty queue).
    queues: HashMap<BlockAddr, VecDeque<(NodeId, ProtoMsg)>>,
    /// Memory-controller choice per block, fixed at construction.
    mem_ctrls: Vec<NodeId>,
}

impl DirBank {
    /// Creates the bank at `node` with `blocks`-block L2 capacity and the
    /// given memory controllers.
    pub fn new(node: NodeId, blocks: usize, ways: usize, mem_ctrls: Vec<NodeId>) -> Self {
        assert!(!mem_ctrls.is_empty(), "need at least one memory controller");
        DirBank {
            node,
            l2: SetAssoc::with_capacity_blocks(blocks, ways),
            states: HashMap::new(),
            txns: HashMap::new(),
            queues: HashMap::new(),
            mem_ctrls,
        }
    }

    /// The memory controller responsible for `addr`.
    fn mem_for(&self, addr: BlockAddr) -> NodeId {
        let h = (addr ^ (addr >> 13)) as usize;
        self.mem_ctrls[h % self.mem_ctrls.len()]
    }

    /// Directory state of a block (test hook).
    pub fn dir_state(&self, addr: BlockAddr) -> DirState {
        self.states
            .get(&addr)
            .cloned()
            .unwrap_or(DirState::Uncached)
    }

    /// `true` if a transaction is in flight for `addr` (test hook).
    pub fn is_busy(&self, addr: BlockAddr) -> bool {
        self.txns.contains_key(&addr)
    }

    /// Lines resident in this bank's L2 data array, against its capacity.
    pub(crate) fn l2_residency(&self) -> Residency {
        self.l2.residency()
    }

    /// The owning L1 of `addr`, if one holds it in E or M.
    fn owner(&self, addr: BlockAddr) -> Option<NodeId> {
        match self.states.get(&addr) {
            Some(&DirState::Owned(o)) => Some(o),
            _ => None,
        }
    }

    /// Handles a protocol message delivered to this bank.
    pub fn handle(&mut self, src: NodeId, msg: ProtoMsg, out: &mut Out) {
        match msg.op {
            Op::GetS | Op::GetM => {
                if self.is_busy(msg.addr) {
                    self.queues
                        .entry(msg.addr)
                        .or_default()
                        .push_back((src, msg));
                } else {
                    self.start(src, msg, out);
                }
            }
            Op::PutM | Op::PutE => self.handle_put(src, msg, out),
            Op::OwnerData => self.handle_owner_data(src, msg.addr, false, out),
            Op::InvAck => self.handle_inv_ack(msg.addr, out),
            Op::MemData => self.handle_mem_data(msg.addr, out),
            Op::FwdNack => {
                // A forward that raced a writeback and lost: its
                // transaction was already completed by the owner's PutM.
                // The block may even be busy again with a *newer*
                // transaction (a long-delayed forward can arrive after the
                // WbAck that emptied the old owner's buffer) — that newer
                // transaction's own forward targets the current owner and
                // will be answered, so the stale nack is always dropped.
            }
            other => panic!("directory at {} received unexpected {:?}", self.node, other),
        }
        self.drain_queue(msg.addr, out);
    }

    /// Starts a (GetS|GetM) transaction; the block must not be busy.
    fn start(&mut self, req: NodeId, msg: ProtoMsg, out: &mut Out) {
        let is_write = msg.op == Op::GetM;
        let addr = msg.addr;
        match self.states.get(&addr) {
            None | Some(DirState::Uncached) => {
                self.grant_or_fetch(addr, req, is_write, out);
            }
            Some(DirState::Shared(_)) if !is_write => {
                // Another shared copy.
                if self.l2.get(addr).is_some() {
                    out.push((req, ProtoMsg::new(Op::Data, addr)));
                    self.add_sharer(addr, req);
                } else {
                    // L2 evicted the (clean) data: refetch.
                    self.fetch(addr, req, is_write, out);
                }
            }
            Some(DirState::Shared(sharers)) => {
                // Invalidate every other sharer, in list order.
                let sent = out.len();
                for &s in sharers.iter().filter(|&&s| s != req) {
                    out.push((s, ProtoMsg::with_aux(Op::Inv, addr, req)));
                }
                let invs = out.len() - sent;
                if invs == 0 {
                    self.grant_or_fetch(addr, req, is_write, out);
                } else {
                    self.set_busy(
                        addr,
                        Txn {
                            req,
                            is_write,
                            waiting: Waiting::InvAcks(invs as u32),
                        },
                    );
                }
            }
            Some(&DirState::Owned(owner)) if owner == req => {
                // The owner re-requests its own block: that can only mean
                // its eviction (PutM/PutE) is in flight toward us. Do NOT
                // forward — a forward could cross the re-grant and trick
                // the owner into surrendering the fresh copy. Just wait:
                // the racing writeback completes this transaction.
                self.set_busy(
                    addr,
                    Txn {
                        req,
                        is_write,
                        waiting: Waiting::OwnerData,
                    },
                );
            }
            Some(&DirState::Owned(owner)) => {
                // Fetch the latest copy from the owner.
                let fwd = if is_write { Op::FwdGetM } else { Op::FwdGetS };
                out.push((owner, ProtoMsg::with_aux(fwd, addr, req)));
                self.set_busy(
                    addr,
                    Txn {
                        req,
                        is_write,
                        waiting: Waiting::OwnerData,
                    },
                );
            }
        }
    }

    /// Grants from the L2 if the data is resident, otherwise fetches from
    /// memory. Used when no other L1 holds a conflicting copy.
    fn grant_or_fetch(&mut self, addr: BlockAddr, req: NodeId, is_write: bool, out: &mut Out) {
        if self.l2.get(addr).is_some() {
            self.grant_exclusive(addr, req, out);
        } else {
            self.fetch(addr, req, is_write, out);
        }
    }

    fn fetch(&mut self, addr: BlockAddr, req: NodeId, is_write: bool, out: &mut Out) {
        out.push((self.mem_for(addr), ProtoMsg::new(Op::MemRead, addr)));
        self.set_busy(
            addr,
            Txn {
                req,
                is_write,
                waiting: Waiting::Mem,
            },
        );
    }

    /// Exclusive grant: E for loads with no sharers, M for stores (the L1
    /// decides which from its pending miss kind).
    fn grant_exclusive(&mut self, addr: BlockAddr, req: NodeId, out: &mut Out) {
        out.push((req, ProtoMsg::new(Op::DataExcl, addr)));
        self.set_state(addr, DirState::Owned(req));
        self.clear_busy(addr);
    }

    fn handle_mem_data(&mut self, addr: BlockAddr, out: &mut Out) {
        let Some(txn) = self.busy(addr) else {
            return; // stale (cannot normally happen)
        };
        debug_assert_eq!(txn.waiting, Waiting::Mem);
        self.install_l2(addr, false, out);
        // Complete according to the stable state we fetched under.
        if let Some(DirState::Shared(_)) = self.states.get(&addr) {
            // GetS under a Shared block whose L2 copy was evicted.
            out.push((txn.req, ProtoMsg::new(Op::Data, addr)));
            self.add_sharer(addr, txn.req);
            self.clear_busy(addr);
        } else {
            self.grant_exclusive(addr, txn.req, out);
        }
    }

    fn handle_inv_ack(&mut self, addr: BlockAddr, out: &mut Out) {
        let Some(mut txn) = self.busy(addr) else {
            return; // stale ack for a block we already unblocked
        };
        let Waiting::InvAcks(n) = txn.waiting else {
            return;
        };
        if n > 1 {
            txn.waiting = Waiting::InvAcks(n - 1);
            self.set_busy(addr, txn);
            return;
        }
        // All sharers gone: grant exclusivity.
        self.set_state(addr, DirState::Uncached);
        if self.l2.get(addr).is_some() {
            self.grant_exclusive(addr, txn.req, out);
        } else {
            out.push((self.mem_for(addr), ProtoMsg::new(Op::MemRead, addr)));
            txn.waiting = Waiting::Mem;
            self.set_busy(addr, txn);
        }
    }

    /// Owner data arrived — either an `OwnerData` response to a forward or
    /// a racing `PutM`/`PutE` from the current owner.
    fn handle_owner_data(&mut self, src: NodeId, addr: BlockAddr, clean: bool, out: &mut Out) {
        let Some(txn) = self.busy(addr) else {
            return; // transaction already completed via the racing PutM
        };
        if txn.waiting != Waiting::OwnerData {
            return;
        }
        // Only the *current* owner's data completes the transaction; a
        // heavily delayed OwnerData from a previous ownership era (its
        // transaction long completed by a racing PutM) must not — the live
        // forward is addressed to the current owner, who will answer.
        if self.owner(addr) != Some(src) {
            return;
        }
        if !clean {
            self.install_l2(addr, true, out);
        }
        if txn.is_write {
            out.push((txn.req, ProtoMsg::new(Op::DataExcl, addr)));
            self.set_state(addr, DirState::Owned(txn.req));
            self.clear_busy(addr);
        } else {
            // Old owner `src` downgraded to S (it keeps a copy only if it
            // served the forward from a live line; a stale sharer entry is
            // harmless).
            out.push((txn.req, ProtoMsg::new(Op::Data, addr)));
            let mut s = vec![txn.req];
            if src != txn.req {
                s.push(src);
            }
            self.set_state(addr, DirState::Shared(s));
            self.clear_busy(addr);
        }
    }

    fn handle_put(&mut self, src: NodeId, msg: ProtoMsg, out: &mut Out) {
        let addr = msg.addr;
        let dirty = msg.op == Op::PutM;
        let owner_matches = self.owner(addr) == Some(src);
        let busy = self.busy(addr);
        out.push((src, ProtoMsg::new(Op::WbAck, addr)));
        if !owner_matches {
            return; // stale writeback: ownership already moved on
        }
        match busy {
            Some(txn) if txn.waiting == Waiting::OwnerData => {
                // The put races a forward we sent to this owner: use it as
                // the owner data. A clean PutE means the home-side copy
                // (L2 or memory) is current.
                if dirty {
                    self.handle_owner_data(src, addr, false, out);
                } else {
                    // Complete from home-side data.
                    self.set_state(addr, DirState::Uncached);
                    if self.l2.get(addr).is_some() {
                        if txn.is_write {
                            self.grant_exclusive(addr, txn.req, out);
                        } else {
                            out.push((txn.req, ProtoMsg::new(Op::Data, addr)));
                            self.set_state(addr, DirState::Shared(vec![txn.req]));
                            self.clear_busy(addr);
                        }
                    } else {
                        out.push((self.mem_for(addr), ProtoMsg::new(Op::MemRead, addr)));
                        let mut t = txn;
                        t.waiting = Waiting::Mem;
                        self.set_busy(addr, t);
                    }
                }
            }
            Some(_) => {
                // Busy waiting on memory or acks: ownership cannot be with
                // `src` in those phases.
                debug_assert!(false, "put from owner while not forwarding");
            }
            None => {
                // Plain eviction.
                if dirty {
                    self.install_l2(addr, true, out);
                }
                self.set_state(addr, DirState::Uncached);
            }
        }
    }

    /// Inserts into the L2 data array; a dirty victim is written to memory.
    fn install_l2(&mut self, addr: BlockAddr, dirty: bool, out: &mut Out) {
        if let Some(victim) = self.l2.insert(addr, dirty) {
            if victim.state {
                out.push((
                    self.mem_for(victim.addr),
                    ProtoMsg::new(Op::MemWrite, victim.addr),
                ));
            }
        }
    }

    fn busy(&self, addr: BlockAddr) -> Option<Txn> {
        self.txns.get(&addr).copied()
    }

    fn set_busy(&mut self, addr: BlockAddr, txn: Txn) {
        self.txns.insert(addr, txn);
    }

    fn clear_busy(&mut self, addr: BlockAddr) {
        self.txns.remove(&addr);
    }

    /// Sets the stable state; `Uncached` drops the block's entry.
    fn set_state(&mut self, addr: BlockAddr, st: DirState) {
        if st == DirState::Uncached {
            self.states.remove(&addr);
        } else {
            self.states.insert(addr, st);
        }
    }

    /// Appends `req` to a `Shared` block's sharer list unless it is there.
    fn add_sharer(&mut self, addr: BlockAddr, req: NodeId) {
        if let Some(DirState::Shared(s)) = self.states.get_mut(&addr) {
            if !s.contains(&req) {
                s.push(req);
            }
        }
    }

    /// Processes queued requests while the block is free.
    fn drain_queue(&mut self, addr: BlockAddr, out: &mut Out) {
        while !self.is_busy(addr) {
            let Some(queue) = self.queues.get_mut(&addr) else {
                return;
            };
            let (src, msg) = queue.pop_front().expect("queues are never empty");
            if queue.is_empty() {
                self.queues.remove(&addr);
            }
            self.start(src, msg, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEM: NodeId = NodeId(0);
    const A: BlockAddr = 0x40;

    fn bank() -> DirBank {
        DirBank::new(NodeId(9), 64, 4, vec![MEM])
    }

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn cold_gets_fetches_memory_then_grants_exclusive() {
        let mut d = bank();
        let mut out = Out::new();
        d.handle(n(1), ProtoMsg::new(Op::GetS, A), &mut out);
        assert_eq!(out, vec![(MEM, ProtoMsg::new(Op::MemRead, A))]);
        assert!(d.is_busy(A));
        out.clear();
        d.handle(MEM, ProtoMsg::new(Op::MemData, A), &mut out);
        assert_eq!(out, vec![(n(1), ProtoMsg::new(Op::DataExcl, A))]);
        assert_eq!(d.dir_state(A), DirState::Owned(n(1)));
        assert!(!d.is_busy(A));
    }

    #[test]
    fn second_reader_triggers_forward_and_shares() {
        let mut d = bank();
        let mut out = Out::new();
        d.handle(n(1), ProtoMsg::new(Op::GetS, A), &mut out);
        d.handle(MEM, ProtoMsg::new(Op::MemData, A), &mut Out::new());
        out.clear();
        d.handle(n(2), ProtoMsg::new(Op::GetS, A), &mut out);
        assert_eq!(out, vec![(n(1), ProtoMsg::with_aux(Op::FwdGetS, A, n(2)))]);
        out.clear();
        d.handle(n(1), ProtoMsg::new(Op::OwnerData, A), &mut out);
        assert_eq!(out, vec![(n(2), ProtoMsg::new(Op::Data, A))]);
        match d.dir_state(A) {
            DirState::Shared(s) => {
                assert!(s.contains(&n(1)) && s.contains(&n(2)));
            }
            other => panic!("expected Shared, got {other:?}"),
        }
    }

    #[test]
    fn writer_invalidates_all_sharers_then_gets_exclusive() {
        let mut d = bank();
        // Build Shared{1,2}.
        d.handle(n(1), ProtoMsg::new(Op::GetS, A), &mut Out::new());
        d.handle(MEM, ProtoMsg::new(Op::MemData, A), &mut Out::new());
        d.handle(n(2), ProtoMsg::new(Op::GetS, A), &mut Out::new());
        d.handle(n(1), ProtoMsg::new(Op::OwnerData, A), &mut Out::new());
        // Core 3 writes.
        let mut out = Out::new();
        d.handle(n(3), ProtoMsg::new(Op::GetM, A), &mut out);
        let invs: Vec<_> = out.iter().filter(|(_, m)| m.op == Op::Inv).collect();
        assert_eq!(invs.len(), 2);
        out.clear();
        d.handle(n(1), ProtoMsg::new(Op::InvAck, A), &mut out);
        assert!(out.is_empty(), "still one ack missing");
        d.handle(n(2), ProtoMsg::new(Op::InvAck, A), &mut out);
        assert_eq!(out, vec![(n(3), ProtoMsg::new(Op::DataExcl, A))]);
        assert_eq!(d.dir_state(A), DirState::Owned(n(3)));
    }

    #[test]
    fn invalidations_go_out_in_sharer_arrival_order() {
        let mut d = bank();
        d.handle(n(5), ProtoMsg::new(Op::GetS, A), &mut Out::new());
        d.handle(MEM, ProtoMsg::new(Op::MemData, A), &mut Out::new()); // E at 5
        d.handle(n(3), ProtoMsg::new(Op::GetS, A), &mut Out::new()); // Fwd -> 5
        d.handle(n(5), ProtoMsg::new(Op::OwnerData, A), &mut Out::new());
        for r in [1, 4, 3] {
            d.handle(n(r), ProtoMsg::new(Op::GetS, A), &mut Out::new()); // L2 hits
        }
        let order = vec![n(3), n(5), n(1), n(4)];
        assert_eq!(d.dir_state(A), DirState::Shared(order.clone()));
        let mut out = Out::new();
        d.handle(n(2), ProtoMsg::new(Op::GetM, A), &mut out);
        let invs: Vec<_> = out.iter().map(|&(to, m)| (m.op, to)).collect();
        let expected: Vec<_> = order.into_iter().map(|s| (Op::Inv, s)).collect();
        assert_eq!(invs, expected);
    }

    #[test]
    fn requests_queue_behind_busy_block() {
        let mut d = bank();
        let mut out = Out::new();
        d.handle(n(1), ProtoMsg::new(Op::GetS, A), &mut out); // busy: Mem
        out.clear();
        d.handle(n(2), ProtoMsg::new(Op::GetS, A), &mut out);
        assert!(out.is_empty(), "queued");
        // MemData completes #1 and the queued #2 starts immediately
        // (forward to the new owner 1).
        d.handle(MEM, ProtoMsg::new(Op::MemData, A), &mut out);
        assert!(out.contains(&(n(1), ProtoMsg::new(Op::DataExcl, A))));
        assert!(out.contains(&(n(1), ProtoMsg::with_aux(Op::FwdGetS, A, n(2)))));
    }

    #[test]
    fn putm_race_with_forward_completes_transaction() {
        let mut d = bank();
        d.handle(n(1), ProtoMsg::new(Op::GetM, A), &mut Out::new());
        d.handle(MEM, ProtoMsg::new(Op::MemData, A), &mut Out::new());
        assert_eq!(d.dir_state(A), DirState::Owned(n(1)));
        // Core 2 wants it; a forward goes out; but core 1's PutM arrives
        // first.
        let mut out = Out::new();
        d.handle(n(2), ProtoMsg::new(Op::GetM, A), &mut out);
        assert_eq!(out, vec![(n(1), ProtoMsg::with_aux(Op::FwdGetM, A, n(2)))]);
        out.clear();
        d.handle(n(1), ProtoMsg::new(Op::PutM, A), &mut out);
        assert!(out.contains(&(n(1), ProtoMsg::new(Op::WbAck, A))));
        assert!(out.contains(&(n(2), ProtoMsg::new(Op::DataExcl, A))));
        assert_eq!(d.dir_state(A), DirState::Owned(n(2)));
        // The dangling FwdNack from core 1 is dropped harmlessly.
        out.clear();
        d.handle(n(1), ProtoMsg::new(Op::FwdNack, A), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn stale_putm_from_old_owner_is_acked_and_ignored() {
        let mut d = bank();
        d.handle(n(1), ProtoMsg::new(Op::GetM, A), &mut Out::new());
        d.handle(MEM, ProtoMsg::new(Op::MemData, A), &mut Out::new());
        d.handle(n(2), ProtoMsg::new(Op::GetM, A), &mut Out::new());
        d.handle(n(1), ProtoMsg::new(Op::OwnerData, A), &mut Out::new());
        assert_eq!(d.dir_state(A), DirState::Owned(n(2)));
        // Core 1's stale writeback (it was evicting while forwarding).
        let mut out = Out::new();
        d.handle(n(1), ProtoMsg::new(Op::PutM, A), &mut out);
        assert_eq!(out, vec![(n(1), ProtoMsg::new(Op::WbAck, A))]);
        assert_eq!(d.dir_state(A), DirState::Owned(n(2)), "unchanged");
    }

    #[test]
    fn plain_eviction_returns_block_to_home() {
        let mut d = bank();
        d.handle(n(1), ProtoMsg::new(Op::GetM, A), &mut Out::new());
        d.handle(MEM, ProtoMsg::new(Op::MemData, A), &mut Out::new());
        let mut out = Out::new();
        d.handle(n(1), ProtoMsg::new(Op::PutM, A), &mut out);
        assert_eq!(out, vec![(n(1), ProtoMsg::new(Op::WbAck, A))]);
        assert_eq!(d.dir_state(A), DirState::Uncached);
        // Next reader hits in L2 (dirty data landed there).
        out.clear();
        d.handle(n(2), ProtoMsg::new(Op::GetS, A), &mut out);
        assert_eq!(out, vec![(n(2), ProtoMsg::new(Op::DataExcl, A))]);
    }

    #[test]
    fn pute_racing_forward_completes_from_home_data() {
        let mut d = bank();
        // Core 1 gets E; its clean eviction races core 2's GetS.
        d.handle(n(1), ProtoMsg::new(Op::GetS, A), &mut Out::new());
        d.handle(MEM, ProtoMsg::new(Op::MemData, A), &mut Out::new()); // E at 1
        let mut out = Out::new();
        d.handle(n(2), ProtoMsg::new(Op::GetS, A), &mut out);
        assert_eq!(out, vec![(n(1), ProtoMsg::with_aux(Op::FwdGetS, A, n(2)))]);
        out.clear();
        // The PutE arrives instead of OwnerData: the home answers from its
        // own (clean) L2 copy.
        d.handle(n(1), ProtoMsg::new(Op::PutE, A), &mut out);
        assert!(out.contains(&(n(1), ProtoMsg::new(Op::WbAck, A))));
        assert!(out.contains(&(n(2), ProtoMsg::new(Op::Data, A))));
        assert_eq!(d.dir_state(A), DirState::Shared(vec![n(2)]));
        assert!(!d.is_busy(A));
    }

    #[test]
    fn pute_racing_forward_getm_grants_exclusive() {
        let mut d = bank();
        d.handle(n(1), ProtoMsg::new(Op::GetS, A), &mut Out::new());
        d.handle(MEM, ProtoMsg::new(Op::MemData, A), &mut Out::new()); // E at 1
        d.handle(n(2), ProtoMsg::new(Op::GetM, A), &mut Out::new()); // FwdGetM -> 1
        let mut out = Out::new();
        d.handle(n(1), ProtoMsg::new(Op::PutE, A), &mut out);
        assert!(out.contains(&(n(2), ProtoMsg::new(Op::DataExcl, A))));
        assert_eq!(d.dir_state(A), DirState::Owned(n(2)));
    }

    #[test]
    fn dirty_l2_victim_is_written_to_memory() {
        // A tiny L2 (1 set x 1 way) forces an eviction of dirty data.
        let mut d = DirBank::new(NodeId(9), 1, 1, vec![MEM]);
        const B: BlockAddr = 0x4000; // different L2 set hash irrelevant: 1 set
                                     // Block A becomes dirty in L2 via a PutM.
        d.handle(n(1), ProtoMsg::new(Op::GetM, A), &mut Out::new());
        d.handle(MEM, ProtoMsg::new(Op::MemData, A), &mut Out::new());
        d.handle(n(1), ProtoMsg::new(Op::PutM, A), &mut Out::new());
        // Block B's fill evicts A: the dirty victim goes to memory.
        d.handle(n(2), ProtoMsg::new(Op::GetS, B), &mut Out::new());
        let mut out = Out::new();
        d.handle(MEM, ProtoMsg::new(Op::MemData, B), &mut out);
        assert!(
            out.contains(&(MEM, ProtoMsg::new(Op::MemWrite, A))),
            "dirty L2 victim must be written back: {out:?}"
        );
    }

    #[test]
    fn upgrade_from_sole_sharer_needs_no_invalidations() {
        let mut d = bank();
        // Build Shared{1} with data in L2 (via owner handover).
        d.handle(n(1), ProtoMsg::new(Op::GetM, A), &mut Out::new());
        d.handle(MEM, ProtoMsg::new(Op::MemData, A), &mut Out::new());
        d.handle(n(1), ProtoMsg::new(Op::PutM, A), &mut Out::new()); // Uncached, L2 dirty
        d.handle(n(1), ProtoMsg::new(Op::GetS, A), &mut Out::new()); // E grant (uncached)
        d.handle(n(1), ProtoMsg::new(Op::PutE, A), &mut Out::new()); // back to Uncached
        d.handle(n(1), ProtoMsg::new(Op::GetS, A), &mut Out::new()); // E again
        d.handle(n(2), ProtoMsg::new(Op::GetS, A), &mut Out::new()); // Fwd -> 1
        d.handle(n(1), ProtoMsg::new(Op::OwnerData, A), &mut Out::new()); // Shared{2,1}
                                                                          // Core 1 upgrades: only core 2 needs an Inv.
        let mut out = Out::new();
        d.handle(n(1), ProtoMsg::new(Op::GetM, A), &mut out);
        let invs: Vec<_> = out.iter().filter(|(_, m)| m.op == Op::Inv).collect();
        assert_eq!(invs.len(), 1);
        assert_eq!(invs[0].0, n(2));
        out.clear();
        d.handle(n(2), ProtoMsg::new(Op::InvAck, A), &mut out);
        assert_eq!(out, vec![(n(1), ProtoMsg::new(Op::DataExcl, A))]);
        assert_eq!(d.dir_state(A), DirState::Owned(n(1)));
    }

    #[test]
    fn queue_drains_across_multiple_waiters() {
        let mut d = bank();
        d.handle(n(1), ProtoMsg::new(Op::GetS, A), &mut Out::new()); // busy: Mem
        d.handle(n(2), ProtoMsg::new(Op::GetS, A), &mut Out::new()); // queued
        d.handle(n(3), ProtoMsg::new(Op::GetS, A), &mut Out::new()); // queued
        let mut out = Out::new();
        d.handle(MEM, ProtoMsg::new(Op::MemData, A), &mut out);
        // #1 granted exclusive; #2 starts (forward); #3 still queued.
        assert!(out.contains(&(n(1), ProtoMsg::new(Op::DataExcl, A))));
        assert!(out.contains(&(n(1), ProtoMsg::with_aux(Op::FwdGetS, A, n(2)))));
        assert!(d.is_busy(A));
        out.clear();
        d.handle(n(1), ProtoMsg::new(Op::OwnerData, A), &mut out);
        // #2 granted shared; #3 drains too (L2 hit: Data immediately).
        assert!(out.contains(&(n(2), ProtoMsg::new(Op::Data, A))));
        assert!(out.contains(&(n(3), ProtoMsg::new(Op::Data, A))));
        assert!(!d.is_busy(A));
    }

    #[test]
    fn pute_clears_ownership_without_data() {
        let mut d = bank();
        d.handle(n(1), ProtoMsg::new(Op::GetS, A), &mut Out::new());
        d.handle(MEM, ProtoMsg::new(Op::MemData, A), &mut Out::new()); // E at 1
        let mut out = Out::new();
        d.handle(n(1), ProtoMsg::new(Op::PutE, A), &mut out);
        assert_eq!(out, vec![(n(1), ProtoMsg::new(Op::WbAck, A))]);
        assert_eq!(d.dir_state(A), DirState::Uncached);
    }
}
