//! Memory controllers (one per mesh corner, as in Table 2).

use punchsim_types::{Cycle, NodeId};

use crate::protocol::{Op, ProtoMsg};
use crate::tile::Out;

/// A memory controller endpoint: fixed-latency reads, posted writes.
#[derive(Debug, Clone)]
pub struct MemCtrl {
    node: NodeId,
    latency: Cycle,
    /// Pending `(ready_at, home, response)` in arrival order.
    pending: Vec<(Cycle, NodeId, ProtoMsg)>,
}

impl MemCtrl {
    /// Creates a controller at `node` with the given access latency
    /// (Table 2: 128 cycles).
    pub fn new(node: NodeId, latency: Cycle) -> Self {
        MemCtrl {
            node,
            latency,
            pending: Vec::new(),
        }
    }

    /// This controller's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Handles a request delivered at `now`.
    pub fn handle(&mut self, src: NodeId, msg: ProtoMsg, now: Cycle) {
        match msg.op {
            Op::MemRead => {
                self.pending.push((
                    now + self.latency,
                    src,
                    ProtoMsg::new(Op::MemData, msg.addr),
                ));
            }
            // Posted write: absorbed without a response.
            Op::MemWrite => {}
            other => panic!("memory controller received unexpected {other:?}"),
        }
    }

    /// How many responses fall due exactly `slack2` cycles after `now`: the
    /// controller knows a packet is coming and forewarns its own router
    /// once per response (the paper's slack-2 resource valid bit).
    pub fn forewarnings(&self, now: Cycle, slack2: Cycle) -> usize {
        self.pending
            .iter()
            .filter(|&&(at, _, _)| at == now + slack2)
            .count()
    }

    /// Moves the responses due at `now` into `due` as `(home, response)`,
    /// in arrival order.
    pub fn take_due(&mut self, now: Cycle, due: &mut Out) {
        self.pending.retain(|&(at, home, msg)| {
            let ready = at <= now;
            if ready {
                due.push((home, msg));
            }
            !ready
        });
    }

    /// Outstanding reads (test hook).
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_completes_after_latency() {
        let mut m = MemCtrl::new(NodeId(0), 128);
        m.handle(NodeId(9), ProtoMsg::new(Op::MemRead, 0x40), 10);
        assert_eq!(m.outstanding(), 1);
        let mut due = Out::new();
        for c in 11..138 {
            m.take_due(c, &mut due);
            assert!(due.is_empty(), "cycle {c}");
        }
        m.take_due(138, &mut due);
        assert_eq!(due, vec![(NodeId(9), ProtoMsg::new(Op::MemData, 0x40))]);
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn forewarning_fires_before_response() {
        let mut m = MemCtrl::new(NodeId(0), 128);
        m.handle(NodeId(9), ProtoMsg::new(Op::MemRead, 0x40), 0);
        let mut warned_at = None;
        for c in 1..=128 {
            if m.forewarnings(c, 6) > 0 {
                warned_at = Some(c);
            }
            m.take_due(c, &mut Out::new());
        }
        assert_eq!(warned_at, Some(122), "6 cycles before the response");
    }

    #[test]
    fn writes_are_posted() {
        let mut m = MemCtrl::new(NodeId(0), 128);
        m.handle(NodeId(9), ProtoMsg::new(Op::MemWrite, 0x80), 0);
        assert_eq!(m.outstanding(), 0);
    }
}
