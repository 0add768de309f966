//! The serial half of a tick: applies every shard's phase-A outcome in
//! shard-ascending (= router-index) order, sub-phase by sub-phase — wheel
//! puts toward neighbours, power-manager events, packet metadata,
//! statistics and the SoA bits. The fixed order is what makes results
//! bit-exact for every shard count, and it reproduces the reference
//! kernel's event order and state updates exactly.

use punchsim_obs::Event;
use punchsim_types::{Cycle, InvariantViolation, NodeId, PacketId, Port};

use super::Network;
use crate::power::PmEvent;
use crate::soa::NI_CREDIT_LANE;

impl Network {
    pub(super) fn soa_commit(&mut self, now: Cycle) {
        let link = self.cfg.link_latency as Cycle;
        let mut bufs = std::mem::take(&mut self.shard.bufs);
        // --- 1. flit deliveries ------------------------------------------
        for buf in &mut bufs {
            self.watchdog.moved |= buf.moved;
            if self.watchdog.violation.is_none() {
                if let Some(router) = buf.violation {
                    self.watchdog.violation =
                        Some(InvariantViolation::FlitIntoOffRouter { cycle: now, router });
                }
            }
            self.events.append(&mut buf.head_arrivals);
        }
        // Every router with a flit due latched it, so its datapath is
        // occupied now whatever allocation then took out of it.
        self.soa.occ.union_with(self.flits.plane_mut(now).0);
        self.flits.retire(now);
        // --- 2. credit deliveries ----------------------------------------
        self.credits.retire(now);
        // --- 3. allocation outcomes --------------------------------------
        for buf in &mut bufs {
            for (here, b) in buf.blocked.drain(..) {
                let d = b
                    .next_router_port
                    .direction()
                    .expect("PG can only block link ports");
                let next = self.soa.neighbors[here.index()][d.index()]
                    .expect("blocked port has a neighbor");
                self.note_blocked(b.packet, next);
            }
            for (here, dep) in buf.departed.drain(..) {
                let idx = here.index();
                let near = self.soa.neighbors[idx];
                self.watchdog.moved = true;
                match dep.in_port {
                    Port::Local => {
                        self.credits
                            .put(now + 1 + link, idx, NI_CREDIT_LANE, dep.in_vc);
                    }
                    Port::Link(d) => {
                        let up = near[d.index()].expect("flits only arrive over real links");
                        let lane = Port::Link(d.opposite()).index();
                        self.credits
                            .put(now + 1 + link, up.index(), lane, dep.in_vc);
                    }
                }
                match dep.out_port {
                    Port::Local => self.ejects.put(now + 2, idx, 0, dep.flit),
                    Port::Link(d) => {
                        let next = near[d.index()].expect("allocation never targets a mesh edge");
                        let mut flit = dep.flit;
                        flit.route_port = match self.view.direction(next, flit.dst) {
                            Some(nd) => Port::Link(nd),
                            None => Port::Local,
                        };
                        self.win.stats.link_traversals += 1;
                        let lane = Port::Link(d.opposite()).index();
                        self.flits.put(now + 2 + link, next.index(), lane, flit);
                    }
                }
            }
            for &i in &buf.alloc_empty {
                self.soa.occ.clear(i);
            }
        }
        // --- 4. ejections ------------------------------------------------
        self.win.ni_flits += self.ejects.retire(now) as u64;
        for buf in &mut bufs {
            for done in buf.completions.drain(..) {
                self.complete_packet(done, now);
            }
        }
        // --- 5. injections -----------------------------------------------
        for buf in &mut bufs {
            for r in buf.inject.drain(..) {
                let node = NodeId(r.idx as u16);
                // Per NI: every ready edge, then every stall — the order
                // the power manager (and a seeded fault source) sees.
                for &(_pkt, dst) in &buf.ni_ready[r.ready] {
                    self.events.push(PmEvent::NiReadyToInject { node, dst });
                }
                for &pkt in &buf.ni_blocked[r.blocked] {
                    self.note_blocked(pkt, node);
                }
                if let Some(flit) = r.sent {
                    self.win.ni_flits += 1;
                    self.watchdog.moved = true;
                    self.flits
                        .put(now + 1 + link, r.idx, Port::Local.index(), flit);
                    if r.mid_after {
                        self.soa.ni_mid.set(r.idx);
                    } else {
                        self.soa.ni_mid.clear(r.idx);
                    }
                }
                if !r.pending_after {
                    self.soa.ni_pend.clear(r.idx);
                }
            }
        }
        self.shard.bufs = bufs;
    }

    /// Bookkeeping for one cycle a packet spent blocked on powered-off
    /// `router`: asserts the WU handshake toward it and charges the wait
    /// to the packet.
    pub(super) fn note_blocked(&mut self, packet: PacketId, router: NodeId) {
        self.events.push(PmEvent::BlockedNeed { router });
        if let Some(meta) = self.packets.get_mut(&packet.0) {
            meta.wakeup_wait += 1;
            // Figure 9: count each blocking router once per packet
            // encounter.
            if meta.blocked_on != Some(router) {
                meta.blocked_on = Some(router);
                meta.pg_encounters += 1;
            }
        }
    }

    /// Bookkeeping for packet `done` whose tail just ejected:
    /// retires its metadata into the sink, the conservation counters, the
    /// measured-window statistics and the delivered stream.
    pub(super) fn complete_packet(&mut self, done: PacketId, now: Cycle) {
        let meta = self
            .packets
            .remove(&done.0)
            .expect("completed packet has meta");
        self.obs.emit(now, || Event::Deliver {
            packet: done.0,
            src: meta.message.src,
            dst: meta.message.dst,
            latency: now.saturating_sub(meta.ni_enqueue),
        });
        self.watchdog.retire(meta.len_flits as u64);
        if meta.measured {
            let stats = &mut self.win.stats;
            stats.flits_delivered += meta.len_flits as u64;
            stats.record_delivery(
                now - meta.ni_enqueue,
                meta.pg_encounters.into(),
                meta.wakeup_wait,
            );
        }
        self.delivered.push(meta.message);
    }
}
