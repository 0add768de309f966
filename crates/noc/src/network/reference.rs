//! The reference tick: an object-at-a-time sweep over every router, every
//! NI and every slot of the delivery wheels' due planes, every cycle, with
//! no bit index (the wheels' router bits included) and no quiescence
//! fast-forward. It exists only as the oracle the differential tests pin
//! the shipped kernel ([`crate::soa`] + fast-forward + shard pool) against;
//! [`Network::use_reference_kernel`] is the one-way switch onto it.
//!
//! To stay a real oracle it shares only pure bookkeeping with the kernel —
//! `note_blocked`, `complete_packet`, the power/watchdog phases and the
//! router's storage (its flit pool, `latch`/`pop_front`, `credit`), none of
//! which decide what moves where; the pool has its own FIFO oracle in
//! `router.rs`. Traversal order and the application of departures are
//! implemented here independently (neighbours come from the substrate, not
//! the kernel's table), and allocation runs the exhaustive rotating-priority
//! scan [`crate::router::Router::allocate_reference`], not the
//! request-driven allocators the kernel ships.

use punchsim_obs::metrics::{Phase, PhaseProfiler};
use punchsim_types::{Cycle, Direction, InvariantViolation, NodeId, Port, PortMap, SimError};

use super::Network;
use crate::power::{PmEvent, PowerState};
use crate::soa::{CREDIT_LANES, FLIT_LANES, NI_CREDIT_LANE};

impl Network {
    /// One reference tick. The sweeps below never touch the SoA bit index:
    /// the switch onto this path is one-way, so nothing reads it again.
    pub(super) fn tick_reference(&mut self) -> Result<(), SimError> {
        let now = self.cycle;
        self.watchdog.moved = false;
        self.obs.profile(PhaseProfiler::begin_tick);
        self.deliver_flits(now);
        self.obs.phase(Phase::DeliverFlits);
        self.deliver_credits(now);
        self.obs.phase(Phase::DeliverCredits);
        self.allocate_routers(now);
        self.obs.phase(Phase::Allocate);
        self.deliver_ejections(now);
        self.obs.phase(Phase::Eject);
        self.inject_from_nis(now);
        self.obs.phase(Phase::Inject);
        self.watchdog_escalate(now);
        self.obs.phase(Phase::Watchdog);
        self.power_tick(now);
        self.obs.phase(Phase::PowerTick);
        self.cycle = now + 1;
        let r = self.watchdog_check(now);
        self.obs.phase(Phase::Watchdog);
        r
    }

    fn deliver_flits(&mut self, now: Cycle) {
        if self.packets.is_empty() {
            return; // flits only exist while their packet is in flight
        }
        let (_, slots) = self.flits.plane_mut(now);
        for idx in 0..self.routers.len() {
            for port in Port::ALL {
                if let Some(flit) = slots[idx * FLIT_LANES + port.index()].take() {
                    self.watchdog.moved = true;
                    if self.watchdog.violation.is_none()
                        && self.pm.state(NodeId(idx as u16)) == PowerState::Off
                    {
                        self.watchdog.violation = Some(InvariantViolation::FlitIntoOffRouter {
                            cycle: now,
                            router: NodeId(idx as u16),
                        });
                    }
                    if flit.kind().is_head() {
                        self.events.push(PmEvent::HeadArrival {
                            router: NodeId(idx as u16),
                            dst: flit.dst,
                        });
                    }
                    self.routers[idx].latch(port, flit, now);
                }
            }
        }
        self.flits.retire(now);
    }

    fn deliver_credits(&mut self, now: Cycle) {
        // Every plane due by now, earliest first. The oracle never skips a
        // cycle, so that is one plane — unless the switch onto it followed
        // a fast-forward that left credits overdue.
        while let Some(due) = self.credits.next_due().filter(|&at| at <= now) {
            let (_, slots) = self.credits.plane_mut(due);
            for idx in 0..self.routers.len() {
                let lanes = &mut slots[idx * CREDIT_LANES..][..CREDIT_LANES];
                for dir in Direction::ALL {
                    if let Some(vc) = lanes[Port::Link(dir).index()].take() {
                        self.routers[idx].credit(dir, vc as usize);
                    }
                }
                if let Some(vc) = lanes[NI_CREDIT_LANE].take() {
                    self.nis[idx].credit(vc as usize);
                }
            }
            self.credits.retire(due);
        }
    }

    fn allocate_routers(&mut self, now: Cycle) {
        if self.packets.is_empty() {
            return; // nothing buffered, queued or injectable anywhere
        }
        let link = self.cfg.link_latency as Cycle;
        for idx in 0..self.routers.len() {
            // Allocation is a pure no-op on a router with no buffered flits
            // (rotating priorities and activity counters move only on
            // grants, and an empty-but-routed VC is skipped by both
            // phases), so the scan can skip it — at low load this turns
            // the per-tick cost from O(routers) router allocations into
            // O(occupied routers).
            if self.routers[idx].datapath_empty() {
                continue;
            }
            let here = NodeId(idx as u16);
            // A flit granted SA at `now` is latched downstream at
            // `now + 2 + link`; the downstream router only needs to be on
            // by then, so the tail of its wakeup overlaps flit transit.
            let arrival = now + 2 + link;
            let down_on = PortMap::from_fn(|p| match p {
                Port::Local => true,
                Port::Link(d) => self
                    .view
                    .topo
                    .neighbor(here, d)
                    .is_some_and(|n| self.pm.is_available(n, arrival)),
            });
            let outcome = self.routers[idx].allocate_reference(now, &down_on);
            for b in &outcome.pg_blocked {
                let d = b
                    .next_router_port
                    .direction()
                    .expect("PG can only block link ports");
                let next = self
                    .view
                    .topo
                    .neighbor(here, d)
                    .expect("blocked port has a neighbor");
                self.note_blocked(b.packet, next);
            }
            for (_, dep) in outcome.departures.iter() {
                let Some(dep) = *dep else { continue };
                self.watchdog.moved = true;
                // Credit back to the upstream of the input the flit vacated.
                let vc = dep.in_vc;
                match dep.in_port {
                    Port::Local => {
                        self.credits.put(now + 1 + link, idx, NI_CREDIT_LANE, vc);
                    }
                    Port::Link(d) => {
                        let up = self
                            .view
                            .topo
                            .neighbor(here, d)
                            .expect("flits only arrive over real links");
                        let lane = Port::Link(d.opposite()).index();
                        self.credits.put(now + 1 + link, up.index(), lane, vc);
                    }
                }
                match dep.out_port {
                    Port::Local => self.ejects.put(now + 2, idx, 0, dep.flit),
                    Port::Link(d) => {
                        let next = self
                            .view
                            .topo
                            .neighbor(here, d)
                            .expect("allocation never targets a mesh edge");
                        let mut flit = dep.flit;
                        // Look-ahead routing: compute the output port this
                        // flit will request at `next`.
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
        }
    }

    fn deliver_ejections(&mut self, now: Cycle) {
        if self.packets.is_empty() {
            return; // only flits of in-flight packets are ever ejecting
        }
        for idx in 0..self.nis.len() {
            if let Some(flit) = self.ejects.plane_mut(now).1[idx].take() {
                self.win.ni_flits += 1;
                self.watchdog.moved = true;
                if let Some(done) = self.nis[idx].eject(&flit) {
                    self.complete_packet(done, now);
                }
            }
        }
        self.ejects.retire(now);
    }

    fn inject_from_nis(&mut self, now: Cycle) {
        if self.packets.is_empty() {
            return; // every queued or mid-flight NI packet is in the map
        }
        let link = self.cfg.link_latency as Cycle;
        for idx in 0..self.nis.len() {
            let node = NodeId(idx as u16);
            // An NI flit sent at `now` latches into the local router at
            // `now + 1 + link`: the local router's wakeup tail overlaps.
            let router_on = self.pm.is_available(node, now + 1 + link);
            let (mut newly_ready, mut blocked_on_local) = (Vec::new(), Vec::new());
            let sent =
                self.nis[idx].tick_inject(now, router_on, &mut newly_ready, &mut blocked_on_local);
            for (_pkt, dst) in newly_ready {
                self.events.push(PmEvent::NiReadyToInject { node, dst });
            }
            for pkt in blocked_on_local {
                self.note_blocked(pkt, node);
            }
            if let Some(flit) = sent {
                self.win.ni_flits += 1;
                self.watchdog.moved = true;
                self.flits
                    .put(now + 1 + link, idx, Port::Local.index(), flit);
            }
        }
    }

    fn power_tick(&mut self, now: Cycle) {
        self.soa.idle.clear();
        if self.packets.is_empty() {
            // No packet in flight means no flit, NI work or inbound wire
            // anywhere: idleness is uniformly true without the scan.
            self.soa.idle.resize(self.routers.len(), true);
        } else {
            for idx in 0..self.routers.len() {
                self.soa.idle.push(
                    self.routers[idx].datapath_empty()
                        && !self.nis[idx].mid_packet()
                        && !self.flits.inbound(idx),
                );
            }
        }
        self.power_tick_finish(now);
    }
}
