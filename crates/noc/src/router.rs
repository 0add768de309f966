//! The wormhole virtual-channel router.
//!
//! Pipeline model (Figure 3 of the paper):
//!
//! * **3-stage** (look-ahead routing + speculative switch allocation):
//!   `BW | VA+SA | ST`, plus one link cycle — 4 cycles per hop at zero load.
//! * **4-stage** (look-ahead routing): `BW | VA | SA | ST`, plus one link
//!   cycle — 5 cycles per hop at zero load.
//!
//! A flit latched during cycle `t` (BW) becomes allocation-eligible at
//! `t + 1`. A head flit that wins VA at cycle `v` may compete in SA the same
//! cycle in 3-stage mode (speculation, at lower priority than committed
//! flits) or from `v + 1` in 4-stage mode. An SA winner traverses the
//! crossbar (ST) at `s + 1` and is latched downstream at
//! `s + 1 + link_latency + 1`.

use punchsim_types::{Cycle, NocConfig, NodeId, PacketId, Port, PortMap};

use crate::flit::Flit;
use crate::vc::{Vc, VcLayout, VcRoute};

/// Per-router dynamic-activity counters consumed by the power model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterActivity {
    /// Flits latched into input buffers (BW operations).
    pub buffer_writes: u64,
    /// Flits read out of input buffers (on SA grants).
    pub buffer_reads: u64,
    /// Crossbar traversals (equals `buffer_reads`).
    pub crossbar_traversals: u64,
    /// Successful VC allocations.
    pub va_grants: u64,
    /// Switch-allocation grants.
    pub sa_grants: u64,
}

impl RouterActivity {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, o: &RouterActivity) {
        self.buffer_writes += o.buffer_writes;
        self.buffer_reads += o.buffer_reads;
        self.crossbar_traversals += o.crossbar_traversals;
        self.va_grants += o.va_grants;
        self.sa_grants += o.sa_grants;
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = RouterActivity::default();
    }
}

/// A flit leaving the router this cycle, as reported by [`Router::allocate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Departure {
    /// Output port the flit leaves through.
    pub out_port: Port,
    /// Input port it came from (for credit return).
    pub in_port: Port,
    /// Input VC it came from (for credit return).
    pub in_vc: usize,
    /// The flit itself, with `vc` already set to the downstream VC.
    pub flit: Flit,
}

/// A head-of-line flit stalled only because the downstream router is not on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PgBlocked {
    /// The sleeping/waking router that must power on.
    pub next_router_port: Port,
    /// The stalled packet (for the Figure 10 waiting-cycles metric).
    pub packet: PacketId,
}

/// Result of one allocation cycle, as one value: what the full-scan oracle
/// [`Router::allocate_reference`] returns. The shipped [`Router::allocate`]
/// appends to its caller's flat vectors instead.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct AllocOutcome {
    /// The flit granted ST through each output port this cycle (a crossbar
    /// output carries at most one), indexed by that port;
    /// [`Departure::out_port`] repeats the index.
    pub departures: PortMap<Option<Departure>>,
    /// Packets stalled by power-gating this cycle (one entry per stalled
    /// packet whose *only* missing resource is the downstream router).
    pub pg_blocked: Vec<PgBlocked>,
}

/// A switch-allocation candidate: the front flit one input port offers.
#[derive(Clone, Copy)]
struct Cand {
    in_port: Port,
    in_vc: usize,
    out_port: Port,
    speculative: bool,
}

/// One mesh router: five ports of VC buffers plus separable VA/SA allocators.
#[derive(Debug, Clone)]
pub struct Router {
    id: NodeId,
    layout: VcLayout,
    stages: u8,
    inputs: PortMap<Vec<Vc>>,
    /// Per input port, bit `v` set iff VC `v` holds at least one flit.
    /// Kept in sync by `latch` and `pop_front`; the allocators visit set
    /// bits only, so their cost follows buffered head-of-line flits rather
    /// than ports x VCs.
    occ: PortMap<u32>,
    /// Credits toward each downstream VC, per output port. `Local` is the
    /// ejection port and is initialized effectively infinite (the NI is a
    /// guaranteed sink, required for protocol-level deadlock freedom).
    out_credits: PortMap<Vec<u32>>,
    /// Output VCs currently owned by an in-flight packet.
    out_vc_busy: PortMap<Vec<bool>>,
    va_rr: PortMap<usize>,
    sa_in_rr: PortMap<usize>,
    sa_out_rr: PortMap<usize>,
    /// Total flits across all input VCs, kept in sync by `latch` and
    /// `pop_front` so `datapath_empty` is O(1).
    buffered: u32,
    /// Activity counters for the power model.
    pub activity: RouterActivity,
}

/// Effectively-infinite ejection credit for the `Local` output port.
const EJECT_CREDITS: u32 = 1 << 30;

/// Calls `f(i)` for every set bit `i` of `mask`, ascending.
#[inline]
fn for_each_bit(mut mask: u32, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

impl Router {
    /// Creates a router with empty buffers and full credits.
    ///
    /// `has_neighbor` marks which link directions exist (mesh edges have
    /// fewer); absent neighbours get zero credits so allocation never
    /// selects them (XY routing never requests them anyway).
    ///
    /// # Panics
    ///
    /// Panics if `layout` has more than [`NocConfig::MAX_VCS_PER_PORT`] VCs
    /// per port (the occupancy-mask width; `NocConfig::validate` rejects
    /// such configs before a network builds its routers).
    pub fn new(id: NodeId, layout: VcLayout, stages: u8, has_neighbor: PortMap<bool>) -> Self {
        let total = layout.total();
        assert!(
            total <= NocConfig::MAX_VCS_PER_PORT,
            "{total} VCs per port exceed the occupancy-mask width"
        );
        let inputs = PortMap::from_fn(|_| (0..total).map(|i| Vc::new(layout.depth(i))).collect());
        let out_credits = PortMap::from_fn(|p| match p {
            Port::Local => vec![EJECT_CREDITS; total],
            Port::Link(_) if has_neighbor[p] => {
                (0..total).map(|i| layout.depth(i) as u32).collect()
            }
            Port::Link(_) => vec![0; total],
        });
        Router {
            id,
            layout,
            stages,
            inputs,
            occ: PortMap::default(),
            out_credits,
            out_vc_busy: PortMap::from_fn(|_| vec![false; total]),
            va_rr: PortMap::default(),
            sa_in_rr: PortMap::default(),
            sa_out_rr: PortMap::default(),
            buffered: 0,
            activity: RouterActivity::default(),
        }
    }

    /// This router's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Latches `flit` into input `port` (the BW stage) during `cycle`.
    pub fn latch(&mut self, port: Port, mut flit: Flit, cycle: Cycle) {
        flit.latched_at = cycle;
        self.activity.buffer_writes += 1;
        self.buffered += 1;
        let vc = flit.vc;
        self.occ[port] |= 1 << vc;
        self.inputs[port][vc].push(flit);
    }

    /// Pops the front flit of input `(port, vc)` on an SA grant — the one
    /// place flits leave the buffers, so the buffered count and the
    /// occupancy mask stay in sync under either allocator.
    fn pop_front(&mut self, port: Port, vc: usize) -> Flit {
        let q = &mut self.inputs[port][vc];
        let flit = q.pop().expect("winner has a front flit");
        if q.is_empty() {
            self.occ[port] &= !(1 << vc);
        }
        self.buffered -= 1;
        flit
    }

    /// Returns a credit for downstream VC `vc` of output `port`.
    pub fn credit(&mut self, port: Port, vc: usize) {
        self.out_credits[port][vc] += 1;
        debug_assert!(
            port == Port::Local || self.out_credits[port][vc] <= self.layout.depth(vc) as u32,
            "credit overflow on {port} vc{vc}"
        );
    }

    /// Debug builds cross-check the two derived summaries (`buffered`, the
    /// occupancy mask) against the VC buffers they summarize.
    fn debug_check_summaries(&self) {
        debug_assert_eq!(
            self.buffered as usize,
            self.inputs
                .iter()
                .map(|(_, vcs)| vcs.iter().map(Vc::len).sum::<usize>())
                .sum::<usize>(),
            "buffered-flit counter out of sync with the input VCs"
        );
        debug_assert!(
            self.inputs.iter().all(|(p, vcs)| vcs
                .iter()
                .enumerate()
                .all(|(v, vc)| (self.occ[p] >> v) & 1 == u32::from(!vc.is_empty()))),
            "occupancy mask out of sync with the input VCs"
        );
    }

    /// `true` when every input VC is empty (no flit anywhere in the
    /// datapath) — one of the conditions for power-gating the router.
    /// O(1). The tick kernel asks only the routers it has just allocated
    /// (to retire their occupancy bit); the test oracle asks every router
    /// every cycle.
    pub fn datapath_empty(&self) -> bool {
        self.debug_check_summaries();
        self.buffered == 0
    }

    /// Total buffered flits (debug/occupancy metric).
    pub fn occupancy(&self) -> usize {
        self.debug_check_summaries();
        self.buffered as usize
    }

    /// Appends this router's canonical snapshot encoding (see
    /// [`crate::snapshot`]): input VCs (sparse — an empty, unrouted VC is a
    /// single zero byte), link-port credit *deficits* (depth minus current
    /// credits, so a fully-credited idle router encodes as zeros), output-VC
    /// ownership and the three round-robin pointers. `Local` ejection
    /// credits are excluded: they start effectively infinite and only ever
    /// decrease, which makes them a monotone counter in disguise. Activity
    /// counters are statistics and excluded per the snapshot rules.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_bool, put_u8};
        for (_, vcs) in self.inputs.iter() {
            for vc in vcs {
                if vc.is_empty() && vc.route == VcRoute::Unrouted {
                    put_u8(out, 0);
                } else {
                    put_u8(out, 1);
                    vc.encode_state(out);
                }
            }
        }
        for (port, credits) in self.out_credits.iter() {
            if port == Port::Local {
                continue;
            }
            for (idx, &c) in credits.iter().enumerate() {
                let depth = self.layout.depth(idx) as u32;
                put_u8(out, depth.saturating_sub(c) as u8);
            }
        }
        for (_, busy) in self.out_vc_busy.iter() {
            for &b in busy {
                put_bool(out, b);
            }
        }
        // Every pointer fits a byte: `va_rr < 5 * MAX_VCS_PER_PORT = 160`.
        for (_, &rr) in self.va_rr.iter() {
            put_u8(out, rr as u8);
        }
        for (_, &rr) in self.sa_in_rr.iter() {
            put_u8(out, rr as u8);
        }
        for (_, &rr) in self.sa_out_rr.iter() {
            put_u8(out, rr as u8);
        }
    }

    /// Runs VC allocation then switch allocation for `cycle`.
    ///
    /// `down_on(p)` tells whether the router downstream of output `p` is
    /// fully powered on (`Local` must be `true`); it is asked only for a
    /// routed, credited head-of-line flit, so a router with nothing to send
    /// costs its power manager nothing. Flits granted ST are appended to
    /// `departed` in output-port order and packets stalled purely by
    /// power-gating to `blocked` (once per packet), both tagged with this
    /// router's id — flat vectors the caller reuses across routers and
    /// cycles. Departing flits carry a recomputed look-ahead route for the
    /// next router; the network layer does that, so `route_port` on
    /// departures still refers to *this* router's output.
    ///
    /// Cost follows the buffered head-of-line flits (the set bits of the
    /// occupancy mask), not ports x VCs; grants are those of the
    /// rotating-priority full scan, which survives as the test oracle
    /// [`Router::allocate_reference`].
    pub fn allocate(
        &mut self,
        cycle: Cycle,
        down_on: impl FnMut(Port) -> bool,
        blocked: &mut Vec<(NodeId, PgBlocked)>,
        departed: &mut Vec<(NodeId, Departure)>,
    ) {
        self.vc_allocate(cycle);
        self.switch_allocate(cycle, down_on, blocked, departed);
    }

    /// VC allocation: head flits at the front of their VC request an output
    /// VC of their (vnet, class) at their look-ahead output port.
    fn vc_allocate(&mut self, cycle: Cycle) {
        // Gather requests as one VC mask per input port (eligible unrouted
        // heads), plus the set of output ports anyone asks for.
        let mut requests = [0u32; 5];
        let mut wanted = 0u8;
        for (ip, in_port) in Port::ALL.into_iter().enumerate() {
            let vcs = &self.inputs[in_port];
            for_each_bit(self.occ[in_port], |iv| {
                let vc = &vcs[iv];
                let front = vc.front().expect("occupancy bit implies a front flit");
                if vc.route == VcRoute::Unrouted && front.kind.is_head() && front.latched_at < cycle
                {
                    requests[ip] |= 1 << iv;
                    wanted |= 1 << front.route_port.index();
                }
            });
        }
        if wanted == 0 {
            return;
        }
        // Grant per output port, rotating priority across the global input
        // VC index `g = in_port * total + in_vc` so no input starves. The
        // masks list requests in ascending `g`, so walking them once for
        // `g >= va_rr` and once more for `g < va_rr` visits exactly the
        // requesters a scan of all `5 * total` slots from `va_rr` would
        // meet, in the same order.
        let total = self.layout.total();
        for out_port in Port::ALL {
            if (wanted >> out_port.index()) & 1 == 0 {
                continue;
            }
            let start = self.va_rr[out_port];
            let mut granted_any = false;
            for wrapped in [false, true] {
                for (ip, in_port) in Port::ALL.into_iter().enumerate() {
                    for_each_bit(requests[ip], |iv| {
                        let g = ip * total + iv;
                        if (g < start) != wrapped {
                            return;
                        }
                        let front = self.inputs[in_port][iv]
                            .front()
                            .expect("request implies a front flit");
                        if front.route_port != out_port {
                            return;
                        }
                        // Find a free output VC of the right vnet/class.
                        let mut cand = self.layout.candidates(front.vnet, front.class);
                        let Some(out_vc) = cand.find(|&ov| !self.out_vc_busy[out_port][ov]) else {
                            return;
                        };
                        self.out_vc_busy[out_port][out_vc] = true;
                        self.inputs[in_port][iv].route = VcRoute::Routed {
                            out_port,
                            out_vc,
                            va_cycle: cycle,
                        };
                        self.activity.va_grants += 1;
                        if !granted_any {
                            // Rotate past the first winner.
                            self.va_rr[out_port] = if g + 1 == 5 * total { 0 } else { g + 1 };
                            granted_any = true;
                        }
                    });
                }
            }
        }
    }

    /// Separable input-first switch allocation with speculation support.
    fn switch_allocate(
        &mut self,
        cycle: Cycle,
        mut down_on: impl FnMut(Port) -> bool,
        blocked: &mut Vec<(NodeId, PgBlocked)>,
        departed: &mut Vec<(NodeId, Departure)>,
    ) {
        let id = self.id;
        // This router's reports start here: the once-per-packet check
        // below looks no further back.
        let first_blocked = blocked.len();
        // Phase 1: each occupied input port offers one front flit.
        // candidate = eligible + routed + credit + downstream on.
        // blocked = eligible + routed + credit, downstream off.
        let mut per_input: PortMap<Option<Cand>> = PortMap::default();
        let mut wanted = 0u8;
        for in_port in Port::ALL {
            let occ = self.occ[in_port];
            if occ == 0 {
                continue;
            }
            // Rotating priority from `sa_in_rr`: occupied VCs at or above
            // the pointer first, then the wrapped-around ones below it.
            let below = (1u32 << self.sa_in_rr[in_port]) - 1;
            let mut best: Option<Cand> = None;
            for mask in [occ & !below, occ & below] {
                for_each_bit(mask, |iv| {
                    let vc = &self.inputs[in_port][iv];
                    let front = vc.front().expect("occupancy bit implies a front flit");
                    if front.latched_at >= cycle {
                        return;
                    }
                    let VcRoute::Routed {
                        out_port,
                        out_vc,
                        va_cycle,
                    } = vc.route
                    else {
                        return;
                    };
                    let speculative = va_cycle == cycle;
                    if speculative && self.stages != 3 {
                        return; // 4-stage: SA starts the cycle after VA.
                    }
                    if self.out_credits[out_port][out_vc] == 0 {
                        return; // no downstream buffer space
                    }
                    if !down_on(out_port) {
                        // Stalled purely by power-gating: report for the WU
                        // handshake and the Fig. 9/10 metrics (once per
                        // packet).
                        let packet = front.packet;
                        if !blocked[first_blocked..]
                            .iter()
                            .any(|(_, b)| b.packet == packet)
                        {
                            blocked.push((
                                id,
                                PgBlocked {
                                    next_router_port: out_port,
                                    packet,
                                },
                            ));
                        }
                        return;
                    }
                    // Committed flits beat speculative ones.
                    if best.is_none_or(|b| b.speculative && !speculative) {
                        best = Some(Cand {
                            in_port,
                            in_vc: iv,
                            out_port,
                            speculative,
                        });
                    }
                });
            }
            if let Some(c) = best {
                wanted |= 1 << c.out_port.index();
            }
            per_input[in_port] = best;
        }
        // Phase 2: output arbitration, committed-over-speculative, then
        // round-robin over input ports.
        for out_port in Port::ALL {
            if (wanted >> out_port.index()) & 1 == 0 {
                continue;
            }
            let start = self.sa_out_rr[out_port];
            let mut winner: Option<(usize, Cand)> = None;
            for off in 0..5 {
                let ip_idx = (start + off) % 5;
                let Some(c) = per_input[Port::ALL[ip_idx]] else {
                    continue;
                };
                if c.out_port != out_port {
                    continue;
                }
                if winner.is_none_or(|(_, w)| w.speculative && !c.speculative) {
                    winner = Some((ip_idx, c));
                }
            }
            let (ip_idx, c) = winner.expect("a wanted output has a candidate");
            self.sa_out_rr[out_port] = (ip_idx + 1) % 5;
            // Grant: pop the flit, consume a credit, update VC state. One
            // candidate per input port means no other output can pick the
            // same input (each input feeds one crossbar line).
            let VcRoute::Routed { out_vc, .. } = self.inputs[c.in_port][c.in_vc].route else {
                unreachable!("winner must be routed")
            };
            let mut flit = self.pop_front(c.in_port, c.in_vc);
            if flit.kind.is_tail() {
                self.inputs[c.in_port][c.in_vc].route = VcRoute::Unrouted;
                self.out_vc_busy[out_port][out_vc] = false;
            }
            self.out_credits[out_port][out_vc] -= 1;
            self.sa_in_rr[c.in_port] = if c.in_vc + 1 == self.layout.total() {
                0
            } else {
                c.in_vc + 1
            };
            self.activity.buffer_reads += 1;
            self.activity.crossbar_traversals += 1;
            self.activity.sa_grants += 1;
            flit.vc = out_vc;
            departed.push((
                id,
                Departure {
                    out_port,
                    in_port: c.in_port,
                    in_vc: c.in_vc,
                    flit,
                },
            ));
        }
    }
}

/// The test oracle: the full-scan allocators the shipped
/// [`Router::allocate`] replaced, kept verbatim (every `5 * total` VA slot
/// and every SA VC is probed whether or not it holds a flit). Only
/// `Network::tick_reference` and the lock-step differential test below call
/// it; it shares nothing with the shipped path but `latch`/`pop_front`,
/// which is how the occupancy mask stays valid under it.
impl Router {
    /// [`Router::allocate`] by exhaustive rotating-priority scan.
    pub(crate) fn allocate_reference(
        &mut self,
        cycle: Cycle,
        down_on: &PortMap<bool>,
    ) -> AllocOutcome {
        self.vc_allocate_reference(cycle);
        self.switch_allocate_reference(cycle, down_on)
    }

    fn vc_allocate_reference(&mut self, cycle: Cycle) {
        // Gather requests: (in_port, in_vc, out_port) for eligible unrouted heads.
        let mut requests: Vec<(Port, usize, Port)> = Vec::new();
        for (in_port, vcs) in self.inputs.iter() {
            for (in_vc, vc) in vcs.iter().enumerate() {
                if !matches!(vc.route, VcRoute::Unrouted) {
                    continue;
                }
                let Some(front) = vc.front() else { continue };
                if !front.kind.is_head() || front.latched_at >= cycle {
                    continue;
                }
                requests.push((in_port, in_vc, front.route_port));
            }
        }
        // Grant per output port, rotating priority across the global input
        // VC index so no input starves.
        for out_port in Port::ALL {
            let total = self.layout.total();
            let space = 5 * total;
            let start = self.va_rr[out_port] % space;
            let mut granted_any = false;
            for off in 0..space {
                let g = (start + off) % space;
                let (ip_idx, iv) = (g / total, g % total);
                let in_port = Port::ALL[ip_idx];
                if !requests
                    .iter()
                    .any(|&(p, v, o)| p == in_port && v == iv && o == out_port)
                {
                    continue;
                }
                // Find a free output VC of the right vnet/class.
                let front = self.inputs[in_port][iv]
                    .front()
                    .expect("request implies a front flit");
                let cand = self.layout.candidates(front.vnet, front.class);
                let free = cand.clone().find(|&ov| !self.out_vc_busy[out_port][ov]);
                let Some(out_vc) = free else { continue };
                self.out_vc_busy[out_port][out_vc] = true;
                self.inputs[in_port][iv].route = VcRoute::Routed {
                    out_port,
                    out_vc,
                    va_cycle: cycle,
                };
                self.activity.va_grants += 1;
                if !granted_any {
                    // Rotate past the first winner.
                    self.va_rr[out_port] = (g + 1) % space;
                    granted_any = true;
                }
            }
        }
    }

    fn switch_allocate_reference(&mut self, cycle: Cycle, down_on: &PortMap<bool>) -> AllocOutcome {
        let mut outcome = AllocOutcome::default();
        // Phase 0: classify each VC's front flit.
        // candidate = eligible + routed + credit + downstream on.
        // pg_blocked = eligible + routed + credit, downstream off.
        let mut per_input: PortMap<Option<Cand>> = PortMap::default();
        let mut seen_blocked: Vec<PacketId> = Vec::new();
        for in_port in Port::ALL {
            let total = self.layout.total();
            let start = self.sa_in_rr[in_port] % total;
            let mut best: Option<Cand> = None;
            for off in 0..total {
                let iv = (start + off) % total;
                let vc = &self.inputs[in_port][iv];
                let Some(front) = vc.front() else { continue };
                if front.latched_at >= cycle {
                    continue;
                }
                let VcRoute::Routed {
                    out_port,
                    out_vc,
                    va_cycle,
                } = vc.route
                else {
                    continue;
                };
                let speculative = va_cycle == cycle;
                if speculative && self.stages != 3 {
                    continue; // 4-stage: SA starts the cycle after VA.
                }
                if self.out_credits[out_port][out_vc] == 0 {
                    continue; // no downstream buffer space
                }
                if !down_on[out_port] {
                    // Stalled purely by power-gating: report for the WU
                    // handshake and the Fig. 9/10 metrics (once per packet).
                    if !seen_blocked.contains(&front.packet) {
                        seen_blocked.push(front.packet);
                        outcome.pg_blocked.push(PgBlocked {
                            next_router_port: out_port,
                            packet: front.packet,
                        });
                    }
                    continue;
                }
                let cand = Cand {
                    in_port,
                    in_vc: iv,
                    out_port,
                    speculative,
                };
                match &best {
                    None => best = Some(cand),
                    // Committed flits beat speculative ones.
                    Some(b) if b.speculative && !speculative => best = Some(cand),
                    _ => {}
                }
            }
            per_input[in_port] = best;
        }
        // Phase 2: output arbitration, committed-over-speculative, then
        // round-robin over input ports.
        for out_port in Port::ALL {
            let start = self.sa_out_rr[out_port] % 5;
            let mut winner: Option<(usize, Cand)> = None;
            for off in 0..5 {
                let ip_idx = (start + off) % 5;
                let in_port = Port::ALL[ip_idx];
                let Some(c) = per_input[in_port] else {
                    continue;
                };
                if c.out_port != out_port {
                    continue;
                }
                match &winner {
                    None => winner = Some((ip_idx, c)),
                    Some((_, w)) if w.speculative && !c.speculative => {
                        winner = Some((ip_idx, c));
                    }
                    _ => {}
                }
            }
            let Some((ip_idx, c)) = winner else { continue };
            self.sa_out_rr[out_port] = (ip_idx + 1) % 5;
            // Grant: pop the flit, consume a credit, update VC state.
            let VcRoute::Routed { out_vc, .. } = self.inputs[c.in_port][c.in_vc].route else {
                unreachable!("winner must be routed")
            };
            let mut flit = self.pop_front(c.in_port, c.in_vc);
            if flit.kind.is_tail() {
                self.inputs[c.in_port][c.in_vc].route = VcRoute::Unrouted;
                self.out_vc_busy[c.out_port][out_vc] = false;
            }
            self.out_credits[c.out_port][out_vc] -= 1;
            self.sa_in_rr[c.in_port] = (c.in_vc + 1) % self.layout.total();
            self.activity.buffer_reads += 1;
            self.activity.crossbar_traversals += 1;
            self.activity.sa_grants += 1;
            flit.vc = out_vc;
            outcome.departures[c.out_port] = Some(Departure {
                out_port: c.out_port,
                in_port: c.in_port,
                in_vc: c.in_vc,
                flit,
            });
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, MsgClass};
    use punchsim_types::{Direction, SimRng, VnetId};

    fn mk_router() -> Router {
        let cfg = NocConfig::default();
        Router::new(
            NodeId(0),
            VcLayout::new(&cfg),
            3,
            PortMap::from_fn(|_| true),
        )
    }

    fn flit(kind: FlitKind, seq: u16, out: Port) -> Flit {
        Flit {
            packet: PacketId(7),
            kind,
            vnet: VnetId(0),
            class: MsgClass::Data,
            dst: NodeId(9),
            route_port: out,
            vc: 0,
            seq,
            latched_at: 0,
        }
    }

    fn all_on() -> PortMap<bool> {
        PortMap::from_fn(|_| true)
    }

    /// One shipped allocation cycle, collected into the oracle's shape.
    fn allocate(r: &mut Router, cycle: Cycle, down_on: &PortMap<bool>) -> AllocOutcome {
        let (mut blocked, mut departed) = (Vec::new(), Vec::new());
        r.allocate(cycle, |p| down_on[p], &mut blocked, &mut departed);
        let mut out = AllocOutcome::default();
        for (id, b) in blocked {
            assert_eq!(id, r.id());
            out.pg_blocked.push(b);
        }
        for (id, d) in departed {
            assert_eq!(id, r.id());
            let twice = out.departures[d.out_port].replace(d);
            assert_eq!(twice, None, "one flit per crossbar output");
        }
        out
    }

    /// One allocation cycle's departures, in output-port order.
    fn depart(r: &mut Router, cycle: Cycle, down_on: &PortMap<bool>) -> Vec<Departure> {
        let o = allocate(r, cycle, down_on);
        o.departures.iter().filter_map(|(_, d)| *d).collect()
    }

    #[test]
    fn three_stage_head_departs_after_one_alloc_cycle() {
        let mut r = mk_router();
        let out = Port::Link(Direction::East);
        r.latch(Port::Local, flit(FlitKind::HeadTail, 0, out), 10);
        // Not eligible in the latch cycle — and nobody is asked whether a
        // neighbour is on for a flit that could not leave anyway.
        let (mut blocked, mut departed) = (Vec::new(), Vec::new());
        r.allocate(
            10,
            |p| panic!("asked about {p} with nothing to send"),
            &mut blocked,
            &mut departed,
        );
        assert!(blocked.is_empty() && departed.is_empty());
        // Cycle 11: VA + speculative SA both succeed.
        let d = depart(&mut r, 11, &all_on());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].out_port, out);
        assert!(r.datapath_empty());
    }

    #[test]
    fn four_stage_needs_two_alloc_cycles() {
        let cfg = NocConfig::default();
        let mut r = Router::new(
            NodeId(0),
            VcLayout::new(&cfg),
            4,
            PortMap::from_fn(|_| true),
        );
        let out = Port::Link(Direction::East);
        r.latch(Port::Local, flit(FlitKind::HeadTail, 0, out), 10);
        assert!(depart(&mut r, 11, &all_on()).is_empty()); // VA only
        assert_eq!(depart(&mut r, 12, &all_on()).len(), 1);
    }

    #[test]
    fn wormhole_streams_one_flit_per_cycle() {
        let mut r = mk_router();
        let out = Port::Link(Direction::East);
        r.latch(Port::Local, flit(FlitKind::Head, 0, out), 10);
        r.latch(Port::Local, flit(FlitKind::Body, 1, out), 11);
        r.latch(Port::Local, flit(FlitKind::Tail, 2, out), 12);
        let mut got = Vec::new();
        for c in 11..=14 {
            for d in depart(&mut r, c, &all_on()) {
                got.push((c, d.flit.seq));
            }
        }
        assert_eq!(got, vec![(11, 0), (12, 1), (13, 2)]);
        assert!(r.datapath_empty());
    }

    #[test]
    fn blocked_when_downstream_off() {
        let mut r = mk_router();
        let out = Port::Link(Direction::East);
        r.latch(Port::Local, flit(FlitKind::HeadTail, 0, out), 10);
        let mut down = all_on();
        down[out] = false;
        let o = allocate(&mut r, 11, &down);
        assert!(o.departures.iter().all(|(_, d)| d.is_none()));
        assert_eq!(o.pg_blocked.len(), 1);
        assert_eq!(o.pg_blocked[0].next_router_port, out);
        // Downstream wakes: flit proceeds.
        assert_eq!(depart(&mut r, 12, &all_on()).len(), 1);
    }

    #[test]
    fn credits_bound_departures() {
        let mut r = mk_router();
        let out = Port::Link(Direction::East);
        // Data VC 0 downstream has depth 3; stream a 5-flit packet without
        // returning credits: only 3 flits may leave. Latch one flit per
        // cycle (as a link would deliver them), interleaved with allocation
        // so the local 3-deep buffer never overflows.
        let kinds = [
            FlitKind::Head,
            FlitKind::Body,
            FlitKind::Body,
            FlitKind::Body,
            FlitKind::Tail,
        ];
        let mut next = 0usize;
        let mut sent = 0;
        for c in 10..30 {
            if next < kinds.len() && r.occupancy() < 3 {
                r.latch(Port::Local, flit(kinds[next], next as u16, out), c);
                next += 1;
            }
            sent += depart(&mut r, c, &all_on()).len();
        }
        assert_eq!(sent, 3);
        // Return one credit; one more flit flows.
        r.credit(out, 0);
        for c in 30..33 {
            sent += depart(&mut r, c, &all_on()).len();
        }
        assert_eq!(sent, 4);
    }

    #[test]
    fn two_inputs_share_one_output_fairly() {
        let mut r = mk_router();
        let out = Port::Link(Direction::East);
        // Two single-flit packets from different inputs, same output.
        let mut f1 = flit(FlitKind::HeadTail, 0, out);
        f1.packet = PacketId(1);
        let mut f2 = flit(FlitKind::HeadTail, 0, out);
        f2.packet = PacketId(2);
        f2.vc = 1;
        r.latch(Port::Local, f1, 10);
        r.latch(Port::Link(Direction::West), f2, 10);
        let d1 = depart(&mut r, 11, &all_on());
        assert_eq!(d1.len(), 1);
        let d2 = depart(&mut r, 12, &all_on());
        assert_eq!(d2.len(), 1);
        assert_ne!(d1[0].flit.packet, d2[0].flit.packet);
    }

    #[test]
    fn distinct_outputs_depart_same_cycle() {
        let mut r = mk_router();
        let mut f1 = flit(FlitKind::HeadTail, 0, Port::Link(Direction::East));
        f1.packet = PacketId(1);
        let mut f2 = flit(FlitKind::HeadTail, 0, Port::Link(Direction::South));
        f2.packet = PacketId(2);
        r.latch(Port::Link(Direction::West), f1, 10);
        r.latch(Port::Link(Direction::North), f2, 10);
        assert_eq!(depart(&mut r, 11, &all_on()).len(), 2);
    }

    #[test]
    fn control_flits_use_control_vc() {
        let mut r = mk_router();
        let out = Port::Link(Direction::East);
        let mut f = flit(FlitKind::HeadTail, 0, out);
        f.class = MsgClass::Control;
        f.vc = 2; // control VC of vnet 0
        r.latch(Port::Local, f, 10);
        let d = depart(&mut r, 11, &all_on());
        assert_eq!(d.len(), 1);
        // Granted downstream VC must be the control VC (index 2).
        assert_eq!(d[0].flit.vc, 2);
    }

    #[test]
    fn vc_allocation_exclusive_until_tail() {
        let mut r = mk_router();
        let out = Port::Link(Direction::East);
        // Packet A (multi-flit, in VC0) claims downstream VC 0 and stalls
        // after head (no more flits yet). Packet B in VC1 must get VC 1.
        let mut head_a = flit(FlitKind::Head, 0, out);
        head_a.packet = PacketId(1);
        head_a.vc = 0;
        let mut head_b = flit(FlitKind::Head, 0, out);
        head_b.packet = PacketId(2);
        head_b.vc = 1;
        r.latch(Port::Local, head_a, 10);
        r.latch(Port::Local, head_b, 10);
        let mut out_vcs = Vec::new();
        for c in 11..14 {
            for d in depart(&mut r, c, &all_on()) {
                out_vcs.push(d.flit.vc);
            }
        }
        out_vcs.sort_unstable();
        assert_eq!(out_vcs, vec![0, 1]);
    }

    /// The occupancy mask, checked without relying on debug assertions.
    fn assert_mask_in_sync(r: &Router) {
        for (port, vcs) in r.inputs.iter() {
            for (v, vc) in vcs.iter().enumerate() {
                assert_eq!(
                    (r.occ[port] >> v) & 1 == 1,
                    !vc.is_empty(),
                    "occupancy bit of {port} vc{v}"
                );
            }
        }
        assert_eq!(r.datapath_empty(), r.occupancy() == 0);
    }

    fn layout(vnets: u8, data: u8, ctrl: u8) -> VcLayout {
        VcLayout::new(&NocConfig {
            vnets,
            data_vcs_per_vnet: data,
            ctrl_vcs_per_vnet: ctrl,
            ..NocConfig::default()
        })
    }

    /// The packet an upstream is streaming into one input VC.
    #[derive(Clone, Copy)]
    struct Stream {
        packet: PacketId,
        out: Port,
        next_seq: u16,
        len: u16,
    }

    /// Drives two clones of one router in lock-step from one random
    /// stimulus — latches that honour the buffer depth (as upstream credits
    /// would), credit returns and per-port downstream power — one through
    /// the shipped allocators, one through the full-scan oracle, and
    /// demands equal outcomes and equal state every cycle.
    fn lockstep(layout: VcLayout, stages: u8, seed: u64) {
        let total = layout.total();
        let mut new = Router::new(NodeId(0), layout, stages, PortMap::from_fn(|_| true));
        let mut old = new.clone();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut streams: PortMap<Vec<Option<Stream>>> = PortMap::from_fn(|_| vec![None; total]);
        // Credits this router consumed and the downstream has yet to return.
        let mut owed: PortMap<Vec<u32>> = PortMap::from_fn(|_| vec![0; total]);
        let mut next_packet = 0u64;
        let (mut departed, mut blocked) = (0u64, 0u64);
        for cycle in 1..=2_000u64 {
            for in_port in Port::ALL {
                if !rng.random_bool_ppm(600_000) {
                    continue;
                }
                let vc = rng.random_range(0..total);
                let q = &new.inputs[in_port][vc];
                if q.len() == q.depth() {
                    continue; // no credit upstream
                }
                let st = streams[in_port][vc].get_or_insert_with(|| {
                    next_packet += 1;
                    Stream {
                        packet: PacketId(next_packet),
                        out: Port::ALL[rng.random_range(0..5usize)],
                        next_seq: 0,
                        len: rng.random_range(1..6u16),
                    }
                });
                let kind = match (st.next_seq == 0, st.next_seq + 1 == st.len) {
                    (true, true) => FlitKind::HeadTail,
                    (true, false) => FlitKind::Head,
                    (false, true) => FlitKind::Tail,
                    (false, false) => FlitKind::Body,
                };
                let f = Flit {
                    packet: st.packet,
                    kind,
                    vnet: layout.vnet(vc),
                    class: layout.class(vc),
                    dst: NodeId(9),
                    route_port: st.out,
                    vc,
                    seq: st.next_seq,
                    latched_at: 0,
                };
                st.next_seq += 1;
                if kind.is_tail() {
                    streams[in_port][vc] = None;
                }
                new.latch(in_port, f, cycle);
                old.latch(in_port, f, cycle);
            }
            for out_port in Port::ALL {
                for vc in 0..total {
                    if owed[out_port][vc] > 0 && rng.random_bool_ppm(300_000) {
                        owed[out_port][vc] -= 1;
                        new.credit(out_port, vc);
                        old.credit(out_port, vc);
                    }
                }
            }
            let down_on = PortMap::from_fn(|p| p == Port::Local || !rng.random_bool_ppm(250_000));
            let got = allocate(&mut new, cycle, &down_on);
            let want = old.allocate_reference(cycle, &down_on);
            assert_eq!(got, want, "cycle {cycle}");
            assert_eq!(new.activity, old.activity, "cycle {cycle}");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            new.encode_state(&mut a);
            old.encode_state(&mut b);
            assert_eq!(a, b, "cycle {cycle}");
            assert_mask_in_sync(&new);
            assert_mask_in_sync(&old);
            blocked += got.pg_blocked.len() as u64;
            for (_, d) in got.departures.iter() {
                if let Some(d) = d {
                    departed += 1;
                    owed[d.out_port][d.flit.vc] += 1;
                }
            }
        }
        // The stimulus must actually exercise grants and PG stalls.
        assert!(departed > 500, "only {departed} departures");
        assert!(blocked > 50, "only {blocked} PG-blocked reports");
    }

    #[test]
    fn request_driven_allocators_match_the_full_scan_in_lockstep() {
        let layouts = [
            layout(3, 2, 1), // Table 2 default
            layout(1, 1, 0), // a single VC per port
            layout(4, 3, 2),
            layout(4, 5, 3), // the 32-VC mask width
        ];
        assert_eq!(layouts[3].total(), NocConfig::MAX_VCS_PER_PORT);
        for (i, l) in layouts.into_iter().enumerate() {
            for stages in [3, 4] {
                lockstep(l, stages, 0x5EED + i as u64 * 2 + stages as u64);
            }
        }
    }

    #[test]
    fn rotating_pointers_wrap_past_the_last_slot() {
        let mut r = mk_router();
        let total = r.layout.total();
        let (west, out) = (Port::Link(Direction::West), Port::Link(Direction::East));
        // The last VC (vnet 2 control) of the last input port is the last
        // VA slot, g = 5 * total - 1.
        let mut f = flit(FlitKind::HeadTail, 0, out);
        f.vnet = VnetId(2);
        f.class = MsgClass::Control;
        f.vc = total - 1;
        r.va_rr[out] = 5 * total - 1;
        r.sa_in_rr[west] = total - 1;
        r.sa_out_rr[out] = 4;
        r.latch(west, f, 10);
        assert_eq!(depart(&mut r, 11, &all_on()).len(), 1);
        assert_eq!(r.va_rr[out], 0);
        assert_eq!(r.sa_in_rr[west], 0);
        assert_eq!(r.sa_out_rr[out], 0);
    }

    #[test]
    fn pg_stall_is_reported_once_per_packet_per_cycle() {
        let mut r = mk_router();
        let out = Port::Link(Direction::East);
        // Three flits of packet 7 fill VC 0 of the local port, and a flit
        // carrying the same packet id sits at another input.
        r.latch(Port::Local, flit(FlitKind::Head, 0, out), 10);
        r.latch(Port::Local, flit(FlitKind::Body, 1, out), 10);
        r.latch(Port::Local, flit(FlitKind::Body, 2, out), 10);
        let mut twin = flit(FlitKind::HeadTail, 0, out);
        twin.vc = 1;
        r.latch(Port::Link(Direction::West), twin, 10);
        let mut down = all_on();
        down[out] = false;
        // The vectors are shared across routers: a report another router
        // already made for the same packet id must not swallow this one.
        let elsewhere = (
            NodeId(5),
            PgBlocked {
                next_router_port: out,
                packet: PacketId(7),
            },
        );
        for cycle in 11..16 {
            let (mut blocked, mut departed) = (vec![elsewhere], Vec::new());
            r.allocate(cycle, |p| down[p], &mut blocked, &mut departed);
            assert!(departed.is_empty());
            assert_eq!(blocked.len(), 2, "cycle {cycle}");
            assert_eq!(blocked[0], elsewhere);
            assert_eq!(blocked[1].0, r.id());
            assert_eq!(blocked[1].1.packet, PacketId(7));
            assert_eq!(blocked[1].1.next_router_port, out);
        }
        assert_eq!(r.occupancy(), 4);
    }
}
