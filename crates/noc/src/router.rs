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
//!
//! Router state is plain data: a pool of the buffered flits that links each
//! input VC's FIFO, one control word per input VC, and per port a few `u32`
//! words with one bit per VC, which the allocators walk instead of the VCs.

use punchsim_types::{Cycle, Direction, NocConfig, NodeId, PacketId, Port, PortMap};

use crate::flit::Flit;
use crate::vc::{FlitPool, VcLayout, VcState};

/// Per-router dynamic-activity counters consumed by the power model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterActivity {
    /// Flits latched into input buffers (BW operations).
    pub buffer_writes: u64,
    /// Successful VC allocations.
    pub va_grants: u64,
    /// Switch-allocation grants: each one is a buffer read and a crossbar
    /// traversal of the granted flit.
    pub sa_grants: u64,
}

impl RouterActivity {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, o: &RouterActivity) {
        self.buffer_writes += o.buffer_writes;
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
    pub in_vc: u8,
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
/// `Router::allocate_reference` returns. The shipped [`Router::allocate`]
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

/// One mesh router: five ports of VC buffers plus separable VA/SA allocators.
///
/// Two heap blocks whatever the VC count, the VC control words and the link
/// credits, plus the flit pool's two once a flit arrives. Every other field
/// is a fixed-size word or array — one bit per VC — indexed by
/// [`Port::index`].
#[derive(Debug, Clone)]
pub struct Router {
    id: NodeId,
    layout: VcLayout,
    stages: u8,
    /// The buffered flits of every input VC.
    pool: FlitPool,
    /// One control word per input VC, indexed `port * total + vc`.
    vcs: Box<[VcState]>,
    /// Credits toward each downstream VC of the four link outputs, indexed
    /// `direction * total + vc`. The `Local` output has none: the NI is a
    /// guaranteed sink (DESIGN §4), so ejection is never credit-limited.
    credits: Box<[u8]>,
    /// Per input port, bit `v` set iff VC `v` holds at least one flit.
    /// Kept in sync by `latch` and `pop_front`.
    occ: [u32; 5],
    /// Per input port, bit `v` set iff VC `v`'s front packet owns an output
    /// VC (won VA, tail not yet granted SA); the route is in its
    /// [`VcState`].
    routed: [u32; 5],
    /// Per input port, bit `v` set iff VC `v` was empty when a flit latched
    /// into it during cycle `fresh_at`: that flit is its front and still in
    /// its BW cycle. Read as all-clear once the clock has passed
    /// `fresh_at`.
    fresh: [u32; 5],
    fresh_at: Cycle,
    /// Per output port, bit `v` set iff downstream VC `v` is owned by an
    /// in-flight packet.
    out_vc_busy: [u32; 5],
    va_rr: [u8; 5],
    sa_in_rr: [u8; 5],
    sa_out_rr: [u8; 5],
    /// Total flits across all input VCs, kept in sync by `latch` and
    /// `pop_front` so `datapath_empty` is O(1).
    buffered: u32,
    /// Activity counters for the power model.
    pub activity: RouterActivity,
}

/// The set bits of `mask`, ascending.
#[inline]
pub(crate) fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// The mask with bit `i` set iff `flags[i]` is: built branch-free, so a
/// walk of its [`bits`] pays only for the ports or lanes that hold work.
#[inline]
pub(crate) fn mask_of<const N: usize>(flags: [bool; N]) -> u32 {
    (0..N).fold(0, |mask, i| mask | u32::from(flags[i]) << i)
}

/// Bit `v` of word `w`.
#[inline]
fn bit(w: u32, v: usize) -> bool {
    (w >> v) & 1 == 1
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
    /// such configs before a network builds its routers). Within that width
    /// every layout's buffer slots fit the flit pool's `u16` links.
    pub fn new(id: NodeId, layout: VcLayout, stages: u8, has_neighbor: PortMap<bool>) -> Self {
        let total = layout.total();
        assert!(
            total <= NocConfig::MAX_VCS_PER_PORT,
            "{total} VCs per port exceed the occupancy-mask width"
        );
        const { assert!(5 * NocConfig::MAX_VCS_PER_PORT * 255 < u16::MAX as usize) };
        let vcs = (0..5 * total)
            .map(|i| VcState::new(layout.depth(i % total)))
            .collect();
        let credits = (0..4 * total)
            .map(|i| {
                let linked = has_neighbor[Port::Link(Direction::ALL[i / total])];
                if linked {
                    layout.depth(i % total) as u8
                } else {
                    0
                }
            })
            .collect();
        Router {
            id,
            layout,
            stages,
            pool: FlitPool::new(),
            vcs,
            credits,
            occ: [0; 5],
            routed: [0; 5],
            fresh: [0; 5],
            fresh_at: 0,
            out_vc_busy: [0; 5],
            va_rr: [0; 5],
            sa_in_rr: [0; 5],
            sa_out_rr: [0; 5],
            buffered: 0,
            activity: RouterActivity::default(),
        }
    }

    /// This router's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The control word of input VC `(p, v)`, `p` a [`Port::index`].
    #[inline]
    fn vc(&self, p: usize, v: usize) -> &VcState {
        &self.vcs[p * self.layout.total() + v]
    }

    /// The front flit of input VC `(p, v)`, if it holds any.
    fn front(&self, p: usize, v: usize) -> Option<&Flit> {
        let vc = self.vc(p, v);
        (!vc.is_empty()).then(|| vc.front(&self.pool))
    }

    /// Per input port, the VCs whose front flit is in its BW cycle during
    /// `cycle` (see [`Router::latch`]).
    #[inline]
    fn fresh_words(&self, cycle: Cycle) -> [u32; 5] {
        if self.fresh_at == cycle {
            self.fresh
        } else {
            [0; 5]
        }
    }

    /// Latches `flit` into input `port` (the BW stage) during `cycle`.
    ///
    /// A VC's front flit is in its BW cycle exactly when the VC was empty
    /// and the flit latched this cycle: a flit latched behind another
    /// cannot reach the front before the next cycle's allocation, because
    /// the wire into a port delivers at most one flit per cycle (the wheel
    /// asserts it) and allocation follows delivery. So `latch` records that
    /// case in the `fresh` word instead of stamping the flit.
    pub fn latch(&mut self, port: Port, flit: Flit, cycle: Cycle) {
        let (p, v) = (port.index(), flit.vc as usize);
        if self.fresh_at != cycle {
            self.fresh = [0; 5];
            self.fresh_at = cycle;
        }
        let vc = &mut self.vcs[p * self.layout.total() + v];
        if vc.is_empty() {
            self.fresh[p] |= 1 << v;
        }
        vc.push(&mut self.pool, flit);
        self.occ[p] |= 1 << v;
        self.buffered += 1;
        self.activity.buffer_writes += 1;
    }

    /// Pops the front flit of input VC `(p, v)` on an SA grant — the one
    /// place flits leave the buffers, so the buffered count and the
    /// occupancy mask stay in sync under either allocator.
    fn pop_front(&mut self, p: usize, v: usize) -> Flit {
        let vc = &mut self.vcs[p * self.layout.total() + v];
        let flit = vc.pop(&mut self.pool);
        if vc.is_empty() {
            self.occ[p] &= !(1 << v);
        }
        self.buffered -= 1;
        flit
    }

    /// Returns a credit for downstream VC `vc` of the link output toward
    /// `dir`. There is no `Local` credit: ejection is not a credit loop.
    pub fn credit(&mut self, dir: Direction, vc: usize) {
        let c = &mut self.credits[dir.index() * self.layout.total() + vc];
        *c += 1;
        debug_assert!(
            *c as usize <= self.layout.depth(vc),
            "credit overflow on {dir} vc{vc}"
        );
    }

    /// `true` when output `port` may send one more flit on downstream VC
    /// `vc` (always, for `Local`).
    #[inline]
    fn has_credit(&self, port: Port, vc: usize) -> bool {
        match port {
            Port::Local => true,
            Port::Link(d) => self.credits[d.index() * self.layout.total() + vc] > 0,
        }
    }

    /// Spends the credit [`Router::has_credit`] saw.
    #[inline]
    fn spend_credit(&mut self, port: Port, vc: usize) {
        if let Port::Link(d) = port {
            self.credits[d.index() * self.layout.total() + vc] -= 1;
        }
    }

    /// Marks input VC `(p, v)`'s front packet as owning `out_vc` of
    /// `out_port`, and records the grant in the caller's `granted` word.
    fn route(&mut self, p: usize, v: usize, out_port: Port, out_vc: usize, granted: &mut [u32; 5]) {
        self.out_vc_busy[out_port.index()] |= 1 << out_vc;
        self.routed[p] |= 1 << v;
        granted[p] |= 1 << v;
        let vc = &mut self.vcs[p * self.layout.total() + v];
        vc.out_port = out_port.index() as u8;
        vc.out_vc = out_vc as u8;
        self.activity.va_grants += 1;
    }

    /// Debug builds cross-check the derived summaries: `buffered` and the
    /// occupancy mask against the VCs, the VCs against the flit pool, and
    /// `out_vc_busy` against the routes of the `routed` VCs, one owner per
    /// busy output VC. The tick kernel asks [`Router::datapath_empty`] after
    /// every allocation.
    fn debug_check_summaries(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let total = self.layout.total();
        let (mut flits, mut owned, mut owners) = (0, [0u32; 5], [0u32; 5]);
        for (i, vc) in self.vcs.iter().enumerate() {
            let (p, v) = (i / total, i % total);
            assert_eq!(bit(self.occ[p], v), !vc.is_empty(), "occupancy {p}/{v}");
            flits += vc.len();
            if bit(self.routed[p], v) {
                owned[vc.out_port as usize] |= 1 << vc.out_vc;
                owners[vc.out_port as usize] += 1;
            }
        }
        assert_eq!(self.buffered as usize, flits, "buffered-flit counter");
        self.pool.check(&self.vcs);
        let (busy, counts) = (self.out_vc_busy, self.out_vc_busy.map(u32::count_ones));
        assert_eq!((owned, owners), (busy, counts), "output VC owners");
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
    /// single zero byte; otherwise its flits front first and its route),
    /// link-port credit *deficits* (depth minus current credits, so a
    /// fully-credited idle router encodes as zeros), output-VC ownership
    /// and the three round-robin pointers. The `Local` output has no
    /// credits to encode. Activity counters are statistics, and `fresh`
    /// only distinguishes the current cycle, which between ticks has
    /// passed; both are excluded per the snapshot rules. Which heads won VA
    /// this cycle is no state at all: `allocate` hands that word from VA to
    /// SA within one call.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_bool, put_u8};
        let total = self.layout.total();
        for (i, vc) in self.vcs.iter().enumerate() {
            let routed = bit(self.routed[i / total], i % total);
            if vc.is_empty() && !routed {
                put_u8(out, 0);
                continue;
            }
            put_u8(out, 1);
            put_u8(out, vc.len() as u8);
            for flit in vc.flits(&self.pool) {
                flit.encode_state(out);
            }
            if routed {
                put_u8(out, 1);
                put_u8(out, vc.out_port);
                put_u8(out, vc.out_vc);
            } else {
                put_u8(out, 0);
            }
        }
        for (i, &c) in self.credits.iter().enumerate() {
            put_u8(out, (self.layout.depth(i % total) as u8).saturating_sub(c));
        }
        for busy in self.out_vc_busy {
            for v in 0..total {
                put_bool(out, bit(busy, v));
            }
        }
        // Every pointer fits a byte: `va_rr < 5 * MAX_VCS_PER_PORT = 160`.
        out.extend_from_slice(&self.va_rr);
        out.extend_from_slice(&self.sa_in_rr);
        out.extend_from_slice(&self.sa_out_rr);
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
    /// Cost follows the ports and VCs that hold work, not ports x VCs:
    /// each allocator walks the mask of input ports whose eligible word
    /// (`occ`/`routed`/`fresh`) is non-zero and, in each, that word's set
    /// bits, and arbitrates only the outputs some input asked for. Grants
    /// are those of the rotating-priority full scan, which survives as the
    /// test oracle `Router::allocate_reference`.
    pub fn allocate(
        &mut self,
        cycle: Cycle,
        down_on: impl FnMut(Port) -> bool,
        blocked: &mut Vec<(NodeId, PgBlocked)>,
        departed: &mut Vec<(NodeId, Departure)>,
    ) {
        let fresh = self.fresh_words(cycle);
        let granted = self.vc_allocate(&fresh);
        self.switch_allocate(&fresh, &granted, down_on, blocked, departed);
    }

    /// VC allocation: head flits at the front of their VC request an output
    /// VC of their (vnet, class) at their look-ahead output port. Returns,
    /// per input port, the VCs it granted.
    fn vc_allocate(&mut self, fresh: &[u32; 5]) -> [u32; 5] {
        let mut granted = [0u32; 5];
        let unrouted: [u32; 5] = std::array::from_fn(|p| self.occ[p] & !self.routed[p] & !fresh[p]);
        let from = mask_of(unrouted.map(|w| w != 0));
        if from == 0 {
            return granted;
        }
        // Gather requests once, as per-output words: `req[o][p]` bit `v`
        // set iff VC `(p, v)` holds an eligible unrouted head for output
        // `o`, and `asked[o]` bit `p` set iff `req[o][p]` is non-zero.
        let (mut req, mut asked) = ([[0u32; 5]; 5], [0u32; 5]);
        for p in bits(from) {
            for v in bits(unrouted[p]) {
                let front = self.vc(p, v).front(&self.pool);
                if front.kind().is_head() {
                    let o = front.route_port.index();
                    req[o][p] |= 1 << v;
                    asked[o] |= 1 << p;
                }
            }
        }
        // Grant per output port, rotating priority across the global input
        // VC index `g = p * total + v`: the walk starts at `va_rr`'s bit of
        // its port `sp`, runs through the later requesting ports, wraps
        // round the earlier ones and ends with the bits of `sp` below
        // `va_rr` — the order of a full scan of all `5 * total` slots
        // (DESIGN §15).
        let total = self.layout.total();
        for o in bits(mask_of(asked.map(|ports| ports != 0))) {
            let (out_port, start) = (Port::ALL[o], self.va_rr[o] as usize);
            let (sp, sv) = (start / total, start % total);
            let at_or_above = !0u32 << sv;
            // The walk's steps `k`: 0 is port `sp` from bit `sv` up, 1–4
            // the other requesting ports, port `(sp + k) % 5` at step `k`
            // (their 5-bit set rotated right by `sp`), and 5 is port `sp`
            // below `sv`.
            let others = asked[o] & !(1 << sp);
            let rotated = ((others >> sp) | (others << (5 - sp))) & 0x1f;
            let mut granted_any = false;
            for k in bits(1 | rotated | 1 << 5) {
                let (p, mask) = match k {
                    0 => (sp, at_or_above),
                    5 => (sp, !at_or_above),
                    _ => ((sp + k) % 5, !0),
                };
                for v in bits(req[o][p] & mask) {
                    let front = self.vc(p, v).front(&self.pool);
                    let free = self.layout.candidate_mask(front.vnet(), front.class())
                        & !self.out_vc_busy[o];
                    if free == 0 {
                        continue;
                    }
                    self.route(p, v, out_port, free.trailing_zeros() as usize, &mut granted);
                    if !granted_any {
                        // Rotate past the first winner.
                        let g = p * total + v;
                        self.va_rr[o] = if g + 1 == 5 * total { 0 } else { g as u8 + 1 };
                        granted_any = true;
                    }
                }
            }
        }
        granted
    }

    /// Separable input-first switch allocation with speculation support:
    /// the VCs in `granted` won VA in this call, so in 3-stage mode they
    /// compete speculatively and in 4-stage mode not yet.
    fn switch_allocate(
        &mut self,
        fresh: &[u32; 5],
        granted: &[u32; 5],
        mut down_on: impl FnMut(Port) -> bool,
        blocked: &mut Vec<(NodeId, PgBlocked)>,
        departed: &mut Vec<(NodeId, Departure)>,
    ) {
        let id = self.id;
        // This router's reports start here: the once-per-packet check
        // below looks no further back.
        let first_blocked = blocked.len();
        // Phase 1: each input port with an eligible VC — routed, past its
        // BW cycle and, in 4-stage mode, not routed in this call — offers
        // one front flit, as its VC in `pick` and its bit in the request
        // word of its output, committed (`req[0][o]`) or speculative
        // (`req[1][o]`); `outs` collects the outputs asked for.
        // candidate = credit + downstream on; blocked = credit, downstream
        // off.
        let total = self.layout.total();
        let held = if self.stages == 3 { 0 } else { !0 };
        let eligible: [u32; 5] = std::array::from_fn(|p| {
            self.occ[p] & self.routed[p] & !fresh[p] & !(granted[p] & held)
        });
        let (mut pick, mut req, mut outs) = ([0u8; 5], [[0u8; 5]; 2], 0u32);
        for p in bits(mask_of(eligible.map(|w| w != 0))) {
            // Rotating priority from `r = sa_in_rr`: the eligible word
            // rotated right by `r` within `total` bits, so bit `k` is VC
            // `(r + k) % total` — the VCs at or above the pointer first,
            // then the wrapped-around ones below it.
            let (r, word) = (self.sa_in_rr[p] as usize, u64::from(eligible[p]));
            let rotated = ((word | word << total) >> r) & ((1 << total) - 1);
            // The pick so far: (VC, output, speculative).
            let mut best: Option<(usize, usize, bool)> = None;
            for k in bits(rotated as u32) {
                let v = if r + k >= total { r + k - total } else { r + k };
                let vc = self.vc(p, v);
                let (out_port, out_vc) = (Port::ALL[vc.out_port as usize], vc.out_vc);
                if !self.has_credit(out_port, out_vc as usize) {
                    continue; // no downstream buffer space
                }
                if !down_on(out_port) {
                    // Stalled purely by power-gating: report for the WU
                    // handshake and the Fig. 9/10 metrics (once per packet).
                    let packet = vc.front(&self.pool).packet;
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
                    continue;
                }
                // Committed flits beat speculative ones.
                let spec = bit(granted[p], v);
                if best.is_none_or(|(_, _, s)| s && !spec) {
                    best = Some((v, vc.out_port as usize, spec));
                }
            }
            if let Some((v, o, spec)) = best {
                pick[p] = v as u8;
                req[usize::from(spec)][o] |= 1 << p;
                outs |= 1 << o;
            }
        }
        // Phase 2: arbitration of the requested outputs, committed over
        // speculative, then the first requesting input at or after
        // `sa_out_rr` — the request word rotated by the pointer (DESIGN
        // §15).
        for o in bits(outs) {
            let out_port = Port::ALL[o];
            let word = if req[0][o] != 0 { req[0][o] } else { req[1][o] };
            let from = word & (!0u8 << self.sa_out_rr[o]);
            let p = if from != 0 { from } else { word }.trailing_zeros() as usize;
            self.sa_out_rr[o] = if p == 4 { 0 } else { p as u8 + 1 };
            // Grant: pop the flit, consume a credit, update VC state. Each
            // input's bit sits in one request word, so no other output can
            // pick the same input (each input feeds one crossbar line).
            let v = pick[p] as usize;
            let out_vc = self.vc(p, v).out_vc;
            let mut flit = self.pop_front(p, v);
            if flit.kind().is_tail() {
                self.routed[p] &= !(1 << v);
                self.out_vc_busy[o] &= !(1 << out_vc);
            }
            self.spend_credit(out_port, out_vc as usize);
            self.sa_in_rr[p] = if v + 1 == total { 0 } else { v as u8 + 1 };
            self.activity.sa_grants += 1;
            flit.vc = out_vc;
            departed.push((
                id,
                Departure {
                    out_port,
                    in_port: Port::ALL[p],
                    in_vc: v as u8,
                    flit,
                },
            ));
        }
    }
}

/// The oracle's switch-allocation candidate: the front flit one input port
/// offers.
#[derive(Clone, Copy)]
struct Cand {
    in_port: Port,
    in_vc: usize,
    out_port: Port,
    speculative: bool,
}

/// The test oracle: the full-scan allocators the shipped
/// [`Router::allocate`] replaced (every `5 * total` VA slot and every SA VC
/// is probed whether or not it holds a flit, each output scans all five
/// inputs, and nothing reads a request word). Only `Network::tick_reference`
/// and the lock-step differential test below call it. It shares the
/// router's storage with the shipped path — the pool, `latch`/`pop_front`,
/// the `fresh` word and VA's word of this call's grants — which is why the
/// lock-step test also runs the pool against a plain FIFO per VC.
impl Router {
    /// [`Router::allocate`] by exhaustive rotating-priority scan.
    pub(crate) fn allocate_reference(
        &mut self,
        cycle: Cycle,
        down_on: &PortMap<bool>,
    ) -> AllocOutcome {
        let fresh = self.fresh_words(cycle);
        let granted = self.vc_allocate_reference(&fresh);
        self.switch_allocate_reference(&fresh, &granted, down_on)
    }

    fn vc_allocate_reference(&mut self, fresh: &[u32; 5]) -> [u32; 5] {
        let total = self.layout.total();
        let mut granted = [0u32; 5];
        // Gather requests: (in_port, in_vc, out_port) for eligible unrouted heads.
        let mut requests: Vec<(Port, usize, Port)> = Vec::new();
        for (p, in_port) in Port::ALL.into_iter().enumerate() {
            for in_vc in 0..total {
                if bit(self.routed[p], in_vc) {
                    continue;
                }
                let Some(front) = self.front(p, in_vc) else {
                    continue;
                };
                if !front.kind().is_head() || bit(fresh[p], in_vc) {
                    continue;
                }
                requests.push((in_port, in_vc, front.route_port));
            }
        }
        // Grant per output port, rotating priority across the global input
        // VC index so no input starves.
        for out_port in Port::ALL {
            let o = out_port.index();
            let space = 5 * total;
            let start = self.va_rr[o] as usize % space;
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
                let front = *self
                    .front(ip_idx, iv)
                    .expect("request implies a front flit");
                let mut cand = self.layout.candidates(front.vnet(), front.class());
                let free = cand.find(|&ov| !bit(self.out_vc_busy[o], ov));
                let Some(out_vc) = free else { continue };
                self.route(ip_idx, iv, out_port, out_vc, &mut granted);
                if !granted_any {
                    // Rotate past the first winner.
                    self.va_rr[o] = ((g + 1) % space) as u8;
                    granted_any = true;
                }
            }
        }
        granted
    }

    fn switch_allocate_reference(
        &mut self,
        fresh: &[u32; 5],
        granted: &[u32; 5],
        down_on: &PortMap<bool>,
    ) -> AllocOutcome {
        let mut outcome = AllocOutcome::default();
        let total = self.layout.total();
        // Phase 0: classify each VC's front flit.
        // candidate = eligible + routed + credit + downstream on.
        // pg_blocked = eligible + routed + credit, downstream off.
        let mut per_input: PortMap<Option<Cand>> = PortMap::default();
        let mut seen_blocked: Vec<PacketId> = Vec::new();
        for (p, in_port) in Port::ALL.into_iter().enumerate() {
            let start = self.sa_in_rr[p] as usize % total;
            let mut best: Option<Cand> = None;
            for off in 0..total {
                let iv = (start + off) % total;
                let Some(front) = self.front(p, iv) else {
                    continue;
                };
                if bit(fresh[p], iv) || !bit(self.routed[p], iv) {
                    continue;
                }
                let vc = self.vc(p, iv);
                let (out_port, out_vc) = (Port::ALL[vc.out_port as usize], vc.out_vc as usize);
                let speculative = bit(granted[p], iv);
                if speculative && self.stages != 3 {
                    continue; // 4-stage: SA starts the cycle after VA.
                }
                if !self.has_credit(out_port, out_vc) {
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
            let o = out_port.index();
            let start = self.sa_out_rr[o] as usize % 5;
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
            self.sa_out_rr[o] = ((ip_idx + 1) % 5) as u8;
            // Grant: pop the flit, consume a credit, update VC state.
            let out_vc = self.vc(ip_idx, c.in_vc).out_vc;
            let mut flit = self.pop_front(ip_idx, c.in_vc);
            if flit.kind().is_tail() {
                self.routed[ip_idx] &= !(1 << c.in_vc);
                self.out_vc_busy[o] &= !(1 << out_vc);
            }
            self.spend_credit(c.out_port, out_vc as usize);
            self.sa_in_rr[ip_idx] = ((c.in_vc + 1) % total) as u8;
            self.activity.sa_grants += 1;
            flit.vc = out_vc;
            outcome.departures[c.out_port] = Some(Departure {
                out_port: c.out_port,
                in_port: c.in_port,
                in_vc: c.in_vc as u8,
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
    use punchsim_types::{SimRng, VnetId};
    use std::collections::VecDeque;

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
        let mut f = Flit::new(PacketId(7), kind, VnetId(0), MsgClass::Data, NodeId(9), seq);
        f.route_port = out;
        f
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
        r.credit(Direction::East, 0);
        for c in 30..33 {
            sent += depart(&mut r, c, &all_on()).len();
        }
        assert_eq!(sent, 4);
    }

    /// Ejection is not a credit loop: nothing ever returns a `Local`
    /// credit, and a VC keeps ejecting however many flits it has sent.
    #[test]
    fn ejection_spends_no_credit() {
        let mut r = mk_router();
        let mut sent = 0;
        for c in 10..40 {
            let mut f = flit(FlitKind::HeadTail, 0, Port::Local);
            f.packet = PacketId(c);
            r.latch(Port::Link(Direction::West), f, c);
            sent += depart(&mut r, c, &all_on()).len();
        }
        assert_eq!(sent, 29, "every flit after the first ejects next cycle");
        assert_eq!(r.credits, mk_router().credits);
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
        let mut f = Flit::new(
            PacketId(7),
            FlitKind::HeadTail,
            VnetId(0),
            MsgClass::Control,
            NodeId(9),
            0,
        );
        f.route_port = out;
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
        let total = r.layout.total();
        for (i, vc) in r.vcs.iter().enumerate() {
            assert_eq!(
                bit(r.occ[i / total], i % total),
                !vc.is_empty(),
                "occupancy bit of port {} vc{}",
                i / total,
                i % total
            );
        }
        assert_eq!(r.datapath_empty(), r.occupancy() == 0);
    }

    fn layout(vnets: u8, data: u8, ctrl: u8, data_depth: u8, ctrl_depth: u8) -> VcLayout {
        VcLayout::new(&NocConfig {
            vnets,
            data_vcs_per_vnet: data,
            ctrl_vcs_per_vnet: ctrl,
            data_vc_depth: data_depth,
            ctrl_vc_depth: ctrl_depth,
            ..NocConfig::default()
        })
    }

    /// The pool oracle: one `VecDeque` per input VC, fed the same latches
    /// and pops as the router, so a pool bug cannot hide behind the
    /// storage the two allocators share.
    struct Fifos {
        total: usize,
        queues: Vec<VecDeque<Flit>>,
    }

    impl Fifos {
        fn new(total: usize) -> Self {
            Fifos {
                total,
                queues: vec![VecDeque::new(); 5 * total],
            }
        }

        fn latch(&mut self, port: Port, flit: Flit) {
            self.queues[port.index() * self.total + flit.vc as usize].push_back(flit);
        }

        /// Pops what `d` took out of its input VC: the same flit, bar the
        /// downstream VC it now carries.
        fn depart(&mut self, d: &Departure) {
            let q = &mut self.queues[d.in_port.index() * self.total + d.in_vc as usize];
            let want = q.pop_front().expect("departure from an empty FIFO");
            let mut got = d.flit;
            got.vc = want.vc;
            assert_eq!(got, want);
        }

        /// Equal lengths and fronts for every VC, and the input-VC part of
        /// `r`'s encoding byte for byte (routes read from `r`: the FIFOs
        /// model storage, not allocation).
        fn check(&self, r: &Router, cycle: Cycle) {
            use crate::snapshot::put_u8;
            let mut want = Vec::new();
            for (i, q) in self.queues.iter().enumerate() {
                let (p, v) = (i / self.total, i % self.total);
                assert_eq!(r.vc(p, v).len(), q.len(), "cycle {cycle} port {p} vc{v}");
                assert_eq!(r.front(p, v), q.front(), "cycle {cycle} port {p} vc{v}");
                let routed = bit(r.routed[p], v);
                if q.is_empty() && !routed {
                    put_u8(&mut want, 0);
                    continue;
                }
                put_u8(&mut want, 1);
                put_u8(&mut want, q.len() as u8);
                for f in q {
                    f.encode_state(&mut want);
                }
                if routed {
                    let vc = r.vc(p, v);
                    want.extend_from_slice(&[1, vc.out_port, vc.out_vc]);
                } else {
                    put_u8(&mut want, 0);
                }
            }
            let mut got = Vec::new();
            r.encode_state(&mut got);
            assert_eq!(got[..want.len()], want[..], "cycle {cycle}");
        }
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
    /// demands equal outcomes and equal state every cycle; the shipped
    /// router's pool also tracks one `VecDeque` per VC.
    fn lockstep(layout: VcLayout, stages: u8, seed: u64) {
        let total = layout.total();
        let mut new = Router::new(NodeId(0), layout, stages, PortMap::from_fn(|_| true));
        let mut old = new.clone();
        let mut fifos = Fifos::new(total);
        let mut rng = SimRng::seed_from_u64(seed);
        let mut streams: PortMap<Vec<Option<Stream>>> = PortMap::from_fn(|_| vec![None; total]);
        // Link credits this router consumed and the downstream has yet to
        // return.
        let mut owed = vec![vec![0u32; total]; 4];
        let mut next_packet = 0u64;
        let (mut departed, mut blocked) = (0u64, 0u64);
        // Heads that won VA and SA in one call; calls in which two or more
        // inputs offered a flit to one output.
        let (mut same_cycle_heads, mut contended) = (0u64, 0u64);
        for cycle in 1..=2_000u64 {
            for in_port in Port::ALL {
                if !rng.random_bool_ppm(600_000) {
                    continue;
                }
                let vc = rng.random_range(0..total);
                if new.vc(in_port.index(), vc).len() == layout.depth(vc) {
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
                let mut f = Flit::new(
                    st.packet,
                    kind,
                    layout.vnet(vc),
                    layout.class(vc),
                    NodeId(9),
                    st.next_seq,
                );
                f.route_port = st.out;
                f.vc = vc as u8;
                st.next_seq += 1;
                if kind.is_tail() {
                    streams[in_port][vc] = None;
                }
                new.latch(in_port, f, cycle);
                old.latch(in_port, f, cycle);
                fifos.latch(in_port, f);
            }
            for (dir, owed) in Direction::ALL.into_iter().zip(&mut owed) {
                for (vc, n) in owed.iter_mut().enumerate() {
                    if *n > 0 && rng.random_bool_ppm(300_000) {
                        *n -= 1;
                        new.credit(dir, vc);
                        old.credit(dir, vc);
                    }
                }
            }
            let down_on = PortMap::from_fn(|p| p == Port::Local || !rng.random_bool_ppm(250_000));
            let routed_before = new.routed;
            contended += u64::from(committed_offers(&new, cycle, &down_on) >= 2);
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
                    if !bit(routed_before[d.in_port.index()], d.in_vc as usize) {
                        assert!(d.flit.kind().is_head() && stages == 3, "cycle {cycle}");
                        same_cycle_heads += 1;
                    }
                    fifos.depart(d);
                    if let Port::Link(dir) = d.out_port {
                        owed[dir.index()][d.flit.vc as usize] += 1;
                    }
                }
            }
            fifos.check(&new, cycle);
        }
        // The stimulus must actually exercise grants and PG stalls, the
        // VA-to-SA speculation handoff and multi-input output arbitration.
        // (4-stage heads cannot win both, and with one VC per port each
        // output has one owner at a time, so no two inputs contend.)
        assert!(departed > 500, "only {departed} departures");
        assert!(blocked > 50, "only {blocked} PG-blocked reports");
        assert!(
            stages != 3 || same_cycle_heads > 25,
            "{same_cycle_heads} VA+SA heads"
        );
        assert!(
            total == 1 || contended > 500,
            "only {contended} contended calls"
        );
    }

    /// The most inputs sure to offer one output a flit in `r`'s next
    /// allocation at `cycle`. An input is sure to offer output `o` when its
    /// first SA-eligible VC from `sa_in_rr` on — routed before the call,
    /// past its BW cycle, credited, downstream on — leads to `o`. (A head
    /// that wins VA in the call can only lose to such a VC.)
    fn committed_offers(r: &Router, cycle: Cycle, down_on: &PortMap<bool>) -> u32 {
        let total = r.layout.total();
        let mut offers = [0u32; 5];
        for (p, fresh) in r.fresh_words(cycle).into_iter().enumerate() {
            let eligible = r.occ[p] & r.routed[p] & !fresh;
            let start = r.sa_in_rr[p] as usize;
            let offer = (0..total)
                .map(|k| (start + k) % total)
                .filter(|&v| bit(eligible, v))
                .map(|v| r.vc(p, v))
                .find(|vc| {
                    let out = Port::ALL[vc.out_port as usize];
                    r.has_credit(out, vc.out_vc as usize) && down_on[out]
                });
            if let Some(vc) = offer {
                offers[vc.out_port as usize] += 1;
            }
        }
        offers.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn request_driven_allocators_match_the_full_scan_in_lockstep() {
        let layouts = [
            layout(3, 2, 1, 3, 1), // Table 2 default
            layout(1, 1, 0, 1, 1), // a single one-flit VC per port
            layout(4, 3, 2, 2, 4),
            layout(4, 5, 3, 5, 2), // the 32-VC mask width
            layout(2, 2, 2, 16, 4),
            layout(3, 2, 1, 1, 2),
        ];
        assert_eq!(layouts[3].total(), NocConfig::MAX_VCS_PER_PORT);
        for (i, l) in layouts.into_iter().enumerate() {
            for stages in [3, 4] {
                lockstep(l, stages, 0x5EED + i as u64 * 2 + stages as u64);
            }
        }
    }

    /// The pool holds only in-flight flits: a fresh router holds no slot,
    /// the pool grows to the most flits ever buffered at once, popped slots
    /// are reused before it grows, and it never exceeds the Σ depths of
    /// Table 2's 105 buffer slots.
    #[test]
    fn the_flit_pool_grows_only_to_the_high_water_mark() {
        let mut r = mk_router();
        let l = r.layout;
        let slots = 5 * (0..l.total()).map(|v| l.depth(v)).sum::<usize>();
        assert_eq!(slots, 105);
        assert_eq!(r.pool.slots(), 0, "a fresh router holds no flit slot");
        let mut high = 0;
        let mut step = |r: &mut Router, cycle: Cycle, fill: bool| {
            if fill {
                // Every VC of every port to its depth, one packet each,
                // all to be ejected.
                for port in Port::ALL {
                    for v in 0..l.total() {
                        for seq in 0..l.depth(v) as u16 {
                            let kind = match (seq == 0, seq + 1 == l.depth(v) as u16) {
                                (true, true) => FlitKind::HeadTail,
                                (true, false) => FlitKind::Head,
                                (false, true) => FlitKind::Tail,
                                (false, false) => FlitKind::Body,
                            };
                            let packet = PacketId(cycle * 1000 + (port.index() * 100 + v) as u64);
                            let mut f =
                                Flit::new(packet, kind, l.vnet(v), l.class(v), NodeId(0), seq);
                            f.vc = v as u8;
                            r.latch(port, f, cycle);
                        }
                    }
                }
            }
            high = high.max(r.occupancy());
            depart(r, cycle, &all_on());
            assert_eq!(
                r.pool.slots(),
                high,
                "cycle {cycle}: storage is the high-water mark"
            );
        };
        // One single-flit packet in and one out per cycle: each waits a
        // cycle, so two slots serve all ten.
        for cycle in 10..20 {
            r.latch(Port::Local, flit(FlitKind::HeadTail, 0, Port::Local), cycle);
            step(&mut r, cycle, false);
        }
        assert_eq!(r.pool.slots(), 2, "popped slots are reused");
        // Every buffer full, drained, and full again: Σ depths, no more.
        for cycle in 20..300 {
            step(&mut r, cycle, cycle == 25 || cycle == 150);
        }
        assert!(r.datapath_empty());
        assert_eq!(r.pool.slots(), slots, "storage never exceeds Σ depths");
    }

    /// VA's port-mask walk and SA's output arbitration against the full
    /// scan from every start: for every `va_rr` slot `(sp, sv)` and every
    /// `sa_out_rr` of one output, a head for that output at VC `sv` of
    /// each input port, and one more on port `sp` below `sv` (wrapping to
    /// the last VC at `sv = 0`). More heads than free output VCs of their
    /// class, so which win VA, and which of those wins the crossbar,
    /// depends on the walk order alone.
    #[test]
    fn port_mask_walk_matches_the_full_scan_from_every_start() {
        let (mut lost_va, mut won_sa) = (0, 0u32);
        for l in [layout(3, 2, 1, 3, 1), layout(1, 2, 0, 3, 1)] {
            let total = l.total();
            for out in Port::ALL {
                for start in 0..5 * total {
                    let (sp, sv) = (start / total, start % total);
                    for sa_out in 0..5 {
                        let mut new = Router::new(NodeId(0), l, 3, PortMap::from_fn(|_| true));
                        new.va_rr[out.index()] = start as u8;
                        new.sa_out_rr[out.index()] = sa_out;
                        for (p, port) in Port::ALL.into_iter().enumerate() {
                            let below = (sv + total - 1) % total;
                            for v in if p == sp { vec![sv, below] } else { vec![sv] } {
                                let packet = PacketId((p * total + v) as u64);
                                let mut f = Flit::new(
                                    packet,
                                    FlitKind::Head,
                                    l.vnet(v),
                                    l.class(v),
                                    NodeId(9),
                                    0,
                                );
                                f.route_port = out;
                                f.vc = v as u8;
                                new.latch(port, f, 10);
                            }
                        }
                        let mut old = new.clone();
                        let at = format!("{out} va_rr {start} sa_out_rr {sa_out}");
                        let got = allocate(&mut new, 11, &all_on());
                        assert_eq!(got, old.allocate_reference(11, &all_on()), "{at}");
                        let pointers = |r: &Router| (r.routed, r.va_rr, r.sa_in_rr, r.sa_out_rr);
                        assert_eq!(pointers(&new), pointers(&old), "{at}");
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        new.encode_state(&mut a);
                        old.encode_state(&mut b);
                        assert_eq!(a, b, "{at}");
                        let granted: u32 = new.routed.iter().map(|w| w.count_ones()).sum();
                        lost_va += u32::from(granted < 6);
                        let d = got.departures[out].expect("a VA winner crosses");
                        won_sa |= 1 << d.in_port.index();
                    }
                }
            }
        }
        assert!(lost_va > 0, "every head always won VA");
        assert_eq!(won_sa, 0b1_1111, "some input never won the crossbar");
    }

    #[test]
    fn rotating_pointers_wrap_past_the_last_slot() {
        let mut r = mk_router();
        let total = r.layout.total();
        let (west, out) = (Port::Link(Direction::West), Port::Link(Direction::East));
        // The last VC (vnet 2 control) of the last input port is the last
        // VA slot, g = 5 * total - 1.
        let mut f = Flit::new(
            PacketId(7),
            FlitKind::HeadTail,
            VnetId(2),
            MsgClass::Control,
            NodeId(9),
            0,
        );
        f.route_port = out;
        f.vc = total as u8 - 1;
        r.va_rr[out.index()] = 5 * total as u8 - 1;
        r.sa_in_rr[west.index()] = total as u8 - 1;
        r.sa_out_rr[out.index()] = 4;
        r.latch(west, f, 10);
        assert_eq!(depart(&mut r, 11, &all_on()).len(), 1);
        assert_eq!(r.va_rr[out.index()], 0);
        assert_eq!(r.sa_in_rr[west.index()], 0);
        assert_eq!(r.sa_out_rr[out.index()], 0);
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
