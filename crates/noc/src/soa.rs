//! Structure-of-arrays busy-tick kernel: flat per-mesh bitset words plus a
//! two-phase (compute/commit) sharded sweep.
//!
//! Quiescence fast-forward makes *idle* cycles nearly free; this module
//! makes a busy cycle cost what is in it rather than the size of the mesh.
//! The per-router *control plane* — datapath occupancy, NI injection state —
//! is one bit per router packed into `u64` words owned by [`SoaState`], and
//! everything in flight between routers sits in the delivery wheels of
//! [`crate::link`], whose plane for the current cycle carries one bit per
//! router with something due. Busy sweeps iterate set bits
//! (`trailing_zeros` per active router, one word test per 64 idle routers)
//! instead of chasing structs or polling wires. Each `Router` stores its
//! buffered flits as plain data — one slab of VC rings, per-port VC words
//! (see [`crate::router`]) — and the `Ni`s their injection queues (what
//! `encode_state` and the test oracle in `reference.rs` read); the bit
//! words here are the primary busy index over routers and NIs, maintained
//! by every tick commit from construction on.
//!
//! On top of the flat layout sits deterministic sharding: the mesh is cut
//! into contiguous row bands, each shard runs the *compute* half of a tick
//! over its own routers, NIs and slice of the due planes (phase A — nothing
//! outside the shard is touched), and the *commit* half applies every
//! cross-router effect (wheel puts toward neighbours, power-manager events,
//! packet metadata, statistics) serially in router-index order. Because
//! phase A is side-effect-free outside the shard and the commit order is
//! fixed, results are bit-exact for every shard count — pinned by the CI
//! gate that `cmp`s BENCH artifacts across `--shards 1..4`.

use punchsim_types::{Cycle, Direction, NodeId, PacketId, Port, Substrate};

use crate::flit::Flit;
use crate::ni::Ni;
use crate::power::{PowerManager, PowerState};
use crate::router::{Departure, PgBlocked, Router};

/// A fixed-length bitset packed into `u64` words: one bit per router (or
/// NI), swept word-at-a-time by the SoA kernel.
#[derive(Debug, Clone, Default)]
pub struct BitWords {
    words: Vec<u64>,
    len: usize,
}

impl BitWords {
    /// An all-clear bitset over `len` bits.
    pub fn new(len: usize) -> Self {
        BitWords {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the set holds zero bits (capacity, not population).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Clears every bit, keeping capacity.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Clears every bit of the backing words `words`.
    pub(crate) fn clear_words(&mut self, words: std::ops::Range<usize>) {
        self.words[words].fill(0);
    }

    /// `true` when no bit is set.
    pub fn none_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Population count.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words (trailing bits past `len` are always zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Sets every bit set in `words` (the words of a set of equal length).
    pub fn union_with(&mut self, words: &[u64]) {
        debug_assert_eq!(words.len(), self.words.len());
        for (w, &o) in self.words.iter_mut().zip(words) {
            *w |= o;
        }
    }
}

/// Calls `f(index)` for every set bit in `words` within `[lo, hi)`, in
/// ascending index order — the sweep order every SoA phase uses, matching
/// the reference kernel's `0..n` scan over the routers it would not have
/// skipped.
#[inline]
pub fn for_each_one(words: &[u64], lo: usize, hi: usize, mut f: impl FnMut(usize)) {
    if lo >= hi {
        return;
    }
    let first = lo / 64;
    let last = (hi - 1) / 64;
    for (wi, &word) in words.iter().enumerate().take(last + 1).skip(first) {
        let mut w = word;
        if wi == first {
            w &= !0u64 << (lo % 64);
        }
        if wi == last {
            let top = hi - wi * 64;
            if top < 64 {
                w &= (1u64 << top) - 1;
            }
        }
        while w != 0 {
            f(wi * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// The flat per-mesh index the SoA kernel sweeps: one bit per router (or
/// NI) per concern. What is in flight *between* routers is indexed by the
/// delivery wheels' own due planes (see [`crate::link::Wheel`]).
///
/// Invariant after every tick commit: each bit is set iff the
/// corresponding struct-side predicate holds — `occ[r]` iff
/// `!routers[r].datapath_empty()`, and so on. (The reference sweep does not
/// maintain the bits, and never needs to: the switch onto it is one-way.)
#[derive(Debug, Clone)]
pub(crate) struct SoaState {
    /// Router datapath holds at least one buffered flit.
    pub occ: BitWords,
    /// The NI has at least one queued or mid-flight injection-side packet.
    pub ni_pend: BitWords,
    /// The NI is mid-packet (head sent, tail not) — its router must stay on.
    pub ni_mid: BitWords,
    /// Link neighbours of every router (see [`neighbor_table`]).
    pub neighbors: Vec<Neighbors>,
    /// The idleness plane handed to the power manager: `idle[r]` iff bit
    /// `r` of `busy` is clear. Persistent across power phases, which
    /// rewrite only the entries whose busy bit changed (see
    /// [`SoaState::set_busy`]).
    pub idle: Vec<bool>,
    /// Last power phase's busy words (`occ | ni_mid | flit-wheel live`,
    /// or zero when no packet was in flight), one per 64 routers.
    busy: Vec<u64>,
}

impl SoaState {
    pub fn new(topo: Substrate) -> Self {
        let n = topo.nodes();
        SoaState {
            occ: BitWords::new(n),
            ni_pend: BitWords::new(n),
            ni_mid: BitWords::new(n),
            neighbors: neighbor_table(topo),
            idle: vec![true; n],
            busy: vec![0; n.div_ceil(64)],
        }
    }

    /// Records this cycle's busy bits for routers `64w..64w+64`, rewriting
    /// `idle` only where a bit changed since the last call. `busy` has no
    /// bit at or past the router count.
    #[inline]
    pub fn set_busy(&mut self, w: usize, busy: u64) {
        let mut changed = busy ^ self.busy[w];
        self.busy[w] = busy;
        while changed != 0 {
            let bit = changed.trailing_zeros() as usize;
            changed &= changed - 1;
            self.idle[w * 64 + bit] = busy & (1 << bit) == 0;
        }
    }
}

/// Wires into one router in the flit wheel: one per input port, indexed by
/// [`Port::index`] (`Local` = from its NI).
pub(crate) const FLIT_LANES: usize = 5;
/// Wires into one router in the credit wheel: one per *output* port,
/// indexed by [`Port::index`], then [`NI_CREDIT_LANE`].
pub(crate) const CREDIT_LANES: usize = 6;
/// The credit wire into the router's NI (for the router's local input).
pub(crate) const NI_CREDIT_LANE: usize = 5;

/// Power-availability reads during phase A: every shard, on the host
/// thread or a pool worker, asks the (`Sync`) manager directly — the
/// router's PG wire, read by whoever needs it. The manager is only
/// mutated between sweeps, so all shards see one consistent state.
pub(crate) struct PmAvail<'a> {
    pub pm: &'a dyn PowerManager,
    /// Arrival cycle of a flit granted SA now (`now + 2 + link`).
    pub arrival_by: Cycle,
    /// Arrival cycle of an NI flit sent now (`now + 1 + link`).
    pub local_by: Cycle,
}

impl PmAvail<'_> {
    /// Downstream router usable by a flit granted SA now.
    fn downstream_on(&self, n: NodeId) -> bool {
        self.pm.is_available(n, self.arrival_by)
    }
    /// Local router usable by an NI flit sent now.
    fn local_on(&self, n: NodeId) -> bool {
        self.pm.is_available(n, self.local_by)
    }
    /// Router is fully powered off right now (invariant-check input).
    fn is_off(&self, n: NodeId) -> bool {
        self.pm.state(n) == PowerState::Off
    }
}

/// One router's link neighbours, indexed by [`Direction::index`] (`None`
/// where the substrate has no link).
pub(crate) type Neighbors = [Option<NodeId>; 4];

/// The neighbour table of `topo`, indexed by router: built once per
/// network so the per-departure and per-allocation lookups on the tick
/// path are array reads instead of a substrate match plus coordinate
/// arithmetic.
fn neighbor_table(topo: Substrate) -> Vec<Neighbors> {
    topo.iter_nodes()
        .map(|n| Direction::ALL.map(|d| topo.neighbor(n, d)))
        .collect()
}

/// Read-only per-tick context shared by every shard's phase A.
pub(crate) struct TickCtx<'a> {
    pub now: Cycle,
    /// Invariant checks enabled in the watchdog config.
    pub check: bool,
    /// No violation latched before this tick (matches the reference
    /// kernel's `violation.is_none()` read at pop time).
    pub violation_open: bool,
    pub neighbors: &'a [Neighbors],
    pub occ: &'a [u64],
    pub ni_pend: &'a [u64],
    /// Routers with a flit, a credit, an ejection due this cycle: the
    /// router bits of each wheel's current plane.
    pub flit_due: &'a [u64],
    pub credit_due: &'a [u64],
    pub eject_due: &'a [u64],
}

/// A head flit latched this tick (commit applies hop counts and the
/// `HeadArrival` power-manager event in router order).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeadArrival {
    pub router: NodeId,
    pub dst: NodeId,
    pub packet: PacketId,
    /// Arrived over a link (counts as a hop); `false` for the local port.
    pub counted_hop: bool,
}

/// NI injection results for one swept NI.
#[derive(Debug)]
pub(crate) struct InjectRes {
    pub idx: usize,
    /// This NI's slice of [`ShardBuf::ni_ready`].
    pub ready: std::ops::Range<usize>,
    /// This NI's slice of [`ShardBuf::ni_blocked`].
    pub blocked: std::ops::Range<usize>,
    pub head_injected: Option<PacketId>,
    /// The flit sent toward the local router, if any (the commit puts it
    /// on the wire, so phase A writes nothing but its own plane slices).
    pub sent: Option<Flit>,
    /// `mid_packet()` after the send (only meaningful when `sent`).
    pub mid_after: bool,
    /// Injection-side packets remain after this tick.
    pub pending_after: bool,
}

/// Everything one shard's phase A produced, applied serially by the commit
/// phase in shard (= router-index) order. Every vector is flat and reused,
/// so a steady-state tick allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct ShardBuf {
    /// Any flit latched or popped inside the shard this tick.
    pub moved: bool,
    /// First flit-into-off-router candidate (router order within the
    /// shard; the commit latches the first across shards).
    pub violation: Option<NodeId>,
    pub head_arrivals: Vec<HeadArrival>,
    /// Packets stalled by a gated neighbour, in router order.
    pub blocked: Vec<(NodeId, PgBlocked)>,
    /// Flits granted ST, in router then output-port order.
    pub departed: Vec<(NodeId, Departure)>,
    /// Routers left with an empty datapath after allocation.
    pub alloc_empty: Vec<usize>,
    /// Completed packets, in NI order.
    pub completions: Vec<PacketId>,
    pub inject: Vec<InjectRes>,
    /// Packets that became ready to inject, with their destinations, NI
    /// by NI.
    pub ni_ready: Vec<(PacketId, NodeId)>,
    /// Packets stalled at a gated local router, NI by NI.
    pub ni_blocked: Vec<PacketId>,
}

impl ShardBuf {
    pub fn reset(&mut self) {
        self.moved = false;
        self.violation = None;
        self.head_arrivals.clear();
        self.blocked.clear();
        self.departed.clear();
        self.alloc_empty.clear();
        self.completions.clear();
        self.inject.clear();
        self.ni_ready.clear();
        self.ni_blocked.clear();
    }
}

/// Mutable view over one shard's contiguous slice of per-router state,
/// including its `[lo, hi)` slice of each wheel's current plane. Global
/// router index `g` lives at local offset `g - lo`.
pub(crate) struct ShardView<'a> {
    pub lo: usize,
    pub hi: usize,
    pub routers: &'a mut [Router],
    pub nis: &'a mut [Ni],
    /// [`FLIT_LANES`] slots per router.
    pub flits: &'a mut [Option<Flit>],
    /// [`CREDIT_LANES`] slots per router, each a downstream VC index.
    pub credits: &'a mut [Option<u8>],
    /// One slot per router.
    pub ejects: &'a mut [Option<Flit>],
}

/// Contiguous row-band shard boundaries as node ranges: shard `k` owns
/// rows `[k*h/shards, (k+1)*h/shards)`. Requires `1 <= shards <= height`
/// (validated by [`crate::check_shards`]), so every shard owns at least one
/// full row and the bands tile `0..w*h` exactly.
pub(crate) fn shard_bounds(width: u16, height: u16, shards: usize) -> Vec<(usize, usize)> {
    let (w, h) = (width as usize, height as usize);
    (0..shards)
        .map(|k| (k * h / shards * w, (k + 1) * h / shards * w))
        .collect()
}

/// Splits `whole` — the full-mesh view, `lo == 0` — into per-shard views
/// along `bounds` (which must tile the full range, as `shard_bounds`
/// guarantees), lazily: each `next()` cuts one shard off the front of what
/// is left.
pub(crate) fn split_shards<'a>(
    whole: ShardView<'a>,
    bounds: &'a [(usize, usize)],
) -> impl Iterator<Item = ShardView<'a>> {
    fn cut<'a, T>(rest: &mut &'a mut [T], take: usize) -> &'a mut [T] {
        let (head, tail) = std::mem::take(rest).split_at_mut(take);
        *rest = tail;
        head
    }
    let mut rest = whole;
    bounds.iter().map(move |&(lo, hi)| {
        let take = hi - lo;
        ShardView {
            lo,
            hi,
            routers: cut(&mut rest.routers, take),
            nis: cut(&mut rest.nis, take),
            flits: cut(&mut rest.flits, take * FLIT_LANES),
            credits: cut(&mut rest.credits, take * CREDIT_LANES),
            ejects: cut(&mut rest.ejects, take),
        }
    })
}

/// Applies the credits due on one router's [`CREDIT_LANES`] wires: to the
/// router's link outputs, and to its NI for the local input. The `Local`
/// output's lane is never written: ejection is not a credit loop.
pub(crate) fn deliver_credits(lanes: &mut [Option<u8>], router: &mut Router, ni: &mut Ni) {
    for dir in Direction::ALL {
        if let Some(vc) = lanes[Port::Link(dir).index()].take() {
            router.credit(dir, vc as usize);
        }
    }
    if let Some(vc) = lanes[NI_CREDIT_LANE].take() {
        ni.credit(vc as usize);
    }
}

/// Phase A of an SoA tick for one shard: flit delivery, credit delivery,
/// allocation, ejection and NI injection over the shard's own routers,
/// NIs and plane slices — in the exact sub-phase and index order of the
/// reference kernel restricted to this shard. Everything that crosses a
/// router boundary (wheel puts, PM events, packet metadata, global
/// counters, bit updates) is recorded in `buf` for the serial commit.
/// Routers the reference kernel would visit but not change (nothing due,
/// nothing eligible, idle NI) have clear bits and are never visited at all
/// — that skip is the entire speedup, and it is exact because those visits
/// are pure no-ops.
pub(crate) fn shard_phase_a(
    sv: &mut ShardView<'_>,
    ctx: &TickCtx<'_>,
    avail: &PmAvail<'_>,
    buf: &mut ShardBuf,
) {
    let now = ctx.now;
    let (lo, hi) = (sv.lo, sv.hi);
    let routers = &mut *sv.routers;
    let nis = &mut *sv.nis;

    // --- 1. deliver flits -------------------------------------------------
    for_each_one(ctx.flit_due, lo, hi, |idx| {
        let li = idx - lo;
        for port in Port::ALL {
            let Some(flit) = sv.flits[li * FLIT_LANES + port.index()].take() else {
                continue;
            };
            buf.moved = true;
            if ctx.check
                && ctx.violation_open
                && buf.violation.is_none()
                && avail.is_off(NodeId(idx as u16))
            {
                buf.violation = Some(NodeId(idx as u16));
            }
            if flit.kind.is_head() {
                buf.head_arrivals.push(HeadArrival {
                    router: NodeId(idx as u16),
                    dst: flit.dst,
                    packet: flit.packet,
                    counted_hop: port != Port::Local,
                });
            }
            routers[li].latch(port, flit, now);
        }
    });

    // --- 2. deliver credits -----------------------------------------------
    for_each_one(ctx.credit_due, lo, hi, |idx| {
        let li = idx - lo;
        let lanes = &mut sv.credits[li * CREDIT_LANES..][..CREDIT_LANES];
        deliver_credits(lanes, &mut routers[li], &mut nis[li]);
    });

    // --- 3. allocate ------------------------------------------------------
    // Only routers occupied at the start of the tick: one that was empty
    // holds nothing but flits latched just above, and a flit is not
    // eligible for VA or SA in its latch cycle.
    for_each_one(ctx.occ, lo, hi, |idx| {
        let router = &mut routers[idx - lo];
        let near = &ctx.neighbors[idx];
        router.allocate(
            now,
            |p| match p {
                Port::Local => true,
                Port::Link(d) => near[d.index()].is_some_and(|n| avail.downstream_on(n)),
            },
            &mut buf.blocked,
            &mut buf.departed,
        );
        if router.datapath_empty() {
            buf.alloc_empty.push(idx);
        }
    });

    // --- 4. eject ---------------------------------------------------------
    for_each_one(ctx.eject_due, lo, hi, |idx| {
        let li = idx - lo;
        if let Some(flit) = sv.ejects[li].take() {
            buf.moved = true;
            if let Some(done) = nis[li].eject(&flit) {
                buf.completions.push(done);
            }
        }
    });

    // --- 5. inject --------------------------------------------------------
    for_each_one(ctx.ni_pend, lo, hi, |idx| {
        let ni = &mut nis[idx - lo];
        let (ready, blocked) = (buf.ni_ready.len(), buf.ni_blocked.len());
        let outcome = ni.tick_inject(
            now,
            avail.local_on(NodeId(idx as u16)),
            &mut buf.ni_ready,
            &mut buf.ni_blocked,
        );
        buf.inject.push(InjectRes {
            idx,
            ready: ready..buf.ni_ready.len(),
            blocked: blocked..buf.ni_blocked.len(),
            head_injected: outcome.head_injected,
            sent: outcome.sent,
            mid_after: outcome.sent.is_some() && ni.mid_packet(),
            pending_after: ni.pending() > 0,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones(words: &[u64], lo: usize, hi: usize) -> Vec<usize> {
        let mut v = Vec::new();
        for_each_one(words, lo, hi, |i| v.push(i));
        v
    }

    #[test]
    fn bitwords_set_clear_get_roundtrip() {
        let mut b = BitWords::new(130);
        assert_eq!(b.len(), 130);
        assert!(b.none_set());
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            b.set(i);
            assert!(b.get(i), "bit {i}");
        }
        assert_eq!(b.count_ones(), 8);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 7);
        b.clear_all();
        assert!(b.none_set());
    }

    /// The last word is partial: bits past `len` never appear in sweeps
    /// even if a full-word mask would cover them.
    #[test]
    fn sweep_respects_last_partial_word() {
        let mut b = BitWords::new(70);
        for i in 0..70 {
            b.set(i);
        }
        assert_eq!(b.count_ones(), 70);
        let seen = ones(b.words(), 0, 70);
        assert_eq!(seen.len(), 70);
        assert_eq!(*seen.last().unwrap(), 69);
        // A sub-range ending inside the last word.
        assert_eq!(ones(b.words(), 64, 67), vec![64, 65, 66]);
    }

    /// Shard ranges that start/end mid-word (e.g. a 12-wide mesh: rows
    /// wrap around word boundaries at columns that are not multiples of
    /// 64) must mask both edges of the sweep.
    #[test]
    fn sweep_masks_both_edges_of_wraparound_columns() {
        // 12x12 mesh: row 5 spans bits 60..72 — crosses the word boundary.
        let mut b = BitWords::new(144);
        for i in 0..144 {
            b.set(i);
        }
        assert_eq!(ones(b.words(), 60, 72), (60..72).collect::<Vec<_>>());
        // Only the wrapped column bits inside the range, nothing outside.
        let mut c = BitWords::new(144);
        c.set(59);
        c.set(60);
        c.set(63);
        c.set(64);
        c.set(71);
        c.set(72);
        assert_eq!(ones(c.words(), 60, 72), vec![60, 63, 64, 71]);
    }

    #[test]
    fn sweep_is_ascending_and_range_exact() {
        let mut b = BitWords::new(256);
        let set = [3usize, 64, 65, 100, 191, 192, 255];
        for &i in &set {
            b.set(i);
        }
        assert_eq!(ones(b.words(), 0, 256), set.to_vec());
        assert_eq!(ones(b.words(), 64, 192), vec![64, 65, 100, 191]);
        assert_eq!(ones(b.words(), 66, 100), Vec::<usize>::new());
        assert_eq!(ones(b.words(), 100, 101), vec![100]);
        assert_eq!(ones(b.words(), 10, 10), Vec::<usize>::new());
    }

    #[test]
    fn shard_bounds_tile_rows_exactly() {
        // 16x16, 4 shards: 4 rows each.
        assert_eq!(
            shard_bounds(16, 16, 4),
            vec![(0, 64), (64, 128), (128, 192), (192, 256)]
        );
        // Uneven split: 5 rows over 3 shards -> 1/2/2 rows.
        assert_eq!(shard_bounds(4, 5, 3), vec![(0, 4), (4, 12), (12, 20)]);
        // One shard owns everything.
        assert_eq!(shard_bounds(8, 8, 1), vec![(0, 64)]);
        // shards == rows: one row each.
        let per_row = shard_bounds(3, 4, 4);
        assert_eq!(per_row, vec![(0, 3), (3, 6), (6, 9), (9, 12)]);
        // Bounds always tile 0..w*h with no gaps.
        for shards in 1..=7 {
            let b = shard_bounds(12, 7, shards);
            assert_eq!(b[0].0, 0);
            assert_eq!(b.last().unwrap().1, 84);
            for w in b.windows(2) {
                assert_eq!(w[0].1, w[1].0);
                assert!(w[0].0 < w[0].1, "empty shard in {b:?}");
            }
        }
    }
}
