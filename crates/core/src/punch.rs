//! The punch fabric: the sideband that relays merged wakeups one hop per
//! cycle (§4.1), one Table 1 codeword per wire. Routes are translation-
//! invariant: in offsets from the router a wire reaches, the [`PunchSet`]s
//! it can carry depend only on the direction it travels (its *class*) —
//! exactly on a torus; a mesh's border links carry a subset. So the wire
//! format is derived once, around one router, and a tick is table lookups.

use std::collections::BTreeSet;
use std::sync::Arc;

use punchsim_noc::BitWords;
use punchsim_types::{Coord, Direction, Mesh, NodeId, RouteView, Substrate};

use crate::codebook::{link_sets, relay, PunchSet};

/// A codeword: `0` is the idle wire, `c` the `c - 1`-th set of its class.
type Code = u8;

/// One hop in each direction, in [`Direction::ALL`] order.
const STEP: [(i32, i32); 4] = [(0, -1), (1, 0), (0, 1), (-1, 0)];

/// The router `(dx, dy)` from `from`, wrapping where `topo` wraps.
fn offset(topo: Substrate, from: NodeId, (dx, dy): (i32, i32)) -> NodeId {
    let (w, h) = (topo.width() as i32, topo.height() as i32);
    if !topo.wraps() {
        return NodeId((from.0 as i32 + dy * w + dx) as u16);
    }
    let c = topo.coord(from);
    let x = (c.x as i32 + dx).rem_euclid(w) as u16;
    topo.node(Coord::new(x, (c.y as i32 + dy).rem_euclid(h) as u16))
}

/// The non-zero bytes of a packed word, as `(direction index, code)`.
fn codes(mut word: u32) -> impl Iterator<Item = (usize, Code)> {
    std::iter::from_fn(move || {
        let d = (word != 0).then(|| word.trailing_zeros() / 8)?;
        let code = (word >> (8 * d)) as Code;
        word &= !(0xFF << (8 * d));
        Some((d as usize, code))
    })
}

/// A fabric's wire format, from route queries around `center` of `frame` (a
/// mesh holding every offset within `hops + 1` of it, or the torus itself).
/// A code of class `d` names a set as seen by its receiver, put at `center`.
#[derive(Debug)]
struct Tables {
    frame: RouteView,
    center: NodeId,
    hops: u16,
    /// Per class, its sets in canonical order: code `c` is `sets[d][c - 1]`.
    sets: [Vec<PunchSet>; 4],
    /// Per class and code, the codes the receiver sends, a byte per output.
    relay: [Vec<u32>; 4],
    /// Per class, codes `a` and `b` merged at `a * (len + 1) + b`.
    merge: [Vec<Code>; 4],
    /// Per destination offset, clamped to `±H`, at `(dy + H) * (2H + 1) +
    /// dx + H`: the output, code and offset of a generation's target.
    local: Vec<(u8, Code, (i32, i32))>,
}

impl Tables {
    /// Panics if a class outgrows a [`Code`], which none does at H ≤ 4.
    fn new(view: RouteView, hops: u16) -> Self {
        let (side, wraps) = (2 * hops + 3, view.topo.wraps());
        let mesh = RouteView::new(Mesh::new(side, side), view.routing);
        let frame = if wraps { view } else { mesh };
        let center = NodeId(if wraps { 0 } else { side * side / 2 });
        let (topo, h) = (frame.topo, hops as i32);
        // Each offset within ±H once (a small torus aliases some; `delta` names one).
        let square: Vec<((i32, i32), NodeId)> = (-h..=h)
            .flat_map(|dy| (-h..=h).map(move |dx| (dx, dy)))
            .map(|o| (o, offset(topo, center, o)))
            .filter(|&(o, t)| t != center && topo.delta(center, t) == o)
            .collect();
        let toward = |t: NodeId| frame.direction(center, t).expect("t != center");
        // A sender-frame set moves to its receiver's frame one hop back.
        let shift = |s: PunchSet, d: Direction| s.translated(|t| topo.advance(t, d, 1));
        let mut closure: [BTreeSet<PunchSet>; 4] = Default::default();
        let mut grew = true;
        while grew {
            grew = false;
            for d in Direction::ALL {
                let near = square.iter().filter(|(o, _)| o.0.abs() + o.1.abs() <= h);
                let gens: Vec<NodeId> = near.map(|o| o.1).filter(|&t| toward(t) == d).collect();
                let mut found = BTreeSet::new();
                link_sets(frame, center, d, &closure, &gens, &mut found);
                let class = &mut closure[d.index()];
                let before = class.len();
                class.extend(found.into_iter().map(|s| shift(s, d.opposite())));
                grew |= class.len() != before;
            }
        }
        let sets = closure.map(|c| c.into_iter().collect::<Vec<_>>());
        assert!(sets.iter().all(|s| s.len() <= Code::MAX as usize));
        // The code of `s` sent from the center toward `d`, if it has one.
        let find = |d: Direction, s: PunchSet| {
            let found = sets[d.index()].binary_search(&shift(s, d.opposite()));
            found.map_or(s.is_empty().then_some(0), |i| Some(i as Code + 1))
        };
        let relays = Direction::ALL.map(|d| {
            let sent = |s, out| find(out, relay(frame, center, out, s)).expect("a relay");
            let row = |s| u32::from_le_bytes(Direction::ALL.map(|out| sent(s, out)));
            let rows = sets[d.index()].iter().map(row);
            std::iter::once(0).chain(rows).collect()
        });
        let merge = Direction::ALL.map(|d| {
            let senders = sets[d.index()].iter().map(|&s| shift(s, d));
            let all: Vec<PunchSet> = std::iter::once(PunchSet::new()).chain(senders).collect();
            let pair = |a: PunchSet, b: &PunchSet| find(d, a.with(frame, center, b.targets()));
            let row = |&a: &PunchSet| all.iter().map(move |b| pair(a, b).unwrap_or(0));
            all.iter().flat_map(row).collect()
        });
        let mut local = vec![(0, 0, (0, 0)); (2 * h + 1).pow(2) as usize];
        for &((dx, dy), dst) in &square {
            let t = frame.router_ahead(center, dst, hops);
            let (d, ahead) = (toward(t), topo.delta(center, t));
            let code = find(d, PunchSet::new().with(frame, center, &[t])).expect("a code");
            local[((dy + h) * (2 * h + 1) + dx + h) as usize] = (d.index() as u8, code, ahead);
        }
        Tables {
            frame,
            center,
            hops,
            sets,
            relay: relays,
            merge,
            local,
        }
    }

    /// Packed codes `a` and `b` on the outputs of one router.
    #[inline]
    fn join(&self, a: u32, b: u32) -> u32 {
        if a == 0 {
            return b; // the common case: one contribution
        }
        codes(b).fold(a, |acc, (d, c)| {
            let at = (acc >> (8 * d)) as Code as usize * (self.sets[d].len() + 1);
            let merged = self.merge[d][at + c as usize];
            debug_assert!(merged != 0, "codes that never share a wire");
            acc & !(0xFF << (8 * d)) | (merged as u32) << (8 * d)
        })
    }

    /// The set code `code` of class `d` names at router `to` of `topo`.
    fn decode(&self, topo: Substrate, to: NodeId, d: usize, code: Code) -> PunchSet {
        let at = |v| offset(topo, to, self.frame.topo.delta(self.center, v));
        let set = (code as usize).checked_sub(1).map(|c| self.sets[d][c]);
        set.map_or(PunchSet::new(), |s| s.translated(at))
    }
}

/// A queued local generation of `target`: `code`, leaving `router` by `dir`.
#[derive(Debug, Clone, Copy)]
struct Gen {
    router: NodeId,
    target: NodeId,
    dir: u8,
    code: Code,
}

/// The per-link punch wires of the whole mesh, advanced one hop per cycle.
///
/// Each cycle, a router merges the codes reaching it with at most one local
/// generation per output (later ones wait a cycle: the encoder can only
/// express codebook sets) and forwards each target along its route. Every
/// router a code reaches is *notified*: woken if off, its sleep deferred.
///
/// A router's input wires are one word, a code per byte indexed by the
/// direction the wire travels, double-buffered beside a plane of routers
/// with an arriving wire; queued generations are one list sorted by router,
/// FIFO per `(router, dir)`, beside a plane of routers holding one. A tick
/// visits both planes' bits in ascending router order, as the `0..n` sweep
/// oracle in `punch_reference.rs` does.
#[derive(Debug, Clone)]
pub struct PunchFabric {
    view: RouteView,
    /// Shared by clones.
    tables: Arc<Tables>,
    /// Per router, its arriving codes; `shipped` is the other buffer,
    /// `arriving` and `landing` their planes.
    wires: Vec<u32>,
    shipped: Vec<u32>,
    arriving: BitWords,
    landing: BitWords,
    /// Non-idle wires in `wires`.
    live: usize,
    gens: Vec<Gen>,
    /// Routers with a queued generation.
    queued: BitWords,
    /// Total non-idle signal link traversals (wire energy metric).
    pub hops_sent: u64,
    /// Per-router breakdown of `hops_sent`: `hops_sent_at[r]` counts the
    /// traversals departing router `r`. Excluded from `encode_state`.
    pub hops_sent_at: Vec<u64>,
}

impl PunchFabric {
    /// Creates an idle fabric over the given substrate + routing (a bare
    /// `Mesh` selects XY) with punch depth `hops`.
    pub fn new(view: impl Into<RouteView>, hops: u16) -> Self {
        let view = view.into();
        let n = view.topo.nodes();
        PunchFabric {
            view,
            tables: Arc::new(Tables::new(view, hops)),
            wires: vec![0; n],
            shipped: vec![0; n],
            arriving: BitWords::new(n),
            landing: BitWords::new(n),
            live: 0,
            gens: Vec::new(),
            queued: BitWords::new(n),
            hops_sent: 0,
            hops_sent_at: vec![0; n],
        }
    }

    /// Appends the fabric's canonical snapshot encoding (see
    /// `punchsim_noc::snapshot`): for every router and input direction the
    /// set on that wire (an idle wire is an empty set), then for every
    /// router and output its queued generations' targets.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use punchsim_noc::snapshot::{put_u16, put_u8};
        for (_, _, set) in self.decoded() {
            put_u8(out, set.len() as u8);
            set.targets().iter().for_each(|x| put_u16(out, x.0));
        }
        let mut rest = &self.gens[..];
        for r in self.view.topo.iter_nodes() {
            let (run, tail) = rest.split_at(rest.partition_point(|g| g.router == r));
            rest = tail;
            for d in 0..4 {
                let mine = || run.iter().filter(|g| g.dir as usize == d);
                put_u8(out, mine().count() as u8);
                mine().for_each(|g| put_u16(out, g.target.0));
            }
        }
    }

    /// Queues a wakeup generated at `router` for a packet destined to `dst`,
    /// returning the punched target for observability.
    ///
    /// The target is the router `min(H, dist)` hops ahead on the route
    /// (§4.1 step 1). Nothing is queued when `router == dst` (returns
    /// `None`).
    pub fn generate(&mut self, router: NodeId, dst: NodeId) -> Option<NodeId> {
        if router == dst {
            return None;
        }
        let (t, (dx, dy)) = (&*self.tables, self.view.topo.delta(router, dst));
        let h = t.hops as i32;
        let at = (dy.clamp(-h, h) + h) * (2 * h + 1) + dx.clamp(-h, h) + h;
        let (dir, code, ahead) = t.local[at as usize];
        let target = offset(self.view.topo, router, ahead);
        // Behind every generation already queued at `router`: FIFO.
        let at = self.gens.partition_point(|g| g.router <= router);
        let gen = Gen {
            router,
            target,
            dir,
            code,
        };
        self.gens.insert(at, gen);
        self.queued.set(router.index());
        Some(target)
    }

    /// Advances the fabric one cycle. Calls `notify(router)` for every
    /// router that receives a punch arrival (targeted *or* en route — both
    /// must stay awake or wake up), in ascending router order.
    ///
    /// Cost: a word per 64 routers, and lookups per router it notifies.
    pub fn tick(&mut self, mut notify: impl FnMut(NodeId)) {
        if self.is_idle() {
            return;
        }
        let (t, topo) = (&*self.tables, self.view.topo);
        let (queued, mut g, mut kept, mut live) = (self.gens.len(), 0, 0, 0);
        for w in 0..self.arriving.words().len() {
            let mut word = self.arriving.words()[w] | self.queued.words()[w];
            while word != 0 {
                let here = w * 64 + word.trailing_zeros() as usize;
                let router = NodeId(here as u16);
                word &= word - 1;
                let mut out = 0;
                for (d, code) in codes(std::mem::take(&mut self.wires[here])) {
                    out = t.join(out, t.relay[d][code as usize]);
                }
                // One local generation per output; later ones stay queued.
                let mut popped = 0u8;
                while g < queued && self.gens[g].router == router {
                    let gen = self.gens[g];
                    if popped & (1 << gen.dir) != 0 {
                        self.gens[kept] = gen;
                        kept += 1;
                    } else {
                        popped |= 1 << gen.dir;
                        out = t.join(out, (gen.code as u32) << (8 * gen.dir));
                    }
                    g += 1;
                }
                if popped != 0 && (kept == 0 || self.gens[kept - 1].router != router) {
                    self.queued.clear(here);
                }
                // Arrivals and generations both notify: a generation wakes
                // its router when that is the first hop of an injection punch.
                notify(router);
                for (d, code) in codes(out) {
                    let to = offset(topo, router, STEP[d]).index();
                    self.shipped[to] |= (code as u32) << (8 * d);
                    self.landing.set(to);
                    self.hops_sent_at[here] += 1;
                    live += 1;
                }
            }
        }
        debug_assert_eq!(g, queued, "a queued generation was not visited");
        self.gens.truncate(kept);
        self.live = live;
        self.hops_sent += live as u64;
        self.arriving.clear_all();
        std::mem::swap(&mut self.wires, &mut self.shipped);
        std::mem::swap(&mut self.arriving, &mut self.landing);
    }

    /// In-flight punch sets as `(link_source, direction, set)` in
    /// `(receiver, input)` order, decoded (canonical): the set is on the
    /// wire leaving `link_source` toward `direction` (a test hook).
    pub fn in_flight(&self) -> Vec<(NodeId, Direction, PunchSet)> {
        let src = |to, from| self.view.topo.neighbor(to, from).expect("a link");
        let wire = |(to, from, set): (_, Direction, _)| (src(to, from), from.opposite(), set);
        Vec::from_iter(self.decoded().filter(|w| !w.2.is_empty()).map(wire))
    }

    /// Every router's input wires as `(router, from, set)`, in router and
    /// [`Direction::ALL`] order; an idle wire decodes to the empty set.
    fn decoded(&self) -> impl Iterator<Item = (NodeId, Direction, PunchSet)> + '_ {
        let topo = self.view.topo;
        let wires = topo.iter_nodes().zip(&self.wires);
        wires.flat_map(move |(to, &w)| {
            Direction::ALL.map(|from| {
                let d = from.opposite().index();
                let set = self.tables.decode(topo, to, d, (w >> (8 * d)) as Code);
                (to, from, set)
            })
        })
    }

    /// Punch signals on wires plus queued generations — the sideband
    /// backlog reported in stall diagnostics. O(1).
    pub fn pending(&self) -> usize {
        self.live + self.gens.len()
    }

    /// `true` when no signals are in flight and no generations queued. O(1).
    pub fn is_idle(&self) -> bool {
        self.pending() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Codebook;
    use punchsim_types::{RoutingKind, Torus};

    fn mesh8() -> Mesh {
        Mesh::new(8, 8)
    }

    #[test]
    fn generate_targets_min_hops_ahead() {
        let m = mesh8();
        let mut f = PunchFabric::new(m, 3);
        // Packet at R26 destined to R31: target R29 (paper example).
        f.generate(NodeId(26), NodeId(31));
        let mut notified = Vec::new();
        // Cycle 1: the set leaves R26 eastward and arrives at R27.
        f.tick(|r| notified.push(r));
        assert_eq!(notified, vec![NodeId(26)]);
        notified.clear();
        f.tick(|r| notified.push(r));
        assert_eq!(notified, vec![NodeId(27)]);
        notified.clear();
        f.tick(|r| notified.push(r));
        assert_eq!(notified, vec![NodeId(28)]);
        notified.clear();
        f.tick(|r| notified.push(r));
        assert_eq!(notified, vec![NodeId(29)]);
        notified.clear();
        // Consumed at the target: nothing further.
        f.tick(|r| notified.push(r));
        assert!(notified.is_empty());
        assert!(f.is_idle());
        assert_eq!(f.hops_sent, 3);
    }

    #[test]
    fn turning_punch_follows_xy_path() {
        let m = mesh8();
        let mut f = PunchFabric::new(m, 3);
        // R26 -> dst R44 (x=4,y=5): path 27, 28, then south; 3-hop target
        // is R36 (x=4,y=4).
        f.generate(NodeId(26), NodeId(44));
        let mut seen = Vec::new();
        for _ in 0..6 {
            f.tick(|r| seen.push(r));
        }
        assert_eq!(
            seen,
            vec![NodeId(26), NodeId(27), NodeId(28), NodeId(36)],
            "notification sweeps the XY path to the 3-hop target"
        );
    }

    #[test]
    fn same_cycle_generations_merge_contention_free() {
        let m = mesh8();
        let mut f = PunchFabric::new(m, 3);
        // R27 targets R21 (via 28); simultaneously R26's relay would do so
        // too. Generate two wakeups at 27 with different destinations whose
        // targets share the eastward wire.
        f.generate(NodeId(27), NodeId(23)); // target 3 hops east: R30
        f.generate(NodeId(27), NodeId(21)); // target R21 (2 east, 1 north)
                                            // One local generation per output per cycle: the second waits.
        let mut rounds: Vec<Vec<NodeId>> = Vec::new();
        for _ in 0..8 {
            let mut v = Vec::new();
            f.tick(|r| v.push(r));
            rounds.push(v);
        }
        let all: Vec<NodeId> = rounds.concat();
        // Both 30 and 21 eventually get notified.
        assert!(all.contains(&NodeId(30)));
        assert!(all.contains(&NodeId(21)));
        assert!(f.is_idle());
    }

    #[test]
    fn relay_merges_with_local_generation() {
        let m = mesh8();
        let mut f = PunchFabric::new(m, 3);
        // A relay from R26 (target 36, turning south at 28) and a local
        // generation at R27 (target 30, straight east) share the 27->28 wire
        // in the same cycle without delaying each other.
        f.generate(NodeId(26), NodeId(36));
        f.tick(|_| {}); // 26 -> 27 in flight
        f.generate(NodeId(27), NodeId(23)); // target R30 via east
        let mut seen = Vec::new();
        for _ in 0..6 {
            f.tick(|r| seen.push(r));
        }
        assert!(seen.contains(&NodeId(36)));
        assert!(seen.contains(&NodeId(30)));
        // 36 and 30 diverge at 28; both were carried across 27->28 at once.
        assert!(f.is_idle());
    }

    /// Every substrate kind and routing derives its tables within the code
    /// width at every punch depth a configuration accepts. A mesh's tables
    /// do not depend on its size; a torus's do on its ring sizes, so every
    /// ring from 2 to past where the plane's codebook is reached is
    /// covered, odd and even (half-ring ties).
    #[test]
    fn every_substrate_routing_and_depth_fits_the_code_width() {
        for routing in RoutingKind::ALL {
            for hops in 1..=4 {
                let rings = (2..=9).map(|w| RouteView::new(Torus::new(w, 11 - w), routing));
                for view in rings.chain([RouteView::new(mesh8(), routing)]) {
                    // A ring of 2 never routes West or North: those classes
                    // stay empty.
                    let widest = Tables::new(view, hops).sets.map(|s| s.len());
                    let widest = widest.into_iter().max().unwrap();
                    assert!((1..=Code::MAX as usize).contains(&widest), "{view:?}");
                }
            }
        }
    }

    /// Translation invariance, against the per-link enumeration: every
    /// link's codebook, in offsets from the router the link reaches, is a
    /// subset of its class (border links of a mesh) or the class itself (a
    /// torus, every router of which is alike).
    #[test]
    fn every_link_codebook_is_its_class_in_offsets() {
        let views = [
            RouteView::from(mesh8()),
            RouteView::new(Mesh::new(5, 3), RoutingKind::Yx),
            RouteView::new(Torus::new(6, 4), RoutingKind::Xy),
            RouteView::new(Torus::new(5, 5), RoutingKind::Yx),
        ];
        for view in views {
            for hops in 1..=3 {
                let (cb, t) = (Codebook::enumerate(view, hops), Tables::new(view, hops));
                for link in cb.iter() {
                    let to = view.topo.neighbor(link.from, link.dir).unwrap();
                    let class = &t.sets[link.dir.index()];
                    for s in link.sets() {
                        let framed = s
                            .translated(|x| offset(t.frame.topo, t.center, view.topo.delta(to, x)));
                        assert!(class.contains(&framed), "{view:?} H={hops} {s}");
                    }
                    if view.topo.wraps() {
                        assert_eq!(link.set_count(), class.len(), "{view:?} H={hops}");
                    }
                }
            }
        }
    }

    /// Table 1: the X+ class at H = 3 holds exactly the 22 sets of R27's
    /// X+ link on the 8x8 mesh, decoded at R28.
    #[test]
    fn the_x_plus_class_at_h3_is_table_1() {
        let t = Tables::new(mesh8().into(), 3);
        let east = Direction::East.index();
        let decoded: Vec<PunchSet> = (1..=t.sets[east].len())
            .map(|c| t.decode(mesh8().into(), NodeId(28), east, c as Code))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let cb = Codebook::enumerate(mesh8(), 3);
        assert_eq!(
            decoded,
            cb.link(NodeId(27), Direction::East).unwrap().sets()
        );
        assert_eq!(decoded.len(), 22);
    }

    /// Clones (the checker's forks, `Network::try_clone`) share the tables.
    #[test]
    fn clones_share_the_tables() {
        let pm = crate::PowerPunchManager::new(mesh8(), &Default::default(), 4, true);
        let fork = pm.clone();
        assert!(Arc::ptr_eq(&pm.fabric().tables, &fork.fabric().tables));
    }
}
