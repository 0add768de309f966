//! The full-sweep reference implementation of the punch fabric — every
//! router × 4 wires × 4 generation queues visited every ticked cycle —
//! and the lock-step differential that pins the worklist
//! [`PunchFabric`] against it, in the same spirit as `gating_reference`.
//! Test-only: compiled under `cfg(test)` and part of no shipped API.
//!
//! `SweepFabric::tick` is the shipped tick as it stood before the
//! worklist, verbatim (including `Vec::remove(0)`), carrying target sets
//! where the fabric carries codewords; the wire format and the planes are
//! execution details, so any observable divergence — notify sequence,
//! wires, snapshot bytes, hop statistics, backlog — is a bug.

use punchsim_noc::{IdleInfo, PmEvent, PowerManager};
use punchsim_types::{Direction, Mesh, NodeId, PowerConfig, RouteView, RoutingKind, SimRng, Torus};

use crate::codebook::PunchSet;
use crate::manager::PowerPunchManager;
use crate::punch::PunchFabric;

/// Full-sweep punch fabric; same observable API subset as
/// [`PunchFabric`], O(routers) per ticked cycle by construction.
#[derive(Debug, Clone)]
struct SweepFabric {
    view: RouteView,
    hops: u16,
    arriving: Vec<[PunchSet; 4]>,
    scratch: Vec<[PunchSet; 4]>,
    gen_queues: Vec<[Vec<NodeId>; 4]>,
    wires_live: usize,
    gens_queued: usize,
    hops_sent: u64,
    hops_sent_at: Vec<u64>,
}

impl SweepFabric {
    fn new(view: impl Into<RouteView>, hops: u16) -> Self {
        let view = view.into();
        let n = view.topo.nodes();
        SweepFabric {
            view,
            hops,
            arriving: vec![[PunchSet::new(); 4]; n],
            scratch: vec![[PunchSet::new(); 4]; n],
            gen_queues: vec![Default::default(); n],
            wires_live: 0,
            gens_queued: 0,
            hops_sent: 0,
            hops_sent_at: vec![0; n],
        }
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        use punchsim_noc::snapshot::{put_u16, put_u8};
        for wires in &self.arriving {
            for set in wires {
                let canon = set.canonical();
                put_u8(out, canon.len() as u8);
                for &t in canon.targets() {
                    put_u16(out, t.0);
                }
            }
        }
        for queues in &self.gen_queues {
            for q in queues {
                put_u8(out, q.len() as u8);
                for t in q {
                    put_u16(out, t.0);
                }
            }
        }
    }

    fn generate(&mut self, router: NodeId, dst: NodeId) -> Option<NodeId> {
        if router == dst {
            return None;
        }
        let target = self.view.router_ahead(router, dst, self.hops);
        let dir = self
            .view
            .direction(router, target)
            .expect("target != router by construction");
        self.gen_queues[router.index()][dir.index()].push(target);
        self.gens_queued += 1;
        Some(target)
    }

    fn tick(&mut self, mut notify: impl FnMut(NodeId)) {
        if self.wires_live == 0 && self.gens_queued == 0 {
            return; // idle fabric: nothing can arrive, nothing to relay
        }
        let n = self.view.topo.nodes();
        let mut live = 0usize;
        for idx in 0..n {
            let here = NodeId(idx as u16);
            // Collect arrivals; any non-empty arrival notifies this router.
            let mut outgoing = [PunchSet::new(); 4];
            let mut any_arrival = false;
            for d in 0..4 {
                let set = std::mem::take(&mut self.arriving[idx][d]);
                if set.is_empty() {
                    continue;
                }
                any_arrival = true;
                for &t in set.targets() {
                    if t == here {
                        continue; // final target reached; consumed
                    }
                    let dir = self.view.direction(here, t).expect("t != here");
                    outgoing[dir.index()].insert_normalized(self.view, here, t);
                }
            }
            // Local generations also notify (they wake the local router when
            // it is the first hop of an injection punch).
            for (d, out) in outgoing.iter_mut().enumerate() {
                if let Some(t) = self.pop_gen(idx, d) {
                    any_arrival = true;
                    out.insert_normalized(self.view, here, t);
                }
            }
            if any_arrival {
                notify(here);
            }
            // Ship each non-empty outgoing set one hop.
            for (d, set) in outgoing.into_iter().enumerate() {
                if set.is_empty() {
                    continue;
                }
                let dir = Direction::ALL[d];
                let Some(nb) = self.view.topo.neighbor(here, dir) else {
                    debug_assert!(false, "punch target routed off the substrate");
                    continue;
                };
                self.hops_sent += 1;
                self.hops_sent_at[idx] += 1;
                live += 1;
                self.scratch[nb.index()][dir.opposite().index()] = set;
            }
        }
        // `arriving` is all-empty after the take() sweep above, so the two
        // buffers swap roles with no clearing pass.
        std::mem::swap(&mut self.arriving, &mut self.scratch);
        self.wires_live = live;
        debug_assert!(self
            .scratch
            .iter()
            .all(|a| a.iter().all(PunchSet::is_empty)));
    }

    fn pop_gen(&mut self, idx: usize, d: usize) -> Option<NodeId> {
        let q = &mut self.gen_queues[idx][d];
        if q.is_empty() {
            None
        } else {
            self.gens_queued -= 1;
            Some(q.remove(0))
        }
    }

    fn in_flight(&self) -> Vec<(NodeId, Direction, PunchSet)> {
        let mut v = Vec::new();
        for (idx, arr) in self.arriving.iter().enumerate() {
            for (d, set) in arr.iter().enumerate() {
                if set.is_empty() {
                    continue;
                }
                let dir = Direction::ALL[d];
                let src = self
                    .view
                    .topo
                    .neighbor(NodeId(idx as u16), dir)
                    .expect("punch arrived over a real link");
                v.push((src, dir.opposite(), *set));
            }
        }
        v
    }

    fn pending(&self) -> usize {
        self.wires_live + self.gens_queued
    }

    fn is_idle(&self) -> bool {
        self.pending() == 0
    }
}

/// Drives both fabrics through `cycles` cycles of the same seeded
/// `generate` traffic — a trickle on most cycles, bursts that pile several
/// generations onto one router (and so one direction), and silent
/// stretches long enough to drain — comparing every observable each cycle.
fn lock_step(view: RouteView, hops: u16, seed: u64, cycles: u64) {
    let n = view.topo.nodes() as u16;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut work = PunchFabric::new(view, hops);
    let mut oracle = SweepFabric::new(view, hops);
    let mut quiet_until = 0;
    let (mut hops_seen, mut idle_cycles) = (0u64, 0u64);
    for c in 0..cycles {
        let ctx = || format!("{view:?} H={hops} seed={seed:#x} cycle {c}");
        if c >= quiet_until {
            let mut gens = rng.random_range(0..3u32);
            let burst_at = rng.random_bool_ppm(60_000).then(|| rng.random_range(0..n));
            if burst_at.is_some() {
                gens = rng.random_range(4..10);
            }
            for _ in 0..gens {
                let router = NodeId(burst_at.unwrap_or_else(|| rng.random_range(0..n)));
                let dst = NodeId(rng.random_range(0..n));
                assert_eq!(
                    work.generate(router, dst),
                    oracle.generate(router, dst),
                    "{}",
                    ctx()
                );
            }
            if rng.random_bool_ppm(20_000) {
                quiet_until = c + rng.random_range(10..60u64);
            }
        }
        let (mut got, mut want) = (Vec::new(), Vec::new());
        work.tick(|r| got.push(r));
        oracle.tick(|r| want.push(r));
        assert_eq!(got, want, "notify sequence, {}", ctx());
        // A wire holds a code, so a decoded set has no insertion order.
        let canonical = |v: Vec<(NodeId, Direction, PunchSet)>| {
            v.into_iter()
                .map(|(r, d, s)| (r, d, s.canonical()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            canonical(work.in_flight()),
            canonical(oracle.in_flight()),
            "{}",
            ctx()
        );
        let (mut a, mut b) = (Vec::new(), Vec::new());
        work.encode_state(&mut a);
        oracle.encode_state(&mut b);
        assert_eq!(a, b, "encode_state bytes, {}", ctx());
        assert_eq!(work.hops_sent, oracle.hops_sent, "{}", ctx());
        assert_eq!(work.hops_sent_at, oracle.hops_sent_at, "{}", ctx());
        assert_eq!(work.pending(), oracle.pending(), "{}", ctx());
        assert_eq!(work.is_idle(), oracle.is_idle(), "{}", ctx());
        hops_seen = oracle.hops_sent;
        idle_cycles += oracle.is_idle() as u64;
    }
    // The trace must have exercised both regimes it claims to.
    assert!(hops_seen > cycles / 2, "{view:?}: trace too thin");
    assert!(idle_cycles > 0, "{view:?}: fabric never drained");
}

#[test]
fn worklist_matches_sweep_in_lock_step() {
    // Every (substrate, routing) pair; the 6x4 torus has half-ring ties on
    // both axes.
    let views = [
        RouteView::from(Mesh::new(8, 8)),
        RouteView::new(Mesh::new(5, 3), RoutingKind::Xy),
        RouteView::new(Mesh::new(7, 6), RoutingKind::Yx),
        RouteView::new(Torus::new(6, 4), RoutingKind::Xy),
        RouteView::new(Torus::new(4, 4), RoutingKind::Yx),
    ];
    for (v, view) in views.into_iter().enumerate() {
        for hops in 1..=4 {
            lock_step(view, hops, 0x9_0C4 + 16 * v as u64 + hops as u64, 5_000);
        }
    }
}

/// The cost model, pinned without a clock: a tick visits the routers a
/// punch touches, not the mesh, and the fabric holds entries only for what
/// is in flight. Every router a tick visits it notifies, once, so the
/// notifications count the visits.
#[test]
fn one_punch_on_a_large_fabric_visits_at_most_two_routers_per_tick() {
    let mut f = PunchFabric::new(Mesh::new(32, 32), 3);
    let mut notified = Vec::new();
    for _ in 0..10 {
        f.tick(|r| notified.push(r.0));
    }
    assert!(notified.is_empty(), "an idle fabric visits nothing");
    // Two generations on one router/direction: while the second waits in
    // the generation list the sender is visited again next to the first
    // one's relay.
    f.generate(NodeId(40), NodeId(47));
    f.generate(NodeId(40), NodeId(47));
    assert_eq!(f.pending(), 2, "two list entries, no per-router state");
    for _ in 0..5 {
        let before = notified.len();
        f.tick(|r| notified.push(r.0));
        let visited = notified.len() - before;
        assert!(visited <= 2, "visited {visited}");
        assert!(f.pending() <= 2, "{} entries held", f.pending());
    }
    assert!(f.is_idle());
    assert_eq!(notified, [40, 40, 41, 41, 42, 42, 43, 43]);
    f.tick(|r| notified.push(r.0));
    assert_eq!(notified.len(), 8, "drained: back to zero visits per tick");
}

/// A manager forked (`clone_boxed`, what the checker and
/// `Network::try_clone` do) while two generations wait on the same
/// `(router, dir)` carries the list order with it: the fork and the
/// original tick in lock step until the sideband drains.
#[test]
fn fork_with_two_generations_queued_on_one_output_ticks_in_lock_step() {
    let mesh = Mesh::new(8, 8);
    let idle = vec![true; 64];
    let idle = IdleInfo { idle: &idle };
    let mut orig = PowerPunchManager::new(mesh, &PowerConfig::default(), 4, false);
    // Three eastward punches from R26 (targets R29, R28 and R36, the last
    // turning south at R28): the tick sends the first, the other two stay
    // queued on (R26, East) in that order.
    let heads = [(26, 31), (26, 28), (26, 44)].map(|(r, d)| PmEvent::HeadArrival {
        router: NodeId(r),
        dst: NodeId(d),
    });
    orig.tick(10, &heads, idle);
    assert_eq!(orig.pending_punches(), 3, "one wire, two queued");
    let mut fork = orig.clone_boxed().expect("ppf forks");
    for c in 11..30 {
        orig.tick(c, &[], idle);
        fork.tick(c, &[], idle);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert!(orig.encode_state(c + 1, &mut a) && fork.encode_state(c + 1, &mut b));
        assert_eq!(a, b, "cycle {c}");
        assert_eq!(orig.counters(), fork.counters(), "cycle {c}");
        assert_eq!(orig.pending_punches(), fork.pending_punches(), "cycle {c}");
    }
    assert_eq!(orig.pending_punches(), 0);
    assert_eq!(orig.counters().punch_hops, 3 + 2 + 3);
}
