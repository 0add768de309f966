//! Property-style tests on the core invariants of the system.
//!
//! These used to run under `proptest`; they are now driven by the in-repo
//! deterministic [`SimRng`] so the workspace has no external dependencies
//! and every "random" case is exactly reproducible. Each test sweeps a
//! seeded batch of generated cases and asserts the invariant on every one.

use punchsim::core::{build_power_manager, Codebook, PunchFabric, PunchSet};
use punchsim::noc::{AlwaysOn, Message, MsgClass, Network};
use punchsim::types::{
    routing::route_path, Direction, Mesh, NocConfig, NodeId, RouteView, SchemeKind, SimConfig,
    SimRng, Substrate, VnetId,
};

fn random_mesh(rng: &mut SimRng) -> Substrate {
    Mesh::new(rng.random_range(2..9u16), rng.random_range(2..9u16)).into()
}

/// XY routes are minimal and never take an illegal Y->X turn.
#[test]
fn xy_routes_minimal_and_legal() {
    let mut rng = SimRng::seed_from_u64(0x10);
    for _ in 0..64 {
        let mesh = random_mesh(&mut rng);
        let xy = RouteView::from(mesh);
        let n = mesh.nodes() as u16;
        let a = NodeId(rng.random_range(0..n));
        let b = NodeId(rng.random_range(0..n));
        let path: Vec<NodeId> = route_path(xy, a, b).collect();
        assert_eq!(path.len(), mesh.distance(a, b) as usize);
        // Reconstruct travel directions and check turn legality.
        let mut prev = a;
        let mut prev_dir: Option<Direction> = None;
        for hop in path {
            let dir = xy.direction(prev, hop).unwrap();
            assert_eq!(mesh.neighbor(prev, dir), Some(hop));
            if let Some(pd) = prev_dir {
                if pd != dir {
                    assert!(xy.routing.turn_legal(pd, dir), "illegal turn {pd} -> {dir}");
                }
            }
            prev_dir = Some(dir);
            prev = hop;
        }
    }
}

/// The punch target is exactly `min(H, dist)` hops ahead and on-path.
#[test]
fn punch_target_min_rule() {
    let mut rng = SimRng::seed_from_u64(0x11);
    for _ in 0..64 {
        let mesh = random_mesh(&mut rng);
        let n = mesh.nodes() as u16;
        let a = NodeId(rng.random_range(0..n));
        let b = NodeId(rng.random_range(0..n));
        let h = rng.random_range(1..5u16);
        let xy = RouteView::from(mesh);
        let t = xy.router_ahead(a, b, h);
        assert_eq!(mesh.distance(a, t), h.min(mesh.distance(a, b)));
        assert!(xy.on_path(a, b, t));
    }
}

/// Normalization is insertion-order independent and keeps no implied
/// targets.
#[test]
fn punch_set_normalization_order_free() {
    let mesh = Mesh::new(8, 8);
    let mut rng = SimRng::seed_from_u64(0x12);
    for _ in 0..64 {
        let sender = NodeId(rng.random_range(0..64u16));
        let len = rng.random_range(1..5usize);
        let ts: Vec<NodeId> = (0..len)
            .map(|_| NodeId(rng.random_range(0..64u16)))
            .filter(|&t| t != sender)
            .collect();
        if ts.is_empty() {
            continue;
        }
        let mut fwd = PunchSet::new();
        for &t in &ts {
            fwd.insert_normalized(mesh, sender, t);
        }
        // A pseudo-random permutation must give the same canonical set.
        let mut shuffled = ts.clone();
        for i in (1..shuffled.len()).rev() {
            let j = rng.random_range(0..(i + 1));
            shuffled.swap(i, j);
        }
        let mut rev = PunchSet::new();
        for &t in &shuffled {
            rev.insert_normalized(mesh, sender, t);
        }
        assert_eq!(fwd.canonical(), rev.canonical());
        // No target is on the path to another (no implied targets).
        for &x in fwd.targets() {
            for &y in fwd.targets() {
                if x != y {
                    assert!(!RouteView::from(mesh).on_path(sender, y, x));
                }
            }
        }
        // Idempotence.
        let mut again = fwd;
        for &t in &ts {
            again.insert_normalized(mesh, sender, t);
        }
        assert_eq!(again.canonical(), fwd.canonical());
    }
}

/// A punch notifies exactly the routers on the path to its target,
/// in hop order, one per cycle.
#[test]
fn punch_fabric_notifies_exact_path() {
    let mesh = Mesh::new(8, 8);
    let mut rng = SimRng::seed_from_u64(0x13);
    for _ in 0..64 {
        let src = NodeId(rng.random_range(0..64u16));
        let dst = NodeId(rng.random_range(0..64u16));
        if src == dst {
            continue;
        }
        let h = rng.random_range(1..5u16);
        let mut fabric = PunchFabric::new(mesh, h);
        fabric.generate(src, dst);
        let target = RouteView::from(mesh).router_ahead(src, dst, h);
        let expect: Vec<NodeId> = std::iter::once(src)
            .chain(route_path(mesh, src, target))
            .collect();
        let mut seen = Vec::new();
        for _ in 0..(h as usize + 2) {
            fabric.tick(|r| seen.push(r));
        }
        assert_eq!(seen, expect);
        assert!(fabric.is_idle());
    }
}

/// Every punch signal in flight is encodable; encode/decode roundtrips.
#[test]
fn codebook_roundtrip_all_links() {
    let mesh = Mesh::new(8, 8);
    let cb = Codebook::enumerate(mesh, 3);
    for r in 0..64u16 {
        for dir in Direction::ALL {
            if let Some(link) = cb.link(NodeId(r), dir) {
                for (i, s) in link.sets().iter().enumerate() {
                    assert_eq!(link.encode(s), Some((i + 1) as u16));
                    let decoded = link.decode((i + 1) as u16);
                    assert_eq!(decoded.as_ref(), Some(s));
                }
            }
        }
    }
}

/// Contention-freedom of the punch codebooks (§4.1 steps 3–5): whatever
/// subset of wakeup signals shares a link in the same cycle — relayed
/// remainders arriving from any combination of upstream links plus at
/// most one locally generated punch — the merged target set is itself a
/// codebook entry, and its codeword decodes to exactly the normalized
/// (implied-target-free) closure of the merged targets. Merging therefore
/// never needs arbitration, never loses a target, and never wakes a
/// router the closure does not name.
#[test]
fn codebook_merges_are_contention_free() {
    let mut rng = SimRng::seed_from_u64(0x16);
    // Memoize enumerations: the random cases reuse few (mesh, H) combos.
    let mut books: Vec<((u16, u16, u16), Codebook)> = Vec::new();
    for _case in 0..300 {
        let mesh = random_mesh(&mut rng);
        let xy = RouteView::from(mesh);
        let h = rng.random_range(2..5u16);
        let key = (mesh.width(), mesh.height(), h);
        if !books.iter().any(|(k, _)| *k == key) {
            books.push((key, Codebook::enumerate(mesh, h)));
        }
        let cb = &books.iter().find(|(k, _)| *k == key).unwrap().1;
        // A random directed link that exists.
        let n = mesh.nodes() as u16;
        let (r, dir) = loop {
            let r = NodeId(rng.random_range(0..n));
            let dir = Direction::ALL[rng.random_range(0..4usize)];
            if cb.link(r, dir).is_some() {
                break (r, dir);
            }
        };
        let link = cb.link(r, dir).unwrap();
        // Merge a random subset of same-cycle contributors.
        let mut merged = PunchSet::new();
        for in_dir in Direction::ALL {
            let Some(up) = mesh.neighbor(r, in_dir) else {
                continue;
            };
            let Some(up_link) = cb.link(up, in_dir.opposite()) else {
                continue;
            };
            if rng.random_bool_ppm(500_000) {
                continue; // this upstream link is idle this cycle
            }
            let arriving = up_link.sets()[rng.random_range(0..up_link.set_count())];
            // The relayed remainder: targets consumed at `r` drop out and
            // only those continuing through (r, dir) ride this link.
            for &t in arriving.targets() {
                if t != r && xy.direction(r, t) == Some(dir) {
                    merged.insert_normalized(mesh, r, t);
                }
            }
        }
        if rng.random_bool_ppm(500_000) {
            // At most one locally generated punch joins the merge (the
            // fabric's generation arbitration enforces the "one").
            let local: Vec<NodeId> = mesh
                .iter_nodes()
                .filter(|&t| t != r && mesh.distance(r, t) <= h && xy.direction(r, t) == Some(dir))
                .collect();
            if !local.is_empty() {
                merged.insert_normalized(mesh, r, local[rng.random_range(0..local.len())]);
            }
        }
        if merged.is_empty() {
            continue;
        }
        let code = link
            .encode(&merged)
            .unwrap_or_else(|| panic!("merged set {merged} not expressible on {r}->{dir} (H={h})"));
        assert!(code > 0, "non-empty merge must not encode to idle");
        assert_eq!(
            link.decode(code),
            Some(merged.canonical()),
            "codeword must decode to the exact implied-target closure"
        );
    }
}

/// The paper's wire-width claims, re-checked from the property-test side:
/// H=3 on an 8x8 mesh needs at most 5 bits on X links and 2 bits on Y
/// links (Table 1 / §4.1 step 4).
#[test]
fn h3_link_widths_match_paper() {
    let cb = Codebook::enumerate(Mesh::new(8, 8), 3);
    for l in cb.iter() {
        let cap = if l.dir.is_x() { 5 } else { 2 };
        assert!(
            l.width_bits() <= cap,
            "{}->{} needs {} bits",
            l.from,
            l.dir,
            l.width_bits()
        );
    }
    assert_eq!(cb.max_x_width(), 5);
    assert_eq!(cb.max_y_width(), 2);
}

/// Conservation: every injected packet is delivered exactly once, to the
/// right node, under random traffic (always-on network).
#[test]
fn network_delivers_everything_exactly_once() {
    let mut rng = SimRng::seed_from_u64(0x14);
    for _case in 0..12 {
        let cfg = NocConfig {
            topology: Mesh::new(4, 4).into(),
            ..NocConfig::default()
        };
        let mut net = Network::new(&cfg, Box::new(AlwaysOn::new(16))).unwrap();
        let mut expected = [0usize; 16];
        let mut distance = 0u64;
        let sends = rng.random_range(1..120usize);
        for i in 0..sends {
            let dst = rng.random_range(0..16u16);
            let src = rng.random_range(0..16u16);
            distance += u64::from(cfg.topology.distance(NodeId(src), NodeId(dst)));
            net.send(Message {
                src: NodeId(src),
                dst: NodeId(dst),
                vnet: VnetId(rng.random_range(0..3u8)),
                class: if rng.random_bool_ppm(500_000) {
                    MsgClass::Data
                } else {
                    MsgClass::Control
                },
                payload: i as u64,
                gen_cycle: 0,
            })
            .unwrap();
            expected[dst as usize] += 1;
            net.tick().unwrap();
        }
        let mut guard = 0;
        while net.in_flight() > 0 {
            net.tick().unwrap();
            guard += 1;
            assert!(guard < 50_000, "drain stalled");
        }
        // Payloads are the send indices: each must come out exactly once —
        // and where it was addressed, so having travelled its distance.
        assert_eq!(net.report().stats.hops.sum(), distance as f64);
        let mut got = [0usize; 16];
        let mut seen = vec![false; sends];
        for m in net.drain_delivered() {
            got[m.dst.index()] += 1;
            assert!(!std::mem::replace(&mut seen[m.payload as usize], true));
        }
        assert_eq!(got, expected);
    }
}

/// The same conservation holds under Power Punch gating (no packet is
/// lost to a power transition), with the watchdog live the whole time.
#[test]
fn gated_network_loses_nothing() {
    let mut rng = SimRng::seed_from_u64(0x15);
    for _case in 0..12 {
        let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
        cfg.noc.topology = Mesh::new(4, 4).into();
        let pm = build_power_manager(&cfg).unwrap();
        let mut net = Network::new(&cfg.noc, pm).unwrap();
        let gap = rng.random_range(1..40u64);
        let sends = rng.random_range(1..60usize);
        let mut total = 0usize;
        for _ in 0..sends {
            net.send(Message {
                src: NodeId(rng.random_range(0..16u16)),
                dst: NodeId(rng.random_range(0..16u16)),
                vnet: VnetId(0),
                class: MsgClass::Control,
                payload: 0,
                gen_cycle: 0,
            })
            .unwrap();
            total += 1;
            // Gaps let routers power off between packets.
            net.run(gap).unwrap();
        }
        let mut guard = 0;
        while net.in_flight() > 0 {
            net.tick().unwrap();
            guard += 1;
            assert!(guard < 100_000, "drain stalled under gating");
        }
        let delivered = net.drain_delivered().count();
        assert_eq!(delivered, total);
    }
}
