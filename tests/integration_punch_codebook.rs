//! End-to-end validation of the punch-signal encoding claims: every signal
//! the fabric actually carries during stressed operation must be expressible
//! in the enumerated codebook (§4.1 / Table 1) — i.e. merging really is
//! contention-free at the claimed wire widths.

use punchsim::core::{Codebook, PunchFabric};
use punchsim::types::{Mesh, NodeId, RouteView, RoutingKind, SimRng, Torus};

fn stress_fabric(view: impl Into<RouteView>, hops: u16, rounds: usize, seed: u64) {
    let view = view.into();
    let cb = Codebook::enumerate(view, hops);
    let mut fabric = PunchFabric::new(view, hops);
    let mut rng = SimRng::seed_from_u64(seed);
    let n = view.topo.nodes() as u16;
    for _ in 0..rounds {
        // A burst of random wakeups (several per cycle, like a busy NoC).
        for _ in 0..n / 4 {
            let r = NodeId(rng.random_range(0..n));
            let d = NodeId(rng.random_range(0..n));
            fabric.generate(r, d);
        }
        fabric.tick(|_| {});
        for (src, dir, set) in fabric.in_flight() {
            let link = cb
                .link(src, dir)
                .unwrap_or_else(|| panic!("no link {src}->{dir}"));
            assert!(
                link.encode(&set).is_some(),
                "set {set} on {src}->{dir} not in the {}-bit codebook",
                link.width_bits()
            );
        }
    }
    // Drain and keep validating.
    while !fabric.is_idle() {
        fabric.tick(|_| {});
        for (src, dir, set) in fabric.in_flight() {
            assert!(cb.link(src, dir).unwrap().encode(&set).is_some());
        }
    }
}

#[test]
fn h3_8x8_signals_always_encodable() {
    stress_fabric(Mesh::new(8, 8), 3, 400, 1);
}

#[test]
fn h2_8x8_signals_always_encodable() {
    stress_fabric(Mesh::new(8, 8), 2, 300, 2);
}

#[test]
fn h4_8x8_signals_always_encodable() {
    stress_fabric(Mesh::new(8, 8), 4, 300, 3);
}

#[test]
fn h3_4x4_and_16x16_signals_always_encodable() {
    stress_fabric(Mesh::new(4, 4), 3, 300, 4);
    stress_fabric(Mesh::new(16, 16), 3, 60, 5);
}

/// The other substrates `ppf` runs on in the `substrate` suite: the 8x8
/// torus under XY and the 8x8 mesh under YX.
#[test]
fn h3_substrate_suite_signals_always_encodable() {
    stress_fabric((Torus::new(8, 8), RoutingKind::Xy), 3, 300, 6);
    stress_fabric((Mesh::new(8, 8), RoutingKind::Yx), 3, 300, 7);
}

#[test]
fn codebook_widths_scale_with_hops_not_mesh_size() {
    // §6.6(2): "the width of the punch signals depends on the number of
    // targeted router hops, not network size".
    let w8 = Codebook::enumerate(Mesh::new(8, 8), 3).max_x_width();
    let w16 = Codebook::enumerate(Mesh::new(16, 16), 3).max_x_width();
    assert_eq!(w8, w16);
    let y8 = Codebook::enumerate(Mesh::new(8, 8), 3).max_y_width();
    let y16 = Codebook::enumerate(Mesh::new(16, 16), 3).max_y_width();
    assert_eq!(y8, y16);
}
