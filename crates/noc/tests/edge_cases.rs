//! Substrate edge cases: degenerate meshes, fairness, vnet isolation,
//! and delivery events.

use punchsim_noc::obs::{Event, RingSink};
use punchsim_noc::{AlwaysOn, Message, MsgClass, Network};
use punchsim_types::{Mesh, NocConfig, NodeId, VnetId};

fn msg(src: u16, dst: u16, vnet: u8, class: MsgClass) -> Message {
    Message {
        src: NodeId(src),
        dst: NodeId(dst),
        vnet: VnetId(vnet),
        class,
        payload: 0,
        gen_cycle: 0,
    }
}

fn net_with_mesh(mesh: Mesh) -> Network {
    let cfg = NocConfig {
        topology: mesh.into(),
        ..NocConfig::default()
    };
    Network::new(&cfg, Box::new(AlwaysOn::new(mesh.nodes()))).expect("valid config")
}

#[test]
fn one_dimensional_mesh_works() {
    let mut n = net_with_mesh(Mesh::new(8, 1));
    n.send(msg(0, 7, 0, MsgClass::Data)).unwrap();
    n.send(msg(7, 0, 1, MsgClass::Control)).unwrap();
    for _ in 0..200 {
        n.tick().unwrap();
    }
    assert_eq!(n.in_flight(), 0);
    let mut dsts: Vec<NodeId> = n.drain_delivered().map(|m| m.dst).collect();
    dsts.sort();
    assert_eq!(dsts, [NodeId(0), NodeId(7)]);
}

#[test]
fn single_column_mesh_works() {
    let mut n = net_with_mesh(Mesh::new(1, 6));
    n.send(msg(0, 5, 2, MsgClass::Data)).unwrap();
    for _ in 0..200 {
        n.tick().unwrap();
    }
    assert_eq!(
        n.drain_delivered().filter(|m| m.dst == NodeId(5)).count(),
        1
    );
}

#[test]
fn rectangular_mesh_works() {
    let mut n = net_with_mesh(Mesh::new(8, 2));
    for s in 0..16u16 {
        n.send(msg(s, 15 - s, 0, MsgClass::Control)).unwrap();
    }
    for _ in 0..500 {
        n.tick().unwrap();
    }
    assert_eq!(n.in_flight(), 0);
}

#[test]
fn contending_flows_share_a_link_fairly() {
    // Nodes 0 and 8 both stream to node 2: their packets share the link
    // 1->2 (flow A) and the column into 2 (flow B). Over a long run both
    // make comparable progress (round-robin arbitration, no starvation).
    let mut n = net_with_mesh(Mesh::new(4, 4));
    let mut sent = 0;
    for round in 0..300 {
        if round % 2 == 0 && sent < 200 {
            n.send(msg(0, 2, 0, MsgClass::Data)).unwrap();
            n.send(msg(8, 2, 0, MsgClass::Data)).unwrap();
            sent += 2;
        }
        n.tick().unwrap();
    }
    for _ in 0..3000 {
        n.tick().unwrap();
        if n.in_flight() == 0 {
            break;
        }
    }
    assert_eq!(n.in_flight(), 0, "no starvation");
    let got: Vec<Message> = n.drain_delivered().collect();
    assert_eq!(got.len(), sent);
    assert!(got.iter().all(|m| m.dst == NodeId(2)));
    // Both sources appear throughout the delivery order, not one after
    // the other: check the first half contains both.
    let half = &got[..got.len() / 2];
    assert!(half.iter().any(|m| m.src == NodeId(0)));
    assert!(half.iter().any(|m| m.src == NodeId(8)));
}

#[test]
fn vnets_are_isolated_under_congestion() {
    // Saturate vnet 0 with data packets into a hotspot; sparse vnet 2
    // control packets must still be delivered promptly (separate VCs keep
    // the classes from blocking each other — the basis of the MESI
    // deadlock-freedom argument).
    let mut n = net_with_mesh(Mesh::new(4, 4));
    let mut ctrl_sent = 0usize;
    let mut ctrl_got = 0usize;
    for round in 0..400u64 {
        for s in 0..16u16 {
            if s != 5 {
                n.send(msg(s, 5, 0, MsgClass::Data)).unwrap();
            }
        }
        if round % 40 == 0 {
            n.send(msg(0, 15, 2, MsgClass::Control)).unwrap();
            ctrl_sent += 1;
        }
        n.tick().unwrap();
        ctrl_got += n
            .drain_delivered()
            .filter(|m| m.dst == NodeId(15) && m.vnet == VnetId(2))
            .count();
    }
    // All but possibly the last in-flight control packet arrived while the
    // hotspot was still fully congested.
    assert!(
        ctrl_got + 1 >= ctrl_sent,
        "only {ctrl_got}/{ctrl_sent} control packets got through congestion"
    );
}

#[test]
fn sink_records_every_delivery() {
    let mesh = Mesh::new(4, 4);
    let mut n = net_with_mesh(mesh);
    n.set_sink(Box::new(RingSink::new(usize::MAX)));
    let pairs: Vec<(u16, u16)> = (0..20u16).map(|i| (i % 16, (i * 3 + 1) % 16)).collect();
    for &(src, dst) in &pairs {
        n.send(msg(src, dst, 0, MsgClass::Control)).unwrap();
    }
    for _ in 0..500 {
        n.tick().unwrap();
    }
    assert_eq!(n.in_flight(), 0);
    let events = n.take_sink().expect("sink attached").into_vec();
    let latencies: Vec<u64> = events
        .iter()
        .filter_map(|s| match s.event {
            Event::Deliver { latency, .. } => Some(latency),
            _ => None,
        })
        .collect();
    assert_eq!(latencies.len(), 20);
    assert!(latencies.iter().all(|&l| l >= 8), "minimum local latency");
    // Every packet took exactly its minimal route: each is one control
    // flit, so the links crossed sum to the route lengths.
    let distance: u64 = pairs
        .iter()
        .map(|&(s, d)| u64::from(n.topology().distance(NodeId(s), NodeId(d))))
        .sum();
    assert_eq!(n.report().stats.link_traversals, distance);
}
