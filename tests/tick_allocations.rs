//! "A steady-state tick allocates nothing" — the claim `Network`'s field
//! docs and DESIGN §17 make — measured with a counting allocator armed
//! only inside [`Network::tick`] or [`Network::run`] (whose skips over
//! quiet spans must not allocate either); the same allocator takes the
//! heap census of building a network (DESIGN §20) and a CMP (DESIGN §19).
//!
//! Every per-tick collection is a flat vector the network reuses (the
//! delivery wheels' slots, the per-shard outcome buffers, the event list),
//! so once a route has been travelled a second trip over it must not touch
//! the heap: not per hop, not per cycle blocked on a sleeping router, not
//! in the power manager, and not on the delivering tick either — the
//! delivered stream is one buffer that `drain_delivered` empties in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use punchsim::cmp::{Benchmark, CmpConfig, CmpSim};
use punchsim::core::build_power_manager;
use punchsim::metrics::Phase;
use punchsim::noc::{Message, MsgClass, Network};
use punchsim::types::{Mesh, NodeId, SchemeKind, SimConfig, VnetId};

/// What the heap saw while armed: requests (fresh or growing), and the
/// bytes they left live (allocated minus freed).
#[derive(Debug, Clone, Copy, Default)]
struct Heap {
    requests: u64,
    live: i64,
}

thread_local! {
    /// This thread's heap census while armed (`None` = not counting). Per
    /// thread, so tests running in parallel do not see each other.
    static HEAP: Cell<Option<Heap>> = const { Cell::new(None) };
}

/// The system allocator, taking the census of the calling thread while it
/// is armed.
struct Counting;

fn note(requests: u64, bytes: i64) {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = HEAP.try_with(|h| {
        h.set(h.get().map(|h| Heap {
            requests: h.requests + requests,
            live: h.live + bytes,
        }))
    });
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a `Cell` in const-initialised
// thread-local storage, so touching it neither allocates nor races.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`, plus the caller's `realloc` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`; returns its result and the heap census of the call.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    HEAP.set(Some(Heap::default()));
    let r = f();
    (r, HEAP.replace(None).expect("armed above"))
}

/// One tick; returns the heap requests made inside it.
fn counted_tick(net: &mut Network) -> u64 {
    let (r, heap) = counted(|| net.tick());
    r.expect("tick");
    heap.requests
}

/// Sends one control packet `src -> dst` and ticks until it is delivered
/// and collected. Returns the heap requests of the whole trip and of the
/// ticks it spent blocked on a sleeping router (PG-blocked at a hop or
/// NI-blocked at the source), with the number of such ticks.
fn trip(net: &mut Network, src: u16, dst: u16) -> (u64, u64, u64) {
    net.send(Message {
        src: NodeId(src),
        dst: NodeId(dst),
        vnet: VnetId(0),
        class: MsgClass::Control,
        payload: 0,
        gen_cycle: net.cycle(),
    })
    .unwrap();
    let (mut total, mut while_blocked, mut blocked_ticks) = (0, 0, 0);
    for _ in 0..400 {
        let n = counted_tick(net);
        total += n;
        // A `BlockedNeed` this cycle leaves a non-zero streak behind.
        if net.blocked_streaks().iter().any(|&s| s > 0) {
            while_blocked += n;
            blocked_ticks += 1;
        }
        if net
            .drain_delivered()
            .filter(|m| m.dst == NodeId(dst))
            .count()
            == 1
        {
            return (total, while_blocked, blocked_ticks);
        }
    }
    panic!("packet {src} -> {dst} was not delivered");
}

#[test]
fn a_second_trip_over_a_warm_route_allocates_nothing() {
    for scheme in [
        SchemeKind::NoPg,
        SchemeKind::ConvOptPg,
        SchemeKind::PowerPunchFull,
    ] {
        let mut cfg = SimConfig::with_scheme(scheme);
        cfg.noc.topology = Mesh::new(8, 8).into();
        let pm = build_power_manager(&cfg).unwrap();
        let mut net = Network::new(&cfg.noc, pm).unwrap();
        // Let every router fall asleep, travel the 6-hop route once, let
        // them fall asleep again: the second trip meets the same sleeping
        // routers with every buffer already grown.
        net.run(50).unwrap();
        trip(&mut net, 0, 6);
        net.run(250).unwrap();
        let (total, while_blocked, blocked_ticks) = trip(&mut net, 0, 6);
        assert_eq!(total, 0, "{scheme:?}: allocated on a warm route");
        assert_eq!(while_blocked, 0, "{scheme:?}: allocated while blocked");
        // The trip must really have met sleeping routers where the scheme
        // gates any: ConvOpt stalls at the source and at every hop, Power
        // Punch (no slack-2 notice here) only at the source.
        match scheme {
            SchemeKind::NoPg => assert_eq!(blocked_ticks, 0),
            SchemeKind::ConvOptPg => assert!(blocked_ticks >= 6, "{blocked_ticks}"),
            _ => assert!(blocked_ticks >= 1, "{blocked_ticks}"),
        }
    }
}

/// Sends the same four packets (a 7-hop and a 3-hop control packet, a
/// 2-hop and a self-addressed data packet) and runs `run(5)` chunks until
/// all four are delivered. Returns the heap requests of the chunks, and
/// how many skips (profiler `FastForward` marks) chunks that ended with
/// packets still in flight made.
fn quiet_trip(net: &mut Network) -> (u64, u64) {
    for (src, dst, class) in [
        (0, 7, MsgClass::Control),
        (9, 33, MsgClass::Control),
        (63, 61, MsgClass::Data),
        (20, 20, MsgClass::Data),
    ] {
        net.send(Message {
            src: NodeId(src),
            dst: NodeId(dst),
            vnet: VnetId(0),
            class,
            payload: 0,
            gen_cycle: net.cycle(),
        })
        .unwrap();
    }
    let skips = |net: &Network| {
        net.profiler()
            .expect("enabled")
            .mark_count(Phase::FastForward)
    };
    let (mut requests, mut skips_in_flight) = (0, 0);
    for _ in 0..100 {
        let before = skips(net);
        let (r, heap) = counted(|| net.run(5));
        r.expect("run");
        requests += heap.requests;
        if net.in_flight() == 0 {
            assert_eq!(net.drain_delivered().count(), 4);
            return (requests, skips_in_flight);
        }
        skips_in_flight += skips(net) - before;
    }
    panic!("the packets were not delivered");
}

/// `run` skipping quiet spans while packets fly — NI latencies and
/// 3-cycle link flights with every router datapath empty, under no
/// gating, handshake gating and Power Punch — makes no heap request once
/// the trip has been made before: not in the skip, the late-credit sweep
/// after it, or the manager's `tick_quiet`.
#[test]
fn a_warm_run_that_skips_while_packets_fly_allocates_nothing() {
    for scheme in [
        SchemeKind::NoPg,
        SchemeKind::ConvOptPg,
        SchemeKind::PowerPunchFull,
    ] {
        let mut cfg = SimConfig::with_scheme(scheme);
        cfg.noc.topology = Mesh::new(8, 8).into();
        cfg.noc.link_latency = 3;
        let pm = build_power_manager(&cfg).unwrap();
        let mut net = Network::new(&cfg.noc, pm).unwrap();
        net.enable_profiler();
        net.run(50).unwrap();
        quiet_trip(&mut net);
        net.run(250).unwrap();
        let (requests, skips) = quiet_trip(&mut net);
        assert_eq!(requests, 0, "{scheme:?}: a warm run allocated");
        assert!(
            skips >= 3,
            "{scheme:?}: {skips} skips with packets in flight"
        );
    }
}

/// Router and manager state are plain data: a new router is two heap blocks
/// (VC control words, link credits) and its NI three more, whatever the VC
/// count — not one `VecDeque` per VC — and a power manager's gate array and
/// punch fabric are a fixed number of planes and lists, not per-router
/// queues. VC buffers hold only in-flight flits (DESIGN §20): a router's
/// flit pool grows with its first flit. Building a 32x32 network, its
/// manager included, and forking it (what the exhaustive checker does per
/// expansion) each stay within 8 heap requests and 1.6 KiB of heap per
/// router under no gating, handshake gating and Power Punch. One deque per
/// VC made 63 and 18 requests; preallocating all 105 buffer slots of every
/// router as 24-byte flits held 4.0 KiB.
#[test]
fn network_new_and_try_clone_make_few_heap_requests_per_router() {
    for scheme in [
        SchemeKind::NoPg,
        SchemeKind::ConvOptPg,
        SchemeKind::PowerPunchFull,
    ] {
        let mut cfg = SimConfig::with_scheme(scheme);
        cfg.noc.topology = Mesh::new(32, 32).into();
        let (net, built) = counted(|| {
            let pm = build_power_manager(&cfg).unwrap();
            Network::new(&cfg.noc, pm).unwrap()
        });
        let (fork, forked) = counted(|| net.try_clone().expect("every scheme forks"));
        let routers = cfg.noc.topology.nodes() as f64;
        for (what, heap) in [("Network::new", built), ("try_clone", forked)] {
            let per_router = heap.requests as f64 / routers;
            assert!(
                per_router <= 8.0,
                "{scheme:?} {what}: {per_router:.1} heap requests per router"
            );
            let kib = heap.live as f64 / routers / 1024.0;
            assert!(kib <= 1.6, "{scheme:?} {what}: {kib:.2} KiB per router");
        }
        drop(fork);
    }
}

/// The CMP memory system holds only resident state: building Table 2's
/// 8x8 system (a 2-way L1 and a 16-way L2 bank per tile, 512 sets between
/// them) allocates no cache set, so `CmpSim::new` stays within 16 heap
/// requests per tile, its network included. Preallocating every set made
/// about 520.
#[test]
fn cmp_sim_new_allocates_no_cache_set() {
    let cfg = CmpConfig::new(Benchmark::Canneal, SchemeKind::PowerPunchFull);
    let tiles = cfg.sim.noc.topology.nodes() as f64;
    let (sim, heap) = counted(|| CmpSim::new(cfg));
    let per_tile = heap.requests as f64 / tiles;
    assert!(per_tile <= 16.0, "{per_tile:.1} heap requests per tile");
    drop(sim);
}
