//! "A steady-state tick allocates nothing" — the claim `Network`'s field
//! docs and DESIGN §17 make — measured with a counting allocator armed
//! only inside [`Network::tick`].
//!
//! Every per-tick collection is a flat vector the network reuses (the
//! delivery wheels' slots, the per-shard outcome buffers, the event list),
//! so once a route has been travelled a second trip over it must not touch
//! the heap: not per hop, not per cycle blocked on a sleeping router, not
//! in the power manager, and not on the delivering tick either — the
//! delivered stream is one buffer that `drain_delivered` empties in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use punchsim::core::build_power_manager;
use punchsim::noc::{Message, MsgClass, Network};
use punchsim::types::{Mesh, NodeId, SchemeKind, SimConfig, VnetId};

thread_local! {
    /// Heap requests on this thread while armed (`None` = not counting).
    /// Per thread, so tests running in parallel do not see each other.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The system allocator, counting requests (fresh or growing) made while
/// the calling thread is armed.
struct Counting;

fn note() {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = ALLOCS.try_with(|a| a.set(a.get().map(|n| n + 1)));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a `Cell` in const-initialised
// thread-local storage, so touching it neither allocates nor races.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as for `dealloc`, plus the caller's `realloc` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`; returns its result and the heap requests made inside it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.set(Some(0));
    let r = f();
    (r, ALLOCS.replace(None).expect("armed above"))
}

/// One tick; returns the heap requests made inside it.
fn counted_tick(net: &mut Network) -> u64 {
    let (r, n) = counted(|| net.tick());
    r.expect("tick");
    n
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

/// Router and manager state are plain data: a router is three heap blocks
/// (flit slab, VC control words, link credits) and its NI three more,
/// whatever the VC count — not one `VecDeque` per VC — and a power
/// manager's gate array and punch fabric are a fixed number of planes and
/// lists, not per-router queues. Building a 16x16 network, its manager
/// included, and forking it (what the exhaustive checker does per
/// expansion) each stay within 8 heap requests per router under no gating,
/// handshake gating and Power Punch; one deque per VC made 63 and 18.
#[test]
fn network_new_and_try_clone_make_few_heap_requests_per_router() {
    for scheme in [
        SchemeKind::NoPg,
        SchemeKind::ConvOptPg,
        SchemeKind::PowerPunchFull,
    ] {
        let mut cfg = SimConfig::with_scheme(scheme);
        cfg.noc.topology = Mesh::new(16, 16).into();
        let (net, built) = counted(|| {
            let pm = build_power_manager(&cfg).unwrap();
            Network::new(&cfg.noc, pm).unwrap()
        });
        let (fork, forked) = counted(|| net.try_clone().expect("every scheme forks"));
        let routers = cfg.noc.topology.nodes() as f64;
        for (what, requests) in [("Network::new", built), ("try_clone", forked)] {
            let per_router = requests as f64 / routers;
            assert!(
                per_router <= 8.0,
                "{scheme:?} {what}: {per_router:.1} heap requests per router"
            );
        }
        drop(fork);
    }
}
