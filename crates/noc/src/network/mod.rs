//! The whole-network simulation object: routers, links, NIs, and the power
//! manager, advanced one cycle at a time.
//!
//! [`Network`] is its simulation state — the datapath, the in-flight packet
//! table, the host-facing delivered stream and the measured window — plus
//! three owned concerns that are types of their own: the watchdog
//! (`watchdog.rs`: progress clock, conservation totals, blocked-WU streaks,
//! latched violation), the observers (`observe.rs`: event sink, profiler)
//! and the sharding of phase A (`shard.rs`). This file holds construction,
//! the host API (`send`, `drain_delivered`), the fork, `encode_state` and
//! the statistics; the rest of the `impl` is cut along the tick's phases: `phase_a.rs` (`tick`, the
//! compute half, the shard knobs), `commit.rs` (the serial half),
//! `power.rs`, `run.rs` (the quiet-span skip, `run`, late credits),
//! and `reference.rs`, the oracle tick the kernel is pinned to.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use punchsim_obs::metrics::{PhaseProfiler, Registry};
use punchsim_obs::Event;
use punchsim_types::{
    Cycle, FaultChoice, NocConfig, NodeId, PacketId, Port, PortMap, RouteView, SimError, Substrate,
};

use crate::flit::{Flit, Message, MsgClass, PacketMeta};
use crate::link::Wheel;
use crate::ni::Ni;
use crate::power::{PmEvent, PowerManager, PowerState};
use crate::router::{Router, RouterActivity};
use crate::shard::Sharding;
use crate::snapshot::{put_u16, put_u64, put_u8, put_usize};
use crate::soa::{SoaState, CREDIT_LANES, FLIT_LANES, NI_CREDIT_LANE};
use crate::stats::{NetStats, NetworkReport};
use crate::vc::VcLayout;
use observe::Observers;
use watchdog::Watchdog;

mod commit;
mod observe;
mod phase_a;
mod power;
mod reference;
mod run;
mod watchdog;

/// The measured window's accounting: what [`Network::reset_stats`] zeroes
/// and [`Network::report`] reads.
#[derive(Debug, Clone, Default)]
struct Window {
    stats: NetStats,
    ni_flits: u64,
    injected_flits: u64,
    /// The cycle the window opened at.
    start: Cycle,
}

/// The packet table's hasher: packet ids are sequential, so one multiply
/// by an odd constant (Fibonacci hashing) spreads them — its low bits,
/// which pick the bucket, are a permutation of the id's, and its high
/// bits, which tag the slot, are well mixed. The network numbers packets
/// itself, so no input can pick colliding keys.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A cycle-accurate mesh network under a pluggable power-gating scheme.
///
/// Endpoints interact through [`Network::send`] (hand a [`Message`] to a
/// node's NI), [`Network::drain_delivered`] (collect the messages that have
/// ejected since), and [`Network::tick`].
///
/// # Examples
///
/// ```
/// use punchsim_noc::{Network, Message, MsgClass, AlwaysOn};
/// use punchsim_types::{NocConfig, NodeId, VnetId};
///
/// let cfg = NocConfig::default();
/// let pm = Box::new(AlwaysOn::new(cfg.topology.nodes()));
/// let mut net = Network::new(&cfg, pm).unwrap();
/// net.send(Message {
///     src: NodeId(0),
///     dst: NodeId(9),
///     vnet: VnetId(0),
///     class: MsgClass::Control,
///     payload: 42,
///     gen_cycle: 0,
/// }).unwrap();
/// for _ in 0..40 {
///     net.tick().unwrap();
/// }
/// let got: Vec<Message> = net.drain_delivered().collect();
/// assert_eq!(got.len(), 1);
/// assert_eq!((got[0].dst, got[0].payload), (NodeId(9), 42));
/// ```
pub struct Network {
    cfg: NocConfig,
    view: RouteView,
    cycle: Cycle,
    routers: Vec<Router>,
    nis: Vec<Ni>,
    /// Flits in flight into each router, one lane per input port
    /// (`Local` = from its NI).
    flits: Wheel<Flit>,
    /// Credits (downstream VC indices) in flight into each router, one
    /// lane per *output* port, plus the lane into its NI (for the local
    /// input port). The only wheel a skip passes due cycles of, so the
    /// only one ever swept late.
    credits: Wheel<u8>,
    /// Ejected flits in flight into each NI.
    ejects: Wheel<Flit>,
    /// Flat per-mesh bitset index over the router/NI structs (see
    /// [`crate::soa`]), maintained by every tick from construction on.
    soa: SoaState,
    packets: HashMap<u64, PacketMeta, BuildHasherDefault<IdHasher>>,
    next_packet: u64,
    pm: Box<dyn PowerManager>,
    /// Events buffered for the next power phase.
    events: Vec<PmEvent>,
    /// Messages ejected since the host last called
    /// [`Network::drain_delivered`], in ejection order. One buffer for the
    /// whole network, reused across drains, so a delivery costs no heap
    /// request once it has grown to the host's drain interval.
    delivered: Vec<Message>,
    win: Window,
    /// Set (for good) by [`Network::use_reference_kernel`]: tick through
    /// the struct sweep of `reference.rs` and never fast-forward.
    reference: bool,
    /// A skip ran since the last tick, so credits may be overdue: the
    /// note the next tick's late-credit sweep reads and clears.
    skipped: bool,
    watchdog: Watchdog,
    obs: Observers,
    shard: Sharding,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("cycle", &self.cycle)
            .field("scheme", &self.pm.kind())
            .field("nodes", &self.view.topo.nodes())
            .field("in_flight_packets", &self.packets.len())
            .finish()
    }
}

impl Network {
    /// Builds the network described by `cfg` under power manager `pm`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if `cfg` fails [`NocConfig::validate`].
    pub fn new(cfg: &NocConfig, pm: Box<dyn PowerManager>) -> Result<Self, SimError> {
        cfg.validate()?;
        let view = cfg.view();
        let topo = view.topo;
        let layout = VcLayout::new(cfg);
        let n = topo.nodes();
        // A flit granted SA travels `2 + link` cycles, the longest any
        // item does; one plane more than that keeps the plane being swept
        // apart from every plane the same tick's commit schedules into.
        let period = cfg.link_latency as usize + 3;
        let routers = topo
            .iter_nodes()
            .map(|id| {
                let has = PortMap::from_fn(|p| match p {
                    Port::Local => true,
                    Port::Link(d) => topo.neighbor(id, d).is_some(),
                });
                Router::new(id, layout, cfg.router_stages, has)
            })
            .collect();
        let nis = topo
            .iter_nodes()
            .map(|id| Ni::new(id, layout, cfg.ni_latency))
            .collect();
        Ok(Network {
            cfg: cfg.clone(),
            view,
            cycle: 0,
            routers,
            nis,
            flits: Wheel::new(n, FLIT_LANES, period),
            credits: Wheel::new(n, CREDIT_LANES, period),
            ejects: Wheel::new(n, 1, period),
            soa: SoaState::new(topo),
            packets: HashMap::default(),
            next_packet: 0,
            pm,
            events: Vec::new(),
            delivered: Vec::new(),
            win: Window::default(),
            reference: false,
            skipped: false,
            watchdog: Watchdog::new(n),
            obs: Observers::default(),
            shard: Sharding::new(topo, 1),
        })
    }

    /// Deep-copies the network for state-space exploration, or `None` when
    /// it cannot be copied faithfully: an event sink is attached (a fork
    /// observes nothing, yet a traced manager buffers events for the
    /// sink), or the active power manager does not implement
    /// [`PowerManager::clone_boxed`].
    ///
    /// The fork carries the simulation state and the watchdog; it observes
    /// nothing (no sink, no profiler — forks explore state space, they are
    /// not wall-time subjects) and shards like its parent but owns no
    /// threads and no pool counters until it runs a sharded tick itself.
    pub fn try_clone(&self) -> Option<Network> {
        if self.obs.tracing() {
            return None;
        }
        Some(Network {
            pm: self.pm.clone_boxed()?,
            obs: Observers::default(),
            shard: Sharding::new(self.view.topo, self.shard.count()),
            watchdog: self.watchdog.clone(),
            cfg: self.cfg.clone(),
            view: self.view,
            cycle: self.cycle,
            routers: self.routers.clone(),
            nis: self.nis.clone(),
            flits: self.flits.clone(),
            credits: self.credits.clone(),
            ejects: self.ejects.clone(),
            soa: self.soa.clone(),
            packets: self.packets.clone(),
            next_packet: self.next_packet,
            events: self.events.clone(),
            delivered: self.delivered.clone(),
            win: self.win.clone(),
            reference: self.reference,
            skipped: self.skipped,
        })
    }

    /// Test oracle: from now on this network ticks through the
    /// object-at-a-time struct sweep of `reference.rs`, one literal
    /// tick per cycle with no fast-forward. One-way — there is
    /// no switching back — and called only by the differential tests that
    /// pin the shipped kernel against it.
    #[doc(hidden)]
    pub fn use_reference_kernel(&mut self) {
        self.reference = true;
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// The topology this network is built on.
    pub fn topology(&self) -> Substrate {
        self.view.topo
    }

    /// The topology/routing pair this network routes with.
    pub fn view(&self) -> RouteView {
        self.view
    }

    /// The network configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Power state of router `r` under the active scheme.
    pub fn power_state(&self, r: NodeId) -> PowerState {
        self.pm.state(r)
    }

    /// The active power manager (for scheme-specific inspection).
    pub fn power_manager(&self) -> &dyn PowerManager {
        self.pm.as_ref()
    }

    /// Arms a one-shot fault choice on the power manager for the next tick;
    /// `false` if the active manager does not support scripted choices (see
    /// [`PowerManager::arm_choice`]).
    pub fn arm_fault_choice(&mut self, choice: FaultChoice) -> bool {
        self.pm.arm_choice(choice)
    }

    /// Number of packets somewhere between NI enqueue and tail ejection.
    pub fn in_flight(&self) -> usize {
        self.packets.len()
    }

    /// `SimError::NodeOutOfRange` unless `node` is in the topology.
    fn check_node(&self, node: NodeId) -> Result<(), SimError> {
        if self.view.topo.contains(node) {
            return Ok(());
        }
        Err(SimError::NodeOutOfRange {
            node,
            nodes: self.view.topo.nodes(),
        })
    }

    /// Hands `msg` to the NI of `msg.src` at the current cycle.
    ///
    /// Returns the packet id assigned to the message.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NodeOutOfRange`] if `msg.src` or `msg.dst` is
    /// outside the mesh, and [`SimError::VnetOutOfRange`] if `msg.vnet` is
    /// not a configured virtual network.
    pub fn send(&mut self, msg: Message) -> Result<PacketId, SimError> {
        self.check_node(msg.src)?;
        self.check_node(msg.dst)?;
        if msg.vnet.index() >= self.cfg.vnets as usize {
            return Err(SimError::VnetOutOfRange {
                vnet: msg.vnet,
                vnets: self.cfg.vnets,
            });
        }
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        let len = match msg.class {
            MsgClass::Control => self.cfg.ctrl_packet_flits as u16,
            MsgClass::Data => self.cfg.data_packet_flits as u16,
        };
        let ni = &mut self.nis[msg.src.index()];
        ni.enqueue(id, &msg, len, self.cycle);
        // Look-ahead route for the first hop; a message to the local node
        // still traverses the local router (inject then immediately eject),
        // as in GARNET.
        let route_port = match self.view.direction(msg.src, msg.dst) {
            Some(d) => Port::Link(d),
            None => Port::Local,
        };
        ni.set_route_of_last(msg.vnet, route_port);
        // Slack 1: destination is known the moment the message enters the NI.
        self.events.push(PmEvent::NiMessageKnown {
            node: msg.src,
            dst: msg.dst,
        });
        self.obs.emit(self.cycle, || Event::Inject {
            packet: id.0,
            src: msg.src,
            dst: msg.dst,
        });
        // The NI now has injection-side work: flag it for the SoA sweep.
        self.soa.ni_pend.set(msg.src.index());
        self.packets
            .insert(id.0, PacketMeta::new(msg, len, self.cycle, true));
        self.win.stats.packets_injected += 1;
        self.win.injected_flits += len as u64;
        self.watchdog.admit(len as u64);
        Ok(id)
    }

    /// Reports that `node` will generate a packet shortly although its
    /// destination is not yet known — the paper's "slack 2" (§4.2), e.g. the
    /// start of an L2 or directory access. Only `PowerPunch-PG` uses it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NodeOutOfRange`] if `node` is outside the
    /// topology (previously this fed an unchecked index into the power
    /// manager, which panicked several layers down).
    pub fn notify_future_injection(&mut self, node: NodeId) -> Result<(), SimError> {
        self.check_node(node)?;
        self.events.push(PmEvent::FutureInjection { node });
        Ok(())
    }

    /// Hands over every message delivered since the last drain, whatever
    /// its destination (`Message::dst`), in ejection order: cycle by cycle,
    /// and within a cycle by ascending destination (an NI ejects at most
    /// one tail per cycle). A host that drains after every tick therefore
    /// sees each tick's deliveries node-ascending.
    pub fn drain_delivered(&mut self) -> std::vec::Drain<'_, Message> {
        self.delivered.drain(..)
    }

    /// Canonical byte encoding of all dynamic state, for reachable-set
    /// deduplication in the exhaustive checker (see [`crate::snapshot`] for
    /// the two rules every field follows). Returns `None` when the active
    /// power manager does not support state encoding.
    ///
    /// Two networks with equal encodings behave identically from here on
    /// (up to a uniform time shift): routers, NIs, every in-flight item on
    /// every wire (delivery cycles rebased), the in-flight packet-id set,
    /// pending power-manager events, the watchdog's blocked-WU streaks and
    /// stall age, and the power manager's own state. Statistics, the
    /// delivered-message stream and the conservation totals are excluded —
    /// they never feed back into dynamics.
    pub fn encode_state(&self) -> Option<Vec<u8>> {
        let now = self.cycle;
        let mut out = Vec::with_capacity(1024);
        for r in &self.routers {
            r.encode_state(&mut out);
        }
        for ni in &self.nis {
            ni.encode_state(now, &mut out);
        }
        let flit = |f: &Flit, out: &mut Vec<u8>| f.encode_state(out);
        let credit = |&vc: &u8, out: &mut Vec<u8>| put_u8(out, vc);
        self.flits.encode_state(now, 0..FLIT_LANES, &mut out, flit);
        self.credits
            .encode_state(now, 0..NI_CREDIT_LANE, &mut out, credit);
        self.credits
            .encode_state(now, NI_CREDIT_LANE..CREDIT_LANES, &mut out, credit);
        self.ejects.encode_state(now, 0..1, &mut out, flit);
        // The in-flight id set decides terminality; sorted for canonicity.
        let mut ids: Vec<u64> = self.packets.keys().copied().collect();
        ids.sort_unstable();
        put_usize(&mut out, ids.len());
        for id in ids {
            put_u64(&mut out, id);
        }
        // Events buffered for the next power phase (non-empty only right
        // after host sends, but those states are explored too): a tag and
        // two node ids each, the second zero where the event has one.
        put_u8(&mut out, self.events.len() as u8);
        for ev in &self.events {
            let (tag, a, b) = match *ev {
                PmEvent::HeadArrival { router, dst } => (0, router, dst),
                PmEvent::BlockedNeed { router } => (1, router, NodeId(0)),
                PmEvent::NiMessageKnown { node, dst } => (2, node, dst),
                PmEvent::FutureInjection { node } => (3, node, NodeId(0)),
                PmEvent::NiReadyToInject { node, dst } => (4, node, dst),
            };
            put_u8(&mut out, tag);
            put_u16(&mut out, a.0);
            put_u16(&mut out, b.0);
        }
        self.watchdog.encode_state(now, &mut out);
        if !self.pm.encode_state(now, &mut out) {
            return None;
        }
        Some(out)
    }

    /// Ends the warm-up window: zeroes all statistics and counters; packets
    /// currently in flight are excluded from delivered-packet statistics.
    pub fn reset_stats(&mut self) {
        self.win = Window {
            start: self.cycle,
            ..Window::default()
        };
        (self.shard.spawned, self.shard.pooled) = ((0, 0), (0, 0));
        self.obs.profile(PhaseProfiler::reset);
        for meta in self.packets.values_mut() {
            meta.measured = false;
        }
        for r in &mut self.routers {
            r.activity.reset();
        }
        self.pm.reset_counters();
    }

    /// Snapshot of statistics, activity and power-gating counters for the
    /// measured window.
    pub fn report(&self) -> NetworkReport {
        let mut activity = RouterActivity::default();
        for r in &self.routers {
            activity.merge(&r.activity);
        }
        let cycles = self.cycle - self.win.start;
        let denom = cycles as f64 * self.view.topo.nodes() as f64;
        NetworkReport {
            scheme: self.pm.kind(),
            routers: self.view.topo.nodes(),
            cycles,
            stats: self.win.stats.clone(),
            activity,
            pg: self.pm.counters(),
            ni_flits: self.win.ni_flits,
            offered_load: if cycles == 0 {
                0.0
            } else {
                self.win.injected_flits as f64 / denom
            },
        }
    }

    /// Exports every deterministic metric of the current measured window
    /// into `reg`: run-level counters, the end-to-end latency histogram,
    /// and the per-router planes (power-gating cycles/events, WU
    /// assertions, escalations, and — for punch schemes — punch hops).
    /// Wall-clock phase data is *not* included here; export the profiler
    /// separately into a registry bound for the timing sidecar.
    pub fn export_metrics(&self, reg: &mut Registry) {
        let pg = self.pm.counters();
        let stats = &self.win.stats;
        reg.inc("packets_injected_total", stats.packets_injected);
        reg.inc("packets_delivered_total", stats.packets_delivered);
        reg.inc("flits_delivered_total", stats.flits_delivered);
        reg.inc("link_traversals_total", stats.link_traversals);
        reg.inc("ni_flits_total", self.win.ni_flits);
        reg.inc("punch_hops_total", pg.punch_hops);
        reg.inc("wu_assertions_total", pg.wu_assertions);
        reg.inc("wu_retries_total", pg.wu_retries);
        reg.inc("escalations_total", pg.escalations);
        reg.inc("faults_injected_total", pg.faults_injected);
        reg.hist_mut("packet_latency_cycles")
            .merge(&stats.latency_hist);
        let (w, h) = (
            self.view.topo.width() as usize,
            self.view.topo.height() as usize,
        );
        let planes: [(&str, &[u64]); 6] = [
            ("router_off_cycles", &pg.off_cycles),
            ("router_waking_cycles", &pg.waking_cycles),
            ("router_sleep_events", &pg.sleep_events),
            ("router_wake_events", &pg.wake_events),
            ("router_wu_assertions", &pg.wu_assertions_at),
            ("router_escalations", &pg.escalations_at),
        ];
        for (name, values) in planes {
            reg.plane_mut(name, w, h).add_row_major(w, values);
        }
        // Empty for schemes without a punch fabric: no plane at all.
        if !pg.punch_hops_at.is_empty() {
            reg.plane_mut("router_punch_hops", w, h)
                .add_row_major(w, &pg.punch_hops_at);
        }
    }
}

/// What the unit tests of this module and its children build on.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use crate::power::{AlwaysOn, IdleInfo, PgCounters};
    use punchsim_types::VnetId;

    pub fn msg(src: u16, dst: u16, class: MsgClass) -> Message {
        Message {
            src: NodeId(src),
            dst: NodeId(dst),
            vnet: VnetId(0),
            class,
            payload: (src as u64) << 32 | dst as u64,
            gen_cycle: 0,
        }
    }

    /// Drains `n`'s deliveries; how many of them were addressed to `node`.
    pub fn delivered_to(n: &mut Network, node: u16) -> usize {
        n.drain_delivered()
            .filter(|m| m.dst == NodeId(node))
            .count()
    }

    /// A network over `cfg` under the manager `pm` builds for its size.
    pub fn net_with(cfg: &NocConfig, pm: impl FnOnce(usize) -> Box<dyn PowerManager>) -> Network {
        Network::new(cfg, pm(cfg.topology.nodes())).unwrap()
    }

    /// The default 8x8 mesh, never gated.
    pub fn net() -> Network {
        net_with(&NocConfig::default(), |n| Box::new(AlwaysOn::new(n)))
    }

    /// A wedged gate: every router permanently off, ignoring all wakeups.
    /// Models a faulty sleep controller for watchdog tests.
    pub struct AlwaysOff {
        counters: PgCounters,
    }

    impl AlwaysOff {
        pub fn boxed(n: usize) -> Box<dyn PowerManager> {
            Box::new(AlwaysOff {
                counters: PgCounters::new(n),
            })
        }
    }

    impl PowerManager for AlwaysOff {
        fn kind(&self) -> punchsim_types::SchemeKind {
            punchsim_types::SchemeKind::ConvPg
        }
        fn state(&self, _r: NodeId) -> PowerState {
            PowerState::Off
        }
        fn tick(&mut self, _cycle: Cycle, _events: &[PmEvent], _idle: IdleInfo<'_>) {}
        fn counters(&self) -> PgCounters {
            self.counters.clone()
        }
        fn reset_counters(&mut self) {
            self.counters.reset();
        }
        // Deliberately does NOT implement force_wake: escalation has no
        // effect, so only the stall watchdog can surface the wedge.
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{delivered_to, msg, net};
    use super::*;
    use crate::power::AlwaysOn;
    use punchsim_types::{ConfigError, VnetId};

    #[test]
    fn single_control_packet_zero_load_latency() {
        let mut n = net();
        // R0 -> R3: 3 hops, 3-stage pipeline, link latency 1, NI latency 3.
        n.send(msg(0, 3, MsgClass::Control)).unwrap();
        n.run(40).unwrap();
        assert_eq!(delivered_to(&mut n, 3), 1);
        let r = n.report();
        assert_eq!(r.stats.packets_delivered, 1);
        // enqueue t=0, ready t=3, sent t=3, latch R0 t=5, per hop 4 cycles,
        // latch R3 at 5+12... wait: R0 is hop 0. R0 SA t=6, latch R1 t=9,
        // latch R2 t=13, latch R3 t=17, SA t=18, eject t=20.
        assert_eq!(r.avg_packet_latency(), 20.0);
        assert_eq!(r.stats.link_traversals, 3, "one flit over 3 links");
        assert_eq!(r.avg_pg_encounters(), 0.0);
        assert_eq!(r.avg_wakeup_wait(), 0.0);
    }

    #[test]
    fn data_packet_serialization_latency() {
        let mut n = net();
        // 5-flit packet to a neighbour: tail trails head by 4 cycles.
        n.send(msg(0, 1, MsgClass::Data)).unwrap();
        n.run(40).unwrap();
        assert_eq!(delivered_to(&mut n, 1), 1);
        let r = n.report();
        // Head: enqueue 0, sent 3, latch R0 @5, SA @6, latch R1 @9, SA @10,
        // eject @12. The 3-flit VC depth throttles the stream through the
        // NI->R0 and R0->R1 credit loops (credits take 2 cycles to return),
        // so the tail is sent @9, forwarded by R0 @13 after the credit from
        // R1 arrives, latched @16, and ejected @19.
        assert_eq!(r.avg_packet_latency(), 19.0);
    }

    #[test]
    fn local_delivery_goes_through_local_router() {
        let mut n = net();
        n.send(msg(5, 5, MsgClass::Control)).unwrap();
        n.run(20).unwrap();
        assert_eq!(delivered_to(&mut n, 5), 1);
        let r = n.report();
        assert_eq!(r.stats.link_traversals, 0);
        // enqueue 0, sent 3, latch 5, SA 6, eject 8.
        assert_eq!(r.avg_packet_latency(), 8.0);
    }

    #[test]
    fn many_random_packets_all_delivered() {
        use punchsim_types::SimRng;
        let mut rng = SimRng::seed_from_u64(42);
        let mut n = net();
        let mut expected = vec![0usize; 64];
        for i in 0..300 {
            let src = rng.random_range(0..64u16);
            let dst = rng.random_range(0..64u16);
            let class = if i % 3 == 0 {
                MsgClass::Data
            } else {
                MsgClass::Control
            };
            let mut m = msg(src, dst, class);
            m.vnet = VnetId(rng.random_range(0..3u8));
            n.send(m).unwrap();
            expected[dst as usize] += 1;
            if i % 2 == 0 {
                n.tick().unwrap();
            }
        }
        // Drain.
        for _ in 0..2000 {
            n.tick().unwrap();
            if n.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(n.in_flight(), 0, "all packets must drain");
        let mut got = vec![0usize; 64];
        for m in n.drain_delivered() {
            got[m.dst.index()] += 1;
        }
        assert_eq!(got, expected);
        let r = n.report();
        assert_eq!(r.stats.packets_delivered, 300);
        assert!(r.avg_packet_latency() > 0.0);
    }

    #[test]
    fn four_stage_pipeline_adds_one_cycle_per_hop() {
        let cfg = NocConfig {
            router_stages: 4,
            ..NocConfig::default()
        };
        let pm = Box::new(AlwaysOn::new(cfg.topology.nodes()));
        let mut n = Network::new(&cfg, pm).unwrap();
        n.send(msg(0, 3, MsgClass::Control)).unwrap();
        n.run(50).unwrap();
        let r = n.report();
        assert_eq!(r.stats.packets_delivered, 1);
        // 4 routers on the path (R0..R3) each add one extra cycle vs the
        // 3-stage case: 20 + 4 = 24.
        assert_eq!(r.avg_packet_latency(), 24.0);
    }

    #[test]
    fn reset_stats_excludes_warmup() {
        let mut n = net();
        n.send(msg(0, 7, MsgClass::Control)).unwrap();
        n.run(5).unwrap();
        n.reset_stats();
        n.run(60).unwrap();
        let r = n.report();
        // The warm-up packet completed but is not measured.
        assert_eq!(r.stats.packets_delivered, 0);
        assert_eq!(delivered_to(&mut n, 7), 1);
    }

    #[test]
    fn determinism_same_seedless_run() {
        let run = || {
            let mut n = net();
            for i in 0..50u16 {
                n.send(msg(i % 64, (i * 7 + 3) % 64, MsgClass::Data))
                    .unwrap();
                n.tick().unwrap();
            }
            n.run(1500).unwrap();
            let r = n.report();
            (
                r.stats.packets_delivered,
                r.avg_packet_latency(),
                r.stats.link_traversals,
            )
        };
        assert_eq!(run(), run());
    }

    /// The fork contract: a clone taken mid-flight from a profiled,
    /// two-shard network steps exactly like its parent, but observes
    /// nothing and owns no threads — no profiler, no pool, pool counters
    /// at zero until it ticks.
    #[test]
    fn mid_flight_fork_steps_like_its_parent_and_carries_no_observers_or_pool() {
        let mut parent = net();
        parent.set_shards(2).unwrap();
        parent.enable_profiler();
        for i in 0..40u16 {
            parent
                .send(msg(i % 64, (i * 11 + 5) % 64, MsgClass::Data))
                .unwrap();
            parent.tick().unwrap();
        }
        assert!(parent.in_flight() > 0, "fork must be taken mid-flight");
        assert!(parent.pool_stats().0 > 0 && parent.spawn_stats().0 == 1);
        let mut fork = parent
            .try_clone()
            .expect("AlwaysOn clones, no sink attached");
        assert!(fork.profiler().is_none());
        assert_eq!(fork.shards(), 2);
        assert_eq!((fork.spawn_stats(), fork.pool_stats()), ((0, 0), (0, 0)));
        assert_eq!(fork.encode_state(), parent.encode_state());
        for _ in 0..300 {
            parent.tick().unwrap();
            fork.tick().unwrap();
            assert_eq!(fork.encode_state(), parent.encode_state());
        }
        assert_eq!(fork.in_flight(), 0);
        assert_eq!(
            format!("{:?}", fork.report()),
            format!("{:?}", parent.report())
        );
        assert_eq!(fork.spawn_stats().0, 1, "the fork built its own pool");
        // A sink, unlike a profiler, blocks the fork outright.
        parent.set_sink(Box::new(punchsim_obs::RingSink::new(usize::MAX)));
        assert!(parent.try_clone().is_none());
    }

    #[test]
    fn future_injection_notice_rejects_out_of_range_node() {
        let mut n = net();
        let err = n.notify_future_injection(NodeId(200)).unwrap_err();
        assert!(matches!(
            err,
            SimError::NodeOutOfRange {
                node: NodeId(200),
                nodes: 64
            }
        ));
        // An in-range notice is accepted and leaves the network clean.
        n.notify_future_injection(NodeId(5)).unwrap();
        n.run(10).unwrap();
    }

    #[test]
    fn send_rejects_out_of_range_node_and_vnet() {
        let mut n = net();
        let err = n.send(msg(0, 200, MsgClass::Control)).unwrap_err();
        assert!(matches!(
            err,
            SimError::NodeOutOfRange {
                node: NodeId(200),
                nodes: 64
            }
        ));
        let mut m = msg(0, 1, MsgClass::Control);
        m.vnet = VnetId(9);
        let err = n.send(m).unwrap_err();
        assert!(matches!(err, SimError::VnetOutOfRange { vnets: 3, .. }));
        // Nothing was enqueued; the network stays clean.
        assert_eq!(n.in_flight(), 0);
        n.run(100).unwrap();
    }

    #[test]
    fn new_rejects_invalid_config() {
        let cfg = NocConfig {
            link_latency: 0,
            ..NocConfig::default()
        };
        let pm = Box::new(AlwaysOn::new(cfg.topology.nodes()));
        let err = Network::new(&cfg, pm).unwrap_err();
        assert!(matches!(
            err,
            SimError::Config(ConfigError::ZeroLinkLatency)
        ));
    }

    /// VC layouts the router cannot represent, or that could only ever end
    /// in a watchdog stall, are configuration errors — not an arithmetic
    /// overflow or a network that never injects.
    #[test]
    fn new_rejects_unrepresentable_vc_layouts() {
        let build = |cfg: NocConfig| {
            let pm = Box::new(AlwaysOn::new(cfg.topology.nodes()));
            Network::new(&cfg, pm).map(|_| ())
        };
        let too_many = build(NocConfig {
            data_vcs_per_vnet: 200,
            ctrl_vcs_per_vnet: 100,
            ..NocConfig::default()
        });
        assert!(matches!(
            too_many,
            Err(SimError::Config(ConfigError::TooManyVcs {
                per_port: 900,
                max: 32
            }))
        ));
        let zero_depth = build(NocConfig {
            ctrl_vc_depth: 0,
            ..NocConfig::default()
        });
        assert!(matches!(
            zero_depth,
            Err(SimError::Config(ConfigError::ZeroVcDepth))
        ));
        // The widest legal layout builds and carries traffic.
        let cfg = NocConfig {
            vnets: 4,
            data_vcs_per_vnet: 5,
            ctrl_vcs_per_vnet: 3,
            ..NocConfig::default()
        };
        let pm = Box::new(AlwaysOn::new(cfg.topology.nodes()));
        let mut n = Network::new(&cfg, pm).unwrap();
        let mut m = msg(0, 63, MsgClass::Data);
        m.vnet = VnetId(3);
        n.send(m).unwrap();
        n.run(200).unwrap();
        assert_eq!(delivered_to(&mut n, 63), 1);
    }
}
