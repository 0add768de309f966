//! The whole-network simulation object: routers, links, NIs, and the power
//! manager, advanced one cycle at a time.
//!
//! A progress watchdog rides along with every tick: cheap per-cycle
//! invariant checks (flit conservation; no flit into a powered-off router's
//! datapath), a no-forward-progress detector that surfaces a structured
//! [`StallReport`] instead of silently looping, and an escalation path that
//! force-wakes a router whose sleep gate keeps ignoring the level-signaled
//! WU handshake — the executable form of the paper's §4.1–4.2 safety-net
//! argument.

use std::collections::HashMap;

use punchsim_metrics::{Phase, PhaseProfiler, Registry};
use punchsim_obs::{self as obs, Event, EventSink, PowerTag};
use punchsim_types::{
    BlockedPacket, ConfigError, Cycle, FaultChoice, InvariantViolation, NocConfig, NodeId,
    PacketId, Port, PortMap, RouteView, SimError, StallReport, Substrate, WatchdogConfig,
};

use crate::flit::{Flit, Message, MsgClass, PacketMeta};
use crate::link::Wheel;
use crate::ni::Ni;
use crate::pool::{Job, ShardPool};
use crate::power::{IdleInfo, PmEvent, PowerManager, PowerState};
use crate::router::{Router, RouterActivity};
use crate::soa::{
    self, BitWords, PmAvail, ShardBuf, ShardView, SoaState, TickCtx, CREDIT_LANES, FLIT_LANES,
    NI_CREDIT_LANE,
};
use crate::stats::{NetStats, NetworkReport};
use crate::vc::VcLayout;

// The test-oracle tick. A child module, so it can sweep `Network`'s private
// fields without widening their visibility to the whole crate.
#[path = "reference.rs"]
mod reference;

/// One pooled shard's phase-A work for one tick: the shard view plus the
/// shared read-only tick context, bundled so a type-erased pool [`Job`]
/// can point at it. Lives on `soa_phase_a`'s stack; the pool's
/// completion barrier guarantees workers are done with it before that
/// frame unwinds.
struct ShardTask<'a, 'b> {
    sv: ShardView<'b>,
    ctx: &'a TickCtx<'b>,
    avail: &'a PmAvail<'b>,
    buf: &'a mut ShardBuf,
}

// A pool `Job` erases `ShardTask` to a raw pointer, so the compiler cannot
// see what crosses to the worker thread. These assertions put the check
// back: the task as a whole must be `Send` (it is handed to exactly one
// worker), which in turn needs the manager every shard reads through
// `PmAvail` to be `Sync`. `Job`'s `unsafe impl Send` relies on both.
const _: () = {
    const fn assert_send<T: ?Sized + Send>() {}
    const fn assert_sync<T: ?Sized + Sync>() {}
    assert_sync::<dyn PowerManager>();
    assert_send::<ShardTask<'_, '_>>();
};

/// Pool job entry point for one shard's phase A.
///
/// # Safety
///
/// `p` must point at a live, exclusively-owned [`ShardTask`] — upheld by
/// `soa_phase_a`, which hands each task to exactly one worker and blocks
/// at the pool barrier until all of them are done.
unsafe fn run_shard_task(p: *mut ()) {
    let t = unsafe { &mut *(p as *mut ShardTask<'_, '_>) };
    soa::shard_phase_a(&mut t.sv, t.ctx, t.avail, t.buf);
}

/// Test-hook variant of [`run_shard_task`] that panics instead of
/// working, driving the pool's typed-error path
/// (see [`Network::debug_panic_next_pooled_tick`]).
unsafe fn run_shard_task_panicking(_p: *mut ()) {
    panic!("injected shard panic (test hook)");
}

/// A cycle-accurate mesh network under a pluggable power-gating scheme.
///
/// Endpoints interact through [`Network::send`] (hand a [`Message`] to a
/// node's NI), [`Network::take_delivered`] (collect messages that ejected at
/// a node), and [`Network::tick`].
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
/// let got = net.take_delivered(NodeId(9));
/// assert_eq!(got.len(), 1);
/// assert_eq!(got[0].payload, 42);
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
    /// input port). The only wheel that can hold anything across a
    /// fast-forward, so the only one ever swept late.
    credits: Wheel<u8>,
    /// Ejected flits in flight into each NI.
    ejects: Wheel<Flit>,
    packets: HashMap<u64, PacketMeta>,
    next_packet: u64,
    pm: Box<dyn PowerManager>,
    events: Vec<PmEvent>,
    stats: NetStats,
    outbox: Vec<Vec<Message>>,
    /// Messages currently sitting in `outbox` across all nodes, so hosts
    /// can skip their per-node drain scan when nothing was delivered.
    outbox_pending: u64,
    ni_flits: u64,
    injected_flits: u64,
    measure_start: Cycle,
    /// Structured event sink (`None` = tracing disabled: the only cost on
    /// hot paths is this branch).
    sink: Option<Box<dyn EventSink>>,
    /// Last observed power tag per router, for transition detection.
    power_shadow: Vec<PowerTag>,
    /// Cycle each currently-off router went off at (BET epoch tracking).
    off_since: Vec<Cycle>,
    // --- watchdog state (lifetime of the network, never reset) ---
    /// Flits accepted by `send` since construction.
    conserv_injected: u64,
    /// Flits of fully delivered packets since construction.
    conserv_delivered: u64,
    /// Flits currently between NI enqueue and tail ejection.
    conserv_in_flight: u64,
    /// Last cycle that saw a flit latch, NI send, departure or ejection.
    last_progress: Cycle,
    /// Any flit movement during the current tick.
    moved: bool,
    /// Consecutive cycles each router's WU has been asserted and ignored.
    blocked_streak: Vec<Cycle>,
    /// First invariant violation observed (latched; tick keeps failing).
    violation: Option<InvariantViolation>,
    /// Set (for good) by [`Network::use_reference_kernel`]: tick through
    /// the struct sweep of `reference.rs` and never fast-forward.
    reference: bool,
    /// Row-band shard count for phase A (1 = no threading).
    shards: usize,
    /// The row bands as node ranges, one per shard (see
    /// [`soa::shard_bounds`]); recomputed only by [`Network::set_shards`].
    shard_bounds: Vec<(usize, usize)>,
    /// Link neighbours of every router (see [`soa::neighbor_table`]).
    neighbors: Vec<soa::Neighbors>,
    /// Flat per-mesh bitset index over the router/NI structs (see
    /// [`crate::soa`]), maintained by every tick from construction on.
    soa: SoaState,
    /// Per-shard phase-A outcome buffers (reused: a steady-state tick
    /// allocates nothing with one shard, and only its `shards - 1`-element
    /// task list with more — pinned by `tests/tick_allocations.rs`).
    shard_bufs: Vec<ShardBuf>,
    /// Reusable per-tick idleness scratch (steady-state tick allocates
    /// nothing).
    idle_scratch: Vec<bool>,
    /// Routers named by a `BlockedNeed` this cycle (all-clear between
    /// ticks): the escalation scan's per-tick scratch.
    seen_scratch: BitWords,
    /// Bit `r` set iff `blocked_streak[r]` is non-zero, so the escalation
    /// scan visits streaking routers only, and none on the common cycle.
    streaking: BitWords,
    /// Tick-phase wall-time profiler (`None` = profiling disabled: like
    /// `sink`, the only cost on hot paths is one branch per phase
    /// boundary). Wall-clock data never feeds back into simulation state
    /// and is exported only toward the nondeterministic timing sidecar.
    profiler: Option<PhaseProfiler>,
    /// Pool worker threads created since the last stats reset (at most
    /// `shards - 1` per pool lifetime).
    spawn_count: u64,
    /// Wall nanoseconds spent issuing those spawns.
    spawn_nanos: u64,
    /// The persistent shard worker pool, created lazily on the first
    /// sharded tick; `None` for `shards == 1` or before that first tick.
    pool: Option<ShardPool>,
    /// Sharded ticks dispatched through the pool since the last stats
    /// reset.
    pool_ticks: u64,
    /// Wall nanoseconds the host spent blocked at the pool's completion
    /// barrier (after finishing its own shard 0) since the last reset.
    pool_wait_nanos: u64,
    /// Test hook: makes the next pooled phase A panic in its last worker
    /// (see [`Network::debug_panic_next_pooled_tick`]).
    panic_next_shard: bool,
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
            packets: HashMap::new(),
            next_packet: 0,
            pm,
            events: Vec::new(),
            stats: NetStats::default(),
            outbox: vec![Vec::new(); n],
            outbox_pending: 0,
            ni_flits: 0,
            injected_flits: 0,
            measure_start: 0,
            sink: None,
            power_shadow: Vec::new(),
            off_since: Vec::new(),
            conserv_injected: 0,
            conserv_delivered: 0,
            conserv_in_flight: 0,
            last_progress: 0,
            moved: false,
            blocked_streak: vec![0; n],
            violation: None,
            reference: false,
            shards: 1,
            shard_bounds: soa::shard_bounds(topo.width(), topo.height(), 1),
            neighbors: soa::neighbor_table(topo),
            soa: SoaState::new(n),
            shard_bufs: Vec::new(),
            idle_scratch: Vec::with_capacity(n),
            seen_scratch: BitWords::new(n),
            streaking: BitWords::new(n),
            profiler: None,
            spawn_count: 0,
            spawn_nanos: 0,
            pool: None,
            pool_ticks: 0,
            pool_wait_nanos: 0,
            panic_next_shard: false,
        })
    }

    /// Sets the row-band shard count for phase A of the tick (`1`, the
    /// construction default, runs it inline on the calling thread). Shard
    /// count never changes results — phase A is confined to shard-owned
    /// state and the commit order is fixed — so this is an execution knob
    /// like the campaign thread count, not part of any run specification.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroShards`] for `0` and
    /// [`ConfigError::ShardsExceedRows`] when `shards` exceeds the
    /// topology's router rows (a shard would own no rows).
    pub fn set_shards(&mut self, shards: usize) -> Result<(), ConfigError> {
        if shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        let rows = self.view.topo.height();
        if shards > rows as usize {
            return Err(ConfigError::ShardsExceedRows { shards, rows });
        }
        self.shards = shards;
        let topo = self.view.topo;
        self.shard_bounds = soa::shard_bounds(topo.width(), topo.height(), shards);
        // An existing pool sized for a different count is torn down here
        // (workers joined); the right-sized pool is re-created lazily on
        // the next sharded tick.
        let keep = shards > 1
            && self
                .pool
                .as_ref()
                .is_some_and(|p| p.workers() == shards - 1);
        if !keep {
            self.pool = None;
        }
        Ok(())
    }

    /// The active shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Test hook: the next sharded tick runs a panicking job in its last
    /// worker, exercising the pool's typed-error path
    /// ([`punchsim_types::SimError::ShardPanic`] instead of a hang). Only
    /// meaningful while `shards > 1`.
    #[doc(hidden)]
    pub fn debug_panic_next_pooled_tick(&mut self) {
        self.panic_next_shard = true;
    }

    /// Test oracle: from now on this network ticks through the
    /// object-at-a-time struct sweep of `reference.rs`, one literal
    /// tick per cycle with no quiescence fast-forward. One-way — there is
    /// no switching back — and called only by the differential tests that
    /// pin the shipped kernel against it.
    #[doc(hidden)]
    pub fn use_reference_kernel(&mut self) {
        self.reference = true;
    }

    /// `false` once [`Network::use_reference_kernel`] made every cycle
    /// tick literally; hosts consult it before skipping their own idle
    /// gaps (see [`Network::run`]).
    pub fn may_skip_idle(&self) -> bool {
        !self.reference
    }

    /// Replaces the watchdog configuration (thresholds, invariant checks).
    pub fn set_watchdog(&mut self, w: WatchdogConfig) {
        self.cfg.watchdog = w;
    }

    /// The active watchdog configuration.
    pub fn watchdog(&self) -> &WatchdogConfig {
        &self.cfg.watchdog
    }

    /// Attaches a structured event sink: from the next tick on, power-state
    /// transitions, punch/wakeup activity, NI slack events and packet
    /// inject/deliver milestones are recorded into it. Replaces any
    /// previously attached sink. Tracing does not alter simulation
    /// behaviour; with no sink attached the only overhead is one branch
    /// per emission site.
    pub fn set_sink(&mut self, sink: Box<dyn EventSink>) {
        let n = self.view.topo.nodes();
        // Prime the shadow from the current states so the first diff only
        // reports genuine transitions.
        self.power_shadow = (0..n)
            .map(|i| self.pm.state(NodeId(i as u16)).tag())
            .collect();
        self.off_since = vec![self.cycle; n];
        self.pm.set_tracing(true);
        self.sink = Some(sink);
    }

    /// The attached event sink, if any.
    pub fn sink(&self) -> Option<&dyn EventSink> {
        self.sink.as_deref()
    }

    /// Detaches and returns the event sink, disabling structured tracing.
    pub fn take_sink(&mut self) -> Option<Box<dyn EventSink>> {
        if self.sink.is_some() {
            self.pm.set_tracing(false);
        }
        self.sink.take()
    }

    /// Cumulative observability counters at the current cycle, for
    /// host-driven interval sampling (feed consecutive snapshots to
    /// [`punchsim_obs::Sampler::observe`]). Read-only: sampling cannot
    /// perturb the simulation.
    pub fn obs_sample(&self) -> obs::Sample {
        let pg = self.pm.counters();
        obs::Sample {
            cycle: self.cycle,
            delivered: self.stats.packets_delivered,
            latency_sum: self.stats.latency.sum(),
            latency_count: self.stats.latency.count(),
            off_cycles: pg.total_off_cycles(),
            punch_hops: pg.punch_hops,
            escalations: pg.escalations,
            wu_assertions: pg.wu_assertions,
        }
    }

    /// Attaches a fresh tick-phase profiler: from the next tick on, phase
    /// boundaries charge elapsed wall time to their phase (a sample of
    /// the ticks is split, the rest are attributed pro rata; see
    /// [`PhaseProfiler`]). Profiling observes the simulation clock loop
    /// only — it cannot change results.
    pub fn enable_profiler(&mut self) {
        self.profiler = Some(PhaseProfiler::new());
    }

    /// The attached phase profiler, if any.
    pub fn profiler(&self) -> Option<&PhaseProfiler> {
        self.profiler.as_ref()
    }

    /// Detaches and returns the phase profiler, disabling profiling.
    pub fn take_profiler(&mut self) -> Option<PhaseProfiler> {
        self.profiler.take()
    }

    /// Shard-thread creation overhead since the last stats reset:
    /// `(spawn_count, spawn_nanos)` — pool worker threads created for the
    /// sharded phase A and the wall time spent issuing those creations.
    /// Stays `<= shards - 1` per pool lifetime no matter how many ticks
    /// run; `(0, 0)` while `shards == 1`.
    pub fn spawn_stats(&self) -> (u64, u64) {
        (self.spawn_count, self.spawn_nanos)
    }

    /// Pool dispatch overhead since the last stats reset:
    /// `(pool_ticks, pool_wait_nanos)` — sharded ticks dispatched through
    /// the persistent worker pool, and the wall time the host thread
    /// spent blocked at the completion barrier after finishing its own
    /// shard. `(0, 0)` while `shards == 1`.
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool_ticks, self.pool_wait_nanos)
    }

    /// Opens a tick in the profiler (the time since the last tick was the
    /// host's). One branch when profiling is disabled.
    #[inline]
    fn begin_tick(&mut self) {
        if let Some(pr) = self.profiler.as_mut() {
            pr.begin_tick();
        }
    }

    /// Charges the wall time since the previous phase boundary to `p`.
    /// One branch when profiling is disabled.
    #[inline]
    fn mark(&mut self, p: Phase) {
        if let Some(pr) = self.profiler.as_mut() {
            pr.mark(p);
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
        reg.inc("packets_injected_total", self.stats.packets_injected);
        reg.inc("packets_delivered_total", self.stats.packets_delivered);
        reg.inc("flits_delivered_total", self.stats.flits_delivered);
        reg.inc("link_traversals_total", self.stats.link_traversals);
        reg.inc("ni_flits_total", self.ni_flits);
        reg.inc("punch_hops_total", pg.punch_hops);
        reg.inc("wu_assertions_total", pg.wu_assertions);
        reg.inc("wu_retries_total", pg.wu_retries);
        reg.inc("escalations_total", pg.escalations);
        reg.inc("faults_injected_total", pg.faults_injected);
        reg.inc("deflections_total", pg.deflections);
        reg.hist_mut("packet_latency_cycles")
            .merge(&self.stats.latency_hist);
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

    /// Number of packets somewhere between NI enqueue and tail ejection.
    pub fn in_flight(&self) -> usize {
        self.packets.len()
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
        for node in [msg.src, msg.dst] {
            if !self.view.topo.contains(node) {
                return Err(SimError::NodeOutOfRange {
                    node,
                    nodes: self.view.topo.nodes(),
                });
            }
        }
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
        if let Some(s) = self.sink.as_mut() {
            s.record(
                self.cycle,
                &Event::Inject {
                    packet: id.0,
                    src: msg.src,
                    dst: msg.dst,
                },
            );
        }
        // The NI now has injection-side work: flag it for the SoA sweep.
        self.soa.ni_pend.set(msg.src.index());
        self.packets
            .insert(id.0, PacketMeta::new(msg, len, self.cycle, true));
        self.stats.packets_injected += 1;
        self.injected_flits += len as u64;
        self.conserv_injected += len as u64;
        self.conserv_in_flight += len as u64;
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
        if !self.view.topo.contains(node) {
            return Err(SimError::NodeOutOfRange {
                node,
                nodes: self.view.topo.nodes(),
            });
        }
        self.events.push(PmEvent::FutureInjection { node });
        Ok(())
    }

    /// Takes every message that has been delivered to `node` so far.
    pub fn take_delivered(&mut self, node: NodeId) -> Vec<Message> {
        let msgs = std::mem::take(&mut self.outbox[node.index()]);
        self.outbox_pending -= msgs.len() as u64;
        msgs
    }

    /// Messages delivered but not yet collected with
    /// [`Network::take_delivered`], across all nodes. Hosts polling every
    /// node each cycle can skip the whole scan while this is zero.
    pub fn delivered_pending(&self) -> u64 {
        self.outbox_pending
    }

    /// Deep-copies the network for state-space exploration, or `None` when
    /// it cannot be copied faithfully: an event sink is attached (sinks are
    /// not clonable), or the active power manager does not implement
    /// [`PowerManager::clone_boxed`].
    pub fn try_clone(&self) -> Option<Network> {
        if self.sink.is_some() {
            return None;
        }
        let pm = self.pm.clone_boxed()?;
        Some(Network {
            cfg: self.cfg.clone(),
            view: self.view,
            cycle: self.cycle,
            routers: self.routers.clone(),
            nis: self.nis.clone(),
            flits: self.flits.clone(),
            credits: self.credits.clone(),
            ejects: self.ejects.clone(),
            packets: self.packets.clone(),
            next_packet: self.next_packet,
            pm,
            events: self.events.clone(),
            stats: self.stats.clone(),
            outbox: self.outbox.clone(),
            outbox_pending: self.outbox_pending,
            ni_flits: self.ni_flits,
            injected_flits: self.injected_flits,
            measure_start: self.measure_start,
            sink: None,
            power_shadow: self.power_shadow.clone(),
            off_since: self.off_since.clone(),
            conserv_injected: self.conserv_injected,
            conserv_delivered: self.conserv_delivered,
            conserv_in_flight: self.conserv_in_flight,
            last_progress: self.last_progress,
            moved: self.moved,
            blocked_streak: self.blocked_streak.clone(),
            violation: self.violation.clone(),
            reference: self.reference,
            shards: self.shards,
            shard_bounds: self.shard_bounds.clone(),
            neighbors: self.neighbors.clone(),
            soa: self.soa.clone(),
            shard_bufs: Vec::new(),
            idle_scratch: Vec::with_capacity(self.routers.len()),
            seen_scratch: BitWords::new(self.routers.len()),
            streaking: self.streaking.clone(),
            // Like the sink, profiling state does not clone: forks explore
            // state space, they are not wall-time subjects.
            profiler: None,
            spawn_count: 0,
            spawn_nanos: 0,
            // Worker threads are per-instance; the clone builds its own
            // pool lazily if it ever runs a sharded tick.
            pool: None,
            pool_ticks: 0,
            pool_wait_nanos: 0,
            panic_next_shard: false,
        })
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
    /// delivered-message outbox and the conservation totals are excluded —
    /// they never feed back into dynamics.
    pub fn encode_state(&self) -> Option<Vec<u8>> {
        use crate::snapshot::{put_u16, put_u64, put_u8, put_usize};
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
        // Events buffered for the next power_tick (non-empty only right
        // after host sends, but those states are explored too).
        put_u8(&mut out, self.events.len() as u8);
        for ev in &self.events {
            match *ev {
                PmEvent::HeadArrival { router, dst } => {
                    put_u8(&mut out, 0);
                    put_u16(&mut out, router.0);
                    put_u16(&mut out, dst.0);
                }
                PmEvent::BlockedNeed { router } => {
                    put_u8(&mut out, 1);
                    put_u16(&mut out, router.0);
                    put_u16(&mut out, 0);
                }
                PmEvent::NiMessageKnown { node, dst } => {
                    put_u8(&mut out, 2);
                    put_u16(&mut out, node.0);
                    put_u16(&mut out, dst.0);
                }
                PmEvent::FutureInjection { node } => {
                    put_u8(&mut out, 3);
                    put_u16(&mut out, node.0);
                    put_u16(&mut out, 0);
                }
                PmEvent::NiReadyToInject { node, dst } => {
                    put_u8(&mut out, 4);
                    put_u16(&mut out, node.0);
                    put_u16(&mut out, dst.0);
                }
            }
        }
        // Watchdog dynamic state: both bounded (escalation resets streaks,
        // a stall report re-arms the progress clock), both behaviour-
        // relevant, so both belong in the encoding.
        for &s in &self.blocked_streak {
            put_u64(&mut out, s);
        }
        put_u64(&mut out, self.stall_age());
        if !self.pm.encode_state(now, &mut out) {
            return None;
        }
        Some(out)
    }

    /// Cycles since the watchdog last saw forward progress (0 while idle or
    /// right after movement; bounded by the stall threshold, past which
    /// [`Network::tick`] errors out).
    pub fn stall_age(&self) -> Cycle {
        self.cycle
            .saturating_sub(1)
            .saturating_sub(self.last_progress)
    }

    /// Per-router count of consecutive cycles the WU handshake has been
    /// asserted and ignored (indexed by node id).
    pub fn blocked_streaks(&self) -> &[Cycle] {
        &self.blocked_streak
    }

    /// Arms a one-shot fault choice on the power manager for the next tick;
    /// `false` if the active manager does not support scripted choices (see
    /// [`PowerManager::arm_choice`]).
    pub fn arm_fault_choice(&mut self, choice: FaultChoice) -> bool {
        self.pm.arm_choice(choice)
    }

    /// Advances the network by one cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invariant`] when a per-cycle invariant check
    /// fails (flit conservation, flit into a powered-off router), and
    /// [`SimError::Stall`] when no flit has moved for longer than
    /// [`WatchdogConfig::stall_threshold`] while packets are in flight.
    /// An invariant violation is latched: every subsequent tick keeps
    /// returning it. A stall re-arms, so a caller that intentionally keeps
    /// ticking past it will get a fresh report each threshold window.
    pub fn tick(&mut self) -> Result<(), SimError> {
        if self.reference {
            return self.tick_reference();
        }
        // Phase A computes each shard's slice of the tick over shard-owned
        // state only, then the commit applies every cross-router effect
        // serially in router-index order — bit-exact for any shard count.
        self.begin_tick();
        let now = self.cycle;
        self.moved = false;
        let pool_wait = self.soa_phase_a(now)?;
        self.mark(Phase::SoaPhaseA);
        if pool_wait > 0 {
            // The SoaPhaseA interval above includes the host's blocked
            // wait at the pool barrier; reattribute the measured wait to
            // its own phase (totals, and thus coverage, are conserved).
            if let Some(pr) = self.profiler.as_mut() {
                pr.transfer(Phase::SoaPhaseA, Phase::PoolWait, pool_wait);
            }
        }
        self.soa_commit(now);
        self.mark(Phase::SoaCommit);
        self.watchdog_escalate(now);
        self.mark(Phase::Watchdog);
        self.power_tick_soa(now);
        self.mark(Phase::PowerTick);
        self.cycle = now + 1;
        let r = self.watchdog_check(now);
        self.mark(Phase::Watchdog);
        r
    }

    /// Runs phase A over all shards: on this thread for one shard, on the
    /// persistent worker pool for more. Either way every shard reads
    /// power availability straight from the manager through one shared
    /// [`PmAvail`].
    ///
    /// Returns the wall nanoseconds the host spent blocked at the pool's
    /// completion barrier this tick (0 for inline execution), so the tick
    /// loop can reattribute that wait to [`Phase::PoolWait`].
    ///
    /// # Errors
    ///
    /// [`SimError::ShardPanic`] when a pool worker's shard panicked; the
    /// pool itself survives and later ticks may proceed.
    fn soa_phase_a(&mut self, now: Cycle) -> Result<u64, SimError> {
        let shards = self.shards;
        if self.shard_bufs.len() != shards {
            self.shard_bufs.resize_with(shards, ShardBuf::default);
        }
        for b in &mut self.shard_bufs {
            b.reset();
        }
        let link = self.cfg.link_latency as Cycle;
        let check = self.cfg.watchdog.invariant_checks;
        let violation_open = self.violation.is_none();
        self.deliver_late_credits(now);
        if shards > 1 {
            self.ensure_pool(shards - 1);
        }
        let inject_panic = std::mem::take(&mut self.panic_next_shard);
        let Network {
            routers,
            nis,
            flits,
            credits,
            ejects,
            pm,
            soa,
            shard_bufs,
            shard_bounds,
            neighbors,
            pool,
            ..
        } = self;
        let (flit_due, flits) = flits.plane_mut(now);
        let (credit_due, credits) = credits.plane_mut(now);
        let (eject_due, ejects) = ejects.plane_mut(now);
        let ctx = TickCtx {
            now,
            check,
            violation_open,
            neighbors,
            occ: soa.occ.words(),
            ni_pend: soa.ni_pend.words(),
            flit_due,
            credit_due,
            eject_due,
        };
        let avail = PmAvail {
            pm: pm.as_ref(),
            arrival_by: now + 2 + link,
            local_by: now + 1 + link,
        };
        let mut views = soa::split_shards(routers, nis, flits, credits, ejects, shard_bounds);
        let Some(pool) = pool.as_ref() else {
            // One shard (no pool exists), or pool creation failed (the OS
            // is out of threads; `ensure_pool` retries next tick): run
            // every shard view on this thread, in shard order. Same
            // record-then-commit protocol, so still bit-exact.
            for (mut sv, buf) in views.zip(shard_bufs.iter_mut()) {
                soa::shard_phase_a(&mut sv, &ctx, &avail, buf);
            }
            return Ok(0);
        };
        // Publish one job per parked worker, run shard 0 on this thread,
        // then wait at the completion barrier. Jobs borrow this stack
        // frame; that is sound because `run_tick` never returns (even by
        // unwinding) before every worker passed the barrier.
        let mut sv0 = views.next().expect("at least one shard");
        let (buf0, bufs) = shard_bufs.split_at_mut(1);
        let mut tasks: Vec<ShardTask<'_, '_>> = views
            .zip(bufs.iter_mut())
            .map(|(sv, buf)| ShardTask {
                sv,
                ctx: &ctx,
                avail: &avail,
                buf,
            })
            .collect();
        let last = tasks.len().saturating_sub(1);
        let jobs = tasks.iter_mut().enumerate().map(|(i, t)| Job {
            run: if inject_panic && i == last {
                run_shard_task_panicking
            } else {
                run_shard_task
            },
            data: t as *mut ShardTask<'_, '_> as *mut (),
        });
        let wait = pool
            .run_tick(jobs, || {
                soa::shard_phase_a(&mut sv0, &ctx, &avail, &mut buf0[0])
            })
            .map_err(|p| SimError::ShardPanic {
                // Worker k owns shard k + 1 (shard 0 is the host).
                shard: p.worker + 1,
                message: p.message,
            })?;
        self.pool_ticks += 1;
        self.pool_wait_nanos += wait;
        Ok(wait)
    }

    /// Delivers, on this thread, every credit whose cycle a fast-forward
    /// skipped, so the shards only ever see the one plane due now. Exact
    /// although late: applying a credit is a commutative increment and
    /// nothing read the counters in between (the network was quiescent).
    fn deliver_late_credits(&mut self, now: Cycle) {
        while let Some(due) = self.credits.earliest_before(now) {
            let (words, slots) = self.credits.plane_mut(due);
            soa::for_each_one(words, 0, self.routers.len(), |idx| {
                let lanes = &mut slots[idx * CREDIT_LANES..][..CREDIT_LANES];
                soa::deliver_credits(lanes, &mut self.routers[idx], &mut self.nis[idx]);
            });
            self.credits.retire(due);
        }
    }

    /// Creates (or re-creates) the persistent pool for `workers` shard
    /// threads. A creation failure is not fatal: this tick runs its shards
    /// on the host thread and the next tick retries.
    fn ensure_pool(&mut self, workers: usize) {
        if self.pool.as_ref().is_some_and(|p| p.workers() == workers) {
            return;
        }
        self.pool = None;
        if let Ok((pool, spawn_ns)) = ShardPool::new(workers) {
            self.spawn_count += workers as u64;
            self.spawn_nanos += spawn_ns;
            self.pool = Some(pool);
        }
    }

    /// Applies every shard's phase-A outcome serially, shard-ascending (=
    /// router-index order, reproducing the reference kernel's event order
    /// and state updates exactly), sub-phase by sub-phase.
    fn soa_commit(&mut self, now: Cycle) {
        let link = self.cfg.link_latency as Cycle;
        let check = self.cfg.watchdog.invariant_checks;
        let mut bufs = std::mem::take(&mut self.shard_bufs);
        // --- 1. flit deliveries ------------------------------------------
        for buf in &mut bufs {
            self.moved |= buf.moved;
            if check && self.violation.is_none() {
                if let Some(router) = buf.violation {
                    self.violation =
                        Some(InvariantViolation::FlitIntoOffRouter { cycle: now, router });
                }
            }
            for ha in buf.head_arrivals.drain(..) {
                if ha.counted_hop {
                    self.packets
                        .get_mut(&ha.packet.0)
                        .expect("meta exists while in flight")
                        .hops += 1;
                }
                self.events.push(PmEvent::HeadArrival {
                    router: ha.router,
                    dst: ha.dst,
                });
            }
        }
        // Every router with a flit due latched it, so its datapath is
        // occupied now whatever allocation then took out of it.
        self.soa.occ.union_with(self.flits.plane_mut(now).0);
        self.flits.retire(now);
        // --- 2. credit deliveries ----------------------------------------
        self.credits.retire(now);
        // --- 3. allocation outcomes --------------------------------------
        for buf in &mut bufs {
            for (here, b) in buf.blocked.drain(..) {
                let d = b
                    .next_router_port
                    .direction()
                    .expect("PG can only block link ports");
                let next =
                    self.neighbors[here.index()][d.index()].expect("blocked port has a neighbor");
                self.note_blocked(b.packet, next);
            }
            for (here, dep) in buf.departed.drain(..) {
                let idx = here.index();
                let near = self.neighbors[idx];
                self.moved = true;
                match dep.in_port {
                    Port::Local => {
                        self.credits
                            .put(now + 1 + link, idx, NI_CREDIT_LANE, dep.in_vc as u8);
                    }
                    Port::Link(d) => {
                        let up = near[d.index()].expect("flits only arrive over real links");
                        let lane = Port::Link(d.opposite()).index();
                        self.credits
                            .put(now + 1 + link, up.index(), lane, dep.in_vc as u8);
                    }
                }
                match dep.out_port {
                    Port::Local => self.ejects.put(now + 2, idx, 0, dep.flit),
                    Port::Link(d) => {
                        let next = near[d.index()].expect("allocation never targets a mesh edge");
                        let mut flit = dep.flit;
                        flit.route_port = match self.view.direction(next, flit.dst) {
                            Some(nd) => Port::Link(nd),
                            None => Port::Local,
                        };
                        self.stats.link_traversals += 1;
                        let lane = Port::Link(d.opposite()).index();
                        self.flits.put(now + 2 + link, next.index(), lane, flit);
                    }
                }
            }
            for &i in &buf.alloc_empty {
                self.soa.occ.clear(i);
            }
        }
        // --- 4. ejections ------------------------------------------------
        self.ni_flits += self.ejects.retire(now) as u64;
        for buf in &mut bufs {
            for (idx, done) in buf.completions.drain(..) {
                self.complete_packet(idx, done, now);
            }
        }
        // --- 5. injections -----------------------------------------------
        for buf in &mut bufs {
            for r in buf.inject.drain(..) {
                let node = NodeId(r.idx as u16);
                // Per NI: every ready edge, then every stall — the order
                // the power manager (and a seeded fault source) sees.
                for &(_pkt, dst) in &buf.ni_ready[r.ready] {
                    self.events.push(PmEvent::NiReadyToInject { node, dst });
                }
                for &pkt in &buf.ni_blocked[r.blocked] {
                    self.note_blocked(pkt, node);
                }
                if let Some(pkt) = r.head_injected {
                    if let Some(meta) = self.packets.get_mut(&pkt.0) {
                        meta.inject = now;
                    }
                }
                if let Some(flit) = r.sent {
                    self.ni_flits += 1;
                    self.moved = true;
                    self.flits
                        .put(now + 1 + link, r.idx, Port::Local.index(), flit);
                    if r.mid_after {
                        self.soa.ni_mid.set(r.idx);
                    } else {
                        self.soa.ni_mid.clear(r.idx);
                    }
                }
                if !r.pending_after {
                    self.soa.ni_pend.clear(r.idx);
                }
            }
        }
        self.shard_bufs = bufs;
    }

    /// Bookkeeping for one cycle a packet spent blocked on powered-off
    /// `router`: asserts the WU handshake toward it and charges the wait
    /// to the packet.
    fn note_blocked(&mut self, packet: PacketId, router: NodeId) {
        self.events.push(PmEvent::BlockedNeed { router });
        if let Some(meta) = self.packets.get_mut(&packet.0) {
            meta.wakeup_wait += 1;
            // Figure 9: count each blocking router once per packet
            // encounter.
            if meta.blocked_on != Some(router) {
                meta.blocked_on = Some(router);
                meta.pg_encounters += 1;
            }
        }
    }

    /// Bookkeeping for packet `done` whose tail just ejected at NI `idx`:
    /// retires its metadata into the sink, the conservation counters, the
    /// measured-window statistics and the node's outbox.
    fn complete_packet(&mut self, idx: usize, done: PacketId, now: Cycle) {
        let meta = self
            .packets
            .remove(&done.0)
            .expect("completed packet has meta");
        if let Some(s) = self.sink.as_mut() {
            s.record(
                now,
                &Event::Deliver {
                    packet: done.0,
                    src: meta.message.src,
                    dst: meta.message.dst,
                    latency: now.saturating_sub(meta.ni_enqueue),
                },
            );
        }
        self.conserv_delivered += meta.len_flits as u64;
        self.conserv_in_flight = self.conserv_in_flight.saturating_sub(meta.len_flits as u64);
        if meta.measured {
            self.stats.packets_delivered += 1;
            self.stats.flits_delivered += meta.len_flits as u64;
            self.stats.latency.record((now - meta.ni_enqueue) as f64);
            self.stats.latency_hist.record(now - meta.ni_enqueue);
            self.stats
                .net_latency
                .record(now.saturating_sub(meta.inject) as f64);
            self.stats.hops.record(meta.hops as f64);
            self.stats.pg_encounters.record(meta.pg_encounters as f64);
            self.stats.wakeup_wait.record(meta.wakeup_wait as f64);
        }
        self.outbox[idx].push(meta.message);
        self.outbox_pending += 1;
    }

    /// The power phase with idleness derived from the SoA words: a router
    /// is idle iff its occupancy and NI-mid-packet bits are clear and no
    /// flit is in flight toward it — exactly the oracle's per-router struct
    /// predicate.
    fn power_tick_soa(&mut self, now: Cycle) {
        self.idle_scratch.clear();
        self.idle_scratch.resize(self.routers.len(), true);
        if !self.packets.is_empty() {
            let occ = self.soa.occ.words();
            let mid = self.soa.ni_mid.words();
            let inbound = self.flits.live() > 0;
            for (w, chunk) in self.idle_scratch.chunks_mut(64).enumerate() {
                let mut busy = occ[w] | mid[w];
                if inbound {
                    busy |= self.flits.live_word(w);
                }
                while busy != 0 {
                    chunk[busy.trailing_zeros() as usize] = false;
                    busy &= busy - 1;
                }
            }
        }
        self.power_tick_finish(now);
    }

    /// `true` when nothing can change network state before new host input:
    /// no packets anywhere between NI enqueue and tail ejection (which
    /// implies every router datapath and NI queue is empty), no buffered
    /// power-manager events, no punch signals sweeping the sideband fabric,
    /// and no latched invariant violation. Credits still in flight are
    /// allowed: the first tick after the skip delivers them unchanged
    /// (`deliver_late_credits`) and nothing reads the upstream counters
    /// they restore until the next flit exists.
    ///
    /// All four checks are O(1).
    pub fn quiescent(&self) -> bool {
        self.packets.is_empty()
            && self.events.is_empty()
            && self.violation.is_none()
            && self.pm.pending_punches() == 0
    }

    /// The network's event horizon: the earliest cycle at which observable
    /// state can change without new host input. `Some(cycle())` while
    /// non-quiescent; the power manager's own horizon while quiescent;
    /// `None` when nothing will ever change (e.g. every router off).
    pub fn next_event_at(&self) -> Option<Cycle> {
        if !self.quiescent() {
            return Some(self.cycle);
        }
        self.pm.next_event_at(self.cycle)
    }

    /// Advances the clock over the quiescent span `[cycle, cycle + span)`
    /// in one bulk power-manager update. Caller must have checked
    /// [`Network::quiescent`] and that no event sink is attached (per-cycle
    /// transition recording needs the per-cycle path).
    fn fast_forward(&mut self, span: u64) {
        if let Some(pr) = self.profiler.as_mut() {
            pr.begin_skip();
        }
        debug_assert!(self.quiescent() && self.sink.is_none());
        debug_assert!(self
            .routers
            .iter()
            .all(crate::router::Router::datapath_empty));
        let from = self.cycle;
        let to = from + span;
        self.idle_scratch.clear();
        self.idle_scratch.resize(self.routers.len(), true);
        self.pm.tick_quiet(
            from,
            to,
            IdleInfo {
                idle: &self.idle_scratch,
            },
        );
        self.cycle = to;
        // The per-cycle path refreshes `last_progress` every cycle while no
        // packets are in flight; mirror its final value so stall detection
        // sees no phantom gap across the jump.
        self.last_progress = to - 1;
        if let Some(pr) = self.profiler.as_mut() {
            pr.end_skip();
        }
    }

    /// `true` when `run`/`run_hooked` may skip ahead right now.
    fn may_fast_forward(&self) -> bool {
        !self.reference && self.sink.is_none() && self.quiescent()
    }

    /// Runs `n` cycles, stopping at the first error.
    ///
    /// Quiescent stretches are skipped in O(1): once
    /// [`Network::quiescent`] holds, the rest of the span is handed to
    /// [`PowerManager::tick_quiet`] in one call. While an event sink is
    /// attached (per-cycle transition recording), every cycle ticks
    /// individually.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`Network::tick`].
    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        let mut left = n;
        while left > 0 {
            if self.may_fast_forward() {
                self.fast_forward(left);
                return Ok(());
            }
            self.tick()?;
            left -= 1;
        }
        Ok(())
    }

    /// Runs `n` cycles like [`Network::run`], invoking `hook` after every
    /// `every` cycles (and once more after the final cycle, if it did not
    /// land on a multiple). Campaign runners use this for per-run progress
    /// and wall-clock throughput sampling without instrumenting `tick`.
    ///
    /// Fast-forward jumps are capped at hook boundaries, so the hook fires
    /// at exactly the same cycles as under per-cycle ticking — samplers
    /// see identical interval timestamps either way.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroHookPeriod`] if `every` is zero
    /// (a hook that can never fire; previously this panicked, which is the
    /// wrong failure mode for a value that typically arrives from campaign
    /// configuration). Otherwise propagates the first error from
    /// [`Network::tick`]; the hook does not run for the failing window.
    pub fn run_hooked(
        &mut self,
        n: u64,
        every: u64,
        hook: &mut dyn FnMut(&Network),
    ) -> Result<(), SimError> {
        if every == 0 {
            return Err(SimError::Config(ConfigError::ZeroHookPeriod));
        }
        let mut i = 0;
        while i < n {
            if self.may_fast_forward() {
                // Skip to the next hook boundary (or the end of the span).
                let span = (every - i % every).min(n - i);
                self.fast_forward(span);
                i += span;
            } else {
                self.tick()?;
                i += 1;
            }
            if i % every == 0 {
                hook(self);
            }
        }
        if n % every != 0 {
            hook(self);
        }
        Ok(())
    }

    /// Ends the warm-up window: zeroes all statistics and counters; packets
    /// currently in flight are excluded from delivered-packet statistics.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.ni_flits = 0;
        self.injected_flits = 0;
        self.spawn_count = 0;
        self.spawn_nanos = 0;
        self.pool_ticks = 0;
        self.pool_wait_nanos = 0;
        if let Some(pr) = self.profiler.as_mut() {
            pr.reset();
        }
        for meta in self.packets.values_mut() {
            meta.measured = false;
        }
        for r in &mut self.routers {
            r.activity.reset();
        }
        self.pm.reset_counters();
        self.measure_start = self.cycle;
    }

    /// Snapshot of statistics, activity and power-gating counters for the
    /// measured window.
    pub fn report(&self) -> NetworkReport {
        let mut activity = RouterActivity::default();
        for r in &self.routers {
            activity.merge(&r.activity);
        }
        let cycles = self.cycle - self.measure_start;
        let denom = cycles as f64 * self.view.topo.nodes() as f64;
        NetworkReport {
            scheme: self.pm.kind(),
            routers: self.view.topo.nodes(),
            cycles,
            stats: self.stats.clone(),
            activity,
            pg: self.pm.counters(),
            ni_flits: self.ni_flits,
            offered_load: if cycles == 0 {
                0.0
            } else {
                self.injected_flits as f64 / denom
            },
        }
    }

    /// Sink mirroring, the power-manager tick against the filled
    /// `idle_scratch`, and transition recording — shared by the kernel's
    /// and the oracle's power phases.
    fn power_tick_finish(&mut self, now: Cycle) {
        if let Some(sink) = self.sink.as_mut() {
            // Mirror this cycle's PM events into the structured trace before
            // the manager consumes them. `HeadArrival` is skipped: it fires
            // for every hop of every packet and carries no power-gating
            // decision by itself (punch emission is traced by the manager).
            for ev in &self.events {
                let obs_ev = match *ev {
                    PmEvent::HeadArrival { .. } => continue,
                    PmEvent::BlockedNeed { router } => Event::WuAssert { router },
                    PmEvent::NiMessageKnown { node, dst } => Event::Slack1 { node, dst },
                    PmEvent::FutureInjection { node } => Event::Slack2 { node },
                    PmEvent::NiReadyToInject { node, dst } => Event::NiReady { node, dst },
                };
                sink.record(now, &obs_ev);
            }
        }
        self.pm.tick(
            now,
            &self.events,
            IdleInfo {
                idle: &self.idle_scratch,
            },
        );
        self.events.clear();
        if self.sink.is_some() {
            self.record_power_transitions(now);
        }
    }

    /// Diffs every router's power tag against the shadow copy, recording
    /// [`Event::Power`] transitions and [`Event::BetEpoch`] ends, then pulls
    /// the manager's own buffered trace (punch emissions, faults). Only
    /// called while a sink is attached.
    fn record_power_transitions(&mut self, now: Cycle) {
        let sink = self.sink.as_mut().expect("caller checked");
        for idx in 0..self.power_shadow.len() {
            let tag = self.pm.state(NodeId(idx as u16)).tag();
            let prev = self.power_shadow[idx];
            if tag == prev {
                continue;
            }
            let router = NodeId(idx as u16);
            sink.record(
                now,
                &Event::Power {
                    router,
                    from: prev,
                    to: tag,
                },
            );
            if prev == PowerTag::Off {
                sink.record(
                    now,
                    &Event::BetEpoch {
                        router,
                        off_cycles: now.saturating_sub(self.off_since[idx]),
                    },
                );
            }
            if tag == PowerTag::Off {
                self.off_since[idx] = now;
            }
            self.power_shadow[idx] = tag;
        }
        for st in self.pm.drain_trace() {
            sink.record(st.cycle, &st.event);
        }
    }

    /// Tracks per-router `BlockedNeed` streaks and force-wakes any router
    /// whose sleep gate has ignored the level-signaled WU handshake for
    /// [`WatchdogConfig::escalate_after`] consecutive cycles. Runs before
    /// `power_tick` so the streak scan sees this cycle's events.
    fn watchdog_escalate(&mut self, now: Cycle) {
        for ev in &self.events {
            if let PmEvent::BlockedNeed { router } = ev {
                self.seen_scratch.set(router.index());
            }
        }
        // Common cycle: no blocked wakeups now and none outstanding — the
        // whole streak scan is a no-op.
        if self.seen_scratch.none_set() && self.streaking.none_set() {
            return;
        }
        let after = self.cfg.watchdog.escalate_after;
        // Only routers named this cycle or carrying a streak can change;
        // ascending order keeps force-wakes in router-index order.
        for w in 0..self.streaking.words().len() {
            let seen = self.seen_scratch.words()[w];
            let mut visit = seen | self.streaking.words()[w];
            while visit != 0 {
                let bit = visit.trailing_zeros() as usize;
                let idx = w * 64 + bit;
                visit &= visit - 1;
                if seen >> bit & 1 == 0 {
                    self.blocked_streak[idx] = 0;
                    self.streaking.clear(idx);
                    continue;
                }
                self.blocked_streak[idx] += 1;
                self.streaking.set(idx);
                if after > 0 && self.blocked_streak[idx] >= after {
                    self.pm.force_wake(NodeId(idx as u16), now);
                    if let Some(s) = self.sink.as_mut() {
                        s.record(
                            now,
                            &Event::ForceWake {
                                router: NodeId(idx as u16),
                            },
                        );
                    }
                    self.blocked_streak[idx] = 0;
                    self.streaking.clear(idx);
                }
            }
        }
        self.seen_scratch.clear_all();
    }

    /// End-of-tick invariant and progress checks.
    fn watchdog_check(&mut self, now: Cycle) -> Result<(), SimError> {
        if self.cfg.watchdog.invariant_checks {
            if let Some(v) = &self.violation {
                return Err(SimError::Invariant(v.clone()));
            }
            if self.conserv_injected != self.conserv_delivered + self.conserv_in_flight {
                let v = InvariantViolation::FlitConservation {
                    cycle: now,
                    injected: self.conserv_injected,
                    delivered: self.conserv_delivered,
                    in_flight: self.conserv_in_flight,
                };
                self.violation = Some(v.clone());
                return Err(SimError::Invariant(v));
            }
        }
        if self.moved || self.packets.is_empty() {
            self.last_progress = now;
            return Ok(());
        }
        let threshold = self.cfg.watchdog.stall_threshold;
        let stalled_for = now.saturating_sub(self.last_progress);
        if threshold == 0 || stalled_for < threshold {
            return Ok(());
        }
        if let Some(s) = self.sink.as_mut() {
            s.record(
                now,
                &Event::Stall {
                    stalled_for,
                    in_flight: self.packets.len() as u64,
                },
            );
        }
        let report = self.stall_report(now, stalled_for);
        // Re-arm so a caller that deliberately keeps ticking gets one
        // report per threshold window rather than one per cycle.
        self.last_progress = now;
        Err(SimError::Stall(Box::new(report)))
    }

    /// Snapshot of everything needed to diagnose a wedged network.
    fn stall_report(&self, now: Cycle, stalled_for: Cycle) -> StallReport {
        let mut off_routers = Vec::new();
        let mut waking_routers = Vec::new();
        for id in self.view.topo.iter_nodes() {
            match self.pm.state(id) {
                PowerState::Off => off_routers.push(id),
                PowerState::WakingUp { .. } => waking_routers.push(id),
                PowerState::On => {}
            }
        }
        let oldest_blocked = self
            .packets
            .iter()
            .min_by_key(|(id, meta)| (meta.ni_enqueue, **id))
            .map(|(id, meta)| BlockedPacket {
                packet: PacketId(*id),
                age: now.saturating_sub(meta.ni_enqueue),
                blocked_on: meta.blocked_on,
            });
        // Dump the flight-recorder tail: the cycle-by-cycle story of what
        // the network tried (and failed) to do leading up to the stall.
        const MAX_STALL_EVENTS: usize = 32;
        let last_events = self
            .sink
            .as_ref()
            .map(|s| {
                let all = s.snapshot();
                let skip = all.len().saturating_sub(MAX_STALL_EVENTS);
                all[skip..].iter().map(|st| st.to_string()).collect()
            })
            .unwrap_or_default();
        StallReport {
            cycle: now,
            stalled_for,
            in_flight_packets: self.packets.len(),
            off_routers,
            waking_routers,
            oldest_blocked,
            pending_punches: self.pm.pending_punches(),
            last_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::AlwaysOn;
    use punchsim_types::VnetId;

    fn msg(src: u16, dst: u16, class: MsgClass) -> Message {
        Message {
            src: NodeId(src),
            dst: NodeId(dst),
            vnet: VnetId(0),
            class,
            payload: (src as u64) << 32 | dst as u64,
            gen_cycle: 0,
        }
    }

    fn net() -> Network {
        let cfg = NocConfig::default();
        let pm = Box::new(AlwaysOn::new(cfg.topology.nodes()));
        Network::new(&cfg, pm).unwrap()
    }

    #[test]
    fn single_control_packet_zero_load_latency() {
        let mut n = net();
        // R0 -> R3: 3 hops, 3-stage pipeline, link latency 1, NI latency 3.
        n.send(msg(0, 3, MsgClass::Control)).unwrap();
        n.run(40).unwrap();
        assert_eq!(n.take_delivered(NodeId(3)).len(), 1);
        let r = n.report();
        assert_eq!(r.stats.packets_delivered, 1);
        // enqueue t=0, ready t=3, sent t=3, latch R0 t=5, per hop 4 cycles,
        // latch R3 at 5+12... wait: R0 is hop 0. R0 SA t=6, latch R1 t=9,
        // latch R2 t=13, latch R3 t=17, SA t=18, eject t=20.
        assert_eq!(r.stats.latency.mean(), 20.0);
        assert_eq!(r.stats.hops.mean(), 3.0);
        assert_eq!(r.stats.pg_encounters.mean(), 0.0);
        assert_eq!(r.stats.wakeup_wait.mean(), 0.0);
    }

    #[test]
    fn data_packet_serialization_latency() {
        let mut n = net();
        // 5-flit packet to a neighbour: tail trails head by 4 cycles.
        n.send(msg(0, 1, MsgClass::Data)).unwrap();
        n.run(40).unwrap();
        assert_eq!(n.take_delivered(NodeId(1)).len(), 1);
        let r = n.report();
        // Head: enqueue 0, sent 3, latch R0 @5, SA @6, latch R1 @9, SA @10,
        // eject @12. The 3-flit VC depth throttles the stream through the
        // NI->R0 and R0->R1 credit loops (credits take 2 cycles to return),
        // so the tail is sent @9, forwarded by R0 @13 after the credit from
        // R1 arrives, latched @16, and ejected @19.
        assert_eq!(r.stats.latency.mean(), 19.0);
    }

    #[test]
    fn local_delivery_goes_through_local_router() {
        let mut n = net();
        n.send(msg(5, 5, MsgClass::Control)).unwrap();
        n.run(20).unwrap();
        let got = n.take_delivered(NodeId(5));
        assert_eq!(got.len(), 1);
        let r = n.report();
        assert_eq!(r.stats.hops.mean(), 0.0);
        // enqueue 0, sent 3, latch 5, SA 6, eject 8.
        assert_eq!(r.stats.latency.mean(), 8.0);
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
        for d in 0..64u16 {
            assert_eq!(
                n.take_delivered(NodeId(d)).len(),
                expected[d as usize],
                "node {d}"
            );
        }
        let r = n.report();
        assert_eq!(r.stats.packets_delivered, 300);
        assert!(r.stats.latency.mean() > 0.0);
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
        assert_eq!(r.stats.latency.mean(), 24.0);
    }

    #[test]
    fn run_hooked_fires_per_window_and_at_end() {
        let mut n = net();
        let mut cycles_seen = Vec::new();
        n.run_hooked(25, 10, &mut |net| cycles_seen.push(net.cycle()))
            .unwrap();
        assert_eq!(cycles_seen, vec![10, 20, 25]);
        let mut exact = Vec::new();
        n.run_hooked(20, 10, &mut |net| exact.push(net.cycle()))
            .unwrap();
        assert_eq!(exact, vec![35, 45]);
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
        assert_eq!(n.take_delivered(NodeId(7)).len(), 1);
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
                r.stats.latency.mean(),
                r.stats.hops.mean(),
            )
        };
        assert_eq!(run(), run());
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
    fn hooked_run_rejects_zero_period() {
        let mut n = net();
        let err = n.run_hooked(10, 0, &mut |_| {}).unwrap_err();
        assert!(matches!(err, SimError::Config(ConfigError::ZeroHookPeriod)));
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

    /// A wedged gate: every router permanently off, ignoring all wakeups.
    /// Models a faulty sleep controller for watchdog tests.
    struct AlwaysOff {
        counters: crate::power::PgCounters,
    }

    impl PowerManager for AlwaysOff {
        fn kind(&self) -> punchsim_types::SchemeKind {
            punchsim_types::SchemeKind::ConvPg
        }
        fn state(&self, _r: NodeId) -> PowerState {
            PowerState::Off
        }
        fn tick(&mut self, _cycle: Cycle, _events: &[PmEvent], _idle: IdleInfo<'_>) {}
        fn counters(&self) -> crate::power::PgCounters {
            self.counters.clone()
        }
        fn reset_counters(&mut self) {
            self.counters.reset();
        }
        // Deliberately does NOT implement force_wake: escalation has no
        // effect, so only the stall watchdog can surface the wedge.
    }

    /// The event-driven escalation scan against the full `0..n` scan it
    /// replaced, restated here as the spec: equal streaks every cycle and
    /// equal force-wake order, on a mesh spanning three bitset words.
    #[test]
    fn escalation_scan_matches_the_full_scan_spec() {
        use punchsim_types::SimRng;
        let after = 3;
        let cfg = NocConfig {
            topology: punchsim_types::Mesh::new(12, 12).into(),
            watchdog: punchsim_types::WatchdogConfig {
                escalate_after: after,
                ..NocConfig::default().watchdog
            },
            ..NocConfig::default()
        };
        let mut n = Network::new(&cfg, Box::new(AlwaysOn::new(144))).unwrap();
        n.set_sink(Box::new(punchsim_obs::VecSink::new()));
        let mut rng = SimRng::seed_from_u64(0xE5CA);
        let mut spec = vec![0 as Cycle; 144];
        let mut spec_woken = Vec::new();
        // A few routers blocked for runs of cycles (so streaks build up,
        // escalate and reset), unrelated events, and fully quiet cycles.
        let mut blocked: Vec<(u16, u64)> = Vec::new();
        for now in 0..600 {
            blocked.retain(|&(_, until)| until > now);
            if rng.random_bool_ppm(150_000) {
                blocked.push((rng.random_range(0..144), now + rng.random_range(1..9u64)));
            }
            n.events.push(PmEvent::HeadArrival {
                router: NodeId(rng.random_range(0..144)),
                dst: NodeId(0),
            });
            for &(r, _) in &blocked {
                n.events.push(PmEvent::BlockedNeed { router: NodeId(r) });
            }
            for (idx, streak) in spec.iter_mut().enumerate() {
                if !blocked.iter().any(|&(r, _)| r as usize == idx) {
                    *streak = 0;
                    continue;
                }
                *streak += 1;
                if *streak >= after {
                    spec_woken.push((now, idx as u16));
                    *streak = 0;
                }
            }
            n.watchdog_escalate(now);
            n.events.clear();
            assert_eq!(n.blocked_streaks(), &spec[..], "cycle {now}");
        }
        let woken: Vec<(Cycle, u16)> = n
            .take_sink()
            .expect("attached above")
            .snapshot()
            .iter()
            .filter_map(|s| match s.event {
                Event::ForceWake { router } => Some((s.cycle, router.0)),
                _ => None,
            })
            .collect();
        assert!(woken.len() > 10, "trace too thin: {woken:?}");
        assert_eq!(woken, spec_woken);
    }

    #[test]
    fn watchdog_reports_stall_against_wedged_router() {
        let cfg = NocConfig {
            watchdog: punchsim_types::WatchdogConfig {
                stall_threshold: 50,
                invariant_checks: true,
                escalate_after: 8,
            },
            ..NocConfig::default()
        };
        let pm = Box::new(AlwaysOff {
            counters: crate::power::PgCounters::new(cfg.topology.nodes()),
        });
        let mut n = Network::new(&cfg, pm).unwrap();
        n.send(msg(0, 9, MsgClass::Control)).unwrap();
        let mut stall = None;
        for _ in 0..200 {
            match n.tick() {
                Ok(()) => {}
                Err(SimError::Stall(r)) => {
                    stall = Some(*r);
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let r = stall.expect("watchdog must fire within 200 cycles");
        assert!(r.stalled_for >= 50);
        assert_eq!(r.in_flight_packets, 1);
        // Every router is off; the blocked packet names its local router R0.
        assert_eq!(r.off_routers.len(), 64);
        let oldest = r.oldest_blocked.expect("one packet is in flight");
        assert_eq!(oldest.blocked_on, Some(NodeId(0)));
        assert!(oldest.age >= 50);
    }

    #[test]
    fn stall_report_rearms_per_threshold_window() {
        let cfg = NocConfig {
            watchdog: punchsim_types::WatchdogConfig {
                stall_threshold: 30,
                invariant_checks: true,
                escalate_after: 0,
            },
            ..NocConfig::default()
        };
        let pm = Box::new(AlwaysOff {
            counters: crate::power::PgCounters::new(cfg.topology.nodes()),
        });
        let mut n = Network::new(&cfg, pm).unwrap();
        n.send(msg(0, 1, MsgClass::Control)).unwrap();
        let mut stalls = 0;
        for _ in 0..200 {
            if matches!(n.tick(), Err(SimError::Stall(_))) {
                stalls += 1;
            }
        }
        // ~200 cycles / 30-cycle threshold: a handful of reports, not 170.
        assert!((2..=7).contains(&stalls), "got {stalls} stall reports");
    }

    #[test]
    fn idle_network_never_stalls() {
        let cfg = NocConfig {
            watchdog: punchsim_types::WatchdogConfig {
                stall_threshold: 5,
                invariant_checks: true,
                escalate_after: 0,
            },
            ..NocConfig::default()
        };
        let pm = Box::new(AlwaysOn::new(cfg.topology.nodes()));
        let mut n = Network::new(&cfg, pm).unwrap();
        // No traffic at all: an empty network is idle, not stalled.
        n.run(500).unwrap();
    }

    #[test]
    fn sink_records_packet_and_slack_events() {
        let mut n = net();
        n.set_sink(Box::new(punchsim_obs::VecSink::new()));
        n.send(msg(0, 3, MsgClass::Control)).unwrap();
        n.run(40).unwrap();
        let sink = n.take_sink().expect("sink was attached");
        let events = sink.snapshot();
        let kinds: Vec<&str> = events.iter().map(|s| s.event.kind()).collect();
        assert!(kinds.contains(&"inject"), "{kinds:?}");
        assert!(kinds.contains(&"slack1"), "{kinds:?}");
        assert!(kinds.contains(&"ni-ready"), "{kinds:?}");
        assert!(kinds.contains(&"deliver"), "{kinds:?}");
        // Stamps are monotone non-decreasing within the recording order.
        assert!(events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        // The deliver event carries the same latency the stats measured.
        let lat = events
            .iter()
            .find_map(|s| match s.event {
                Event::Deliver { latency, .. } => Some(latency),
                _ => None,
            })
            .expect("deliver recorded");
        assert_eq!(lat, 20);
        // Detaching turns recording back off.
        assert!(n.sink().is_none());
    }

    #[test]
    fn tracing_does_not_alter_simulation_results() {
        let run = |traced: bool| {
            let mut n = net();
            if traced {
                n.set_sink(Box::new(punchsim_obs::RingSink::new(512)));
            }
            for i in 0..50u16 {
                n.send(msg(i % 64, (i * 7 + 3) % 64, MsgClass::Data))
                    .unwrap();
                n.tick().unwrap();
            }
            n.run(1500).unwrap();
            let r = n.report();
            (r.stats.packets_delivered, r.stats.latency.mean())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stall_report_carries_flight_recorder_tail() {
        let cfg = NocConfig {
            watchdog: punchsim_types::WatchdogConfig {
                stall_threshold: 50,
                invariant_checks: true,
                escalate_after: 8,
            },
            ..NocConfig::default()
        };
        let pm = Box::new(AlwaysOff {
            counters: crate::power::PgCounters::new(cfg.topology.nodes()),
        });
        let mut n = Network::new(&cfg, pm).unwrap();
        n.set_sink(Box::new(punchsim_obs::RingSink::new(64)));
        n.send(msg(0, 9, MsgClass::Control)).unwrap();
        let report = loop {
            match n.tick() {
                Ok(()) => {}
                Err(SimError::Stall(r)) => break *r,
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert!(!report.last_events.is_empty());
        assert!(report.last_events.len() <= 32);
        // The tail shows the ignored WU handshake toward the wedged local
        // router — the whole point of the flight recorder.
        assert!(
            report.last_events.iter().any(|e| e.contains("WU asserted")),
            "{:?}",
            report.last_events
        );
    }

    /// Bursty traffic separated by long quiescent gaps: the fast-forward
    /// kernel must reproduce the naive per-cycle run exactly — same final
    /// cycle, same delivered counts, same latencies, same outbox.
    #[test]
    fn fast_forward_matches_naive_run() {
        let run = |reference: bool| {
            let mut n = net();
            if reference {
                n.use_reference_kernel();
            }
            let mut delivered = 0usize;
            for burst in 0..3u16 {
                for i in 0..8u16 {
                    n.send(msg((burst * 11 + i) % 64, (i * 7 + 3) % 64, MsgClass::Data))
                        .unwrap();
                }
                n.run(1_000).unwrap();
                for d in 0..64u16 {
                    delivered += n.take_delivered(NodeId(d)).len();
                }
            }
            let r = n.report();
            (
                n.cycle(),
                delivered,
                r.stats.packets_delivered,
                r.stats.latency.mean().to_bits(),
                r.stats.hops.mean().to_bits(),
                r.ni_flits,
            )
        };
        assert_eq!(run(false), run(true));
    }

    /// When the OS refuses the pool's threads, a sharded tick must run its
    /// shards on the host thread — same results, no threads, no panic — and
    /// bring the pool up as soon as creation succeeds again.
    #[test]
    fn failed_pool_creation_runs_shards_on_the_host_and_retries() {
        let drive = |n: &mut Network| {
            for i in 0..50u16 {
                n.send(msg(i % 64, (i * 7 + 3) % 64, MsgClass::Data))
                    .unwrap();
                n.tick().unwrap();
            }
        };
        let digest = |n: &Network| format!("{:?}", n.report());
        let mut serial = net();
        let mut sharded = net();
        sharded.set_shards(4).unwrap();
        crate::pool::FAIL_NEW.with(|f| f.set(true));
        drive(&mut serial);
        drive(&mut sharded);
        crate::pool::FAIL_NEW.with(|f| f.set(false));
        assert_eq!(sharded.spawn_stats().0, 0, "no thread was ever created");
        assert_eq!(sharded.pool_stats().0, 0, "no tick went through a pool");
        assert_eq!(digest(&sharded), digest(&serial));
        drive(&mut serial);
        drive(&mut sharded);
        assert_eq!(sharded.spawn_stats().0, 3, "the next tick retried");
        assert!(sharded.pool_stats().0 > 0);
        assert_eq!(digest(&sharded), digest(&serial));
    }

    #[test]
    fn quiescence_and_horizon_are_reported() {
        let mut n = net();
        assert!(n.quiescent());
        // AlwaysOn never changes state: the horizon is empty.
        assert_eq!(n.next_event_at(), None);
        n.send(msg(0, 3, MsgClass::Control)).unwrap();
        assert!(!n.quiescent(), "in-flight packet blocks quiescence");
        assert_eq!(n.next_event_at(), Some(n.cycle()));
        n.run(40).unwrap();
        assert!(n.quiescent(), "drained network is quiescent again");
    }

    #[test]
    fn fast_forward_advances_clock_in_one_jump() {
        let mut n = net();
        n.run(1_000_000).unwrap();
        assert_eq!(n.cycle(), 1_000_000);
        // The jump must leave stall detection armed exactly like the
        // per-cycle path: traffic injected afterwards still delivers.
        n.send(msg(0, 9, MsgClass::Control)).unwrap();
        n.run(60).unwrap();
        assert_eq!(n.take_delivered(NodeId(9)).len(), 1);
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
            SimError::Config(punchsim_types::ConfigError::ZeroLinkLatency)
        ));
    }

    /// VC layouts the router cannot represent, or that could only ever end
    /// in a watchdog stall, are configuration errors — not an arithmetic
    /// overflow or a network that never injects.
    #[test]
    fn new_rejects_unrepresentable_vc_layouts() {
        use punchsim_types::ConfigError;
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
        m.vnet = punchsim_types::VnetId(3);
        n.send(m).unwrap();
        n.run(200).unwrap();
        assert_eq!(n.take_delivered(NodeId(63)).len(), 1);
    }
}
