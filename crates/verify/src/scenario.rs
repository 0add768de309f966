//! The bounded verification scenario the checker explores.
//!
//! A scenario is a small mesh, a power scheme, a tightened watchdog, a
//! fixed warmup that lets every router fall asleep, and a fixed pair of
//! corner-to-corner control packets injected *before* exploration starts.
//! Injecting everything up front makes the transition relation invariant
//! under a uniform time shift, which is what justifies merging states whose
//! canonical encodings (all absolute cycles rebased to "now") collide.

use punchsim_core::build_power_manager;
use punchsim_core::faults::FaultInjector;
use punchsim_noc::{Message, MsgClass, Network};
use punchsim_obs::EventSink;
use punchsim_types::{
    Cycle, FaultChoice, Mesh, NodeId, SchemeKind, SimConfig, SimError, VnetId, WatchdogConfig,
};

/// Stall threshold used during exploration — the bound the bounded-stall
/// property is checked against. Small enough to keep the state space tight,
/// large enough that every fault-free and single-fault wakeup completes.
pub const STALL_BOUND: Cycle = 64;

/// Escalation threshold for correct scenarios. Broken scenarios set 0
/// (escalation disabled) so the suppressed-WU bug is actually reachable.
pub const ESCALATE_AFTER: Cycle = 16;

/// Warmup cycles before injection: with `idle_timeout = 4` every router in
/// a 2x3 mesh is fully gated well before this.
pub const WARMUP: Cycle = 32;

/// Duration of the bounded [`FaultChoice::StickOff`] variant the checker
/// enumerates (the unbounded variant is enumerated alongside it).
pub const STICK_DURATION: Cycle = 16;

/// Largest mesh, in routers, the checker accepts: the joint state space of
/// anything bigger than a 3x3 is out of exhaustive reach.
pub const MAX_ROUTERS: usize = 9;

/// Exploration aborts beyond this many distinct states.
pub const MAX_STATES: usize = 400_000;

/// Exploration aborts beyond this BFS depth.
pub const MAX_DEPTH: u64 = 4_000;

/// One bounded verification instance: mesh size, scheme and fault mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Mesh width; `width * height` may not exceed [`MAX_ROUTERS`].
    pub width: u16,
    /// Mesh height.
    pub height: u16,
    /// Power-gating scheme under verification.
    pub scheme: SchemeKind,
    /// When `true`, the checker branches over the fault alphabet every
    /// cycle; when `false` only `FaultChoice::None` is enabled.
    pub faulty: bool,
    /// Fault budget: the checker explores every placement of at most this
    /// many faults along a trajectory (the classic bounded-fault
    /// assumption — the per-cycle alphabet with an unbounded budget is not
    /// finitely enumerable in useful time even on a 2x2 mesh).
    pub max_faults: u32,
    /// When `true`, the fault layer carries a standing
    /// [`FaultChoice::DropWu`] — a controller whose WU level-signal input
    /// is disconnected, so the safety net never reaches the manager — and
    /// watchdog escalation is disabled: the intentionally-broken
    /// configuration that must yield a minimal counterexample (under
    /// conventional gating a sleeping router on the path is never woken and
    /// the blocked packet stalls forever). Composes with `faulty`: both
    /// live in the one fault layer.
    pub broken: bool,
}

impl VerifyConfig {
    /// The 2x2 instance of `scheme`.
    pub fn mesh2x2(scheme: SchemeKind) -> Self {
        VerifyConfig {
            width: 2,
            height: 2,
            scheme,
            faulty: false,
            max_faults: 2,
            broken: false,
        }
    }

    /// The 2x3 instance of `scheme`.
    pub fn mesh2x3(scheme: SchemeKind) -> Self {
        VerifyConfig {
            width: 2,
            height: 3,
            ..Self::mesh2x2(scheme)
        }
    }

    /// Enables per-cycle fault branching.
    pub fn with_faults(mut self) -> Self {
        self.faulty = true;
        self
    }

    /// Switches to the intentionally-broken (WU-suppressed) manager.
    pub fn with_broken_manager(mut self) -> Self {
        self.broken = true;
        self
    }

    /// Stable label used in artifact names: `2x2_ppf_faulty` etc.
    pub fn label(&self) -> String {
        let mode = match (self.faulty, self.broken) {
            (_, true) => "broken",
            (true, false) => "faulty",
            (false, false) => "clean",
        };
        format!(
            "{}x{}_{}_{}",
            self.width,
            self.height,
            self.scheme.tag(),
            mode
        )
    }
}

/// Builds the scenario network: configured mesh + scheme, tightened
/// watchdog, strict one-tick-per-cycle stepping, warmup, then the two
/// corner-to-corner control packets. Returns the fully-armed BFS root.
///
/// When `sink` is `Some`, it is attached *before* injection so a
/// counterexample replay captures the inject events too (a network with a
/// sink attached cannot be forked, so the checker passes `None`).
///
/// # Errors
///
/// Returns any configuration or warmup simulation error verbatim.
pub fn build_network(
    cfg: &VerifyConfig,
    sink: Option<Box<dyn EventSink>>,
) -> Result<Network, SimError> {
    let mut sim = SimConfig::with_scheme(cfg.scheme);
    sim.noc.topology = Mesh::try_new(cfg.width, cfg.height)?.into();
    sim.noc.watchdog = WatchdogConfig {
        stall_threshold: STALL_BOUND,
        invariant_checks: true,
        escalate_after: if cfg.broken { 0 } else { ESCALATE_AFTER },
    };
    let mut pm = build_power_manager(&sim)?;
    if cfg.broken || cfg.faulty {
        let standing = if cfg.broken {
            FaultChoice::DropWu
        } else {
            FaultChoice::None
        };
        pm = Box::new(FaultInjector::scripted(pm, sim.noc.topology).with_standing(standing));
    }
    let mut net = Network::new(&sim.noc, pm)?;
    for _ in 0..WARMUP {
        net.tick()?;
    }
    if let Some(s) = sink {
        net.set_sink(s);
    }
    let n = sim.noc.topology.nodes() as u16;
    for (src, dst) in [(0, n - 1), (n - 1, 0)] {
        net.send(Message {
            src: NodeId(src),
            dst: NodeId(dst),
            vnet: VnetId(0),
            class: MsgClass::Control,
            payload: u64::from(src),
            gen_cycle: net.cycle(),
        })?;
    }
    Ok(net)
}
