//! Exhaustive BFS over the joint power-FSM / punch-fabric / WU-handshake
//! state space, with minimal-counterexample extraction.
//!
//! States are canonical byte encodings ([`Network::encode_state`]: all
//! dynamic state, rebased so that states differing only by a uniform time
//! shift collide); edges are one simulated cycle of a forked [`Network`]
//! under one enabled [`FaultChoice`]. The abstraction relied on (argued in
//! DESIGN.md §14 from the §12 quiescence contract): two networks with equal
//! encodings produce the same successor encodings and the same property
//! observations for every sequence of future choices. BFS guarantees the
//! first violation found lies at minimal depth, so the reported
//! counterexample is a shortest one under the fixed choice enumeration
//! order.
//!
//! The frontier is live: each queued state carries the network that first
//! reached it, every enabled choice steps a fork of that network, and the
//! network is dropped once its state has been expanded. Nothing is replayed
//! to be expanded. A path is replayed only to export a counterexample or
//! witness, once per violated property, and there it must re-reach the key
//! recorded for its state or the run fails with
//! [`VerifyError::ReplayDiverged`].

use std::collections::{HashMap, VecDeque};
use std::fmt;

use punchsim_noc::Network;
use punchsim_obs::PowerTag;
use punchsim_types::{Cycle, FaultChoice, NodeId, SimError};

use crate::scenario::{
    build_network, VerifyConfig, MAX_DEPTH, MAX_ROUTERS, MAX_STATES, STALL_BOUND, STICK_DURATION,
};

/// Property name: every asserted-and-unanswered WU handshake eventually
/// reaches a state where the target router is on or waking (or the
/// watchdog reports the stall — accounted under bounded-stall).
pub const PROP_NO_LOST_WAKEUP: &str = "no_lost_wakeup";
/// Property name: every reachable state can still reach full delivery (or
/// a reported watchdog stall) — the protocol never wedges silently.
pub const PROP_NO_DEADLOCK: &str = "no_deadlock";
/// Property name: no reachable state exceeds the configured stall bound
/// without the watchdog reporting it, and observed stall ages stay within
/// the bound.
pub const PROP_BOUNDED_STALL: &str = "bounded_stall";

/// How a violating edge was classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A stall whose oldest blocked packet sat on a powered-off router —
    /// the wakeup it needed never happened.
    LostWakeup,
    /// A stall not attributable to a sleeping router (or past the bound).
    BoundedStall,
    /// A per-cycle invariant check tripped.
    Invariant,
    /// A witness state from which no delivery and no watchdog report is
    /// reachable. Only produced by the no-deadlock pass, never by an edge.
    Deadlock,
}

impl ViolationKind {
    /// Stable lowercase label used in artifacts.
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::LostWakeup => "lost_wakeup",
            ViolationKind::BoundedStall => "unbounded_stall",
            ViolationKind::Invariant => "invariant",
            ViolationKind::Deadlock => "deadlock",
        }
    }
}

/// A concrete replayable trace: the per-cycle choices from the BFS root.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// One choice per cycle, starting at the root. Replay arms each choice
    /// then ticks once.
    pub choices: Vec<FaultChoice>,
    /// Classification of what the trace demonstrates.
    pub kind: ViolationKind,
    /// Human-readable diagnosis.
    pub detail: String,
    /// `true` when the final tick errors (stall/invariant); `false` when
    /// the trace merely reaches a witness state (deadlock, unmet EF).
    pub ends_in_error: bool,
}

/// Verdict for one of the three checked properties.
#[derive(Debug, Clone)]
pub struct PropertyResult {
    /// One of the `PROP_*` names.
    pub name: &'static str,
    /// `true` when the property holds over the whole reachable space.
    pub proved: bool,
    /// Supporting detail (bound observed, or violation diagnosis).
    pub detail: String,
    /// Minimal counterexample when `proved` is `false`.
    pub counterexample: Option<Counterexample>,
}

/// The result of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Distinct canonical states reached.
    pub reachable: usize,
    /// Explored transitions (successful steps plus violating edges).
    pub edges: usize,
    /// States with every injected packet delivered.
    pub terminals: usize,
    /// Deepest BFS layer reached.
    pub max_depth: u64,
    /// Largest stall age observed in any reachable state.
    pub max_stall_age: Cycle,
    /// The most networks held live at once: those queued plus the one
    /// being expanded. Not part of the artifact.
    pub peak_frontier: usize,
    /// Verdicts in fixed order: no-lost-wakeup, no-deadlock, bounded-stall.
    pub properties: Vec<PropertyResult>,
}

impl Exploration {
    /// `true` when all three properties are proved.
    pub fn all_proved(&self) -> bool {
        self.properties.iter().all(|p| p.proved)
    }

    /// The first (minimal) counterexample across the violated properties.
    pub fn first_counterexample(&self) -> Option<&Counterexample> {
        self.properties
            .iter()
            .filter_map(|p| p.counterexample.as_ref())
            .min_by_key(|c| c.choices.len())
    }
}

/// Why an exploration could not complete.
#[derive(Debug)]
pub enum VerifyError {
    /// The mesh has more than [`MAX_ROUTERS`] routers.
    Intractable {
        /// Mesh width asked for.
        width: u16,
        /// Mesh height asked for.
        height: u16,
    },
    /// The network cannot be fingerprinted or forked (unsupported manager).
    Unsupported(&'static str),
    /// More distinct states than [`MAX_STATES`].
    StateCap(usize),
    /// A BFS layer deeper than [`MAX_DEPTH`].
    DepthCap(u64),
    /// Replaying a recorded path produced a different outcome — an internal
    /// soundness bug, never a property verdict.
    ReplayDiverged(String),
    /// Scenario construction failed.
    Sim(SimError),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Intractable { width, height } => write!(
                f,
                "verify explores the joint state space exhaustively; meshes beyond \
                 {MAX_ROUTERS} routers are intractable (got {width}x{height})"
            ),
            VerifyError::Unsupported(what) => {
                write!(f, "system cannot be verified: {what}")
            }
            VerifyError::StateCap(n) => {
                write!(f, "state cap exceeded: more than {n} distinct states")
            }
            VerifyError::DepthCap(d) => write!(f, "depth cap exceeded at BFS layer {d}"),
            VerifyError::ReplayDiverged(why) => write!(f, "path replay diverged: {why}"),
            VerifyError::Sim(e) => write!(f, "scenario error: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<SimError> for VerifyError {
    fn from(e: SimError) -> Self {
        VerifyError::Sim(e)
    }
}

/// Where a property fails: the violating edge `choice` taken from `state`,
/// or, when `choice` is `None`, the witness `state` itself.
#[derive(Debug, Clone)]
struct Violation {
    state: usize,
    choice: Option<FaultChoice>,
    kind: ViolationKind,
    detail: String,
}

/// The per-router masks of [`StateRec`] are `u32`s.
const _: () = assert!(MAX_ROUTERS <= 32);

/// Per-state record: parent pointer for path reconstruction plus the
/// property observations extracted when the state was first discovered.
#[derive(Debug)]
struct StateRec {
    parent: Option<(usize, FaultChoice)>,
    depth: u64,
    terminal: bool,
    stall_age: Cycle,
    /// Bit `r` set while router `r`'s WU handshake is pending.
    wu_mask: u32,
    /// Bit `r` set while router `r` is on or waking.
    awake_mask: u32,
    /// Faults spent on the path to this state (part of the state identity:
    /// equal encodings with different remaining budgets must not merge).
    faults_used: u32,
    succs: Vec<usize>,
}

/// The explored graph: one record per state, the key each was recorded
/// under, and the violating edges.
struct Graph {
    routers: usize,
    states: Vec<StateRec>,
    index: HashMap<Vec<u8>, usize>,
    violations: Vec<Violation>,
    edges: usize,
    peak_frontier: usize,
}

/// Builds `cfg`'s scenario, explores every state reachable from it and
/// evaluates the three properties.
///
/// # Errors
///
/// [`VerifyError::Intractable`] for a mesh beyond [`MAX_ROUTERS`] (checked
/// before anything is built), scenario-construction failures,
/// [`VerifyError::Unsupported`] for an unforkable or unencodable network,
/// the cap errors when exploration outgrows [`MAX_STATES`] or
/// [`MAX_DEPTH`], and [`VerifyError::ReplayDiverged`] if an exported path
/// does not re-reach the state it was recorded for (an internal bug,
/// reported honestly instead of being folded into a verdict). A property
/// *violation* is not an error.
pub fn explore(cfg: &VerifyConfig) -> Result<Exploration, VerifyError> {
    let g = search(cfg)?;
    let mut properties = Vec::new();
    for (name, verdict) in verdicts(&g) {
        let (detail, counterexample) = match verdict {
            Ok(detail) => (detail, None),
            Err(v) => (v.detail.clone(), Some(export(cfg, &g, &v)?)),
        };
        properties.push(PropertyResult {
            name,
            proved: counterexample.is_none(),
            detail,
            counterexample,
        });
    }
    let states = &g.states;
    Ok(Exploration {
        reachable: states.len(),
        edges: g.edges,
        terminals: states.iter().filter(|s| s.terminal).count(),
        max_depth: states.iter().map(|s| s.depth).max().unwrap_or(0),
        max_stall_age: states.iter().map(|s| s.stall_age).max().unwrap_or(0),
        peak_frontier: g.peak_frontier,
        properties,
    })
}

/// The BFS itself. The root moves into the queue; every enabled choice of
/// a popped state steps its own fork, a successor with a new key joins the
/// queue with its network, and the popped network is dropped.
fn search(cfg: &VerifyConfig) -> Result<Graph, VerifyError> {
    let routers = usize::from(cfg.width) * usize::from(cfg.height);
    if routers > MAX_ROUTERS {
        return Err(VerifyError::Intractable {
            width: cfg.width,
            height: cfg.height,
        });
    }
    let root = build_network(cfg, None)?;
    let mut g = Graph {
        routers,
        states: vec![observe(&root, None, 0, 0)],
        index: HashMap::from([(key_of(&root, 0)?, 0)]),
        violations: Vec::new(),
        edges: 0,
        peak_frontier: 1,
    };
    let mut queue = VecDeque::from([(0, root)]);

    while let Some((cur, net)) = queue.pop_front() {
        if g.states[cur].terminal {
            continue;
        }
        let depth = g.states[cur].depth;
        if depth >= MAX_DEPTH {
            return Err(VerifyError::DepthCap(depth));
        }
        let spent = g.states[cur].faults_used;
        for choice in enabled_choices(cfg, &net, spent) {
            let mut succ = net
                .try_clone()
                .ok_or(VerifyError::Unsupported("system is not forkable"))?;
            match step(&mut succ, choice) {
                Ok(false) => continue,
                Ok(true) => {
                    g.edges += 1;
                    let now_spent = spent + u32::from(!choice.is_none());
                    let key = key_of(&succ, now_spent)?;
                    let next = match g.index.get(&key) {
                        Some(&i) => i,
                        None => {
                            let i = g.states.len();
                            if i >= MAX_STATES {
                                return Err(VerifyError::StateCap(MAX_STATES));
                            }
                            g.states.push(observe(
                                &succ,
                                Some((cur, choice)),
                                depth + 1,
                                now_spent,
                            ));
                            g.index.insert(key, i);
                            queue.push_back((i, succ));
                            g.peak_frontier = g.peak_frontier.max(queue.len() + 1);
                            i
                        }
                    };
                    g.states[cur].succs.push(next);
                }
                Err(e) => {
                    g.edges += 1;
                    g.violations.push(classify(&succ, cur, choice, &e));
                }
            }
        }
    }
    Ok(g)
}

/// The fixed choice enumeration order at `net`'s current state:
/// fault-free first, then punch drops, WU drops, per-destination punch
/// corruption, and bounded/unbounded stuck-off epochs for every
/// currently-gated router. Fault choices are enabled only while budget
/// remains. The order is part of the determinism contract — artifacts
/// are byte-compared in CI.
fn enabled_choices(cfg: &VerifyConfig, net: &Network, faults_used: u32) -> Vec<FaultChoice> {
    let mut v = vec![FaultChoice::None];
    if cfg.faulty && faults_used < cfg.max_faults {
        v.push(FaultChoice::DropPunch);
        v.push(FaultChoice::DropWu);
        let routers = || net.topology().iter_nodes();
        for dst in routers() {
            v.push(FaultChoice::CorruptPunch { dst });
        }
        for router in routers() {
            if net.power_state(router).tag() == PowerTag::Off {
                v.push(FaultChoice::StickOff {
                    router,
                    duration: Some(STICK_DURATION),
                });
                v.push(FaultChoice::StickOff {
                    router,
                    duration: None,
                });
            }
        }
    }
    v
}

/// The three properties over the explored graph, in artifact order: the
/// proved detail, or where the property fails.
fn verdicts(g: &Graph) -> [(&'static str, Result<String, Violation>); 3] {
    // States with at least one violating edge: their trajectories end in a
    // *reported* watchdog event, so reverse-reachability passes treat them
    // as accounted-for rather than silently wedged.
    let mut reported = vec![false; g.states.len()];
    for v in &g.violations {
        reported[v.state] = true;
    }
    let reverse = reverse_edges(&g.states);
    [
        (PROP_NO_LOST_WAKEUP, no_lost_wakeup(g, &reported, &reverse)),
        (PROP_NO_DEADLOCK, no_deadlock(g, &reported, &reverse)),
        (PROP_BOUNDED_STALL, bounded_stall(g)),
    ]
}

fn no_lost_wakeup(
    g: &Graph,
    reported: &[bool],
    reverse: &[Vec<usize>],
) -> Result<String, Violation> {
    let states = &g.states;
    if let Some(v) = g
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::LostWakeup)
    {
        return Err(v.clone());
    }
    // EF pass: every wu_pending(r) state must reach awake(r) or a
    // reported-violation state.
    for r in 0..g.routers {
        let bit = 1u32 << r;
        let good: Vec<usize> = (0..states.len())
            .filter(|&s| states[s].awake_mask & bit != 0 || reported[s])
            .collect();
        let can_reach = reach_backward(reverse, &good);
        if let Some(bad) =
            (0..states.len()).find(|&s| states[s].wu_mask & bit != 0 && !can_reach[s])
        {
            return Err(Violation {
                state: bad,
                choice: None,
                kind: ViolationKind::LostWakeup,
                detail: format!("router {r}: WU pending in a state from which no path wakes it"),
            });
        }
    }
    Ok(format!(
        "every pending WU handshake in {} reachable states can reach a wake",
        states.len()
    ))
}

fn no_deadlock(g: &Graph, reported: &[bool], reverse: &[Vec<usize>]) -> Result<String, Violation> {
    let states = &g.states;
    let good: Vec<usize> = (0..states.len())
        .filter(|&s| states[s].terminal || reported[s])
        .collect();
    let resolved = reach_backward(reverse, &good);
    if let Some(stuck) = (0..states.len()).find(|&s| !resolved[s]) {
        return Err(Violation {
            state: stuck,
            choice: None,
            kind: ViolationKind::Deadlock,
            detail: "state from which neither delivery nor a watchdog report is reachable"
                .to_string(),
        });
    }
    let via_report = g.violations.len();
    Ok(if via_report == 0 {
        format!(
            "all {} reachable states can reach full delivery",
            states.len()
        )
    } else {
        format!(
            "all {} reachable states reach delivery or one of {via_report} reported stalls",
            states.len()
        )
    })
}

fn bounded_stall(g: &Graph) -> Result<String, Violation> {
    if let Some(v) = g.violations.iter().find(|v| {
        matches!(
            v.kind,
            ViolationKind::BoundedStall | ViolationKind::Invariant
        )
    }) {
        return Err(v.clone());
    }
    let max = g.states.iter().map(|s| s.stall_age).max().unwrap_or(0);
    Ok(format!(
        "worst observed stall age {max} of bound {STALL_BOUND}"
    ))
}

/// The counterexample for `v`: the choice path from the root to `v.state`,
/// plus the violating choice when `v` is an edge. The path is replayed once
/// on a freshly built root. It must re-reach the key recorded for
/// `v.state`, and the violating choice must error again.
fn export(cfg: &VerifyConfig, g: &Graph, v: &Violation) -> Result<Counterexample, VerifyError> {
    let mut choices = path_to(&g.states, v.state);
    let mut net = build_network(cfg, None)?;
    if let Some(e) = advance(&mut net, &choices)? {
        return Err(VerifyError::ReplayDiverged(format!(
            "a recorded edge now errors: {e}"
        )));
    }
    if g.index.get(&key_of(&net, g.states[v.state].faults_used)?) != Some(&v.state) {
        return Err(VerifyError::ReplayDiverged(format!(
            "the path to state {} re-reaches a different state",
            v.state
        )));
    }
    if let Some(choice) = v.choice {
        if advance(&mut net, &[choice])?.is_none() {
            return Err(VerifyError::ReplayDiverged(format!(
                "violating edge {} no longer errors",
                choice.label()
            )));
        }
        choices.push(choice);
    }
    Ok(Counterexample {
        choices,
        kind: v.kind,
        detail: v.detail.clone(),
        ends_in_error: v.choice.is_some(),
    })
}

/// Arms `choice` for the next cycle, then advances `net` one cycle. Returns
/// `false` (without stepping) if the network's manager cannot honour the
/// choice — the checker then skips that edge. A tick error is a property
/// violation candidate (stall or invariant), surfaced verbatim.
fn step(net: &mut Network, choice: FaultChoice) -> Result<bool, SimError> {
    if !choice.is_none() && !net.arm_fault_choice(choice) {
        return Ok(false);
    }
    net.tick()?;
    Ok(true)
}

/// Steps `net` through a recorded path with [`step`], stopping at and
/// returning the first tick error. A choice the network's manager does not
/// honour is [`VerifyError::ReplayDiverged`]: the path was recorded from a
/// manager that did.
pub(crate) fn advance(
    net: &mut Network,
    choices: &[FaultChoice],
) -> Result<Option<SimError>, VerifyError> {
    for &choice in choices {
        match step(net, choice) {
            Ok(true) => {}
            Ok(false) => {
                return Err(VerifyError::ReplayDiverged(format!(
                    "choice {} not honoured",
                    choice.label()
                )))
            }
            Err(e) => return Ok(Some(e)),
        }
    }
    Ok(None)
}

/// Extracts the property observations of `net` into a state record:
/// `terminal` when every injected packet has fully ejected (the terminal
/// predicate for no-deadlock and the frame for no-lost-wakeup), the stall
/// age bounded-stall measures, and per router whether its WU handshake is
/// asserted and unanswered (no-lost-wakeup's premise) and whether it is on
/// or waking.
fn observe(
    net: &Network,
    parent: Option<(usize, FaultChoice)>,
    depth: u64,
    faults_used: u32,
) -> StateRec {
    let mut wu_mask = 0u32;
    let mut awake_mask = 0u32;
    for (r, &streak) in net.blocked_streaks().iter().enumerate() {
        if streak > 0 {
            wu_mask |= 1 << r;
        }
        let tag = net.power_state(NodeId(r as u16)).tag();
        if matches!(tag, PowerTag::On | PowerTag::Waking) {
            awake_mask |= 1 << r;
        }
    }
    StateRec {
        parent,
        depth,
        terminal: net.in_flight() == 0,
        stall_age: net.stall_age(),
        wu_mask,
        awake_mask,
        faults_used,
        succs: Vec::new(),
    }
}

/// `net`'s canonical key with the spent-fault count appended, so states
/// reached with different remaining budgets stay distinct in the index.
fn key_of(net: &Network, faults_used: u32) -> Result<Vec<u8>, VerifyError> {
    let mut key = net
        .encode_state()
        .ok_or(VerifyError::Unsupported("canonical encoding unavailable"))?;
    key.extend_from_slice(&faults_used.to_le_bytes());
    Ok(key)
}

/// Classifies a step error into a violation record.
fn classify(net: &Network, state: usize, choice: FaultChoice, e: &SimError) -> Violation {
    let (kind, detail) = match e {
        SimError::Stall(report) => {
            let lost = report.oldest_blocked.as_ref().is_some_and(|b| {
                b.blocked_on
                    .is_some_and(|r| net.power_state(r).tag() == PowerTag::Off)
            });
            let kind = if lost {
                ViolationKind::LostWakeup
            } else {
                ViolationKind::BoundedStall
            };
            let detail = format!(
                "stalled {} cycles with {} in flight ({} routers off)",
                report.stalled_for,
                report.in_flight_packets,
                report.off_routers.len()
            );
            (kind, detail)
        }
        other => (ViolationKind::Invariant, format!("{other}")),
    };
    Violation {
        state,
        choice: Some(choice),
        kind,
        detail,
    }
}

/// The choice path from the root to `target`, in replay order.
fn path_to(states: &[StateRec], target: usize) -> Vec<FaultChoice> {
    let mut path = Vec::new();
    let mut cur = target;
    while let Some((parent, choice)) = states[cur].parent {
        path.push(choice);
        cur = parent;
    }
    path.reverse();
    path
}

/// Reverse adjacency lists of the explored Ok-edge graph.
fn reverse_edges(states: &[StateRec]) -> Vec<Vec<usize>> {
    let mut rev = vec![Vec::new(); states.len()];
    for (s, rec) in states.iter().enumerate() {
        for &t in &rec.succs {
            rev[t].push(s);
        }
    }
    rev
}

/// Multi-source reverse BFS: `out[s]` is `true` when `s` reaches one of
/// `sources` along forward edges.
fn reach_backward(reverse: &[Vec<usize>], sources: &[usize]) -> Vec<bool> {
    let mut seen = vec![false; reverse.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &s in sources {
        if !seen[s] {
            seen[s] = true;
            queue.push_back(s);
        }
    }
    while let Some(s) = queue.pop_front() {
        for &p in &reverse[s] {
            if !seen[p] {
                seen[p] = true;
                queue.push_back(p);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay;
    use punchsim_types::SchemeKind;

    /// Every counterexample the broken scenarios export re-reaches, on a
    /// fresh root, the state key recorded for its source state, and its
    /// replay through the obs pipeline still ends in the watchdog's stall.
    #[test]
    fn exported_counterexamples_re_reach_their_recorded_keys() {
        let broken = VerifyConfig::mesh2x2(SchemeKind::ConvPg).with_broken_manager();
        for cfg in [broken, broken.with_faults()] {
            let g = search(&cfg).unwrap();
            let violated: Vec<Violation> = verdicts(&g)
                .into_iter()
                .filter_map(|(_, v)| v.err())
                .collect();
            assert!(!violated.is_empty(), "{} must violate", cfg.label());
            for v in &violated {
                let ce = export(&cfg, &g, v).unwrap();
                let to_state = &ce.choices[..ce.choices.len() - usize::from(ce.ends_in_error)];
                let mut net = build_network(&cfg, None).unwrap();
                for &choice in to_state {
                    assert!(step(&mut net, choice).unwrap(), "{}", choice.label());
                }
                let key = key_of(&net, g.states[v.state].faults_used).unwrap();
                assert_eq!(g.index.get(&key), Some(&v.state), "{}", cfg.label());
                let rep = replay(&cfg, &ce).unwrap();
                assert!(
                    matches!(rep.error, Some(SimError::Stall(_))),
                    "{}: {:?}",
                    cfg.label(),
                    rep.error
                );
            }
        }
    }

    /// The export-time check is live: a graph whose record for the
    /// violating state no longer matches the replayed path (here, a
    /// tampered fault budget, so the replayed key misses the index) fails
    /// the run instead of exporting a trace to some other state.
    #[test]
    fn export_rejects_a_path_that_misses_its_recorded_key() {
        let cfg = VerifyConfig::mesh2x2(SchemeKind::ConvPg).with_broken_manager();
        let mut g = search(&cfg).unwrap();
        let v = g.violations[0].clone();
        g.states[v.state].faults_used += 1;
        assert!(matches!(
            export(&cfg, &g, &v),
            Err(VerifyError::ReplayDiverged(_))
        ));
    }
}
