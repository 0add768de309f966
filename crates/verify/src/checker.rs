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
//! Expanded states are *materialized by path replay* from a single forked
//! root rather than stored as live clones — the frontier holds only byte
//! keys and parent pointers, keeping memory proportional to the number of
//! distinct states, not their size.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use punchsim_noc::Network;
use punchsim_obs::PowerTag;
use punchsim_types::{Cycle, FaultChoice, NodeId, SimError};

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

/// One violating edge found during exploration.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Index of the state the violating step was taken from.
    pub state: usize,
    /// The choice whose step errored.
    pub choice: FaultChoice,
    /// Classification of the error.
    pub kind: ViolationKind,
    /// Human-readable diagnosis from the underlying error.
    pub detail: String,
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
    /// The network cannot be fingerprinted or forked (unsupported manager).
    Unsupported(&'static str),
    /// More distinct states than the configured cap.
    StateCap(usize),
    /// A BFS layer deeper than the configured cap.
    DepthCap(u64),
    /// Replaying a recorded edge produced a different outcome — an
    /// internal soundness bug, never a property verdict.
    ReplayDiverged(String),
    /// Scenario construction failed.
    Sim(SimError),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Unsupported(what) => {
                write!(f, "system cannot be verified: {what}")
            }
            VerifyError::StateCap(n) => {
                write!(f, "state cap exceeded: more than {n} distinct states")
            }
            VerifyError::DepthCap(d) => write!(f, "depth cap exceeded at BFS layer {d}"),
            VerifyError::ReplayDiverged(why) => write!(f, "edge replay diverged: {why}"),
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

/// The exhaustive checker, stepping forks of one root [`Network`].
pub struct Checker {
    root: Network,
    faulty: bool,
    max_faults: u32,
    max_states: usize,
    max_depth: u64,
    stall_bound: Cycle,
    stick_duration: Cycle,
}

impl Checker {
    /// Builds a checker rooted at `root`'s current state.
    ///
    /// `faulty` enables the per-cycle fault alphabet; `stall_bound` is the
    /// bounded-stall property's bound (must match the network's watchdog
    /// threshold); `stick_duration` is the bounded stuck-off epoch length
    /// enumerated alongside the unbounded one.
    pub fn new(
        root: Network,
        faulty: bool,
        max_faults: u32,
        max_states: usize,
        max_depth: u64,
        stall_bound: Cycle,
        stick_duration: Cycle,
    ) -> Self {
        Checker {
            root,
            faulty,
            max_faults,
            max_states,
            max_depth,
            stall_bound,
            stick_duration,
        }
    }

    /// Runs the exhaustive exploration and evaluates the three properties.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Unsupported`] for an unforkable/unencodable network,
    /// the cap errors when exploration outgrows the configured limits, and
    /// [`VerifyError::ReplayDiverged`] if path-replay materialization ever
    /// disagrees with a recorded edge (an internal bug, reported honestly
    /// instead of being folded into a verdict).
    pub fn run(&self) -> Result<Exploration, VerifyError> {
        let root_key = self
            .root
            .encode_state()
            .ok_or(VerifyError::Unsupported("canonical encoding unavailable"))?;
        if self.root.try_clone().is_none() {
            return Err(VerifyError::Unsupported("system is not forkable"));
        }

        let mut states: Vec<StateRec> = vec![observe(&self.root, None, 0, 0)];
        let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
        index.insert(budgeted(root_key, 0), 0);
        let mut queue: VecDeque<usize> = VecDeque::from([0]);
        let mut violations: Vec<Violation> = Vec::new();
        let mut edges = 0usize;

        while let Some(cur) = queue.pop_front() {
            if states[cur].terminal {
                continue;
            }
            let depth = states[cur].depth;
            if depth >= self.max_depth {
                return Err(VerifyError::DepthCap(depth));
            }
            let spent = states[cur].faults_used;
            let net = self.materialize(&states, cur)?;
            for choice in self.enabled_choices(&net, spent) {
                let now_spent = spent + u32::from(!choice.is_none());
                let mut succ = net
                    .try_clone()
                    .ok_or(VerifyError::Unsupported("fork failed mid-exploration"))?;
                match step(&mut succ, choice) {
                    Ok(false) => continue,
                    Ok(true) => {
                        edges += 1;
                        let key = budgeted(
                            succ.encode_state().ok_or(VerifyError::Unsupported(
                                "canonical encoding unavailable mid-exploration",
                            ))?,
                            now_spent,
                        );
                        let next = match index.get(&key) {
                            Some(&i) => i,
                            None => {
                                let i = states.len();
                                if i >= self.max_states {
                                    return Err(VerifyError::StateCap(self.max_states));
                                }
                                states.push(observe(
                                    &succ,
                                    Some((cur, choice)),
                                    depth + 1,
                                    now_spent,
                                ));
                                index.insert(key, i);
                                queue.push_back(i);
                                i
                            }
                        };
                        states[cur].succs.push(next);
                    }
                    Err(e) => {
                        edges += 1;
                        violations.push(classify(&succ, cur, choice, &e));
                    }
                }
            }
        }

        let properties = self.evaluate(&states, &violations);
        Ok(Exploration {
            reachable: states.len(),
            edges,
            terminals: states.iter().filter(|s| s.terminal).count(),
            max_depth: states.iter().map(|s| s.depth).max().unwrap_or(0),
            max_stall_age: states.iter().map(|s| s.stall_age).max().unwrap_or(0),
            properties,
        })
    }

    /// Rebuilds the live system for state `target` by replaying its choice
    /// path from a fresh fork of the root.
    fn materialize(&self, states: &[StateRec], target: usize) -> Result<Network, VerifyError> {
        let path = path_to(states, target);
        let mut net = self
            .root
            .try_clone()
            .ok_or(VerifyError::Unsupported("fork failed mid-exploration"))?;
        for &choice in &path {
            match step(&mut net, choice) {
                Ok(true) => {}
                Ok(false) => {
                    return Err(VerifyError::ReplayDiverged(format!(
                        "choice {} no longer honoured",
                        choice.label()
                    )))
                }
                Err(e) => {
                    return Err(VerifyError::ReplayDiverged(format!(
                        "recorded Ok edge now errors: {e}"
                    )))
                }
            }
        }
        Ok(net)
    }

    /// The fixed choice enumeration order at `net`'s current state:
    /// fault-free first, then punch drops, WU drops, per-destination punch
    /// corruption, and bounded/unbounded stuck-off epochs for every
    /// currently-gated router. Fault choices are enabled only while budget
    /// remains. The order is part of the determinism contract — artifacts
    /// are byte-compared in CI.
    fn enabled_choices(&self, net: &Network, faults_used: u32) -> Vec<FaultChoice> {
        let mut v = vec![FaultChoice::None];
        if self.faulty && faults_used < self.max_faults {
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
                        duration: Some(self.stick_duration),
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

    /// Evaluates the three properties over the explored graph.
    fn evaluate(&self, states: &[StateRec], violations: &[Violation]) -> Vec<PropertyResult> {
        let routers = self.root.topology().nodes();
        // States with at least one violating edge: their trajectories end
        // in a *reported* watchdog event, so reverse-reachability passes
        // treat them as accounted-for rather than silently wedged.
        let mut reported = vec![false; states.len()];
        for v in violations {
            reported[v.state] = true;
        }
        let reverse = reverse_edges(states);

        vec![
            self.eval_no_lost_wakeup(states, violations, &reported, &reverse, routers),
            self.eval_no_deadlock(states, violations, &reported, &reverse),
            self.eval_bounded_stall(states, violations),
        ]
    }

    fn eval_no_lost_wakeup(
        &self,
        states: &[StateRec],
        violations: &[Violation],
        reported: &[bool],
        reverse: &[Vec<usize>],
        routers: usize,
    ) -> PropertyResult {
        if let Some(v) = violations
            .iter()
            .find(|v| v.kind == ViolationKind::LostWakeup)
        {
            return PropertyResult {
                name: PROP_NO_LOST_WAKEUP,
                proved: false,
                detail: v.detail.clone(),
                counterexample: Some(violation_trace(states, v)),
            };
        }
        // EF pass: every wu_pending(r) state must reach awake(r) or a
        // reported-violation state.
        for r in 0..routers {
            let bit = 1u32 << r;
            let good: Vec<usize> = (0..states.len())
                .filter(|&s| states[s].awake_mask & bit != 0 || reported[s])
                .collect();
            let can_reach = reach_backward(reverse, &good);
            if let Some(bad) =
                (0..states.len()).find(|&s| states[s].wu_mask & bit != 0 && !can_reach[s])
            {
                let detail =
                    format!("router {r}: WU pending in a state from which no path wakes it");
                return PropertyResult {
                    name: PROP_NO_LOST_WAKEUP,
                    proved: false,
                    detail: detail.clone(),
                    counterexample: Some(Counterexample {
                        choices: path_to(states, bad),
                        kind: ViolationKind::LostWakeup,
                        detail,
                        ends_in_error: false,
                    }),
                };
            }
        }
        PropertyResult {
            name: PROP_NO_LOST_WAKEUP,
            proved: true,
            detail: format!(
                "every pending WU handshake in {} reachable states can reach a wake",
                states.len()
            ),
            counterexample: None,
        }
    }

    fn eval_no_deadlock(
        &self,
        states: &[StateRec],
        violations: &[Violation],
        reported: &[bool],
        reverse: &[Vec<usize>],
    ) -> PropertyResult {
        let good: Vec<usize> = (0..states.len())
            .filter(|&s| states[s].terminal || reported[s])
            .collect();
        let resolved = reach_backward(reverse, &good);
        if let Some(stuck) = (0..states.len()).find(|&s| !resolved[s]) {
            let detail =
                "state from which neither delivery nor a watchdog report is reachable".to_string();
            return PropertyResult {
                name: PROP_NO_DEADLOCK,
                proved: false,
                detail: detail.clone(),
                counterexample: Some(Counterexample {
                    choices: path_to(states, stuck),
                    kind: ViolationKind::Deadlock,
                    detail,
                    ends_in_error: false,
                }),
            };
        }
        let via_report = violations.len();
        PropertyResult {
            name: PROP_NO_DEADLOCK,
            proved: true,
            detail: if via_report == 0 {
                format!(
                    "all {} reachable states can reach full delivery",
                    states.len()
                )
            } else {
                format!(
                    "all {} reachable states reach delivery or one of {via_report} reported stalls",
                    states.len()
                )
            },
            counterexample: None,
        }
    }

    fn eval_bounded_stall(&self, states: &[StateRec], violations: &[Violation]) -> PropertyResult {
        if let Some(v) = violations.iter().find(|v| {
            matches!(
                v.kind,
                ViolationKind::BoundedStall | ViolationKind::Invariant
            )
        }) {
            return PropertyResult {
                name: PROP_BOUNDED_STALL,
                proved: false,
                detail: v.detail.clone(),
                counterexample: Some(violation_trace(states, v)),
            };
        }
        let max = states.iter().map(|s| s.stall_age).max().unwrap_or(0);
        PropertyResult {
            name: PROP_BOUNDED_STALL,
            proved: true,
            detail: format!(
                "worst observed stall age {max} of bound {}",
                self.stall_bound
            ),
            counterexample: None,
        }
    }
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
    for (r, &streak) in net.blocked_streaks().iter().enumerate().take(32) {
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

/// Appends the spent-fault count to a canonical key so states reached with
/// different remaining budgets stay distinct in the index.
fn budgeted(mut key: Vec<u8>, faults_used: u32) -> Vec<u8> {
    key.extend_from_slice(&faults_used.to_le_bytes());
    key
}

/// Classifies a step error into a violation record.
fn classify(net: &Network, state: usize, choice: FaultChoice, e: &SimError) -> Violation {
    match e {
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
            Violation {
                state,
                choice,
                kind,
                detail: format!(
                    "stalled {} cycles with {} in flight ({} routers off)",
                    report.stalled_for,
                    report.in_flight_packets,
                    report.off_routers.len()
                ),
            }
        }
        other => Violation {
            state,
            choice,
            kind: ViolationKind::Invariant,
            detail: format!("{other}"),
        },
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

/// The full replayable trace of a violating edge: path to its source state
/// plus the violating choice itself.
fn violation_trace(states: &[StateRec], v: &Violation) -> Counterexample {
    let mut choices = path_to(states, v.state);
    choices.push(v.choice);
    Counterexample {
        choices,
        kind: v.kind,
        detail: v.detail.clone(),
        ends_in_error: true,
    }
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
