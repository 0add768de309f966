//! The cycle-stamped event vocabulary of the observability layer.
//!
//! Every observable incident in a simulation — a router changing power
//! state, a punch signal being emitted or delivered, a conventional WU
//! assertion, an NI slack firing, a watchdog escalation — is one [`Event`]
//! value. Events are deliberately small (`Copy`, all-integer payloads) so
//! that recording one into a sink is a handful of word moves and the
//! disabled path stays free of allocation.
//!
//! The taxonomy follows the paper's timeline of a non-blocking wakeup
//! (§4.1–4.2): slack-1/slack-2 firings at the NI, punch emission and
//! sideband delivery, the conventional WU handshake as the safety net, and
//! the watchdog's force-wake escalation backstopping everything.

use crate::json::Json;
use punchsim_types::{Cycle, NodeId};

/// A power state label, mirroring `punchsim_noc::PowerState` without its
/// embedded `ready_at` cycle (the transition's own timestamp carries that).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PowerTag {
    /// Fully powered and operational.
    On,
    /// Power-gated.
    Off,
    /// In the wakeup transient.
    Waking,
}

impl PowerTag {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            PowerTag::On => "on",
            PowerTag::Off => "off",
            PowerTag::Waking => "waking",
        }
    }
}

impl std::fmt::Display for PowerTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What kind of sideband perturbation a [`Event::Fault`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A punch generation was silently dropped.
    PunchDropped,
    /// A punch codeword was corrupted to a different valid target set.
    PunchCorrupted,
    /// A conventional wakeup assertion was swallowed (stuck router).
    WuDropped,
    /// A stuck-off epoch armed on a router.
    StuckEpoch,
}

impl FaultKind {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::PunchDropped => "punch-dropped",
            FaultKind::PunchCorrupted => "punch-corrupted",
            FaultKind::WuDropped => "wu-dropped",
            FaultKind::StuckEpoch => "stuck-epoch",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One observable incident in a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A router's power state changed.
    Power {
        /// The router that transitioned.
        router: NodeId,
        /// State before the transition.
        from: PowerTag,
        /// State after the transition.
        to: PowerTag,
    },
    /// A power-gated epoch ended (the router left `Off`); `off_cycles` is
    /// its length, to be judged against the break-even time.
    BetEpoch {
        /// The router whose off-epoch ended.
        router: NodeId,
        /// How many cycles the router spent gated.
        off_cycles: u64,
    },
    /// A punch signal was generated at `router` for a packet heading to
    /// `dst`, targeting the router `min(H, remaining hops)` ahead.
    PunchEmit {
        /// Where the punch was generated.
        router: NodeId,
        /// The packet's final destination.
        dst: NodeId,
        /// The punched router (H hops ahead on the XY path).
        target: NodeId,
    },
    /// The sideband fabric notified `router` (punch arrival or en-route
    /// sweep) — the router must wake or stay awake.
    PunchDeliver {
        /// The notified router.
        router: NodeId,
    },
    /// A blocked flit asserted the conventional WU handshake toward a
    /// powered-off router (the paper's safety net).
    WuAssert {
        /// The router being woken.
        router: NodeId,
    },
    /// Slack-1: the NI learned a message's destination at enqueue time.
    Slack1 {
        /// The injecting node.
        node: NodeId,
        /// The message destination.
        dst: NodeId,
    },
    /// Slack-2: a future injection became known `slack2_cycles` ahead.
    Slack2 {
        /// The node that will inject.
        node: NodeId,
    },
    /// The NI is ready to inject the head flit this cycle.
    NiReady {
        /// The injecting node.
        node: NodeId,
        /// The message destination.
        dst: NodeId,
    },
    /// A packet entered the network at its source NI.
    Inject {
        /// Packet id.
        packet: u64,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// A packet fully ejected at its destination.
    Deliver {
        /// Packet id.
        packet: u64,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// End-to-end latency in cycles (enqueue to tail ejection).
        latency: u64,
    },
    /// The watchdog force-woke a router after a blocked-packet streak.
    ForceWake {
        /// The escalated router.
        router: NodeId,
    },
    /// The watchdog declared a no-forward-progress stall.
    Stall {
        /// Consecutive cycles without progress.
        stalled_for: u64,
        /// Packets in flight at detection.
        in_flight: u64,
    },
    /// The fault injector perturbed the sideband machinery.
    Fault {
        /// What was perturbed.
        kind: FaultKind,
        /// The router the perturbation applied to.
        router: NodeId,
    },
}

impl Event {
    /// Stable kebab-case discriminant label used by every exporter.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Power { .. } => "power",
            Event::BetEpoch { .. } => "bet-epoch",
            Event::PunchEmit { .. } => "punch-emit",
            Event::PunchDeliver { .. } => "punch-deliver",
            Event::WuAssert { .. } => "wu-assert",
            Event::Slack1 { .. } => "slack1",
            Event::Slack2 { .. } => "slack2",
            Event::NiReady { .. } => "ni-ready",
            Event::Inject { .. } => "inject",
            Event::Deliver { .. } => "deliver",
            Event::ForceWake { .. } => "force-wake",
            Event::Stall { .. } => "stall",
            Event::Fault { .. } => "fault",
        }
    }

    /// The router/node the event is principally about, when there is one
    /// (exporters use it to pick a per-router track).
    pub fn subject(&self) -> Option<NodeId> {
        match self {
            Event::Power { router, .. }
            | Event::BetEpoch { router, .. }
            | Event::PunchEmit { router, .. }
            | Event::PunchDeliver { router }
            | Event::WuAssert { router }
            | Event::ForceWake { router }
            | Event::Fault { router, .. } => Some(*router),
            Event::Slack1 { node, .. } | Event::Slack2 { node } | Event::NiReady { node, .. } => {
                Some(*node)
            }
            Event::Inject { src, .. } => Some(*src),
            Event::Deliver { dst, .. } => Some(*dst),
            Event::Stall { .. } => None,
        }
    }

    /// Serializes into a JSON object (without the cycle stamp; see
    /// [`Stamped::to_json`]).
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("kind", Json::Str(self.kind().to_string()));
        match *self {
            Event::Power { router, from, to } => {
                o.push("router", Json::Int(router.0 as i64));
                o.push("from", Json::Str(from.label().to_string()));
                o.push("to", Json::Str(to.label().to_string()));
            }
            Event::BetEpoch { router, off_cycles } => {
                o.push("router", Json::Int(router.0 as i64));
                o.push("off_cycles", Json::Int(off_cycles as i64));
            }
            Event::PunchEmit {
                router,
                dst,
                target,
            } => {
                o.push("router", Json::Int(router.0 as i64));
                o.push("dst", Json::Int(dst.0 as i64));
                o.push("target", Json::Int(target.0 as i64));
            }
            Event::PunchDeliver { router } | Event::WuAssert { router } => {
                o.push("router", Json::Int(router.0 as i64));
            }
            Event::Slack1 { node, dst } | Event::NiReady { node, dst } => {
                o.push("node", Json::Int(node.0 as i64));
                o.push("dst", Json::Int(dst.0 as i64));
            }
            Event::Slack2 { node } => {
                o.push("node", Json::Int(node.0 as i64));
            }
            Event::Inject { packet, src, dst } => {
                o.push("packet", Json::Int(packet as i64));
                o.push("src", Json::Int(src.0 as i64));
                o.push("dst", Json::Int(dst.0 as i64));
            }
            Event::Deliver {
                packet,
                src,
                dst,
                latency,
            } => {
                o.push("packet", Json::Int(packet as i64));
                o.push("src", Json::Int(src.0 as i64));
                o.push("dst", Json::Int(dst.0 as i64));
                o.push("latency", Json::Int(latency as i64));
            }
            Event::ForceWake { router } => {
                o.push("router", Json::Int(router.0 as i64));
            }
            Event::Stall {
                stalled_for,
                in_flight,
            } => {
                o.push("stalled_for", Json::Int(stalled_for as i64));
                o.push("in_flight", Json::Int(in_flight as i64));
            }
            Event::Fault { kind, router } => {
                o.push("fault", Json::Str(kind.label().to_string()));
                o.push("router", Json::Int(router.0 as i64));
            }
        }
        o
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Event::Power { router, from, to } => write!(f, "{router} {from} -> {to}"),
            Event::BetEpoch { router, off_cycles } => {
                write!(f, "{router} off-epoch ended after {off_cycles} cycles")
            }
            Event::PunchEmit {
                router,
                dst,
                target,
            } => write!(f, "punch at {router} for dst {dst} targets {target}"),
            Event::PunchDeliver { router } => write!(f, "punch notifies {router}"),
            Event::WuAssert { router } => write!(f, "WU asserted toward {router}"),
            Event::Slack1 { node, dst } => write!(f, "slack-1 at {node} for dst {dst}"),
            Event::Slack2 { node } => write!(f, "slack-2 forewarning at {node}"),
            Event::NiReady { node, dst } => write!(f, "NI {node} ready to inject to {dst}"),
            Event::Inject { packet, src, dst } => {
                write!(f, "P{packet} injected {src} -> {dst}")
            }
            Event::Deliver {
                packet,
                src,
                dst,
                latency,
            } => write!(f, "P{packet} delivered {src} -> {dst} in {latency} cycles"),
            Event::ForceWake { router } => write!(f, "watchdog force-wakes {router}"),
            Event::Stall {
                stalled_for,
                in_flight,
            } => write!(
                f,
                "stall declared: {stalled_for} idle cycles with {in_flight} packets in flight"
            ),
            Event::Fault { kind, router } => write!(f, "fault {kind} at {router}"),
        }
    }
}

/// An [`Event`] with the cycle it happened on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped {
    /// Cycle of occurrence.
    pub cycle: Cycle,
    /// What happened.
    pub event: Event,
}

impl Stamped {
    /// Serializes into a JSON object with a leading `"cycle"` member.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("cycle", Json::Int(self.cycle as i64));
        if let Json::Obj(pairs) = self.event.to_json() {
            if let Json::Obj(out) = &mut o {
                out.extend(pairs);
            }
        }
        o
    }
}

impl std::fmt::Display for Stamped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.cycle, self.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_of_each() -> Vec<Event> {
        vec![
            Event::Power {
                router: NodeId(5),
                from: PowerTag::Off,
                to: PowerTag::Waking,
            },
            Event::BetEpoch {
                router: NodeId(5),
                off_cycles: 42,
            },
            Event::PunchEmit {
                router: NodeId(26),
                dst: NodeId(31),
                target: NodeId(29),
            },
            Event::PunchDeliver { router: NodeId(27) },
            Event::WuAssert { router: NodeId(9) },
            Event::Slack1 {
                node: NodeId(0),
                dst: NodeId(63),
            },
            Event::Slack2 { node: NodeId(1) },
            Event::NiReady {
                node: NodeId(2),
                dst: NodeId(3),
            },
            Event::Inject {
                packet: 17,
                src: NodeId(0),
                dst: NodeId(63),
            },
            Event::Deliver {
                packet: 17,
                src: NodeId(0),
                dst: NodeId(63),
                latency: 58,
            },
            Event::ForceWake { router: NodeId(5) },
            Event::Stall {
                stalled_for: 10_000,
                in_flight: 3,
            },
            Event::Fault {
                kind: FaultKind::WuDropped,
                router: NodeId(5),
            },
        ]
    }

    #[test]
    fn every_variant_renders_its_stamp_kind_and_subject() {
        for (i, ev) in one_of_each().into_iter().enumerate() {
            let s = Stamped {
                cycle: 100 + i as u64,
                event: ev,
            };
            let v = s.to_json();
            assert_eq!(v.get("cycle").and_then(Json::as_u64), Some(s.cycle));
            assert_eq!(v.get("kind").and_then(Json::as_str), Some(ev.kind()));
            if let Some(n) = ev.subject() {
                let named = ["router", "node", "src", "dst"]
                    .iter()
                    .any(|k| v.get(k).and_then(Json::as_u64) == Some(n.0.into()));
                assert!(named, "{ev:?} renders without its subject");
            }
        }
    }

    #[test]
    fn display_is_informative_and_comma_free() {
        // Event rendering is one line without commas, so it drops into a
        // log line or a table cell unquoted.
        for ev in one_of_each() {
            let s = ev.to_string();
            assert!(!s.contains(','), "{s}");
            assert!(!s.contains('\n'), "{s}");
            assert!(!s.is_empty());
        }
    }
}
