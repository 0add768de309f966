//! Enumerable fault choices for exhaustive protocol verification.
//!
//! `punchsim_core::faults::FaultInjector` has two decision sources. The seeded
//! one samples perturbations from an RNG stream — right for soak testing,
//! useless for model checking, where every transition out of a state must
//! be *enumerable* and *deterministic*. A [`FaultChoice`] names one
//! adversarial perturbation applied to exactly one cycle of the
//! power-gating sideband: the model checker treats each choice as one
//! outgoing edge of the current state, and the injector's scripted source
//! (`FaultInjector::scripted`) applies the choice armed for each cycle, so
//! a recorded sequence of choices replays a counterexample. Both sources
//! drive the same effect code, so what the checker proves is proved about
//! the fault layer every sampled run executes.
//!
//! The alphabet mirrors the PR 1 fault model minus wakeup jitter: jitter
//! queues events for unbounded future cycles, which would make the rebased
//! state encoding unbounded, and its effects (late punches) are already
//! subsumed by [`FaultChoice::DropPunch`] followed by fault-free cycles.

use crate::{Cycle, NodeId};

/// One adversarial perturbation of a single simulation cycle.
///
/// Granularity is per cycle, not per event: a choice applies to *every*
/// matching sideband event of the cycle it is armed for. This keeps the
/// branching factor of the model checker linear in the alphabet rather than
/// exponential in the per-cycle event count, and is conservative — the
/// adversary is strictly stronger than one that picks single events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultChoice {
    /// Fault-free cycle: every sideband event is delivered untouched.
    #[default]
    None,
    /// Every punch-carrying event of this cycle (head arrivals, slack-1,
    /// slack-2, NI-ready) vanishes in transit.
    DropPunch,
    /// Every punch-carrying event of this cycle decodes to the *different
    /// valid* destination `dst` — the wrong-codeword model.
    CorruptPunch {
        /// The destination the corrupted codewords decode to.
        dst: NodeId,
    },
    /// Every conventional WU assertion (level signal) of this cycle is lost.
    DropWu,
    /// `router`'s sleep gate wedges: it is masked to `Off` and ignores WU
    /// assertions until the epoch expires or the watchdog force-wakes it.
    StickOff {
        /// The router whose gate sticks (must currently be off — a powered
        /// router cannot be stuck off).
        router: NodeId,
        /// Self-expiry after this many cycles; `None` sticks until a
        /// force-wake clears it (the worst case the escalation path must
        /// recover from).
        duration: Option<Cycle>,
    },
}

impl FaultChoice {
    /// `true` for the fault-free choice.
    pub fn is_none(self) -> bool {
        matches!(self, FaultChoice::None)
    }

    /// Stable compact label used in `VERIFY_*.json` artifacts and
    /// counterexample listings (e.g. `none`, `drop-punch`,
    /// `corrupt-punch:3`, `stick-off:2:16`, `stick-off:2:forever`).
    pub fn label(self) -> String {
        match self {
            FaultChoice::None => "none".to_string(),
            FaultChoice::DropPunch => "drop-punch".to_string(),
            FaultChoice::CorruptPunch { dst } => format!("corrupt-punch:{}", dst.0),
            FaultChoice::DropWu => "drop-wu".to_string(),
            FaultChoice::StickOff { router, duration } => match duration {
                Some(d) => format!("stick-off:{}:{d}", router.0),
                None => format!("stick-off:{}:forever", router.0),
            },
        }
    }
}

impl std::fmt::Display for FaultChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let choices = [
            FaultChoice::None,
            FaultChoice::DropPunch,
            FaultChoice::CorruptPunch { dst: NodeId(3) },
            FaultChoice::DropWu,
            FaultChoice::StickOff {
                router: NodeId(2),
                duration: Some(16),
            },
            FaultChoice::StickOff {
                router: NodeId(2),
                duration: None,
            },
        ];
        let labels: Vec<String> = choices.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            [
                "none",
                "drop-punch",
                "corrupt-punch:3",
                "drop-wu",
                "stick-off:2:16",
                "stick-off:2:forever",
            ]
        );
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn default_is_fault_free() {
        assert!(FaultChoice::default().is_none());
        assert!(!FaultChoice::DropWu.is_none());
    }
}
