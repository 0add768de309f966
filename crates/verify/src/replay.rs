//! Counterexample replay: lowers a checker trace back into a live
//! simulation with an event sink attached, so the exact violating run can
//! be exported through the standard JSONL / Chrome-trace pipelines and
//! inspected in Perfetto.

use punchsim_noc::obs::{chrome_trace, to_jsonl, RingSink, Stamped};
use punchsim_types::SimError;

use crate::checker::{advance, Counterexample, VerifyError};
use crate::scenario::{build_network, VerifyConfig};

/// The replayed event stream of one counterexample.
#[derive(Debug)]
pub struct Replay {
    /// Every event recorded from injection through the violating cycle.
    pub events: Vec<Stamped>,
    /// The error the final tick produced, when the trace ends in one.
    pub error: Option<SimError>,
}

impl Replay {
    /// The events as JSON-lines, one event per line.
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.events)
    }

    /// The events as a Chrome trace (Perfetto-loadable) JSON document.
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace(&self.events)
    }
}

/// Rebuilds `cfg`'s scenario with a recording sink and replays `ce`'s
/// choices cycle by cycle, over the same edge the checker steps, capturing
/// the violating error if the trace ends in one.
///
/// # Errors
///
/// Returns scenario-construction errors, and
/// [`VerifyError::ReplayDiverged`] for a choice the replayed manager does
/// not honour. Replay `tick` errors are the expected outcome and are
/// captured in [`Replay::error`], not returned.
pub fn replay(cfg: &VerifyConfig, ce: &Counterexample) -> Result<Replay, VerifyError> {
    let mut net = build_network(cfg, Some(Box::new(RingSink::new(usize::MAX))))?;
    let error = advance(&mut net, &ce.choices)?;
    let events = net.take_sink().map(|s| s.into_vec()).unwrap_or_default();
    Ok(Replay { events, error })
}
