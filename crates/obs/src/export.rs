//! Exporters: render a captured event stream as JSONL or Chrome
//! trace-event JSON.
//!
//! * **JSONL** — one compact JSON object per line: the cycle stamp, the
//!   event kind and every payload field of a [`Stamped`] event.
//! * **Chrome trace-event JSON** — loadable in `chrome://tracing` or
//!   Perfetto: one named track per router carrying its `off`/`waking`
//!   duration slices, instants for WU assertions / escalations / faults,
//!   and flow arrows from each punch emission to its delivery at the
//!   targeted router. Events are emitted sorted by timestamp, so viewers
//!   that require monotonic streams load the file directly.

use crate::event::{Event, PowerTag, Stamped};
use crate::json::Json;
use std::collections::HashMap;

/// Renders events as JSON Lines, one compact object per event.
pub fn to_jsonl(events: &[Stamped]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json().render_compact());
        out.push('\n');
    }
    out
}

/// The synthetic track (`tid`) carrying network-wide events (stalls) in a
/// Chrome trace, placed after every router track.
fn net_tid(max_router: u16) -> i64 {
    max_router as i64 + 1
}

/// Renders events as Chrome trace-event JSON (the `{"traceEvents": [...]}`
/// object form), sorted by timestamp.
///
/// Mapping: one cycle = 1µs of trace time; `pid` 0 is the mesh; each
/// router is a named thread (`tid` = router index) whose `off`/`waking`
/// phases become duration (`X`) slices. Punch emissions start flow arrows
/// (`s`) that finish (`f`) at the targeted router's delivery; WU
/// assertions, force-wakes, slack firings and faults are instants on their
/// router's track.
pub fn chrome_trace(events: &[Stamped]) -> String {
    // (ts, seq, record): sort by ts, stable in original order within a tie.
    let mut rows: Vec<(u64, usize, Json)> = Vec::new();
    let mut seq = 0usize;
    let mut push = |rows: &mut Vec<(u64, usize, Json)>, ts: u64, v: Json| {
        rows.push((ts, seq, v));
        seq += 1;
    };

    let max_router = events
        .iter()
        .filter_map(|e| e.event.subject())
        .map(|n| n.0)
        .max()
        .unwrap_or(0);
    let end_ts = events.last().map(|e| e.cycle).unwrap_or(0);

    // Track metadata: name every router thread plus the network track.
    for tid in 0..=max_router as i64 {
        push(&mut rows, 0, meta_thread(tid, &format!("R{tid}")));
    }
    push(&mut rows, 0, meta_thread(net_tid(max_router), "network"));

    // Per-router power phase being drawn: (tag, since).
    let mut open: HashMap<u16, (PowerTag, u64)> = HashMap::new();
    // Punch flows awaiting delivery at their target: target -> flow ids.
    let mut pending: HashMap<u16, Vec<i64>> = HashMap::new();
    let mut next_flow: i64 = 1;

    for e in events {
        let ts = e.cycle;
        match e.event {
            Event::Power { router, from, to } => {
                if let Some((tag, since)) = open.remove(&router.0) {
                    debug_assert_eq!(tag, from, "power track out of sync");
                    push(
                        &mut rows,
                        since,
                        slice(tag.label(), "power", since, ts, router.0),
                    );
                }
                if to != PowerTag::On {
                    open.insert(router.0, (to, ts));
                }
            }
            Event::PunchEmit { router, target, .. } => {
                let id = next_flow;
                next_flow += 1;
                pending.entry(target.0).or_default().push(id);
                push(
                    &mut rows,
                    ts,
                    slice("punch-emit", "punch", ts, ts + 1, router.0),
                );
                push(&mut rows, ts, flow("s", id, ts, router.0));
            }
            Event::PunchDeliver { router } => {
                if let Some(id) = pending.get_mut(&router.0).and_then(|q| {
                    if q.is_empty() {
                        None
                    } else {
                        Some(q.remove(0))
                    }
                }) {
                    push(
                        &mut rows,
                        ts,
                        slice("punch-arrive", "punch", ts, ts + 1, router.0),
                    );
                    push(&mut rows, ts, flow("f", id, ts, router.0));
                } else {
                    push(
                        &mut rows,
                        ts,
                        instant("punch-notify", "punch", ts, router.0 as i64),
                    );
                }
            }
            Event::Stall { .. } => {
                push(
                    &mut rows,
                    ts,
                    instant("stall", "watchdog", ts, net_tid(max_router)),
                );
            }
            ref ev => {
                let tid = ev
                    .subject()
                    .map(|n| n.0 as i64)
                    .unwrap_or(net_tid(max_router));
                push(&mut rows, ts, instant(ev.kind(), category(ev), ts, tid));
            }
        }
    }

    // Close power phases still open when the capture ended.
    for (router, (tag, since)) in open {
        let end = end_ts.max(since + 1);
        push(
            &mut rows,
            since,
            slice(tag.label(), "power", since, end, router),
        );
    }

    rows.sort_by_key(|(ts, seq, _)| (*ts, *seq));
    let mut doc = Json::obj();
    doc.push(
        "traceEvents",
        Json::Arr(rows.into_iter().map(|(_, _, v)| v).collect()),
    );
    doc.push("displayTimeUnit", Json::Str("ms".to_string()));
    doc.render()
}

fn category(ev: &Event) -> &'static str {
    match ev {
        Event::Power { .. } | Event::BetEpoch { .. } => "power",
        Event::PunchEmit { .. } | Event::PunchDeliver { .. } => "punch",
        Event::WuAssert { .. } | Event::ForceWake { .. } | Event::Stall { .. } => "watchdog",
        Event::Slack1 { .. } | Event::Slack2 { .. } | Event::NiReady { .. } => "ni",
        Event::Inject { .. } | Event::Deliver { .. } => "packet",
        Event::Fault { .. } => "fault",
    }
}

fn base(name: &str, cat: &str, ph: &str, ts: u64, tid: i64) -> Json {
    let mut o = Json::obj();
    o.push("name", Json::Str(name.to_string()));
    o.push("cat", Json::Str(cat.to_string()));
    o.push("ph", Json::Str(ph.to_string()));
    o.push("ts", Json::Int(ts as i64));
    o.push("pid", Json::Int(0));
    o.push("tid", Json::Int(tid));
    o
}

fn meta_thread(tid: i64, name: &str) -> Json {
    let mut o = base("thread_name", "__metadata", "M", 0, tid);
    let mut args = Json::obj();
    args.push("name", Json::Str(name.to_string()));
    o.push("args", args);
    o
}

fn slice(name: &str, cat: &str, start: u64, end: u64, router: u16) -> Json {
    let mut o = base(name, cat, "X", start, router as i64);
    o.push("dur", Json::Int((end - start) as i64));
    o
}

fn instant(name: &str, cat: &str, ts: u64, tid: i64) -> Json {
    let mut o = base(name, cat, "i", ts, tid);
    o.push("s", Json::Str("t".to_string()));
    o
}

fn flow(ph: &str, id: i64, ts: u64, router: u16) -> Json {
    let mut o = base("punch", "punch", ph, ts, router as i64);
    o.push("id", Json::Int(id));
    if ph == "f" {
        o.push("bp", Json::Str("e".to_string()));
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultKind;
    use punchsim_types::NodeId;

    fn demo_events() -> Vec<Stamped> {
        let r = |n: u16| NodeId(n);
        vec![
            Stamped {
                cycle: 0,
                event: Event::Power {
                    router: r(5),
                    from: PowerTag::On,
                    to: PowerTag::Off,
                },
            },
            Stamped {
                cycle: 3,
                event: Event::Slack1 {
                    node: r(26),
                    dst: r(31),
                },
            },
            Stamped {
                cycle: 4,
                event: Event::PunchEmit {
                    router: r(26),
                    dst: r(31),
                    target: r(29),
                },
            },
            Stamped {
                cycle: 7,
                event: Event::PunchDeliver { router: r(29) },
            },
            Stamped {
                cycle: 8,
                event: Event::Power {
                    router: r(5),
                    from: PowerTag::Off,
                    to: PowerTag::Waking,
                },
            },
            Stamped {
                cycle: 8,
                event: Event::BetEpoch {
                    router: r(5),
                    off_cycles: 8,
                },
            },
            Stamped {
                cycle: 10,
                event: Event::WuAssert { router: r(9) },
            },
            Stamped {
                cycle: 12,
                event: Event::Fault {
                    kind: FaultKind::WuDropped,
                    router: r(9),
                },
            },
            Stamped {
                cycle: 16,
                event: Event::Power {
                    router: r(5),
                    from: PowerTag::Waking,
                    to: PowerTag::On,
                },
            },
            Stamped {
                cycle: 20,
                event: Event::ForceWake { router: r(9) },
            },
            Stamped {
                cycle: 25,
                event: Event::Stall {
                    stalled_for: 10,
                    in_flight: 2,
                },
            },
        ]
    }

    #[test]
    fn jsonl_is_one_parseable_object_per_event() {
        let events = demo_events();
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        for (line, e) in text.lines().zip(&events) {
            assert_eq!(Json::parse(line).expect("valid JSON"), e.to_json());
        }
    }

    /// Satellite: the Chrome trace export is valid JSON and its event
    /// timestamps are monotonically non-decreasing.
    #[test]
    fn chrome_trace_is_valid_json_with_monotonic_timestamps() {
        let text = chrome_trace(&demo_events());
        let doc = Json::parse(&text).expect("valid JSON");
        let evs = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!evs.is_empty());
        let mut last = 0i64;
        for e in evs {
            let ts = e
                .get("ts")
                .and_then(Json::as_f64)
                .expect("every record has ts") as i64;
            assert!(ts >= last, "timestamps regressed: {ts} after {last}");
            last = ts;
            for key in ["name", "ph", "pid", "tid"] {
                assert!(e.get(key).is_some(), "record missing {key}");
            }
        }
    }

    #[test]
    fn chrome_trace_draws_power_slices_and_punch_flows() {
        let text = chrome_trace(&demo_events());
        let doc = Json::parse(&text).unwrap();
        let evs = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let phases: Vec<&str> = evs
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        // Power off/waking phases became duration slices...
        let slices: Vec<&Json> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert!(slices
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("off")));
        assert!(slices
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("waking")));
        // ...the punch emission opened a flow that finished at the target...
        assert!(phases.contains(&"s"));
        assert!(phases.contains(&"f"));
        // ...and each router got a named track.
        assert!(evs.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("R5")
        }));
    }

    #[test]
    fn chrome_trace_closes_open_power_slices_at_capture_end() {
        // A router still off when the capture ends must not lose its slice.
        let events = vec![Stamped {
            cycle: 2,
            event: Event::Power {
                router: NodeId(1),
                from: PowerTag::On,
                to: PowerTag::Off,
            },
        }];
        let text = chrome_trace(&events);
        let doc = Json::parse(&text).unwrap();
        let evs = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(evs.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("name").and_then(Json::as_str) == Some("off")
        }));
    }

    #[test]
    fn empty_capture_still_renders_a_loadable_document() {
        let text = chrome_trace(&[]);
        let doc = Json::parse(&text).expect("valid JSON");
        assert!(doc.get("traceEvents").is_some());
    }
}
