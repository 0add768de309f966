//! In-memory spans around the harness's calls into each layer.
//!
//! A disabled tracer records nothing and `span` just runs its closure, so
//! timed repetitions and traced repetitions share one code path.

use std::collections::BTreeMap;
use std::time::Instant;

use punchsim::campaign::Json;

/// One recorded interval. `parent` is the span that caused it; spans of
/// one repetition share `rep`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub rep: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (profiler phase nanos and mark
    /// counts on `measure`, packets, cycles, ...).
    pub counts: Vec<(String, u64)>,
}

/// Span recorder. Spans nest by call order: `open` makes the innermost
/// open span the parent.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans opened from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, layer: &'static str, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            rep: self.rep,
            layer,
            name,
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self.open.pop().expect("close without open");
        self.spans[id as usize].end_ns = now;
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, key: &str, value: u64) {
        if let Some(&id) = self.open.last() {
            self.spans[id as usize]
                .counts
                .push((key.to_string(), value));
        }
    }

    /// Runs `f` inside a leaf span; also returns its duration in seconds
    /// (measured whether or not the tracer records).
    pub fn timed<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        self.open(layer, name);
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        self.close();
        (out, secs)
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(layer, name, f).0
    }

    /// Durations in nanoseconds of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time per span: its duration minus the part its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self time summed per layer, in nanoseconds.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut by_layer = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *by_layer.entry(s.layer).or_insert(0) += own;
        }
        by_layer
    }

    /// Share of the root (`rep`) spans' total duration that span self
    /// times account for; 1.0 when every child nests inside its parent.
    pub fn self_time_coverage(&self) -> f64 {
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        if roots == 0 {
            return 0.0;
        }
        self.self_ns().iter().sum::<u64>() as f64 / roots as f64
    }

    /// The trace document written to `trace_<workload>.json`. `layer_ns`
    /// is the per-layer table: [`Tracer::layer_self_ns`], with the
    /// measured chunks split further by whoever can see inside them.
    pub fn to_json(
        &self,
        workload: &str,
        seed: u64,
        layer_ns: &BTreeMap<&'static str, u64>,
    ) -> Json {
        let own = self.self_ns();
        let spans = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, own)| {
                let mut o = Json::obj();
                o.push("id", Json::Int(s.id as i64));
                o.push(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                );
                o.push("rep", Json::Int(s.rep as i64));
                o.push("layer", Json::Str(s.layer.to_string()));
                o.push("name", Json::Str(s.name.to_string()));
                o.push("start_ns", Json::Int(s.start_ns as i64));
                o.push("end_ns", Json::Int(s.end_ns as i64));
                o.push("self_ns", Json::Int(own as i64));
                if !s.counts.is_empty() {
                    let mut c = Json::obj();
                    for (k, v) in &s.counts {
                        c.push(k, Json::Int(*v as i64));
                    }
                    o.push("counts", c);
                }
                o
            })
            .collect();
        let mut layers = Json::obj();
        for (layer, ns) in layer_ns {
            layers.push(layer, Json::Int(*ns as i64));
        }
        let mut doc = Json::obj();
        doc.push("schema", Json::Str("punchsim-perf-trace/v1".to_string()));
        doc.push("workload", Json::Str(workload.to_string()));
        doc.push("seed", Json::Int(seed as i64));
        doc.push("self_time_coverage", Json::Float(self.self_time_coverage()));
        doc.push("layer_ns", layers);
        doc.push("spans", Json::Arr(spans));
        doc
    }
}
