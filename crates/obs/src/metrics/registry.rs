//! The typed metric registry: monotonic counters, log-bucketed
//! histograms and per-router counter planes, with deterministic merge
//! and two exporters (Prometheus text, JSON snapshot).

use std::collections::BTreeMap;

use crate::json::Json;

use super::hist::LogHistogram;

/// A per-router counter grid (one `u64` per `(x, y)` cell) — the heatmap
/// shape behind per-router off-cycle, punch, WU and escalation planes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Plane {
    width: usize,
    height: usize,
    values: Vec<u64>,
}

impl Plane {
    /// A zeroed `width x height` plane.
    pub fn new(width: usize, height: usize) -> Self {
        Plane {
            width,
            height,
            values: vec![0; width * height],
        }
    }

    /// Grid width (columns / x).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (rows / y).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Cell value at `(x, y)` (0 outside the grid).
    pub fn get(&self, x: usize, y: usize) -> u64 {
        if x < self.width && y < self.height {
            self.values[y * self.width + x]
        } else {
            0
        }
    }

    /// Adds `delta` to cell `(x, y)`, growing the grid if needed.
    pub fn add(&mut self, x: usize, y: usize, delta: u64) {
        if x >= self.width || y >= self.height {
            self.grow(x + 1, y + 1);
        }
        self.values[y * self.width + x] += delta;
    }

    /// Copies a row-major `values` slice into the plane (cell-wise add).
    pub fn add_row_major(&mut self, width: usize, values: &[u64]) {
        for (i, &v) in values.iter().enumerate() {
            if v != 0 {
                self.add(i % width, i / width, v);
            }
        }
    }

    /// Cell-wise sum of `other` into `self`, growing to the maximum of
    /// the two extents — coordinate-aligned, so merge order never
    /// matters.
    pub fn merge(&mut self, other: &Plane) {
        for y in 0..other.height {
            for x in 0..other.width {
                let v = other.values[y * other.width + x];
                if v != 0 {
                    self.add(x, y, v);
                }
            }
        }
    }

    /// Sum over every cell.
    pub fn total(&self) -> u64 {
        self.values.iter().sum()
    }

    fn grow(&mut self, min_w: usize, min_h: usize) {
        let w = self.width.max(min_w);
        let h = self.height.max(min_h);
        if w == self.width && h == self.height {
            return;
        }
        let mut next = vec![0u64; w * h];
        for y in 0..self.height {
            let src = &self.values[y * self.width..(y + 1) * self.width];
            next[y * w..y * w + self.width].copy_from_slice(src);
        }
        self.width = w;
        self.height = h;
        self.values = next;
    }
}

/// The metric registry. Keys are full series names and may embed
/// Prometheus-style labels directly: `tick_phase_nanos{phase="soa_commit"}`.
/// The part before `{` is the metric *family*; all series of one family
/// must share one type. `BTreeMap` storage makes iteration — and
/// therefore merge, exposition and the JSON snapshot — deterministic.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, LogHistogram>,
    planes: BTreeMap<String, Plane>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty() && self.planes.is_empty()
    }

    /// Formats a series key with labels: `key_with("x", &[("a","1")])`
    /// is `x{a="1"}`.
    pub fn key_with(name: &str, labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return name.to_string();
        }
        let mut out = String::from(name);
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
        out
    }

    /// Adds `delta` to the monotonic counter `name`.
    pub fn inc(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Reads a counter back (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram `name`, creating it empty if absent.
    pub fn hist_mut(&mut self, name: &str) -> &mut LogHistogram {
        self.hists.entry(name.to_string()).or_default()
    }

    /// Reads a histogram back.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// The plane `name`, creating it zeroed at `width x height` if
    /// absent.
    pub fn plane_mut(&mut self, name: &str, width: usize, height: usize) -> &mut Plane {
        self.planes
            .entry(name.to_string())
            .or_insert_with(|| Plane::new(width, height))
    }

    /// Reads a plane back.
    pub fn plane(&self, name: &str) -> Option<&Plane> {
        self.planes.get(name)
    }

    /// Merges `other` into `self`: counters add, histograms merge
    /// elementwise, planes add cell-wise. Every constituent operation is
    /// commutative, and iteration order is the key order, so a fold over
    /// any permutation of worker registries produces identical state — the
    /// campaign runner still merges in spec order for good measure.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
        for (k, p) in &other.planes {
            self.planes.entry(k.clone()).or_default().merge(p);
        }
    }

    /// Prometheus text exposition: `# TYPE` per family, counters as
    /// single samples, histograms as cumulative
    /// `_bucket{le=...}` series (non-empty buckets plus `+Inf`) with
    /// `_sum`/`_count`, planes as one counter sample per non-zero cell
    /// labelled `x`/`y`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let mut type_line = |out: &mut String, key: &str, ty: &str| {
            let family = family_of(key).to_string();
            if family != last_family {
                out.push_str("# TYPE ");
                out.push_str(&family);
                out.push(' ');
                out.push_str(ty);
                out.push('\n');
                last_family = family;
            }
        };
        for (k, v) in &self.counters {
            type_line(&mut out, k, "counter");
            out.push_str(&format!("{k} {v}\n"));
        }
        for (k, h) in &self.hists {
            type_line(&mut out, k, "histogram");
            let (base, labels) = split_key(k);
            for (le, cum) in h.cumulative_buckets() {
                out.push_str(&bucket_line(base, labels, &le.to_string(), cum));
            }
            out.push_str(&bucket_line(base, labels, "+Inf", h.count()));
            if labels.is_empty() {
                out.push_str(&format!("{base}_sum {}\n", h.sum()));
                out.push_str(&format!("{base}_count {}\n", h.count()));
            } else {
                out.push_str(&format!("{base}_sum{{{labels}}} {}\n", h.sum()));
                out.push_str(&format!("{base}_count{{{labels}}} {}\n", h.count()));
            }
        }
        for (k, p) in &self.planes {
            type_line(&mut out, k, "counter");
            let (base, labels) = split_key(k);
            for y in 0..p.height() {
                for x in 0..p.width() {
                    let v = p.get(x, y);
                    if v == 0 {
                        continue;
                    }
                    let mut lbl = String::new();
                    if !labels.is_empty() {
                        lbl.push_str(labels);
                        lbl.push(',');
                    }
                    lbl.push_str(&format!("x=\"{x}\",y=\"{y}\""));
                    out.push_str(&format!("{base}{{{lbl}}} {v}\n"));
                }
            }
        }
        out
    }

    /// JSON snapshot of the whole registry — the object merged into the
    /// campaign `.timing.json` sidecar under `"metrics"`. Histograms
    /// carry exact count/sum/min/max, the three headline percentiles and
    /// the non-empty cumulative buckets; planes carry full row-major
    /// cell grids for heatmap rendering.
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        let mut counters = Json::obj();
        for (k, v) in &self.counters {
            counters.push(k, json_u64(*v));
        }
        root.push("counters", counters);
        let mut hists = Json::obj();
        for (k, h) in &self.hists {
            let mut o = Json::obj();
            o.push("count", json_u64(h.count()));
            o.push("sum", json_u128(h.sum()));
            o.push("min", json_u64(h.min()));
            o.push("max", json_u64(h.max()));
            o.push("p50", json_u64(h.percentile(0.50)));
            o.push("p95", json_u64(h.percentile(0.95)));
            o.push("p99", json_u64(h.percentile(0.99)));
            let mut buckets = Json::Arr(Vec::new());
            if let Json::Arr(arr) = &mut buckets {
                for (le, cum) in h.cumulative_buckets() {
                    arr.push(Json::Arr(vec![json_u64(le), json_u64(cum)]));
                }
            }
            o.push("buckets", buckets);
            hists.push(k, o);
        }
        root.push("histograms", hists);
        let mut planes = Json::obj();
        for (k, p) in &self.planes {
            let mut o = Json::obj();
            o.push("width", Json::Int(p.width() as i64));
            o.push("height", Json::Int(p.height() as i64));
            let mut cells = Vec::with_capacity(p.width() * p.height());
            for y in 0..p.height() {
                for x in 0..p.width() {
                    cells.push(json_u64(p.get(x, y)));
                }
            }
            o.push("values", Json::Arr(cells));
            planes.push(k, o);
        }
        root.push("planes", planes);
        root
    }
}

/// The metric family: the series name up to the first `{`.
pub(crate) fn family_of(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// Splits `name{a="1"}` into `("name", "a=\"1\"")`; bare names yield an
/// empty label string.
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) => (&key[..i], key[i + 1..].trim_end_matches('}')),
        None => (key, ""),
    }
}

fn bucket_line(base: &str, labels: &str, le: &str, cum: u64) -> String {
    if labels.is_empty() {
        format!("{base}_bucket{{le=\"{le}\"}} {cum}\n")
    } else {
        format!("{base}_bucket{{{labels},le=\"{le}\"}} {cum}\n")
    }
}

fn json_u64(v: u64) -> Json {
    match i64::try_from(v) {
        Ok(i) => Json::Int(i),
        Err(_) => Json::Float(v as f64),
    }
}

fn json_u128(v: u128) -> Json {
    match i64::try_from(v) {
        Ok(i) => Json::Int(i),
        Err(_) => Json::Float(v as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_grows_and_merges_by_coordinate() {
        let mut a = Plane::new(2, 2);
        a.add(0, 0, 5);
        a.add(3, 1, 7); // forces growth to 4x2
        assert_eq!(a.width(), 4);
        assert_eq!(a.get(0, 0), 5);
        assert_eq!(a.get(3, 1), 7);

        let mut b = Plane::new(2, 4);
        b.add(1, 3, 9);
        a.merge(&b);
        assert_eq!(a.width(), 4);
        assert_eq!(a.height(), 4);
        assert_eq!(a.get(1, 3), 9);
        assert_eq!(a.total(), 21);
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |seed: u64| {
            let mut r = Registry::new();
            r.inc("flits_total", seed);
            r.hist_mut("latency_cycles").record(seed * 10);
            r.hist_mut("latency_cycles").record(seed * 100);
            r.plane_mut("off_cycles", 2, 2).add(
                (seed % 2) as usize,
                ((seed / 2) % 2) as usize,
                seed,
            );
            r
        };
        let parts = [mk(1), mk(2), mk(3), mk(4)];
        let mut fwd = Registry::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Registry::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd.to_prometheus(), rev.to_prometheus());
        assert_eq!(fwd.to_json().render(), rev.to_json().render());
        assert_eq!(fwd.counter("flits_total"), 10);
        assert_eq!(fwd.hist("latency_cycles").unwrap().count(), 8);
        assert_eq!(fwd.plane("off_cycles").unwrap().total(), 10);
    }

    #[test]
    fn exposition_has_types_buckets_and_planes() {
        let mut r = Registry::new();
        r.inc("wu_assertions_total", 3);
        r.hist_mut("latency_cycles").record(7);
        r.hist_mut("latency_cycles").record(900);
        r.plane_mut("escalations", 2, 1).add(1, 0, 4);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE wu_assertions_total counter"));
        assert!(text.contains("# TYPE latency_cycles histogram"));
        assert!(text.contains("latency_cycles_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("latency_cycles_sum 907"));
        assert!(text.contains("latency_cycles_count 2"));
        assert!(text.contains("escalations{x=\"1\",y=\"0\"} 4"));
        crate::metrics::validate_exposition(&text).expect("self-parse");
    }

    #[test]
    fn labeled_keys_share_a_family() {
        let mut r = Registry::new();
        r.inc(
            &Registry::key_with("tick_phase_nanos", &[("phase", "host")]),
            5,
        );
        r.inc(
            &Registry::key_with("tick_phase_nanos", &[("phase", "soa_commit")]),
            7,
        );
        let text = r.to_prometheus();
        assert_eq!(text.matches("# TYPE tick_phase_nanos counter").count(), 1);
        assert!(text.contains("tick_phase_nanos{phase=\"host\"} 5"));
        assert!(text.contains("tick_phase_nanos{phase=\"soa_commit\"} 7"));
    }
}
