//! A strict-enough parser for the Prometheus text exposition format,
//! used by the `metrics` row of `scripts/identity_gate.sh` (via the CLI)
//! and by the registry's own tests to prove that everything the exporter
//! emits is well-formed:
//! every sample line parses, histogram `_bucket` series are cumulative
//! and monotone in `le`, and every histogram ends with a `+Inf` bucket
//! matching its `_count`.

use std::collections::BTreeMap;

/// Summary of a validated exposition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpoStats {
    /// Number of sample lines (excluding `#` comments).
    pub samples: usize,
    /// Number of `# TYPE` declarations.
    pub families: usize,
    /// Number of histogram families checked for bucket monotonicity.
    pub histograms: usize,
}

/// Validates Prometheus text exposition. Returns summary statistics or
/// the first violation found (with its line number).
pub fn validate_exposition(text: &str) -> Result<ExpoStats, String> {
    let mut stats = ExpoStats::default();
    // (family+labels-without-le) -> [(le, cumulative)] in emission order.
    let mut buckets: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();

    for (no, line) in text.lines().enumerate() {
        let no = no + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if rest.trim_start().starts_with("TYPE ") {
                stats.families += 1;
            }
            continue;
        }
        let (series, value) = split_sample(line)
            .ok_or_else(|| format!("line {no}: not `name[{{labels}}] value`: {line:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {no}: bad value {value:?}"))?;
        stats.samples += 1;

        let (name, labels) = split_series(series)
            .ok_or_else(|| format!("line {no}: malformed labels in {series:?}"))?;
        if let Some(base) = name.strip_suffix("_bucket") {
            let (le, rest) =
                take_le(&labels).ok_or_else(|| format!("line {no}: _bucket without le label"))?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>()
                    .map_err(|_| format!("line {no}: bad le {le:?}"))?
            };
            if value < 0.0 || value.fract() != 0.0 {
                return Err(format!("line {no}: bucket count {value} not a count"));
            }
            buckets
                .entry(format!("{base}|{rest}"))
                .or_default()
                .push((le, value as u64));
        } else if let Some(base) = name.strip_suffix("_count") {
            let rest = labels.join(",");
            counts.insert(format!("{base}|{rest}"), value as u64);
        }
    }

    for (key, series) in &buckets {
        stats.histograms += 1;
        for w in series.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!("histogram {key}: le not increasing"));
            }
            if w[1].1 < w[0].1 {
                return Err(format!("histogram {key}: cumulative count decreased"));
            }
        }
        let Some(&(last_le, last_cum)) = series.last() else {
            continue;
        };
        if last_le != f64::INFINITY {
            return Err(format!("histogram {key}: missing +Inf bucket"));
        }
        if let Some(&c) = counts.get(key) {
            if c != last_cum {
                return Err(format!(
                    "histogram {key}: +Inf bucket {last_cum} != _count {c}"
                ));
            }
        }
    }
    Ok(stats)
}

/// Splits a sample line into `(series, value)` at the last space that is
/// outside any label quotes.
fn split_sample(line: &str) -> Option<(&str, &str)> {
    let close = line.rfind('}');
    let split_from = close.map(|i| i + 1).unwrap_or(0);
    let rel = line[split_from..].find(' ')?;
    let at = split_from + rel;
    let (series, value) = (line[..at].trim(), line[at + 1..].trim());
    if series.is_empty() || value.is_empty() || value.contains(' ') {
        return None;
    }
    Some((series, value))
}

/// Splits `name{a="1",b="2"}` into `("name", vec!["a=\"1\"", ...])`.
/// Quoted values may not contain `"` or `,` (the exporter never emits
/// them), which keeps this parser trivial.
fn split_series(series: &str) -> Option<(String, Vec<String>)> {
    let Some(open) = series.find('{') else {
        if series.contains('}') {
            return None;
        }
        return Some((series.to_string(), Vec::new()));
    };
    let name = &series[..open];
    let body = series[open + 1..].strip_suffix('}')?;
    if name.is_empty() {
        return None;
    }
    let mut labels = Vec::new();
    if !body.is_empty() {
        for part in body.split(',') {
            let (k, v) = part.split_once('=')?;
            if k.is_empty() || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                return None;
            }
            labels.push(part.to_string());
        }
    }
    Some((name.to_string(), labels))
}

/// Removes the `le` label, returning `(le_value, remaining_labels_csv)`.
fn take_le(labels: &[String]) -> Option<(String, String)> {
    let mut le = None;
    let mut rest = Vec::new();
    for l in labels {
        if let Some(v) = l.strip_prefix("le=") {
            le = Some(v.trim_matches('"').to_string());
        } else {
            rest.push(l.clone());
        }
    }
    Some((le?, rest.join(",")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_exposition() {
        let text = "\
# TYPE flits_total counter
flits_total 42
# TYPE lat histogram
lat_bucket{le=\"15\"} 3
lat_bucket{le=\"31\"} 5
lat_bucket{le=\"+Inf\"} 5
lat_sum 99
lat_count 5
# TYPE off gauge
off{x=\"0\",y=\"1\"} 0.5
";
        let s = validate_exposition(text).expect("valid");
        assert_eq!(s.samples, 7);
        assert_eq!(s.families, 3);
        assert_eq!(s.histograms, 1);
    }

    #[test]
    fn rejects_violations() {
        assert!(validate_exposition("no_value\n").is_err());
        assert!(validate_exposition("x NaNish\n").is_err());
        assert!(validate_exposition("x_bucket{nope=\"1\"} 2\n").is_err());
        // Decreasing cumulative count.
        let dec = "x_bucket{le=\"1\"} 5\nx_bucket{le=\"2\"} 3\nx_bucket{le=\"+Inf\"} 5\n";
        assert!(validate_exposition(dec).is_err());
        // Missing +Inf.
        assert!(validate_exposition("x_bucket{le=\"1\"} 5\n").is_err());
        // +Inf disagrees with _count.
        let mism = "x_bucket{le=\"+Inf\"} 5\nx_count 6\n";
        assert!(validate_exposition(mism).is_err());
        // Malformed labels.
        assert!(validate_exposition("x{a=1} 2\n").is_err());
    }

    #[test]
    fn labeled_histograms_group_by_label_set() {
        let text = "\
lat_bucket{run=\"a\",le=\"1\"} 1
lat_bucket{run=\"a\",le=\"+Inf\"} 2
lat_bucket{run=\"b\",le=\"4\"} 7
lat_bucket{run=\"b\",le=\"+Inf\"} 7
lat_count{run=\"a\"} 2
lat_count{run=\"b\"} 7
";
        let s = validate_exposition(text).expect("valid");
        assert_eq!(s.histograms, 2);
    }

    #[test]
    fn rejects_nan_and_misordered_le() {
        let bad_le = "x_bucket{le=\"5\"} 1\nx_bucket{le=\"2\"} 2\nx_bucket{le=\"+Inf\"} 2\n";
        assert!(validate_exposition(bad_le).is_err());
    }
}
