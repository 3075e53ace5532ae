//! Snapshot exporters: Prometheus text format and JSON, each with a
//! matching parser so a rendered snapshot round-trips losslessly
//! (`parse(render(s)) == s`). The parsers are what `fsmon stats
//! --from` and the round-trip tests consume.

use crate::json::{escape, Json, JsonError};
use crate::metrics::{bucket_of, bucket_upper_bound, HistogramSnapshot, HISTOGRAM_BUCKETS};
use crate::registry::MetricId;
use crate::snapshot::{MetricValue, Snapshot};
use std::collections::BTreeMap;

/// Exporter parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportError(pub String);

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ExportError {}

impl From<JsonError> for ExportError {
    fn from(e: JsonError) -> ExportError {
        ExportError(e.0)
    }
}

fn err(msg: impl Into<String>) -> ExportError {
    ExportError(msg.into())
}

// ---------------------------------------------------------------------
// Prometheus text format
// ---------------------------------------------------------------------

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Render a snapshot in Prometheus text exposition format. Histograms
/// use cumulative `_bucket{le="…"}` series with power-of-two bounds,
/// plus `_sum` and `_count`.
pub fn render_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_typed: Option<(String, &str)> = None;
    for (id, value) in &snapshot.metrics {
        let kind = match value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        if last_typed.as_ref().map(|(n, k)| (n.as_str(), *k)) != Some((id.name.as_str(), kind)) {
            out.push_str(&format!("# TYPE {} {kind}\n", id.name));
            last_typed = Some((id.name.clone(), kind));
        }
        match value {
            MetricValue::Counter(n) => {
                out.push_str(&format!(
                    "{}{} {n}\n",
                    id.name,
                    render_labels(&id.labels, None)
                ));
            }
            MetricValue::Gauge(g) => {
                out.push_str(&format!(
                    "{}{} {g}\n",
                    id.name,
                    render_labels(&id.labels, None)
                ));
            }
            MetricValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for (i, &c) in h.buckets.iter().enumerate() {
                    cumulative += c;
                    if c > 0 {
                        let le = bucket_upper_bound(i).to_string();
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            id.name,
                            render_labels(&id.labels, Some(("le", &le)))
                        ));
                    }
                }
                out.push_str(&format!(
                    "{}_bucket{} {cumulative}\n",
                    id.name,
                    render_labels(&id.labels, Some(("le", "+Inf")))
                ));
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    id.name,
                    render_labels(&id.labels, None),
                    h.sum
                ));
                out.push_str(&format!(
                    "{}_count{} {cumulative}\n",
                    id.name,
                    render_labels(&id.labels, None)
                ));
            }
        }
    }
    out
}

/// One parsed sample line: name, labels, numeric value (kept as raw
/// text so integers beyond f64 precision survive).
type ParsedSample = (String, Vec<(String, String)>, String);

fn parse_sample(line: &str) -> Result<ParsedSample, ExportError> {
    let line = line.trim();
    let (name_and_labels, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| err(format!("no value on line: {line}")))?;
    let (name, labels) = match name_and_labels.find('{') {
        None => (name_and_labels.to_string(), Vec::new()),
        Some(open) => {
            let name = name_and_labels[..open].to_string();
            let body = name_and_labels[open + 1..]
                .strip_suffix('}')
                .ok_or_else(|| err(format!("unterminated labels: {line}")))?;
            let mut labels = Vec::new();
            let mut rest = body;
            while !rest.is_empty() {
                let eq = rest
                    .find('=')
                    .ok_or_else(|| err(format!("bad label in: {line}")))?;
                let key = rest[..eq].to_string();
                let after = &rest[eq + 1..];
                let after = after
                    .strip_prefix('"')
                    .ok_or_else(|| err(format!("unquoted label value in: {line}")))?;
                // Find the closing unescaped quote.
                let mut end = None;
                let mut escaped = false;
                for (i, c) in after.char_indices() {
                    if escaped {
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        end = Some(i);
                        break;
                    }
                }
                let end = end.ok_or_else(|| err(format!("unterminated label value: {line}")))?;
                labels.push((key, unescape_label(&after[..end])));
                rest = after[end + 1..].trim_start_matches(',');
            }
            (name, labels)
        }
    };
    Ok((name, labels, value.to_string()))
}

/// Parse Prometheus text exposition format back into a snapshot.
/// Accepts exactly what [`render_prometheus`] emits (plus blank lines
/// and `#` comments).
pub fn parse_prometheus(text: &str) -> Result<Snapshot, ExportError> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut snap = Snapshot::default();
    // Histogram accumulation: (name, labels-sans-le) → (cumulative
    // per-bound counts, sum).
    type HistKey = (String, Vec<(String, String)>);
    let mut hist_buckets: BTreeMap<HistKey, Vec<(u64, u64)>> = BTreeMap::new();
    let mut hist_inf: BTreeMap<HistKey, u64> = BTreeMap::new();
    let mut hist_sums: BTreeMap<HistKey, u64> = BTreeMap::new();

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or_else(|| err("bad # TYPE line"))?;
            let kind = parts.next().ok_or_else(|| err("bad # TYPE line"))?;
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name, labels, value) = parse_sample(line)?;
        // Histogram series come suffixed; resolve against declared types.
        let hist_base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix).map(|b| (b.to_string(), *suffix)))
            .filter(|(base, _)| types.get(base).map(String::as_str) == Some("histogram"));
        if let Some((base, suffix)) = hist_base {
            let mut labels = labels;
            match suffix {
                "_bucket" => {
                    // The synthetic bound is always the *last* `le`
                    // label on the line: `render_labels` appends it
                    // after the instrument's own labels, so a metric
                    // that carries a user label literally named `le`
                    // (path-derived labels can be anything) still
                    // round-trips instead of being misread as a bound.
                    let le_pos = labels
                        .iter()
                        .rposition(|(k, _)| k == "le")
                        .ok_or_else(|| err(format!("bucket without le: {line}")))?;
                    let (_, le) = labels.remove(le_pos);
                    labels.sort();
                    let cumulative: u64 = value
                        .parse()
                        .map_err(|_| err(format!("bad bucket count: {line}")))?;
                    let key = (base, labels);
                    if le == "+Inf" {
                        hist_inf.insert(key, cumulative);
                    } else {
                        let bound: u64 = le
                            .parse()
                            .map_err(|_| err(format!("bad le bound: {line}")))?;
                        hist_buckets
                            .entry(key)
                            .or_default()
                            .push((bound, cumulative));
                    }
                }
                "_sum" => {
                    labels.sort();
                    let sum: u64 = value
                        .parse()
                        .map_err(|_| err(format!("bad histogram sum: {line}")))?;
                    hist_sums.insert((base, labels), sum);
                }
                _ => {} // _count is redundant with the +Inf bucket
            }
            continue;
        }
        let kind = types
            .get(&name)
            .ok_or_else(|| err(format!("sample before # TYPE: {name}")))?;
        let id = MetricId::new(name.clone(), labels);
        let value = match kind.as_str() {
            "counter" => MetricValue::Counter(
                value
                    .parse()
                    .map_err(|_| err(format!("bad counter value: {line}")))?,
            ),
            "gauge" => MetricValue::Gauge(
                value
                    .parse()
                    .map_err(|_| err(format!("bad gauge value: {line}")))?,
            ),
            other => return Err(err(format!("unsupported metric type: {other}"))),
        };
        snap.metrics.insert(id, value);
    }

    // Materialize histograms: cumulative bounds → per-bucket counts.
    let keys: Vec<HistKey> = hist_inf.keys().cloned().collect();
    for key in keys {
        let mut h = HistogramSnapshot::empty();
        let mut prev = 0u64;
        let mut series = hist_buckets.remove(&key).unwrap_or_default();
        series.sort();
        for (bound, cumulative) in series {
            let idx = bucket_of(bound);
            if idx >= HISTOGRAM_BUCKETS || bucket_upper_bound(idx) != bound {
                return Err(err(format!("non-canonical bucket bound {bound}")));
            }
            h.buckets[idx] = cumulative.saturating_sub(prev);
            prev = cumulative;
        }
        h.sum = hist_sums.remove(&key).unwrap_or(0);
        let (name, labels) = key;
        snap.metrics
            .insert(MetricId { name, labels }, MetricValue::Histogram(h));
    }
    Ok(snap)
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// Render a snapshot as a JSON document:
///
/// ```json
/// {"metrics": [
///   {"name": "...", "labels": {"k": "v"}, "type": "counter", "value": 3},
///   {"name": "...", "labels": {}, "type": "histogram",
///    "sum": 12, "buckets": [0, 2, 1, ...]}
/// ]}
/// ```
pub fn render_json(snapshot: &Snapshot) -> String {
    let mut entries = Vec::new();
    for (id, value) in &snapshot.metrics {
        let labels = id
            .labels
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect::<Vec<_>>()
            .join(", ");
        let body = match value {
            MetricValue::Counter(n) => format!("\"type\": \"counter\", \"value\": {n}"),
            MetricValue::Gauge(g) => format!("\"type\": \"gauge\", \"value\": {g}"),
            MetricValue::Histogram(h) => {
                let buckets = h
                    .buckets
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "\"type\": \"histogram\", \"sum\": {}, \"buckets\": [{buckets}]",
                    h.sum
                )
            }
        };
        entries.push(format!(
            "    {{\"name\": \"{}\", \"labels\": {{{labels}}}, {body}}}",
            escape(&id.name)
        ));
    }
    format!("{{\n  \"metrics\": [\n{}\n  ]\n}}\n", entries.join(",\n"))
}

pub(crate) fn field<'j>(obj: &'j [(String, Json)], name: &str) -> Result<&'j Json, ExportError> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| err(format!("missing field {name}")))
}

pub(crate) fn as_u64(j: &Json) -> Result<u64, ExportError> {
    j.as_u64()
        .ok_or_else(|| err(format!("expected unsigned number, got {j:?}")))
}

/// Parse [`render_json`] output back into a snapshot.
pub fn parse_json(text: &str) -> Result<Snapshot, ExportError> {
    snapshot_from_json(&Json::parse(text)?)
}

/// Rebuild a snapshot from an already-parsed [`render_json`] document
/// (used by the health subsystem to decode snapshots embedded inside
/// incident bundles).
pub(crate) fn snapshot_from_json(root: &Json) -> Result<Snapshot, ExportError> {
    let Json::Obj(root) = root else {
        return Err(err("root is not an object"));
    };
    let Json::Arr(metrics) = field(root, "metrics")? else {
        return Err(err("metrics is not an array"));
    };
    let mut snap = Snapshot::default();
    for entry in metrics {
        let Json::Obj(entry) = entry else {
            return Err(err("metric entry is not an object"));
        };
        let Json::Str(name) = field(entry, "name")? else {
            return Err(err("metric name is not a string"));
        };
        let Json::Obj(labels) = field(entry, "labels")? else {
            return Err(err("labels is not an object"));
        };
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| match v {
                Json::Str(s) => Ok((k.clone(), s.clone())),
                _ => Err(err("label value is not a string")),
            })
            .collect::<Result<_, _>>()?;
        let Json::Str(kind) = field(entry, "type")? else {
            return Err(err("metric type is not a string"));
        };
        let value = match kind.as_str() {
            "counter" => MetricValue::Counter(as_u64(field(entry, "value")?)?),
            "gauge" => match field(entry, "value")? {
                Json::Num(n) => {
                    MetricValue::Gauge(n.parse().map_err(|_| err(format!("bad gauge value {n}")))?)
                }
                _ => return Err(err("gauge value is not a number")),
            },
            "histogram" => {
                let Json::Arr(buckets) = field(entry, "buckets")? else {
                    return Err(err("histogram buckets is not an array"));
                };
                MetricValue::Histogram(HistogramSnapshot {
                    buckets: buckets.iter().map(as_u64).collect::<Result<_, _>>()?,
                    sum: as_u64(field(entry, "sum")?)?,
                })
            }
            other => return Err(err(format!("unknown metric type {other}"))),
        };
        snap.metrics
            .insert(MetricId::new(name.clone(), labels), value);
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        let root = r.scope("fsmon");
        root.scope("store").counter("appends_total").add(42);
        root.scope("mq")
            .with_label("transport", "tcp")
            .counter("frames_total")
            .add(7);
        root.scope("resolution").gauge("queue_depth").set(-3);
        let h = root.scope("store").histogram("append_ns");
        for v in [90u64, 100, 150, 4096, 0] {
            h.record(v);
        }
        r.snapshot()
    }

    #[test]
    fn prometheus_round_trips() {
        let snap = sample_snapshot();
        let text = render_prometheus(&snap);
        let parsed = parse_prometheus(&text).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn json_round_trips() {
        let snap = sample_snapshot();
        let text = render_json(&snap);
        let parsed = parse_json(&text).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn both_exporters_agree_on_the_same_snapshot() {
        let snap = sample_snapshot();
        let via_prom = parse_prometheus(&render_prometheus(&snap)).unwrap();
        let via_json = parse_json(&render_json(&snap)).unwrap();
        assert_eq!(via_prom, via_json);
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let r = Registry::new();
        r.scope("t")
            .with_label("path", "/a \"b\"\\c\nd")
            .counter("c")
            .inc();
        let snap = r.snapshot();
        let parsed = parse_prometheus(&render_prometheus(&snap)).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn json_escapes_label_values() {
        let r = Registry::new();
        r.scope("t")
            .with_label("path", "/a \"b\"\\c\nd\te")
            .counter("c")
            .inc();
        let snap = r.snapshot();
        let parsed = parse_json(&render_json(&snap)).unwrap();
        assert_eq!(parsed, snap);
    }

    /// Path-derived label values can contain anything: trailing
    /// backslashes, embedded quotes, newlines, carriage returns,
    /// braces, commas, equals signs, even the string `le`. Every one
    /// of them must survive a render→parse round trip through both
    /// exporters.
    #[test]
    fn adversarial_label_values_round_trip() {
        let nasty = [
            "/a \"b\"\\c\nd",
            "back\\",
            "end\\\\",
            "\\n",
            "a\\nb",
            "q\\\"",
            "\r",
            "a\rb",
            "tail\r",
            "sp ace",
            "a,b",
            "a=b",
            "a{b}c",
            "}",
            "{",
            "le",
            "a\"",
            "\"",
            "\\",
            "mixed \\\" \n \r , = {} end\\",
        ];
        for v in nasty {
            let mut snap = Snapshot::default();
            snap.metrics.insert(
                MetricId::new("m_total", vec![("path".into(), v.to_string())]),
                MetricValue::Counter(7),
            );
            let prom = render_prometheus(&snap);
            assert_eq!(
                parse_prometheus(&prom).unwrap(),
                snap,
                "prometheus round trip for {v:?}: {prom:?}"
            );
            let json = render_json(&snap);
            assert_eq!(
                parse_json(&json).unwrap(),
                snap,
                "json round trip for {v:?}: {json:?}"
            );
        }
    }

    /// A histogram carrying a user label literally named `le` must not
    /// have it confused with the synthetic bucket-bound label.
    #[test]
    fn histogram_with_user_le_label_round_trips() {
        let r = Registry::new();
        let h = r.scope("t").with_label("le", "weird\\value").histogram("h");
        h.record(3);
        let snap = r.snapshot();
        let parsed = parse_prometheus(&render_prometheus(&snap)).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot::default();
        assert_eq!(parse_prometheus(&render_prometheus(&snap)).unwrap(), snap);
        assert_eq!(parse_json(&render_json(&snap)).unwrap(), snap);
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let r = Registry::new();
        let h = r.scope("t").histogram("h");
        h.record(1);
        h.record(1);
        h.record(2);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("t_h_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("t_h_bucket{le=\"3\"} 3"), "{text}");
        assert!(text.contains("t_h_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("t_h_sum 4"), "{text}");
        assert!(text.contains("t_h_count 3"), "{text}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_prometheus("no_type_declared 3").is_err());
        assert!(parse_json("{\"metrics\": [{\"name\": 3}]}").is_err());
        assert!(parse_json("not json").is_err());
    }
}
