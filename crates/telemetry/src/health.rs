//! Self-observability: SLO evaluation, burn-rate alerting, a flight
//! recorder, and the std-only HTTP observer endpoint.
//!
//! The monitor watches the whole file system; this module watches the
//! monitor. It layers four pieces over the metrics registry and the
//! [`SeriesStore`](crate::series::SeriesStore) windowed history:
//!
//! 1. **[`SloSpec`]** — a small spec grammar
//!    (`ingest_lag<5000;e2e_p99<50ms;loss=0;budget=0.05;fast=30s;slow=300s`,
//!    parsed the same way `fsmon-rules` parses filter specs) naming
//!    service-level indicators and their thresholds.
//! 2. **Burn-rate alerting** — every clause is re-evaluated each tick
//!    against the windowed series; the breached fraction of the
//!    trailing *fast* and *slow* windows is divided by the error
//!    budget, and a clause alerts only when **both** burn rates reach
//!    1.0 (the classic multi-window rule: the fast window gives
//!    detection latency, the slow window rides out blips).
//! 3. **A flight recorder** — the last K snapshots plus the worst
//!    observed trace exemplar are retained continuously; on a breach
//!    or a supervisor-observed crash they are dumped to disk as a
//!    CRC-trailed [`IncidentBundle`] so the evidence survives the
//!    process.
//! 4. **An HTTP observer** — a dependency-free `TcpListener` loop
//!    serving `/metrics` (Prometheus text format), `/health` (SLO
//!    verdicts as JSON, 503 while alerting), and `/dashboard.json`
//!    (windowed rates and quantiles for `fsmon top`-style views).

use crate::export::{
    self, escape_json, render_json, render_prometheus, snapshot_from_json, ExportError, Json,
    JsonParser,
};
use crate::series::SeriesStore;
use crate::snapshot::Snapshot;
use crate::trace::{self, Exemplar, TRACE_STAGES};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

fn err(msg: impl Into<String>) -> ExportError {
    ExportError(msg.into())
}

/// Milliseconds since the Unix epoch.
fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// SLO spec grammar
// ---------------------------------------------------------------------

/// Error from [`SloSpec::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloSpecError(pub String);

impl std::fmt::Display for SloSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad SLO spec: {}", self.0)
    }
}

impl std::error::Error for SloSpecError {}

/// A service-level indicator the health engine can compute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Indicator {
    /// Events read by collectors but not yet ingested by the
    /// aggregator: `fsmon_collector_records_total −
    /// fsmon_aggregator_received_total`.
    IngestLag,
    /// p99 of the end-to-end trace latency histogram
    /// (`fsmon_trace_e2e_ns`) over the fast window, in nanoseconds.
    E2eP99,
    /// Events lost over the fast window: HWM drops plus decode errors.
    Loss,
    /// Windowed p50 of an arbitrary histogram: `p50(name)`.
    P50(String),
    /// Windowed p99 of an arbitrary histogram: `p99(name)`.
    P99(String),
    /// Per-second rate of an arbitrary counter over the fast window:
    /// `rate(name)`.
    Rate(String),
    /// Increment of an arbitrary counter over the fast window:
    /// `counter(name)`.
    CounterDelta(String),
    /// Current value of an arbitrary gauge: `gauge(name)`.
    Gauge(String),
}

impl Indicator {
    fn parse(text: &str) -> Result<Indicator, SloSpecError> {
        let inner = |prefix: &str| -> Option<&str> {
            text.strip_prefix(prefix)
                .and_then(|rest| rest.strip_suffix(')'))
        };
        match text {
            "ingest_lag" => Ok(Indicator::IngestLag),
            "e2e_p99" => Ok(Indicator::E2eP99),
            "loss" => Ok(Indicator::Loss),
            _ => {
                if let Some(name) = inner("p50(") {
                    Ok(Indicator::P50(name.trim().to_string()))
                } else if let Some(name) = inner("p99(") {
                    Ok(Indicator::P99(name.trim().to_string()))
                } else if let Some(name) = inner("rate(") {
                    Ok(Indicator::Rate(name.trim().to_string()))
                } else if let Some(name) = inner("counter(") {
                    Ok(Indicator::CounterDelta(name.trim().to_string()))
                } else if let Some(name) = inner("gauge(") {
                    Ok(Indicator::Gauge(name.trim().to_string()))
                } else {
                    Err(SloSpecError(format!("unknown indicator `{text}`")))
                }
            }
        }
    }

    fn render(&self) -> String {
        match self {
            Indicator::IngestLag => "ingest_lag".into(),
            Indicator::E2eP99 => "e2e_p99".into(),
            Indicator::Loss => "loss".into(),
            Indicator::P50(n) => format!("p50({n})"),
            Indicator::P99(n) => format!("p99({n})"),
            Indicator::Rate(n) => format!("rate({n})"),
            Indicator::CounterDelta(n) => format!("counter({n})"),
            Indicator::Gauge(n) => format!("gauge({n})"),
        }
    }

    /// Compute the indicator; `None` means "no data yet" (which never
    /// breaches).
    fn evaluate(&self, series: &SeriesStore, snapshot: &Snapshot, fast: Duration) -> Option<f64> {
        match self {
            Indicator::IngestLag => {
                let produced = snapshot.counter("fsmon_collector_records_total");
                let ingested = snapshot.counter("fsmon_aggregator_received_total");
                Some(produced.saturating_sub(ingested) as f64)
            }
            Indicator::E2eP99 => series
                .quantile("fsmon_trace_e2e_ns", 0.99, fast)
                .map(|v| v as f64),
            Indicator::Loss => {
                let dropped = series
                    .counter_delta("fsmon_mq_hwm_dropped_total", fast)
                    .unwrap_or(0);
                let decode = series
                    .counter_delta("fsmon_aggregator_decode_errors_total", fast)
                    .unwrap_or(0);
                Some((dropped + decode) as f64)
            }
            Indicator::P50(name) => series.quantile(name, 0.5, fast).map(|v| v as f64),
            Indicator::P99(name) => series.quantile(name, 0.99, fast).map(|v| v as f64),
            Indicator::Rate(name) => series.rate(name, fast),
            Indicator::CounterDelta(name) => series.counter_delta(name, fast).map(|v| v as f64),
            Indicator::Gauge(name) => snapshot.gauge(name).map(|v| v as f64),
        }
    }
}

/// Comparison operator of an SLO clause (the condition that must
/// *hold*; the clause breaches when it does not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloOp {
    /// Value must stay strictly below the threshold.
    Lt,
    /// Value must stay at or below the threshold.
    Le,
    /// Value must stay strictly above the threshold.
    Gt,
    /// Value must stay at or above the threshold.
    Ge,
    /// Value must equal the threshold.
    Eq,
}

impl SloOp {
    fn as_str(&self) -> &'static str {
        match self {
            SloOp::Lt => "<",
            SloOp::Le => "<=",
            SloOp::Gt => ">",
            SloOp::Ge => ">=",
            SloOp::Eq => "=",
        }
    }

    fn holds(&self, value: f64, threshold: f64) -> bool {
        match self {
            SloOp::Lt => value < threshold,
            SloOp::Le => value <= threshold,
            SloOp::Gt => value > threshold,
            SloOp::Ge => value >= threshold,
            SloOp::Eq => (value - threshold).abs() < 1e-9,
        }
    }
}

/// One SLO clause: an indicator, the condition it must satisfy, and
/// the threshold (durations are normalized to nanoseconds at parse
/// time).
#[derive(Debug, Clone, PartialEq)]
pub struct SloClause {
    /// What is measured.
    pub indicator: Indicator,
    /// The condition that must hold.
    pub op: SloOp,
    /// Threshold in base units (ns for durations).
    pub threshold: f64,
}

impl SloClause {
    /// Canonical clause text, e.g. `e2e_p99<50000000`.
    pub fn canonical(&self) -> String {
        format!(
            "{}{}{}",
            self.indicator.render(),
            self.op.as_str(),
            fmt_num(self.threshold)
        )
    }
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Parse a number with an optional duration suffix (`ns`, `us`, `ms`,
/// `s`) into base units (nanoseconds for durations).
fn parse_threshold(text: &str) -> Result<f64, SloSpecError> {
    let text = text.trim();
    let (digits, scale) = if let Some(v) = text.strip_suffix("ns") {
        (v, 1.0)
    } else if let Some(v) = text.strip_suffix("us") {
        (v, 1e3)
    } else if let Some(v) = text.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = text.strip_suffix('s') {
        (v, 1e9)
    } else {
        (text, 1.0)
    };
    digits
        .trim()
        .parse::<f64>()
        .map(|v| v * scale)
        .map_err(|_| SloSpecError(format!("bad threshold `{text}`")))
}

/// A parsed SLO specification: the clauses plus the shared error
/// budget and burn-rate windows.
///
/// Grammar (clauses separated by `;`, like a
/// [`fsmon-rules`] filter spec):
///
/// ```text
/// ingest_lag<5000;e2e_p99<50ms;loss=0;budget=0.05;fast=30s;slow=300s
/// ```
///
/// `budget`, `fast` and `slow` are optional configuration clauses; the
/// rest are indicator clauses (`indicator op threshold` with `op` one
/// of `<`, `<=`, `>`, `>=`, `=` and duration thresholds accepting
/// `ns`/`us`/`ms`/`s` suffixes).
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// The indicator clauses, in spec order.
    pub clauses: Vec<SloClause>,
    /// Fraction of a window that may breach before burn reaches 1.0.
    pub budget: f64,
    /// Fast (detection) window.
    pub fast: Duration,
    /// Slow (confirmation) window.
    pub slow: Duration,
}

impl Default for SloSpec {
    fn default() -> SloSpec {
        SloSpec {
            clauses: Vec::new(),
            budget: 0.05,
            fast: Duration::from_secs(30),
            slow: Duration::from_secs(300),
        }
    }
}

impl SloSpec {
    /// Parse a spec string; see the type docs for the grammar.
    pub fn parse(text: &str) -> Result<SloSpec, SloSpecError> {
        let mut spec = SloSpec::default();
        let mut saw_clause = false;
        for raw in text.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            // Configuration clauses first: `key=value`.
            if let Some((key, value)) = raw.split_once('=') {
                let (key, value) = (key.trim(), value.trim());
                match key {
                    "budget" => {
                        spec.budget = value
                            .parse::<f64>()
                            .ok()
                            .filter(|b| *b > 0.0 && *b <= 1.0)
                            .ok_or_else(|| {
                                SloSpecError(format!("budget must be in (0, 1]: `{value}`"))
                            })?;
                        continue;
                    }
                    "fast" | "slow" => {
                        let ns = parse_threshold(value)?;
                        if ns <= 0.0 {
                            return Err(SloSpecError(format!("{key} window must be > 0")));
                        }
                        let window = Duration::from_nanos(ns as u64);
                        if key == "fast" {
                            spec.fast = window;
                        } else {
                            spec.slow = window;
                        }
                        continue;
                    }
                    _ => {}
                }
            }
            // Indicator clause: find the operator.
            let pos = raw
                .find(['<', '>', '='])
                .ok_or_else(|| SloSpecError(format!("no operator in clause `{raw}`")))?;
            let (op, op_len) = match (&raw[pos..pos + 1], raw.as_bytes().get(pos + 1)) {
                ("<", Some(b'=')) => (SloOp::Le, 2),
                (">", Some(b'=')) => (SloOp::Ge, 2),
                ("<", _) => (SloOp::Lt, 1),
                (">", _) => (SloOp::Gt, 1),
                _ => (SloOp::Eq, 1),
            };
            let indicator = Indicator::parse(raw[..pos].trim())?;
            let threshold = parse_threshold(raw[pos + op_len..].trim())?;
            spec.clauses.push(SloClause {
                indicator,
                op,
                threshold,
            });
            saw_clause = true;
        }
        if !saw_clause {
            return Err(SloSpecError(format!("no indicator clause in `{text}`")));
        }
        if spec.slow < spec.fast {
            return Err(SloSpecError(
                "slow window must be at least the fast window".into(),
            ));
        }
        Ok(spec)
    }

    /// Normalized spec text; `parse(canonical()) == self`.
    pub fn canonical(&self) -> String {
        let mut parts: Vec<String> = self.clauses.iter().map(SloClause::canonical).collect();
        parts.push(format!("budget={}", self.budget));
        parts.push(format!("fast={}s", self.fast.as_secs_f64()));
        parts.push(format!("slow={}s", self.slow.as_secs_f64()));
        parts.join(";")
    }
}

// ---------------------------------------------------------------------
// Burn-rate tracking
// ---------------------------------------------------------------------

/// Per-clause breach history: `(span_ns, breached)` per tick, newest
/// at the back, trimmed to just cover the slow window.
struct ClauseTrack {
    history: VecDeque<(u64, bool)>,
    total_ns: u128,
    was_alerting: bool,
}

impl ClauseTrack {
    fn new() -> ClauseTrack {
        ClauseTrack {
            history: VecDeque::new(),
            total_ns: 0,
            was_alerting: false,
        }
    }

    fn push(&mut self, span_ns: u64, breached: bool, slow: Duration) {
        self.history.push_back((span_ns, breached));
        self.total_ns += span_ns as u128;
        let keep = slow.as_nanos();
        while let Some(&(front, _)) = self.history.front() {
            if self.total_ns - front as u128 >= keep {
                self.history.pop_front();
                self.total_ns -= front as u128;
            } else {
                break;
            }
        }
    }

    /// Fraction of the trailing `window` that was in breach. While the
    /// history is shorter than the window the missing time counts as
    /// healthy: a cold engine must accumulate `budget * window` worth
    /// of observed breach before it can alert, rather than alerting
    /// off the first sliver of data.
    fn breached_fraction(&self, window: Duration) -> f64 {
        let want = window.as_nanos();
        let mut covered: u128 = 0;
        let mut breached: u128 = 0;
        for &(span, bad) in self.history.iter().rev() {
            covered += span as u128;
            if bad {
                breached += span as u128;
            }
            if covered >= want {
                break;
            }
        }
        let denom = covered.max(want);
        if denom == 0 {
            0.0
        } else {
            breached as f64 / denom as f64
        }
    }
}

/// The verdict for one clause in one scope at the latest tick.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseVerdict {
    /// Canonical clause text.
    pub clause: String,
    /// `"local"` or `"fleet"`.
    pub scope: String,
    /// Last computed indicator value (`None` = no data yet).
    pub value: Option<f64>,
    /// Threshold in base units.
    pub threshold: f64,
    /// Whether the latest tick breached the clause.
    pub breached: bool,
    /// Breached fraction of the fast window over the error budget.
    pub fast_burn: f64,
    /// Breached fraction of the slow window over the error budget.
    pub slow_burn: f64,
    /// True when both burn rates are ≥ 1 — the clause is firing.
    pub alerting: bool,
}

/// One scope's evaluation state: a windowed series plus per-clause
/// burn tracks, fed by successive snapshots of that scope.
struct ScopeEngine {
    scope: &'static str,
    series: SeriesStore,
    prev: Snapshot,
    ticked: bool,
    tracks: Vec<ClauseTrack>,
}

impl ScopeEngine {
    fn new(scope: &'static str, window_ticks: usize, clauses: usize) -> ScopeEngine {
        ScopeEngine {
            scope,
            series: SeriesStore::new(window_ticks),
            prev: Snapshot::default(),
            ticked: false,
            tracks: (0..clauses).map(|_| ClauseTrack::new()).collect(),
        }
    }

    /// Advance one tick; returns the verdicts plus the canonical texts
    /// of clauses that transitioned into alerting.
    fn tick(
        &mut self,
        spec: Option<&SloSpec>,
        unix_ms: u64,
        span: Duration,
        snapshot: Snapshot,
    ) -> (Vec<ClauseVerdict>, Vec<String>) {
        let delta = snapshot.delta_from(&self.prev);
        self.series.push(unix_ms, span, &snapshot, &delta);
        self.ticked = true;
        let mut verdicts = Vec::new();
        let mut newly = Vec::new();
        if let Some(spec) = spec {
            for (clause, track) in spec.clauses.iter().zip(self.tracks.iter_mut()) {
                let value = clause
                    .indicator
                    .evaluate(&self.series, &snapshot, spec.fast);
                let breached = value.is_some_and(|v| !clause.op.holds(v, clause.threshold));
                track.push(
                    span.as_nanos().min(u64::MAX as u128) as u64,
                    breached,
                    spec.slow,
                );
                let budget = spec.budget.max(1e-9);
                let fast_burn = (track.breached_fraction(spec.fast) / budget).min(1e9);
                let slow_burn = (track.breached_fraction(spec.slow) / budget).min(1e9);
                let alerting = fast_burn >= 1.0 && slow_burn >= 1.0;
                if alerting && !track.was_alerting {
                    newly.push(clause.canonical());
                }
                track.was_alerting = alerting;
                verdicts.push(ClauseVerdict {
                    clause: clause.canonical(),
                    scope: self.scope.to_string(),
                    value,
                    threshold: clause.threshold,
                    breached,
                    fast_burn,
                    slow_burn,
                    alerting,
                });
            }
        }
        self.prev = snapshot;
        (verdicts, newly)
    }
}

// ---------------------------------------------------------------------
// Health report
// ---------------------------------------------------------------------

/// The health engine's latest overall verdict.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReport {
    /// True once at least one evaluation tick has run.
    pub ready: bool,
    /// True when no clause is alerting.
    pub ok: bool,
    /// Canonical SLO spec, if one is configured.
    pub slo: Option<String>,
    /// Per-clause, per-scope verdicts from the latest tick.
    pub verdicts: Vec<ClauseVerdict>,
    /// Incident bundles dumped so far.
    pub incidents: u64,
    /// Supervisor-observed crashes reported so far.
    pub crashes: u64,
}

fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => fmt_num(v),
        _ => "null".into(),
    }
}

fn render_verdict(v: &ClauseVerdict) -> String {
    format!(
        "{{\"clause\": \"{}\", \"scope\": \"{}\", \"value\": {}, \"threshold\": {}, \
         \"breached\": {}, \"fast_burn\": {}, \"slow_burn\": {}, \"alerting\": {}}}",
        escape_json(&v.clause),
        escape_json(&v.scope),
        json_opt_f64(v.value),
        fmt_num(v.threshold),
        v.breached,
        fmt_num((v.fast_burn * 1e6).round() / 1e6),
        fmt_num((v.slow_burn * 1e6).round() / 1e6),
        v.alerting
    )
}

impl HealthReport {
    /// Render as the `/health` JSON document.
    pub fn to_json(&self) -> String {
        let verdicts = self
            .verdicts
            .iter()
            .map(|v| format!("    {}", render_verdict(v)))
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"ready\": {},\n  \"ok\": {},\n  \"slo\": {},\n  \"incidents\": {},\n  \
             \"crashes\": {},\n  \"verdicts\": [\n{}\n  ]\n}}\n",
            self.ready,
            self.ok,
            match &self.slo {
                Some(s) => format!("\"{}\"", escape_json(s)),
                None => "null".into(),
            },
            self.incidents,
            self.crashes,
            verdicts
        )
    }

    /// Parse a `/health` JSON document back into a report.
    pub fn from_json(text: &str) -> Result<HealthReport, ExportError> {
        let root = JsonParser::new(text).value()?;
        let Json::Obj(root) = root else {
            return Err(err("health report is not an object"));
        };
        let verdicts = match export::field(&root, "verdicts")? {
            Json::Arr(items) => items
                .iter()
                .map(verdict_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(err("verdicts is not an array")),
        };
        Ok(HealthReport {
            ready: as_bool(export::field(&root, "ready")?)?,
            ok: as_bool(export::field(&root, "ok")?)?,
            slo: match export::field(&root, "slo")? {
                Json::Null => None,
                Json::Str(s) => Some(s.clone()),
                _ => return Err(err("slo is not a string")),
            },
            incidents: export::as_u64(export::field(&root, "incidents")?)?,
            crashes: export::as_u64(export::field(&root, "crashes")?)?,
            verdicts,
        })
    }
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "health: {}{}",
            if self.ok { "OK" } else { "ALERTING" },
            if self.ready { "" } else { " (not ready)" }
        )?;
        if let Some(slo) = &self.slo {
            writeln!(f, "slo: {slo}")?;
        }
        for v in &self.verdicts {
            writeln!(
                f,
                "  [{}] {}: value {} {} (burn fast {:.2} slow {:.2})",
                v.scope,
                v.clause,
                v.value.map(fmt_num).unwrap_or_else(|| "-".into()),
                if v.alerting {
                    "ALERTING"
                } else if v.breached {
                    "breached"
                } else {
                    "ok"
                },
                v.fast_burn,
                v.slow_burn
            )?;
        }
        write!(
            f,
            "incidents: {}, crashes: {}",
            self.incidents, self.crashes
        )
    }
}

fn as_bool(j: &Json) -> Result<bool, ExportError> {
    match j {
        Json::Bool(b) => Ok(*b),
        _ => Err(err(format!("expected bool, got {j:?}"))),
    }
}

fn as_f64(j: &Json) -> Result<f64, ExportError> {
    match j {
        Json::Num(n) => n.parse().map_err(|_| err(format!("bad number {n}"))),
        _ => Err(err(format!("expected number, got {j:?}"))),
    }
}

fn as_str(j: &Json) -> Result<String, ExportError> {
    match j {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(err(format!("expected string, got {j:?}"))),
    }
}

fn verdict_from_json(j: &Json) -> Result<ClauseVerdict, ExportError> {
    let Json::Obj(obj) = j else {
        return Err(err("verdict is not an object"));
    };
    Ok(ClauseVerdict {
        clause: as_str(export::field(obj, "clause")?)?,
        scope: as_str(export::field(obj, "scope")?)?,
        value: match export::field(obj, "value")? {
            Json::Null => None,
            other => Some(as_f64(other)?),
        },
        threshold: as_f64(export::field(obj, "threshold")?)?,
        breached: as_bool(export::field(obj, "breached")?)?,
        fast_burn: as_f64(export::field(obj, "fast_burn")?)?,
        slow_burn: as_f64(export::field(obj, "slow_burn")?)?,
        alerting: as_bool(export::field(obj, "alerting")?)?,
    })
}

// ---------------------------------------------------------------------
// Flight recorder and incident bundles
// ---------------------------------------------------------------------

/// Continuously retained evidence: the last K snapshots.
struct FlightRecorder {
    depth: usize,
    ring: VecDeque<(u64, Snapshot)>,
}

impl FlightRecorder {
    fn new(depth: usize) -> FlightRecorder {
        FlightRecorder {
            depth: depth.max(1),
            ring: VecDeque::new(),
        }
    }

    fn push(&mut self, unix_ms: u64, snapshot: &Snapshot) {
        if self.ring.len() == self.depth {
            self.ring.pop_front();
        }
        self.ring.push_back((unix_ms, snapshot.clone()));
    }

    fn contents(&self) -> Vec<(u64, Snapshot)> {
        self.ring.iter().cloned().collect()
    }
}

/// Everything the flight recorder knows at the moment of an incident,
/// encodable to a CRC-trailed on-disk file and decodable by
/// `fsmon incidents show`.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentBundle {
    /// Why the bundle was dumped (`slo:<clause>` or `crash:<detail>`).
    pub reason: String,
    /// Wall-clock stamp of the dump.
    pub unix_ms: u64,
    /// Human-readable description of the active configuration.
    pub config: String,
    /// Canonical SLO spec in force, if any.
    pub slo: Option<String>,
    /// The verdicts at dump time.
    pub verdicts: Vec<ClauseVerdict>,
    /// Worst end-to-end trace observed so far, if tracing is on.
    pub exemplar: Option<Exemplar>,
    /// The pre-incident snapshot window, oldest first.
    pub snapshots: Vec<(u64, Snapshot)>,
}

/// CRC-32 (IEEE) over the bundle body — byte-at-a-time is plenty for
/// an incident-sized document, and keeps this crate dependency-free.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

impl IncidentBundle {
    /// Encode as a JSON document followed by a `# crc32 <hex>` trailer
    /// line covering every preceding byte.
    pub fn encode(&self) -> String {
        let verdicts = self
            .verdicts
            .iter()
            .map(|v| format!("    {}", render_verdict(v)))
            .collect::<Vec<_>>()
            .join(",\n");
        let exemplar = match &self.exemplar {
            None => "null".to_string(),
            Some(e) => {
                let stamps = e
                    .stamps
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "{{\"event_id\": {}, \"mdt\": {}, \"total_ns\": {}, \"stamps\": [{stamps}]}}",
                    e.event_id, e.mdt, e.total_ns
                )
            }
        };
        let snapshots = self
            .snapshots
            .iter()
            .map(|(ms, snap)| {
                format!(
                    "    {{\"unix_ms\": {ms}, \"snapshot\": {}}}",
                    render_json(snap).trim()
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let body = format!(
            "{{\n  \"format\": \"fsmon-incident-v1\",\n  \"reason\": \"{}\",\n  \
             \"unix_ms\": {},\n  \"config\": \"{}\",\n  \"slo\": {},\n  \
             \"verdicts\": [\n{}\n  ],\n  \"exemplar\": {},\n  \"snapshots\": [\n{}\n  ]\n}}\n",
            escape_json(&self.reason),
            self.unix_ms,
            escape_json(&self.config),
            match &self.slo {
                Some(s) => format!("\"{}\"", escape_json(s)),
                None => "null".into(),
            },
            verdicts,
            exemplar,
            snapshots
        );
        let crc = crc32(body.as_bytes());
        format!("{body}# crc32 {crc:08x}\n")
    }

    /// Decode an [`encode`](IncidentBundle::encode)d bundle, verifying
    /// the CRC trailer first.
    pub fn decode(text: &str) -> Result<IncidentBundle, ExportError> {
        let marker = "# crc32 ";
        let at = text
            .rfind(marker)
            .ok_or_else(|| err("missing crc trailer"))?;
        let (body, trailer) = text.split_at(at);
        let stated = u32::from_str_radix(trailer[marker.len()..].trim(), 16)
            .map_err(|_| err("bad crc trailer"))?;
        let actual = crc32(body.as_bytes());
        if stated != actual {
            return Err(err(format!(
                "crc mismatch: trailer {stated:08x}, body {actual:08x}"
            )));
        }
        let root = JsonParser::new(body).value()?;
        let Json::Obj(root) = root else {
            return Err(err("bundle is not an object"));
        };
        if as_str(export::field(&root, "format")?)? != "fsmon-incident-v1" {
            return Err(err("not an fsmon incident bundle"));
        }
        let verdicts = match export::field(&root, "verdicts")? {
            Json::Arr(items) => items
                .iter()
                .map(verdict_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(err("verdicts is not an array")),
        };
        let exemplar = match export::field(&root, "exemplar")? {
            Json::Null => None,
            Json::Obj(obj) => {
                let stamps_json = match export::field(obj, "stamps")? {
                    Json::Arr(items) => items
                        .iter()
                        .map(export::as_u64)
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err(err("exemplar stamps is not an array")),
                };
                let mut stamps = [0u64; TRACE_STAGES];
                for (slot, v) in stamps.iter_mut().zip(stamps_json) {
                    *slot = v;
                }
                Some(Exemplar {
                    event_id: export::as_u64(export::field(obj, "event_id")?)?,
                    mdt: export::as_u64(export::field(obj, "mdt")?)? as u16,
                    total_ns: export::as_u64(export::field(obj, "total_ns")?)?,
                    stamps,
                })
            }
            _ => return Err(err("exemplar is not an object")),
        };
        let snapshots = match export::field(&root, "snapshots")? {
            Json::Arr(items) => items
                .iter()
                .map(|item| {
                    let Json::Obj(obj) = item else {
                        return Err(err("snapshot entry is not an object"));
                    };
                    Ok((
                        export::as_u64(export::field(obj, "unix_ms")?)?,
                        snapshot_from_json(export::field(obj, "snapshot")?)?,
                    ))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(err("snapshots is not an array")),
        };
        Ok(IncidentBundle {
            reason: as_str(export::field(&root, "reason")?)?,
            unix_ms: export::as_u64(export::field(&root, "unix_ms")?)?,
            config: as_str(export::field(&root, "config")?)?,
            slo: match export::field(&root, "slo")? {
                Json::Null => None,
                Json::Str(s) => Some(s.clone()),
                _ => return Err(err("slo is not a string")),
            },
            verdicts,
            exemplar,
            snapshots,
        })
    }
}

// ---------------------------------------------------------------------
// The health monitor
// ---------------------------------------------------------------------

/// Producer of the snapshot a health scope evaluates.
pub type SnapshotFn = Arc<dyn Fn() -> Snapshot + Send + Sync>;

/// Configuration for [`HealthMonitor::spawn`].
#[derive(Clone)]
pub struct HealthOptions {
    /// SLO to evaluate (none = series/dashboard only).
    pub spec: Option<SloSpec>,
    /// Evaluation tick interval.
    pub tick: Duration,
    /// Windowed-series capacity in ticks.
    pub window_ticks: usize,
    /// Flight-recorder depth in snapshots.
    pub recorder_depth: usize,
    /// HTTP observer bind address (`127.0.0.1:9090`, `:9090`, or
    /// `:0` for an ephemeral port); none = no endpoint.
    pub http_addr: Option<String>,
    /// Directory for incident bundles; none = count but don't dump.
    pub incident_dir: Option<PathBuf>,
    /// Active-configuration description echoed into bundles.
    pub config_desc: String,
}

impl Default for HealthOptions {
    fn default() -> HealthOptions {
        HealthOptions {
            spec: None,
            tick: Duration::from_secs(1),
            window_ticks: 120,
            recorder_depth: 16,
            http_addr: None,
            incident_dir: None,
            config_desc: String::new(),
        }
    }
}

struct HealthState {
    local: ScopeEngine,
    fleet: Option<ScopeEngine>,
    recorder: FlightRecorder,
    report: HealthReport,
    incident_seq: u64,
    crashes: u64,
}

struct HealthShared {
    opts: HealthOptions,
    local_fn: SnapshotFn,
    fleet_fn: Option<SnapshotFn>,
    state: Mutex<HealthState>,
    stop: AtomicBool,
}

impl HealthShared {
    fn tick_once(&self, span: Duration) {
        let unix_ms = now_unix_ms();
        let snapshot = (self.local_fn)();
        let fleet_snapshot = self.fleet_fn.as_ref().map(|f| f());
        let mut st = self.state.lock().expect("health state");
        let spec = self.opts.spec.as_ref();
        let (mut verdicts, mut newly) = st.local.tick(spec, unix_ms, span, snapshot.clone());
        if let (Some(engine), Some(fleet_snap)) = (st.fleet.as_mut(), fleet_snapshot) {
            let (fleet_verdicts, fleet_newly) = engine.tick(spec, unix_ms, span, fleet_snap);
            verdicts.extend(fleet_verdicts);
            newly.extend(fleet_newly.into_iter().map(|c| format!("fleet {c}")));
        }
        st.recorder.push(unix_ms, &snapshot);
        let ok = !verdicts.iter().any(|v| v.alerting);
        st.report = HealthReport {
            ready: true,
            ok,
            slo: spec.map(SloSpec::canonical),
            verdicts,
            incidents: st.incident_seq,
            crashes: st.crashes,
        };
        for clause in newly {
            self.dump_incident(&mut st, &format!("slo:{clause}"));
        }
    }

    fn dump_incident(&self, st: &mut HealthState, reason: &str) {
        st.incident_seq += 1;
        st.report.incidents = st.incident_seq;
        let Some(dir) = &self.opts.incident_dir else {
            return;
        };
        let bundle = IncidentBundle {
            reason: reason.to_string(),
            unix_ms: now_unix_ms(),
            config: self.opts.config_desc.clone(),
            slo: self.opts.spec.as_ref().map(SloSpec::canonical),
            verdicts: st.report.verdicts.clone(),
            exemplar: trace::exemplar(),
            snapshots: st.recorder.contents(),
        };
        let slug: String = reason
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .take(48)
            .collect();
        let name = format!(
            "incident-{}-{}-{slug}.json",
            bundle.unix_ms, st.incident_seq
        );
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(dir.join(name), bundle.encode());
    }
}

/// The running health engine: a tick thread evaluating the SLO over
/// windowed series, an optional HTTP observer, and the flight
/// recorder + incident dumping machinery. Stops (and joins) on
/// [`stop`](HealthMonitor::stop) or drop.
pub struct HealthMonitor {
    shared: Arc<HealthShared>,
    http_addr: Option<SocketAddr>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl HealthMonitor {
    /// Spawn the health engine. `local` produces the process-local
    /// snapshot each tick; `fleet`, when given, produces the
    /// fleet-merged snapshot evaluated as a second scope. Fails only
    /// when the HTTP address cannot be bound.
    pub fn spawn(
        local: SnapshotFn,
        fleet: Option<SnapshotFn>,
        opts: HealthOptions,
    ) -> std::io::Result<HealthMonitor> {
        let clauses = opts.spec.as_ref().map_or(0, |s| s.clauses.len());
        let state = HealthState {
            local: ScopeEngine::new("local", opts.window_ticks, clauses),
            fleet: fleet
                .as_ref()
                .map(|_| ScopeEngine::new("fleet", opts.window_ticks, clauses)),
            recorder: FlightRecorder::new(opts.recorder_depth),
            report: HealthReport::default(),
            incident_seq: 0,
            crashes: 0,
        };
        let listener = match &opts.http_addr {
            Some(addr) => {
                let addr = if let Some(port) = addr.strip_prefix(':') {
                    format!("127.0.0.1:{port}")
                } else {
                    addr.clone()
                };
                let listener = TcpListener::bind(&addr)?;
                listener.set_nonblocking(true)?;
                Some(listener)
            }
            None => None,
        };
        let http_addr = listener.as_ref().and_then(|l| l.local_addr().ok());
        let shared = Arc::new(HealthShared {
            opts,
            local_fn: local,
            fleet_fn: fleet,
            state: Mutex::new(state),
            stop: AtomicBool::new(false),
        });
        let mut threads = Vec::new();
        let tick_shared = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name("fsmon-health".into())
                .spawn(move || {
                    let interval = tick_shared.opts.tick;
                    let mut last = Instant::now();
                    loop {
                        let mut slept = Duration::ZERO;
                        while slept < interval && !tick_shared.stop.load(Ordering::Relaxed) {
                            let step = (interval - slept).min(Duration::from_millis(10));
                            std::thread::sleep(step);
                            slept += step;
                        }
                        let stopping = tick_shared.stop.load(Ordering::Relaxed);
                        let span = last.elapsed();
                        last = Instant::now();
                        tick_shared.tick_once(span);
                        if stopping {
                            break;
                        }
                    }
                })
                .expect("spawn health tick thread"),
        );
        if let Some(listener) = listener {
            let http_shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("fsmon-health-http".into())
                    .spawn(move || {
                        while !http_shared.stop.load(Ordering::Relaxed) {
                            match listener.accept() {
                                Ok((stream, _)) => serve_connection(&http_shared, stream),
                                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                    std::thread::sleep(Duration::from_millis(5));
                                }
                                Err(_) => std::thread::sleep(Duration::from_millis(5)),
                            }
                        }
                    })
                    .expect("spawn health http thread"),
            );
        }
        Ok(HealthMonitor {
            shared,
            http_addr,
            threads,
        })
    }

    /// Address the HTTP observer actually bound (useful with `:0`).
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The latest health report (default/empty before the first tick).
    pub fn report(&self) -> HealthReport {
        self.shared
            .state
            .lock()
            .expect("health state")
            .report
            .clone()
    }

    /// Record a supervisor-observed crash/restart: counts it and dumps
    /// an incident bundle with the current flight-recorder contents.
    pub fn note_crash(&self, detail: &str) {
        let mut st = self.shared.state.lock().expect("health state");
        st.crashes += 1;
        st.report.crashes = st.crashes;
        let reason = format!("crash:{detail}");
        self.shared.dump_incident(&mut st, &reason);
    }

    /// Run `f` against the local windowed series (tests, dashboards).
    pub fn with_series<R>(&self, f: impl FnOnce(&SeriesStore) -> R) -> R {
        let st = self.shared.state.lock().expect("health state");
        f(&st.local.series)
    }

    /// The `/dashboard.json` document: windowed rates, quantiles and
    /// per-tick points for every known metric, plus the health report.
    pub fn dashboard_json(&self) -> String {
        render_dashboard(&self.shared)
    }

    /// Stop the tick and HTTP threads (a final evaluation tick runs
    /// first) and join them.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for HealthMonitor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one observer connection (one request, `Connection: close`).
fn serve_connection(shared: &HealthShared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 4096];
    let mut req = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                req.extend_from_slice(&buf[..n]);
                if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 16 * 1024 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&req);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/").split('?').next().unwrap_or("/");
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain", "GET only\n".into())
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                render_prometheus(&(shared.local_fn)()),
            ),
            "/health" => {
                let report = shared.state.lock().expect("health state").report.clone();
                (
                    if report.ok {
                        "200 OK"
                    } else {
                        "503 Service Unavailable"
                    },
                    "application/json",
                    report.to_json(),
                )
            }
            "/dashboard.json" => ("200 OK", "application/json", render_dashboard(shared)),
            _ => ("404 Not Found", "text/plain", "not found\n".into()),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Minimal HTTP/1.1 GET against an observer at `addr` (accepting the
/// `:port` localhost shorthand), returning the status code and body.
pub fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    let addr = match addr.strip_prefix(':') {
        Some(port) => format!("127.0.0.1:{port}"),
        None => addr.to_string(),
    };
    let mut stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("send to {addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Render the `/dashboard.json` document from shared state.
fn render_dashboard(shared: &HealthShared) -> String {
    let st = shared.state.lock().expect("health state");
    let series = &st.local.series;
    let span = series.span_of(usize::MAX);
    let window = Duration::from_secs(3600 * 24);
    let counters = series
        .counter_names()
        .into_iter()
        .map(|name| {
            let delta = series.counter_delta(&name, window).unwrap_or(0);
            let rate = series.rate(&name, window).unwrap_or(0.0);
            let points = series
                .rate_points(&name, 64)
                .into_iter()
                .map(|(ms, r)| format!("[{ms}, {}]", fmt_num((r * 1e3).round() / 1e3)))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "    {{\"name\": \"{}\", \"delta\": {delta}, \"rate\": {}, \"points\": [{points}]}}",
                escape_json(&name),
                fmt_num((rate * 1e3).round() / 1e3)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let gauges = series
        .gauge_names()
        .into_iter()
        .map(|name| {
            format!(
                "    {{\"name\": \"{}\", \"value\": {}}}",
                escape_json(&name),
                series.gauge_last(&name).unwrap_or(0)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let histograms = series
        .histogram_names()
        .into_iter()
        .map(|name| {
            let p50 = series.quantile(&name, 0.5, window);
            let p99 = series.quantile(&name, 0.99, window);
            format!(
                "    {{\"name\": \"{}\", \"p50\": {}, \"p99\": {}}}",
                escape_json(&name),
                p50.map(|v| v.to_string()).unwrap_or_else(|| "null".into()),
                p99.map(|v| v.to_string()).unwrap_or_else(|| "null".into())
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"span_secs\": {},\n  \"ticks\": {},\n  \"counters\": [\n{}\n  ],\n  \
         \"gauges\": [\n{}\n  ],\n  \"histograms\": [\n{}\n  ],\n  \"health\": {}}}\n",
        fmt_num((span.as_secs_f64() * 1e6).round() / 1e6),
        series.len(),
        counters,
        gauges,
        histograms,
        st.report.to_json().trim()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn slo_spec_parses_and_round_trips() {
        let spec =
            SloSpec::parse("ingest_lag<5000;e2e_p99<50ms;loss=0;budget=0.1;fast=5s;slow=20s")
                .unwrap();
        assert_eq!(spec.clauses.len(), 3);
        assert_eq!(spec.clauses[0].indicator, Indicator::IngestLag);
        assert_eq!(spec.clauses[0].op, SloOp::Lt);
        assert_eq!(spec.clauses[1].threshold, 50e6);
        assert_eq!(spec.clauses[2].op, SloOp::Eq);
        assert_eq!(spec.budget, 0.1);
        assert_eq!(spec.fast, Duration::from_secs(5));
        assert_eq!(spec.slow, Duration::from_secs(20));
        let again = SloSpec::parse(&spec.canonical()).unwrap();
        assert_eq!(again, spec);
    }

    #[test]
    fn slo_spec_generic_indicators() {
        let spec = SloSpec::parse(
            "p99(fsmon_store_append_ns)<=1ms;rate(fsmon_store_appends_total)>=10;\
             gauge(fsmon_backlog)<100;counter(fsmon_errors_total)=0",
        )
        .unwrap();
        assert_eq!(
            spec.clauses[0].indicator,
            Indicator::P99("fsmon_store_append_ns".into())
        );
        assert_eq!(spec.clauses[0].op, SloOp::Le);
        assert_eq!(
            spec.clauses[1].indicator,
            Indicator::Rate("fsmon_store_appends_total".into())
        );
        assert_eq!(spec.clauses[1].op, SloOp::Ge);
    }

    #[test]
    fn slo_spec_rejects_garbage() {
        assert!(SloSpec::parse("").is_err());
        assert!(SloSpec::parse("budget=0.5").is_err()); // no indicator clause
        assert!(SloSpec::parse("walrus<5").is_err());
        assert!(SloSpec::parse("loss").is_err());
        assert!(SloSpec::parse("loss=banana").is_err());
        assert!(SloSpec::parse("loss=0;budget=2").is_err());
        assert!(SloSpec::parse("loss=0;fast=10s;slow=1s").is_err());
    }

    #[test]
    fn burn_rate_alerts_after_both_windows_breach() {
        let spec = SloSpec::parse("gauge(t_depth)<10;budget=0.5;fast=2s;slow=4s").unwrap();
        let r = Registry::new();
        let g = r.scope("t").gauge("depth");
        let mut engine = ScopeEngine::new("local", 16, 1);
        let tick = Duration::from_secs(1);
        // Healthy ticks: no alert.
        g.set(1);
        for i in 0..4 {
            let (v, newly) = engine.tick(Some(&spec), i, tick, r.snapshot());
            assert!(!v[0].alerting, "tick {i}: {v:?}");
            assert!(newly.is_empty());
        }
        // Breach: gauge jumps over the threshold. With budget 0.5 the
        // fast window (2 ticks) fills after 1 breached tick; the slow
        // window (4 ticks) needs 2.
        g.set(50);
        let (v, newly) = engine.tick(Some(&spec), 10, tick, r.snapshot());
        assert!(v[0].breached);
        assert!(!v[0].alerting, "slow window not yet burned: {v:?}");
        assert!(newly.is_empty());
        let (v, newly) = engine.tick(Some(&spec), 11, tick, r.snapshot());
        assert!(v[0].alerting, "{v:?}");
        assert_eq!(newly, vec!["gauge(t_depth)<10".to_string()]);
        // Still alerting, but not "newly" any more.
        let (_, newly) = engine.tick(Some(&spec), 12, tick, r.snapshot());
        assert!(newly.is_empty());
        // Recovery: healthy ticks age the breach out of both windows.
        g.set(1);
        let mut cleared = false;
        for i in 13..20 {
            let (v, _) = engine.tick(Some(&spec), i, tick, r.snapshot());
            if !v[0].alerting {
                cleared = true;
            }
        }
        assert!(cleared);
    }

    #[test]
    fn report_json_round_trips() {
        let report = HealthReport {
            ready: true,
            ok: false,
            slo: Some("loss=0;budget=0.05;fast=30s;slow=300s".into()),
            verdicts: vec![ClauseVerdict {
                clause: "loss=0".into(),
                scope: "local".into(),
                value: Some(3.0),
                threshold: 0.0,
                breached: true,
                fast_burn: 2.5,
                slow_burn: 1.25,
                alerting: true,
            }],
            incidents: 2,
            crashes: 1,
        };
        let parsed = HealthReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn incident_bundle_round_trips_and_detects_corruption() {
        let r = Registry::new();
        r.scope("t").counter("ops_total").add(9);
        r.scope("t").histogram("lat_ns").record(12345);
        let snap = r.snapshot();
        let bundle = IncidentBundle {
            reason: "slo:loss=0".into(),
            unix_ms: 1_700_000_000_000,
            config: "mdts=4 cache=65536 \"quoted\"\npath=/x\\y".into(),
            slo: Some("loss=0;budget=0.05;fast=30s;slow=300s".into()),
            verdicts: vec![ClauseVerdict {
                clause: "loss=0".into(),
                scope: "fleet".into(),
                value: None,
                threshold: 0.0,
                breached: false,
                fast_burn: 0.0,
                slow_burn: 0.0,
                alerting: false,
            }],
            exemplar: Some(Exemplar {
                event_id: 42,
                mdt: 3,
                total_ns: 987654,
                stamps: [1, 2, 3, 4, 5, 6, 7],
            }),
            snapshots: vec![(1_699_999_999_000, snap.clone()), (1_700_000_000_000, snap)],
        };
        let text = bundle.encode();
        let back = IncidentBundle::decode(&text).unwrap();
        assert_eq!(back, bundle);
        // Any flipped byte in the body must fail the CRC check.
        let mut corrupt = text.clone().into_bytes();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x20;
        let corrupt = String::from_utf8_lossy(&corrupt).into_owned();
        assert!(IncidentBundle::decode(&corrupt).is_err());
        // A truncated trailer fails too.
        assert!(IncidentBundle::decode(text.split("# crc32").next().unwrap()).is_err());
    }

    #[test]
    fn monitor_ticks_serves_http_and_dumps_incidents() {
        let r = Registry::new();
        let c = r.scope("t").counter("flow_total");
        let g = r.scope("t").gauge("backlog");
        let dir = std::env::temp_dir().join(format!(
            "fsmon-health-test-{}-{}",
            std::process::id(),
            now_unix_ms()
        ));
        let reg = r.clone();
        let spec = SloSpec::parse("gauge(t_backlog)<10;budget=0.4;fast=100ms;slow=200ms").unwrap();
        let monitor = HealthMonitor::spawn(
            Arc::new(move || reg.snapshot()),
            None,
            HealthOptions {
                spec: Some(spec),
                tick: Duration::from_millis(25),
                window_ticks: 64,
                recorder_depth: 4,
                http_addr: Some(":0".into()),
                incident_dir: Some(dir.clone()),
                config_desc: "unit-test".into(),
            },
        )
        .unwrap();
        let addr = monitor.http_addr().expect("bound").to_string();
        // Healthy traffic for a few ticks.
        g.set(1);
        for _ in 0..6 {
            c.add(10);
            std::thread::sleep(Duration::from_millis(25));
        }
        let (status, body) = http_get(&addr, "/metrics").unwrap();
        assert_eq!(status, 200, "{body}");
        let parsed = crate::export::parse_prometheus(&body).unwrap();
        assert!(parsed.counter("t_flow_total") > 0);
        let (status, body) = http_get(&addr, "/health").unwrap();
        assert_eq!(status, 200, "{body}");
        let report = HealthReport::from_json(&body).unwrap();
        assert!(report.ready && report.ok, "{report}");
        let (status, body) = http_get(&addr, "/dashboard.json").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"t_flow_total\""), "{body}");
        let (status, _) = http_get(&addr, "/nope").unwrap();
        assert_eq!(status, 404);
        // Now breach the SLO long enough to burn both windows.
        g.set(100);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let report = monitor.report();
            if report.incidents >= 1 && !report.ok {
                break;
            }
            assert!(Instant::now() < deadline, "no breach: {report}");
            std::thread::sleep(Duration::from_millis(20));
        }
        let (status, _) = http_get(&addr, "/health").unwrap();
        assert_eq!(status, 503);
        // A crash note dumps another bundle.
        monitor.note_crash("mdt0 restart");
        monitor.stop();
        let mut bundles: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        bundles.sort();
        assert!(bundles.len() >= 2, "{bundles:?}");
        let decoded =
            IncidentBundle::decode(&std::fs::read_to_string(&bundles[0]).unwrap()).unwrap();
        assert!(decoded.reason.starts_with("slo:"), "{}", decoded.reason);
        assert!(!decoded.snapshots.is_empty());
        assert!(decoded.verdicts.iter().any(|v| v.breached || v.alerting));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
