#![warn(missing_docs)]

//! # fsmon-telemetry
//!
//! Pipeline-wide observability for FSMonitor, dependency-free and
//! std-only. Every layer of the monitoring pipeline — DSI extraction,
//! resolution, the Lustre collector/aggregator, the message queue, the
//! durable store, and consumer delivery — reports into one process-wide
//! [`Registry`] through cheap atomic instruments:
//!
//! * [`Counter`] — striped, cache-padded monotonic counts (a hot-path
//!   increment is one relaxed `fetch_add`, no lock, no allocation);
//! * [`Gauge`] — instantaneous signed values (queue depths, lag);
//! * [`Histogram`] — log-bucketed distributions for latencies and
//!   batch sizes, with mergeable [`HistogramSnapshot`]s.
//!
//! Naming goes through [`Scope`], which builds `fsmon_<layer>_<name>`
//! identifiers and label sets (`mdt="3"`, `transport="tcp"`). The
//! cold path — [`Registry::snapshot`] — produces a [`Snapshot`] that
//! merges associatively across processes/shards, diffs for windowed
//! rates, and renders to Prometheus text format or JSON (both
//! round-trip through the bundled parsers; [`json`] is the workspace's
//! one JSON codec). A [`Reporter`] thread
//! periodically feeds snapshots to a callback for live stats output.
//!
//! ```
//! use fsmon_telemetry as telemetry;
//!
//! // A layer grabs its instruments once (cold) …
//! let store = telemetry::root().scope("store");
//! let appends = store.counter("appends_total");
//! let latency = store.histogram("append_ns");
//! // … and updates them on the hot path (lock-free).
//! appends.inc();
//! latency.record(230);
//!
//! // The surface: snapshot, inspect, export.
//! let snap = telemetry::global().snapshot();
//! assert!(snap.counter("fsmon_store_appends_total") >= 1);
//! let text = telemetry::export::render_prometheus(&snap);
//! let back = telemetry::export::parse_prometheus(&text).unwrap();
//! assert_eq!(back.counter("fsmon_store_appends_total"),
//!            snap.counter("fsmon_store_appends_total"));
//! ```

pub mod export;
pub mod health;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod reporter;
pub mod series;
pub mod snapshot;
pub mod trace;

pub use health::{
    HealthMonitor, HealthOptions, HealthReport, IncidentBundle, SloClause, SloSpec, SloSpecError,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HistogramTimer};
pub use registry::{global, root, MetricId, Registry, Scope};
pub use reporter::Reporter;
pub use series::SeriesStore;
pub use snapshot::{MetricValue, Snapshot};
pub use trace::{ClockFn, TraceRecord, TraceStage, Tracer, TRACE_RECORD_BYTES, TRACE_STAGES};
