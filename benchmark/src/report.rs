//! Turning what a run measured into named metrics, the result line
//! and the files under `benchmark/out/`.

use crate::json::Value;
use crate::run::{end_to_end, rep_spread_pct, Measured, PacedRep};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile_sorted, sorted};
use crate::walk::{Walked, BATCH_PATH};
use fsmon_telemetry::{HistogramSnapshot, MetricValue, Snapshot, TraceStage};
use std::collections::BTreeMap;

/// `fsmon_trace_stage_ns{stage=…}` merged across MDT label sets.
fn stage_histogram(delta: &Snapshot, stage: TraceStage) -> Option<HistogramSnapshot> {
    let mut merged: Option<HistogramSnapshot> = None;
    for (id, value) in &delta.metrics {
        let MetricValue::Histogram(h) = value else {
            continue;
        };
        let is_stage = id.name == "fsmon_trace_stage_ns"
            && id
                .labels
                .iter()
                .any(|(k, v)| k == "stage" && v == stage.name());
        if is_stage && h.count() > 0 {
            match &mut merged {
                None => merged = Some(h.clone()),
                Some(m) => m.merge(h),
            }
        }
    }
    merged
}

/// p99 over the pooled samples of every repetition's segment.
fn p99_ms(m: &Measured, pick: fn(&PacedRep) -> &Vec<f64>) -> f64 {
    let v: Vec<f64> = m
        .paced
        .reps
        .iter()
        .flat_map(|rep| pick(rep).clone())
        .collect();
    if v.is_empty() {
        0.0
    } else {
        percentile_sorted(&sorted(&v), 0.99)
    }
}

/// Every per-layer metric of [`PER_LAYER`], by name. The per-event
/// `*_ns_*` figures are self times from the serial walk; counts and
/// stage waits come from the threaded (traced) run.
pub fn per_layer(m: &Measured, walked: &Walked) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let events = walked.events.max(1) as f64;
    let records = walked.records.max(1) as f64;
    let batches = walked.batches.max(1) as f64;
    let delta = m.traced_delta.clone().unwrap_or_default();
    let c = &m.last;

    out.insert(
        "lustre-sim.read_changelog_ns_per_record",
        walked.self_ns("lustre-sim.read_changelog") / records,
    );
    out.insert("lustre-sim.fid2path_calls", c.fid2path_calls as f64);
    out.insert(
        "lustre-sim.fid2path_wait_ms",
        delta
            .histogram("fsmon_fid2path_resolve_ns")
            .map_or(0.0, |h| h.mean() * h.count() as f64 / 1e6),
    );
    out.insert("lustre-sim.gen_op_max_ms", c.gen_op_max_ms);

    out.insert("events.translate_ns_per_record", walked.translate_ns);
    out.insert(
        "events.wire_encode_ns_per_event",
        walked.self_ns("events.wire_encode") / events,
    );
    // Two decodes per event on the path: aggregator side, consumer side.
    out.insert(
        "events.wire_decode_ns_per_event",
        walked.self_ns("events.wire_decode") / (2.0 * events),
    );
    out.insert(
        "events.patch_id_ns_per_event",
        walked.self_ns("events.patch_id") / events,
    );
    out.insert(
        "events.wire_bytes_per_event",
        walked.wire_bytes as f64 / events,
    );

    out.insert("core.lru_hit_ns", walked.lru_hit_ns);
    out.insert("core.lru_miss_insert_ns", walked.lru_miss_insert_ns);
    out.insert("core.cache_hit_ratio", c.cache_hit_ratio);
    out.insert("core.filter_eval_ns_per_event", walked.filter_eval_ns);
    out.insert("core.merge_ns_per_event", walked.merge_ns);

    out.insert(
        "lustre-dsi.collector_process_ns_per_record",
        walked.self_ns("lustre-dsi.collector_process") / records,
    );
    out.insert(
        "lustre-dsi.collector_step_ns_per_record",
        c.collector_step_ns_per_record,
    );
    out.insert("lustre-dsi.collector_busy_share", c.collector_busy_share);
    out.insert(
        "lustre-dsi.fanout_ns_per_event",
        walked.self_ns("lustre-dsi.fanout") / events,
    );
    out.insert("lustre-dsi.collector_backlog_peak", c.backlog_peak as f64);
    let stage_names: [(&TraceStage, [&'static str; 2]); 6] = [
        (
            &TraceStage::Resolve,
            [
                "lustre-dsi.stage_resolve_p50_us",
                "lustre-dsi.stage_resolve_p99_us",
            ],
        ),
        (
            &TraceStage::Publish,
            [
                "lustre-dsi.stage_publish_p50_us",
                "lustre-dsi.stage_publish_p99_us",
            ],
        ),
        (
            &TraceStage::Ingest,
            [
                "lustre-dsi.stage_ingest_p50_us",
                "lustre-dsi.stage_ingest_p99_us",
            ],
        ),
        (
            &TraceStage::Sequence,
            [
                "lustre-dsi.stage_sequence_p50_us",
                "lustre-dsi.stage_sequence_p99_us",
            ],
        ),
        (
            &TraceStage::StoreCommit,
            [
                "lustre-dsi.stage_store_commit_p50_us",
                "lustre-dsi.stage_store_commit_p99_us",
            ],
        ),
        (
            &TraceStage::Deliver,
            [
                "lustre-dsi.stage_deliver_p50_us",
                "lustre-dsi.stage_deliver_p99_us",
            ],
        ),
    ];
    let mut stage_mean_sum = 0.0;
    for (stage, [p50, p99]) in stage_names {
        let h = stage_histogram(&delta, *stage);
        out.insert(
            p50,
            h.as_ref().map_or(0.0, |h| h.quantile(0.5) as f64 / 1e3),
        );
        out.insert(
            p99,
            h.as_ref().map_or(0.0, |h| h.quantile(0.99) as f64 / 1e3),
        );
        // Store commit runs beside delivery, not before it: it is not
        // a term of the read → deliver sum.
        if *stage != TraceStage::StoreCommit {
            stage_mean_sum += h.as_ref().map_or(0.0, HistogramSnapshot::mean);
        }
    }
    let e2e_mean = delta
        .histogram("fsmon_trace_e2e_ns")
        .map_or(0.0, |h| h.mean());
    out.insert(
        "lustre-dsi.stage_sum_over_e2e",
        if e2e_mean > 0.0 {
            stage_mean_sum / e2e_mean
        } else {
            0.0
        },
    );
    out.insert(
        "lustre-dsi.aggregator_received",
        c.aggregator.received as f64,
    );
    out.insert(
        "lustre-dsi.aggregator_published",
        c.aggregator.published as f64,
    );
    out.insert("lustre-dsi.aggregator_stored", c.aggregator.stored as f64);
    out.insert(
        "lustre-dsi.aggregator_dedup_dropped",
        c.aggregator.dedup_dropped as f64,
    );
    out.insert(
        "lustre-dsi.aggregator_decode_errors",
        c.aggregator.decode_errors as f64,
    );
    out.insert(
        "lustre-dsi.aggregator_lane_restarts",
        c.aggregator.lane_restarts as f64,
    );
    out.insert("lustre-dsi.fanout_frames", c.fanout_frames as f64);
    out.insert("lustre-dsi.fanout_stalls", c.fanout_stalls as f64);
    out.insert("lustre-dsi.fanout_degraded", c.fanout_degraded as f64);
    out.insert("lustre-dsi.fanout_shed", c.fanout_shed as f64);
    out.insert("lustre-dsi.consumer_recv_calls", c.recv_calls as f64);
    out.insert("lustre-dsi.consumer_events_per_recv", c.events_per_recv);
    out.insert(
        "lustre-dsi.consumer_gaps_detected",
        c.recovery.gaps_detected as f64,
    );
    out.insert(
        "lustre-dsi.consumer_gap_events_healed",
        c.recovery.gap_events_healed as f64,
    );
    out.insert(
        "lustre-dsi.consumer_duplicates_dropped",
        c.recovery.duplicates_dropped as f64,
    );
    out.insert(
        "lustre-dsi.consumer_reconnects",
        c.recovery.reconnects as f64,
    );
    out.insert(
        "lustre-dsi.supervisor_restarts",
        c.supervisor_restarts as f64,
    );

    out.insert(
        "mq.inproc_hop_ns_per_msg",
        walked.self_ns("mq.inproc_hop") / batches,
    );
    out.insert("mq.tcp_hop_ns_per_msg", walked.tcp_hop_ns);
    out.insert(
        "mq.tcp_frames",
        delta.counter("fsmon_mq_tcp_frames_total") as f64,
    );
    // Computed, not measured: every event crosses two hops
    // (collector → aggregator, aggregator → consumer) at its wire size.
    out.insert(
        "mq.bytes_moved",
        2.0 * c.aggregator.received as f64 * walked.wire_bytes as f64 / events,
    );
    out.insert(
        "mq.hwm_dropped",
        delta.counter("fsmon_mq_hwm_dropped_total") as f64,
    );
    out.insert(
        "mq.publish_stalls",
        delta.counter("fsmon_mq_publish_stalls_total") as f64,
    );
    out.insert(
        "mq.slow_subscriber_disconnects",
        delta.counter("fsmon_mq_slow_subscriber_disconnects_total") as f64,
    );

    out.insert(
        "store.append_ns_per_event",
        walked.self_ns("store.append") / events,
    );
    out.insert("store.append_fsync_us_per_batch", walked.append_fsync_us);
    out.insert(
        "store.fsyncs",
        delta.counter("fsmon_store_fsyncs_total") as f64,
    );
    out.insert(
        "store.segment_rolls",
        delta.counter("fsmon_store_segment_rolls_total") as f64,
    );
    out.insert(
        "store.append_retries",
        delta.counter("fsmon_aggregator_store_retries_total") as f64,
    );
    out.insert("store.commit_lag_ms", c.commit_lag_ms);
    out.insert(
        "store.get_since_ns_per_event",
        walked.self_ns("store.get_since") / events,
    );
    out.insert("store.resident_bytes", c.store_resident_bytes as f64);
    out.insert("store.retained", c.store_retained as f64);

    out.insert("rules.match_ns_per_event", walked.match_ns);
    out.insert("rules.matches_per_event", walked.matches_per_event);
    out.insert("rules.index_build_us", walked.index_build_us);

    out.insert(
        "index.ingest_ns_per_event",
        walked.self_ns("index.ingest") / events,
    );
    out.insert("index.find_p50_us", walked.find_p50_us);
    out.insert("index.du_p50_us", walked.du_p50_us);
    out.insert("index.policy_eval_ms", walked.policy_eval_ms);
    out.insert("index.entries", walked.index_entries as f64);
    out.insert("index.resident_bytes", walked.index_resident_bytes as f64);
    out.insert("index.snapshot_save_ms", walked.snapshot_save_ms);
    out.insert("index.snapshot_bytes", walked.snapshot_bytes as f64);
    out.insert("index.rebuilds", m.readback.index_rebuilds as f64);

    out.insert("telemetry.counter_inc_ns", walked.counter_inc_ns);
    out.insert("telemetry.snapshot_us", walked.snapshot_us);
    out.insert(
        "telemetry.trace_records",
        delta.counter("fsmon_trace_records_total") as f64,
    );
    let untraced = median(&m.events_per_s);
    out.insert(
        "telemetry.trace_overhead_pct",
        if m.traced_events_per_s.is_empty() {
            0.0
        } else {
            (untraced - median(&m.traced_events_per_s)) / untraced * 100.0
        },
    );

    let late = sorted(&m.paced.late_ms);
    out.insert(
        "gen.late_p99_ms",
        if late.is_empty() {
            0.0
        } else {
            percentile_sorted(&late, 0.99)
        },
    );
    out.insert("gen.late_max_ms", late.last().copied().unwrap_or(0.0));
    out.insert("gen.rep_spread_pct", rep_spread_pct(m));
    out.insert("gen.latency_p99_ms", p99_ms(m, |r| &r.busy));
    out.insert("gen.idle_latency_p99_ms", p99_ms(m, |r| &r.idle));

    let serial = walked.serial_ns_per_event();
    let threaded = median(&m.cpu_us_per_event) * 1e3;
    out.insert("ledger.serial_ns_per_event", serial);
    out.insert("ledger.threaded_cpu_ns_per_event", threaded);
    out.insert(
        "ledger.unattributed_pct",
        (threaded - serial) / threaded * 100.0,
    );
    out
}

/// Self time per batch-path layer, ns per event, in pipeline order.
pub fn self_time_table(walked: &Walked) -> Vec<(&'static str, f64, u64)> {
    let times = walked.log.self_times();
    BATCH_PATH
        .iter()
        .map(|name| {
            let t = times.get(name).copied().unwrap_or_default();
            (
                *name,
                t.self_ns as f64 / walked.events.max(1) as f64,
                t.calls,
            )
        })
        .collect()
}

/// One metric of the result line: `{"value": v, "unit": u}`.
fn metric(value: f64, unit: &str) -> Value {
    Value::obj(vec![
        ("value", Value::Num(value)),
        ("unit", Value::str(unit)),
    ])
}

/// A finished run, ready to print.
pub struct Report {
    /// Metric name → (value, unit, note), in table order.
    pub metrics: Vec<(&'static str, f64, &'static str, String)>,
    /// Checks attempted.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
}

impl Report {
    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(m: &Measured) -> Report {
        let mut values = end_to_end(m);
        Report {
            metrics: END_TO_END
                .iter()
                .map(|spec| {
                    let (value, note) = values
                        .remove(spec.name)
                        .expect("every end-to-end metric is measured");
                    (spec.name, value, spec.unit, note)
                })
                .collect(),
            attempted: m.tally.attempted,
            failed: m.tally.failed,
        }
    }

    /// The per-layer metrics of a traced run.
    pub fn per_layer(m: &Measured, walked: &Walked) -> Report {
        let mut values = per_layer(m, walked);
        Report {
            metrics: PER_LAYER
                .iter()
                .map(|spec| {
                    let value = values
                        .remove(spec.name)
                        .expect("every per-layer metric is measured");
                    (spec.name, value, spec.unit, String::new())
                })
                .collect(),
            attempted: m.tally.attempted,
            failed: m.tally.failed,
        }
    }

    /// Whether every check passed and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _, _)| v.is_finite())
    }

    /// `{"<name>": {"value": v, "unit": u}, …}` in table order.
    pub fn metrics_json(&self) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|(name, value, unit, _)| (name.to_string(), metric(*value, unit)))
                .collect(),
        )
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        Value::obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .to_line()
    }
}
