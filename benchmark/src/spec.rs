//! The benchmark's fixed vocabulary: six workloads and the metric
//! names, units, directions and bounds later issues cite verbatim.
//! `BENCHMARK.json` at the repository root is generated from these
//! tables (`fsmon-benchmark --emit-benchmark-json`) and a test keeps
//! the two identical.

use crate::gen::Script;
use crate::json::Value;
use fsmon_lustre::Transport;
use fsmon_store::Durability;

/// One workload: a pipeline configuration plus an input shape. Every
/// run takes a workload through the same three measured phases
/// (backlog drain, paced live traffic, read-back), so every
/// end-to-end metric is defined on every workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name cited by issues and printed in results.
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
    /// MDTs (one collector each).
    pub mdts: u16,
    /// Aggregator shards (K).
    pub shards: usize,
    /// Stage transport.
    pub transport: Transport,
    /// Keep the AWS profile's `fid2path` wait (`CostModel::WaitNs`);
    /// operation costs are `Free` either way.
    pub fid2path_wait: bool,
    /// Collector `fid2path` cache entries.
    pub cache: usize,
    /// Live files (Churn) or project directories (Build) per MDT.
    pub working_set: usize,
    /// Backlog script.
    pub script: Script,
    /// Store flush policy (every store is a `FileStore`).
    pub durability: Durability,
    /// Store group-commit cap; `None` keeps the default.
    pub group_max: Option<usize>,
    /// Store segment roll threshold; `None` keeps the default.
    pub segment_bytes: Option<u64>,
    /// Attach the 8 filter classes (one ring subscriber each) and a
    /// second socket subscriber.
    pub fanout: bool,
    /// Backlog script records per MDT and repetition.
    pub records_per_mdt: u64,
    /// Drain repetitions per 10 s of `--seconds`.
    pub drain_reps: usize,
}

/// The six workloads, in the order they run.
pub fn workloads() -> Vec<Workload> {
    let hot = Workload {
        name: "drain_hot",
        why: "closed backlog drain with every simulator cost Free and a cache larger than the working set: only our own code costs anything",
        mdts: 2,
        shards: 1,
        transport: Transport::Inproc,
        fid2path_wait: false,
        cache: 5000,
        working_set: 4096,
        script: Script::Churn,
        durability: Durability::None,
        group_max: None,
        segment_bytes: None,
        fanout: false,
        records_per_mdt: 100_000,
        drain_reps: 5,
    };
    vec![
        hot.clone(),
        Workload {
            name: "drain_resolve",
            why: "the paper's regime: the AWS fid2path wait kept and cache 1024 against 8192 live files per MDT, so resolution dominates and codec, mq and store do little",
            fid2path_wait: true,
            cache: 1024,
            working_set: 8192,
            records_per_mdt: 24_000,
            drain_reps: 3,
            ..hot.clone()
        },
        Workload {
            name: "drain_fanout",
            why: "drain_hot plus 8 filter classes at 100/10/1/0.1% selectivity with ring and socket subscribers: match, slice and per-class rings do visible work",
            fanout: true,
            records_per_mdt: 80_000,
            drain_reps: 5,
            ..hot.clone()
        },
        Workload {
            name: "drain_durable",
            why: "4 MDTs over 2 aggregator shards with fsync on every one-event group commit: the K>1 path is on and the fsync chain is the bottleneck",
            mdts: 4,
            shards: 2,
            working_set: 1024,
            durability: Durability::EveryBatch,
            group_max: Some(1),
            records_per_mdt: 3_000,
            drain_reps: 4,
            ..hot.clone()
        },
        Workload {
            name: "live_paced",
            why: "the deployment shape: TCP between stages, the AWS fid2path wait and the default cache, so the TCP hop and poll timers show in delivery latency",
            transport: Transport::Tcp,
            fid2path_wait: true,
            working_set: 2048,
            records_per_mdt: 40_000,
            drain_reps: 4,
            ..hot.clone()
        },
        Workload {
            name: "replay_query",
            why: "read side: a namespace-building script leaves a populated index and a store of many small segments, so get_since, index fold and queries do real work",
            working_set: 48,
            script: Script::Build,
            segment_bytes: Some(1 << 20),
            records_per_mdt: 80_000,
            drain_reps: 3,
            ..hot
        },
    ]
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is a regression.
    pub bound: f64,
}

/// The end-to-end metrics, every one reported by every workload.
/// `failed_ratio` is not among them because it is 0 on a correct run;
/// it travels as `failed` / `attempted` in the result line.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_event",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "idle_latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "idle_latency_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "filtered_latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "replay_events_per_s",
        unit: "events/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "index_fold_events_per_s",
        unit: "events/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "index_query_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "index_query_p90_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric (layer = crate): reported by the traced run, no
/// bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, every one reported by every traced run (a
/// layer a workload does not exercise reports 0).
pub const PER_LAYER: &[PerLayer] = &[
    // lustre-sim: the substrate, reported so it can be subtracted.
    pl("lustre-sim.read_changelog_ns_per_record", "ns", "lower"),
    pl("lustre-sim.fid2path_calls", "count", "lower"),
    pl("lustre-sim.fid2path_wait_ms", "ms", "lower"),
    pl("lustre-sim.gen_op_max_ms", "ms", "lower"),
    // events
    pl("events.translate_ns_per_record", "ns", "lower"),
    pl("events.wire_encode_ns_per_event", "ns", "lower"),
    pl("events.wire_decode_ns_per_event", "ns", "lower"),
    pl("events.patch_id_ns_per_event", "ns", "lower"),
    pl("events.wire_bytes_per_event", "bytes", "lower"),
    // core
    pl("core.lru_hit_ns", "ns", "lower"),
    pl("core.lru_miss_insert_ns", "ns", "lower"),
    pl("core.cache_hit_ratio", "ratio", "higher"),
    pl("core.filter_eval_ns_per_event", "ns", "lower"),
    pl("core.merge_ns_per_event", "ns", "lower"),
    // lustre-dsi: busy
    pl("lustre-dsi.collector_process_ns_per_record", "ns", "lower"),
    pl("lustre-dsi.collector_step_ns_per_record", "ns", "lower"),
    pl("lustre-dsi.collector_busy_share", "ratio", "lower"),
    pl("lustre-dsi.fanout_ns_per_event", "ns", "lower"),
    // lustre-dsi: waiting
    pl("lustre-dsi.collector_backlog_peak", "count", "lower"),
    pl("lustre-dsi.stage_resolve_p50_us", "us", "lower"),
    pl("lustre-dsi.stage_resolve_p99_us", "us", "lower"),
    pl("lustre-dsi.stage_publish_p50_us", "us", "lower"),
    pl("lustre-dsi.stage_publish_p99_us", "us", "lower"),
    pl("lustre-dsi.stage_ingest_p50_us", "us", "lower"),
    pl("lustre-dsi.stage_ingest_p99_us", "us", "lower"),
    pl("lustre-dsi.stage_sequence_p50_us", "us", "lower"),
    pl("lustre-dsi.stage_sequence_p99_us", "us", "lower"),
    pl("lustre-dsi.stage_store_commit_p50_us", "us", "lower"),
    pl("lustre-dsi.stage_store_commit_p99_us", "us", "lower"),
    pl("lustre-dsi.stage_deliver_p50_us", "us", "lower"),
    pl("lustre-dsi.stage_deliver_p99_us", "us", "lower"),
    pl("lustre-dsi.stage_sum_over_e2e", "ratio", "higher"),
    // lustre-dsi: counts
    pl("lustre-dsi.aggregator_received", "count", "higher"),
    pl("lustre-dsi.aggregator_published", "count", "higher"),
    pl("lustre-dsi.aggregator_stored", "count", "higher"),
    pl("lustre-dsi.aggregator_dedup_dropped", "count", "lower"),
    pl("lustre-dsi.aggregator_decode_errors", "count", "lower"),
    pl("lustre-dsi.aggregator_lane_restarts", "count", "lower"),
    pl("lustre-dsi.fanout_frames", "count", "lower"),
    pl("lustre-dsi.fanout_stalls", "count", "lower"),
    pl("lustre-dsi.fanout_degraded", "count", "lower"),
    pl("lustre-dsi.fanout_shed", "count", "lower"),
    pl("lustre-dsi.consumer_recv_calls", "count", "lower"),
    pl("lustre-dsi.consumer_events_per_recv", "events", "higher"),
    pl("lustre-dsi.consumer_gaps_detected", "count", "lower"),
    pl("lustre-dsi.consumer_gap_events_healed", "count", "lower"),
    pl("lustre-dsi.consumer_duplicates_dropped", "count", "lower"),
    pl("lustre-dsi.consumer_reconnects", "count", "lower"),
    pl("lustre-dsi.supervisor_restarts", "count", "lower"),
    // mq
    pl("mq.inproc_hop_ns_per_msg", "ns", "lower"),
    pl("mq.tcp_hop_ns_per_msg", "ns", "lower"),
    pl("mq.tcp_frames", "count", "lower"),
    pl("mq.bytes_moved", "bytes", "lower"),
    pl("mq.hwm_dropped", "count", "lower"),
    pl("mq.publish_stalls", "count", "lower"),
    pl("mq.slow_subscriber_disconnects", "count", "lower"),
    // store
    pl("store.append_ns_per_event", "ns", "lower"),
    pl("store.append_fsync_us_per_batch", "us", "lower"),
    pl("store.fsyncs", "count", "lower"),
    pl("store.segment_rolls", "count", "lower"),
    pl("store.append_retries", "count", "lower"),
    pl("store.commit_lag_ms", "ms", "lower"),
    pl("store.get_since_ns_per_event", "ns", "lower"),
    pl("store.resident_bytes", "bytes", "lower"),
    pl("store.retained", "count", "lower"),
    // rules
    pl("rules.match_ns_per_event", "ns", "lower"),
    pl("rules.matches_per_event", "ratio", "higher"),
    pl("rules.index_build_us", "us", "lower"),
    // index
    pl("index.ingest_ns_per_event", "ns", "lower"),
    pl("index.find_p50_us", "us", "lower"),
    pl("index.du_p50_us", "us", "lower"),
    pl("index.policy_eval_ms", "ms", "lower"),
    pl("index.entries", "count", "lower"),
    pl("index.resident_bytes", "bytes", "lower"),
    pl("index.snapshot_save_ms", "ms", "lower"),
    pl("index.snapshot_bytes", "bytes", "lower"),
    pl("index.rebuilds", "count", "lower"),
    // telemetry
    pl("telemetry.counter_inc_ns", "ns", "lower"),
    pl("telemetry.snapshot_us", "us", "lower"),
    pl("telemetry.trace_records", "count", "higher"),
    pl("telemetry.trace_overhead_pct", "%", "lower"),
    // gen: the benchmark itself — explains noise, never a claim.
    pl("gen.late_p99_ms", "ms", "lower"),
    pl("gen.late_max_ms", "ms", "lower"),
    pl("gen.rep_spread_pct", "%", "lower"),
    pl("gen.latency_p99_ms", "ms", "lower"),
    pl("gen.idle_latency_p99_ms", "ms", "lower"),
    // ledger: layer self times reconciled against threaded CPU.
    pl("ledger.serial_ns_per_event", "ns", "lower"),
    pl("ledger.threaded_cpu_ns_per_event", "ns", "lower"),
    pl("ledger.unattributed_pct", "%", "lower"),
];

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 16;

/// The `BENCHMARK.json` document these tables describe.
pub fn benchmark_json() -> Value {
    Value::obj(vec![
        (
            "command",
            Value::Arr(vec![Value::str("bash"), Value::str("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                workloads()
                    .iter()
                    .map(|w| {
                        Value::obj(vec![
                            ("name", Value::str(w.name)),
                            ("why", Value::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better)),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        let ws = workloads();
        assert!((2..=8).contains(&ws.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names = std::collections::BTreeSet::new();
        for w in &ws {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().to_pretty().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            crate::json::parse(&text).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with `benchmark/run.sh --emit-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn readme_names_every_workload_and_metric() {
        let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
            .expect("benchmark/README.md");
        for w in workloads() {
            assert!(readme.contains(w.name), "README lacks workload {}", w.name);
        }
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(readme.contains(name), "README lacks metric {name}");
        }
    }
}
