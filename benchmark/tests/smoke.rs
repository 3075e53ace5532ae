//! The measuring code end to end, at 1/20 size: every workload's plain
//! run yields every end-to-end metric as a non-zero number, its traced
//! run yields every per-layer metric and a trace whose self times add
//! up, and nothing fails a correctness check.

use fsmon_benchmark::report::Report;
use fsmon_benchmark::run::{self, Options};
use fsmon_benchmark::spec::{self, END_TO_END, PER_LAYER};
use fsmon_benchmark::walk;

fn options(trace: bool, tag: &str) -> Options {
    Options {
        seed: 11,
        seconds: 1.0,
        trace,
        shrink: 20,
        out_dir: std::env::temp_dir()
            .join(format!("fsmon-benchmark-test-{}-{tag}", std::process::id())),
    }
}

#[test]
fn plain_runs_report_every_end_to_end_metric() {
    // Tests share the process-wide telemetry registry and the two
    // cores; one test walks the workloads in turn.
    let opts = options(false, "plain");
    for w in spec::workloads() {
        let measured = run::run(&w, &opts);
        assert_eq!(
            measured.tally.failed, 0,
            "{}: {:?}",
            w.name, measured.tally.notes
        );
        let report = Report::end_to_end(&measured);
        assert!(report.correct(), "{}", w.name);
        assert_eq!(report.metrics.len(), END_TO_END.len());
        for (name, value, _, _) in &report.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                w.name
            );
        }
        let line =
            fsmon_benchmark::json::parse(&report.result_line()).expect("result line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
    let _ = std::fs::remove_dir_all(&opts.out_dir);
}

#[test]
fn traced_run_reports_every_layer_and_a_consistent_trace() {
    let opts = options(true, "traced");
    let w = spec::workload("drain_fanout").unwrap();
    let measured = run::run(&w, &opts);
    assert_eq!(measured.tally.failed, 0, "{:?}", measured.tally.notes);
    let scratch = opts.out_dir.join("walk");
    std::fs::create_dir_all(&scratch).unwrap();
    let walked = walk::walk(&w, &opts, &scratch);
    let report = Report::per_layer(&measured, &walked);
    assert_eq!(report.metrics.len(), PER_LAYER.len());
    for (name, value, _, _) in &report.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
    let value_of = |name: &str| report.metrics.iter().find(|m| m.0 == name).unwrap().1;
    assert!(value_of("events.wire_encode_ns_per_event") > 0.0);
    assert!(
        value_of("lustre-dsi.fanout_frames") > 0.0,
        "fan-out classes were attached"
    );
    assert!(
        value_of("telemetry.trace_records") > 0.0,
        "the traced drain sampled events"
    );
    assert!(value_of("ledger.serial_ns_per_event") > 0.0);
    assert_eq!(value_of("lustre-dsi.aggregator_decode_errors"), 0.0);

    // Self times add up to the root spans' durations: nothing is
    // counted twice, nothing is lost.
    let spans = walked.log.spans();
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum();
    let selves: u64 = walked.log.self_times().values().map(|t| t.self_ns).sum();
    assert_eq!(roots, selves);
    assert!(walked.events > 0 && walked.batches > 0);
    let _ = std::fs::remove_dir_all(&opts.out_dir);
}
