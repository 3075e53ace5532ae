//! End-to-end conservation of the telemetry counters: one workload
//! through the full Lustre pipeline, and every stage's counters must
//! agree — records read == events standardized == aggregator received
//! == published == stored == store appends == consumer delivered.
//!
//! All assertions live in a single `#[test]` because the telemetry
//! registry is process-wide: a second concurrently-running pipeline in
//! this binary would fold into the same window.

use fsmon_lustre::{ScalableConfig, ScalableMonitor};
use fsmon_telemetry::global;
use lustre_sim::{LustreConfig, LustreFs};
use std::time::{Duration, Instant};

#[test]
fn counters_conserve_across_the_pipeline() {
    let before = global().snapshot();

    let fs = LustreFs::new(LustreConfig::small());
    let monitor = ScalableMonitor::start(&fs, ScalableConfig::default()).unwrap();
    let client = fs.client();
    let n = 300u64;
    for i in 0..n {
        client.create(&format!("/c{i}")).unwrap();
    }
    assert!(monitor.wait_events(n, Duration::from_secs(10)));

    // Drain the consumer so delivered_total reaches the full count.
    let mut delivered = 0u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while delivered < n && Instant::now() < deadline {
        delivered += monitor
            .consumer()
            .recv_batch(4096, Duration::from_millis(200))
            .len() as u64;
    }
    assert_eq!(delivered, n, "consumer drained everything");
    monitor.stop();

    let delta = global().snapshot().delta_from(&before);

    // Conservation along the pipeline: nothing lost, nothing invented.
    assert_eq!(delta.counter("fsmon_collector_records_total"), n);
    assert_eq!(delta.counter("fsmon_collector_events_total"), n);
    assert_eq!(delta.counter("fsmon_aggregator_received_total"), n);
    assert_eq!(delta.counter("fsmon_aggregator_published_total"), n);
    // stop() joins the store lane after it drains its queue.
    assert_eq!(delta.counter("fsmon_aggregator_stored_total"), n);
    assert_eq!(delta.counter("fsmon_store_appends_total"), n);
    assert_eq!(delta.counter("fsmon_consumer_delivered_total"), n);

    // No losses or junk anywhere on the way.
    assert_eq!(delta.counter("fsmon_aggregator_decode_errors_total"), 0);
    assert_eq!(delta.counter("fsmon_mq_hwm_dropped_total"), 0);
    assert_eq!(delta.counter("fsmon_mq_malformed_frames_total"), 0);
    // The aggregator was subscribed before the first collector step.
    assert_eq!(delta.counter("fsmon_collector_held_steps_total"), 0);
    assert_eq!(delta.counter("fsmon_consumer_filtered_total"), 0);

    // Message-level and cache-level activity happened.
    assert!(delta.counter("fsmon_mq_published_total") > 0);
    let calls = delta.counter("fsmon_fid2path_calls_total");
    let hits = delta.counter("fsmon_fid2path_hits_total");
    let misses = delta.counter("fsmon_fid2path_misses_total");
    assert!(calls > 0);
    assert!(hits + misses > 0, "cache saw traffic");
    // Every miss invokes the tool; direct (uncached) calls may add more.
    assert!(calls >= misses, "calls {calls} vs misses {misses}");
    // Directory-first: each CREAT is one cache probe for its parent and
    // one join of its name onto the result; only the root is looked up.
    assert_eq!(delta.counter("fsmon_fid2path_parent_joins_total"), n);
    assert_eq!(hits + misses, n);
    assert_eq!(calls, 1);
    // One prefetch sample per collected batch, none of which had two
    // misses to overlap.
    let prefetch = delta.histogram("fsmon_fid2path_prefetch_fids").unwrap();
    assert!(prefetch.count() > 0);
    assert_eq!(prefetch.quantile(1.0), 0);

    // Latency histograms recorded matching activity.
    let read_ns = delta.histogram("fsmon_collector_read_ns").unwrap();
    assert!(read_ns.count() > 0);
    let append_ns = delta.histogram("fsmon_store_append_ns");
    // MemStore backend records no append latency; FileStore would.
    if let Some(h) = append_ns {
        assert!(h.count() <= n);
    }
}
