//! Connected means subscribed: a monitor started over TCP on a file
//! system that already holds a backlog publishes its first batch into
//! subscriptions that are known to be in place — by acknowledgement,
//! not by a settling sleep. Shown by count, never by time.
//!
//! One `#[test]` only: the assertions read the process-wide telemetry
//! registry, which a second pipeline in this binary would share.

use fsmon_lustre::{ScalableConfig, ScalableMonitor, Transport};
use fsmon_telemetry::global;
use lustre_sim::{LustreConfig, LustreFs};
use std::time::Duration;

#[test]
fn tcp_start_over_a_backlog_delivers_everything_without_a_held_step() {
    let fs = LustreFs::new(LustreConfig::small_dne(2));
    let client = fs.client();
    // Directory placement is hashed by name: sixteen of them put a
    // share of the backlog on each MDT.
    let n = 5_000u64;
    for d in 0..16 {
        client.mkdir(&format!("/d{d}")).unwrap();
    }
    for i in 0..n - 16 {
        client.create(&format!("/d{}/f{i}", i % 16)).unwrap();
    }
    for mdt in 0..2 {
        let waiting = fs.mdt(mdt).changelog_stats().retained;
        assert!(waiting > 0, "MDT{mdt} holds none of the backlog");
    }

    let before = global().snapshot();
    let monitor = ScalableMonitor::start(
        &fs,
        ScalableConfig {
            transport: Transport::Tcp,
            ..ScalableConfig::default()
        },
    )
    .unwrap();
    assert!(
        monitor.wait_events(n, Duration::from_secs(30)),
        "only {} of {n} published",
        monitor.aggregator_stats().published
    );
    let mut ids: Vec<u64> = Vec::new();
    while (ids.len() as u64) < n {
        let batch = monitor.consumer().recv_batch(8192, Duration::from_secs(10));
        assert!(!batch.is_empty(), "live feed stalled at {}", ids.len());
        ids.extend(batch.iter().map(|e| e.id));
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, n, "every event, once");

    let recovery = monitor.consumer().recovery_stats();
    assert_eq!(recovery.gaps_detected, 0);
    assert_eq!(recovery.gap_events_healed, 0, "all of it arrived live");
    assert_eq!(monitor.total_collector_stats().held_steps, 0);
    assert_eq!(monitor.total_backlog(), 0);
    monitor.stop();

    let delta = global().snapshot().delta_from(&before);
    assert_eq!(delta.counter("fsmon_collector_held_steps_total"), 0);
    assert_eq!(delta.counter("fsmon_mq_hwm_dropped_total"), 0);
    assert_eq!(delta.counter("fsmon_mq_subscribe_sync_timeouts_total"), 0);
    assert_eq!(delta.counter("fsmon_mq_malformed_frames_total"), 0);
    assert_eq!(delta.counter("fsmon_consumer_gaps_detected_total"), 0);
    // The handshake ran: the aggregator's connects and subscribes to
    // two collectors, and the main consumer's to the aggregator.
    let syncs = delta.histogram("fsmon_mq_subscribe_sync_ns").unwrap();
    assert!(syncs.count() >= 4, "{} syncs", syncs.count());
}
