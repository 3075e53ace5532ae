//! Cross-crate chaos tests: the full pipeline (simulated Lustre →
//! collectors → mq → aggregator → file store → consumer) under an
//! armed fault plan must deliver every event exactly once.

use fsmon_faults::{FaultPlan, FaultPoint, FaultRule};
use fsmon_lustre::{ScalableConfig, ScalableMonitor, Transport};
use fsmon_store::{EventStore, FileStore};
use lustre_sim::{LustreConfig, LustreFs};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsmon-chaos-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Drain the live feed, then heal the rest from the store, and return
/// every delivered event id.
fn drain_all(monitor: ScalableMonitor) -> Vec<u64> {
    let consumer = monitor.consumer().clone();
    let mut ids: Vec<u64> = Vec::new();
    loop {
        let batch = consumer.recv_batch(8192, Duration::from_millis(300));
        if batch.is_empty() {
            break;
        }
        ids.extend(batch.iter().map(|e| e.id));
    }
    // Stopping joins the aggregator's store lane, so the store now
    // holds every stamped event; whatever the live feed missed during
    // injected disconnects heals from there.
    monitor.stop();
    consumer.catch_up();
    loop {
        let batch = consumer.recv_batch(8192, Duration::from_millis(50));
        if batch.is_empty() {
            break;
        }
        ids.extend(batch.iter().map(|e| e.id));
    }
    ids
}

/// A supervised collector killed mid-stream resumes at the clear index
/// its MDT holds for the dead incarnation: nothing lost, nothing
/// duplicated.
#[test]
fn killed_collector_resumes_from_cursor_exactly_once() {
    kill_collector_and_resume(Transport::Inproc);
}

/// The same over TCP, where the supervisor re-attaches the aggregator
/// to the fresh incarnation's endpoint before it starts its lane: the
/// attach is acknowledged, so the incarnation's first batch finds its
/// subscriber and no step is held.
#[test]
fn killed_collector_over_tcp_reattaches_without_a_held_step() {
    kill_collector_and_resume(Transport::Tcp);
}

fn kill_collector_and_resume(transport: Transport) {
    let fs = LustreFs::new(LustreConfig::small());
    // The crash point is rolled once per productive collector step,
    // and 1200 records in batches of at most 16 are at least 75 of
    // them however the scheduler slices the stream: this seeded plan's
    // first hit is roll 33, so the restart below always happens. The
    // purge point is rolled once per productive step too, before the
    // crash roll: clears 31–35 fail, so the MDT's clear index at that
    // crash is behind what the step published, and the restart
    // re-reads published records for the aggregator's dedup to drop.
    let faults = FaultPlan::new(23)
        .with(
            FaultPoint::CollectorCrash,
            FaultRule::per_10k(400).after(5).limit(5),
        )
        .with(
            FaultPoint::ChangelogPurge,
            FaultRule::per_10k(10_000).after(30).limit(5),
        )
        .arm();
    let monitor = ScalableMonitor::start(
        &fs,
        ScalableConfig {
            faults,
            transport,
            batch_size: 16,
            ..ScalableConfig::default()
        },
    )
    .unwrap();
    let client = fs.client();
    let n = 1200u64;
    for i in 0..n {
        client.create(&format!("/cursor-f{i}")).unwrap();
        if i % 100 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert!(
        monitor.wait_events(n, Duration::from_secs(30)),
        "only {} of {n} arrived (restarts: {})",
        monitor.aggregator_stats().received,
        monitor.supervisor_restarts()
    );
    assert!(
        monitor.supervisor_restarts() >= 1,
        "plan never killed the collector"
    );
    // The stats are those of the incarnation running now, which is a
    // re-attached one.
    assert_eq!(monitor.collector_stats()[0].held_steps, 0);
    assert!(
        monitor.aggregator_stats().dedup_dropped > 0,
        "no restart re-read a published record"
    );
    let recovery = monitor.consumer().recovery_stats();
    let mut ids = drain_all(monitor);
    let delivered = ids.len() as u64;
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(delivered, ids.len() as u64, "duplicates delivered");
    assert_eq!(ids.len() as u64, n, "events lost");
    assert_eq!(*ids.last().unwrap(), n, "ids stay dense across restarts");
    assert_eq!(recovery.duplicates_dropped, 0, "dedup belongs upstream");
}

/// A whole monitor torn down and restarted over the same durable state
/// (file store + the MDTs' changelogs) continues the dense id stream
/// with nothing lost and nothing duplicated: collectors resume at each
/// MDT's oldest retained record (the monitor is the only changelog
/// reader, so that is one past what it cleared) and the sequencer
/// resumes ids from the store's high-water mark instead of restarting
/// at 1.
#[test]
fn whole_monitor_restart_resumes_exactly_once_from_durable_state() {
    let dir = tmpdir("restart");
    let store: Arc<FileStore> = Arc::new(FileStore::open(dir.join("store")).unwrap());
    let fs = LustreFs::new(LustreConfig::small_dne(2));
    let config = |store: Arc<FileStore>| ScalableConfig {
        batch_size: 32,
        store: Some(store),
        // Tracing rides along so the restart path is exercised with
        // trace parts on the wire in both incarnations.
        trace_sample_per_10k: 100,
        ..ScalableConfig::default()
    };

    let monitor = ScalableMonitor::start(&fs, config(store.clone())).unwrap();
    let client = fs.client();
    let n1 = 600u64;
    for i in 0..n1 {
        client.create(&format!("/restart-a{i}")).unwrap();
    }
    assert!(
        monitor.wait_events(n1, Duration::from_secs(30)),
        "first incarnation saw only {} of {n1}",
        monitor.aggregator_stats().received
    );
    // Quiesce and tear the whole monitor down — the process-equivalent
    // crash point. Only the durable store and the changelogs survive.
    monitor.stop();
    assert_eq!(store.stats().last_seq, n1, "store missed events pre-crash");

    let monitor = ScalableMonitor::start(&fs, config(store.clone())).unwrap();
    let n2 = 600u64;
    for i in 0..n2 {
        client.create(&format!("/restart-b{i}")).unwrap();
    }
    assert!(
        monitor.wait_events(n2, Duration::from_secs(30)),
        "second incarnation saw only {} of {n2}",
        monitor.aggregator_stats().received
    );
    monitor.stop();

    // The store now holds every event from both incarnations, ids
    // dense from 1 with no gap and no duplicate across the restart.
    let total = n1 + n2;
    let events = store.get_since(0, total as usize + 10).unwrap();
    let ids: Vec<u64> = events.iter().map(|e| e.id).collect();
    assert_eq!(
        ids,
        (1..=total).collect::<Vec<u64>>(),
        "ids must stay dense and exactly-once across the restart"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The `storm` named plan with 1% tracing enabled: sampled trace
/// records ride the same faulted wire path (disconnects, lane crashes,
/// history/store errors) without disturbing exactly-once delivery.
#[test]
fn storm_plan_with_tracing_delivers_exactly_once() {
    named_plan_delivers_exactly_once("storm", 11, 1500, 100);
}

/// The `basic` named plan — mq disconnects, store I/O errors, and
/// collector crashes together — still yields exactly-once delivery
/// end to end, across multiple MDTs.
#[test]
fn basic_fault_plan_delivers_exactly_once_across_mdts() {
    named_plan_delivers_exactly_once("basic", 7, 2000, 0);
}

/// `n` creates over two MDTs under a named fault plan (armed on the
/// file store too) with `trace_per_10k` tracing: every event reaches
/// the consumer exactly once with dense ids, and after `stop()` the
/// store holds exactly ids `1..=n`, whatever the live feed delivered.
fn named_plan_delivers_exactly_once(plan: &str, seed: u64, n: u64, trace_per_10k: u32) {
    let dir = tmpdir(plan);
    let faults = FaultPlan::named(plan, seed).unwrap().arm();
    let store =
        Arc::new(FileStore::open_with(dir.join("store"), 64 * 1024, faults.clone()).unwrap());
    let fs = LustreFs::new(LustreConfig::small_dne(2));
    let monitor = ScalableMonitor::start(
        &fs,
        ScalableConfig {
            faults,
            batch_size: 64,
            store: Some(store.clone()),
            trace_sample_per_10k: trace_per_10k,
            ..ScalableConfig::default()
        },
    )
    .unwrap();
    let client = fs.client();
    for i in 0..n {
        client.create(&format!("/{plan}-f{i}")).unwrap();
        if i % (n / 10) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert!(
        monitor.wait_events(n, Duration::from_secs(60)),
        "{plan}: only {} of {n} arrived (restarts: {})",
        monitor.aggregator_stats().received,
        monitor.supervisor_restarts()
    );
    let mut ids = drain_all(monitor);
    let delivered = ids.len() as u64;
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(delivered, ids.len() as u64, "{plan}: duplicates delivered");
    assert_eq!(ids.len() as u64, n, "{plan}: events lost");
    assert_eq!(*ids.last().unwrap(), n, "{plan}: stamped ids stay dense");
    let stored: Vec<u64> = store
        .get_since(0, n as usize + 10)
        .unwrap()
        .iter()
        .map(|e| e.id)
        .collect();
    assert!(
        stored.iter().copied().eq(1..=n),
        "{plan}: after stop() the store holds {} events, the last {:?}, not ids 1..={n}",
        stored.len(),
        stored.last()
    );
    std::fs::remove_dir_all(&dir).ok();
}
