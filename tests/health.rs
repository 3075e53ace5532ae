//! Cross-crate health tests: the SLO engine over the live pipeline
//! (stall → burn-rate alert → incident bundle on disk), the HTTP
//! observer endpoints against the real exporters, and fleet snapshot
//! merging under a concurrently ticking reporter.

use fsmon_faults::{FaultPlan, FaultPoint, FaultRule};
use fsmon_lustre::{ScalableConfig, ScalableMonitor};
use fsmon_telemetry::health::{http_get, SnapshotFn};
use fsmon_telemetry::json::Json;
use fsmon_telemetry::{
    HealthMonitor, HealthOptions, HealthReport, IncidentBundle, Registry, Reporter, SloSpec,
    Snapshot,
};
use lustre_sim::{LustreConfig, LustreFs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsmon-health-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The number `key` of the dashboard entry named `name` (in any of
/// its sections), or of the document itself when `name` is `None`.
fn dashboard_number(dashboard: &str, name: Option<&str>, key: &str) -> f64 {
    let doc = Json::parse(dashboard).expect("dashboard.json parses");
    let holder = match name {
        None => &doc,
        Some(name) => ["counters", "gauges", "histograms"]
            .iter()
            .filter_map(|section| match doc.get(section) {
                Some(Json::Arr(entries)) => Some(entries),
                _ => None,
            })
            .flatten()
            .find(|entry| entry.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no {name} in {dashboard}")),
    };
    holder.get(key).and_then(Json::as_f64).expect("number")
}

/// A stalled collector must breach a throughput SLO, flip the health
/// report to alerting, and dump a CRC-trailed incident bundle holding
/// the breach verdict, the pre-breach snapshot window, and the
/// worst-trace exemplar.
#[test]
fn stalled_collector_breaches_slo_and_dumps_decodable_incident() {
    let dir = tmpdir("slo");

    // Warm-up incarnation, no faults: a fully sampled traced run
    // populates the process-wide worst-trace exemplar that incident
    // bundles carry. Stamp with wall time — the sim clock only
    // advances with workload operations, so a trace whose whole
    // flight happens between operations would span zero ns.
    let fs = LustreFs::new(LustreConfig::small());
    let monitor = ScalableMonitor::start(
        &fs,
        ScalableConfig {
            batch_size: 32,
            trace_sample_per_10k: 10_000,
            trace_clock: Some(fsmon_telemetry::trace::wall_clock()),
            ..ScalableConfig::default()
        },
    )
    .unwrap();
    let client = fs.client();
    for i in 0..400u64 {
        client.create(&format!("/warm-f{i}")).unwrap();
    }
    assert!(monitor.wait_events(400, Duration::from_secs(30)));
    // Traces fold (and the exemplar updates) at delivery.
    let consumer = monitor.consumer().clone();
    let deadline = Instant::now() + Duration::from_secs(30);
    while fsmon_telemetry::trace::exemplar().is_none_or(|e| e.total_ns == 0)
        && Instant::now() < deadline
    {
        let _ = consumer.recv_batch(1024, Duration::from_millis(100));
    }
    monitor.stop();
    assert!(
        fsmon_telemetry::trace::exemplar().is_some_and(|e| e.total_ns > 0),
        "no nonzero-span trace completed in the warm-up run"
    );

    // Faulted incarnation: every collector loop iteration stalls
    // 150 ms, so collector throughput cannot reach the SLO floor. The
    // windows are test-sized; the grammar is the production one. The
    // slow window is deliberately much longer than the stall: the
    // engine needs `budget * slow` (1 s) of observed breach before it
    // can alert, so the first stalled batch (~150 ms in) always lands
    // in the flight recorder before the incident dumps — even when the
    // whole suite is competing for cores.
    let spec = "rate(fsmon_collector_events_total)>=4000;budget=0.5;fast=400ms;slow=2s";
    let faults = FaultPlan::new(5)
        .with(
            FaultPoint::CollectorStall,
            FaultRule::percent(100).delay(Duration::from_millis(150)),
        )
        .arm();
    let fs = LustreFs::new(LustreConfig::small());
    let monitor = ScalableMonitor::start(
        &fs,
        ScalableConfig {
            faults,
            batch_size: 16,
            trace_sample_per_10k: 10_000,
            health: Some(HealthOptions {
                spec: Some(SloSpec::parse(spec).unwrap()),
                tick: Duration::from_millis(50),
                incident_dir: Some(dir.clone()),
                config_desc: "integration stall run".into(),
                ..HealthOptions::default()
            }),
            ..ScalableConfig::default()
        },
    )
    .unwrap();
    let health = monitor.health().expect("health engine running").clone();
    let client = fs.client();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut created = 0u64;
    let mut alerted = false;
    while Instant::now() < deadline {
        // Keep the workload ahead of the stalled collector so the
        // breach is a real throughput shortfall, not an idle stream.
        if created < 20_000 {
            client.create(&format!("/stall-f{created}")).unwrap();
            created += 1;
        } else {
            std::thread::sleep(Duration::from_millis(20));
        }
        let report = health.report();
        if report.ready && !report.ok {
            alerted = true;
            break;
        }
    }
    let report = health.report();
    monitor.stop();
    assert!(
        alerted,
        "SLO never fired under a stalled collector:\n{report}"
    );
    assert!(
        report.incidents >= 1,
        "alerting transition must dump an incident"
    );

    let mut bundles: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().unwrap_or_default().to_string_lossy();
            name.starts_with("incident-") && name.ends_with(".json")
        })
        .collect();
    bundles.sort();
    assert!(!bundles.is_empty(), "no incident bundle on disk");

    let text = std::fs::read_to_string(&bundles[0]).unwrap();
    let bundle = IncidentBundle::decode(&text).expect("bundle decodes with a valid CRC trailer");
    assert!(
        bundle
            .reason
            .starts_with("slo:rate(fsmon_collector_events_total)"),
        "unexpected reason {}",
        bundle.reason
    );
    assert_eq!(
        bundle.slo.as_deref(),
        Some(SloSpec::parse(spec).unwrap().canonical().as_str())
    );
    assert_eq!(bundle.config, "integration stall run");
    assert!(
        bundle.verdicts.iter().any(|v| v.breached || v.alerting),
        "bundle must carry the breach verdict"
    );
    assert!(
        !bundle.snapshots.is_empty(),
        "flight-recorder window missing"
    );
    assert!(
        bundle
            .snapshots
            .iter()
            .any(|(_, s)| s.counter("fsmon_collector_events_total") > 0),
        "pre-breach snapshots must hold real pipeline counters"
    );
    let exemplar = bundle.exemplar.expect("worst-trace exemplar missing");
    assert!(
        exemplar.total_ns > 0 && exemplar.event_id > 0,
        "degenerate exemplar in bundle: {exemplar:?}"
    );

    // Corrupting one byte of the payload must fail the CRC check.
    let corrupted = text.replacen("\"reason\"", "\"reaXon\"", 1);
    assert!(IncidentBundle::decode(&corrupted).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// `/metrics` must parse with the existing Prometheus parser, and the
/// `/dashboard.json` windowed delta must agree with what
/// `fsmon stats --diff` computes (`Snapshot::delta_from`) over the
/// same interval.
#[test]
fn observer_metrics_parse_and_dashboard_agrees_with_stats_diff() {
    let registry = Registry::new();
    // A hostile label value: the scrape must round-trip it.
    let scope = registry.scope("it").with_label("node", "a\"b\\c\nd");
    let requests = scope.counter("requests_total");
    let depth = scope.gauge("queue_depth");
    let latency = scope.histogram("latency_ns");

    let before = registry.snapshot();
    let snap_registry = registry.clone();
    let local: SnapshotFn = Arc::new(move || snap_registry.snapshot());
    let monitor = HealthMonitor::spawn(
        local,
        None,
        HealthOptions {
            tick: Duration::from_millis(20),
            http_addr: Some(":0".into()),
            ..HealthOptions::default()
        },
    )
    .unwrap();
    let addr = monitor.http_addr().expect("observer bound").to_string();

    for i in 0..500u64 {
        requests.inc();
        latency.record(1_000 + i * 10);
    }
    depth.set(17);
    let after = registry.snapshot();
    let diff = after.delta_from(&before);
    assert_eq!(diff.counter("it_requests_total"), 500);

    // Let the tick thread fold the final state into the series.
    std::thread::sleep(Duration::from_millis(120));

    let (status, metrics) = http_get(&addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let scraped =
        fsmon_telemetry::export::parse_prometheus(&metrics).expect("/metrics must stay parseable");
    assert_eq!(scraped.counter("it_requests_total"), 500);
    assert_eq!(scraped.gauge("it_queue_depth"), Some(17));
    let hist = scraped
        .histogram("it_latency_ns")
        .expect("histogram survives the scrape");
    assert_eq!(hist.count(), 500);

    let (status, dashboard) = http_get(&addr, "/dashboard.json").unwrap();
    assert_eq!(status, 200);
    // Nothing incremented after `after`, and the ring has not wrapped,
    // so the dashboard's windowed delta is exactly the stats --diff
    // delta over the run, and its rate is that delta over the span.
    let delta = dashboard_number(&dashboard, Some("it_requests_total"), "delta");
    assert_eq!(delta as u64, diff.counter("it_requests_total"));
    let rate = dashboard_number(&dashboard, Some("it_requests_total"), "rate");
    let span_secs = dashboard_number(&dashboard, None, "span_secs");
    assert!(span_secs > 0.0);
    let expected = delta / span_secs;
    assert!(
        (rate - expected).abs() <= expected * 0.02 + 0.01,
        "dashboard rate {rate} disagrees with delta/span {expected}"
    );
    let p99 = dashboard_number(&dashboard, Some("it_latency_ns"), "p99");
    assert_eq!(p99 as u64, hist.quantile(0.99));

    let (status, health) = http_get(&addr, "/health").unwrap();
    assert_eq!(status, 200, "no SLO configured: always ok");
    let report = HealthReport::from_json(&health).expect("/health must stay parseable");
    assert!(report.ready && report.ok && report.slo.is_none());

    let (status, _) = http_get(&addr, "/nope").unwrap();
    assert_eq!(status, 404);
    monitor.stop();
}

/// Merging fleet snapshots while a [`Reporter`] concurrently ticks the
/// same registry (and writer threads hammer it) must never panic,
/// double-count a counter, or lose an increment.
#[test]
fn merge_fleet_is_consistent_under_concurrent_reporter() {
    const PER_NODE: u64 = 100_000;
    let node_a = Registry::new();
    let node_b = Registry::new();
    let scope_a = node_a.scope("fleet");
    let scope_b = node_b.scope("fleet");
    scope_a.gauge("backlog").set(3);

    let writer = |scope: fsmon_telemetry::Scope| {
        std::thread::spawn(move || {
            let events = scope.counter("events_total");
            let lat = scope.histogram("lat_ns");
            for i in 0..PER_NODE {
                events.inc();
                lat.record(i % 4096);
                if i % 10_000 == 0 {
                    scope.gauge("backlog").set((i % 64) as i64);
                }
            }
            scope.gauge("backlog").set(9);
        })
    };
    let wa = writer(scope_a.clone());
    let wb = writer(scope_b.clone());

    // A live reporter over node A races the merges below; its per-tick
    // deltas must sum to exactly the increments (nothing lost to the
    // concurrent snapshots, nothing counted twice).
    let delta_sum = Arc::new(AtomicU64::new(0));
    let sum = delta_sum.clone();
    let reporter = Reporter::spawn(node_a.clone(), Duration::from_millis(1), move |_, delta| {
        sum.fetch_add(delta.counter("fleet_events_total"), Ordering::Relaxed);
    });

    // While both writers run, a fleet merge of two concurrent
    // snapshots must equal the sum of its inputs.
    let mut merges = 0u64;
    while !(wa.is_finished() && wb.is_finished()) {
        let sa = node_a.snapshot();
        let sb = node_b.snapshot();
        let mut fleet = sa.clone();
        fleet.merge_fleet(&sb);
        assert_eq!(
            fleet.counter("fleet_events_total"),
            sa.counter("fleet_events_total") + sb.counter("fleet_events_total"),
            "fleet merge must not double-count concurrent counters"
        );
        merges += 1;
    }
    assert!(merges > 0, "merge loop must overlap the writers");
    wa.join().unwrap();
    wb.join().unwrap();
    reporter.stop();

    assert_eq!(
        delta_sum.load(Ordering::Relaxed),
        PER_NODE,
        "reporter deltas must sum to exactly the increments"
    );
    let mut fleet: Snapshot = node_a.snapshot();
    fleet.merge_fleet(&node_b.snapshot());
    assert_eq!(fleet.counter("fleet_events_total"), 2 * PER_NODE);
    assert_eq!(
        fleet.histogram("fleet_lat_ns").map(|h| h.count()),
        Some(2 * PER_NODE),
        "fleet histograms merge by sum"
    );
    assert_eq!(
        fleet.gauge("fleet_backlog"),
        Some(9),
        "fleet gauges are last-write, not summed"
    );
}
