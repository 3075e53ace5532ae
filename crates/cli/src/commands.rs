//! Command implementations. Each returns its process exit code and
//! writes to the supplied writer, so tests can drive them directly.

use crate::args::{Command, IncidentsAction, StatsFormat, USAGE};
use fsmon_core::dsi::local::PollingDsi;
use fsmon_core::{EventFilter, FsMonitor, MonitorConfig};
use fsmon_events::kind::KindMask;
use fsmon_events::EventFormatter;
use fsmon_store::{EventStore, FileStore};
use std::io::Write;
use std::time::{Duration, Instant};

/// Run a parsed command, writing output to `out`.
pub fn run(command: Command, out: &mut dyn Write) -> i32 {
    match command {
        Command::Help => {
            let _ = writeln!(out, "{USAGE}");
            0
        }
        Command::Watch {
            path,
            format,
            kinds,
            prefix,
            recursive,
            store,
            duration_secs,
            interval_ms,
            coalesce,
        } => watch(
            &path,
            format,
            &kinds,
            &prefix,
            recursive,
            store.as_deref(),
            duration_secs,
            interval_ms,
            coalesce,
            out,
        ),
        Command::Replay { store, since, max } => replay(&store, since, max, out),
        Command::DemoLustre {
            mds,
            seconds,
            cache,
            resolver_threads,
            publish_lanes,
            aggregator_shards,
            filter,
            http,
            slo,
        } => demo_lustre(
            mds,
            seconds,
            cache,
            resolver_threads,
            publish_lanes,
            aggregator_shards,
            filter.as_deref(),
            http.as_deref(),
            slo.as_deref(),
            out,
        ),
        Command::Stats {
            format,
            from,
            diff,
            mds,
            seconds,
            cache,
        } => stats(
            format,
            from.as_deref(),
            diff.as_ref(),
            mds,
            seconds,
            cache,
            out,
        ),
        Command::Top {
            mds,
            seconds,
            cache,
            resolver_threads,
            publish_lanes,
            aggregator_shards,
            interval_ms,
            window_secs,
        } => top(
            mds,
            seconds,
            cache,
            resolver_threads,
            publish_lanes,
            aggregator_shards,
            interval_ms,
            window_secs,
            out,
        ),
        Command::Find {
            store,
            snapshot,
            pattern,
            older_than_secs,
            min_size,
            owner,
            kind,
            max,
            seconds,
        } => find(
            store.as_deref(),
            snapshot.as_deref(),
            pattern.as_deref(),
            older_than_secs,
            min_size,
            owner,
            kind.as_deref(),
            max,
            seconds,
            out,
        ),
        Command::Du {
            store,
            snapshot,
            prefix,
            depth,
            seconds,
        } => du(
            store.as_deref(),
            snapshot.as_deref(),
            &prefix,
            depth,
            seconds,
            out,
        ),
        Command::Policy {
            store,
            snapshot,
            pattern,
            purge_age_secs,
            min_rate,
            seconds,
        } => policy(
            store.as_deref(),
            snapshot.as_deref(),
            &pattern,
            purge_age_secs,
            min_rate,
            seconds,
            out,
        ),
        Command::Chaos {
            plan,
            seed,
            mds,
            seconds,
            resolver_threads,
            publish_lanes,
            aggregator_shards,
            durability,
            consumers,
            slo,
            stall_ms,
            incident_dir,
        } => chaos(
            &plan,
            seed,
            mds,
            seconds,
            resolver_threads,
            publish_lanes,
            aggregator_shards,
            durability,
            consumers,
            slo.as_deref(),
            stall_ms,
            incident_dir.as_deref(),
            out,
        ),
        Command::Health { addr } => health(&addr, out),
        Command::Incidents { action } => incidents(&action, out),
    }
}

#[allow(clippy::too_many_arguments)]
fn watch(
    path: &str,
    format: EventFormatter,
    kinds: &[fsmon_events::EventKind],
    prefix: &str,
    recursive: bool,
    store: Option<&str>,
    duration_secs: Option<u64>,
    interval_ms: u64,
    coalesce: bool,
    out: &mut dyn Write,
) -> i32 {
    if !std::path::Path::new(path).is_dir() {
        let _ = writeln!(out, "error: {path} is not a directory");
        return 2;
    }
    let config = match store {
        Some(dir) => MonitorConfig::with_file_store(dir),
        None => MonitorConfig::without_store(),
    };
    let dsi = PollingDsi::new(path.to_string());
    let mut monitor = FsMonitor::new(Box::new(dsi), config);
    let mut filter = if recursive {
        EventFilter::subtree(prefix)
    } else {
        EventFilter::directory(prefix)
    };
    if !kinds.is_empty() {
        filter.kinds = KindMask::from_kinds(kinds.iter().copied());
    }
    let sub = monitor.subscribe(filter);
    let _ = writeln!(
        out,
        "watching {path} (prefix {prefix}, format {})",
        format.as_str()
    );

    let deadline = duration_secs.map(|s| Instant::now() + Duration::from_secs(s));
    let mut printed = 0u64;
    loop {
        monitor.pump(4096);
        let mut events = sub.drain();
        if coalesce {
            events = fsmon_events::coalesce(&events);
        }
        for ev in events {
            let _ = writeln!(out, "{}", format.render(&ev));
            printed += 1;
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
    let _ = writeln!(out, "observed {printed} events");
    0
}

fn replay(store_dir: &str, since: u64, max: usize, out: &mut dyn Write) -> i32 {
    let store = match FileStore::open(store_dir) {
        Ok(s) => s,
        Err(e) => {
            let _ = writeln!(out, "error: cannot open store at {store_dir}: {e}");
            return 2;
        }
    };
    match store.get_since(since, max) {
        Ok(events) => {
            for ev in &events {
                let _ = writeln!(out, "{:>8}  {}", ev.id, ev.render_table2());
            }
            let _ = writeln!(out, "replayed {} events (since id {since})", events.len());
            0
        }
        Err(e) => {
            let _ = writeln!(out, "error: replay failed: {e}");
            2
        }
    }
}

/// Open (or build) the materialized index a query command answers
/// from. With `--store`, the snapshot beside the store resumes the
/// index at its applied-seq cursor, `catch_up` folds only the events
/// stamped since, and the refreshed snapshot is saved back — the query
/// itself never scans the store. Without a store, a fresh demo run is
/// indexed so the command has something to show.
fn open_index(
    store_dir: Option<&str>,
    snapshot: Option<&str>,
    seconds: u64,
    policies: fsmon_index::PolicyEngine,
    out: &mut dyn Write,
) -> Result<fsmon_index::IndexService, i32> {
    match store_dir {
        Some(dir) => {
            let store = match FileStore::open(dir) {
                Ok(s) => s,
                Err(e) => {
                    let _ = writeln!(out, "error: cannot open store at {dir}: {e}");
                    return Err(2);
                }
            };
            let snap = snapshot
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| std::path::Path::new(dir).join("index.snap"));
            let mut svc = fsmon_index::IndexService::open(snap, policies);
            let resumed = svc.index().applied_seq();
            if let Err(e) = svc.catch_up(&store) {
                let _ = writeln!(out, "error: index catch-up failed: {e}");
                return Err(2);
            }
            if let Err(e) = svc.save() {
                let _ = writeln!(out, "warning: cannot save index snapshot: {e}");
            }
            let _ = writeln!(
                out,
                "index     : resumed at seq {resumed}, caught up to seq {} \
                 ({} entries, {} resident bytes)",
                svc.index().applied_seq(),
                svc.index().len(),
                svc.index().resident_bytes(),
            );
            Ok(svc)
        }
        None => {
            let _ = writeln!(
                out,
                "no --store given; indexing a fresh {seconds}s demo run"
            );
            let dir = std::env::temp_dir().join(format!(
                "fsmon-queryidx-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = match FileStore::open(dir.join("store")) {
                Ok(s) => std::sync::Arc::new(s),
                Err(e) => {
                    let _ = writeln!(out, "error: cannot open demo store: {e}");
                    return Err(2);
                }
            };
            if let Err(e) = run_sim_into_store(1, seconds.max(1), 5000, store.clone()) {
                let _ = writeln!(out, "error: {e}");
                let _ = std::fs::remove_dir_all(&dir);
                return Err(2);
            }
            let mut svc = fsmon_index::IndexService::new(policies);
            let caught = svc.catch_up(store.as_ref());
            let _ = std::fs::remove_dir_all(&dir);
            if let Err(e) = caught {
                let _ = writeln!(out, "error: index catch-up failed: {e}");
                return Err(2);
            }
            let _ = writeln!(
                out,
                "index     : folded seq 1..={} into {} entries",
                svc.index().applied_seq(),
                svc.index().len(),
            );
            Ok(svc)
        }
    }
}

/// The index's notion of "now": the newest activity it has folded.
/// Event timestamps come from the producing system's clock (the sim
/// clock in demos), so anchoring ages to the stream keeps `--older-than`
/// and rate windows meaningful regardless of wall-clock skew.
fn index_now(idx: &fsmon_index::NamespaceIndex) -> u64 {
    idx.rollups()
        .map(|(_, r)| r.last_activity_ns)
        .max()
        .unwrap_or(0)
}

#[allow(clippy::too_many_arguments)]
fn find(
    store: Option<&str>,
    snapshot: Option<&str>,
    pattern: Option<&str>,
    older_than_secs: Option<u64>,
    min_size: Option<u64>,
    owner: Option<u32>,
    kind: Option<&str>,
    max: usize,
    seconds: u64,
    out: &mut dyn Write,
) -> i32 {
    use fsmon_index::EntryKind;
    let svc = match open_index(
        store,
        snapshot,
        seconds,
        fsmon_index::PolicyEngine::empty(),
        out,
    ) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut query = fsmon_index::FindQuery::default();
    if let Some(p) = pattern {
        query = query.pattern(p);
    }
    if let Some(age) = older_than_secs {
        query = query.older_than_ns(age.saturating_mul(1_000_000_000));
    }
    if let Some(bytes) = min_size {
        query = query.min_size(bytes);
    }
    if let Some(uid) = owner {
        query = query.owner(uid);
    }
    if let Some(k) = kind {
        query = query.kind(match k {
            "file" => EntryKind::File,
            "dir" => EntryKind::Directory,
            "symlink" => EntryKind::Symlink,
            _ => EntryKind::Device,
        });
    }
    let rows = svc.find(&query, index_now(svc.index()));
    for (path, entry) in rows.iter().take(max) {
        let _ = writeln!(
            out,
            "{:>12}  uid {:<6}  {:<7}  {}",
            entry.size,
            entry.owner,
            entry.kind.label(),
            path
        );
    }
    if rows.len() > max {
        let _ = writeln!(out, "... {} more rows (raise --max)", rows.len() - max);
    }
    let _ = writeln!(
        out,
        "matched {} of {} entries",
        rows.len(),
        svc.index().len()
    );
    0
}

fn du(
    store: Option<&str>,
    snapshot: Option<&str>,
    prefix: &str,
    depth: usize,
    seconds: u64,
    out: &mut dyn Write,
) -> i32 {
    let svc = match open_index(
        store,
        snapshot,
        seconds,
        fsmon_index::PolicyEngine::empty(),
        out,
    ) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let rows = svc.du(prefix, depth);
    let mut total_bytes = 0u64;
    let mut total_entries = 0u64;
    for row in &rows {
        total_bytes += row.bytes;
        total_entries += row.entries;
        let _ = writeln!(
            out,
            "{:>14}  {:>8} entries  {}",
            row.bytes, row.entries, row.path
        );
    }
    let _ = writeln!(
        out,
        "{total_bytes:>14}  {total_entries:>8} entries  total under {prefix} \
         ({} rollups)",
        rows.len()
    );
    0
}

fn policy(
    store: Option<&str>,
    snapshot: Option<&str>,
    pattern: &str,
    purge_age_secs: u64,
    min_rate: f64,
    seconds: u64,
    out: &mut dyn Write,
) -> i32 {
    let engine = fsmon_index::PolicyEngine::standard(
        pattern,
        purge_age_secs.saturating_mul(1_000_000_000),
        min_rate,
    );
    let svc = match open_index(store, snapshot, seconds, engine, out) {
        Ok(s) => s,
        Err(code) => return code,
    };
    for report in svc.evaluate(index_now(svc.index())) {
        let _ = writeln!(
            out,
            "{:<10}: {} candidates ({} stream events matched)",
            report.name, report.candidates, report.matched_events
        );
        for path in &report.sample {
            let _ = writeln!(out, "            {path}");
        }
    }
    0
}

/// One working directory per MDT: directory placement hashes the name
/// (DNE2 style) and files inherit their directory's MDT, so a
/// "/"-rooted workload would land every record on MDT0 and leave the
/// other collector lanes (and any extra aggregator shards) idle.
fn mdt_working_dirs(fs: &std::sync::Arc<lustre_sim::LustreFs>) -> Vec<String> {
    let client = fs.client();
    let n_mdt = fs.mdt_count() as usize;
    let mut bases: Vec<String> = Vec::new();
    let mut covered = vec![false; n_mdt];
    let mut i = 0;
    while covered.iter().any(|c| !c) && i < 512 {
        let name = format!("/w{i}");
        let _ = client.mkdir(&name);
        if let Ok(mdt) = fs.mdt_of(&name) {
            if !covered[mdt as usize] {
                covered[mdt as usize] = true;
                bases.push(name);
            }
        }
        i += 1;
    }
    bases
}

/// Drive the CreateModifyDelete script for `seconds` total, split
/// evenly across `bases` (one per MDT). Returns the wall time spent
/// generating. The expected event count comes from the per-MDT
/// changelogs afterwards ([`total_appended`]), not the script's op
/// counter — the mkdirs behind `bases` are changelog records too.
fn drive_spread_workload(
    client: &lustre_sim::LustreClient,
    bases: &[String],
    seconds: u64,
) -> Duration {
    use fsmon_workloads::{EvaluatePerformanceScript, ScriptVariant};
    let mut elapsed = Duration::ZERO;
    for base in bases {
        let run = EvaluatePerformanceScript::new(ScriptVariant::CreateModifyDelete, base)
            .with_working_set((1024 / bases.len()).max(64))
            .run_for(
                client,
                Duration::from_millis(seconds.max(1) * 1000 / bases.len() as u64),
            );
        elapsed += run.elapsed;
    }
    elapsed
}

/// Total changelog records across every MDT — the expected event count
/// for a run driven through [`drive_spread_workload`].
fn total_appended(fs: &std::sync::Arc<lustre_sim::LustreFs>) -> u64 {
    (0..fs.mdt_count())
        .map(|m| fs.mdt(m).changelog_stats().appended)
        .sum()
}

/// Run the simulated Lustre pipeline for `seconds` with its event log
/// landing in `store`, letting the whole stack (collectors, mq,
/// aggregator, store) pump the global telemetry registry. Returns the
/// number of generated operations.
fn run_sim_into_store(
    mds: u16,
    seconds: u64,
    cache: usize,
    store: std::sync::Arc<FileStore>,
) -> Result<(u64, Duration), String> {
    use fsmon_lustre::{ScalableConfig, ScalableMonitor};
    use fsmon_workloads::{EvaluatePerformanceScript, ScriptVariant};
    use lustre_sim::{LustreConfig, LustreFs};

    let fs = LustreFs::new(LustreConfig::small_dne(mds.max(1)));
    let monitor = ScalableMonitor::start(
        &fs,
        ScalableConfig {
            cache_size: cache,
            // 1% sampled traces so the summary can attribute per-stage
            // latency without distorting throughput.
            trace_sample_per_10k: 100,
            store: Some(store),
            ..ScalableConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let client = fs.client();
    let run = EvaluatePerformanceScript::new(ScriptVariant::CreateModifyDelete, "/")
        .with_working_set(1024)
        .run_for(&client, Duration::from_secs(seconds));
    monitor.wait_events(run.operations, Duration::from_secs(60));
    drain_consumer(&monitor, run.operations);
    monitor.stop();
    Ok((run.operations, run.elapsed))
}

/// Run the simulated pipeline into a temporary store and fold the run
/// into a materialized index, so the final summary's index section has
/// real numbers. Returns the number of generated operations.
fn run_sim_pipeline(mds: u16, seconds: u64, cache: usize) -> Result<(u64, Duration), String> {
    let dir = std::env::temp_dir().join(format!(
        "fsmon-stats-idx-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = std::sync::Arc::new(FileStore::open(dir.join("store")).map_err(|e| e.to_string())?);
    let result = run_sim_into_store(mds, seconds, cache, store.clone());
    if result.is_ok() {
        let mut svc =
            fsmon_index::IndexService::new(fsmon_index::PolicyEngine::standard("/**", 0, 1.0));
        svc.catch_up(store.as_ref()).map_err(|e| e.to_string())?;
        svc.record_lag(store.as_ref());
    }
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Pull everything the aggregator published through the consumer so
/// delivered counts reflect the whole run.
fn drain_consumer(monitor: &fsmon_lustre::ScalableMonitor, expected: u64) {
    let mut drained = 0u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while drained < expected && Instant::now() < deadline {
        let got = monitor
            .consumer()
            .recv_batch(8192, Duration::from_millis(100))
            .len() as u64;
        if got == 0 {
            break;
        }
        drained += got;
    }
}

#[allow(clippy::too_many_arguments)]
fn demo_lustre(
    mds: u16,
    seconds: u64,
    cache: usize,
    resolver_threads: usize,
    publish_lanes: usize,
    aggregator_shards: usize,
    filter: Option<&str>,
    http: Option<&str>,
    slo: Option<&str>,
    out: &mut dyn Write,
) -> i32 {
    use fsmon_lustre::{ScalableConfig, ScalableMonitor};
    use lustre_sim::{LustreConfig, LustreFs};

    let _ = writeln!(
        out,
        "simulated Lustre: {mds} MDS(s), cache {cache}, \
         {resolver_threads} resolver thread(s), {publish_lanes} publish lane(s)"
    );
    if aggregator_shards > 1 {
        let _ = writeln!(
            out,
            "sharding  : {aggregator_shards} aggregator shards (MDT % K partitioning, \
             vector-watermark federation)"
        );
    }
    // The health engine rides along whenever an observer endpoint or
    // an SLO is asked for; sub-second ticks so short demo runs still
    // produce a few windowed samples.
    let health_opts = (http.is_some() || slo.is_some()).then(|| fsmon_telemetry::HealthOptions {
        spec: slo.map(|s| fsmon_telemetry::SloSpec::parse(s).expect("validated at arg parse")),
        tick: Duration::from_millis(250),
        http_addr: http.map(str::to_string),
        ..fsmon_telemetry::HealthOptions::default()
    });
    let fs = LustreFs::new(LustreConfig::small_dne(mds.max(1)));
    let monitor = match ScalableMonitor::start(
        &fs,
        ScalableConfig {
            cache_size: cache,
            resolver_threads,
            publish_lanes,
            aggregator_shards,
            trace_sample_per_10k: 100,
            health: health_opts,
            ..ScalableConfig::default()
        },
    ) {
        Ok(m) => m,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 2;
        }
    };
    if let Some(addr) = monitor.health_addr() {
        let _ = writeln!(
            out,
            "health    : observing at http://{addr}/health (also /metrics, /dashboard.json)"
        );
    }
    // An optional server-side filtered subscriber: the aggregator
    // matches the predicate once per event and this lane only ever
    // sees its subset (healed from the store on any frame loss).
    let mut filtered = filter.map(|spec_text| {
        let spec = fsmon_rules::FilterSpec::parse(spec_text).expect("validated at arg parse");
        monitor.subscribe_filtered(&spec, "demo-filter")
    });
    // Live stats on stderr while the demo runs: per-tick deltas from
    // the process-wide telemetry registry.
    let reporter = fsmon_telemetry::Reporter::spawn(
        fsmon_telemetry::global().clone(),
        Duration::from_millis(500),
        |_snap, delta| {
            eprintln!(
                "[telemetry] +{} collected, +{} published, +{} stored",
                delta.counter("fsmon_collector_events_total"),
                delta.counter("fsmon_aggregator_published_total"),
                delta.counter("fsmon_store_appends_total"),
            );
        },
    );
    let client = fs.client();
    let bases = mdt_working_dirs(&fs);
    let gen_elapsed = drive_spread_workload(&client, &bases, seconds);
    let expected = total_appended(&fs);
    monitor.wait_events(expected, Duration::from_secs(60));
    drain_consumer(&monitor, expected);
    let agg = monitor.aggregator_stats();
    let stats = monitor.total_collector_stats();
    reporter.stop();
    let _ = writeln!(out, "generated : {expected} events in {gen_elapsed:.1?}");
    let _ = writeln!(
        out,
        "reported  : {} events (lost {})",
        agg.received,
        expected.saturating_sub(agg.received)
    );
    if aggregator_shards > 1 {
        for (k, s) in monitor.shard_aggregator_stats().iter().enumerate() {
            let _ = writeln!(
                out,
                "  shard {k} : {} received, {} published, {} stored",
                s.received, s.published, s.stored
            );
        }
    }
    let _ = writeln!(
        out,
        "fid2path  : {} calls, cache hit ratio {:.1}%",
        stats.fid2path_calls,
        100.0 * stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64
    );
    if let Some(sub) = filtered.as_mut() {
        let _ = sub.poll();
        let _ = sub.catch_up();
        let st = sub.stats();
        let _ = writeln!(
            out,
            "filtered  : class {}: {} events ({} healed, {} frames lost)",
            sub.class_key(),
            st.delivered,
            st.gap_events_healed,
            st.frames_lost
        );
    }
    if let Some(h) = monitor.health() {
        let _ = writeln!(out, "{}", h.report());
    }
    monitor.stop();
    let snap = fsmon_telemetry::global().snapshot();
    write_stats_summary(&snap, out);
    0
}

/// The human-oriented per-stage summary of a telemetry snapshot.
fn write_stats_summary(snap: &fsmon_telemetry::Snapshot, out: &mut dyn Write) {
    let _ = writeln!(out, "--- telemetry ({} metrics) ---", snap.len());
    let hits = snap.counter("fsmon_fid2path_hits_total");
    let misses = snap.counter("fsmon_fid2path_misses_total");
    let _ = writeln!(
        out,
        "collector : {} records, {} events, {} idle wake-ups, {} held steps",
        snap.counter("fsmon_collector_records_total"),
        snap.counter("fsmon_collector_events_total"),
        snap.counter("fsmon_collector_idle_wakeups_total"),
        snap.counter("fsmon_collector_held_steps_total"),
    );
    let _ = writeln!(
        out,
        "fid2path  : {} calls, {} hits / {} misses (hit ratio {:.1}%)",
        snap.counter("fsmon_fid2path_calls_total"),
        hits,
        misses,
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
    );
    // Where the paths came from instead: joined onto a resolved parent
    // directory, and how many lookups a batch handed to the resolver
    // pool (0 = every path of the batch was already cached).
    let prefetch = snap
        .histogram("fsmon_fid2path_prefetch_fids")
        .unwrap_or_else(fsmon_telemetry::HistogramSnapshot::empty);
    let _ = writeln!(
        out,
        "            {} parent joins, prefetch mean {:.1} / p99 {} fids per batch, {} subtree flushes",
        snap.counter("fsmon_fid2path_parent_joins_total"),
        prefetch.mean(),
        prefetch.quantile(0.99),
        snap.counter("fsmon_fid2path_cache_flushes_total"),
    );
    // TCP subscription handshakes: how long a subscribing call waited
    // for its acknowledgement, and how many gave up waiting.
    let sync = snap
        .histogram("fsmon_mq_subscribe_sync_ns")
        .unwrap_or_else(fsmon_telemetry::HistogramSnapshot::empty);
    let _ = writeln!(
        out,
        "mq        : {} published, {} hwm-dropped, {} tcp frames, {} malformed frames",
        snap.counter("fsmon_mq_published_total"),
        snap.counter("fsmon_mq_hwm_dropped_total"),
        snap.counter("fsmon_mq_tcp_frames_total"),
        snap.counter("fsmon_mq_malformed_frames_total"),
    );
    let _ = writeln!(
        out,
        "            {} tcp subscribe syncs, p50 {} ns, {} timed out",
        sync.count(),
        sync.quantile(0.5),
        snap.counter("fsmon_mq_subscribe_sync_timeouts_total"),
    );
    let _ = writeln!(
        out,
        "aggregator: {} received, {} published, {} stored, {} decode errors",
        snap.counter("fsmon_aggregator_received_total"),
        snap.counter("fsmon_aggregator_published_total"),
        snap.counter("fsmon_aggregator_stored_total"),
        snap.counter("fsmon_aggregator_decode_errors_total"),
    );
    write_shard_summary(snap, out);
    let appends = snap.counter("fsmon_store_appends_total");
    match snap.histogram("fsmon_store_append_ns") {
        Some(h) if h.count() > 0 => {
            let _ = writeln!(
                out,
                "store     : {} appends ({} segment rolls), append p50 {} ns / p99 {} ns",
                appends,
                snap.counter("fsmon_store_segment_rolls_total"),
                h.quantile(0.5),
                h.quantile(0.99),
            );
        }
        _ => {
            let _ = writeln!(
                out,
                "store     : {} appends ({} segment rolls)",
                appends,
                snap.counter("fsmon_store_segment_rolls_total"),
            );
        }
    }
    let _ = writeln!(
        out,
        "consumer  : {} delivered, {} filtered, {} dropped, {} wait timeouts",
        snap.counter("fsmon_consumer_delivered_total"),
        snap.counter("fsmon_consumer_filtered_total"),
        snap.counter("fsmon_consumer_dropped_total"),
        snap.counter("fsmon_consumer_wait_timeouts_total"),
    );
    write_index_summary(snap, out);
    let _ = writeln!(
        out,
        "faults    : {} injected",
        snap.counter("fsmon_faults_injected_total"),
    );
    let _ = writeln!(
        out,
        "recovery  : {} collector restarts, {} lane restarts, {} store retries, {} dedup-dropped",
        snap.counter("fsmon_supervisor_restarts_total"),
        snap.counter("fsmon_aggregator_lane_restarts_total"),
        snap.counter("fsmon_aggregator_store_retries_total"),
        snap.counter("fsmon_aggregator_dedup_dropped_total"),
    );
    let _ = writeln!(
        out,
        "            {} gaps detected, {} events healed, {} dups dropped, {} reconnects",
        snap.counter("fsmon_consumer_gaps_detected_total"),
        snap.counter("fsmon_consumer_gap_events_healed_total"),
        snap.counter("fsmon_consumer_duplicates_dropped_total"),
        snap.counter("fsmon_consumer_reconnects_total"),
    );
    write_latency_summary(snap, out);
}

/// Per-shard aggregator breakdown. A sharded tier (K > 1) labels its
/// counters with `shard=<k>`; the unsharded tier emits no shard label,
/// so this section is silent for classic single-sequencer runs.
fn write_shard_summary(snap: &fsmon_telemetry::Snapshot, out: &mut dyn Write) {
    use fsmon_telemetry::MetricValue;
    let mut shards: std::collections::BTreeMap<usize, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for (id, value) in &snap.metrics {
        let MetricValue::Counter(n) = value else {
            continue;
        };
        let Some(shard) = id
            .labels
            .iter()
            .find(|(k, _)| k == "shard")
            .and_then(|(_, v)| v.parse::<usize>().ok())
        else {
            continue;
        };
        let entry = shards.entry(shard).or_default();
        match id.name.as_str() {
            "fsmon_aggregator_received_total" => entry.0 += n,
            "fsmon_aggregator_published_total" => entry.1 += n,
            "fsmon_aggregator_stored_total" => entry.2 += n,
            _ => {}
        }
    }
    for (shard, (received, published, stored)) in shards {
        let _ = writeln!(
            out,
            "  shard {shard} : {received} received, {published} published, {stored} stored",
        );
    }
}

/// The materialized-index section of the summary: applied-seq cursor,
/// ingest lag vs the store head, resident footprint, and per-rule
/// predicate matches summed across rule labels. Silent when no index
/// ran in this snapshot's process.
fn write_index_summary(snap: &fsmon_telemetry::Snapshot, out: &mut dyn Write) {
    use fsmon_telemetry::MetricValue;
    let Some(applied_seq) = snap.gauge("fsmon_index_applied_seq") else {
        return;
    };
    let rule_matches: u64 = snap
        .metrics
        .iter()
        .filter(|(id, _)| id.name == "fsmon_index_rule_matches_total")
        .map(|(_, v)| match v {
            MetricValue::Counter(n) => *n,
            _ => 0,
        })
        .sum();
    let _ = writeln!(
        out,
        "index     : applied seq {applied_seq}, lag {}, {} entries, \
         {} resident bytes, {} rule matches",
        snap.gauge("fsmon_index_ingest_lag").unwrap_or(0),
        snap.gauge("fsmon_index_entries").unwrap_or(0),
        snap.gauge("fsmon_index_resident_bytes").unwrap_or(0),
        rule_matches,
    );
    if let Some(h) = snap
        .histogram("fsmon_index_fold_ns")
        .filter(|h| h.count() > 0)
    {
        let _ = writeln!(
            out,
            "            fold p50 {} ns / p99 {} ns over {} batches, \
             {} events applied, {} snapshots",
            h.quantile(0.5),
            h.quantile(0.99),
            h.count(),
            snap.counter("fsmon_index_events_applied_total"),
            snap.counter("fsmon_index_snapshots_total"),
        );
    }
}

/// Per-stage latency attribution from sampled trace records: one line
/// per pipeline stage with the merged p50/p99 and the MDT owning the
/// worst p99, plus the end-to-end distribution and the exemplar trace.
/// Silent when the snapshot holds no completed traces.
fn write_latency_summary(snap: &fsmon_telemetry::Snapshot, out: &mut dyn Write) {
    use fsmon_telemetry::{MetricValue, TraceStage};
    let traced = snap.counter("fsmon_trace_records_total");
    if traced == 0 {
        return;
    }
    match snap.histogram("fsmon_trace_e2e_ns") {
        Some(h) if h.count() > 0 => {
            let _ = writeln!(
                out,
                "latency   : {traced} traced, e2e p50 {} ns / p99 {} ns",
                h.quantile(0.5),
                h.quantile(0.99),
            );
        }
        _ => {
            let _ = writeln!(out, "latency   : {traced} traced");
        }
    }
    for stage in TraceStage::ALL {
        // Merge this stage's histograms across MDTs, remembering which
        // MDT owns the worst p99 — the attribution the fleet operator
        // acts on.
        let mut merged: Option<fsmon_telemetry::HistogramSnapshot> = None;
        let mut worst: Option<(u64, String)> = None;
        for (id, value) in &snap.metrics {
            let MetricValue::Histogram(h) = value else {
                continue;
            };
            if id.name != "fsmon_trace_stage_ns" || h.count() == 0 {
                continue;
            }
            let labeled = |key: &str| {
                id.labels
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
            };
            if labeled("stage").as_deref() != Some(stage.name()) {
                continue;
            }
            let p99 = h.quantile(0.99);
            if worst.as_ref().is_none_or(|(w, _)| p99 > *w) {
                worst = Some((p99, labeled("mdt").unwrap_or_default()));
            }
            match &mut merged {
                None => merged = Some(h.clone()),
                Some(m) => m.merge(h),
            }
        }
        if let (Some(h), Some((worst_p99, worst_mdt))) = (merged, worst) {
            let _ = writeln!(
                out,
                "            {:<12} p50 {} ns / p99 {} ns (worst mdt {} at {} ns)",
                stage.name(),
                h.quantile(0.5),
                h.quantile(0.99),
                worst_mdt,
                worst_p99,
            );
        }
    }
    if let Some(id) = snap.gauge("fsmon_trace_exemplar_event_id") {
        let _ = writeln!(
            out,
            "exemplar  : event {id} (mdt {}) end-to-end {} ns",
            snap.gauge("fsmon_trace_exemplar_mdt").unwrap_or(0),
            snap.gauge("fsmon_trace_exemplar_total_ns").unwrap_or(0),
        );
    }
}

/// Load an exported snapshot file, auto-detecting the dialect:
/// JSON documents open with '{', Prometheus text with '#' or a
/// metric name.
fn load_snapshot(path: &str, out: &mut dyn Write) -> Option<fsmon_telemetry::Snapshot> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            let _ = writeln!(out, "error: cannot read {path}: {e}");
            return None;
        }
    };
    let parsed = if text.trim_start().starts_with('{') {
        fsmon_telemetry::export::parse_json(&text)
    } else {
        fsmon_telemetry::export::parse_prometheus(&text)
    };
    match parsed {
        Ok(s) => Some(s),
        Err(e) => {
            let _ = writeln!(out, "error: cannot parse {path}: {e}");
            None
        }
    }
}

/// Per-instrument listing of a delta snapshot: one line per metric
/// that changed, keyed by its full id (`name{label="v"}`). Counters
/// and histograms with a zero delta are elided; gauges always show
/// their current value. With `endpoints` (the before/after snapshots
/// the delta came from), histogram lines also show how the cumulative
/// p50/p99 moved between the two snapshots, so a diff covers latency
/// shifts and not just sample counts.
fn write_delta_listing(
    delta: &fsmon_telemetry::Snapshot,
    endpoints: Option<(&fsmon_telemetry::Snapshot, &fsmon_telemetry::Snapshot)>,
    out: &mut dyn Write,
) {
    use fsmon_telemetry::MetricValue;
    let mut shown = 0usize;
    for (id, value) in &delta.metrics {
        match value {
            MetricValue::Counter(0) => continue,
            MetricValue::Counter(n) => {
                let _ = writeln!(out, "{id} +{n}");
            }
            MetricValue::Gauge(g) => {
                let _ = writeln!(out, "{id} = {g}");
            }
            MetricValue::Histogram(h) => {
                if h.count() == 0 {
                    continue;
                }
                let shift = endpoints
                    .and_then(|(before, after)| {
                        let quantiles =
                            |snap: &fsmon_telemetry::Snapshot| match snap.metrics.get(id) {
                                Some(MetricValue::Histogram(h)) if h.count() > 0 => {
                                    Some((h.quantile(0.5), h.quantile(0.99)))
                                }
                                _ => None,
                            };
                        Some((quantiles(before)?, quantiles(after)?))
                    })
                    .map(|((bp50, bp99), (ap50, ap99))| {
                        format!("; cumulative p50 {bp50} -> {ap50}, p99 {bp99} -> {ap99}")
                    })
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{id} +{} samples (p50 {} / p99 {}{shift})",
                    h.count(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                );
            }
        }
        shown += 1;
    }
    if shown == 0 {
        let _ = writeln!(out, "(no change)");
    }
}

fn stats(
    format: StatsFormat,
    from: Option<&str>,
    diff: Option<&(String, String)>,
    mds: u16,
    seconds: u64,
    cache: usize,
    out: &mut dyn Write,
) -> i32 {
    let snap = if let Some((before_path, after_path)) = diff {
        let Some(before) = load_snapshot(before_path, out) else {
            return 2;
        };
        let Some(after) = load_snapshot(after_path, out) else {
            return 2;
        };
        let delta = after.delta_from(&before);
        if format == StatsFormat::Summary {
            let _ = writeln!(out, "--- delta {before_path} -> {after_path} ---");
            write_delta_listing(&delta, Some((&before, &after)), out);
            return 0;
        }
        delta
    } else {
        match from {
            Some(path) => match load_snapshot(path, out) {
                Some(s) => s,
                None => return 2,
            },
            None => {
                // Keep stdout machine-parseable for the export formats.
                if format == StatsFormat::Summary {
                    let _ = writeln!(
                        out,
                        "running simulated pipeline: {mds} MDS(s), {seconds}s, cache {cache}"
                    );
                } else {
                    eprintln!(
                        "running simulated pipeline: {mds} MDS(s), {seconds}s, cache {cache}"
                    );
                }
                if let Err(e) = run_sim_pipeline(mds, seconds, cache) {
                    let _ = writeln!(out, "error: {e}");
                    return 2;
                }
                fsmon_telemetry::global().snapshot()
            }
        }
    };
    match format {
        StatsFormat::Summary => write_stats_summary(&snap, out),
        StatsFormat::Prometheus => {
            let _ = write!(out, "{}", fsmon_telemetry::export::render_prometheus(&snap));
        }
        StatsFormat::Json => {
            let _ = writeln!(out, "{}", fsmon_telemetry::export::render_json(&snap));
        }
    }
    0
}

/// `fsmon health`: one GET against a running observer's `/health`,
/// pretty-printed. Exit 0 when every clause holds, 1 when alerting,
/// 2 when the endpoint is unreachable or the response unparseable.
fn health(addr: &str, out: &mut dyn Write) -> i32 {
    let (status, body) = match fsmon_telemetry::health::http_get(addr, "/health") {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 2;
        }
    };
    // The observer answers 200 when ok and 503 while alerting; both
    // carry the same report document.
    if status != 200 && status != 503 {
        let _ = writeln!(out, "error: /health returned HTTP {status}");
        return 2;
    }
    match fsmon_telemetry::HealthReport::from_json(&body) {
        Ok(report) => {
            let _ = writeln!(out, "{report}");
            if report.ok {
                0
            } else {
                1
            }
        }
        Err(e) => {
            let _ = writeln!(out, "error: cannot parse /health response: {e}");
            2
        }
    }
}

/// Pretty-print one decoded incident bundle: the verdicts at dump
/// time, the worst-trace exemplar with per-stage stamps, and the
/// flight-recorder snapshot window condensed to the pipeline's
/// headline counters.
fn write_incident(bundle: &fsmon_telemetry::IncidentBundle, out: &mut dyn Write) {
    let _ = writeln!(out, "reason    : {}", bundle.reason);
    let _ = writeln!(out, "at        : unix_ms {}", bundle.unix_ms);
    if !bundle.config.is_empty() {
        let _ = writeln!(out, "config    : {}", bundle.config);
    }
    if let Some(slo) = &bundle.slo {
        let _ = writeln!(out, "slo       : {slo}");
    }
    for v in &bundle.verdicts {
        let _ = writeln!(
            out,
            "verdict   : [{}] {}: value {} {} (burn fast {:.2} slow {:.2})",
            v.scope,
            v.clause,
            v.value.map(|x| x.to_string()).unwrap_or_else(|| "-".into()),
            if v.alerting {
                "ALERTING"
            } else if v.breached {
                "breached"
            } else {
                "ok"
            },
            v.fast_burn,
            v.slow_burn,
        );
    }
    if let Some(e) = &bundle.exemplar {
        let stamps: String = fsmon_telemetry::TraceStage::ALL
            .iter()
            .zip(e.stamps.iter())
            .map(|(stage, ns)| format!("  {} {}", stage.name(), ns))
            .collect();
        let _ = writeln!(
            out,
            "exemplar  : event {} (mdt {}) end-to-end {} ns",
            e.event_id, e.mdt, e.total_ns
        );
        let _ = writeln!(out, "            stage stamps (ns):{stamps}");
    }
    let _ = writeln!(
        out,
        "snapshots : {} pre-incident ticks",
        bundle.snapshots.len()
    );
    for (ms, snap) in &bundle.snapshots {
        let _ = writeln!(
            out,
            "  {ms}: collected {}, received {}, stored {}, delivered {}",
            snap.counter("fsmon_collector_events_total"),
            snap.counter("fsmon_aggregator_received_total"),
            snap.counter("fsmon_store_appends_total"),
            snap.counter("fsmon_consumer_delivered_total"),
        );
    }
}

/// `fsmon incidents`: decode (CRC-verifying) and display flight
/// recorder bundles.
fn incidents(action: &IncidentsAction, out: &mut dyn Write) -> i32 {
    match action {
        IncidentsAction::Show(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    let _ = writeln!(out, "error: cannot read {path}: {e}");
                    return 2;
                }
            };
            match fsmon_telemetry::IncidentBundle::decode(&text) {
                Ok(bundle) => {
                    write_incident(&bundle, out);
                    0
                }
                Err(e) => {
                    let _ = writeln!(out, "error: cannot decode {path}: {e}");
                    2
                }
            }
        }
        IncidentsAction::List(dir) => {
            let entries = match std::fs::read_dir(dir) {
                Ok(rd) => rd,
                Err(e) => {
                    let _ = writeln!(out, "error: cannot list {dir}: {e}");
                    return 2;
                }
            };
            let mut paths: Vec<std::path::PathBuf> = entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("incident-") && n.ends_with(".json"))
                })
                .collect();
            paths.sort();
            for path in &paths {
                let name = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or_default();
                match std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|t| {
                        fsmon_telemetry::IncidentBundle::decode(&t).map_err(|e| e.to_string())
                    }) {
                    Ok(b) => {
                        let _ = writeln!(
                            out,
                            "{name}  {}  {} verdict(s), {} snapshot(s){}",
                            b.reason,
                            b.verdicts.len(),
                            b.snapshots.len(),
                            if b.exemplar.is_some() {
                                ", exemplar"
                            } else {
                                ""
                            }
                        );
                    }
                    Err(e) => {
                        let _ = writeln!(out, "{name}  (corrupt: {e})");
                    }
                }
            }
            let _ = writeln!(out, "{} bundle(s) in {dir}", paths.len());
            0
        }
    }
}

/// Per-MDT event rates from a windowed delta snapshot: the
/// `fsmon_collector_events_total{mdt=...}` counter deltas divided by
/// the window span.
fn per_mdt_rates(delta: &fsmon_telemetry::Snapshot, span_secs: f64) -> Vec<(String, f64)> {
    use fsmon_telemetry::MetricValue;
    let mut rates = Vec::new();
    for (id, value) in &delta.metrics {
        if id.name != "fsmon_collector_events_total" {
            continue;
        }
        let MetricValue::Counter(n) = value else {
            continue;
        };
        let Some((_, mdt)) = id.labels.iter().find(|(k, _)| k == "mdt") else {
            continue;
        };
        rates.push((mdt.clone(), *n as f64 / span_secs));
    }
    rates
}

/// Render recent per-tick values as a fixed-height sparkline, scaled
/// to the window peak (all-zero history renders as a flat baseline).
fn sparkline(values: &std::collections::VecDeque<f64>) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let peak = values.iter().cloned().fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if peak <= 0.0 {
                GLYPHS[0]
            } else {
                GLYPHS[((v / peak * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Live view of the running pipeline: a workload drives the simulated
/// cluster in the background while the foreground ticks, printing one
/// line per interval with stage deltas and trace latency, then the
/// merged fleet snapshot (every collector's published telemetry folded
/// into one view) and the final per-stage summary.
#[allow(clippy::too_many_arguments)]
fn top(
    mds: u16,
    seconds: u64,
    cache: usize,
    resolver_threads: usize,
    publish_lanes: usize,
    aggregator_shards: usize,
    interval_ms: u64,
    window_secs: u64,
    out: &mut dyn Write,
) -> i32 {
    use fsmon_lustre::{ScalableConfig, ScalableMonitor};
    use lustre_sim::{LustreConfig, LustreFs};

    let mds = mds.max(1);
    let _ = writeln!(
        out,
        "fsmon top: {mds} MDS(s), {seconds}s workload, {}ms refresh{}",
        interval_ms.max(50),
        if aggregator_shards > 1 {
            format!(", {aggregator_shards} aggregator shards")
        } else {
            String::new()
        }
    );
    let fs = LustreFs::new(LustreConfig::small_dne(mds));
    let monitor = match ScalableMonitor::start(
        &fs,
        ScalableConfig {
            cache_size: cache,
            resolver_threads,
            publish_lanes,
            aggregator_shards,
            trace_sample_per_10k: 100,
            ..ScalableConfig::default()
        },
    ) {
        Ok(m) => m,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 2;
        }
    };

    // Two pushdown filter classes at different selectivity feed the
    // subscribers section: everything, and creates only. Both are
    // in-process ring cursors drained once per tick.
    let mut top_subs = vec![
        monitor.subscribe_filtered(&fsmon_rules::FilterSpec::all(), "top-all"),
        monitor.subscribe_filtered(
            &fsmon_rules::FilterSpec::all().with_kinds(fsmon_events::kind::KindMask::from_kinds([
                fsmon_events::EventKind::Create,
            ])),
            "top-creates",
        ),
    ];

    let client = fs.client();
    let bases = mdt_working_dirs(&fs);
    let worker = std::thread::spawn(move || drive_spread_workload(&client, &bases, seconds.max(1)));

    let window = Duration::from_secs(window_secs.max(1));
    let mut prev = fsmon_telemetry::global().snapshot();
    // Ring of timestamped snapshots covering the sliding window, so
    // per-MDT rates reflect the last N seconds rather than the whole
    // run or a single tick.
    let mut ring: std::collections::VecDeque<(Instant, fsmon_telemetry::Snapshot)> =
        std::collections::VecDeque::from([(Instant::now(), prev.clone())]);
    // Per-tick collected rates feeding the sparkline dashboard.
    let mut spark: std::collections::VecDeque<f64> = std::collections::VecDeque::new();
    let mut last_tick_at = Instant::now();
    let mut tick = 0u64;
    while !worker.is_finished() {
        // Pull the live feed so Deliver stamps fold into the trace
        // histograms; recv_batch's timeout paces the tick.
        let _ = monitor
            .consumer()
            .recv_batch(8192, Duration::from_millis(interval_ms.max(50)));
        let snap = fsmon_telemetry::global().snapshot();
        let delta = snap.delta_from(&prev);
        prev = snap.clone();
        let now = Instant::now();
        ring.push_back((now, snap));
        while ring.len() > 2 && now.duration_since(ring[1].0) >= window {
            ring.pop_front();
        }
        tick += 1;
        let e2e = delta
            .histogram("fsmon_trace_e2e_ns")
            .filter(|h| h.count() > 0)
            .map(|h| format!("  e2e p99 {} ns", h.quantile(0.99)))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "tick {tick:>3}: +{} collected  +{} published  +{} stored  +{} delivered{e2e}",
            delta.counter("fsmon_collector_events_total"),
            delta.counter("fsmon_aggregator_published_total"),
            delta.counter("fsmon_store_appends_total"),
            delta.counter("fsmon_consumer_delivered_total"),
        );
        let (oldest_at, oldest) = ring.front().expect("ring is never empty");
        let span = now.duration_since(*oldest_at).as_secs_f64().max(1e-9);
        let windowed = ring
            .back()
            .expect("ring is never empty")
            .1
            .delta_from(oldest);
        let mut rates = per_mdt_rates(&windowed, span);
        if !rates.is_empty() {
            rates.sort_by(|a, b| a.0.cmp(&b.0));
            let line: String = rates
                .iter()
                .map(|(mdt, rate)| format!("  mdt{mdt} {rate:.0} ev/s"))
                .collect();
            let _ = writeln!(out, "  window {span:>4.1}s:{line}");
        }
        let tick_span = now.duration_since(last_tick_at).as_secs_f64().max(1e-9);
        last_tick_at = now;
        if spark.len() == 32 {
            spark.pop_front();
        }
        spark.push_back(delta.counter("fsmon_collector_events_total") as f64 / tick_span);
        let peak = spark.iter().cloned().fold(0.0_f64, f64::max);
        let _ = writeln!(out, "  collected {} peak {peak:.0} ev/s", sparkline(&spark));
        for s in &mut top_subs {
            let _ = s.poll();
        }
    }
    let gen_elapsed = worker.join().expect("workload thread");
    let expected = total_appended(&fs);
    monitor.wait_events(expected, Duration::from_secs(60));
    drain_consumer(&monitor, expected);

    // The fleet view settles by itself: each collector publishes its
    // last snapshot when it finds its changelog quiet, and snapshots
    // travel the same mq path as events. Wait for it to catch up with
    // what the collectors counted.
    let collected = monitor.total_collector_stats().events;
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut fleet = monitor.fleet_snapshot();
    while (fleet.counter("fsmon_collector_events_total") < collected
        || monitor.fleet_sources().len() < mds as usize)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(20));
        fleet = monitor.fleet_snapshot();
    }
    let sources = monitor.fleet_sources();
    let _ = writeln!(
        out,
        "--- fleet ({} sources: {}) ---",
        sources.len(),
        sources.join(", ")
    );
    let _ = writeln!(
        out,
        "fleet     : {} records, {} events, {} traced, backlog {}",
        fleet.counter("fsmon_collector_records_total"),
        fleet.counter("fsmon_collector_events_total"),
        fleet.counter("fsmon_collector_traces_total"),
        fleet.gauge("fsmon_collector_backlog").unwrap_or(0),
    );
    let _ = writeln!(out, "generated : {expected} events in {gen_elapsed:.1?}");
    // The subscribers section: one row per active filter class with
    // its shared fan-out counters (server-side filter pushdown).
    let classes = monitor.class_stats();
    let _ = writeln!(out, "--- subscribers ({} classes) ---", classes.len());
    for c in &classes {
        let rate = if c.rate == 0 {
            "unlimited".to_string()
        } else {
            format!("{}/s", c.rate)
        };
        let _ = writeln!(
            out,
            "class     : {} : {} consumer(s), {} frames, queue depth {}, {} stalls, \
             {} degraded, rate {rate}, {} shed",
            c.key, c.consumers, c.frames, c.queue_depth, c.stalls, c.degraded, c.shed
        );
    }
    for s in &mut top_subs {
        let _ = s.poll();
        let st = s.stats();
        let _ = writeln!(
            out,
            "subscriber: {} delivered {} ({} frames lost)",
            s.class_key(),
            st.delivered,
            st.frames_lost
        );
    }
    drop(top_subs);
    monitor.stop();
    write_stats_summary(&fsmon_telemetry::global().snapshot(), out);
    0
}

/// Run the simulated pipeline under an armed fault plan and verify the
/// end-to-end delivery guarantee: every generated event reaches the
/// consumer exactly once (live or healed from the store), despite
/// injected disconnects, store errors, and lane crashes.
#[allow(clippy::too_many_arguments)]
fn chaos(
    plan_name: &str,
    seed: u64,
    mds: u16,
    seconds: u64,
    resolver_threads: usize,
    publish_lanes: usize,
    aggregator_shards: usize,
    durability: fsmon_store::Durability,
    consumers: usize,
    slo: Option<&str>,
    stall_ms: Option<u64>,
    incident_dir: Option<&str>,
    out: &mut dyn Write,
) -> i32 {
    use fsmon_faults::{FaultPlan, FaultPoint, FaultRule};
    use fsmon_lustre::{ScalableConfig, ScalableMonitor};
    use fsmon_telemetry::MetricValue;
    use lustre_sim::{LustreConfig, LustreFs};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let Some(mut plan) = FaultPlan::named(plan_name, seed) else {
        let _ = writeln!(
            out,
            "error: unknown fault plan {plan_name:?} (known: {})",
            FaultPlan::NAMED.join(", ")
        );
        return 2;
    };
    // An explicit stall throttles every collector lane iteration — the
    // breach injection the health engine's SLO is meant to catch.
    if let Some(ms) = stall_ms {
        plan = plan.with(
            FaultPoint::CollectorStall,
            FaultRule::percent(100).delay(Duration::from_millis(ms)),
        );
    }
    let faults = plan.arm();
    let before = fsmon_telemetry::global().snapshot();

    let dir = std::env::temp_dir().join(format!("fsmon-chaos-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shards = aggregator_shards.max(1);

    let _ = writeln!(
        out,
        "chaos: plan {plan_name:?} seed {seed}, {mds} MDS(s), {seconds}s workload, \
         durability {durability}, {consumers} consumer(s), {shards} aggregator shard(s)"
    );
    // With an SLO or an incident directory, the health engine watches
    // the run: fast ticks so a couple of seconds produce a usable
    // burn-rate history, and bundles dumped wherever asked.
    let health_opts =
        (slo.is_some() || incident_dir.is_some()).then(|| fsmon_telemetry::HealthOptions {
            spec: slo.map(|s| fsmon_telemetry::SloSpec::parse(s).expect("validated at arg parse")),
            tick: Duration::from_millis(100),
            incident_dir: incident_dir.map(std::path::PathBuf::from),
            config_desc: format!(
                "chaos plan={plan_name} seed={seed} mds={mds} stall_ms={}",
                stall_ms.unwrap_or(0)
            ),
            ..fsmon_telemetry::HealthOptions::default()
        });
    let fs = LustreFs::new(LustreConfig::small_dne(mds.max(1)));
    let monitor = match ScalableMonitor::start(
        &fs,
        ScalableConfig {
            cache_size: 2000,
            // Small batches mean more publishes, so injected faults land
            // between batches often enough to matter. 1% tracing rides
            // along to prove sampling survives the fault plan.
            trace_sample_per_10k: 100,
            batch_size: 64,
            // The monitor opens the run's durable store(s) itself —
            // one per shard under this directory, each with small
            // segments so the run exercises rolls (and, under `storm`,
            // torn-tail quarantine) and each consulting the fault
            // plane.
            store_dir: Some(dir.join("store")),
            store_segment_bytes: 64 * 1024,
            durability,
            aggregator_shards: shards,
            faults: faults.clone(),
            resolver_threads,
            publish_lanes,
            health: health_opts,
            ..ScalableConfig::default()
        },
    ) {
        Ok(m) => m,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 2;
        }
    };
    // Shard stores outlive the monitor: the replay-based verdicts below
    // read them after stop().
    let stores = monitor.shard_stores();
    // Drive every consumer concurrently: the monitor's built-in one
    // plus `consumers - 1` named attachments, each drained on its own
    // thread and independently verified against the replay path.
    let mut lanes: Vec<(String, Arc<fsmon_lustre::FederatedConsumer>)> =
        vec![("main".to_string(), monitor.consumer().clone())];
    for i in 1..consumers {
        let name = format!("aux{i}");
        match monitor.new_consumer_named(fsmon_core::EventFilter::all(), &name) {
            Ok(c) => lanes.push((name, Arc::new(c))),
            Err(e) => {
                let _ = writeln!(out, "error: cannot attach consumer {name}: {e}");
                return 2;
            }
        }
    }
    let stopped = Arc::new(AtomicBool::new(false));
    // Each shard stamps its own dense id stream, so delivered events
    // are tracked as (shard, id) pairs — with K=1 everything lands in
    // shard 0 and the pairs degenerate to the classic id check.
    type LaneDrain = std::thread::JoinHandle<(String, Vec<(usize, u64)>)>;
    let drains: Vec<LaneDrain> = lanes
        .iter()
        .map(|(name, consumer)| {
            let name = name.clone();
            let consumer = consumer.clone();
            let stopped = stopped.clone();
            std::thread::spawn(move || {
                // Live feed, concurrent with the workload.
                let mut ids: Vec<(usize, u64)> = Vec::new();
                let live_deadline = Instant::now() + Duration::from_secs(80);
                loop {
                    let batch = consumer.recv_batch(8192, Duration::from_millis(200));
                    ids.extend(
                        batch
                            .iter()
                            .map(|e| (fsmon_core::shard_of(e.mdt_index, shards), e.id)),
                    );
                    if (batch.is_empty() && stopped.load(Ordering::Relaxed))
                        || Instant::now() >= live_deadline
                    {
                        break;
                    }
                }
                // The store lanes have joined by the time `stopped` is
                // set, so the stores hold every stamped event; heal
                // whatever the live feed missed from there.
                consumer.catch_up();
                loop {
                    let batch = consumer.recv_batch(8192, Duration::from_millis(50));
                    if batch.is_empty() {
                        break;
                    }
                    ids.extend(
                        batch
                            .iter()
                            .map(|e| (fsmon_core::shard_of(e.mdt_index, shards), e.id)),
                    );
                }
                (name, ids)
            })
        })
        .collect();

    // The materialized index rides the same pub/sub path on its own
    // lane, folding live batches as they arrive. Every 16 batches it
    // simulates a supervised crash: persist the snapshot, drop the
    // in-memory state, resume from the snapshot's applied-seq cursor,
    // and heal the discarded tail from the store. Events the store
    // cannot produce yet wait in the service's reorder stage, so the
    // fold never applies out of sequence.
    let index_consumer = match monitor.new_consumer_named(fsmon_core::EventFilter::all(), "index") {
        Ok(c) => c,
        Err(e) => {
            let _ = writeln!(out, "error: cannot attach index consumer: {e}");
            return 2;
        }
    };
    // One index service per shard (the reorder stage tracks one dense
    // id stream), each folding its shard's slice of the merged feed
    // and healing from its own shard store. K=1 keeps the classic
    // single service and snapshot name.
    let index_snap_path = |k: usize| {
        if shards == 1 {
            dir.join("index.snap")
        } else {
            dir.join(format!("index-s{k}.snap"))
        }
    };
    let index_snaps: Vec<std::path::PathBuf> = (0..shards).map(index_snap_path).collect();
    let index_stores = stores.clone();
    let index_stopped = stopped.clone();
    let index_thread = std::thread::spawn(move || {
        let new_engine = || fsmon_index::PolicyEngine::standard("/**", 0, 1.0);
        let mut svcs: Vec<fsmon_index::IndexService> = index_snaps
            .iter()
            .map(|p| fsmon_index::IndexService::open(p, new_engine()))
            .collect();
        let mut restarts = 0u64;
        let mut batches = vec![0u64; shards];
        let live_deadline = Instant::now() + Duration::from_secs(80);
        loop {
            let batch = index_consumer.recv_batch(8192, Duration::from_millis(200));
            if !batch.is_empty() {
                let mut slices: Vec<Vec<fsmon_events::StandardEvent>> =
                    (0..shards).map(|_| Vec::new()).collect();
                for ev in batch {
                    slices[fsmon_core::shard_of(ev.mdt_index, shards)].push(ev);
                }
                for (k, slice) in slices.into_iter().enumerate() {
                    if slice.is_empty() {
                        continue;
                    }
                    batches[k] += 1;
                    if batches[k].is_multiple_of(16) {
                        let _ = svcs[k].save();
                        svcs[k] = fsmon_index::IndexService::open(&index_snaps[k], new_engine());
                        restarts += 1;
                        // Heal what the crash discarded; anything the
                        // store lane hasn't persisted yet stages in the
                        // reorder buffer until a later catch-up fills
                        // the hole.
                        let _ = svcs[k].catch_up(index_stores[k].as_ref());
                    }
                    svcs[k].ingest(&slice);
                    if svcs[k].pending_len() > 0 {
                        let _ = svcs[k].catch_up(index_stores[k].as_ref());
                    }
                }
            } else if index_stopped.load(Ordering::Relaxed) || Instant::now() >= live_deadline {
                break;
            }
        }
        // The stores are complete once the monitor stopped; fold the
        // rest and leave snapshots behind for the reload proof.
        for (k, svc) in svcs.iter_mut().enumerate() {
            let _ = svc.catch_up(index_stores[k].as_ref());
            svc.record_lag(index_stores[k].as_ref());
            let _ = svc.save();
        }
        (svcs, restarts)
    });

    // The filtered lane: a narrow predicate pushed down to the
    // aggregator (server-side filtering) rides the same fault plan.
    // It must see exactly its subset, exactly once, across aggregator
    // crashes — verified below against a linear replay of the store
    // through the same compiled predicate.
    let filter_spec =
        fsmon_rules::FilterSpec::all().with_kinds(fsmon_events::kind::KindMask::from_kinds([
            fsmon_events::EventKind::Create,
        ]));
    let mut filtered = match monitor.new_filtered_consumer(&filter_spec, "chaos-filtered") {
        Ok(f) => f,
        Err(e) => {
            let _ = writeln!(out, "error: cannot attach filtered consumer: {e}");
            return 2;
        }
    };
    let filtered_stopped = stopped.clone();
    let filtered_thread = std::thread::spawn(move || {
        let mut ids: Vec<(usize, u64)> = Vec::new();
        let live_deadline = Instant::now() + Duration::from_secs(80);
        loop {
            let batch = filtered.recv_for(Duration::from_millis(200));
            ids.extend(
                batch
                    .iter()
                    .map(|e| (fsmon_core::shard_of(e.mdt_index, shards), e.id)),
            );
            if (batch.is_empty() && filtered_stopped.load(Ordering::Relaxed))
                || Instant::now() >= live_deadline
            {
                break;
            }
        }
        // The stores are complete once the monitor stopped: heal
        // recorded gaps and any lost tail through the subscriber's own
        // filter.
        ids.extend(
            filtered
                .catch_up()
                .iter()
                .map(|e| (fsmon_core::shard_of(e.mdt_index, shards), e.id)),
        );
        (ids, filtered.stats())
    });

    let client = fs.client();
    let bases = mdt_working_dirs(&fs);
    let elapsed = drive_spread_workload(&client, &bases, seconds);
    // The workload has no renames, so changelog records map 1:1 to
    // events and each shard's expected dense id range is the sum of
    // its MDTs' appended records.
    let mut expected_shard = vec![0u64; shards];
    for m in 0..fs.mdt_count() {
        expected_shard[fsmon_core::shard_of(Some(m), shards)] +=
            fs.mdt(m).changelog_stats().appended;
    }
    let expected: u64 = expected_shard.iter().sum();
    let published_all = monitor.wait_events(expected, Duration::from_secs(60));

    // Exercise the history REQ/REP path under the same plan: storm
    // injects request drops/errors, and the retry loop must heal them.
    match monitor.history_client() {
        Ok(history) => match history.replay_since_retry(0, 64, &fsmon_faults::Retry::fast()) {
            Ok(events) => {
                let _ = writeln!(
                    out,
                    "history   : replayed {} events through the faulted REQ/REP path",
                    events.len()
                );
            }
            Err(e) => {
                let _ = writeln!(out, "history   : replay failed past retry budget: {e}");
            }
        },
        Err(e) => {
            let _ = writeln!(out, "history   : connect failed: {e}");
        }
    }

    // Stopping joins the store lane, so the store now holds every
    // stamped event; the drain threads then heal and finish. The
    // health verdict and the changelog backlog are read first — stop()
    // tears the engine down, and what is still in a changelog then
    // reaches no consumer.
    let health_report = monitor.health().map(|h| h.report());
    let pending = monitor.total_backlog();
    monitor.stop();
    stopped.store(true, Ordering::Relaxed);

    // Each shard stamps ids dense from 1 over its own stream, so a
    // fault-free run delivers exactly the union of 1..=expected_shard[k]
    // for every shard k to every consumer — with K=1 that is the
    // classic 1..=expected check. Pairs outside a shard's range mean
    // an upstream duplicate slipped past dedup and was stamped as a
    // fresh event.
    let mut lost = 0u64;
    let mut duplicated = 0u64;
    let mut per_lane: Vec<(String, u64, u64, u64, u64)> = Vec::new();
    for handle in drains {
        let (name, mut ids) = handle.join().expect("consumer drain thread");
        let total = ids.len() as u64;
        ids.sort_unstable();
        ids.dedup();
        let unique = ids.len() as u64;
        let in_range = ids
            .iter()
            .filter(|&&(k, id)| k < shards && id >= 1 && id <= expected_shard[k])
            .count() as u64;
        let lane_lost = expected.saturating_sub(in_range);
        let lane_dup = (total - unique) + (unique - in_range);
        lost += lane_lost;
        duplicated += lane_dup;
        per_lane.push((name, total, unique, lane_lost, lane_dup));
    }
    // The federation invariant's other half: every shard's sequencer
    // stamped exactly its MDTs' records, so the union check above is
    // really a union of K linear shard replays.
    let last_seqs: Vec<u64> = stores.iter().map(|s| s.stats().last_seq).collect();
    let seq_ok = last_seqs == expected_shard;

    let after = fsmon_telemetry::global().snapshot();
    let delta = after.delta_from(&before);
    let _ = writeln!(out, "--- fault/recovery counters ---");
    let interesting = [
        "fsmon_faults_",
        "restarts_total",
        "retries_total",
        "dedup_dropped",
        "gaps_detected",
        "gap_events_healed",
        "duplicates_dropped",
        "store_abandoned",
        "reconnects_total",
        "errors_total",
        "torn_tails",
        "quarantined",
    ];
    for (id, value) in &delta.metrics {
        if let MetricValue::Counter(n) = value {
            if *n > 0 && interesting.iter().any(|p| id.name.contains(p)) {
                let _ = writeln!(out, "{id} +{n}");
            }
        }
    }

    let traced = delta.counter("fsmon_trace_records_total");
    if traced > 0 {
        let p99 = delta
            .histogram("fsmon_trace_e2e_ns")
            .map(|h| h.quantile(0.99))
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "tracing   : {traced} sampled traces completed (e2e p99 {p99} ns)"
        );
    }

    let rate = expected as f64 / elapsed.as_secs_f64().max(1e-9);
    let _ = writeln!(
        out,
        "generated : {expected} events in {:.1?} ({rate:.0} ev/s)",
        elapsed
    );
    let _ = writeln!(
        out,
        "pending   : {pending} records still in the changelogs at stop; \
         wait for {expected} published events {}",
        if published_all {
            "done"
        } else {
            "timed out after 60s"
        }
    );
    // One shard store per aggregator shard, each holding its shard's
    // dense stream: the store is complete when its last sequence is
    // the shard's record count.
    let _ = writeln!(
        out,
        "store     : last_seq {} -> {}",
        last_seqs
            .iter()
            .zip(&expected_shard)
            .map(|(got, want)| format!("{got} of {want}"))
            .collect::<Vec<_>>()
            .join(", "),
        if seq_ok { "PASS" } else { "FAIL" }
    );
    for (name, total, unique, lane_lost, lane_dup) in &per_lane {
        let _ = writeln!(
            out,
            "consumer  : {name}: {total} events ({unique} unique), lost {lane_lost}, \
             duplicated {lane_dup} -> {}",
            if *lane_lost == 0 && *lane_dup == 0 {
                "PASS"
            } else {
                "FAIL"
            }
        );
    }

    // The index invariant, per shard: the incrementally-folded state
    // (crashed and resumed mid-run) must equal a single linear fold of
    // that shard's full store, and so must the state a fresh service
    // resumes from the final snapshot — the whole-monitor-restart case.
    let (index_svcs, index_restarts) = index_thread.join().expect("index fold thread");
    let mut index_ok = true;
    let mut index_diverged = false;
    let mut index_applied = 0u64;
    let mut index_entries = 0usize;
    let mut index_rollups = 0usize;
    for (k, svc) in index_svcs.iter().enumerate() {
        let mut reference = fsmon_index::NamespaceIndex::new();
        loop {
            match stores[k].get_since(reference.applied_seq(), 4096) {
                Ok(chunk) if chunk.is_empty() => break,
                Ok(chunk) => {
                    for ev in &chunk {
                        reference.apply(ev);
                    }
                }
                Err(e) => {
                    let _ = writeln!(out, "error: shard {k} reference replay failed: {e}");
                    break;
                }
            }
        }
        let reloaded =
            fsmon_index::IndexService::open(index_snap_path(k), fsmon_index::PolicyEngine::empty());
        if svc.index() != &reference {
            index_diverged = true;
        }
        index_ok &= reference.applied_seq() >= expected_shard[k]
            && svc.index() == &reference
            && reloaded.index() == &reference;
        index_applied += svc.index().applied_seq();
        index_entries += svc.index().len();
        index_rollups += svc.index().rollup_count();
    }
    let _ = writeln!(
        out,
        "index     : applied seq {}, {} entries, {} rollups, {} supervised restarts, \
         replay fold {} -> {}",
        index_applied,
        index_entries,
        index_rollups,
        index_restarts,
        if index_diverged { "DIVERGED" } else { "equal" },
        if index_ok { "PASS" } else { "FAIL" }
    );

    // The filtered-lane invariant: what the pushdown subscriber
    // delivered (live class frames + store healing) must be exactly
    // the ids a linear replay of the store produces through the same
    // compiled predicate — no loss, no duplicates, and nothing outside
    // the predicate, despite the fault plan.
    let (filtered_ids, filtered_stats) = filtered_thread.join().expect("filtered drain thread");
    let compiled = filter_spec.compile();
    let mut subset_reference: Vec<(usize, u64)> = Vec::new();
    for (k, store) in stores.iter().enumerate() {
        let mut since = 0u64;
        loop {
            match store.get_since(since, 4096) {
                Ok(chunk) if chunk.is_empty() => break,
                Ok(chunk) => {
                    since = chunk.last().map(|e| e.id).unwrap_or(since);
                    subset_reference.extend(
                        chunk
                            .iter()
                            .filter(|e| compiled.matches_event(e))
                            .map(|e| (k, e.id)),
                    );
                }
                Err(e) => {
                    let _ = writeln!(
                        out,
                        "error: shard {k} filtered reference replay failed: {e}"
                    );
                    break;
                }
            }
        }
    }
    subset_reference.sort_unstable();
    let filtered_total = filtered_ids.len();
    let mut filtered_sorted = filtered_ids;
    filtered_sorted.sort_unstable();
    filtered_sorted.dedup();
    let filtered_dups = filtered_total - filtered_sorted.len();
    let filtered_ok = filtered_dups == 0 && filtered_sorted == subset_reference;
    let _ = writeln!(
        out,
        "filtered  : class {:?}: {} events ({} expected), {} dup, {} gaps healed ({} events), \
         {} frames lost -> {}",
        filter_spec.canonical(),
        filtered_total,
        subset_reference.len(),
        filtered_dups,
        filtered_stats.gaps_detected,
        filtered_stats.gap_events_healed,
        filtered_stats.frames_lost,
        if filtered_ok { "PASS" } else { "FAIL" }
    );

    // The SLO verdict rides alongside the delivery verdict: a breach
    // is evidence (bundles on disk), not a delivery failure, so it
    // does not flip the exit code.
    if let Some(report) = health_report {
        let _ = writeln!(out, "--- health ---");
        let _ = writeln!(out, "{report}");
    }

    let pass = lost == 0 && duplicated == 0 && seq_ok && index_ok && filtered_ok;
    let _ = writeln!(
        out,
        "verdict   : lost {lost}, duplicated {duplicated} -> {}",
        if pass { "PASS" } else { "FAIL" }
    );
    let _ = std::fs::remove_dir_all(&dir);
    if pass {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Cli;

    fn run_str(args: &[&str]) -> (i32, String) {
        let cli = Cli::parse(args.iter().copied()).unwrap();
        let mut out = Vec::new();
        let code = run(cli.command, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_str(&["help"]);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn watch_missing_dir_errors() {
        let (code, out) = run_str(&["watch", "/definitely/not/here"]);
        assert_eq!(code, 2);
        assert!(out.contains("not a directory"));
    }

    #[test]
    fn watch_observes_and_stores_then_replay_reads() {
        let dir = std::env::temp_dir().join(format!("fsmon-cli-watch-{}", std::process::id()));
        let store = std::env::temp_dir().join(format!("fsmon-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&store);
        std::fs::create_dir_all(&dir).unwrap();

        // Generate activity from another thread while watch runs.
        let dir2 = dir.clone();
        let gen = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            std::fs::write(dir2.join("a.txt"), b"x").unwrap();
            std::thread::sleep(Duration::from_millis(300));
            std::fs::remove_file(dir2.join("a.txt")).unwrap();
        });
        let (code, out) = run_str(&[
            "watch",
            dir.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--duration",
            "2",
            "--interval-ms",
            "50",
        ]);
        gen.join().unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("CREATE /a.txt"), "{out}");
        assert!(out.contains("DELETE /a.txt"), "{out}");

        let (code, out) = run_str(&["replay", "--store", store.to_str().unwrap()]);
        assert_eq!(code, 0);
        assert!(out.contains("CREATE /a.txt"), "{out}");
        assert!(out.contains("replayed 2 events"), "{out}");

        // Replay --since skips acknowledged history.
        let (_, out) = run_str(&["replay", "--store", store.to_str().unwrap(), "--since", "1"]);
        assert!(out.contains("replayed 1 events"), "{out}");

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn watch_kind_filter_limits_output() {
        let dir = std::env::temp_dir().join(format!("fsmon-cli-kinds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dir2 = dir.clone();
        let gen = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            std::fs::write(dir2.join("f"), b"1").unwrap();
            std::thread::sleep(Duration::from_millis(300));
            std::fs::remove_file(dir2.join("f")).unwrap();
        });
        let (code, out) = run_str(&[
            "watch",
            dir.to_str().unwrap(),
            "--kinds",
            "delete",
            "--duration",
            "1",
            "--interval-ms",
            "50",
        ]);
        gen.join().unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("DELETE /f"), "{out}");
        assert!(!out.contains("CREATE /f"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_on_missing_store_fails_cleanly() {
        // FileStore::open creates the directory, so point at a path that
        // cannot be created.
        let (code, out) = run_str(&["replay", "--store", "/proc/definitely/not/writable"]);
        assert_eq!(code, 2);
        assert!(out.contains("error"));
    }

    #[test]
    fn demo_lustre_runs_quickly() {
        let (code, out) = run_str(&[
            "demo-lustre",
            "--mds",
            "1",
            "--seconds",
            "1",
            "--cache",
            "100",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("generated"), "{out}");
        assert!(out.contains("lost 0"), "{out}");
        assert!(out.contains("--- telemetry"), "{out}");
    }

    #[test]
    fn demo_lustre_filter_attaches_a_pushdown_subscriber() {
        let (code, out) = run_str(&[
            "demo-lustre",
            "--mds",
            "1",
            "--seconds",
            "1",
            "--cache",
            "100",
            "--filter",
            "path=/**;kinds=CREATE",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("filtered  : class path=/**;kinds=CREATE;mdts=*:"),
            "{out}"
        );
    }

    #[test]
    fn demo_lustre_rejects_a_malformed_filter() {
        let Err(err) = Cli::parse(["demo-lustre", "--filter", "kinds=NOPE"].iter().copied()) else {
            panic!("malformed spec accepted");
        };
        assert!(err.0.contains("--filter"), "{}", err.0);
    }

    #[test]
    fn stats_live_run_reports_nonzero_pipeline_metrics() {
        let (code, out) = run_str(&["stats", "--seconds", "1", "--cache", "100"]);
        assert_eq!(code, 0, "{out}");
        // Every stage the acceptance criteria name shows activity.
        for line in [
            "collector :",
            "fid2path  :",
            "mq        :",
            "aggregator:",
            "store     :",
            "consumer  :",
        ] {
            assert!(out.contains(line), "missing {line:?} in {out}");
        }
        assert!(!out.contains("collector : 0 records"), "{out}");
        // The live run folds its store into a materialized index, so
        // the summary gains an index section with a real cursor.
        assert!(out.contains("index     : applied seq"), "{out}");
        assert!(!out.contains("index     : applied seq 0"), "{out}");
    }

    #[test]
    fn top_ticks_and_merges_the_fleet_view() {
        let (code, out) = run_str(&[
            "top",
            "--mds",
            "2",
            "--seconds",
            "1",
            "--cache",
            "100",
            "--interval-ms",
            "100",
            "--window",
            "2",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("tick "), "{out}");
        // Windowed per-MDT rates ride along with every tick.
        assert!(out.contains("window"), "{out}");
        // The sparkline dashboard line: glyphs scaled to the peak rate.
        assert!(out.contains("peak"), "{out}");
        assert!(
            out.chars().any(|c| "▁▂▃▄▅▆▇█".contains(c)),
            "no sparkline glyphs: {out}"
        );
        assert!(out.contains("mdt0"), "{out}");
        assert!(out.contains("mdt1"), "{out}");
        assert!(out.contains("--- fleet (2 sources"), "{out}");
        assert!(out.contains("fleet     :"), "{out}");
        // The subscribers section: both pushdown classes with shared
        // fan-out counters, and the per-subscriber delivery totals.
        assert!(out.contains("--- subscribers (2 classes)"), "{out}");
        assert!(out.contains("class     : path=/**;kinds=*;mdts=*"), "{out}");
        assert!(out.contains("kinds=CREATE"), "{out}");
        assert!(out.contains("subscriber:"), "{out}");
        // Tracing is on at 1%, so the final summary attributes latency.
        assert!(out.contains("latency   :"), "{out}");
        assert!(out.contains("exemplar  :"), "{out}");
    }

    #[test]
    fn chaos_basic_plan_passes_with_zero_loss() {
        let (code, out) = run_str(&["chaos", "--plan", "basic", "--seed", "7", "--seconds", "1"]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("verdict   : lost 0, duplicated 0 -> PASS"),
            "{out}"
        );
        // The attached index lane crashed, resumed from its snapshot
        // cursor, and still folded to the full-replay state.
        assert!(out.contains("replay fold equal -> PASS"), "{out}");
        assert!(out.contains("fault/recovery counters"), "{out}");
        // The store ended holding the whole dense stream, and nothing
        // was left in the changelog.
        assert!(
            out.lines()
                .any(|l| l.starts_with("store     : last_seq") && l.ends_with("-> PASS")),
            "{out}"
        );
        assert!(out.contains("pending   : 0 records"), "{out}");
        // The pushdown lane saw exactly its subset, exactly once.
        assert!(out.contains("filtered  : class"), "{out}");
        assert!(out.contains("-> PASS"), "{out}");
    }

    #[test]
    fn find_resumes_from_snapshot_cursor_over_a_real_store() {
        use fsmon_events::{EventKind, StandardEvent};
        let dir = std::env::temp_dir().join(format!("fsmon-cli-find-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = FileStore::open(&dir).unwrap();
            for (path, size) in [
                ("/data/a.h5", 4096),
                ("/data/b.h5", 128),
                ("/logs/x.log", 64),
            ] {
                store
                    .append(
                        &StandardEvent::new(EventKind::Create, "/r", path)
                            .with_size(size)
                            .with_owner(1001),
                    )
                    .unwrap();
            }
        }

        let (code, out) = run_str(&[
            "find",
            "--store",
            dir.to_str().unwrap(),
            "--pattern",
            "/data/*.h5",
            "--min-size",
            "1024",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("resumed at seq 0, caught up to seq 3"),
            "{out}"
        );
        assert!(out.contains("/data/a.h5"), "{out}");
        assert!(!out.contains("/data/b.h5"), "too small: {out}");
        assert!(!out.contains("/logs/x.log"), "wrong pattern: {out}");
        assert!(out.contains("matched 1 of 3 entries"), "{out}");

        // A second query resumes from the saved snapshot cursor
        // instead of replaying the whole store.
        let (code, out) = run_str(&["find", "--store", dir.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("resumed at seq 3, caught up to seq 3"),
            "{out}"
        );

        // Rollups answer du without touching the store's segments.
        let (code, out) = run_str(&["du", "--store", dir.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("/data"), "{out}");
        assert!(out.contains("total under /"), "{out}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_reports_standard_rules_from_demo_run() {
        let (code, out) = run_str(&["policy", "--purge-age", "0", "--seconds", "1"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("indexing a fresh"), "{out}");
        for rule in ["purge-age", "hot-dirs", "orphans"] {
            assert!(out.contains(rule), "missing {rule}: {out}");
        }
        assert!(out.contains("candidates"), "{out}");
    }

    #[test]
    fn chaos_unknown_plan_errors() {
        let (code, out) = run_str(&["chaos", "--plan", "nope"]);
        assert_eq!(code, 2);
        assert!(out.contains("none, basic, storm"), "{out}");
    }

    #[test]
    fn health_queries_a_live_observer() {
        use std::sync::Arc;
        let registry = fsmon_telemetry::Registry::new();
        let local: fsmon_telemetry::health::SnapshotFn = {
            let registry = registry.clone();
            Arc::new(move || registry.snapshot())
        };
        let monitor = fsmon_telemetry::HealthMonitor::spawn(
            local,
            None,
            fsmon_telemetry::HealthOptions {
                tick: Duration::from_millis(20),
                http_addr: Some(":0".into()),
                ..fsmon_telemetry::HealthOptions::default()
            },
        )
        .unwrap();
        let addr = monitor.http_addr().unwrap().to_string();
        // Give the engine a tick so the report turns ready.
        std::thread::sleep(Duration::from_millis(120));
        let (code, out) = run_str(&["health", &addr]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("health: OK"), "{out}");
        monitor.stop();
    }

    #[test]
    fn health_unreachable_endpoint_errors() {
        let (code, out) = run_str(&["health", "127.0.0.1:1"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("error"), "{out}");
    }

    #[test]
    fn incidents_show_and_list_round_trip() {
        let dir = std::env::temp_dir().join(format!("fsmon-cli-incidents-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        fsmon_telemetry::root()
            .scope("cliincident")
            .counter("events_total")
            .add(3);
        let snap = fsmon_telemetry::global().snapshot();
        let bundle = fsmon_telemetry::IncidentBundle {
            reason: "slo:e2e_p99<50000000".into(),
            unix_ms: 1700000000000,
            config: "mds=2 cache=100".into(),
            slo: Some("e2e_p99<50000000;budget=0.05;fast=30s;slow=300s".into()),
            verdicts: vec![],
            exemplar: None,
            snapshots: vec![(1699999999000, snap)],
        };
        let path = dir.join("incident-1700000000000-1-slo-e2e.json");
        std::fs::write(&path, bundle.encode()).unwrap();

        let (code, out) = run_str(&["incidents", "show", path.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("reason    : slo:e2e_p99<50000000"), "{out}");
        assert!(out.contains("config    : mds=2 cache=100"), "{out}");
        assert!(out.contains("snapshots : 1 pre-incident ticks"), "{out}");

        // A truncated bundle fails the CRC check instead of printing
        // partial evidence.
        let torn = dir.join("incident-1700000000001-2-torn.json");
        let text = bundle.encode();
        let mut cut = text.len() / 2;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        std::fs::write(&torn, &text[..cut]).unwrap();
        let (code, out) = run_str(&["incidents", "show", torn.to_str().unwrap()]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("error"), "{out}");

        let (code, out) = run_str(&["incidents", "list", dir.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("incident-1700000000000-1-slo-e2e.json"),
            "{out}"
        );
        assert!(out.contains("corrupt"), "{out}");
        assert!(out.contains("2 bundle(s)"), "{out}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_diff_reports_counter_deltas() {
        let c = fsmon_telemetry::root()
            .scope("clidiff")
            .counter("ticks_total");
        c.add(3);
        let dir = std::env::temp_dir();
        let a = dir.join(format!("fsmon-diff-a-{}.prom", std::process::id()));
        let b = dir.join(format!("fsmon-diff-b-{}.json", std::process::id()));
        std::fs::write(
            &a,
            fsmon_telemetry::export::render_prometheus(&fsmon_telemetry::global().snapshot()),
        )
        .unwrap();
        c.add(5);
        std::fs::write(
            &b,
            fsmon_telemetry::export::render_json(&fsmon_telemetry::global().snapshot()),
        )
        .unwrap();

        let (code, out) = run_str(&["stats", "--diff", a.to_str().unwrap(), b.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("fsmon_clidiff_ticks_total +5"), "{out}");

        // Machine formats render the delta snapshot itself.
        let (code, out) = run_str(&[
            "stats",
            "--diff",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--format",
            "json",
        ]);
        assert_eq!(code, 0, "{out}");
        let delta = fsmon_telemetry::export::parse_json(&out).unwrap();
        assert_eq!(delta.counter("fsmon_clidiff_ticks_total"), 5);

        let (code, _) = run_str(&["stats", "--diff", a.to_str().unwrap(), "/nope.prom"]);
        assert_eq!(code, 2);

        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn stats_from_file_parses_both_dialects() {
        // Populate the process-wide registry, then export and re-read
        // through the command path.
        fsmon_telemetry::root()
            .scope("clitest")
            .counter("events_total")
            .add(7);
        let snap = fsmon_telemetry::global().snapshot();
        let dir = std::env::temp_dir();
        let prom_path = dir.join(format!("fsmon-stats-{}.prom", std::process::id()));
        let json_path = dir.join(format!("fsmon-stats-{}.json", std::process::id()));
        std::fs::write(
            &prom_path,
            fsmon_telemetry::export::render_prometheus(&snap),
        )
        .unwrap();
        std::fs::write(&json_path, fsmon_telemetry::export::render_json(&snap)).unwrap();

        let (code, out) = run_str(&[
            "stats",
            "--from",
            prom_path.to_str().unwrap(),
            "--format",
            "json",
        ]);
        assert_eq!(code, 0, "{out}");
        let reparsed = fsmon_telemetry::export::parse_json(&out).unwrap();
        assert_eq!(reparsed.counter("fsmon_clitest_events_total"), 7);

        let (code, out) = run_str(&["stats", "--from", json_path.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("--- telemetry"), "{out}");

        let (code, out) = run_str(&["stats", "--from", "/definitely/not/here.prom"]);
        assert_eq!(code, 2);
        assert!(out.contains("error"), "{out}");

        let _ = std::fs::remove_file(&prom_path);
        let _ = std::fs::remove_file(&json_path);
    }
}
