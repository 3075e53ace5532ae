//! The assembled scalable monitor and its DSI adapter.
//!
//! [`ScalableMonitor::start`] wires the full Fig. 4 pipeline over a
//! simulated Lustre deployment: one collector thread per MDS, an
//! aggregator on the (conceptual) MGS, and a consumer on the client.
//! [`LustreDsi`] adapts the pipeline to `fsmon-core`'s
//! [`StorageInterface`], making Lustre one more pluggable DSI.

use crate::collector::{Collector, CollectorStats};
use crate::consumer::Consumer;
use crate::sharded::{FederatedConsumer, ShardPlan, ShardedAggregator};
use crate::subscriber::FederatedFilteredConsumer;
use fsmon_core::dsi::{DsiError, RawEvent, StorageInterface};
use fsmon_core::EventFilter;
use fsmon_events::MonitorSource;
use fsmon_faults::{FaultPoint, Faults, Retry};
use fsmon_mq::Context;
use fsmon_store::{EventStore, MemStore};
use lustre_sim::namespace::MdtHandle;
use lustre_sim::LustreFs;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which transport connects the pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// In-process channels (single-host runs, tests, benchmarks).
    #[default]
    Inproc,
    /// TCP loopback — the deployment shape of the real system
    /// (collector on each MDS, aggregator on the MGS).
    Tcp,
}

/// Configuration for the scalable monitor.
#[derive(Clone)]
pub struct ScalableConfig {
    /// LRU capacity for each collector's `fid2path` cache (0 disables;
    /// the paper settles on 5000, §V-D4).
    pub cache_size: usize,
    /// Changelog records per collector batch.
    pub batch_size: usize,
    /// Stage transport.
    pub transport: Transport,
    /// Watch root reported on standardized events.
    pub watch_root: String,
    /// Reliable event store (defaults to in-memory, or a [`FileStore`]
    /// under [`store_dir`] when that is set).
    ///
    /// [`FileStore`]: fsmon_store::FileStore
    /// [`store_dir`]: ScalableConfig::store_dir
    pub store: Option<Arc<dyn EventStore>>,
    /// When `store` is `None` and this is set, the monitor opens a
    /// durable [`fsmon_store::FileStore`] in this directory (segment
    /// size [`store_segment_bytes`], flush policy [`durability`], the
    /// config's fault plane armed on its injection points).
    ///
    /// [`store_segment_bytes`]: ScalableConfig::store_segment_bytes
    /// [`durability`]: ScalableConfig::durability
    pub store_dir: Option<std::path::PathBuf>,
    /// Segment roll threshold for a [`store_dir`]-opened store, bytes.
    ///
    /// [`store_dir`]: ScalableConfig::store_dir
    pub store_segment_bytes: u64,
    /// Flush policy for a [`store_dir`]-opened store.
    ///
    /// [`store_dir`]: ScalableConfig::store_dir
    pub durability: fsmon_store::Durability,
    /// How often the janitor purges reported events from the store
    /// ("they are flagged as having been reported and can be removed
    /// from the data store when next data purge cycle is initiated",
    /// §IV Consumption). `None` disables automatic purging.
    pub purge_interval: Option<Duration>,
    /// Fault plane consulted by collector lanes (crash injection) and
    /// armed on the aggregator's consumer-facing link. Unarmed
    /// ([`Faults::none`]) by default; the supervisor restarts whatever
    /// the plane kills.
    pub faults: Faults,
    /// Retry policy handed to collectors (transient MDS errors) and the
    /// aggregator's store lane.
    pub retry: Retry,
    /// Worker threads each collector uses to resolve `fid2path`
    /// concurrently against its sharded cache (1 = inline, the serial
    /// baseline). Resolution dominates collector cost (§V-D), so this
    /// is the pipeline's primary scaling knob.
    pub resolver_threads: usize,
    /// Aggregator publish-side worker lanes (decode/dedup/encode fan
    /// out by collector topic; the single sequencer keeps ids dense).
    pub publish_lanes: usize,
    /// Aggregator shards (K). 1 (the default) is the classic single
    /// MGS aggregator. With K > 1 the MDTs partition `mdt % K` across
    /// K full aggregator pipelines, each stamping its own dense id
    /// stream into its own store shard; consumers federate the shard
    /// streams behind a vector watermark (see [`crate::sharded`]).
    /// K > 1 requires per-shard stores: set [`store_dir`] (each shard
    /// opens `store_dir/shard-<k>`) or leave both store fields unset
    /// (one `MemStore` per shard) — a single shared
    /// [`store`](ScalableConfig::store) is rejected.
    ///
    /// [`store_dir`]: ScalableConfig::store_dir
    pub aggregator_shards: usize,
    /// Most events each shard's store lane folds into one group
    /// commit. The default keeps commits large and rare; benches
    /// shrink it to make a workload commit-bound.
    pub store_group_max: usize,
    /// Trace sampling rate: this many events out of every 10 000 carry
    /// an end-to-end trace record through the pipeline (0 disables
    /// tracing entirely — untraced runs pay zero wire bytes). Stamps
    /// come from the simulated Lustre clock, so traces are
    /// deterministic under a seeded chaos run.
    pub trace_sample_per_10k: u32,
    /// Tail-biased trace sampling: when a collector batch's resolve
    /// latency reaches this many nanoseconds, a trace is forced for
    /// that batch even if the uniform sampler skips it, keeping p99
    /// exemplars sharp at low `trace_sample_per_10k` rates. 0 disables
    /// the bias.
    pub trace_tail_threshold_ns: u64,
    /// Clock the tracer stamps stages with. `None` (the default) uses
    /// the simulated Lustre clock, which only advances with workload
    /// operations — right for deterministic chaos traces, wrong for a
    /// saturated drain of a pre-built backlog where no operations run.
    /// Benches that need real queue-delay latencies supply a wall
    /// clock here.
    pub trace_clock: Option<fsmon_telemetry::ClockFn>,
    /// Self-observability: when set, the monitor runs a
    /// [`fsmon_telemetry::HealthMonitor`] evaluating the configured
    /// SLO over windowed snapshot series (local and fleet-merged
    /// scopes), serving the HTTP observer endpoint, and dumping
    /// incident bundles on SLO breach or supervisor-observed lane
    /// restarts.
    pub health: Option<fsmon_telemetry::HealthOptions>,
}

impl Default for ScalableConfig {
    fn default() -> Self {
        ScalableConfig {
            cache_size: 5000,
            batch_size: 1024,
            transport: Transport::Inproc,
            watch_root: "/mnt/lustre".to_string(),
            store: None,
            store_dir: None,
            store_segment_bytes: fsmon_store::file::DEFAULT_SEGMENT_BYTES,
            durability: fsmon_store::Durability::None,
            purge_interval: Some(Duration::from_secs(30)),
            faults: Faults::none(),
            retry: Retry::fast(),
            resolver_threads: 4,
            publish_lanes: 2,
            aggregator_shards: 1,
            store_group_max: crate::aggregator::DEFAULT_STORE_GROUP_MAX,
            trace_sample_per_10k: 0,
            trace_tail_threshold_ns: 0,
            trace_clock: None,
            health: None,
        }
    }
}

impl ScalableConfig {
    /// Default configuration with the cache disabled (the paper's
    /// "without cache" rows).
    pub fn without_cache() -> ScalableConfig {
        ScalableConfig {
            cache_size: 0,
            ..ScalableConfig::default()
        }
    }
}

static MONITOR_SEQ: AtomicU64 = AtomicU64::new(0);

/// The running pipeline.
pub struct ScalableMonitor {
    collectors: Vec<Arc<Mutex<Collector>>>,
    collector_alive: Vec<Arc<AtomicBool>>,
    threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    aggregator: Arc<ShardedAggregator>,
    consumer: Arc<FederatedConsumer>,
    ctx: Context,
    stop: Arc<AtomicBool>,
    watch_root: String,
    /// What each collector lane counts about itself, indexed by MDT.
    lane_counters: Vec<Arc<LaneCounters>>,
    /// One historic-events service per aggregator shard (shard 0
    /// doubles as the classic single endpoint).
    history: Vec<crate::history::HistoryService>,
    collector_restarts: Arc<AtomicU64>,
    tracer: fsmon_telemetry::Tracer,
    health: Option<Arc<fsmon_telemetry::HealthMonitor>>,
}

/// What a collector lane counts about itself; survives the lane's
/// restarts.
#[derive(Default)]
struct LaneCounters {
    /// Wall time spent inside productive `step()`s (ns). Busy time, not
    /// wall time, is what determines a collector's service capacity on
    /// a shared-core host.
    busy_ns: AtomicU64,
    /// Bounded changelog waits that ended by timeout: how often an idle
    /// lane woke with nothing to do.
    idle_wakeups: AtomicU64,
}

/// Longest a lane parks on a quiet changelog before it looks at the
/// stop flag again (and flushes a dirty fleet snapshot).
const LANE_PARK: Duration = Duration::from_millis(20);

/// A wait that records end sooner than this is a *quick wake*: the
/// lane had barely gone idle. It is also how long a lane that keeps
/// being woken quickly holds off its next step.
const LANE_PACE: Duration = Duration::from_micros(200);

/// Quick wakes in a row a lane answers at once before it starts to
/// pace itself. An isolated record, or a burst of a few, is read the
/// moment it is appended; a stream that never lets the lane rest
/// (> 5k records/s for milliseconds on end) is read in batches, because
/// one wake-up per record per pipeline stage costs more CPU than the
/// records do. Once pacing, the lane sleeps `LANE_PACE` before every
/// step for as long as steps find more than one record. A paced step
/// that finds a single record had nothing to batch — a client that
/// issues its next operation when it sees the event of the last one
/// looks like this — and the count starts over. The same rule covers
/// records a step cannot take (no matching subscriber yet, an injected
/// `ChangelogRead` fault): the wait returns at once every time, so the
/// lane retries on this timer and cannot spin.
const LANE_QUICK_WAKES: u32 = 32;

/// Everything one collector lane thread needs; bundled so the
/// supervisor can respawn a lane with the same wiring.
struct CollectorLane {
    collector: Arc<Mutex<Collector>>,
    /// The lane's own handle to the MDT: it waits on the changelog
    /// without holding the collector.
    mdt: MdtHandle,
    alive: Arc<AtomicBool>,
    counters: Arc<LaneCounters>,
    stop: Arc<AtomicBool>,
    faults: Faults,
}

/// Run one collector lane until stop — or until an injected crash
/// kills it after a productive step. The supervisor then resumes a
/// replacement at the clear index the MDT holds for the dead
/// incarnation's changelog user.
///
/// The lane is driven by the changelog, not by a timer: it steps while
/// steps produce events and otherwise blocks in
/// [`MdtHandle::wait_changelog`] until `append` wakes it (a lane that
/// is woken again and again the moment it blocks paces itself, see
/// [`LANE_QUICK_WAKES`]). The wait happens outside the `Collector`
/// mutex, so `stats()`, `backlog()` and the supervisor never queue
/// behind a parked lane.
fn spawn_collector_lane(threads: &Mutex<Vec<std::thread::JoinHandle<()>>>, lane: CollectorLane) {
    lane.alive.store(true, Ordering::Relaxed);
    let mdt = lane.mdt.index();
    let scope = fsmon_telemetry::root()
        .scope("collector")
        .with_label("mdt", mdt.to_string());
    let step_ns = scope.histogram("step_ns");
    let idle_wakeups = scope.counter("idle_wakeups_total");
    let handle = std::thread::Builder::new()
        .name(format!("collector-mdt{mdt}"))
        .spawn(move || {
            // At `LANE_QUICK_WAKES` the lane is pacing itself: every
            // step it takes follows a `LANE_PACE` sleep.
            let mut quick_wakes = 0u32;
            while !lane.stop.load(Ordering::Relaxed) {
                // Breach-injection point: a stall keeps the lane alive
                // but stops it draining, growing ingest lag until the
                // health engine's SLO fires.
                lane.faults.inject_or_delay(FaultPoint::CollectorStall);
                let t0 = Instant::now();
                let (produced, since) = {
                    let mut c = lane.collector.lock();
                    (c.step().len(), c.last_index())
                };
                if produced > 0 {
                    let elapsed = t0.elapsed().as_nanos() as u64;
                    lane.counters.busy_ns.fetch_add(elapsed, Ordering::Relaxed);
                    step_ns.record(elapsed);
                    // Rolled per productive step, after the step's
                    // clear and publish.
                    if lane.faults.inject(FaultPoint::CollectorCrash).is_some() {
                        lane.alive.store(false, Ordering::Relaxed);
                        return;
                    }
                    if quick_wakes < LANE_QUICK_WAKES {
                        continue;
                    }
                    if produced > 1 {
                        // Pacing pays: stay on the timer.
                        std::thread::sleep(LANE_PACE);
                    } else {
                        quick_wakes = 0;
                    }
                    continue;
                }
                let parked = Instant::now();
                if !lane.mdt.wait_changelog(since, LANE_PARK) {
                    quick_wakes = 0;
                    lane.counters.idle_wakeups.fetch_add(1, Ordering::Relaxed);
                    idle_wakeups.inc();
                    lane.collector.lock().flush_fleet_snapshot();
                } else if parked.elapsed() >= LANE_PACE {
                    quick_wakes = 0;
                } else {
                    quick_wakes = (quick_wakes + 1).min(LANE_QUICK_WAKES);
                    if quick_wakes == LANE_QUICK_WAKES {
                        std::thread::sleep(LANE_PACE);
                    }
                }
            }
            lane.alive.store(false, Ordering::Relaxed);
        })
        .expect("spawn collector thread");
    threads.lock().push(handle);
}

/// The one way a collector comes up, at start and on every restart:
/// bind its publisher (at `inproc_name` in-process, on an ephemeral
/// loopback port over TCP) and build the collector behind it with the
/// config's retry policy, resolver pool and tracer, resuming after
/// changelog index `resume_at`. At 0 a fresh changelog user starts at
/// the MDT's oldest retained record. Returns the endpoint to subscribe
/// to; the caller spawns the lane.
fn launch_collector(
    ctx: &Context,
    fs: &Arc<LustreFs>,
    config: &ScalableConfig,
    tracer: &fsmon_telemetry::Tracer,
    mdt: u16,
    inproc_name: String,
    resume_at: u64,
) -> Result<(String, Collector), fsmon_mq::MqError> {
    let publisher = ctx.publisher();
    let endpoint = match config.transport {
        Transport::Inproc => {
            publisher.bind(&inproc_name)?;
            inproc_name
        }
        Transport::Tcp => {
            publisher.bind("tcp://127.0.0.1:0")?;
            format!("tcp://{}", publisher.local_addr().expect("tcp bound"))
        }
    };
    let collector = Collector::resume(
        fs.mdt(mdt),
        config.watch_root.clone(),
        config.cache_size,
        config.batch_size,
        Some(publisher),
        resume_at,
    )
    .with_retry(config.retry)
    .with_resolver_threads(config.resolver_threads)
    .with_tracer(tracer.clone());
    Ok((endpoint, collector))
}

impl ScalableMonitor {
    /// Start collectors, aggregator, and a consumer over `fs`.
    pub fn start(
        fs: &Arc<LustreFs>,
        config: ScalableConfig,
    ) -> Result<ScalableMonitor, fsmon_mq::MqError> {
        let ctx = Context::new();
        let run_id = MONITOR_SEQ.fetch_add(1, Ordering::Relaxed);
        let shards = config.aggregator_shards.max(1);
        let open_file_store =
            |dir: &std::path::Path| -> Result<Arc<dyn EventStore>, fsmon_mq::MqError> {
                let options = fsmon_store::FileStoreOptions {
                    segment_bytes: config.store_segment_bytes,
                    durability: config.durability,
                    faults: config.faults.clone(),
                    ..fsmon_store::FileStoreOptions::default()
                };
                let fs_store = fsmon_store::FileStore::open_with_options(dir, options)
                    .map_err(|e| fsmon_mq::MqError::BindFailed(format!("store: {e}")))?;
                Ok(Arc::new(fs_store))
            };
        // One store per shard: each shard's sequencer resumes its dense
        // id stream from its *own* store, so the stores cannot be
        // shared or pooled.
        let stores: Vec<Arc<dyn EventStore>> = match (&config.store, &config.store_dir, shards) {
            (Some(store), _, 1) => vec![store.clone()],
            (Some(_), _, _) => {
                return Err(fsmon_mq::MqError::BindFailed(
                    "aggregator_shards > 1 needs one store per shard: set store_dir \
                     (each shard opens store_dir/shard-<k>) instead of a single shared store"
                        .to_string(),
                ))
            }
            (None, Some(dir), 1) => vec![open_file_store(dir)?],
            (None, Some(dir), k) => {
                let mut stores = Vec::with_capacity(k);
                for shard in 0..k {
                    stores.push(open_file_store(&dir.join(format!("shard-{shard}")))?);
                }
                stores
            }
            (None, None, k) => (0..k)
                .map(|_| Arc::new(MemStore::new()) as Arc<dyn EventStore>)
                .collect(),
        };
        // Arm the simulated MDS: fid2path and changelog calls consult
        // the plane (a no-op unless the plan armed those points).
        fs.arm_faults(config.faults.clone());

        // The pipeline tracer stamps stages with the *simulated* clock:
        // under a seeded chaos run the whole workload (and therefore
        // every clock advance) is deterministic, so traces are too.
        let tracer = if config.trace_sample_per_10k > 0 || config.trace_tail_threshold_ns > 0 {
            let clock = config.trace_clock.clone().unwrap_or_else(|| {
                let clock_fs = fs.clone();
                Arc::new(move || clock_fs.clock().now_ns())
            });
            fsmon_telemetry::Tracer::new(config.trace_sample_per_10k, clock)
                .with_tail_threshold(config.trace_tail_threshold_ns)
        } else {
            fsmon_telemetry::Tracer::disabled()
        };

        // One collector per MDT, each starting at its MDT's oldest
        // retained record: a previous monitor's progress survives in
        // the changelog (exact while the monitor is its only reader).
        let mut collector_endpoints = Vec::new();
        let mut collectors = Vec::new();
        for i in 0..fs.mdt_count() {
            let inproc_name = format!("inproc://fsmon-{run_id}-mdt{i}");
            let (endpoint, collector) =
                launch_collector(&ctx, fs, &config, &tracer, i, inproc_name, 0)?;
            collector_endpoints.push(endpoint);
            collectors.push(Arc::new(Mutex::new(collector)));
        }

        // One consumer-facing endpoint per shard.
        let consumer_endpoints: Vec<String> = (0..shards)
            .map(|k| match config.transport {
                Transport::Inproc => format!("inproc://fsmon-{run_id}-agg-s{k}"),
                Transport::Tcp => "tcp://127.0.0.1:0".to_string(),
            })
            .collect();
        let aggregator = Arc::new(ShardedAggregator::start(
            &ctx,
            ShardPlan {
                collector_endpoints: collector_endpoints.clone(),
                consumer_endpoints,
                stores: stores.clone(),
                faults: config.faults.clone(),
                retry: config.retry,
                publish_lanes: config.publish_lanes,
                tracer: tracer.clone(),
                store_group_max: config.store_group_max,
            },
        )?);
        // The MGS also serves the historic-events API over REQ/REP —
        // one service per shard store, consulting the same fault plane
        // (injected request failures exercise the client-side retry
        // path).
        let mut history = Vec::with_capacity(shards);
        for (k, store) in stores.iter().enumerate() {
            let history_endpoint = match config.transport {
                Transport::Inproc => format!("inproc://fsmon-{run_id}-history-s{k}"),
                Transport::Tcp => "tcp://127.0.0.1:0".to_string(),
            };
            history.push(crate::history::HistoryService::start_with_faults(
                &ctx,
                &history_endpoint,
                store.clone(),
                config.faults.clone(),
            )?);
        }
        // The main consumer: one lane per shard, federated behind the
        // classic API with a vector watermark and a bounded-reordering
        // merge.
        let mut consumer_lanes = Vec::with_capacity(shards);
        for (endpoint, store) in aggregator.consumer_endpoints().iter().zip(&stores) {
            consumer_lanes.push(Arc::new(Consumer::connect_traced(
                &ctx,
                endpoint,
                EventFilter::all(),
                Some(store.clone()),
                "main",
                tracer.clone(),
            )?));
        }
        let consumer = Arc::new(FederatedConsumer::from_parts(consumer_lanes));

        // One collection thread per MDS (Fig. 4: "deploying collectors
        // on individual MDSs enables every MDS to be monitored in
        // parallel").
        let stop = Arc::new(AtomicBool::new(false));
        let threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        // The janitor: periodic purge cycles over the reliable store,
        // plus a per-tick flush check so a time-based durability policy
        // bounds the tail-loss window even when the store goes idle
        // (commit-time checks alone only fire while events arrive). It
        // runs whenever either duty exists — purging enabled, or a
        // store whose durability policy needs the flush ticker — so
        // `Durability::IntervalMs` keeps its bound with purging off.
        if config.purge_interval.is_some() || stores.iter().any(|s| s.needs_flush_ticker()) {
            let purge_interval = config.purge_interval;
            let stores = stores.clone();
            let stop = stop.clone();
            let janitor = fsmon_telemetry::root().scope("janitor");
            let purge_ns = janitor.histogram("purge_ns");
            let idle_flushes = janitor.counter("idle_flushes_total");
            threads.lock().push(
                std::thread::Builder::new()
                    .name("store-janitor".into())
                    .spawn(move || {
                        let mut slept = Duration::ZERO;
                        while !stop.load(Ordering::Relaxed) {
                            std::thread::sleep(Duration::from_millis(20));
                            slept += Duration::from_millis(20);
                            for store in &stores {
                                if let Ok(true) = store.flush_if_due() {
                                    idle_flushes.inc();
                                }
                            }
                            if let Some(interval) = purge_interval {
                                if slept >= interval {
                                    slept = Duration::ZERO;
                                    let t0 = std::time::Instant::now();
                                    for store in &stores {
                                        let _ = store.purge_reported();
                                    }
                                    purge_ns.record(t0.elapsed().as_nanos() as u64);
                                }
                            }
                        }
                    })
                    .expect("spawn janitor thread"),
            );
        }
        let mut lane_counters = Vec::new();
        let mut collector_alive = Vec::new();
        for (i, collector) in collectors.iter().enumerate() {
            let counters = Arc::new(LaneCounters::default());
            let alive = Arc::new(AtomicBool::new(false));
            lane_counters.push(counters.clone());
            collector_alive.push(alive.clone());
            spawn_collector_lane(
                &threads,
                CollectorLane {
                    collector: collector.clone(),
                    mdt: fs.mdt(i as u16),
                    alive,
                    counters,
                    stop: stop.clone(),
                    faults: config.faults.clone(),
                },
            );
        }
        let collector_restarts = Arc::new(AtomicU64::new(0));

        // Self-observability: the health engine ticks over the global
        // registry (local scope) and the aggregator's fleet-merged view
        // (fleet scope). Started before the supervisor so lane-restart
        // crashes can be reported to it.
        let health = match &config.health {
            Some(opts) => {
                let mut opts = opts.clone();
                if opts.config_desc.is_empty() {
                    opts.config_desc = format!(
                        "mdts={} cache={} batch={} resolver_threads={} publish_lanes={} trace_per_10k={}",
                        fs.mdt_count(),
                        config.cache_size,
                        config.batch_size,
                        config.resolver_threads,
                        config.publish_lanes,
                        config.trace_sample_per_10k,
                    );
                }
                let local: fsmon_telemetry::health::SnapshotFn =
                    Arc::new(|| fsmon_telemetry::global().snapshot());
                let fleet_agg = aggregator.clone();
                let fleet: fsmon_telemetry::health::SnapshotFn =
                    Arc::new(move || fleet_agg.fleet_snapshot());
                let monitor = fsmon_telemetry::HealthMonitor::spawn(local, Some(fleet), opts)
                    .map_err(|e| fsmon_mq::MqError::BindFailed(format!("health http: {e}")))?;
                Some(Arc::new(monitor))
            }
            None => None,
        };

        // The supervisor: polls lane liveness and restarts whatever
        // died. A restarted collector resumes at the clear index the
        // MDT holds for the dead incarnation's changelog user, on a
        // fresh endpoint, with a fresh changelog user — the dead
        // incarnation's user is deregistered only after the new one is
        // registered, so its watermark never stops pinning the
        // unconsumed tail.
        {
            let stop = stop.clone();
            let threads_sup = threads.clone();
            let aggregator = aggregator.clone();
            let collectors = collectors.clone();
            let alive = collector_alive.clone();
            let lane_counters = lane_counters.clone();
            let fs = fs.clone();
            let ctx = ctx.clone();
            let restarts = collector_restarts.clone();
            let config = config.clone();
            let tracer = tracer.clone();
            let health_sup = health.clone();
            let handle = std::thread::Builder::new()
                .name("fsmon-supervisor".into())
                .spawn(move || {
                    let scope = fsmon_telemetry::root().scope("supervisor");
                    let mut generation = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(5));
                        aggregator.respawn_dead_lanes();
                        for i in 0..collectors.len() {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            if alive[i].load(Ordering::Relaxed) {
                                continue;
                            }
                            generation += 1;
                            let mdt = i as u16;
                            let resume_at = collectors[i].lock().cleared_index();
                            let inproc_name =
                                format!("inproc://fsmon-{run_id}-mdt{i}-r{generation}");
                            let Ok((endpoint, fresh)) = launch_collector(
                                &ctx,
                                &fs,
                                &config,
                                &tracer,
                                mdt,
                                inproc_name,
                                resume_at,
                            ) else {
                                continue;
                            };
                            if aggregator.attach_collector(mdt, &endpoint).is_err() {
                                fresh.shutdown();
                                continue;
                            }
                            let dead = std::mem::replace(&mut *collectors[i].lock(), fresh);
                            dead.shutdown();
                            restarts.fetch_add(1, Ordering::Relaxed);
                            scope
                                .with_label("lane", format!("mdt{i}"))
                                .counter("restarts_total")
                                .inc();
                            if let Some(h) = &health_sup {
                                h.note_crash(&format!("collector-mdt{i}-restart"));
                            }
                            spawn_collector_lane(
                                &threads_sup,
                                CollectorLane {
                                    collector: collectors[i].clone(),
                                    mdt: fs.mdt(mdt),
                                    alive: alive[i].clone(),
                                    counters: lane_counters[i].clone(),
                                    stop: stop.clone(),
                                    faults: config.faults.clone(),
                                },
                            );
                        }
                    }
                })
                .expect("spawn supervisor thread");
            threads.lock().push(handle);
        }

        Ok(ScalableMonitor {
            collectors,
            collector_alive,
            threads,
            aggregator,
            consumer,
            ctx,
            stop,
            watch_root: config.watch_root,
            lane_counters,
            history,
            collector_restarts,
            tracer,
            health,
        })
    }

    /// The client-side consumer: one lane per aggregator shard behind
    /// the classic API.
    pub fn consumer(&self) -> &Arc<FederatedConsumer> {
        &self.consumer
    }

    /// Connect one consumer lane per shard with `filter`, using
    /// `connect` to pick the telemetry name and tracer.
    fn federated_consumer(
        &self,
        filter: &EventFilter,
        connect: impl Fn(&str, Arc<dyn EventStore>, EventFilter) -> Result<Consumer, fsmon_mq::MqError>,
    ) -> Result<FederatedConsumer, fsmon_mq::MqError> {
        let mut lanes = Vec::with_capacity(self.aggregator.shards());
        for (endpoint, store) in self
            .aggregator
            .consumer_endpoints()
            .iter()
            .zip(self.aggregator.stores())
        {
            lanes.push(Arc::new(connect(endpoint, store, filter.clone())?));
        }
        Ok(FederatedConsumer::from_parts(lanes))
    }

    /// Attach an additional consumer with its own filter.
    pub fn new_consumer(
        &self,
        filter: EventFilter,
    ) -> Result<FederatedConsumer, fsmon_mq::MqError> {
        self.federated_consumer(&filter, |endpoint, store, filter| {
            Consumer::connect(&self.ctx, endpoint, filter, Some(store))
        })
    }

    /// Attach an additional consumer whose telemetry carries the label
    /// `consumer=<name>` (per-consumer delivery counters in `fsmon
    /// stats`).
    pub fn new_consumer_named(
        &self,
        filter: EventFilter,
        name: &str,
    ) -> Result<FederatedConsumer, fsmon_mq::MqError> {
        self.federated_consumer(&filter, |endpoint, store, filter| {
            Consumer::connect_traced(
                &self.ctx,
                endpoint,
                filter,
                Some(store),
                name,
                self.tracer.clone(),
            )
        })
    }

    /// Attach a filtered consumer over the configured transport:
    /// the filter spec is pushed down to every shard at connect time,
    /// so only the matching subset (plus per-batch watermark frames)
    /// crosses the wire. Each shard lane heals gaps from its own
    /// store.
    pub fn new_filtered_consumer(
        &self,
        spec: &fsmon_rules::FilterSpec,
        name: &str,
    ) -> Result<FederatedFilteredConsumer, fsmon_mq::MqError> {
        FederatedFilteredConsumer::connect(
            &self.ctx,
            &self.aggregator.consumer_endpoints(),
            &self.aggregator.stores(),
            spec,
            name,
        )
    }

    /// Attach a filtered consumer whose lanes read every shard
    /// publisher's broadcast ring in-process (the cheapest consumer:
    /// one ring cursor per shard, no sockets).
    pub fn subscribe_filtered(
        &self,
        spec: &fsmon_rules::FilterSpec,
        name: &str,
    ) -> FederatedFilteredConsumer {
        self.aggregator.subscribe_filtered(spec, name)
    }

    /// Per-filter-class fan-out counters.
    pub fn class_stats(&self) -> Vec<fsmon_mq::ClassStats> {
        self.aggregator.class_stats()
    }

    /// The pipeline's shared tracer (disabled unless
    /// [`ScalableConfig::trace_sample_per_10k`] is set).
    pub fn tracer(&self) -> &fsmon_telemetry::Tracer {
        &self.tracer
    }

    /// The fleet view: collector registry snapshots merged across MDTs
    /// (counters/histograms add, gauges last-write). Collectors publish
    /// a snapshot a few times a second while records flow and once more
    /// when they stop, so the view settles by itself.
    pub fn fleet_snapshot(&self) -> fsmon_telemetry::Snapshot {
        self.aggregator.fleet_snapshot()
    }

    /// Sources (collector telemetry topics) seen in the fleet view.
    pub fn fleet_sources(&self) -> Vec<String> {
        self.aggregator.fleet_sources()
    }

    /// Aggregator counters (per-shard counters summed).
    pub fn aggregator_stats(&self) -> crate::aggregator::AggregatorStats {
        self.aggregator.stats()
    }

    /// Per-shard aggregator counters, shard 0 first.
    pub fn shard_aggregator_stats(&self) -> Vec<crate::aggregator::AggregatorStats> {
        self.aggregator.shard_stats()
    }

    /// Number of aggregator shards (K).
    pub fn aggregator_shards(&self) -> usize {
        self.aggregator.shards()
    }

    /// Per-collector counters.
    pub fn collector_stats(&self) -> Vec<CollectorStats> {
        self.collectors.iter().map(|c| c.lock().stats()).collect()
    }

    /// Sum of collector counters across MDSs.
    pub fn total_collector_stats(&self) -> CollectorStats {
        let mut total = CollectorStats::default();
        for s in self.collector_stats() {
            total.records += s.records;
            total.events += s.events;
            total.fid2path_calls += s.fid2path_calls;
            total.cache_hits += s.cache_hits;
            total.cache_misses += s.cache_misses;
            total.parent_dir_removed += s.parent_dir_removed;
            total.held_steps += s.held_steps;
            total.cache_entries += s.cache_entries;
            total.cache_memory_bytes += s.cache_memory_bytes;
        }
        total
    }

    /// The reliable event store (shard 0 with a sharded tier — each
    /// shard's stream lives in its own store; see
    /// [`shard_stores`](ScalableMonitor::shard_stores)).
    pub fn store(&self) -> Arc<dyn EventStore> {
        self.aggregator.shard(0).store().clone()
    }

    /// Per-shard reliable stores, shard 0 first.
    pub fn shard_stores(&self) -> Vec<Arc<dyn EventStore>> {
        self.aggregator.stores()
    }

    /// The historic-events API endpoint (shard 0's service; connect a
    /// [`crate::HistoryClient`] to it — this is how a consumer on
    /// another node replays after a fault).
    pub fn history_endpoint(&self) -> &str {
        self.history[0].endpoint()
    }

    /// Historic-events endpoints for every shard, shard 0 first.
    pub fn history_endpoints(&self) -> Vec<&str> {
        self.history.iter().map(|h| h.endpoint()).collect()
    }

    /// A connected history client (shard 0's service).
    pub fn history_client(&self) -> Result<crate::HistoryClient, fsmon_mq::MqError> {
        crate::HistoryClient::connect(&self.ctx, self.history[0].endpoint())
    }

    /// History service counters, summed across shards.
    pub fn history_stats(&self) -> crate::HistoryStats {
        let mut total = crate::HistoryStats::default();
        for h in &self.history {
            let one = h.stats();
            total.replays += one.replays;
            total.acks += one.acks;
            total.errors += one.errors;
        }
        total
    }

    /// Per-collector busy time (ns spent inside `step`), indexed by MDT.
    pub fn collector_busy_ns(&self) -> Vec<u64> {
        self.lane_counters
            .iter()
            .map(|c| c.busy_ns.load(Ordering::Relaxed))
            .collect()
    }

    /// Per-collector idle wake-ups, indexed by MDT: bounded changelog
    /// waits that ended by timeout (about 50/s for a lane with nothing
    /// to do; the live signal is
    /// `fsmon_collector_idle_wakeups_total{mdt}`). A lane that is fed
    /// records is woken by them and counts none.
    pub fn collector_idle_wakeups(&self) -> Vec<u64> {
        self.lane_counters
            .iter()
            .map(|c| c.idle_wakeups.load(Ordering::Relaxed))
            .collect()
    }

    /// Total backlog (unconsumed changelog records) across MDTs.
    pub fn total_backlog(&self) -> u64 {
        self.collectors.iter().map(|c| c.lock().backlog()).sum()
    }

    /// Block until the aggregator tier has published `n` events to
    /// its consumers (or timeout): a `recv_batch` on an in-process
    /// consumer that follows finds them all queued.
    pub fn wait_events(&self, n: u64, timeout: Duration) -> bool {
        self.aggregator.wait_published(n, timeout)
    }

    /// Watch root reported on events.
    pub fn watch_root(&self) -> &str {
        &self.watch_root
    }

    /// Collector lane restarts performed by the supervisor so far
    /// (aggregator lane restarts are in
    /// [`aggregator_stats`](ScalableMonitor::aggregator_stats)).
    pub fn supervisor_restarts(&self) -> u64 {
        self.collector_restarts.load(Ordering::Relaxed)
    }

    /// Liveness of each collector lane, indexed by MDT.
    pub fn collector_lanes_alive(&self) -> Vec<bool> {
        self.collector_alive
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// Block until every collector lane reports alive (or timeout) —
    /// useful after a burst of injected crashes to let the supervisor
    /// finish restarting.
    pub fn wait_lanes_alive(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if self.aggregator.all_lanes_alive()
                && self
                    .collector_alive
                    .iter()
                    .all(|a| a.load(Ordering::Relaxed))
            {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    /// The running health engine, when
    /// [`ScalableConfig::health`] was set: SLO verdicts
    /// ([`report`](fsmon_telemetry::HealthMonitor::report)), the bound
    /// HTTP observer address, and the windowed series.
    pub fn health(&self) -> Option<&Arc<fsmon_telemetry::HealthMonitor>> {
        self.health.as_ref()
    }

    /// Address the HTTP observer bound, when health is on and an
    /// address was configured (useful with `:0`).
    pub fn health_addr(&self) -> Option<std::net::SocketAddr> {
        self.health.as_ref().and_then(|h| h.http_addr())
    }

    /// Stop collector threads, the supervisor, the aggregator, and the
    /// health engine.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // The supervisor may still be pushing restarted lanes while we
        // drain; loop until the vec stays empty (the supervisor itself
        // is joined in one of these passes, after which no new handles
        // can appear).
        loop {
            let handles: Vec<_> = self.threads.lock().drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for t in handles {
                let _ = t.join();
            }
        }
        self.aggregator.stop();
        // The supervisor's clone is gone (joined above), so this is
        // the last handle: dropping it runs the final evaluation tick
        // and joins the health threads.
        drop(self.health.take());
    }
}

/// Adapter exposing the scalable pipeline as a `fsmon-core` DSI.
pub struct LustreDsi {
    consumer: Arc<FederatedConsumer>,
    watch_root: String,
}

impl LustreDsi {
    /// Wrap a running monitor's consumer.
    pub fn new(monitor: &ScalableMonitor) -> LustreDsi {
        LustreDsi {
            consumer: monitor.consumer().clone(),
            watch_root: monitor.watch_root().to_string(),
        }
    }
}

impl StorageInterface for LustreDsi {
    fn name(&self) -> &'static str {
        "lustre-changelog"
    }

    fn source(&self) -> MonitorSource {
        MonitorSource::LustreChangelog
    }

    fn watch_root(&self) -> &str {
        &self.watch_root
    }

    fn start(&mut self) -> Result<(), DsiError> {
        Ok(())
    }

    fn poll(&mut self, max: usize) -> Vec<RawEvent> {
        self.consumer
            .drain()
            .into_iter()
            .take(max)
            .map(RawEvent::Standard)
            .collect()
    }

    fn stop(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmon_events::EventKind;
    use lustre_sim::LustreConfig;

    #[test]
    fn end_to_end_single_mds() {
        let fs = LustreFs::new(LustreConfig::small());
        let monitor = ScalableMonitor::start(&fs, ScalableConfig::default()).unwrap();
        let client = fs.client();
        client.create("/a.txt").unwrap();
        client.write("/a.txt", 0, 64).unwrap();
        client.unlink("/a.txt").unwrap();
        assert!(monitor.wait_events(3, Duration::from_secs(5)));
        let events = monitor.consumer().recv_batch(10, Duration::from_secs(2));
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Create);
        assert_eq!(events[1].kind, EventKind::Modify);
        assert_eq!(events[2].kind, EventKind::Delete);
        assert!(events.iter().all(|e| e.path == "/a.txt"));
        monitor.stop();
    }

    #[test]
    fn end_to_end_four_mds_dne() {
        let fs = LustreFs::new(LustreConfig::small_dne(4));
        let monitor = ScalableMonitor::start(&fs, ScalableConfig::default()).unwrap();
        let client = fs.client();
        let mut expected = 0u64;
        for i in 0..32 {
            client.mkdir(&format!("/dir{i}")).unwrap();
            client.create(&format!("/dir{i}/f")).unwrap();
            expected += 2;
        }
        assert!(monitor.wait_events(expected, Duration::from_secs(5)));
        // Every MDS contributed.
        let per: Vec<u64> = monitor.collector_stats().iter().map(|s| s.events).collect();
        assert_eq!(per.iter().sum::<u64>(), expected);
        assert!(per.iter().filter(|n| **n > 0).count() >= 3, "{per:?}");
        monitor.stop();
    }

    #[test]
    fn sharded_tier_partitions_mdts_and_federates_the_streams() {
        let fs = LustreFs::new(LustreConfig::small_dne(4));
        let monitor = ScalableMonitor::start(
            &fs,
            ScalableConfig {
                aggregator_shards: 2,
                ..ScalableConfig::default()
            },
        )
        .unwrap();
        assert_eq!(monitor.aggregator_shards(), 2);
        let client = fs.client();
        let n = 400u64;
        for i in 0..n / 2 {
            client.mkdir(&format!("/dir{i}")).unwrap();
            client.create(&format!("/dir{i}/f")).unwrap();
        }
        assert!(monitor.wait_events(n, Duration::from_secs(10)));
        // Drain everything, then catch up any store tail.
        let mut events = Vec::new();
        loop {
            let batch = monitor
                .consumer()
                .recv_batch(4096, Duration::from_millis(300));
            if batch.is_empty() {
                break;
            }
            events.extend(batch);
        }
        monitor.consumer().catch_up();
        events.extend(monitor.consumer().drain());
        assert_eq!(events.len() as u64, n, "no loss, no duplicates");
        // Per-shard exactly-once: each shard's delivered ids are dense
        // from 1 — the union of two independent linear streams.
        for shard in 0..2usize {
            let mut ids: Vec<u64> = events
                .iter()
                .filter(|e| fsmon_core::shard_of(e.mdt_index, 2) == shard)
                .map(|e| e.id)
                .collect();
            ids.sort_unstable();
            assert!(!ids.is_empty(), "shard {shard} owned no MDT");
            assert_eq!(
                ids,
                (1..=ids.len() as u64).collect::<Vec<_>>(),
                "shard {shard} ids dense"
            );
        }
        // Both shards actually sequenced (per-shard stats split).
        let per: Vec<u64> = monitor
            .shard_aggregator_stats()
            .iter()
            .map(|s| s.received)
            .collect();
        assert_eq!(per.len(), 2);
        assert!(per.iter().all(|&r| r > 0), "{per:?}");
        assert_eq!(per.iter().sum::<u64>(), n);
        // The vector watermark tracks each shard's cursor.
        let w = monitor.consumer().vector_watermark();
        assert_eq!(w.shards(), 2);
        assert_eq!(w.cursors().iter().sum::<u64>(), n);
        monitor.stop();
    }

    #[test]
    fn no_event_loss_under_burst() {
        let fs = LustreFs::new(LustreConfig::small_dne(2));
        let monitor = ScalableMonitor::start(&fs, ScalableConfig::default()).unwrap();
        let client = fs.client();
        let n = 5000u64;
        for i in 0..n {
            client.create(&format!("/f{i}")).unwrap();
        }
        assert!(
            monitor.wait_events(n, Duration::from_secs(30)),
            "only {} of {n} arrived",
            monitor.aggregator_stats().received
        );
        let stats = monitor.aggregator_stats();
        assert_eq!(stats.received, n, "no overall loss of events (§V-D2)");
        monitor.stop();
    }

    #[test]
    fn monitor_restart_resumes_at_the_mdt_clear_index() {
        let fs = LustreFs::new(LustreConfig::small_dne(2));
        let client = fs.client();
        // Incarnation 1 processes a first wave.
        {
            let monitor = ScalableMonitor::start(&fs, ScalableConfig::default()).unwrap();
            for i in 0..20 {
                client.mkdir(&format!("/wave1-{i}")).unwrap();
            }
            assert!(monitor.wait_events(20, Duration::from_secs(5)));
            // "Crash": what the collectors cleared survives only on
            // the MDTs.
            monitor.stop();
        }
        // A second wave lands while no monitor is running.
        for i in 0..10 {
            client.mkdir(&format!("/wave2-{i}")).unwrap();
        }
        // Incarnation 2 starts at each MDT's oldest retained record:
        // exactly the second wave, no replays.
        let monitor = ScalableMonitor::start(&fs, ScalableConfig::default()).unwrap();
        assert!(monitor.wait_events(10, Duration::from_secs(5)));
        let events = monitor.consumer().recv_batch(100, Duration::from_secs(2));
        assert_eq!(
            events.len(),
            10,
            "{:?}",
            events.iter().map(|e| &e.path).collect::<Vec<_>>()
        );
        assert!(events.iter().all(|e| e.path.starts_with("/wave2-")));
        monitor.stop();
    }

    #[test]
    fn supervisor_restarts_crashed_collectors_without_loss_or_dup() {
        use fsmon_faults::{FaultPlan, FaultRule};
        let fs = LustreFs::new(LustreConfig::small());
        // Crash the collector a few times while events stream. The
        // crash point is rolled once per productive step, and 1500
        // records in batches of ≤ 16 are at least 94 of them: this
        // seeded plan's first hit is roll 48, so it is always reached.
        let faults = FaultPlan::new(11)
            .with(
                FaultPoint::CollectorCrash,
                FaultRule::per_10k(300).after(10).limit(4),
            )
            .arm();
        let monitor = ScalableMonitor::start(
            &fs,
            ScalableConfig {
                faults,
                batch_size: 16,
                ..ScalableConfig::default()
            },
        )
        .unwrap();
        let client = fs.client();
        let n = 1500u64;
        for i in 0..n {
            client.create(&format!("/c{i}")).unwrap();
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
            "the fault plan should have killed the collector at least once"
        );
        // Exactly-once delivery: n unique dense ids, no duplicates.
        let mut events = Vec::new();
        loop {
            let batch = monitor
                .consumer()
                .recv_batch(4096, Duration::from_millis(300));
            if batch.is_empty() {
                break;
            }
            events.extend(batch);
        }
        let mut ids: Vec<u64> = events.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, n, "no loss, no duplicates");
        assert_eq!(*ids.last().unwrap(), n, "ids stay dense across restarts");
        assert_eq!(monitor.consumer().recovery_stats().duplicates_dropped, 0);
        monitor.stop();
    }

    #[test]
    fn tracing_flows_end_to_end_and_fleet_view_merges() {
        let fs = LustreFs::new(LustreConfig::small_dne(2));
        let monitor = ScalableMonitor::start(
            &fs,
            ScalableConfig {
                trace_sample_per_10k: 10_000, // trace everything
                ..ScalableConfig::default()
            },
        )
        .unwrap();
        let client = fs.client();
        let n = 200u64;
        for i in 0..n {
            client.mkdir(&format!("/dir{i}")).unwrap();
        }
        assert!(monitor.wait_events(n, Duration::from_secs(10)));
        // Drain the consumer: delivery is the terminal trace stage.
        let mut got = 0usize;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got < n as usize && std::time::Instant::now() < deadline {
            got += monitor
                .consumer()
                .recv_batch(4096, Duration::from_millis(200))
                .len();
        }
        assert_eq!(got, n as usize);
        // Completed traces landed in the per-stage histograms and the
        // worst-case exemplar identifies its producing MDT.
        let snap = fsmon_telemetry::global().snapshot();
        assert!(snap.counter("fsmon_trace_records_total") > 0);
        let exemplar = fsmon_telemetry::trace::exemplar().expect("exemplar recorded");
        assert!(exemplar.event_id >= 1);
        assert!(exemplar.mdt < 2);
        // The fleet view converges on its own: each lane flushes its
        // dirty snapshot when it finds the changelog quiet, and the
        // snapshots then travel the queue.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut fleet = monitor.fleet_snapshot();
        while (fleet.counter("fsmon_collector_events_total") < n
            || monitor.fleet_sources().len() < 2)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(20));
            fleet = monitor.fleet_snapshot();
        }
        assert_eq!(
            fleet.counter("fsmon_collector_events_total"),
            n,
            "fleet merge sums per-MDT counters exactly"
        );
        assert!(
            monitor.fleet_sources().len() >= 2,
            "both MDTs contributed snapshots: {:?}",
            monitor.fleet_sources()
        );
        monitor.stop();
    }

    #[test]
    fn idle_lanes_park_on_the_changelog_instead_of_polling_it() {
        let fs = LustreFs::new(LustreConfig::small_dne(2));
        let monitor = ScalableMonitor::start(&fs, ScalableConfig::default()).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        // A parked lane wakes once per 20 ms bound: ~15 per MDT here
        // (a 200 µs poll loop would have iterated > 1 500 times).
        let woke: u64 = monitor.collector_idle_wakeups().iter().sum();
        assert!(woke <= 40, "{woke} idle wake-ups in 300 ms");
        // Parked is not deaf: a record still gets through.
        fs.client().create("/after-the-quiet").unwrap();
        assert!(monitor.wait_events(1, Duration::from_secs(5)));
        monitor.stop();
    }

    #[test]
    fn stats_and_backlog_never_wait_behind_a_parked_lane() {
        let fs = LustreFs::new(LustreConfig::small_dne(2));
        let monitor = ScalableMonitor::start(&fs, ScalableConfig::default()).unwrap();
        // Both lanes have nothing to read and are parked.
        let before: u64 = monitor.collector_idle_wakeups().iter().sum();
        for _ in 0..200 {
            assert_eq!(monitor.total_backlog(), 0);
            assert_eq!(monitor.total_collector_stats().records, 0);
        }
        // Had a lane parked while holding its collector, each of the
        // 400 calls per MDT would have sat out (at least) one of its
        // bounded waits.
        let after: u64 = monitor.collector_idle_wakeups().iter().sum();
        assert!(
            after - before < 100,
            "{} lane wait timeouts went by during 200 stats() + backlog() rounds",
            after - before
        );
        monitor.stop();
    }

    #[test]
    fn one_busy_shard_is_not_delivered_behind_a_silent_one() {
        // K = 2 over 2 MDTs: shard 1 owns MDT 1, shard 0 stays silent.
        // K = 1 waits on the same arrival signal with one lane.
        for shards in [1, 2] {
            let fs = LustreFs::new(LustreConfig::small_dne(2));
            let monitor = ScalableMonitor::start(
                &fs,
                ScalableConfig {
                    aggregator_shards: shards,
                    ..ScalableConfig::default()
                },
            )
            .unwrap();
            let client = fs.client();
            let consumer = monitor.consumer();
            // A directory on MDT 1; the mkdirs themselves are root's
            // records, i.e. shard 0's, and are received before the test.
            let mut made = 0;
            let dir = loop {
                let dir = format!("/pp{made}");
                client.mkdir(&dir).unwrap();
                made += 1;
                if fs.mdt_of(&dir).unwrap() == 1 {
                    break dir;
                }
            };
            for _ in 0..made {
                consumer.recv(Duration::from_secs(5)).expect("a mkdir");
            }
            // Ping-pong: each create is issued only after the previous
            // one was received, so every recv starts with all lanes
            // empty and has to block for its event.
            for i in 0..200 {
                client.create(&format!("{dir}/f{i}")).unwrap();
                let ev = consumer.recv(Duration::from_secs(5)).expect("delivered");
                assert_eq!(ev.path, format!("{dir}/f{i}"));
                assert_eq!(fsmon_core::shard_of(ev.mdt_index, shards), shards - 1);
            }
            // Every one of those waits was ended by the arrival itself.
            assert_eq!(consumer.recovery_stats().wait_timeouts, 0, "K = {shards}");
            monitor.stop();
        }
    }

    #[test]
    fn federated_drain_waits_once_for_all_lanes_together() {
        for shards in [1, 4] {
            let fs = LustreFs::new(LustreConfig::small_dne(4));
            let monitor = ScalableMonitor::start(
                &fs,
                ScalableConfig {
                    aggregator_shards: shards,
                    ..ScalableConfig::default()
                },
            )
            .unwrap();
            let consumer = monitor.consumer();
            for call in 1..=10u64 {
                assert!(consumer.drain().is_empty());
                assert_eq!(
                    consumer.recovery_stats().wait_timeouts,
                    call,
                    "one expired wait per drain() of an idle K = {shards} tier"
                );
            }
            monitor.stop();
        }
    }

    #[test]
    fn janitor_purges_acked_events_on_schedule() {
        let fs = LustreFs::new(LustreConfig::small());
        let monitor = ScalableMonitor::start(
            &fs,
            ScalableConfig {
                purge_interval: Some(Duration::from_millis(50)),
                ..ScalableConfig::default()
            },
        )
        .unwrap();
        let client = fs.client();
        for i in 0..5 {
            client.create(&format!("/j{i}")).unwrap();
        }
        assert!(monitor.wait_events(5, Duration::from_secs(5)));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while monitor.store().stats().appended < 5 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        monitor.consumer().ack(3).unwrap();
        // The janitor purges within a couple of cycles.
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while monitor.store().stats().retained > 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(monitor.store().stats().retained, 2);
        monitor.stop();
    }

    #[test]
    fn janitor_flushes_idle_interval_store_even_without_purging() {
        // A time-based durability policy needs the housekeeping thread
        // regardless of purge configuration: with purging disabled the
        // janitor must still spawn and bound the idle tail.
        let dir = std::env::temp_dir().join(format!(
            "fsmon-idleflush-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(
            fsmon_store::FileStore::open_with_options(
                dir.join("store"),
                fsmon_store::FileStoreOptions {
                    durability: fsmon_store::Durability::IntervalMs(10),
                    ..fsmon_store::FileStoreOptions::default()
                },
            )
            .unwrap(),
        );
        // Only a janitor thread increments this counter, and only a
        // time-based store makes flush_if_due return true — this test's
        // store is the only such store in the binary.
        let idle_flushes = fsmon_telemetry::root()
            .scope("janitor")
            .counter("idle_flushes_total");
        let before = idle_flushes.get();
        let fs = LustreFs::new(LustreConfig::small());
        let monitor = ScalableMonitor::start(
            &fs,
            ScalableConfig {
                store: Some(store.clone()),
                purge_interval: None,
                ..ScalableConfig::default()
            },
        )
        .unwrap();
        // Land an unsynced tail, then go idle: two back-to-back appends
        // guarantee pending bytes (at most the first can trip the
        // commit-time interval check), so only the janitor's ticker can
        // flush what remains.
        let ev = fsmon_events::StandardEvent::new(EventKind::Create, "/r", "/idle.txt");
        store.append(&ev).unwrap();
        store.append(&ev).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while idle_flushes.get() == before && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            idle_flushes.get() > before,
            "janitor never flushed the idle tail"
        );
        assert!(
            !store.flush_if_due().unwrap(),
            "nothing left overdue after the janitor's flush"
        );
        monitor.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn history_api_serves_replay_over_the_queue() {
        let fs = LustreFs::new(LustreConfig::small());
        let monitor = ScalableMonitor::start(&fs, ScalableConfig::default()).unwrap();
        let client = fs.client();
        for i in 0..8 {
            client.create(&format!("/h{i}")).unwrap();
        }
        assert!(monitor.wait_events(8, Duration::from_secs(5)));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while monitor.store().stats().appended < 8 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let history = monitor.history_client().unwrap();
        let events = history.replay_since(3, 100).unwrap();
        assert_eq!(events.len(), 5);
        assert!(events.iter().all(|e| e.id > 3));
        history.ack(8).unwrap();
        assert_eq!(monitor.store().stats().reported_seq, 8);
        assert_eq!(monitor.history_stats().replays, 1);
        monitor.stop();
    }

    #[test]
    fn events_are_persisted_for_replay() {
        let fs = LustreFs::new(LustreConfig::small());
        let monitor = ScalableMonitor::start(&fs, ScalableConfig::default()).unwrap();
        fs.client().create("/x").unwrap();
        monitor.wait_events(1, Duration::from_secs(5));
        // Wait for the store lane.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while monitor.store().stats().appended < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let replay = monitor.consumer().replay_since(0, 10).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].path, "/x");
        monitor.stop();
    }

    #[test]
    fn filtered_consumer_sees_subset() {
        let fs = LustreFs::new(LustreConfig::small());
        let monitor = ScalableMonitor::start(&fs, ScalableConfig::default()).unwrap();
        let filtered = monitor.new_consumer(EventFilter::subtree("/keep")).unwrap();
        let client = fs.client();
        client.mkdir("/keep").unwrap();
        client.mkdir("/drop").unwrap();
        client.create("/keep/a").unwrap();
        client.create("/drop/b").unwrap();
        monitor.wait_events(4, Duration::from_secs(5));
        let events = filtered.recv_batch(10, Duration::from_secs(2));
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.path.starts_with("/keep")));
        monitor.stop();
    }

    #[test]
    fn pushdown_subscriber_sees_subset_without_client_filtering() {
        let fs = LustreFs::new(LustreConfig::small());
        let monitor = ScalableMonitor::start(&fs, ScalableConfig::default()).unwrap();
        let spec = fsmon_rules::FilterSpec::subtree("/keep");
        let mut ring_sub = monitor.subscribe_filtered(&spec, "ring");
        let mut sock_sub = monitor.new_filtered_consumer(&spec, "sock").unwrap();
        let client = fs.client();
        client.mkdir("/keep").unwrap();
        client.mkdir("/drop").unwrap();
        client.create("/keep/a").unwrap();
        client.create("/drop/b").unwrap();
        monitor.wait_events(4, Duration::from_secs(5));
        let ring_events = ring_sub.recv_for(Duration::from_secs(2));
        assert!(!ring_events.is_empty());
        assert!(ring_events.iter().all(|e| e.path.starts_with("/keep")));
        let sock_events = sock_sub.recv_for(Duration::from_millis(300));
        assert!(!sock_events.is_empty());
        assert!(sock_events.iter().all(|e| e.path.starts_with("/keep")));
        let stats = monitor.class_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].key, spec.canonical());
        assert!(stats[0].frames > 0);
        monitor.stop();
    }

    #[test]
    fn pushdown_over_tcp_delivers_the_subset() {
        let fs = LustreFs::new(LustreConfig::small());
        let monitor = ScalableMonitor::start(
            &fs,
            ScalableConfig {
                transport: Transport::Tcp,
                ..ScalableConfig::default()
            },
        )
        .unwrap();
        let spec = fsmon_rules::FilterSpec::subtree("/keep");
        let mut filtered = monitor.new_filtered_consumer(&spec, "tcp-sub").unwrap();
        let client = fs.client();
        client.mkdir("/keep").unwrap();
        client.create("/keep/a").unwrap();
        client.create("/drop-me").unwrap();
        monitor.wait_events(3, Duration::from_secs(5));
        // The filter was registered before any of the three events was
        // sequenced, so all of it arrives live; `catch_up` only covers
        // a host too loaded to deliver within the window.
        let mut events = filtered.recv_for(Duration::from_millis(300));
        events.extend(filtered.catch_up());
        let paths: Vec<&str> = events.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, ["/keep", "/keep/a"]);
        monitor.stop();
    }

    #[test]
    fn tcp_transport_end_to_end() {
        let fs = LustreFs::new(LustreConfig::small());
        let monitor = ScalableMonitor::start(
            &fs,
            ScalableConfig {
                transport: Transport::Tcp,
                ..ScalableConfig::default()
            },
        )
        .unwrap();
        fs.client().create("/over-tcp").unwrap();
        assert!(monitor.wait_events(1, Duration::from_secs(5)));
        let events = monitor.consumer().recv_batch(10, Duration::from_secs(2));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].path, "/over-tcp");
        monitor.stop();
    }

    #[test]
    fn lustre_dsi_plugs_into_fsmonitor() {
        use fsmon_core::{FsMonitor, MonitorConfig};
        let fs = LustreFs::new(LustreConfig::small());
        let monitor = ScalableMonitor::start(&fs, ScalableConfig::default()).unwrap();
        let dsi = LustreDsi::new(&monitor);
        let mut fsmon = FsMonitor::new(Box::new(dsi), MonitorConfig::without_store());
        let sub = fsmon.subscribe(EventFilter::all());
        fs.client().create("/via-core.txt").unwrap();
        monitor.wait_events(1, Duration::from_secs(5));
        // Let the consumer buffer fill, then pump the core monitor.
        std::thread::sleep(Duration::from_millis(50));
        fsmon.pump(100);
        let events = sub.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].path, "/via-core.txt");
        assert_eq!(events[0].source, MonitorSource::LustreChangelog);
        monitor.stop();
    }
}
