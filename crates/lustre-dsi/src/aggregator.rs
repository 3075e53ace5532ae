//! The MGS aggregator.
//!
//! "Collectors use a publisher-subscriber message queue to report events
//! to an aggregator. When an event arrives … it is placed in a
//! processing queue. The aggregator service is multithreaded, where one
//! thread is responsible for publishing the aggregated file system
//! events to the subscribed consumers, and the other thread stores the
//! events into a local database to enable fault tolerance"
//! (§IV Aggregation).
//!
//! # Sharded publish fan-out
//!
//! The publish side is a short pipeline rather than one thread, so that
//! decode + dedup + encode (the CPU work) scales across cores while the
//! consumer-visible stream keeps its ordering contract:
//!
//! ```text
//! SUB queue → demux ─┬→ worker lane 0 ─┬→ sequencer → PUB + store lane
//!                    ├→ worker lane 1 ─┤
//!                    └→ …            ──┘
//! ```
//!
//! * The **demux** routes each raw frame to a worker lane by topic
//!   hash, so one collector's batches always take the same lane and
//!   stay in arrival order (and each topic's dedup highwater is only
//!   ever touched from one lane at a time).
//! * **Worker lanes** decode, drop replayed changelog ranges, and
//!   pre-encode the surviving events into a reusable frame buffer,
//!   recording the byte offset of each event's id field.
//! * The single **sequencer** assigns dense global ids, patches them
//!   into the pre-encoded frame in place, and publishes. Because one
//!   stage both stamps and sends, publish order *is* id order — the
//!   invariant consumers rely on to detect duplicates and gaps — no
//!   matter how many lanes run upstream.
//! * The **store lane** group-commits: it drains every batch queued at
//!   wakeup and hands the store one [`append_batch`] call, so
//!   persistence cannot stall publication and the store amortizes its
//!   per-append overhead. The sequencer forwards events in stamp
//!   order, so store sequence numbers coincide with the stamps.
//!
//! Every stage is restartable: each runs until stopped or until an
//! injected crash kills it at a loop boundary, and
//! [`Aggregator::respawn_dead_lanes`] brings dead stages back on the
//! same shared state (the SUB queue and all inter-stage channels
//! outlive the threads), so no in-flight event is lost across a
//! restart. Batches from restarted collectors carry their changelog
//! index range, and the worker lanes drop ranges already stamped — the
//! at-least-once upstream becomes exactly-once downstream.
//!
//! [`append_batch`]: fsmon_store::EventStore::append_batch

use bytes::BytesMut;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use fsmon_events::wire::{encode_tlv, find_tlv, TLV_TRACE};
use fsmon_events::{decode_event_batch, encode_event_batch_offsets, patch_event_id, StandardEvent};
use fsmon_faults::{FaultPoint, Faults, Retry};
use fsmon_mq::{Context, Message, PubSocket, SubSocket};
use fsmon_store::EventStore;
use fsmon_telemetry::{trace, Snapshot, TraceRecord, TraceStage, Tracer};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Publish lanes when the caller doesn't tune the fan-out.
pub const DEFAULT_PUBLISH_LANES: usize = 2;

/// Most events the store lane folds into one group commit when the
/// caller doesn't tune it. Benchmarks shrink this to make a workload
/// fsync-bound (smaller groups → more commits → the shard-scaling axis
/// measures overlapped commit chains, not CPU).
pub const DEFAULT_STORE_GROUP_MAX: usize = 4096;

/// Aggregator throughput counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct AggregatorStats {
    /// Events received from collectors.
    pub received: u64,
    /// Events published to consumers.
    pub published: u64,
    /// Events persisted to the reliable store.
    pub stored: u64,
    /// Malformed frames discarded.
    pub decode_errors: u64,
    /// Events dropped as re-published duplicates (collector restarts).
    pub dedup_dropped: u64,
    /// Lane threads restarted after a crash.
    pub lane_restarts: u64,
}

struct Shared {
    received: AtomicU64,
    published: AtomicU64,
    stored: AtomicU64,
    decode_errors: AtomicU64,
    dedup_dropped: AtomicU64,
    lane_restarts: AtomicU64,
    next_id: AtomicU64,
    stop: AtomicBool,
    demux_alive: AtomicBool,
    worker_alive: Vec<AtomicBool>,
    sequencer_alive: AtomicBool,
    store_alive: AtomicBool,
    /// Per-collector-topic highest changelog index already stamped.
    /// Batches at or below their topic's highwater are restart
    /// re-publications and are dropped whole. Topic-hash routing pins
    /// each topic to one worker lane, so an entry is never contended
    /// while a batch for it is in flight.
    highwater: Mutex<HashMap<Vec<u8>, u64>>,
}

/// A batch a worker lane prepared for the sequencer: events decoded and
/// deduplicated, wire frame already encoded except for the ids, whose
/// byte offsets are recorded so the sequencer can stamp in place.
struct PreparedBatch {
    buf: BytesMut,
    id_offsets: Vec<usize>,
    events: Vec<StandardEvent>,
    /// Sampled trace records riding with the batch, positions already
    /// remapped past any dedup trim.
    traces: Vec<TraceRecord>,
}

/// Everything a lane thread needs; shared so lanes can be respawned.
struct LaneCtx {
    sub: Arc<SubSocket>,
    publisher: Arc<PubSocket>,
    lanes: usize,
    work_tx: Vec<Sender<Message>>,
    work_rx: Vec<Receiver<Message>>,
    seq_tx: Sender<PreparedBatch>,
    seq_rx: Receiver<PreparedBatch>,
    /// Frame buffers flow back from the sequencer to the workers so a
    /// hot pipeline reuses a few grown allocations instead of
    /// allocating one per published frame.
    recycle_tx: Sender<BytesMut>,
    recycle_rx: Receiver<BytesMut>,
    store_tx: Sender<(Vec<StandardEvent>, Vec<TraceRecord>)>,
    store_rx: Receiver<(Vec<StandardEvent>, Vec<TraceRecord>)>,
    store: Arc<dyn EventStore>,
    shared: Arc<Shared>,
    faults: Faults,
    retry: Retry,
    /// Which aggregator shard this is (`None` for the unsharded tier).
    /// Only affects telemetry labels and thread names — the pipeline
    /// itself is shard-agnostic.
    shard: Option<usize>,
    /// Group-commit cap for the store lane.
    store_group_max: usize,
    /// Shared stage clock for trace stamping (sampling itself happens
    /// at the collectors; the aggregator only stamps what arrives).
    tracer: Tracer,
    /// Latest registry snapshot per `telemetry.<source>` topic — the
    /// fleet view's raw material. Merged on demand by
    /// [`Aggregator::fleet_snapshot`].
    fleet: Mutex<BTreeMap<String, Snapshot>>,
    t_fleet_snapshots: Arc<fsmon_telemetry::Counter>,
    t_received: Arc<fsmon_telemetry::Counter>,
    t_published: Arc<fsmon_telemetry::Counter>,
    t_stored: Arc<fsmon_telemetry::Counter>,
    t_decode_errors: Arc<fsmon_telemetry::Counter>,
    t_dedup_dropped: Arc<fsmon_telemetry::Counter>,
    t_store_retries: Arc<fsmon_telemetry::Counter>,
    t_lag: Arc<fsmon_telemetry::Gauge>,
}

/// The aggregator service.
pub struct Aggregator {
    shared: Arc<Shared>,
    lane: Arc<LaneCtx>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    store: Arc<dyn EventStore>,
    consumer_endpoint: String,
}

impl Aggregator {
    /// Start an aggregator: subscribe to every endpoint in
    /// `collector_endpoints`, publish aggregated events at
    /// `consumer_endpoint`, and persist to `store`.
    pub fn start(
        ctx: &Context,
        collector_endpoints: &[String],
        consumer_endpoint: &str,
        store: Arc<dyn EventStore>,
    ) -> Result<Aggregator, fsmon_mq::MqError> {
        Self::start_with(
            ctx,
            collector_endpoints,
            consumer_endpoint,
            store,
            Faults::none(),
            Retry::fast(),
        )
    }

    /// [`start`](Aggregator::start) with an explicit fault plane (lane
    /// crashes, consumer-link disconnects/HWM) and retry policy for
    /// transient store failures.
    pub fn start_with(
        ctx: &Context,
        collector_endpoints: &[String],
        consumer_endpoint: &str,
        store: Arc<dyn EventStore>,
        faults: Faults,
        retry: Retry,
    ) -> Result<Aggregator, fsmon_mq::MqError> {
        Self::start_tuned(
            ctx,
            collector_endpoints,
            consumer_endpoint,
            store,
            faults,
            retry,
            DEFAULT_PUBLISH_LANES,
        )
    }

    /// [`start_with`](Aggregator::start_with) with an explicit publish
    /// fan-out: `publish_lanes` worker lanes decode/dedup/encode
    /// concurrently (clamped to at least 1) behind the single
    /// sequencer that keeps ids dense and ordered.
    pub fn start_tuned(
        ctx: &Context,
        collector_endpoints: &[String],
        consumer_endpoint: &str,
        store: Arc<dyn EventStore>,
        faults: Faults,
        retry: Retry,
        publish_lanes: usize,
    ) -> Result<Aggregator, fsmon_mq::MqError> {
        Self::start_traced(
            ctx,
            collector_endpoints,
            consumer_endpoint,
            store,
            faults,
            retry,
            publish_lanes,
            Tracer::disabled(),
        )
    }

    /// [`start_tuned`](Aggregator::start_tuned) with a [`Tracer`] whose
    /// clock stamps the ingest/sequence/store-commit stages onto trace
    /// records that arrive from collectors. The sequencer's id counter
    /// resumes from the store's last persisted sequence, so an
    /// aggregator restarted over an existing store continues the dense
    /// id stream instead of reissuing ids the store already holds.
    #[allow(clippy::too_many_arguments)]
    pub fn start_traced(
        ctx: &Context,
        collector_endpoints: &[String],
        consumer_endpoint: &str,
        store: Arc<dyn EventStore>,
        faults: Faults,
        retry: Retry,
        publish_lanes: usize,
        tracer: Tracer,
    ) -> Result<Aggregator, fsmon_mq::MqError> {
        Self::start_shard(
            ctx,
            collector_endpoints,
            consumer_endpoint,
            store,
            faults,
            retry,
            publish_lanes,
            tracer,
            None,
            DEFAULT_STORE_GROUP_MAX,
        )
    }

    /// [`start_traced`](Aggregator::start_traced) as one shard of a
    /// partitioned aggregator tier: `shard` labels every telemetry
    /// metric (`shard=<k>`) and thread name so K shards stay
    /// distinguishable in `fsmon stats`, and `store_group_max` caps the
    /// store lane's group commit (the benchmark's `drain_durable`
    /// workload shrinks it to be commit-bound). Each shard runs the full
    /// demux → worker lanes → sequencer → store pipeline over its own
    /// store, stamping its own dense id stream from that store's
    /// `last_seq`.
    #[allow(clippy::too_many_arguments)]
    pub fn start_shard(
        ctx: &Context,
        collector_endpoints: &[String],
        consumer_endpoint: &str,
        store: Arc<dyn EventStore>,
        faults: Faults,
        retry: Retry,
        publish_lanes: usize,
        tracer: Tracer,
        shard: Option<usize>,
        store_group_max: usize,
    ) -> Result<Aggregator, fsmon_mq::MqError> {
        let lanes = publish_lanes.max(1);
        let sub = Arc::new(ctx.subscriber());
        for ep in collector_endpoints {
            sub.connect(ep)?;
        }
        sub.subscribe(b"mdt");
        // Collectors publish fleet registry snapshots alongside event
        // batches; the demux folds them into the fleet view.
        sub.subscribe(b"telemetry.");
        let publisher = Arc::new(ctx.publisher());
        publisher.bind(consumer_endpoint)?;
        // The consumer-facing link is the one hop with a replay path
        // (the store), so mq faults are armed here and only here.
        publisher.arm_faults(faults.clone());
        let consumer_endpoint_actual = match publisher.local_addr() {
            Some(addr) => format!("tcp://{addr}"),
            None => consumer_endpoint.to_string(),
        };

        let shared = Arc::new(Shared {
            received: AtomicU64::new(0),
            published: AtomicU64::new(0),
            stored: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            dedup_dropped: AtomicU64::new(0),
            lane_restarts: AtomicU64::new(0),
            // Resume the dense id stream where the store left off: a
            // fresh store reports 0 and ids start at 1 as before.
            next_id: AtomicU64::new(store.stats().last_seq),
            stop: AtomicBool::new(false),
            demux_alive: AtomicBool::new(false),
            worker_alive: (0..lanes).map(|_| AtomicBool::new(false)).collect(),
            sequencer_alive: AtomicBool::new(false),
            store_alive: AtomicBool::new(false),
            highwater: Mutex::new(HashMap::new()),
        });

        let agg_scope = scoped(shard);
        let mut work_tx = Vec::with_capacity(lanes);
        let mut work_rx = Vec::with_capacity(lanes);
        for _ in 0..lanes {
            let (tx, rx): (Sender<Message>, Receiver<Message>) = bounded(1 << 12);
            work_tx.push(tx);
            work_rx.push(rx);
        }
        let (seq_tx, seq_rx): (Sender<PreparedBatch>, Receiver<PreparedBatch>) = bounded(1 << 12);
        let (recycle_tx, recycle_rx): (Sender<BytesMut>, Receiver<BytesMut>) = bounded(4 * lanes);
        // The store lane: the sequencer forwards every stamped event
        // here so persistence cannot stall publication.
        type StoreItem = (Vec<StandardEvent>, Vec<TraceRecord>);
        let (store_tx, store_rx): (Sender<StoreItem>, Receiver<StoreItem>) = bounded(1 << 14);
        let lane = Arc::new(LaneCtx {
            sub,
            publisher,
            lanes,
            work_tx,
            work_rx,
            seq_tx,
            seq_rx,
            recycle_tx,
            recycle_rx,
            store_tx,
            store_rx,
            store: store.clone(),
            shared: shared.clone(),
            faults,
            retry,
            shard,
            store_group_max: store_group_max.max(1),
            tracer,
            fleet: Mutex::new(BTreeMap::new()),
            t_fleet_snapshots: agg_scope.counter("fleet_snapshots_total"),
            t_received: agg_scope.counter("received_total"),
            t_published: agg_scope.counter("published_total"),
            t_stored: agg_scope.counter("stored_total"),
            t_decode_errors: agg_scope.counter("decode_errors_total"),
            t_dedup_dropped: agg_scope.counter("dedup_dropped_total"),
            t_store_retries: agg_scope.counter("store_retries_total"),
            // Events published to live consumers but not yet persisted —
            // the publish-side vs store-lane lag.
            t_lag: agg_scope.gauge("store_lag"),
        });

        let agg = Aggregator {
            shared,
            lane,
            threads: Mutex::new(Vec::new()),
            store,
            consumer_endpoint: consumer_endpoint_actual,
        };
        agg.spawn_demux();
        for i in 0..lanes {
            agg.spawn_worker(i);
        }
        agg.spawn_sequencer();
        agg.spawn_store_lane();
        Ok(agg)
    }

    /// `"aggregator"` or `"aggregator-s<k>"` — the thread-name prefix
    /// that keeps K shards' stages apart in a debugger.
    fn thread_prefix(&self) -> String {
        match self.lane.shard {
            Some(k) => format!("aggregator-s{k}"),
            None => "aggregator".to_string(),
        }
    }

    fn spawn_demux(&self) {
        let lane = self.lane.clone();
        lane.shared.demux_alive.store(true, Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name(format!("{}-demux", self.thread_prefix()))
            .spawn(move || run_demux(lane))
            .expect("spawn aggregator demux thread");
        self.threads.lock().push(handle);
    }

    fn spawn_worker(&self, i: usize) {
        let lane = self.lane.clone();
        lane.shared.worker_alive[i].store(true, Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name(format!("{}-worker{i}", self.thread_prefix()))
            .spawn(move || run_worker_lane(lane, i))
            .expect("spawn aggregator worker thread");
        self.threads.lock().push(handle);
    }

    fn spawn_sequencer(&self) {
        let lane = self.lane.clone();
        lane.shared.sequencer_alive.store(true, Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name(format!("{}-sequencer", self.thread_prefix()))
            .spawn(move || run_sequencer(lane))
            .expect("spawn aggregator sequencer thread");
        self.threads.lock().push(handle);
    }

    fn spawn_store_lane(&self) {
        let lane = self.lane.clone();
        lane.shared.store_alive.store(true, Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name(format!("{}-store", self.thread_prefix()))
            .spawn(move || run_store_lane(lane))
            .expect("spawn aggregator store thread");
        self.threads.lock().push(handle);
    }

    /// Subscribe to one more collector endpoint — the supervisor calls
    /// this when a restarted collector comes back on a fresh endpoint.
    pub fn attach_collector(&self, endpoint: &str) -> Result<(), fsmon_mq::MqError> {
        self.lane.sub.connect(endpoint)
    }

    /// `(publish side fully alive, store lane alive)`. The publish
    /// side counts as alive only when the demux, every worker lane,
    /// and the sequencer are all running.
    pub fn lanes_alive(&self) -> (bool, bool) {
        let publish = self.shared.demux_alive.load(Ordering::Relaxed)
            && self
                .shared
                .worker_alive
                .iter()
                .all(|w| w.load(Ordering::Relaxed))
            && self.shared.sequencer_alive.load(Ordering::Relaxed);
        (publish, self.shared.store_alive.load(Ordering::Relaxed))
    }

    /// Respawn any stage that died (injected crash or panic) while the
    /// aggregator is not stopping. Every stage resumes on shared state
    /// — the SUB queue and all inter-stage channels survive the thread
    /// — so a restart loses nothing. Returns the number of stages
    /// restarted.
    pub fn respawn_dead_lanes(&self) -> usize {
        if self.shared.stop.load(Ordering::Relaxed) {
            return 0;
        }
        let scope = scoped(self.lane.shard);
        let mut restarted = 0;
        let mut publish_restarts = 0;
        if !self.shared.demux_alive.load(Ordering::Relaxed) {
            self.spawn_demux();
            publish_restarts += 1;
        }
        for i in 0..self.lane.lanes {
            if !self.shared.worker_alive[i].load(Ordering::Relaxed) {
                self.spawn_worker(i);
                publish_restarts += 1;
            }
        }
        if !self.shared.sequencer_alive.load(Ordering::Relaxed) {
            self.spawn_sequencer();
            publish_restarts += 1;
        }
        if publish_restarts > 0 {
            self.shared
                .lane_restarts
                .fetch_add(publish_restarts, Ordering::Relaxed);
            scope
                .with_label("lane", "publish")
                .counter("lane_restarts_total")
                .add(publish_restarts);
            restarted += publish_restarts as usize;
        }
        if !self.shared.store_alive.load(Ordering::Relaxed) {
            self.spawn_store_lane();
            self.shared.lane_restarts.fetch_add(1, Ordering::Relaxed);
            scope
                .with_label("lane", "store")
                .counter("lane_restarts_total")
                .inc();
            restarted += 1;
        }
        restarted
    }

    /// The endpoint consumers should connect to (resolved to the real
    /// port for `tcp://…:0` binds).
    pub fn consumer_endpoint(&self) -> &str {
        &self.consumer_endpoint
    }

    /// The reliable event store (the historic-events API surface).
    pub fn store(&self) -> &Arc<dyn EventStore> {
        &self.store
    }

    /// Attach an in-process filtered subscriber (server-side filter
    /// pushdown): registers `spec`'s class with the publisher and
    /// returns a broadcast-ring cursor wrapped with store-backed gap
    /// healing. Cost per subscriber is one ring cursor; N subscribers
    /// of the same class share every frame.
    pub fn subscribe_filtered(
        &self,
        spec: &fsmon_rules::FilterSpec,
        name: &str,
    ) -> crate::subscriber::FilteredSubscriber {
        let cursor = self.lane.publisher.subscribe_class(&spec.canonical());
        crate::subscriber::FilteredSubscriber::attach(cursor, spec, self.store.clone(), name)
    }

    /// Per-filter-class fan-out counters (consumers, frames, queue
    /// depth, stalls) — the `fsmon top` subscribers section.
    pub fn class_stats(&self) -> Vec<fsmon_mq::ClassStats> {
        self.lane.publisher.class_stats()
    }

    /// The fleet view: every collector's latest `telemetry.<source>`
    /// registry snapshot, folded with
    /// [`Snapshot::merge_fleet`](fsmon_telemetry::Snapshot::merge_fleet)
    /// — counters and histograms add across sources, gauges keep each
    /// source's last write. Empty until the first snapshot arrives.
    pub fn fleet_snapshot(&self) -> Snapshot {
        let fleet = self.lane.fleet.lock();
        let mut merged = Snapshot::default();
        for snap in fleet.values() {
            merged.merge_fleet(snap);
        }
        merged
    }

    /// Sources (topics) that have contributed to the fleet view.
    pub fn fleet_sources(&self) -> Vec<String> {
        self.lane.fleet.lock().keys().cloned().collect()
    }

    /// Counters so far.
    pub fn stats(&self) -> AggregatorStats {
        AggregatorStats {
            received: self.shared.received.load(Ordering::Relaxed),
            published: self.shared.published.load(Ordering::Relaxed),
            stored: self.shared.stored.load(Ordering::Relaxed),
            decode_errors: self.shared.decode_errors.load(Ordering::Relaxed),
            dedup_dropped: self.shared.dedup_dropped.load(Ordering::Relaxed),
            lane_restarts: self.shared.lane_restarts.load(Ordering::Relaxed),
        }
    }

    /// Stop every stage thread and join them.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        let threads: Vec<_> = self.threads.lock().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }

    /// Block until `received` reaches `n` or `timeout` elapses.
    /// Returns whether the target was reached.
    pub fn wait_received(&self, n: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if self.shared.received.load(Ordering::Relaxed) >= n {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }
}

/// The aggregator telemetry scope, labeled `shard=<k>` when this
/// pipeline is one shard of a partitioned tier. The unsharded scope is
/// label-free, so K=1 metric ids are byte-identical to every prior
/// release.
fn scoped(shard: Option<usize>) -> fsmon_telemetry::Scope {
    let scope = fsmon_telemetry::root().scope("aggregator");
    match shard {
        Some(k) => scope.with_label("shard", k.to_string()),
        None => scope,
    }
}

/// Route a topic to its worker lane. Stable for the process lifetime,
/// so one collector's batches always share a lane (order + highwater
/// exclusivity both depend on this).
fn lane_of(topic: &[u8], lanes: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(topic);
    (h.finish() as usize) % lanes
}

/// Send on a bounded inter-stage channel, backing off while full and
/// bailing out when the aggregator is stopping (at stop, queued work is
/// abandoned exactly as the SUB queue itself is). Returns whether the
/// message was enqueued.
fn send_or_stop<T>(tx: &Sender<T>, shared: &Shared, msg: T) -> bool {
    let mut msg = msg;
    loop {
        match tx.try_send(msg) {
            Ok(()) => return true,
            Err(TrySendError::Full(m)) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return false;
                }
                msg = m;
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(TrySendError::Disconnected(_)) => return false,
        }
    }
}

/// The demux stage: drain the SUB queue and route each raw frame to a
/// worker lane by topic hash. No decoding happens here — the stage is
/// pure routing so it never becomes the bottleneck.
fn run_demux(lane: Arc<LaneCtx>) {
    let shared = &lane.shared;
    while !shared.stop.load(Ordering::Relaxed) {
        // Crash injection sits at the loop boundary: no message is in
        // hand, so the stage dies with fully consistent state and a
        // respawn resumes from the still-queued SUB messages.
        if lane
            .faults
            .inject(FaultPoint::AggregatorPublishCrash)
            .is_some()
        {
            break;
        }
        let msg = match lane.sub.recv_timeout(Duration::from_millis(20)) {
            Ok(msg) => msg,
            Err(_) => continue,
        };
        // Fleet registry snapshots are folded here rather than routed:
        // they are rare (a few JSON frames per collector per second at
        // most) and keeping the map single-writer avoids lane races.
        if msg.topic().starts_with(b"telemetry.") {
            ingest_fleet_snapshot(&lane, &msg);
            continue;
        }
        let slot = lane_of(msg.topic(), lane.lanes);
        send_or_stop(&lane.work_tx[slot], shared, msg);
    }
    lane.shared.demux_alive.store(false, Ordering::Relaxed);
}

/// Fold one `telemetry.<source>` frame into the fleet view: parse the
/// JSON registry snapshot and keep it as the source's latest (snapshots
/// are cumulative, so last-write per source + fleet merge across
/// sources is exact). Malformed frames count as decode errors.
fn ingest_fleet_snapshot(lane: &LaneCtx, msg: &Message) {
    let parsed = msg
        .part(1)
        .and_then(|payload| std::str::from_utf8(payload).ok())
        .and_then(|text| fsmon_telemetry::export::parse_json(text).ok());
    match parsed {
        Some(snap) => {
            let source = String::from_utf8_lossy(msg.topic()).into_owned();
            lane.fleet.lock().insert(source, snap);
            lane.t_fleet_snapshots.inc();
        }
        None => {
            lane.shared.decode_errors.fetch_add(1, Ordering::Relaxed);
            lane.t_decode_errors.inc();
        }
    }
}

/// A worker lane: decode, dedup against the topic's changelog
/// highwater, and pre-encode the survivors for the sequencer.
fn run_worker_lane(lane: Arc<LaneCtx>, slot: usize) {
    let shared = &lane.shared;
    while !shared.stop.load(Ordering::Relaxed) {
        if lane
            .faults
            .inject(FaultPoint::AggregatorPublishCrash)
            .is_some()
        {
            break;
        }
        let msg = match lane.work_rx[slot].recv_timeout(Duration::from_millis(20)) {
            Ok(msg) => msg,
            Err(_) => continue,
        };
        // Zero-copy payload: a refcounted handle into the frame's
        // storage, not a fresh allocation per batch.
        let Some(payload) = msg.part_bytes(1) else {
            shared.decode_errors.fetch_add(1, Ordering::Relaxed);
            lane.t_decode_errors.inc();
            continue;
        };
        let mut events = match decode_event_batch(&payload) {
            Ok(events) => events,
            Err(_) => {
                shared.decode_errors.fetch_add(1, Ordering::Relaxed);
                lane.t_decode_errors.inc();
                continue;
            }
        };
        // Sampled traces ride as a fourth frame (TLV-framed); untraced
        // batches have no part 3 and pay nothing here. Stamp the ingest
        // stage on arrival.
        let mut traces: Vec<TraceRecord> = msg
            .part(3)
            .and_then(|frame| find_tlv(frame, TLV_TRACE).ok().flatten())
            .and_then(TraceRecord::decode_all)
            .unwrap_or_default();
        if !traces.is_empty() && lane.tracer.enabled() {
            let ingest_ns = lane.tracer.now_ns();
            for rec in &mut traces {
                rec.stamp(TraceStage::Ingest, ingest_ns);
            }
        }
        // Dedup by changelog index (frame 2, when present): a restarted
        // collector resumes from its durable cursor, so events at or
        // below this topic's highwater were already stamped and
        // forwarded by a previous incarnation. A whole batch below the
        // highwater is dropped outright; a straddling batch (the
        // restart read more records than the crashed incarnation's
        // final publish) is trimmed to the unseen suffix using the
        // per-event indices.
        if let Some(range) = decode_range(msg.part(2)) {
            let mut hw = shared.highwater.lock();
            let entry = hw.entry(msg.topic().to_vec()).or_insert(0);
            let before = events.len();
            if range.last <= *entry {
                events.clear();
                traces.clear();
            } else if range.first <= *entry {
                if let Some(indices) = range.indices.filter(|idx| idx.len() == before) {
                    let hw_val = *entry;
                    let mut it = indices.iter();
                    let mut kept: Vec<u32> = Vec::with_capacity(before);
                    let mut pos = 0u32;
                    events.retain(|_| {
                        let keep = *it.next().expect("len checked") > hw_val;
                        if keep {
                            kept.push(pos);
                        }
                        pos += 1;
                        keep
                    });
                    // Trace records index their batch by position, so a
                    // trim must drop trimmed traces and remap survivors.
                    trace::retain_traces(&mut traces, &kept);
                }
                // Without per-event indices the whole straddling batch
                // is accepted: at-least-once favors no-loss, and the
                // consumer's id-based dedup has no gap to misread.
            }
            *entry = (*entry).max(range.last);
            let dropped = (before - events.len()) as u64;
            if dropped > 0 {
                shared.dedup_dropped.fetch_add(dropped, Ordering::Relaxed);
                lane.t_dedup_dropped.add(dropped);
            }
            if events.is_empty() {
                continue;
            }
        }
        let n = events.len() as u64;
        shared.received.fetch_add(n, Ordering::Relaxed);
        lane.t_received.add(n);
        // Pre-encode the frame now, on the concurrent side of the
        // pipeline; the sequencer only patches ids into place.
        let mut buf = lane.recycle_rx.try_recv().unwrap_or_default();
        let mut id_offsets = Vec::with_capacity(events.len());
        encode_event_batch_offsets(&events, &mut buf, &mut id_offsets);
        send_or_stop(
            &lane.seq_tx,
            shared,
            PreparedBatch {
                buf,
                id_offsets,
                events,
                traces,
            },
        );
    }
    lane.shared.worker_alive[slot].store(false, Ordering::Relaxed);
}

/// The sequencer: the single stage that assigns ids. Ids are stamped
/// here — before both publication and persistence — so a consumer's
/// last-seen id from the live stream addresses the same event in the
/// store (the replay API's contract), and because the same stage
/// publishes in FIFO order, the consumer-visible stream is dense and
/// ordered regardless of how many worker lanes feed it. The store lane
/// appends in stamp order, so its sequence numbers coincide with the
/// stamps.
fn run_sequencer(lane: Arc<LaneCtx>) {
    let shared = &lane.shared;
    // Server-side filter pushdown: one shared subscription index over
    // every registered filter class, rebuilt only when the class set
    // changes. A fresh engine per (re)spawn is correct — class rings
    // and sequences live in the publisher, which survives lane crashes.
    let mut fanout = crate::fanout::FanoutEngine::new(lane.publisher.clone());
    while !shared.stop.load(Ordering::Relaxed) {
        if lane
            .faults
            .inject(FaultPoint::AggregatorPublishCrash)
            .is_some()
        {
            break;
        }
        let mut batch = match lane.seq_rx.recv_timeout(Duration::from_millis(20)) {
            Ok(batch) => batch,
            Err(_) => continue,
        };
        for (ev, off) in batch.events.iter_mut().zip(&batch.id_offsets) {
            let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
            ev.id = id;
            patch_event_id(&mut batch.buf, *off, id);
        }
        let n = batch.events.len() as u64;
        let frame = batch.buf.split_frozen();
        fanout.fan_out(&batch.events, &batch.id_offsets, &frame);
        let mut parts = vec![bytes::Bytes::from_static(b"events"), frame];
        if !batch.traces.is_empty() {
            // The sequencer is the stage that learns each event's global
            // id — copy it into the trace and stamp the sequence stage,
            // then re-attach the traces for the consumer hop.
            let seq_ns = lane.tracer.now_ns();
            for rec in &mut batch.traces {
                if let Some(ev) = batch.events.get(rec.pos as usize) {
                    rec.event_id = ev.id;
                }
                if lane.tracer.enabled() {
                    rec.stamp(TraceStage::Sequence, seq_ns);
                }
            }
            parts.push(encode_tlv(
                TLV_TRACE,
                &TraceRecord::encode_all(&batch.traces),
            ));
        }
        let _ = lane.publisher.send(Message::from_parts(parts));
        shared.published.fetch_add(n, Ordering::Relaxed);
        lane.t_published.add(n);
        lane.t_lag.set(
            shared.published.load(Ordering::Relaxed) as i64
                - shared.stored.load(Ordering::Relaxed) as i64,
        );
        // Hand the (cleared, capacity-retaining) buffer back to the
        // workers; if the pool is full it's simply dropped.
        let _ = lane.recycle_tx.try_send(batch.buf);
        send_or_stop(&lane.store_tx, shared, (batch.events, batch.traces));
    }
    lane.shared.sequencer_alive.store(false, Ordering::Relaxed);
}

/// The persistence lane: group-commits every event to the reliable
/// store, riding out transient failures with the shared retry policy.
/// An event is never skipped — the store is the replay source consumers
/// heal from, so durability here is the loss-free contract. On a
/// partial batch failure the already-appended prefix is measured from
/// the store's own counters and only the suffix is retried, keeping
/// appends exactly-once.
fn run_store_lane(lane: Arc<LaneCtx>) {
    let shared = &lane.shared;
    loop {
        if lane
            .faults
            .inject(FaultPoint::AggregatorStoreCrash)
            .is_some()
        {
            break;
        }
        match lane.store_rx.recv_timeout(Duration::from_millis(20)) {
            Ok((first, first_traces)) => {
                // Group commit: fold everything already queued into one
                // append_batch call so the store amortizes per-append
                // locking and the lag drains in large strides.
                let mut group = first;
                let mut traces = first_traces;
                while group.len() < lane.store_group_max {
                    match lane.store_rx.try_recv() {
                        Ok((more, more_traces)) => {
                            group.extend(more);
                            traces.extend(more_traces);
                        }
                        Err(_) => break,
                    }
                }
                let mut offset = 0;
                let mut backoff = lane.retry.backoff();
                while offset < group.len() {
                    // One durable commit covers at most store_group_max
                    // events: a batch larger than the cap (the sequencer
                    // publishes in its own strides) is split so the cap
                    // really bounds the commit, not just the folding.
                    let end = (offset + lane.store_group_max).min(group.len());
                    let before = lane.store.stats().appended;
                    match lane.store.append_batch(&group[offset..end]) {
                        Ok(_) => {
                            let n = (end - offset) as u64;
                            shared.stored.fetch_add(n, Ordering::Relaxed);
                            lane.t_stored.add(n);
                            offset = end;
                        }
                        Err(_) => {
                            // The store appends a prefix then fails;
                            // resume from the measured prefix so no
                            // event is double-written.
                            let done = (lane.store.stats().appended - before) as usize;
                            if done > 0 {
                                shared.stored.fetch_add(done as u64, Ordering::Relaxed);
                                lane.t_stored.add(done as u64);
                                offset += done;
                            }
                            if shared.stop.load(Ordering::Relaxed) {
                                break;
                            }
                            lane.t_store_retries.inc();
                            // Exhausting one backoff schedule starts
                            // another: persistence never gives up on an
                            // event while the pipeline runs.
                            let sleep = backoff.next().unwrap_or_else(|| {
                                backoff = lane.retry.backoff();
                                lane.retry.cap
                            });
                            std::thread::sleep(sleep);
                        }
                    }
                }
                lane.t_lag.set(
                    shared.published.load(Ordering::Relaxed) as i64
                        - shared.stored.load(Ordering::Relaxed) as i64,
                );
                // Traced events in a fully committed group get their
                // store-commit stage stamped and folded here — the only
                // stage the consumer hop never sees (the store lane is
                // a branch, not a link, of the delivery path).
                if offset == group.len() && !traces.is_empty() && lane.tracer.enabled() {
                    let commit_ns = lane.tracer.now_ns();
                    for rec in &mut traces {
                        rec.stamp(TraceStage::StoreCommit, commit_ns);
                        trace::fold_stage(rec, TraceStage::StoreCommit);
                    }
                }
            }
            Err(_) => {
                if shared.stop.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
    }
    lane.shared.store_alive.store(false, Ordering::Relaxed);
}

/// A batch's changelog index range, plus (optionally) the index of the
/// record behind each event.
struct BatchRange {
    first: u64,
    last: u64,
    indices: Option<Vec<u64>>,
}

/// Parse a `u64 first | u64 last | u64 per-event-index…` frame. The
/// per-event list is optional (a bare 16-byte range is valid).
fn decode_range(frame: Option<&[u8]>) -> Option<BatchRange> {
    let frame = frame?;
    if frame.len() < 16 || frame.len() % 8 != 0 {
        return None;
    }
    let first = u64::from_be_bytes(frame[..8].try_into().ok()?);
    let last = u64::from_be_bytes(frame[8..16].try_into().ok()?);
    let indices = if frame.len() > 16 {
        Some(
            frame[16..]
                .chunks_exact(8)
                .map(|c| u64::from_be_bytes(c.try_into().expect("chunks_exact(8)")))
                .collect(),
        )
    } else {
        None
    };
    Some(BatchRange {
        first,
        last,
        indices,
    })
}

/// A SUB socket pre-wired the way consumers attach to the aggregator.
pub fn consumer_socket(ctx: &Context, endpoint: &str) -> Result<SubSocket, fsmon_mq::MqError> {
    let sub = ctx.subscriber();
    sub.connect(endpoint)?;
    sub.subscribe(b"events");
    Ok(sub)
}

/// A PUB socket pre-wired the way collectors publish to the aggregator.
pub fn collector_socket(ctx: &Context, endpoint: &str) -> Result<PubSocket, fsmon_mq::MqError> {
    let publisher = ctx.publisher();
    publisher.bind(endpoint)?;
    Ok(publisher)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmon_events::{encode_event_batch, EventKind, StandardEvent};
    use fsmon_store::MemStore;

    fn batch_msg(events: &[StandardEvent]) -> Message {
        Message::from_parts(vec![
            bytes::Bytes::from_static(b"mdt0"),
            encode_event_batch(events),
        ])
    }

    fn ranged_msg(events: &[StandardEvent], first: u64, last: u64) -> Message {
        let mut meta = Vec::with_capacity(16);
        meta.extend_from_slice(&first.to_be_bytes());
        meta.extend_from_slice(&last.to_be_bytes());
        Message::from_parts(vec![
            bytes::Bytes::from_static(b"mdt0"),
            encode_event_batch(events),
            bytes::Bytes::from(meta),
        ])
    }

    #[test]
    fn aggregates_publishes_and_stores() {
        let ctx = Context::new();
        let collector_pub = collector_socket(&ctx, "inproc://col0").unwrap();
        let store = Arc::new(MemStore::new());
        let agg = Aggregator::start(
            &ctx,
            &["inproc://col0".to_string()],
            "inproc://agg",
            store.clone(),
        )
        .unwrap();
        let consumer = consumer_socket(&ctx, "inproc://agg").unwrap();

        let events: Vec<StandardEvent> = (0..5)
            .map(|i| StandardEvent::new(EventKind::Create, "/mnt/lustre", format!("f{i}")))
            .collect();
        collector_pub.send(batch_msg(&events)).unwrap();

        assert!(agg.wait_received(5, Duration::from_secs(2)));
        let msg = consumer.recv_timeout(Duration::from_secs(2)).unwrap();
        let got = decode_event_batch(&bytes::Bytes::copy_from_slice(msg.part(1).unwrap())).unwrap();
        assert_eq!(got.len(), 5);

        // The store lane catches up.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while store.stats().appended < 5 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(store.stats().appended, 5);
        let stats = agg.stats();
        assert_eq!(stats.received, 5);
        assert_eq!(stats.published, 5);
        agg.stop();
    }

    #[test]
    fn aggregates_from_multiple_collectors() {
        let ctx = Context::new();
        let p0 = collector_socket(&ctx, "inproc://c0").unwrap();
        let p1 = collector_socket(&ctx, "inproc://c1").unwrap();
        let store = Arc::new(MemStore::new());
        let agg = Aggregator::start(
            &ctx,
            &["inproc://c0".to_string(), "inproc://c1".to_string()],
            "inproc://agg2",
            store,
        )
        .unwrap();
        let ev = |p: &str| vec![StandardEvent::new(EventKind::Create, "/r", p)];
        p0.send(batch_msg(&ev("a"))).unwrap();
        p1.send(Message::from_parts(vec![
            bytes::Bytes::from_static(b"mdt1"),
            encode_event_batch(&ev("b")),
        ]))
        .unwrap();
        assert!(agg.wait_received(2, Duration::from_secs(2)));
        agg.stop();
    }

    #[test]
    fn malformed_frames_counted_not_fatal() {
        let ctx = Context::new();
        let publisher = collector_socket(&ctx, "inproc://bad").unwrap();
        let store = Arc::new(MemStore::new());
        let agg =
            Aggregator::start(&ctx, &["inproc://bad".to_string()], "inproc://agg3", store).unwrap();
        publisher
            .send(Message::from_parts(vec![
                bytes::Bytes::from_static(b"mdt0"),
                bytes::Bytes::from_static(b"not a batch"),
            ]))
            .unwrap();
        // A good frame afterwards still flows.
        publisher
            .send(batch_msg(&[StandardEvent::new(
                EventKind::Create,
                "/r",
                "ok",
            )]))
            .unwrap();
        assert!(agg.wait_received(1, Duration::from_secs(2)));
        assert!(agg.stats().decode_errors >= 1);
        agg.stop();
    }

    #[test]
    fn replayed_changelog_ranges_are_deduplicated() {
        let ctx = Context::new();
        let publisher = collector_socket(&ctx, "inproc://dedup").unwrap();
        let store = Arc::new(MemStore::new());
        let agg = Aggregator::start(
            &ctx,
            &["inproc://dedup".to_string()],
            "inproc://agg4",
            store.clone(),
        )
        .unwrap();
        let ev = |p: &str| StandardEvent::new(EventKind::Create, "/r", p);
        publisher
            .send(ranged_msg(&[ev("a"), ev("b")], 1, 2))
            .unwrap();
        assert!(agg.wait_received(2, Duration::from_secs(2)));
        // A restarted collector re-publishes the same range: dropped.
        publisher
            .send(ranged_msg(&[ev("a"), ev("b")], 1, 2))
            .unwrap();
        // A fresh range flows.
        publisher.send(ranged_msg(&[ev("c")], 3, 3)).unwrap();
        assert!(agg.wait_received(3, Duration::from_secs(2)));
        let stats = agg.stats();
        assert_eq!(stats.received, 3, "duplicate batch not re-counted");
        assert_eq!(stats.dedup_dropped, 2);
        agg.stop();
        assert_eq!(store.stats().appended, 3);
    }

    fn indexed_msg(events: &[StandardEvent], indices: &[u64]) -> Message {
        let first = *indices.first().unwrap();
        let last = *indices.last().unwrap();
        let mut meta = Vec::with_capacity(16 + 8 * indices.len());
        meta.extend_from_slice(&first.to_be_bytes());
        meta.extend_from_slice(&last.to_be_bytes());
        for idx in indices {
            meta.extend_from_slice(&idx.to_be_bytes());
        }
        Message::from_parts(vec![
            bytes::Bytes::from_static(b"mdt0"),
            encode_event_batch(events),
            bytes::Bytes::from(meta),
        ])
    }

    #[test]
    fn straddling_batches_are_trimmed_to_the_unseen_suffix() {
        let ctx = Context::new();
        let publisher = collector_socket(&ctx, "inproc://straddle").unwrap();
        let store = Arc::new(MemStore::new());
        let agg = Aggregator::start(
            &ctx,
            &["inproc://straddle".to_string()],
            "inproc://agg6",
            store.clone(),
        )
        .unwrap();
        let consumer = consumer_socket(&ctx, "inproc://agg6").unwrap();
        let ev = |p: &str| StandardEvent::new(EventKind::Create, "/r", p);
        publisher
            .send(indexed_msg(&[ev("a"), ev("b")], &[1, 2]))
            .unwrap();
        assert!(agg.wait_received(2, Duration::from_secs(2)));
        // A restarted collector resumed from a stale cursor and read a
        // wider batch: records 1–2 again plus fresh record 3.
        publisher
            .send(indexed_msg(&[ev("a"), ev("b"), ev("c")], &[1, 2, 3]))
            .unwrap();
        assert!(agg.wait_received(3, Duration::from_secs(2)));
        let stats = agg.stats();
        assert_eq!(stats.received, 3, "only the unseen suffix was accepted");
        assert_eq!(stats.dedup_dropped, 2);
        // The consumer sees a, b, c exactly once, densely stamped.
        let mut got = Vec::new();
        while let Ok(msg) = consumer.recv_timeout(Duration::from_millis(200)) {
            got.extend(
                decode_event_batch(&bytes::Bytes::copy_from_slice(msg.part(1).unwrap())).unwrap(),
            );
        }
        let paths: Vec<&str> = got.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, vec!["/a", "/b", "/c"]);
        assert_eq!(got.iter().map(|e| e.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        agg.stop();
    }

    #[test]
    fn crashed_lanes_respawn_and_resume() {
        use fsmon_faults::{FaultPlan, FaultRule};
        let ctx = Context::new();
        let publisher = collector_socket(&ctx, "inproc://crash").unwrap();
        let store = Arc::new(MemStore::new());
        // One publish-side stage and the store lane each crash once,
        // immediately.
        let faults = FaultPlan::new(7)
            .with(
                FaultPoint::AggregatorPublishCrash,
                FaultRule::per_10k(10_000).limit(1),
            )
            .with(
                FaultPoint::AggregatorStoreCrash,
                FaultRule::per_10k(10_000).limit(1),
            )
            .arm();
        let agg = Aggregator::start_with(
            &ctx,
            &["inproc://crash".to_string()],
            "inproc://agg5",
            store.clone(),
            faults,
            Retry::fast(),
        )
        .unwrap();
        // Let the doomed stages hit their loop tops and die.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while agg.lanes_alive() != (false, false) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(agg.lanes_alive(), (false, false), "both sides crashed");
        // Events published while stages are down wait in the SUB queue
        // (or an inter-stage channel).
        let ev = StandardEvent::new(EventKind::Create, "/r", "while-down");
        publisher.send(batch_msg(&[ev])).unwrap();
        assert_eq!(agg.respawn_dead_lanes(), 2);
        assert!(agg.wait_received(1, Duration::from_secs(2)));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while store.stats().appended < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(store.stats().appended, 1, "nothing lost across restart");
        assert_eq!(agg.stats().lane_restarts, 2);
        agg.stop();
    }

    /// Observability invariant: trace records attached by a collector
    /// survive the aggregator's dedup trim (positions remapped, trimmed
    /// traces dropped) and the sequencer's id patching (each trace
    /// learns its event's dense id), while the collector-stamped stages
    /// pass through byte-identically.
    #[test]
    fn trace_records_survive_trim_and_id_patching() {
        use fsmon_telemetry::{TraceRecord, TraceStage, Tracer};
        let ctx = Context::new();
        let publisher = collector_socket(&ctx, "inproc://trace-src").unwrap();
        let store = Arc::new(MemStore::new());
        // A fixed clock makes the aggregator's own stamps predictable.
        let tracer = Tracer::new(10_000, Arc::new(|| 7_000));
        let agg = Aggregator::start_traced(
            &ctx,
            &["inproc://trace-src".to_string()],
            "inproc://agg-trace",
            store.clone(),
            Faults::none(),
            Retry::fast(),
            1,
            tracer,
        )
        .unwrap();
        let consumer = consumer_socket(&ctx, "inproc://agg-trace").unwrap();
        let ev = |p: &str| StandardEvent::new(EventKind::Create, "/r", p);
        let traced_msg = |events: &[StandardEvent], indices: &[u64], traces: &[TraceRecord]| {
            let mut meta = Vec::with_capacity(16 + 8 * indices.len());
            meta.extend_from_slice(&indices.first().unwrap().to_be_bytes());
            meta.extend_from_slice(&indices.last().unwrap().to_be_bytes());
            for idx in indices {
                meta.extend_from_slice(&idx.to_be_bytes());
            }
            Message::from_parts(vec![
                bytes::Bytes::from_static(b"mdt0"),
                encode_event_batch(events),
                bytes::Bytes::from(meta),
                encode_tlv(TLV_TRACE, &TraceRecord::encode_all(traces)),
            ])
        };
        let collector_trace = |pos: u32, base: u64| {
            let mut rec = TraceRecord::new(pos, 3);
            rec.stamp(TraceStage::Read, base);
            rec.stamp(TraceStage::Resolve, base + 10);
            rec.stamp(TraceStage::Publish, base + 20);
            rec
        };
        // Batch 1: records 1–2, both positions traced.
        publisher
            .send(traced_msg(
                &[ev("a"), ev("b")],
                &[1, 2],
                &[collector_trace(0, 100), collector_trace(1, 200)],
            ))
            .unwrap();
        assert!(agg.wait_received(2, Duration::from_secs(2)));
        let msg = consumer.recv_timeout(Duration::from_secs(2)).unwrap();
        let traces = find_tlv(msg.part(2).unwrap(), TLV_TRACE)
            .unwrap()
            .and_then(TraceRecord::decode_all)
            .unwrap();
        assert_eq!(traces.len(), 2);
        assert_eq!(
            traces.iter().map(|t| t.event_id).collect::<Vec<_>>(),
            vec![1, 2],
            "sequencer ids patched into the traces"
        );
        // Collector stamps pass through byte-identically; the
        // aggregator added ingest + sequence from its fixed clock.
        assert_eq!(traces[0].stamps[TraceStage::Read as usize], 100);
        assert_eq!(traces[0].stamps[TraceStage::Resolve as usize], 110);
        assert_eq!(traces[0].stamps[TraceStage::Publish as usize], 120);
        assert_eq!(traces[0].stamps[TraceStage::Ingest as usize], 7_000);
        assert_eq!(traces[0].stamps[TraceStage::Sequence as usize], 7_000);
        // Batch 2 straddles the highwater: records 1–2 replayed plus
        // fresh record 3, traced at positions 0 and 2. The replayed
        // prefix is trimmed, so only the pos-2 trace survives — at
        // position 0 of the trimmed batch, with record 3's new id.
        publisher
            .send(traced_msg(
                &[ev("a"), ev("b"), ev("c")],
                &[1, 2, 3],
                &[collector_trace(0, 300), collector_trace(2, 400)],
            ))
            .unwrap();
        assert!(agg.wait_received(3, Duration::from_secs(2)));
        let msg = consumer.recv_timeout(Duration::from_secs(2)).unwrap();
        let events =
            decode_event_batch(&bytes::Bytes::copy_from_slice(msg.part(1).unwrap())).unwrap();
        assert_eq!(events.len(), 1, "replayed prefix trimmed");
        assert_eq!(events[0].id, 3);
        let traces = find_tlv(msg.part(2).unwrap(), TLV_TRACE)
            .unwrap()
            .and_then(TraceRecord::decode_all)
            .unwrap();
        assert_eq!(traces.len(), 1, "trimmed event's trace dropped");
        assert_eq!(traces[0].pos, 0, "surviving trace remapped");
        assert_eq!(traces[0].event_id, 3);
        assert_eq!(traces[0].stamps[TraceStage::Read as usize], 400);
        agg.stop();
    }

    /// Restart continuity (whole-process recovery): a second aggregator
    /// started over the first one's store resumes the dense id stream
    /// where the persisted sequence left off.
    #[test]
    fn restarted_aggregator_resumes_ids_from_the_store() {
        let ctx = Context::new();
        let publisher = collector_socket(&ctx, "inproc://resume-src").unwrap();
        let store = Arc::new(MemStore::new());
        let ev = |p: &str| StandardEvent::new(EventKind::Create, "/r", p);
        let agg = Aggregator::start(
            &ctx,
            &["inproc://resume-src".to_string()],
            "inproc://agg-resume1",
            store.clone(),
        )
        .unwrap();
        publisher.send(batch_msg(&[ev("a"), ev("b")])).unwrap();
        assert!(agg.wait_received(2, Duration::from_secs(2)));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while store.stats().appended < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        agg.stop(); // the "crash": only the store survives
        let agg2 = Aggregator::start(
            &ctx,
            &["inproc://resume-src".to_string()],
            "inproc://agg-resume2",
            store.clone(),
        )
        .unwrap();
        publisher.send(batch_msg(&[ev("c")])).unwrap();
        assert!(agg2.wait_received(1, Duration::from_secs(2)));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while store.stats().appended < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let replay = store.get_since(0, 10).unwrap();
        assert_eq!(
            replay.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "id stream continues across the restart, no reuse, no gap"
        );
        agg2.stop();
    }

    /// Tentpole invariant: with several worker lanes racing, the
    /// sequencer still emits one dense, ordered id stream, each topic's
    /// events keep their arrival order, and the store's sequence
    /// numbers coincide with the stamps.
    #[test]
    fn sharded_lanes_stamp_dense_ordered_ids() {
        let ctx = Context::new();
        let p0 = collector_socket(&ctx, "inproc://lanes0").unwrap();
        let p1 = collector_socket(&ctx, "inproc://lanes1").unwrap();
        let store = Arc::new(MemStore::new());
        let agg = Aggregator::start_tuned(
            &ctx,
            &["inproc://lanes0".to_string(), "inproc://lanes1".to_string()],
            "inproc://agg7",
            store.clone(),
            Faults::none(),
            Retry::fast(),
            4,
        )
        .unwrap();
        let consumer = consumer_socket(&ctx, "inproc://agg7").unwrap();
        let ev = |root: &str, name: String| StandardEvent::new(EventKind::Create, root, name);
        for i in 0..10u32 {
            p0.send(Message::from_parts(vec![
                bytes::Bytes::from_static(b"mdt0"),
                encode_event_batch(&[
                    ev("/r0", format!("a{}", 2 * i)),
                    ev("/r0", format!("a{}", 2 * i + 1)),
                ]),
            ]))
            .unwrap();
            p1.send(Message::from_parts(vec![
                bytes::Bytes::from_static(b"mdt1"),
                encode_event_batch(&[
                    ev("/r1", format!("b{}", 2 * i)),
                    ev("/r1", format!("b{}", 2 * i + 1)),
                ]),
            ]))
            .unwrap();
        }
        assert!(agg.wait_received(40, Duration::from_secs(2)));
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while got.len() < 40 && std::time::Instant::now() < deadline {
            if let Ok(msg) = consumer.recv_timeout(Duration::from_millis(200)) {
                got.extend(
                    decode_event_batch(&bytes::Bytes::copy_from_slice(msg.part(1).unwrap()))
                        .unwrap(),
                );
            }
        }
        assert_eq!(got.len(), 40);
        // Publish order is id order, and ids are dense from 1.
        assert_eq!(
            got.iter().map(|e| e.id).collect::<Vec<_>>(),
            (1..=40).collect::<Vec<u64>>()
        );
        // Each topic's events keep their per-collector arrival order.
        for (root, prefix) in [("/r0", "a"), ("/r1", "b")] {
            let names: Vec<String> = got
                .iter()
                .filter(|e| e.watch_root == root)
                .map(|e| e.path.trim_start_matches('/').to_string())
                .collect();
            let want: Vec<String> = (0..20).map(|i| format!("{prefix}{i}")).collect();
            assert_eq!(names, want, "topic {root} reordered");
        }
        // The store lane catches up and its seqs coincide with stamps.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while store.stats().appended < 40 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(store.stats().appended, 40);
        let replay = store.get_since(0, 100).unwrap();
        assert_eq!(
            replay.iter().map(|e| e.id).collect::<Vec<_>>(),
            (1..=40).collect::<Vec<u64>>()
        );
        agg.stop();
    }
}
