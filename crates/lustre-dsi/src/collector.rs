//! The per-MDS collector: Changelog extraction and Algorithm 1.
//!
//! Resolution — the `fid2path` stage that dominates collector cost —
//! is directory-first and prefetch-then-serial ([`Resolver`]): a record
//! that names its parent resolves as `path(parent) ⊕ name`, the FIDs a
//! batch will miss are looked up concurrently on a fixed worker pool,
//! and then one thread runs Algorithm 1 over the batch in changelog
//! order. Only that thread touches the cache, so the event stream is
//! the same for every pool width.

use fsmon_core::ShardedLruCache;
use fsmon_events::changelog::ChangelogKind;
use fsmon_events::wire::{encode_tlv, TLV_TRACE};
use fsmon_events::{encode_event_batch_into, EventKind, MonitorSource, StandardEvent};
use fsmon_faults::Retry;
use fsmon_mq::{Message, PubSocket};
use fsmon_telemetry::{TraceRecord, TraceStage, Tracer};
use lustre_sim::changelog::ChangelogUser;
use lustre_sim::namespace::{FsError, MdtHandle};
use lustre_sim::{ChangelogRecord, CostModel, Fid};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Collector throughput and cache-effectiveness counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollectorStats {
    /// Changelog records consumed.
    pub records: u64,
    /// Standardized events produced (RENME yields two).
    pub events: u64,
    /// `fid2path` invocations.
    pub fid2path_calls: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Events that terminated as `ParentDirectoryRemoved`.
    pub parent_dir_removed: u64,
    /// Steps skipped because no live subscriber matched this
    /// collector's topic (`fsmon_collector_held_steps_total{mdt}`): the
    /// records stayed in the changelog.
    pub held_steps: u64,
    /// Current cache entry count.
    pub cache_entries: usize,
    /// Estimated collector memory: cache entries × mean mapping size.
    pub cache_memory_bytes: usize,
}

/// Mean bytes per cached `fid → path` mapping (FID key + path string +
/// index overhead), used for the memory columns of Tables VII/VIII.
pub const CACHE_ENTRY_BYTES: usize = 112;

/// Shards in the lock-striped `fid2path` cache. Fixed rather than
/// derived from the pool width so cache behaviour (and per-shard
/// capacity) doesn't shift when the ablation knob changes.
const CACHE_SHARDS: usize = 8;

/// Shortest time between fleet snapshot publications on the
/// collector's `telemetry.mdt<i>` topic while records keep flowing. A
/// snapshot is a JSON registry dump the aggregator parses on its demux
/// thread, in front of events, so it is paced by the clock and not by
/// steps: a collector that keeps up steps as often as once per record.
const FLEET_SNAPSHOT_EVERY: Duration = Duration::from_millis(200);

/// The per-collector mirror registry behind fleet aggregation. Every
/// in-process collector shares the *global* registry (per-MDT labels
/// keep series apart, but a snapshot of it covers all of them), so the
/// fleet view is built from private registries instead: each collector
/// mirrors its own throughput counters here and periodically publishes
/// a JSON snapshot on `telemetry.mdt<i>` — exactly what a collector on
/// a remote MDS would put on the wire. The aggregator folds these with
/// [`fsmon_telemetry::Snapshot::merge_fleet`].
struct FleetMirror {
    registry: fsmon_telemetry::Registry,
    records: Arc<fsmon_telemetry::Counter>,
    events: Arc<fsmon_telemetry::Counter>,
    traces: Arc<fsmon_telemetry::Counter>,
    backlog: Arc<fsmon_telemetry::Gauge>,
    topic: Vec<u8>,
    /// The mirror changed since the last publication. Born dirty: a
    /// collector announces itself to the fleet view before its first
    /// record.
    dirty: bool,
    published_at: Instant,
}

impl FleetMirror {
    fn new(mdt_index: u16) -> FleetMirror {
        let registry = fsmon_telemetry::Registry::new();
        let scope = registry
            .scope("fsmon")
            .scope("collector")
            .with_label("mdt", mdt_index.to_string());
        FleetMirror {
            records: scope.counter("records_total"),
            events: scope.counter("events_total"),
            traces: scope.counter("traces_total"),
            backlog: scope.gauge("backlog"),
            topic: format!("telemetry.mdt{mdt_index}").into_bytes(),
            dirty: true,
            published_at: Instant::now(),
            registry,
        }
    }

    fn snapshot_json(&self) -> String {
        fsmon_telemetry::export::render_json(&self.registry.snapshot())
    }
}

/// A `fid2path` outcome. The error carries nothing: a deleted FID and
/// an exhausted retry budget degrade the same way, to reconstruction
/// from the record's own parent + name.
type Resolved = Result<String, ()>;

/// What it takes to run `fid2path`: the MDS handle, the retry policy
/// and the counters every call feeds. It holds no path state, so the
/// step thread and the pool workers share it freely.
struct Lookup {
    mdt: MdtHandle,
    retry: Retry,
    /// Charged on top of every call: the client→MDS round trip of the
    /// Robinhood baseline, `Free` for a collector on the MDS itself.
    penalty: CostModel,
    calls: AtomicU64,
    t_calls: Arc<fsmon_telemetry::Counter>,
    t_retries: Arc<fsmon_telemetry::Counter>,
    /// Wall-clock latency of each `fid2path` resolution, including
    /// retries (ns) — the benchmark reads it.
    t_resolve_ns: Arc<fsmon_telemetry::Histogram>,
}

impl Lookup {
    /// One `fid2path`. Transient MDS errors (injected or real) are
    /// retried with backoff; a permanent failure (deleted FID) and an
    /// exhausted retry budget both come back as `Err`.
    fn fid2path(&self, fid: Fid) -> Resolved {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.t_calls.inc();
        let t0 = std::time::Instant::now();
        let mut backoff = self.retry.backoff();
        let resolved = loop {
            self.penalty.charge();
            match self.mdt.fid2path(fid) {
                Err(FsError::Transient(_)) => match backoff.next() {
                    Some(sleep) => {
                        self.t_retries.inc();
                        std::thread::sleep(sleep);
                    }
                    None => break Err(()),
                },
                other => break other.map_err(|_| ()),
            }
        };
        self.t_resolve_ns.record(t0.elapsed().as_nanos() as u64);
        resolved
    }
}

/// Most FIDs per pool job: small, so the waits of a batch balance over
/// the workers, but not one, so a burst of cheap lookups does not pay
/// a thread wake-up each.
const JOB_FIDS: usize = 16;

/// Fixed pool of lookup workers: FIDs in, `(Fid, Resolved)` out. One
/// batch is in flight at a time (the collector's step drives it
/// synchronously), so a single shared completion channel suffices.
struct ResolverPool {
    job_tx: Option<crossbeam::channel::Sender<Vec<Fid>>>,
    done_rx: crossbeam::channel::Receiver<Vec<(Fid, Resolved)>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ResolverPool {
    fn spawn(lookup: &Arc<Lookup>, threads: usize) -> ResolverPool {
        let (job_tx, job_rx) = crossbeam::channel::unbounded::<Vec<Fid>>();
        let (done_tx, done_rx) = crossbeam::channel::unbounded();
        let workers = (0..threads)
            .map(|w| {
                let job_rx = job_rx.clone();
                let done_tx = done_tx.clone();
                let lookup = lookup.clone();
                std::thread::Builder::new()
                    .name(format!("resolver-mdt{}-{w}", lookup.mdt.index()))
                    .spawn(move || {
                        while let Ok(fids) = job_rx.recv() {
                            let done: Vec<(Fid, Resolved)> = fids
                                .into_iter()
                                .map(|fid| (fid, lookup.fid2path(fid)))
                                .collect();
                            if done_tx.send(done).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn resolver worker")
            })
            .collect();
        ResolverPool {
            job_tx: Some(job_tx),
            done_rx,
            workers,
        }
    }

    /// Look up every FID of `fids`, as many at a time as there are
    /// workers, and file the outcomes under their FID.
    fn lookup_all(&self, fids: &[Fid], into: &mut HashMap<Fid, Vec<Resolved>>) {
        let job_tx = self.job_tx.as_ref().expect("pool alive");
        // At least four jobs per worker while there are FIDs for them.
        let per_job = fids
            .len()
            .div_ceil(4 * self.workers.len())
            .clamp(1, JOB_FIDS);
        let jobs = fids.chunks(per_job);
        let n_jobs = jobs.len();
        for job in jobs {
            job_tx.send(job.to_vec()).expect("resolver pool alive");
        }
        for _ in 0..n_jobs {
            for (fid, resolved) in self.done_rx.recv().expect("resolver pool alive") {
                into.entry(fid).or_default().push(resolved);
            }
        }
    }
}

impl Drop for ResolverPool {
    fn drop(&mut self) {
        // Dropping the sender disconnects the job channel; workers exit
        // their recv loop and the pool joins them.
        self.job_tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Algorithm 1's `processEvent`, directory-first, plus the per-batch
/// prefetch that feeds it. Shared by the collector and the Robinhood
/// baseline so the two differ in architecture, not in resolution.
///
/// Every method runs on the one thread that owns the resolver: the
/// pool only ever sees FIDs, so the cache is read and written in
/// changelog order whatever the pool width.
pub(crate) struct Resolver {
    lookup: Arc<Lookup>,
    watch_root: String,
    /// `fid → absolute path` memoization. `None` reproduces the
    /// paper's "without cache" configuration.
    cache: Option<ShardedLruCache<Fid, String>>,
    /// Lookups in flight during a batch's prefetch (1 = none: every
    /// miss is looked up inline by the serial pass).
    threads: usize,
    /// Spawned on the first batch that has lookups to overlap.
    pool: Option<ResolverPool>,
    /// This batch's prefetched lookups; the serial pass consumes them.
    prefetched: HashMap<Fid, Vec<Resolved>>,
    /// Whether a rename can move a cached directory without this
    /// resolver reading its RENME first. With one MDT it cannot: the
    /// changelog orders every rename before the records that follow
    /// it. On DNE a directory's RENME is logged on its *parent's* MDT
    /// only, so a cached directory path is re-checked against the MDS
    /// before a newer record may join onto it ([`Resolver::admit`]).
    recheck_dirs: bool,
    /// Directories whose cached path was looked up, or built from one
    /// that was, at or after `checked_at` (simulated clock): good for
    /// every record stamped no later than that.
    checked: HashSet<Fid>,
    checked_at: u64,
    /// Standardized events produced so far.
    pub(crate) events: u64,
    parent_dir_removed: u64,
    /// Paths built as `path(parent) ⊕ name`.
    t_parent_joins: Arc<fsmon_telemetry::Counter>,
    /// FIDs handed to the pool per batch (0 = pool not used).
    t_prefetch_fids: Arc<fsmon_telemetry::Histogram>,
    /// Directory moves that found stale descendants in the cache.
    t_cache_flushes: Arc<fsmon_telemetry::Counter>,
}

/// A collector service for one MDS.
pub struct Collector {
    mdt: MdtHandle,
    user: ChangelogUser,
    resolver: Resolver,
    last_index: u64,
    batch_size: usize,
    publisher: Option<PubSocket>,
    topic: Vec<u8>,
    /// Sampled per-event tracing; disabled by default.
    tracer: Tracer,
    /// Private registry mirrored to `telemetry.mdt<i>` for the fleet
    /// view.
    fleet: FleetMirror,
    stats: CollectorStats,
    /// Reusable frame buffer for batch encoding (capacity persists
    /// across steps; frames are frozen out by refcounted copy).
    enc_buf: bytes::BytesMut,
    t_records: Arc<fsmon_telemetry::Counter>,
    t_events: Arc<fsmon_telemetry::Counter>,
    /// Changelog read+process latency per step (ns).
    t_read_ns: Arc<fsmon_telemetry::Histogram>,
    /// Changelog clear (purge) latency per step (ns).
    t_purge_ns: Arc<fsmon_telemetry::Histogram>,
    t_read_errors: std::sync::Arc<fsmon_telemetry::Counter>,
    t_held_steps: Arc<fsmon_telemetry::Counter>,
    t_purge_errors: std::sync::Arc<fsmon_telemetry::Counter>,
    /// Traces forced by the tail-bias threshold (batch latency crossed
    /// the tracer's threshold while the uniform sampler would skip).
    t_forced_traces: Arc<fsmon_telemetry::Counter>,
}

impl Collector {
    /// Build a collector for `mdt`. `cache_size` of 0 disables the
    /// cache; `publisher`, when given, receives one message per
    /// processed batch on topic `mdt<idx>`.
    pub fn new(
        mdt: MdtHandle,
        watch_root: impl Into<String>,
        cache_size: usize,
        batch_size: usize,
        publisher: Option<PubSocket>,
    ) -> Collector {
        let user = mdt.register_user();
        let topic = format!("mdt{}", mdt.index()).into_bytes();
        let labelled = fsmon_telemetry::root().with_label("mdt", mdt.index().to_string());
        let scope = labelled.scope("collector");
        // The resolver shares its own handle to the MDT with its workers.
        let resolver = Resolver::new(
            mdt.fs().mdt(mdt.index()),
            watch_root.into(),
            cache_size,
            CostModel::Free,
            &labelled,
        );
        let fleet = FleetMirror::new(mdt.index());
        Collector {
            mdt,
            user,
            resolver,
            last_index: 0,
            batch_size,
            publisher,
            topic,
            tracer: Tracer::disabled(),
            fleet,
            stats: CollectorStats::default(),
            enc_buf: bytes::BytesMut::new(),
            t_records: scope.counter("records_total"),
            t_events: scope.counter("events_total"),
            t_read_ns: scope.histogram("read_ns"),
            t_purge_ns: scope.histogram("purge_ns"),
            t_read_errors: scope.counter("read_errors_total"),
            t_held_steps: scope.counter("held_steps_total"),
            t_purge_errors: scope.counter("purge_errors_total"),
            t_forced_traces: scope.counter("forced_traces_total"),
        }
    }

    /// Override the retry policy for transient MDS errors. Must be
    /// called before the first step (the lookup handle is not yet
    /// shared with pool workers).
    pub fn with_retry(mut self, retry: Retry) -> Collector {
        Arc::get_mut(&mut self.resolver.lookup)
            .expect("set retry before the collector starts stepping")
            .retry = retry;
        self
    }

    /// Stamp sampled events with per-stage trace timestamps using
    /// `tracer`'s shared clock and sampling policy. Traces ride as an
    /// extra message part behind the batch meta; untraced batches (and
    /// a disabled tracer) add zero bytes to the wire.
    pub fn with_tracer(mut self, tracer: Tracer) -> Collector {
        self.tracer = tracer;
        self
    }

    /// Keep up to `threads` `fid2path` lookups in flight while a batch
    /// is prefetched (1 = every lookup inline on the step thread, the
    /// default). Only lookups leave the step thread — the cache and
    /// Algorithm 1 stay on it — so the event stream is the same for
    /// every value.
    pub fn with_resolver_threads(mut self, threads: usize) -> Collector {
        self.resolver.threads = threads.max(1);
        self
    }

    /// Rebuild a collector after a crash, resuming after changelog
    /// index `last_index` — the previous incarnation's clear index, read
    /// from the MDT ([`MdtHandle::cleared_index`]). Records past it are
    /// still retained, because the dead incarnation's changelog user
    /// pins them until the caller shuts it down. `step` clears *before*
    /// it publishes, so a crash between the two loses that batch;
    /// a failed clear leaves the index behind what was published, so
    /// the restart re-reads those records and the aggregator's
    /// per-topic dedup drops them.
    pub fn resume(
        mdt: MdtHandle,
        watch_root: impl Into<String>,
        cache_size: usize,
        batch_size: usize,
        publisher: Option<PubSocket>,
        last_index: u64,
    ) -> Collector {
        let mut c = Collector::new(mdt, watch_root, cache_size, batch_size, publisher);
        c.last_index = last_index;
        // The fresh changelog user must not re-pin records the previous
        // incarnation already consumed.
        c.mdt.clear_changelog(c.user, last_index);
        c
    }

    /// Index of the last record processed (read, whether or not its
    /// clear succeeded).
    pub fn last_index(&self) -> u64 {
        self.last_index
    }

    /// The index the MDT holds as cleared for this collector's
    /// changelog user: where a replacement [`resume`](Collector::resume)s.
    pub(crate) fn cleared_index(&self) -> u64 {
        self.mdt.cleared_index(self.user)
    }

    /// Deregister this collector's changelog user so its watermark no
    /// longer pins records. Call when decommissioning a collector, or
    /// once its replacement has resumed.
    pub fn shutdown(self) {
        self.mdt.deregister_user(self.user);
    }

    /// The MDT this collector drains.
    pub fn mdt_index(&self) -> u16 {
        self.mdt.index()
    }

    /// Counters so far.
    pub fn stats(&self) -> CollectorStats {
        let mut stats = self.stats;
        stats.events = self.resolver.events;
        stats.fid2path_calls = self.resolver.fid2path_calls();
        stats.parent_dir_removed = self.resolver.parent_dir_removed;
        if let Some(cache) = &self.resolver.cache {
            let s = cache.stats();
            stats.cache_hits = s.hits;
            stats.cache_misses = s.misses;
            stats.cache_entries = cache.len();
            stats.cache_memory_bytes = cache.memory_bytes(CACHE_ENTRY_BYTES);
        }
        stats
    }

    /// Records not yet consumed from the Changelog.
    pub fn backlog(&self) -> u64 {
        self.mdt.backlog(self.user)
    }

    /// Algorithm 1's `processEvent`: one Changelog record → one or two
    /// standardized events.
    pub fn process_record(&mut self, rec: &lustre_sim::ChangelogRecord) -> Vec<StandardEvent> {
        let mut out = Vec::with_capacity(2);
        self.resolver.process_record(rec, &mut out);
        out
    }

    /// One collection cycle: read a batch, process it, purge the
    /// Changelog up to the last consumed record, then publish the
    /// standardized events. Returns the events produced.
    ///
    /// If a publisher is attached but has **no live subscriber**, the
    /// cycle holds: publishing would drop the batch on the floor
    /// (PUB/SUB semantics) while the purge destroyed the only other
    /// copy — a silent-loss window during aggregator restarts. Holding
    /// keeps the records in the changelog until the aggregator is back.
    pub fn step(&mut self) -> Vec<StandardEvent> {
        if let Some(publisher) = &self.publisher {
            // Match against the actual topic, not mere connection
            // count: a TCP subscriber exists before its subscription
            // control frames land, and publishing into that window
            // would purge the only copy of the batch.
            if !publisher.has_subscriber_matching(&self.topic) {
                self.stats.held_steps += 1;
                self.t_held_steps.inc();
                return Vec::new();
            }
        }
        let tracing = self.tracer.enabled() && self.publisher.is_some();
        let t_read = std::time::Instant::now();
        let records = match self
            .mdt
            .try_read_changelog(self.last_index, self.batch_size)
        {
            Ok(records) => records,
            Err(_) => {
                // Transient read failure: nothing was consumed, the
                // cursor is unchanged, and the lane loop simply comes
                // back — the changelog is the retry buffer.
                self.t_read_errors.inc();
                return Vec::new();
            }
        };
        if records.is_empty() {
            return Vec::new();
        }
        let first_index = records.first().expect("non-empty").index;
        let batch_last_index = records.last().expect("non-empty").index;
        let n_records = records.len();
        // `event_indices` carries the changelog index of the record
        // behind each event (RENME yields two events for one record), so
        // the aggregator can drop exactly the re-published events when a
        // restarted collector's batch straddles its dedup highwater.
        let read_ns = if tracing { self.tracer.now_ns() } else { 0 };
        let (events, event_indices) = self.resolver.resolve_batch(&records);
        // Sample traces by batch position: each sampled event gets a
        // record stamped with the read and resolve stage completions
        // (batch-granular — the stages run per batch, not per event).
        let mut traces: Vec<TraceRecord> = Vec::new();
        if tracing {
            let resolve_ns = self.tracer.now_ns();
            // Tail bias: when this batch's resolve latency crossed the
            // tracer's threshold, force one trace (position 0) even if
            // the uniform sampler skips the whole batch, so slow-path
            // exemplars survive low per_10k rates.
            let force = self
                .tracer
                .tail_exceeded(resolve_ns.saturating_sub(read_ns));
            for pos in 0..events.len() {
                let sampled = self.tracer.sample();
                let forced = !sampled && force && pos == 0;
                if sampled || forced {
                    let mut rec = TraceRecord::new(pos as u32, self.mdt.index());
                    rec.stamp(TraceStage::Read, read_ns);
                    rec.stamp(TraceStage::Resolve, resolve_ns);
                    traces.push(rec);
                    if forced {
                        self.t_forced_traces.inc();
                    }
                }
            }
        }
        self.stats.records += n_records as u64;
        self.t_records.add(n_records as u64);
        self.t_events.add(events.len() as u64);
        self.t_read_ns.record(t_read.elapsed().as_nanos() as u64);
        self.last_index = batch_last_index;
        // "After processing a batch … a collector will purge the
        // Changelogs" (§IV Processing).
        let t_purge = std::time::Instant::now();
        if self
            .mdt
            .try_clear_changelog(self.user, self.last_index)
            .is_err()
        {
            // Safe to skip: clearing is idempotent and monotone, so the
            // next successful clear covers these records too.
            self.t_purge_errors.inc();
        }
        self.t_purge_ns.record(t_purge.elapsed().as_nanos() as u64);
        if let Some(publisher) = &self.publisher {
            // Encode into the collector's reusable buffer; the frozen
            // frame is refcount-shared from here to every subscriber.
            encode_event_batch_into(&events, &mut self.enc_buf);
            let payload = self.enc_buf.split_frozen();
            // Frame 2 carries the batch's changelog index range plus one
            // index per event, so the aggregator can drop re-published
            // duplicates after a collector restart — whole batches or
            // the overlapping prefix of a straddling one
            // (at-least-once → exactly-once).
            let mut meta = Vec::with_capacity(16 + 8 * event_indices.len());
            meta.extend_from_slice(&first_index.to_be_bytes());
            meta.extend_from_slice(&self.last_index.to_be_bytes());
            for idx in &event_indices {
                meta.extend_from_slice(&idx.to_be_bytes());
            }
            let mut parts = vec![
                bytes::Bytes::from(self.topic.clone()),
                payload,
                bytes::Bytes::from(meta),
            ];
            if !traces.is_empty() {
                // Stamp the publish stage and attach the traces as a
                // fourth frame: a TLV section so future meta can ride
                // alongside without a wire version bump.
                let publish_ns = self.tracer.now_ns();
                for rec in &mut traces {
                    rec.stamp(TraceStage::Publish, publish_ns);
                }
                self.fleet.traces.add(traces.len() as u64);
                parts.push(encode_tlv(TLV_TRACE, &TraceRecord::encode_all(&traces)));
            }
            let _ = publisher.send(Message::from_parts(parts));
            // Fleet view upkeep: mirror this batch into the private
            // registry and periodically publish the snapshot.
            self.fleet.records.add(n_records as u64);
            self.fleet.events.add(events.len() as u64);
            self.fleet.backlog.set(self.mdt.backlog(self.user) as i64);
            self.fleet.dirty = true;
            if self.fleet.published_at.elapsed() >= FLEET_SNAPSHOT_EVERY {
                self.publish_fleet_snapshot();
            }
        }
        events
    }

    /// Publish this collector's private registry snapshot on its
    /// `telemetry.mdt<i>` topic (no-op without a publisher).
    fn publish_fleet_snapshot(&mut self) {
        if let Some(publisher) = &self.publisher {
            let json = self.fleet.snapshot_json();
            let _ = publisher.send(Message::from_parts(vec![
                bytes::Bytes::from(self.fleet.topic.clone()),
                bytes::Bytes::from(json.into_bytes()),
            ]));
        }
        self.fleet.dirty = false;
        self.fleet.published_at = Instant::now();
    }

    /// Publish the fleet snapshot if it changed since it was last
    /// published. `step` publishes at most every
    /// [`FLEET_SNAPSHOT_EVERY`] while records flow; the collector lane
    /// calls this when it finds the changelog quiet, so the fleet view
    /// converges on its own once traffic stops.
    pub(crate) fn flush_fleet_snapshot(&mut self) {
        if self.fleet.dirty {
            self.publish_fleet_snapshot();
        }
    }

    /// Drive `step` until the Changelog is empty (bounded by `cycles`).
    pub fn drain(&mut self, cycles: usize) -> Vec<StandardEvent> {
        let mut out = Vec::new();
        for _ in 0..cycles {
            let batch = self.step();
            if batch.is_empty() {
                break;
            }
            out.extend(batch);
        }
        out
    }
}

impl Resolver {
    /// A resolver for `mdt`'s records. `telemetry` is the labelled
    /// root its `fid2path_*` instruments (and the cache's) hang under.
    pub(crate) fn new(
        mdt: MdtHandle,
        watch_root: String,
        cache_size: usize,
        penalty: CostModel,
        telemetry: &fsmon_telemetry::Scope,
    ) -> Resolver {
        let scope = telemetry.scope("fid2path");
        Resolver {
            recheck_dirs: cache_size > 0 && mdt.fs().mdt_count() > 1,
            checked: HashSet::new(),
            checked_at: 0,
            lookup: Arc::new(Lookup {
                mdt,
                retry: Retry::fast(),
                penalty,
                calls: AtomicU64::new(0),
                t_calls: scope.counter("calls_total"),
                t_retries: telemetry
                    .scope("collector")
                    .counter("fid2path_retries_total"),
                t_resolve_ns: scope.histogram("resolve_ns"),
            }),
            watch_root,
            cache: (cache_size > 0)
                .then(|| ShardedLruCache::new(cache_size, CACHE_SHARDS).instrument(&scope)),
            threads: 1,
            pool: None,
            prefetched: HashMap::new(),
            events: 0,
            parent_dir_removed: 0,
            t_parent_joins: scope.counter("parent_joins_total"),
            t_prefetch_fids: scope.histogram("prefetch_fids"),
            t_cache_flushes: scope.counter("cache_flushes_total"),
        }
    }

    /// `fid2path` invocations so far.
    pub(crate) fn fid2path_calls(&self) -> u64 {
        self.lookup.calls.load(Ordering::Relaxed)
    }

    /// Resolve a batch into ordered events plus the changelog index
    /// behind each one: prefetch what the batch will miss, then run
    /// Algorithm 1 over it serially.
    fn resolve_batch(&mut self, records: &[ChangelogRecord]) -> (Vec<StandardEvent>, Vec<u64>) {
        // A changelog is in time order: the last record is the newest.
        self.admit(records.last().map_or(0, |rec| rec.time_ns));
        self.prefetch(records);
        let mut events = Vec::with_capacity(records.len());
        let mut indices = Vec::with_capacity(records.len());
        for rec in records {
            let before = events.len();
            self.process_record(rec, &mut events);
            indices.extend(std::iter::repeat_n(rec.index, events.len() - before));
        }
        self.prefetched.clear();
        (events, indices)
    }

    /// Probe the cache read-only, in changelog order, for the FIDs the
    /// serial pass will miss — not counting those an earlier record of
    /// the batch will have cached by then — and look them up on the
    /// pool so their waits overlap.
    fn prefetch(&mut self, records: &[ChangelogRecord]) {
        let mut need = Vec::new();
        if self.threads > 1 {
            let mut seen = HashSet::new();
            for rec in records {
                let named = !rec.parent_fid.is_null();
                let first = if named {
                    rec.parent_fid
                } else {
                    rec.target_fid
                };
                let renamed = rec.rename.filter(|_| rec.kind.is_rename());
                for (fid, dir) in
                    std::iter::once((first, named)).chain(renamed.map(|r| (r.new_fid, false)))
                {
                    // Without a cache every event pays its own call.
                    let hit = |c: &ShardedLruCache<Fid, String>| {
                        c.contains(&fid) && (!dir || self.trusts_dir(fid))
                    };
                    if self
                        .cache
                        .as_ref()
                        .is_none_or(|c| seen.insert(fid) && !hit(c))
                    {
                        need.push(fid);
                    }
                }
                if maps_target(rec) {
                    seen.insert(rec.target_fid);
                }
            }
        }
        // A single miss gains nothing from the hand-off: the serial
        // pass looks it up inline.
        if need.len() < 2 {
            need.clear();
        }
        self.t_prefetch_fids.record(need.len() as u64);
        if !need.is_empty() {
            self.pool
                .get_or_insert_with(|| ResolverPool::spawn(&self.lookup, self.threads))
                .lookup_all(&need, &mut self.prefetched);
        }
    }

    /// Resolve a FID (Algorithm 1 lines 13–17): the cache, then this
    /// batch's prefetched lookups, then `fid2path` inline. A lookup
    /// that succeeds is cached.
    fn resolve_fid(&mut self, fid: Fid) -> Resolved {
        if let Some(path) = self.cached(fid) {
            return Ok(path);
        }
        let resolved = self
            .prefetched
            .get_mut(&fid)
            .and_then(Vec::pop)
            .unwrap_or_else(|| self.lookup.fid2path(fid));
        if let Ok(path) = &resolved {
            self.remember(fid, path);
        }
        resolved
    }

    fn cached(&self, fid: Fid) -> Option<String> {
        self.cache.as_ref()?.get(&fid)
    }

    fn remember(&self, fid: Fid, path: &str) {
        if let Some(cache) = &self.cache {
            cache.insert(fid, path.to_string());
        }
    }

    /// Open the way for records stamped up to `newest_ns`. A directory
    /// path checked at time T reflects every rename before T, so it
    /// serves records stamped up to T and no later ones: the first
    /// newer record ends the epoch and every directory is checked
    /// again on its next use. A drained backlog is one epoch; a live
    /// collector pays one lookup per parent directory per batch.
    fn admit(&mut self, newest_ns: u64) {
        if self.recheck_dirs && newest_ns > self.checked_at {
            self.checked.clear();
            // Read before the epoch's first lookup, after its records.
            self.checked_at = self.lookup.mdt.fs().clock().now_ns();
        }
    }

    fn trusts_dir(&self, fid: Fid) -> bool {
        !self.recheck_dirs || fid == Fid::ROOT || self.checked.contains(&fid)
    }

    /// Resolve the parent directory a record names. A cached path this
    /// epoch has not checked yet is looked up again; if the directory
    /// turns out to have moved, so have its cached descendants.
    fn resolve_dir(&mut self, fid: Fid) -> Resolved {
        if self.trusts_dir(fid) {
            return self.resolve_fid(fid);
        }
        let was = self.cache.as_ref().and_then(|cache| cache.remove(&fid));
        let mut resolved = self.resolve_fid(fid);
        match (&resolved, was) {
            (Ok(now), Some(was)) if *now != was => self.rebase(&was, now),
            // The directory is gone: nothing can rename it any more,
            // and the mapping cached while it lived is its path.
            (Err(()), Some(was)) => {
                self.remember(fid, &was);
                resolved = Ok(was);
            }
            _ => {}
        }
        self.mark_checked(fid);
        resolved
    }

    fn mark_checked(&mut self, dir: Fid) {
        if self.recheck_dirs {
            // More marks than cache entries: most are evicted by now.
            if self.checked.len() >= self.cache.as_ref().map_or(0, |c| c.capacity()) {
                self.checked.clear();
            }
            self.checked.insert(dir);
        }
    }

    /// A directory moved from `old` to `new`: every cached path below
    /// `old` is stale. A live FID's entry is dropped — its next lookup
    /// tells the truth — but for a dead FID the cached mapping is the
    /// only source of its path, so it moves to the new prefix. One
    /// pass over the cache on a rare event, instead of a prefix index.
    fn rebase(&self, old: &str, new: &str) {
        let Some(cache) = &self.cache else { return };
        let fs = self.lookup.mdt.fs();
        let below = format!("{old}/");
        let mut moved = 0;
        let dropped = cache.retain(|fid, path| {
            if path.starts_with(&below) {
                if fs.attrs_of_fid(*fid).is_some() {
                    return false;
                }
                path.replace_range(..old.len(), new);
                moved += 1;
            }
            true
        });
        if dropped + moved > 0 {
            self.t_cache_flushes.inc();
        }
    }

    /// The path a record names, directory-first: `path(parent) ⊕ name`
    /// when the record carries its parent — the lookup a miss pays for
    /// is then a directory's, which its other entries reuse — and the
    /// target's own mapping otherwise (MTIME and friends) or when the
    /// parent is gone. `Err`: neither resolves.
    fn path_of(&mut self, rec: &ChangelogRecord) -> Resolved {
        if !rec.parent_fid.is_null() {
            if let Ok(dir) = self.resolve_dir(rec.parent_fid) {
                self.t_parent_joins.inc();
                let path = join(&dir, &rec.target_name);
                if maps_target(rec) {
                    self.remember(rec.target_fid, &path);
                    if rec.kind == ChangelogKind::Mkdir {
                        // Built from a checked path: as good as one.
                        self.mark_checked(rec.target_fid);
                    }
                }
                return Ok(path);
            }
            // UNLNK/RMDIR/RENME: `fid2path` on the target fails by
            // construction, so only a mapping cached earlier can help.
            if rec.kind.deletes_target() || rec.kind.is_rename() {
                return self.cached(rec.target_fid).ok_or(());
            }
        }
        self.resolve_fid(rec.target_fid)
    }

    fn event(&self, rec: &ChangelogRecord, kind: EventKind, path: String) -> StandardEvent {
        let mut ev = StandardEvent::new(kind, self.watch_root.clone(), path)
            .with_source(MonitorSource::LustreChangelog)
            .with_timestamp(rec.time_ns)
            .with_mdt(rec.mdt_index);
        ev.is_dir = rec.kind.to_standard().1;
        ev
    }

    /// Attach size/owner metadata from an MDS-local stat of the FID —
    /// one hash probe on the MDS the collector already runs on, the way
    /// Robinhood enriches changelog records before indexing. Removal
    /// events and already-deleted FIDs stay unenriched (`None`).
    fn enrich(&self, ev: &mut StandardEvent, fid: Fid) {
        if let Some(attrs) = self.lookup.mdt.fs().attrs_of_fid(fid) {
            if !attrs.is_dir {
                ev.size = Some(attrs.size);
            }
            ev.owner = Some(attrs.uid);
        }
    }

    /// Algorithm 1's `processEvent`: one Changelog record → one or two
    /// standardized events, pushed onto `out`.
    pub(crate) fn process_record(&mut self, rec: &ChangelogRecord, out: &mut Vec<StandardEvent>) {
        let kind = rec.kind.to_standard().0;
        self.admit(rec.time_ns);

        if rec.kind.is_rename() {
            // RENME (Algorithm 1 lines 27–38). The record's parent and
            // name are the old path's; the old FID is already re-keyed.
            let (new_fid, old_fid) = match rec.rename {
                Some(pair) => (pair.new_fid, pair.old_fid),
                None => (rec.target_fid, rec.target_fid),
            };
            let resolved_old = self.path_of(rec);
            let old_path = resolved_old
                .clone()
                .unwrap_or_else(|()| format!("/{}", rec.target_name));
            if let Some(cache) = &self.cache {
                cache.remove(&old_fid);
            }
            // The new parent is not in the record. If the new FID is
            // gone as well (renamed again, deleted), assume the rename
            // stayed within the directory.
            let new_path = self.resolve_fid(new_fid).unwrap_or_else(|()| {
                let guess = match &rec.rename_target_name {
                    Some(name) => join(&parent_of(&old_path), name),
                    None => old_path.clone(),
                };
                self.remember(new_fid, &guess);
                guess
            });
            // A renamed directory leaves every cached descendant path
            // stale; a target that is already gone may have been one.
            // A guessed old path says nothing about what lies below it.
            let attrs = self.lookup.mdt.fs().attrs_of_fid(new_fid);
            if resolved_old.is_ok() && attrs.is_none_or(|a| a.is_dir) {
                self.rebase(&old_path, &new_path);
            }
            self.events += 2;
            let from = self.event(rec, EventKind::MovedFrom, old_path.clone());
            let mut to = self.event(rec, EventKind::MovedTo, new_path);
            to.old_path = Some(old_path);
            self.enrich(&mut to, new_fid);
            out.extend([from, to]);
            return;
        }

        if rec.kind.deletes_target() {
            // UNLNK/RMDIR (Algorithm 1 lines 20–26): parent + name is
            // the unlinked name's own path even when other hard links
            // survive. With the parent gone too, the event becomes
            // ParentDirectoryRemoved (line 41).
            let ev = match self.path_of(rec) {
                Ok(path) => self.event(rec, kind, path),
                Err(()) => {
                    self.parent_dir_removed += 1;
                    let orphan = format!("/{}", rec.target_name);
                    self.event(rec, EventKind::ParentDirectoryRemoved, orphan)
                }
            };
            if let Some(cache) = &self.cache {
                cache.remove(&rec.target_fid);
            }
            self.events += 1;
            out.push(ev);
            return;
        }

        let path = self.path_of(rec).unwrap_or_else(|()| {
            // Nothing resolves. Cache the guess so later parent-less
            // records on the same dead FID agree with this one.
            let guess = format!("/{}", rec.target_name);
            self.remember(rec.target_fid, &guess);
            guess
        });
        self.events += 1;
        let mut ev = self.event(rec, kind, path);
        self.enrich(&mut ev, rec.target_fid);
        out.push(ev);
    }
}

/// Whether `parent ⊕ name` is the mapping to cache for the record's
/// target: the record names its parent and leaves the target alive
/// under that name. HLINK does not qualify — a new alias must not
/// replace the name `fid2path` reports.
fn maps_target(rec: &ChangelogRecord) -> bool {
    !rec.parent_fid.is_null()
        && !rec.kind.deletes_target()
        && !rec.kind.is_rename()
        && rec.kind != ChangelogKind::Hlink
}

fn join(dir: &str, name: &str) -> String {
    if dir == "/" {
        format!("/{name}")
    } else {
        format!("{dir}/{name}")
    }
}

fn parent_of(path: &str) -> String {
    match path.rfind('/') {
        Some(0) | None => "/".to_string(),
        Some(i) => path[..i].to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmon_events::EventKind;
    use lustre_sim::{LustreConfig, LustreFs};

    fn collector(fs: &std::sync::Arc<LustreFs>, cache: usize) -> Collector {
        Collector::new(fs.mdt(0), "/mnt/lustre", cache, 1024, None)
    }

    #[test]
    fn create_resolves_path() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 100);
        fs.client().mkdir_all("/a/b").unwrap();
        fs.client().create("/a/b/f.txt").unwrap();
        let events = c.drain(10);
        let create = events.iter().find(|e| e.path == "/a/b/f.txt").unwrap();
        assert_eq!(create.kind, EventKind::Create);
        assert_eq!(create.watch_root, "/mnt/lustre");
        assert_eq!(create.source, MonitorSource::LustreChangelog);
        assert_eq!(create.mdt_index, Some(0));
    }

    #[test]
    fn mkdir_is_dir_create() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 100);
        fs.client().mkdir("/okdir").unwrap();
        let events = c.drain(10);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Create);
        assert!(events[0].is_dir);
    }

    #[test]
    fn events_carry_size_and_owner_metadata() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 100);
        let client = fs.client();
        client.create("/f").unwrap();
        client.write("/f", 0, 4096).unwrap();
        client.chown("/f", 1001).unwrap();
        let events = c.drain(10);
        // All events on a live file see its current size/owner (the
        // MDS-local stat happens at collection time, not event time).
        let sattr = events
            .iter()
            .find(|e| e.kind == EventKind::Attrib)
            .expect("chown emits SATTR");
        assert_eq!(sattr.size, Some(4096));
        assert_eq!(sattr.owner, Some(1001));
        // Deletes carry no metadata: the object is already gone.
        client.unlink("/f").unwrap();
        let events = c.drain(10);
        assert_eq!(events[0].kind, EventKind::Delete);
        assert_eq!(events[0].size, None);
        assert_eq!(events[0].owner, None);
    }

    #[test]
    fn unlink_resolves_via_cache_hit() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 100);
        fs.client().create("/f").unwrap();
        c.drain(10); // create cached /f
        let calls_before = c.stats().fid2path_calls;
        fs.client().unlink("/f").unwrap();
        let events = c.drain(10);
        assert_eq!(events[0].kind, EventKind::Delete);
        assert_eq!(events[0].path, "/f");
        assert_eq!(
            c.stats().fid2path_calls,
            calls_before,
            "delete path came from the cache"
        );
    }

    #[test]
    fn unlink_without_cache_costs_one_parent_lookup() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 0); // cache disabled
        fs.client().mkdir("/dir").unwrap();
        fs.client().create("/dir/f").unwrap();
        c.drain(10);
        let calls_before = c.stats().fid2path_calls;
        fs.client().unlink("/dir/f").unwrap();
        let events = c.drain(10);
        assert_eq!(events[0].kind, EventKind::Delete);
        assert_eq!(events[0].path, "/dir/f", "parent dir + record name");
        assert_eq!(
            c.stats().fid2path_calls,
            calls_before + 1,
            "no doomed lookup of the deleted target"
        );
    }

    #[test]
    fn unlink_of_a_hard_link_reports_that_name() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 100);
        let client = fs.client();
        client.mkdir("/d").unwrap();
        client.create("/d/f").unwrap();
        client.link("/d/f", "/h").unwrap();
        c.drain(10); // the FID is cached under its first name
        client.unlink("/h").unwrap();
        client.write("/d/f", 0, 8).unwrap();
        let events = c.drain(10);
        assert_eq!(events[0].kind, EventKind::Delete);
        assert_eq!(events[0].path, "/h", "not the surviving link's path");
        assert_eq!(events[1].kind, EventKind::Modify);
        assert_eq!(events[1].path, "/d/f");
    }

    #[test]
    fn directory_rename_flushes_stale_descendant_paths() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 100);
        let client = fs.client();
        client.mkdir_all("/a/sub").unwrap();
        client.mkdir("/other").unwrap();
        client.create("/a/x").unwrap();
        client.create("/a/sub/y").unwrap();
        client.create("/other/o").unwrap();
        c.drain(10); // /a, /a/sub, /other, x, y and o are all cached
        let flushes_before = c.resolver.t_cache_flushes.get();
        client.rename("/a", "/b").unwrap();
        client.write("/b/x", 0, 8).unwrap();
        client.create("/b/z").unwrap();
        client.write("/b/sub/y", 0, 8).unwrap();
        client.create("/b/sub/w").unwrap();
        let events = c.drain(10);
        let paths: Vec<&str> = events.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(
            paths,
            ["/a", "/b", "/b/x", "/b/z", "/b/sub/y", "/b/sub/w"],
            "every record under the renamed directory reports the new prefix"
        );
        // (The counter is per MDT label, shared with other tests.)
        assert!(c.resolver.t_cache_flushes.get() > flushes_before);
        // Only the subtree went: what lies outside it is still cached,
        // and a file rename drops one mapping and scans nothing away.
        let calls_before = c.stats().fid2path_calls;
        client.rename("/b/z", "/b/zz").unwrap();
        client.create("/b/sub/v").unwrap();
        client.write("/other/o", 0, 8).unwrap();
        client.create("/other/p").unwrap();
        let events = c.drain(10);
        let paths: Vec<&str> = events.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, ["/b/z", "/b/zz", "/b/sub/v", "/other/o", "/other/p"]);
        assert_eq!(
            c.stats().fid2path_calls,
            calls_before + 1,
            "only the renamed file's new FID is looked up"
        );
    }

    #[test]
    fn directory_rename_keeps_the_paths_of_dead_fids() {
        // A backlog: everything below happened before the first step,
        // so `f` and `g` are gone and the cache is the only source of
        // their paths. Renaming an unrelated directory must not lose
        // `/d/f`; renaming `/x` must carry `g` along to `/y/g`.
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 100);
        let client = fs.client();
        client.mkdir("/d").unwrap();
        client.mkdir("/x").unwrap();
        client.create("/d/f").unwrap();
        client.create("/x/g").unwrap();
        client.rename("/x", "/y").unwrap();
        client.write("/d/f", 0, 8).unwrap();
        client.unlink("/d/f").unwrap();
        client.write("/y/g", 0, 8).unwrap();
        client.unlink("/y/g").unwrap();
        let events = c.drain(10);
        let got: Vec<(EventKind, &str)> =
            events.iter().map(|e| (e.kind, e.path.as_str())).collect();
        assert_eq!(
            got[4..],
            [
                (EventKind::MovedFrom, "/x"),
                (EventKind::MovedTo, "/y"),
                (EventKind::Modify, "/d/f"),
                (EventKind::Delete, "/d/f"),
                (EventKind::Modify, "/y/g"),
                (EventKind::Delete, "/y/g"),
            ]
        );
    }

    #[test]
    fn file_renames_in_a_backlog_flush_nothing() {
        // tmp -> final, then final unlinked, all before collection: the
        // rename's target is gone, so it *may* have been a directory.
        // That must not cost the cached `/d` its entry.
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 100);
        let client = fs.client();
        client.mkdir("/d").unwrap();
        c.drain(10);
        let before = c.stats().fid2path_calls;
        for i in 0..5 {
            client.create(&format!("/d/tmp{i}")).unwrap();
            client
                .rename(&format!("/d/tmp{i}"), &format!("/d/final{i}"))
                .unwrap();
            client.unlink(&format!("/d/final{i}")).unwrap();
        }
        let events = c.drain(10);
        assert_eq!(events.len(), 20);
        assert_eq!(events[18].path, "/d/final4");
        assert_eq!(events[19].path, "/d/final4");
        assert_eq!(
            c.stats().fid2path_calls,
            before + 5,
            "the five vanished targets; `/d` stays cached throughout"
        );
    }

    #[test]
    fn directory_renamed_on_another_mdt_is_rechecked() {
        // DNE: the RENME of `/t0` is logged on the root's MDT, so the
        // collector of the MDT holding `/t0/s` never reads it. The
        // cached `s -> /t0/s` must not outlive the rename.
        let fs = LustreFs::new(LustreConfig::small_dne(2));
        let client = fs.client();
        client.mkdir("/t0").unwrap();
        let sub = (0..)
            .map(|i| format!("s{i}"))
            .find(|name| {
                client.mkdir(&format!("/t0/{name}")).unwrap();
                fs.mdt_of(&format!("/t0/{name}")).unwrap() == 1
            })
            .unwrap();
        let mut c = Collector::new(fs.mdt(1), "/mnt/lustre", 100, 1024, None);
        client.create(&format!("/t0/{sub}/f")).unwrap();
        let events = c.drain(10);
        assert_eq!(events.last().unwrap().path, format!("/t0/{sub}/f"));
        // Same epoch, same directory: the cached path serves.
        let calls = c.stats().fid2path_calls;
        client.rename("/t0", "/renamed").unwrap();
        client.create(&format!("/renamed/{sub}/w")).unwrap();
        client.write(&format!("/renamed/{sub}/f"), 0, 8).unwrap();
        client.unlink(&format!("/renamed/{sub}/w")).unwrap();
        let paths: Vec<String> = c.drain(10).into_iter().map(|e| e.path).collect();
        assert_eq!(
            paths,
            [
                format!("/renamed/{sub}/w"),
                format!("/renamed/{sub}/f"),
                format!("/renamed/{sub}/w"),
            ],
            "new entries, and the cached file below, follow the rename"
        );
        assert_eq!(
            c.stats().fid2path_calls,
            calls + 2,
            "one re-check of the directory, one lookup of the dropped `f`"
        );
    }

    #[test]
    fn parent_directory_removed_terminal_case() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 0);
        fs.client().mkdir("/dir").unwrap();
        fs.client().create("/dir/f").unwrap();
        c.drain(10);
        // Delete file then its parent; when the collector processes the
        // file's UNLNK, both the target and the parent FID are gone.
        fs.client().unlink("/dir/f").unwrap();
        fs.client().rmdir("/dir").unwrap();
        let events = c.drain(10);
        assert_eq!(events[0].kind, EventKind::ParentDirectoryRemoved);
        assert_eq!(c.stats().parent_dir_removed, 1);
        // The RMDIR itself resolves via the root parent.
        assert_eq!(events[1].kind, EventKind::Delete);
        assert!(events[1].is_dir);
        assert_eq!(events[1].path, "/dir");
    }

    #[test]
    fn rename_produces_moved_pair_with_old_path() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 100);
        fs.client().create("/hello.txt").unwrap();
        c.drain(10);
        fs.client().rename("/hello.txt", "/hi.txt").unwrap();
        let events = c.drain(10);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::MovedFrom);
        assert_eq!(events[0].path, "/hello.txt");
        assert_eq!(events[1].kind, EventKind::MovedTo);
        assert_eq!(events[1].path, "/hi.txt");
        assert_eq!(events[1].old_path.as_deref(), Some("/hello.txt"));
    }

    #[test]
    fn rename_without_cache_uses_parent_and_names() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 0);
        fs.client().create("/hello.txt").unwrap();
        c.drain(10);
        fs.client().rename("/hello.txt", "/hi.txt").unwrap();
        let events = c.drain(10);
        assert_eq!(events[0].path, "/hello.txt");
        assert_eq!(events[1].path, "/hi.txt");
    }

    #[test]
    fn cache_hit_rates_improve_with_cache() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut with_cache = collector(&fs, 1000);
        let client = fs.client();
        let mut events = Vec::new();
        // Collector keeps up with the workload (the deployed shape):
        // each iteration's records are processed while the file's FID
        // mappings are fresh.
        for i in 0..100 {
            let f = format!("/f{i}");
            client.create(&f).unwrap();
            events.extend(with_cache.drain(10)); // CREAT resolved while live
            client.write(&f, 0, 10).unwrap();
            client.unlink(&f).unwrap();
            events.extend(with_cache.drain(10)); // MTIME + UNLNK hit the cache
        }
        assert_eq!(events.len(), 300);
        let s = with_cache.stats();
        // Directory-first: the one lookup is the root's, on the first
        // CREAT. Every later CREAT and UNLNK joins the cached parent
        // and every MTIME hits the mapping its CREAT left behind.
        assert_eq!(s.fid2path_calls, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 299);
    }

    #[test]
    fn no_cache_calls_fid2path_every_event() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 0);
        let client = fs.client();
        for i in 0..50 {
            client.create(&format!("/f{i}")).unwrap();
        }
        c.drain(100);
        assert_eq!(c.stats().fid2path_calls, 50);
        assert_eq!(c.stats().cache_hits, 0);
    }

    #[test]
    fn step_purges_changelog_behind_itself() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 100);
        let client = fs.client();
        for i in 0..10 {
            client.create(&format!("/f{i}")).unwrap();
        }
        assert_eq!(c.backlog(), 10);
        c.step();
        assert_eq!(c.backlog(), 0);
        assert_eq!(fs.mdt(0).changelog_stats().retained, 0);
    }

    #[test]
    fn batch_size_bounds_each_step() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = Collector::new(fs.mdt(0), "/mnt/lustre", 100, 4, None);
        let client = fs.client();
        for i in 0..10 {
            client.create(&format!("/f{i}")).unwrap();
        }
        assert_eq!(c.step().len(), 4);
        assert_eq!(c.step().len(), 4);
        assert_eq!(c.step().len(), 2);
        assert!(c.step().is_empty());
    }

    #[test]
    fn parallel_resolution_preserves_changelog_order() {
        // With 4 lookups in flight a large batch still comes out in
        // changelog-index order: only lookups leave the step thread.
        let fs = LustreFs::new(LustreConfig::small());
        let client = fs.client();
        let mut serial = collector(&fs, 1000);
        let mut parallel =
            Collector::new(fs.mdt(0), "/mnt/lustre", 1000, 1024, None).with_resolver_threads(4);
        for i in 0..500 {
            client.create(&format!("/f{i:03}")).unwrap();
        }
        // Interleave a few renames so some records yield two events.
        client.rename("/f000", "/g000").unwrap();
        client.rename("/f001", "/g001").unwrap();
        let par_events = parallel.drain(10);
        let ser_events = serial.drain(10);
        assert_eq!(par_events.len(), 504);
        let par_paths: Vec<&str> = par_events.iter().map(|e| e.path.as_str()).collect();
        let ser_paths: Vec<&str> = ser_events.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(
            par_paths, ser_paths,
            "parallel resolution must emit the same ordered stream as serial"
        );
        for (i, ev) in par_events[..500].iter().enumerate() {
            assert_eq!(ev.path, format!("/f{i:03}"), "creation order preserved");
        }
        assert_eq!(parallel.stats().records, 502);
    }

    #[test]
    fn parallel_resolution_counts_match_serial() {
        // Stats contract under the pool: with a cache, a FID is looked
        // up once per batch however many records need it, so the
        // accounting equals serial resolution's.
        let fs = LustreFs::new(LustreConfig::small());
        let client = fs.client();
        let mut serial = collector(&fs, 1000);
        let mut parallel =
            Collector::new(fs.mdt(0), "/mnt/lustre", 1000, 1024, None).with_resolver_threads(4);
        for d in 0..4 {
            client.mkdir(&format!("/d{d}")).unwrap();
            for i in 0..25 {
                client.create(&format!("/d{d}/f{i}")).unwrap();
            }
        }
        for d in 0..4 {
            for i in 0..25 {
                client.write(&format!("/d{d}/f{i}"), 0, 8).unwrap();
            }
        }
        assert_eq!(parallel.drain(10), serial.drain(10));
        let (p, s) = (parallel.stats(), serial.stats());
        assert_eq!(p.fid2path_calls, 1, "the root; /d0../d3 come from MKDIR");
        assert_eq!(p.fid2path_calls, s.fid2path_calls);
        assert_eq!(p.cache_hits, s.cache_hits);
        assert_eq!(p.cache_misses, s.cache_misses);
    }

    #[test]
    fn prefetch_overlaps_distinct_misses_and_keeps_the_serial_stream() {
        // A cold cache and a batch of MTIMEs on 40 distinct files in 4
        // directories: the CREATs were consumed by an earlier
        // incarnation, so every MTIME misses. All 40 lookups go to the
        // pool, and the stream equals inline resolution's.
        let fs = LustreFs::new(LustreConfig::small());
        let client = fs.client();
        for d in 0..4 {
            client.mkdir(&format!("/d{d}")).unwrap();
            for i in 0..10 {
                client.create(&format!("/d{d}/f{i}")).unwrap();
            }
        }
        let cursor = fs.mdt(0).read_changelog(0, 1024).last().unwrap().index;
        for d in 0..4 {
            for i in 0..10 {
                client.write(&format!("/d{d}/f{i}"), 0, 8).unwrap();
            }
        }
        let mut serial = Collector::resume(fs.mdt(0), "/mnt/lustre", 1000, 1024, None, cursor);
        let mut parallel = Collector::resume(fs.mdt(0), "/mnt/lustre", 1000, 1024, None, cursor)
            .with_resolver_threads(4);
        let prefetched_before = parallel.resolver.t_prefetch_fids.snapshot();
        let events = parallel.drain(10);
        assert_eq!(events.len(), 40);
        assert_eq!(events, serial.drain(10));
        assert_eq!(parallel.stats().fid2path_calls, 40);
        assert_eq!(serial.stats().fid2path_calls, 40);
        let prefetched = parallel
            .resolver
            .t_prefetch_fids
            .snapshot()
            .delta_from(&prefetched_before);
        assert!(
            prefetched.count() >= 1 && prefetched.mean() > 1.0,
            "the pool was used"
        );
    }

    #[test]
    fn mtime_after_unlink_resolves_through_the_creat_of_its_batch() {
        // The resolver-pool race that made tier-1 flaky: CREAT f /
        // MTIME f / UNLNK f all applied before the collector's first
        // step. The old pool split the batch [MKDIR, CREAT | MTIME,
        // UNLNK] and ran the chunks concurrently, so the MTIME — which
        // names no parent — looked its already-deleted FID up before
        // the CREAT had cached it and came out as `/f`. The slow
        // successful lookup (MKDIR's) against the instant failing one
        // (MTIME's) made that interleaving certain.
        let mut cfg = LustreConfig::small();
        cfg.fid2path_cost = CostModel::WaitNs(20_000_000);
        cfg.fid2path_miss_cost = CostModel::Free;
        let fs = LustreFs::new(cfg);
        let client = fs.client();
        client.mkdir("/d").unwrap();
        client.create("/d/f").unwrap();
        client.write("/d/f", 0, 8).unwrap();
        client.unlink("/d/f").unwrap();
        let mut c =
            Collector::new(fs.mdt(0), "/mnt/lustre", 100, 1024, None).with_resolver_threads(2);
        let events = c.step();
        let got: Vec<(EventKind, &str)> =
            events.iter().map(|e| (e.kind, e.path.as_str())).collect();
        assert_eq!(
            got,
            [
                (EventKind::Create, "/d"),
                (EventKind::Create, "/d/f"),
                (EventKind::Modify, "/d/f"),
                (EventKind::Delete, "/d/f"),
            ]
        );
    }

    #[test]
    fn collector_holds_instead_of_publishing_into_the_void() {
        use fsmon_mq::Context;
        let fs = LustreFs::new(LustreConfig::small());
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://hold-test").unwrap();
        let mut c = Collector::new(fs.mdt(0), "/mnt/lustre", 100, 1024, Some(publisher));
        fs.client().create("/f").unwrap();
        // No subscriber yet: the collector must hold, not consume.
        assert!(c.step().is_empty());
        assert_eq!(c.backlog(), 1, "record retained while aggregator is away");
        assert_eq!(c.stats().held_steps, 1);
        // Aggregator (subscriber) arrives: the batch flows.
        let sub = ctx.subscriber();
        sub.connect("inproc://hold-test").unwrap();
        sub.subscribe(b"mdt");
        let events = c.step();
        assert_eq!(events.len(), 1);
        assert_eq!(c.backlog(), 0);
        assert_eq!(c.stats().held_steps, 1, "a productive step is not held");
        assert!(sub.recv_timeout(std::time::Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn collector_crash_and_resume_loses_nothing() {
        let fs = LustreFs::new(LustreConfig::small());
        let client = fs.client();
        let mut first = collector(&fs, 100);
        for i in 0..10 {
            client.create(&format!("/f{i}")).unwrap();
        }
        let batch = first.step();
        assert_eq!(batch.len(), 10);
        let cursor = first.cleared_index();
        // "Crash": drop without shutdown — the dead user's watermark
        // still pins nothing it already cleared.
        drop(first);
        for i in 10..20 {
            client.create(&format!("/f{i}")).unwrap();
        }
        let mut second = Collector::resume(fs.mdt(0), "/mnt/lustre", 100, 1024, None, cursor);
        let events = second.drain(10);
        let paths: Vec<&str> = events.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(
            events.len(),
            10,
            "exactly the post-crash records: {paths:?}"
        );
        assert_eq!(events[0].path, "/f10");
        assert_eq!(events[9].path, "/f19");
    }

    #[test]
    fn shutdown_deregisters_and_unpins() {
        let fs = LustreFs::new(LustreConfig::small());
        let client = fs.client();
        let c = collector(&fs, 100);
        // A second user holds the log too.
        let keeper = fs.mdt(0).register_user();
        client.create("/x").unwrap();
        c.shutdown();
        // Only `keeper` pins now; clearing as keeper frees the record.
        fs.mdt(0).clear_changelog(keeper, 1);
        assert_eq!(fs.mdt(0).changelog_stats().retained, 0);
    }

    #[test]
    fn mtime_records_resolve_without_parent() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 100);
        let client = fs.client();
        client.create("/f").unwrap();
        client.write("/f", 0, 100).unwrap();
        let events = c.drain(10);
        let modify = events.iter().find(|e| e.kind == EventKind::Modify).unwrap();
        assert_eq!(modify.path, "/f");
    }

    #[test]
    fn all_fourteen_record_types_standardize() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut c = collector(&fs, 1000);
        let client = fs.client();
        client.create("/f").unwrap();
        client.mkdir("/d").unwrap();
        client.link("/f", "/hard").unwrap();
        client.symlink("/f", "/soft").unwrap();
        client.mknod("/dev0").unwrap();
        client.write("/f", 0, 10).unwrap();
        client.truncate("/f", 5).unwrap();
        client.chmod("/f", 0o600).unwrap();
        client.setxattr("/f", "user.k", b"v").unwrap();
        client.ioctl("/f").unwrap();
        client.rename("/f", "/g").unwrap();
        client.unlink("/g").unwrap();
        client.rmdir("/d").unwrap();
        let events = c.drain(100);
        let kinds: std::collections::HashSet<EventKind> = events.iter().map(|e| e.kind).collect();
        for expected in [
            EventKind::Create,
            EventKind::HardLink,
            EventKind::SymLink,
            EventKind::DeviceNode,
            EventKind::Modify,
            EventKind::Truncate,
            EventKind::Attrib,
            EventKind::Xattr,
            EventKind::Ioctl,
            EventKind::MovedFrom,
            EventKind::MovedTo,
            EventKind::Delete,
        ] {
            assert!(
                kinds.contains(&expected),
                "missing {expected:?} in {kinds:?}"
            );
        }
        let _ = fsmon_events::changelog::ChangelogKind::ALL; // all types exercised
    }
}
