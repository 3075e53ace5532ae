//! The serial walk: the single-threaded baseline of the same job.
//!
//! The workload's own records go batch by batch, on one thread,
//! through each layer's public function with a span around each call:
//! `read_changelog` → `Collector::process_record` →
//! `encode_event_batch_offsets` → `patch_event_id` → mq send/recv →
//! `decode_event_batch` → `append_batch` → `FanoutEngine::fan_out` →
//! consumer-side decode → `IndexService::ingest` → `get_since`.
//! Self times of those spans are the per-layer `*_ns_per_*` figures;
//! their sum is `ledger.serial_ns_per_event`. A handful of probes that
//! have no place on the batch path (cache, merge, TCP hop, fsync,
//! trie build, queries, telemetry itself) follow under a `probes`
//! span. Simulator costs are `Free` here: the walk prices our code.

use crate::gen::{generate_backlog, Layout, Rng};
use crate::run::{filter_classes, Options};
use crate::span::SpanLog;
use crate::spec::Workload;
use crate::stats::{percentile_sorted, sorted};
use bytes::BytesMut;
use fsmon_core::{EventFilter, ShardMerger, ShardedLruCache};
use fsmon_events::wire::{encode_event_batch_offsets, patch_event_id};
use fsmon_events::{decode_event_batch, StandardEvent};
use fsmon_index::{FindQuery, IndexService, PolicyEngine};
use fsmon_lustre::{Collector, FanoutEngine};
use fsmon_mq::{Context, Message};
use fsmon_rules::SubscriptionIndex;
use fsmon_store::{Durability, EventStore, FileStore, FileStoreOptions};
use lustre_sim::{Fid, LustreConfig, LustreFs};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Changelog records per walk batch (the collectors' batch size).
const BATCH: usize = 1024;
/// Most batches walked per MDT.
const MAX_BATCHES: usize = 24;

/// What the walk and its probes measured.
#[derive(Debug, Default)]
pub struct Walked {
    /// Records read from the changelogs.
    pub records: u64,
    /// Events the collectors produced from them.
    pub events: u64,
    /// Batches walked.
    pub batches: u64,
    /// Encoded frame bytes, summed.
    pub wire_bytes: u64,
    /// Useful class matches ÷ (events × classes).
    pub matches_per_event: f64,
    /// `ShardedLruCache` hit, ns.
    pub lru_hit_ns: f64,
    /// `ShardedLruCache` miss followed by insert, ns.
    pub lru_miss_insert_ns: f64,
    /// `EventFilter::matches`, ns per event.
    pub filter_eval_ns: f64,
    /// `ShardMerger::merge`, ns per event.
    pub merge_ns: f64,
    /// `rec.kind.to_standard()`, ns per record.
    pub translate_ns: f64,
    /// 1024-event frame over loopback TCP pub/sub, send → recv, ns.
    pub tcp_hop_ns: f64,
    /// `append_batch` under `Durability::EveryBatch`, µs per batch.
    pub append_fsync_us: f64,
    /// `SubscriptionIndex::build` over the 8 classes, µs.
    pub index_build_us: f64,
    /// `SubscriptionIndex::matches_into`, ns per event.
    pub match_ns: f64,
    /// `IndexService::find` p50, µs.
    pub find_p50_us: f64,
    /// `IndexService::du` p50, µs.
    pub du_p50_us: f64,
    /// `IndexService::evaluate`, ms.
    pub policy_eval_ms: f64,
    /// Entries in the walk's index.
    pub index_entries: u64,
    /// Its resident bytes.
    pub index_resident_bytes: u64,
    /// `IndexService::save`, ms.
    pub snapshot_save_ms: f64,
    /// Snapshot file size.
    pub snapshot_bytes: u64,
    /// `Counter::inc`, ns.
    pub counter_inc_ns: f64,
    /// `global().snapshot()`, µs.
    pub snapshot_us: f64,
    /// The spans, for the trace file and the self-time table.
    pub log: SpanLog,
}

impl Walked {
    /// Self time of span `name`, ns (0 when it never ran).
    pub fn self_ns(&self, name: &str) -> f64 {
        self.log
            .self_times()
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64)
    }

    /// Σ self time of the batch-path layer spans ÷ events: what one
    /// event costs when every layer runs back to back on one thread.
    pub fn serial_ns_per_event(&self) -> f64 {
        let total: u64 = self
            .log
            .self_times()
            .iter()
            .filter(|(name, _)| BATCH_PATH.contains(name))
            .map(|(_, t)| t.self_ns)
            .sum();
        total as f64 / self.events.max(1) as f64
    }
}

/// Span names on the batch path, in pipeline order.
pub const BATCH_PATH: &[&str] = &[
    "lustre-sim.read_changelog",
    "lustre-dsi.collector_process",
    "events.wire_encode",
    "events.patch_id",
    "mq.inproc_hop",
    "events.wire_decode",
    "store.append",
    "lustre-dsi.fanout",
    "index.ingest",
    "store.get_since",
];

fn mean_ns(total: Duration, n: u64) -> f64 {
    total.as_nanos() as f64 / n.max(1) as f64
}

/// Walk `w`'s records through every layer and run the probes.
/// `scratch` holds the stores and the snapshot; the caller removes it.
pub fn walk(w: &Workload, opts: &Options, scratch: &Path) -> Walked {
    let mut out = Walked::default();
    let mut log = SpanLog::new();

    // The workload's own records, simulator costs Free.
    let fs = LustreFs::new(LustreConfig::small_dne(w.mdts));
    let layout = Layout::create(&fs, &fs.client());
    let per_mdt = (w.records_per_mdt / opts.shrink.max(1)).clamp(600, (MAX_BATCHES * BATCH) as u64);
    generate_backlog(
        &fs,
        &layout,
        w.script,
        (w.working_set as u64 / opts.shrink.max(1)).max(8) as usize,
        per_mdt,
        opts.seed,
    );

    let store: Arc<dyn EventStore> = Arc::new(
        FileStore::open_with_options(
            scratch.join("walk-store"),
            FileStoreOptions {
                durability: Durability::None,
                ..FileStoreOptions::default()
            },
        )
        .expect("open walk store"),
    );
    let ctx = Context::new();
    let hop_pub = ctx.publisher();
    hop_pub.bind("inproc://bench-walk-hop").expect("bind hop");
    let hop_sub = ctx.subscriber();
    hop_sub
        .connect("inproc://bench-walk-hop")
        .expect("connect hop");
    hop_sub.subscribe(b"");
    // The fan-out publisher carries the 8 classes, one ring cursor each.
    let fan_pub = Arc::new(ctx.publisher());
    fan_pub
        .bind("inproc://bench-walk-fanout")
        .expect("bind fanout");
    let classes = filter_classes();
    let _cursors: Vec<_> = classes
        .iter()
        .map(|c| fan_pub.subscribe_class(&c.canonical()))
        .collect();
    let mut engine = FanoutEngine::new(fan_pub.clone());
    let mut index = IndexService::open(
        scratch.join("walk-index.snap"),
        PolicyEngine::standard("/**", 3_600_000_000_000, 1.0),
    );
    let mut collectors: Vec<Collector> = (0..w.mdts)
        .map(|i| Collector::new(fs.mdt(i), "/mnt/lustre", w.cache, BATCH, None))
        .collect();
    let mut cursors = vec![0u64; w.mdts as usize];
    let mut buf = BytesMut::new();
    let mut offsets: Vec<usize> = Vec::new();
    let mut next_id = 1u64;
    let mut all_events: Vec<StandardEvent> = Vec::new();
    let mut all_records = Vec::new();

    'walk: for round in 0..MAX_BATCHES {
        let mut any = false;
        for mdt in 0..w.mdts as usize {
            let batch = (round * w.mdts as usize + mdt) as u32;
            let done = log.span("batch", batch, |log| {
                let records = log.span("lustre-sim.read_changelog", batch, |_| {
                    fs.mdt(mdt as u16).read_changelog(cursors[mdt], BATCH)
                });
                let Some(last) = records.last() else {
                    return true;
                };
                cursors[mdt] = last.index;
                let mut events: Vec<StandardEvent> =
                    log.span("lustre-dsi.collector_process", batch, |_| {
                        let mut events = Vec::with_capacity(records.len());
                        for rec in &records {
                            events.extend(collectors[mdt].process_record(rec));
                        }
                        events
                    });
                log.span("events.wire_encode", batch, |_| {
                    encode_event_batch_offsets(&events, &mut buf, &mut offsets);
                });
                log.span("events.patch_id", batch, |_| {
                    for (ev, off) in events.iter_mut().zip(&offsets) {
                        ev.id = next_id;
                        patch_event_id(&mut buf, *off, next_id);
                        next_id += 1;
                    }
                });
                let frame = buf.split_frozen();
                out.wire_bytes += frame.len() as u64;
                let received = log.span("mq.inproc_hop", batch, |_| {
                    hop_pub
                        .send(Message::from_parts(vec![
                            bytes::Bytes::from_static(b"events"),
                            frame.clone(),
                        ]))
                        .expect("send");
                    hop_sub.recv_timeout(Duration::from_secs(5)).expect("recv")
                });
                let payload = received.part_bytes(1).expect("payload part");
                let decoded = log.span("events.wire_decode", batch, |_| {
                    decode_event_batch(&payload).expect("decode")
                });
                log.span("store.append", batch, |_| {
                    store.append_batch(&decoded).expect("append_batch")
                });
                log.span("lustre-dsi.fanout", batch, |_| {
                    engine.fan_out(&decoded, &offsets, &frame);
                });
                // The consumer's side of the hop decodes the frame again.
                let delivered = log.span("events.wire_decode", batch, |_| {
                    decode_event_batch(&frame).expect("decode")
                });
                log.span("index.ingest", batch, |_| index.ingest(&delivered));
                let replayed = log.span("store.get_since", batch, |_| {
                    store
                        .get_since(delivered[0].id - 1, delivered.len())
                        .expect("get_since")
                });
                assert_eq!(replayed.len(), delivered.len(), "walk replay is complete");
                out.records += records.len() as u64;
                out.events += events.len() as u64;
                out.batches += 1;
                all_events.extend(delivered);
                all_records.extend(records);
                false
            });
            any |= !done;
        }
        if !any {
            break 'walk;
        }
    }

    log.span("probes", u32::MAX, |log| {
        probes(
            w,
            scratch,
            &all_events,
            &all_records,
            &mut index,
            &mut out,
            log,
        )
    });
    out.log = log;
    out
}

#[allow(clippy::too_many_arguments)]
fn probes(
    w: &Workload,
    scratch: &Path,
    events: &[StandardEvent],
    records: &[lustre_sim::ChangelogRecord],
    index: &mut IndexService,
    out: &mut Walked,
    log: &mut SpanLog,
) {
    let n = events.len().max(1) as u64;
    let p = u32::MAX;

    log.span("events.translate", p, |_| {
        let t0 = Instant::now();
        for rec in records {
            black_box(black_box(rec.kind).to_standard());
        }
        out.translate_ns = mean_ns(t0.elapsed(), records.len() as u64);
    });

    log.span("core.lru", p, |_| {
        let cache: ShardedLruCache<Fid, String> = ShardedLruCache::new(w.cache.max(8), 8);
        let keys = w.cache.max(8) as u32 / 2;
        for i in 0..keys {
            cache.insert(Fid::new(1, i, 0), format!("/cold/d0/f{i}"));
        }
        let rounds = 200_000u32;
        let t0 = Instant::now();
        for i in 0..rounds {
            black_box(cache.get(&Fid::new(1, i % keys, 0)));
        }
        out.lru_hit_ns = mean_ns(t0.elapsed(), rounds.into());
        let t0 = Instant::now();
        for i in 0..rounds {
            let fid = Fid::new(2, i, 0);
            if cache.get(&fid).is_none() {
                cache.insert(fid, String::from("/cold/d0/resolved"));
            }
        }
        out.lru_miss_insert_ns = mean_ns(t0.elapsed(), rounds.into());
    });

    log.span("core.filter_eval", p, |_| {
        let filter = EventFilter::subtree("/tepid");
        let t0 = Instant::now();
        let mut hits = 0usize;
        for ev in events {
            hits += usize::from(filter.matches(ev));
        }
        black_box(hits);
        out.filter_eval_ns = mean_ns(t0.elapsed(), n);
    });

    log.span("core.merge", p, |_| {
        // Two shard lanes per 1024-event window, as a K=2 federation
        // would hand them over.
        let mut merger = ShardMerger::new();
        let mut total = Duration::ZERO;
        for window in events.chunks(BATCH) {
            let mut lanes = vec![Vec::new(), Vec::new()];
            for (i, ev) in window.iter().enumerate() {
                lanes[i % 2].push(ev.clone());
            }
            let t0 = Instant::now();
            black_box(merger.merge(&mut lanes));
            total += t0.elapsed();
        }
        out.merge_ns = mean_ns(total, n);
    });

    log.span("rules.index", p, |_| {
        let compiled = || {
            filter_classes()
                .iter()
                .map(|c| c.compile())
                .collect::<Vec<_>>()
        };
        let builds = 20u64;
        let filters: Vec<_> = (0..builds).map(|_| compiled()).collect();
        let t0 = Instant::now();
        let mut built = None;
        for f in filters {
            built = Some(SubscriptionIndex::build(f));
        }
        out.index_build_us = mean_ns(t0.elapsed(), builds) / 1e3;
        let subscription = built.expect("built");
        let mut scratch_ids = Vec::new();
        let mut matched = 0u64;
        let t0 = Instant::now();
        for ev in events {
            subscription.matches_into(ev, &mut scratch_ids);
            matched += scratch_ids.len() as u64;
        }
        out.match_ns = mean_ns(t0.elapsed(), n);
        out.matches_per_event = matched as f64 / (n * subscription.len().max(1) as u64) as f64;
    });

    log.span("mq.tcp_hop", p, |_| {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("tcp://127.0.0.1:0").expect("bind tcp");
        let addr = publisher.local_addr().expect("tcp bound");
        let sub = ctx.subscriber();
        sub.connect(&format!("tcp://{addr}")).expect("connect tcp");
        sub.subscribe(b"");
        let deadline = Instant::now() + Duration::from_secs(2);
        while !publisher.has_subscriber_matching(b"events") && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let frame = fsmon_events::encode_event_batch(&events[..events.len().min(BATCH)]);
        let msg = Message::from_parts(vec![bytes::Bytes::from_static(b"events"), frame]);
        let hops = 200u64;
        let t0 = Instant::now();
        for _ in 0..hops {
            publisher.send(msg.clone()).expect("send tcp");
            black_box(sub.recv_timeout(Duration::from_secs(5)).expect("recv tcp"));
        }
        out.tcp_hop_ns = mean_ns(t0.elapsed(), hops);
    });

    log.span("store.append_fsync", p, |_| {
        let durable = FileStore::open_with_options(
            scratch.join("walk-durable"),
            FileStoreOptions {
                durability: Durability::EveryBatch,
                ..FileStoreOptions::default()
            },
        )
        .expect("open durable store");
        let batches: Vec<_> = events.chunks(BATCH).take(12).collect();
        let t0 = Instant::now();
        for batch in &batches {
            durable.append_batch(batch).expect("append_batch");
        }
        out.append_fsync_us = mean_ns(t0.elapsed(), batches.len() as u64) / 1e3;
    });

    log.span("index.queries", p, |_| {
        let now_ns = events.iter().map(|e| e.timestamp_ns).max().unwrap_or(0) + 1;
        let mut rng = Rng::new(0x1d8);
        let (mut find_us, mut du_us) = (Vec::new(), Vec::new());
        for _ in 0..60 {
            let class = crate::gen::CLASS_DIRS[rng.below(4) as usize];
            let query = FindQuery::default()
                .pattern(&format!("/{class}/**"))
                .min_size(rng.below(1 << 18));
            let t0 = Instant::now();
            black_box(index.find(&query, now_ns));
            find_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            black_box(index.du("/", usize::MAX));
            du_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        out.find_p50_us = percentile_sorted(&sorted(&find_us), 0.5);
        out.du_p50_us = percentile_sorted(&sorted(&du_us), 0.5);
        let t0 = Instant::now();
        for _ in 0..3 {
            black_box(index.evaluate(now_ns));
        }
        out.policy_eval_ms = mean_ns(t0.elapsed(), 3) / 1e6;
        out.index_entries = index.index().len() as u64;
        out.index_resident_bytes = index.index().resident_bytes();
        let t0 = Instant::now();
        index.save().expect("save snapshot");
        out.snapshot_save_ms = t0.elapsed().as_secs_f64() * 1e3;
        out.snapshot_bytes = index
            .snapshot_path()
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len());
    });

    log.span("telemetry.probes", p, |_| {
        let counter = fsmon_telemetry::root()
            .scope("benchmark")
            .counter("probe_total");
        let incs = 2_000_000u64;
        let t0 = Instant::now();
        for _ in 0..incs {
            counter.inc();
        }
        out.counter_inc_ns = mean_ns(t0.elapsed(), incs);
        let snaps = 10u64;
        let t0 = Instant::now();
        for _ in 0..snaps {
            black_box(fsmon_telemetry::global().snapshot());
        }
        out.snapshot_us = mean_ns(t0.elapsed(), snaps) / 1e3;
    });
}
