//! The sequencer's server-side fan-out engine (filter pushdown).
//!
//! Consumers register compiled predicates at subscribe time
//! ([`fsmon_rules::FilterSpec`]); the publisher tracks the distinct
//! canonical specs as *filter classes*. This engine folds all active
//! classes into one shared [`SubscriptionIndex`] and, for every
//! sequenced batch, matches each event **once** against the index,
//! then slices one pre-encoded frame per class out of the stamped
//! batch buffer — zero re-encode, and for a class that matched the
//! whole batch, a zero-copy reuse of the full frame. Fan-out cost is
//! O(events × classes); delivery to the class's N subscribers is a
//! single broadcast-ring write plus refcounted clones, so it does not
//! grow with N.
//!
//! Each class frame is a 3-part message:
//! `[b"evsub", meta, payload]` where `meta` is
//! `u64 class_seq | u64 batch_first_id | u64 batch_last_id`
//! (big-endian) and `payload` is a standard event-batch encoding of
//! the class's subset. `class_seq` is dense per class — a gap tells
//! the consumer frames were dropped for it (stalled queue, ring
//! overrun). `batch_first_id`/`batch_last_id` are the *full* batch's
//! id range — `first_id` jumping past the consumer's watermark tells
//! it events were sequenced that it never saw offered (aggregator
//! crash between store and publish). Either way the consumer heals
//! from the reliable store instead of being disconnected.

use bytes::{BufMut, Bytes, BytesMut};
use fsmon_events::wire::{record_spans, walk_event_batch};
use fsmon_events::EventFields;
use fsmon_mq::pubsub::FilterClass;
use fsmon_mq::{Message, PubSocket};
use fsmon_rules::{CompiledFilter, FilterSpec, SubscriptionIndex};
use std::sync::Arc;

/// Topic of per-class subset frames.
pub const CLASS_TOPIC: &[u8] = b"evsub";

/// Decoded class-frame metadata (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassMeta {
    /// Dense per-class frame sequence.
    pub class_seq: u64,
    /// First global id of the batch this frame was sliced from.
    pub first_id: u64,
    /// Last global id of the batch this frame was sliced from.
    pub last_id: u64,
}

impl ClassMeta {
    /// Encode as the frame's meta part.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(24);
        buf.put_u64(self.class_seq);
        buf.put_u64(self.first_id);
        buf.put_u64(self.last_id);
        buf.split_frozen()
    }

    /// Decode a meta part.
    pub fn decode(raw: &[u8]) -> Option<ClassMeta> {
        if raw.len() != 24 {
            return None;
        }
        let u = |i: usize| u64::from_be_bytes(raw[i..i + 8].try_into().unwrap());
        Some(ClassMeta {
            class_seq: u(0),
            first_id: u(8),
            last_id: u(16),
        })
    }
}

struct ClassLane {
    handle: Arc<FilterClass>,
    /// Byte ranges of this batch's matched events within the stamped
    /// frame, plus their count — reset per batch.
    ranges: Vec<(usize, usize)>,
}

/// Per-sequencer fan-out state: the compiled index, cached against the
/// publisher's filter generation, and per-class scratch.
///
/// Public so the benchmark's serial walk can drive the exact
/// production match + slice + publish loop; the pipeline only
/// constructs it inside the sequencer.
pub struct FanoutEngine {
    publisher: Arc<PubSocket>,
    generation: u64,
    index: SubscriptionIndex,
    lanes: Vec<ClassLane>,
    match_scratch: Vec<u32>,
    t_matched: Arc<fsmon_telemetry::Counter>,
    t_frames: Arc<fsmon_telemetry::Counter>,
    t_rebuilds: Arc<fsmon_telemetry::Counter>,
    t_classes: Arc<fsmon_telemetry::Gauge>,
}

impl FanoutEngine {
    /// Engine over `publisher`'s registered filter classes.
    pub fn new(publisher: Arc<PubSocket>) -> FanoutEngine {
        let scope = fsmon_telemetry::root().scope("aggregator");
        FanoutEngine {
            publisher,
            // Force the first refresh even on a freshly created
            // publisher (whose generation starts at 0).
            generation: u64::MAX,
            index: SubscriptionIndex::build(Vec::new()),
            lanes: Vec::new(),
            match_scratch: Vec::new(),
            t_matched: scope.counter("fanout_matched_total"),
            t_frames: scope.counter("fanout_frames_total"),
            t_rebuilds: scope.counter("fanout_index_rebuilds_total"),
            t_classes: scope.gauge("fanout_classes"),
        }
    }

    /// Rebuild the subscription index iff the registered-filter set
    /// changed since the last batch.
    fn refresh(&mut self) {
        let generation = self.publisher.filter_generation();
        if generation == self.generation {
            return;
        }
        self.generation = generation;
        let mut filters: Vec<CompiledFilter> = Vec::new();
        let mut lanes: Vec<ClassLane> = Vec::new();
        for key in self.publisher.active_filter_specs() {
            // An unparseable key never matches anything; it stays a
            // registered class so its consumers simply see no frames.
            let Ok(spec) = FilterSpec::parse(&key) else {
                continue;
            };
            let handle = self.publisher.filter_class(&key);
            // The spec's QoS budget lives on the class: enforced once
            // at the broadcast ring, shared by every subscriber of the
            // class (`rate=` is part of the canonical key, so limited
            // and unlimited variants never collide).
            handle.set_rate(spec.rate.unwrap_or(0));
            filters.push(spec.compile());
            lanes.push(ClassLane {
                handle,
                ranges: Vec::new(),
            });
        }
        self.index = SubscriptionIndex::build(filters);
        self.lanes = lanes;
        self.t_rebuilds.inc();
        self.t_classes.set(self.lanes.len() as i64);
    }

    /// Match one stamped batch against every class and publish the
    /// per-class subset frames. `frame` is the full batch frame (u32
    /// count + encoded events) and `id_offsets` the id-field offsets
    /// recorded at encode time, which delimit the records
    /// ([`record_spans`]). `events` are the frame's events, owned or as
    /// views.
    pub fn fan_out<E: EventFields>(&mut self, events: &[E], id_offsets: &[usize], frame: &Bytes) {
        self.refresh();
        if self.lanes.is_empty() {
            return;
        }
        self.route(
            events.iter().zip(record_spans(id_offsets, frame.len())),
            frame,
        );
    }

    /// [`fan_out`](FanoutEngine::fan_out) straight from a stamped frame
    /// whose records were validated upstream: each record is matched as
    /// a borrowed view, and nothing is walked when no class is
    /// registered.
    pub(crate) fn fan_out_frame(&mut self, frame: &Bytes, id_offsets: &[usize]) {
        self.refresh();
        if self.lanes.is_empty() || id_offsets.is_empty() {
            return;
        }
        let Ok(walk) = walk_event_batch(frame) else {
            return;
        };
        self.route(
            walk.map_while(Result::ok).map(|(span, view)| (view, span)),
            frame,
        );
    }

    /// Match each `(event, record span)` once against the refreshed,
    /// non-empty index and publish one subset frame per class.
    fn route<E: EventFields>(
        &mut self,
        events: impl Iterator<Item = (E, std::ops::Range<usize>)>,
        frame: &Bytes,
    ) {
        for lane in &mut self.lanes {
            lane.ranges.clear();
        }
        let bytes = frame.as_slice();
        let mut count = 0usize;
        let (mut first_id, mut last_id) = (0, 0);
        for (ev, span) in events {
            if count == 0 {
                first_id = ev.id();
            }
            last_id = ev.id();
            count += 1;
            self.index.matches_into(&ev, &mut self.match_scratch);
            if self.match_scratch.is_empty() {
                continue;
            }
            self.t_matched.add(self.match_scratch.len() as u64);
            for &class in &self.match_scratch {
                self.lanes[class as usize]
                    .ranges
                    .push((span.start, span.end));
            }
        }
        if count == 0 {
            return;
        }
        for lane in &mut self.lanes {
            // Every class gets a frame for every batch — an empty one
            // still advances the consumer's watermark, which is what
            // makes publish gaps (crash between store and publish)
            // detectable as `first_id > watermark + 1`.
            //
            // A rate-limited class charges its matched count against
            // the class token bucket first; events over budget are
            // dropped from the subset *before* the frame is built. The
            // frame's meta still spans the full batch id range, so this
            // is shed-by-policy: watermarks advance, no gap heal fires,
            // and the class's `shed` counter owns the accounting.
            let admitted = lane.handle.admit(lane.ranges.len());
            lane.ranges.truncate(admitted);
            let payload = if lane.ranges.len() == count {
                // The whole batch matched: reuse the full frame,
                // zero-copy.
                frame.clone()
            } else {
                let total: usize = lane.ranges.iter().map(|(s, e)| e - s).sum();
                let mut buf = BytesMut::with_capacity(4 + total);
                buf.put_u32(lane.ranges.len() as u32);
                for &(start, end) in &lane.ranges {
                    buf.extend_from_slice(&bytes[start..end]);
                }
                buf.split_frozen()
            };
            lane.handle.publish_with(|class_seq| {
                let meta = ClassMeta {
                    class_seq,
                    first_id,
                    last_id,
                }
                .encode();
                Message::from_parts(vec![Bytes::from_static(CLASS_TOPIC), meta, payload])
            });
            self.t_frames.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmon_events::wire::encode_event_batch_offsets;
    use fsmon_events::{wire::decode_event_batch, EventKind, StandardEvent};
    use fsmon_mq::{Context, RingPoll};

    type Stamped = (Vec<StandardEvent>, Vec<usize>, Bytes);

    /// Encode one batch the way the sequencer does: encode, then patch
    /// each event's id in place.
    fn stamp(events: Vec<StandardEvent>) -> Stamped {
        let mut buf = BytesMut::new();
        let mut offsets = Vec::new();
        encode_event_batch_offsets(&events, &mut buf, &mut offsets);
        for (ev, off) in events.iter().zip(&offsets) {
            fsmon_events::wire::patch_event_id(&mut buf, *off, ev.id);
        }
        (events, offsets, buf.split_frozen())
    }

    fn stamped_batch(paths: &[&str]) -> Stamped {
        let events = paths.iter().zip(1..).map(|(p, id)| {
            let mut ev = StandardEvent::new(EventKind::Create, "/r", *p);
            ev.id = id;
            ev
        });
        stamp(events.collect())
    }

    #[test]
    fn meta_roundtrip() {
        let meta = ClassMeta {
            class_seq: 7,
            first_id: 100,
            last_id: 163,
        };
        assert_eq!(ClassMeta::decode(meta.encode().as_slice()), Some(meta));
        assert_eq!(ClassMeta::decode(b"short"), None);
    }

    #[test]
    fn subset_frames_carry_exactly_the_matching_events() {
        let ctx = Context::new();
        let publisher = std::sync::Arc::new(ctx.publisher());
        publisher.bind("inproc://fanout-subset").unwrap();
        let spec = FilterSpec::subtree("/keep").canonical();
        let mut cursor = publisher.subscribe_class(&spec);
        let mut engine = FanoutEngine::new(publisher.clone());
        let (events, offsets, frame) = stamped_batch(&["/keep/a", "/drop/b", "/keep/c"]);
        engine.fan_out(&events, &offsets, &frame);
        let msg = match cursor.poll() {
            RingPoll::Frame(m) => m,
            other => panic!("{other:?}"),
        };
        assert_eq!(msg.topic(), CLASS_TOPIC);
        let meta = ClassMeta::decode(msg.part(1).unwrap()).unwrap();
        assert_eq!((meta.class_seq, meta.first_id, meta.last_id), (0, 1, 3));
        let subset = decode_event_batch(&msg.part_bytes(2).unwrap()).unwrap();
        assert_eq!(
            subset.iter().map(|e| e.path.as_str()).collect::<Vec<_>>(),
            ["/keep/a", "/keep/c"]
        );
        assert_eq!(subset.iter().map(|e| e.id).collect::<Vec<_>>(), [1, 3]);
    }

    #[test]
    fn full_match_reuses_the_batch_frame_and_empty_match_sends_meta_only() {
        let ctx = Context::new();
        let publisher = std::sync::Arc::new(ctx.publisher());
        publisher.bind("inproc://fanout-full").unwrap();
        let all = FilterSpec::all().canonical();
        let none = FilterSpec::subtree("/nope").canonical();
        let mut cursor_all = publisher.subscribe_class(&all);
        let mut cursor_none = publisher.subscribe_class(&none);
        let mut engine = FanoutEngine::new(publisher.clone());
        let (events, offsets, frame) = stamped_batch(&["/a", "/b"]);
        engine.fan_out(&events, &offsets, &frame);
        match cursor_all.poll() {
            RingPoll::Frame(m) => {
                let batch = decode_event_batch(&m.part_bytes(2).unwrap()).unwrap();
                assert_eq!(batch.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        match cursor_none.poll() {
            RingPoll::Frame(m) => {
                let batch = decode_event_batch(&m.part_bytes(2).unwrap()).unwrap();
                assert!(
                    batch.is_empty(),
                    "empty subset still ships a watermark frame"
                );
                let meta = ClassMeta::decode(m.part(1).unwrap()).unwrap();
                assert_eq!(meta.last_id, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rate_limited_class_sheds_over_budget_but_watermark_frames_flow() {
        let ctx = Context::new();
        let publisher = std::sync::Arc::new(ctx.publisher());
        publisher.bind("inproc://fanout-rate").unwrap();
        // Budget of 2 events/second; the bucket starts full, so of a
        // 5-event batch exactly 2 are delivered and 3 shed.
        let spec = FilterSpec::all().with_rate(2).canonical();
        let mut cursor = publisher.subscribe_class(&spec);
        let mut engine = FanoutEngine::new(publisher.clone());
        let (events, offsets, frame) = stamped_batch(&["/a", "/b", "/c", "/d", "/e"]);
        engine.fan_out(&events, &offsets, &frame);
        let msg = match cursor.poll() {
            RingPoll::Frame(m) => m,
            other => panic!("{other:?}"),
        };
        let meta = ClassMeta::decode(msg.part(1).unwrap()).unwrap();
        assert_eq!(
            (meta.first_id, meta.last_id),
            (1, 5),
            "meta spans the full batch so the watermark advances past shed events"
        );
        let subset = decode_event_batch(&msg.part_bytes(2).unwrap()).unwrap();
        assert_eq!(subset.iter().map(|e| e.id).collect::<Vec<_>>(), [1, 2]);
        let class = publisher.filter_class(&spec);
        assert_eq!(class.rate(), 2);
        let stats = class.stats();
        assert_eq!(stats.shed, 3, "over-budget events are counted as shed");
        // An immediately following batch finds an empty bucket: the
        // class still gets its watermark frame, with an empty subset.
        engine.fan_out(&events, &offsets, &frame);
        match cursor.poll() {
            RingPoll::Frame(m) => {
                let subset = decode_event_batch(&m.part_bytes(2).unwrap()).unwrap();
                assert!(subset.is_empty(), "budget exhausted: all shed");
                let meta = ClassMeta::decode(m.part(1).unwrap()).unwrap();
                assert_eq!(meta.last_id, 5);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(publisher.filter_class(&spec).stats().shed, 8);
    }

    /// Delivery cost does not grow with the subscriber population:
    /// 16 or 16 000 ring cursors over the same 8 classes, the engine
    /// writes each class ring once per batch. The classes are the set
    /// the benchmark's `drain_fanout` workload uses (path selectivity
    /// 100/10/1/0.1 %, each with and without a creates-only mask). A
    /// socket subscriber that never drains stalls and degrades to
    /// catch-up-from-store; it is never disconnected.
    #[test]
    fn ring_writes_per_class_do_not_depend_on_the_subscriber_count() {
        use fsmon_events::kind::KindMask;
        use fsmon_mq::SubSocket;

        const BATCH: usize = 64;
        const BATCHES: usize = 100;
        let creates = KindMask::from_kinds([EventKind::Create]);
        let mut classes = vec![
            FilterSpec::all().canonical(),
            FilterSpec::all().with_kinds(creates).canonical(),
        ];
        for dir in ["/tepid", "/warm", "/hot"] {
            classes.push(FilterSpec::subtree(dir).canonical());
            classes.push(FilterSpec::subtree(dir).with_kinds(creates).canonical());
        }

        // Top-level directories set the selectivities (/hot 0.1 %,
        // /warm 1 %, /tepid 10 %, /cold the rest); half creates, half
        // writes. Xorshift keeps the stream fixed.
        let mut state = 0x5eed_fa10_0b5e_55edu64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let stream: Vec<StandardEvent> = (1..=(BATCH * BATCHES) as u64)
            .map(|id| {
                let dir = match next(1_000) {
                    0 => "hot",
                    1..=10 => "warm",
                    11..=110 => "tepid",
                    _ => "cold",
                };
                let kind = [EventKind::Create, EventKind::CloseWrite][next(2) as usize];
                let path = format!("/{dir}/d{}/f{}.dat", next(64), next(256));
                let mut ev = StandardEvent::new(kind, "/", path);
                ev.id = id;
                ev
            })
            .collect();
        let batches: Vec<Stamped> = stream
            .chunks(BATCH)
            .map(|chunk| stamp(chunk.to_vec()))
            .collect();

        let frames_per_class = |cursors: usize| -> Vec<(String, u64)> {
            let ctx = Context::new();
            let publisher = Arc::new(ctx.publisher());
            let endpoint = format!("inproc://fanout-population-{cursors}");
            publisher.bind(&endpoint).unwrap();
            let stalled: Vec<SubSocket> = classes
                .iter()
                .map(|key| {
                    let sub = SubSocket::with_hwm(ctx.clone(), 64);
                    sub.subscribe_filter(key);
                    sub.connect(&endpoint).unwrap();
                    sub
                })
                .collect();
            let mut ring: Vec<_> = (0..cursors)
                .map(|i| publisher.subscribe_class(&classes[i % classes.len()]))
                .collect();
            let mut engine = FanoutEngine::new(publisher.clone());
            for (events, offsets, frame) in &batches {
                engine.fan_out(events, offsets, frame);
            }
            for cursor in ring.iter_mut().take(classes.len()) {
                let polled = match cursor.poll() {
                    RingPoll::Overrun { .. } => cursor.poll(),
                    other => other,
                };
                assert!(matches!(polled, RingPoll::Frame(_)), "{polled:?}");
            }
            let stats = publisher.class_stats();
            assert_eq!(stats.len(), classes.len());
            for class in &stats {
                assert!(class.stalls > 0, "{}: undrained socket stalls", class.key);
            }
            assert!(stalled.iter().all(|sub| !sub.disconnected()));
            stats.into_iter().map(|c| (c.key, c.frames)).collect()
        };

        let small = frames_per_class(16);
        assert!(small.iter().all(|(_, frames)| *frames == BATCHES as u64));
        assert_eq!(small, frames_per_class(16_000));
    }

    #[test]
    fn index_rebuilds_only_on_generation_change() {
        let ctx = Context::new();
        let publisher = std::sync::Arc::new(ctx.publisher());
        publisher.bind("inproc://fanout-gen").unwrap();
        let mut engine = FanoutEngine::new(publisher.clone());
        let (events, offsets, frame) = stamped_batch(&["/x"]);
        engine.fan_out(&events, &offsets, &frame);
        assert_eq!(engine.lanes.len(), 0);
        let gen_after_empty = engine.generation;
        let _cursor = publisher.subscribe_class(&FilterSpec::all().canonical());
        engine.fan_out(&events, &offsets, &frame);
        assert_eq!(engine.lanes.len(), 1);
        assert_ne!(engine.generation, gen_after_empty);
        let gen_stable = engine.generation;
        engine.fan_out(&events, &offsets, &frame);
        assert_eq!(engine.generation, gen_stable);
    }
}
