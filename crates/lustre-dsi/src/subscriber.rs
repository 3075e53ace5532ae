//! Filtered subscribers: the consumer side of server-side filter
//! pushdown.
//!
//! A filtered subscriber registers one [`FilterSpec`] and from then on
//! receives only its class's subset frames (see [`crate::fanout`]) —
//! the aggregator never sends it an event outside its predicate, and
//! matching cost is shared with every other subscriber of the same
//! class. Two flavours:
//!
//! * [`FilteredSubscriber`] — an in-process broadcast-ring cursor,
//!   attached directly to the aggregator's publisher. The cheapest
//!   possible consumer (no channel, no socket): thousands of them cost
//!   the publisher one ring write per class.
//! * [`FilteredConsumer`] — a [`SubSocket`]-based subscriber that works
//!   over both `inproc://` and `tcp://` endpoints; what `fsmon watch
//!   --filter` and the chaos harness use.
//!
//! Both heal through the same invariant: every class frame carries the
//! full batch's id range, and an empty subset still ships (watermark
//! frame), so `first_id > watermark + 1` on any received frame means
//! frames were lost — whether to a stalled per-class queue, a ring
//! overrun, or an aggregator crash between store and publish. The gap
//! ids are recorded and healed from the reliable store through the
//! subscriber's own compiled filter, and duplicates (restart
//! re-publications) are dropped by watermark, so each subscriber sees
//! its subset exactly once, in order, without ever being
//! force-disconnected.

use crate::fanout::{ClassMeta, CLASS_TOPIC};
use fsmon_events::wire::decode_event_batch;
use fsmon_events::StandardEvent;
use fsmon_faults::Retry;
use fsmon_mq::{ClassCursor, Context, Message, RingPoll, SubSocket};
use fsmon_rules::{CompiledFilter, FilterSpec};
use fsmon_store::EventStore;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters for one filtered subscriber.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FilteredStats {
    /// Events delivered (live + healed), post-filter.
    pub delivered: u64,
    /// Class frames received.
    pub frames: u64,
    /// Class frames lost (sequence gaps; stalled queue or overrun).
    pub frames_lost: u64,
    /// Id-range gaps detected via the watermark invariant.
    pub gaps_detected: u64,
    /// Events recovered from the store through the filter.
    pub healed: u64,
}

/// The shared heal/dedup core: integrates class frames against the
/// watermark invariant and recovers gap ids from the reliable store.
struct FilterLane {
    filter: CompiledFilter,
    store: Arc<dyn EventStore>,
    retry: Retry,
    /// Highest batch `last_id` integrated (delivered or gap-recorded).
    watermark: u64,
    /// Next expected per-class frame sequence.
    next_seq: Option<u64>,
    /// Ids known missing: published in a batch range this subscriber
    /// never saw, not yet produced by the store.
    missing: BTreeSet<u64>,
    stats: FilteredStats,
    t_delivered: Arc<fsmon_telemetry::Counter>,
    t_frames_lost: Arc<fsmon_telemetry::Counter>,
    t_gaps: Arc<fsmon_telemetry::Counter>,
    t_healed: Arc<fsmon_telemetry::Counter>,
}

impl FilterLane {
    fn new(spec: &FilterSpec, store: Arc<dyn EventStore>, name: &str) -> FilterLane {
        let scope = fsmon_telemetry::root()
            .scope("subscriber")
            .with_label("consumer", name);
        FilterLane {
            filter: spec.compile(),
            store,
            retry: Retry::fast(),
            watermark: 0,
            next_seq: None,
            missing: BTreeSet::new(),
            stats: FilteredStats::default(),
            t_delivered: scope.counter("filtered_delivered_total"),
            t_frames_lost: scope.counter("filtered_frames_lost_total"),
            t_gaps: scope.counter("filtered_gaps_detected_total"),
            t_healed: scope.counter("filtered_healed_total"),
        }
    }

    /// Integrate one class frame: detect losses, dedup re-publications,
    /// deliver the subset. `class_seq` is `None` when the transport
    /// already guarantees gap-free delivery of what it delivers at all
    /// (a ring cursor reports overruns explicitly instead).
    fn ingest_frame(
        &mut self,
        meta: ClassMeta,
        subset: Vec<StandardEvent>,
        out: &mut Vec<StandardEvent>,
    ) {
        self.stats.frames += 1;
        if let Some(expected) = self.next_seq {
            if meta.class_seq > expected {
                let lost = meta.class_seq - expected;
                self.stats.frames_lost += lost;
                self.t_frames_lost.add(lost);
            }
        }
        self.next_seq = Some(meta.class_seq + 1);
        if meta.first_id > self.watermark + 1 {
            // Batches in (watermark, first_id) were published without
            // this subscriber seeing even their watermark frames.
            self.stats.gaps_detected += 1;
            self.t_gaps.inc();
            self.missing.extend(self.watermark + 1..meta.first_id);
            self.heal_missing(out);
        }
        for ev in subset {
            if ev.id > self.watermark {
                self.deliver(ev, out);
            } else if self.missing.remove(&ev.id) {
                // A heal raced a late frame for the same ids.
                self.deliver(ev, out);
            }
            // Otherwise: a restart re-publication of an id already
            // integrated — exactly-once means dropping it.
        }
        self.watermark = self.watermark.max(meta.last_id);
    }

    fn deliver(&mut self, ev: StandardEvent, out: &mut Vec<StandardEvent>) {
        self.stats.delivered += 1;
        self.t_delivered.inc();
        out.push(ev);
    }

    /// Fetch known-missing ids from the reliable store, retrying
    /// briefly (the store lane may run behind the publish lane), and
    /// deliver the ones that pass this subscriber's filter. Ids the
    /// store cannot produce stay recorded for the next attempt.
    fn heal_missing(&mut self, out: &mut Vec<StandardEvent>) {
        let mut backoff = self.retry.backoff();
        while let (Some(&lo), Some(&hi)) = (self.missing.first(), self.missing.last()) {
            let want = self.missing.len();
            let span = (hi - lo + 1) as usize;
            let fetched = self.store.get_since(lo - 1, span).unwrap_or_default();
            for ev in fetched {
                if ev.id > hi {
                    break;
                }
                if self.missing.remove(&ev.id) {
                    self.stats.healed += 1;
                    self.t_healed.inc();
                    if self.filter.matches_event(&ev) {
                        self.deliver(ev, out);
                    }
                }
            }
            if self.missing.len() < want {
                backoff = self.retry.backoff();
                continue;
            }
            match backoff.next() {
                Some(sleep) => std::thread::sleep(sleep),
                None => break,
            }
        }
    }

    /// Recover everything this subscriber can still be missing: recorded
    /// gaps, then any store tail beyond the watermark (a lost tail has
    /// no later frame to reveal it as a gap).
    fn catch_up(&mut self, out: &mut Vec<StandardEvent>) {
        self.heal_missing(out);
        loop {
            let tail = match self.store.get_since(self.watermark, 4096) {
                Ok(tail) if tail.is_empty() => break,
                Ok(tail) => tail,
                Err(_) => break,
            };
            for ev in tail {
                if ev.id <= self.watermark {
                    continue;
                }
                self.watermark = ev.id;
                self.stats.healed += 1;
                self.t_healed.inc();
                if self.filter.matches_event(&ev) {
                    self.deliver(ev, out);
                }
            }
        }
    }
}

/// Decode a class frame (`[b"evsub", meta, payload]`).
fn decode_class_frame(msg: &Message) -> Option<(ClassMeta, Vec<StandardEvent>)> {
    if msg.topic() != CLASS_TOPIC {
        return None;
    }
    let meta = ClassMeta::decode(msg.part(1)?)?;
    let subset = decode_event_batch(&msg.part_bytes(2)?).ok()?;
    Some((meta, subset))
}

/// An in-process filtered subscriber: a broadcast-ring cursor plus the
/// heal core. See module docs.
pub struct FilteredSubscriber {
    cursor: ClassCursor,
    lane: FilterLane,
}

impl FilteredSubscriber {
    pub(crate) fn attach(
        cursor: ClassCursor,
        spec: &FilterSpec,
        store: Arc<dyn EventStore>,
        name: &str,
    ) -> FilteredSubscriber {
        FilteredSubscriber {
            cursor,
            lane: FilterLane::new(spec, store, name),
        }
    }

    /// The canonical filter-class key this subscriber rides on.
    pub fn class_key(&self) -> &str {
        self.cursor.class_key()
    }

    /// Drain every frame currently resident in the ring, returning the
    /// delivered subset events (never blocks).
    pub fn poll(&mut self) -> Vec<StandardEvent> {
        let mut out = Vec::new();
        loop {
            match self.cursor.poll() {
                RingPoll::Empty => break,
                RingPoll::Overrun { missed } => {
                    // The next frame's `first_id` bounds the heal; just
                    // account the loss here.
                    self.lane.stats.frames_lost += missed;
                    self.lane.t_frames_lost.add(missed);
                    self.lane.next_seq = Some(self.cursor.position());
                }
                RingPoll::Frame(msg) => {
                    if let Some((meta, subset)) = decode_class_frame(&msg) {
                        self.lane.ingest_frame(meta, subset, &mut out);
                    }
                }
            }
        }
        out
    }

    /// Poll until `deadline` elapses or at least one event arrives.
    pub fn recv_for(&mut self, window: Duration) -> Vec<StandardEvent> {
        let deadline = Instant::now() + window;
        loop {
            let out = self.poll();
            if !out.is_empty() || Instant::now() >= deadline {
                return out;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Heal recorded gaps and pull any store tail beyond the watermark.
    pub fn catch_up(&mut self) -> Vec<StandardEvent> {
        let mut out = Vec::new();
        self.lane.catch_up(&mut out);
        out
    }

    /// Subscriber-side counters.
    pub fn stats(&self) -> FilteredStats {
        self.lane.stats
    }
}

/// A socket-based filtered subscriber (inproc or TCP). The filter spec
/// travels to the publisher at connect time (`CTRL_FILTER` pushdown),
/// so only this class's subset frames cross the wire. See module docs.
pub struct FilteredConsumer {
    sub: SubSocket,
    lane: FilterLane,
    class_key: String,
}

impl FilteredConsumer {
    /// Connect to the aggregator's consumer endpoint and push `spec`
    /// down to it. `name` labels this subscriber's telemetry.
    ///
    /// On either transport the class is registered with the publisher
    /// when this returns (over TCP the `CTRL_FILTER` control frame is
    /// acknowledged), so batches sequenced from then on produce class
    /// frames for this subscriber. What was sequenced earlier is not
    /// lost: the watermark starts at 0, so
    /// [`catch_up`](FilteredConsumer::catch_up) recovers the entire
    /// filtered prefix from the reliable store.
    pub fn connect(
        ctx: &Context,
        endpoint: &str,
        spec: &FilterSpec,
        store: Arc<dyn EventStore>,
        name: &str,
    ) -> Result<FilteredConsumer, fsmon_mq::MqError> {
        let sub = ctx.subscriber();
        let class_key = spec.canonical();
        sub.subscribe_filter(&class_key);
        sub.connect(endpoint)?;
        Ok(FilteredConsumer {
            sub,
            lane: FilterLane::new(spec, store, name),
            class_key,
        })
    }

    /// The canonical filter-class key this subscriber rides on.
    pub fn class_key(&self) -> &str {
        &self.class_key
    }

    /// Receive and integrate class frames until `window` elapses,
    /// returning every subset event delivered in that time.
    pub fn recv_for(&mut self, window: Duration) -> Vec<StandardEvent> {
        let deadline = Instant::now() + window;
        let mut out = Vec::new();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match self.sub.recv_timeout(left.min(Duration::from_millis(20))) {
                Ok(msg) => {
                    if let Some((meta, subset)) = decode_class_frame(&msg) {
                        self.lane.ingest_frame(meta, subset, &mut out);
                    }
                }
                Err(fsmon_mq::MqError::Timeout) => continue,
                Err(_) => break,
            }
        }
        out
    }

    /// Drain whatever is queued right now without waiting.
    pub fn poll(&mut self) -> Vec<StandardEvent> {
        let mut out = Vec::new();
        while let Ok(msg) = self.sub.recv_timeout(Duration::ZERO) {
            if let Some((meta, subset)) = decode_class_frame(&msg) {
                self.lane.ingest_frame(meta, subset, &mut out);
            }
        }
        out
    }

    /// Heal recorded gaps and pull any store tail beyond the watermark.
    pub fn catch_up(&mut self) -> Vec<StandardEvent> {
        let mut out = Vec::new();
        self.lane.catch_up(&mut out);
        out
    }

    /// Subscriber-side counters.
    pub fn stats(&self) -> FilteredStats {
        self.lane.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmon_events::EventKind;
    use fsmon_store::MemStore;

    fn ev(id: u64, path: &str) -> StandardEvent {
        let mut ev = StandardEvent::new(EventKind::Create, "/r", path);
        ev.id = id;
        ev
    }

    fn lane(store: &Arc<MemStore>) -> FilterLane {
        let spec = FilterSpec::subtree("/keep");
        FilterLane::new(&spec, store.clone() as Arc<dyn EventStore>, "test")
    }

    fn meta(class_seq: u64, first_id: u64, last_id: u64) -> ClassMeta {
        ClassMeta {
            class_seq,
            first_id,
            last_id,
        }
    }

    #[test]
    fn contiguous_frames_deliver_without_healing() {
        let store = Arc::new(MemStore::new());
        let mut lane = lane(&store);
        let mut out = Vec::new();
        lane.ingest_frame(meta(0, 1, 3), vec![ev(2, "/keep/a")], &mut out);
        lane.ingest_frame(meta(1, 4, 5), vec![ev(5, "/keep/b")], &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(lane.stats.gaps_detected, 0);
        assert_eq!(lane.watermark, 5);
    }

    #[test]
    fn publish_gap_heals_matching_events_from_the_store() {
        let store = Arc::new(MemStore::new());
        // Ids 1..=4 reach the store; the subscriber only ever sees the
        // batch frame for ids 5..=6.
        store
            .append_batch(&[
                ev(1, "/keep/lost"),
                ev(2, "/other/lost"),
                ev(3, "/keep/lost2"),
                ev(4, "/other/lost2"),
            ])
            .unwrap();
        let mut lane = lane(&store);
        let mut out = Vec::new();
        lane.ingest_frame(meta(7, 5, 6), vec![ev(5, "/keep/live")], &mut out);
        let paths: Vec<&str> = out.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, ["/keep/lost", "/keep/lost2", "/keep/live"]);
        assert_eq!(lane.stats.gaps_detected, 1);
        assert_eq!(lane.stats.healed, 4, "heals the range, filter trims it");
        assert!(lane.missing.is_empty());
    }

    #[test]
    fn republished_ids_are_dropped_exactly_once() {
        let store = Arc::new(MemStore::new());
        let mut lane = lane(&store);
        let mut out = Vec::new();
        lane.ingest_frame(meta(0, 1, 2), vec![ev(1, "/keep/a")], &mut out);
        // A restarted aggregator re-publishes the same stamped range.
        lane.ingest_frame(meta(1, 1, 2), vec![ev(1, "/keep/a")], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(lane.stats.frames, 2);
    }

    #[test]
    fn empty_watermark_frames_advance_without_delivering() {
        let store = Arc::new(MemStore::new());
        let mut lane = lane(&store);
        let mut out = Vec::new();
        lane.ingest_frame(meta(0, 1, 8), Vec::new(), &mut out);
        assert!(out.is_empty());
        assert_eq!(lane.watermark, 8);
        // The next frame is contiguous — no spurious gap.
        lane.ingest_frame(meta(1, 9, 9), vec![ev(9, "/keep/x")], &mut out);
        assert_eq!(lane.stats.gaps_detected, 0);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn frame_sequence_gaps_are_counted() {
        let store = Arc::new(MemStore::new());
        // The store assigns dense sequences on append — the filler
        // event pins "/keep/skipped" at id 2.
        store
            .append_batch(&[ev(0, "/other/seen"), ev(0, "/keep/skipped")])
            .unwrap();
        let mut lane = lane(&store);
        let mut out = Vec::new();
        lane.ingest_frame(meta(0, 1, 1), Vec::new(), &mut out);
        lane.ingest_frame(meta(3, 3, 3), Vec::new(), &mut out);
        assert_eq!(lane.stats.frames_lost, 2);
        assert_eq!(out.len(), 1, "the id gap behind the lost frames heals");
        assert_eq!(out[0].path, "/keep/skipped");
    }

    #[test]
    fn catch_up_recovers_a_lost_tail_through_the_filter() {
        let store = Arc::new(MemStore::new());
        let mut lane = lane(&store);
        let mut out = Vec::new();
        lane.ingest_frame(meta(0, 1, 1), vec![ev(1, "/keep/a")], &mut out);
        // Dense store sequences: filler occupies id 1, the tail is 2..3.
        store
            .append_batch(&[ev(0, "/keep/a"), ev(0, "/keep/tail"), ev(0, "/other/tail")])
            .unwrap();
        out.clear();
        lane.catch_up(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].path, "/keep/tail");
        assert_eq!(lane.watermark, 3);
    }
}
