//! The consumer lane: one shard's stream, made exactly-once against
//! that shard's store.
//!
//! "Whenever a new event arrives to the consumer it filters the events
//! and only passes on events related to those files and directories
//! requested by the application. This filtering of events is not done
//! at the aggregator in order to alleviate potential overheads if a
//! large number of consumers were to ask to monitor different files and
//! directories" (§IV Consumption).
//!
//! A [`Consumer`] is one lane: one source of frames from one aggregator
//! shard, plus the heal core. The source is one of
//!
//! * `events` frames on a [`SubSocket`] — the full stream, filtered
//!   here by the lane's client-side [`EventFilter`] (the paper's
//!   design);
//! * one filter class's frames on a [`SubSocket`] — server-side
//!   pushdown (see [`crate::fanout`]) over inproc or TCP;
//! * one filter class's frames read from the publisher's broadcast
//!   ring through a [`ClassCursor`] — pushdown with no socket at all.
//!
//! The heal core integrates every frame as an id range `first..=last`
//! plus the subset of it the lane keeps. A dense `events` frame is its
//! own range; a class frame carries its whole batch's range even when
//! its subset is empty. So one rule covers every source: `first >
//! watermark + 1` means ids were published that the lane never saw
//! (a lost frame, a ring overrun, a crash between store and publish),
//! and they are healed from the store through the lane's predicate. An
//! id at or below the watermark that is not recorded missing is a
//! restart re-publication, and is dropped. A lost tail has no later
//! frame to reveal it; `catch_up` pulls the store past the watermark.
//!
//! The lane has no queue and no wait of its own. A federation
//! ([`FederatedConsumer`](crate::FederatedConsumer) or
//! [`FederatedFilteredConsumer`](crate::FederatedFilteredConsumer))
//! polls its lanes, one per aggregator shard (K=1 included), into its
//! own buffer and sleeps on one [`ArrivalSignal`] for all of them.

use crate::fanout::{ClassMeta, CLASS_TOPIC};
use fsmon_core::{EventFilter, ShardMerger};
use fsmon_events::wire::{find_tlv, TLV_TRACE};
use fsmon_events::{decode_event_batch, EventId, StandardEvent};
use fsmon_faults::Retry;
use fsmon_mq::{ArrivalSignal, ClassCursor, Context, Message, RingPoll, SubSocket};
use fsmon_rules::{CompiledFilter, FilterSpec};
use fsmon_store::EventStore;
use fsmon_telemetry::{trace, Counter, TraceRecord, TraceStage, Tracer};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;

/// What a consumer delivered and how much recovery machinery fired
/// beneath it. Every consumer shape reports this one struct; a
/// federation sums it over its lanes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsumerRecoveryStats {
    /// Events handed to the application, live and healed, after
    /// filtering.
    pub delivered: u64,
    /// Frames integrated.
    pub frames: u64,
    /// Class frames lost: class-sequence gaps and ring overruns.
    pub frames_lost: u64,
    /// Events dropped because their id was already integrated.
    pub duplicates_dropped: u64,
    /// Id-range gaps observed in the live stream.
    pub gaps_detected: u64,
    /// Events recovered from the reliable store (gaps and lost tails),
    /// counted before filtering.
    pub gap_events_healed: u64,
    /// Successful reconnects after a broken aggregator link.
    pub reconnects: u64,
    /// Blocking waits for the live stream that ran out their budget
    /// with nothing to deliver. A consumer that is being fed is woken
    /// by arrivals and counts none.
    pub wait_timeouts: u64,
}

impl std::iter::Sum for ConsumerRecoveryStats {
    fn sum<I: Iterator<Item = ConsumerRecoveryStats>>(lanes: I) -> ConsumerRecoveryStats {
        lanes.fold(ConsumerRecoveryStats::default(), |t, one| {
            ConsumerRecoveryStats {
                delivered: t.delivered + one.delivered,
                frames: t.frames + one.frames,
                frames_lost: t.frames_lost + one.frames_lost,
                duplicates_dropped: t.duplicates_dropped + one.duplicates_dropped,
                gaps_detected: t.gaps_detected + one.gaps_detected,
                gap_events_healed: t.gap_events_healed + one.gap_events_healed,
                reconnects: t.reconnects + one.reconnects,
                wait_timeouts: t.wait_timeouts + one.wait_timeouts,
            }
        })
    }
}

/// What a lane keeps of the ids it integrates.
enum Predicate {
    /// The full stream, filtered here (§IV Consumption).
    Client(EventFilter),
    /// One pushdown class: live subsets arrive matched, so only events
    /// read back from the store are matched here.
    Class(CompiledFilter),
}

impl Predicate {
    fn matches(&self, ev: &StandardEvent) -> bool {
        match self {
            Predicate::Client(filter) => filter.matches(ev),
            Predicate::Class(filter) => filter.matches_event(ev),
        }
    }
}

/// The live side of [`ConsumerRecoveryStats`], plus the filtered-out
/// count. An unfiltered lane reports as `fsmon_consumer_*`, a pushdown
/// lane as `fsmon_subscriber_filtered_*`, both labelled
/// `consumer=<name>`; a count one family has no metric for goes to a
/// counter outside the registry.
struct Meters {
    delivered: Arc<Counter>,
    filtered: Arc<Counter>,
    duplicates: Arc<Counter>,
    gaps: Arc<Counter>,
    healed: Arc<Counter>,
    frames_lost: Arc<Counter>,
    reconnects: Arc<Counter>,
    wait_timeouts: Arc<Counter>,
}

/// Each [`Meters`] field's metric name: (unfiltered lane, pushdown
/// lane), `""` for none.
const METRICS: [(&str, &str); 8] = [
    ("delivered_total", "filtered_delivered_total"),
    ("filtered_total", ""),
    ("duplicates_dropped_total", ""),
    ("gaps_detected_total", "filtered_gaps_detected_total"),
    ("gap_events_healed_total", "filtered_healed_total"),
    ("", "filtered_frames_lost_total"),
    ("reconnects_total", ""),
    ("wait_timeouts_total", ""),
];

impl Meters {
    fn new(pushdown: bool, name: &str) -> Meters {
        let scope = fsmon_telemetry::root()
            .scope(if pushdown { "subscriber" } else { "consumer" })
            .with_label("consumer", name);
        let [delivered, filtered, duplicates, gaps, healed, frames_lost, reconnects, wait_timeouts] =
            METRICS.map(|(unfiltered, pushed)| {
                let metric = if pushdown { pushed } else { unfiltered };
                if metric.is_empty() {
                    Arc::new(Counter::new())
                } else {
                    scope.counter(metric)
                }
            });
        Meters {
            delivered,
            filtered,
            duplicates,
            gaps,
            healed,
            frames_lost,
            reconnects,
            wait_timeouts,
        }
    }
}

/// The one gap-heal and dedup routine every lane runs (see module
/// docs).
struct HealCore {
    store: Option<Arc<dyn EventStore>>,
    predicate: Predicate,
    retry: Retry,
    /// Highest id integrated: delivered, dropped by the predicate, or
    /// recorded missing. `None` until an unfiltered lane's first frame
    /// or `resume_from`: such a lane is live-only and does not heal the
    /// prefix before it attached.
    watermark: Option<EventId>,
    /// Ids published in a range this lane never saw, not yet produced
    /// by the store.
    missing: BTreeSet<EventId>,
    /// Next expected class-frame sequence.
    next_seq: Option<u64>,
    stats: ConsumerRecoveryStats,
    meters: Meters,
}

impl HealCore {
    /// Count the class frames a jump to `class_seq` skipped.
    fn sequence(&mut self, class_seq: u64) {
        if let Some(expected) = self.next_seq.filter(|&expected| class_seq > expected) {
            self.lose_frames(class_seq - expected);
        }
        self.next_seq = Some(class_seq + 1);
    }

    /// Integrate one frame: its id range and the subset of it this
    /// lane keeps.
    fn integrate(
        &mut self,
        first: EventId,
        last: EventId,
        subset: Vec<StandardEvent>,
        out: &mut Vec<StandardEvent>,
    ) {
        self.stats.frames += 1;
        let mark = *self.watermark.get_or_insert(first.saturating_sub(1));
        if first > mark + 1 {
            self.stats.gaps_detected += 1;
            self.meters.gaps.inc();
            self.missing.extend(mark + 1..first);
            self.heal(out);
        }
        for ev in subset {
            if ev.id > mark || self.missing.remove(&ev.id) {
                out.push(ev);
            } else {
                self.stats.duplicates_dropped += 1;
                self.meters.duplicates.inc();
            }
        }
        self.watermark = Some(mark.max(last));
    }

    fn lose_frames(&mut self, n: u64) {
        self.stats.frames_lost += n;
        self.meters.frames_lost.add(n);
    }

    /// Count one event read back from the store and keep it if the
    /// predicate does.
    fn recover(&mut self, ev: StandardEvent, out: &mut Vec<StandardEvent>) {
        self.stats.gap_events_healed += 1;
        self.meters.healed.inc();
        if self.predicate.matches(&ev) {
            out.push(ev);
        } else {
            self.meters.filtered.inc();
        }
    }

    /// Fetch known-missing ids from the store, retrying briefly (the
    /// store lane may run behind the publish lane). Ids the store
    /// cannot produce yet stay recorded for the next attempt. Returns
    /// the number of events recovered.
    fn heal(&mut self, out: &mut Vec<StandardEvent>) -> usize {
        let Some(store) = self.store.clone() else {
            return 0;
        };
        let mut healed = 0;
        let mut backoff = self.retry.backoff();
        while let (Some(&lo), Some(&hi)) = (self.missing.first(), self.missing.last()) {
            let want = self.missing.len();
            let fetched = store.get_since(lo - 1, (hi - lo + 1) as usize);
            for ev in fetched.unwrap_or_default() {
                if ev.id > hi {
                    break;
                }
                if self.missing.remove(&ev.id) {
                    healed += 1;
                    self.recover(ev, out);
                }
            }
            if self.missing.len() < want {
                // Progress: reset the clock before the next round.
                backoff = self.retry.backoff();
                continue;
            }
            match backoff.next() {
                Some(sleep) => std::thread::sleep(sleep),
                None => break,
            }
        }
        healed
    }

    /// Recover everything the lane can still be missing: recorded
    /// gaps, then the store's tail past the watermark. Returns the
    /// number of events recovered.
    fn catch_up(&mut self, out: &mut Vec<StandardEvent>) -> usize {
        let mut recovered = self.heal(out);
        let Some(store) = self.store.clone() else {
            return recovered;
        };
        loop {
            let since = self.watermark.unwrap_or(0);
            for ev in store.get_since(since, 4096).unwrap_or_default() {
                if ev.id > self.watermark.unwrap_or(0) {
                    self.watermark = Some(ev.id);
                    recovered += 1;
                    self.recover(ev, out);
                }
            }
            if self.watermark.unwrap_or(0) == since {
                return recovered;
            }
        }
    }

    /// Integrate one frame, whichever kind it is. A frame that does not
    /// decode is skipped; its ids surface as a gap on the next one.
    fn ingest(&mut self, msg: &Message, tracer: &Tracer, out: &mut Vec<StandardEvent>) {
        let decode = |part| {
            msg.part_bytes(part)
                .and_then(|p| decode_event_batch(&p).ok())
        };
        if msg.topic() == CLASS_TOPIC {
            if let (Some(meta), Some(subset)) = (msg.part(1).and_then(ClassMeta::decode), decode(2))
            {
                self.sequence(meta.class_seq);
                self.integrate(meta.first_id, meta.last_id, subset, out);
            }
            return;
        }
        let Some(mut events) = decode(1) else {
            return;
        };
        fold_traces(tracer, msg.part(2));
        let (Some(first), Some(last)) = (events.first().map(|e| e.id), events.last().map(|e| e.id))
        else {
            return;
        };
        let all = events.len();
        events.retain(|ev| self.predicate.matches(ev));
        self.meters.filtered.add((all - events.len()) as u64);
        self.integrate(first, last, events, out);
    }

    /// Re-dial a broken aggregator link, with backoff. Whatever was
    /// published meanwhile surfaces as a gap or through `catch_up`.
    fn reconnect(&mut self, sub: &SubSocket) {
        let mut backoff = self.retry.backoff();
        loop {
            if let Ok(n) = sub.reconnect() {
                if !sub.disconnected() {
                    self.stats.reconnects += n as u64;
                    self.meters.reconnects.add(n as u64);
                    return;
                }
            }
            match backoff.next() {
                Some(sleep) => std::thread::sleep(sleep),
                None => return,
            }
        }
    }
}

/// Terminal trace stage: stamp `deliver` on each record riding behind
/// an `events` frame and fold the completed trace into the
/// per-stage/per-MDT latency histograms and the exemplar. The tracer's
/// clock must match the one upstream stages stamped with.
fn fold_traces(tracer: &Tracer, part: Option<&[u8]>) {
    if !tracer.enabled() {
        return;
    }
    let Some(records) = part
        .and_then(|f| find_tlv(f, TLV_TRACE).ok().flatten())
        .and_then(TraceRecord::decode_all)
    else {
        return;
    };
    let deliver_ns = tracer.now_ns();
    for mut rec in records {
        rec.stamp(TraceStage::Deliver, deliver_ns);
        trace::fold_delivered(&rec);
    }
}

enum Source {
    Socket(SubSocket),
    Ring(ClassCursor),
}

struct Lane {
    source: Source,
    core: HealCore,
    tracer: Tracer,
}

/// One consumer lane: a source of frames from one aggregator shard and
/// the heal core over that shard's store. See module docs.
pub struct Consumer(Mutex<Lane>);

impl Consumer {
    /// Connect to the aggregator at `endpoint`. `store` enables healing
    /// and replay (`None` for a stateless consumer). Counters carry the
    /// label set `{consumer="main"}`; use
    /// [`connect_traced`](Consumer::connect_traced) to tell consumers
    /// apart in `fsmon stats` output.
    pub fn connect(
        ctx: &Context,
        endpoint: &str,
        filter: EventFilter,
        store: Option<Arc<dyn EventStore>>,
    ) -> Result<Consumer, fsmon_mq::MqError> {
        Self::connect_traced(ctx, endpoint, filter, store, "main", Tracer::disabled())
    }

    /// [`connect`](Consumer::connect) with an explicit consumer name
    /// and a [`Tracer`]. Every counter this consumer reports carries
    /// the label `consumer=<name>`, so per-consumer delivery/filtering
    /// is visible in snapshots while `Snapshot::counter` still sums the
    /// total. Trace records arriving behind event frames get their
    /// deliver stage stamped with the tracer's clock, completing the
    /// end-to-end trace, and are folded into the per-stage/per-MDT
    /// latency histograms (and the worst-case exemplar); pass
    /// `Tracer::disabled()` to skip that.
    pub fn connect_traced(
        ctx: &Context,
        endpoint: &str,
        filter: EventFilter,
        store: Option<Arc<dyn EventStore>>,
        name: &str,
        tracer: Tracer,
    ) -> Result<Consumer, fsmon_mq::MqError> {
        let sub = ctx.subscriber();
        sub.connect(endpoint)?;
        sub.subscribe(b"events");
        let (source, predicate) = (Source::Socket(sub), Predicate::Client(filter));
        Ok(Consumer::new(source, predicate, store, name, tracer))
    }

    /// A pushdown lane over a socket. `spec` travels to the publisher
    /// at connect time (`CTRL_FILTER`, acknowledged over TCP), so only
    /// its class's frames cross the wire; what was sequenced earlier is
    /// backfilled from `store`.
    pub(crate) fn connect_class(
        ctx: &Context,
        endpoint: &str,
        spec: &FilterSpec,
        store: Arc<dyn EventStore>,
        name: &str,
    ) -> Result<Consumer, fsmon_mq::MqError> {
        let sub = ctx.subscriber();
        sub.subscribe_filter(&spec.canonical());
        sub.connect(endpoint)?;
        let class = Predicate::Class(spec.compile());
        let source = Source::Socket(sub);
        Ok(Consumer::new(
            source,
            class,
            Some(store),
            name,
            Tracer::disabled(),
        ))
    }

    /// A pushdown lane reading its class's broadcast ring in-process.
    pub(crate) fn attach_ring(
        cursor: ClassCursor,
        spec: &FilterSpec,
        store: Arc<dyn EventStore>,
        name: &str,
    ) -> Consumer {
        let class = Predicate::Class(spec.compile());
        let source = Source::Ring(cursor);
        Consumer::new(source, class, Some(store), name, Tracer::disabled())
    }

    fn new(
        source: Source,
        predicate: Predicate,
        store: Option<Arc<dyn EventStore>>,
        name: &str,
        tracer: Tracer,
    ) -> Consumer {
        let pushdown = matches!(predicate, Predicate::Class(_));
        let core = HealCore {
            store,
            predicate,
            retry: Retry::fast(),
            // The two start rules: a pushdown lane backfills its class
            // from id 1, an unfiltered lane starts live.
            watermark: pushdown.then_some(0),
            missing: BTreeSet::new(),
            next_seq: None,
            stats: ConsumerRecoveryStats::default(),
            meters: Meters::new(pushdown, name),
        };
        Consumer(Mutex::new(Lane {
            source,
            core,
            tracer,
        }))
    }

    /// Integrate every frame that has already arrived, appending what
    /// the lane delivers to `out`. Never waits, except to re-dial a
    /// broken link.
    pub(crate) fn poll(&self, out: &mut Vec<StandardEvent>) {
        let lane = &mut *self.0.lock();
        let (core, tracer) = (&mut lane.core, &lane.tracer);
        let before = out.len();
        match &mut lane.source {
            Source::Socket(sub) => {
                if sub.disconnected() {
                    core.reconnect(sub);
                }
                while let Some(msg) = sub.try_recv() {
                    core.ingest(&msg, tracer, out);
                }
            }
            Source::Ring(cursor) => loop {
                match cursor.poll() {
                    RingPoll::Empty => break,
                    RingPoll::Overrun { missed } => {
                        // The next frame's range bounds the heal; only
                        // the loss is counted here.
                        core.lose_frames(missed);
                        core.next_seq = Some(cursor.position());
                    }
                    RingPoll::Frame(msg) => core.ingest(&msg, tracer, out),
                }
            },
        }
        Self::count_delivered(core, out.len() - before);
    }

    /// Heal recorded gaps and pull the store's tail past the
    /// watermark into `out`. Returns the number of events recovered
    /// from the store, before filtering.
    pub(crate) fn catch_up(&self, out: &mut Vec<StandardEvent>) -> usize {
        let core = &mut self.0.lock().core;
        let before = out.len();
        let recovered = core.catch_up(out);
        Self::count_delivered(core, out.len() - before);
        recovered
    }

    fn count_delivered(core: &mut HealCore, n: usize) {
        core.stats.delivered += n as u64;
        core.meters.delivered.add(n as u64);
    }

    /// Treat everything up to `cursor` as already seen: the resume
    /// point when a consumer is rebuilt from a persisted watermark
    /// (`catch_up` then replays exactly the store's suffix past it).
    /// Never regresses.
    pub(crate) fn resume_from(&self, cursor: EventId) {
        let core = &mut self.0.lock().core;
        core.watermark = Some(core.watermark.map_or(cursor, |w| w.max(cursor)));
    }

    /// Highest id integrated (0 before the first frame).
    pub(crate) fn watermark(&self) -> EventId {
        self.0.lock().core.watermark.unwrap_or(0)
    }

    pub(crate) fn stats(&self) -> ConsumerRecoveryStats {
        self.0.lock().core.stats
    }

    /// Count one blocking wait that ran out its budget empty-handed.
    pub(crate) fn note_wait_timeout(&self) {
        let core = &mut self.0.lock().core;
        core.stats.wait_timeouts += 1;
        core.meters.wait_timeouts.inc();
    }

    /// Bump `signal` whenever a frame reaches this lane's socket.
    /// `false` for a ring lane, or a socket that already reports to
    /// another signal.
    pub(crate) fn notify_arrivals(&self, signal: Arc<ArrivalSignal>) -> bool {
        match &self.0.lock().source {
            Source::Socket(sub) => sub.notify_arrivals(signal),
            Source::Ring(_) => false,
        }
    }

    /// Replace the client-side filter.
    pub(crate) fn set_filter(&self, filter: EventFilter) {
        self.0.lock().core.predicate = Predicate::Client(filter);
    }

    /// Historic events with id greater than `since` from the store,
    /// through the lane's predicate — the fault-recovery path ("the
    /// consumer service is also responsible for retrieving the historic
    /// events … in the situation that a consumer has failed", §IV
    /// Consumption).
    pub(crate) fn replay_since(
        &self,
        since: EventId,
        max: usize,
    ) -> Result<Vec<StandardEvent>, fsmon_store::StoreError> {
        let core = &self.0.lock().core;
        let Some(store) = &core.store else {
            return Ok(Vec::new());
        };
        let mut events = store.get_since(since, max)?;
        events.retain(|ev| core.predicate.matches(ev));
        Ok(events)
    }

    /// Flag events up to `up_to` as reported so the next purge cycle
    /// can remove them.
    pub(crate) fn ack(&self, up_to: EventId) -> Result<(), fsmon_store::StoreError> {
        match &self.0.lock().core.store {
            Some(store) => store.mark_reported(up_to),
            None => Ok(()),
        }
    }
}

/// Run `step` on every lane into a window of its own and merge the
/// windows: each shard's order is kept, shards interleave by timestamp.
pub(crate) fn merged<'a>(
    lanes: impl Iterator<Item = &'a Consumer>,
    merger: &mut ShardMerger,
    mut step: impl FnMut(&Consumer, &mut Vec<StandardEvent>),
) -> Vec<StandardEvent> {
    let mut windows: Vec<Vec<StandardEvent>> = lanes
        .map(|lane| {
            let mut window = Vec::new();
            step(lane, &mut window);
            window
        })
        .collect();
    merger.merge(&mut windows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FanoutEngine, FederatedConsumer, FederatedFilteredConsumer};
    use bytes::BytesMut;
    use fsmon_core::VectorWatermark;
    use fsmon_events::wire::encode_event_batch_offsets;
    use fsmon_events::{encode_event_batch, EventKind};
    use fsmon_store::MemStore;
    use std::time::{Duration, Instant};

    fn publish(publisher: &fsmon_mq::PubSocket, events: &[StandardEvent]) {
        publisher
            .send(Message::from_parts(vec![
                bytes::Bytes::from_static(b"events"),
                encode_event_batch(events),
            ]))
            .unwrap();
    }

    fn ev(kind: EventKind, path: &str, id: u64) -> StandardEvent {
        let mut e = StandardEvent::new(kind, "/mnt/lustre", path);
        e.id = id;
        e
    }

    /// A K=1 federation over one unfiltered lane.
    fn consumer(
        ctx: &Context,
        filter: EventFilter,
        store: Option<Arc<dyn EventStore>>,
    ) -> FederatedConsumer {
        let lane = Consumer::connect(ctx, "inproc://agg", filter, store).unwrap();
        FederatedConsumer::from_parts(vec![Arc::new(lane)])
    }

    #[test]
    fn filtering_happens_client_side() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://agg").unwrap();
        let consumer = consumer(&ctx, EventFilter::subtree("/keep"), None);
        publish(
            &publisher,
            &[
                ev(EventKind::Create, "/keep/a", 1),
                ev(EventKind::Create, "/drop/b", 2),
                ev(EventKind::Create, "/keep/c", 3),
            ],
        );
        let got = consumer.recv_batch(10, Duration::from_secs(2));
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|e| e.path.starts_with("/keep")));
        assert_eq!(consumer.recovery_stats().delivered, 2);
        assert_eq!(consumer.vector_watermark().get(0), 3);
    }

    #[test]
    fn recv_times_out_when_silent() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://agg").unwrap();
        let consumer = consumer(&ctx, EventFilter::all(), None);
        let start = Instant::now();
        assert!(consumer.recv(Duration::from_millis(50)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn replay_respects_filter_and_ack() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://agg").unwrap();
        let store: Arc<dyn EventStore> = Arc::new(MemStore::new());
        store.append(&ev(EventKind::Create, "/keep/a", 0)).unwrap();
        store.append(&ev(EventKind::Create, "/drop/b", 0)).unwrap();
        store.append(&ev(EventKind::Create, "/keep/c", 0)).unwrap();
        let consumer = consumer(&ctx, EventFilter::subtree("/keep"), Some(store.clone()));
        let replay = consumer.replay_since(0, 100).unwrap();
        assert_eq!(replay.len(), 2);
        consumer.ack(3).unwrap();
        assert_eq!(store.stats().reported_seq, 3);
        store.purge_reported().unwrap();
        assert!(consumer.replay_since(0, 100).unwrap().is_empty());
    }

    #[test]
    fn duplicate_ids_are_dropped_once_seen() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://agg").unwrap();
        let consumer = consumer(&ctx, EventFilter::all(), None);
        publish(
            &publisher,
            &[
                ev(EventKind::Create, "/a", 1),
                ev(EventKind::Create, "/b", 2),
            ],
        );
        assert_eq!(consumer.recv_batch(10, Duration::from_secs(2)).len(), 2);
        // An at-least-once redelivery of the same ids.
        publish(
            &publisher,
            &[
                ev(EventKind::Create, "/a", 1),
                ev(EventKind::Create, "/b", 2),
            ],
        );
        publish(&publisher, &[ev(EventKind::Create, "/c", 3)]);
        let got = consumer.recv_batch(10, Duration::from_secs(2));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, 3);
        assert_eq!(consumer.recovery_stats().duplicates_dropped, 2);
    }

    #[test]
    fn sequence_gaps_heal_from_the_store() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://agg").unwrap();
        let store: Arc<dyn EventStore> = Arc::new(MemStore::new());
        // The store holds everything the aggregator published (ids are
        // assigned by append order: 1..=4).
        for p in ["/a", "/b", "/c", "/d"] {
            store.append(&ev(EventKind::Create, p, 0)).unwrap();
        }
        let consumer = consumer(&ctx, EventFilter::all(), Some(store.clone()));
        // The live stream skips ids 2 and 3 (lost to a broken link).
        publish(&publisher, &[ev(EventKind::Create, "/a", 1)]);
        publish(&publisher, &[ev(EventKind::Create, "/d", 4)]);
        let got = consumer.recv_batch(10, Duration::from_secs(2));
        let ids: Vec<u64> = got.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4], "healed events keep stream order");
        let rec = consumer.recovery_stats();
        assert_eq!(rec.gaps_detected, 1);
        assert_eq!(rec.gap_events_healed, 2);
    }

    #[test]
    fn catch_up_recovers_a_lost_tail() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://agg").unwrap();
        let store: Arc<dyn EventStore> = Arc::new(MemStore::new());
        for p in ["/a", "/b", "/c"] {
            store.append(&ev(EventKind::Create, p, 0)).unwrap();
        }
        let consumer = consumer(&ctx, EventFilter::all(), Some(store.clone()));
        // Only the first event arrives live; the tail has no later
        // event to reveal it as a gap.
        publish(&publisher, &[ev(EventKind::Create, "/a", 1)]);
        assert_eq!(consumer.recv_batch(10, Duration::from_secs(2)).len(), 1);
        assert_eq!(consumer.catch_up(), 2);
        let ids: Vec<u64> = consumer.drain().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(consumer.vector_watermark().get(0), 3);
    }

    #[test]
    fn set_filter_applies_to_subsequent_events() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://agg").unwrap();
        let consumer = consumer(&ctx, EventFilter::all(), None);
        publish(&publisher, &[ev(EventKind::Create, "/x", 1)]);
        assert!(consumer.recv(Duration::from_secs(1)).is_some());
        consumer.set_filter(EventFilter::subtree("/nope"));
        publish(&publisher, &[ev(EventKind::Create, "/x", 2)]);
        assert!(consumer.recv(Duration::from_millis(100)).is_none());
    }

    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Unfiltered,
        PushdownSocket,
        PushdownRing,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        LostFrame,
        Republish,
        LostTail,
        Resume,
    }

    enum Federation {
        Unfiltered(FederatedConsumer),
        Pushdown(FederatedFilteredConsumer),
    }

    impl Federation {
        fn take(&mut self) -> Vec<StandardEvent> {
            match self {
                Federation::Unfiltered(f) => f.drain(),
                Federation::Pushdown(f) => f.poll(),
            }
        }

        fn catch_up(&mut self) -> Vec<StandardEvent> {
            match self {
                Federation::Unfiltered(f) => {
                    let recovered = f.catch_up();
                    let events = f.drain();
                    // Every store is read to its end, and what was read
                    // back is counted whether or not the filter kept it.
                    let end = (BATCH * BATCHES) as u64;
                    assert!(f.vector_watermark().cursors().iter().all(|&c| c == end));
                    assert!(recovered >= events.len());
                    events
                }
                Federation::Pushdown(f) => f.catch_up(),
            }
        }

        fn stats(&self) -> ConsumerRecoveryStats {
            let mut stats = match self {
                Federation::Unfiltered(f) => f.recovery_stats(),
                Federation::Pushdown(f) => f.stats(),
            };
            // An idle `drain` may count a timed-out wait; that is the
            // clock's business, not recovery's.
            stats.wait_timeouts = 0;
            stats
        }
    }

    const BATCH: usize = 3;
    const BATCHES: usize = 4;

    /// Shard `k` resumes past id `RESUMED + k`.
    const RESUMED: u64 = 5;

    /// Drive one consumer shape over K shards through one scripted
    /// fault. Each shard's store holds 12 events, odd ids under
    /// `/keep`; the shape's predicate keeps `/keep`, client-side or
    /// pushed down. Frames are published in full before anything is
    /// read, so nothing depends on timing. Returns what the federation
    /// delivered, as `(shard, id)`, and its stats.
    fn run(
        shape: Shape,
        shards: usize,
        fault: Fault,
    ) -> (Vec<(usize, u64)>, ConsumerRecoveryStats) {
        let ctx = Context::new();
        let spec = FilterSpec::subtree("/keep");
        let resume =
            VectorWatermark::from_cursors((0..shards as u64).map(|k| RESUMED + k).collect());
        let mut publishers = Vec::new();
        let mut stores: Vec<Arc<dyn EventStore>> = Vec::new();
        let mut lanes = Vec::new();
        for k in 0..shards {
            let store: Arc<dyn EventStore> = Arc::new(MemStore::new());
            let events: Vec<StandardEvent> = (1..=(BATCH * BATCHES) as u64)
                .map(|i| {
                    let dir = if i % 2 == 1 { "keep" } else { "drop" };
                    let mut e = ev(EventKind::Create, &format!("/{dir}/s{k}-{i}"), 0);
                    e.mdt_index = Some(k as u16);
                    e.timestamp_ns = i * 1000 + k as u64;
                    e
                })
                .collect();
            store.append_batch(&events).unwrap();
            let endpoint = format!("inproc://conformance-{k}");
            let publisher = Arc::new(ctx.publisher());
            publisher.bind(&endpoint).unwrap();
            let lane = match shape {
                Shape::Unfiltered => {
                    let filter = EventFilter::subtree("/keep");
                    Consumer::connect(&ctx, &endpoint, filter, Some(store.clone())).unwrap()
                }
                Shape::PushdownSocket => {
                    Consumer::connect_class(&ctx, &endpoint, &spec, store.clone(), "conformance")
                        .unwrap()
                }
                Shape::PushdownRing => {
                    let cursor = publisher.subscribe_class(&spec.canonical());
                    Consumer::attach_ring(cursor, &spec, store.clone(), "conformance")
                }
            };
            if fault == Fault::Resume {
                lane.resume_from(resume.get(k));
            }
            lanes.push(lane);
            publishers.push(publisher);
            stores.push(store);
        }
        let mut federation = match shape {
            Shape::Unfiltered => Federation::Unfiltered(FederatedConsumer::from_parts(
                lanes.into_iter().map(Arc::new).collect(),
            )),
            _ => Federation::Pushdown(FederatedFilteredConsumer::from_lanes(lanes, &spec)),
        };
        let script: &[usize] = match fault {
            Fault::LostFrame => &[0, 2, 3],
            Fault::Republish => &[0, 1, 0, 1, 2, 3],
            Fault::LostTail => &[0, 1],
            Fault::Resume => &[1, 2, 3],
        };
        for (publisher, store) in publishers.iter().zip(&stores) {
            let stamped = store.get_since(0, BATCH * BATCHES).unwrap();
            let mut engine = FanoutEngine::new(publisher.clone());
            for &b in script {
                let batch = &stamped[b * BATCH..(b + 1) * BATCH];
                let (mut buf, mut offsets) = (BytesMut::new(), Vec::new());
                encode_event_batch_offsets(batch, &mut buf, &mut offsets);
                let frame = buf.freeze();
                engine.fan_out(batch, &offsets, &frame);
                let topic = bytes::Bytes::from_static(b"events");
                publisher
                    .send(Message::from_parts(vec![topic, frame]))
                    .unwrap();
            }
        }
        let mut delivered = federation.take();
        delivered.extend(federation.catch_up());
        let keys = delivered
            .iter()
            .map(|e| (e.mdt_index.unwrap() as usize, e.id))
            .collect();
        (keys, federation.stats())
    }

    /// Every consumer shape — unfiltered, pushdown over a socket,
    /// pushdown over the ring — at K=1 and K=2, under each scripted
    /// fault, delivers exactly the linear replay of its shards' stores
    /// through its predicate, once each, and reports the recovery it
    /// did in the one stats struct.
    #[test]
    fn every_consumer_shape_delivers_the_store_replay_exactly_once() {
        for shape in [
            Shape::Unfiltered,
            Shape::PushdownSocket,
            Shape::PushdownRing,
        ] {
            for shards in [1, 2] {
                for fault in [
                    Fault::LostFrame,
                    Fault::Republish,
                    Fault::LostTail,
                    Fault::Resume,
                ] {
                    let case = format!("{shape:?} K={shards} {fault:?}");
                    let (mut got, stats) = run(shape, shards, fault);
                    // In id order within each shard, healed events
                    // included, hence also at most once.
                    for k in 0..shards {
                        let ids: Vec<u64> = got.iter().filter(|e| e.0 == k).map(|e| e.1).collect();
                        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{case}: {ids:?}");
                    }
                    got.sort_unstable();
                    let want: Vec<(usize, u64)> = (0..shards)
                        .flat_map(|k| {
                            let since = if fault == Fault::Resume {
                                RESUMED + k as u64
                            } else {
                                0
                            };
                            (since + 1..=(BATCH * BATCHES) as u64)
                                .filter(|id| id % 2 == 1)
                                .map(move |id| (k, id))
                        })
                        .collect();
                    assert_eq!(got, want, "{case}: deliveries");
                    // Per shard: (frames, duplicates, gaps, healed).
                    let (frames, duplicates, gaps, healed) = match fault {
                        Fault::LostFrame => (3, 0, 1, 3),
                        // Ids 1, 3 and 5 are kept and published twice.
                        Fault::Republish => (6, 3, 0, 0),
                        Fault::LostTail => (2, 0, 0, 6),
                        // Kept id 5 is at or below every shard's cursor.
                        Fault::Resume => (3, 1, 0, 0),
                    };
                    let k = shards as u64;
                    let expected = ConsumerRecoveryStats {
                        delivered: want.len() as u64,
                        frames: frames * k,
                        duplicates_dropped: duplicates * k,
                        gaps_detected: gaps * k,
                        gap_events_healed: healed * k,
                        ..ConsumerRecoveryStats::default()
                    };
                    assert_eq!(stats, expected, "{case}: stats");
                }
            }
        }
    }
}
