//! The consumer: client-side subscription with filtering and replay.
//!
//! "Whenever a new event arrives to the consumer it filters the events
//! and only passes on events related to those files and directories
//! requested by the application. This filtering of events is not done
//! at the aggregator in order to alleviate potential overheads if a
//! large number of consumers were to ask to monitor different files and
//! directories" (§IV Consumption).

use fsmon_core::EventFilter;
use fsmon_events::wire::{find_tlv, TLV_TRACE};
use fsmon_events::{decode_event_batch, EventId, StandardEvent};
use fsmon_faults::Retry;
use fsmon_mq::{Context, Message, SubSocket};
use fsmon_store::EventStore;
use fsmon_telemetry::{trace, TraceRecord, TraceStage, Tracer};
use parking_lot::Mutex;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Duplicate/gap/reconnect counters — the consumer's view of how much
/// recovery machinery fired beneath it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConsumerRecoveryStats {
    /// Events dropped because their id was already seen.
    pub duplicates_dropped: u64,
    /// Sequence-id gaps observed in the live stream.
    pub gaps_detected: u64,
    /// Events recovered from the reliable store to fill gaps.
    pub gap_events_healed: u64,
    /// Successful reconnects after a broken aggregator link.
    pub reconnects: u64,
    /// Blocking waits for the live stream that ran out their budget
    /// with nothing to deliver. A consumer that is being fed is woken
    /// by arrivals and counts none.
    pub wait_timeouts: u64,
}

/// A consumer attached to the aggregator.
pub struct Consumer {
    sub: SubSocket,
    filter: Mutex<EventFilter>,
    store: Option<Arc<dyn EventStore>>,
    pending: Mutex<VecDeque<StandardEvent>>,
    /// Ids known missing (seen a later id live, not yet healed).
    missing: Mutex<BTreeSet<EventId>>,
    retry: Retry,
    /// Stamps the deliver stage on arriving trace records and folds
    /// completed traces into the latency histograms. Disabled unless
    /// set by [`connect_traced`](Consumer::connect_traced).
    tracer: Tracer,
    /// Events accepted by the filter.
    accepted: AtomicU64,
    /// Events discarded by the filter.
    filtered_out: AtomicU64,
    /// Highest event id seen (resume point after a fault).
    last_seen: AtomicU64,
    duplicates_dropped: AtomicU64,
    gaps_detected: AtomicU64,
    gap_events_healed: AtomicU64,
    reconnects: AtomicU64,
    wait_timeouts: AtomicU64,
    t_delivered: Arc<fsmon_telemetry::Counter>,
    t_filtered: Arc<fsmon_telemetry::Counter>,
    t_duplicates: Arc<fsmon_telemetry::Counter>,
    t_gaps: Arc<fsmon_telemetry::Counter>,
    t_healed: Arc<fsmon_telemetry::Counter>,
    t_reconnects: Arc<fsmon_telemetry::Counter>,
    t_wait_timeouts: Arc<fsmon_telemetry::Counter>,
}

impl Consumer {
    /// Connect to the aggregator at `endpoint`. `store` enables the
    /// historic-replay API (`None` for stateless consumers). Counters
    /// carry the label set `{consumer="main"}`; use
    /// [`connect_named`](Consumer::connect_named) to tell multiple
    /// consumers apart in `fsmon stats` output.
    pub fn connect(
        ctx: &Context,
        endpoint: &str,
        filter: EventFilter,
        store: Option<Arc<dyn EventStore>>,
    ) -> Result<Consumer, fsmon_mq::MqError> {
        Self::connect_named(ctx, endpoint, filter, store, "main")
    }

    /// [`connect`](Consumer::connect) with an explicit consumer name:
    /// every counter this consumer reports carries the label
    /// `consumer=<name>`, so per-consumer delivery/filtering is visible
    /// in snapshots while `Snapshot::counter` still sums the total.
    pub fn connect_named(
        ctx: &Context,
        endpoint: &str,
        filter: EventFilter,
        store: Option<Arc<dyn EventStore>>,
        name: &str,
    ) -> Result<Consumer, fsmon_mq::MqError> {
        Self::connect_traced(ctx, endpoint, filter, store, name, Tracer::disabled())
    }

    /// [`connect_named`](Consumer::connect_named) with a [`Tracer`]:
    /// trace records arriving behind event frames get their deliver
    /// stage stamped with the tracer's clock, completing the end-to-end
    /// trace, and are folded into the per-stage/per-MDT latency
    /// histograms (and the worst-case exemplar).
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
        // Same instruments the core interface layer's fan-out reports
        // into: "consumer delivered" means the same thing in both
        // pipelines.
        let scope = fsmon_telemetry::root()
            .scope("consumer")
            .with_label("consumer", name);
        Ok(Consumer {
            sub,
            filter: Mutex::new(filter),
            store,
            pending: Mutex::new(VecDeque::new()),
            missing: Mutex::new(BTreeSet::new()),
            retry: Retry::fast(),
            tracer,
            accepted: AtomicU64::new(0),
            filtered_out: AtomicU64::new(0),
            last_seen: AtomicU64::new(0),
            duplicates_dropped: AtomicU64::new(0),
            gaps_detected: AtomicU64::new(0),
            gap_events_healed: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            wait_timeouts: AtomicU64::new(0),
            t_delivered: scope.counter("delivered_total"),
            t_filtered: scope.counter("filtered_total"),
            t_duplicates: scope.counter("duplicates_dropped_total"),
            t_gaps: scope.counter("gaps_detected_total"),
            t_healed: scope.counter("gap_events_healed_total"),
            t_reconnects: scope.counter("reconnects_total"),
            t_wait_timeouts: scope.counter("wait_timeouts_total"),
        })
    }

    /// Change the subscription filter (the paper's recursive monitoring
    /// is "just modifying the filtering rule", §V-C1).
    pub fn set_filter(&self, filter: EventFilter) {
        *self.filter.lock() = filter;
    }

    /// `(accepted, filtered_out)` so far.
    pub fn filter_stats(&self) -> (u64, u64) {
        (
            self.accepted.load(Ordering::Relaxed),
            self.filtered_out.load(Ordering::Relaxed),
        )
    }

    /// Highest event id this consumer has observed.
    pub fn last_seen(&self) -> EventId {
        self.last_seen.load(Ordering::Relaxed)
    }

    /// Treat everything up to `cursor` as already seen — the resume
    /// point when a federated consumer is rebuilt from a persisted
    /// vector watermark ([`catch_up`](Consumer::catch_up) then replays
    /// exactly the store's suffix past the cursor). Never regresses:
    /// resuming below the current position is a no-op, so a stale
    /// cursor cannot re-deliver events this incarnation already saw.
    pub fn resume_from(&self, cursor: EventId) {
        self.last_seen.fetch_max(cursor, Ordering::Relaxed);
    }

    /// Duplicate/gap/reconnect counters so far.
    pub fn recovery_stats(&self) -> ConsumerRecoveryStats {
        ConsumerRecoveryStats {
            duplicates_dropped: self.duplicates_dropped.load(Ordering::Relaxed),
            gaps_detected: self.gaps_detected.load(Ordering::Relaxed),
            gap_events_healed: self.gap_events_healed.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            wait_timeouts: self.wait_timeouts.load(Ordering::Relaxed),
        }
    }

    /// Bump `signal` whenever a frame arrives on this consumer's
    /// socket, so a federation of consumers can sleep on all of its
    /// lanes at once. `false` if this consumer already reports to
    /// another signal.
    pub(crate) fn notify_arrivals(&self, signal: Arc<fsmon_mq::ArrivalSignal>) -> bool {
        self.sub.notify_arrivals(signal)
    }

    /// Count one blocking wait that ran out its budget empty-handed.
    pub(crate) fn note_wait_timeout(&self) {
        self.wait_timeouts.fetch_add(1, Ordering::Relaxed);
        self.t_wait_timeouts.inc();
    }

    fn ingest(&self, events: Vec<StandardEvent>) {
        for ev in events {
            self.ingest_live(ev);
        }
    }

    /// Decode one live frame into the pending queue, completing any
    /// trace records riding behind it.
    fn ingest_frame(&self, msg: &Message) {
        if let Some(payload) = msg.part_bytes(1) {
            if let Ok(events) = decode_event_batch(&payload) {
                self.fold_traces(msg.part(2));
                self.ingest(events);
            }
        }
    }

    /// Terminal trace stage: stamp `deliver` on each record arriving in
    /// the frame's trace part and fold the completed trace into the
    /// per-stage/per-MDT latency histograms and the exemplar. Requires
    /// a tracer (its clock must match the stamps upstream stages used).
    fn fold_traces(&self, frame: Option<&[u8]>) {
        if !self.tracer.enabled() {
            return;
        }
        let Some(records) = frame
            .and_then(|f| find_tlv(f, TLV_TRACE).ok().flatten())
            .and_then(TraceRecord::decode_all)
        else {
            return;
        };
        let deliver_ns = self.tracer.now_ns();
        for mut rec in records {
            rec.stamp(TraceStage::Deliver, deliver_ns);
            trace::fold_delivered(&rec);
        }
    }

    /// Take one event from the live stream: drop duplicates (an
    /// at-least-once upstream may re-deliver after a restart), note and
    /// heal sequence gaps (events published while this consumer was
    /// disconnected), then filter.
    fn ingest_live(&self, ev: StandardEvent) {
        if ev.id > 0 {
            let last = self.last_seen.load(Ordering::Relaxed);
            if ev.id <= last {
                self.duplicates_dropped.fetch_add(1, Ordering::Relaxed);
                self.t_duplicates.inc();
                return;
            }
            if last > 0 && ev.id > last + 1 {
                // Heal before pushing `ev` so recovered events keep
                // stream order in the pending queue.
                self.note_gap(last + 1, ev.id - 1);
            }
            self.last_seen.fetch_max(ev.id, Ordering::Relaxed);
        }
        self.deliver(ev);
    }

    /// Filter one event into the pending queue (or the filtered count).
    fn deliver(&self, ev: StandardEvent) {
        let matches = self.filter.lock().matches(&ev);
        if matches {
            self.accepted.fetch_add(1, Ordering::Relaxed);
            self.t_delivered.inc();
            self.pending.lock().push_back(ev);
        } else {
            self.filtered_out.fetch_add(1, Ordering::Relaxed);
            self.t_filtered.inc();
        }
    }

    /// Record ids `from..=to` as missing and try to heal them from the
    /// reliable store right away.
    fn note_gap(&self, from: EventId, to: EventId) {
        self.gaps_detected.fetch_add(1, Ordering::Relaxed);
        self.t_gaps.inc();
        self.missing.lock().extend(from..=to);
        self.heal_missing();
    }

    /// Fetch known-missing events from the reliable store, retrying
    /// briefly (the aggregator's store lane may run behind its publish
    /// lane). Healed events flow through the normal filter path and are
    /// counted as `gap_events_healed`. Ids the store still cannot
    /// produce stay recorded; [`catch_up`](Consumer::catch_up) retries
    /// them later. Returns the number of events healed by this call.
    pub fn heal_missing(&self) -> usize {
        let Some(store) = &self.store else {
            return 0;
        };
        let mut healed = 0usize;
        let mut backoff = self.retry.backoff();
        loop {
            let (lo, hi, want) = {
                let missing = self.missing.lock();
                match (missing.first(), missing.last()) {
                    (Some(&lo), Some(&hi)) => (lo, hi, missing.len()),
                    _ => break,
                }
            };
            let span = (hi - lo + 1) as usize;
            let fetched = store.get_since(lo - 1, span).unwrap_or_default();
            let mut recovered = Vec::new();
            {
                let mut missing = self.missing.lock();
                for ev in fetched {
                    if ev.id > hi {
                        break;
                    }
                    if missing.remove(&ev.id) {
                        recovered.push(ev);
                    }
                }
            }
            for ev in recovered {
                self.gap_events_healed.fetch_add(1, Ordering::Relaxed);
                self.t_healed.inc();
                self.deliver(ev);
                healed += 1;
            }
            if self.missing.lock().len() < want {
                // Progress — reset the clock before the next round.
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

    /// Recover everything this consumer can still be missing: heal
    /// recorded gaps, then pull any events the store holds beyond the
    /// highest id seen live (a tail lost to a disconnect has no later
    /// event to reveal it as a gap). Returns the number of events
    /// recovered.
    pub fn catch_up(&self) -> usize {
        let mut recovered = self.heal_missing();
        let Some(store) = &self.store else {
            return recovered;
        };
        loop {
            let since = self.last_seen.load(Ordering::Relaxed);
            let tail = match store.get_since(since, 4096) {
                Ok(tail) if tail.is_empty() => break,
                Ok(tail) => tail,
                Err(_) => break,
            };
            for ev in tail {
                if ev.id > 0 && ev.id <= self.last_seen.load(Ordering::Relaxed) {
                    continue;
                }
                self.last_seen.fetch_max(ev.id, Ordering::Relaxed);
                self.gap_events_healed.fetch_add(1, Ordering::Relaxed);
                self.t_healed.inc();
                self.deliver(ev);
                recovered += 1;
            }
        }
        recovered
    }

    /// Re-dial the aggregator after a broken link, with backoff. Any
    /// events missed while down surface as a sequence gap (healed from
    /// the store) or via [`catch_up`](Consumer::catch_up).
    fn try_reconnect(&self) {
        let mut backoff = self.retry.backoff();
        loop {
            if let Ok(n) = self.sub.reconnect() {
                if !self.sub.disconnected() {
                    if n > 0 {
                        self.reconnects.fetch_add(n as u64, Ordering::Relaxed);
                        self.t_reconnects.add(n as u64);
                    }
                    return;
                }
            }
            match backoff.next() {
                Some(sleep) => std::thread::sleep(sleep),
                None => return,
            }
        }
    }

    /// Drain the socket into the pending queue. Returns as soon as at
    /// least one *filter-matching* event is pending (callers waiting in
    /// `recv` must not sleep out their full timeout once the event has
    /// arrived), when the socket goes quiet, or at the deadline.
    fn pump_socket(&self, budget: Duration) {
        if self.sub.disconnected() {
            self.try_reconnect();
        }
        let deadline = Instant::now() + budget;
        loop {
            let msg = match self.sub.try_recv() {
                Some(msg) => Some(msg),
                None => {
                    if !self.pending.lock().is_empty() || Instant::now() >= deadline {
                        return;
                    }
                    self.sub.recv_timeout(deadline - Instant::now()).ok()
                }
            };
            let Some(msg) = msg else {
                self.note_wait_timeout();
                return;
            };
            self.ingest_frame(&msg);
            if !self.pending.lock().is_empty() {
                // Sweep whatever else is already queued, then hand back.
                while let Some(extra) = self.sub.try_recv() {
                    self.ingest_frame(&extra);
                }
                return;
            }
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    /// Receive one filtered event, waiting up to `timeout`.
    pub fn recv(&self, timeout: Duration) -> Option<StandardEvent> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(ev) = self.pending.lock().pop_front() {
                return Some(ev);
            }
            if Instant::now() >= deadline {
                return None;
            }
            self.pump_socket(deadline - Instant::now());
            if self.pending.lock().is_empty() && Instant::now() >= deadline {
                return None;
            }
        }
    }

    /// Receive up to `max` filtered events, waiting up to `timeout`
    /// for the first.
    pub fn recv_batch(&self, max: usize, timeout: Duration) -> Vec<StandardEvent> {
        let mut out = Vec::new();
        if let Some(first) = self.recv(timeout) {
            out.push(first);
        } else {
            return out;
        }
        self.pump_socket(Duration::from_millis(1));
        let mut pending = self.pending.lock();
        while out.len() < max {
            match pending.pop_front() {
                Some(ev) => out.push(ev),
                None => break,
            }
        }
        out
    }

    /// Drain everything currently buffered (no waiting beyond a single
    /// socket sweep).
    pub fn drain(&self) -> Vec<StandardEvent> {
        self.take_pending(Duration::from_millis(1))
    }

    /// [`drain`](Consumer::drain) that never waits: whatever has
    /// already arrived.
    pub(crate) fn poll(&self) -> Vec<StandardEvent> {
        self.take_pending(Duration::ZERO)
    }

    fn take_pending(&self, budget: Duration) -> Vec<StandardEvent> {
        self.pump_socket(budget);
        self.pending.lock().drain(..).collect()
    }

    /// Replay historic events with id greater than `since` from the
    /// reliable store — the fault-recovery path ("the consumer service
    /// is also responsible for retrieving the historic events … in the
    /// situation that a consumer has failed", §IV Consumption). Replayed
    /// events pass through the same filter.
    pub fn replay_since(
        &self,
        since: EventId,
        max: usize,
    ) -> Result<Vec<StandardEvent>, fsmon_store::StoreError> {
        let Some(store) = &self.store else {
            return Ok(Vec::new());
        };
        let filter = self.filter.lock().clone();
        let events = store.get_since(since, max)?;
        Ok(events.into_iter().filter(|e| filter.matches(e)).collect())
    }

    /// Flag replayed events as reported so the next purge cycle can
    /// remove them.
    pub fn ack(&self, up_to: EventId) -> Result<(), fsmon_store::StoreError> {
        if let Some(store) = &self.store {
            store.mark_reported(up_to)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmon_events::{encode_event_batch, EventKind};
    use fsmon_mq::Message;
    use fsmon_store::{EventStore, MemStore};

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

    #[test]
    fn filtering_happens_client_side() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://agg").unwrap();
        let consumer =
            Consumer::connect(&ctx, "inproc://agg", EventFilter::subtree("/keep"), None).unwrap();
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
        let (accepted, dropped) = consumer.filter_stats();
        assert_eq!((accepted, dropped), (2, 1));
        assert_eq!(consumer.last_seen(), 3);
    }

    #[test]
    fn recv_times_out_when_silent() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://agg").unwrap();
        let consumer = Consumer::connect(&ctx, "inproc://agg", EventFilter::all(), None).unwrap();
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
        let consumer = Consumer::connect(
            &ctx,
            "inproc://agg",
            EventFilter::subtree("/keep"),
            Some(store.clone()),
        )
        .unwrap();
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
        let consumer = Consumer::connect(&ctx, "inproc://agg", EventFilter::all(), None).unwrap();
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
        let consumer = Consumer::connect(
            &ctx,
            "inproc://agg",
            EventFilter::all(),
            Some(store.clone()),
        )
        .unwrap();
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
        let consumer = Consumer::connect(
            &ctx,
            "inproc://agg",
            EventFilter::all(),
            Some(store.clone()),
        )
        .unwrap();
        // Only the first event arrives live; the tail has no later
        // event to reveal it as a gap.
        publish(&publisher, &[ev(EventKind::Create, "/a", 1)]);
        assert_eq!(consumer.recv_batch(10, Duration::from_secs(2)).len(), 1);
        assert_eq!(consumer.catch_up(), 2);
        let ids: Vec<u64> = consumer.drain().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(consumer.last_seen(), 3);
    }

    #[test]
    fn set_filter_applies_to_subsequent_events() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://agg").unwrap();
        let consumer = Consumer::connect(&ctx, "inproc://agg", EventFilter::all(), None).unwrap();
        publish(&publisher, &[ev(EventKind::Create, "/x", 1)]);
        assert!(consumer.recv(Duration::from_secs(1)).is_some());
        consumer.set_filter(EventFilter::subtree("/nope"));
        publish(&publisher, &[ev(EventKind::Create, "/x", 2)]);
        assert!(consumer.recv(Duration::from_millis(100)).is_none());
    }
}
