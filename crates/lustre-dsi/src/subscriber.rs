//! The pushdown federation: the consumer side of server-side filter
//! pushdown.
//!
//! A [`FederatedFilteredConsumer`] registers one [`FilterSpec`] with
//! every aggregator shard and from then on receives only its class's
//! subset frames (see [`crate::fanout`]): the aggregator never sends it
//! an event outside its predicate, and matching cost is shared with
//! every other subscriber of the same class. Its lanes are
//! [`Consumer`] lanes of one of two sources:
//!
//! * a socket ([`connect`](FederatedFilteredConsumer::connect)), over
//!   `inproc://` or `tcp://` — what `fsmon watch --filter` and the
//!   chaos harness use;
//! * the publisher's broadcast ring, in-process
//!   ([`ScalableMonitor::subscribe_filtered`](crate::ScalableMonitor::subscribe_filtered))
//!   — the cheapest consumer there is: thousands of them cost the
//!   publisher one ring write per class.
//!
//! Every class frame carries its batch's full id range, and an empty
//! subset still ships, so the lane's heal core sees every loss as a
//! gap and heals it from the store through the class's own predicate;
//! re-publications are dropped. Each subscriber sees its subset exactly
//! once without ever being force-disconnected.

use crate::consumer::{merged, Consumer, ConsumerRecoveryStats};
use fsmon_core::ShardMerger;
use fsmon_events::StandardEvent;
use fsmon_mq::{ArrivalSignal, Context};
use fsmon_rules::FilterSpec;
use fsmon_store::EventStore;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often [`recv_for`](FederatedFilteredConsumer::recv_for) looks at
/// ring lanes again: a ring has no arrival signal to wake it.
const RING_POLL: Duration = Duration::from_millis(1);

/// One pushdown lane per aggregator shard behind one merged stream
/// (K=1 included). See module docs.
pub struct FederatedFilteredConsumer {
    lanes: Vec<Consumer>,
    merger: ShardMerger,
    arrivals: Arc<ArrivalSignal>,
    /// Longest single wait in `recv_for`: unbounded for socket lanes,
    /// which bump `arrivals`, [`RING_POLL`] for ring lanes.
    wait_cap: Duration,
    class_key: String,
}

/// The in-process (ring) flavour's former name; the same type.
pub type FederatedFilteredSubscriber = FederatedFilteredConsumer;

impl FederatedFilteredConsumer {
    /// Connect one pushdown lane per shard endpoint, pushing `spec`
    /// down to each; lane `k` heals from `stores[k]`. `name` labels the
    /// lanes' telemetry.
    ///
    /// On either transport the class is registered with the publisher
    /// when this returns (over TCP the `CTRL_FILTER` control frame is
    /// acknowledged), so batches sequenced from then on produce class
    /// frames for this subscriber. What was sequenced earlier is not
    /// lost: a pushdown lane starts at id 0, so
    /// [`catch_up`](FederatedFilteredConsumer::catch_up) recovers the
    /// entire filtered prefix from the store.
    pub fn connect(
        ctx: &Context,
        endpoints: &[String],
        stores: &[Arc<dyn EventStore>],
        spec: &FilterSpec,
        name: &str,
    ) -> Result<FederatedFilteredConsumer, fsmon_mq::MqError> {
        let lanes = endpoints
            .iter()
            .zip(stores)
            .map(|(endpoint, store)| {
                Consumer::connect_class(ctx, endpoint, spec, store.clone(), name)
            })
            .collect::<Result<_, _>>()?;
        Ok(Self::from_lanes(lanes, spec))
    }

    /// Federate pushdown lanes of `spec`'s class, all sockets or all
    /// rings.
    pub(crate) fn from_lanes(lanes: Vec<Consumer>, spec: &FilterSpec) -> FederatedFilteredConsumer {
        let arrivals = Arc::new(ArrivalSignal::new());
        let signalled = lanes.iter().all(|l| l.notify_arrivals(arrivals.clone()));
        FederatedFilteredConsumer {
            lanes,
            merger: ShardMerger::new(),
            arrivals,
            wait_cap: if signalled { Duration::MAX } else { RING_POLL },
            class_key: spec.canonical(),
        }
    }

    /// The canonical filter-class key this subscriber rides on.
    pub fn class_key(&self) -> &str {
        &self.class_key
    }

    /// Integrate whatever has already arrived on every lane, merged.
    /// Never blocks.
    pub fn poll(&mut self) -> Vec<StandardEvent> {
        merged(self.lanes.iter(), &mut self.merger, Consumer::poll)
    }

    /// Wait until at least one subset event arrives or `window`
    /// elapses, and return what arrived.
    pub fn recv_for(&mut self, window: Duration) -> Vec<StandardEvent> {
        let deadline = Instant::now() + window;
        loop {
            let seen = self.arrivals.epoch();
            let out = self.poll();
            let left = deadline.saturating_duration_since(Instant::now());
            if !out.is_empty() || left.is_zero() {
                return out;
            }
            self.arrivals.wait_past(seen, left.min(self.wait_cap));
        }
    }

    /// Heal every lane's recorded gaps and pull each store's tail past
    /// the lane's watermark, merged.
    pub fn catch_up(&mut self) -> Vec<StandardEvent> {
        merged(self.lanes.iter(), &mut self.merger, |lane, out| {
            lane.catch_up(out);
        })
    }

    /// Delivery and recovery counters summed across lanes.
    pub fn stats(&self) -> ConsumerRecoveryStats {
        self.lanes.iter().map(Consumer::stats).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::{ClassMeta, CLASS_TOPIC};
    use fsmon_events::EventKind;
    use fsmon_mq::Message;
    use fsmon_store::MemStore;

    fn ev(id: u64, path: &str) -> StandardEvent {
        let mut ev = StandardEvent::new(EventKind::Create, "/r", path);
        ev.id = id;
        ev
    }

    /// A pushdown lane of class `/keep` over a publisher's ring, fed
    /// frames by hand.
    struct Harness {
        publisher: fsmon_mq::PubSocket,
        lane: Consumer,
    }

    fn lane(store: &Arc<MemStore>) -> Harness {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://subscriber-test").unwrap();
        let spec = FilterSpec::subtree("/keep");
        let cursor = publisher.subscribe_class(&spec.canonical());
        let lane =
            Consumer::attach_ring(cursor, &spec, store.clone() as Arc<dyn EventStore>, "test");
        Harness { publisher, lane }
    }

    impl Harness {
        /// Publish one class frame with an explicit sequence and range,
        /// and integrate it.
        fn frame(
            &self,
            class_seq: u64,
            first_id: u64,
            last_id: u64,
            subset: &[StandardEvent],
        ) -> Vec<StandardEvent> {
            let meta = ClassMeta {
                class_seq,
                first_id,
                last_id,
            };
            let class = self
                .publisher
                .filter_class(&FilterSpec::subtree("/keep").canonical());
            class.publish_with(|_| {
                Message::from_parts(vec![
                    bytes::Bytes::from_static(CLASS_TOPIC),
                    meta.encode(),
                    fsmon_events::encode_event_batch(subset),
                ])
            });
            let mut out = Vec::new();
            self.lane.poll(&mut out);
            out
        }
    }

    #[test]
    fn contiguous_frames_deliver_without_healing() {
        let store = Arc::new(MemStore::new());
        let h = lane(&store);
        let mut out = h.frame(0, 1, 3, &[ev(2, "/keep/a")]);
        out.extend(h.frame(1, 4, 5, &[ev(5, "/keep/b")]));
        assert_eq!(out.len(), 2);
        assert_eq!(h.lane.stats().gaps_detected, 0);
        assert_eq!(h.lane.watermark(), 5);
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
        let h = lane(&store);
        let out = h.frame(7, 5, 6, &[ev(5, "/keep/live")]);
        let paths: Vec<&str> = out.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, ["/keep/lost", "/keep/lost2", "/keep/live"]);
        let stats = h.lane.stats();
        assert_eq!(stats.gaps_detected, 1);
        assert_eq!(
            stats.gap_events_healed, 4,
            "heals the range, filter trims it"
        );
        // Nothing is left recorded missing, and the store has no tail.
        assert_eq!(h.lane.catch_up(&mut Vec::new()), 0);
    }

    #[test]
    fn republished_ids_are_dropped_exactly_once() {
        let store = Arc::new(MemStore::new());
        let h = lane(&store);
        let mut out = h.frame(0, 1, 2, &[ev(1, "/keep/a")]);
        // A restarted aggregator re-publishes the same stamped range.
        out.extend(h.frame(1, 1, 2, &[ev(1, "/keep/a")]));
        assert_eq!(out.len(), 1);
        assert_eq!(h.lane.stats().frames, 2);
    }

    #[test]
    fn empty_watermark_frames_advance_without_delivering() {
        let store = Arc::new(MemStore::new());
        let h = lane(&store);
        assert!(h.frame(0, 1, 8, &[]).is_empty());
        assert_eq!(h.lane.watermark(), 8);
        // The next frame is contiguous — no spurious gap.
        let out = h.frame(1, 9, 9, &[ev(9, "/keep/x")]);
        assert_eq!(h.lane.stats().gaps_detected, 0);
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
        let h = lane(&store);
        let mut out = h.frame(0, 1, 1, &[]);
        out.extend(h.frame(3, 3, 3, &[]));
        assert_eq!(h.lane.stats().frames_lost, 2);
        assert_eq!(out.len(), 1, "the id gap behind the lost frames heals");
        assert_eq!(out[0].path, "/keep/skipped");
    }

    #[test]
    fn catch_up_recovers_a_lost_tail_through_the_filter() {
        let store = Arc::new(MemStore::new());
        let h = lane(&store);
        h.frame(0, 1, 1, &[ev(1, "/keep/a")]);
        // Dense store sequences: filler occupies id 1, the tail is 2..3.
        store
            .append_batch(&[ev(0, "/keep/a"), ev(0, "/keep/tail"), ev(0, "/other/tail")])
            .unwrap();
        let mut out = Vec::new();
        h.lane.catch_up(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].path, "/keep/tail");
        assert_eq!(h.lane.watermark(), 3);
    }
}
