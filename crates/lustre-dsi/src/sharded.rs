//! The sharded aggregator tier and its federation layer.
//!
//! One aggregator is the paper's MGS singleton — and past a few
//! hundred thousand events per second its single sequencer and single
//! store lane become the serial point the rest of the pipeline queues
//! behind. [`ShardedAggregator`] removes it: MDTs are partitioned
//! `mdt % K` across K full aggregator pipelines (each with its own
//! demux, publish lanes, sequencer, and group-commit store), so K
//! sequencers stamp and K store lanes commit concurrently. Each shard
//! stamps its *own* dense id stream over its own store — exactly-once
//! is a per-shard contract, and a shard crash or restart is invisible
//! to the other shards.
//!
//! What clients lose is the single global cursor; the federation layer
//! gives back the next best thing:
//!
//! * [`FederatedConsumer`] — one [`Consumer`] lane per shard behind
//!   the classic consumer API, merging shard streams with a bounded-
//!   reordering [`ShardMerger`] and tracking a [`VectorWatermark`]
//!   (per-shard cursor) instead of one id. `catch_up` heals every lane
//!   against its own shard store; resuming from a persisted vector
//!   replays exactly the union of each shard's linear suffix.
//! * [`FederatedFilteredSubscriber`] / [`FederatedFilteredConsumer`] —
//!   server-side filter pushdown per shard: each shard's
//!   [`FanoutEngine`](crate::fanout::FanoutEngine) runs over its own
//!   dense id stream, so the watermark invariant (`first_id >
//!   watermark + 1` ⇒ heal) stays per-shard-exact.
//!
//! With K=1 every wrapper degenerates to an exact passthrough — same
//! ordering, same telemetry labels, same wire frames — so the sharded
//! tier is strictly additive.

use crate::aggregator::Aggregator;
use crate::consumer::{Consumer, ConsumerRecoveryStats};
use crate::subscriber::{FilteredConsumer, FilteredStats, FilteredSubscriber};
use fsmon_core::{shard_of, EventFilter, ShardMerger, VectorWatermark};
use fsmon_events::{EventId, StandardEvent};
use fsmon_faults::{Faults, Retry};
use fsmon_mq::{ArrivalSignal, ClassStats, Context};
use fsmon_store::EventStore;
use fsmon_telemetry::{Snapshot, Tracer};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything [`ShardedAggregator::start`] needs beyond the context.
pub struct ShardPlan {
    /// Collector endpoint per MDT index; MDT `i` is owned by shard
    /// `i % K`.
    pub collector_endpoints: Vec<String>,
    /// Consumer-facing endpoint per shard (one PUB bind each).
    pub consumer_endpoints: Vec<String>,
    /// Reliable store per shard — each shard's dense id stream lives
    /// in its own store. `stores.len()` *is* K.
    pub stores: Vec<Arc<dyn EventStore>>,
    /// Fault plane armed on each shard's consumer link and store lane.
    pub faults: Faults,
    /// Store-lane retry policy.
    pub retry: Retry,
    /// Publish-side worker lanes per shard.
    pub publish_lanes: usize,
    /// Pipeline tracer (shared clock across shards).
    pub tracer: Tracer,
    /// Group-commit cap for each shard's store lane.
    pub store_group_max: usize,
}

/// K partitioned aggregator pipelines plus the tier-level API the
/// monitor drives them through. See module docs.
pub struct ShardedAggregator {
    shards: Vec<Arc<Aggregator>>,
}

impl ShardedAggregator {
    /// Start one aggregator pipeline per store in `plan`, shard `k`
    /// subscribing to the collector endpoints of the MDTs it owns
    /// (`mdt % K == k`). With K=1 the single shard runs unlabeled —
    /// telemetry and thread names are byte-identical to the unsharded
    /// tier.
    pub fn start(ctx: &Context, plan: ShardPlan) -> Result<ShardedAggregator, fsmon_mq::MqError> {
        let k = plan.stores.len().max(1);
        if plan.consumer_endpoints.len() != k {
            return Err(fsmon_mq::MqError::BindFailed(format!(
                "shard plan mismatch: {} stores but {} consumer endpoints",
                k,
                plan.consumer_endpoints.len()
            )));
        }
        let mut shards = Vec::with_capacity(k);
        for (shard, (store, endpoint)) in
            plan.stores.iter().zip(&plan.consumer_endpoints).enumerate()
        {
            let owned: Vec<String> = plan
                .collector_endpoints
                .iter()
                .enumerate()
                .filter(|(mdt, _)| shard_of(Some(*mdt as u16), k) == shard)
                .map(|(_, ep)| ep.clone())
                .collect();
            shards.push(Arc::new(Aggregator::start_shard(
                ctx,
                &owned,
                endpoint,
                store.clone(),
                plan.faults.clone(),
                plan.retry,
                plan.publish_lanes,
                plan.tracer.clone(),
                (k > 1).then_some(shard),
                plan.store_group_max,
            )?));
        }
        Ok(ShardedAggregator { shards })
    }

    /// Number of shards (K).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's pipeline.
    pub fn shard(&self, k: usize) -> &Arc<Aggregator> {
        &self.shards[k]
    }

    /// Subscribe the shard owning `mdt` to a fresh collector endpoint
    /// (supervisor restart path — the restarted collector must land on
    /// the shard that holds its topic's dedup highwater).
    pub fn attach_collector(&self, mdt: u16, endpoint: &str) -> Result<(), fsmon_mq::MqError> {
        self.shards[shard_of(Some(mdt), self.shards.len())].attach_collector(endpoint)
    }

    /// Respawn dead stages across every shard; total stages restarted.
    pub fn respawn_dead_lanes(&self) -> usize {
        self.shards.iter().map(|s| s.respawn_dead_lanes()).sum()
    }

    /// Whether every shard's publish side and store lane are alive.
    pub fn all_lanes_alive(&self) -> bool {
        self.shards.iter().all(|s| {
            let (publish, store) = s.lanes_alive();
            publish && store
        })
    }

    /// Tier totals (per-shard counters summed).
    pub fn stats(&self) -> crate::aggregator::AggregatorStats {
        let mut total = crate::aggregator::AggregatorStats::default();
        for s in &self.shards {
            let one = s.stats();
            total.received += one.received;
            total.published += one.published;
            total.stored += one.stored;
            total.decode_errors += one.decode_errors;
            total.dedup_dropped += one.dedup_dropped;
            total.lane_restarts += one.lane_restarts;
        }
        total
    }

    /// Per-shard counters, shard 0 first.
    pub fn shard_stats(&self) -> Vec<crate::aggregator::AggregatorStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Per-shard stores, shard 0 first.
    pub fn stores(&self) -> Vec<Arc<dyn EventStore>> {
        self.shards.iter().map(|s| s.store().clone()).collect()
    }

    /// Consumer endpoints, shard 0 first.
    pub fn consumer_endpoints(&self) -> Vec<String> {
        self.shards
            .iter()
            .map(|s| s.consumer_endpoint().to_string())
            .collect()
    }

    /// Register `spec`'s class with every shard's publisher and return
    /// a federated in-process subscriber over the per-shard cursors.
    pub fn subscribe_filtered(
        &self,
        spec: &fsmon_rules::FilterSpec,
        name: &str,
    ) -> FederatedFilteredSubscriber {
        FederatedFilteredSubscriber {
            lanes: self
                .shards
                .iter()
                .map(|s| s.subscribe_filtered(spec, name))
                .collect(),
            merger: ShardMerger::new(),
        }
    }

    /// Per-filter-class fan-out counters, merged across shards by
    /// class key: counts sum, `rate` (a per-class budget every shard
    /// enforces independently) keeps the common value.
    pub fn class_stats(&self) -> Vec<ClassStats> {
        if self.shards.len() == 1 {
            return self.shards[0].class_stats();
        }
        let mut merged: BTreeMap<String, ClassStats> = BTreeMap::new();
        for shard in &self.shards {
            for one in shard.class_stats() {
                match merged.get_mut(&one.key) {
                    Some(m) => {
                        m.consumers += one.consumers;
                        m.frames += one.frames;
                        m.queue_depth = m.queue_depth.max(one.queue_depth);
                        m.stalls += one.stalls;
                        m.degraded += one.degraded;
                        m.rate = m.rate.max(one.rate);
                        m.shed += one.shed;
                    }
                    None => {
                        merged.insert(one.key.clone(), one);
                    }
                }
            }
        }
        merged.into_values().collect()
    }

    /// Fleet view merged across every shard's collectors.
    pub fn fleet_snapshot(&self) -> Snapshot {
        let mut merged = Snapshot::default();
        for shard in &self.shards {
            let snap = shard.fleet_snapshot();
            merged.merge_fleet(&snap);
        }
        merged
    }

    /// Sources contributing to the fleet view, across shards.
    pub fn fleet_sources(&self) -> Vec<String> {
        let mut sources: Vec<String> = self.shards.iter().flat_map(|s| s.fleet_sources()).collect();
        sources.sort();
        sources.dedup();
        sources
    }

    /// Block until the tier has published `n` events in total, i.e.
    /// handed them to its consumer-facing sockets (an in-process
    /// consumer then has them queued). `received` runs ahead of this
    /// by whatever the sequencers still hold.
    pub fn wait_published(&self, n: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.stats().published >= n {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    /// Stop every shard's stages and join them.
    pub fn stop(&self) {
        for shard in &self.shards {
            shard.stop();
        }
    }
}

/// One consumer lane per shard behind the classic [`Consumer`] API.
/// See module docs for the ordering contract: per shard strict dense
/// id order, across shards timestamp order within a merge window.
pub struct FederatedConsumer {
    lanes: Vec<Arc<Consumer>>,
    merger: Mutex<ShardMerger>,
    pending: Mutex<VecDeque<StandardEvent>>,
    /// Bumped by every lane's socket when a frame arrives (K > 1): the
    /// one thing a federated `recv` sleeps on, whichever shard speaks
    /// next. A single lane blocks on its own socket instead.
    arrivals: Arc<ArrivalSignal>,
}

impl FederatedConsumer {
    /// Federate existing shard lanes (lane `k` must be connected to
    /// shard `k`'s endpoint and store). This is also the resume path:
    /// build the lanes, [`resume_from_vector`]
    /// ([`FederatedConsumer::resume_from_vector`]) with a persisted
    /// watermark, then [`catch_up`](FederatedConsumer::catch_up).
    ///
    /// # Panics
    ///
    /// If K > 1 and a lane already belongs to another federation: two
    /// federations draining one lane would split its stream.
    pub fn from_parts(lanes: Vec<Arc<Consumer>>) -> FederatedConsumer {
        let arrivals = Arc::new(ArrivalSignal::new());
        if lanes.len() > 1 {
            for lane in &lanes {
                assert!(
                    lane.notify_arrivals(arrivals.clone()),
                    "a consumer lane belongs to one federation"
                );
            }
        }
        FederatedConsumer {
            lanes,
            merger: Mutex::new(ShardMerger::new()),
            pending: Mutex::new(VecDeque::new()),
            arrivals,
        }
    }

    /// Number of shard lanes.
    pub fn shards(&self) -> usize {
        self.lanes.len()
    }

    /// One shard's lane.
    pub fn lane(&self, shard: usize) -> &Arc<Consumer> {
        &self.lanes[shard]
    }

    /// The vector watermark: each shard lane's highest-seen id.
    pub fn vector_watermark(&self) -> VectorWatermark {
        VectorWatermark::from_cursors(self.lanes.iter().map(|l| l.last_seen()).collect())
    }

    /// Treat `watermark` as already seen: lane `k` resumes past
    /// `watermark[k]`. Cursors never regress, and a vector narrower
    /// than the federation leaves the extra shards at their current
    /// position (they replay from wherever they are — the safe
    /// direction).
    pub fn resume_from_vector(&self, watermark: &VectorWatermark) {
        for (shard, lane) in self.lanes.iter().enumerate() {
            if shard < watermark.shards() {
                lane.resume_from(watermark.get(shard));
            }
        }
    }

    /// Fold whatever has already arrived on any lane into the merged
    /// pending queue (one bounded-reordering window). Never blocks.
    fn sweep(&self) {
        let mut windows: Vec<Vec<StandardEvent>> = self.lanes.iter().map(|l| l.poll()).collect();
        let merged = self.merger.lock().merge(&mut windows);
        if !merged.is_empty() {
            self.pending.lock().extend(merged);
        }
    }

    /// [`sweep`](Self::sweep), and if that leaves nothing pending,
    /// block once — on every lane at the same time — until a frame
    /// arrives or `budget` runs out, then sweep again. An event on a
    /// busy shard never waits behind a silent one.
    fn pump(&self, budget: Duration) {
        // Read before the sweep: a frame that lands behind the sweep's
        // back has moved the count on, and the wait returns at once.
        let seen = self.arrivals.epoch();
        self.sweep();
        if budget.is_zero() || !self.pending.lock().is_empty() {
            return;
        }
        if self.arrivals.wait_past(seen, budget) {
            self.sweep();
        } else {
            // Charged to lane 0 so it shows under that lane's
            // `consumer=<name>` label like a single lane's own.
            self.lanes[0].note_wait_timeout();
        }
    }

    /// Receive one filtered event, waiting up to `timeout`.
    pub fn recv(&self, timeout: Duration) -> Option<StandardEvent> {
        if self.lanes.len() == 1 {
            return self.lanes[0].recv(timeout);
        }
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(ev) = self.pending.lock().pop_front() {
                return Some(ev);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            self.pump(left);
        }
    }

    /// Receive up to `max` events, waiting up to `timeout` for the
    /// first.
    pub fn recv_batch(&self, max: usize, timeout: Duration) -> Vec<StandardEvent> {
        if self.lanes.len() == 1 {
            return self.lanes[0].recv_batch(max, timeout);
        }
        let mut out = Vec::new();
        match self.recv(timeout) {
            Some(first) => out.push(first),
            None => return out,
        }
        self.sweep();
        let mut pending = self.pending.lock();
        while out.len() < max {
            match pending.pop_front() {
                Some(ev) => out.push(ev),
                None => break,
            }
        }
        out
    }

    /// Drain everything currently buffered across every lane (no
    /// waiting beyond one 1 ms wait on all of them together).
    pub fn drain(&self) -> Vec<StandardEvent> {
        if self.lanes.len() == 1 {
            return self.lanes[0].drain();
        }
        self.pump(Duration::from_millis(1));
        self.pending.lock().drain(..).collect()
    }

    /// Heal every lane against its own shard store: recorded gaps
    /// first, then each store's tail past the lane's cursor. Returns
    /// total events recovered; they surface through the normal
    /// [`recv`](FederatedConsumer::recv)/[`drain`](FederatedConsumer::drain)
    /// path, merged like live events.
    pub fn catch_up(&self) -> usize {
        self.lanes.iter().map(|l| l.catch_up()).sum()
    }

    /// Replay historic events with per-shard id greater than `since`
    /// from every shard store, merged. With one shard this is the
    /// classic single-cursor replay; with K shards prefer
    /// [`replay_since_vector`](FederatedConsumer::replay_since_vector),
    /// which honors one cursor per shard.
    pub fn replay_since(
        &self,
        since: EventId,
        max: usize,
    ) -> Result<Vec<StandardEvent>, fsmon_store::StoreError> {
        let uniform = VectorWatermark::from_cursors(self.lanes.iter().map(|_| since).collect());
        self.replay_since_vector(&uniform, max)
    }

    /// Replay each shard's suffix past its watermark cursor, merged
    /// into one timestamp-ordered window (`max` bounds each shard's
    /// fetch). The union-of-linear-replays contract: the result is
    /// exactly ⋃ₖ replay(shard k, since `watermark[k]`), reordered
    /// only across shards.
    pub fn replay_since_vector(
        &self,
        watermark: &VectorWatermark,
        max: usize,
    ) -> Result<Vec<StandardEvent>, fsmon_store::StoreError> {
        let mut windows = Vec::with_capacity(self.lanes.len());
        for (shard, lane) in self.lanes.iter().enumerate() {
            windows.push(lane.replay_since(watermark.get(shard), max)?);
        }
        Ok(self.merger.lock().merge(&mut windows))
    }

    /// Flag events up to `up_to` as reported on every shard store
    /// (uniform ack; see
    /// [`ack_vector`](FederatedConsumer::ack_vector)).
    pub fn ack(&self, up_to: EventId) -> Result<(), fsmon_store::StoreError> {
        for lane in &self.lanes {
            lane.ack(up_to)?;
        }
        Ok(())
    }

    /// Flag each shard's events up to its watermark cursor as
    /// reported, so the janitor's next purge cycle can drop them.
    pub fn ack_vector(&self, watermark: &VectorWatermark) -> Result<(), fsmon_store::StoreError> {
        for (shard, lane) in self.lanes.iter().enumerate() {
            lane.ack(watermark.get(shard))?;
        }
        Ok(())
    }

    /// Replace the subscription filter on every lane.
    pub fn set_filter(&self, filter: EventFilter) {
        for lane in &self.lanes {
            lane.set_filter(filter.clone());
        }
    }

    /// `(accepted, filtered_out)` summed across lanes.
    pub fn filter_stats(&self) -> (u64, u64) {
        let mut accepted = 0;
        let mut filtered = 0;
        for lane in &self.lanes {
            let (a, f) = lane.filter_stats();
            accepted += a;
            filtered += f;
        }
        (accepted, filtered)
    }

    /// Duplicate/gap/reconnect counters summed across lanes.
    pub fn recovery_stats(&self) -> ConsumerRecoveryStats {
        let mut total = ConsumerRecoveryStats::default();
        for lane in &self.lanes {
            let one = lane.recovery_stats();
            total.duplicates_dropped += one.duplicates_dropped;
            total.gaps_detected += one.gaps_detected;
            total.gap_events_healed += one.gap_events_healed;
            total.reconnects += one.reconnects;
            total.wait_timeouts += one.wait_timeouts;
        }
        total
    }

    /// Highest id seen on any shard — a scalar summary for display;
    /// the real resume point is
    /// [`vector_watermark`](FederatedConsumer::vector_watermark).
    pub fn last_seen(&self) -> EventId {
        self.lanes.iter().map(|l| l.last_seen()).max().unwrap_or(0)
    }
}

/// Per-shard in-process pushdown subscribers behind one merged stream.
pub struct FederatedFilteredSubscriber {
    lanes: Vec<FilteredSubscriber>,
    merger: ShardMerger,
}

impl FederatedFilteredSubscriber {
    /// The canonical filter-class key (identical on every shard).
    pub fn class_key(&self) -> &str {
        self.lanes[0].class_key()
    }

    /// Drain every shard's ring, merged (never blocks).
    pub fn poll(&mut self) -> Vec<StandardEvent> {
        let mut windows: Vec<Vec<StandardEvent>> =
            self.lanes.iter_mut().map(|l| l.poll()).collect();
        self.merger.merge(&mut windows)
    }

    /// Poll until `window` elapses or at least one event arrives.
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

    /// Heal every shard lane against its own store, merged.
    pub fn catch_up(&mut self) -> Vec<StandardEvent> {
        let mut windows: Vec<Vec<StandardEvent>> =
            self.lanes.iter_mut().map(|l| l.catch_up()).collect();
        self.merger.merge(&mut windows)
    }

    /// Subscriber counters summed across shards.
    pub fn stats(&self) -> FilteredStats {
        sum_filtered(self.lanes.iter().map(|l| l.stats()))
    }
}

/// Per-shard socket-based pushdown subscribers behind one merged
/// stream (what `fsmon watch --filter` and the chaos harness use when
/// the tier is sharded).
pub struct FederatedFilteredConsumer {
    lanes: Vec<FilteredConsumer>,
    merger: ShardMerger,
}

impl FederatedFilteredConsumer {
    /// Connect one pushdown consumer per shard endpoint; lane `k`
    /// heals from `stores[k]`.
    pub fn connect(
        ctx: &Context,
        endpoints: &[String],
        stores: &[Arc<dyn EventStore>],
        spec: &fsmon_rules::FilterSpec,
        name: &str,
    ) -> Result<FederatedFilteredConsumer, fsmon_mq::MqError> {
        let mut lanes = Vec::with_capacity(endpoints.len());
        for (endpoint, store) in endpoints.iter().zip(stores) {
            lanes.push(FilteredConsumer::connect(
                ctx,
                endpoint,
                spec,
                store.clone(),
                name,
            )?);
        }
        Ok(FederatedFilteredConsumer {
            lanes,
            merger: ShardMerger::new(),
        })
    }

    /// The canonical filter-class key (identical on every shard).
    pub fn class_key(&self) -> &str {
        self.lanes[0].class_key()
    }

    /// Drain whatever is queued on every shard lane, merged.
    pub fn poll(&mut self) -> Vec<StandardEvent> {
        let mut windows: Vec<Vec<StandardEvent>> =
            self.lanes.iter_mut().map(|l| l.poll()).collect();
        self.merger.merge(&mut windows)
    }

    /// Receive from every shard lane until `window` elapses, merged.
    pub fn recv_for(&mut self, window: Duration) -> Vec<StandardEvent> {
        if self.lanes.len() == 1 {
            return self.lanes[0].recv_for(window);
        }
        let deadline = Instant::now() + window;
        loop {
            let merged = self.poll();
            if !merged.is_empty() {
                return merged;
            }
            if Instant::now() >= deadline {
                return Vec::new();
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Heal every shard lane against its own store, merged.
    pub fn catch_up(&mut self) -> Vec<StandardEvent> {
        let mut windows: Vec<Vec<StandardEvent>> =
            self.lanes.iter_mut().map(|l| l.catch_up()).collect();
        self.merger.merge(&mut windows)
    }

    /// Subscriber counters summed across shards.
    pub fn stats(&self) -> FilteredStats {
        sum_filtered(self.lanes.iter().map(|l| l.stats()))
    }
}

fn sum_filtered(stats: impl Iterator<Item = FilteredStats>) -> FilteredStats {
    let mut total = FilteredStats::default();
    for one in stats {
        total.delivered += one.delivered;
        total.frames += one.frames;
        total.frames_lost += one.frames_lost;
        total.gaps_detected += one.gaps_detected;
        total.healed += one.healed;
    }
    total
}
