//! The Robinhood-style baseline (§V-D5).
//!
//! "We implement Robinhood by having a subscriber in the client that
//! polls the four publishers on MDS one at a time in a round-robin
//! fashion. There is no role for MGS in this implementation." The two
//! structural differences from FSMonitor, both modelled here:
//!
//! 1. **Serial, iterative collection** — one poller visits MDSs in
//!    rotation, paying a changelog-read RPC per visit, instead of
//!    per-MDS collectors reading their local changelog in parallel.
//! 2. **Client-side processing** — `fid2path` runs from the client
//!    (an RPC to the MDS) rather than on the MDS itself, so every
//!    resolution carries a remote penalty.
//!
//! Everything else is shared: records go through the collector's own
//! [`Resolver`], so the comparison isolates architecture, not
//! resolution strategy.

use crate::collector::Resolver;
use fsmon_events::StandardEvent;
use fsmon_store::{EventStore, MemStore};
use lustre_sim::changelog::ChangelogUser;
use lustre_sim::clock::CostModel;
use lustre_sim::namespace::MdtHandle;
use lustre_sim::LustreFs;
use std::sync::Arc;

/// Baseline configuration.
#[derive(Debug, Clone)]
pub struct RobinhoodConfig {
    /// Records per changelog poll.
    pub batch_size: usize,
    /// Client-side cache capacity (Robinhood keeps its own database of
    /// paths; modelled as the same LRU for a fair comparison).
    pub cache_size: usize,
    /// Cost of one changelog-read RPC from the client to an MDS.
    pub poll_rpc_cost: CostModel,
    /// Extra cost per `fid2path`, on top of the tool itself, for the
    /// client→MDS round trip.
    pub remote_fid2path_penalty: CostModel,
}

impl Default for RobinhoodConfig {
    fn default() -> Self {
        RobinhoodConfig {
            batch_size: 1024,
            cache_size: 5000,
            // Loopback-scale RPC costs; scaled like the testbed op costs.
            poll_rpc_cost: CostModel::SpinNs(20_000),
            remote_fid2path_penalty: CostModel::SpinNs(2_000),
        }
    }
}

/// Throughput counters for the baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct RobinhoodStats {
    /// Changelog records consumed.
    pub records: u64,
    /// Standardized events produced.
    pub events: u64,
    /// Changelog poll RPCs issued.
    pub polls: u64,
    /// `fid2path` RPCs issued.
    pub fid2path_calls: u64,
}

/// The single-poller baseline monitor.
pub struct RobinhoodMonitor {
    mdts: Vec<MdtHandle>,
    users: Vec<ChangelogUser>,
    cursors: Vec<u64>,
    next_mdt: usize,
    /// One client-side resolver (and path cache) for every MDS:
    /// `fid2path` from a client is namespace-wide.
    resolver: Resolver,
    config: RobinhoodConfig,
    db: Arc<dyn EventStore>,
    stats: RobinhoodStats,
}

impl RobinhoodMonitor {
    /// Attach the baseline to every MDS of `fs`.
    pub fn new(
        fs: &Arc<LustreFs>,
        watch_root: impl Into<String>,
        config: RobinhoodConfig,
    ) -> RobinhoodMonitor {
        let mdts: Vec<MdtHandle> = (0..fs.mdt_count()).map(|i| fs.mdt(i)).collect();
        let users = mdts.iter().map(|m| m.register_user()).collect();
        let cursors = vec![0; mdts.len()];
        RobinhoodMonitor {
            // A private registry: the baseline's lookups must not fold
            // into the `fsmon_fid2path_*` series of a real collector.
            resolver: Resolver::new(
                fs.mdt(0),
                watch_root.into(),
                config.cache_size,
                config.remote_fid2path_penalty,
                &fsmon_telemetry::Registry::new().scope("robinhood"),
            ),
            users,
            cursors,
            next_mdt: 0,
            config,
            db: Arc::new(MemStore::new()),
            stats: RobinhoodStats::default(),
            mdts,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> RobinhoodStats {
        RobinhoodStats {
            events: self.resolver.events,
            fid2path_calls: self.resolver.fid2path_calls(),
            ..self.stats
        }
    }

    /// The client-side database events are stored into.
    pub fn db(&self) -> &Arc<dyn EventStore> {
        &self.db
    }

    /// Poll the next MDS in rotation, process its batch client-side,
    /// and store the events. Returns the standardized events.
    pub fn step(&mut self) -> Vec<StandardEvent> {
        let mdt = self.next_mdt;
        self.next_mdt = (self.next_mdt + 1) % self.mdts.len();
        // The iterative read RPC.
        self.config.poll_rpc_cost.charge();
        self.stats.polls += 1;
        let records = self.mdts[mdt].read_changelog(self.cursors[mdt], self.config.batch_size);
        if records.is_empty() {
            return Vec::new();
        }
        let mut events = Vec::with_capacity(records.len());
        for rec in &records {
            self.resolver.process_record(rec, &mut events);
        }
        self.stats.records += records.len() as u64;
        self.cursors[mdt] = records.last().expect("non-empty").index;
        self.mdts[mdt].clear_changelog(self.users[mdt], self.cursors[mdt]);
        for ev in &events {
            let _ = self.db.append(ev);
        }
        events
    }

    /// Poll every MDS once; returns total events collected this round.
    pub fn round(&mut self) -> usize {
        (0..self.mdts.len()).map(|_| self.step().len()).sum()
    }

    /// Drive rounds until every changelog is empty (bounded).
    pub fn drain(&mut self, max_rounds: usize) -> Vec<StandardEvent> {
        let mut out = Vec::new();
        for _ in 0..max_rounds {
            let before = out.len();
            for _ in 0..self.mdts.len() {
                out.extend(self.step());
            }
            if out.len() == before {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmon_events::EventKind;
    use lustre_sim::LustreConfig;

    fn free_config() -> RobinhoodConfig {
        RobinhoodConfig {
            poll_rpc_cost: CostModel::Free,
            remote_fid2path_penalty: CostModel::Free,
            ..RobinhoodConfig::default()
        }
    }

    #[test]
    fn collects_all_events_round_robin() {
        let fs = LustreFs::new(LustreConfig::small_dne(4));
        let mut rh = RobinhoodMonitor::new(&fs, "/mnt/lustre", free_config());
        let client = fs.client();
        for i in 0..16 {
            client.mkdir(&format!("/d{i}")).unwrap();
        }
        let events = rh.drain(100);
        assert_eq!(events.len(), 16);
        assert!(events
            .iter()
            .all(|e| e.kind == EventKind::Create && e.is_dir));
        assert_eq!(rh.stats().records, 16);
        assert_eq!(rh.db().stats().appended, 16);
    }

    #[test]
    fn polls_visit_mdts_in_rotation() {
        let fs = LustreFs::new(LustreConfig::small_dne(3));
        let mut rh = RobinhoodMonitor::new(&fs, "/mnt/lustre", free_config());
        rh.round();
        assert_eq!(rh.stats().polls, 3, "one poll per MDS per round");
    }

    #[test]
    fn delete_handling_matches_collector_semantics() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut rh = RobinhoodMonitor::new(&fs, "/mnt/lustre", free_config());
        let client = fs.client();
        client.create("/f").unwrap();
        rh.drain(10);
        client.unlink("/f").unwrap();
        let events = rh.drain(10);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Delete);
        assert_eq!(events[0].path, "/f");
    }

    #[test]
    fn rename_produces_pair() {
        let fs = LustreFs::new(LustreConfig::small());
        let mut rh = RobinhoodMonitor::new(&fs, "/mnt/lustre", free_config());
        let client = fs.client();
        client.create("/a").unwrap();
        rh.drain(10);
        client.rename("/a", "/b").unwrap();
        let events = rh.drain(10);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::MovedFrom);
        assert_eq!(events[1].kind, EventKind::MovedTo);
        assert_eq!(events[1].old_path.as_deref(), Some("/a"));
    }

    #[test]
    fn rpc_costs_slow_the_baseline() {
        use std::time::Instant;
        let fs = LustreFs::new(LustreConfig::small_dne(2));
        let client = fs.client();
        for i in 0..50 {
            client.create(&format!("/f{i}")).unwrap();
        }
        let mut costly = RobinhoodMonitor::new(
            &fs,
            "/mnt/lustre",
            RobinhoodConfig {
                batch_size: 8,
                poll_rpc_cost: CostModel::SpinNs(500_000),
                ..free_config()
            },
        );
        let start = Instant::now();
        costly.drain(100);
        // At least (50/8 per mdt ≈ 7 polls) plus empty polls, each 0.5ms.
        assert!(start.elapsed() >= std::time::Duration::from_millis(3));
        assert!(costly.stats().polls >= 7);
    }
}
