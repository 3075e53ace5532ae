#![warn(missing_docs)]

//! # fsmon-lustre
//!
//! FSMonitor's scalable event monitor for distributed file systems
//! (paper §IV), implemented against the simulated Lustre substrate:
//!
//! * [`Collector`] — one per MDS. Reads batches from that MDT's
//!   Changelog, resolves FIDs to absolute paths with an LRU cache in
//!   front of `fid2path` (Algorithm 1, including the UNLNK/RMDIR parent
//!   fallback, the `ParentDirectoryRemoved` terminal case, and RENME
//!   old/new resolution), publishes standardized events to the
//!   aggregator, and purges the Changelog behind itself.
//! * [`Aggregator`] — runs on the MGS. Subscribes to every collector,
//!   and with two worker roles publishes aggregated events to consumers
//!   while persisting them to the reliable event store.
//! * [`Consumer`] — one consumer lane: one aggregator shard's frames
//!   (the full stream, or one pushdown class over a socket or the
//!   in-process ring) and the one heal core that makes them
//!   exactly-once against that shard's store. Applications hold a
//!   federation of one lane per shard, K=1 included:
//!   [`FederatedConsumer`] filters the full stream client-side (paper
//!   §IV Consumption) and replays history from the store;
//!   [`FederatedFilteredConsumer`] receives a server-side pushdown
//!   class (see [`fanout`]).
//! * [`ScalableMonitor`] — wires collectors + aggregator + a consumer
//!   together over inproc or TCP endpoints; [`LustreDsi`] adapts the
//!   whole pipeline to `fsmon-core`'s [`StorageInterface`] so Lustre is
//!   just another DSI to FSMonitor.
//! * [`robinhood`] — the round-robin, client-side-processing baseline
//!   the paper compares against (§V-D5).
//!
//! ```
//! use lustre_sim::{LustreFs, LustreConfig};
//! use fsmon_lustre::{ScalableMonitor, ScalableConfig};
//!
//! let fs = LustreFs::new(LustreConfig::small_dne(2));
//! let monitor = ScalableMonitor::start(&fs, ScalableConfig::default()).unwrap();
//! let client = fs.client();
//! client.create("/data.bin").unwrap();
//! let events = monitor.consumer().recv_batch(10, std::time::Duration::from_secs(2));
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].path, "/data.bin");
//! monitor.stop();
//! ```

pub mod aggregator;
pub mod collector;
pub mod consumer;
pub mod fanout;
pub mod history;
pub mod monitor;
pub mod robinhood;
pub mod sharded;
pub mod subscriber;

pub use aggregator::{Aggregator, AggregatorStats};
pub use collector::{Collector, CollectorStats};
pub use consumer::Consumer;
pub use fanout::{ClassMeta, FanoutEngine, CLASS_TOPIC};
pub use history::{HistoryClient, HistoryService, HistoryStats};
pub use monitor::{LustreDsi, ScalableConfig, ScalableMonitor, Transport};
pub use robinhood::{RobinhoodConfig, RobinhoodMonitor, RobinhoodStats};
pub use sharded::{FederatedConsumer, ShardPlan, ShardedAggregator};
pub use subscriber::{FederatedFilteredConsumer, FederatedFilteredSubscriber};
