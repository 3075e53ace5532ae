#![warn(missing_docs)]

//! # fsmon-store
//!
//! The reliable event store backing FSMonitor's fault tolerance. The
//! paper uses MySQL on the MGS ("one thread stores the events into a
//! local database to enable fault tolerance … an API is provided to the
//! consumers to retrieve historic events whenever a fault occurs",
//! §IV Aggregation). The store's contract is a durable sequenced log,
//! not a relational engine, so this crate implements exactly that:
//!
//! * [`MemStore`] — an in-memory store for tests and low-stakes runs.
//! * [`FileStore`] — a segmented, CRC-checked append-only log with
//!   torn-tail crash recovery, replay-from-sequence, reported-flag
//!   watermarks, and purge cycles that reclaim fully reported segments.
//!
//! Both implement [`EventStore`], the interface the aggregator and the
//! interface layer program against.
//!
//! ```
//! use fsmon_store::{EventStore, MemStore};
//! use fsmon_events::{StandardEvent, EventKind};
//!
//! let store = MemStore::new();
//! let seq = store.append(&StandardEvent::new(EventKind::Create, "/r", "f")).unwrap();
//! assert_eq!(seq, 1);
//! let replay = store.get_since(0, 100).unwrap();
//! assert_eq!(replay.len(), 1);
//! store.mark_reported(seq).unwrap();
//! store.purge_reported().unwrap();
//! assert!(store.get_since(0, 100).unwrap().is_empty());
//! ```

pub mod crc;
pub mod file;
pub mod mem;

pub use file::{FileStore, FileStoreOptions};
pub use mem::MemStore;

use fsmon_events::StandardEvent;

/// Errors from the event store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record failed CRC or framing validation (corruption beyond the
    /// recoverable torn tail).
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corruption: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Counters describing store state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Events ever appended.
    pub appended: u64,
    /// Highest sequence assigned (0 if none).
    pub last_seq: u64,
    /// Reported watermark: events `<=` this have been consumed.
    pub reported_seq: u64,
    /// Events currently retained (not yet purged).
    pub retained: u64,
    /// Approximate bytes of process memory the store holds to serve
    /// replay: the whole log for [`MemStore`], only segment metadata +
    /// the sparse replay index + the reused frame buffer for
    /// [`FileStore`].
    pub resident_bytes: u64,
}

/// When [`FileStore`] issues an explicit flush (`fdatasync`-style
/// [`File::sync_data`](std::fs::File::sync_data)) of the active
/// segment. Flushes are counted as `fsmon_store_fsyncs_total`.
///
/// The policy trades tail-loss window against append throughput: with
/// [`Durability::None`] the OS page cache decides when bytes reach the
/// platter, so a host crash (not a process crash) can lose the
/// unflushed tail; [`Durability::EveryBatch`] bounds the window to one
/// group commit at the cost of one fsync per batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Durability {
    /// Never flush explicitly; rely on the OS page cache (the default,
    /// and the pre-policy behaviour).
    #[default]
    None,
    /// Flush after every committed batch.
    EveryBatch,
    /// Flush once at least this many bytes have landed since the last
    /// flush.
    Bytes(u64),
    /// Flush when at least this many milliseconds have elapsed since
    /// the last flush. Checked at commit time and by
    /// [`EventStore::flush_if_due`], which a housekeeping thread (the
    /// monitor's janitor) calls periodically so the tail-loss window
    /// stays bounded even when the store goes idle after a commit.
    IntervalMs(u64),
}

impl Durability {
    /// Parse a CLI spelling: `none`, `batch`, `bytes:N`, `interval:N`
    /// (milliseconds). Returns `None` for anything else.
    pub fn parse(s: &str) -> Option<Durability> {
        match s {
            "none" => Some(Durability::None),
            "batch" | "every-batch" => Some(Durability::EveryBatch),
            _ => {
                if let Some(n) = s.strip_prefix("bytes:") {
                    n.parse().ok().map(Durability::Bytes)
                } else if let Some(n) = s.strip_prefix("interval:") {
                    n.parse().ok().map(Durability::IntervalMs)
                } else {
                    None
                }
            }
        }
    }
}

impl std::fmt::Display for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Durability::None => write!(f, "none"),
            Durability::EveryBatch => write!(f, "batch"),
            Durability::Bytes(n) => write!(f, "bytes:{n}"),
            Durability::IntervalMs(n) => write!(f, "interval:{n}"),
        }
    }
}

/// The durable event log interface.
///
/// Sequences are dense, starting at 1, assigned by `append`.
pub trait EventStore: Send + Sync {
    /// Append an event; returns its assigned sequence number. The
    /// stored copy has `id` set to that sequence.
    fn append(&self, event: &StandardEvent) -> Result<u64, StoreError>;

    /// Append a batch in order (group commit); returns the last
    /// assigned sequence (0 for an empty batch). The default loops
    /// [`append`](EventStore::append) and stops at the first error.
    /// Implementations may commit the batch natively (one lock, one
    /// write), but must preserve the resume contract: on error, events
    /// before the failure are durably appended and counted, so a caller
    /// can resume the suffix from the `stats().appended` delta without
    /// double-writing.
    fn append_batch(&self, events: &[StandardEvent]) -> Result<u64, StoreError> {
        let mut last = 0;
        for ev in events {
            last = self.append(ev)?;
        }
        Ok(last)
    }

    /// Append already-encoded event records in order (group commit);
    /// each item is one `fsmon-events` wire record, as the aggregator
    /// forwards them from a collector's frame. The stored copy's id is
    /// the assigned sequence, whatever id the record carries. Returns the
    /// last assigned sequence (0 for no records), with
    /// [`append_batch`](EventStore::append_batch)'s resume contract: on
    /// error the records before the failure are appended and counted.
    /// The default decodes each record and appends the events; a record
    /// that does not decode fails the call after the prefix before it.
    fn append_encoded(&self, records: &mut dyn Iterator<Item = &[u8]>) -> Result<u64, StoreError> {
        let mut events = Vec::new();
        let mut bad = None;
        for record in records {
            match fsmon_events::EventView::parse(record) {
                Ok((view, _)) => events.push(view.to_event()),
                Err(e) => {
                    bad = Some(StoreError::Corrupt(format!("undecodable record: {e}")));
                    break;
                }
            }
        }
        let last = self.append_batch(&events)?;
        bad.map_or(Ok(last), Err)
    }

    /// Fetch up to `max` events with sequence strictly greater than
    /// `since` (the consumer replay API: "if users provide an event
    /// identifier, FSMonitor will only report events that have happened
    /// since that event", §III-A3).
    fn get_since(&self, since: u64, max: usize) -> Result<Vec<StandardEvent>, StoreError>;

    /// Advance the reported watermark to `up_to` (idempotent; never
    /// regresses).
    fn mark_reported(&self, up_to: u64) -> Result<(), StoreError>;

    /// Reclaim storage for reported events. Implementations may retain
    /// more than strictly necessary (segment granularity).
    fn purge_reported(&self) -> Result<(), StoreError>;

    /// Flush the unsynced tail if a time-based durability policy is
    /// overdue. Commit-time checks only fire while events keep
    /// arriving; a housekeeping thread calls this so an idle store
    /// still honours [`Durability::IntervalMs`]'s bound. Returns
    /// whether a flush was issued. Default: nothing to do (stores
    /// without a time-based policy, or fully synchronous ones).
    fn flush_if_due(&self) -> Result<bool, StoreError> {
        Ok(false)
    }

    /// Whether this store relies on periodic
    /// [`flush_if_due`](EventStore::flush_if_due) calls to bound its
    /// unsynced tail — true for time-based durability policies. The
    /// monitor spawns its housekeeping thread whenever this holds, even
    /// with purging disabled. Default: no ticker needed (stores that
    /// flush at commit time, or not at all).
    fn needs_flush_ticker(&self) -> bool {
        false
    }

    /// Current counters.
    fn stats(&self) -> StoreStats;
}
