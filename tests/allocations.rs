//! Heap allocations on the aggregator's receive → stamp → store path.
//!
//! A collector's frame is the only encoding an event gets between the
//! collector and the store: the worker lanes copy the records they
//! keep, the sequencer patches ids in place and the store lane copies
//! each record behind its `len | crc` header. Nothing on that path
//! builds an owned event, so its allocations are per batch, not per
//! event. This binary counts every heap allocation in the process with
//! a counting global allocator while a fixed, pre-encoded backlog goes
//! through an [`Aggregator`] into a [`FileStore`], and bounds the count
//! per event.

use bytes::Bytes;
use fsmon_events::{encode_event_batch, EventKind, StandardEvent};
use fsmon_lustre::aggregator::collector_socket;
use fsmon_lustre::Aggregator;
use fsmon_mq::{Context, Message};
use fsmon_store::{Durability, EventStore, FileStore, FileStoreOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const EVENTS: u64 = 10_000;
const BATCH: u64 = 500;

/// One collector batch as a collector publishes it: topic, event
/// frame, and the changelog range with one index per event. Every
/// fourth event is a rename destination with an old path, every
/// third carries the size/owner tail.
fn collector_message(first: u64) -> Message {
    let events: Vec<StandardEvent> = (first..first + BATCH)
        .map(|i| {
            let ev = StandardEvent::new(
                EventKind::Create,
                "/mnt/lustre",
                format!("/d{}/f{i}", i % 7),
            );
            let ev = if i % 4 == 0 {
                let mut to = ev.with_old_path(format!("/d{}/old-{i}", i % 5));
                to.kind = EventKind::MovedTo;
                to
            } else {
                ev
            };
            let ev = if i % 3 == 0 {
                ev.with_size(i * 10).with_owner(1000)
            } else {
                ev
            };
            ev.with_mdt(0)
        })
        .collect();
    let mut range = Vec::with_capacity(16 + 8 * BATCH as usize);
    range.extend_from_slice(&(first + 1).to_be_bytes());
    range.extend_from_slice(&(first + BATCH).to_be_bytes());
    for i in first..first + BATCH {
        range.extend_from_slice(&(i + 1).to_be_bytes());
    }
    Message::from_parts(vec![
        Bytes::from_static(b"mdt0"),
        encode_event_batch(&events),
        Bytes::from(range),
    ])
}

fn wait_stored(agg: &Aggregator, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while agg.stats().stored < n {
        assert!(
            Instant::now() < deadline,
            "stored {} of {n}",
            agg.stats().stored
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn receive_to_store_commit_allocates_per_batch_not_per_event() {
    let dir = std::env::temp_dir().join(format!("fsmon-allocations-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(
        FileStore::open_with_options(
            &dir,
            FileStoreOptions {
                durability: Durability::None,
                ..FileStoreOptions::default()
            },
        )
        .unwrap(),
    );
    let ctx = Context::new();
    let endpoint = "inproc://allocations-collector".to_string();
    let collector = collector_socket(&ctx, &endpoint).unwrap();
    let agg = Aggregator::start(
        &ctx,
        std::slice::from_ref(&endpoint),
        "inproc://allocations-aggregator",
        store.clone(),
    )
    .unwrap();

    // One warm-up batch grows the recycled frame buffers, the store's
    // group buffer and the channel queues to their steady size; the
    // backlog is encoded before the window opens.
    collector.send(collector_message(0)).unwrap();
    wait_stored(&agg, BATCH);
    let backlog: Vec<Message> = (1..=EVENTS / BATCH)
        .map(|b| collector_message(b * BATCH))
        .collect();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for msg in backlog {
        collector.send(msg).unwrap();
    }
    wait_stored(&agg, BATCH + EVENTS);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let per_event = allocations as f64 / EVENTS as f64;
    println!(
        "allocations receive -> store commit: {allocations} for {EVENTS} events \
         in {} batches = {per_event:.4} per event",
        EVENTS / BATCH
    );
    let stats = agg.stats();
    assert_eq!(stats.decode_errors, 0);
    assert_eq!(stats.dedup_dropped, 0);
    assert_eq!(store.stats().last_seq, BATCH + EVENTS);
    agg.stop();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        per_event <= 0.05,
        "{per_event:.4} allocations per event between frame receipt and store commit"
    );
}
