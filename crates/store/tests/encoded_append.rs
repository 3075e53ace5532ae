//! Byte identity of the two ways into `FileStore`'s one commit path.
//!
//! The aggregator hands the store a collector's encoded records
//! (`append_encoded`); every other caller hands it events
//! (`append_batch`). For the same events both must leave byte-for-byte
//! the same segment files — across segment rolls, `index_every`
//! boundaries and injected append errors and torn tails, including the
//! suffix a caller resumes after a failure — so replay and recovery see
//! one on-disk format.

use bytes::BytesMut;
use fsmon_events::wire::{encode_event_batch_offsets, record_spans};
use fsmon_events::{encode_event, EventKind, StandardEvent};
use fsmon_faults::{FaultPlan, FaultPoint, FaultRule};
use fsmon_store::crc::crc32;
use fsmon_store::{EventStore, FileStore, FileStoreOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const EVENTS: u64 = 300;

/// Events with every wire shape: renames with old paths, size/owner
/// tails, directories, MDT stamps, and stale ids the store overwrites.
fn events() -> Vec<StandardEvent> {
    (0..EVENTS)
        .map(|i| {
            let mut ev = StandardEvent::new(
                EventKind::Create,
                "/mnt/lustre",
                format!("/d{}/f{i}", i % 9),
            );
            ev.id = i * 7919;
            ev.is_dir = i % 5 == 0;
            ev.timestamp_ns = 1_000_000 + i;
            if i % 4 == 1 {
                ev.kind = EventKind::MovedTo;
                ev.old_path = Some(format!("/old/{i}"));
            }
            if i % 3 == 0 {
                ev.size = Some(i * 4096);
            }
            if i % 6 == 0 {
                ev.owner = Some(500 + i as u32);
            }
            if i % 2 == 0 {
                ev.mdt_index = Some((i % 4) as u16);
            }
            ev
        })
        .collect()
}

fn case_dir(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fsmon-encoded-append-{}-{tag}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Name → contents of every file in `dir`.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

/// Which entry point a run feeds the store through.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Events,
    Encoded,
}

/// Append `events` in `chunk`-sized calls through `entry`, resuming
/// each failed call after the prefix it committed (the aggregator
/// store lane's contract). Returns the number of failed calls.
fn feed(store: &FileStore, events: &[StandardEvent], chunk: usize, entry: Entry) -> usize {
    let mut failures = 0;
    for part in events.chunks(chunk) {
        let mut done = 0;
        while done < part.len() {
            let before = store.stats().appended;
            let result = match entry {
                Entry::Events => store.append_batch(&part[done..]),
                Entry::Encoded => {
                    let mut frame = BytesMut::new();
                    let mut offsets = Vec::new();
                    encode_event_batch_offsets(&part[done..], &mut frame, &mut offsets);
                    let mut records = record_spans(&offsets, frame.len()).map(|span| &frame[span]);
                    store.append_encoded(&mut records)
                }
            };
            let committed = (store.stats().appended - before) as usize;
            match result {
                Ok(last) => {
                    assert_eq!(committed, part.len() - done);
                    assert_eq!(last, store.stats().last_seq);
                }
                Err(_) => failures += 1,
            }
            done += committed;
            assert!(failures < 1000, "no progress");
        }
    }
    failures
}

/// Write the same events through both entry points under the same
/// options and fault plan; the directories must match byte for byte,
/// and the store must replay the events stamped 1..=n.
fn assert_identical(
    segment_bytes: u64,
    index_every: u64,
    chunk: usize,
    plan: Option<(FaultPoint, u64)>,
) {
    let evs = events();
    let mut dirs = Vec::new();
    let mut failures = Vec::new();
    for entry in [Entry::Events, Entry::Encoded] {
        let dir = case_dir(&format!("{entry:?}"));
        let faults = match plan {
            Some((point, after)) => FaultPlan::new(3)
                .with(point, FaultRule::percent(100).after(after).limit(2))
                .arm(),
            None => fsmon_faults::Faults::none(),
        };
        let store = FileStore::open_with_options(
            &dir,
            FileStoreOptions {
                segment_bytes,
                index_every,
                faults,
                ..FileStoreOptions::default()
            },
        )
        .unwrap();
        failures.push(feed(&store, &evs, chunk, entry));
        let replayed = store.get_since(0, usize::MAX).unwrap();
        assert_eq!(replayed.len(), evs.len(), "{entry:?}");
        for (got, (seq, want)) in replayed.iter().zip((1..).zip(&evs)) {
            let mut want = want.clone();
            want.id = seq;
            assert_eq!(*got, want, "{entry:?}");
        }
        drop(store);
        dirs.push(dir);
    }
    let case = format!(
        "segment_bytes {segment_bytes}, index_every {index_every}, chunk {chunk}, faults {plan:?}"
    );
    if plan.is_some() {
        assert!(failures[0] > 0, "fault never fired: {case}");
    }
    assert_eq!(failures[0], failures[1], "{case}");
    let (a, b) = (files(&dirs[0]), files(&dirs[1]));
    if plan.is_none() {
        // The segments, in order, are exactly `len | crc | record` per
        // event, each record the event's own encoding stamped with its
        // sequence: the format `get_since` and recovery read.
        let mut want = Vec::new();
        for (seq, ev) in (1..).zip(&evs) {
            let mut ev = ev.clone();
            ev.id = seq;
            let record = encode_event(&ev);
            want.extend_from_slice(&(record.len() as u32).to_be_bytes());
            want.extend_from_slice(&crc32(&record).to_be_bytes());
            want.extend_from_slice(&record);
        }
        let got: Vec<u8> = a
            .iter()
            .filter(|(name, _)| name.starts_with("seg-"))
            .flat_map(|(_, bytes)| bytes.iter().copied())
            .collect();
        assert!(
            got == want,
            "segment bytes are not the record format: {case}"
        );
    }
    assert!(
        a.keys().filter(|n| n.starts_with("seg-")).count() > 0,
        "{case}"
    );
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "{case}"
    );
    for (name, bytes) in &a {
        assert!(bytes == &b[name], "{name} differs: {case}");
    }
    // Recovery reads both directories to the same stream.
    let replays: Vec<_> = dirs
        .iter()
        .map(|d| {
            FileStore::open(d)
                .unwrap()
                .get_since(0, usize::MAX)
                .unwrap()
        })
        .collect();
    assert_eq!(replays[0], replays[1], "{case}");
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn encoded_records_write_the_same_segments_as_events() {
    for (segment_bytes, index_every, chunk) in [
        (1 << 20, 64, 300),
        (4096, 1, 64),
        (4096, 7, 1),
        (1500, 3, 37),
    ] {
        assert_identical(segment_bytes, index_every, chunk, None);
    }
}

#[test]
fn encoded_records_resume_identically_after_injected_faults() {
    for point in [FaultPoint::StoreAppend, FaultPoint::StoreTornTail] {
        for (segment_bytes, index_every, chunk, after) in
            [(4096, 5, 64, 40), (1500, 1, 37, 0), (1 << 20, 64, 300, 150)]
        {
            assert_identical(segment_bytes, index_every, chunk, Some((point, after)));
        }
    }
}

#[test]
fn a_record_without_an_event_header_fails_after_the_prefix() {
    let dir = case_dir("bad");
    let store = FileStore::open_with_options(&dir, FileStoreOptions::default()).unwrap();
    let good = encode_event(&events()[1]);
    let mut bad = good.to_vec();
    bad[0] = 1; // a version this store does not read back
    let mut records = [&good[..], &bad[..], &good[..]].into_iter();
    assert!(store.append_encoded(&mut records).is_err());
    assert_eq!(store.stats().appended, 1);
    assert_eq!(store.get_since(0, 10).unwrap().len(), 1);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}
