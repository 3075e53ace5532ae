//! Segmented, CRC-checked file-backed event store.
//!
//! Layout: the store directory holds segment files `seg-<first_seq>.log`
//! plus a `reported` watermark file. Each segment is a sequence of
//! records:
//!
//! ```text
//! record := u32 payload_len | u32 crc32(payload) | payload
//! payload = fsmon-events wire encoding of the StandardEvent
//! ```
//!
//! The batch is the unit of I/O, and there is one commit path:
//! [`append_encoded`](EventStore::append_encoded) copies a batch of
//! already-encoded records (as the aggregator forwards them from a
//! collector's frame) behind their `len | crc` headers into one reused
//! frame buffer, stamping each record's id with its sequence, and lands
//! it with a single `write_all` per segment touched, under a single lock
//! acquisition. [`FileStore::append_batch`] encodes its events and
//! takes the same path, so both write the same bytes.
//! Replay does not keep events in memory — each segment carries a
//! sparse sequence→byte-offset index (one entry every
//! [`FileStoreOptions::index_every`] records, built at append time and
//! rebuilt during recovery), and `get_since` binary-searches it then
//! streams records from disk, so resident memory is O(segments + index)
//! instead of O(retained events).
//!
//! Recovery on open streams every segment once; a record whose length
//! or CRC is invalid marks the torn tail — it and everything after it
//! in that segment are quarantined (the classic WAL recovery rule).
//! Purge removes whole segments whose newest event is at or below the
//! reported watermark. Explicit flushes follow the configured
//! [`Durability`] policy.

use crate::crc::crc32;
use crate::{Durability, EventStore, StoreError, StoreStats};
use bytes::{Bytes, BytesMut};
use fsmon_events::wire::{patch_event_id, record_spans, EVENT_ID_OFFSET};
use fsmon_events::{decode_event, encode_event_batch_offsets, StandardEvent};
use fsmon_faults::{FaultPoint, Faults};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Default max payload bytes per segment before rolling to a new one.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// Default spacing of sparse index entries (records per entry).
pub const DEFAULT_INDEX_EVERY: u64 = 64;

/// Default watermark coalescing interval: `mark_reported` persists the
/// watermark file only once the in-memory watermark has advanced this
/// many sequences past the persisted one (purge always persists first).
pub const DEFAULT_WATERMARK_EVERY: u64 = 1024;

/// Records longer than this fail framing validation (sanity bound).
const MAX_RECORD_LEN: usize = 1 << 24;

/// Streaming read buffer size for recovery and replay scans.
const SCAN_BUF: usize = 64 * 1024;

/// Per-record frame header: `u32 payload_len | u32 crc32(payload)`.
const HEADER: usize = 8;

/// Construction knobs for [`FileStore::open_with_options`].
#[derive(Clone)]
pub struct FileStoreOptions {
    /// Max payload bytes per segment before rolling.
    pub segment_bytes: u64,
    /// Sparse index spacing (records per entry); min 1.
    pub index_every: u64,
    /// Watermark coalescing interval in sequences; 1 persists every
    /// advance (the pre-coalescing behaviour).
    pub watermark_every: u64,
    /// Explicit flush policy.
    pub durability: Durability,
    /// Fault-injection handle consulted by appends (no-op when unarmed).
    pub faults: Faults,
    /// Optional nanosecond clock driving [`Durability::IntervalMs`]
    /// elapsed-time checks (wall clock when `None`). Lets tests drive
    /// the interval with a simulated clock instead of sleeping.
    pub clock: Option<fsmon_telemetry::ClockFn>,
}

impl std::fmt::Debug for FileStoreOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStoreOptions")
            .field("segment_bytes", &self.segment_bytes)
            .field("index_every", &self.index_every)
            .field("watermark_every", &self.watermark_every)
            .field("durability", &self.durability)
            .field("clock", &self.clock.is_some())
            .finish_non_exhaustive()
    }
}

impl Default for FileStoreOptions {
    fn default() -> FileStoreOptions {
        FileStoreOptions {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            index_every: DEFAULT_INDEX_EVERY,
            watermark_every: DEFAULT_WATERMARK_EVERY,
            durability: Durability::None,
            faults: Faults::none(),
            clock: None,
        }
    }
}

struct Segment {
    path: PathBuf,
    first_seq: u64,
    last_seq: u64,
    /// Valid payload extent: appends land here, replay scans stop here.
    bytes: u64,
    /// Poisoned by a torn tail: garbage sits past `bytes`, so the next
    /// append must roll to a fresh segment instead of writing after it.
    sealed: bool,
    file: Option<File>,
    /// Sparse replay index: `(seq, byte offset of its record)` every
    /// `index_every` records, always including the segment's first.
    index: Vec<(u64, u64)>,
}

impl Segment {
    fn is_empty(&self) -> bool {
        self.last_seq < self.first_seq
    }
}

struct Inner {
    dir: PathBuf,
    segment_bytes: u64,
    index_every: u64,
    watermark_every: u64,
    durability: Durability,
    segments: Vec<Segment>,
    next_seq: u64,
    reported: u64,
    /// Watermark value last written to the `reported` file (lags
    /// `reported` by up to `watermark_every` sequences).
    reported_persisted: u64,
    /// Purge floor: events at or below it are logically gone even when
    /// their segment survives (segment-granularity purge). Replay
    /// filters below it; `retained = next_seq - floor`.
    floor: u64,
    appended: u64,
    /// Reused batch frame buffer (one encode target per commit).
    frame_buf: BytesMut,
    /// High-water mark of `frame_buf`, for the resident estimate.
    buf_high_water: u64,
    /// Bytes committed since the last explicit flush.
    pending_sync_bytes: u64,
    last_sync: std::time::Instant,
    /// Clock reading at the last flush, when an injected clock drives
    /// the interval policy.
    last_sync_ns: u64,
    /// Injected nanosecond clock for interval checks (tests); wall
    /// clock when `None`.
    clock: Option<fsmon_telemetry::ClockFn>,
}

impl Inner {
    /// Whether `ms` milliseconds have passed since the last flush,
    /// under whichever clock governs the interval policy.
    fn interval_elapsed(&self, ms: u64) -> bool {
        match &self.clock {
            Some(clock) => {
                clock().saturating_sub(self.last_sync_ns) >= ms.saturating_mul(1_000_000)
            }
            None => self.last_sync.elapsed() >= std::time::Duration::from_millis(ms),
        }
    }
}

/// A durable [`EventStore`] over a directory of segment files.
pub struct FileStore {
    inner: Mutex<Inner>,
    faults: Faults,
    t_appends: std::sync::Arc<fsmon_telemetry::Counter>,
    t_append_ns: std::sync::Arc<fsmon_telemetry::Histogram>,
    t_batch_events: std::sync::Arc<fsmon_telemetry::Histogram>,
    t_batch_bytes: std::sync::Arc<fsmon_telemetry::Histogram>,
    t_batch_ns: std::sync::Arc<fsmon_telemetry::Histogram>,
    t_fsyncs: std::sync::Arc<fsmon_telemetry::Counter>,
    t_rolls: std::sync::Arc<fsmon_telemetry::Counter>,
    t_purged_segments: std::sync::Arc<fsmon_telemetry::Counter>,
    t_purge_ns: std::sync::Arc<fsmon_telemetry::Histogram>,
    t_append_errors: std::sync::Arc<fsmon_telemetry::Counter>,
    t_torn_tails: std::sync::Arc<fsmon_telemetry::Counter>,
}

impl FileStore {
    /// Open (or create) a store in `dir`, recovering any existing
    /// segments.
    pub fn open(dir: impl AsRef<Path>) -> Result<FileStore, StoreError> {
        Self::open_with_options(dir, FileStoreOptions::default())
    }

    /// Open with a custom segment roll size (small values exercise
    /// purge behaviour in tests).
    pub fn open_with_segment_bytes(
        dir: impl AsRef<Path>,
        segment_bytes: u64,
    ) -> Result<FileStore, StoreError> {
        Self::open_with_options(
            dir,
            FileStoreOptions {
                segment_bytes,
                ..FileStoreOptions::default()
            },
        )
    }

    /// Open with a fault-injection handle: appends consult it for
    /// injected I/O errors and torn tails (no-op when unarmed).
    pub fn open_with(
        dir: impl AsRef<Path>,
        segment_bytes: u64,
        faults: Faults,
    ) -> Result<FileStore, StoreError> {
        Self::open_with_options(
            dir,
            FileStoreOptions {
                segment_bytes,
                faults,
                ..FileStoreOptions::default()
            },
        )
    }

    /// Open with full construction knobs.
    pub fn open_with_options(
        dir: impl AsRef<Path>,
        options: FileStoreOptions,
    ) -> Result<FileStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let index_every = options.index_every.max(1);
        let mut seg_paths: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
            {
                if let Ok(first) = rest.parse::<u64>() {
                    seg_paths.push((first, entry.path()));
                }
            }
        }
        seg_paths.sort();

        let scope = fsmon_telemetry::root()
            .scope("store")
            .with_label("backend", "file");
        let t_quarantined = scope.counter("quarantined_segments_total");
        let t_quarantined_bytes = scope.counter("quarantined_bytes_total");

        let mut segments = Vec::new();
        let mut next_seq = 0u64;
        let mut appended = 0u64;
        for (first_seq, path) in seg_paths {
            let recovered = recover_segment(&path, index_every)?;
            let meta_len = std::fs::metadata(&path)?.len();
            if meta_len > 0 && recovered.valid_bytes == 0 {
                // Nothing in the segment is readable: quarantine the
                // whole file and keep going — one bad segment must not
                // take the pipeline down.
                std::fs::rename(&path, quarantine_path(&path))?;
                t_quarantined.inc();
                t_quarantined_bytes.add(meta_len);
                continue;
            }
            if recovered.valid_bytes < meta_len {
                // Torn/corrupt tail: preserve the bytes for post-mortem,
                // then truncate back to the last valid record.
                quarantine_tail(&path, recovered.valid_bytes)?;
                t_quarantined.inc();
                t_quarantined_bytes.add(meta_len - recovered.valid_bytes);
            }
            let last_seq = recovered.last_seq.unwrap_or(first_seq.saturating_sub(1));
            next_seq = next_seq.max(last_seq);
            appended += recovered.records;
            segments.push(Segment {
                path,
                first_seq,
                last_seq,
                bytes: recovered.valid_bytes,
                sealed: false,
                file: None,
                index: recovered.index,
            });
        }
        let reported = read_watermark(&dir)?;
        // Segments below the first survivor were purged in a previous
        // incarnation: their sequences are gone for good.
        let floor = segments
            .first()
            .map(|s| s.first_seq.saturating_sub(1))
            .unwrap_or(next_seq);
        Ok(FileStore {
            inner: Mutex::new(Inner {
                dir,
                segment_bytes: options.segment_bytes,
                index_every,
                watermark_every: options.watermark_every.max(1),
                durability: options.durability,
                segments,
                next_seq,
                reported,
                reported_persisted: reported,
                floor,
                appended,
                frame_buf: BytesMut::new(),
                buf_high_water: 0,
                pending_sync_bytes: 0,
                last_sync: std::time::Instant::now(),
                last_sync_ns: options.clock.as_ref().map(|c| c()).unwrap_or(0),
                clock: options.clock,
            }),
            faults: options.faults,
            t_appends: scope.counter("appends_total"),
            t_append_ns: scope.histogram("append_ns"),
            t_batch_events: scope.histogram("batch_events"),
            t_batch_bytes: scope.histogram("batch_bytes"),
            t_batch_ns: scope.histogram("batch_ns"),
            t_fsyncs: scope.counter("fsyncs_total"),
            t_rolls: scope.counter("segment_rolls_total"),
            t_purged_segments: scope.counter("purged_segments_total"),
            t_purge_ns: scope.histogram("purge_ns"),
            t_append_errors: scope.counter("append_errors_total"),
            t_torn_tails: scope.counter("torn_tails_total"),
        })
    }

    /// Select (rolling if needed) the active segment for the next
    /// append and make sure its handle is open. Returns its index.
    fn active_segment(&self, inner: &mut Inner, seq: u64) -> Result<usize, StoreError> {
        let needs_new = match inner.segments.last() {
            None => true,
            Some(seg) => seg.sealed || seg.bytes >= inner.segment_bytes,
        };
        if needs_new {
            // An outgoing segment may still carry unflushed bytes; honor
            // the durability policy before it goes read-only.
            if !matches!(inner.durability, Durability::None) && inner.pending_sync_bytes > 0 {
                self.sync_active(inner)?;
            }
            let path = inner.dir.join(format!("seg-{seq:020}.log"));
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            inner.segments.push(Segment {
                path,
                first_seq: seq,
                last_seq: seq.saturating_sub(1),
                bytes: 0,
                sealed: false,
                file: Some(file),
                index: Vec::new(),
            });
            self.t_rolls.inc();
        }
        let idx = inner.segments.len() - 1;
        let seg = &mut inner.segments[idx];
        if seg.file.is_none() {
            seg.file = Some(OpenOptions::new().append(true).open(&seg.path)?);
        }
        Ok(idx)
    }

    /// Flush the active segment's handle and count it.
    fn sync_active(&self, inner: &mut Inner) -> Result<(), StoreError> {
        if let Some(seg) = inner.segments.last_mut() {
            if let Some(file) = seg.file.as_mut() {
                file.sync_data()?;
                self.t_fsyncs.inc();
            }
        }
        inner.pending_sync_bytes = 0;
        inner.last_sync = std::time::Instant::now();
        inner.last_sync_ns = inner.clock.as_ref().map(|c| c()).unwrap_or(0);
        Ok(())
    }

    /// Apply the durability policy after a commit.
    fn maybe_sync(&self, inner: &mut Inner) -> Result<(), StoreError> {
        let due = match inner.durability {
            Durability::None => false,
            Durability::EveryBatch => inner.pending_sync_bytes > 0,
            Durability::Bytes(n) => inner.pending_sync_bytes >= n,
            Durability::IntervalMs(ms) => {
                inner.pending_sync_bytes > 0 && inner.interval_elapsed(ms)
            }
        };
        if due {
            self.sync_active(inner)?;
        }
        Ok(())
    }
}

/// Sibling path a corrupt segment (or its torn tail) is preserved at.
fn quarantine_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy())
        .unwrap_or_default();
    path.with_file_name(format!("{name}.quarantine"))
}

/// Preserve everything past `valid_bytes` in a quarantine sibling, then
/// truncate the segment back to its last valid record.
fn quarantine_tail(path: &Path, valid_bytes: u64) -> Result<(), StoreError> {
    let mut f = File::open(path)?;
    f.seek(SeekFrom::Start(valid_bytes))?;
    let mut tail = Vec::new();
    f.read_to_end(&mut tail)?;
    std::fs::write(quarantine_path(path), &tail)?;
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(valid_bytes)?;
    Ok(())
}

fn read_watermark(dir: &Path) -> Result<u64, StoreError> {
    let path = dir.join("reported");
    match std::fs::read_to_string(&path) {
        Ok(s) => Ok(s.trim().parse().unwrap_or(0)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(e.into()),
    }
}

fn write_watermark(dir: &Path, value: u64) -> Result<(), StoreError> {
    // Write-then-rename for atomicity.
    let tmp = dir.join("reported.tmp");
    std::fs::write(&tmp, value.to_string())?;
    std::fs::rename(&tmp, dir.join("reported"))?;
    Ok(())
}

/// Outcome of the open-time streaming recovery scan of one segment.
struct RecoveredSegment {
    last_seq: Option<u64>,
    records: u64,
    valid_bytes: u64,
    index: Vec<(u64, u64)>,
}

/// Fill `buf`, tolerating EOF: returns how many bytes were read (short
/// only at end of file).
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Validate one record's payload and extract the stored sequence. A
/// CRC-valid record is trusted except for the minimal framing the
/// replay path depends on (fixed header present, known wire version).
fn payload_seq(payload: &[u8]) -> Option<u64> {
    if payload.len() < 26 || payload[0] != fsmon_events::wire::WIRE_VERSION {
        return None;
    }
    let id = payload[EVENT_ID_OFFSET..EVENT_ID_OFFSET + 8]
        .try_into()
        .ok()?;
    Some(u64::from_be_bytes(id))
}

/// Stream one segment front to back in a single buffered pass, building
/// the sparse replay index as it goes. Stops at the first record whose
/// framing, CRC, or payload header is invalid — that is the torn tail.
fn recover_segment(path: &Path, index_every: u64) -> Result<RecoveredSegment, StoreError> {
    let mut reader = BufReader::with_capacity(SCAN_BUF, File::open(path)?);
    let mut header = [0u8; HEADER];
    let mut payload: Vec<u8> = Vec::new();
    let mut out = RecoveredSegment {
        last_seq: None,
        records: 0,
        valid_bytes: 0,
        index: Vec::new(),
    };
    let mut pos = 0u64;
    loop {
        if read_full(&mut reader, &mut header)? < HEADER {
            break; // clean EOF or a sub-header torn tail
        }
        let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_be_bytes(header[4..].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN {
            break; // torn tail: garbage length
        }
        payload.resize(len, 0);
        if read_full(&mut reader, &mut payload)? < len {
            break; // torn tail: truncated payload
        }
        if crc32(&payload) != crc {
            break; // torn/corrupt tail
        }
        let Some(seq) = payload_seq(&payload) else {
            break; // torn tail: unreadable payload header
        };
        if out.records.is_multiple_of(index_every) {
            out.index.push((seq, pos));
        }
        out.records += 1;
        out.last_seq = Some(seq);
        pos += (HEADER + len) as u64;
        out.valid_bytes = pos;
    }
    Ok(out)
}

impl FileStore {
    /// Stream records of `seg` into `out`, starting from the sparse
    /// index entry at or before `start`, keeping events with
    /// `id > since`, until `max` events are collected or the valid
    /// extent ends.
    fn scan_segment_into(
        seg: &Segment,
        since: u64,
        max: usize,
        payload: &mut Vec<u8>,
        out: &mut Vec<StandardEvent>,
    ) -> Result<(), StoreError> {
        let start = (since + 1).max(seg.first_seq);
        let at = seg.index.partition_point(|&(s, _)| s <= start);
        let from = if at == 0 { 0 } else { seg.index[at - 1].1 };
        let mut file = File::open(&seg.path)?;
        file.seek(SeekFrom::Start(from))?;
        let mut reader = BufReader::with_capacity(SCAN_BUF, file);
        let mut pos = from;
        let mut header = [0u8; HEADER];
        while pos < seg.bytes && out.len() < max {
            reader.read_exact(&mut header).map_err(|e| {
                StoreError::Corrupt(format!("record header short inside valid extent: {e}"))
            })?;
            let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_be_bytes(header[4..].try_into().expect("4 bytes"));
            if len > MAX_RECORD_LEN || pos + (HEADER + len) as u64 > seg.bytes {
                return Err(StoreError::Corrupt(format!(
                    "record length {len} overruns valid extent at offset {pos}"
                )));
            }
            payload.resize(len, 0);
            reader.read_exact(payload).map_err(|e| {
                StoreError::Corrupt(format!("record payload short inside valid extent: {e}"))
            })?;
            if crc32(payload) != crc {
                return Err(StoreError::Corrupt(format!(
                    "crc mismatch inside valid extent at offset {pos}"
                )));
            }
            let seq = payload_seq(payload).ok_or_else(|| {
                StoreError::Corrupt(format!("unreadable payload at offset {pos}"))
            })?;
            if seq > since {
                let ev = decode_event(&Bytes::copy_from_slice(payload))
                    .map_err(|e| StoreError::Corrupt(format!("decode at offset {pos}: {e:?}")))?;
                out.push(ev);
            }
            pos += (HEADER + len) as u64;
        }
        Ok(())
    }
}

impl EventStore for FileStore {
    fn append(&self, event: &StandardEvent) -> Result<u64, StoreError> {
        self.append_batch(std::slice::from_ref(event))
    }

    /// Encode the batch, then commit it through
    /// [`append_encoded`](EventStore::append_encoded) — the one commit
    /// path, so both entry points write the same bytes.
    fn append_batch(&self, events: &[StandardEvent]) -> Result<u64, StoreError> {
        let mut frame = BytesMut::new();
        let mut id_offsets = Vec::with_capacity(events.len());
        encode_event_batch_offsets(events, &mut frame, &mut id_offsets);
        let mut records = record_spans(&id_offsets, frame.len()).map(|span| &frame[span]);
        self.append_encoded(&mut records)
    }

    /// Native group commit: each record is copied behind its
    /// `len | crc` header into one reused frame buffer, its id field
    /// overwritten with the assigned sequence and the CRC taken over the
    /// result; the group lands with a single `write_all` per segment
    /// touched, under a single lock acquisition. On failure (injected
    /// I/O error or torn tail, or a record without a valid header), the
    /// records copied before the failure are already durable and
    /// counted, so the caller resumes the suffix from the
    /// `stats().appended` delta.
    fn append_encoded(&self, records: &mut dyn Iterator<Item = &[u8]>) -> Result<u64, StoreError> {
        let mut records = records.peekable();
        if records.peek().is_none() {
            return Ok(0);
        }
        let t0 = std::time::Instant::now();
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let mut committed = 0usize;
        let mut batch_bytes = 0u64;
        let mut result: Result<(), StoreError> = Ok(());

        while records.peek().is_some() && result.is_ok() {
            let next = inner.next_seq + 1;
            let seg_idx = self.active_segment(inner, next)?;
            let seg_base = inner.segments[seg_idx].bytes;
            let seg_first = inner.segments[seg_idx].first_seq;
            let index_mark = inner.segments[seg_idx].index.len();
            inner.frame_buf.clear();
            let mut n_group = 0usize;
            // Extent of the group's complete frames; a torn frame (if
            // any) starts here and is never committed.
            let mut complete_len = 0usize;
            let mut torn = false;
            // Bytes to put on disk: the complete frames, plus half of
            // the torn frame when a torn tail is injected.
            let mut write_len = 0usize;

            while let Some(&record) = records.peek() {
                if n_group > 0 && seg_base + complete_len as u64 >= inner.segment_bytes {
                    break; // segment full: land this group, then roll
                }
                // Injected transient I/O error: fail before this record
                // makes any state change, so a retry reuses its
                // sequence. Records already copied in this group still
                // land — they are the durable prefix the caller resumes
                // past.
                if self.faults.inject(FaultPoint::StoreAppend).is_some() {
                    result = Err(StoreError::Io(std::io::Error::other(
                        "injected append I/O error",
                    )));
                    break;
                }
                if payload_seq(record).is_none() {
                    result = Err(StoreError::Corrupt(format!(
                        "record of {} bytes has no valid event header",
                        record.len()
                    )));
                    break;
                }
                let seq = inner.next_seq + n_group as u64 + 1;
                let header_at = inner.frame_buf.len();
                inner
                    .frame_buf
                    .extend_from_slice(&(record.len() as u32).to_be_bytes());
                inner.frame_buf.extend_from_slice(&[0u8; 4]);
                let payload_at = inner.frame_buf.len();
                inner.frame_buf.extend_from_slice(record);
                patch_event_id(&mut inner.frame_buf, payload_at + EVENT_ID_OFFSET, seq);
                let crc = crc32(&inner.frame_buf[payload_at..]);
                inner.frame_buf[header_at + 4..payload_at].copy_from_slice(&crc.to_be_bytes());
                if self.faults.inject(FaultPoint::StoreTornTail).is_some() {
                    // Injected torn tail: half of this record's frame
                    // lands after the group's complete frames, as if
                    // the process died mid-batch-write.
                    torn = true;
                    write_len = payload_at + record.len() / 2;
                    result = Err(StoreError::Io(std::io::Error::other("injected torn tail")));
                    break;
                }
                records.next();
                if (seq - seg_first).is_multiple_of(inner.index_every) {
                    inner.segments[seg_idx]
                        .index
                        .push((seq, seg_base + header_at as u64));
                }
                n_group += 1;
                complete_len = inner.frame_buf.len();
            }
            if !torn {
                write_len = complete_len;
            }

            if write_len > 0 {
                let Inner {
                    segments,
                    frame_buf,
                    ..
                } = inner;
                let seg = &mut segments[seg_idx];
                let file = seg.file.as_mut().expect("open file");
                if let Err(e) = file.write_all(&frame_buf[..write_len]) {
                    // A real failed write leaves the on-disk frame
                    // boundary unknown: seal the segment so the next
                    // append rolls to a fresh one, and let open-time
                    // recovery quarantine whatever landed past the last
                    // commit.
                    seg.sealed = true;
                    seg.file = None;
                    seg.index.truncate(index_mark);
                    self.t_append_errors.inc();
                    return Err(e.into());
                }
            }

            // Commit the group's complete frames: all of them on the
            // clean path, the durable prefix before the failure
            // otherwise.
            if n_group > 0 {
                let seg = &mut inner.segments[seg_idx];
                seg.bytes = seg_base + complete_len as u64;
                seg.last_seq = inner.next_seq + n_group as u64;
                inner.next_seq += n_group as u64;
                inner.appended += n_group as u64;
                inner.pending_sync_bytes += complete_len as u64;
                committed += n_group;
                batch_bytes += complete_len as u64;
                self.t_appends.add(n_group as u64);
            }
            inner.buf_high_water = inner.buf_high_water.max(inner.frame_buf.len() as u64);
            if torn {
                // Poison the segment so the next append rolls to a
                // fresh one: the torn bytes stay at this segment's
                // tail, exactly where open-time recovery expects to
                // quarantine them. A segment with no valid records yet
                // is healed in place instead — rolling would reuse its
                // `seg-<seq>` file name and land valid records after
                // the garbage.
                let seg = &mut inner.segments[seg_idx];
                seg.file = None;
                if seg.is_empty() {
                    let f = OpenOptions::new().write(true).open(&seg.path)?;
                    f.set_len(seg.bytes)?;
                } else {
                    seg.sealed = true;
                }
                self.t_torn_tails.inc();
            }
            if result.is_err() {
                self.t_append_errors.inc();
            }
        }

        // The durability policy covers everything this call landed —
        // including the durable prefix of a failed batch.
        if batch_bytes > 0 {
            if let Err(e) = self.maybe_sync(inner) {
                if result.is_ok() {
                    result = Err(e);
                }
            }
            self.t_batch_events.record(committed as u64);
            self.t_batch_bytes.record(batch_bytes);
            let elapsed = t0.elapsed().as_nanos() as u64;
            self.t_batch_ns.record(elapsed);
            self.t_append_ns.record(elapsed);
        }
        result.map(|_| inner.next_seq)
    }

    fn get_since(&self, since: u64, max: usize) -> Result<Vec<StandardEvent>, StoreError> {
        let inner = self.inner.lock();
        let since = since.max(inner.floor);
        let start = since + 1;
        let mut out = Vec::new();
        let mut payload: Vec<u8> = Vec::new();
        let i0 = inner.segments.partition_point(|s| s.last_seq < start);
        for seg in &inner.segments[i0..] {
            if out.len() >= max {
                break;
            }
            if seg.is_empty() {
                continue;
            }
            Self::scan_segment_into(seg, since, max, &mut payload, &mut out)?;
        }
        Ok(out)
    }

    fn mark_reported(&self, up_to: u64) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        if up_to > inner.reported {
            inner.reported = up_to;
        }
        // Coalesced persistence: one watermark file rewrite per
        // `watermark_every` sequences (purge always persists first). A
        // crash in between recovers a lagging watermark, which only
        // widens the consumer-side dedup window — consumers already
        // drop duplicate ids (PR 2).
        if inner.reported - inner.reported_persisted >= inner.watermark_every {
            write_watermark(&inner.dir, inner.reported)?;
            inner.reported_persisted = inner.reported;
        }
        Ok(())
    }

    fn purge_reported(&self) -> Result<(), StoreError> {
        let t0 = std::time::Instant::now();
        let mut inner = self.inner.lock();
        let watermark = inner.reported;
        // Purge is the watermark's durability point: segment removal
        // must never outrun the persisted watermark, or a crash could
        // resurrect a purged range as "unreported".
        if inner.reported_persisted < watermark {
            write_watermark(&inner.dir, watermark)?;
            inner.reported_persisted = watermark;
        }
        // Drop whole segments that are fully reported. Removing the
        // active segment is safe: its entry (and open handle) goes away
        // with it, so the next append starts a fresh segment.
        let mut removed = Vec::new();
        inner.segments.retain(|seg| {
            let fully_reported = seg.last_seq <= watermark && seg.last_seq >= seg.first_seq;
            if fully_reported {
                removed.push(seg.path.clone());
            }
            !fully_reported
        });
        self.t_purged_segments.add(removed.len() as u64);
        for path in removed {
            std::fs::remove_file(path)?;
        }
        inner.floor = inner.floor.max(watermark.min(inner.next_seq));
        self.t_purge_ns.record(t0.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn flush_if_due(&self) -> Result<bool, StoreError> {
        let mut inner = self.inner.lock();
        let due = match inner.durability {
            Durability::IntervalMs(ms) => {
                inner.pending_sync_bytes > 0 && inner.interval_elapsed(ms)
            }
            // Other policies flush at commit time; an idle store has
            // nothing overdue.
            _ => false,
        };
        if due {
            self.sync_active(&mut inner)?;
        }
        Ok(due)
    }

    fn needs_flush_ticker(&self) -> bool {
        matches!(self.inner.lock().durability, Durability::IntervalMs(_))
    }

    fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        let index_entries: usize = inner.segments.iter().map(|s| s.index.len()).sum();
        StoreStats {
            appended: inner.appended,
            last_seq: inner.next_seq,
            reported_seq: inner.reported,
            retained: inner.next_seq - inner.floor,
            resident_bytes: (inner.segments.len() * std::mem::size_of::<Segment>()
                + index_entries * std::mem::size_of::<(u64, u64)>())
                as u64
                + inner.buf_high_water,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmon_events::EventKind;

    fn ev(name: &str) -> StandardEvent {
        StandardEvent::new(EventKind::Create, "/r", name)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fsmon-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_and_replay() {
        let dir = tmpdir("basic");
        let store = FileStore::open(&dir).unwrap();
        for i in 0..10 {
            store.append(&ev(&format!("f{i}"))).unwrap();
        }
        let got = store.get_since(5, 100).unwrap();
        assert_eq!(
            got.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![6, 7, 8, 9, 10]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn native_batch_lands_in_one_commit() {
        let dir = tmpdir("batch");
        let store = FileStore::open(&dir).unwrap();
        let batch: Vec<StandardEvent> = (0..100).map(|i| ev(&format!("b{i}"))).collect();
        assert_eq!(store.append_batch(&batch).unwrap(), 100);
        assert_eq!(store.stats().appended, 100);
        let got = store.get_since(0, 200).unwrap();
        assert_eq!(got.len(), 100);
        assert_eq!(
            got.iter().map(|e| e.id).collect::<Vec<_>>(),
            (1..=100).collect::<Vec<u64>>()
        );
        assert!(got[42].path.ends_with("b42"));
        // Empty batches assign nothing.
        assert_eq!(store.append_batch(&[]).unwrap(), 0);
        assert_eq!(store.stats().last_seq, 100);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_straddles_segment_rolls() {
        let dir = tmpdir("batch-roll");
        let store = FileStore::open_with_segment_bytes(&dir, 256).unwrap();
        let batch: Vec<StandardEvent> = (0..50).map(|i| ev(&format!("r{i}"))).collect();
        assert_eq!(store.append_batch(&batch).unwrap(), 50);
        let seg_count = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("seg-")
            })
            .count();
        assert!(seg_count > 1, "batch rolled across segments");
        let got = store.get_since(0, 100).unwrap();
        assert_eq!(
            got.iter().map(|e| e.id).collect::<Vec<_>>(),
            (1..=50).collect::<Vec<u64>>()
        );
        // Replay survives reopen (index rebuilt from disk).
        drop(store);
        let store = FileStore::open_with_segment_bytes(&dir, 256).unwrap();
        let got = store.get_since(20, 100).unwrap();
        assert_eq!(
            got.iter().map(|e| e.id).collect::<Vec<_>>(),
            (21..=50).collect::<Vec<u64>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_events_and_sequence() {
        let dir = tmpdir("reopen");
        {
            let store = FileStore::open(&dir).unwrap();
            for i in 0..25 {
                store.append(&ev(&format!("f{i}"))).unwrap();
            }
            store.mark_reported(10).unwrap();
            // Watermark writes coalesce; purge is the durability point.
            store.purge_reported().unwrap();
        }
        let store = FileStore::open(&dir).unwrap();
        let st = store.stats();
        assert_eq!(st.last_seq, 25);
        assert_eq!(st.reported_seq, 10);
        // New appends continue the sequence.
        assert_eq!(store.append(&ev("new")).unwrap(), 26);
        let got = store.get_since(24, 10).unwrap();
        assert_eq!(got.iter().map(|e| e.id).collect::<Vec<_>>(), vec![25, 26]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watermark_coalesces_until_purge() {
        let dir = tmpdir("coalesce");
        {
            let store = FileStore::open(&dir).unwrap();
            for i in 0..5 {
                store.append(&ev(&format!("f{i}"))).unwrap();
            }
            store.mark_reported(3).unwrap();
            // Small advance: nothing persisted yet.
            assert!(!dir.join("reported").exists());
        }
        {
            // A crash here recovers watermark 0 — a wider dedup window,
            // never loss.
            let store = FileStore::open(&dir).unwrap();
            assert_eq!(store.stats().reported_seq, 0);
            store.mark_reported(3).unwrap();
            store.purge_reported().unwrap();
            assert!(dir.join("reported").exists());
        }
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.stats().reported_seq, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_recovery() {
        let dir = tmpdir("torn");
        {
            let store = FileStore::open(&dir).unwrap();
            for i in 0..5 {
                store.append(&ev(&format!("f{i}"))).unwrap();
            }
        }
        // Corrupt: append garbage (a partial record) to the segment.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("seg-"))
            .unwrap()
            .path();
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xAB; 7]).unwrap(); // less than a header
        drop(f);
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.stats().last_seq, 5, "valid prefix recovered");
        assert_eq!(store.append(&ev("after")).unwrap(), 6);
        // And the recovered store must survive another reopen cleanly.
        drop(store);
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.stats().last_seq, 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_crc_stops_replay_at_corruption() {
        let dir = tmpdir("crc");
        {
            let store = FileStore::open(&dir).unwrap();
            for i in 0..3 {
                store.append(&ev(&format!("f{i}"))).unwrap();
            }
        }
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("seg-"))
            .unwrap()
            .path();
        // Flip a byte in the middle of the last record's payload.
        let mut raw = std::fs::read(&seg).unwrap();
        let n = raw.len();
        raw[n - 3] ^= 0xFF;
        std::fs::write(&seg, &raw).unwrap();
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.stats().last_seq, 2, "record 3 dropped");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn purge_drops_fully_reported_segments() {
        let dir = tmpdir("purge");
        // Tiny segments: every ~2 events rolls a segment.
        let store = FileStore::open_with_segment_bytes(&dir, 100).unwrap();
        for i in 0..10 {
            store.append(&ev(&format!("f{i}"))).unwrap();
        }
        store.mark_reported(6).unwrap();
        store.purge_reported().unwrap();
        let remaining = store.get_since(0, 100).unwrap();
        assert!(remaining.iter().all(|e| e.id > 6));
        // Files on disk shrank too.
        let seg_count = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("seg-")
            })
            .count();
        assert!(seg_count < 10);
        // Replay after purge + reopen only yields unreported events.
        drop(store);
        let store = FileStore::open(&dir).unwrap();
        let replay = store.get_since(0, 100).unwrap();
        assert!(replay.iter().all(|e| e.id > 6));
        assert!(replay.iter().any(|e| e.id == 10));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_appends_get_unique_sequences() {
        let dir = tmpdir("concurrent");
        let store = std::sync::Arc::new(FileStore::open(&dir).unwrap());
        let mut handles = vec![];
        for _ in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                (0..100)
                    .map(|i| store.append(&ev(&format!("f{i}"))).unwrap())
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durability_every_batch_counts_fsyncs() {
        let dir = tmpdir("fsync");
        let store = FileStore::open_with_options(
            &dir,
            FileStoreOptions {
                durability: Durability::EveryBatch,
                ..FileStoreOptions::default()
            },
        )
        .unwrap();
        let before = fsmon_telemetry::root()
            .scope("store")
            .with_label("backend", "file")
            .counter("fsyncs_total")
            .get();
        let batch: Vec<StandardEvent> = (0..10).map(|i| ev(&format!("s{i}"))).collect();
        store.append_batch(&batch).unwrap();
        store.append_batch(&batch).unwrap();
        let after = fsmon_telemetry::root()
            .scope("store")
            .with_label("backend", "file")
            .counter("fsyncs_total")
            .get();
        assert!(after >= before + 2, "one flush per batch");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_if_due_syncs_idle_interval_store() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let dir = tmpdir("idleflush");
        let now = Arc::new(AtomicU64::new(0));
        let clock = now.clone();
        let store = FileStore::open_with_options(
            &dir,
            FileStoreOptions {
                durability: Durability::IntervalMs(100),
                clock: Some(Arc::new(move || clock.load(Ordering::Relaxed))),
                ..FileStoreOptions::default()
            },
        )
        .unwrap();
        // A commit inside the interval leaves the tail unsynced.
        store.append(&ev("idle")).unwrap();
        assert!(!store.flush_if_due().unwrap(), "interval not yet elapsed");
        // The store then goes idle; only the clock advances.
        now.store(150 * 1_000_000, Ordering::Relaxed);
        assert!(store.flush_if_due().unwrap(), "overdue tail must sync");
        // Nothing pending afterwards: the call is idempotent.
        assert!(!store.flush_if_due().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn purge_floor_bounds_live_replay_and_retained() {
        let dir = tmpdir("floor");
        // One big segment: purge removes no files, but the floor still
        // hides reported events from live replay — same observable
        // behaviour the in-memory mirror used to provide.
        let store = FileStore::open(&dir).unwrap();
        for i in 0..5 {
            store.append(&ev(&format!("f{i}"))).unwrap();
        }
        store.mark_reported(3).unwrap();
        store.purge_reported().unwrap();
        assert_eq!(store.stats().retained, 2);
        let got = store.get_since(0, 10).unwrap();
        assert_eq!(got.iter().map(|e| e.id).collect::<Vec<_>>(), vec![4, 5]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
