//! Compact binary wire codec for [`StandardEvent`]s.
//!
//! Collectors publish event batches to the aggregator over the message
//! queue (paper §IV Aggregation); this codec defines the frame payload.
//! The format is length-delimited and versioned:
//!
//! ```text
//! event   := u8 version | u64 id | u8 kind | u8 flags | u8 source
//!          | u16 mdt (0xFFFF = none) | u32 cookie | u64 timestamp_ns
//!          | str watch_root | str path | opt_str old_path
//!          | [u64 size, if flags & HAS_SIZE] | [u32 owner, if flags & HAS_OWNER]
//! str     := u32 len | len bytes (UTF-8)
//! opt_str := u8 present | str?
//! batch   := u32 count | count * event
//! ```
//!
//! The trailing metadata fields are flag-gated, so unenriched events
//! pay zero bytes for them. Their introduction bumped the version byte
//! to 2, and only version 2 is accepted ([`WireError::BadVersion`]
//! otherwise).
//!
//! A collector's frame is the only encoding an event gets between the
//! collector and the store. [`walk_event_batch`] validates a batch in
//! place and yields each record's byte range plus a borrowed
//! [`EventView`]; the aggregator trims, stamps, matches and stores those
//! bytes without building a [`StandardEvent`]. [`decode_event_from`] is
//! the same parser followed by [`EventView::to_event`].

use crate::event::{EventFields, MonitorSource, StandardEvent};
use crate::kind::EventKind;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Codec version byte, the only one the decoder accepts. Version 2
/// added the flag-gated size/owner metadata tail.
pub const WIRE_VERSION: u8 = 2;

const FLAG_IS_DIR: u8 = 0b0000_0001;
const FLAG_HAS_SIZE: u8 = 0b0000_0010;
const FLAG_HAS_OWNER: u8 = 0b0000_0100;

/// Errors produced while decoding a wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame ended before the structure was complete.
    Truncated,
    /// Unknown codec version byte.
    BadVersion(u8),
    /// Unknown event-kind tag.
    BadKind(u8),
    /// Unknown source tag.
    BadSource(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A declared length exceeds sanity limits.
    LengthOverflow(u64),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadVersion(v) => write!(f, "unknown wire version {v}"),
            WireError::BadKind(t) => write!(f, "unknown event kind tag {t}"),
            WireError::BadSource(t) => write!(f, "unknown source tag {t}"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::LengthOverflow(n) => write!(f, "declared length {n} too large"),
        }
    }
}

impl std::error::Error for WireError {}

/// Upper bound on any single string field; protects decoders from
/// hostile or corrupt frames.
const MAX_STR: u32 = 1 << 20;
/// Upper bound on events per batch frame.
const MAX_BATCH: u32 = 1 << 22;

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Serialize one event into `buf`.
pub fn encode_event_into(ev: &StandardEvent, buf: &mut BytesMut) {
    buf.put_u8(WIRE_VERSION);
    buf.put_u64(ev.id);
    buf.put_u8(ev.kind.wire_tag());
    let mut flags = 0u8;
    if ev.is_dir {
        flags |= FLAG_IS_DIR;
    }
    if ev.size.is_some() {
        flags |= FLAG_HAS_SIZE;
    }
    if ev.owner.is_some() {
        flags |= FLAG_HAS_OWNER;
    }
    buf.put_u8(flags);
    buf.put_u8(ev.source.wire_tag());
    buf.put_u16(ev.mdt_index.unwrap_or(u16::MAX));
    buf.put_u32(ev.cookie);
    buf.put_u64(ev.timestamp_ns);
    put_str(buf, &ev.watch_root);
    put_str(buf, &ev.path);
    match &ev.old_path {
        Some(p) => {
            buf.put_u8(1);
            put_str(buf, p);
        }
        None => buf.put_u8(0),
    }
    if let Some(size) = ev.size {
        buf.put_u64(size);
    }
    if let Some(owner) = ev.owner {
        buf.put_u32(owner);
    }
}

/// Serialize one event into a standalone frame.
pub fn encode_event(ev: &StandardEvent) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + ev.path.len() + ev.watch_root.len());
    encode_event_into(ev, &mut buf);
    buf.freeze()
}

/// Fixed-width record header: version(1) id(8) kind(1) flags(1)
/// source(1) mdt(2) cookie(4) timestamp(8).
const FIXED_HEADER: usize = 26;

/// One encoded event record, borrowed from its frame and fully
/// validated: every field of a [`StandardEvent`], with the strings
/// pointing into the frame. Parsing allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventView<'a> {
    /// Sequence number as encoded (0 until the sequencer stamps it).
    pub id: u64,
    /// Standardized event type.
    pub kind: EventKind,
    /// Whether the subject is a directory.
    pub is_dir: bool,
    /// Watch root.
    pub watch_root: &'a str,
    /// Path relative to the watch root.
    pub path: &'a str,
    /// Old path of a rename destination.
    pub old_path: Option<&'a str>,
    /// Rename cookie.
    pub cookie: u32,
    /// Event time in nanoseconds.
    pub timestamp_ns: u64,
    /// Producing facility.
    pub source: MonitorSource,
    /// MDT index, if any.
    pub mdt_index: Option<u16>,
    /// Subject size, when enriched.
    pub size: Option<u64>,
    /// Subject owner uid, when enriched.
    pub owner: Option<u32>,
}

/// A bounds-checked big-endian reader over a borrowed slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(WireError::Truncated)?;
        self.pos += n;
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take(N) is N bytes"))
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_be_bytes)
    }

    fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()?;
        if len > MAX_STR {
            return Err(WireError::LengthOverflow(len as u64));
        }
        std::str::from_utf8(self.take(len as usize)?).map_err(|_| WireError::BadUtf8)
    }
}

impl<'a> EventView<'a> {
    /// Parse the record at the front of `buf`. Returns the view and the
    /// record's encoded length; bytes past it are left unread.
    pub fn parse(buf: &'a [u8]) -> Result<(EventView<'a>, usize), WireError> {
        if buf.len() < FIXED_HEADER {
            return Err(WireError::Truncated);
        }
        let mut r = Reader { buf, pos: 0 };
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let id = r.u64()?;
        let kind_tag = r.u8()?;
        let kind = EventKind::from_wire_tag(kind_tag).ok_or(WireError::BadKind(kind_tag))?;
        let flags = r.u8()?;
        let source_tag = r.u8()?;
        let source =
            MonitorSource::from_wire_tag(source_tag).ok_or(WireError::BadSource(source_tag))?;
        let mdt = r.u16()?;
        let cookie = r.u32()?;
        let timestamp_ns = r.u64()?;
        let watch_root = r.str()?;
        let path = r.str()?;
        let old_path = if r.u8()? != 0 { Some(r.str()?) } else { None };
        let size = if flags & FLAG_HAS_SIZE != 0 {
            Some(r.u64()?)
        } else {
            None
        };
        let owner = if flags & FLAG_HAS_OWNER != 0 {
            Some(r.u32()?)
        } else {
            None
        };
        let view = EventView {
            id,
            kind,
            is_dir: flags & FLAG_IS_DIR != 0,
            watch_root,
            path,
            old_path,
            cookie,
            timestamp_ns,
            source,
            mdt_index: if mdt == u16::MAX { None } else { Some(mdt) },
            size,
            owner,
        };
        Ok((view, r.pos))
    }

    /// The owned event this record encodes.
    pub fn to_event(&self) -> StandardEvent {
        StandardEvent {
            id: self.id,
            kind: self.kind,
            is_dir: self.is_dir,
            watch_root: self.watch_root.to_string(),
            path: self.path.to_string(),
            old_path: self.old_path.map(str::to_string),
            cookie: self.cookie,
            timestamp_ns: self.timestamp_ns,
            source: self.source,
            mdt_index: self.mdt_index,
            size: self.size,
            owner: self.owner,
        }
    }
}

impl EventFields for EventView<'_> {
    fn id(&self) -> u64 {
        self.id
    }
    fn kind(&self) -> EventKind {
        self.kind
    }
    fn is_dir(&self) -> bool {
        self.is_dir
    }
    fn mdt_index(&self) -> Option<u16> {
        self.mdt_index
    }
    fn path(&self) -> &str {
        self.path
    }
    fn old_path(&self) -> Option<&str> {
        self.old_path
    }
}

/// Decode one event, consuming its bytes from `buf`.
pub fn decode_event_from(buf: &mut Bytes) -> Result<StandardEvent, WireError> {
    let (view, len) = EventView::parse(buf.as_slice())?;
    let event = view.to_event();
    buf.advance(len);
    Ok(event)
}

/// Decode one standalone event frame.
pub fn decode_event(frame: &Bytes) -> Result<StandardEvent, WireError> {
    let mut buf = frame.clone();
    decode_event_from(&mut buf)
}

/// Byte offset of the `u64 id` field inside one encoded event record:
/// it sits immediately after the version byte.
pub const EVENT_ID_OFFSET: usize = 1;

/// Serialize a batch of events into a single frame (the aggregator's
/// batching granularity, paper §III-A2).
pub fn encode_event_batch(events: &[StandardEvent]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + events.len() * 96);
    encode_event_batch_into(events, &mut buf);
    buf.split_frozen()
}

/// Serialize a batch into a caller-owned buffer (cleared first), so a
/// hot publish lane reuses one grown allocation instead of allocating
/// per frame. Freeze the result with [`BytesMut::split_frozen`] to
/// keep the buffer's capacity for the next batch.
pub fn encode_event_batch_into(events: &[StandardEvent], buf: &mut BytesMut) {
    buf.clear();
    buf.put_u32(events.len() as u32);
    for ev in events {
        encode_event_into(ev, buf);
    }
}

/// Like [`encode_event_batch_into`], additionally recording into
/// `id_offsets` the byte offset of each event's `id` field within the
/// frame, so a downstream sequencer can stamp ids in place with
/// [`patch_event_id`] after encode (ids are not known until the single
/// sequencer stage assigns them).
pub fn encode_event_batch_offsets(
    events: &[StandardEvent],
    buf: &mut BytesMut,
    id_offsets: &mut Vec<usize>,
) {
    buf.clear();
    id_offsets.clear();
    buf.put_u32(events.len() as u32);
    for ev in events {
        id_offsets.push(buf.len() + EVENT_ID_OFFSET);
        encode_event_into(ev, buf);
    }
}

/// The byte range of each record of a batch frame of `frame_len`
/// bytes, from the id offsets [`encode_event_batch_offsets`] recorded:
/// record `i` runs from its own start to the next record's start, the
/// last one to the end of the frame (so the frame must hold no bytes
/// past its last record).
pub fn record_spans(
    id_offsets: &[usize],
    frame_len: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let ends = id_offsets
        .iter()
        .skip(1)
        .map(|next| next - EVENT_ID_OFFSET)
        .chain(std::iter::once(frame_len));
    id_offsets
        .iter()
        .zip(ends)
        .map(|(off, end)| off - EVENT_ID_OFFSET..end)
}

/// Overwrite the big-endian `id` field at `id_offset` (as recorded by
/// [`encode_event_batch_offsets`]) in an encoded frame.
pub fn patch_event_id(buf: &mut BytesMut, id_offset: usize, id: u64) {
    buf[id_offset..id_offset + 8].copy_from_slice(&id.to_be_bytes());
}

/// Upper bound on one meta TLV section's payload.
const MAX_TLV: u32 = 1 << 22;

/// TLV tag for a trace section: back-to-back fixed-width trace
/// records (see `fsmon-telemetry::trace`). The payload is opaque to
/// this codec.
pub const TLV_TRACE: u8 = 1;

/// Append one TLV section (`u8 tag | u32 len | payload`) to a meta
/// frame. Sections concatenate, so meta extensions never disturb
/// existing readers: an untraced batch simply carries no trace
/// section and pays zero bytes.
pub fn append_tlv(buf: &mut BytesMut, tag: u8, payload: &[u8]) {
    buf.put_u8(tag);
    buf.put_u32(payload.len() as u32);
    buf.put_slice(payload);
}

/// Encode a single TLV section as a standalone frame.
pub fn encode_tlv(tag: u8, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(5 + payload.len());
    append_tlv(&mut buf, tag, payload);
    buf.freeze()
}

/// Find the first section with `tag` in a TLV frame. Returns the
/// payload slice, `Ok(None)` when absent (including an empty frame).
pub fn find_tlv(frame: &[u8], tag: u8) -> Result<Option<&[u8]>, WireError> {
    let mut rest = frame;
    while !rest.is_empty() {
        if rest.len() < 5 {
            return Err(WireError::Truncated);
        }
        let section_tag = rest[0];
        let len = u32::from_be_bytes([rest[1], rest[2], rest[3], rest[4]]);
        if len > MAX_TLV {
            return Err(WireError::LengthOverflow(len as u64));
        }
        let end = 5 + len as usize;
        if rest.len() < end {
            return Err(WireError::Truncated);
        }
        if section_tag == tag {
            return Ok(Some(&rest[5..end]));
        }
        rest = &rest[end..];
    }
    Ok(None)
}

/// An allocation-free pass over a batch frame: yields, in order, each
/// record's byte range within the frame and its [`EventView`]. The walk
/// stops after the first invalid record (yielding its error) or after
/// `count` records; bytes past the last record are never read.
pub struct BatchWalk<'a> {
    frame: &'a [u8],
    pos: usize,
    left: u32,
}

impl BatchWalk<'_> {
    /// Records not yet yielded.
    pub fn remaining(&self) -> usize {
        self.left as usize
    }
}

impl<'a> Iterator for BatchWalk<'a> {
    type Item = Result<(std::ops::Range<usize>, EventView<'a>), WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        match EventView::parse(&self.frame[self.pos..]) {
            Ok((view, len)) => {
                let range = self.pos..self.pos + len;
                self.pos += len;
                self.left -= 1;
                Some(Ok((range, view)))
            }
            Err(e) => {
                self.left = 0;
                Some(Err(e))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.left as usize))
    }
}

/// Start walking a batch frame (`u32 count | count * event`). Fails on
/// a short or over-long count; each record is validated as it is
/// walked. A frame whose walk yields no error is exactly one that
/// [`decode_event_batch`] accepts.
pub fn walk_event_batch(frame: &[u8]) -> Result<BatchWalk<'_>, WireError> {
    let count = frame
        .get(..4)
        .ok_or(WireError::Truncated)
        .map(|b| u32::from_be_bytes(b.try_into().expect("4 bytes")))?;
    if count > MAX_BATCH {
        return Err(WireError::LengthOverflow(count as u64));
    }
    Ok(BatchWalk {
        frame,
        pos: 4,
        left: count,
    })
}

/// Decode a batch frame.
pub fn decode_event_batch(frame: &Bytes) -> Result<Vec<StandardEvent>, WireError> {
    let walk = walk_event_batch(frame)?;
    let mut out = Vec::with_capacity(walk.remaining());
    for record in walk {
        out.push(record?.1.to_event());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StandardEvent {
        let mut ev = StandardEvent::new(EventKind::MovedTo, "/mnt/lustre", "okdir/hi.txt")
            .with_old_path("/hi.txt")
            .with_cookie(0xDEAD)
            .with_timestamp(123_456_789)
            .with_mdt(2)
            .with_source(MonitorSource::LustreChangelog);
        ev.id = 42;
        ev.is_dir = false;
        ev
    }

    #[test]
    fn roundtrip_single() {
        let ev = sample();
        let frame = encode_event(&ev);
        assert_eq!(decode_event(&frame).unwrap(), ev);
    }

    #[test]
    fn roundtrip_no_optionals() {
        let ev = StandardEvent::new(EventKind::Create, "/r", "f").dir();
        let frame = encode_event(&ev);
        let d = decode_event(&frame).unwrap();
        assert_eq!(d, ev);
        assert!(d.is_dir);
        assert_eq!(d.mdt_index, None);
        assert_eq!(d.old_path, None);
    }

    #[test]
    fn roundtrip_size_and_owner() {
        let ev = sample().with_size(1 << 30).with_owner(4242);
        let frame = encode_event(&ev);
        let d = decode_event(&frame).unwrap();
        assert_eq!(d, ev);
        assert_eq!(d.size, Some(1 << 30));
        assert_eq!(d.owner, Some(4242));
        // Each metadata field stands alone behind its own flag bit.
        let only_size = sample().with_size(7);
        assert_eq!(decode_event(&encode_event(&only_size)).unwrap(), only_size);
        let only_owner = sample().with_owner(0);
        assert_eq!(
            decode_event(&encode_event(&only_owner)).unwrap().owner,
            Some(0)
        );
    }

    #[test]
    fn version_one_frame_is_rejected() {
        // Version 1 predates the metadata tail; nothing produces it any
        // more and the decoder accepts only the current version.
        let mut raw = encode_event(&sample()).to_vec();
        raw[0] = 1;
        assert_eq!(
            decode_event(&Bytes::from(raw.clone())),
            Err(WireError::BadVersion(1))
        );
        let mut batch = 1u32.to_be_bytes().to_vec();
        batch.extend_from_slice(&raw);
        let walked: Vec<_> = walk_event_batch(&batch).unwrap().collect();
        assert_eq!(walked, vec![Err(WireError::BadVersion(1))]);
    }

    #[test]
    fn enriched_frames_carry_the_bumped_version() {
        // A version-1 decoder must reject enriched frames outright
        // (unknown version) rather than misparse the metadata tail, so
        // the current encoder always stamps the bumped version.
        let frame = encode_event(&sample().with_size(9).with_owner(1));
        assert_eq!(frame[0], 2);
        assert_eq!(WIRE_VERSION, 2);
    }

    #[test]
    fn truncated_metadata_tail_errors() {
        let frame = encode_event(&sample().with_size(9).with_owner(1));
        for cut in [frame.len() - 1, frame.len() - 5, frame.len() - 11] {
            assert!(decode_event(&frame.slice(..cut)).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn roundtrip_batch() {
        let evs: Vec<_> = (0..17)
            .map(|i| {
                let mut e = sample();
                e.id = i;
                e.path = format!("/file-{i}");
                e
            })
            .collect();
        let frame = encode_event_batch(&evs);
        assert_eq!(decode_event_batch(&frame).unwrap(), evs);
    }

    #[test]
    fn offsets_encode_then_patch_stamps_ids() {
        let evs: Vec<_> = (0..5)
            .map(|i| {
                let mut e = sample();
                e.id = 0; // unstamped at encode time
                e.path = format!("/f{i}");
                e
            })
            .collect();
        let mut buf = BytesMut::new();
        let mut offsets = Vec::new();
        encode_event_batch_offsets(&evs, &mut buf, &mut offsets);
        assert_eq!(offsets.len(), evs.len());
        for (i, off) in offsets.iter().enumerate() {
            patch_event_id(&mut buf, *off, 100 + i as u64);
        }
        let decoded = decode_event_batch(&buf.split_frozen()).unwrap();
        let ids: Vec<u64> = decoded.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![100, 101, 102, 103, 104]);
        assert_eq!(decoded[3].path, "/f3");
    }

    #[test]
    fn reusable_buffer_matches_fresh_encoding() {
        let evs: Vec<_> = (0..3).map(|_| sample()).collect();
        let mut buf = BytesMut::new();
        encode_event_batch_into(&evs, &mut buf);
        let reused = buf.split_frozen();
        assert_eq!(reused, encode_event_batch(&evs));
        // Second use of the same buffer starts clean.
        encode_event_batch_into(&evs[..1], &mut buf);
        assert_eq!(buf.split_frozen(), encode_event_batch(&evs[..1]));
    }

    #[test]
    fn tlv_sections_concatenate_and_lookup_by_tag() {
        let mut buf = BytesMut::new();
        append_tlv(&mut buf, 9, b"other");
        append_tlv(&mut buf, TLV_TRACE, b"trace-bytes");
        let frame = buf.freeze();
        assert_eq!(
            find_tlv(&frame, TLV_TRACE).unwrap(),
            Some(&b"trace-bytes"[..])
        );
        assert_eq!(find_tlv(&frame, 9).unwrap(), Some(&b"other"[..]));
        assert_eq!(find_tlv(&frame, 3).unwrap(), None);
        assert_eq!(find_tlv(&[], TLV_TRACE).unwrap(), None);
    }

    #[test]
    fn tlv_rejects_truncation_and_overflow() {
        let frame = encode_tlv(TLV_TRACE, b"payload");
        assert!(matches!(
            find_tlv(&frame[..frame.len() - 1], TLV_TRACE),
            Err(WireError::Truncated)
        ));
        assert!(matches!(
            find_tlv(&frame[..3], TLV_TRACE),
            Err(WireError::Truncated)
        ));
        let mut raw = frame.to_vec();
        raw[1..5].copy_from_slice(&(MAX_TLV + 1).to_be_bytes());
        assert!(matches!(
            find_tlv(&raw, TLV_TRACE),
            Err(WireError::LengthOverflow(_))
        ));
    }

    #[test]
    fn empty_batch() {
        let frame = encode_event_batch(&[]);
        assert!(decode_event_batch(&frame).unwrap().is_empty());
    }

    #[test]
    fn truncated_frame_errors() {
        let frame = encode_event(&sample());
        for cut in [0usize, 5, 25, frame.len() - 1] {
            let sliced = frame.slice(..cut);
            assert!(decode_event(&sliced).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_version_rejected() {
        let frame = encode_event(&sample());
        let mut raw = frame.to_vec();
        raw[0] = 99;
        assert_eq!(
            decode_event(&Bytes::from(raw.clone())),
            Err(WireError::BadVersion(99))
        );
        raw[0] = 0;
        assert_eq!(
            decode_event(&Bytes::from(raw)),
            Err(WireError::BadVersion(0))
        );
    }

    #[test]
    fn bad_kind_rejected() {
        let frame = encode_event(&sample());
        let mut raw = frame.to_vec();
        raw[9] = 250; // kind tag position: version(1)+id(8)
        assert_eq!(
            decode_event(&Bytes::from(raw)),
            Err(WireError::BadKind(250))
        );
    }

    #[test]
    fn oversized_string_rejected() {
        // Header + a string length declaring 2 MiB.
        let ev = sample();
        let frame = encode_event(&ev);
        let mut raw = frame.to_vec();
        // watch_root length is at offset 26.
        raw[26..30].copy_from_slice(&(MAX_STR + 1).to_be_bytes());
        assert!(matches!(
            decode_event(&Bytes::from(raw)),
            Err(WireError::LengthOverflow(_))
        ));
    }

    #[test]
    fn non_utf8_rejected() {
        let ev = StandardEvent::new(EventKind::Create, "ab", "f");
        let frame = encode_event(&ev);
        let mut raw = frame.to_vec();
        // Corrupt the first byte of the watch_root payload (offset 30).
        raw[30] = 0xFF;
        raw[31] = 0xFE;
        assert_eq!(decode_event(&Bytes::from(raw)), Err(WireError::BadUtf8));
    }
}
