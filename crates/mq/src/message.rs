//! Multipart messages.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// A multipart message: an ordered sequence of byte frames.
///
/// By convention the first part is the topic (PUB/SUB filtering matches
/// a prefix of part 0) and subsequent parts carry the payload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Message {
    parts: Vec<Bytes>,
}

impl Message {
    /// An empty message.
    pub fn new() -> Message {
        Message::default()
    }

    /// A single-part message.
    pub fn single(payload: impl Into<Bytes>) -> Message {
        Message {
            parts: vec![payload.into()],
        }
    }

    /// Build from owned parts.
    pub fn from_parts<P: Into<Bytes>>(parts: Vec<P>) -> Message {
        Message {
            parts: parts.into_iter().map(Into::into).collect(),
        }
    }

    /// Append a part.
    pub fn push(&mut self, part: impl Into<Bytes>) {
        self.parts.push(part.into());
    }

    /// Number of parts.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the message has no parts.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Borrow part `i`.
    pub fn part(&self, i: usize) -> Option<&[u8]> {
        self.parts.get(i).map(|b| b.as_ref())
    }

    /// Clone part `i` by refcount — a zero-copy handle into the frame's
    /// shared storage, for decoders that outlive the `Message`.
    pub fn part_bytes(&self, i: usize) -> Option<Bytes> {
        self.parts.get(i).cloned()
    }

    /// The topic frame (part 0), empty if absent.
    pub fn topic(&self) -> &[u8] {
        self.part(0).unwrap_or(&[])
    }

    /// Take ownership of the parts.
    pub fn into_parts(self) -> Vec<Bytes> {
        self.parts
    }

    /// Total payload size across parts.
    pub fn byte_len(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// Encode for the TCP transport:
    /// `u32 part_count | (u32 len | bytes)*`.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(4 + self.byte_len() + 4 * self.len());
        buf.put_u32(self.parts.len() as u32);
        for p in &self.parts {
            buf.put_u32(p.len() as u32);
            buf.put_slice(p);
        }
        buf.freeze()
    }

    /// Decode a frame produced by [`encode`](Message::encode). Returns
    /// `None` on truncation or absurd lengths.
    pub fn decode(mut buf: Bytes) -> Option<Message> {
        if buf.remaining() < 4 {
            return None;
        }
        let count = buf.get_u32();
        // Every part costs at least its four length bytes, so a count
        // the buffer cannot hold is refused before it sizes anything.
        if count > 1 << 20 || count as usize > buf.remaining() / 4 {
            return None;
        }
        let mut parts = Vec::with_capacity(count as usize);
        for _ in 0..count {
            if buf.remaining() < 4 {
                return None;
            }
            let len = buf.get_u32() as usize;
            if len > 1 << 30 || buf.remaining() < len {
                return None;
            }
            parts.push(buf.split_to(len));
        }
        Some(Message { parts })
    }
}

impl From<Vec<u8>> for Message {
    fn from(v: Vec<u8>) -> Message {
        Message::single(v)
    }
}

impl From<&[u8]> for Message {
    fn from(v: &[u8]) -> Message {
        Message::single(Bytes::copy_from_slice(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_accessors() {
        let mut m = Message::new();
        assert!(m.is_empty());
        m.push(&b"topic"[..]);
        m.push(&b"payload"[..]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.topic(), b"topic");
        assert_eq!(m.part(1), Some(&b"payload"[..]));
        assert_eq!(m.part(2), None);
        assert_eq!(m.byte_len(), 12);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = Message::from_parts(vec![b"a".to_vec(), vec![], b"ccc".to_vec()]);
        let d = Message::decode(m.encode()).unwrap();
        assert_eq!(d, m);
    }

    #[test]
    fn empty_message_roundtrip() {
        let m = Message::new();
        assert_eq!(Message::decode(m.encode()).unwrap(), m);
    }

    #[test]
    fn decode_rejects_truncation() {
        let m = Message::from_parts(vec![b"hello".to_vec()]);
        let enc = m.encode();
        for cut in 0..enc.len() {
            assert!(Message::decode(enc.slice(..cut)).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn decode_rejects_absurd_counts() {
        let mut buf = BytesMut::new();
        buf.put_u32(u32::MAX);
        assert!(Message::decode(buf.freeze()).is_none());
    }

    #[test]
    fn conversions() {
        let m: Message = vec![1u8, 2, 3].into();
        assert_eq!(m.part(0), Some(&[1u8, 2, 3][..]));
        let m: Message = (&b"xy"[..]).into();
        assert_eq!(m.topic(), b"xy");
    }
}
