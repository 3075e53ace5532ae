//! TCP transport plumbing: length-prefixed frames and a blocking
//! listener whose owner can shut it down cleanly.
//!
//! A frame is `u32 head | payload`. With the top bit of `head` clear it
//! carries one encoded [`Message`] of `head` bytes; lengths are capped
//! at 1 GiB, so the top bit is free to mark a transport control frame,
//! which no topic a user picks can collide with. The one control frame
//! is the subscription acknowledgement, `CONTROL_BIT | 8` followed by
//! the eight token bytes of the `CTRL_SYNC` it answers.

use crate::message::Message;
use bytes::Bytes;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Largest message payload a frame may announce.
const MAX_PAYLOAD: u32 = 1 << 30;

/// Top bit of the frame head: a control frame, not a message.
const CONTROL_BIT: u32 = 1 << 31;

/// Head of a subscription acknowledgement.
const SYNC_ACK_HEAD: u32 = CONTROL_BIT | 8;

/// Most a reader reserves for a payload before its bytes arrive; the
/// announced length comes from the peer, the buffer grows with what it
/// actually sends.
const READ_RESERVE: usize = 64 << 10;

/// What one frame read off a connection holds.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A message.
    Message(Message),
    /// The publisher has applied every control frame it received before
    /// the `CTRL_SYNC` that carried this token.
    SyncAck(u64),
}

/// `fsmon_mq_malformed_frames_total`: frames (transport or subscription
/// control) a peer sent and this side could not make sense of. Looked
/// up on use — the path is rare.
pub(crate) fn malformed_frames() -> Arc<fsmon_telemetry::Counter> {
    fsmon_telemetry::root()
        .scope("mq")
        .counter("malformed_frames_total")
}

/// Count one malformed frame.
pub(crate) fn count_malformed() {
    malformed_frames().inc();
}

fn malformed<T>() -> Option<T> {
    count_malformed();
    None
}

/// Write one framed message: `u32 payload_len | payload`.
pub fn write_frame(stream: &mut impl Write, msg: &Message) -> std::io::Result<()> {
    write_encoded(stream, &msg.encode())
}

/// Write an already-encoded message (the output of
/// [`Message::encode`]) with the frame length prefix. Fan-out paths
/// encode once and push the same refcounted buffer to every
/// subscriber's writer, instead of re-encoding per connection.
pub fn write_encoded(stream: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = (payload.len() as u32).to_be_bytes();
    stream.write_all(&len)?;
    stream.write_all(payload)?;
    Ok(())
}

/// Write the acknowledgement of the `CTRL_SYNC` that carried `token`.
pub fn write_sync_ack(stream: &mut impl Write, token: u64) -> std::io::Result<()> {
    let mut frame = [0u8; 12];
    frame[..4].copy_from_slice(&SYNC_ACK_HEAD.to_be_bytes());
    frame[4..].copy_from_slice(&token.to_be_bytes());
    stream.write_all(&frame)
}

/// Read one frame (blocking). Returns `None` on EOF or a malformed
/// frame; the latter is counted in `fsmon_mq_malformed_frames_total`.
pub fn read_frame(stream: &mut impl Read) -> Option<Frame> {
    let mut head = [0u8; 4];
    stream.read_exact(&mut head).ok()?;
    let head = u32::from_be_bytes(head);
    if head & CONTROL_BIT != 0 {
        if head != SYNC_ACK_HEAD {
            return malformed();
        }
        let mut token = [0u8; 8];
        stream.read_exact(&mut token).ok()?;
        return Some(Frame::SyncAck(u64::from_be_bytes(token)));
    }
    if head > MAX_PAYLOAD {
        return malformed();
    }
    let len = head as usize;
    let mut payload = Vec::with_capacity(len.min(READ_RESERVE));
    let got = stream.take(head as u64).read_to_end(&mut payload).ok()?;
    if got < len {
        return None;
    }
    Message::decode(Bytes::from(payload))
        .map(Frame::Message)
        .or_else(malformed)
}

/// Read one message off a link that carries no control frames (every
/// direction but publisher → subscriber); one that arrives anyway is
/// malformed.
pub fn read_message(stream: &mut impl Read) -> Option<Message> {
    match read_frame(stream)? {
        Frame::Message(msg) => Some(msg),
        Frame::SyncAck(_) => malformed(),
    }
}

/// A bound listener and its accept thread. Dropping the guard stops the
/// thread, waits for it, and so closes the port: a later connect is
/// refused. A bound `PubSocket` and a bound `RepSocket` each hold one
/// per TCP endpoint.
pub struct ListenerGuard {
    local: SocketAddr,
    alive: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ListenerGuard {
    /// The address actually bound (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }
}

impl Drop for ListenerGuard {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::SeqCst);
        // The thread sits in `accept`; a connection from ourselves
        // returns it to the flag.
        let mut wake = self.local;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// Spawn a listener thread that blocks in `accept` and calls `on_conn`
/// for every connection until the returned guard is dropped.
pub fn spawn_listener(
    addr: &str,
    on_conn: impl Fn(TcpStream) + Send + 'static,
) -> std::io::Result<ListenerGuard> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let alive = Arc::new(AtomicBool::new(true));
    let thread = std::thread::Builder::new()
        .name(format!("mq-listen-{local}"))
        .spawn({
            let alive = alive.clone();
            move || {
                while let Ok((stream, _)) = listener.accept() {
                    if !alive.load(Ordering::SeqCst) {
                        break;
                    }
                    stream.set_nodelay(true).ok();
                    on_conn(stream);
                }
            }
        })?;
    Ok(ListenerGuard {
        local,
        alive,
        thread: Some(thread),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frame_roundtrip_over_socket() {
        let (tx, rx) = std::sync::mpsc::channel();
        let listener = spawn_listener("127.0.0.1:0", move |mut s| {
            tx.send(read_frame(&mut s)).unwrap();
        })
        .unwrap();
        let mut client = TcpStream::connect(listener.local_addr()).unwrap();
        let msg = Message::from_parts(vec![b"topic".to_vec(), b"data".to_vec()]);
        write_frame(&mut client, &msg).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got, Some(Frame::Message(msg)));
    }

    #[test]
    fn read_frame_returns_none_on_eof() {
        let (tx, rx) = std::sync::mpsc::channel();
        let listener = spawn_listener("127.0.0.1:0", move |mut s| {
            tx.send(read_frame(&mut s).is_none()).unwrap();
        })
        .unwrap();
        let client = TcpStream::connect(listener.local_addr()).unwrap();
        drop(client); // immediate EOF
        assert!(rx.recv_timeout(Duration::from_secs(2)).unwrap());
    }

    #[test]
    fn sync_ack_is_a_frame_of_its_own_kind() {
        let mut wire = Vec::new();
        write_sync_ack(&mut wire, 7).unwrap();
        write_frame(&mut wire, &Message::single(b"after".to_vec())).unwrap();
        let mut reader = &wire[..];
        assert_eq!(read_frame(&mut reader), Some(Frame::SyncAck(7)));
        assert_eq!(
            read_frame(&mut reader),
            Some(Frame::Message(Message::single(b"after".to_vec())))
        );
        assert_eq!(read_frame(&mut reader), None);
        // A link that carries only messages refuses the ack.
        assert_eq!(read_message(&mut &wire[..]), None);
    }

    #[test]
    fn control_bit_on_an_unknown_frame_is_rejected() {
        for head in [CONTROL_BIT, CONTROL_BIT | 4, CONTROL_BIT | 9, u32::MAX] {
            let mut wire = head.to_be_bytes().to_vec();
            wire.extend_from_slice(&[0u8; 16]);
            assert_eq!(read_frame(&mut &wire[..]), None, "head {head:#x}");
        }
    }

    /// A frame that announces more than it sends ends the read without
    /// the announced length ever being allocated.
    #[test]
    fn announced_length_is_not_trusted() {
        let mut wire = MAX_PAYLOAD.to_be_bytes().to_vec();
        wire.extend_from_slice(b"short");
        assert_eq!(read_frame(&mut &wire[..]), None);
    }

    /// Dropping the guard ends the accept thread (the drop joins it),
    /// so the port is closed by the time the drop returns.
    #[test]
    fn dropped_guard_ends_the_listener_thread() {
        let listener = spawn_listener("127.0.0.1:0", |_| {}).unwrap();
        let addr = listener.local_addr();
        assert!(TcpStream::connect(addr).is_ok());
        drop(listener);
        assert!(TcpStream::connect(addr).is_err(), "port still open");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever bytes a peer sends, reading frames off them ends in
        /// `None` — never a panic, never an allocation sized by the
        /// peer's say-so.
        #[test]
        fn arbitrary_bytes_never_panic_the_frame_reader(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            valid in prop::collection::vec(any::<u8>(), 0..16),
        ) {
            // Garbage, then a well-formed frame, then garbage: the
            // reader must survive whichever it lands in.
            let mut wire = bytes.clone();
            write_frame(&mut wire, &Message::single(valid)).unwrap();
            wire.extend_from_slice(&bytes);
            let mut reader = &wire[..];
            while read_frame(&mut reader).is_some() {}
            let mut reader = &wire[..];
            while read_message(&mut reader).is_some() {}
            let _ = Message::decode(Bytes::from(bytes));
        }
    }
}
