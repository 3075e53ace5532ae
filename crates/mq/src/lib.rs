#![warn(missing_docs)]

//! # fsmon-mq
//!
//! A from-scratch, ZeroMQ-style message queue. The paper's scalable
//! monitor connects its per-MDS collectors to the MGS aggregator with a
//! "publisher-subscriber message queue (implemented with ZeroMQ)"
//! (§IV Aggregation); this crate supplies the same socket semantics:
//!
//! * **PUB/SUB** — topic-prefix-filtered fan-out. Slow subscribers drop
//!   messages past their high-water mark rather than stalling the
//!   publisher, matching ZeroMQ's PUB behaviour.
//! * **REQ/REP** — synchronous request–reply (the historic-replay API).
//! * **Multipart messages** — each message is a sequence of byte frames
//!   ([`Message`]).
//! * **Transports** — `inproc://name` (lock-free channels within a
//!   process) and `tcp://host:port` (length-prefixed frames over TCP).
//!   On both, connected means subscribed: a SUB's `connect`,
//!   `subscribe`, `unsubscribe` and `subscribe_filter` return once the
//!   publisher has applied them (over TCP, acknowledged them), so the
//!   next `send` is delivered with no settling time in between.
//!
//! ```
//! use fsmon_mq::{Context, Message};
//!
//! let ctx = Context::new();
//! let publisher = ctx.publisher();
//! publisher.bind("inproc://events").unwrap();
//! let subscriber = ctx.subscriber();
//! subscriber.connect("inproc://events").unwrap();
//! subscriber.subscribe(b"mdt0");
//!
//! publisher.send(Message::from_parts(vec![b"mdt0".to_vec(), b"payload".to_vec()])).unwrap();
//! let msg = subscriber.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
//! assert_eq!(msg.part(1), Some(&b"payload"[..]));
//! ```

pub mod endpoint;
pub mod message;
pub mod pubsub;
pub mod registry;
pub mod reqrep;
pub mod ring;
pub mod signal;
pub mod tcp;

pub use endpoint::Endpoint;
pub use message::Message;
pub use pubsub::{ClassCursor, ClassStats, FilterClass, PubSocket, SubSocket};
pub use registry::Context;
pub use reqrep::{Incoming, RepSocket, ReqSocket};
pub use ring::{BroadcastRing, RingCursor, RingPoll};
pub use signal::ArrivalSignal;

/// Errors surfaced by socket operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MqError {
    /// The endpoint string was malformed.
    BadEndpoint(String),
    /// Binding failed (address in use, inproc name taken, OS error).
    BindFailed(String),
    /// Connect failed (no such inproc binding, TCP refused).
    ConnectFailed(String),
    /// Operation on a socket that was never bound/connected.
    NotConnected,
    /// The peer or transport went away.
    Disconnected,
    /// A receive timed out.
    Timeout,
}

impl std::fmt::Display for MqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MqError::BadEndpoint(e) => write!(f, "malformed endpoint: {e}"),
            MqError::BindFailed(e) => write!(f, "bind failed: {e}"),
            MqError::ConnectFailed(e) => write!(f, "connect failed: {e}"),
            MqError::NotConnected => write!(f, "socket is not connected"),
            MqError::Disconnected => write!(f, "peer disconnected"),
            MqError::Timeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for MqError {}
