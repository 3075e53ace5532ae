//! PUSH/PULL sockets: pipeline distribution with backpressure.
//!
//! Unlike PUB/SUB, a PUSH blocks when the puller's queue is full — the
//! transport exerts backpressure instead of dropping. The paper's
//! aggregator relies on this property when persisting events ("events
//! are queued and simply processed at a lower rate than they are
//! generated", §V-D2).

use crate::endpoint::Endpoint;
use crate::message::Message;
use crate::registry::{Context, InprocBinding};
use crate::tcp::{read_message, spawn_listener, write_frame, ListenerGuard};
use crate::MqError;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default queue capacity for a PULL socket.
pub const DEFAULT_PULL_CAPACITY: usize = 100_000;

/// The shared queue behind a PULL socket.
pub struct PullCore {
    tx: Sender<Message>,
    received: AtomicU64,
}

/// A pulling socket: binds an endpoint, receives from many pushers.
pub struct PullSocket {
    ctx: Context,
    core: Arc<PullCore>,
    rx: Receiver<Message>,
    bound_inproc: Mutex<Vec<String>>,
    listeners: Mutex<Vec<ListenerGuard>>,
}

impl PullSocket {
    pub(crate) fn new(ctx: Context) -> PullSocket {
        Self::with_capacity(ctx, DEFAULT_PULL_CAPACITY)
    }

    /// Create with an explicit queue capacity.
    pub fn with_capacity(ctx: Context, capacity: usize) -> PullSocket {
        let (tx, rx) = bounded(capacity);
        PullSocket {
            ctx,
            core: Arc::new(PullCore {
                tx,
                received: AtomicU64::new(0),
            }),
            rx,
            bound_inproc: Mutex::new(Vec::new()),
            listeners: Mutex::new(Vec::new()),
        }
    }

    /// Bind an endpoint.
    pub fn bind(&self, endpoint: &str) -> Result<(), MqError> {
        match Endpoint::parse(endpoint)? {
            Endpoint::Inproc(name) => {
                self.ctx
                    .register(&name, InprocBinding::Puller(self.core.clone()))?;
                self.bound_inproc.lock().push(name);
                Ok(())
            }
            Endpoint::Tcp(addr) => {
                let core = self.core.clone();
                let listener = spawn_listener(&addr, move |mut stream| {
                    let core = core.clone();
                    std::thread::spawn(move || {
                        while let Some(msg) = read_message(&mut stream) {
                            // Blocking send: TCP pushers experience
                            // backpressure via the unread socket buffer.
                            if core.tx.send(msg).is_err() {
                                break;
                            }
                            core.received.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                })
                .map_err(|e| MqError::BindFailed(e.to_string()))?;
                self.listeners.lock().push(listener);
                Ok(())
            }
        }
    }

    /// The TCP address actually bound.
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.listeners.lock().last().map(ListenerGuard::local_addr)
    }

    /// Receive, blocking up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, MqError> {
        self.rx.recv_timeout(timeout).map_err(|_| MqError::Timeout)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.rx.try_recv().ok()
    }

    /// Messages currently queued.
    pub fn queued(&self) -> usize {
        self.rx.len()
    }
}

impl Drop for PullSocket {
    fn drop(&mut self) {
        for name in self.bound_inproc.lock().drain(..) {
            self.ctx.unregister(&name);
        }
    }
}

enum PushAttachment {
    Inproc(Sender<Message>),
    Tcp(Mutex<TcpStream>),
}

/// A pushing socket: connects to one or more PULL endpoints and
/// round-robins messages across them.
pub struct PushSocket {
    ctx: Context,
    attachments: Mutex<Vec<PushAttachment>>,
    next: AtomicU64,
    sent: AtomicU64,
}

impl PushSocket {
    pub(crate) fn new(ctx: Context) -> PushSocket {
        PushSocket {
            ctx,
            attachments: Mutex::new(Vec::new()),
            next: AtomicU64::new(0),
            sent: AtomicU64::new(0),
        }
    }

    /// Connect to a PULL endpoint.
    pub fn connect(&self, endpoint: &str) -> Result<(), MqError> {
        match Endpoint::parse(endpoint)? {
            Endpoint::Inproc(name) => {
                let binding = self.ctx.lookup(&name)?;
                let InprocBinding::Puller(core) = binding else {
                    return Err(MqError::ConnectFailed(format!(
                        "inproc://{name} is not a puller"
                    )));
                };
                self.attachments
                    .lock()
                    .push(PushAttachment::Inproc(core.tx.clone()));
                Ok(())
            }
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(&addr)
                    .map_err(|e| MqError::ConnectFailed(format!("{addr}: {e}")))?;
                stream.set_nodelay(true).ok();
                self.attachments
                    .lock()
                    .push(PushAttachment::Tcp(Mutex::new(stream)));
                Ok(())
            }
        }
    }

    /// Send a message (blocks under backpressure). With several
    /// attachments, messages are distributed round-robin.
    pub fn send(&self, msg: Message) -> Result<(), MqError> {
        let attachments = self.attachments.lock();
        if attachments.is_empty() {
            return Err(MqError::NotConnected);
        }
        let idx = (self.next.fetch_add(1, Ordering::Relaxed) as usize) % attachments.len();
        match &attachments[idx] {
            PushAttachment::Inproc(tx) => {
                tx.send(msg).map_err(|_| MqError::Disconnected)?;
            }
            PushAttachment::Tcp(stream) => {
                write_frame(&mut *stream.lock(), &msg).map_err(|_| MqError::Disconnected)?;
            }
        }
        self.sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Messages sent so far.
    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inproc_pipeline_roundtrip() {
        let ctx = Context::new();
        let pull = ctx.puller();
        pull.bind("inproc://sink").unwrap();
        let push = ctx.pusher();
        push.connect("inproc://sink").unwrap();
        for i in 0..10u8 {
            push.send(Message::single(vec![i])).unwrap();
        }
        for i in 0..10u8 {
            let m = pull.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(m.part(0), Some(&[i][..]));
        }
    }

    #[test]
    fn push_without_connect_errors() {
        let ctx = Context::new();
        let push = ctx.pusher();
        assert_eq!(
            push.send(Message::single(vec![1])),
            Err(MqError::NotConnected)
        );
    }

    #[test]
    fn many_pushers_one_puller() {
        let ctx = Context::new();
        let pull = ctx.puller();
        pull.bind("inproc://sink").unwrap();
        let mut handles = vec![];
        for t in 0..4u8 {
            let push = ctx.pusher();
            push.connect("inproc://sink").unwrap();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u8 {
                    push.send(Message::single(vec![t, i])).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut count = 0;
        while pull.try_recv().is_some() {
            count += 1;
        }
        assert_eq!(count, 400);
    }

    #[test]
    fn round_robin_across_pulls() {
        let ctx = Context::new();
        let pull_a = ctx.puller();
        pull_a.bind("inproc://a").unwrap();
        let pull_b = ctx.puller();
        pull_b.bind("inproc://b").unwrap();
        let push = ctx.pusher();
        push.connect("inproc://a").unwrap();
        push.connect("inproc://b").unwrap();
        for i in 0..10u8 {
            push.send(Message::single(vec![i])).unwrap();
        }
        assert_eq!(pull_a.queued(), 5);
        assert_eq!(pull_b.queued(), 5);
    }

    #[test]
    fn tcp_pipeline_roundtrip() {
        let ctx = Context::new();
        let pull = ctx.puller();
        pull.bind("tcp://127.0.0.1:0").unwrap();
        let addr = pull.local_addr().unwrap();
        let push = ctx.pusher();
        push.connect(&format!("tcp://{addr}")).unwrap();
        push.send(Message::from_parts(vec![b"hello".to_vec()]))
            .unwrap();
        let m = pull.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(m.part(0), Some(&b"hello"[..]));
    }

    #[test]
    fn backpressure_blocks_then_drains() {
        let ctx = Context::new();
        let pull = PullSocket::with_capacity(ctx.clone(), 2);
        pull.bind("inproc://small").unwrap();
        let push = ctx.pusher();
        push.connect("inproc://small").unwrap();
        push.send(Message::single(vec![1])).unwrap();
        push.send(Message::single(vec![2])).unwrap();
        // Third send would block; do it from a thread and drain.
        let h = std::thread::spawn(move || {
            push.send(Message::single(vec![3])).unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(pull.recv_timeout(Duration::from_secs(1)).is_ok());
        h.join().unwrap();
        assert!(pull.recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(pull.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn wrong_binding_kind_rejected() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://x").unwrap();
        let push = ctx.pusher();
        assert!(matches!(
            push.connect("inproc://x"),
            Err(MqError::ConnectFailed(_))
        ));
        let pull = ctx.puller();
        pull.bind("inproc://y").unwrap();
        let sub = ctx.subscriber();
        assert!(matches!(
            sub.connect("inproc://y"),
            Err(MqError::ConnectFailed(_))
        ));
    }
}
