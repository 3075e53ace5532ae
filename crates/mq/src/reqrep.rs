//! REQ/REP sockets: synchronous request–reply.
//!
//! The paper's consumers "retrieve the historic events … from the
//! reliable event store" through an API (§IV Consumption). In a real
//! deployment the consumer is on a different node from the store, so
//! that API is a request–reply exchange — these sockets provide it.

use crate::endpoint::Endpoint;
use crate::message::Message;
use crate::registry::{Context, InprocBinding};
use crate::tcp::{read_message, spawn_listener, write_frame, ListenerGuard};
use crate::MqError;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// How a pending request gets its reply back.
enum ReplyRoute {
    /// In-process: a one-shot channel.
    Inproc(Sender<Message>),
    /// TCP: write the reply back on the requesting connection.
    Tcp(Arc<Mutex<TcpStream>>),
}

/// A received request plus the means to answer it.
pub struct Incoming {
    /// The request payload.
    pub request: Message,
    route: ReplyRoute,
}

impl Incoming {
    /// Send the reply. Consumes the request (one reply per request).
    pub fn reply(self, msg: Message) -> Result<(), MqError> {
        match self.route {
            ReplyRoute::Inproc(tx) => tx.send(msg).map_err(|_| MqError::Disconnected),
            ReplyRoute::Tcp(stream) => {
                write_frame(&mut *stream.lock(), &msg).map_err(|_| MqError::Disconnected)
            }
        }
    }
}

/// The shared state behind a REP socket.
pub struct RepCore {
    requests_tx: Sender<Incoming>,
}

/// The reply socket: binds, receives requests, answers them.
pub struct RepSocket {
    ctx: Context,
    core: Arc<RepCore>,
    requests_rx: Receiver<Incoming>,
    bound_inproc: Mutex<Vec<String>>,
    listeners: Mutex<Vec<ListenerGuard>>,
}

impl RepSocket {
    pub(crate) fn new(ctx: Context) -> RepSocket {
        let (requests_tx, requests_rx) = bounded(1 << 14);
        RepSocket {
            ctx,
            core: Arc::new(RepCore { requests_tx }),
            requests_rx,
            bound_inproc: Mutex::new(Vec::new()),
            listeners: Mutex::new(Vec::new()),
        }
    }

    /// Bind an endpoint.
    pub fn bind(&self, endpoint: &str) -> Result<(), MqError> {
        match Endpoint::parse(endpoint)? {
            Endpoint::Inproc(name) => {
                self.ctx
                    .register(&name, InprocBinding::Replier(self.core.clone()))?;
                self.bound_inproc.lock().push(name);
                Ok(())
            }
            Endpoint::Tcp(addr) => {
                let core = self.core.clone();
                let listener = spawn_listener(&addr, move |stream| {
                    let writer =
                        Arc::new(Mutex::new(stream.try_clone().expect("clone rep stream")));
                    let mut reader = stream;
                    let core = core.clone();
                    std::thread::spawn(move || {
                        while let Some(request) = read_message(&mut reader) {
                            let incoming = Incoming {
                                request,
                                route: ReplyRoute::Tcp(writer.clone()),
                            };
                            if core.requests_tx.send(incoming).is_err() {
                                break;
                            }
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

    /// Receive the next request, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Incoming, MqError> {
        self.requests_rx
            .recv_timeout(timeout)
            .map_err(|_| MqError::Timeout)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Incoming> {
        self.requests_rx.try_recv().ok()
    }
}

impl Drop for RepSocket {
    fn drop(&mut self) {
        for name in self.bound_inproc.lock().drain(..) {
            self.ctx.unregister(&name);
        }
    }
}

enum ReqAttachment {
    Inproc(Arc<RepCore>),
    Tcp(Mutex<TcpStream>),
}

/// The request socket: connects to one REP endpoint and performs
/// synchronous exchanges.
pub struct ReqSocket {
    ctx: Context,
    attachment: Mutex<Option<ReqAttachment>>,
}

impl ReqSocket {
    pub(crate) fn new(ctx: Context) -> ReqSocket {
        ReqSocket {
            ctx,
            attachment: Mutex::new(None),
        }
    }

    /// Connect to a REP endpoint (replaces any previous connection).
    pub fn connect(&self, endpoint: &str) -> Result<(), MqError> {
        let attachment = match Endpoint::parse(endpoint)? {
            Endpoint::Inproc(name) => {
                let binding = self.ctx.lookup(&name)?;
                let InprocBinding::Replier(core) = binding else {
                    return Err(MqError::ConnectFailed(format!(
                        "inproc://{name} is not a replier"
                    )));
                };
                ReqAttachment::Inproc(core)
            }
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(&addr)
                    .map_err(|e| MqError::ConnectFailed(format!("{addr}: {e}")))?;
                stream.set_nodelay(true).ok();
                ReqAttachment::Tcp(Mutex::new(stream))
            }
        };
        *self.attachment.lock() = Some(attachment);
        Ok(())
    }

    /// Send `msg` and wait up to `timeout` for the reply.
    pub fn request(&self, msg: Message, timeout: Duration) -> Result<Message, MqError> {
        let guard = self.attachment.lock();
        match guard.as_ref() {
            None => Err(MqError::NotConnected),
            Some(ReqAttachment::Inproc(core)) => {
                let (reply_tx, reply_rx) = bounded(1);
                core.requests_tx
                    .send(Incoming {
                        request: msg,
                        route: ReplyRoute::Inproc(reply_tx),
                    })
                    .map_err(|_| MqError::Disconnected)?;
                reply_rx.recv_timeout(timeout).map_err(|_| MqError::Timeout)
            }
            Some(ReqAttachment::Tcp(stream)) => {
                let mut stream = stream.lock();
                stream
                    .set_read_timeout(Some(timeout))
                    .map_err(|_| MqError::Disconnected)?;
                write_frame(&mut *stream, &msg).map_err(|_| MqError::Disconnected)?;
                read_message(&mut *stream).ok_or(MqError::Timeout)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server(rep: RepSocket) -> std::thread::JoinHandle<usize> {
        std::thread::spawn(move || {
            let mut served = 0;
            while let Ok(incoming) = rep.recv_timeout(Duration::from_millis(400)) {
                let mut reply = Message::single(b"echo:".to_vec());
                reply.push(incoming.request.part(0).unwrap_or(b"").to_vec());
                incoming.reply(reply).unwrap();
                served += 1;
            }
            served
        })
    }

    #[test]
    fn inproc_request_reply() {
        let ctx = Context::new();
        let rep = ctx.replier();
        rep.bind("inproc://svc").unwrap();
        let server = echo_server(rep);
        let req = ctx.requester();
        req.connect("inproc://svc").unwrap();
        for i in 0..5u8 {
            let reply = req
                .request(Message::single(vec![i]), Duration::from_secs(1))
                .unwrap();
            assert_eq!(reply.part(0), Some(&b"echo:"[..]));
            assert_eq!(reply.part(1), Some(&[i][..]));
        }
        assert_eq!(server.join().unwrap(), 5);
    }

    #[test]
    fn tcp_request_reply() {
        let ctx = Context::new();
        let rep = ctx.replier();
        rep.bind("tcp://127.0.0.1:0").unwrap();
        let addr = rep.local_addr().unwrap();
        let server = echo_server(rep);
        let req = ctx.requester();
        req.connect(&format!("tcp://{addr}")).unwrap();
        let reply = req
            .request(Message::single(b"hello".to_vec()), Duration::from_secs(2))
            .unwrap();
        assert_eq!(reply.part(1), Some(&b"hello"[..]));
        assert!(server.join().unwrap() >= 1);
    }

    #[test]
    fn request_without_connect_errors() {
        let ctx = Context::new();
        let req = ctx.requester();
        assert_eq!(
            req.request(Message::single(vec![1]), Duration::from_millis(10)),
            Err(MqError::NotConnected)
        );
    }

    #[test]
    fn request_times_out_when_server_silent() {
        let ctx = Context::new();
        let _rep = {
            let rep = ctx.replier();
            rep.bind("inproc://quiet").unwrap();
            rep
        };
        let req = ctx.requester();
        req.connect("inproc://quiet").unwrap();
        assert_eq!(
            req.request(Message::single(vec![1]), Duration::from_millis(50)),
            Err(MqError::Timeout)
        );
    }

    #[test]
    fn connect_to_wrong_kind_fails() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://pub").unwrap();
        let req = ctx.requester();
        assert!(matches!(
            req.connect("inproc://pub"),
            Err(MqError::ConnectFailed(_))
        ));
    }

    #[test]
    fn concurrent_requesters_each_get_their_own_reply() {
        let ctx = Context::new();
        let rep = ctx.replier();
        rep.bind("inproc://multi").unwrap();
        let server = echo_server(rep);
        let mut handles = vec![];
        for i in 0..4u8 {
            let ctx = ctx.clone();
            handles.push(std::thread::spawn(move || {
                let req = ctx.requester();
                req.connect("inproc://multi").unwrap();
                let reply = req
                    .request(Message::single(vec![i]), Duration::from_secs(2))
                    .unwrap();
                assert_eq!(reply.part(1), Some(&[i][..]));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.join().unwrap(), 4);
    }
}
