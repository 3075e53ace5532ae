//! PUB/SUB sockets: topic-prefix-filtered fan-out.
//!
//! Matches ZeroMQ semantics: a SUB receives nothing until it subscribes
//! (subscribe to the empty prefix for everything); a slow SUB past its
//! high-water mark loses the newest messages (the PUB never blocks);
//! filtering happens publisher-side, including over TCP, where the SUB
//! forwards its subscription list as control frames.
//!
//! Connected means subscribed, on either transport. Inproc attachments
//! register under the publisher's own locks. Over TCP every call that
//! changes what a socket is subscribed to ends with a `CTRL_SYNC`
//! frame, and returns when the publisher has acknowledged it: the
//! publisher reads a connection's control frames on one thread, in
//! order, so its acknowledgement means every earlier frame has been
//! applied.

use crate::endpoint::Endpoint;
use crate::message::Message;
use crate::registry::{Context, InprocBinding};
use crate::ring::{BroadcastRing, RingCursor, RingPoll};
use crate::signal::ArrivalSignal;
use crate::tcp::{
    count_malformed, read_frame, read_message, spawn_listener, write_encoded, write_frame,
    write_sync_ack, Frame, ListenerGuard,
};
use crate::MqError;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use fsmon_faults::{FaultPoint, Faults};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock};
use std::time::{Duration, Instant};

/// Default per-subscriber high-water mark (messages).
pub const DEFAULT_HWM: usize = 100_000;

/// Per-TCP-subscriber writer queue depth (frames) — the outbound HWM.
/// A publish into a full queue is a stall: the frame is dropped for
/// that subscriber and counted, never blocking the publish path.
const TCP_WRITER_QUEUE: usize = 4096;

/// Consecutive stalls after which an *unfiltered* TCP subscriber is
/// declared slow and forcibly disconnected (it can re-dial and heal
/// from the store's replay path; a wedged peer must not pin queue
/// memory forever). Filtered subscribers are never disconnected for
/// slowness — their per-class frames carry sequence numbers, so a
/// stalled peer degrades to catching up from the store instead.
const SLOW_SUB_DISCONNECT_AFTER: u64 = 1024;

/// Default per-filter-class broadcast-ring capacity (frames).
pub const DEFAULT_CLASS_RING: usize = 1024;

const CTRL_SUBSCRIBE: u8 = 1;
const CTRL_UNSUBSCRIBE: u8 = 0;
/// Control frame registering a pushed-down filter: the payload is the
/// canonical filter-spec string, treated here as an opaque class key
/// (`fsmon-rules` owns the grammar). A connection with a filter
/// registered receives that class's frames and nothing else.
const CTRL_FILTER: u8 = 2;
/// Control frame asking for an acknowledgement: the payload is an
/// eight-byte token the publisher echoes once every earlier control
/// frame of the connection has been applied.
const CTRL_SYNC: u8 = 3;

/// Longest a subscribing call waits for its acknowledgement. A
/// publisher answers in one round trip; only a peer that is not one of
/// ours, or is wedged, takes this long.
const SYNC_BOUND: Duration = Duration::from_secs(5);

/// What a TCP subscriber's writer thread puts on the wire.
enum Outbound {
    /// A pre-encoded message (the output of [`Message::encode`]).
    Frame(bytes::Bytes),
    /// The acknowledgement of a `CTRL_SYNC`, by token. It queues behind
    /// the frames published before it, so a peer that has seen the ack
    /// has seen everything the superseded subscription still matched.
    SyncAck(u64),
}

/// A lock-free snapshot of a subscriber's prefix list.
///
/// The publish hot path calls `matches()` once per subscriber per
/// message; taking a mutex there serializes every publisher on every
/// subscriber's subscription lock. Instead the current prefix list is
/// an immutable heap allocation behind an `AtomicPtr`: readers do one
/// `Acquire` load, writers (subscribe/unsubscribe — rare) build a new
/// list and swap it in. Retired lists are parked until drop, so a
/// reader holding a reference across a swap never sees freed memory.
pub(crate) struct PrefixSet {
    current: AtomicPtr<Vec<Vec<u8>>>,
    /// Writer serialization + parked retired snapshots (freed on drop).
    retired: Mutex<Vec<*mut Vec<Vec<u8>>>>,
}

// Raw pointers into heap allocations owned by this struct; access is
// synchronized by the AtomicPtr (readers) and the mutex (writers).
unsafe impl Send for PrefixSet {}
unsafe impl Sync for PrefixSet {}

impl PrefixSet {
    fn new(prefixes: Vec<Vec<u8>>) -> PrefixSet {
        PrefixSet {
            current: AtomicPtr::new(Box::into_raw(Box::new(prefixes))),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Lock-free read of the current snapshot. The returned reference
    /// stays valid for `'_` because retired snapshots are only freed in
    /// `Drop`, which cannot run while a borrow is live.
    fn load(&self) -> &[Vec<u8>] {
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    fn matches(&self, topic: &[u8]) -> bool {
        self.load().iter().any(|p| topic.starts_with(p))
    }

    fn update(&self, f: impl FnOnce(&mut Vec<Vec<u8>>)) {
        let mut retired = self.retired.lock();
        let old = self.current.load(Ordering::Relaxed);
        let mut next = unsafe { (*old).clone() };
        f(&mut next);
        self.current
            .store(Box::into_raw(Box::new(next)), Ordering::Release);
        retired.push(old);
    }

    fn push(&self, prefix: Vec<u8>) {
        self.update(|p| p.push(prefix));
    }

    fn remove(&self, prefix: &[u8]) {
        self.update(|p| p.retain(|x| x != prefix));
    }
}

impl Drop for PrefixSet {
    fn drop(&mut self) {
        unsafe {
            drop(Box::from_raw(self.current.load(Ordering::Relaxed)));
            for ptr in self.retired.get_mut().drain(..) {
                drop(Box::from_raw(ptr));
            }
        }
    }
}

/// The producer side of a SUB socket's queue, shared by everything
/// that enqueues into it (inproc publishers, TCP reader threads).
struct QueueTx {
    tx: Sender<Message>,
    /// Bumped after every enqueue once the socket's owner asked for it
    /// ([`SubSocket::notify_arrivals`]); one atomic load otherwise.
    arrivals: OnceLock<Arc<ArrivalSignal>>,
}

impl QueueTx {
    fn try_send(&self, msg: Message) -> Result<(), TrySendError<Message>> {
        self.tx.try_send(msg)?;
        if let Some(signal) = self.arrivals.get() {
            signal.bump();
        }
        Ok(())
    }
}

/// One subscriber attachment (inproc).
pub(crate) struct SubEntry {
    prefixes: PrefixSet,
    sender: Arc<QueueTx>,
    alive: AtomicBool,
    dropped: AtomicU64,
    /// Set when a pushed-down filter is registered: the entry then
    /// receives only its class's frames, never raw topic fan-out.
    filtered: AtomicBool,
}

impl SubEntry {
    fn matches(&self, topic: &[u8]) -> bool {
        self.prefixes.matches(topic)
    }
}

/// One subscriber connection (TCP). The publish path never writes to
/// the socket: it enqueues the pre-encoded frame on `frame_tx` and a
/// dedicated writer thread drains the queue onto the wire, so one slow
/// or wedged peer cannot stall the publisher (or the other
/// subscribers) behind a blocking `write`.
struct TcpSubConn {
    /// Pre-encoded frames (and acks) awaiting the writer thread.
    frame_tx: Sender<Outbound>,
    /// Kept only for shutdown (injected disconnects, slow-subscriber
    /// eviction); data writes happen on the writer thread's own clone.
    stream: Mutex<TcpStream>,
    prefixes: PrefixSet,
    alive: AtomicBool,
    /// Consecutive publish stalls (full writer queue); reset by any
    /// successful enqueue.
    stalled: AtomicU64,
    /// Registered filter-class key, when the peer pushed a filter down.
    /// A filtered connection receives only its class's frames.
    filter_key: Mutex<Option<String>>,
    /// Whether this filtered peer has dropped class frames (stalled
    /// writer queue) since the flag was last observed — the peer heals
    /// from the store, it is not disconnected.
    degraded: AtomicBool,
}

impl TcpSubConn {
    fn matches(&self, topic: &[u8]) -> bool {
        self.prefixes.matches(topic)
    }

    fn is_filtered(&self) -> bool {
        self.filter_key.lock().is_some()
    }

    fn disconnect(&self) {
        let _ = self.stream.lock().shutdown(std::net::Shutdown::Both);
        self.alive.store(false, Ordering::Relaxed);
    }
}

/// Per-class counters reported by [`PubSocket::class_stats`] (the
/// `fsmon top` subscribers section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassStats {
    /// Canonical filter-spec string (the class key).
    pub key: String,
    /// Live consumers in the class (ring cursors + sockets).
    pub consumers: usize,
    /// Frames published to the class so far.
    pub frames: u64,
    /// Deepest live writer-queue backlog among the class's TCP peers.
    pub queue_depth: usize,
    /// Publish stalls (frames dropped for some subscriber of the class).
    pub stalls: u64,
    /// Consumers currently flagged degraded (healing from the store).
    pub degraded: usize,
    /// QoS budget in events/second (0 = unlimited), from the class
    /// spec's `rate=` clause.
    pub rate: u32,
    /// Events shed by the rate limiter (policy, not loss: frames keep
    /// their full sequenced id span, so watermarks advance and no gap
    /// heal fires for shed events).
    pub shed: u64,
}

/// Token-bucket state for a rate-limited class. Refilled lazily on the
/// publish path from elapsed wall time; burst capacity is one second's
/// budget so a briefly idle class can absorb an arrival spike without
/// shedding.
struct RateBucket {
    tokens: f64,
    last: Instant,
}

/// One active filter class publisher-side: the shared broadcast ring
/// plus the socket-based sinks subscribed to it, and the per-class
/// frame sequence every frame is stamped with.
pub struct FilterClass {
    key: String,
    ring: Arc<BroadcastRing>,
    inproc: Mutex<Vec<Arc<SubEntry>>>,
    tcp: Mutex<Vec<Arc<TcpSubConn>>>,
    /// Live in-proc ring cursors ([`ClassCursor`]).
    cursors: AtomicU64,
    stalls: AtomicU64,
    /// QoS budget in events/second (0 = unlimited). Set by the fan-out
    /// engine from the class spec's `rate=` clause.
    rate: AtomicU32,
    bucket: Mutex<RateBucket>,
    shed: AtomicU64,
    t_frames: Arc<fsmon_telemetry::Counter>,
    t_stalls: Arc<fsmon_telemetry::Counter>,
    t_shed: Arc<fsmon_telemetry::Counter>,
    t_depth: Arc<fsmon_telemetry::Gauge>,
    t_consumers: Arc<fsmon_telemetry::Gauge>,
}

impl FilterClass {
    fn new(key: String, ring_capacity: usize) -> Arc<FilterClass> {
        let scope = fsmon_telemetry::root()
            .scope("mq")
            .with_label("class", key.clone());
        Arc::new(FilterClass {
            key,
            ring: BroadcastRing::new(ring_capacity),
            inproc: Mutex::new(Vec::new()),
            tcp: Mutex::new(Vec::new()),
            cursors: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            rate: AtomicU32::new(0),
            bucket: Mutex::new(RateBucket {
                tokens: 0.0,
                last: Instant::now(),
            }),
            shed: AtomicU64::new(0),
            t_frames: scope.counter("class_frames_total"),
            t_stalls: scope.counter("class_stalls_total"),
            t_shed: scope.counter("class_shed_total"),
            t_depth: scope.gauge("class_queue_depth"),
            t_consumers: scope.gauge("class_consumers"),
        })
    }

    /// Install the class's QoS budget (events/second; 0 = unlimited).
    /// A fresh budget starts with a full burst so the first window
    /// after (re)registration delivers.
    pub fn set_rate(&self, events_per_sec: u32) {
        let prev = self.rate.swap(events_per_sec, Ordering::Relaxed);
        if prev != events_per_sec {
            let mut bucket = self.bucket.lock();
            bucket.tokens = events_per_sec as f64;
            bucket.last = Instant::now();
        }
    }

    /// The class's QoS budget (events/second; 0 = unlimited).
    pub fn rate(&self) -> u32 {
        self.rate.load(Ordering::Relaxed)
    }

    /// Charge `want` matched events against the class's token bucket,
    /// returning how many may be delivered now; the remainder is
    /// counted as shed. Unlimited classes admit everything without
    /// touching the bucket lock.
    pub fn admit(&self, want: usize) -> usize {
        let rate = self.rate.load(Ordering::Relaxed);
        if rate == 0 || want == 0 {
            return want;
        }
        let granted = {
            let mut bucket = self.bucket.lock();
            let now = Instant::now();
            let refill = now.duration_since(bucket.last).as_secs_f64() * rate as f64;
            bucket.tokens = (bucket.tokens + refill).min(rate as f64);
            bucket.last = now;
            let granted = (want as f64).min(bucket.tokens.floor()).max(0.0) as usize;
            bucket.tokens -= granted as f64;
            granted
        };
        let shed = (want - granted) as u64;
        if shed > 0 {
            self.shed.fetch_add(shed, Ordering::Relaxed);
            self.t_shed.add(shed);
        }
        granted
    }

    /// The class key (canonical filter spec).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Next per-class frame sequence number.
    pub fn next_seq(&self) -> u64 {
        self.ring.head()
    }

    /// Live consumer count (cursors + live sockets).
    pub fn consumer_count(&self) -> usize {
        self.cursors.load(Ordering::Relaxed) as usize
            + self
                .inproc
                .lock()
                .iter()
                .filter(|e| e.alive.load(Ordering::Relaxed))
                .count()
            + self
                .tcp
                .lock()
                .iter()
                .filter(|c| c.alive.load(Ordering::Relaxed))
                .count()
    }

    /// Publish one class frame built by `build`, which receives the
    /// frame's per-class sequence number (consumers detect dropped
    /// frames by gaps in it). The frame is written once into the
    /// shared ring; socket sinks get refcounted clones, encoded at most
    /// once for all TCP peers. A peer whose queue is full is marked
    /// degraded and skipped — never disconnected.
    pub fn publish_with(&self, build: impl FnOnce(u64) -> Message) {
        let msg = build(self.ring.head());
        self.t_frames.inc();
        let mut depth = 0usize;
        {
            let entries = self.inproc.lock();
            for entry in entries.iter() {
                if !entry.alive.load(Ordering::Relaxed) {
                    continue;
                }
                match entry.sender.try_send(msg.clone()) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        entry.dropped.fetch_add(1, Ordering::Relaxed);
                        self.stalls.fetch_add(1, Ordering::Relaxed);
                        self.t_stalls.inc();
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        entry.alive.store(false, Ordering::Relaxed);
                    }
                }
            }
        }
        {
            let conns = self.tcp.lock();
            let mut encoded: Option<bytes::Bytes> = None;
            for conn in conns.iter() {
                if !conn.alive.load(Ordering::Relaxed) {
                    continue;
                }
                let frame = encoded.get_or_insert_with(|| msg.encode()).clone();
                match conn.frame_tx.try_send(Outbound::Frame(frame)) {
                    Ok(()) => {
                        depth = depth.max(conn.frame_tx.len());
                    }
                    Err(TrySendError::Full(_)) => {
                        // Degrade, don't disconnect: the consumer sees
                        // the class-sequence gap and catches up from
                        // the store.
                        conn.degraded.store(true, Ordering::Relaxed);
                        self.stalls.fetch_add(1, Ordering::Relaxed);
                        self.t_stalls.inc();
                        depth = depth.max(conn.frame_tx.len());
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        conn.alive.store(false, Ordering::Relaxed);
                    }
                }
            }
        }
        self.ring.push(msg);
        self.t_depth.set(depth as i64);
        self.t_consumers.set(self.consumer_count() as i64);
    }

    /// This class's fan-out counters (what
    /// [`PubSocket::class_stats`] reports per class).
    pub fn stats(&self) -> ClassStats {
        let queue_depth = self
            .tcp
            .lock()
            .iter()
            .filter(|c| c.alive.load(Ordering::Relaxed))
            .map(|c| c.frame_tx.len())
            .max()
            .unwrap_or(0);
        let degraded = self
            .tcp
            .lock()
            .iter()
            .filter(|c| c.alive.load(Ordering::Relaxed) && c.degraded.load(Ordering::Relaxed))
            .count();
        ClassStats {
            key: self.key.clone(),
            consumers: self.consumer_count(),
            frames: self.ring.head(),
            queue_depth,
            stalls: self.stalls.load(Ordering::Relaxed),
            degraded,
            rate: self.rate.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// An in-process subscriber of one filter class: a cursor into the
/// class's shared broadcast ring. Cheap enough to hold 100k of.
pub struct ClassCursor {
    class: Arc<FilterClass>,
    cursor: RingCursor,
}

impl ClassCursor {
    /// Poll for the next class frame.
    pub fn poll(&mut self) -> RingPoll {
        self.cursor.poll()
    }

    /// Frames currently buffered ahead of this cursor.
    pub fn lag(&self) -> u64 {
        self.cursor.lag()
    }

    /// Sequence number of the next frame this cursor will return.
    pub fn position(&self) -> u64 {
        self.cursor.position()
    }

    /// The class subscribed to.
    pub fn class_key(&self) -> &str {
        self.class.key()
    }
}

impl Drop for ClassCursor {
    fn drop(&mut self) {
        self.class.cursors.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The shared fan-out state behind a PUB socket.
pub struct PubCore {
    inproc_subs: Mutex<Vec<Arc<SubEntry>>>,
    tcp_subs: Mutex<Vec<Arc<TcpSubConn>>>,
    /// Active filter classes by canonical spec key (server-side filter
    /// pushdown). Bumping `filter_generation` on any change lets the
    /// fan-out engine cache its compiled subscription index.
    classes: Mutex<HashMap<String, Arc<FilterClass>>>,
    filter_generation: AtomicU64,
    sent: AtomicU64,
    dropped: AtomicU64,
    faults: Mutex<Faults>,
    t_published: Arc<fsmon_telemetry::Counter>,
    t_dropped: Arc<fsmon_telemetry::Counter>,
    t_tcp_frames: Arc<fsmon_telemetry::Counter>,
    t_publish_stalls: Arc<fsmon_telemetry::Counter>,
    t_slow_disconnects: Arc<fsmon_telemetry::Counter>,
}

impl Default for PubCore {
    fn default() -> PubCore {
        let scope = fsmon_telemetry::root().scope("mq");
        PubCore {
            inproc_subs: Mutex::new(Vec::new()),
            tcp_subs: Mutex::new(Vec::new()),
            classes: Mutex::new(HashMap::new()),
            filter_generation: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            faults: Mutex::new(Faults::none()),
            t_published: scope.counter("published_total"),
            t_dropped: scope.counter("hwm_dropped_total"),
            t_tcp_frames: scope.counter("tcp_frames_total"),
            t_publish_stalls: scope.counter("publish_stalls_total"),
            t_slow_disconnects: scope.counter("slow_subscriber_disconnects_total"),
        }
    }
}

impl PubCore {
    /// Get or create the class for `key`, bumping the filter
    /// generation when a class is created.
    fn class(&self, key: &str, ring_capacity: usize) -> Arc<FilterClass> {
        let mut classes = self.classes.lock();
        if let Some(class) = classes.get(key) {
            return class.clone();
        }
        let class = FilterClass::new(key.to_string(), ring_capacity);
        classes.insert(key.to_string(), class.clone());
        self.filter_generation.fetch_add(1, Ordering::Release);
        class
    }

    fn register_tcp_filter(&self, conn: &Arc<TcpSubConn>, key: &str) {
        let class = self.class(key, DEFAULT_CLASS_RING);
        *conn.filter_key.lock() = Some(key.to_string());
        class.tcp.lock().push(conn.clone());
        self.filter_generation.fetch_add(1, Ordering::Release);
    }

    /// Apply one control frame sent by `conn`'s peer. The connection's
    /// one reader thread calls this frame by frame, so the ack a
    /// `CTRL_SYNC` queues is proof that everything sent before it has
    /// taken effect. A frame that makes no sense is counted and
    /// ignored.
    fn apply_control(&self, conn: &Arc<TcpSubConn>, frame: &[u8]) {
        match frame.split_first() {
            Some((&CTRL_SUBSCRIBE, prefix)) => conn.prefixes.push(prefix.to_vec()),
            Some((&CTRL_UNSUBSCRIBE, prefix)) => conn.prefixes.remove(prefix),
            Some((&CTRL_FILTER, key)) => match std::str::from_utf8(key) {
                Ok(key) => self.register_tcp_filter(conn, key),
                Err(_) => count_malformed(),
            },
            Some((&CTRL_SYNC, token)) => match token.try_into() {
                // A blocking send: the ack is exempt from drop-newest
                // and waits for room behind the data already queued.
                // It fails only once the writer thread is gone.
                Ok(token) => {
                    let _ = conn
                        .frame_tx
                        .send(Outbound::SyncAck(u64::from_be_bytes(token)));
                }
                Err(_) => count_malformed(),
            },
            _ => count_malformed(),
        }
    }

    fn register_inproc_filter(&self, entry: &Arc<SubEntry>, key: &str) {
        let class = self.class(key, DEFAULT_CLASS_RING);
        entry.filtered.store(true, Ordering::Relaxed);
        class.inproc.lock().push(entry.clone());
        self.filter_generation.fetch_add(1, Ordering::Release);
    }

    fn publish(&self, msg: &Message) {
        let topic = msg.topic();
        let faults = self.faults.lock().clone();
        {
            let subs = self.inproc_subs.lock();
            for sub in subs.iter() {
                if !sub.alive.load(Ordering::Relaxed)
                    || sub.filtered.load(Ordering::Relaxed)
                    || !sub.matches(topic)
                {
                    continue;
                }
                // Injected link loss: the peer sees the same shared
                // entry go dead and can re-dial.
                if faults.inject(FaultPoint::MqDisconnect).is_some() {
                    sub.alive.store(false, Ordering::Relaxed);
                    continue;
                }
                // Injected HWM saturation: drop-newest, like a full
                // queue.
                let full = faults.inject(FaultPoint::MqHwm).is_some();
                match if full {
                    Err(TrySendError::Full(msg.clone()))
                } else {
                    sub.sender.try_send(msg.clone())
                } {
                    Ok(()) => {
                        self.sent.fetch_add(1, Ordering::Relaxed);
                        self.t_published.inc();
                    }
                    Err(TrySendError::Full(_)) => {
                        sub.dropped.fetch_add(1, Ordering::Relaxed);
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                        self.t_dropped.inc();
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        sub.alive.store(false, Ordering::Relaxed);
                    }
                }
            }
        }
        {
            let conns = self.tcp_subs.lock();
            // Encode once for the whole fan-out (lazily, so topics with
            // no TCP match pay nothing); each subscriber's writer gets
            // a refcounted clone of the same buffer. No socket write
            // happens under this lock — enqueueing is the only work.
            let mut encoded: Option<bytes::Bytes> = None;
            for conn in conns.iter() {
                if !conn.alive.load(Ordering::Relaxed) || conn.is_filtered() || !conn.matches(topic)
                {
                    continue;
                }
                if faults.inject(FaultPoint::MqDisconnect).is_some() {
                    conn.disconnect();
                    continue;
                }
                if faults.inject(FaultPoint::MqHwm).is_some() {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    self.t_dropped.inc();
                    continue;
                }
                let frame = encoded.get_or_insert_with(|| msg.encode()).clone();
                match conn.frame_tx.try_send(Outbound::Frame(frame)) {
                    Ok(()) => {
                        conn.stalled.store(0, Ordering::Relaxed);
                        self.sent.fetch_add(1, Ordering::Relaxed);
                        self.t_published.inc();
                        self.t_tcp_frames.inc();
                    }
                    Err(TrySendError::Full(_)) => {
                        // Publish stall: drop-newest for this subscriber
                        // only, and evict peers that stay wedged.
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                        self.t_dropped.inc();
                        self.t_publish_stalls.inc();
                        let stalls = conn.stalled.fetch_add(1, Ordering::Relaxed) + 1;
                        if stalls >= SLOW_SUB_DISCONNECT_AFTER {
                            conn.disconnect();
                            self.t_slow_disconnects.inc();
                        }
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        conn.alive.store(false, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    fn gc(&self) {
        self.inproc_subs
            .lock()
            .retain(|s| s.alive.load(Ordering::Relaxed));
        self.tcp_subs
            .lock()
            .retain(|c| c.alive.load(Ordering::Relaxed));
        for class in self.classes.lock().values() {
            class
                .inproc
                .lock()
                .retain(|s| s.alive.load(Ordering::Relaxed));
            class.tcp.lock().retain(|c| c.alive.load(Ordering::Relaxed));
        }
    }
}

/// A publishing socket.
pub struct PubSocket {
    ctx: Context,
    core: Arc<PubCore>,
    bound_inproc: Mutex<Vec<String>>,
    listeners: Mutex<Vec<ListenerGuard>>,
}

impl PubSocket {
    pub(crate) fn new(ctx: Context) -> PubSocket {
        PubSocket {
            ctx,
            core: Arc::new(PubCore::default()),
            bound_inproc: Mutex::new(Vec::new()),
            listeners: Mutex::new(Vec::new()),
        }
    }

    /// Bind to an endpoint. A socket may bind several endpoints.
    pub fn bind(&self, endpoint: &str) -> Result<(), MqError> {
        match Endpoint::parse(endpoint)? {
            Endpoint::Inproc(name) => {
                self.ctx
                    .register(&name, InprocBinding::Publisher(self.core.clone()))?;
                self.bound_inproc.lock().push(name);
                Ok(())
            }
            Endpoint::Tcp(addr) => {
                let core = self.core.clone();
                let listener = spawn_listener(&addr, move |stream| {
                    let (frame_tx, frame_rx) = bounded::<Outbound>(TCP_WRITER_QUEUE);
                    let conn = Arc::new(TcpSubConn {
                        frame_tx,
                        stream: Mutex::new(stream.try_clone().expect("clone stream")),
                        prefixes: PrefixSet::new(Vec::new()),
                        alive: AtomicBool::new(true),
                        stalled: AtomicU64::new(0),
                        filter_key: Mutex::new(None),
                        degraded: AtomicBool::new(false),
                    });
                    core.tcp_subs.lock().push(conn.clone());
                    // Writer thread: drain queued frames onto the wire.
                    // Publish latency is decoupled from this peer's
                    // socket — a blocked write here blocks nobody else.
                    let writer_conn = conn.clone();
                    let mut writer = stream.try_clone().expect("clone stream");
                    std::thread::spawn(move || loop {
                        match frame_rx.recv_timeout(Duration::from_millis(100)) {
                            Ok(out) => {
                                let written = match out {
                                    Outbound::Frame(frame) => write_encoded(&mut writer, &frame),
                                    Outbound::SyncAck(token) => write_sync_ack(&mut writer, token),
                                };
                                if written.is_err() {
                                    writer_conn.alive.store(false, Ordering::Relaxed);
                                    break;
                                }
                            }
                            Err(RecvTimeoutError::Disconnected) => break,
                            Err(RecvTimeoutError::Timeout) => {
                                if !writer_conn.alive.load(Ordering::Relaxed) {
                                    break;
                                }
                            }
                        }
                    });
                    // Reader thread: consume subscription control frames.
                    let mut reader = stream;
                    let ctrl_core = core.clone();
                    std::thread::spawn(move || {
                        while let Some(ctrl) = read_message(&mut reader) {
                            ctrl_core.apply_control(&conn, ctrl.topic());
                        }
                        conn.alive.store(false, Ordering::Relaxed);
                    });
                })
                .map_err(|e| MqError::BindFailed(e.to_string()))?;
                self.listeners.lock().push(listener);
                Ok(())
            }
        }
    }

    /// The TCP address actually bound (useful with port 0).
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.listeners.lock().last().map(ListenerGuard::local_addr)
    }

    /// Publish a message to all matching subscribers. Never blocks on a
    /// slow subscriber.
    pub fn send(&self, msg: Message) -> Result<(), MqError> {
        self.core.publish(&msg);
        Ok(())
    }

    /// Number of live subscribers (inproc attachments + TCP
    /// connections). Publishers that must not fire into the void —
    /// like collectors that purge behind their publishes — check this
    /// before sending.
    pub fn subscriber_count(&self) -> usize {
        let inproc = self
            .core
            .inproc_subs
            .lock()
            .iter()
            .filter(|s| s.alive.load(Ordering::Relaxed))
            .count();
        let tcp = self
            .core
            .tcp_subs
            .lock()
            .iter()
            .filter(|c| c.alive.load(Ordering::Relaxed))
            .count();
        inproc + tcp
    }

    /// Whether any live subscriber's prefix set matches `topic`.
    /// Stricter than [`subscriber_count`]: over TCP a connection may
    /// exist before its subscription control frames land, and a
    /// publisher that purges behind its publishes must not fire until
    /// someone will actually receive.
    ///
    /// [`subscriber_count`]: PubSocket::subscriber_count
    pub fn has_subscriber_matching(&self, topic: &[u8]) -> bool {
        self.core
            .inproc_subs
            .lock()
            .iter()
            .any(|s| s.alive.load(Ordering::Relaxed) && s.matches(topic))
            || self
                .core
                .tcp_subs
                .lock()
                .iter()
                .any(|c| c.alive.load(Ordering::Relaxed) && c.matches(topic))
    }

    /// Arm fault injection on this publisher: sends consult the plane
    /// for injected disconnects and HWM saturation. Scoped per socket
    /// so chaos plans can target one hop (the aggregator→consumer link)
    /// without poisoning links that have no replay path.
    pub fn arm_faults(&self, faults: Faults) {
        *self.core.faults.lock() = faults;
    }

    /// `(messages delivered, messages dropped at HWM)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.core.sent.load(Ordering::Relaxed),
            self.core.dropped.load(Ordering::Relaxed),
        )
    }

    /// Drop dead subscriber entries.
    pub fn collect_garbage(&self) {
        self.core.gc();
    }

    /// Monotonic counter bumped whenever the set of registered filters
    /// changes — the fan-out engine rebuilds its compiled subscription
    /// index only when this moves.
    pub fn filter_generation(&self) -> u64 {
        self.core.filter_generation.load(Ordering::Acquire)
    }

    /// Canonical spec keys of every active filter class, sorted.
    pub fn active_filter_specs(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.core.classes.lock().keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Get or create the class for a canonical spec key. The fan-out
    /// engine holds these handles and publishes per-class frames via
    /// [`FilterClass::publish_with`].
    pub fn filter_class(&self, key: &str) -> Arc<FilterClass> {
        self.core.class(key, DEFAULT_CLASS_RING)
    }

    /// Subscribe in-process to a filter class: returns a cursor into
    /// the class's shared broadcast ring. This is the cheap path for
    /// very large subscriber counts — each subscriber is a cursor, the
    /// frames are shared. A cursor that falls behind the ring capacity
    /// observes an overrun and heals from the event store.
    pub fn subscribe_class(&self, key: &str) -> ClassCursor {
        let class = self.core.class(key, DEFAULT_CLASS_RING);
        class.cursors.fetch_add(1, Ordering::Relaxed);
        let cursor = RingCursor::at_head(class.ring.clone());
        ClassCursor { class, cursor }
    }

    /// Per-class counters for every active filter class, sorted by key.
    pub fn class_stats(&self) -> Vec<ClassStats> {
        let mut stats: Vec<ClassStats> = self
            .core
            .classes
            .lock()
            .values()
            .map(|c| c.stats())
            .collect();
        stats.sort_by(|a, b| a.key.cmp(&b.key));
        stats
    }
}

impl Drop for PubSocket {
    fn drop(&mut self) {
        for name in self.bound_inproc.lock().drain(..) {
            self.ctx.unregister(&name);
        }
    }
}

/// The subscriber's end of one TCP attachment, shared with the thread
/// that reads it.
struct TcpLink {
    /// The write half, for control frames, and the last sync token sent
    /// on it. One lock, so tokens reach the wire in the order they were
    /// drawn and an ack for token `n` covers every frame sent before it.
    ctrl: Mutex<(TcpStream, u64)>,
    /// Cleared when the reader thread ends (EOF, reset, a malformed
    /// frame) or the socket is dropped.
    alive: AtomicBool,
    /// Highest token the publisher has acknowledged.
    acked: std::sync::Mutex<u64>,
    ack_arrived: Condvar,
}

/// A `CTRL_SYNC` that is on the wire and not yet known to be answered.
struct PendingAck {
    link: Arc<TcpLink>,
    token: u64,
}

fn control_frame(kind: u8, payload: &[u8]) -> Message {
    let mut frame = Vec::with_capacity(1 + payload.len());
    frame.push(kind);
    frame.extend_from_slice(payload);
    Message::single(frame)
}

impl TcpLink {
    /// `acked` is a plain number, valid after any panic.
    fn acked(&self) -> std::sync::MutexGuard<'_, u64> {
        self.acked.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Send `frames`, then a `CTRL_SYNC` behind them. A write error
    /// closes the link.
    fn send_synced(self: &Arc<Self>, frames: &[Message]) -> std::io::Result<PendingAck> {
        let mut ctrl = self.ctrl.lock();
        let (stream, last_token) = &mut *ctrl;
        *last_token += 1;
        let token = *last_token;
        let sync = control_frame(CTRL_SYNC, &token.to_be_bytes());
        let sent = frames
            .iter()
            .chain([&sync])
            .try_for_each(|frame| write_frame(stream, frame));
        drop(ctrl);
        match sent {
            Ok(()) => Ok(PendingAck {
                link: self.clone(),
                token,
            }),
            Err(e) => {
                self.close();
                Err(e)
            }
        }
    }

    /// The reader thread saw the ack for `token`.
    fn ack(&self, token: u64) {
        let mut acked = self.acked();
        *acked = (*acked).max(token);
        drop(acked);
        self.ack_arrived.notify_all();
    }

    /// Mark the link dead, hang up, and release anyone waiting on it.
    fn close(&self) {
        self.alive.store(false, Ordering::Relaxed);
        let _ = self.ctrl.lock().0.shutdown(std::net::Shutdown::Both);
        // Under the lock a waiter checks `alive` under, so the wake-up
        // cannot fall between its check and its wait.
        let _acked = self.acked();
        self.ack_arrived.notify_all();
    }

    /// Block until `token` is acknowledged. False when the link died
    /// first or `deadline` passed.
    fn wait_acked(&self, token: u64, deadline: Instant) -> bool {
        let mut acked = self.acked();
        loop {
            if *acked >= token {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || !self.alive.load(Ordering::Relaxed) {
                return false;
            }
            acked = self
                .ack_arrived
                .wait_timeout(acked, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

enum SubAttachment {
    Inproc {
        entry: Arc<SubEntry>,
        core: Arc<PubCore>,
        endpoint: String,
    },
    Tcp {
        link: Arc<TcpLink>,
        endpoint: String,
    },
}

impl SubAttachment {
    fn alive(&self) -> bool {
        match self {
            SubAttachment::Inproc { entry, .. } => entry.alive.load(Ordering::Relaxed),
            SubAttachment::Tcp { link, .. } => link.alive.load(Ordering::Relaxed),
        }
    }

    fn endpoint(&self) -> &str {
        match self {
            SubAttachment::Inproc { endpoint, .. } => endpoint,
            SubAttachment::Tcp { endpoint, .. } => endpoint,
        }
    }
}

/// A subscribing socket.
pub struct SubSocket {
    ctx: Context,
    hwm: usize,
    queue_tx: Arc<QueueTx>,
    queue_rx: Receiver<Message>,
    attachments: Mutex<Vec<SubAttachment>>,
    prefixes: Mutex<Vec<Vec<u8>>>,
    /// Pushed-down filter specs (canonical class keys) registered via
    /// [`subscribe_filter`](SubSocket::subscribe_filter); re-forwarded
    /// on connect/reconnect like prefixes.
    filter_specs: Mutex<Vec<String>>,
    /// Longest a subscribing call waits for its TCP acknowledgements.
    sync_bound: Duration,
    t_sync_ns: Arc<fsmon_telemetry::Histogram>,
    t_sync_timeouts: Arc<fsmon_telemetry::Counter>,
}

impl SubSocket {
    pub(crate) fn new(ctx: Context) -> SubSocket {
        Self::with_hwm(ctx, DEFAULT_HWM)
    }

    /// Create with an explicit high-water mark.
    pub fn with_hwm(ctx: Context, hwm: usize) -> SubSocket {
        Self::with_sync_bound(ctx, hwm, SYNC_BOUND)
    }

    /// [`with_hwm`](SubSocket::with_hwm), for a test that cannot wait
    /// out [`SYNC_BOUND`] on a peer that never answers.
    pub(crate) fn with_sync_bound(ctx: Context, hwm: usize, sync_bound: Duration) -> SubSocket {
        let (tx, queue_rx) = bounded(hwm);
        let scope = fsmon_telemetry::root().scope("mq");
        SubSocket {
            ctx,
            hwm,
            queue_tx: Arc::new(QueueTx {
                tx,
                arrivals: OnceLock::new(),
            }),
            queue_rx,
            attachments: Mutex::new(Vec::new()),
            prefixes: Mutex::new(Vec::new()),
            filter_specs: Mutex::new(Vec::new()),
            sync_bound,
            t_sync_ns: scope.histogram("subscribe_sync_ns"),
            t_sync_timeouts: scope.counter("subscribe_sync_timeouts_total"),
        }
    }

    /// Wait until the publishers have answered every sync in `pending`
    /// (sent since `started`), or the bound has passed. Returns whether
    /// all of them did; a live link that stayed silent is counted in
    /// `fsmon_mq_subscribe_sync_timeouts_total`.
    fn await_acks(&self, started: Instant, pending: &[PendingAck]) -> bool {
        if pending.is_empty() {
            return true;
        }
        let deadline = started + self.sync_bound;
        let mut all = true;
        for p in pending {
            if !p.link.wait_acked(p.token, deadline) {
                all = false;
                if p.link.alive.load(Ordering::Relaxed) {
                    self.t_sync_timeouts.inc();
                }
            }
        }
        self.t_sync_ns.record(started.elapsed().as_nanos() as u64);
        all
    }

    /// Apply one subscription change to every live attachment: inproc
    /// entries in place, TCP peers by `kind | payload` control frame —
    /// and return once every TCP peer has acknowledged it.
    fn change_subscription(
        &self,
        kind: u8,
        payload: &[u8],
        inproc: impl Fn(&Arc<SubEntry>, &Arc<PubCore>),
    ) {
        let started = Instant::now();
        let frame = [control_frame(kind, payload)];
        let mut pending = Vec::new();
        for att in self.attachments.lock().iter() {
            match att {
                SubAttachment::Inproc { entry, core, .. } => inproc(entry, core),
                SubAttachment::Tcp { link, .. } => {
                    if att.alive() {
                        pending.extend(link.send_synced(&frame).ok());
                    }
                }
            }
        }
        // Outside the attachments lock: `disconnected()` and `dropped()`
        // stay answerable while a slow peer makes up its mind.
        self.await_acks(started, &pending);
    }

    /// Connect to a PUB endpoint. A SUB may connect to many publishers
    /// (the aggregator subscribes to every collector this way).
    pub fn connect(&self, endpoint: &str) -> Result<(), MqError> {
        match Endpoint::parse(endpoint)? {
            Endpoint::Inproc(name) => {
                let binding = self.ctx.lookup(&name)?;
                let InprocBinding::Publisher(core) = binding else {
                    return Err(MqError::ConnectFailed(format!(
                        "inproc://{name} is not a publisher"
                    )));
                };
                let entry = Arc::new(SubEntry {
                    prefixes: PrefixSet::new(self.prefixes.lock().clone()),
                    sender: self.queue_tx.clone(),
                    alive: AtomicBool::new(true),
                    dropped: AtomicU64::new(0),
                    filtered: AtomicBool::new(false),
                });
                core.inproc_subs.lock().push(entry.clone());
                for spec in self.filter_specs.lock().iter() {
                    core.register_inproc_filter(&entry, spec);
                }
                self.attachments.lock().push(SubAttachment::Inproc {
                    entry,
                    core,
                    endpoint: endpoint.to_string(),
                });
                Ok(())
            }
            Endpoint::Tcp(addr) => {
                let failed =
                    |e: &dyn std::fmt::Display| MqError::ConnectFailed(format!("{addr}: {e}"));
                let stream = TcpStream::connect(&addr).map_err(|e| failed(&e))?;
                stream.set_nodelay(true).ok();
                let mut reader = stream.try_clone().map_err(|e| failed(&e))?;
                let link = Arc::new(TcpLink {
                    ctrl: Mutex::new((stream, 0)),
                    alive: AtomicBool::new(true),
                    acked: std::sync::Mutex::new(0),
                    ack_arrived: Condvar::new(),
                });
                // Reader thread: data frames go to the local queue, acks
                // to whoever waits on the link. An ack is not a message:
                // it never touches the queue, its HWM or the arrival
                // signal.
                let queue = self.queue_tx.clone();
                let link_r = link.clone();
                std::thread::spawn(move || {
                    while link_r.alive.load(Ordering::Relaxed) {
                        match read_frame(&mut reader) {
                            Some(Frame::Message(msg)) => {
                                // HWM: drop newest on overflow, like the
                                // inproc path.
                                let _ = queue.try_send(msg);
                            }
                            Some(Frame::SyncAck(token)) => link_r.ack(token),
                            None => break,
                        }
                    }
                    link_r.close();
                });
                // Forward current subscriptions (prefixes and
                // pushed-down filters alike) and wait for the publisher
                // to have applied them.
                let started = Instant::now();
                let mut frames: Vec<Message> = Vec::new();
                for prefix in self.prefixes.lock().iter() {
                    frames.push(control_frame(CTRL_SUBSCRIBE, prefix));
                }
                for spec in self.filter_specs.lock().iter() {
                    frames.push(control_frame(CTRL_FILTER, spec.as_bytes()));
                }
                let pending = link.send_synced(&frames).map_err(|e| failed(&e))?;
                if !self.await_acks(started, &[pending]) {
                    link.close();
                    return Err(failed(&"subscription not acknowledged"));
                }
                self.attachments.lock().push(SubAttachment::Tcp {
                    link,
                    endpoint: endpoint.to_string(),
                });
                Ok(())
            }
        }
    }

    /// Subscribe to a topic prefix (empty = everything). When this
    /// returns, every live publisher — TCP ones included — delivers
    /// matching messages sent from now on.
    pub fn subscribe(&self, prefix: &[u8]) {
        self.prefixes.lock().push(prefix.to_vec());
        self.change_subscription(CTRL_SUBSCRIBE, prefix, |entry, _| {
            entry.prefixes.push(prefix.to_vec())
        });
    }

    /// Remove a previously added prefix. A message that only this
    /// prefix matched, sent after this returns, is never delivered, and
    /// the ones sent before are already in the queue.
    pub fn unsubscribe(&self, prefix: &[u8]) {
        self.prefixes.lock().retain(|p| p != prefix);
        self.change_subscription(CTRL_UNSUBSCRIBE, prefix, |entry, _| {
            entry.prefixes.remove(prefix)
        });
    }

    /// Push a filter down to the publisher: register this socket in the
    /// filter class named by `spec` (a canonical filter-spec string —
    /// the mq layer treats it as an opaque key). The socket then
    /// receives that class's frames *instead of* raw topic fan-out;
    /// dropped class frames surface as class-sequence gaps the consumer
    /// heals from the event store, and a filtered peer is never
    /// disconnected for slowness. The registration is in place on
    /// every live publisher when this returns.
    pub fn subscribe_filter(&self, spec: &str) {
        self.filter_specs.lock().push(spec.to_string());
        self.change_subscription(CTRL_FILTER, spec.as_bytes(), |entry, core| {
            core.register_inproc_filter(entry, spec)
        });
    }

    /// Bump `signal` after every message this socket enqueues from now
    /// on, over current and future attachments alike, so one reader can
    /// sleep on several sockets (see [`ArrivalSignal`]). A socket
    /// reports to one signal for life: returns `false`, changing
    /// nothing, if another one is already installed.
    pub fn notify_arrivals(&self, signal: Arc<ArrivalSignal>) -> bool {
        self.queue_tx.arrivals.set(signal).is_ok()
    }

    /// Receive, blocking up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, MqError> {
        self.queue_rx
            .recv_timeout(timeout)
            .map_err(|_| MqError::Timeout)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.queue_rx.try_recv().ok()
    }

    /// Messages dropped at this subscriber's HWM (inproc attachments).
    pub fn dropped(&self) -> u64 {
        self.attachments
            .lock()
            .iter()
            .map(|a| match a {
                SubAttachment::Inproc { entry, .. } => entry.dropped.load(Ordering::Relaxed),
                SubAttachment::Tcp { .. } => 0,
            })
            .sum()
    }

    /// Whether any attachment has gone dead (publisher dropped the
    /// link, TCP reset, or an injected disconnect).
    pub fn disconnected(&self) -> bool {
        self.attachments.lock().iter().any(|a| !a.alive())
    }

    /// Re-dial every dead attachment at its original endpoint. Returns
    /// the number of links re-established. A dead attachment is only
    /// dropped once its replacement connects, so a dial failure leaves
    /// the endpoint queued for the next attempt ([`disconnected`] stays
    /// true and the caller's retry loop comes back).
    ///
    /// [`disconnected`]: SubSocket::disconnected
    pub fn reconnect(&self) -> Result<usize, MqError> {
        let dead: Vec<String> = self
            .attachments
            .lock()
            .iter()
            .filter(|a| !a.alive())
            .map(|a| a.endpoint().to_string())
            .collect();
        let t_reconnects = fsmon_telemetry::root()
            .scope("mq")
            .counter("reconnects_total");
        let mut n = 0;
        for endpoint in &dead {
            self.connect(endpoint)?;
            let mut atts = self.attachments.lock();
            if let Some(pos) = atts
                .iter()
                .position(|a| !a.alive() && a.endpoint() == endpoint)
            {
                atts.remove(pos);
            }
            t_reconnects.inc();
            n += 1;
        }
        Ok(n)
    }

    /// The configured high-water mark.
    pub fn hwm(&self) -> usize {
        self.hwm
    }

    /// Messages currently queued.
    pub fn queued(&self) -> usize {
        self.queue_rx.len()
    }
}

impl Drop for SubSocket {
    fn drop(&mut self) {
        for att in self.attachments.lock().iter() {
            match att {
                SubAttachment::Inproc { entry, .. } => entry.alive.store(false, Ordering::Relaxed),
                SubAttachment::Tcp { link, .. } => link.close(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::malformed_frames;

    fn msg(topic: &str, payload: &str) -> Message {
        Message::from_parts(vec![topic.as_bytes().to_vec(), payload.as_bytes().to_vec()])
    }

    #[test]
    fn inproc_pubsub_delivers_matching_topics() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://t").unwrap();
        let sub = ctx.subscriber();
        sub.connect("inproc://t").unwrap();
        sub.subscribe(b"a");
        publisher.send(msg("a.1", "x")).unwrap();
        publisher.send(msg("b.1", "y")).unwrap();
        publisher.send(msg("a.2", "z")).unwrap();
        let m1 = sub.recv_timeout(Duration::from_secs(1)).unwrap();
        let m2 = sub.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(m1.topic(), b"a.1");
        assert_eq!(m2.topic(), b"a.2");
        assert!(sub.try_recv().is_none());
    }

    #[test]
    fn unsubscribed_sub_receives_nothing() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://t").unwrap();
        let sub = ctx.subscriber();
        sub.connect("inproc://t").unwrap();
        publisher.send(msg("a", "x")).unwrap();
        assert!(sub.try_recv().is_none());
    }

    #[test]
    fn empty_prefix_matches_everything() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://t").unwrap();
        let sub = ctx.subscriber();
        sub.connect("inproc://t").unwrap();
        sub.subscribe(b"");
        publisher.send(msg("anything", "x")).unwrap();
        assert!(sub.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://t").unwrap();
        let sub = ctx.subscriber();
        sub.connect("inproc://t").unwrap();
        sub.subscribe(b"a");
        sub.unsubscribe(b"a");
        publisher.send(msg("a", "x")).unwrap();
        assert!(sub.try_recv().is_none());
    }

    #[test]
    fn multiple_subscribers_each_get_copies() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://t").unwrap();
        let s1 = ctx.subscriber();
        s1.connect("inproc://t").unwrap();
        s1.subscribe(b"");
        let s2 = ctx.subscriber();
        s2.connect("inproc://t").unwrap();
        s2.subscribe(b"");
        publisher.send(msg("t", "x")).unwrap();
        assert!(s1.recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(s2.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn one_sub_connecting_to_many_pubs_aggregates() {
        // The aggregator pattern: one SUB, N collector PUBs.
        let ctx = Context::new();
        let p1 = ctx.publisher();
        p1.bind("inproc://mds0").unwrap();
        let p2 = ctx.publisher();
        p2.bind("inproc://mds1").unwrap();
        let sub = ctx.subscriber();
        sub.connect("inproc://mds0").unwrap();
        sub.connect("inproc://mds1").unwrap();
        sub.subscribe(b"");
        p1.send(msg("a", "1")).unwrap();
        p2.send(msg("b", "2")).unwrap();
        let mut topics = vec![
            sub.recv_timeout(Duration::from_secs(1))
                .unwrap()
                .topic()
                .to_vec(),
            sub.recv_timeout(Duration::from_secs(1))
                .unwrap()
                .topic()
                .to_vec(),
        ];
        topics.sort();
        assert_eq!(topics, vec![b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn hwm_drops_newest_and_counts() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://t").unwrap();
        let sub = SubSocket::with_hwm(ctx, 5);
        sub.connect("inproc://t").unwrap();
        sub.subscribe(b"");
        for i in 0..10 {
            publisher.send(msg("t", &i.to_string())).unwrap();
        }
        assert_eq!(sub.queued(), 5);
        assert_eq!(sub.dropped(), 5);
        let (sent, dropped) = publisher.stats();
        assert_eq!(sent, 5);
        assert_eq!(dropped, 5);
        // The five retained are the oldest.
        let first = sub.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(first.part(1), Some(&b"0"[..]));
    }

    #[test]
    fn dropped_subscriber_is_garbage_collected() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://t").unwrap();
        {
            let sub = ctx.subscriber();
            sub.connect("inproc://t").unwrap();
            sub.subscribe(b"");
        }
        publisher.send(msg("t", "x")).unwrap();
        publisher.collect_garbage();
        publisher.send(msg("t", "y")).unwrap();
        let (sent, _) = publisher.stats();
        assert_eq!(sent, 0, "no live subscribers to deliver to");
    }

    #[test]
    fn pub_endpoint_name_freed_on_drop() {
        let ctx = Context::new();
        {
            let p = ctx.publisher();
            p.bind("inproc://x").unwrap();
        }
        let p2 = ctx.publisher();
        assert!(p2.bind("inproc://x").is_ok());
    }

    #[test]
    fn tcp_pubsub_roundtrip() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("tcp://127.0.0.1:0").unwrap();
        let addr = publisher.local_addr().unwrap();
        let sub = ctx.subscriber();
        sub.connect(&format!("tcp://{addr}")).unwrap();
        sub.subscribe(b"events");
        publisher.send(msg("events.mdt0", "payload")).unwrap();
        publisher.send(msg("other", "nope")).unwrap();
        let m = sub.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(m.topic(), b"events.mdt0");
        assert_eq!(m.part(1), Some(&b"payload"[..]));
        assert!(sub.try_recv().is_none());
    }

    /// Connected means subscribed: no settling time anywhere between
    /// bind, connect, subscribe and the first send.
    #[test]
    fn tcp_subscription_is_live_when_subscribe_returns() {
        let ctx = Context::new();
        for round in 0..200 {
            let publisher = ctx.publisher();
            publisher.bind("tcp://127.0.0.1:0").unwrap();
            let sub = ctx.subscriber();
            // Alternate the two orders a caller can use.
            if round % 2 == 0 {
                sub.connect(&format!("tcp://{}", publisher.local_addr().unwrap()))
                    .unwrap();
                sub.subscribe(b"t");
            } else {
                sub.subscribe(b"t");
                sub.connect(&format!("tcp://{}", publisher.local_addr().unwrap()))
                    .unwrap();
            }
            assert!(publisher.has_subscriber_matching(b"t"), "round {round}");
            publisher.send(msg("t", "first")).unwrap();
            let m = sub
                .recv_timeout(Duration::from_secs(2))
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(m.part(1), Some(&b"first"[..]));
        }
    }

    /// `unsubscribe` is acknowledged too: what is sent after it returns
    /// is never delivered.
    #[test]
    fn tcp_unsubscribe_is_synchronous() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("tcp://127.0.0.1:0").unwrap();
        let sub = ctx.subscriber();
        sub.connect(&format!("tcp://{}", publisher.local_addr().unwrap()))
            .unwrap();
        for round in 0..100 {
            sub.subscribe(b"gone");
            sub.unsubscribe(b"gone");
            assert!(!publisher.has_subscriber_matching(b"gone"));
            publisher.send(msg("gone", "never")).unwrap();
            // Frames leave the publisher in order, so had "never" been
            // queued for this peer it would arrive before "fence".
            sub.subscribe(b"fence");
            publisher.send(msg("fence", "x")).unwrap();
            let m = sub.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(m.topic(), b"fence", "round {round}");
            sub.unsubscribe(b"fence");
        }
        assert!(sub.try_recv().is_none());
    }

    /// A peer that accepts and never answers is not a publisher: the
    /// connect fails once the bound has passed, and says so by count.
    #[test]
    fn tcp_connect_to_a_silent_peer_fails_after_the_bound() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sub = SubSocket::with_sync_bound(Context::new(), 8, Duration::from_millis(50));
        sub.subscribe(b"t");
        let timeouts = sub.t_sync_timeouts.get();
        let err = sub.connect(&format!("tcp://{addr}")).unwrap_err();
        assert!(matches!(err, MqError::ConnectFailed(_)), "{err:?}");
        assert!(sub.t_sync_timeouts.get() > timeouts);
        assert!(!sub.disconnected(), "the failed link was never attached");
        // The connection was really made, and the control frames sent.
        let (mut peer, _) = listener.accept().unwrap();
        assert_eq!(
            read_message(&mut peer).unwrap().topic(),
            [&[CTRL_SUBSCRIBE][..], b"t"].concat()
        );
    }

    /// The ack is not a message: it never enters the queue, counts
    /// against the HWM, or bumps the arrival signal.
    #[test]
    fn tcp_sync_acks_never_reach_the_queue() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("tcp://127.0.0.1:0").unwrap();
        let sub = SubSocket::with_hwm(ctx, 4);
        let signal = Arc::new(ArrivalSignal::new());
        assert!(sub.notify_arrivals(signal.clone()));
        sub.connect(&format!("tcp://{}", publisher.local_addr().unwrap()))
            .unwrap();
        let syncs = sub.t_sync_ns.snapshot().count();
        for _ in 0..1000 {
            sub.subscribe(b"t");
            sub.unsubscribe(b"t");
        }
        assert_eq!(sub.queued(), 0);
        assert_eq!(sub.dropped(), 0);
        assert_eq!(publisher.stats(), (0, 0));
        assert_eq!(signal.epoch(), 0, "an ack is not an arrival");
        assert!(sub.t_sync_ns.snapshot().count() >= syncs + 2000);
        // And the link still carries messages afterwards.
        sub.subscribe(b"t");
        publisher.send(msg("t", "x")).unwrap();
        assert!(signal.wait_past(0, Duration::from_secs(2)), "a message is");
        assert!(sub.try_recv().is_some());
    }

    /// Dropping a bound socket of either kind joins its listener thread,
    /// so the port is closed by the time the drop returns.
    #[test]
    fn dropping_a_bound_tcp_socket_ends_its_listener() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        let replier = ctx.replier();
        publisher.bind("tcp://127.0.0.1:0").unwrap();
        replier.bind("tcp://127.0.0.1:0").unwrap();
        let addrs = [
            publisher.local_addr().unwrap(),
            replier.local_addr().unwrap(),
        ];
        for addr in addrs {
            assert!(TcpStream::connect(addr).is_ok(), "{addr} listening");
        }
        drop((publisher, replier));
        for addr in addrs {
            assert!(TcpStream::connect(addr).is_err(), "{addr} still open");
        }
        assert!(matches!(
            ctx.subscriber().connect(&format!("tcp://{}", addrs[0])),
            Err(MqError::ConnectFailed(_))
        ));
    }

    /// A publisher-side connection whose writer queue nobody drains.
    fn undrained_conn(queue: usize) -> (Arc<TcpSubConn>, Receiver<Outbound>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (frame_tx, frame_rx) = bounded::<Outbound>(queue);
        let conn = Arc::new(TcpSubConn {
            frame_tx,
            stream: Mutex::new(client),
            prefixes: PrefixSet::new(Vec::new()),
            alive: AtomicBool::new(true),
            stalled: AtomicU64::new(0),
            filter_key: Mutex::new(None),
            degraded: AtomicBool::new(false),
        });
        (conn, frame_rx)
    }

    #[test]
    fn malformed_control_frames_are_counted_and_ignored() {
        let core = PubCore::default();
        let (conn, acks) = undrained_conn(4);
        let bad: [&[u8]; 5] = [
            &[],                        // zero-length topic
            &[CTRL_FILTER, 0xff, 0xfe], // key is not UTF-8
            &[CTRL_SYNC, 1, 2, 3],      // token is not eight bytes
            &[CTRL_SYNC],
            &[9, b'x'], // no such control frame
        ];
        for frame in bad {
            let before = malformed_frames().get();
            core.apply_control(&conn, frame);
            assert!(malformed_frames().get() > before, "{frame:?}");
        }
        assert!(conn.prefixes.load().is_empty());
        assert!(!conn.is_filtered());
        assert!(acks.try_recv().is_err(), "nothing was acknowledged");
        // Well-formed frames on the same connection still apply.
        core.apply_control(&conn, &[CTRL_SUBSCRIBE, b't']);
        core.apply_control(&conn, &[&[CTRL_SYNC][..], &7u64.to_be_bytes()].concat());
        assert!(conn.matches(b"topic"));
        assert!(matches!(acks.try_recv(), Ok(Outbound::SyncAck(7))));
    }

    proptest::proptest! {
        /// No control frame a peer can send panics the connection's
        /// reader: a known kind byte followed by garbage, or garbage
        /// from the first byte.
        #[test]
        fn arbitrary_control_frames_never_panic(
            frames in proptest::collection::vec(
                (0u8..6, proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..24)),
                0..32,
            ),
        ) {
            let core = PubCore::default();
            let (conn, _acks) = undrained_conn(64);
            for (kind, body) in &frames {
                // Kinds 4 and 5 stand for "no kind byte at all".
                let frame = if *kind < 4 {
                    [&[*kind][..], body].concat()
                } else {
                    body.clone()
                };
                core.apply_control(&conn, &frame);
            }
            core.publish(&msg("t", "x"));
        }
    }

    /// A TCP subscriber whose writer queue is full causes a publish
    /// stall (drop-newest for that peer, publisher never blocks), and
    /// a peer that stays wedged past the threshold is disconnected.
    #[test]
    fn full_writer_queue_stalls_then_disconnects_slow_subscriber() {
        // A one-slot queue with no writer thread draining it models a
        // peer whose socket never accepts another byte.
        let (conn, _frame_rx) = undrained_conn(1);
        conn.prefixes.push(Vec::new());
        // One stall away from eviction.
        conn.stalled
            .store(SLOW_SUB_DISCONNECT_AFTER - 1, Ordering::Relaxed);
        let core = PubCore::default();
        core.tcp_subs.lock().push(conn.clone());
        let m = msg("t", "x");
        core.publish(&m); // fills the queue
        assert_eq!(core.sent.load(Ordering::Relaxed), 1);
        assert_eq!(
            conn.stalled.load(Ordering::Relaxed),
            0,
            "enqueue resets stalls"
        );
        conn.stalled
            .store(SLOW_SUB_DISCONNECT_AFTER - 1, Ordering::Relaxed);
        core.publish(&m); // queue full: stall, threshold crossed, evicted
        assert_eq!(core.dropped.load(Ordering::Relaxed), 1);
        assert!(
            !conn.alive.load(Ordering::Relaxed),
            "slow peer disconnected"
        );
    }

    #[test]
    fn injected_disconnect_is_visible_and_reconnect_heals() {
        use fsmon_faults::{FaultPlan, FaultPoint, FaultRule};
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://chaos").unwrap();
        let sub = ctx.subscriber();
        sub.connect("inproc://chaos").unwrap();
        sub.subscribe(b"");
        // First send severs the link, deterministically.
        publisher.arm_faults(
            FaultPlan::new(1)
                .with(
                    FaultPoint::MqDisconnect,
                    FaultRule::per_10k(10_000).limit(1),
                )
                .arm(),
        );
        publisher.send(msg("t", "lost")).unwrap();
        assert!(sub.try_recv().is_none());
        assert!(sub.disconnected());
        assert!(!publisher.has_subscriber_matching(b"t"));
        // Re-dial and delivery resumes (budget of one is spent).
        assert_eq!(sub.reconnect().unwrap(), 1);
        assert!(!sub.disconnected());
        publisher.send(msg("t", "back")).unwrap();
        let m = sub.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(m.part(1), Some(&b"back"[..]));
    }

    #[test]
    fn injected_hwm_drops_are_counted() {
        use fsmon_faults::{FaultPlan, FaultPoint, FaultRule};
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://hwm").unwrap();
        let sub = ctx.subscriber();
        sub.connect("inproc://hwm").unwrap();
        sub.subscribe(b"");
        publisher.arm_faults(
            FaultPlan::new(2)
                .with(FaultPoint::MqHwm, FaultRule::per_10k(10_000).limit(3))
                .arm(),
        );
        for i in 0..10 {
            publisher.send(msg("t", &i.to_string())).unwrap();
        }
        let (sent, dropped) = publisher.stats();
        assert_eq!(dropped, 3);
        assert_eq!(sent, 7);
        assert!(!sub.disconnected(), "HWM loss is not a link failure");
    }

    #[test]
    fn tcp_connect_refused_errors() {
        let ctx = Context::new();
        let sub = ctx.subscriber();
        // Port 1 is essentially never listening.
        assert!(matches!(
            sub.connect("tcp://127.0.0.1:1"),
            Err(MqError::ConnectFailed(_))
        ));
    }

    #[test]
    fn prefix_set_snapshots_survive_concurrent_mutation() {
        let set = Arc::new(PrefixSet::new(vec![b"a".to_vec()]));
        let writer = {
            let set = set.clone();
            std::thread::spawn(move || {
                for i in 0..1000u32 {
                    set.push(i.to_be_bytes().to_vec());
                    set.remove(&i.to_be_bytes());
                }
            })
        };
        for _ in 0..10_000 {
            assert!(set.matches(b"a.topic"), "original prefix never vanishes");
        }
        writer.join().unwrap();
        assert!(set.matches(b"a.topic"));
        assert!(!set.matches(b"b.topic"));
    }

    #[test]
    fn class_cursor_receives_class_frames_not_topic_fanout() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://classes").unwrap();
        let mut cursor = publisher.subscribe_class("path=/keep/**;kinds=*;mdts=*");
        let class = publisher.filter_class("path=/keep/**;kinds=*;mdts=*");
        assert_eq!(class.consumer_count(), 1);
        // Raw topic publishes do not reach class subscribers.
        publisher.send(msg("events", "firehose")).unwrap();
        assert!(matches!(cursor.poll(), RingPoll::Empty));
        // Class frames do, stamped with the class sequence.
        class.publish_with(|seq| {
            assert_eq!(seq, 0);
            msg("evsub", "subset")
        });
        match cursor.poll() {
            RingPoll::Frame(m) => assert_eq!(m.part(1), Some(&b"subset"[..])),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn filtered_inproc_socket_gets_class_frames_only() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://pushdown").unwrap();
        let sub = ctx.subscriber();
        sub.connect("inproc://pushdown").unwrap();
        sub.subscribe(b""); // would match everything, if unfiltered
        sub.subscribe_filter("path=/a/**;kinds=*;mdts=*");
        publisher.send(msg("events", "firehose")).unwrap();
        assert!(
            sub.try_recv().is_none(),
            "filtered socket skips topic fan-out"
        );
        let class = publisher.filter_class("path=/a/**;kinds=*;mdts=*");
        class.publish_with(|_seq| msg("evsub", "subset"));
        let m = sub.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(m.part(1), Some(&b"subset"[..]));
    }

    #[test]
    fn filter_pushdown_registers_over_tcp() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("tcp://127.0.0.1:0").unwrap();
        let addr = publisher.local_addr().unwrap();
        let sub = ctx.subscriber();
        sub.connect(&format!("tcp://{addr}")).unwrap();
        sub.subscribe_filter("path=/b/**;kinds=*;mdts=*");
        assert_eq!(
            publisher.active_filter_specs(),
            vec!["path=/b/**;kinds=*;mdts=*".to_string()]
        );
        publisher.send(msg("events", "firehose")).unwrap();
        let class = publisher.filter_class("path=/b/**;kinds=*;mdts=*");
        class.publish_with(|_seq| msg("evsub", "subset"));
        let m = sub.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(m.topic(), b"evsub");
        assert_eq!(m.part(1), Some(&b"subset"[..]));
        assert!(sub.try_recv().is_none(), "firehose frame was not delivered");
    }

    #[test]
    fn stalled_filtered_tcp_peer_degrades_instead_of_disconnecting() {
        let (conn, _frame_rx) = undrained_conn(1);
        let core = PubCore::default();
        core.register_tcp_filter(&conn, "path=/c/**;kinds=*;mdts=*");
        let class = core.class("path=/c/**;kinds=*;mdts=*", 8);
        // Queue capacity 1, nobody draining: second publish stalls.
        class.publish_with(|_| msg("evsub", "one"));
        class.publish_with(|_| msg("evsub", "two"));
        assert!(conn.alive.load(Ordering::Relaxed), "never disconnected");
        assert!(conn.degraded.load(Ordering::Relaxed), "flagged degraded");
        let stats = core.classes.lock()["path=/c/**;kinds=*;mdts=*"].stats();
        assert_eq!(stats.stalls, 1);
        assert_eq!(stats.degraded, 1);
        assert_eq!(stats.frames, 2, "the ring kept every frame for healing");
    }

    #[test]
    fn class_stats_report_consumers_and_frames() {
        let ctx = Context::new();
        let publisher = ctx.publisher();
        publisher.bind("inproc://stats").unwrap();
        let gen0 = publisher.filter_generation();
        let _c1 = publisher.subscribe_class("path=/x/**;kinds=*;mdts=*");
        let _c2 = publisher.subscribe_class("path=/x/**;kinds=*;mdts=*");
        let _c3 = publisher.subscribe_class("path=/y/**;kinds=*;mdts=*");
        assert!(
            publisher.filter_generation() > gen0,
            "new classes bump the generation"
        );
        publisher
            .filter_class("path=/x/**;kinds=*;mdts=*")
            .publish_with(|_| msg("evsub", "f"));
        let stats = publisher.class_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].key, "path=/x/**;kinds=*;mdts=*");
        assert_eq!(stats[0].consumers, 2);
        assert_eq!(stats[0].frames, 1);
        assert_eq!(stats[1].consumers, 1);
        assert_eq!(stats[1].frames, 0);
        drop(_c1);
        assert_eq!(
            publisher
                .filter_class("path=/x/**;kinds=*;mdts=*")
                .consumer_count(),
            1
        );
    }
}
