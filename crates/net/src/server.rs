//! The multi-tenant serving front-end.
//!
//! Thread shape (no async runtime — non-blocking sockets under `poll(2)`,
//! declared through `extern "C"` against the libc std already links, the
//! repo's offline-shim discipline applied to I/O). Every thread blocks
//! until it has work; none wakes on a timer to look for it:
//!
//! - an **accept thread** blocks on the listener and deals new
//!   connections round-robin to the net threads;
//! - **N net threads** ([`ServerConfig::net_threads`]) each own their
//!   connections and block in `poll(2)` on them plus one wake descriptor.
//!   Readable sockets are read and [`mnn_wire::frame_len`] carves
//!   complete frames out zero-copy; a connection whose outbox a
//!   non-blocking write could not empty is polled for writability, so a
//!   partial write resumes as soon as the socket drains. Responses from
//!   the scheduler, newly accepted connections and shutdown arrive through
//!   the wake descriptor; the only poll timeout is the next idle-connection
//!   deadline. Authentication, text encoding, the per-connection in-flight
//!   cap, and idle timeouts all live here, off the scheduler's critical
//!   path;
//! - one **scheduler thread** owns the [`SessionPool`] and is the only
//!   thread that touches model state. It blocks on the request channel;
//!   each wake-up drains every request already waiting into the pool's
//!   coalescing queues via `enqueue_tracked` — batching **across tenants
//!   and connections** — and, whenever the channel is empty, dispatches
//!   the longest-waiting queue and drains again, until every queue is
//!   empty; only then does it block (continuous batching). A batch is
//!   exactly what arrived before its dispatch: at low load a lone question
//!   runs at once, under backlog the batches fill. Full queues
//!   still flush inline at [`BatchConfig::max_batch`], and
//!   [`BatchConfig::max_wait`] is a starvation bound: while a busy tenant
//!   keeps the channel from ever emptying, a partial queue older than it
//!   is flushed mid-drain.
//!
//! Overload never drops a connection: admission-control sheds and
//! in-flight-cap rejections both answer a typed [`NetFrame::Overloaded`]
//! with a retry-after hint derived from the token bucket's refill rate.
//! Shutdown drains: every queued question is flushed and answered before
//! the acknowledgement goes out and the threads exit.

use crate::error::{NetError, NetErrorCode};
use crate::proto::{NetFrame, NetStatsWire, MAGIC, NO_REQUEST, VERSION};
use mnn_dataset::text;
use mnn_dataset::{Vocabulary, WordId};
use mnn_memnn::MemNet;
use mnn_serve::{
    AdmissionConfig, BatchConfig, BatchedAnswer, PoolError, SessionConfig, SessionPool,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One tenant's authentication mapping: a client presenting `token` in
/// its [`NetFrame::Hello`] acts as `tenant` for the connection's life.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantAuth {
    /// The secret the client presents.
    pub token: String,
    /// The pool tenant the token maps to.
    pub tenant: String,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (port 0 picks a free port; the bound address is
    /// [`NetServer::addr`]).
    pub listen: SocketAddr,
    /// Connection-handling threads.
    pub net_threads: usize,
    /// Tenant authentication table. Every named tenant is created in the
    /// pool at startup.
    pub tenants: Vec<TenantAuth>,
    /// Requests a single connection may have in flight before further
    /// asks are answered [`NetFrame::Overloaded`] immediately.
    pub max_inflight: u32,
    /// Close a connection after this long with no traffic and nothing in
    /// flight.
    pub idle_timeout: Duration,
    /// Pool admission control (token bucket over work units); `None`
    /// admits everything.
    pub admission: Option<AdmissionConfig>,
    /// Coalescing-batch policy; `None` degenerates to batches of one.
    pub batching: Option<BatchConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            listen: SocketAddr::from(([127, 0, 0, 1], 0)),
            net_threads: 2,
            tenants: vec![TenantAuth {
                token: "default".into(),
                tenant: "default".into(),
            }],
            max_inflight: 64,
            idle_timeout: Duration::from_secs(60),
            admission: None,
            batching: Some(BatchConfig::default()),
        }
    }
}

/// Grace period for draining outboxes at shutdown.
const DRAIN_GRACE: Duration = Duration::from_millis(500);
/// Retry hint when the per-connection in-flight cap rejects an ask.
const INFLIGHT_RETRY_MS: u64 = 1;
/// Retry hint when admission control sheds but the bucket never refills.
const NO_REFILL_RETRY_MS: u64 = 100;

/// Lifetime counters for the network plane, shared by every thread.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    active: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;

impl PollFd {
    fn new(fd: c_int, events: c_short) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the last poll found input, a hangup or an error: the cases
    /// a read resolves.
    fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }
}

/// Blocks until a descriptor in `set` is ready or `timeout` passes (`None`
/// waits indefinitely), filling in each `revents`. The timeout rounds up
/// to whole milliseconds so a deadline is never woken for early. A signal
/// interruption returns with no descriptor marked ready.
fn wait_ready(set: &mut [PollFd], timeout: Option<Duration>) {
    let timeout_ms = timeout.map_or(-1, |t| {
        t.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int
    });
    for p in set.iter_mut() {
        p.revents = 0;
    }
    // SAFETY: `set` is a live, exclusively borrowed array of `set.len()`
    // `pollfd`-layout records (`#[repr(C)]`, the C struct's field types);
    // `poll` writes only their `revents` fields and keeps no pointer after
    // returning. A failure (EINTR, or ENOMEM under memory pressure) leaves
    // every `revents` zero and the caller simply loops.
    unsafe {
        poll(set.as_mut_ptr(), set.len() as c_ulong, timeout_ms);
    }
}

/// The writing half of a net thread's wake line: a socket pair whose read
/// end the thread polls beside its connections.
#[derive(Debug)]
struct Waker {
    tx: UnixStream,
    /// A wake byte is written and not yet drained, so further wakes can
    /// skip the syscall: the pending byte already guarantees the poll
    /// returns.
    pending: AtomicBool,
}

impl Waker {
    fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            // At most one byte is ever in flight, so the non-blocking
            // write cannot find the buffer full; an error means the net
            // thread (the read end) is gone, and nothing is left to wake.
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Empties the wake line's read end `rx`, then clears the pending
    /// flag — in that order. A wake written after the drain stays in the
    /// socket and returns the next poll at once; one that finds the flag
    /// still set skips its write, but its work is already queued and the
    /// pass that follows this call sees it. Clearing first would let the
    /// drain swallow a byte whose flag stays set, and every later wake
    /// would skip its write: a lost wake-up with no timer to end it.
    fn rearm(&self, rx: &UnixStream) {
        let mut buf = [0u8; 64];
        loop {
            match (&*rx).read(&mut buf) {
                Ok(n) if n == buf.len() => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                _ => break,
            }
        }
        // The swap's acquire pairs with the waker's release, so the pass
        // after this call sees whatever was published before the wake.
        self.pending.swap(false, Ordering::AcqRel);
    }
}

/// Builds a wake line: the shared writer and the net thread's reader.
fn wake_line() -> std::io::Result<(Arc<Waker>, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((
        Arc::new(Waker {
            tx,
            pending: AtomicBool::new(false),
        }),
        rx,
    ))
}

/// Pending response bytes for one connection, drained by its net thread.
#[derive(Debug, Default)]
struct Outbox {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written (non-blocking writes can
    /// land mid-frame).
    front_written: usize,
}

/// The connection state shared between its net thread and the scheduler.
#[derive(Debug)]
struct ConnShared {
    outbox: Mutex<Outbox>,
    closed: AtomicBool,
    inflight: AtomicU32,
    waker: Arc<Waker>,
}

impl ConnShared {
    /// Queues one response frame; dropped silently when the connection is
    /// already closed (the socket is gone — there is nowhere to send it).
    fn push(&self, frame: &NetFrame) {
        if self.closed.load(Ordering::Acquire) {
            return;
        }
        self.outbox
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .push_back(frame.encode());
        self.waker.wake();
    }

    fn settle(&self, frame: &NetFrame) {
        // An in-flight request is settled by exactly one response.
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        self.push(frame);
    }
}

/// A request forwarded from a net thread to the scheduler.
enum Request {
    Observe {
        conn: Arc<ConnShared>,
        tenant: String,
        id: u64,
        tokens: Vec<WordId>,
    },
    Ask {
        conn: Arc<ConnShared>,
        tenant: String,
        id: u64,
        tokens: Vec<WordId>,
    },
    Stats {
        conn: Arc<ConnShared>,
    },
    Shutdown {
        conn: Arc<ConnShared>,
    },
}

/// A running serving front-end.
///
/// Dropping the server shuts it down (draining queued work); call
/// [`NetServer::shutdown`] to do so explicitly.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    handles: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Boots the front-end: binds the listener, builds the pool (one
    /// session per configured tenant), and spawns the accept, net, and
    /// scheduler threads.
    ///
    /// # Errors
    ///
    /// [`NetError::Spawn`] when the bind or pool bootstrap fails;
    /// [`NetError::Env`] when an `MNNFAST_*` knob is malformed.
    pub fn spawn(
        model: MemNet,
        vocab: Vocabulary,
        session: SessionConfig,
        config: ServerConfig,
    ) -> Result<NetServer, NetError> {
        crate::env::validate_env()?;
        if config.net_threads == 0 {
            return Err(NetError::Spawn("net_threads must be at least 1".into()));
        }
        if config.tenants.is_empty() {
            return Err(NetError::Spawn("no tenants configured".into()));
        }
        let listener = TcpListener::bind(config.listen)
            .map_err(|e| NetError::Spawn(format!("bind {}: {e}", config.listen)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| NetError::Spawn(format!("local_addr: {e}")))?;

        let mut pool = SessionPool::new(model, session)
            .map_err(|e| NetError::Spawn(format!("session pool: {e}")))?;
        if let Some(batching) = config.batching {
            pool = pool.with_batching(batching);
        }
        if let Some(admission) = config.admission {
            pool = pool.with_admission(admission);
        }
        let mut auth = BTreeMap::new();
        for t in &config.tenants {
            pool.create_tenant(&t.tenant)
                .map_err(|e| NetError::Spawn(format!("tenant '{}': {e}", t.tenant)))?;
            if auth.insert(t.token.clone(), t.tenant.clone()).is_some() {
                return Err(NetError::Spawn(format!(
                    "token '{}' maps to two tenants",
                    t.token
                )));
            }
        }
        let auth = Arc::new(auth);
        let vocab = Arc::new(vocab);
        let counters = Arc::new(Counters::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<Request>();

        let mut handles = Vec::new();
        let mut wakers = Vec::new();
        let mut registries: Vec<Arc<Mutex<Vec<TcpStream>>>> = Vec::new();
        for i in 0..config.net_threads {
            let (waker, wake_rx) =
                wake_line().map_err(|e| NetError::Spawn(format!("wake line: {e}")))?;
            let registry: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
            let thread = NetThread {
                registry: registry.clone(),
                waker: waker.clone(),
                wake_rx,
                auth: auth.clone(),
                vocab: vocab.clone(),
                counters: counters.clone(),
                shutdown: shutdown.clone(),
                tx: tx.clone(),
                max_inflight: config.max_inflight,
                idle_timeout: config.idle_timeout,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mnn-net-{i}"))
                    .spawn(move || thread.run())
                    .map_err(|e| NetError::Spawn(format!("net thread: {e}")))?,
            );
            wakers.push(waker);
            registries.push(registry);
        }
        drop(tx); // the scheduler's rx disconnects once every net thread exits

        let scheduler = Scheduler {
            pool,
            vocab,
            rx,
            admission: config.admission,
            shutdown: shutdown.clone(),
            counters: counters.clone(),
            wakers: wakers.clone(),
            addr,
            pending: HashMap::new(),
        };
        handles.push(
            std::thread::Builder::new()
                .name("mnn-net-sched".into())
                .spawn(move || scheduler.run())
                .map_err(|e| NetError::Spawn(format!("scheduler thread: {e}")))?,
        );

        let accept = AcceptLoop {
            listener,
            registries,
            wakers: wakers.clone(),
            counters,
            shutdown: shutdown.clone(),
        };
        handles.push(
            std::thread::Builder::new()
                .name("mnn-net-accept".into())
                .spawn(move || accept.run())
                .map_err(|e| NetError::Spawn(format!("accept thread: {e}")))?,
        );

        Ok(NetServer {
            addr,
            shutdown,
            wakers,
            handles,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server: queued questions are flushed and answered, open
    /// connections closed, and every thread joined.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the server stops — i.e. until some client sends a
    /// [`NetFrame::Shutdown`]. This is what the `mnn-serve` binary parks
    /// on.
    pub fn wait(mut self) {
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for waker in &self.wakers {
            waker.wake();
        }
        // Unblock the accept thread's blocking accept.
        let _ = TcpStream::connect(self.addr);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.stop();
        }
    }
}

/// The accept loop: blocks on the listener, deals connections
/// round-robin to net threads.
struct AcceptLoop {
    listener: TcpListener,
    registries: Vec<Arc<Mutex<Vec<TcpStream>>>>,
    wakers: Vec<Arc<Waker>>,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
}

impl AcceptLoop {
    fn run(self) {
        let mut next = 0usize;
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    continue;
                }
            };
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            self.counters.accepted.fetch_add(1, Ordering::Relaxed);
            self.counters.active.fetch_add(1, Ordering::Relaxed);
            self.registries[next]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(stream);
            self.wakers[next].wake();
            next = (next + 1) % self.registries.len();
        }
    }
}

/// One live connection as its net thread sees it.
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    inbuf: Vec<u8>,
    tenant: Option<String>,
    last_activity: Instant,
    /// The last poll found input, a hangup or an error to read.
    readable: bool,
    /// Close once the outbox drains (set after an unrecoverable frame
    /// error — the byte stream can no longer be trusted to re-sync).
    draining: bool,
    dead: bool,
}

impl Conn {
    fn outbox_empty(&self) -> bool {
        self.shared
            .outbox
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .is_empty()
    }
}

/// One connection-handling thread.
struct NetThread {
    registry: Arc<Mutex<Vec<TcpStream>>>,
    waker: Arc<Waker>,
    /// The read end of this thread's wake line.
    wake_rx: UnixStream,
    auth: Arc<BTreeMap<String, String>>,
    vocab: Arc<Vocabulary>,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
    tx: mpsc::Sender<Request>,
    max_inflight: u32,
    idle_timeout: Duration,
}

impl NetThread {
    fn run(self) {
        let mut conns: Vec<Conn> = Vec::new();
        let mut set: Vec<PollFd> = Vec::new();
        loop {
            // Adopt newly accepted connections.
            for stream in self
                .registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .drain(..)
            {
                conns.push(Conn {
                    stream,
                    shared: Arc::new(ConnShared {
                        outbox: Mutex::new(Outbox::default()),
                        closed: AtomicBool::new(false),
                        inflight: AtomicU32::new(0),
                        waker: self.waker.clone(),
                    }),
                    inbuf: Vec::new(),
                    tenant: None,
                    last_activity: Instant::now(),
                    readable: true,
                    draining: false,
                    dead: false,
                });
            }

            if self.shutdown.load(Ordering::Acquire) {
                self.drain_and_close(&mut conns);
                return;
            }

            for conn in &mut conns {
                if conn.readable && !conn.draining {
                    self.read_conn(conn);
                }
                // Every outbox is tried: a wake-up does not say whose
                // responses arrived, and an empty outbox costs one lock.
                self.write_conn(conn);
                if conn.draining && !conn.dead && conn.outbox_empty() {
                    Self::close(conn, &self.counters);
                }
                if !conn.dead
                    && conn.last_activity.elapsed() > self.idle_timeout
                    && conn.shared.inflight.load(Ordering::Acquire) == 0
                {
                    Self::close(conn, &self.counters);
                }
            }
            conns.retain(|c| !c.dead);

            // Sleep until a socket is ready, the wake line fires, or the
            // next idle connection is due to close.
            set.clear();
            set.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            let mut idle_due: Option<Instant> = None;
            for conn in &conns {
                let mut events = 0;
                if !conn.draining {
                    events |= POLLIN;
                }
                if !conn.outbox_empty() {
                    events |= POLLOUT;
                }
                set.push(PollFd::new(conn.stream.as_raw_fd(), events));
                if conn.shared.inflight.load(Ordering::Acquire) == 0 {
                    let due = conn.last_activity + self.idle_timeout;
                    idle_due = Some(idle_due.map_or(due, |d| d.min(due)));
                }
            }
            wait_ready(
                &mut set,
                idle_due.map(|d| d.saturating_duration_since(Instant::now())),
            );
            if set[0].readable() {
                self.waker.rearm(&self.wake_rx);
            }
            for (conn, p) in conns.iter_mut().zip(&set[1..]) {
                conn.readable = p.readable();
            }
        }
    }

    fn close(conn: &mut Conn, counters: &Counters) {
        if conn.dead {
            return;
        }
        conn.dead = true;
        conn.shared.closed.store(true, Ordering::Release);
        counters.active.fetch_sub(1, Ordering::Relaxed);
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Drains response bytes into the socket until it would block.
    fn write_conn(&self, conn: &mut Conn) {
        if conn.dead {
            return;
        }
        let mut outbox = conn.shared.outbox.lock().unwrap_or_else(|e| e.into_inner());
        while let Some(front) = outbox.queue.front() {
            let frame_len = front.len();
            let offset = outbox.front_written;
            match conn.stream.write(&front[offset..]) {
                Ok(0) => {
                    drop(outbox);
                    Self::close(conn, &self.counters);
                    return;
                }
                Ok(n) => {
                    outbox.front_written += n;
                    if outbox.front_written == frame_len {
                        outbox.queue.pop_front();
                        outbox.front_written = 0;
                        self.counters.frames_out.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    drop(outbox);
                    Self::close(conn, &self.counters);
                    return;
                }
            }
        }
    }

    /// Reads available bytes, carves complete frames out of the
    /// accumulation buffer, and handles each.
    fn read_conn(&self, conn: &mut Conn) {
        let mut tmp = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut tmp) {
                Ok(0) => {
                    Self::close(conn, &self.counters);
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.inbuf.extend_from_slice(&tmp[..n]);
                    if n < tmp.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    Self::close(conn, &self.counters);
                    return;
                }
            }
        }
        // Carve complete frames out of the buffer (zero-copy probe).
        loop {
            match mnn_wire::frame_len(&conn.inbuf, MAGIC, VERSION) {
                Ok(Some(end)) => {
                    let decoded = NetFrame::decode(&conn.inbuf[..end]);
                    conn.inbuf.drain(..end);
                    match decoded {
                        Ok(frame) => {
                            self.counters.frames_in.fetch_add(1, Ordering::Relaxed);
                            self.handle_frame(conn, frame);
                        }
                        Err(e) => {
                            // The envelope was whole but rotten (CRC or
                            // payload): answer typed, then drop the
                            // connection — the stream may be desynced.
                            conn.shared.push(&NetFrame::Error {
                                id: NO_REQUEST,
                                code: NetErrorCode::BadRequest,
                                message: e.to_string(),
                            });
                            conn.draining = true;
                            return;
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Garbled header: there is no way to find the next
                    // frame boundary. Answer typed and drain.
                    conn.shared.push(&NetFrame::Error {
                        id: NO_REQUEST,
                        code: NetErrorCode::BadRequest,
                        message: NetError::from(e).to_string(),
                    });
                    conn.inbuf.clear();
                    conn.draining = true;
                    return;
                }
            }
        }
    }

    fn handle_frame(&self, conn: &mut Conn, frame: NetFrame) {
        if self.shutdown.load(Ordering::Acquire) {
            conn.shared.push(&NetFrame::Error {
                id: NO_REQUEST,
                code: NetErrorCode::Shutdown,
                message: "server is shutting down".into(),
            });
            return;
        }
        match frame {
            NetFrame::Hello { token } => match self.auth.get(&token) {
                Some(tenant) => {
                    conn.tenant = Some(tenant.clone());
                    conn.shared.push(&NetFrame::HelloAck {
                        tenant: tenant.clone(),
                        max_inflight: self.max_inflight,
                    });
                }
                None => conn.shared.push(&NetFrame::Error {
                    id: NO_REQUEST,
                    code: NetErrorCode::Auth,
                    message: "unknown token".into(),
                }),
            },
            NetFrame::Observe { id, text } => match text::encode(&text, &self.vocab) {
                Ok(tokens) => self.submit(conn, id, tokens, false),
                Err(e) => conn.shared.push(&NetFrame::Error {
                    id,
                    code: NetErrorCode::BadRequest,
                    message: e,
                }),
            },
            NetFrame::ObserveTokens { id, tokens } => self.submit(conn, id, tokens, false),
            NetFrame::Ask { id, text } => match text::encode(&text, &self.vocab) {
                Ok(tokens) => self.submit(conn, id, tokens, true),
                Err(e) => conn.shared.push(&NetFrame::Error {
                    id,
                    code: NetErrorCode::BadRequest,
                    message: e,
                }),
            },
            NetFrame::AskTokens { id, tokens } => self.submit(conn, id, tokens, true),
            NetFrame::Stats => {
                let _ = self.tx.send(Request::Stats {
                    conn: conn.shared.clone(),
                });
            }
            NetFrame::Shutdown => {
                let _ = self.tx.send(Request::Shutdown {
                    conn: conn.shared.clone(),
                });
            }
            // Server-to-client frames arriving at the server are a
            // protocol violation.
            other => conn.shared.push(&NetFrame::Error {
                id: NO_REQUEST,
                code: NetErrorCode::BadRequest,
                message: format!("unexpected client frame: {other:?}"),
            }),
        }
    }

    /// Forwards an observe/ask to the scheduler, enforcing authentication
    /// and the per-connection in-flight cap.
    fn submit(&self, conn: &mut Conn, id: u64, tokens: Vec<WordId>, is_ask: bool) {
        let Some(tenant) = conn.tenant.clone() else {
            conn.shared.push(&NetFrame::Error {
                id,
                code: NetErrorCode::Auth,
                message: "authenticate with hello first".into(),
            });
            return;
        };
        // The in-flight cap bounds this connection's claim on scheduler
        // memory: beyond it the client is told to back off, not hung up.
        if conn.shared.inflight.load(Ordering::Acquire) >= self.max_inflight {
            conn.shared.push(&NetFrame::Overloaded {
                id,
                retry_after_ms: INFLIGHT_RETRY_MS,
            });
            return;
        }
        conn.shared.inflight.fetch_add(1, Ordering::AcqRel);
        let request = if is_ask {
            Request::Ask {
                conn: conn.shared.clone(),
                tenant,
                id,
                tokens,
            }
        } else {
            Request::Observe {
                conn: conn.shared.clone(),
                tenant,
                id,
                tokens,
            }
        };
        if self.tx.send(request).is_err() {
            conn.shared.settle(&NetFrame::Error {
                id,
                code: NetErrorCode::Shutdown,
                message: "scheduler is gone".into(),
            });
        }
    }

    /// Shutdown path: give each connection a grace period to flush its
    /// outbox, then close everything.
    fn drain_and_close(&self, conns: &mut Vec<Conn>) {
        let grace_end = Instant::now() + DRAIN_GRACE;
        let mut set = Vec::new();
        loop {
            set.clear();
            for conn in conns.iter_mut() {
                self.write_conn(conn);
                if !conn.dead && !conn.outbox_empty() {
                    set.push(PollFd::new(conn.stream.as_raw_fd(), POLLOUT));
                }
            }
            let now = Instant::now();
            if set.is_empty() || now >= grace_end {
                break;
            }
            wait_ready(&mut set, Some(grace_end - now));
        }
        for conn in conns.iter_mut() {
            Self::close(conn, &self.counters);
        }
        conns.clear();
    }
}

/// An ask the scheduler has accepted into the pool's coalescing queues,
/// keyed by pool request id.
struct PendingAsk {
    conn: Arc<ConnShared>,
    client_id: u64,
}

/// The scheduler thread: sole owner of the [`SessionPool`].
struct Scheduler {
    pool: SessionPool,
    vocab: Arc<Vocabulary>,
    rx: mpsc::Receiver<Request>,
    admission: Option<AdmissionConfig>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    wakers: Vec<Arc<Waker>>,
    addr: SocketAddr,
    pending: HashMap<u64, PendingAsk>,
}

impl Scheduler {
    /// Blocks for work, one pass per wake-up. The pool is empty whenever
    /// this blocks, so there is no flush deadline to wake for.
    fn run(mut self) {
        // Disconnected: every net thread has exited; nothing can submit
        // again.
        while let Ok(first) = self.rx.recv() {
            self.pass(first);
        }
    }

    /// One scheduling pass: handles `first` and every request already
    /// waiting behind it; whenever the channel runs dry, dispatches the
    /// longest-waiting queue and drains again, until every queue is empty.
    /// A batch is exactly what arrived before its dispatch, so at low load
    /// a question runs at once and under backlog the batches fill. One
    /// batch per idle moment, not every queue at once, lets the queues
    /// still waiting take in what arrives during that batch.
    fn pass(&mut self, first: Request) {
        self.handle(first);
        loop {
            while let Ok(request) = self.rx.try_recv() {
                self.handle(request);
                // Starvation bound: while a busy tenant keeps the channel
                // from emptying, a partial queue older than `max_wait`
                // still goes.
                self.dispatch(SessionPool::flush_due);
            }
            if self.pool.pending_questions() == 0 {
                return;
            }
            self.dispatch(SessionPool::flush_oldest);
        }
    }

    /// Runs one of the pool's flushes and routes every answer it yields.
    fn dispatch(&mut self, flush: fn(&mut SessionPool) -> Result<Vec<BatchedAnswer>, PoolError>) {
        if let Ok(answers) = flush(&mut self.pool) {
            for ba in answers {
                self.route(ba);
            }
        }
    }

    fn handle(&mut self, request: Request) {
        let shutting_down = self.shutdown.load(Ordering::Acquire);
        match request {
            Request::Observe {
                conn,
                tenant,
                id,
                tokens,
            } => {
                if shutting_down {
                    conn.settle(&NetFrame::Error {
                        id,
                        code: NetErrorCode::Shutdown,
                        message: "server is shutting down".into(),
                    });
                    return;
                }
                let frame = match self.pool.observe(&tenant, &tokens) {
                    Ok(_) => NetFrame::ObserveAck {
                        id,
                        sentences: self.pool.tenant_sentences(&tenant).unwrap_or(0) as u64,
                    },
                    Err(e) => NetFrame::Error {
                        id,
                        code: NetErrorCode::Session,
                        message: e.to_string(),
                    },
                };
                conn.settle(&frame);
            }
            Request::Ask {
                conn,
                tenant,
                id,
                tokens,
            } => {
                if shutting_down {
                    conn.settle(&NetFrame::Error {
                        id,
                        code: NetErrorCode::Shutdown,
                        message: "server is shutting down".into(),
                    });
                    return;
                }
                match self.pool.enqueue_tracked(&tenant, &tokens) {
                    Ok((request_id, flushed)) => {
                        self.pending.insert(
                            request_id,
                            PendingAsk {
                                conn,
                                client_id: id,
                            },
                        );
                        for ba in flushed {
                            self.route(ba);
                        }
                    }
                    Err(e) => conn.settle(&NetFrame::Error {
                        id,
                        code: NetErrorCode::Session,
                        message: e.to_string(),
                    }),
                }
            }
            Request::Stats { conn } => {
                conn.push(&NetFrame::StatsResp(self.stats()));
            }
            Request::Shutdown { conn } => {
                // Drain: every accepted question is answered before the
                // acknowledgement; later requests see the flag and are
                // refused.
                self.dispatch(SessionPool::flush_all);
                conn.push(&NetFrame::ShutdownAck);
                self.shutdown.store(true, Ordering::Release);
                for waker in &self.wakers {
                    waker.wake();
                }
                // Unblock the accept thread.
                let _ = TcpStream::connect(self.addr);
            }
        }
    }

    /// Routes one batched answer back to the connection that asked.
    fn route(&mut self, ba: BatchedAnswer) {
        let Some(PendingAsk { conn, client_id }) = self.pending.remove(&ba.request) else {
            return;
        };
        let frame = match ba.answer {
            Ok(answer) => NetFrame::Answer {
                id: client_id,
                word: answer.word,
                text: self.vocab.word(answer.word).unwrap_or("").to_owned(),
                probability: answer.probability,
                degraded: answer.degraded,
            },
            Err(PoolError::Overloaded { needed, available }) => NetFrame::Overloaded {
                id: client_id,
                retry_after_ms: retry_after_ms(needed, available, self.admission),
            },
            Err(e) => NetFrame::Error {
                id: client_id,
                code: NetErrorCode::Session,
                message: e.to_string(),
            },
        };
        // settle() drops the frame if the client hung up mid-request; the
        // in-flight slot is reclaimed either way.
        conn.settle(&frame);
    }

    fn stats(&self) -> NetStatsWire {
        let s = self.pool.stats();
        NetStatsWire {
            tenants: s.tenants as u64,
            total_sentences: s.total_sentences as u64,
            questions_answered: s.questions_answered,
            shed_questions: s.shed_questions,
            deadline_misses: s.deadline_misses,
            degraded_answers: s.degraded_answers,
            batches_dispatched: s.batches_dispatched,
            batched_questions: s.batched_questions,
            max_batch_occupancy: s.max_batch_occupancy as u64,
            pending_questions: s.pending_questions as u64,
            batch_occupancy: s.batch_occupancy,
            net_connections_accepted: self.counters.accepted.load(Ordering::Relaxed),
            net_connections_active: self.counters.active.load(Ordering::Relaxed),
            net_frames_in: self.counters.frames_in.load(Ordering::Relaxed),
            net_frames_out: self.counters.frames_out.load(Ordering::Relaxed),
            sheds_by_tenant: self
                .pool
                .sheds_by_tenant()
                .iter()
                .map(|(t, n)| (t.clone(), *n))
                .collect(),
        }
    }
}

/// Computes the retry-after hint for an admission-control shed: the time
/// the token bucket needs to refill the deficit, rounded up.
fn retry_after_ms(needed: u64, available: u64, admission: Option<AdmissionConfig>) -> u64 {
    match admission {
        Some(a) if a.refill_per_sec > 0 => {
            let deficit = needed.saturating_sub(available).max(1);
            (deficit.saturating_mul(1000))
                .div_ceil(a.refill_per_sec)
                .max(1)
        }
        _ => NO_REFILL_RETRY_MS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_dataset::babi::{BabiGenerator, TaskKind};
    use mnn_memnn::ModelConfig;

    /// A scheduler over one tenant, `alice`, whose memory holds a short
    /// story. Its queues flush only when told to (`max_batch` 64,
    /// `max_wait` 30 s), so a test decides exactly when a question is
    /// dispatched.
    struct Rig {
        scheduler: Scheduler,
        tx: mpsc::Sender<Request>,
        question: Vec<WordId>,
        // Keeps the address the shutdown path connects to bound.
        _listener: TcpListener,
    }

    fn rig() -> Rig {
        let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 3);
        let story = generator.story(6, 1);
        let model = MemNet::new(
            ModelConfig {
                temporal: false,
                position_encoding: true,
                ..ModelConfig::for_generator(&generator, 16, 8)
            },
            1,
        );
        let mut pool = SessionPool::new(model, SessionConfig::default())
            .unwrap()
            .with_batching(BatchConfig {
                max_batch: 64,
                max_wait: Duration::from_secs(30),
            });
        pool.create_tenant("alice").unwrap();
        for sentence in &story.sentences {
            pool.observe("alice", sentence).unwrap();
        }
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let (tx, rx) = mpsc::channel();
        Rig {
            scheduler: Scheduler {
                pool,
                vocab: Arc::new(generator.vocab().clone()),
                rx,
                admission: None,
                shutdown: Arc::new(AtomicBool::new(false)),
                counters: Arc::new(Counters::default()),
                wakers: Vec::new(),
                addr: listener.local_addr().unwrap(),
                pending: HashMap::new(),
            },
            tx,
            question: story.questions[0].tokens.clone(),
            _listener: listener,
        }
    }

    impl Rig {
        /// Runs one scheduling pass over everything sent so far.
        fn pass(&mut self) {
            let first = self
                .scheduler
                .rx
                .try_recv()
                .expect("a request to start the pass");
            self.scheduler.pass(first);
        }
    }

    /// A connection as the scheduler sees it, plus its wake line's read
    /// end (kept open so wakes have somewhere to go).
    fn conn() -> (Arc<ConnShared>, UnixStream) {
        let (waker, rx) = wake_line().unwrap();
        let shared = ConnShared {
            outbox: Mutex::new(Outbox::default()),
            closed: AtomicBool::new(false),
            inflight: AtomicU32::new(0),
            waker,
        };
        (Arc::new(shared), rx)
    }

    /// An ask from `conn`, counted in flight the way `NetThread::submit`
    /// counts it.
    fn ask(conn: &Arc<ConnShared>, id: u64, tokens: &[WordId]) -> Request {
        conn.inflight.fetch_add(1, Ordering::AcqRel);
        Request::Ask {
            conn: conn.clone(),
            tenant: "alice".into(),
            id,
            tokens: tokens.to_vec(),
        }
    }

    /// The frames queued for `conn`, in send order.
    fn sent(conn: &ConnShared) -> Vec<NetFrame> {
        conn.outbox
            .lock()
            .unwrap()
            .queue
            .iter()
            .map(|bytes| NetFrame::decode(bytes).unwrap())
            .collect()
    }

    #[test]
    fn a_lone_ask_is_dispatched_when_the_pass_ends() {
        let mut rig = rig();
        let (conn, _rx) = conn();
        rig.tx.send(ask(&conn, 1, &rig.question)).unwrap();
        rig.pass();
        // Neither max_batch nor max_wait was reached: the idle flush alone
        // answered it.
        let frames = sent(&conn);
        assert!(
            matches!(frames.as_slice(), [NetFrame::Answer { id: 1, .. }]),
            "{frames:?}"
        );
        assert_eq!(rig.scheduler.pool.pending_questions(), 0);
        assert_eq!(conn.inflight.load(Ordering::Acquire), 0);
    }

    #[test]
    fn asks_drained_in_one_pass_share_one_batch() {
        let mut rig = rig();
        let (conn, _rx) = conn();
        for id in 0..5 {
            rig.tx.send(ask(&conn, id, &rig.question)).unwrap();
        }
        rig.pass();
        let stats = rig.scheduler.pool.stats();
        assert_eq!(stats.batches_dispatched, 1, "one batch per pass");
        assert_eq!(stats.batched_questions, 5);
        let ids: Vec<u64> = sent(&conn)
            .iter()
            .map(|f| match f {
                NetFrame::Answer { id, .. } => *id,
                other => panic!("expected an answer, got {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shutdown_drains_queued_questions_before_acking() {
        // [Ask, Ask, Shutdown] in one drain: both asks are still queued
        // when the shutdown is handled, so only its drain can answer them
        // ahead of the acknowledgement.
        let mut rig = rig();
        let (conn, _rx) = conn();
        rig.tx.send(ask(&conn, 1, &rig.question)).unwrap();
        rig.tx.send(ask(&conn, 2, &rig.question)).unwrap();
        rig.tx
            .send(Request::Shutdown { conn: conn.clone() })
            .unwrap();
        rig.pass();
        let frames = sent(&conn);
        assert!(
            matches!(
                frames.as_slice(),
                [
                    NetFrame::Answer { id: 1, .. },
                    NetFrame::Answer { id: 2, .. },
                    NetFrame::ShutdownAck
                ]
            ),
            "every queued ask is answered before the ack: {frames:?}"
        );
        let stats = rig.scheduler.pool.stats();
        assert_eq!(stats.batches_dispatched, 1, "the drain flushed one batch");
        assert_eq!(stats.batched_questions, 2);
        assert_eq!(rig.scheduler.pool.pending_questions(), 0);
        assert_eq!(conn.inflight.load(Ordering::Acquire), 0);
        assert!(rig.scheduler.shutdown.load(Ordering::Acquire));

        // After the drain, new work is refused, typed.
        rig.tx.send(ask(&conn, 3, &rig.question)).unwrap();
        rig.pass();
        assert!(matches!(
            sent(&conn).last(),
            Some(NetFrame::Error {
                id: 3,
                code: NetErrorCode::Shutdown,
                ..
            })
        ));
        assert_eq!(conn.inflight.load(Ordering::Acquire), 0);
    }

    #[test]
    fn killed_client_mid_request_reclaims_the_slot() {
        let mut rig = rig();
        let (doomed, _rx) = conn();
        rig.tx.send(ask(&doomed, 1, &rig.question)).unwrap();
        let first = rig.scheduler.rx.try_recv().unwrap();
        rig.scheduler.handle(first);
        assert_eq!(
            rig.scheduler.pool.pending_questions(),
            1,
            "the ask is queued"
        );
        // The client dies with its question queued server-side: its net
        // thread closes the connection.
        doomed.closed.store(true, Ordering::Release);
        rig.scheduler.dispatch(SessionPool::flush_all);

        // The orphaned question was flushed, its unroutable answer
        // dropped, and its in-flight slot and routing entry reclaimed.
        let stats = rig.scheduler.pool.stats();
        assert_eq!(stats.questions_answered, 1);
        assert_eq!(rig.scheduler.pool.pending_questions(), 0);
        assert!(rig.scheduler.pending.is_empty(), "routing entry leaked");
        assert_eq!(doomed.inflight.load(Ordering::Acquire), 0);
        assert!(
            sent(&doomed).is_empty(),
            "nothing is sent to a closed socket"
        );

        // Serving continues at full health.
        let (live, _rx) = conn();
        rig.tx.send(ask(&live, 2, &rig.question)).unwrap();
        rig.pass();
        assert!(matches!(
            sent(&live).as_slice(),
            [NetFrame::Answer { id: 2, .. }]
        ));
        assert_eq!(rig.scheduler.pool.stats().questions_answered, 2);
    }

    #[test]
    fn wake_line_coalesces_and_never_loses_a_wake() {
        let (waker, rx) = wake_line().unwrap();
        let ready = |rx: &UnixStream| {
            let mut set = [PollFd::new(rx.as_raw_fd(), POLLIN)];
            wait_ready(&mut set, Some(Duration::ZERO));
            set[0].readable()
        };
        assert!(!ready(&rx));
        // A burst of wakes writes one byte.
        for _ in 0..3 {
            waker.wake();
        }
        let mut buf = [0u8; 8];
        assert_eq!((&rx).read(&mut buf).unwrap(), 1);
        // Re-armed, the line is quiet until the next wake, which always
        // lands.
        waker.rearm(&rx);
        assert!(!ready(&rx));
        for _ in 0..100 {
            waker.wake();
            assert!(ready(&rx), "a wake after re-arming must be seen");
            waker.rearm(&rx);
            assert!(!ready(&rx));
        }
    }

    #[test]
    fn retry_hint_tracks_the_refill_rate() {
        let admission = Some(AdmissionConfig {
            capacity: 100,
            refill_per_sec: 50,
        });
        // Deficit 25 units at 50 units/s = 500 ms.
        assert_eq!(retry_after_ms(30, 5, admission), 500);
        // Rounds up, never zero.
        assert_eq!(retry_after_ms(6, 5, admission), 20);
        assert_eq!(
            retry_after_ms(10, 0, None),
            NO_REFILL_RETRY_MS,
            "no admission config: fixed hint"
        );
        assert_eq!(
            retry_after_ms(
                10,
                0,
                Some(AdmissionConfig {
                    capacity: 5,
                    refill_per_sec: 0
                })
            ),
            NO_REFILL_RETRY_MS,
            "bucket never refills: fixed hint"
        );
    }
}
