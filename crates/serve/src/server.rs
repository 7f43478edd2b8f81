//! The connection server: one accept thread, one bounded connection
//! queue, a worker pool, and graceful shutdown.
//!
//! The accept thread pushes each connection onto the queue and every
//! worker blocks on it (DESIGN.md §13). A full queue answers
//! `overloaded` and closes — backpressure is explicit, never an
//! unbounded buffer. Shutdown (the `shutdown` op) drains requests that
//! are mid-service, rejects queued connections with `shutting_down`,
//! and unblocks the accept thread with a self-connection.
//!
//! Workers serve connections frame by frame, one request and one
//! response per frame. Clients may pipeline: frames are buffered and
//! answered back-to-back, in order, without waiting for the client to
//! read. A panic while answering a frame is contained: that frame is
//! answered `compute_failed` and the worker goes on serving.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tpdbt_faults::FaultSite;
use tpdbt_trace::EventKind;

use crate::lock::lock_recover;
use crate::proto::{self, Envelope, ErrorCode, Request, MAX_FRAME};
use crate::service::ProfileService;

/// Where the server listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Bind {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP `host:port` (port 0 picks an ephemeral port).
    Tcp(String),
}

impl Bind {
    /// Parses a listen spec: `unix:PATH` or `HOST:PORT`.
    ///
    /// # Errors
    ///
    /// A `unix:` spec on a platform without Unix sockets, or an empty
    /// spec.
    pub fn parse(spec: &str) -> Result<Bind, String> {
        if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".to_string());
            }
            if cfg!(unix) {
                Ok(Bind::Unix(PathBuf::from(path)))
            } else {
                Err("unix sockets are not available on this platform".to_string())
            }
        } else if spec.is_empty() {
            Err("empty listen spec (unix:PATH or HOST:PORT)".to_string())
        } else {
            Ok(Bind::Tcp(spec.to_string()))
        }
    }
}

/// Server shape knobs.
pub struct ServerConfig {
    /// Listen address.
    pub bind: Bind,
    /// Worker threads serving connections (clamped to at least 1).
    pub workers: usize,
    /// Bounded connection-queue depth; a connection accepted while the
    /// queue is full is answered `overloaded`.
    pub queue_depth: usize,
    /// Ignored: the server runs one accept thread. Exists only for the
    /// `perfbench` harness (its own workspace), whose struct literal
    /// sets it; delete it with that line.
    pub accept_shards: usize,
}

/// A bounded MPMC queue of pending connections. Public so the stress
/// tests can drive it directly; servers construct it internally.
pub struct ConnQueue<T> {
    inner: Mutex<QueueInner<T>>,
    cv: Condvar,
    capacity: usize,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> ConnQueue<T> {
    /// A queue admitting at most `capacity` pending items.
    #[must_use]
    pub fn new(capacity: usize) -> ConnQueue<T> {
        ConnQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues `item`; gives it back if the queue is full or closed.
    ///
    /// Locks recover from poisoning: a worker panicking between `pop`
    /// and serving must not wedge admission for every later
    /// connection. Queue state mutates in single push/pop statements,
    /// so a recovered guard always sees a consistent deque.
    ///
    /// # Errors
    ///
    /// The rejected item itself, so the caller can answer it.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = lock_recover(&self.inner);
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `None` once closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = lock_recover(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pushes fail, pops drain then return `None`.
    pub fn close(&self) {
        lock_recover(&self.inner).closed = true;
        self.cv.notify_all();
    }

    /// Items currently waiting.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).items.len()
    }

    /// Test hook: panics while holding the queue lock, poisoning it
    /// the way a crashing worker would; the panic is caught here.
    #[doc(hidden)]
    pub fn poison_for_tests(&self) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("injected queue panic under the lock");
        }));
        assert!(result.is_err());
    }

    /// Whether nothing is waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One accepted connection, either transport. Shared with the client,
/// which dials rather than accepts.
pub(crate) enum Stream {
    #[cfg(unix)]
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    /// Dials `spec` (`unix:PATH` or `host:port`).
    pub(crate) fn connect(spec: &str) -> io::Result<Stream> {
        match Bind::parse(spec).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))? {
            #[cfg(unix)]
            Bind::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            #[cfg(not(unix))]
            Bind::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
            Bind::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
        }
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_write_timeout(dur),
            Stream::Tcp(s) => s.set_write_timeout(dur),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
        }
    }
}

/// Incrementally reassembles frames from a stream with a read timeout,
/// so a worker can notice shutdown between frames without losing the
/// bytes of a frame that is still arriving.
struct FrameReader {
    stream: Stream,
    buf: Vec<u8>,
}

enum ReadOutcome {
    Frame(Vec<u8>),
    /// Clean end: EOF at a frame boundary, or shutdown observed while
    /// idle (or past the mid-frame grace period).
    Closed,
    TooLarge(u64),
    Broken,
}

/// How long a mid-frame connection may stall shutdown before its
/// partial frame is abandoned.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(1);

/// Per-connection write deadline. A client that stops reading its
/// responses eventually fills the kernel send buffer; without a
/// deadline the blocked `write(2)` pins a worker indefinitely. With
/// it, the stalled write errors out, the connection closes, and the
/// worker returns to the pool. Applied at accept time so rejection
/// frames (overload, drain) are covered too.
const WRITE_STALL: Duration = Duration::from_secs(1);

impl FrameReader {
    fn new(stream: Stream) -> FrameReader {
        FrameReader {
            stream,
            buf: Vec::new(),
        }
    }

    fn next_frame(&mut self, should_stop: impl Fn() -> bool) -> ReadOutcome {
        let mut chunk = [0u8; 4096];
        let mut stop_seen: Option<Instant> = None;
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
                if len > MAX_FRAME {
                    return ReadOutcome::TooLarge(u64::from(len));
                }
                let total = 4 + len as usize;
                if self.buf.len() >= total {
                    let frame = self.buf[4..total].to_vec();
                    self.buf.drain(..total);
                    return ReadOutcome::Frame(frame);
                }
            }
            if should_stop() {
                let seen = *stop_seen.get_or_insert_with(Instant::now);
                if self.buf.is_empty() || seen.elapsed() > SHUTDOWN_GRACE {
                    return ReadOutcome::Closed;
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        ReadOutcome::Closed
                    } else {
                        ReadOutcome::Broken
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Broken,
            }
        }
    }
}

struct Shared {
    service: Arc<ProfileService>,
    /// Connections the accept thread admitted, waiting for a worker.
    queue: ConnQueue<(u64, Stream)>,
    shutdown: AtomicBool,
    conn_ids: AtomicU64,
    /// The concrete bound address, kept so any shutdown path (protocol
    /// request or [`ServerHandle::shutdown`]) can unblock the accept
    /// thread with a self-connection.
    bind: Bind,
}

impl Shared {
    fn emit(&self, event: impl FnOnce() -> EventKind) {
        if let Some(tracer) = self.service.tracer() {
            tracer.emit(event());
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A started server; joins its threads on [`ServerHandle::wait`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: String,
    bind: Bind,
    /// The accept thread, then the workers: joined in that order.
    threads: Vec<JoinHandle<()>>,
}

/// Binds the listener and starts the accept thread plus worker pool.
///
/// # Errors
///
/// Bind failures (address in use, bad path, unresolvable host).
pub fn start(service: Arc<ProfileService>, config: ServerConfig) -> io::Result<ServerHandle> {
    let (listener, addr, bind) = match &config.bind {
        #[cfg(unix)]
        Bind::Unix(path) => {
            let l = UnixListener::bind(path)?;
            (
                Listener::Unix(l),
                format!("unix:{}", path.display()),
                config.bind.clone(),
            )
        }
        #[cfg(not(unix))]
        Bind::Unix(_) => {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            ))
        }
        Bind::Tcp(spec) => {
            let l = TcpListener::bind(spec.as_str())?;
            let local = l.local_addr()?;
            (
                Listener::Tcp(l),
                local.to_string(),
                Bind::Tcp(local.to_string()),
            )
        }
    };

    let shared = Arc::new(Shared {
        service,
        queue: ConnQueue::new(config.queue_depth),
        shutdown: AtomicBool::new(false),
        conn_ids: AtomicU64::new(0),
        bind: bind.clone(),
    });

    let accept_shared = Arc::clone(&shared);
    let mut threads = vec![std::thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || accept_loop(&accept_shared, &listener))?];
    for i in 0..config.workers.max(1) {
        let worker_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared))?,
        );
    }

    Ok(ServerHandle {
        shared,
        addr,
        bind,
        threads,
    })
}

impl ServerHandle {
    /// The bound address: `unix:PATH`, or the concrete `host:port`
    /// (useful when binding port 0).
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Requests shutdown from outside the protocol (signal handlers,
    /// tests) and waits for the drain.
    pub fn shutdown(mut self) {
        trigger_shutdown(&self.shared);
        self.join();
    }

    /// Blocks until a `shutdown` request (or [`ServerHandle::shutdown`])
    /// stops the server and every thread has drained.
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Bind::Unix(path) = &self.bind {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.queue.close();
    // A throwaway self-connection unblocks the accept thread, which
    // checks the flag after every accept.
    match &shared.bind {
        #[cfg(unix)]
        Bind::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
        #[cfg(not(unix))]
        Bind::Unix(_) => {}
        Bind::Tcp(addr) => {
            let _ = TcpStream::connect(addr.as_str());
        }
    }
}

fn accept_loop(shared: &Shared, listener: &Listener) {
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                if shared.shutting_down() {
                    return;
                }
                continue;
            }
        };
        if shared.shutting_down() {
            return;
        }
        let _ = stream.set_write_timeout(Some(WRITE_STALL));
        let conn = shared.conn_ids.fetch_add(1, Ordering::Relaxed);
        if let Some(plan) = shared.service.faults() {
            if plan.fire(FaultSite::ServeListener) {
                shared.emit(|| EventKind::ServeRejected {
                    conn,
                    code: "injected_listener_drop",
                });
                continue; // the stream drops: connection reset
            }
        }
        shared.emit(|| EventKind::ServeConnAccepted { conn });
        if let Err((conn, mut stream)) = shared.queue.push((conn, stream)) {
            shared.emit(|| EventKind::ServeRejected {
                conn,
                code: ErrorCode::Overloaded.name(),
            });
            let code = if shared.shutting_down() {
                ErrorCode::ShuttingDown
            } else {
                ErrorCode::Overloaded
            };
            let body = proto::error_response(0, code, "connection queue full").render();
            let _ = proto::write_frame(&mut stream, body.as_bytes());
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some((conn, stream)) = shared.queue.pop() {
        if shared.shutting_down() {
            reject(shared, conn, stream, ErrorCode::ShuttingDown);
        } else {
            handle_conn(shared, conn, stream);
        }
    }
}

fn reject(shared: &Shared, conn: u64, mut stream: Stream, code: ErrorCode) {
    shared.emit(|| EventKind::ServeRejected {
        conn,
        code: code.name(),
    });
    let body = proto::error_response(0, code, "server is draining").render();
    let _ = proto::write_frame(&mut stream, body.as_bytes());
}

fn handle_conn(shared: &Shared, conn: u64, stream: Stream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = FrameReader::new(stream);
    loop {
        let frame = match reader.next_frame(|| shared.shutting_down()) {
            ReadOutcome::Frame(f) => f,
            ReadOutcome::Closed | ReadOutcome::Broken => return,
            ReadOutcome::TooLarge(len) => {
                shared.emit(|| EventKind::ServeRejected {
                    conn,
                    code: ErrorCode::FrameTooLarge.name(),
                });
                let body = proto::error_response(
                    0,
                    ErrorCode::FrameTooLarge,
                    &format!("frame of {len} bytes exceeds {MAX_FRAME}"),
                )
                .render();
                let _ = proto::write_frame(&mut reader.stream, body.as_bytes());
                // Framing is lost after an oversized prefix: close.
                return;
            }
        };
        // An injected decode fault models a corrupted frame without
        // needing a byte-level corruptor in every test.
        let decode_fault = shared
            .service
            .faults()
            .is_some_and(|p| p.fire(FaultSite::ServeDecode));
        let parsed = if decode_fault {
            Err((
                ErrorCode::MalformedFrame,
                "injected fault: serve_decode".to_string(),
            ))
        } else {
            match std::str::from_utf8(&frame) {
                Ok(text) => Envelope::parse(text),
                Err(_) => Err((
                    ErrorCode::MalformedFrame,
                    "frame body is not UTF-8".to_string(),
                )),
            }
        };
        let env = match parsed {
            Ok(env) => env,
            Err((code, message)) => {
                shared.emit(|| EventKind::ServeRejected {
                    conn,
                    code: code.name(),
                });
                let body = proto::error_response(0, code, &message).render();
                if proto::write_frame(&mut reader.stream, body.as_bytes()).is_err() {
                    return;
                }
                continue; // framing is intact: the connection survives
            }
        };
        if shared.shutting_down() && env.request != Request::Shutdown {
            let body = proto::error_response(env.id, ErrorCode::ShuttingDown, "server is draining")
                .render();
            let _ = proto::write_frame(&mut reader.stream, body.as_bytes());
            return;
        }
        let op = env.request.op();
        shared.emit(|| EventKind::ServeRequest { conn, op });
        let started = Instant::now();
        // A panic answers this frame and spares the worker: nothing
        // respawns a worker, so an escaped panic would shrink the pool
        // for the daemon's lifetime.
        let (reply, source) = catch_unwind(AssertUnwindSafe(|| shared.service.respond(&env)))
            .unwrap_or_else(|_| {
                let reply = proto::error_response(
                    env.id,
                    ErrorCode::ComputeFailed,
                    "request handler panicked",
                );
                (reply, None)
            });
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let ok = proto::write_frame(&mut reader.stream, reply.render().as_bytes()).is_ok();
        shared.emit(|| EventKind::ServeDone {
            conn,
            op,
            source: source.map_or("none", crate::proto::Source::name),
            micros,
        });
        if env.request == Request::Shutdown {
            // The ack is already on the wire; now stop the world.
            trigger_shutdown(shared);
            return;
        }
        if !ok {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_parse_recognizes_both_transports() {
        assert_eq!(
            Bind::parse("127.0.0.1:0"),
            Ok(Bind::Tcp("127.0.0.1:0".to_string()))
        );
        #[cfg(unix)]
        assert_eq!(
            Bind::parse("unix:/tmp/x.sock"),
            Ok(Bind::Unix(PathBuf::from("/tmp/x.sock")))
        );
        assert!(Bind::parse("").is_err());
        assert!(Bind::parse("unix:").is_err());
    }

    #[test]
    fn queue_bounds_and_closure() {
        let q: ConnQueue<u32> = ConnQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3), "full queue rejects");
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(3).is_ok(), "space freed");
        q.close();
        assert_eq!(q.push(4), Err(4), "closed queue rejects");
        assert_eq!(q.pop(), Some(2), "drains after close");
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None, "closed and empty");
    }

    #[test]
    fn queue_survives_poisoning() {
        let q: ConnQueue<u32> = ConnQueue::new(4);
        assert!(q.push(1).is_ok());
        q.poison_for_tests();
        // Push, pop, len, and close all keep working on the recovered
        // guard instead of cascading the panic.
        assert!(q.push(2).is_ok());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        q.close();
        assert_eq!(q.pop(), None);
    }
}
