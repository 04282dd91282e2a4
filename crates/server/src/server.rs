//! The dependency-free TCP front end: blocking `std::net` sockets, one
//! thread per connection.
//!
//! # Wire protocol
//!
//! The protocol is line-oriented and deliberately `netcat`-friendly. A
//! connection carries a sequence of requests; each request is one header
//! line followed by the document bytes, and each gets exactly one response
//! line (the stable rendering of [`crate::wire`]):
//!
//! ```text
//! "V " schema-id " " byte-len "\n" body     framed: exactly byte-len bytes
//! "V " schema-id "\n" body…                 unframed: the rest of the stream
//! "P " schema-id " " byte-len "\n" dtd      hot-swap publish (when enabled)
//! "Q\n"                                     graceful shutdown (when enabled)
//! ```
//!
//! Framed requests pipeline: a client may send many back to back (even
//! across schemas) and read the responses in order. An unframed request is
//! the last one on its connection: the server answers as soon as the
//! document balances (or rejects), or — for a **half-closed** connection —
//! when the peer shuts down its write side and the remaining input ends,
//! whichever comes first. Blank lines between requests are ignored.
//!
//! A `P` request carries DTD source text (always framed — a schema needs a
//! definite end) and atomically hot-swaps the schema registered under its
//! id: documents already in flight finish against the artifact they opened
//! under, requests after the `ok` response validate against the new one
//! (see [`SchemaRouter::publish`]). The body is looked up in the server's
//! [`Registry`] cache, so re-publishing previously seen text is a cache
//! hit. Compile failures answer with the build diagnostic and leave the
//! previous schema serving; unknown ids answer `E103` — publishing never
//! creates a new wire id.
//!
//! Body bytes stream straight into [`Document::feed_bytes`] exactly as
//! the socket delivers them, so chunk boundaries fall wherever the network
//! put them — the document contract makes the verdict chunking-invariant,
//! and every verdict (including the `E3xx` refusals: overload at
//! admission, idle timeouts, per-document limits) is **byte-identical** to
//! what an in-process `feed_bytes`/`finish` sequence reports.
//!
//! # Threads
//!
//! [`Server::run`] blocks in `accept` and gives every connection its own
//! [`CONN_STACK`] thread, so a thread wakes exactly when its peer's bytes
//! arrive, and one connection's slow compile or stalled reader holds up
//! nobody else. A thread parses header lines in place from one cursor
//! buffer and writes each response as soon as it is known: a peer that
//! pipelines without reading blocks only its own thread. It keeps one
//! [`Document`] per schema id it has used and replaces it with a new one
//! when the id's current schema is another artifact. The shared
//! [`SchemaRouter`] is read-only after startup: admission is one atomic
//! counter per id (`E305`), a publish is one `SharedSchema` publish.
//!
//! A `P` body that misses the [`Registry`] cache compiles on the
//! connection that sent it, which publishes that artifact and answers.
//! The cache keeps its own artifact for the text, compiled again on one
//! long-lived cache thread: cached schemas outlive the connection that
//! published them, and allocating them all on one thread keeps them in
//! one malloc arena, so the server's resident memory does not depend on
//! how client connections overlap.
//!
//! [`ServerConfig::max_connections`] bounds the thread count: past it the
//! acceptor answers with one `E305` line and closes the connection. When a
//! schema's [`ServiceLimits::with_idle_budget`] is set, reads under its
//! documents time out after `idle_budget × tick_interval`; a timeout
//! mid-document ends the document with [`Document::time_out`], answers its
//! `E306` verdict (or the document's earlier rejection) and closes.
//! Between requests the smallest budget of any schema applies, and a
//! timeout closes silently.
//!
//! # Shutdown
//!
//! [`ShutdownHandle::shutdown`] (or a `Q` request, when enabled) sets the
//! stop flag and wakes the blocking `accept` with one uncounted loopback
//! connection. The server then **drains**: connections idle between
//! requests are closed, a request whose header has been read runs to
//! completion, and at [`ServerConfig::drain_deadline`] the remaining
//! sockets are shut down. [`Server::run`] joins every thread and returns
//! the sum of their [`ServerReport`]s.

use crate::router::{Admission, SchemaRouter};
use crate::wire;
use redet_core::{Code, Diagnostic};
use redet_schema::registry::Registry;
use redet_schema::{Document, FeedStatus};
use std::io::{self, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::ops::AddAssign;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

// Referenced only by intra-doc links in the module docs.
#[allow(unused_imports)]
use redet_schema::ServiceLimits;

/// Stack size of the connection threads and the cache thread: 8 MiB, the
/// main thread's, so content models at the parser's depth caps compile
/// there. Only touched pages count toward resident memory.
pub const CONN_STACK: usize = 8 << 20;

/// Published texts waiting for the cache thread; past this many, a text
/// is published uncached rather than queued.
const CACHE_QUEUE: usize = 16;

/// Size of a connection's read buffer (grown to fit `max_header_len`).
const READ_BUF: usize = 16 * 1024;

/// Tuning knobs of a [`Server`]; the default is sensible for both
/// production-ish serving and tests (tests shrink `tick_interval` to make
/// idle timeouts fast).
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// How much wall-clock time one tick of an idle budget represents;
    /// [`ServiceLimits::with_idle_budget`] budgets are multiples of this.
    /// Default: 1 second.
    pub tick_interval: Duration,
    /// Most connections served at once — the bound on connection threads.
    /// Default: 1024.
    pub max_connections: usize,
    /// How long a draining server waits for in-flight requests before
    /// shutting their sockets down and exiting. Default: 5 seconds.
    pub drain_deadline: Duration,
    /// Whether the `Q` wire request triggers a graceful shutdown. Default:
    /// `true` (disable for servers exposed beyond a trusted network).
    pub allow_shutdown_command: bool,
    /// Whether the `P` wire request may hot-swap schemas. Default: `true`
    /// (disable for servers exposed beyond a trusted network).
    pub allow_publish_command: bool,
    /// Longest accepted header line in bytes; longer ones are a
    /// [`Code::ProtocolError`] refusal. Default: 4096.
    pub max_header_len: usize,
    /// Longest accepted `P` (publish) body in bytes; longer ones are a
    /// [`Code::ProtocolError`] refusal. Default: 1 MiB.
    pub max_publish_len: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tick_interval: Duration::from_secs(1),
            max_connections: 1024,
            drain_deadline: Duration::from_secs(5),
            allow_shutdown_command: true,
            allow_publish_command: true,
            max_header_len: 4096,
            max_publish_len: 1 << 20,
        }
    }
}

/// The [`Code::ServiceOverloaded`] (`E305`) line a server at its
/// connection cap of `cap` answers a new connection with.
#[must_use]
pub fn connection_cap_refusal(cap: usize) -> Diagnostic {
    Diagnostic::new(
        Code::ServiceOverloaded,
        format!("server is at its connection cap of {cap}"),
    )
}

/// A cloneable handle that asks a running [`Server`] to drain and exit.
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    /// Where a loopback connection wakes the blocking `accept`.
    wake: SocketAddr,
}

impl ShutdownHandle {
    /// Requests a graceful shutdown: the server stops accepting, drains
    /// in-flight connections, and [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor; if the server already exited, nobody listens.
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }
}

/// What a [`Server`] did over its lifetime, returned by [`Server::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Connections accepted.
    pub connections: u64,
    /// Document verdicts written to the wire.
    pub documents: u64,
    /// … of which `ok`.
    pub accepted: u64,
    /// … of which `err` (schema rejections and `E3xx` refusals alike).
    pub rejected: u64,
    /// Documents ended by the idle timeout.
    pub swept: u64,
    /// Schemas hot-swapped by successful `P` requests.
    pub published: u64,
    /// Header lines refused with [`Code::ProtocolError`].
    pub protocol_errors: u64,
}

impl AddAssign for ServerReport {
    fn add_assign(&mut self, other: ServerReport) {
        self.connections += other.connections;
        self.documents += other.documents;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.swept += other.swept;
        self.published += other.published;
        self.protocol_errors += other.protocol_errors;
    }
}

/// The TCP front end over a [`SchemaRouter`]; see the module docs.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    /// The listener's address as a loopback peer reaches it.
    wake: SocketAddr,
    router: SchemaRouter,
    /// Compiles `P` (publish) bodies; seeding it via
    /// [`Server::set_registry`] with the registry that compiled the
    /// startup schemas makes re-published known text a cache hit.
    registry: Registry,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
}

/// What every connection thread shares.
struct Shared {
    router: SchemaRouter,
    /// The compile cache `P` bodies are looked up in.
    registry: Arc<Mutex<Registry>>,
    /// Texts the cache thread compiles into the cache.
    to_cache: mpsc::SyncSender<String>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    wake: SocketAddr,
    /// Read timeout between requests: the smallest idle budget of any
    /// route, in wall-clock time.
    header_timeout: Option<Duration>,
}

/// A connection thread's position, as the acceptor sees it.
const IDLE: u8 = 0;
const BUSY: u8 = 1;
const CLOSED: u8 = 2;
const DONE: u8 = 3;

/// The acceptor's record of one connection thread.
struct Live {
    stream: Arc<TcpStream>,
    /// [`IDLE`] between requests, [`BUSY`] once a header has been read,
    /// [`CLOSED`] once the draining acceptor has shut the socket down,
    /// [`DONE`] once the thread no longer holds a connection slot.
    state: Arc<AtomicU8>,
    thread: JoinHandle<ServerReport>,
}

impl Live {
    /// Shuts the socket down; with `only_idle`, only if the thread is
    /// between requests.
    fn close(&self, only_idle: bool) {
        let closed = if only_idle {
            self.state
                .compare_exchange(IDLE, CLOSED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        } else {
            self.state.store(CLOSED, Ordering::SeqCst);
            true
        };
        if closed {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and wraps
    /// `router` behind it. The socket listens immediately; requests are
    /// only served once [`Server::run`] starts accepting.
    pub fn bind(
        addr: impl ToSocketAddrs,
        router: SchemaRouter,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let mut wake = listener.local_addr()?;
        match wake.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => wake.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => wake.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        Ok(Server {
            listener,
            wake,
            router,
            registry: Registry::new(),
            config,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Replaces the compile registry `P` (publish) requests go through —
    /// pass the registry that compiled the startup schemas so its
    /// content-hash cache carries over into serving.
    pub fn set_registry(&mut self, registry: Registry) {
        self.registry = registry;
    }

    /// The bound address — the way to learn the actual port after binding
    /// port 0.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that shuts this server down from another thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: Arc::clone(&self.stop),
            wake: self.wake,
        }
    }

    /// The schema routes this server serves.
    pub fn router(&self) -> &SchemaRouter {
        &self.router
    }

    /// Accepts connections until shutdown, then drains and returns the
    /// lifetime report; see the module docs.
    pub fn run(self) -> io::Result<ServerReport> {
        let Server {
            listener,
            wake,
            router,
            registry,
            config,
            stop,
        } = self;
        let header_timeout = router
            .limits()
            .filter_map(|limits| limits.idle_budget())
            .min()
            .map(|budget| idle_timeout(&config, budget));
        let registry = Arc::new(Mutex::new(registry));
        let (to_cache, texts) = mpsc::sync_channel::<String>(CACHE_QUEUE);
        let cache_thread = {
            let registry = Arc::clone(&registry);
            thread::Builder::new()
                .name("redet-cache".to_owned())
                .stack_size(CONN_STACK)
                .spawn(move || {
                    for source in texts {
                        let _ = Registry::compile_shared(&registry, &source);
                    }
                })?
        };
        let shared = Arc::new(Shared {
            router,
            registry,
            to_cache,
            config,
            stop,
            wake,
            header_timeout,
        });
        let mut live: Vec<Live> = Vec::new();
        let mut report = ServerReport::default();

        loop {
            let accepted = listener.accept();
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match accepted {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Out of descriptors or similar: back off briefly.
                    thread::sleep(Duration::from_millis(1));
                    continue;
                }
            };
            // Collect the reports of threads that have finished.
            let (done, running): (Vec<Live>, Vec<Live>) =
                live.drain(..).partition(|c| c.thread.is_finished());
            live = running;
            join_all(done, &mut report);

            let cap = shared.config.max_connections;
            let held = live
                .iter()
                .filter(|c| c.state.load(Ordering::SeqCst) != DONE);
            if held.count() >= cap {
                let line = wire::render_diagnostic(&connection_cap_refusal(cap));
                let _ = (&stream).write_all(format!("{line}\n").as_bytes());
                continue;
            }
            let _ = stream.set_nodelay(true);
            let stream = Arc::new(stream);
            let state = Arc::new(AtomicU8::new(IDLE));
            let spawned = {
                let (stream, state, shared) =
                    (Arc::clone(&stream), Arc::clone(&state), Arc::clone(&shared));
                thread::Builder::new()
                    .name("redet-conn".to_owned())
                    .stack_size(CONN_STACK)
                    .spawn(move || serve_connection(&stream, &state, &shared))
            };
            if let Ok(thread) = spawned {
                report.connections += 1;
                live.push(Live {
                    stream,
                    state,
                    thread,
                });
            }
        }

        // Drain: close idle connections now, let busy ones finish their
        // request, and shut down whatever is left at the deadline.
        for conn in &live {
            conn.close(true);
        }
        let deadline = Instant::now() + shared.config.drain_deadline;
        while Instant::now() < deadline && live.iter().any(|c| !c.thread.is_finished()) {
            thread::sleep(Duration::from_millis(1));
        }
        for conn in &live {
            conn.close(false);
        }
        join_all(live, &mut report);
        // The last sender goes with `shared`, which ends the cache thread.
        drop(shared);
        let _ = cache_thread.join();
        Ok(report)
    }
}

/// Joins connection threads, adding up their reports.
fn join_all(conns: Vec<Live>, report: &mut ServerReport) {
    for conn in conns {
        if let Ok(part) = conn.thread.join() {
            *report += part;
        }
    }
}

/// The read timeout for an idle budget of `budget` ticks.
fn idle_timeout(config: &ServerConfig, budget: u64) -> Duration {
    let tick = config.tick_interval.max(Duration::from_millis(1));
    tick.saturating_mul(u32::try_from(budget.max(1)).unwrap_or(u32::MAX))
}

/// A connection thread's body: serve requests until the connection ends,
/// then release the connection slot before the peer sees the close.
fn serve_connection(stream: &TcpStream, state: &AtomicU8, shared: &Shared) -> ServerReport {
    let mut conn = Conn {
        stream,
        state,
        shared,
        buf: vec![0; READ_BUF.max(shared.config.max_header_len + 2)],
        start: 0,
        end: 0,
        timeout: None,
        docs: (0..shared.router.len()).map(|_| None).collect(),
        out: Vec::new(),
        report: ServerReport::default(),
    };
    conn.set_timeout(shared.header_timeout);
    conn.serve();
    state.store(DONE, Ordering::SeqCst);
    let _ = stream.shutdown(Shutdown::Both);
    conn.report
}

/// What one read delivered.
enum Fill {
    /// New bytes are buffered.
    Data,
    /// The peer closed its write side (or the socket was shut down).
    Eof,
    /// The read timed out.
    Idle,
    /// The socket failed.
    Failed,
}

/// Whether the connection goes on after a request.
enum Flow {
    Next,
    Close,
}

/// A parsed header line.
enum Request {
    /// `V`: the route (or the `E103` refusal) and the framed length.
    Validate {
        route: Result<usize, Diagnostic>,
        len: Option<u64>,
    },
    /// `P`: the schema id (or the `E103` refusal) and the body length.
    Publish {
        id: Result<String, Diagnostic>,
        len: u64,
    },
    /// `Q`.
    Shutdown,
    /// A malformed header: the [`Code::ProtocolError`] message.
    Refuse(&'static str),
}

/// One connection's state, owned by its thread.
struct Conn<'a> {
    stream: &'a TcpStream,
    state: &'a AtomicU8,
    shared: &'a Shared,
    /// Received bytes; `buf[start..end]` is not yet consumed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The socket's current read timeout.
    timeout: Option<Duration>,
    /// One document per route this connection has used.
    docs: Vec<Option<Document>>,
    /// Response rendering buffer.
    out: Vec<u8>,
    report: ServerReport,
}

impl Conn<'_> {
    /// The request loop.
    fn serve(&mut self) {
        loop {
            // Draining: close between requests.
            if self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let Some((from, to)) = self.next_header() else {
                return;
            };
            if self
                .state
                .compare_exchange(IDLE, BUSY, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                return;
            }
            let request = match std::str::from_utf8(&self.buf[from..to]) {
                Ok(text) => parse_header(text, &self.shared.router, &self.shared.config),
                Err(_) => Request::Refuse("header line is not UTF-8"),
            };
            let flow = match request {
                Request::Validate { route, len } => self.validate(route, len),
                Request::Publish { id, len } => self.publish(id, len),
                Request::Shutdown => self.shutdown(),
                Request::Refuse(message) => self.refuse(message),
            };
            if matches!(flow, Flow::Close)
                || self
                    .state
                    .compare_exchange(BUSY, IDLE, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
            {
                return;
            }
        }
    }

    /// Waits for the next header line and returns its range in `buf`
    /// (without the line end), or `None` when the connection should close
    /// — after a refusal for an over-long or cut-off header, silently at
    /// end of input or after an idle timeout.
    fn next_header(&mut self) -> Option<(usize, usize)> {
        loop {
            // Tolerate blank separator lines (`\n`, `\r\n`).
            while self.start < self.end && matches!(self.buf[self.start], b'\n' | b'\r') {
                self.start += 1;
            }
            let pending = &self.buf[self.start..self.end];
            if let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                let from = self.start;
                let mut to = from + pos;
                self.start = to + 1;
                if to > from && self.buf[to - 1] == b'\r' {
                    to -= 1;
                }
                return Some((from, to));
            }
            if pending.len() > self.shared.config.max_header_len {
                self.refuse("header line exceeds the length cap");
                return None;
            }
            match self.fill() {
                Fill::Data => {}
                Fill::Eof if self.start < self.end && !self.closing() => {
                    self.refuse("input ended inside a header line");
                    return None;
                }
                Fill::Eof | Fill::Idle | Fill::Failed => return None,
            }
        }
    }

    /// Reads more input after `buf[..end]`, first reclaiming consumed
    /// space.
    fn fill(&mut self) -> Fill {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        loop {
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Fill::Eof,
                Ok(n) => {
                    self.end += n;
                    return Fill::Data;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Fill::Idle
                }
                Err(_) => return Fill::Failed,
            }
        }
    }

    /// Consumes up to `max` buffered bytes (reading if none are buffered)
    /// and returns their range, or how the input ended.
    fn take(&mut self, max: u64) -> Result<(usize, usize), Fill> {
        if self.start == self.end {
            match self.fill() {
                Fill::Data => {}
                other => return Err(other),
            }
        }
        let n = usize::try_from(max)
            .unwrap_or(usize::MAX)
            .min(self.end - self.start);
        let from = self.start;
        self.start += n;
        Ok((from, from + n))
    }

    /// Whether the draining acceptor has shut this connection down.
    fn closing(&self) -> bool {
        self.state.load(Ordering::SeqCst) == CLOSED
    }

    /// Sets the socket's read timeout, skipping the syscall when unchanged.
    fn set_timeout(&mut self, timeout: Option<Duration>) {
        if self.timeout != timeout && self.stream.set_read_timeout(timeout).is_ok() {
            self.timeout = timeout;
        }
    }

    /// A `V` request: admission, then the body streamed into this
    /// connection's document for the route.
    fn validate(&mut self, route: Result<usize, Diagnostic>, len: Option<u64>) -> Flow {
        let shared = self.shared;
        let admitted = route.and_then(|index| shared.router.admit(index));
        let admission = match admitted {
            Ok(admission) => admission,
            Err(refusal) => {
                // E103 / E305: the refusal is the verdict. A framed body
                // is still consumed so pipelined requests behind it stay
                // in sync; an unframed body cannot be delimited, so the
                // connection ends.
                self.respond_verdict(&Err(refusal));
                return match len {
                    Some(n) => self.discard(n),
                    None => Flow::Close,
                };
            }
        };
        let budget = admission.limits().idle_budget();
        self.set_timeout(budget.map(|b| idle_timeout(&shared.config, b)));
        let (verdict, flow) = self.feed_document(&admission, len);
        drop(admission);
        self.set_timeout(shared.header_timeout);
        match verdict {
            Some(verdict) => {
                self.respond_verdict(&verdict);
                flow
            }
            None => Flow::Close,
        }
    }

    /// Streams one document's body through this connection's document for
    /// the route and returns its verdict (`None` when the connection died
    /// or was shut down mid-document) and whether the connection goes on.
    fn feed_document(
        &mut self,
        admission: &Admission<'_>,
        len: Option<u64>,
    ) -> (Option<Result<(), Diagnostic>>, Flow) {
        let index = admission.index();
        let schema = admission.schema();
        // A publish since this connection's last request under the route
        // replaced the artifact: validate under the new one.
        let mut doc = match self.docs[index].take() {
            Some(doc) if std::ptr::eq(doc.schema(), Arc::as_ptr(&schema)) => doc,
            _ => Document::new(schema, admission.limits()),
        };
        let outcome = self.stream_body(&mut doc, len);
        self.docs[index] = Some(doc);
        outcome
    }

    /// The body loop of [`Conn::feed_document`].
    fn stream_body(
        &mut self,
        doc: &mut Document,
        mut remaining: Option<u64>,
    ) -> (Option<Result<(), Diagnostic>>, Flow) {
        loop {
            if remaining == Some(0) {
                return (Some(doc.finish()), Flow::Next);
            }
            let (from, to) = match self.take(remaining.unwrap_or(u64::MAX)) {
                Ok(range) => range,
                Err(Fill::Idle) => {
                    // The peer went quiet past the idle budget.
                    self.report.swept += 1;
                    return (Some(Err(doc.time_out())), Flow::Close);
                }
                Err(Fill::Eof) if !self.closing() => {
                    // Half-closed (unframed) or truncated (framed) input:
                    // the verdict is whatever finishing the partial
                    // document reports.
                    return (Some(doc.finish()), Flow::Close);
                }
                // The connection ends, and its documents with it.
                Err(_) => return (None, Flow::Close),
            };
            let status = doc.feed_bytes(&self.buf[from..to]);
            match &mut remaining {
                Some(left) => *left -= (to - from) as u64,
                // Unframed requests answer as soon as the verdict is known
                // and end the connection.
                None if matches!(status, FeedStatus::Accepted | FeedStatus::Rejected) => {
                    return (Some(doc.finish()), Flow::Close);
                }
                None => {}
            }
        }
    }

    /// Consumes and drops the framed body of a refused request, so the
    /// refusal does not desynchronize the requests pipelined behind it.
    fn discard(&mut self, mut remaining: u64) -> Flow {
        while remaining > 0 {
            match self.take(remaining) {
                Ok((from, to)) => remaining -= (to - from) as u64,
                Err(_) => return Flow::Close,
            }
        }
        Flow::Next
    }

    /// A `P` request: read the DTD, compile it (cache-aware) and hot-swap.
    fn publish(&mut self, id: Result<String, Diagnostic>, len: u64) -> Flow {
        let id = match id {
            Ok(id) => id,
            Err(refusal) => {
                // E103: the refusal is the answer — a publish never creates
                // a new wire id. The framed body is still consumed.
                self.respond(&wire::render_diagnostic(&refusal));
                return self.discard(len);
            }
        };
        let mut body = Vec::with_capacity(usize::try_from(len).unwrap_or(0));
        let mut remaining = len;
        while remaining > 0 {
            match self.take(remaining) {
                Ok((from, to)) => {
                    body.extend_from_slice(&self.buf[from..to]);
                    remaining -= (to - from) as u64;
                }
                Err(Fill::Eof) if !self.closing() => {
                    return self.refuse("input ended inside a publish body");
                }
                Err(_) => return Flow::Close,
            }
        }
        let Ok(source) = String::from_utf8(body) else {
            let refusal = Diagnostic::new(Code::ProtocolError, "publish body is not UTF-8");
            self.respond(&wire::render_diagnostic(&refusal));
            return Flow::Next;
        };
        // Held until after the answer: when the route has the last
        // reference to the artifact this publish supersedes, freeing it is
        // not part of the publish's latency.
        let router = &self.shared.router;
        let superseded = router.find(&id).ok().map(|index| router.current(index));
        let hit = self
            .shared
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .cached(&source);
        let (built, uncached) = match hit {
            Some(schema) => (Ok(schema), false),
            None => (Registry::build(&source), true),
        };
        match built.and_then(|schema| router.publish(&id, schema)) {
            Ok(_) => {
                self.report.published += 1;
                self.respond("ok");
                // The cache compiles its own artifact for the text on the
                // cache thread (see the module docs), after the answer; a
                // full queue leaves the text uncached.
                if uncached {
                    let _ = self.shared.to_cache.try_send(source);
                }
            }
            Err(refusal) => self.respond(&wire::render_diagnostic(&refusal)),
        }
        drop(superseded);
        Flow::Next
    }

    /// A `Q` request.
    fn shutdown(&mut self) -> Flow {
        if !self.shared.config.allow_shutdown_command {
            return self.refuse("the shutdown command is disabled");
        }
        self.respond("ok");
        ShutdownHandle {
            stop: Arc::clone(&self.shared.stop),
            wake: self.shared.wake,
        }
        .shutdown();
        Flow::Close
    }

    /// Writes one response line.
    fn respond(&mut self, line: &str) {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        // A failed write surfaces as a failed read on the next request.
        let _ = self.stream.write_all(&self.out);
    }

    /// Writes a document verdict and counts it.
    fn respond_verdict(&mut self, verdict: &Result<(), Diagnostic>) {
        self.report.documents += 1;
        match verdict {
            Ok(()) => self.report.accepted += 1,
            Err(_) => self.report.rejected += 1,
        }
        self.respond(&wire::render_verdict(verdict));
    }

    /// Refuses a malformed request with a [`Code::ProtocolError`] line and
    /// ends the connection (the framing is lost, so nothing behind the bad
    /// header can be trusted).
    fn refuse(&mut self, message: &str) -> Flow {
        self.report.protocol_errors += 1;
        let line = wire::render_diagnostic(&Diagnostic::new(Code::ProtocolError, message));
        self.respond(&line);
        Flow::Close
    }
}

/// Parses one header line against the routes and the config.
fn parse_header(text: &str, router: &SchemaRouter, config: &ServerConfig) -> Request {
    let mut parts = text.split_ascii_whitespace();
    match parts.next() {
        Some("V") => {
            let Some(id) = parts.next() else {
                return Request::Refuse("V needs a schema id");
            };
            let len = match parts.next().map(str::parse::<u64>) {
                Some(Ok(n)) => Some(n),
                Some(Err(_)) => return Request::Refuse("unparsable body length"),
                None => None,
            };
            if parts.next().is_some() {
                return Request::Refuse("trailing tokens after the header");
            }
            Request::Validate {
                route: router.find(id),
                len,
            }
        }
        Some("P") => {
            if !config.allow_publish_command {
                return Request::Refuse("the publish command is disabled");
            }
            let Some(id) = parts.next() else {
                return Request::Refuse("P needs a schema id");
            };
            let Some(len) = parts.next() else {
                return Request::Refuse("P needs a framed body length");
            };
            let Ok(len) = len.parse::<u64>() else {
                return Request::Refuse("unparsable body length");
            };
            if parts.next().is_some() {
                return Request::Refuse("trailing tokens after the header");
            }
            if len > config.max_publish_len as u64 {
                return Request::Refuse("publish body exceeds the length cap");
            }
            Request::Publish {
                id: router.find(id).map(|_| id.to_owned()),
                len,
            }
        }
        Some("Q") => Request::Shutdown,
        _ => Request::Refuse("unrecognized header"),
    }
}
