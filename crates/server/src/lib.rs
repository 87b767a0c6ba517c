//! # tspdb-server
//!
//! An event-driven TCP front-end for the tspdb engine: many clients speak
//! the [`tspdb_wire`] protocol to one [`SharedEngine`], so every
//! connection rides the lock-free read path (`SELECT`s under the shared
//! read lock, including Monte-Carlo `WITH WORLDS` queries) while writes
//! (`CREATE` / `INSERT` / `DROP` / density-view registration) serialize
//! through the catalog write lock exactly as in-process callers do.
//!
//! ## Architecture
//!
//! * **Run-to-completion reactors.** [`ServerConfig::workers`] threads
//!   wait on one shared `epoll` set (the [`poller`] module — the build
//!   environment is offline, so there is no async runtime) holding the
//!   nonblocking listener and every connection's socket. Whichever thread
//!   receives a connection's event reads the request, executes it,
//!   encodes the reply and writes it itself: one wake-up per request, no
//!   hand-off between threads. Per-connection read/write buffers absorb
//!   partial frames, so thousands of idle connections cost one
//!   registered descriptor each rather than a parked thread.
//! * **One owner per connection.** Sockets are registered
//!   `EPOLLONESHOT`: an event disarms the descriptor, so exactly one
//!   thread owns the connection until it re-arms it after the reply. The
//!   connection's state sits behind its own lock, which is *not* held
//!   while a statement runs (the session is taken out first), so a TAIL
//!   push from another thread can append and flush meanwhile.
//! * **Backpressure** is write-interest registration: a response that
//!   does not fit the socket buffer parks in the connection's write
//!   buffer and the descriptor is re-armed for writability; whichever
//!   thread receives that event resumes the flush. Until it drains, the
//!   connection's pipelined requests stay unparsed, so parked output holds
//!   one reply at most (beside any TAIL pushes). A peer that stops reading stalls only its
//!   own connection.
//! * **Admission control**: at most [`ServerConfig::max_connections`]
//!   sockets are resident; a connection beyond the cap is answered with
//!   a structured [`Response::Error`] and drained, never ignored.
//!   Pre-handshake sockets must say `Hello` within
//!   [`ServerConfig::handshake_timeout`], idle sessions are reaped after
//!   [`ServerConfig::idle_timeout`], and a started-but-stalled frame is
//!   bounded by a fixed completion timeout — so no peer can pin
//!   connection state forever. The first thread to find the sweep due
//!   after its wait sweeps, skipping connections some thread owns.
//! * Sessions own a prepared-statement map (`Prepare` plans a `SELECT`
//!   once — through the engine's shared plan cache — and `Execute`
//!   replays the plan through [`SharedEngine::execute_planned`]) and a
//!   session-scoped `WITH WORLDS` fork-join override that never touches
//!   shared state: it is that call's `worlds_threads` argument. Ad-hoc
//!   `Query` text resolves through the same plan cache and runs through
//!   the same call, skipping parse and plan entirely when the catalog
//!   generation still matches.
//! * **TAIL continuous queries**: a [`tspdb_ingest::TailRegistry`] shared
//!   by the reactors holds every standing `TAIL SELECT ... GROUP BY
//!   WINDOW(...)` query. After each reply the serving thread polls the
//!   registry (two generation loads per subscription when nothing
//!   changed) and appends pushed `TailFrame` responses — one per newly
//!   closed window bucket — to the owning connections' write buffers
//!   under the usual backpressure rules. Subscriptions die with their
//!   connection.
//!
//! ## Quick start
//!
//! ```
//! use tspdb_core::SharedEngine;
//! use tspdb_server::{demo_config, Server, ServerConfig};
//!
//! let handle = Server::bind(
//!     "127.0.0.1:0", // ephemeral port
//!     SharedEngine::new(demo_config()),
//!     ServerConfig::default(),
//! )
//! .unwrap()
//! .spawn()
//! .unwrap();
//!
//! let mut client = tspdb_client::Client::connect(handle.addr()).unwrap();
//! client.query("CREATE TABLE t (x INT)").unwrap();
//! client.close().unwrap();
//! handle.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod poller;

use poller::{Event, Interest, Poller, Waker};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tspdb_core::{CoreError, SharedEngine};
use tspdb_ingest::{TailEvent, TailRegistry, TailToken};
use tspdb_probdb::plan::{PlannedQuery, Planner};
use tspdb_probdb::sql::SelectStmt;
use tspdb_probdb::{DbError, QueryOutput, Statement};
use tspdb_wire::{
    decode_message, encode_frame, Request, Response, StatementId, WireError, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};

/// How the server identifies itself in the handshake.
pub(crate) const SERVER_NAME: &str = concat!("tspdb-server/", env!("CARGO_PKG_VERSION"));

/// The reactors' housekeeping tick: the longest a thread sleeps in
/// `epoll_wait` before checking the shutdown flag, and the interval
/// between timeout sweeps.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// How long a *started* frame may take to arrive in full. Wall-clock, so
/// a peer trickling one byte per tick still cannot pin connection state
/// past this bound.
const FRAME_COMPLETION_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a rejected (over-capacity) connection is drained so the
/// error frame outruns the close (an immediate close with unread `Hello`
/// bytes in the receive buffer would RST the frame away).
const REJECT_LINGER: Duration = Duration::from_secs(1);

/// Hard bound on a connection's buffered-but-unprocessed input: one
/// maximum frame plus slack. The protocol is strict request/response, so
/// a peer exceeding this is flooding, not pipelining.
const READ_BUFFER_LIMIT: usize = MAX_FRAME_LEN as usize + 4 + 64 * 1024;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Reactor threads, each serving requests to completion — the bound
    /// on concurrently *executing* requests (connections are not bounded
    /// by this; idle ones cost no thread at all).
    pub workers: usize,
    /// Sockets resident at once; a connection beyond the cap receives a
    /// structured error and is drained, never left hanging.
    pub max_connections: usize,
    /// How long an established session may sit idle *between* frames
    /// before the server drops it.
    pub idle_timeout: Duration,
    /// How long a fresh socket may take to complete the handshake.
    pub handshake_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            max_connections: 1024,
            idle_timeout: Duration::from_secs(300),
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

/// Aggregate counters over the server's lifetime (relaxed atomics — read
/// as diagnostics, not as a consistent snapshot).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Sessions that completed their handshake.
    pub sessions: AtomicU64,
    /// Post-handshake requests answered (errors included).
    pub requests: AtomicU64,
}

/// A bound listener, ready to [`spawn`](Server::spawn) its threads.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    engine: SharedEngine,
    config: ServerConfig,
}

/// Reactor token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Reactor token of the shutdown eventfd.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONNECTION: u64 = 2;

impl Server {
    /// Binds the listener (use port 0 for an ephemeral port) and wires it
    /// to the engine every session will share.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: SharedEngine,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            engine,
            config,
        })
    }

    /// The bound address (the actual port when 0 was requested).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the reactor threads; the returned handle owns every thread.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        self.listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let waker = Arc::new(Waker::new()?);
        let poller = Poller::new()?;
        poller.register_oneshot(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        // Level-triggered and never drained: once shutdown wakes it, every
        // thread's wait returns.
        poller.register(waker.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;

        let reactor = Arc::new(Reactor {
            poller,
            listener: self.listener,
            engine: self.engine,
            shutdown: Arc::clone(&shutdown),
            stats: Arc::clone(&stats),
            connections: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(TOKEN_FIRST_CONNECTION),
            next_sweep: Mutex::new(Instant::now() + POLL_INTERVAL),
            tails: TailRegistry::new(),
            tail_owners: Mutex::new(HashMap::new()),
            config: self.config,
        });
        let threads = (0..reactor.config.workers.max(1))
            .map(|_| {
                let reactor = Arc::clone(&reactor);
                std::thread::spawn(move || reactor.run())
            })
            .collect();
        Ok(ServerHandle {
            addr,
            shutdown,
            stats,
            waker,
            threads,
        })
    }
}

/// Owns a running server's threads; dropping without
/// [`shutdown`](ServerHandle::shutdown) detaches them.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    waker: Arc<Waker>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Blocks until the reactor threads exit (they only exit on
    /// shutdown; this is what the server binary parks on).
    pub fn wait(&mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    /// Raises the shutdown flag, wakes every reactor, and joins them all.
    /// A thread executing a statement finishes it first; open
    /// connections are closed without a goodbye frame.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        self.wait();
    }
}

/// Locks a mutex, recovering from poisoning: a thread that panicked
/// mid-request left the guarded buffers consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Which session owns each live TAIL subscription (tail token →
/// reactor connection token). Inserted on `Tail`, removed on
/// `TailStop`/lapse and when the owning connection closes.
type TailOwners = Mutex<HashMap<u64, u64>>;

/// Registers a TAIL standing query owned by connection `conn`. Frames
/// start arriving via the poll that follows this request — including the
/// replay of already-closed buckets.
fn tail_subscribe(
    tails: &TailRegistry,
    tail_owners: &TailOwners,
    conn: u64,
    sql: &str,
) -> (Response, bool) {
    match tails.subscribe_sql(sql) {
        Ok(token) => {
            lock(tail_owners).insert(token.0, conn);
            (Response::TailStarted { token: token.0 }, true)
        }
        Err(e) => (Response::Error(core_to_db(e)), true),
    }
}

/// Cancels a TAIL subscription — only for the session that opened it, so
/// one connection cannot tear down another's standing query.
fn tail_stop(
    tails: &TailRegistry,
    tail_owners: &TailOwners,
    conn: u64,
    token: u64,
) -> (Response, bool) {
    let owned = {
        let mut owners = lock(tail_owners);
        if owners.get(&token) == Some(&conn) {
            owners.remove(&token);
            true
        } else {
            false
        }
    };
    if owned {
        tails.unsubscribe(TailToken(token));
        (
            Response::TailStopped {
                token,
                reason: None,
            },
            true,
        )
    } else {
        (
            Response::Error(DbError::Unsupported(format!(
                "unknown TAIL subscription #{token}"
            ))),
            true,
        )
    }
}

/// Where a connection is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accepted; waiting for a well-formed `Hello`.
    Handshake,
    /// Session established; waiting for (or executing) a request.
    Ready,
    /// Flush the write buffer, then close.
    Closing,
    /// Rejected at capacity: flush the error frame, discard input, close
    /// at EOF or the stored deadline.
    Draining(Instant),
    /// Deregistered and out of the registry; a thread still holding the
    /// connection must not touch its descriptor again.
    Closed,
}

/// Per-socket state, behind the connection's own lock.
struct Connection {
    stream: TcpStream,
    state: ConnState,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Taken out while a request executes, so the lock is not held then.
    session: Option<Session>,
    created: Instant,
    last_activity: Instant,
    /// When the first byte of a still-incomplete frame arrived.
    frame_started: Option<Instant>,
    /// A thread is serving this connection's event: the descriptor is
    /// disarmed until that thread re-arms it, and nobody else may.
    owned: bool,
}

impl Connection {
    fn new(stream: TcpStream, now: Instant) -> Connection {
        Connection {
            stream,
            state: ConnState::Handshake,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            session: None,
            created: now,
            last_activity: now,
            frame_started: None,
            owned: false,
        }
    }

    /// Queues an encoded frame, adopting its buffer when nothing is
    /// pending so a large result is not copied again.
    fn queue(&mut self, frame: Vec<u8>) {
        if self.write_buf.is_empty() {
            self.write_buf = frame;
        } else {
            self.write_buf.extend_from_slice(&frame);
        }
    }

    fn write_pending(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// What to arm the descriptor for: writability too while output is
    /// parked.
    fn interest(&self) -> Interest {
        if self.write_pending() {
            Interest::READ_WRITE
        } else {
            Interest::READ
        }
    }
}

/// What one pass over a connection's read buffer produced.
enum Parsed {
    /// No complete frame buffered.
    Incomplete,
    /// A protocol violation worth a structured goodbye.
    Violation(String),
    /// One complete, well-formed request.
    Request(Request),
}

/// What every reactor thread shares: the poller, the listener and the
/// connection registry.
struct Reactor {
    poller: Poller,
    listener: TcpListener,
    config: ServerConfig,
    engine: SharedEngine,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    connections: Mutex<HashMap<u64, Arc<Mutex<Connection>>>>,
    next_token: AtomicU64,
    /// When the next timeout sweep is due; held by the sweeping thread.
    next_sweep: Mutex<Instant>,
    tails: TailRegistry,
    tail_owners: TailOwners,
}

impl Reactor {
    /// One reactor thread: take one event at a time (so a long statement
    /// never holds up events another thread could serve) until shutdown.
    fn run(&self) {
        let mut events: Vec<Event> = Vec::with_capacity(1);
        while !self.shutdown.load(Ordering::SeqCst) {
            if self
                .poller
                .wait_up_to(&mut events, 1, Some(POLL_INTERVAL))
                .is_err()
            {
                return; // a broken epoll fd is unrecoverable
            }
            match events.pop() {
                Some(Event {
                    token: TOKEN_LISTENER,
                    ..
                }) => self.accept_ready(),
                Some(event) if event.token != TOKEN_WAKER => self.connection_ready(event),
                _ => {}
            }
            self.sweep_if_due();
        }
    }

    fn connection(&self, token: u64) -> Option<Arc<Mutex<Connection>>> {
        lock(&self.connections).get(&token).cloned()
    }

    /// Accepts until the listener would block, then re-arms it. Every
    /// accepted socket is made nonblocking and either admitted or
    /// rejected with a frame.
    fn accept_ready(&self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // WouldBlock, or a persistent error (EMFILE when fds run
                // out): retry at the next readiness event.
                Err(_) => break,
            }
        }
        let _ = self
            .poller
            .rearm(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ);
    }

    fn admit(&self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let now = Instant::now();
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let mut conn = Connection::new(stream, now);
        // Only the thread holding the one-shot listener admits, so the
        // count cannot race past the cap.
        if lock(&self.connections).len() >= self.config.max_connections {
            let Ok(frame) = encode_frame(&Response::Error(DbError::Unsupported(format!(
                "server at capacity ({} connections); try again later",
                self.config.max_connections
            )))) else {
                return;
            };
            conn.write_buf = frame;
            conn.state = ConnState::Draining(now + REJECT_LINGER);
            self.flush(&mut conn, token);
            if conn.state == ConnState::Closed {
                return;
            }
        }
        let (fd, interest) = (conn.stream.as_raw_fd(), conn.interest());
        lock(&self.connections).insert(token, Arc::new(Mutex::new(conn)));
        if self.poller.register_oneshot(fd, token, interest).is_err() {
            lock(&self.connections).remove(&token); // the peer sees a reset
        }
    }

    /// Serves one event: flush, read, then parse and answer complete
    /// frames until one's reply parks (the socket would block), and
    /// finally re-arm the descriptor. Statements run with the
    /// connection's lock released. Parked output stops parsing: the
    /// frames behind it wait in the read buffer until a writable event
    /// drains the reply, so a peer that stops reading holds at most one
    /// unsent reply, not one per pipelined request.
    fn connection_ready(&self, event: Event) {
        let token = event.token;
        let Some(cell) = self.connection(token) else {
            return; // closed since the event was queued
        };
        let mut conn = lock(&cell);
        if conn.owned || conn.state == ConnState::Closed {
            // A stray event from a push's re-arm racing this delivery:
            // the owner re-arms when it is done.
            return;
        }
        conn.owned = true;
        if event.writable {
            self.flush(&mut conn, token);
        }
        if event.readable && conn.state != ConnState::Closed {
            self.read_ready(&mut conn, token);
        }
        while matches!(conn.state, ConnState::Handshake | ConnState::Ready) && !conn.write_pending()
        {
            let request = match parse_one_frame(&mut conn) {
                Parsed::Incomplete => break,
                Parsed::Violation(message) => {
                    self.fail(&mut conn, token, message);
                    break;
                }
                Parsed::Request(request) => request,
            };
            if conn.state == ConnState::Handshake {
                self.handshake(&mut conn, token, request);
                continue;
            }
            let mut session = conn
                .session
                .take()
                .expect("a ready connection owns its session");
            drop(conn);
            let (frame, keep_going) = self.answer(token, &mut session, request);
            conn = lock(&cell);
            conn.session = Some(session);
            if conn.state == ConnState::Closed {
                break; // a push found the socket dead meanwhile
            }
            conn.last_activity = Instant::now();
            if frame.is_empty() || !keep_going {
                conn.state = ConnState::Closing; // unencodable or goodbye
            }
            conn.queue(frame);
            self.flush(&mut conn, token);
            drop(conn);
            // Whatever just ran may have closed window buckets (an INSERT
            // landing rows past a bucket boundary, a fresh subscription
            // replaying closed history): drive the standing queries. After
            // the reply, so a new subscriber sees `TailStarted` first.
            self.push_tail_frames();
            conn = lock(&cell);
        }
        conn.owned = false;
        if conn.state != ConnState::Closed {
            let interest = conn.interest();
            if self
                .poller
                .rearm(conn.stream.as_raw_fd(), token, interest)
                .is_err()
            {
                self.close(&mut conn, token);
            }
        }
    }

    /// Drains the socket into the read buffer (or the void, when
    /// draining a rejected/closing connection).
    fn read_ready(&self, conn: &mut Connection, token: u64) {
        let discard = matches!(conn.state, ConnState::Draining(_) | ConnState::Closing);
        let mut buf = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => return self.close(conn, token),
                Ok(n) => {
                    if discard {
                        continue;
                    }
                    conn.read_buf.extend_from_slice(&buf[..n]);
                    conn.last_activity = Instant::now();
                    if conn.read_buf.len() > READ_BUFFER_LIMIT {
                        return self.close(conn, token);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return self.close(conn, token),
            }
        }
    }

    /// Answers the handshake inline (cheap, no engine access).
    fn handshake(&self, conn: &mut Connection, token: u64, request: Request) {
        match request {
            Request::Hello { version } if version == PROTOCOL_VERSION => {
                let Ok(frame) = encode_frame(&Response::Hello {
                    version: PROTOCOL_VERSION,
                    server: SERVER_NAME.to_string(),
                }) else {
                    return self.close(conn, token);
                };
                conn.session = Some(Session::new());
                conn.state = ConnState::Ready;
                conn.queue(frame);
                self.stats.sessions.fetch_add(1, Ordering::Relaxed);
                self.flush(conn, token);
            }
            Request::Hello { version } => self.fail(
                conn,
                token,
                format!(
                    "protocol version {version} not supported; \
                     server speaks {PROTOCOL_VERSION}"
                ),
            ),
            _ => self.fail(
                conn,
                token,
                "the first request must be the handshake".into(),
            ),
        }
    }

    /// Executes one post-handshake request and encodes its reply frame
    /// (empty when unencodable: the connection closes); the bool is
    /// `false` when the session should end.
    fn answer(&self, token: u64, session: &mut Session, request: Request) -> (Vec<u8>, bool) {
        let (response, keep_going) = match request {
            Request::Tail { sql } => tail_subscribe(&self.tails, &self.tail_owners, token, &sql),
            Request::TailStop { token: tail } => {
                tail_stop(&self.tails, &self.tail_owners, token, tail)
            }
            other => respond(&self.engine, session, other),
        };
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let frame = match encode_frame(&response) {
            Ok(frame) => frame,
            // A result too large for one frame is a *server-side* error,
            // not a dead socket: substitute a structured Error so the
            // session keeps its "errors never kill a session" contract.
            Err(WireError::FrameTooLarge { len, max }) => {
                encode_frame(&Response::Error(DbError::Unsupported(format!(
                    "result of {len} bytes exceeds the {max}-byte frame limit; \
                     restrict the query (WHERE/LIMIT/THRESHOLD)"
                ))))
                .unwrap_or_default()
            }
            Err(_) => Vec::new(),
        };
        (frame, keep_going)
    }

    /// Polls every standing query and delivers one frame per event to
    /// the owning connection. A frame that cannot be encoded (too large
    /// for the frame limit) ends its subscription with a pushed
    /// `TailStopped` rather than silently skipping a bucket.
    fn push_tail_frames(&self) {
        for event in self.tails.poll(&self.engine) {
            let (tail, response) = match event {
                TailEvent::Frame(f) => (
                    f.token.0,
                    Response::TailFrame {
                        token: f.token.0,
                        bucket: f.bucket,
                        result: f.result,
                    },
                ),
                TailEvent::Lapsed { token, error } => (
                    token.0,
                    Response::TailStopped {
                        token: token.0,
                        reason: Some(error),
                    },
                ),
            };
            let ended = matches!(response, Response::TailStopped { .. });
            let (frame, ended) = match encode_frame(&response) {
                Ok(frame) => (frame, ended),
                Err(e) => {
                    self.tails.unsubscribe(TailToken(tail));
                    let stopped = Response::TailStopped {
                        token: tail,
                        reason: Some(format!("frame could not be delivered: {e}")),
                    };
                    (encode_frame(&stopped).unwrap_or_default(), true)
                }
            };
            let owner = {
                let mut owners = lock(&self.tail_owners);
                if ended {
                    owners.remove(&tail)
                } else {
                    owners.get(&tail).copied()
                }
            };
            if let (Some(conn), false) = (owner, frame.is_empty()) {
                self.deliver(conn, frame);
            }
        }
    }

    /// Appends a pushed frame to a session's write buffer and flushes,
    /// whichever thread owns the connection. Only an unowned connection
    /// may be re-armed here; an owner re-arms with write interest itself.
    fn deliver(&self, token: u64, frame: Vec<u8>) {
        let Some(cell) = self.connection(token) else {
            return; // subscriber vanished; frame is moot
        };
        let mut conn = lock(&cell);
        if conn.state != ConnState::Ready {
            return; // a closing/draining connection is past caring
        }
        conn.queue(frame);
        self.flush(&mut conn, token);
        if !conn.owned && conn.state != ConnState::Closed && conn.write_pending() {
            let _ = self
                .poller
                .rearm(conn.stream.as_raw_fd(), token, Interest::READ_WRITE);
        }
    }

    /// Writes buffered output until done or the socket would block (the
    /// re-arm then asks for writability), and finishes `Closing` /
    /// `Draining` connections whose buffers drained.
    fn flush(&self, conn: &mut Connection, token: u64) {
        while conn.write_pending() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => return self.close(conn, token),
                Ok(n) => conn.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return self.close(conn, token),
            }
        }
        conn.write_buf.clear();
        conn.write_pos = 0;
        match conn.state {
            ConnState::Closing => self.close(conn, token),
            // Frame delivered; half-close so the peer sees EOF after the
            // error instead of a reset, then wait out the linger.
            ConnState::Draining(_) => {
                let _ = conn.stream.shutdown(Shutdown::Write);
            }
            _ => {}
        }
    }

    /// Answers a protocol violation with a structured error, then closes
    /// once it flushes.
    fn fail(&self, conn: &mut Connection, token: u64, message: String) {
        conn.state = ConnState::Closing;
        if let Ok(frame) = encode_frame(&Response::Error(DbError::Unsupported(message))) {
            conn.queue(frame);
        }
        self.flush(conn, token);
    }

    /// Drops every connection that overstayed a deadline, at most once
    /// per tick and by one thread at a time. Connections a thread owns
    /// (or whose lock is busy) are skipped until the next sweep.
    fn sweep_if_due(&self) {
        let now = Instant::now();
        let Ok(mut next) = self.next_sweep.try_lock() else {
            return;
        };
        if now < *next {
            return;
        }
        *next = now + POLL_INTERVAL;
        let connections: Vec<(u64, Arc<Mutex<Connection>>)> = lock(&self.connections)
            .iter()
            .map(|(&token, cell)| (token, Arc::clone(cell)))
            .collect();
        for (token, cell) in connections {
            let Ok(mut conn) = cell.try_lock() else {
                continue;
            };
            let frame_stalled = conn
                .frame_started
                .is_some_and(|s| now.duration_since(s) > FRAME_COMPLETION_TIMEOUT);
            let expired = !conn.owned
                && match conn.state {
                    ConnState::Handshake => {
                        now.duration_since(conn.created) > self.config.handshake_timeout
                    }
                    ConnState::Ready => {
                        now.duration_since(conn.last_activity) > self.config.idle_timeout
                            || frame_stalled
                    }
                    ConnState::Closing => {
                        now.duration_since(conn.last_activity)
                            > self.config.idle_timeout.max(self.config.handshake_timeout)
                    }
                    ConnState::Draining(deadline) => now >= deadline,
                    ConnState::Closed => false,
                };
            if expired {
                self.close(&mut conn, token);
            }
        }
    }

    /// Deregisters a connection and drops it from the registry; the
    /// descriptor closes when the last holder lets go. Any TAIL
    /// subscriptions the session owned die with it — standing queries
    /// never outlive their subscriber.
    fn close(&self, conn: &mut Connection, token: u64) {
        conn.state = ConnState::Closed;
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        lock(&self.connections).remove(&token);
        let orphaned: Vec<u64> = {
            let mut owners = lock(&self.tail_owners);
            let ids: Vec<u64> = owners
                .iter()
                .filter(|&(_, &conn)| conn == token)
                .map(|(&tail, _)| tail)
                .collect();
            for tail in &ids {
                owners.remove(tail);
            }
            ids
        };
        for tail in orphaned {
            self.tails.unsubscribe(TailToken(tail));
        }
    }
}

/// Tries to cut one complete frame from the connection's read buffer,
/// maintaining the partial-frame clock.
fn parse_one_frame(conn: &mut Connection) -> Parsed {
    if conn.read_buf.len() < 4 {
        conn.frame_started = if conn.read_buf.is_empty() {
            None
        } else {
            conn.frame_started.or_else(|| Some(Instant::now()))
        };
        return Parsed::Incomplete;
    }
    let len = u32::from_be_bytes(conn.read_buf[..4].try_into().expect("4-byte slice"));
    if len > MAX_FRAME_LEN {
        let e = WireError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        };
        return Parsed::Violation(format!("malformed request: {e}"));
    }
    let total = 4 + len as usize;
    if conn.read_buf.len() < total {
        conn.frame_started = conn.frame_started.or_else(|| Some(Instant::now()));
        return Parsed::Incomplete;
    }
    let request = decode_message::<Request>(&conn.read_buf[4..total]);
    conn.read_buf.drain(..total);
    conn.frame_started = None;
    conn.last_activity = Instant::now();
    match request {
        Ok(request) => Parsed::Request(request),
        Err(e) => Parsed::Violation(format!("malformed request: {e}")),
    }
}

/// A prepared statement held by one session.
enum Prepared {
    /// A planned `SELECT` — an immutable snapshot out of the shared plan
    /// cache; executing replays it without parsing or planning again.
    Select(Arc<PlannedQuery>),
    /// An `EXPLAIN` — re-reported per execute so the relation annotation
    /// reflects the current catalog (boxed: the statement AST dwarfs the
    /// `Arc` in the other variant).
    Explain(Box<SelectStmt>),
}

/// Per-connection state: the prepared-statement map and the session's
/// `WITH WORLDS` fork-join override.
struct Session {
    prepared: HashMap<u64, Prepared>,
    next_statement: u64,
    worlds_threads: Option<usize>,
}

impl Session {
    fn new() -> Self {
        Session {
            prepared: HashMap::new(),
            next_statement: 1,
            worlds_threads: None,
        }
    }
}

/// Maps an engine-layer error onto the wire's [`DbError`] vocabulary.
fn core_to_db(e: CoreError) -> DbError {
    match e {
        CoreError::Db(db) => db,
        other => DbError::ViewBuild(other.to_string()),
    }
}

/// Runs one SQL statement with session-level routing: the text resolves
/// through the shared plan cache (an exact textual repeat of a `SELECT`
/// skips the parser entirely) and a resolved plan runs on the engine's
/// read path at the session's fork-join width; every other statement
/// goes to the engine parsed, with its text for the journal.
fn run_sql(engine: &SharedEngine, session: &Session, sql: &str) -> Result<QueryOutput, DbError> {
    let resolved = engine.read().plan_cached(sql)?;
    match resolved {
        Ok(planned) => engine.execute_planned(&planned, session.worlds_threads),
        Err(stmt) => engine.execute_statement(sql, stmt),
    }
    .map_err(core_to_db)
}

/// Builds the response to one post-handshake request; the bool is
/// `false` when the session should end.
fn respond(engine: &SharedEngine, session: &mut Session, req: Request) -> (Response, bool) {
    match req {
        Request::Hello { .. } => (
            Response::Error(DbError::Unsupported(
                "session already opened; a second handshake is a protocol violation".into(),
            )),
            false,
        ),
        Request::Query { sql } => match run_sql(engine, session, &sql) {
            Ok(out) => (Response::Result(out), true),
            Err(e) => (Response::Error(e), true),
        },
        Request::Prepare { sql } => {
            let resolved = engine.read().plan_cached(&sql);
            let prepared = match resolved {
                Ok(Ok(planned)) => Ok(Prepared::Select(planned)),
                Ok(Err(Statement::Explain(sel))) => {
                    // Validate now so Prepare surfaces plan errors; the
                    // report itself is rebuilt per execute.
                    Planner::plan(&sel).map(|_| Prepared::Explain(Box::new(sel)))
                }
                Ok(Err(other)) => Err(DbError::ReadOnly(format!(
                    "only read-only statements can be prepared: {other:?}"
                ))),
                Err(e) => Err(e),
            };
            match prepared {
                Ok(p) => {
                    let id = session.next_statement;
                    session.next_statement += 1;
                    session.prepared.insert(id, p);
                    (
                        Response::Prepared {
                            statement: StatementId(id),
                        },
                        true,
                    )
                }
                Err(e) => (Response::Error(e), true),
            }
        }
        Request::Execute { statement } => {
            let result = match session.prepared.get(&statement.0) {
                Some(Prepared::Select(planned)) => engine
                    .execute_planned(planned, session.worlds_threads)
                    .map_err(core_to_db),
                Some(Prepared::Explain(sel)) => engine.read().explain_select(sel),
                None => Err(DbError::Unsupported(format!(
                    "unknown prepared statement {statement}"
                ))),
            };
            match result {
                Ok(out) => (Response::Result(out), true),
                Err(e) => (Response::Error(e), true),
            }
        }
        Request::CloseStatement { statement } => {
            if session.prepared.remove(&statement.0).is_some() {
                (Response::Closed { statement }, true)
            } else {
                (
                    Response::Error(DbError::Unsupported(format!(
                        "unknown prepared statement {statement}"
                    ))),
                    true,
                )
            }
        }
        Request::SetWorldsThreads { threads } => {
            session.worlds_threads = threads.map(|t| usize::try_from(t).unwrap_or(usize::MAX));
            (Response::WorldsThreadsSet { threads }, true)
        }
        Request::Close => (Response::Bye, false),
        // Dispatched in `Reactor::answer` before `respond` (they need the
        // registry and the connection token); reaching here is a bug.
        Request::Tail { .. } | Request::TailStop { .. } => (
            Response::Error(DbError::Unsupported(
                "TAIL requests bypass the plain dispatcher".into(),
            )),
            true,
        ),
    }
}

/// The view-builder configuration the demo server runs with — one fixed,
/// documented config so an out-of-process client (the `server_client`
/// example, the CI smoke job) can rebuild the exact same views locally
/// and compare results byte for byte.
pub fn demo_config() -> tspdb_core::ViewBuilderConfig {
    tspdb_core::ViewBuilderConfig {
        window: 60,
        metric_config: tspdb_core::MetricConfig {
            p: 1,
            ..tspdb_core::MetricConfig::default()
        },
        ..tspdb_core::ViewBuilderConfig::default()
    }
}

/// One `INSERT` statement carrying the 60-reading synthetic series the
/// differential surfaces (the `server_client` example, the end-to-end
/// tests) replay — literals, so a server and a local mirror executing the
/// same text are guaranteed the same data.
pub fn demo_insert_statement(table: &str) -> String {
    let mut stmt = format!("INSERT INTO {table} VALUES ");
    for t in 0..60 {
        if t > 0 {
            stmt.push_str(", ");
        }
        let r = 4.0 + 0.05 * t as f64 + ((t * 7919) % 13) as f64 * 0.01;
        stmt.push_str(&format!("({t}, {r})"));
    }
    stmt
}

/// A [`demo_config`] engine pre-loaded with the demo dataset: 150
/// synthetic temperature readings in `raw_values` and a density view `pv`
/// over them — enough for every statement shape (rows, probabilistic
/// rows, `WITH WORLDS`, aggregates, `EXPLAIN`) to have a target.
pub fn demo_engine() -> Result<SharedEngine, CoreError> {
    let engine = SharedEngine::new(demo_config());
    load_demo_data(&engine)?;
    Ok(engine)
}

/// Loads the demo dataset into an existing engine (the `--demo --data-dir`
/// combination). Skipped when `raw_values` already exists — a recovered
/// data directory keeps its own data.
pub fn load_demo_data(engine: &SharedEngine) -> Result<(), CoreError> {
    if engine
        .read()
        .all_relation_names()
        .iter()
        .any(|n| n == "raw_values")
    {
        return Ok(());
    }
    let series = tspdb_timeseries::generate::TemperatureGenerator::default().generate(150);
    engine.load_series("raw_values", "r", &series)?;
    engine.execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspdb_client::Client;

    fn demo_server() -> ServerHandle {
        Server::bind(
            "127.0.0.1:0",
            demo_engine().unwrap(),
            ServerConfig::default(),
        )
        .unwrap()
        .spawn()
        .unwrap()
    }

    #[test]
    fn serves_queries_and_shuts_down() {
        let handle = demo_server();
        let mut client = Client::connect(handle.addr()).unwrap();
        assert!(client.server_info().starts_with("tspdb-server/"));
        let out = client.query("SELECT * FROM pv THRESHOLD 0.2").unwrap();
        assert!(!out.prob_rows().unwrap().is_empty());
        client.close().unwrap();
        assert_eq!(handle.stats().sessions.load(Ordering::Relaxed), 1);
        handle.shutdown();
    }

    #[test]
    fn prepared_statements_replay_the_plan() {
        let handle = demo_server();
        let mut client = Client::connect(handle.addr()).unwrap();
        let stmt = client
            .prepare("SELECT t, COUNT(*) FROM pv GROUP BY t WITH WORLDS 500 SEED 3")
            .unwrap();
        let a = client.execute(stmt).unwrap();
        let b = client.execute(stmt).unwrap();
        assert_eq!(
            a.aggregate().unwrap().fingerprint(),
            b.aggregate().unwrap().fingerprint()
        );
        client.close_statement(stmt).unwrap();
        assert!(client.execute(stmt).is_err());
        client.close().unwrap();
        handle.shutdown();
    }

    #[test]
    fn writes_and_reads_share_one_catalog() {
        let handle = demo_server();
        let mut a = Client::connect(handle.addr()).unwrap();
        let mut b = Client::connect(handle.addr()).unwrap();
        a.query("CREATE TABLE shared_t (x INT)").unwrap();
        a.query("INSERT INTO shared_t VALUES (1), (2), (3)")
            .unwrap();
        let out = b.query("SELECT COUNT(*) FROM shared_t").unwrap();
        let agg = out.aggregate().unwrap();
        assert_eq!(agg.groups[0].values[0].value, 3.0);
        a.close().unwrap();
        b.close().unwrap();
        handle.shutdown();
    }

    #[test]
    fn session_worlds_override_changes_latency_only_and_is_clearable() {
        let handle = demo_server();
        let mut client = Client::connect(handle.addr()).unwrap();
        const SQL: &str = "SELECT * FROM pv WITH WORLDS 2000 SEED 11";
        let base = client.query(SQL).unwrap().worlds().unwrap().fingerprint();
        client.set_worlds_threads(4).unwrap();
        let overridden = client.query(SQL).unwrap().worlds().unwrap().fingerprint();
        assert_eq!(base, overridden);
        // Clearing the override hands the session back to the engine-wide
        // default — still the same estimate, by the determinism contract.
        client.reset_worlds_threads().unwrap();
        let cleared = client.query(SQL).unwrap().worlds().unwrap().fingerprint();
        assert_eq!(base, cleared);
        client.close().unwrap();
        handle.shutdown();
    }

    #[test]
    fn errors_are_structured_and_non_fatal() {
        let handle = demo_server();
        let mut client = Client::connect(handle.addr()).unwrap();
        let err = client.query("SELECT * FROM nope").unwrap_err();
        assert!(matches!(
            err,
            tspdb_client::ClientError::Server(DbError::UnknownTable(_))
        ));
        let err = client.query("SELEC typo").unwrap_err();
        assert!(matches!(
            err,
            tspdb_client::ClientError::Server(DbError::Parse(_))
        ));
        let err = client.prepare("INSERT INTO raw_values VALUES (1, 2.0)");
        assert!(matches!(
            err,
            Err(tspdb_client::ClientError::Server(DbError::ReadOnly(_)))
        ));
        // The session survived all three.
        assert!(client.query("SELECT * FROM pv LIMIT 1").is_ok());
        client.close().unwrap();
        handle.shutdown();
    }

    #[test]
    fn idle_sessions_are_reaped() {
        let handle = Server::bind(
            "127.0.0.1:0",
            demo_engine().unwrap(),
            ServerConfig {
                idle_timeout: Duration::from_millis(300),
                ..ServerConfig::default()
            },
        )
        .unwrap()
        .spawn()
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        assert!(client.query("SELECT * FROM pv LIMIT 1").is_ok());
        // Stay silent past the idle deadline plus a couple of sweep
        // ticks: the server must have dropped the session.
        std::thread::sleep(Duration::from_millis(1200));
        assert!(client.query("SELECT * FROM pv LIMIT 1").is_err());
        handle.shutdown();
    }

    #[test]
    fn capacity_guard_rejects_with_a_structured_error() {
        let handle = Server::bind(
            "127.0.0.1:0",
            demo_engine().unwrap(),
            ServerConfig {
                max_connections: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap()
        .spawn()
        .unwrap();
        let mut a = Client::connect(handle.addr()).unwrap();
        let b = Client::connect(handle.addr()).unwrap();
        // The third connection is told why, not left hanging.
        let err = Client::connect(handle.addr()).unwrap_err();
        assert!(
            matches!(
                err,
                tspdb_client::ClientError::Server(DbError::Unsupported(ref msg))
                    if msg.contains("capacity")
            ),
            "{err:?}"
        );
        // The established sessions are unaffected...
        assert!(a.query("SELECT * FROM pv LIMIT 1").is_ok());
        // ...and closing one frees its slot.
        drop(b);
        std::thread::sleep(Duration::from_millis(600));
        let mut c = Client::connect(handle.addr()).unwrap();
        assert!(c.query("SELECT * FROM pv LIMIT 1").is_ok());
        c.close().unwrap();
        a.close().unwrap();
        handle.shutdown();
    }

    #[test]
    fn tail_streams_closed_buckets_byte_identically() {
        use tspdb_client::TailNotice;
        use tspdb_probdb::Value;

        let handle = demo_server();
        let mut writer = Client::connect(handle.addr()).unwrap();
        let mut sub = Client::connect(handle.addr()).unwrap();
        writer
            .query("CREATE TABLE stream_t (t INT, r FLOAT)")
            .unwrap();
        writer
            .query("INSERT INTO stream_t VALUES (0, 1.0), (5, 2.0)")
            .unwrap();

        const TAIL_SQL: &str = "TAIL SELECT COUNT(*), SUM(r) FROM stream_t GROUP BY WINDOW(t, 10)";
        let tail = sub.tail(TAIL_SQL).unwrap();
        // Bucket [0, 10) is still open — nothing later exists — so the
        // subscription stays silent.
        assert_eq!(
            sub.tail_next(Some(Duration::from_millis(300))).unwrap(),
            None
        );

        // A row in the next bucket closes [0, 10); the frame is pushed.
        writer
            .query("INSERT INTO stream_t VALUES (12, 3.0)")
            .unwrap();
        let notice = sub
            .tail_next(Some(Duration::from_secs(10)))
            .unwrap()
            .unwrap();
        let TailNotice::Frame(frame) = notice else {
            panic!("expected a frame, got {notice:?}");
        };
        assert_eq!(frame.tail, tail);
        assert_eq!(frame.bucket, 0.0);

        // Byte-identity: the frame equals the one-shot windowed query
        // filtered to the closed bucket.
        let oneshot = writer
            .query("SELECT COUNT(*), SUM(r) FROM stream_t GROUP BY WINDOW(t, 10)")
            .unwrap();
        let mut expected = oneshot.aggregate().unwrap().clone();
        expected
            .groups
            .retain(|g| g.key.first().and_then(Value::as_f64) == Some(0.0));
        assert_eq!(frame.result.fingerprint(), expected.fingerprint());

        // A late subscriber replays the closed history: same frame.
        let mut late = Client::connect(handle.addr()).unwrap();
        let late_tail = late.tail(TAIL_SQL).unwrap();
        let replay = late
            .tail_next(Some(Duration::from_secs(10)))
            .unwrap()
            .unwrap();
        let TailNotice::Frame(replayed) = replay else {
            panic!("expected a replayed frame, got {replay:?}");
        };
        assert_eq!(replayed.tail, late_tail);
        assert_eq!(replayed.bucket, 0.0);
        assert_eq!(replayed.result.fingerprint(), frame.result.fingerprint());

        // Pushes interleave with the subscriber's own round trips: close
        // bucket [10, 20) and make the subscriber issue a query before
        // collecting — the frame is set aside, never misread as a reply.
        writer
            .query("INSERT INTO stream_t VALUES (25, 4.0)")
            .unwrap();
        assert!(sub.query("SELECT COUNT(*) FROM stream_t").is_ok());
        let second = sub
            .tail_next(Some(Duration::from_secs(10)))
            .unwrap()
            .unwrap();
        let TailNotice::Frame(second) = second else {
            panic!("expected the second bucket's frame, got {second:?}");
        };
        assert_eq!(second.bucket, 10.0);

        // Stop is owned: another session cannot cancel, the owner can —
        // once.
        assert!(writer.tail_stop(tail).is_err());
        sub.tail_stop(tail).unwrap();
        assert!(sub.tail_stop(tail).is_err());

        // The late subscriber got the second bucket too.
        let late_second = late
            .tail_next(Some(Duration::from_secs(10)))
            .unwrap()
            .unwrap();
        assert!(
            matches!(late_second, TailNotice::Frame(ref f) if f.bucket == 10.0),
            "{late_second:?}"
        );

        // Dropping the source table lapses the remaining subscription
        // with a pushed, reasoned TailStopped.
        writer.query("DROP TABLE stream_t").unwrap();
        let lapse = late
            .tail_next(Some(Duration::from_secs(10)))
            .unwrap()
            .unwrap();
        let TailNotice::Stopped { tail: lapsed, .. } = lapse else {
            panic!("expected a lapse notice, got {lapse:?}");
        };
        assert_eq!(lapsed, late_tail);

        writer.close().unwrap();
        sub.close().unwrap();
        late.close().unwrap();
        handle.shutdown();
    }

    #[test]
    fn tail_misuse_is_rejected_with_structured_errors() {
        let handle = demo_server();
        let mut client = Client::connect(handle.addr()).unwrap();
        // TAIL without a window cannot stand.
        let err = client.tail("TAIL SELECT COUNT(*) FROM pv").unwrap_err();
        assert!(
            matches!(err, tspdb_client::ClientError::Server(_)),
            "{err:?}"
        );
        // TAIL over the one-shot Query path points at the right door.
        let err = client
            .query("TAIL SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 10)")
            .unwrap_err();
        assert!(
            matches!(
                err,
                tspdb_client::ClientError::Server(DbError::Unsupported(ref msg))
                    if msg.contains("continuous")
            ),
            "{err:?}"
        );
        // Stopping a never-started subscription errors; the session
        // survives all three.
        assert!(client.tail_stop(tspdb_client::TailId(999)).is_err());
        assert!(client.query("SELECT * FROM pv LIMIT 1").is_ok());
        client.close().unwrap();
        handle.shutdown();
    }

    #[test]
    fn silent_prehandshake_sockets_are_dropped() {
        let handle = Server::bind(
            "127.0.0.1:0",
            demo_engine().unwrap(),
            ServerConfig {
                handshake_timeout: Duration::from_millis(300),
                ..ServerConfig::default()
            },
        )
        .unwrap()
        .spawn()
        .unwrap();
        let mut socket = std::net::TcpStream::connect(handle.addr()).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Never say Hello: the server must hang up (EOF), not hold the
        // socket open indefinitely.
        let mut buf = [0u8; 16];
        let n = socket.read(&mut buf).unwrap();
        assert_eq!(n, 0, "expected EOF for a silent pre-handshake socket");
        assert_eq!(handle.stats().sessions.load(Ordering::Relaxed), 0);
        handle.shutdown();
    }
}
