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
//! * One **event-loop thread** owns a hand-rolled `epoll` reactor (the
//!   [`poller`] module — the build environment is offline, so there is no
//!   async runtime) plus the nonblocking listener and every connection's
//!   socket. Per-connection read/write buffers and a small state machine
//!   absorb partial frames: the loop never blocks on any one peer, so
//!   thousands of idle connections cost one registered descriptor each
//!   rather than a parked thread.
//! * A pool of **CPU workers** executes ready requests off the loop.
//!   When a full frame has been buffered the loop hands the decoded
//!   request (plus the session it belongs to) to a worker; the worker
//!   runs it against the engine, *encodes the response frame itself*, and
//!   posts the bytes back through a completion queue + `poller::Waker`.
//!   The loop only ever shuttles buffers.
//! * **Backpressure** is write-interest registration: a response that
//!   does not fit the socket buffer parks in the connection's write
//!   buffer and the descriptor is re-registered for writability; the
//!   loop resumes the flush when the peer drains. A peer that stops
//!   reading stalls only its own connection.
//! * **Admission control**: at most [`ServerConfig::max_connections`]
//!   sockets are resident; a connection beyond the cap is answered with
//!   a structured [`Response::Error`] and drained, never ignored.
//!   Pre-handshake sockets must say `Hello` within
//!   [`ServerConfig::handshake_timeout`], idle sessions are reaped after
//!   [`ServerConfig::idle_timeout`], and a started-but-stalled frame is
//!   bounded by a fixed completion timeout — so no peer can pin loop
//!   state forever.
//! * Sessions own a prepared-statement map (`Prepare` plans a `SELECT`
//!   once — through the engine's shared plan cache — and `Execute`
//!   replays the plan through [`SharedEngine::execute_planned`]) and a
//!   session-scoped `WITH WORLDS` fork-join override that never touches
//!   shared state: it is that call's `worlds_threads` argument. Ad-hoc
//!   `Query` text resolves through the same plan cache and runs through
//!   the same call, skipping parse and plan entirely when the catalog
//!   generation still matches.
//! * **TAIL continuous queries**: a [`tspdb_ingest::TailRegistry`] shared
//!   by the workers holds every standing `TAIL SELECT ... GROUP BY
//!   WINDOW(...)` query. After each request a worker polls the registry
//!   (two generation loads per subscription when nothing changed) and
//!   queues pushed `TailFrame` responses — one per newly closed window
//!   bucket — to the owning connections through the same completion
//!   path replies travel; the loop appends them to write buffers under
//!   the usual backpressure rules. Subscriptions die with their
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
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tspdb_core::{CoreError, SharedEngine};
use tspdb_ingest::{TailEvent, TailRegistry, TailToken};
use tspdb_probdb::plan::{PlannedQuery, Planner};
use tspdb_probdb::sql::SelectStmt;
use tspdb_probdb::{DbError, QueryOutput, Statement};
use tspdb_wire::{
    decode_message, write_frame, Request, Response, StatementId, Wire, WireError, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};

/// How the server identifies itself in the handshake.
pub(crate) const SERVER_NAME: &str = concat!("tspdb-server/", env!("CARGO_PKG_VERSION"));

/// The event loop's housekeeping tick: the longest it will sleep in
/// `epoll_wait` before sweeping timeouts and checking the shutdown flag.
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
    /// CPU worker threads executing ready queries — the bound on
    /// concurrently *executing* requests (connections are not bounded by
    /// this; idle ones cost no thread at all).
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
/// Reactor token of the loop's wake eventfd.
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

    /// Starts the event-loop thread and the CPU worker pool; the returned
    /// handle owns every thread.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        self.listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let waker = Arc::new(Waker::new()?);
        let completions = Arc::new(Mutex::new(VecDeque::new()));
        let tails = Arc::new(TailRegistry::new());
        let tail_owners: Arc<TailOwners> = Arc::new(Mutex::new(HashMap::new()));
        let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));

        let workers: Vec<JoinHandle<()>> = (0..self.config.workers.max(1))
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                let engine = self.engine.clone();
                let stats = Arc::clone(&stats);
                let completions = Arc::clone(&completions);
                let waker = Arc::clone(&waker);
                let tails = Arc::clone(&tails);
                let tail_owners = Arc::clone(&tail_owners);
                std::thread::spawn(move || {
                    worker_loop(
                        &job_rx,
                        engine,
                        &stats,
                        &completions,
                        &waker,
                        &tails,
                        &tail_owners,
                    )
                })
            })
            .collect();

        let poller = Poller::new()?;
        poller.register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(waker.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;

        let event_loop = EventLoop {
            poller,
            listener: self.listener,
            config: self.config,
            shutdown: Arc::clone(&shutdown),
            stats: Arc::clone(&stats),
            waker: Arc::clone(&waker),
            completions,
            job_tx,
            connections: HashMap::new(),
            next_token: TOKEN_FIRST_CONNECTION,
            tails,
            tail_owners,
        };
        let loop_thread = std::thread::spawn(move || event_loop.run());

        Ok(ServerHandle {
            addr,
            shutdown,
            stats,
            waker,
            event_loop: Some(loop_thread),
            workers,
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
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
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

    /// Blocks until the event loop exits (it only exits on shutdown;
    /// this is what the server binary parks on).
    pub fn wait(&mut self) {
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
    }

    /// Raises the shutdown flag, wakes the loop, and joins every thread.
    /// The loop drops its job sender on exit, which drains the worker
    /// pool; open connections are closed without a goodbye frame.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Encodes one message as a length-prefixed frame, reusing
/// [`write_frame`]'s size check.
fn encode_frame<T: Wire>(msg: &T) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::new();
    write_frame(&mut buf, msg)?;
    Ok(buf)
}

/// A ready request handed from the loop to a CPU worker. The session
/// travels with it (the connection is `Busy` and strictly alternating,
/// so nothing else can touch the session meanwhile).
struct Job {
    token: u64,
    request: Request,
    session: Session,
}

/// Which session owns each live TAIL subscription (tail token →
/// reactor connection token). Workers insert on `Tail` and remove on
/// `TailStop`/lapse; the event loop removes every entry of a closing
/// connection.
type TailOwners = Mutex<HashMap<u64, u64>>;

/// Work travelling back from a CPU worker to the event loop.
enum Completion {
    /// A finished request: the encoded response frame plus the returned
    /// session.
    Reply {
        token: u64,
        session: Session,
        frame: Vec<u8>,
        keep_going: bool,
    },
    /// A pushed TAIL frame for whichever connection owns the
    /// subscription — appended to that connection's write buffer outside
    /// the request/response alternation.
    Push { token: u64, frame: Vec<u8> },
}

/// One CPU worker: execute queued jobs until the loop drops the sender.
fn worker_loop(
    jobs: &Mutex<Receiver<Job>>,
    engine: SharedEngine,
    stats: &ServerStats,
    completions: &Mutex<VecDeque<Completion>>,
    waker: &Waker,
    tails: &TailRegistry,
    tail_owners: &TailOwners,
) {
    loop {
        let job = {
            // Recover from a poisoned lock: a worker that panicked
            // mid-`recv` left the receiver itself intact.
            let guard = jobs.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        let Ok(Job {
            token,
            request,
            mut session,
        }) = job
        else {
            return; // event loop gone
        };
        let (response, keep_going) = match request {
            Request::Tail { sql } => tail_subscribe(tails, tail_owners, token, &sql),
            Request::TailStop { token: tail } => tail_stop(tails, tail_owners, token, tail),
            other => respond(&engine, &mut session, other),
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
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
            Err(_) => Vec::new(), // unencodable: the loop closes the connection
        };
        completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(Completion::Reply {
                token,
                session,
                frame,
                keep_going,
            });
        // Whatever just ran may have closed window buckets (an INSERT
        // landing rows past a bucket boundary, a fresh subscription
        // replaying closed history): drive the standing queries and push
        // their frames. Cheap when nothing changed — two generation
        // loads per subscription. Queued after the reply, so a new
        // subscriber sees `TailStarted` before its history frames.
        push_tail_frames(&engine, tails, tail_owners, completions);
        waker.wake();
    }
}

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
            tail_owners
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(token.0, conn);
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
        let mut owners = tail_owners.lock().unwrap_or_else(|e| e.into_inner());
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

/// Polls every standing query and queues one [`Completion::Push`] per
/// event to the owning connection. A frame that cannot be encoded (too
/// large for the frame limit) ends its subscription with a pushed
/// `TailStopped` rather than silently skipping a bucket.
fn push_tail_frames(
    engine: &SharedEngine,
    tails: &TailRegistry,
    tail_owners: &TailOwners,
    completions: &Mutex<VecDeque<Completion>>,
) {
    let events = tails.poll(engine);
    if events.is_empty() {
        return;
    }
    for event in events {
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
                tails.unsubscribe(TailToken(tail));
                let stopped = Response::TailStopped {
                    token: tail,
                    reason: Some(format!("frame could not be delivered: {e}")),
                };
                (encode_frame(&stopped).unwrap_or_default(), true)
            }
        };
        let owner = {
            let mut owners = tail_owners.lock().unwrap_or_else(|e| e.into_inner());
            if ended {
                owners.remove(&tail)
            } else {
                owners.get(&tail).copied()
            }
        };
        let (Some(conn), false) = (owner, frame.is_empty()) else {
            continue; // connection already gone, or frame unencodable
        };
        completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(Completion::Push { token: conn, frame });
    }
}

/// Where a connection is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accepted; waiting for a well-formed `Hello`.
    Handshake,
    /// Session established; waiting for the next request frame.
    Ready,
    /// A request is out with a CPU worker (the session travelled with
    /// it); buffered input is held un-parsed until the completion lands.
    Busy,
    /// Flush the write buffer, then close.
    Closing,
    /// Rejected at capacity: flush the error frame, discard input, close
    /// at EOF or the stored deadline.
    Draining(Instant),
}

/// Per-socket state owned by the event loop.
struct Connection {
    stream: TcpStream,
    state: ConnState,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    session: Option<Session>,
    created: Instant,
    last_activity: Instant,
    /// When the first byte of a still-incomplete frame arrived.
    frame_started: Option<Instant>,
    /// Whether the descriptor is currently registered for writability.
    wants_write: bool,
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
            wants_write: false,
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

/// The reactor: owns the poller, the listener and every connection.
struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    waker: Arc<Waker>,
    completions: Arc<Mutex<VecDeque<Completion>>>,
    job_tx: Sender<Job>,
    connections: HashMap<u64, Connection>,
    next_token: u64,
    tails: Arc<TailRegistry>,
    tail_owners: Arc<TailOwners>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return; // dropping `self` closes every socket and the job sender
            }
            if self.poller.wait(&mut events, Some(POLL_INTERVAL)).is_err() {
                return; // a broken epoll fd is unrecoverable
            }
            for event in std::mem::take(&mut events) {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.waker.drain(),
                    token => self.connection_ready(token, &event),
                }
            }
            self.apply_completions();
            self.sweep(Instant::now());
        }
    }

    /// Accepts until the listener would block; every accepted socket is
    /// made nonblocking and either admitted or rejected with a frame.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Persistent accept errors (EMFILE when fds run out, etc.)
                // retry at the next readiness event or tick instead of
                // spinning exactly when the process is resource-starved.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let now = Instant::now();
        let at_capacity = self.connections.len() >= self.config.max_connections;
        let mut conn = Connection::new(stream, now);
        if at_capacity {
            let Ok(frame) = encode_frame(&Response::Error(DbError::Unsupported(format!(
                "server at capacity ({} connections); try again later",
                self.config.max_connections
            )))) else {
                return;
            };
            conn.write_buf = frame;
            conn.state = ConnState::Draining(now + REJECT_LINGER);
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(conn.stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return; // dropped: the peer sees a reset
        }
        self.connections.insert(token, conn);
        if at_capacity {
            self.flush(token);
        }
    }

    fn connection_ready(&mut self, token: u64, event: &Event) {
        if event.writable {
            self.flush(token);
        }
        if event.readable || event.hangup {
            self.read_ready(token);
        }
    }

    /// Drains the socket into the read buffer (or the void, when
    /// draining a rejected/closing connection), then parses.
    fn read_ready(&mut self, token: u64) {
        let mut disconnected = false;
        let mut flooded = false;
        {
            let Some(conn) = self.connections.get_mut(&token) else {
                return;
            };
            let discard = matches!(conn.state, ConnState::Draining(_) | ConnState::Closing);
            let mut buf = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        disconnected = true;
                        break;
                    }
                    Ok(n) => {
                        if discard {
                            continue;
                        }
                        conn.read_buf.extend_from_slice(&buf[..n]);
                        conn.last_activity = Instant::now();
                        if conn.read_buf.len() > READ_BUFFER_LIMIT {
                            flooded = true;
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        disconnected = true;
                        break;
                    }
                }
            }
        }
        if disconnected || flooded {
            self.close(token);
            return;
        }
        self.process_read_buffer(token);
    }

    /// Parses and dispatches complete frames until the buffer runs dry
    /// or the connection stops being in a parsing state.
    fn process_read_buffer(&mut self, token: u64) {
        loop {
            let parsed = {
                let Some(conn) = self.connections.get_mut(&token) else {
                    return;
                };
                if !matches!(conn.state, ConnState::Handshake | ConnState::Ready) {
                    return;
                }
                parse_one_frame(conn)
            };
            match parsed {
                Parsed::Incomplete => return,
                Parsed::Violation(message) => {
                    self.fail(token, message);
                    return;
                }
                Parsed::Request(request) => self.handle_request(token, request),
            }
        }
    }

    /// Routes one complete request: handshakes are answered inline on
    /// the loop (cheap, no engine access); everything else goes to a
    /// CPU worker with the session in tow.
    fn handle_request(&mut self, token: u64, request: Request) {
        let Some(conn) = self.connections.get_mut(&token) else {
            return;
        };
        match conn.state {
            ConnState::Handshake => match request {
                Request::Hello { version } if version == PROTOCOL_VERSION => {
                    let Ok(frame) = encode_frame(&Response::Hello {
                        version: PROTOCOL_VERSION,
                        server: SERVER_NAME.to_string(),
                    }) else {
                        self.close(token);
                        return;
                    };
                    conn.session = Some(Session::new());
                    conn.state = ConnState::Ready;
                    conn.write_buf.extend_from_slice(&frame);
                    self.stats.sessions.fetch_add(1, Ordering::Relaxed);
                    self.flush(token);
                }
                Request::Hello { version } => {
                    self.fail(
                        token,
                        format!(
                            "protocol version {version} not supported; \
                             server speaks {PROTOCOL_VERSION}"
                        ),
                    );
                }
                _ => self.fail(token, "the first request must be the handshake".into()),
            },
            ConnState::Ready => {
                let session = conn
                    .session
                    .take()
                    .expect("a ready connection owns its session");
                conn.state = ConnState::Busy;
                if self
                    .job_tx
                    .send(Job {
                        token,
                        request,
                        session,
                    })
                    .is_err()
                {
                    self.close(token); // workers gone: shutting down
                }
            }
            _ => {}
        }
    }

    /// Applies every queued worker completion. A `Reply` restores the
    /// session, queues the response frame, flushes, and resumes parsing
    /// anything the peer sent meanwhile; a `Push` appends a TAIL frame to
    /// the owning connection's write buffer regardless of its
    /// request/response state.
    fn apply_completions(&mut self) {
        loop {
            let completion = self
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front();
            let Some(completion) = completion else { return };
            match completion {
                Completion::Reply {
                    token,
                    session,
                    frame,
                    keep_going,
                } => {
                    {
                        let Some(conn) = self.connections.get_mut(&token) else {
                            continue; // connection died while the worker ran
                        };
                        conn.session = Some(session);
                        conn.last_activity = Instant::now();
                        if frame.is_empty() {
                            conn.state = ConnState::Closing; // unencodable response
                        } else {
                            conn.state = if keep_going {
                                ConnState::Ready
                            } else {
                                ConnState::Closing
                            };
                            conn.write_buf.extend_from_slice(&frame);
                        }
                    }
                    self.flush(token);
                    if self
                        .connections
                        .get(&token)
                        .is_some_and(|c| c.state == ConnState::Ready)
                    {
                        self.process_read_buffer(token);
                    }
                }
                Completion::Push { token, frame } => {
                    let deliverable = {
                        let Some(conn) = self.connections.get_mut(&token) else {
                            continue; // subscriber vanished; frame is moot
                        };
                        // Only sessions in their steady state receive
                        // pushes; a closing/draining connection is past
                        // caring.
                        if matches!(conn.state, ConnState::Ready | ConnState::Busy) {
                            conn.write_buf.extend_from_slice(&frame);
                            true
                        } else {
                            false
                        }
                    };
                    if deliverable {
                        self.flush(token);
                    }
                }
            }
        }
    }

    /// Writes buffered output until done or the socket would block;
    /// registers/deregisters write interest accordingly and finishes
    /// `Closing`/`Draining` connections whose buffers drained.
    fn flush(&mut self, token: u64) {
        let mut failed = false;
        let (done, fd) = {
            let Some(conn) = self.connections.get_mut(&token) else {
                return;
            };
            let fd = conn.stream.as_raw_fd();
            while conn.write_pos < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => conn.write_pos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            (conn.write_pos >= conn.write_buf.len(), fd)
        };
        if failed {
            self.close(token);
            return;
        }
        if !done {
            // Backpressure: resume when the peer drains its socket.
            let conn = self
                .connections
                .get_mut(&token)
                .expect("connection checked above");
            if !conn.wants_write {
                conn.wants_write = true;
                let _ = self.poller.modify(fd, token, Interest::READ_WRITE);
            }
            return;
        }
        let state = {
            let conn = self
                .connections
                .get_mut(&token)
                .expect("connection checked above");
            conn.write_buf.clear();
            conn.write_pos = 0;
            if conn.wants_write {
                conn.wants_write = false;
                let _ = self.poller.modify(fd, token, Interest::READ);
            }
            conn.state
        };
        match state {
            ConnState::Closing => self.close(token),
            ConnState::Draining(_) => {
                // Frame delivered; half-close so the peer sees EOF after
                // the error instead of a reset, then wait out the linger.
                if let Some(conn) = self.connections.get(&token) {
                    let _ = conn.stream.shutdown(Shutdown::Write);
                }
            }
            _ => {}
        }
    }

    /// Answers a protocol violation with a structured error, then closes
    /// once it flushes.
    fn fail(&mut self, token: u64, message: String) {
        let frame = encode_frame(&Response::Error(DbError::Unsupported(message)));
        let Some(conn) = self.connections.get_mut(&token) else {
            return;
        };
        conn.state = ConnState::Closing;
        if let Ok(frame) = frame {
            conn.write_buf.extend_from_slice(&frame);
        }
        self.flush(token);
    }

    /// Drops every connection that overstayed a deadline. `Busy`
    /// connections are exempt — their clock restarts when the worker's
    /// completion lands.
    fn sweep(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .connections
            .iter()
            .filter(|(_, conn)| {
                let frame_stalled = conn
                    .frame_started
                    .is_some_and(|s| now.duration_since(s) > FRAME_COMPLETION_TIMEOUT);
                match conn.state {
                    ConnState::Handshake => {
                        now.duration_since(conn.created) > self.config.handshake_timeout
                    }
                    ConnState::Ready => {
                        now.duration_since(conn.last_activity) > self.config.idle_timeout
                            || frame_stalled
                    }
                    ConnState::Busy => false,
                    ConnState::Closing => {
                        now.duration_since(conn.last_activity)
                            > self.config.idle_timeout.max(self.config.handshake_timeout)
                    }
                    ConnState::Draining(deadline) => now >= deadline,
                }
            })
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            self.close(token);
        }
    }

    /// Removes a connection; dropping the stream closes the descriptor
    /// (the explicit deregister just keeps the epoll set tidy first).
    /// Any TAIL subscriptions the session owned die with it — standing
    /// queries never outlive their subscriber.
    fn close(&mut self, token: u64) {
        if let Some(conn) = self.connections.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
        let orphaned: Vec<u64> = {
            let mut owners = self.tail_owners.lock().unwrap_or_else(|e| e.into_inner());
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
        // Dispatched in `worker_loop` before `respond` (they need the
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
