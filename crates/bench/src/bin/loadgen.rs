//! Load generator for the wire-protocol server: drives large sweeps of
//! concurrent connections (default 64/256/1024) through a fixed query mix
//! and reports queries/sec plus p50/p95/p99 latency.
//!
//! The generator is event-driven like the server it exercises: every
//! connection is a nonblocking socket registered with one
//! [`tspdb_server::poller::Poller`], so a thousand concurrent sessions
//! cost one descriptor each rather than a thread each. Each connection
//! walks the same script — handshake, prepare both prepared statements,
//! then `--rounds` repetitions of the mix — with per-request latency
//! measured from enqueue to verified response.
//!
//! Every response is checked against the single-connection baseline —
//! the executor's determinism contract (bit-identical MC estimates at
//! every thread count *and* under concurrency) must hold across the
//! wire, so any divergence fails the run.
//!
//! ```text
//! loadgen [--rounds N] [--conns A,B,C]   # defaults: 20 rounds, 64,256,1024
//! ```
//!
//! A second mode drives the **streaming ingestion** subsystem end to end
//! against a persistent data directory: a writer group-commits batched
//! appends through [`tspdb_ingest::Appender`] while reader connections
//! watch the row count grow monotonically over the wire and a TAIL
//! subscriber checks every pushed window frame against the equivalent
//! one-shot query (closed buckets are immutable under monotone appends,
//! so the comparison is exact whenever it runs). `--verify` reopens the
//! directory — typically after a `kill -9` — recovers, and diffs the
//! recovered table and Ω-view fingerprints against a never-crashed
//! in-memory twin fed the same deterministic row prefix.
//!
//! ```text
//! loadgen --mode streaming --data-dir DIR [--appends N] [--batch B] [--readers R]
//! loadgen --mode streaming --data-dir DIR --verify
//! ```

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};
use tspdb_client::Client;
use tspdb_server::poller::{Event, Interest, Poller};
use tspdb_server::{demo_engine, Server, ServerConfig, ServerHandle};
use tspdb_wire::{
    canonical_result_bytes, decode_message, write_frame, Request, Response, StatementId,
    PROTOCOL_VERSION,
};

/// The per-round query mix: the row pipeline, the closed-form answer of a
/// row-level `WITH WORLDS` domain and a `WITH SYNOPSIS` whole-relation
/// aggregate, answered exactly from the view's running totals (both as prepared
/// statements — plan once, execute many), exact grouped aggregates,
/// EXPLAIN of a `WITH WORLDS` aggregate (planned onto exact evaluation: it
/// has no `HAVING` event to sample), and a top-k probability sort.
/// Every statement is read-only, so each repetition past the first rides
/// the server's shared plan cache.
const AD_HOC: &[&str] = &[
    "SELECT * FROM pv THRESHOLD 0.2",
    "SELECT t, COUNT(*), SUM(lambda) FROM pv GROUP BY t HAVING COUNT(*) >= 2",
    "EXPLAIN SELECT COUNT(*) FROM pv WITH WORLDS 500 SEED 9",
    "SELECT t FROM pv WHERE prob >= 0.3 ORDER BY prob DESC LIMIT 8",
];
const PREPARED: &[&str] = &[
    "SELECT * FROM pv WITH WORLDS 1000 SEED 5",
    "SELECT COUNT(*), SUM(lambda) FROM pv WITH SYNOPSIS BUCKETS 64",
];

/// `setrlimit(RLIMIT_NOFILE)` via the glibc symbols the standard library
/// already links: a 1k-connection sweep needs ~2 descriptors per
/// connection (client end + server end, both in this process), which
/// overflows the common 1024 soft limit. Best-effort — a refusal just
/// means the sweep runs under whatever limit the kernel grants.
#[allow(unsafe_code)]
mod rlimit {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }

    /// Raises the soft fd limit toward `target` (capped by the hard
    /// limit); returns the limit now in force.
    pub fn raise_nofile(target: u64) -> u64 {
        let mut lim = Rlimit { cur: 0, max: 0 };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return 0;
        }
        if lim.cur < target {
            let want = Rlimit {
                cur: target.min(lim.max),
                max: lim.max,
            };
            unsafe {
                let _ = setrlimit(RLIMIT_NOFILE, &want);
                let _ = getrlimit(RLIMIT_NOFILE, &mut lim);
            }
        }
        lim.cur
    }
}

/// What the script expects back for the request just sent.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Hello,
    Prepared(u64),
    /// A query result to verify against `baseline[index]`.
    Result(usize),
    Bye,
}

/// Yields the script's request at `step`, or `None` past the end:
/// handshake, both prepares, `rounds` repetitions of the mix, close.
fn step_request(step: usize, rounds: usize) -> Option<(Request, Expect)> {
    if step == 0 {
        return Some((
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Expect::Hello,
        ));
    }
    let step = step - 1;
    if step < PREPARED.len() {
        return Some((
            Request::Prepare {
                sql: PREPARED[step].to_string(),
            },
            Expect::Prepared(step as u64 + 1),
        ));
    }
    let step = step - PREPARED.len();
    let per_round = AD_HOC.len() + PREPARED.len();
    if step < rounds * per_round {
        let i = step % per_round;
        if i < AD_HOC.len() {
            return Some((
                Request::Query {
                    sql: AD_HOC[i].to_string(),
                },
                Expect::Result(i),
            ));
        }
        let j = i - AD_HOC.len();
        return Some((
            Request::Execute {
                statement: StatementId(j as u64 + 1),
            },
            Expect::Result(AD_HOC.len() + j),
        ));
    }
    if step == rounds * per_round {
        return Some((Request::Close, Expect::Bye));
    }
    None
}

/// One scripted connection: a nonblocking socket plus enough state to
/// resume mid-frame in either direction.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    step: usize,
    expect: Expect,
    sent_at: Instant,
    wants_write: bool,
    done: bool,
    /// Nanosecond latency of every verified query result.
    latencies: Vec<u64>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            step: 0,
            expect: Expect::Hello,
            sent_at: Instant::now(),
            wants_write: false,
            done: false,
            latencies: Vec::new(),
        }
    }

    /// Queues the current step's request frame and arms the clock.
    fn queue_step(&mut self, rounds: usize) {
        let Some((request, expect)) = step_request(self.step, rounds) else {
            self.done = true;
            return;
        };
        self.expect = expect;
        self.sent_at = Instant::now();
        write_frame(&mut self.write_buf, &request).expect("request frames always encode");
    }

    /// Writes until blocked or drained; returns whether bytes remain.
    fn flush(&mut self) -> bool {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => panic!("server closed the connection mid-request"),
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("loadgen write failed: {e}"),
            }
        }
        self.write_buf.clear();
        self.write_pos = 0;
        false
    }

    /// Reads until blocked; returns whether the peer hung up (which is
    /// only fatal if buffered frames don't finish the script — the `Bye`
    /// frame and the EOF often arrive in the same readiness event).
    fn fill(&mut self) -> bool {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return true,
                Ok(n) => self.read_buf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("loadgen read failed: {e}"),
            }
        }
    }

    /// Cuts one complete response frame out of the read buffer.
    fn next_frame(&mut self) -> Option<Vec<u8>> {
        if self.read_buf.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes(self.read_buf[..4].try_into().unwrap()) as usize;
        if self.read_buf.len() < 4 + len {
            return None;
        }
        let body = self.read_buf[4..4 + len].to_vec();
        self.read_buf.drain(..4 + len);
        Some(body)
    }

    /// Verifies one response against the script and advances to the next
    /// step. Returns `true` when the script completed.
    fn verify(&mut self, body: &[u8], baseline: &[Vec<u8>], rounds: usize) -> bool {
        let response: Response = decode_message(body).expect("well-formed response frame");
        match (self.expect, response) {
            (Expect::Hello, Response::Hello { version, .. }) => {
                assert_eq!(version, PROTOCOL_VERSION);
            }
            (Expect::Prepared(id), Response::Prepared { statement }) => {
                assert_eq!(statement.0, id, "prepared statement ids are sequential");
            }
            (Expect::Result(index), Response::Result(out)) => {
                self.latencies
                    .push(self.sent_at.elapsed().as_nanos() as u64);
                assert_eq!(
                    canonical_result_bytes(&out),
                    baseline[index],
                    "response diverged from the single-connection baseline (step {})",
                    self.step
                );
            }
            (Expect::Bye, Response::Bye) => {
                self.done = true;
                return true;
            }
            (expect, other) => panic!("expected {expect:?}, got {other:?}"),
        }
        self.step += 1;
        self.queue_step(rounds);
        false
    }
}

/// Outcome of one connection-count sweep.
struct SweepResult {
    queries: usize,
    wall: Duration,
    /// Sorted nanosecond latencies across every connection.
    latencies: Vec<u64>,
}

/// Drives `conns` scripted connections concurrently off one poller.
fn sweep(addr: &str, conns: usize, rounds: usize, baseline: &[Vec<u8>]) -> SweepResult {
    let started = Instant::now();
    let poller = Poller::new().expect("poller");
    let mut table: HashMap<u64, Conn> = HashMap::with_capacity(conns);
    for token in 0..conns as u64 {
        let stream = TcpStream::connect(addr).expect("loadgen connects");
        stream.set_nonblocking(true).expect("nonblocking socket");
        let _ = stream.set_nodelay(true);
        let mut conn = Conn::new(stream);
        conn.queue_step(rounds);
        let blocked = conn.flush();
        let interest = if blocked {
            conn.wants_write = true;
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        poller
            .register(conn.stream.as_raw_fd(), token, interest)
            .expect("register connection");
        table.insert(token, conn);
    }

    let mut events: Vec<Event> = Vec::new();
    let mut active = table.len();
    let mut last_progress = Instant::now();
    let mut latencies: Vec<u64> = Vec::new();
    while active > 0 {
        poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .expect("poller wait");
        if events.is_empty() {
            assert!(
                last_progress.elapsed() < Duration::from_secs(60),
                "loadgen stalled: {active} connections made no progress for 60s"
            );
            continue;
        }
        last_progress = Instant::now();
        for event in std::mem::take(&mut events) {
            let Some(conn) = table.get_mut(&event.token) else {
                continue;
            };
            if event.writable {
                let blocked = conn.flush();
                if !blocked && conn.wants_write {
                    conn.wants_write = false;
                    poller
                        .modify(conn.stream.as_raw_fd(), event.token, Interest::READ)
                        .expect("drop write interest");
                }
            }
            if event.readable {
                let eof = conn.fill();
                let mut finished = false;
                while let Some(body) = conn.next_frame() {
                    if conn.verify(&body, baseline, rounds) {
                        finished = true;
                        break;
                    }
                }
                if finished {
                    let mut conn = table.remove(&event.token).expect("finished connection");
                    let _ = poller.deregister(conn.stream.as_raw_fd());
                    latencies.append(&mut conn.latencies);
                    active -= 1;
                    continue;
                }
                assert!(
                    !eof,
                    "server hung up before the script finished (step {})",
                    conn.step
                );
                let blocked = conn.flush();
                if blocked != conn.wants_write {
                    conn.wants_write = blocked;
                    let interest = if blocked {
                        Interest::READ_WRITE
                    } else {
                        Interest::READ
                    };
                    poller
                        .modify(conn.stream.as_raw_fd(), event.token, interest)
                        .expect("update write interest");
                }
            }
        }
    }
    let wall = started.elapsed();
    latencies.sort_unstable();
    SweepResult {
        queries: latencies.len(),
        wall,
        latencies,
    }
}

/// Nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn start_server(max_conns: usize) -> ServerHandle {
    let engine = demo_engine().expect("demo dataset builds");
    Server::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            workers: 8,
            max_connections: max_conns + 64,
            // A 1k-connection ramp handshakes sequentially through one
            // loop; give the tail plenty of room.
            handshake_timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
    .spawn()
    .expect("start server threads")
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--rounds N] [--conns A,B,C]\n       \
         loadgen --mode streaming --data-dir DIR [--appends N] [--batch B] [--readers R]\n       \
         loadgen --mode streaming --data-dir DIR --verify"
    );
    std::process::exit(2);
}

/// Streaming-ingestion exercise: group-committed appends against a
/// persistent directory under concurrent wire readers and an active TAIL
/// subscription, plus a crash-recovery verifier built on the
/// incremental-equals-rebuild invariant.
mod streaming {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::{Duration, Instant};
    use tspdb_client::{Client, TailNotice};
    use tspdb_core::{MetricConfig, SharedEngine, ViewBuilderConfig};
    use tspdb_ingest::{Appender, AppenderConfig};
    use tspdb_probdb::{QueryOutput, Value};
    use tspdb_server::{Server, ServerConfig};
    use tspdb_wire::canonical_result_bytes;

    /// CLI options for `--mode streaming`.
    pub struct Options {
        pub data_dir: PathBuf,
        pub appends: usize,
        pub batch: usize,
        pub readers: usize,
    }

    const TABLE_SQL: &str = "CREATE TABLE stream (t INT, r FLOAT)";
    const VIEW_SQL: &str = "CREATE VIEW sv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM stream";
    /// The windowed aggregate both the TAIL subscription and its one-shot
    /// verification twin run. Exact evaluation on a deterministic table,
    /// so equality is byte-equality, not approximation.
    const ONESHOT_SQL: &str = "SELECT COUNT(*), SUM(r) FROM stream GROUP BY WINDOW(t, 512)";
    const TAIL_SQL: &str = "TAIL SELECT COUNT(*), SUM(r) FROM stream GROUP BY WINDOW(t, 512)";
    /// Full scan of the Ω-view — every tuple, every probability — for the
    /// recovery diff.
    const VIEW_PROBE_SQL: &str = "SELECT * FROM sv THRESHOLD 0.0";
    /// Rows that must exist before `CREATE VIEW` (the build needs at
    /// least one full model window; 64 also keeps the DDL off the
    /// first group commit).
    const VIEW_MIN_ROWS: u64 = 64;

    /// Engine defaults for the stream: a short AR(1) window keeps the
    /// per-batch incremental Ω-maintenance cheap enough to sustain 100k+
    /// appends. The σ-cache stays on (the default), so the run exercises
    /// ladder-preserving appends, regeneration when min σ̂ falls and, after
    /// a crash, the rebuild that restores the unpersisted model.
    fn config() -> ViewBuilderConfig {
        ViewBuilderConfig {
            window: 30,
            metric_config: MetricConfig {
                p: 1,
                q: 0,
                ..MetricConfig::default()
            },
            ..ViewBuilderConfig::default()
        }
    }

    /// The deterministic reading at time `t`. Every run — first boot,
    /// post-crash resume, in-memory rebuild twin — generates the same
    /// row for the same `t`, which is what makes crash recovery checkable:
    /// WAL replay drops a torn tail, so the recovered table is always the
    /// exact prefix `t = 0..n-1` of this sequence for some `n`.
    fn stream_row(t: i64) -> Vec<Value> {
        vec![
            Value::Int(t),
            Value::Float(20.0 + 3.0 * (t as f64 * 0.21).sin()),
        ]
    }

    /// `COUNT(*)` of the stream table, or `None` when it doesn't exist.
    fn row_count(engine: &SharedEngine) -> Option<u64> {
        let out = engine.query("SELECT COUNT(*) FROM stream").ok()?;
        let agg = out.aggregate()?;
        Some(agg.groups.first()?.values.first()?.value.round() as u64)
    }

    fn has_view(engine: &SharedEngine) -> bool {
        engine.read().all_relation_names().iter().any(|n| n == "sv")
    }

    /// `COUNT(*)` over the wire, as a reader connection sees it.
    fn wire_count(client: &mut Client) -> u64 {
        let out: QueryOutput = client
            .query("SELECT COUNT(*) FROM stream")
            .expect("reader COUNT query");
        let agg = out.aggregate().expect("COUNT(*) aggregates");
        agg.groups
            .first()
            .and_then(|g| g.values.first())
            .map_or(0, |v| v.value.round() as u64)
    }

    /// Checks one pushed TAIL frame against the one-shot windowed query
    /// run *now* on the same connection: the frame's bucket closed before
    /// emission and appends are monotone in `t`, so the bucket is
    /// immutable and the fingerprints must match bit for bit.
    fn verify_frame(client: &mut Client, frame: &tspdb_client::TailFrame) {
        let out = client.query(ONESHOT_SQL).expect("one-shot windowed query");
        let full = out.aggregate().expect("windowed aggregate").clone();
        let mut filtered = full;
        filtered.groups.retain(|g| {
            g.key.first().and_then(Value::as_f64).map(f64::to_bits) == Some(frame.bucket.to_bits())
        });
        assert_eq!(
            frame.result.fingerprint(),
            filtered.fingerprint(),
            "TAIL frame for bucket {} diverged from the one-shot query",
            frame.bucket
        );
    }

    /// The ingest run: writer group-commits `appends` rows while `readers`
    /// wire connections assert the visible row count only ever grows and a
    /// TAIL subscriber verifies every closed-bucket frame. Designed to be
    /// `kill -9`ed at any instant — every durable state is one `--verify`
    /// away from being proven correct.
    pub fn run(opts: Options) {
        let engine =
            SharedEngine::open_persistent(&opts.data_dir, config()).expect("open data dir");
        let recovered = match row_count(&engine) {
            Some(n) => n,
            None => {
                engine.execute(TABLE_SQL).expect("create stream table");
                0
            }
        };
        let handle = Server::bind(
            "127.0.0.1:0",
            engine.clone(),
            ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            },
        )
        .expect("bind ephemeral port")
        .spawn()
        .expect("start server threads");
        let addr = handle.addr().to_string();
        println!(
            "loadgen[streaming]: {} recovered rows in {}, server on {addr}, \
             appending {} more (batch {}, {} readers)",
            recovered,
            opts.data_dir.display(),
            opts.appends,
            opts.batch,
            opts.readers,
        );

        let stop = AtomicBool::new(false);
        let reader_queries = AtomicU64::new(0);
        let frames_checked = AtomicU64::new(0);
        let started = Instant::now();
        std::thread::scope(|scope| {
            // TAIL subscriber: every pushed frame is fingerprint-checked
            // against the one-shot query, buckets must arrive in order,
            // and a lapse is a failure (nothing drops the table here).
            let subscriber = scope.spawn(|| {
                let mut client = Client::connect(&addr).expect("subscriber connects");
                let tail = client.tail(TAIL_SQL).expect("TAIL subscription");
                let mut last_bucket = f64::NEG_INFINITY;
                let mut pump = |client: &mut Client, timeout| match client
                    .tail_next(Some(timeout))
                    .expect("tail_next")
                {
                    Some(TailNotice::Frame(frame)) => {
                        assert!(
                            frame.bucket > last_bucket,
                            "TAIL buckets must close in order: {} after {}",
                            frame.bucket,
                            last_bucket
                        );
                        last_bucket = frame.bucket;
                        verify_frame(client, &frame);
                        frames_checked.fetch_add(1, Ordering::Relaxed);
                        true
                    }
                    Some(TailNotice::Stopped { reason, .. }) => {
                        panic!("TAIL lapsed mid-stream: {reason}")
                    }
                    None => false,
                };
                while !stop.load(Ordering::Relaxed) {
                    pump(&mut client, Duration::from_millis(100));
                }
                // Workers poll the registry after every request, so one
                // more query flushes any frame the final group commit
                // closed; then drain until quiet.
                let _ = wire_count(&mut client);
                while pump(&mut client, Duration::from_millis(300)) {}
                client.tail_stop(tail).expect("clean TAIL stop");
                client.close().expect("clean close");
            });
            let readers: Vec<_> = (0..opts.readers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut client = Client::connect(&addr).expect("reader connects");
                        let mut last = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let count = wire_count(&mut client);
                            assert!(
                                count >= last,
                                "visible row count went backwards: {count} < {last}"
                            );
                            last = count;
                            reader_queries.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        client.close().expect("clean close");
                    })
                })
                .collect();

            // The writer: one Appender, group commit per `--batch` rows.
            let mut appender = Appender::new(
                engine.clone(),
                AppenderConfig {
                    max_rows: opts.batch,
                    max_delay: Duration::from_millis(50),
                },
            );
            let mut view_ready = has_view(&engine);
            if !view_ready && recovered >= VIEW_MIN_ROWS {
                engine.execute(VIEW_SQL).expect("create Ω-view");
                view_ready = true;
            }
            for i in 0..opts.appends as u64 {
                let t = (recovered + i) as i64;
                appender.append("stream", stream_row(t)).expect("append");
                let total = recovered + i + 1;
                if !view_ready && total >= VIEW_MIN_ROWS {
                    appender.flush().expect("flush before CREATE VIEW");
                    engine.execute(VIEW_SQL).expect("create Ω-view");
                    view_ready = true;
                }
                if total % 20_000 == 0 {
                    println!(
                        "loadgen[streaming]: {total} rows durable \
                         ({:.0} rows/s)",
                        (i + 1) as f64 / started.elapsed().as_secs_f64()
                    );
                }
            }
            appender.flush().expect("final flush");
            let stats = appender.stats();
            let wall = started.elapsed();
            stop.store(true, Ordering::Relaxed);
            for reader in readers {
                reader.join().expect("reader thread");
            }
            subscriber.join().expect("subscriber thread");
            println!(
                "loadgen[streaming]: {} rows in {} group commits over {:.1}s \
                 ({:.0} rows/s), {} reader queries, {} TAIL frames verified",
                stats.rows,
                stats.flushes,
                wall.as_secs_f64(),
                stats.rows as f64 / wall.as_secs_f64(),
                reader_queries.load(Ordering::Relaxed),
                frames_checked.load(Ordering::Relaxed),
            );
        });
        handle.shutdown();
        let final_count = row_count(&engine).expect("stream table exists");
        assert_eq!(final_count, recovered + opts.appends as u64);
        println!("loadgen[streaming]: done, {final_count} rows durable");
    }

    /// The crash-recovery check: reopen the directory (replaying the WAL,
    /// dropping any torn tail), then rebuild a never-crashed in-memory
    /// twin from the recovered row count and demand byte-identical query
    /// results. Two invariants make this exact: recovered rows are always
    /// a strict prefix of the deterministic `stream_row` sequence, and an
    /// incrementally-maintained Ω-view is bit-identical to one rebuilt
    /// from scratch over the same rows.
    pub fn verify(opts: Options) {
        let engine =
            SharedEngine::open_persistent(&opts.data_dir, config()).expect("open data dir");
        let n = row_count(&engine).expect("recovered stream table");
        assert!(n > 0, "nothing recovered from {}", opts.data_dir.display());
        let view_recovered = has_view(&engine);
        println!(
            "loadgen[verify]: recovered {n} rows (Ω-view: {}), rebuilding twin",
            if view_recovered { "present" } else { "absent" }
        );

        let twin = SharedEngine::new(config());
        twin.execute(TABLE_SQL).expect("twin table");
        let mut t = 0i64;
        while (t as u64) < n {
            let chunk = 4096.min(n - t as u64) as i64;
            twin.append_rows("stream", (t..t + chunk).map(stream_row).collect())
                .expect("twin append");
            t += chunk;
        }
        if view_recovered {
            // Built AFTER every append — the recovered view was maintained
            // incrementally, so equality below is the invariant at work.
            twin.execute(VIEW_SQL).expect("twin Ω-view");
        }

        let diff = |sql: &str| {
            let recovered = canonical_result_bytes(&engine.query(sql).expect("recovered query"));
            let rebuilt = canonical_result_bytes(&twin.query(sql).expect("twin query"));
            assert_eq!(
                recovered, rebuilt,
                "recovered state diverged from the never-crashed twin on {sql:?}"
            );
        };
        diff(ONESHOT_SQL);
        if view_recovered {
            diff(VIEW_PROBE_SQL);
        }
        println!(
            "loadgen[verify]: recovered fingerprints byte-identical to the \
             never-crashed twin ({n} rows{})",
            if view_recovered {
                ", Ω-view included"
            } else {
                ""
            }
        );
    }
}

fn main() {
    let mut mode = String::from("sweep");
    let mut rounds = 20usize;
    let mut conn_counts: Vec<usize> = vec![64, 256, 1024];
    let mut data_dir: Option<std::path::PathBuf> = None;
    let mut appends = 120_000usize;
    let mut batch = 64usize;
    let mut readers = 2usize;
    let mut verify = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mode" => match args.next() {
                Some(m) => mode = m,
                None => usage(),
            },
            "--rounds" => match args.next().and_then(|r| r.parse().ok()) {
                Some(r) => rounds = r,
                None => usage(),
            },
            "--conns" => match args.next().map(|c| {
                c.split(',')
                    .map(|part| part.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
            }) {
                Some(Ok(counts)) if !counts.is_empty() => conn_counts = counts,
                _ => usage(),
            },
            "--data-dir" => match args.next() {
                Some(dir) => data_dir = Some(std::path::PathBuf::from(dir)),
                None => usage(),
            },
            "--appends" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => appends = n,
                None => usage(),
            },
            "--batch" => match args.next().and_then(|b| b.parse().ok()) {
                Some(b) if b > 0 => batch = b,
                _ => usage(),
            },
            "--readers" => match args.next().and_then(|r| r.parse().ok()) {
                Some(r) => readers = r,
                None => usage(),
            },
            "--verify" => verify = true,
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    match mode.as_str() {
        "sweep" => {}
        "streaming" => {
            let Some(data_dir) = data_dir else {
                eprintln!("--mode streaming requires --data-dir");
                usage();
            };
            let opts = streaming::Options {
                data_dir,
                appends,
                batch,
                readers,
            };
            if verify {
                streaming::verify(opts);
            } else {
                streaming::run(opts);
            }
            return;
        }
        other => {
            eprintln!("unknown mode: {other}");
            usage();
        }
    }

    let max_conns = conn_counts.iter().copied().max().unwrap_or(1);
    let fd_limit = rlimit::raise_nofile((4 * max_conns + 256) as u64);
    let handle = start_server(max_conns);
    let addr = handle.addr().to_string();
    println!(
        "loadgen: server on {addr}, {rounds} mix-rounds per connection, \
         sweep {conn_counts:?}, fd limit {fd_limit}"
    );

    // Single-connection baseline: the canonical response bytes every
    // concurrent connection must reproduce.
    let baseline: Vec<Vec<u8>> = {
        let mut client = Client::connect(&addr).expect("baseline connects");
        let base: Vec<Vec<u8>> = AD_HOC
            .iter()
            .chain(PREPARED.iter())
            .map(|sql| canonical_result_bytes(&client.query(sql).expect("baseline query")))
            .collect();
        client.close().expect("clean close");
        base
    };

    println!(
        "{:>12}  {:>10}  {:>12}  {:>10}  {:>9}  {:>9}  {:>9}",
        "connections", "queries", "wall", "queries/s", "p50", "p95", "p99"
    );
    for &conns in &conn_counts {
        let result = sweep(&addr, conns, rounds, &baseline);
        let qps = result.queries as f64 / result.wall.as_secs_f64();
        let (p50, p95, p99) = (
            percentile(&result.latencies, 0.50),
            percentile(&result.latencies, 0.95),
            percentile(&result.latencies, 0.99),
        );
        println!(
            "{conns:>12}  {:>10}  {:>10.1}ms  {qps:>10.1}  {:>7.2}ms  {:>7.2}ms  {:>7.2}ms",
            result.queries,
            result.wall.as_secs_f64() * 1e3,
            p50 as f64 / 1e6,
            p95 as f64 / 1e6,
            p99 as f64 / 1e6,
        );
    }

    handle.shutdown();
    println!("loadgen: every response matched the single-connection baseline");
}
