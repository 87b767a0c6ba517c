//! `query_point` and `query_scan`: closed-loop statements over real
//! loopback TCP into the epoll front-end, which is hosted in this process
//! only because the engine handle is the one way to its counters.
//!
//! Two connections each wait for every reply before sending the next
//! request. The order of requests is a fixed rotation, so two runs differ
//! in statement parameters (seeded) but never in mix.

use crate::common::{engine_config, Outcome, RunCfg, ScratchDir, THREADS};
use crate::prng::{Digest, Prng};
use crate::stats::{self, Means};
use crate::trace::{LayerTable, Span, Tracer};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use tspdb_client::Client;
use tspdb_core::SharedEngine;
use tspdb_probdb::{parse, Planner, QueryOutput, Statement};
use tspdb_server::{Server, ServerConfig};
use tspdb_timeseries::generate::TemperatureGenerator;
use tspdb_wire::{
    canonical_result_bytes, decode_message, encode_message, Request, Response, StatementId,
};

/// Seconds between readings of the generated series (the generator's
/// default), so reading `i` sits at `t = 120 i`.
const STEP: i64 = 120;
/// Readings at the head of a series that yield no tuples (the model
/// window).
const WARMUP: i64 = 60;
/// One request in `COLD_EVERY` comes from the cold pool: 20 %.
const COLD_EVERY: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Scan,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Exact,
    Worlds,
    Synopsis,
    Explain,
}

#[derive(Debug)]
struct Stmt {
    sql: String,
    class: Class,
    /// Sent as `Prepare` once per connection, then `Execute`.
    prepared: bool,
    /// The statement targets the evicted twin.
    on_disk: bool,
    /// The in-process answer every wire response must equal
    /// (`QueryOutput::None` until [`answers`] has run).
    expected: QueryOutput,
}

struct Sizes {
    readings: usize,
    hot: usize,
    cold: usize,
}

struct Workload {
    stmts: Vec<Stmt>,
    /// Indices into `stmts`, walked round-robin.
    hot: Vec<usize>,
    /// Walked once around before any text repeats; longer than the plan
    /// cache, so every cold request is a plan-cache miss.
    cold: Vec<usize>,
    /// Tuples in the relation the statements scan.
    relation_rows: usize,
}

fn sizes(kind: Kind, quick: bool) -> Sizes {
    match (kind, quick) {
        // ~120 k tuples; 64 hot texts; a cold pool eight times the
        // 1 024-entry plan cache.
        (Kind::Point, false) => Sizes {
            readings: 20_000,
            hot: 64,
            cold: 8_192,
        },
        (Kind::Point, true) => Sizes {
            readings: 3_000,
            hot: 64,
            cold: 1_280,
        },
        // ~240 k tuples, ~10 MB on disk against a 4 MiB page cache.
        (Kind::Scan, false) => Sizes {
            readings: 40_000,
            hot: 16,
            cold: 0,
        },
        (Kind::Scan, true) => Sizes {
            readings: 6_000,
            hot: 16,
            cold: 0,
        },
    }
}

/// A selective statement over `vp`; `shape` picks the form, `p` its
/// parameters.
fn point_sql(shape: usize, readings: usize, p: &mut Prng) -> (String, Class) {
    let span = readings as i64 - WARMUP - 200;
    let a = STEP * (WARMUP + p.below(span as u64) as i64);
    match shape {
        0 => {
            let b = a + STEP * (40 + p.below(20) as i64);
            let tau = 0.15 + 0.01 * p.below(20) as f64;
            (
                format!("SELECT * FROM vp WHERE t >= {a} AND t <= {b} THRESHOLD {tau:.2}"),
                Class::Exact,
            )
        }
        1 => {
            let b = a + STEP * (20 + p.below(20) as i64);
            let k = 10 + p.below(30);
            (
                format!(
                    "SELECT COUNT(*) FROM vp WHERE t >= {a} AND t <= {b} HAVING COUNT(*) >= {k}"
                ),
                Class::Exact,
            )
        }
        2 => {
            let b = a + STEP * (80 + p.below(40) as i64);
            (
                format!(
                    "SELECT COUNT(*), SUM(lambda) FROM vp WHERE t >= {a} AND t < {b} \
                     GROUP BY WINDOW(t, 1200)"
                ),
                Class::Exact,
            )
        }
        3 => {
            let b = a + STEP * (40 + p.below(20) as i64);
            let seed = p.below(1_000);
            (
                format!(
                    "SELECT * FROM vp WHERE t >= {a} AND t <= {b} WITH WORLDS 1000 SEED {seed}"
                ),
                Class::Worlds,
            )
        }
        _ => (
            format!("EXPLAIN SELECT COUNT(*) FROM vp WHERE t >= {a} WITH WORLDS 500 SEED 9"),
            Class::Explain,
        ),
    }
}

/// A full-relation statement over `view`. Exact-COUNT groups stay under
/// ~400 tuples: the count-distribution DP is quadratic in group size.
fn scan_sql(class: usize, view: &str, readings: usize, p: &mut Prng) -> (String, Class) {
    match class {
        0 => {
            let tau = 0.30 + 0.01 * p.below(15) as f64;
            (
                format!("SELECT * FROM {view} THRESHOLD {tau:.2}"),
                Class::Exact,
            )
        }
        1 => {
            let width = STEP * (20 + 10 * p.below(4) as i64);
            (
                format!("SELECT COUNT(*), SUM(lambda) FROM {view} GROUP BY WINDOW(t, {width})"),
                Class::Exact,
            )
        }
        2 => {
            let k = 50 + p.below(150);
            (
                format!("SELECT t, lambda FROM {view} ORDER BY prob DESC LIMIT {k}"),
                Class::Exact,
            )
        }
        _ => {
            let a = STEP * (WARMUP + p.below(readings as u64 / 4) as i64);
            let seed = p.below(1_000);
            (
                format!(
                    "SELECT COUNT(*) FROM {view} WHERE t >= {a} GROUP BY WINDOW(t, 360000) \
                     WITH WORLDS 200 SEED {seed}"
                ),
                Class::Worlds,
            )
        }
    }
}

/// The statements, before their answers are known.
fn statements(kind: Kind, sizes: &Sizes, seed: u64) -> Vec<Stmt> {
    let mut p = Prng::new(seed).fork("query/statements");
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    let mut push = |sql: String, class: Class, prepared: bool, on_disk: bool| {
        if seen.insert(sql.clone()) {
            out.push(Stmt {
                sql,
                class,
                prepared,
                on_disk,
                expected: QueryOutput::None,
            });
            true
        } else {
            false
        }
    };
    match kind {
        Kind::Point => {
            // Hot set: 15 or 16 of each selective shape, 6 Monte-Carlo
            // (1 ms each: more would make sampling, not per-request work,
            // the bulk of the run), 4 EXPLAIN, 8 prepared synopsis
            // statements — 64 slots.
            let shapes = [(0, 16), (1, 15), (2, 15), (3, 6), (4, 4)];
            for (shape, count) in shapes {
                let mut made = 0;
                while made < count {
                    let (sql, class) = point_sql(shape, sizes.readings, &mut p);
                    made += usize::from(push(sql, class, false, false));
                }
            }
            for buckets in [8, 16, 24, 32, 40, 48, 56, 64] {
                push(
                    format!("SELECT COUNT(*), SUM(lambda) FROM vp WITH SYNOPSIS BUCKETS {buckets}"),
                    Class::Synopsis,
                    true,
                    false,
                );
            }
            let mut made = 0;
            while made < sizes.cold {
                let (sql, class) = point_sql(made % 3, sizes.readings, &mut p);
                made += usize::from(push(sql, class, false, false));
            }
        }
        Kind::Scan => {
            // 16 slots: class = slot % 4, so neighbours differ in class;
            // the slot whose class equals its variant goes to the evicted
            // twin — one in four, one per class.
            for slot in 0..sizes.hot {
                let (class, variant) = (slot % 4, slot / 4);
                let on_disk = class == variant;
                let view = if on_disk { "vdisk" } else { "vscan" };
                loop {
                    let (sql, kind) = scan_sql(class, view, sizes.readings, &mut p);
                    if push(sql, kind, false, on_disk) {
                        break;
                    }
                }
            }
        }
    }
    out
}

/// Same answer: structurally equal, or — where a field may legitimately
/// differ (Monte-Carlo wall time) — equal in canonical bytes. Structural
/// equality implies byte equality, so this is the byte comparison at the
/// cost of a walk instead of an encode.
fn same_answer(got: &QueryOutput, expected: &QueryOutput) -> bool {
    got == expected || canonical_result_bytes(got) == canonical_result_bytes(expected)
}

fn rows_out(out: &QueryOutput) -> usize {
    if let Some(t) = out.prob_rows() {
        t.len()
    } else if let Some(t) = out.rows() {
        t.len()
    } else if let Some(a) = out.aggregate() {
        a.groups.len()
    } else {
        1
    }
}

/// What one connection's loop brings back.
#[derive(Default)]
struct Lane {
    /// Of the requests answered correctly.
    latencies_ns: Vec<u64>,
    /// One message per request that failed or was answered wrongly.
    errors: Vec<String>,
    /// When the last reply arrived.
    last_done: Option<Instant>,
    spans: Vec<Span>,
    means: Means,
}

struct Connection {
    client: Client,
    /// `StatementId` per statement index, for the prepared ones.
    prepared: Vec<Option<StatementId>>,
}

impl Connection {
    fn open(addr: std::net::SocketAddr, w: &Workload) -> Result<Connection, String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut prepared = vec![None; w.stmts.len()];
        for (i, s) in w.stmts.iter().enumerate().filter(|(_, s)| s.prepared) {
            prepared[i] = Some(
                client
                    .prepare(&s.sql)
                    .map_err(|e| format!("prepare {}: {e}", s.sql))?,
            );
        }
        Ok(Connection { client, prepared })
    }

    fn send(&mut self, w: &Workload, i: usize) -> Result<QueryOutput, String> {
        match self.prepared[i] {
            Some(id) => self.client.execute(id),
            None => self.client.query(&w.stmts[i].sql),
        }
        .map_err(|e| format!("{}: {e}", w.stmts[i].sql))
    }
}

/// The statement a lane sends as its `n`-th request: every `COLD_EVERY`-th
/// from the cold pool (lanes walk disjoint residues of it), the rest round
/// the hot rotation from the lane's own offset. The flag says whether it
/// is a cold one.
fn schedule(w: &Workload, lane: usize, n: usize) -> (usize, bool) {
    if !w.cold.is_empty() && n % COLD_EVERY == COLD_EVERY - 1 {
        let i = w.cold[(n / COLD_EVERY * THREADS + lane) % w.cold.len()];
        (i, true)
    } else {
        (
            w.hot[(n + lane * w.hot.len() / THREADS) % w.hot.len()],
            false,
        )
    }
}

/// Replays what the server did for statement `i` through the layers'
/// public functions and records the operation:
/// `op.query ⊃ server.request ⊃ {wire.*, sql.parse, plan.plan, exec.*}`.
/// A hot or prepared statement was answered from a cached plan, so its
/// replay has no parse or plan; a cold one paid for both.
fn replay(
    engine: &SharedEngine,
    w: &Workload,
    i: usize,
    cold: bool,
    (start_ns, end_ns): (u64, u64),
    tracer: &mut Tracer,
    means: &mut Means,
) -> Result<(), String> {
    let s = &w.stmts[i];
    let timed = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_nanos() as u64
    };
    let mut calls: Vec<(&'static str, u64)> = Vec::with_capacity(6);

    let request = Request::Query { sql: s.sql.clone() };
    let encode_req = timed(&mut || {
        std::hint::black_box(encode_message(&request));
    });
    calls.push(("wire.encode_req", encode_req));
    means.add("encode_req_us", encode_req as f64 / 1e3);

    let mut parsed = None;
    let parse_ns = timed(&mut || parsed = Some(parse(&s.sql)));
    let select = match parsed.expect("closure ran") {
        Ok(Statement::Select(sel)) | Ok(Statement::Explain(sel)) => sel,
        other => return Err(format!("replay parse of {}: {other:?}", s.sql)),
    };
    let mut planned = None;
    let plan_ns = timed(&mut || planned = Some(Planner::plan(&select)));
    let planned = planned
        .expect("closure ran")
        .map_err(|e| format!("replay plan of {}: {e}", s.sql))?;
    // EXPLAIN is parsed and planned on every request, cached or not.
    if cold || s.class == Class::Explain {
        calls.push(("sql.parse", parse_ns));
        calls.push(("plan.plan", plan_ns));
        means.add("parse_us", parse_ns as f64 / 1e3);
        means.add("plan_us", plan_ns as f64 / 1e3);
    }

    let response = if s.class == Class::Explain {
        Response::Result(s.expected.clone())
    } else {
        let mut answer = None;
        let exec_ns = timed(&mut || answer = Some(engine.read().execute_planned(&planned)));
        let answer = answer
            .expect("closure ran")
            .map_err(|e| format!("replay of {}: {e}", s.sql))?;
        let (span, metric) = match s.class {
            Class::Worlds => ("exec.worlds", "worlds_us"),
            Class::Synopsis => ("exec.synopsis", "synopsis_us"),
            _ => ("exec.exact", "exact_us"),
        };
        calls.push((span, exec_ns));
        means.add(metric, exec_ns as f64 / 1e3);
        means.add("rows_out", rows_out(&answer) as f64);
        means.add("rows_scanned", w.relation_rows as f64);
        means.add(
            if s.on_disk {
                "cold_scan_ms"
            } else {
                "resident_scan_ms"
            },
            exec_ns as f64 / 1e6,
        );
        Response::Result(answer)
    };

    let mut bytes = Vec::new();
    let encode_resp = timed(&mut || bytes = encode_message(&response));
    calls.push(("wire.encode_resp", encode_resp));
    means.add("encode_resp_us", encode_resp as f64 / 1e3);
    means.add("resp_bytes", bytes.len() as f64);
    let decode_resp = timed(&mut || {
        std::hint::black_box(decode_message::<Response>(&bytes).is_ok());
    });
    calls.push(("wire.decode_resp", decode_resp));
    means.add("decode_resp_us", decode_resp as f64 / 1e3);

    let op = tracer.root("op.query", start_ns, end_ns);
    let request = tracer.child(op, op, "server.request", start_ns, end_ns);
    tracer.replayed(op, request, start_ns, end_ns, &calls);
    Ok(())
}

/// One connection's closed loop until `deadline`.
fn lane_loop(
    lane: usize,
    conn: &mut Connection,
    engine: &SharedEngine,
    w: &Workload,
    deadline: Instant,
    mut tracer: Option<Tracer>,
) -> Lane {
    let mut out = Lane::default();
    let mut n = 0;
    while Instant::now() < deadline {
        let (i, cold) = schedule(w, lane, n);
        n += 1;
        let start_ns = tracer.as_ref().map(Tracer::now_ns);
        let t0 = Instant::now();
        let reply = conn.send(w, i);
        let done = Instant::now();
        out.last_done = Some(done);
        let took_ns = (done - t0).as_nanos() as u64;
        match reply {
            Ok(got) if same_answer(&got, &w.stmts[i].expected) => out.latencies_ns.push(took_ns),
            Ok(_) => out
                .errors
                .push(format!("answer differs: {}", w.stmts[i].sql)),
            Err(e) => {
                out.errors.push(e);
                break; // the session may be gone; a dead loop would spin
            }
        }
        if let (Some(tracer), Some(start_ns)) = (tracer.as_mut(), start_ns) {
            let interval = (start_ns, start_ns + took_ns);
            if let Err(e) = replay(engine, w, i, cold, interval, tracer, &mut out.means) {
                out.errors.push(e);
            }
        }
    }
    if let Some(tracer) = tracer {
        out.spans = tracer.spans;
    }
    out
}

/// Both lanes for `length`; returns them merged, with the time from the
/// common start to the last reply.
fn measure(
    conns: &mut [Connection],
    engine: &SharedEngine,
    w: &Workload,
    length: Duration,
    traced: bool,
) -> (Lane, f64) {
    let epoch = Instant::now();
    let deadline = epoch + length;
    let lanes: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(lane, conn)| {
                let tracer = traced.then(|| Tracer::new(epoch, lane as u64, THREADS as u64));
                scope.spawn(move || lane_loop(lane, conn, engine, w, deadline, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });
    let mut merged = Lane::default();
    for lane in lanes {
        merged.latencies_ns.extend(lane.latencies_ns);
        merged.errors.extend(lane.errors);
        merged.spans.extend(lane.spans);
        merged.means.merge(&lane.means);
        merged.last_done = merged.last_done.max(lane.last_done);
    }
    let wall_s = merged
        .last_done
        .map_or(0.0, |done| (done - epoch).as_secs_f64());
    (merged, wall_s)
}

impl Lane {
    fn fold_into(&mut self, out: &mut Outcome) {
        out.attempted += (self.latencies_ns.len() + self.errors.len()) as u64;
        self.errors.drain(..).for_each(|e| out.fail(e));
    }
}

/// Fills in every statement's in-process answer, on `THREADS` threads.
fn answers(engine: &SharedEngine, stmts: &mut [Stmt]) -> Result<(), String> {
    let chunk = stmts.len().div_ceil(THREADS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = stmts
            .chunks_mut(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter_mut().try_for_each(|s| {
                        s.expected = engine
                            .query(&s.sql)
                            .map_err(|e| format!("answer {}: {e}", s.sql))?;
                        Ok(())
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("answer thread panicked"))
    })
}

pub fn run(kind: Kind, cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let sizes = sizes(kind, cfg.quick);
    let setup_started = Instant::now();

    // Set-up, once (seconds of inference): series, engine, view(s),
    // expected answers, eviction of the twin, server, connections, warm-up.
    let series = TemperatureGenerator {
        seed: Prng::new(cfg.seed).fork("query/series").next_u64(),
        ..TemperatureGenerator::default()
    }
    .generate(sizes.readings);
    let mut digest = Digest::new();
    digest.f64s(series.values());

    // `query_scan` needs a data directory for its evicted twin;
    // `query_point` is memory only.
    let scratch = match kind {
        Kind::Scan => Some(ScratchDir::create(&cfg.work_dir, "query_scan")?),
        Kind::Point => None,
    };
    let engine = match &scratch {
        Some(dir) => SharedEngine::open_persistent(dir.path(), engine_config())
            .map_err(|e| format!("open data dir: {e}"))?,
        None => SharedEngine::new(engine_config()),
    };
    engine.set_worlds_threads(THREADS);
    engine
        .load_series("raw", "r", &series)
        .map_err(|e| format!("load series: {e}"))?;
    let views: &[&str] = match kind {
        Kind::Point => &["vp"],
        Kind::Scan => &["vscan", "vdisk"],
    };
    for view in views {
        engine
            .execute(&format!(
                "CREATE VIEW {view} AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw"
            ))
            .map_err(|e| format!("build {view}: {e}"))?;
    }
    let relation_rows = engine
        .read()
        .prob_table(views[0])
        .map_err(|e| format!("{}: {e}", views[0]))?
        .len();

    let mut stmts = statements(kind, &sizes, cfg.seed);
    for s in &stmts {
        digest.bytes(s.sql.as_bytes());
    }
    out.input_digest = digest.hex();
    // Answers come from the resident copies, before the twin is evicted:
    // the disk-backed scans are then checked against memory, not against
    // themselves.
    answers(&engine, &mut stmts)?;
    if kind == Kind::Scan {
        engine
            .evict_to_disk("vdisk")
            .map_err(|e| format!("evict vdisk: {e}"))?;
    }
    let hot_slots = sizes.hot;
    let mut hot: Vec<usize> = (0..hot_slots).collect();
    if kind == Kind::Point {
        // Shuffle so neighbouring requests differ in shape (the scan
        // slots already alternate by construction).
        let mut order = Prng::new(cfg.seed).fork("query/order");
        for i in (1..hot.len()).rev() {
            hot.swap(i, order.below(i as u64 + 1) as usize);
        }
    }
    let w = Workload {
        hot,
        cold: (hot_slots..stmts.len()).collect(),
        stmts,
        relation_rows,
    };

    let server = Server::bind(
        "127.0.0.1:0",
        engine.clone(),
        ServerConfig {
            workers: THREADS,
            ..ServerConfig::default()
        },
    )
    .and_then(Server::spawn)
    .map_err(|e| format!("start server: {e}"))?;
    let result = drive(cfg, &engine, &w, &server, setup_started, &mut out);
    server.shutdown();
    result.map(|()| out)
}

/// Everything between server start and server shutdown.
fn drive(
    cfg: &RunCfg,
    engine: &SharedEngine,
    w: &Workload,
    server: &tspdb_server::ServerHandle,
    setup_started: Instant,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut conns = (0..THREADS)
        .map(|_| Connection::open(server.addr(), w))
        .collect::<Result<Vec<_>, _>>()?;
    // Warm-up: one pass over the hot set, so its plans are cached.
    for &i in &w.hot {
        let got = conns[0].send(w, i)?;
        out.check(same_answer(&got, &w.stmts[i].expected), || {
            format!("warm-up answer differs: {}", w.stmts[i].sql)
        });
    }
    let setup_s = setup_started.elapsed().as_secs_f64();

    let length = Duration::from_secs_f64(cfg.seconds);
    if cfg.trace {
        let (mut untraced, _) = measure(&mut conns, engine, w, length / 2, false);
        untraced.fold_into(out);
        let requests_before = server
            .stats()
            .requests
            .load(std::sync::atomic::Ordering::Relaxed);
        let plans_before = engine.plan_cache_stats();
        let pager_before = engine.storage().map(|s| s.cache_stats());
        let (mut traced, _) = measure(&mut conns, engine, w, length / 2, true);
        let requests = server
            .stats()
            .requests
            .load(std::sync::atomic::Ordering::Relaxed)
            - requests_before;
        let plans = engine.plan_cache_stats();
        traced.fold_into(out);

        let table = LayerTable::of(&traced.spans);
        let m = &traced.means;
        out.set("wire.encode_req_us", m.mean("encode_req_us"));
        out.set("wire.decode_resp_us", m.mean("decode_resp_us"));
        out.set("wire.encode_resp_us", m.mean("encode_resp_us"));
        out.set("wire.resp_bytes", m.mean("resp_bytes"));
        let server_row = table.rows.iter().find(|r| r.name == "server.request");
        out.set(
            "server.self_us",
            server_row.map_or(0.0, |r| r.self_ns as f64 / r.count.max(1) as f64 / 1e3),
        );
        out.set("server.requests", requests as f64);
        out.set("sql.parse_us", m.mean("parse_us"));
        out.set("plan.plan_us", m.mean("plan_us"));
        let (hits, misses) = (
            plans.hits - plans_before.hits,
            plans.misses - plans_before.misses,
        );
        if hits + misses > 0 {
            out.set("plan_cache.hit_ratio", hits as f64 / (hits + misses) as f64);
        }
        out.set(
            "plan_cache.evictions",
            (plans.evictions - plans_before.evictions) as f64,
        );
        out.set("exec.exact_us", m.mean("exact_us"));
        out.set("exec.worlds_us", m.mean("worlds_us"));
        out.set("exec.synopsis_us", m.mean("synopsis_us"));
        if m.sum("rows_scanned") > 0.0 {
            out.set(
                "exec.rows_out_per_row_scanned",
                m.sum("rows_out") / m.sum("rows_scanned"),
            );
        }
        if let (Some(before), Some(storage)) = (pager_before, engine.storage()) {
            let after = storage.cache_stats();
            let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
            if hits + misses > 0 {
                out.set(
                    "storage.pager_hit_ratio",
                    hits as f64 / (hits + misses) as f64,
                );
            }
        }
        out.set("storage.cold_scan_ms", m.mean("cold_scan_ms"));
        out.set("storage.resident_scan_ms", m.mean("resident_scan_ms"));
        out.spans = traced.spans;
        out.set_trace(
            table,
            &stats::ns_to_ms(&traced.latencies_ns),
            &stats::ns_to_ms(&untraced.latencies_ns),
        );
    } else {
        let (mut window, wall_s) = measure(&mut conns, engine, w, length, false);
        window.fold_into(out);
        out.set_end_to_end(
            window.latencies_ns.len() as f64,
            wall_s,
            &stats::ns_to_ms(&window.latencies_ns),
            setup_s,
        );
    }
    for conn in conns {
        conn.client
            .close()
            .map_err(|e| format!("close connection: {e}"))?;
    }
    Ok(())
}
