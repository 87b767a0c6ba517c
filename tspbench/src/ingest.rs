//! `ingest_raw` and `ingest_view`: the durable write path, with a snapshot
//! reader beside the writer and a `kill -9` at the end.
//!
//! The run executes in a re-exec'd child of this binary. The child feeds a
//! fixed number of rows through an `Appender` (batch 64, 50 ms) into a
//! persistent `stream(t INT, r FLOAT)`, checkpoints every tenth of the
//! run, leaves a fixed un-checkpointed WAL tail, prints what it measured
//! and parks. The parent kills it, times `open_persistent` on what is left
//! and proves the recovered state against the generated sequence and a
//! never-crashed in-memory twin.
//!
//! `ingest_view` is the same driver with an Ω-view over the stream, so
//! every flush also maintains the view and its synopses.

use crate::common::{dir_bytes, engine_config, repeat_setup, Outcome, RunCfg, ScratchDir};
use crate::prng::{Digest, Prng};
use crate::stats::{self, Means};
use crate::trace::{LayerTable, Tracer};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tspdb_core::SharedEngine;
use tspdb_ingest::{Appender, AppenderConfig};
use tspdb_probdb::Value;
use tspdb_timeseries::generate::TemperatureGenerator;
use tspdb_wire::canonical_result_bytes;

const STEP: i64 = 120;
/// Rows in the table before the measured run (and before `CREATE VIEW`).
const PRELOAD: usize = 128;
/// The appender's size bound; a commit is the `append` call that fills it.
const BATCH: usize = 64;
/// Checkpoint cycles per run.
const CYCLES: usize = 10;
/// How often the reader looks whether its next read is due.
const READ_POLL: Duration = Duration::from_micros(200);
/// Bytes a user would say one `(t INT, r FLOAT)` row holds.
const USER_BYTES_PER_ROW: f64 = 16.0;
/// A parked child nobody kills leaves by itself.
const PARK_LIMIT: Duration = Duration::from_secs(120);

const TABLE_SQL: &str = "CREATE TABLE stream (t INT, r FLOAT)";
const VIEW_SQL: &str = "CREATE VIEW sv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM stream";
const TABLE_PROBE: &str = "SELECT COUNT(*), SUM(r) FROM stream GROUP BY WINDOW(t, 61440)";
const VIEW_PROBE: &str = "SELECT * FROM sv THRESHOLD 0.0";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Raw,
    View,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Raw => "ingest_raw",
            Kind::View => "ingest_view",
        }
    }

    /// Rows appended per second of `--seconds`, sized once on the 2-core
    /// sandbox so a 10-second run takes about ten seconds at the commit
    /// that added the benchmark, then frozen: the work of a run never
    /// depends on how fast the engine is.
    fn rows_per_second(self) -> f64 {
        match self {
            Kind::Raw => 120_000.0,
            Kind::View => 256.0,
        }
    }

    /// The reader runs one query per this many appended rows (fewer when
    /// it is kept waiting for longer than that). Paced by
    /// work, not by the clock: a clock-paced reader makes fewer reads in a
    /// faster run, so a write-path gain would shed read interference and
    /// look larger than it is — and the count of copy-on-write collisions
    /// between reader and writer would differ from run to run. On the bare
    /// table the writer needs four times as long for 16 384 rows as the
    /// slowest read takes, so the reader keeps up and every boundary is
    /// read: at 8 192 it sometimes fell behind and skipped boundaries, each
    /// skipped read spared the writer a copy of the table, the writer got
    /// faster and the reader fell further behind — two stable speeds 20 %
    /// apart. Under the view every commit is slower than a read.
    fn rows_per_read(self) -> usize {
        match self {
            Kind::Raw => 16_384,
            Kind::View => BATCH,
        }
    }

    /// Un-checkpointed rows the child parks with (whole commits).
    fn tail_rows(self) -> usize {
        match self {
            Kind::Raw => 8 * BATCH,
            Kind::View => 2 * BATCH,
        }
    }
}

/// Measured rows: whole checkpoint cycles of whole commits.
fn run_rows(kind: Kind, seconds: f64) -> usize {
    let unit = CYCLES * BATCH;
    let rows = (kind.rows_per_second() * seconds) as usize;
    (rows / unit).max(1) * unit
}

fn readings(seed: u64, count: usize) -> Vec<f64> {
    TemperatureGenerator {
        seed: Prng::new(seed).fork("ingest/series").next_u64(),
        ..TemperatureGenerator::default()
    }
    .generate(count)
    .values()
    .to_vec()
}

fn row(i: usize, reading: f64) -> Vec<Value> {
    vec![Value::Int(STEP * i as i64), Value::Float(reading)]
}

/// The reader's recent-window query once `visible` rows are in.
fn reader_sql(kind: Kind, visible: usize) -> String {
    match kind {
        Kind::Raw => {
            let floor = STEP * (visible.saturating_sub(4_096) / 512 * 512) as i64;
            format!(
                "SELECT COUNT(*), SUM(r) FROM stream WHERE t >= {floor} GROUP BY WINDOW(t, 61440)"
            )
        }
        Kind::View => {
            let floor = STEP * (visible.saturating_sub(256) / 64 * 64) as i64;
            format!(
                "SELECT COUNT(*), SUM(lambda) FROM sv WHERE t >= {floor} GROUP BY WINDOW(t, 1200)"
            )
        }
    }
}

// ---------------------------------------------------------------- child

/// One commit as the child saw it. The replay fields are 0 untraced.
#[derive(Debug, Clone, Copy, Default)]
struct Commit {
    start_ns: u64,
    /// The flushing `Appender::append` call.
    flush_ns: u64,
    /// The checkpoint that followed it, when a cycle ended here.
    checkpoint_ns: u64,
    /// The same batch, replayed after the run through `append_batches` on
    /// a bare persistent twin (WAL commit + catalog apply)…
    bare_ns: u64,
    /// …and on a bare in-memory twin (catalog apply only).
    apply_ns: u64,
    /// Growth of the WAL over the flushing call (traced only).
    wal_bytes: u64,
}

#[derive(Debug, Clone, Copy)]
struct Read {
    start_ns: u64,
    dur_ns: u64,
    ok: bool,
}

/// Opens a fresh directory the way a run starts: table, preloaded rows,
/// the view if any, a checkpoint, one warm read.
fn open_stream(kind: Kind, dir: &Path, values: &[f64]) -> Result<SharedEngine, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let engine = SharedEngine::open_persistent(dir, engine_config())
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    engine
        .execute(TABLE_SQL)
        .map_err(|e| format!("create table: {e}"))?;
    let rows = (0..PRELOAD).map(|i| row(i, values[i])).collect();
    engine
        .append_rows("stream", rows)
        .map_err(|e| format!("preload: {e}"))?;
    if kind == Kind::View {
        engine
            .execute(VIEW_SQL)
            .map_err(|e| format!("create view: {e}"))?;
    }
    engine
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    engine
        .query_cached(&reader_sql(kind, PRELOAD))
        .map_err(|e| format!("warm read: {e}"))?;
    Ok(engine)
}

/// The replays of the traced pass, after the run so they cannot disturb
/// it: every commit's batch goes through `append_batches` on a bare
/// persistent twin (no view, no reader) and on a bare in-memory twin (no
/// WAL either).
fn replay_commits(dir: &Path, values: &[f64], commits: &mut [Commit]) -> Result<(), String> {
    let bare = SharedEngine::open_persistent(&dir.join("twin"), engine_config())
        .map_err(|e| format!("open twin: {e}"))?;
    let memory = SharedEngine::new(engine_config());
    for twin in [&bare, &memory] {
        twin.execute(TABLE_SQL)
            .map_err(|e| format!("twin table: {e}"))?;
    }
    for (k, c) in commits.iter_mut().enumerate() {
        let first = PRELOAD + k * BATCH;
        let batch: Vec<Vec<Value>> = (first..first + BATCH).map(|i| row(i, values[i])).collect();
        let t0 = Instant::now();
        let landed = bare.append_batches(vec![("stream".to_string(), batch.clone())]);
        c.bare_ns = t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let applied = memory.append_batches(vec![("stream".to_string(), batch)]);
        c.apply_ns = t0.elapsed().as_nanos() as u64;
        landed
            .and(applied)
            .map_err(|e| format!("twin append: {e}"))?;
    }
    Ok(())
}

/// The child process: `tspbench ingest-child <kind> <seed> <rows> <dir> <trace>`.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let [kind, seed, rows, dir, trace] = args else {
        return Err("ingest-child takes: kind seed rows dir trace".into());
    };
    let kind = match kind.as_str() {
        "ingest_raw" => Kind::Raw,
        "ingest_view" => Kind::View,
        other => return Err(format!("unknown ingest kind {other}")),
    };
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let rows: usize = rows.parse().map_err(|e| format!("rows: {e}"))?;
    let dir = PathBuf::from(dir);
    let traced = trace == "1";
    let total = PRELOAD + rows + kind.tail_rows();

    // Set-up, repeated in fresh directories; the last one is the run's (the
    // parent removes them all with its scratch directory).
    let ((values, engine, live_dir), setup_s) = repeat_setup(|k| {
        let values = readings(seed, total);
        let live_dir = dir.join(format!("live-{k}"));
        let engine = open_stream(kind, &live_dir, &values)?;
        Ok((values, engine, live_dir))
    })?;
    let mut digest = Digest::new();
    digest.f64s(&values);
    let storage = engine
        .storage()
        .ok_or("persistent engine without storage")?
        .clone();

    let epoch = Instant::now();
    let visible = AtomicU64::new(PRELOAD as u64);
    let stop = AtomicBool::new(false);
    let stride = rows / CYCLES;
    let mut commits: Vec<Commit> = Vec::with_capacity(rows / BATCH);
    let mut buffered_ns: Vec<u64> = Vec::new();
    let fsyncs_before = storage.wal_fsyncs();
    let pages_before = storage.pages_written();
    // Wall time, file bytes, WAL fsyncs and pages written of the measured
    // rows, taken when the last of them is checkpointed.
    let mut measured = (0, 0, 0, 0);
    let mut first_error = None;

    let (reads, stats) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut reads = Vec::new();
            let step = kind.rows_per_read();
            let mut due = PRELOAD + step;
            // Reads beside writes only: the reader stops with the writer.
            while !stop.load(Ordering::Relaxed) {
                // Sleep before every look, also right after a read: a
                // reader released by the end of one flush would otherwise
                // race the writer to the next one.
                std::thread::sleep(READ_POLL);
                let seen = visible.load(Ordering::Relaxed) as usize;
                if seen < due {
                    continue;
                }
                // The next read is due at the first boundary past what is
                // visible now: a reader that sat out several commits behind
                // the write lock does not make up for them afterwards.
                due = PRELOAD + ((seen - PRELOAD) / step + 1) * step;
                let sql = reader_sql(kind, seen);
                let start_ns = epoch.elapsed().as_nanos() as u64;
                let t0 = Instant::now();
                let answer = engine.query_cached(&sql);
                let dur_ns = t0.elapsed().as_nanos() as u64;
                let ok =
                    answer.is_ok_and(|out| out.aggregate().is_some_and(|a| !a.groups.is_empty()));
                reads.push(Read {
                    start_ns,
                    dur_ns,
                    ok,
                });
            }
            reads
        });

        let mut appender = Appender::new(
            engine.clone(),
            AppenderConfig {
                max_rows: BATCH,
                max_delay: Duration::from_millis(50),
            },
        );
        let started = Instant::now();
        for (i, &reading) in values.iter().enumerate().skip(PRELOAD) {
            if i == PRELOAD + rows {
                // The measured rows are in and checkpointed; what follows
                // is the tail the kill leaves in the WAL.
                measured = (
                    started.elapsed().as_nanos() as u64,
                    dir_bytes(&live_dir, |n| n == "tspdb.db" || n == "tspdb.wal"),
                    storage.wal_fsyncs() - fsyncs_before,
                    storage.pages_written() - pages_before,
                );
            }
            let r = row(i, reading);
            if appender.pending_rows() + 1 < BATCH {
                // A buffering call; time one a batch when tracing.
                let t0 = (traced && appender.pending_rows() == 0).then(Instant::now);
                if let Err(e) = appender.append("stream", r) {
                    first_error.get_or_insert(format!("append: {e}"));
                }
                if let Some(t0) = t0 {
                    buffered_ns.push(t0.elapsed().as_nanos() as u64);
                }
                continue;
            }
            let mut c = Commit {
                start_ns: epoch.elapsed().as_nanos() as u64,
                ..Commit::default()
            };
            let wal_before = traced.then(|| storage.wal_bytes().unwrap_or(0));
            let t0 = Instant::now();
            let flushed = appender.append("stream", r);
            c.flush_ns = t0.elapsed().as_nanos() as u64;
            if let Err(e) = flushed {
                first_error.get_or_insert(format!("commit: {e}"));
            }
            if let Some(before) = wal_before {
                c.wal_bytes = storage.wal_bytes().unwrap_or(0).saturating_sub(before);
            }
            visible.store(i as u64 + 1, Ordering::Relaxed);
            let done = i + 1 - PRELOAD;
            if done <= rows && done.is_multiple_of(stride) {
                let t0 = Instant::now();
                if let Err(e) = engine.checkpoint() {
                    first_error.get_or_insert(format!("checkpoint: {e}"));
                }
                c.checkpoint_ns = t0.elapsed().as_nanos() as u64;
            }
            if done <= rows {
                commits.push(c);
            }
        }
        let stats = appender.stats();
        stop.store(true, Ordering::Relaxed);
        (reader.join().expect("reader thread panicked"), stats)
    });
    if let Some(e) = first_error {
        return Err(e);
    }
    if traced {
        replay_commits(&dir, &values, &mut commits)?;
    }

    let mut out = std::io::stdout().lock();
    let mut emit = |line: String| writeln!(out, "{line}").map_err(|e| format!("stdout: {e}"));
    emit(format!("dir {}", live_dir.display()))?;
    emit(format!("digest {}", digest.hex()))?;
    emit(format!("setup {}", (setup_s * 1e9) as u64))?;
    let (wall_ns, disk_bytes, wal_fsyncs, pages_written) = measured;
    emit(format!("wall {wall_ns}"))?;
    emit(format!("acked {total}"))?;
    emit(format!("disk_bytes {disk_bytes}"))?;
    emit(format!("wal_fsyncs {wal_fsyncs}"))?;
    emit(format!("pages_written {pages_written}"))?;
    emit(format!("flushes {} {}", stats.flushes, stats.rows))?;
    for c in &commits {
        emit(format!(
            "commit {} {} {} {} {} {}",
            c.start_ns, c.flush_ns, c.checkpoint_ns, c.bare_ns, c.apply_ns, c.wal_bytes
        ))?;
    }
    for r in &reads {
        emit(format!(
            "read {} {} {}",
            r.start_ns,
            r.dur_ns,
            u8::from(r.ok)
        ))?;
    }
    for ns in &buffered_ns {
        emit(format!("buffered {ns}"))?;
    }
    emit("ready".to_string())?;
    out.flush().map_err(|e| format!("stdout: {e}"))?;
    drop(out);

    // Parked, engine open, tail un-checkpointed: waiting for the kill.
    std::thread::sleep(PARK_LIMIT);
    Err("parked child was never killed".into())
}

// --------------------------------------------------------------- parent

/// Kills and reaps the child on every way out.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[derive(Debug, Default)]
struct Report {
    dir: PathBuf,
    digest: String,
    setup_s: f64,
    wall_s: f64,
    acked: usize,
    disk_bytes: f64,
    wal_fsyncs: f64,
    pages_written: f64,
    flushes: f64,
    flushed_rows: f64,
    commits: Vec<Commit>,
    reads: Vec<Read>,
    buffered_ns: Vec<u64>,
}

fn parse_report(lines: impl Iterator<Item = String>) -> Result<Report, String> {
    let mut r = Report::default();
    let mut ready = false;
    for line in lines {
        let mut words = line.split_whitespace();
        let Some(tag) = words.next() else { continue };
        let rest: Vec<&str> = words.collect();
        let num = |i: usize| -> Result<u64, String> {
            rest.get(i)
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| format!("child line not understood: {line}"))
        };
        match tag {
            "dir" => r.dir = PathBuf::from(rest.join(" ")),
            "digest" => r.digest = rest.join(""),
            "setup" => r.setup_s = num(0)? as f64 / 1e9,
            "wall" => r.wall_s = num(0)? as f64 / 1e9,
            "acked" => r.acked = num(0)? as usize,
            "disk_bytes" => r.disk_bytes = num(0)? as f64,
            "wal_fsyncs" => r.wal_fsyncs = num(0)? as f64,
            "pages_written" => r.pages_written = num(0)? as f64,
            "flushes" => (r.flushes, r.flushed_rows) = (num(0)? as f64, num(1)? as f64),
            "commit" => r.commits.push(Commit {
                start_ns: num(0)?,
                flush_ns: num(1)?,
                checkpoint_ns: num(2)?,
                bare_ns: num(3)?,
                apply_ns: num(4)?,
                wal_bytes: num(5)?,
            }),
            "read" => r.reads.push(Read {
                start_ns: num(0)?,
                dur_ns: num(1)?,
                ok: num(2)? == 1,
            }),
            "buffered" => r.buffered_ns.push(num(0)?),
            "ready" => {
                ready = true;
                break;
            }
            _ => return Err(format!("child line not understood: {line}")),
        }
    }
    if ready {
        Ok(r)
    } else {
        Err("ingest child ended before it was ready".into())
    }
}

/// One child run, its kill, the timed recovery and the proofs.
struct Crashed {
    report: Report,
    recovery_s: f64,
}

fn crash_run(
    kind: Kind,
    cfg: &RunCfg,
    rows: usize,
    traced: bool,
    out: &mut Outcome,
) -> Result<Crashed, String> {
    let scratch = ScratchDir::create(&cfg.work_dir, kind.name())?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = Command::new(exe)
        .arg("ingest-child")
        .arg(kind.name())
        .arg(cfg.seed.to_string())
        .arg(rows.to_string())
        .arg(scratch.path())
        .arg(if traced { "1" } else { "0" })
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn ingest child: {e}"))?;
    let mut child = ChildGuard(child);
    let stdout = child.0.stdout.take().ok_or("child stdout not piped")?;
    let report = parse_report(BufReader::new(stdout).lines().map_while(Result::ok))?;
    // kill -9: no destructor runs, the WAL tail stays un-checkpointed.
    child.0.kill().map_err(|e| format!("kill child: {e}"))?;
    child.0.wait().map_err(|e| format!("reap child: {e}"))?;
    drop(child);

    let t0 = Instant::now();
    let engine = SharedEngine::open_persistent(&report.dir, engine_config())
        .map_err(|e| format!("recovery: {e}"))?;
    let recovery_s = t0.elapsed().as_secs_f64();

    let values = readings(cfg.seed, report.acked);
    let mut digest = Digest::new();
    digest.f64s(&values);
    out.check(digest.hex() == report.digest, || {
        "child and parent generated different inputs".into()
    });
    out.input_digest = digest.hex();

    // Every acknowledged row is back, and what is back is a prefix of the
    // generated sequence.
    let recovered = {
        let catalog = engine.read();
        let table = catalog
            .table("stream")
            .map_err(|e| format!("recovered table: {e}"))?;
        let n = table.rows().len();
        out.check(n >= report.acked, || {
            format!("recovered {n} rows, {} were acknowledged", report.acked)
        });
        let prefix = n <= values.len()
            && table
                .rows()
                .iter()
                .enumerate()
                .all(|(i, r)| *r == row(i, values[i]));
        out.check(prefix, || {
            "recovered rows are not a prefix of the generated sequence".into()
        });
        n.min(values.len())
    };

    // A never-crashed in-memory twin fed the same prefix answers the same.
    let twin = SharedEngine::new(engine_config());
    twin.execute(TABLE_SQL)
        .map_err(|e| format!("twin table: {e}"))?;
    for chunk_start in (0..recovered).step_by(4_096) {
        let chunk = (chunk_start..recovered.min(chunk_start + 4_096))
            .map(|i| row(i, values[i]))
            .collect();
        twin.append_rows("stream", chunk)
            .map_err(|e| format!("twin append: {e}"))?;
    }
    let mut probes = vec![TABLE_PROBE];
    if kind == Kind::View {
        twin.execute(VIEW_SQL)
            .map_err(|e| format!("twin view: {e}"))?;
        probes.push(VIEW_PROBE);
    }
    for probe in probes {
        let fingerprint = |e: &SharedEngine| e.query(probe).map(|o| canonical_result_bytes(&o));
        let same = matches!((fingerprint(&engine), fingerprint(&twin)), (Ok(a), Ok(b)) if a == b);
        out.check(same, || {
            format!("recovered state differs from the twin on: {probe}")
        });
    }

    let failed_reads = report.reads.iter().filter(|r| !r.ok).count() as u64;
    out.attempted += (report.commits.len() + report.reads.len()) as u64;
    for _ in 0..failed_reads {
        out.fail("a concurrent read failed or came back empty".into());
    }
    Ok(Crashed { report, recovery_s })
}

/// Commit latency as the caller sees it: the flushing call plus the
/// checkpoint it had to sit through, in milliseconds.
fn commit_latencies_ms(commits: &[Commit]) -> Vec<f64> {
    commits
        .iter()
        .map(|c| (c.flush_ns + c.checkpoint_ns) as f64 / 1e6)
        .collect()
}

fn set_diagnostics(crashed: &Crashed, rows: usize, out: &mut Outcome) {
    let r = &crashed.report;
    let read_ms: Vec<f64> = r.reads.iter().map(|x| x.dur_ns as f64 / 1e6).collect();
    out.set("read_p50_ms", stats::median(&read_ms));
    out.set("recovery_s", crashed.recovery_s);
    out.set(
        "disk_bytes_per_user_byte",
        r.disk_bytes / ((PRELOAD + rows) as f64 * USER_BYTES_PER_ROW),
    );
}

pub fn run(kind: Kind, cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if !cfg.trace {
        let rows = run_rows(kind, cfg.seconds);
        let crashed = crash_run(kind, cfg, rows, false, &mut out)?;
        let r = &crashed.report;
        out.set_end_to_end(
            rows as f64,
            r.wall_s,
            &commit_latencies_ms(&r.commits),
            r.setup_s,
        );
        set_diagnostics(&crashed, rows, &mut out);
        return Ok(out);
    }

    let rows = run_rows(kind, cfg.seconds / 2.0);
    let untraced = crash_run(kind, cfg, rows, false, &mut out)?;
    let traced = crash_run(kind, cfg, rows, true, &mut out)?;
    set_diagnostics(&untraced, rows, &mut out);
    let r = &traced.report;

    // Spans, rebuilt from the child's commit and read records:
    // `op.commit ⊃ {ingest.flush ⊃ storage.wal_commit ⊃ engine.apply,
    // storage.checkpoint}`, `op.read ⊃ exec.exact`, and the parent's own
    // `op.recovery ⊃ engine.open_persistent`.
    let mut tracer = Tracer::new(Instant::now(), 0, 1);
    let mut means = Means::default();
    let mut maintain_ms = Vec::with_capacity(r.commits.len());
    let mut last_end = 0;
    for c in &r.commits {
        let flush_end = c.start_ns + c.flush_ns;
        let end = flush_end + c.checkpoint_ns;
        last_end = last_end.max(end);
        let op = tracer.root("op.commit", c.start_ns, end);
        let flush = tracer.child(op, op, "ingest.flush", c.start_ns, flush_end);
        let bare_end = flush_end.min(c.start_ns + c.bare_ns);
        let wal = tracer.child(op, flush, "storage.wal_commit", c.start_ns, bare_end);
        let apply_end = bare_end.min(c.start_ns + c.apply_ns);
        tracer.child(op, wal, "engine.apply", c.start_ns, apply_end);
        if c.checkpoint_ns > 0 {
            tracer.child(op, op, "storage.checkpoint", flush_end, end);
            means.add("checkpoint_ms", c.checkpoint_ns as f64 / 1e6);
        }
        means.add("flush_ms", c.flush_ns as f64 / 1e6);
        means.add("wal_bytes", c.wal_bytes as f64);
        maintain_ms.push(c.flush_ns.saturating_sub(c.bare_ns) as f64 / 1e6);
    }
    for read in &r.reads {
        let end = read.start_ns + read.dur_ns;
        last_end = last_end.max(end);
        let op = tracer.root("op.read", read.start_ns, end);
        tracer.child(op, op, "exec.exact", read.start_ns, end);
    }
    let recovery_ns = (traced.recovery_s * 1e9) as u64;
    let op = tracer.root("op.recovery", last_end, last_end + recovery_ns);
    tracer.child(
        op,
        op,
        "engine.open_persistent",
        last_end,
        last_end + recovery_ns,
    );

    out.set(
        "storage.wal_fsyncs_per_krow",
        r.wal_fsyncs / (rows as f64 / 1e3),
    );
    out.set(
        "storage.wal_bytes_per_user_byte",
        means.sum("wal_bytes") / (rows as f64 * USER_BYTES_PER_ROW),
    );
    out.set("storage.pages_written", r.pages_written);
    out.set("storage.checkpoint_ms", means.mean("checkpoint_ms"));
    let commit_ms = commit_latencies_ms(&r.commits);
    let stall_ms = 10.0 * stats::median(&commit_ms);
    out.set(
        "storage.checkpoint_stalls",
        commit_ms.iter().filter(|&&ms| ms > stall_ms).count() as f64,
    );
    let buffered_us: Vec<f64> = r.buffered_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    out.set("ingest.append_us", stats::median(&buffered_us));
    out.set("ingest.flush_ms", means.mean("flush_ms"));
    if r.flushes > 0.0 {
        out.set("ingest.rows_per_flush", r.flushed_rows / r.flushes);
    }
    // Maintenance is what a flush costs beyond the same batch on a bare
    // table; with no view there is nothing to maintain, so it is 0 by
    // definition rather than a difference of two noisy numbers.
    if kind == Kind::View {
        let decile = (maintain_ms.len() / 10).max(1);
        out.set(
            "engine.maintain_ms_per_batch_first",
            stats::mean(&maintain_ms[..decile.min(maintain_ms.len())]),
        );
        out.set(
            "engine.maintain_ms_per_batch_last",
            stats::mean(&maintain_ms[maintain_ms.len().saturating_sub(decile)..]),
        );
    }
    let table = LayerTable::of(&tracer.spans);
    out.spans = tracer.spans;
    // Overhead is judged on the commits, the workload's primary operation.
    out.set_trace(
        table,
        &commit_ms,
        &commit_latencies_ms(&untraced.report.commits),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_rows_are_whole_cycles_of_whole_commits() {
        assert_eq!(run_rows(Kind::View, 10.0), 2_560);
        assert_eq!(run_rows(Kind::View, 1.0), 640);
        let raw = run_rows(Kind::Raw, 10.0);
        assert_eq!(raw % (CYCLES * BATCH), 0);
        assert!((1_190_000..=1_200_000).contains(&raw));
    }

    #[test]
    fn child_report_round_trips() {
        let text = "dir /x/live 4\ndigest abc\nsetup 2000000\nwall 3000000000\nacked 900\n\
                    disk_bytes 4096\nwal_fsyncs 12\npages_written 3\nflushes 12 768\n\
                    commit 10 20 30 5 2 100\nread 7 8 1\nbuffered 55\nready\nignored";
        let r = parse_report(text.lines().map(String::from)).unwrap();
        assert_eq!(r.dir, PathBuf::from("/x/live 4"));
        assert_eq!((r.digest.as_str(), r.acked, r.wall_s), ("abc", 900, 3.0));
        assert_eq!(r.setup_s, 0.002);
        assert_eq!((r.flushes, r.flushed_rows), (12.0, 768.0));
        assert_eq!(commit_latencies_ms(&r.commits), vec![50.0 / 1e6]);
        assert!(r.reads[0].ok && r.buffered_ns == vec![55]);
        assert!(parse_report("wall 1".lines().map(String::from)).is_err());
        assert!(parse_report("commit 1 2".lines().map(String::from)).is_err());
    }

    #[test]
    fn reader_window_follows_the_stream() {
        assert!(reader_sql(Kind::Raw, 128).contains("t >= 0 "));
        assert!(reader_sql(Kind::Raw, 10_000).contains(&format!("t >= {} ", 120 * 5_632)));
        assert!(reader_sql(Kind::View, 1_000).contains(&format!("t >= {} ", 120 * 704)));
    }
}
