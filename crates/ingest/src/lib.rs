//! # tspdb-ingest
//!
//! Streaming ingestion for the `tspdb` workspace: the paper's Ω-views are
//! built *from* time-series streams, so the write path has to keep up with
//! one. This crate makes the append path batch-friendly end to end:
//!
//! * [`Appender`] — accumulates rows per relation and lands each flush
//!   through [`SharedEngine::append_batches`], the **group-commit** write
//!   path: every flush is journaled with a single WAL fsync no matter how
//!   many rows or relations it spans, and applied under one write lock.
//!   Flushes trigger by size ([`AppenderConfig::max_rows`]) or age
//!   ([`AppenderConfig::max_delay`], checked by [`Appender::tick`]).
//! * [`TailRegistry`] — the standing-query surface behind
//!   `TAIL SELECT … GROUP BY WINDOW(…)`. Each subscription re-runs its
//!   windowed aggregate against an immutable relation snapshot whenever
//!   the engine's generations move, and emits one [`TailFrame`] per
//!   **closed** window bucket — a bucket closes when a later bucket has
//!   tuples, the watermark rule for monotone time-series streams. Frames
//!   are *by construction* byte-identical to re-running the equivalent
//!   windowed `SELECT` at emission time and filtering to the closed
//!   bucket: that is literally how they are produced.
//!
//! Everything downstream of the append — incremental Ω-view maintenance,
//! the views' running totals, MVCC snapshots for readers — lives in
//! `tspdb-core`; this crate is the batching and subscription layer the
//! wire server mounts on top.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tspdb_core::{CoreError, SharedEngine};
use tspdb_probdb::{parse, AggregateResult, Planner, QueryOutput, SelectStmt, Statement, Value};

/// Flush policy for an [`Appender`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppenderConfig {
    /// Flush as soon as this many rows are buffered (across all
    /// relations). The default of 64 is the group-commit batch that
    /// `tspbench`'s ingest workloads and `loadgen --mode streaming` use.
    pub max_rows: usize,
    /// Flush when the oldest buffered row has waited this long — the
    /// latency bound. Age is checked by [`Appender::tick`] (the appender
    /// spawns no threads of its own).
    pub max_delay: Duration,
}

impl Default for AppenderConfig {
    fn default() -> Self {
        AppenderConfig {
            max_rows: 64,
            max_delay: Duration::from_millis(50),
        }
    }
}

/// Lifetime counters for one appender.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppenderStats {
    /// Flushes issued (each one is one group commit).
    pub flushes: u64,
    /// Rows appended across all flushes.
    pub rows: u64,
}

/// Batches rows per relation and lands them through the engine's
/// group-commit append path.
///
/// Rows buffer in arrival order per relation; a flush submits every
/// buffered batch in one [`SharedEngine::append_batches`] call — one WAL
/// fsync, one write-lock acquisition, incremental view maintenance
/// included. Dropping the appender flushes best-effort.
#[derive(Debug)]
pub struct Appender {
    engine: SharedEngine,
    config: AppenderConfig,
    /// Buffered rows per relation, in arrival order.
    pending: Vec<(String, Vec<Vec<Value>>)>,
    pending_rows: usize,
    /// When the oldest buffered row arrived.
    oldest: Option<Instant>,
    stats: AppenderStats,
}

impl Appender {
    /// Creates an appender over `engine` with the given flush policy.
    pub fn new(engine: SharedEngine, config: AppenderConfig) -> Self {
        Appender {
            engine,
            config,
            pending: Vec::new(),
            pending_rows: 0,
            oldest: None,
            stats: AppenderStats::default(),
        }
    }

    /// Buffers one row for `table`, flushing if the size bound is hit.
    /// Returns the number of rows flushed (0 when the row only buffered).
    pub fn append(&mut self, table: &str, row: Vec<Value>) -> Result<usize, CoreError> {
        match self.pending.last_mut() {
            Some((t, rows)) if t == table => rows.push(row),
            _ => self.pending.push((table.to_string(), vec![row])),
        }
        self.pending_rows += 1;
        self.oldest.get_or_insert_with(Instant::now);
        if self.pending_rows >= self.config.max_rows {
            self.flush()
        } else {
            Ok(0)
        }
    }

    /// Rows currently buffered and not yet durable.
    pub fn pending_rows(&self) -> usize {
        self.pending_rows
    }

    /// Whether the age bound has expired on buffered rows.
    fn flush_due(&self) -> bool {
        self.oldest
            .is_some_and(|t| t.elapsed() >= self.config.max_delay)
    }

    /// Flushes if (and only if) the age bound has expired — the call a
    /// caller's timer loop makes. Returns the number of rows flushed.
    pub fn tick(&mut self) -> Result<usize, CoreError> {
        if self.flush_due() {
            self.flush()
        } else {
            Ok(0)
        }
    }

    /// Lands every buffered batch in one group commit. Returns the number
    /// of rows flushed. On error the buffer is still drained: the engine
    /// skips the failing batch and applies the rest, exactly as WAL replay
    /// would, so retrying a deterministically-bad batch cannot succeed.
    pub fn flush(&mut self) -> Result<usize, CoreError> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let batches = std::mem::take(&mut self.pending);
        let rows = std::mem::take(&mut self.pending_rows);
        self.oldest = None;
        self.stats.flushes += 1;
        self.stats.rows += rows as u64;
        self.engine.append_batches(batches)?;
        Ok(rows)
    }

    /// Lifetime flush/row counters.
    pub fn stats(&self) -> AppenderStats {
        self.stats
    }
}

impl Drop for Appender {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Handle identifying one TAIL subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TailToken(pub u64);

/// One result frame of a standing windowed query: the closed bucket's
/// groups, in the exact shape the equivalent one-shot `SELECT` returns
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct TailFrame {
    /// The subscription that produced the frame.
    pub token: TailToken,
    /// Start of the window bucket that closed (the bucket key the frame's
    /// groups all carry).
    pub bucket: f64,
    /// The aggregate rows of that bucket — a filtered
    /// [`AggregateResult`], fingerprint-compatible with the one-shot
    /// query's.
    pub result: AggregateResult,
}

/// What one poll produced for one subscription.
#[derive(Debug, Clone, PartialEq)]
pub enum TailEvent {
    /// A window bucket closed: here is its frame.
    Frame(TailFrame),
    /// The standing query stopped working (source dropped, schema
    /// changed); the subscription has been removed.
    Lapsed {
        /// The removed subscription.
        token: TailToken,
        /// The error that ended it.
        error: String,
    },
}

#[derive(Debug)]
struct TailSubscription {
    sel: SelectStmt,
    /// Start of the last bucket emitted; buckets at or below never
    /// re-emit.
    watermark: Option<f64>,
    /// Engine (DDL, data) generations at the last evaluation — the cheap
    /// "anything new?" check.
    seen: Option<(u64, u64)>,
}

/// The registry of standing `TAIL` queries.
///
/// Interior-mutable so the wire server can share one instance across its
/// event loop and workers. [`TailRegistry::poll`] drives every
/// subscription: it is cheap when nothing changed (two generation loads
/// per subscription) and emits frames for every newly closed bucket
/// otherwise.
#[derive(Debug, Default)]
pub struct TailRegistry {
    subs: Mutex<BTreeMap<u64, TailSubscription>>,
    next: Mutex<u64>,
}

impl TailRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        TailRegistry::default()
    }

    /// Registers a standing query from `TAIL SELECT …` source text.
    pub fn subscribe_sql(&self, sql: &str) -> Result<TailToken, CoreError> {
        match parse(sql).map_err(CoreError::from)? {
            Statement::Tail(sel) => self.subscribe(sel),
            _ => Err(CoreError::InvalidConfig(
                "expected a TAIL SELECT … GROUP BY WINDOW(…) statement".into(),
            )),
        }
    }

    /// Registers an already-parsed windowed `SELECT` as a standing query.
    /// Subscribing replays history: every already-closed bucket emits on
    /// the first poll, so a late subscriber sees the same frame sequence
    /// an early one did.
    pub(crate) fn subscribe(&self, sel: SelectStmt) -> Result<TailToken, CoreError> {
        if sel.window.is_none() {
            return Err(CoreError::InvalidConfig(
                "TAIL requires GROUP BY WINDOW(column, width)".into(),
            ));
        }
        let mut next = self.next.lock().unwrap_or_else(|e| e.into_inner());
        *next += 1;
        let token = TailToken(*next);
        self.subs.lock().unwrap_or_else(|e| e.into_inner()).insert(
            token.0,
            TailSubscription {
                sel,
                watermark: None,
                seen: None,
            },
        );
        Ok(token)
    }

    /// Removes a subscription. Returns whether it existed.
    pub fn unsubscribe(&self, token: TailToken) -> bool {
        self.subs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&token.0)
            .is_some()
    }

    /// Drives every subscription against the engine's current state and
    /// returns the frames of every window bucket that closed since the
    /// last poll (plus a [`TailEvent::Lapsed`] for any standing query
    /// that stopped executing).
    ///
    /// A bucket **closes** when a later bucket holds at least one tuple —
    /// the watermark rule: on a time-monotone stream, once values for a
    /// later window arrive, the earlier window can never grow again. The
    /// frame is produced by re-running the subscription's full windowed
    /// query against an MVCC snapshot and filtering its groups to the
    /// closed bucket, so it is byte-identical to what the equivalent
    /// one-shot query answers at that moment.
    pub fn poll(&self, engine: &SharedEngine) -> Vec<TailEvent> {
        let mut events = Vec::new();
        let generations = (engine.catalog_generation(), engine.data_generation());
        let mut subs = self.subs.lock().unwrap_or_else(|e| e.into_inner());
        let mut lapsed = Vec::new();
        for (&id, sub) in subs.iter_mut() {
            if sub.seen == Some(generations) {
                continue; // nothing changed since the last evaluation
            }
            let answer = Planner::plan(&sub.sel)
                .map_err(CoreError::from)
                .and_then(|planned| engine.execute_planned(&planned, None));
            let agg = match answer {
                Ok(QueryOutput::Aggregate(agg)) => agg,
                Ok(other) => {
                    lapsed.push((id, format!("standing query stopped aggregating: {other:?}")));
                    continue;
                }
                Err(e) => {
                    lapsed.push((id, e.to_string()));
                    continue;
                }
            };
            sub.seen = Some(generations);
            events.extend(
                closed_frames(TailToken(id), &agg, &mut sub.watermark)
                    .into_iter()
                    .map(TailEvent::Frame),
            );
        }
        for (id, error) in lapsed {
            subs.remove(&id);
            events.push(TailEvent::Lapsed {
                token: TailToken(id),
                error,
            });
        }
        events
    }
}

/// Splits one windowed aggregate into frames for every bucket that is
/// closed (a later bucket exists) and newer than the watermark, advancing
/// the watermark past what was emitted.
fn closed_frames(
    token: TailToken,
    agg: &AggregateResult,
    watermark: &mut Option<f64>,
) -> Vec<TailFrame> {
    // Distinct bucket starts in result order (windowed groups come back
    // sorted by bucket, so this is ascending).
    let mut buckets: Vec<f64> = Vec::new();
    for g in &agg.groups {
        let Some(start) = g.key.first().and_then(Value::as_f64) else {
            continue;
        };
        if buckets.last().map(|b| b.to_bits()) != Some(start.to_bits()) {
            buckets.push(start);
        }
    }
    let Some((&open, closed)) = buckets.split_last() else {
        return Vec::new();
    };
    let _ = open; // the newest bucket stays open until a later one appears
    let mut frames = Vec::new();
    for &bucket in closed {
        if watermark.is_some_and(|w| bucket <= w) {
            continue;
        }
        let groups = agg
            .groups
            .iter()
            .filter(|g| {
                g.key
                    .first()
                    .and_then(Value::as_f64)
                    .is_some_and(|s| s.to_bits() == bucket.to_bits())
            })
            .cloned()
            .collect();
        frames.push(TailFrame {
            token,
            bucket,
            result: AggregateResult {
                group_columns: agg.group_columns.clone(),
                aggregates: agg.aggregates.clone(),
                having: agg.having.clone(),
                strategy: agg.strategy,
                groups,
            },
        });
        *watermark = Some(bucket);
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspdb_probdb::Value;

    fn engine_with_kv() -> SharedEngine {
        let engine = SharedEngine::default();
        engine.execute("CREATE TABLE kv (t INT, v FLOAT)").unwrap();
        engine
    }

    fn rows(range: std::ops::Range<i64>) -> Vec<Vec<Value>> {
        range
            .map(|t| vec![Value::Int(t), Value::Float(t as f64 * 0.5)])
            .collect()
    }

    #[test]
    fn appender_flushes_by_size_and_on_drop() {
        let engine = engine_with_kv();
        let mut appender = Appender::new(
            engine.clone(),
            AppenderConfig {
                max_rows: 4,
                ..AppenderConfig::default()
            },
        );
        let mut flushed = 0;
        for row in rows(0..10) {
            flushed += appender.append("kv", row).unwrap();
        }
        // 10 rows at max_rows=4: two size-triggered flushes, two buffered.
        assert_eq!(flushed, 8);
        assert_eq!(appender.pending_rows(), 2);
        assert_eq!(
            engine
                .query("SELECT * FROM kv")
                .unwrap()
                .rows()
                .unwrap()
                .len(),
            8
        );
        drop(appender);
        assert_eq!(
            engine
                .query("SELECT * FROM kv")
                .unwrap()
                .rows()
                .unwrap()
                .len(),
            10
        );
    }

    #[test]
    fn appender_tick_flushes_only_after_the_age_bound() {
        let engine = engine_with_kv();
        let mut appender = Appender::new(
            engine.clone(),
            AppenderConfig {
                max_rows: 1_000,
                max_delay: Duration::from_millis(5),
            },
        );
        appender.append("kv", rows(0..1).remove(0)).unwrap();
        assert_eq!(appender.tick().unwrap(), 0, "age bound not reached yet");
        std::thread::sleep(Duration::from_millis(10));
        assert!(appender.flush_due());
        assert_eq!(appender.tick().unwrap(), 1);
        let stats = appender.stats();
        assert_eq!((stats.flushes, stats.rows), (1, 1));
    }

    #[test]
    fn appender_interleaves_relations_in_one_flush() {
        let engine = engine_with_kv();
        engine
            .execute("CREATE TABLE other (t INT, v FLOAT)")
            .unwrap();
        let mut appender = Appender::new(engine.clone(), AppenderConfig::default());
        for (i, row) in rows(0..6).into_iter().enumerate() {
            let table = if i % 2 == 0 { "kv" } else { "other" };
            appender.append(table, row).unwrap();
        }
        assert_eq!(appender.flush().unwrap(), 6);
        assert_eq!(
            engine
                .query("SELECT * FROM kv")
                .unwrap()
                .rows()
                .unwrap()
                .len(),
            3
        );
        assert_eq!(
            engine
                .query("SELECT * FROM other")
                .unwrap()
                .rows()
                .unwrap()
                .len(),
            3
        );
    }

    #[test]
    fn tail_emits_each_bucket_once_when_it_closes() {
        let engine = engine_with_kv();
        let registry = TailRegistry::new();
        let token = registry
            .subscribe_sql("TAIL SELECT COUNT(*) FROM kv GROUP BY WINDOW(t, 10)")
            .unwrap();

        engine.append_rows("kv", rows(0..5)).unwrap();
        // One bucket only: it is still open, nothing emits.
        assert_eq!(registry.poll(&engine), vec![]);
        // Tuples for bucket [10, 20) close bucket [0, 10).
        engine.append_rows("kv", rows(10..12)).unwrap();
        let events = registry.poll(&engine);
        let [TailEvent::Frame(frame)] = events.as_slice() else {
            panic!("expected exactly one frame, got {events:?}");
        };
        assert_eq!(frame.token, token);
        assert_eq!(frame.bucket, 0.0);
        // Byte-identity with the one-shot query at emission time: same
        // fingerprint as re-running the windowed SELECT and filtering.
        let oneshot = engine
            .query("SELECT COUNT(*) FROM kv GROUP BY WINDOW(t, 10)")
            .unwrap();
        let oneshot = oneshot.aggregate().unwrap();
        let expected = AggregateResult {
            groups: oneshot
                .groups
                .iter()
                .filter(|g| g.key[0] == Value::Float(0.0))
                .cloned()
                .collect(),
            group_columns: oneshot.group_columns.clone(),
            aggregates: oneshot.aggregates.clone(),
            having: oneshot.having.clone(),
            strategy: oneshot.strategy,
        };
        assert_eq!(frame.result.fingerprint(), expected.fingerprint());
        // Idle poll: nothing new, nothing emits (and nothing re-emits).
        assert_eq!(registry.poll(&engine), vec![]);
        // A bucket two windows later closes [10, 20) — exactly once.
        engine.append_rows("kv", rows(25..26)).unwrap();
        let events = registry.poll(&engine);
        let [TailEvent::Frame(frame)] = events.as_slice() else {
            panic!("expected exactly one frame, got {events:?}");
        };
        assert_eq!(frame.bucket, 10.0);
        assert!(registry.unsubscribe(token));
        engine.append_rows("kv", rows(40..41)).unwrap();
        assert_eq!(registry.poll(&engine), vec![]);
    }

    #[test]
    fn tail_replays_already_closed_history_to_late_subscribers() {
        let engine = engine_with_kv();
        engine.append_rows("kv", rows(0..35)).unwrap();
        let registry = TailRegistry::new();
        registry
            .subscribe_sql("TAIL SELECT COUNT(*), SUM(v) FROM kv GROUP BY WINDOW(t, 10)")
            .unwrap();
        let events = registry.poll(&engine);
        let buckets: Vec<f64> = events
            .iter()
            .map(|e| match e {
                TailEvent::Frame(f) => f.bucket,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        // Buckets [0,10), [10,20), [20,30) closed; [30,40) still open.
        assert_eq!(buckets, vec![0.0, 10.0, 20.0]);
    }

    #[test]
    fn tail_rejects_windowless_queries_and_lapses_on_drop() {
        let registry = TailRegistry::new();
        assert!(registry
            .subscribe_sql("TAIL SELECT COUNT(*) FROM kv")
            .is_err());
        let err = registry
            .subscribe_sql("SELECT COUNT(*) FROM kv")
            .unwrap_err();
        assert!(format!("{err}").contains("TAIL"), "{err}");

        let engine = engine_with_kv();
        engine.append_rows("kv", rows(0..15)).unwrap();
        let token = registry
            .subscribe_sql("TAIL SELECT COUNT(*) FROM kv GROUP BY WINDOW(t, 10)")
            .unwrap();
        engine.execute("DROP TABLE kv").unwrap();
        let events = registry.poll(&engine);
        let [TailEvent::Lapsed { token: t, .. }] = events.as_slice() else {
            panic!("expected a lapse, got {events:?}");
        };
        assert_eq!(*t, token);
        assert!(registry.subs.lock().unwrap().is_empty());
    }
}
