//! The persistent storage engine end-to-end: WAL crash points, recovery
//! ≡ never-crashed equivalence, and the determinism-across-media contract
//! (bit-identical fingerprints whether a tuple came from RAM, the page
//! cache, a cold disk read, or a post-crash replay).

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use tspdb::core::storage::{CheckpointCrashPoint, CrashPoint};
use tspdb::probdb::{QueryOutput, Value};
use tspdb::timeseries::generate::TemperatureGenerator;
use tspdb::{MetricConfig, SharedEngine, ViewBuilderConfig};

/// Minimal self-cleaning temp dir (no external crates in the offline
/// build).
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "tspdb-persistence-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config() -> ViewBuilderConfig {
    ViewBuilderConfig {
        window: 60,
        metric_config: MetricConfig {
            p: 1,
            q: 0,
            ..MetricConfig::default()
        },
        ..ViewBuilderConfig::default()
    }
}

fn reopen(dir: &TempDir) -> SharedEngine {
    SharedEngine::open_persistent(dir.path(), config()).unwrap()
}

/// Render-based fingerprint: any drift in values, bits, ordering or
/// probabilities changes the string.
fn fingerprint(out: &QueryOutput) -> String {
    match out {
        QueryOutput::Rows(t) => t.render(usize::MAX),
        QueryOutput::ProbRows(t) => t.render(usize::MAX),
        QueryOutput::Worlds(w) => w.fingerprint(),
        QueryOutput::Aggregate(a) => a.fingerprint(),
        QueryOutput::Explain(e) => e.to_string(),
        QueryOutput::None => "none".to_string(),
    }
}

fn row_count(engine: &SharedEngine, table: &str) -> usize {
    engine
        .query(&format!("SELECT * FROM {table}"))
        .unwrap()
        .rows()
        .unwrap()
        .len()
}

#[test]
fn committed_writes_survive_reopen() {
    let dir = TempDir::new();
    {
        let engine = reopen(&dir);
        engine.execute("CREATE TABLE t (x INT)").unwrap();
        engine
            .execute("INSERT INTO t VALUES (1), (2), (3)")
            .unwrap();
    }
    let engine = reopen(&dir);
    assert_eq!(row_count(&engine, "t"), 3);
    // And the WAL is empty after the boot checkpoint: a second reopen
    // replays nothing and still sees the data.
    drop(engine);
    let engine = reopen(&dir);
    assert_eq!(row_count(&engine, "t"), 3);
}

#[test]
fn wal_crash_points_recover_exactly_the_committed_prefix() {
    let dir = TempDir::new();
    {
        let engine = reopen(&dir);
        engine.execute("CREATE TABLE t (x INT)").unwrap();
        engine.execute("INSERT INTO t VALUES (1)").unwrap();
    }

    // Pre-commit: the dying write never reached the log — it is lost, and
    // the handle is poisoned for everything after it.
    {
        let engine = reopen(&dir);
        engine
            .storage()
            .unwrap()
            .set_crash_point(Some(CrashPoint::PreCommit));
        assert!(engine.execute("INSERT INTO t VALUES (2)").is_err());
        assert!(engine.execute("INSERT INTO t VALUES (3)").is_err());
        // Reads still work on the poisoned engine: the catalog is intact.
        assert_eq!(row_count(&engine, "t"), 1);
    }
    assert_eq!(row_count(&reopen(&dir), "t"), 1);

    // Mid-record: a torn tail on disk. Recovery must detect it via the
    // checksum and discard it.
    {
        let engine = reopen(&dir);
        engine
            .storage()
            .unwrap()
            .set_crash_point(Some(CrashPoint::MidRecord));
        assert!(engine.execute("INSERT INTO t VALUES (2)").is_err());
    }
    assert_eq!(row_count(&reopen(&dir), "t"), 1);

    // Post-commit: the record was written and fsynced before the crash —
    // it is committed, and recovery must redo it even though the dying
    // process never applied it in memory.
    {
        let engine = reopen(&dir);
        engine
            .storage()
            .unwrap()
            .set_crash_point(Some(CrashPoint::PostCommit));
        assert!(engine.execute("INSERT INTO t VALUES (2)").is_err());
        // The dying process never saw the row...
        assert_eq!(row_count(&engine, "t"), 1);
    }
    // ...but recovery replays it.
    assert_eq!(row_count(&reopen(&dir), "t"), 2);
}

#[test]
fn disk_backed_scans_are_bit_identical_to_resident_ones() {
    let dir = TempDir::new();
    let engine = reopen(&dir);
    let series = TemperatureGenerator::default().generate(150);
    engine.load_series("raw_values", "r", &series).unwrap();
    engine
        .execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
        .unwrap();

    // Every statement shape, including Monte-Carlo with a pinned seed and
    // the synopsis strategy — the strategies that would expose any drift
    // in tuple bits or ordering.
    let queries = [
        "SELECT * FROM raw_values ORDER BY r DESC LIMIT 20",
        "SELECT * FROM pv WHERE prob >= 0.1 ORDER BY prob DESC",
        "SELECT t, lambda FROM pv THRESHOLD 0.05",
        "SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 25)",
        "SELECT * FROM pv WITH WORLDS 500 SEED 42",
        "SELECT COUNT(*), SUM(lambda) FROM pv HAVING COUNT(*) >= 2 WITH WORLDS 400 SEED 7",
        "SELECT COUNT(*) FROM pv WITH SYNOPSIS",
    ];
    let resident: Vec<String> = queries
        .iter()
        .map(|q| fingerprint(&engine.query(q).unwrap()))
        .collect();

    // Evict the view: its scans now come from disk through the page
    // cache, behind the same scan leaf. (Evicting checkpoints first, and
    // a checkpoint re-materializes everything — so evict `pv` last.)
    engine.evict_to_disk("raw_values").unwrap();
    engine.evict_to_disk("pv").unwrap();
    let report = engine.query("EXPLAIN SELECT * FROM pv").unwrap();
    let report = fingerprint(&report);
    assert!(
        report.contains("on disk (via scan source)"),
        "explain must show the disk-backed scan: {report}"
    );
    for (q, expected) in queries.iter().zip(&resident) {
        let got = fingerprint(&engine.query(q).unwrap());
        assert_eq!(&got, expected, "evicted scan differs for {q}");
    }

    // Cold reboot: pages come from a fresh file read, then the cache.
    drop(engine);
    let engine = reopen(&dir);
    for (q, expected) in queries.iter().zip(&resident) {
        let got = fingerprint(&engine.query(q).unwrap());
        assert_eq!(&got, expected, "post-reboot scan differs for {q}");
    }

    // And once more evicted after the reboot — cold disk read path.
    engine.evict_to_disk("pv").unwrap();
    for (q, expected) in queries.iter().zip(&resident) {
        let got = fingerprint(&engine.query(q).unwrap());
        assert_eq!(&got, expected, "post-reboot evicted scan differs for {q}");
    }
}

#[test]
fn drop_of_a_checkpointed_relation_stays_dropped() {
    let dir = TempDir::new();
    {
        let engine = reopen(&dir);
        engine.execute("CREATE TABLE t (x INT)").unwrap();
        engine.execute("INSERT INTO t VALUES (1)").unwrap();
        engine.checkpoint().unwrap();
        engine.execute("DROP TABLE t").unwrap();
        // The pages are still in the checkpoint file, but the scan source
        // must not resurrect the relation.
        assert!(engine.query("SELECT * FROM t").is_err());
    }
    let engine = reopen(&dir);
    assert!(
        engine.query("SELECT * FROM t").is_err(),
        "drop must survive recovery"
    );
}

#[test]
fn load_series_is_journaled() {
    let dir = TempDir::new();
    let series = TemperatureGenerator::default().generate(80);
    let expected;
    {
        let engine = reopen(&dir);
        engine.load_series("raw_values", "r", &series).unwrap();
        expected = fingerprint(&engine.query("SELECT * FROM raw_values").unwrap());
    }
    let engine = reopen(&dir);
    let got = fingerprint(&engine.query("SELECT * FROM raw_values").unwrap());
    assert_eq!(
        got, expected,
        "a programmatic load must replay bit-identically"
    );
}

/// Deterministic `(t INT, r FLOAT)` rows continuing a temperature series
/// past its generated prefix — timestamps strictly increase, so appends
/// take the suffix view-maintenance path.
fn synthetic_rows(range: std::ops::Range<i64>) -> Vec<Vec<Value>> {
    range
        .map(|t| {
            vec![
                Value::Int(t),
                Value::Float(20.0 + (t as f64 * 0.37).sin() * 5.0),
            ]
        })
        .collect()
}

/// The crash-point matrix for incremental checkpoints: whichever window of
/// the shadow-write protocol the process dies in — half a data page on
/// disk, all data pages durable but the meta slot not yet committed, or
/// the meta committed but the WAL not yet reset — recovery must equal an
/// engine that never crashed, bit-for-bit, across all three evaluation
/// strategies (exact, Monte-Carlo worlds with a pinned seed, synopsis).
#[test]
fn checkpoint_crash_points_recover_bit_identical_state() {
    let queries = [
        "SELECT * FROM raw_values ORDER BY r DESC LIMIT 20",
        "SELECT * FROM pv WHERE prob >= 0.1 ORDER BY prob DESC",
        "SELECT t, lambda FROM pv THRESHOLD 0.05",
        "SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 25)",
        "SELECT * FROM pv WITH WORLDS 500 SEED 42",
        "SELECT COUNT(*), SUM(lambda) FROM pv HAVING COUNT(*) >= 2 WITH WORLDS 400 SEED 7",
        "SELECT COUNT(*) FROM pv WITH SYNOPSIS",
    ];
    let series = TemperatureGenerator::default().generate(90);
    for point in [
        CheckpointCrashPoint::MidPage,
        CheckpointCrashPoint::AfterPages,
        CheckpointCrashPoint::AfterMeta,
    ] {
        let dir = TempDir::new();
        {
            let engine = reopen(&dir);
            engine.load_series("raw_values", "r", &series).unwrap();
            engine
                .execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
                .unwrap();
            // First checkpoint: full writes, establishes the on-disk base.
            engine.checkpoint().unwrap();
            // Dirty the table again so the dying checkpoint has append
            // pages to write, then die at the injected window.
            engine
                .append_rows("raw_values", synthetic_rows(90..120))
                .unwrap();
            engine
                .storage()
                .unwrap()
                .set_checkpoint_crash_point(Some(point));
            assert!(
                engine.checkpoint().is_err(),
                "{point:?}: the injected crash must surface"
            );
        }
        let recovered = reopen(&dir);
        let twin = SharedEngine::new(config());
        twin.load_series("raw_values", "r", &series).unwrap();
        twin.execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
            .unwrap();
        twin.append_rows("raw_values", synthetic_rows(90..120))
            .unwrap();
        for q in &queries {
            assert_eq!(
                fingerprint(&recovered.query(q).unwrap()),
                fingerprint(&twin.query(q).unwrap()),
                "{point:?}: recovery diverged from the never-crashed twin for {q}"
            );
        }
    }
}

/// The model behind an Ω-view is not persisted: a reopened engine rebuilds
/// the view on its first append and maintains it from the restored model
/// afterwards. Under the σ-cache both must equal an engine that was never
/// closed.
#[test]
fn reopened_sigma_cache_views_keep_tracking_the_in_memory_twin() {
    use tspdb::core::MaintenancePath;
    const VIEW: &str = "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values";
    let queries = [
        "SELECT * FROM pv",
        "SELECT COUNT(*), SUM(lambda) FROM pv GROUP BY WINDOW(t, 25)",
        "SELECT COUNT(*) FROM pv WITH WORLDS 300 SEED 5",
        "SELECT COUNT(*), SUM(lambda) FROM pv WITH SYNOPSIS BUCKETS 8",
    ];
    assert!(config().cache.is_some(), "this test is about the σ-cache");
    let twin = SharedEngine::new(config());
    let dir = TempDir::new();
    {
        let engine = reopen(&dir);
        for e in [&engine, &twin] {
            e.execute("CREATE TABLE raw_values (t INT, r FLOAT)")
                .unwrap();
            e.append_rows("raw_values", synthetic_rows(0..100)).unwrap();
            e.execute(VIEW).unwrap();
            e.append_rows("raw_values", synthetic_rows(100..110))
                .unwrap();
        }
        engine.checkpoint().unwrap();
    }
    let engine = reopen(&dir);
    assert_eq!(engine.last_maintenance("pv"), None);
    for (range, rebuilt) in [(110..125, true), (125..140, false)] {
        for e in [&engine, &twin] {
            e.append_rows("raw_values", synthetic_rows(range.clone()))
                .unwrap();
        }
        let path = engine.last_maintenance("pv").unwrap().path;
        assert_eq!(path == MaintenancePath::Rebuilt, rebuilt, "{range:?}");
        for q in &queries {
            assert_eq!(
                fingerprint(&engine.query(q).unwrap()),
                fingerprint(&twin.query(q).unwrap()),
                "rows {range:?}: reopened engine diverged from the twin for {q}"
            );
        }
    }
}

/// Ω-view lineage commits with the checkpoint that holds the view. Each
/// case checkpoints right after a `CREATE VIEW` or a `DROP VIEW` — which
/// resets the WAL that held the statement — then puts back whatever
/// `tspdb.meta` sidecar the data directory held before that checkpoint, as
/// a crash before a lineage write landing after the commit would. The
/// reopened engine must still maintain exactly the views the checkpoint
/// holds: every probe, after a further append, equals a never-crashed
/// twin's.
#[test]
fn view_lineage_commits_with_the_checkpoint() {
    const PV: &str = "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values";
    const PV2: &str = "CREATE VIEW pv2 AS DENSITY r OVER t OMEGA delta=1.0, n=4 FROM raw_values";
    let probes = [
        "SELECT * FROM pv",
        "SELECT COUNT(*), SUM(lambda) FROM pv GROUP BY WINDOW(t, 25)",
        "SELECT * FROM pv2",
        "SELECT COUNT(*) FROM raw_values",
    ];
    let probe = |e: &SharedEngine, q: &str| match e.query(q) {
        Ok(out) => fingerprint(&out),
        Err(err) => format!("error: {err}"),
    };
    // (statements before the checkpoint the crash follows, the statement
    // that checkpoint commits)
    let cases: [(&[&str], &str); 2] = [(&[], PV), (&[PV, PV2], "DROP VIEW pv")];
    for (setup, ddl) in cases {
        let dir = TempDir::new();
        let sidecar = dir.path().join("tspdb.meta");
        let twin = SharedEngine::new(config());
        {
            let engine = reopen(&dir);
            for e in [&engine, &twin] {
                e.execute("CREATE TABLE raw_values (t INT, r FLOAT)")
                    .unwrap();
                e.append_rows("raw_values", synthetic_rows(0..100)).unwrap();
                for sql in setup {
                    e.execute(sql).unwrap();
                }
            }
            engine.checkpoint().unwrap();
            let before = std::fs::read(&sidecar).ok();
            for e in [&engine, &twin] {
                e.execute(ddl).unwrap();
            }
            engine.checkpoint().unwrap();
            let _ = std::fs::remove_file(&sidecar);
            if let Some(bytes) = before {
                std::fs::write(&sidecar, bytes).unwrap();
            }
        }
        let engine = reopen(&dir);
        for e in [&engine, &twin] {
            e.append_rows("raw_values", synthetic_rows(100..130))
                .unwrap();
        }
        for q in probes {
            assert_eq!(
                probe(&engine, q),
                probe(&twin, q),
                "after {ddl:?}: the reopened engine diverged from the twin for {q}"
            );
        }
    }
}

/// The complexity of append maintenance as a count, not a timing: a
/// 64-row suffix on a 4 000-reading view hands the metric exactly 64
/// windows. Recovery costs one full build (the model is not persisted);
/// the append after it is back to 64.
#[test]
fn suffix_appends_infer_only_the_appended_windows() {
    use tspdb::core::MaintenancePath;
    const STEP: i64 = 120; // the generator's sampling interval
    let batch = |k: i64| -> Vec<Vec<Value>> {
        synthetic_rows(4_000 + 64 * k..4_000 + 64 * (k + 1))
            .into_iter()
            .map(|row| vec![Value::Int(row[0].as_i64().unwrap() * STEP), row[1].clone()])
            .collect()
    };
    let dir = TempDir::new();
    {
        let engine = reopen(&dir);
        let series = TemperatureGenerator::default().generate(4_000);
        engine.load_series("raw_values", "r", &series).unwrap();
        engine
            .execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
            .unwrap();
        engine.append_rows("raw_values", batch(0)).unwrap();
        let done = engine.last_maintenance("pv").unwrap();
        assert_ne!(done.path, MaintenancePath::Rebuilt);
        assert_eq!(done.windows_inferred, 64);
        engine.checkpoint().unwrap();
    }
    let engine = reopen(&dir);
    engine.append_rows("raw_values", batch(1)).unwrap();
    let done = engine.last_maintenance("pv").unwrap();
    assert_eq!(done.path, MaintenancePath::Rebuilt);
    assert_eq!(done.windows_inferred, 4_000 + 2 * 64 - config().window);
    engine.append_rows("raw_values", batch(2)).unwrap();
    let done = engine.last_maintenance("pv").unwrap();
    assert_ne!(done.path, MaintenancePath::Rebuilt);
    assert_eq!(done.windows_inferred, 64);
}

/// A checkpointed page whose bytes rot on disk must surface as a
/// checksummed storage error naming the page — never as silently wrong
/// tuples.
#[test]
fn torn_checkpointed_page_is_reported_with_its_page_id() {
    const PAGE_SIZE: usize = 4096;
    const LEAF_TAG: u8 = 4;
    let dir = TempDir::new();
    {
        let engine = reopen(&dir);
        engine.execute("CREATE TABLE t (x INT)").unwrap();
        for chunk in 0..4 {
            let values: Vec<String> = (chunk * 50..(chunk + 1) * 50)
                .map(|v| format!("({v})"))
                .collect();
            engine
                .execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
                .unwrap();
        }
        engine.checkpoint().unwrap();
    }
    // Flip payload bytes inside the first leaf page of the database file.
    let db_file = dir.path().join(tspdb::core::storage::DB_FILE);
    let mut bytes = std::fs::read(&db_file).unwrap();
    let leaf_off = (0..bytes.len())
        .step_by(PAGE_SIZE)
        .find(|&off| bytes[off] == LEAF_TAG)
        .expect("checkpoint file holds at least one leaf page");
    let page_id = (leaf_off / PAGE_SIZE) as u64;
    for delta in 100..108 {
        bytes[leaf_off + delta] ^= 0xFF;
    }
    std::fs::write(&db_file, &bytes).unwrap();

    let err = SharedEngine::open_persistent(dir.path(), config())
        .expect_err("recovery must refuse the corrupt page");
    let msg = format!("{err}");
    assert!(
        msg.contains(&format!("page {page_id}")) && msg.contains("corrupt"),
        "error must name the corrupt page: {msg}"
    );
}

proptest! {
    /// Random interleavings of append flushes, incremental checkpoints,
    /// evictions and reboots never drift from an in-memory twin that saw
    /// exactly the same appends — the canonical rendering of every query
    /// matches at every step.
    #[test]
    fn interleaved_checkpoints_evictions_and_reboots_track_the_twin(
        steps in proptest::collection::vec(
            (0u32..4, proptest::collection::vec(-100i64..100, 1..6)),
            1..10,
        ),
    ) {
        let dir = TempDir::new();
        let mut engine = reopen(&dir);
        engine.execute("CREATE TABLE t (x INT)").unwrap();
        let twin = SharedEngine::new(config());
        twin.execute("CREATE TABLE t (x INT)").unwrap();
        for (op, vals) in steps {
            match op {
                0 => {
                    let rows: Vec<Vec<Value>> =
                        vals.iter().map(|v| vec![Value::Int(*v)]).collect();
                    engine.append_rows("t", rows.clone()).unwrap();
                    twin.append_rows("t", rows).unwrap();
                }
                1 => engine.checkpoint().unwrap(),
                // Eviction checkpoints first, so later appends resurrect
                // the relation from disk before extending it. Evicting an
                // already-evicted relation reports it unknown (not
                // resident); any other failure is a real bug.
                2 => {
                    if let Err(e) = engine.evict_to_disk("t") {
                        prop_assert!(
                            format!("{e}").contains("unknown table"),
                            "unexpected eviction failure: {}", e
                        );
                    }
                }
                _ => {
                    drop(engine);
                    engine = reopen(&dir);
                }
            }
            for sql in ["SELECT * FROM t", "SELECT COUNT(*) FROM t GROUP BY WINDOW(x, 64)"] {
                prop_assert_eq!(
                    fingerprint(&engine.query(sql).unwrap()),
                    fingerprint(&twin.query(sql).unwrap()),
                    "divergence after op {} at {}", op, sql
                );
            }
        }
    }

    /// Recovery ≡ never-crashed: for any prefix of committed inserts and
    /// any crash point on the next one, the recovered database equals an
    /// in-memory engine that executed exactly the committed prefix and
    /// never crashed.
    #[test]
    fn recovery_equals_never_crashed_state(
        values in proptest::collection::vec(-1_000i64..1_000, 1..16),
        crash_at in 0usize..16,
        point_sel in 0u32..3,
    ) {
        let crash_at = crash_at % values.len();
        let point = match point_sel {
            0 => CrashPoint::PreCommit,
            1 => CrashPoint::MidRecord,
            _ => CrashPoint::PostCommit,
        };

        let dir = TempDir::new();
        {
            let engine = reopen(&dir);
            engine.execute("CREATE TABLE t (x INT)").unwrap();
            for (i, v) in values.iter().enumerate() {
                let stmt = format!("INSERT INTO t VALUES ({v})");
                if i == crash_at {
                    engine.storage().unwrap().set_crash_point(Some(point));
                    prop_assert!(engine.execute(&stmt).is_err());
                    break;
                }
                engine.execute(&stmt).unwrap();
            }
        }
        let recovered = reopen(&dir);
        let got = fingerprint(&recovered.query("SELECT * FROM t").unwrap());

        // The committed prefix: everything before the crash, plus the
        // dying statement itself iff it crashed *after* the WAL fsync.
        let committed = crash_at + usize::from(point == CrashPoint::PostCommit);
        let reference = SharedEngine::new(config());
        reference.execute("CREATE TABLE t (x INT)").unwrap();
        for v in &values[..committed] {
            reference.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let want = fingerprint(&reference.query("SELECT * FROM t").unwrap());
        prop_assert_eq!(got, want);
    }
}
