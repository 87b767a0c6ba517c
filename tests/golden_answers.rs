//! The golden-answer corpus: the canonical result bytes of a fixed set of
//! read statements, committed in `tests/golden/answers.txt`, so "no answer
//! changed" is a diff rather than a promise.
//!
//! Each case is one statement over one medium, answered at fork-join
//! widths 1 and 8. A line holds `case-id worlds_threads` and then either
//! the hex of `canonical_result_bytes` or `err` and the typed error. The
//! statements cover every shape the benchmark sends (with fixed
//! parameters), `EXPLAIN` under each strategy, `HAVING COUNT` and
//! `HAVING SUM` tails exact and under `WITH WORLDS`, the `WITH SYNOPSIS`
//! twins, typed errors, and a base probabilistic table holding NaN, ±∞
//! and −0.0. The Ω-view and the deterministic source are read resident
//! and through their evicted, disk-served twins.
//!
//! Answers go through the platform's `exp`, `ln` and `powf`, so the file
//! is pinned on x86_64 Linux only. A failing comparison means an answer
//! changed. If that was deliberate, regenerate the file with
//! `cargo test --test golden_answers -- --ignored` and say why in the
//! change.

use std::fmt::Write;
use std::path::{Path, PathBuf};
use tspdb::probdb::{ColumnType, Schema};
use tspdb::timeseries::generate::TemperatureGenerator;
use tspdb::{Database, DbError, ProbTable, QueryOutput, SharedEngine, Value};
use tspdb_wire::canonical_result_bytes;

fn corpus() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/answers.txt")
}

/// Minimal self-cleaning temp dir (no external crates in the offline
/// build).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("tspdb-golden-answers-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Readings in the source series: at a 60-reading model window, 240
/// windows of six tuples each.
const READINGS: usize = 300;

/// One case: its id and its statement.
type Case = (&'static str, &'static str);

/// The Ω-view statements: `{v}` is the view (`vp` resident, `vp_disk`
/// evicted). The first ten are the benchmark's statement shapes.
const VIEW_CASES: [Case; 36] = [
    // `query_point`'s shapes.
    (
        "point-threshold",
        "SELECT * FROM {v} WHERE t >= 12000 AND t <= 18000 THRESHOLD 0.25",
    ),
    (
        "point-having-count",
        "SELECT COUNT(*) FROM {v} WHERE t >= 14400 AND t <= 18000 HAVING COUNT(*) >= 25",
    ),
    (
        "point-window",
        "SELECT COUNT(*), SUM(lambda) FROM {v} WHERE t >= 9600 AND t < 21600 \
         GROUP BY WINDOW(t, 1200)",
    ),
    (
        "point-worlds-rows",
        "SELECT * FROM {v} WHERE t >= 12000 AND t <= 18000 WITH WORLDS 1000 SEED 417",
    ),
    (
        "point-explain-worlds",
        "EXPLAIN SELECT COUNT(*) FROM {v} WHERE t >= 12000 WITH WORLDS 500 SEED 9",
    ),
    (
        "point-synopsis",
        "SELECT COUNT(*), SUM(lambda) FROM {v} WITH SYNOPSIS BUCKETS 8",
    ),
    // `query_scan`'s shapes.
    ("scan-threshold", "SELECT * FROM {v} THRESHOLD 0.44"),
    (
        "scan-window",
        "SELECT COUNT(*), SUM(lambda) FROM {v} GROUP BY WINDOW(t, 3600)",
    ),
    (
        "scan-top",
        "SELECT t, lambda FROM {v} ORDER BY prob DESC LIMIT 60",
    ),
    (
        "scan-worlds",
        "SELECT COUNT(*) FROM {v} WHERE t >= 9000 GROUP BY WINDOW(t, 360000) \
         WITH WORLDS 200 SEED 77",
    ),
    // HAVING-free aggregates under each clause.
    (
        "agg-exact",
        "SELECT COUNT(*) FROM {v} WHERE t >= 9000 GROUP BY WINDOW(t, 360000)",
    ),
    (
        "agg-worlds-windows",
        "SELECT COUNT(*), AVG(lambda) FROM {v} WHERE lambda >= 10 GROUP BY WINDOW(t, 7200) \
         WITH WORLDS 300 SEED 8",
    ),
    (
        "totals-exact",
        "SELECT COUNT(*), SUM(lambda), AVG(lambda), EXPECTED(t) FROM {v}",
    ),
    (
        "totals-worlds",
        "SELECT COUNT(*), SUM(lambda), AVG(lambda), EXPECTED(t) FROM {v} WITH WORLDS 300 SEED 5",
    ),
    (
        "totals-synopsis",
        "SELECT COUNT(*), SUM(lambda), AVG(lambda), EXPECTED(t) FROM {v} WITH SYNOPSIS",
    ),
    (
        "agg-worlds-threshold-confidence",
        "SELECT COUNT(*), SUM(lambda) FROM {v} THRESHOLD 0.05 \
         WITH WORLDS 400 SEED 3 CONFIDENCE 0.05",
    ),
    (
        "agg-worlds-top",
        "SELECT t, COUNT(*) FROM {v} GROUP BY t TOP 20 WITH WORLDS 250 SEED 6",
    ),
    // HAVING tails.
    (
        "having-count-exact",
        "SELECT COUNT(*) FROM {v} WHERE t >= 33000 HAVING COUNT(*) >= 20",
    ),
    (
        "having-count-worlds",
        "SELECT COUNT(*), SUM(lambda) FROM {v} WHERE t >= 33000 HAVING COUNT(*) >= 20 \
         WITH WORLDS 500 SEED 12",
    ),
    (
        "having-count-synopsis",
        "SELECT COUNT(*) FROM {v} WHERE t >= 33000 HAVING COUNT(*) >= 20 WITH SYNOPSIS",
    ),
    (
        "having-count-windows-worlds",
        "SELECT COUNT(*), SUM(lambda) FROM {v} WHERE t >= 33600 GROUP BY WINDOW(t, 1200) \
         HAVING COUNT(*) >= 8 WITH WORLDS 200 SEED 8",
    ),
    (
        "having-sum-exact",
        "SELECT t, COUNT(*), SUM(lambda) FROM {v} WHERE t >= 34800 GROUP BY t \
         HAVING SUM(lambda) >= 10",
    ),
    (
        "having-sum-worlds",
        "SELECT t, COUNT(*), SUM(lambda), AVG(lambda) FROM {v} WHERE t >= 34800 GROUP BY t \
         HAVING SUM(lambda) >= 10 WITH WORLDS 300 SEED 4",
    ),
    (
        "having-sum-global-worlds",
        "SELECT COUNT(*) FROM {v} WHERE t >= 30000 HAVING SUM(lambda) >= 400 \
         WITH WORLDS 300 SEED 21",
    ),
    // Row-level worlds: the domain count, with and without a SUM column.
    (
        "rows-worlds-sum",
        "SELECT lambda FROM {v} WHERE t >= 33000 THRESHOLD 0.02 WITH WORLDS 800 SEED 2",
    ),
    (
        "rows-worlds-top",
        "SELECT * FROM {v} WHERE prob >= 0.05 TOP 30 WITH WORLDS 600 SEED 11",
    ),
    // EXPLAIN under each strategy.
    (
        "explain-exact",
        "EXPLAIN SELECT t, lambda FROM {v} WHERE t >= 30000 ORDER BY prob DESC LIMIT 5",
    ),
    (
        "explain-worlds-rows",
        "EXPLAIN SELECT * FROM {v} THRESHOLD 0.1 WITH WORLDS 100 SEED 1",
    ),
    (
        "explain-worlds-having",
        "EXPLAIN SELECT COUNT(*) FROM {v} HAVING COUNT(*) >= 3 WITH WORLDS 100 CONFIDENCE 0.01",
    ),
    (
        "explain-synopsis",
        "EXPLAIN SELECT COUNT(*) FROM {v} WITH SYNOPSIS BUCKETS 4",
    ),
    // Typed errors from the planner, the scan and the strategies.
    ("err-unknown-projection", "SELECT nope FROM {v}"),
    ("err-unknown-predicate", "SELECT * FROM {v} WHERE nope >= 1"),
    ("err-group-by", "SELECT lambda, COUNT(*) FROM {v}"),
    (
        "err-worlds-order-by",
        "SELECT * FROM {v} ORDER BY prob WITH WORLDS 10",
    ),
    (
        "err-having-avg",
        "SELECT COUNT(*) FROM {v} HAVING AVG(lambda) >= 1",
    ),
    (
        "err-worlds-sum-unknown",
        "SELECT SUM(nope) FROM {v} WITH WORLDS 50",
    ),
];

/// The deterministic source statements: `{v}` is `raw` resident or
/// `raw_disk` evicted.
const RAW_CASES: [Case; 5] = [
    (
        "raw-aggregate",
        "SELECT COUNT(*), SUM(r), AVG(r) FROM {v} WHERE t >= 30000",
    ),
    ("raw-synopsis", "SELECT COUNT(*) FROM {v} WITH SYNOPSIS"),
    (
        "raw-worlds-rows",
        "SELECT * FROM {v} WHERE nope >= 1 WITH WORLDS 10",
    ),
    (
        "raw-worlds-aggregate",
        "SELECT COUNT(*), SUM(r) FROM {v} WITH WORLDS 100",
    ),
    ("raw-threshold", "SELECT * FROM {v} THRESHOLD 0.5"),
];

/// The base probabilistic table `bp(g, x)`: non-finite and signed-zero
/// values, each group holding at most one kind of non-finite value so no
/// NaN the arithmetic makes can meet another one (which of two NaN
/// payloads survives an addition is not specified).
const BASE_CASES: [Case; 12] = [
    (
        "base-totals",
        "SELECT COUNT(*), SUM(x), AVG(x), EXPECTED(x) FROM bp",
    ),
    (
        "base-groups",
        "SELECT g, COUNT(*), SUM(x), AVG(x) FROM bp GROUP BY g",
    ),
    (
        "base-groups-worlds",
        "SELECT g, COUNT(*), SUM(x), AVG(x) FROM bp GROUP BY g WITH WORLDS 400 SEED 3",
    ),
    (
        "base-having-sum",
        "SELECT g, COUNT(*) FROM bp GROUP BY g HAVING SUM(x) >= 1",
    ),
    (
        "base-having-sum-worlds",
        "SELECT g, COUNT(*), SUM(x) FROM bp GROUP BY g HAVING SUM(x) >= 1 \
         WITH WORLDS 2000 SEED 5",
    ),
    (
        "base-having-count",
        "SELECT g, SUM(x) FROM bp GROUP BY g HAVING COUNT(*) >= 2",
    ),
    (
        "base-having-count-worlds",
        "SELECT g, SUM(x) FROM bp GROUP BY g HAVING COUNT(*) >= 2 WITH WORLDS 2000 SEED 6",
    ),
    (
        "base-rows-worlds-nan",
        "SELECT x FROM bp WHERE g = 0 WITH WORLDS 500 SEED 2",
    ),
    (
        "base-rows-worlds-inf",
        "SELECT x FROM bp WHERE g = 1 WITH WORLDS 500 SEED 2",
    ),
    ("base-order", "SELECT * FROM bp ORDER BY x DESC"),
    (
        "base-synopsis",
        "SELECT SUM(x) FROM bp WHERE x >= 0 WITH SYNOPSIS",
    ),
    (
        "base-threshold",
        "SELECT COUNT(*), SUM(x) FROM bp WHERE x <> 0 THRESHOLD 0.2",
    ),
];

/// A persistent engine with the source `raw`, its evicted twin
/// `raw_disk`, the Ω-view `vp` over `raw`, and `vp`'s evicted twin.
fn engine(dir: &TempDir) -> SharedEngine {
    let engine = SharedEngine::open_persistent(&dir.0, tspdb_server::demo_config()).unwrap();
    let series = TemperatureGenerator::default().generate(READINGS);
    for table in ["raw", "raw_disk"] {
        engine.load_series(table, "r", &series).unwrap();
    }
    for view in ["vp", "vp_disk"] {
        engine
            .execute(&format!(
                "CREATE VIEW {view} AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw"
            ))
            .unwrap();
    }
    for twin in ["raw_disk", "vp_disk"] {
        engine.evict_to_disk(twin).unwrap();
    }
    engine
}

fn base_table() -> Database {
    let schema = Schema::of(&[("g", ColumnType::Int), ("x", ColumnType::Float)]);
    let mut bp = ProbTable::new("bp", schema);
    let two53 = (1u64 << 53) as f64;
    let groups: [&[(f64, f64)]; 3] = [
        &[(f64::NAN, 0.5), (1.5, 0.25), (-0.0, 1.0), (0.1, 0.75)],
        &[(f64::INFINITY, 0.3), (-0.0, 0.5), (2.0, 0.0), (0.0, 0.9)],
        &[
            (f64::NEG_INFINITY, 0.6),
            (two53 + 2.0, 0.5),
            (-2.25, 1.0),
            (-0.0, 0.2),
            (3.0, 0.4),
        ],
    ];
    for (g, tuples) in groups.iter().enumerate() {
        for &(x, p) in *tuples {
            bp.insert(vec![Value::Int(g as i64), Value::Float(x)], p)
                .unwrap();
        }
    }
    let mut db = Database::new();
    db.register_prob_table(bp).unwrap();
    db
}

fn answer(out: Result<QueryOutput, DbError>) -> String {
    match out {
        Ok(out) => canonical_result_bytes(&out)
            .iter()
            .fold(String::new(), |mut s, b| {
                write!(s, "{b:02x}").unwrap();
                s
            }),
        Err(e) => format!("err {e:?}"),
    }
}

fn render() -> String {
    let mut out = String::from(
        "# Golden answers: `case-id worlds_threads hex(canonical_result_bytes)` or\n\
         # `case-id worlds_threads err <typed error>`. Pinned on x86_64 Linux.\n\
         # Regenerate: cargo test --test golden_answers -- --ignored\n",
    );
    let dir = TempDir::new("corpus");
    let engine = engine(&dir);
    let base = base_table();
    let media: [(&[Case], [&str; 2]); 2] = [
        (&VIEW_CASES, ["vp", "vp_disk"]),
        (&RAW_CASES, ["raw", "raw_disk"]),
    ];
    for (cases, relations) in media {
        for (id, sql) in cases {
            writeln!(out, "# {id}: {sql}").unwrap();
            for rel in relations {
                let sql = sql.replace("{v}", rel);
                for threads in [1, 8] {
                    engine.set_worlds_threads(threads);
                    let got = engine.query(&sql).map_err(|e| match e {
                        tspdb::CoreError::Db(e) => e,
                        other => panic!("engine-layer error on a read: {other}"),
                    });
                    writeln!(out, "{id}@{rel} {threads} {}", answer(got)).unwrap();
                }
            }
        }
    }
    for (id, sql) in BASE_CASES {
        writeln!(out, "# {id}: {sql}").unwrap();
        for threads in [1, 8] {
            base.set_worlds_threads(threads);
            writeln!(out, "{id}@bp {threads} {}", answer(base.query(sql))).unwrap();
        }
    }
    for twin in ["raw_disk", "vp_disk"] {
        assert!(
            engine.read().relation(twin).is_none(),
            "a statement made {twin} resident"
        );
    }
    out
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn every_answer_matches_the_golden_corpus() {
    let pinned = std::fs::read_to_string(corpus()).expect("read the golden corpus");
    let got = render();
    let (pinned, got): (Vec<&str>, Vec<&str>) = (pinned.lines().collect(), got.lines().collect());
    for (i, (want, have)) in pinned.iter().zip(&got).enumerate() {
        assert!(
            want == have,
            "line {} differs from the corpus:\n  pinned: {}\n  got:    {}",
            i + 1,
            &want[..want.len().min(300)],
            &have[..have.len().min(300)]
        );
    }
    assert_eq!(pinned.len(), got.len(), "corpus line count");
}

#[test]
#[ignore = "rewrites tests/golden/answers.txt; run only for a deliberate answer change"]
fn regenerate_golden_corpus() {
    std::fs::create_dir_all(corpus().parent().unwrap()).unwrap();
    std::fs::write(corpus(), render()).unwrap();
}
