//! Every way a read-only statement can reach the engine returns the same
//! bytes: `SharedEngine::{query, query_cached, execute}`, the wire's
//! ad-hoc and prepared paths, and — as the reference with no plan cache
//! and no snapshot — the plain borrowed `Database` path. Checked on a
//! resident Ω-view and on its evicted, disk-served twin, at session
//! fork-join widths 1 and 8.

use std::path::PathBuf;
use tspdb::timeseries::generate::TemperatureGenerator;
use tspdb::{
    DbError, MetricConfig, ProbTable, QueryOutput, SharedEngine, Table, Value, ViewBuilderConfig,
};
use tspdb_client::{Client, ClientError};
use tspdb_server::{Server, ServerConfig, ServerHandle};
use tspdb_wire::canonical_result_bytes;

/// Minimal self-cleaning temp dir (no external crates in the offline
/// build).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "tspdb-read-paths-test-{}-{tag}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The resident view and its evicted twin.
const RESIDENT: &str = "pv";
const EVICTED: &str = "pv_disk";

/// A persistent engine holding `raw_values`, the Ω-view `pv` and its twin
/// `pv_disk`, built from the same spec and then evicted to disk.
fn engine(dir: &TempDir) -> SharedEngine {
    let engine = SharedEngine::open_persistent(
        &dir.0,
        ViewBuilderConfig {
            window: 60,
            metric_config: MetricConfig {
                p: 1,
                q: 0,
                ..MetricConfig::default()
            },
            ..ViewBuilderConfig::default()
        },
    )
    .unwrap();
    let series = TemperatureGenerator::default().generate(180);
    engine.load_series("raw_values", "r", &series).unwrap();
    for view in [RESIDENT, EVICTED] {
        engine
            .execute(&format!(
                "CREATE VIEW {view} AS DENSITY r OVER t OMEGA delta=0.25, n=8 FROM raw_values"
            ))
            .unwrap();
    }
    engine.evict_to_disk(EVICTED).unwrap();
    // Deterministic twins holding NaN, ±∞ and −0.0 readings, and empty
    // twins; the second of each pair is evicted.
    let specials = [
        f64::NAN,
        -0.0,
        f64::INFINITY,
        1.5,
        f64::NEG_INFINITY,
        7.0,
        0.0,
    ];
    let rows: Vec<Vec<Value>> = (0..2_000i64)
        .map(|t| {
            vec![
                Value::Int(t),
                Value::Float(specials[t as usize % specials.len()]),
            ]
        })
        .collect();
    for (table, rows) in [("nums", rows), ("none", Vec::new())] {
        for twin in [table.to_string(), format!("{table}_disk")] {
            engine
                .execute(&format!("CREATE TABLE {twin} (t INT, r FLOAT)"))
                .unwrap();
            if !rows.is_empty() {
                engine.append_rows(&twin, rows.clone()).unwrap();
            }
        }
        engine.evict_to_disk(&format!("{table}_disk")).unwrap();
    }
    engine
}

fn serve(engine: &SharedEngine) -> ServerHandle {
    Server::bind("127.0.0.1:0", engine.clone(), ServerConfig::default())
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

/// One statement per result shape and strategy, plus typed errors raised
/// by the planner, by the scan and by the strategy.
fn statements(rel: &str) -> Vec<String> {
    [
        "SELECT t, lambda FROM {rel} WHERE lambda >= 0 ORDER BY prob DESC LIMIT 40",
        "SELECT * FROM {rel} WHERE t >= 9000 THRESHOLD 0.1 TOP 25",
        "SELECT t, COUNT(*), SUM(lambda) FROM {rel} GROUP BY t",
        "SELECT COUNT(*), AVG(lambda) FROM {rel} GROUP BY WINDOW(t, 1800)",
        "SELECT t, COUNT(*) FROM {rel} GROUP BY t HAVING COUNT(*) >= 2",
        "SELECT * FROM {rel} WHERE prob >= 0.05 WITH WORLDS 600 SEED 11",
        "SELECT COUNT(*), SUM(lambda) FROM {rel} THRESHOLD 0.05 WITH WORLDS 400 SEED 3",
        "SELECT COUNT(*), SUM(lambda) FROM {rel} WITH SYNOPSIS BUCKETS 16",
        "SELECT COUNT(*) FROM {rel} WHERE lambda >= 1 WITH SYNOPSIS",
        "EXPLAIN SELECT SUM(lambda) FROM {rel} GROUP BY t WITH WORLDS 256",
        "SELECT nope FROM {rel} WHERE lambda >= 0",
        "SELECT * FROM {rel} WHERE nope >= 1",
        "SELECT lambda, COUNT(*) FROM {rel}",
        // Probability ties across leaf boundaries, under TOP and ORDER BY.
        "SELECT t, lambda FROM {rel} ORDER BY prob DESC LIMIT 150",
        "SELECT * FROM {rel} THRESHOLD 0.01 TOP 60",
        "SELECT t, hi FROM {rel} WHERE lambda != 0 ORDER BY lo DESC LIMIT 70",
        "SELECT COUNT(*), SUM(lambda) FROM {rel} GROUP BY WINDOW(t, 600) HAVING COUNT(*) >= 3",
        "SELECT COUNT(*), SUM(lambda) FROM {rel} WHERE t >= 3000 GROUP BY WINDOW(t, 900) \
         HAVING SUM(lambda) >= 0",
        "SELECT lambda, COUNT(*), AVG(t) FROM {rel} GROUP BY lambda",
        "SELECT COUNT(*), SUM(lambda) FROM {rel} WHERE t < 0",
        "SELECT t FROM {rel} WHERE t < 0 ORDER BY prob DESC LIMIT 5",
        "SELECT COUNT(*) FROM {rel} WHERE t < 0 GROUP BY WINDOW(t, 60)",
        // An unknown column reached only by rows past the first leaf.
        "SELECT * FROM {rel} WHERE t >= 6000 AND nope = 1",
        "SELECT COUNT(*), SUM(lambda) FROM {rel} WHERE t >= 6000 AND nope = 1 GROUP BY lambda",
    ]
    .iter()
    .map(|sql| sql.replace("{rel}", rel))
    .collect()
}

/// An entry point's answer in comparable form: the canonical result bytes,
/// or the typed error.
type Answer = Result<Vec<u8>, DbError>;

fn local<E: Into<tspdb::CoreError>>(out: Result<QueryOutput, E>) -> Answer {
    match out.map_err(Into::into) {
        Ok(out) => Ok(canonical_result_bytes(&out)),
        Err(tspdb::CoreError::Db(e)) => Err(e),
        Err(other) => panic!("engine-layer error on a read: {other}"),
    }
}

/// [`local`], with a row result's relation name blanked, so that a
/// relation and its evicted twin answer alike.
fn unnamed(out: Result<QueryOutput, DbError>) -> Answer {
    local(out.map(|out| match out {
        QueryOutput::Rows(t) => {
            let columns = t.columns().to_vec();
            QueryOutput::Rows(Table::from_columns("", t.schema().clone(), columns).unwrap())
        }
        QueryOutput::ProbRows(t) => {
            let (schema, columns) = (t.schema().clone(), t.columns().to_vec());
            let probs = t.probs().to_vec();
            QueryOutput::ProbRows(ProbTable::from_columns("", schema, columns, probs).unwrap())
        }
        other => other,
    }))
}

fn remote(out: Result<QueryOutput, ClientError>) -> Answer {
    match out {
        Ok(out) => Ok(canonical_result_bytes(&out)),
        Err(ClientError::Server(e)) => Err(e),
        Err(other) => panic!("transport error: {other}"),
    }
}

#[test]
fn every_read_path_returns_the_same_bytes() {
    let dir = TempDir::new("matrix");
    let engine = engine(&dir);
    let handle = serve(&engine);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Windows keyed by NaN and ±∞, and relations with no rows.
    let tables = [
        "SELECT COUNT(*), SUM(t) FROM {rel} GROUP BY WINDOW(r, 2)",
        "SELECT r, COUNT(*) FROM {rel} GROUP BY r",
        "SELECT t, r FROM {rel} ORDER BY r DESC LIMIT 9",
        "SELECT COUNT(*), AVG(r) FROM {rel}",
    ];
    let twins = |table: &str| {
        [table.to_string(), format!("{table}_disk")].map(|rel| {
            let statements = tables.iter().map(|sql| sql.replace("{rel}", &rel));
            statements.collect::<Vec<_>>()
        })
    };
    let [nums, nums_disk] = twins("nums");
    let [none, none_disk] = twins("none");
    for threads in [1, 8] {
        client.set_worlds_threads(threads).unwrap();
        // Each twin's answers with the relation's name left out.
        let mut twins = Vec::new();
        for (rel, extra) in [
            (RESIDENT, nums.iter().chain(&none)),
            (EVICTED, nums_disk.iter().chain(&none_disk)),
        ] {
            let mut answers = Vec::new();
            for sql in statements(rel).iter().chain(extra) {
                answers.push(unnamed(engine.read().query(sql)));
                let reference = local(engine.read().query(sql));
                let prepared = client.prepare(sql).and_then(|id| {
                    let out = client.execute(id);
                    client.close_statement(id)?;
                    out
                });
                let paths = [
                    ("query", local(engine.query(sql))),
                    ("query_cached", local(engine.query_cached(sql))),
                    ("execute", local(engine.execute(sql))),
                    ("Client::query", remote(client.query(sql))),
                    ("prepared execute", remote(prepared)),
                ];
                for (path, answer) in paths {
                    assert_eq!(
                        answer, reference,
                        "{path} diverges from read().query at worlds_threads {threads}: {sql}"
                    );
                }
                assert!(
                    engine.read().relation(EVICTED).is_none(),
                    "{sql} made the evicted twin resident"
                );
            }
            twins.push(answers);
        }
        let sql = statements(RESIDENT)
            .into_iter()
            .chain(nums.clone())
            .chain(none.clone());
        for ((sql, resident), evicted) in sql.zip(&twins[0]).zip(&twins[1]) {
            // `EXPLAIN` names the medium.
            if !sql.starts_with("EXPLAIN") {
                assert_eq!(
                    resident, evicted,
                    "resident vs evicted at width {threads}: {sql}"
                );
            }
        }
    }
    assert!(engine.read().relation(RESIDENT).is_some());

    // A write is turned away identically by the read-only entry points.
    let write = format!("DROP VIEW {RESIDENT}");
    let reference = local(engine.read().query(&write));
    assert!(matches!(reference, Err(DbError::ReadOnly(_))));
    assert_eq!(local(engine.query(&write)), reference);
    assert_eq!(local(engine.query_cached(&write)), reference);

    client.close().unwrap();
    handle.shutdown();
}

#[test]
fn a_repeated_statement_plans_once_per_server_session() {
    let dir = TempDir::new("plan-cache");
    let engine = engine(&dir);
    let handle = serve(&engine);
    let mut client = Client::connect(handle.addr()).expect("connect");

    const N: u64 = 12;
    for rel in [RESIDENT, EVICTED] {
        let before = engine.plan_cache_stats();
        let sql = format!("SELECT t, COUNT(*) FROM {rel} WHERE t >= 6000 GROUP BY t");
        let first = remote(client.query(&sql));
        for _ in 1..N {
            assert_eq!(remote(client.query(&sql)), first);
        }
        let after = engine.plan_cache_stats();
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (N - 1, 1),
            "{rel}: {before:?} -> {after:?}"
        );
    }

    client.close().unwrap();
    handle.shutdown();
}

/// `WITH WORLDS` over the evicted twin evaluates only the tuples its
/// leaf-at-a-time restriction kept: the same domain, in the same order,
/// as over the resident view, so sampled grouped events and closed-form
/// row answers are the same bytes at every fork-join width, and the twin
/// stays on disk.
#[test]
fn worlds_over_the_evicted_twin_answer_like_the_resident_view() {
    let dir = TempDir::new("worlds-evicted");
    let engine = engine(&dir);
    let statements = [
        "SELECT t, COUNT(*), SUM(lambda) FROM {rel} WHERE t >= 3000 GROUP BY t \
         HAVING SUM(lambda) >= 1 WITH WORLDS 500 SEED 5",
        "SELECT COUNT(*) FROM {rel} WHERE lambda >= 0 GROUP BY WINDOW(t, 1800) \
         WITH WORLDS 300 SEED 8",
        "SELECT lambda FROM {rel} WHERE t >= 6000 THRESHOLD 0.02 WITH WORLDS 800 SEED 2",
        "SELECT * FROM {rel} WHERE prob >= 0.05 TOP 30 WITH WORLDS 600 SEED 11",
    ];
    for threads in [1, 8] {
        engine.set_worlds_threads(threads);
        for sql in statements {
            let resident = local(engine.query(&sql.replace("{rel}", RESIDENT)));
            let evicted = local(engine.query(&sql.replace("{rel}", EVICTED)));
            assert!(resident.is_ok(), "{sql}: {resident:?}");
            assert_eq!(evicted, resident, "worlds_threads {threads}: {sql}");
            assert!(engine.read().relation(EVICTED).is_none());
        }
    }

    // The row shape reports an unknown projected column ahead of an
    // unknown predicate column, resident or evicted.
    let sql = "SELECT nope FROM {rel} WHERE other >= 1 WITH WORLDS 10";
    let resident = local(engine.query(&sql.replace("{rel}", RESIDENT)));
    assert!(
        matches!(&resident, Err(DbError::UnknownColumn(c)) if c == "nope"),
        "{resident:?}"
    );
    assert_eq!(
        local(engine.query(&sql.replace("{rel}", EVICTED))),
        resident
    );

    // A deterministic relation still fails with `InvalidWorlds` before
    // any predicate is evaluated, resident or evicted.
    let sql = "SELECT * FROM raw_values WHERE nope >= 1 WITH WORLDS 10";
    let resident = local(engine.query(sql));
    assert!(
        matches!(resident, Err(DbError::InvalidWorlds(_))),
        "{resident:?}"
    );
    engine.evict_to_disk("raw_values").unwrap();
    assert_eq!(local(engine.query(sql)), resident);
    assert!(engine.read().relation("raw_values").is_none());
}

/// A group carries its count distribution iff the statement has a `HAVING
/// COUNT` tail that was evaluated from it (exactly, or by MC): over the
/// wire, on the resident view and on its evicted twin, at fork-join widths
/// 1 and 8. `WITH SYNOPSIS` is answered exactly and follows the exact
/// rule.
#[test]
fn only_a_having_count_tail_ships_the_count_distribution() {
    let dir = TempDir::new("count-distribution");
    let engine = engine(&dir);
    let handle = serve(&engine);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let statements = [
        ("SELECT COUNT(*) FROM {rel}", false),
        (
            "SELECT COUNT(*), AVG(lambda) FROM {rel} GROUP BY WINDOW(t, 1800)",
            false,
        ),
        (
            "SELECT t, COUNT(*), SUM(lambda) FROM {rel} GROUP BY t HAVING SUM(lambda) >= 1",
            false,
        ),
        (
            "SELECT COUNT(*) FROM {rel} GROUP BY WINDOW(t, 1800) WITH WORLDS 300 SEED 8",
            false,
        ),
        (
            "SELECT COUNT(*) FROM {rel} HAVING SUM(lambda) >= 1 WITH WORLDS 300 SEED 8",
            false,
        ),
        (
            "SELECT COUNT(*) FROM {rel} WHERE lambda >= 1 WITH SYNOPSIS",
            false,
        ),
        (
            "SELECT COUNT(*) FROM {rel} HAVING COUNT(*) >= 5 WITH SYNOPSIS",
            true,
        ),
        ("SELECT COUNT(*) FROM {rel} HAVING COUNT(*) >= 0", true),
        (
            "SELECT t, SUM(lambda) FROM {rel} GROUP BY t HAVING COUNT(*) >= 2",
            true,
        ),
        (
            "SELECT COUNT(*) FROM {rel} GROUP BY WINDOW(t, 1800) HAVING COUNT(*) >= 3 \
             WITH WORLDS 300 SEED 8",
            true,
        ),
        (
            "SELECT COUNT(*) FROM {rel} WHERE lambda >= 1 HAVING COUNT(*) >= 1 WITH SYNOPSIS",
            true,
        ),
    ];
    for threads in [1, 8] {
        client.set_worlds_threads(threads).unwrap();
        engine.set_worlds_threads(threads);
        for rel in [RESIDENT, EVICTED] {
            for (sql, attached) in statements {
                let sql = sql.replace("{rel}", rel);
                let out = client.query(&sql).expect(&sql);
                assert_eq!(local(engine.query(&sql)), Ok(canonical_result_bytes(&out)));
                let QueryOutput::Aggregate(agg) = out else {
                    panic!("{sql}: not an aggregate: {out:?}");
                };
                assert!(!agg.groups.is_empty(), "{sql}");
                for g in &agg.groups {
                    match &g.count_distribution {
                        Some(dist) => {
                            assert!(attached, "{sql}: unasked-for distribution");
                            assert!(dist.len() >= 2, "{sql}: {dist:?}");
                            let mass: f64 = dist.iter().sum();
                            assert!((mass - 1.0).abs() < 1e-9, "{sql}: mass {mass}");
                        }
                        None => assert!(!attached, "{sql}: distribution missing"),
                    }
                }
                assert!(engine.read().relation(EVICTED).is_none(), "{sql}");
            }
        }
    }
    client.close().unwrap();
    handle.shutdown();
}

/// `WITH SYNOPSIS` is answered exactly: every statement carrying the
/// clause returns the bytes of its clause-free twin, over the wire and in
/// process, on the resident view and on its evicted twin, at fork-join
/// widths 1 and 8. The unrestricted aggregate, answered from the view's
/// running totals, is the same bytes resident and evicted.
#[test]
fn with_synopsis_answers_the_bytes_of_its_clause_free_twin() {
    let dir = TempDir::new("synopsis");
    let engine = engine(&dir);
    let handle = serve(&engine);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let statements = [
        "SELECT COUNT(*), SUM(lambda) FROM {rel}",
        "SELECT COUNT(*), AVG(lambda), EXPECTED(t) FROM {rel}",
        "SELECT COUNT(*) FROM {rel} WHERE lambda >= 1",
        "SELECT COUNT(*), SUM(lambda) FROM {rel} THRESHOLD 0.05",
        "SELECT COUNT(*), SUM(lambda) FROM {rel} GROUP BY WINDOW(t, 1800)",
        "SELECT COUNT(*) FROM {rel} HAVING COUNT(*) >= 5",
        "SELECT t, lambda FROM {rel} WHERE t >= 9000",
        "SELECT SUM(nope) FROM {rel}",
    ];
    for threads in [1, 8] {
        client.set_worlds_threads(threads).unwrap();
        engine.set_worlds_threads(threads);
        let mut totals = Vec::new();
        for rel in [RESIDENT, EVICTED] {
            for sql in statements {
                let twin = sql.replace("{rel}", rel);
                let want = local(engine.read().query(&twin));
                for clause in [
                    "WITH SYNOPSIS",
                    "WITH SYNOPSIS BUCKETS 8",
                    "WITH SYNOPSIS BUCKETS 65 MAXERROR 0.5",
                ] {
                    let sql = format!("{twin} {clause}");
                    assert_eq!(remote(client.query(&sql)), want, "{sql} over the wire");
                    assert_eq!(local(engine.query(&sql)), want, "{sql}");
                }
                assert!(engine.read().relation(EVICTED).is_none(), "{twin}");
            }
            totals.push(local(engine.query(&statements[0].replace("{rel}", rel))));
        }
        assert!(totals[0].is_ok(), "{totals:?}");
        assert_eq!(totals[0], totals[1], "resident vs evicted totals");
    }
    client.close().unwrap();
    handle.shutdown();
}

/// `WITH WORLDS` over an aggregate without `HAVING` is answered exactly:
/// every such statement returns the bytes of its clause-free twin, on the
/// resident view and on its evicted twin, at fork-join widths 1 and 8,
/// and a deterministic relation still refuses the clause.
#[test]
fn with_worlds_expectations_answer_the_bytes_of_their_clause_free_twin() {
    let dir = TempDir::new("worlds-expectations");
    let engine = engine(&dir);
    let statements = [
        "SELECT COUNT(*), SUM(lambda), AVG(lambda), EXPECTED(t) FROM {rel}",
        "SELECT COUNT(*) FROM {rel} WHERE t >= 3000 GROUP BY WINDOW(t, 360000)",
        "SELECT t, COUNT(*), SUM(lambda) FROM {rel} WHERE lambda >= 1 GROUP BY t",
        "SELECT COUNT(*), SUM(lambda) FROM {rel} THRESHOLD 0.05",
        "SELECT COUNT(*) FROM {rel} TOP 40",
    ];
    for threads in [1, 8] {
        engine.set_worlds_threads(threads);
        for rel in [RESIDENT, EVICTED] {
            for sql in statements {
                let twin = sql.replace("{rel}", rel);
                let want = local(engine.query(&twin));
                assert!(want.is_ok(), "{twin}: {want:?}");
                for clause in ["WITH WORLDS 300 SEED 8", "WITH WORLDS 5 CONFIDENCE 0.5"] {
                    let sql = format!("{twin} {clause}");
                    assert_eq!(local(engine.query(&sql)), want, "{sql} at width {threads}");
                }
                assert!(engine.read().relation(EVICTED).is_none(), "{twin}");
            }
        }
    }
    let sql = "SELECT COUNT(*), SUM(r) FROM raw_values WITH WORLDS 10";
    let resident = local(engine.query(sql));
    assert!(
        matches!(resident, Err(DbError::InvalidWorlds(_))),
        "{resident:?}"
    );
    engine.evict_to_disk("raw_values").unwrap();
    assert_eq!(local(engine.query(sql)), resident);
}

/// A row-level `WITH WORLDS` statement is answered in closed form: the
/// same bytes in process and over the wire, resident and evicted, at
/// fork-join widths 1 and 8; a different `SEED` changes only the echoed
/// seed; and its count and sum means are the bits of `SELECT COUNT(*),
/// SUM(lambda)` over the same `WHERE` / `THRESHOLD` / `TOP` restriction.
#[test]
fn row_level_worlds_answers_are_closed_forms_on_every_path() {
    let dir = TempDir::new("worlds-rows");
    let engine = engine(&dir);
    let handle = serve(&engine);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let shapes = [
        ("*", "WHERE t >= 6000"),
        ("lambda", "WHERE t >= 6000 THRESHOLD 0.02"),
        ("*", "WHERE prob >= 0.05 TOP 30"),
        ("lambda", ""),
        ("t, lambda", "WHERE lambda >= 1"),
    ];
    let worlds_of = |out: Result<QueryOutput, _>, sql: &str| match out {
        Ok(QueryOutput::Worlds(w)) => w,
        other => panic!("{sql}: {other:?}"),
    };
    for threads in [1, 8] {
        client.set_worlds_threads(threads).unwrap();
        engine.set_worlds_threads(threads);
        for (projection, restriction) in shapes {
            let mut answers = Vec::new();
            for rel in [RESIDENT, EVICTED] {
                let sql = |seed: u64| {
                    format!(
                        "SELECT {projection} FROM {rel} {restriction} WITH WORLDS 1000 SEED {seed}"
                    )
                };
                let in_process = local(engine.query(&sql(7)));
                assert_eq!(remote(client.query(&sql(7))), in_process, "{}", sql(7));
                answers.push(in_process);

                let w = worlds_of(engine.query(&sql(7)), &sql(7));
                assert_eq!((w.worlds, w.seed, w.converged), (0, 7, true), "{}", sql(7));
                assert_eq!(
                    (w.event_ci_half_width, w.count_ci_half_width),
                    (0.0, 0.0),
                    "{}",
                    sql(7)
                );
                let mut reseeded = worlds_of(engine.query(&sql(99)), &sql(99));
                assert_eq!(reseeded.seed, 99);
                reseeded.seed = 7;
                assert_eq!(reseeded.fingerprint(), w.fingerprint(), "{}", sql(99));

                let twin = format!("SELECT COUNT(*), SUM(lambda) FROM {rel} {restriction}");
                let exact = engine.query(&twin).unwrap();
                let values = &exact.aggregate().unwrap().groups[0].values;
                assert_eq!(w.count_mean.to_bits(), values[0].value.to_bits(), "{twin}");
                if let Some(sum) = &w.sum {
                    assert_eq!(sum.column, "lambda");
                    assert_eq!(sum.mean.to_bits(), values[1].value.to_bits(), "{twin}");
                    assert_eq!(sum.ci_half_width, 0.0);
                }
                assert_eq!(w.sum.is_some(), projection == "lambda", "{}", sql(7));
                assert!(engine.read().relation(EVICTED).is_none(), "{}", sql(7));
            }
            assert_eq!(answers[0], answers[1], "resident vs evicted: {restriction}");
        }
    }
    client.close().unwrap();
    handle.shutdown();
}
