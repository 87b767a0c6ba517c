//! Query-planner overhead and aggregate throughput.
//!
//! Three questions, answered via the `CRITERION_JSON` shim like every
//! other bench:
//!
//! 1. what does `parse → plan → execute` cost per `SELECT` against
//!    plan-once/execute-many and against calling the row operators
//!    directly (the pre-planner "legacy" shape)?
//! 2. what does an exact grouped aggregate cost as the relation grows?
//! 3. how does the Monte-Carlo aggregate path scale across 1/2/4/8
//!    fork-join threads (single-core hosts only show overhead — the
//!    estimates are bit-identical at every width either way)?
//! 4. how do the three backends — exact closed forms, `WITH WORLDS`
//!    sampling, `WITH SYNOPSIS` O(B) histograms — compare on the same
//!    aggregate as the relation grows 1k → 100k, and what does building
//!    (and narrowing) the synopsis itself cost?
//! 5. what does each of `tspbench`'s four `query_scan` statement classes
//!    cost over a 240 k-tuple Ω-view-shaped relation, resident and evicted
//!    (served leaf by leaf from the storage engine through a 4 MiB page
//!    cache)? `scan_240k/{class}/{resident,evicted}` is the per-class view
//!    of what the end-to-end `query_scan` workload mixes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use tspdb_probdb::query::{select_prob, top_k};
use tspdb_probdb::{
    parse, CmpOp, ColumnType, Comparison, Database, Planner, ProbTable, Relation, RelationSynopses,
    Schema, Statement, Value,
};
use tspdb_storage::{Storage, StorageOptions};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// `(room, reading)` relation with `n` tuples and mixed probabilities.
fn view(n: usize) -> ProbTable {
    let schema = Schema::of(&[("room", ColumnType::Int), ("reading", ColumnType::Float)]);
    let mut v = ProbTable::new("v", schema);
    for i in 0..n {
        let p = ((i * 37) % 97) as f64 / 100.0;
        v.insert(
            vec![Value::Int(i as i64 % 8), Value::Float(i as f64 * 0.25)],
            p,
        )
        .unwrap();
    }
    v
}

fn database(n: usize) -> Database {
    let mut db = Database::new();
    db.register_prob_table(view(n)).unwrap();
    db
}

fn bench_select_paths(c: &mut Criterion) {
    let db = database(512);
    let sql = "SELECT room FROM v WHERE room = 2 THRESHOLD 0.25 TOP 16";
    let mut group = c.benchmark_group("planner_select");
    group.sample_size(20);

    // Full pipeline: tokenize, parse, plan, execute.
    group.bench_function("parse_plan_execute", |b| {
        b.iter(|| std::hint::black_box(db.query(sql).unwrap()))
    });

    // Plan once, execute many — the prepared-statement shape.
    let planned = match parse(sql).unwrap() {
        Statement::Select(sel) => Planner::plan(&sel).unwrap(),
        other => panic!("not a SELECT: {other:?}"),
    };
    group.bench_function("plan_once_execute", |b| {
        b.iter(|| std::hint::black_box(db.execute_planned(&planned).unwrap()))
    });

    // The shared plan cache: first call plans and caches, every later
    // call hits the raw-text key and skips parse + plan — the server's
    // hot path for repeated ad-hoc statements.
    db.query_cached(sql).unwrap(); // warm the cache
    group.bench_function("cached_plan_execute", |b| {
        b.iter(|| std::hint::black_box(db.query_cached(sql).unwrap()))
    });

    // The pre-planner shape: call the row operators directly.
    let v = view(512);
    let pred = vec![Comparison::new("room", CmpOp::Eq, 2i64)];
    group.bench_function("direct_operators", |b| {
        b.iter(|| {
            let selected = select_prob(&v, &pred).unwrap();
            let thresholded = tspdb_probdb::query::threshold(&selected, 0.25).unwrap();
            std::hint::black_box(top_k(&thresholded, 16))
        })
    });
    group.finish();
}

fn bench_exact_aggregates(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_exact_aggregate");
    group.sample_size(20);
    for n in [128usize, 512, 2048] {
        let db = database(n);
        group.bench_with_input(BenchmarkId::new("grouped_count_sum", n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(
                    db.query(
                        "SELECT room, COUNT(*), SUM(reading) FROM v GROUP BY room \
                         HAVING COUNT(*) >= 2",
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_worlds_aggregates(c: &mut Criterion) {
    let db = database(256);
    let mut group = c.benchmark_group("planner_worlds_aggregate");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        db.set_worlds_threads(threads);
        group.bench_with_input(BenchmarkId::new("grouped_mc", threads), &threads, |b, _| {
            b.iter(|| {
                std::hint::black_box(
                    db.query(
                        "SELECT room, COUNT(*), SUM(reading) FROM v GROUP BY room \
                             WITH WORLDS 4096 SEED 1",
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_windowed_aggregates(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_windowed_aggregate");
    group.sample_size(20);
    // Exact per-bucket closed forms as the relation (and bucket count:
    // readings span [0, n/4), so n/64 buckets of width 16) grows.
    for n in [512usize, 2048] {
        let db = database(n);
        group.bench_with_input(BenchmarkId::new("exact_window_count_sum", n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(
                    db.query(
                        "SELECT COUNT(*), SUM(reading) FROM v \
                         GROUP BY WINDOW(reading, 16.0) HAVING COUNT(*) >= 2",
                    )
                    .unwrap(),
                )
            })
        });
    }
    // The MC path: one bucket-seeded sampling run per window.
    let db = database(256);
    for threads in THREAD_COUNTS {
        db.set_worlds_threads(threads);
        group.bench_with_input(
            BenchmarkId::new("mc_window_count", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(
                        db.query(
                            "SELECT COUNT(*) FROM v GROUP BY WINDOW(reading, 16.0) \
                         WITH WORLDS 2048 SEED 1",
                        )
                        .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_strategy_compare(c: &mut Criterion) {
    // The paper's headline trade-off: the same `COUNT(*) + SUM` aggregate
    // through all three backends. Exact runs the O(n²) Poisson-binomial DP,
    // MC samples 1024 worlds over n tuples, the synopsis folds 64 buckets
    // regardless of n — at 100k tuples the gap is ~10⁵×, far past the 10×
    // bar, and it widens with n.
    let mut group = c.benchmark_group("planner_strategy_compare");
    group.sample_size(10);
    const SQL: &str = "SELECT COUNT(*), SUM(reading) FROM v";
    for n in [1_000usize, 10_000, 100_000] {
        let db = database(n);
        group.bench_with_input(BenchmarkId::new("exact_count_sum", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(db.query(SQL).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("mc_count_sum", n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(db.query(&format!("{SQL} WITH WORLDS 1024 SEED 1")).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("synopsis_count_sum", n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(
                    db.query(&format!("{SQL} WITH SYNOPSIS BUCKETS 64"))
                        .unwrap(),
                )
            })
        });
        // Windowed grouping stays O(B + groups) under the synopsis.
        group.bench_with_input(BenchmarkId::new("synopsis_windowed", n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(
                    db.query(
                        "SELECT COUNT(*), SUM(reading) FROM v \
                         GROUP BY WINDOW(reading, 4096.0) WITH SYNOPSIS BUCKETS 64",
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_synopsis_build(c: &mut Criterion) {
    // Build cost is what every write pays (the catalog rebuilds on
    // registration); narrowing 256 → 64 buckets is the per-query cost when
    // a `BUCKETS` clause asks for fewer than the catalog holds.
    let mut group = c.benchmark_group("synopsis_build");
    group.sample_size(10);
    for n in [1_000usize, 10_000, 100_000] {
        let v = view(n);
        group.bench_with_input(BenchmarkId::new("build_64", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(RelationSynopses::build(&v, 64)))
        });
    }
    let wide = RelationSynopses::build(&view(10_000), 256);
    group.bench_function("merge_256_to_64", |b| {
        b.iter(|| std::hint::black_box(wide.merge_to(64)))
    });
    group.finish();
}

/// The shape `CREATE VIEW … AS DENSITY … OMEGA n=6` gives a 40 000-reading
/// series: six `(t, lambda, lo, hi)` tuples per reading in time order, a
/// bell of probabilities across the six ranges.
fn omega_view(name: &str, readings: usize) -> ProbTable {
    const BELL: [f64; 6] = [0.03, 0.13, 0.34, 0.33, 0.14, 0.03];
    let schema = Schema::of(&[
        ("t", ColumnType::Int),
        ("lambda", ColumnType::Int),
        ("lo", ColumnType::Float),
        ("hi", ColumnType::Float),
    ]);
    let mut v = ProbTable::new(name, schema);
    for i in 0..readings {
        let centre = 20.0 + ((i * 37) % 101) as f64 * 0.05;
        for (lambda, p) in BELL.iter().enumerate() {
            let lo = centre + (lambda as f64 - 3.0) * 0.5;
            // A reading-dependent wobble so probabilities do not repeat.
            let p = p * (0.9 + ((i * 13 + lambda) % 17) as f64 * 0.01);
            v.insert(
                vec![
                    Value::Int(120 * i as i64),
                    Value::Int(lambda as i64 - 3),
                    Value::Float(lo),
                    Value::Float(lo + 0.5),
                ],
                p,
            )
            .unwrap();
        }
    }
    v
}

fn bench_scan_classes(c: &mut Criterion) {
    const READINGS: usize = 40_000;
    let dir = std::env::temp_dir().join(format!("tspdb-planner-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (storage, _) = Storage::open(&dir, StorageOptions::default()).expect("open storage");
    let storage = Arc::new(storage);
    storage
        .checkpoint(&[Relation::Probabilistic(omega_view("vdisk", READINGS))])
        .expect("checkpoint the twin");

    let mut db = Database::new();
    db.set_worlds_threads(2);
    db.register_prob_table(omega_view("vscan", READINGS))
        .unwrap();
    db.register_prob_table(omega_view("vdisk", READINGS))
        .unwrap();
    db.attach_scan_source(Arc::clone(&storage) as Arc<dyn tspdb_probdb::ScanSource>);
    db.evict_relation("vdisk").unwrap();

    let classes = [
        ("threshold_rows", "SELECT * FROM {v} THRESHOLD 0.30"),
        (
            "window_count_sum",
            "SELECT COUNT(*), SUM(lambda) FROM {v} GROUP BY WINDOW(t, 2400)",
        ),
        (
            "order_by_prob_limit",
            "SELECT t, lambda FROM {v} ORDER BY prob DESC LIMIT 100",
        ),
        (
            "worlds_window",
            "SELECT COUNT(*) FROM {v} WHERE t >= 600000 GROUP BY WINDOW(t, 360000) \
             WITH WORLDS 200 SEED 7",
        ),
    ];
    let mut group = c.benchmark_group("scan_240k");
    group.sample_size(10);
    for (class, sql) in classes {
        for (medium, view) in [("resident", "vscan"), ("evicted", "vdisk")] {
            let sql = sql.replace("{v}", view);
            // Planned once, as the server's plan cache leaves it.
            db.query_cached(&sql).unwrap();
            group.bench_function(format!("{class}/{medium}"), |b| {
                b.iter(|| std::hint::black_box(db.query_cached(&sql).unwrap()))
            });
        }
    }
    group.finish();
    drop(db);
    drop(storage);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_select_paths,
    bench_exact_aggregates,
    bench_worlds_aggregates,
    bench_windowed_aggregates,
    bench_strategy_compare,
    bench_synopsis_build,
    bench_scan_classes
);
criterion_main!(benches);
