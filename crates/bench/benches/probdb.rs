//! Database-layer benchmarks: SQL parsing, probabilistic operators and the
//! end-to-end Ω-view build.

use criterion::{criterion_group, criterion_main, Criterion};
use tspdb_core::{MetricConfig, SharedEngine, ViewBuilderConfig};
use tspdb_probdb::query::{project_prob, select_prob, top_k, CmpOp, Comparison};
use tspdb_probdb::{parse, ColumnType, ProbTable, Schema, Value};
use tspdb_timeseries::datasets::campus_data;

fn ten_k_view() -> ProbTable {
    let schema = Schema::of(&[("t", ColumnType::Int), ("lambda", ColumnType::Int)]);
    let mut v = ProbTable::new("pv", schema);
    for t in 0..2500i64 {
        for lambda in -2..2i64 {
            let p = ((t * 7 + lambda * 13).rem_euclid(97)) as f64 / 100.0;
            v.insert(vec![Value::Int(t), Value::Int(lambda)], p)
                .unwrap();
        }
    }
    v
}

fn bench_probdb(c: &mut Criterion) {
    c.bench_function("sql_parse_density_view", |b| {
        let sql = "CREATE VIEW prob_view AS DENSITY r OVER t OMEGA delta=0.05, n=300 \
                   FROM raw_values WHERE t >= 1 AND t <= 100000 USING METRIC arma_garch WINDOW 60";
        b.iter(|| parse(std::hint::black_box(sql)).unwrap())
    });

    let view = ten_k_view();
    c.bench_function("select_prob_10k", |b| {
        let pred = vec![
            Comparison::new("t", CmpOp::Ge, 500i64),
            Comparison::new("t", CmpOp::Le, 1500i64),
        ];
        b.iter(|| select_prob(std::hint::black_box(&view), &pred).unwrap())
    });
    c.bench_function("project_prob_10k", |b| {
        b.iter(|| project_prob(std::hint::black_box(&view), &["lambda".to_string()]).unwrap())
    });
    c.bench_function("top_k_10k", |b| {
        b.iter(|| top_k(std::hint::black_box(&view), 100))
    });

    let mut group = c.benchmark_group("omega_view_end_to_end");
    group.sample_size(10);
    group.bench_function("sql_to_view_300_tuples", |b| {
        let series = campus_data().head(360);
        b.iter(|| {
            let engine = SharedEngine::new(ViewBuilderConfig {
                window: 60,
                metric_config: MetricConfig {
                    p: 1,
                    q: 0,
                    ..MetricConfig::default()
                },
                ..ViewBuilderConfig::default()
            });
            engine.load_series("raw_values", "r", &series).unwrap();
            engine
                .execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.1, n=20 FROM raw_values")
                .unwrap();
            let tuples = engine.read().prob_table("pv").unwrap().len();
            std::hint::black_box(tuples)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_probdb);
criterion_main!(benches);
