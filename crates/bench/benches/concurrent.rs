//! Read-path scaling benchmarks: the lock-free σ-cache and `SharedEngine`
//! against Mutex-serialized baselines at 1/2/4/8 threads.
//!
//! The σ-cache once sat behind a `Mutex` on every lookup because
//! `probability_values` needed `&mut self` to bump the hit/miss counters;
//! lookups now take `&self` with atomic counters, so threads share a plain
//! `Arc<SigmaCache>`. These benches measure what that buys: per-lookup
//! latency under contention should stay flat for the lock-free path and
//! degrade for the Mutex baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Mutex;
use std::time::Instant;
use tspdb_core::sigma_cache::{SigmaCache, SigmaCacheConfig};
use tspdb_core::{MetricConfig, OmegaSpec, SharedEngine, ViewBuilderConfig};
use tspdb_timeseries::generate::TemperatureGenerator;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Lookups per thread per measurement.
const LOOKUPS: usize = 10_000;
/// SELECTs per thread per measurement.
const SELECTS: usize = 50;

fn cache() -> SigmaCache {
    // The paper's view parameters: Δ = 0.05, n = 300, H′ = 0.01.
    let omega = OmegaSpec::new(0.05, 300).unwrap();
    SigmaCache::build(0.05, 2.61, omega, SigmaCacheConfig::default()).unwrap()
}

/// Runs `work(thread_index)` on `threads` threads at once and returns the
/// wall-clock of the slowest.
fn run_threads(threads: usize, work: impl Fn(usize) + Sync) -> std::time::Duration {
    let started = Instant::now();
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|i| s.spawn(move || work(i))).collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    started.elapsed()
}

fn bench_sigma_cache_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sigma_cache_scaling");
    group.sample_size(10);

    // Baseline: every lookup behind one Mutex (the pre-refactor design).
    let locked = Mutex::new(cache());
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("mutex", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    run_threads(threads, |worker| {
                        for i in 0..LOOKUPS {
                            let sigma = 0.05 + ((worker * LOOKUPS + i) % 256) as f64 * 0.01;
                            std::hint::black_box(
                                locked.lock().unwrap().probability_values(10.0, sigma),
                            );
                        }
                    })
                })
            },
        );
    }

    // The lock-free path: shared reference, atomic counters.
    let shared = cache();
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("lock_free", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    run_threads(threads, |worker| {
                        for i in 0..LOOKUPS {
                            let sigma = 0.05 + ((worker * LOOKUPS + i) % 256) as f64 * 0.01;
                            std::hint::black_box(shared.probability_values(10.0, sigma));
                        }
                    })
                })
            },
        );
    }
    group.finish();
}

fn view_config() -> ViewBuilderConfig {
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

const SELECT_SQL: &str = "SELECT * FROM pv WHERE prob >= 0.1 ORDER BY prob DESC LIMIT 20";

fn bench_select_scaling(c: &mut Criterion) {
    let series = TemperatureGenerator::default().generate(360);

    // Lock-free read path: SharedEngine, SELECTs share the read lock.
    let shared = SharedEngine::new(view_config());
    shared.load_series("raw_values", "r", &series).unwrap();
    shared
        .execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.1, n=20 FROM raw_values")
        .unwrap();
    // Baseline: the same engine behind a Mutex — SELECTs serialize.
    let locked = Mutex::new(shared.clone());

    let mut group = c.benchmark_group("select_scaling");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("mutex_engine", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    run_threads(threads, |_| {
                        for _ in 0..SELECTS {
                            std::hint::black_box(locked.lock().unwrap().query(SELECT_SQL).unwrap());
                        }
                    })
                })
            },
        );
    }
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("shared_engine", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    run_threads(threads, |_| {
                        for _ in 0..SELECTS {
                            std::hint::black_box(shared.query(SELECT_SQL).unwrap());
                        }
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sigma_cache_scaling, bench_select_scaling);
criterion_main!(benches);
