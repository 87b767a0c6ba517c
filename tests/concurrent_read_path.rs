//! The lock-free read path under fire: N threads of `SELECT`s against one
//! `SharedEngine`, cross-checked against the plain borrowed `Database`
//! path of a single-owner engine (no plan cache, no snapshot), plus
//! properties pinning down that parallel and sequential Ω-view builds are
//! identical.

use proptest::prelude::*;
use std::sync::Arc;
use tspdb::core::builder::OmegaViewBuilder;
use tspdb::core::OmegaSpec;
use tspdb::timeseries::generate::TemperatureGenerator;
use tspdb::{MetricConfig, SharedEngine, SigmaCache, SigmaCacheConfig, ViewBuilderConfig};

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

const CREATE_VIEW: &str =
    "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.25, n=12 FROM raw_values";

/// A mixed bag of SELects exercising predicates, the prob pseudo-column,
/// ordering, projection, limits, the probabilistic THRESHOLD/TOP clauses
/// and Monte-Carlo `WITH WORLDS` evaluation.
const QUERIES: [&str; 11] = [
    "SELECT * FROM pv",
    "SELECT * FROM pv WHERE prob >= 0.15",
    "SELECT t, lambda FROM pv WHERE lambda >= 0 ORDER BY prob DESC LIMIT 40",
    "SELECT * FROM pv WHERE prob >= 0.05 ORDER BY prob DESC LIMIT 100",
    "SELECT lambda FROM pv WHERE t >= 9000 AND t <= 20000",
    "SELECT * FROM raw_values WHERE t >= 12000 ORDER BY t ASC LIMIT 25",
    "SELECT * FROM pv THRESHOLD 0.1 TOP 50",
    "SELECT * FROM pv WHERE prob >= 0.05 WITH WORLDS 512 SEED 1",
    "SELECT t, COUNT(*), SUM(lambda) FROM pv GROUP BY t HAVING COUNT(*) >= 2",
    "SELECT COUNT(*) FROM pv THRESHOLD 0.05 WITH WORLDS 512 SEED 3",
    "EXPLAIN SELECT SUM(lambda) FROM pv GROUP BY t WITH WORLDS 256",
];

/// Renders a query output to comparable text (rows + probabilities).
fn fingerprint(out: &tspdb::probdb::QueryOutput) -> String {
    match out {
        tspdb::probdb::QueryOutput::Rows(t) => t.render(usize::MAX),
        tspdb::probdb::QueryOutput::ProbRows(t) => t.render(usize::MAX),
        tspdb::probdb::QueryOutput::Worlds(w) => w.fingerprint(),
        tspdb::probdb::QueryOutput::Aggregate(a) => a.fingerprint(),
        tspdb::probdb::QueryOutput::Explain(e) => e.to_string(),
        tspdb::probdb::QueryOutput::None => "none".to_string(),
    }
}

#[test]
fn eight_threads_of_selects_match_single_threaded_engine() {
    let series = TemperatureGenerator::default().generate(260);

    // Reference: a single-owner engine read through the borrowed catalog.
    let reference = SharedEngine::new(config());
    reference.load_series("raw_values", "r", &series).unwrap();
    reference.execute(CREATE_VIEW).unwrap();
    let expected: Vec<String> = QUERIES
        .iter()
        .map(|sql| fingerprint(&reference.read().query(sql).unwrap()))
        .collect();

    // Shared engine with identical content.
    let shared = SharedEngine::new(config());
    shared.load_series("raw_values", "r", &series).unwrap();
    shared.execute(CREATE_VIEW).unwrap();

    std::thread::scope(|s| {
        for worker in 0..8 {
            let shared = shared.clone();
            let expected = &expected;
            s.spawn(move || {
                // Each worker sweeps all queries repeatedly, phase-shifted
                // so different statements overlap in time.
                for round in 0..30 {
                    let q = (worker + round) % QUERIES.len();
                    let got = fingerprint(&shared.query(QUERIES[q]).unwrap());
                    assert_eq!(
                        got, expected[q],
                        "worker {worker} round {round}: query {q} diverged"
                    );
                }
            });
        }
    });
}

#[test]
fn shared_sigma_cache_stats_are_exact_under_contention() {
    let cache = Arc::new(
        SigmaCache::build(
            0.1,
            10.0,
            OmegaSpec::new(0.1, 20).unwrap(),
            SigmaCacheConfig::default(),
        )
        .unwrap(),
    );
    std::thread::scope(|s| {
        for worker in 0..8 {
            let cache = Arc::clone(&cache);
            s.spawn(move || {
                for i in 0..500 {
                    // Odd workers probe out of range half the time to
                    // exercise both counters.
                    let sigma = if worker % 2 == 1 && i % 2 == 0 {
                        50.0
                    } else {
                        0.1 + (i % 90) as f64 * 0.1
                    };
                    cache.probability_values(1.0, sigma);
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, 8 * 500);
    assert_eq!(stats.misses, 4 * 250);
}

proptest! {
    #[test]
    fn parallel_and_sequential_builds_are_identical(
        len in 70usize..160,
        threads in 2usize..9,
        delta_steps in 1usize..8,
        half_n in 1usize..7,
        cached in 0usize..2,
    ) {
        let series = TemperatureGenerator::default().generate(len);
        let omega = OmegaSpec::new(delta_steps as f64 * 0.1, half_n * 2).unwrap();
        let cache = if cached == 1 {
            Some(SigmaCacheConfig::default())
        } else {
            None
        };
        let build = |threads: usize| {
            OmegaViewBuilder::new(ViewBuilderConfig {
                threads,
                cache,
                ..config()
            })
            .unwrap()
            .build(&series, omega, "pv", None)
            .unwrap()
        };
        let sequential = build(1);
        let parallel = build(threads);
        prop_assert_eq!(&parallel.view, &sequential.view);
        prop_assert_eq!(&parallel.model, &sequential.model);
        prop_assert_eq!(parallel.failures, sequential.failures);
        // The σ-cache sees the same query stream either way.
        prop_assert_eq!(parallel.cache_stats, sequential.cache_stats);
        prop_assert_eq!(parallel.cache_len, sequential.cache_len);
    }

    #[test]
    fn parallel_builds_respect_time_bounds(
        len in 80usize..140,
        threads in 2usize..9,
        lo_idx in 60usize..70,
        span in 0usize..40,
    ) {
        let series = TemperatureGenerator::default().generate(len);
        let omega = OmegaSpec::new(0.5, 4).unwrap();
        let t_lo = series.timestamps()[lo_idx.min(len - 1)];
        let t_hi = series.timestamps()[(lo_idx + span).min(len - 1)];
        let built = OmegaViewBuilder::new(ViewBuilderConfig {
            threads,
            ..config()
        })
        .unwrap()
        .build(&series, omega, "pv", Some((t_lo, t_hi)))
        .unwrap();
        for row in &built.model {
            prop_assert!(row.time >= t_lo && row.time <= t_hi);
        }
        // Model rows stay in strictly increasing time order even when
        // assembled from per-thread segments.
        for pair in built.model.windows(2) {
            prop_assert!(pair[0].time < pair[1].time);
        }
    }
}
