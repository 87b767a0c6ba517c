//! End-to-end integration: SQL in, probabilistic views out, with
//! correctness cross-checked against closed-form Gaussian integrals.

use tspdb::stats::special::std_normal_cdf;
use tspdb::timeseries::generate::TemperatureGenerator;
use tspdb::{MetricConfig, MetricKind, SharedEngine, SigmaCacheConfig, ViewBuilderConfig};

fn engine(cache: Option<SigmaCacheConfig>) -> SharedEngine {
    SharedEngine::new(ViewBuilderConfig {
        metric: MetricKind::ArmaGarch,
        metric_config: MetricConfig {
            p: 1,
            q: 0,
            ..MetricConfig::default()
        },
        window: 60,
        cache,
        ..ViewBuilderConfig::default()
    })
}

#[test]
fn sql_pipeline_produces_consistent_view() {
    let e = engine(None);
    let series = TemperatureGenerator::default().generate(200);
    e.load_series("raw_values", "r", &series).unwrap();
    e.execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.4, n=10 FROM raw_values")
        .unwrap();

    let db = e.read();
    let view = db.prob_table("pv").unwrap();
    let build = e.last_build().unwrap();
    assert_eq!(view.len(), build.built.model.len() * 10);

    // Cross-check every tuple against the closed-form Gaussian mass from
    // the model table: rho = Phi((hi - r̂)/σ̂) − Phi((lo - r̂)/σ̂).
    let mut checked = 0;
    for m in &build.built.model {
        for (row, p) in view.iter() {
            if row[0].as_i64() != Some(m.time) {
                continue;
            }
            let lo = row[2].as_f64().unwrap();
            let hi = row[3].as_f64().unwrap();
            let expect = std_normal_cdf((hi - m.expected) / m.sigma)
                - std_normal_cdf((lo - m.expected) / m.sigma);
            assert!(
                (p - expect).abs() < 1e-9,
                "t {} λ {:?}: {} vs {}",
                m.time,
                row[1],
                p,
                expect
            );
            checked += 1;
        }
    }
    assert_eq!(checked, view.len());
}

#[test]
fn cached_view_respects_hellinger_tolerance() {
    let series = TemperatureGenerator::default().generate(260);

    let naive = engine(None);
    naive.load_series("raw_values", "r", &series).unwrap();
    naive
        .execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.2, n=20 FROM raw_values")
        .unwrap();
    let naive_view = naive.read().prob_table("pv").unwrap().clone();

    let cached = engine(Some(SigmaCacheConfig::default()));
    cached.load_series("raw_values", "r", &series).unwrap();
    cached
        .execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.2, n=20 FROM raw_values")
        .unwrap();
    let cached_view = cached.read().prob_table("pv").unwrap().clone();

    assert_eq!(naive_view.len(), cached_view.len());
    let mut max_err = 0.0f64;
    for ((ra, pa), (rb, pb)) in naive_view.iter().zip(cached_view.iter()) {
        assert_eq!(ra, rb, "rows must align");
        max_err = max_err.max((pa - pb).abs());
    }
    assert!(max_err < 0.02, "cache-induced error {max_err}");

    // Cache diagnostics made it through the engine.
    let lb = cached.last_build().unwrap();
    let stats = lb.built.cache_stats.unwrap();
    assert!(stats.hits > 0);
    assert_eq!(stats.misses, 0);
    assert!(lb.built.cache_bytes.unwrap() > 0);
}

#[test]
fn where_clause_and_prob_filters_compose() {
    let e = engine(None);
    let series = TemperatureGenerator::default().generate(160);
    e.load_series("raw_values", "r", &series).unwrap();
    let t0 = series.timestamps()[80];
    let t1 = series.timestamps()[99];
    e.execute(&format!(
        "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.3, n=8 \
         FROM raw_values WHERE t >= {t0} AND t <= {t1}"
    ))
    .unwrap();
    let out = e
        .execute("SELECT t, lambda FROM pv WHERE prob >= 0.3 ORDER BY prob DESC")
        .unwrap();
    let rows = out.prob_rows().unwrap();
    assert!(!rows.is_empty());
    for (row, p) in rows.iter() {
        assert!(p >= 0.3);
        let t = row[0].as_i64().unwrap();
        assert!((t0..=t1).contains(&t));
    }
    // Probabilities are sorted descending.
    for w in rows.probs().windows(2) {
        assert!(w[0] >= w[1]);
    }
}

#[test]
fn views_are_replaceable_and_droppable() {
    let e = engine(None);
    let series = TemperatureGenerator::default().generate(120);
    e.load_series("raw_values", "r", &series).unwrap();
    let sql = "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=4 FROM raw_values";
    e.execute(sql).unwrap();
    let first = e.read().prob_table("pv").unwrap().len();
    // Re-creating the same view succeeds (derived data).
    e.execute(sql).unwrap();
    assert_eq!(e.read().prob_table("pv").unwrap().len(), first);
    e.execute("DROP VIEW pv").unwrap();
    assert!(e.read().prob_table("pv").is_err());
    // The base table survives.
    assert!(e.read().table("raw_values").is_ok());
}

#[test]
fn per_metric_views_differ_in_dispersion() {
    // UT views have hard-edged uniform masses; ARMA-GARCH views track
    // conditional variance. Verify both build through SQL and differ.
    let series = TemperatureGenerator::default().generate(150);
    let e = engine(None);
    e.load_series("raw_values", "r", &series).unwrap();
    e.execute(
        "CREATE VIEW v_ut AS DENSITY r OVER t OMEGA delta=0.3, n=8 \
         FROM raw_values USING METRIC ut",
    )
    .unwrap();
    e.execute(
        "CREATE VIEW v_ag AS DENSITY r OVER t OMEGA delta=0.3, n=8 \
         FROM raw_values USING METRIC arma_garch",
    )
    .unwrap();
    let db = e.read();
    let ut = db.prob_table("v_ut").unwrap();
    let ag = db.prob_table("v_ag").unwrap();
    assert_eq!(ut.len(), ag.len());
    let diff: f64 = ut
        .probs()
        .iter()
        .zip(ag.probs())
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(diff > 1.0, "metric choice had no effect on the view");
}
