//! Failure-injection and degenerate-input robustness: the engine must
//! degrade gracefully (typed errors, skipped windows), never panic.

use tspdb::core::cgarch::{CGarch, CGarchConfig};
use tspdb::core::metrics::{make_metric, MetricKind};
use tspdb::core::online::OnlineViewBuilder;
use tspdb::timeseries::generate::TemperatureGenerator;
use tspdb::{MetricConfig, OmegaSpec, SharedEngine, TimeSeries, ViewBuilderConfig};

fn all_kinds() -> [MetricKind; 5] {
    MetricKind::all()
}

#[test]
fn metrics_reject_nan_windows_without_panicking() {
    let mut window = TemperatureGenerator::default()
        .generate(80)
        .values()
        .to_vec();
    window[40] = f64::NAN;
    for kind in all_kinds() {
        let mut m = make_metric(kind, MetricConfig::default()).unwrap();
        // Either a typed error or (for the cleaning metric) a sane result —
        // never a panic, never a NaN density.
        match m.infer(&window) {
            Ok(inf) => {
                assert!(inf.expected.is_finite(), "{kind:?} produced NaN r̂");
                assert!(inf.density.var().is_finite());
            }
            Err(e) => {
                let _ = e.to_string(); // error formats cleanly
            }
        }
    }
}

#[test]
fn metrics_reject_infinite_windows_without_panicking() {
    let mut window = TemperatureGenerator::default()
        .generate(80)
        .values()
        .to_vec();
    window[10] = f64::INFINITY;
    window[60] = f64::NEG_INFINITY;
    for kind in all_kinds() {
        let mut m = make_metric(kind, MetricConfig::default()).unwrap();
        match m.infer(&window) {
            Ok(inf) => assert!(inf.expected.is_finite()),
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
}

#[test]
fn constant_and_near_constant_series_produce_views() {
    // A flat-lined sensor still deserves a (degenerate, tight) view.
    let series = TimeSeries::regular("flat", 0, 1, vec![21.5; 150]);
    let engine = SharedEngine::new(ViewBuilderConfig {
        window: 60,
        ..ViewBuilderConfig::default()
    });
    engine.load_series("raw_values", "r", &series).unwrap();
    engine
        .execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.1, n=4 FROM raw_values")
        .unwrap();
    let db = engine.read();
    let view = db.prob_table("pv").unwrap();
    assert_eq!(view.len(), 90 * 4);
    // The density collapses around 21.5: central cells carry ~all mass.
    let central_mass: f64 = view
        .iter()
        .filter(|(row, _)| {
            let l = row[1].as_i64().unwrap();
            (-1..=0).contains(&l)
        })
        .map(|(_, p)| p)
        .sum::<f64>()
        / 90.0;
    assert!(central_mass > 0.95, "central mass {central_mass}");
}

#[test]
fn engine_with_poisoned_region_skips_failed_windows() {
    let mut values = TemperatureGenerator::default()
        .generate(200)
        .values()
        .to_vec();
    values[150] = f64::NAN;
    let series = TimeSeries::regular("t", 0, 1, values);
    let engine = SharedEngine::new(ViewBuilderConfig {
        window: 60,
        ..ViewBuilderConfig::default()
    });
    engine.load_series("raw_values", "r", &series).unwrap();
    engine
        .execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=4 FROM raw_values")
        .unwrap();
    let build = engine.last_build().unwrap();
    // Windows containing the NaN failed; clean windows produced tuples.
    assert!(build.built.failures > 0, "poisoned windows should fail");
    assert!(
        build.built.model.len() >= 80,
        "clean region should still be served: {} rows",
        build.built.model.len()
    );
    // Every emitted probability is a valid number.
    for (_, p) in engine.read().prob_table("pv").unwrap().iter() {
        assert!(p.is_finite() && (0.0..=1.0).contains(&p));
    }
}

#[test]
fn cgarch_rides_through_sensor_dropouts() {
    let series = TemperatureGenerator::default().generate(300);
    let mut values = series.values().to_vec();
    for i in [80usize, 81, 82, 200] {
        values[i] = f64::NAN;
    }
    let mut cg = CGarch::new(CGarchConfig::default(), MetricConfig::default()).unwrap();
    let report = cg.process(&values).unwrap();
    assert_eq!(report.steps, 300);
    // Dropouts are flagged...
    for i in [80usize, 81, 82, 200] {
        assert!(report.detections.contains(&i), "dropout {i} not flagged");
    }
    // ...and the inferences stay finite throughout.
    for (_, inf) in &report.inferences {
        assert!(inf.expected.is_finite());
        assert!(inf.density.var().is_finite());
    }
}

#[test]
fn online_and_offline_modes_agree() {
    // Same metric, same windows ⇒ identical densities, whether streamed or
    // built offline. (VT is deterministic, making bit-equality checkable.)
    let series = TemperatureGenerator::default().generate(140);
    let omega = OmegaSpec::new(0.3, 6).unwrap();
    let h = 60;

    let offline = tspdb::core::builder::OmegaViewBuilder::new(ViewBuilderConfig {
        metric: MetricKind::VariableThresholding,
        metric_config: MetricConfig::default(),
        window: h,
        cache: None,
        ..ViewBuilderConfig::default()
    })
    .unwrap()
    .build(&series, omega, "pv", None)
    .unwrap();

    let mut online = OnlineViewBuilder::new(
        MetricKind::VariableThresholding,
        MetricConfig::default(),
        h,
        omega,
        None,
    )
    .unwrap();
    let mut streamed = Vec::new();
    for obs in series.iter() {
        if let Some(row) = online.push(obs.time, obs.value).unwrap() {
            streamed.push(row);
        }
    }

    assert_eq!(streamed.len(), offline.model.len());
    for (row, model) in streamed.iter().zip(&offline.model) {
        assert_eq!(row.time, model.time);
        assert!((row.inference.expected - model.expected).abs() < 1e-12);
        assert!((row.inference.density.std() - model.sigma).abs() < 1e-12);
    }
}

#[test]
fn sql_errors_are_typed_not_panics() {
    let engine = SharedEngine::default();
    let bad_statements = [
        "SELECT * FROM missing_table",
        "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=4 FROM nowhere",
        "CREATE TABLE t (a NOTATYPE)",
        "INSERT INTO nothing VALUES (1)",
        "DROP TABLE ghost",
        "gibberish statement",
    ];
    for sql in bad_statements {
        let err = engine.execute(sql).unwrap_err();
        assert!(!err.to_string().is_empty(), "{sql}");
    }
}

#[test]
fn window_larger_than_series_is_a_typed_error() {
    let series = TemperatureGenerator::default().generate(50);
    let engine = SharedEngine::new(ViewBuilderConfig {
        window: 60,
        ..ViewBuilderConfig::default()
    });
    engine.load_series("raw_values", "r", &series).unwrap();
    // The view builds but is empty (no window ever fills) — not an error,
    // matching SQL semantics of an empty result.
    engine
        .execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=4 FROM raw_values")
        .unwrap();
    assert!(engine.read().prob_table("pv").unwrap().is_empty());

    // An explicitly undersized WINDOW clause, however, is rejected.
    let err = engine
        .execute(
            "CREATE VIEW pv2 AS DENSITY r OVER t OMEGA delta=0.5, n=4 \
             FROM raw_values WINDOW 4",
        )
        .unwrap_err();
    assert!(err.to_string().contains("window"));
}
