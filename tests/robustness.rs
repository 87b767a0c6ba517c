//! Failure-injection and degenerate-input robustness: the engine must
//! degrade gracefully (typed errors, skipped windows), never panic.

use tspdb::core::cgarch::{CGarch, CGarchConfig};
use tspdb::core::metrics::{make_metric, MetricKind};
use tspdb::timeseries::generate::TemperatureGenerator;
use tspdb::{MetricConfig, SharedEngine, TimeSeries, ViewBuilderConfig};

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
fn streamed_appends_equal_a_one_shot_build() {
    // The paper's two modes agree: a view maintained online, a few readings
    // at a time, is the view built offline over the finished series —
    // same tuples, same probabilities, bit for bit, σ-cache included.
    const VIEW: &str = "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.3, n=6 FROM raw_values";
    let series = TemperatureGenerator::default().generate(140);
    let row = |obs: tspdb::timeseries::Observation| {
        vec![tspdb::Value::Int(obs.time), tspdb::Value::Float(obs.value)]
    };

    // AR(1) keeps the model fits cheap; the σ-cache stays on.
    let config = ViewBuilderConfig {
        metric_config: MetricConfig {
            p: 1,
            q: 0,
            ..MetricConfig::default()
        },
        ..ViewBuilderConfig::default()
    };
    let offline = SharedEngine::new(config);
    offline.load_series("raw_values", "r", &series).unwrap();
    offline.execute(VIEW).unwrap();

    let online = SharedEngine::new(config);
    online
        .execute("CREATE TABLE raw_values (t INT, r FLOAT)")
        .unwrap();
    let rows: Vec<_> = series.iter().map(row).collect();
    online
        .append_rows("raw_values", rows[..100].to_vec())
        .unwrap();
    online.execute(VIEW).unwrap();
    let mut at = 100;
    for batch in [1, 1, 2, 1, 12, 1, 22] {
        online
            .append_rows("raw_values", rows[at..at + batch].to_vec())
            .unwrap();
        at += batch;
        let done = online.last_maintenance("pv").unwrap();
        assert_ne!(done.path, tspdb::core::MaintenancePath::Rebuilt);
        assert_eq!(done.windows_inferred, batch);
    }
    assert_eq!(at, rows.len());

    let sql = "SELECT * FROM pv";
    assert_eq!(online.query(sql).unwrap(), offline.query(sql).unwrap());
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
