//! Shape-level checks of the paper's headline experimental claims, scaled
//! down to test-suite budgets (the full reproductions live in
//! `tspdb-bench`'s `experiments` binary).

use tspdb::core::cgarch::{CGarch, CGarchConfig};
use tspdb::core::metrics::{make_metric, ArmaGarch, DynamicDensityMetric, MetricKind};
use tspdb::core::quality::evaluate_metric;
use tspdb::core::sigma_cache::{direct_probability_values, SigmaCache};
use tspdb::models::archtest::mean_statistic_over_windows;
use tspdb::models::fit_arma;
use tspdb::stats::special::chi_square_quantile;
use tspdb::timeseries::datasets::{campus_data, car_data, uniform_threshold_for};
use tspdb::timeseries::errors::{inject_spikes, SpikeConfig};
use tspdb::{MetricConfig, OmegaSpec, SigmaCacheConfig};

/// Fig. 10: GARCH-family metrics are markedly better calibrated than the
/// naive thresholding metrics.
#[test]
fn fig10_shape_arma_garch_beats_naive_metrics() {
    let series = campus_data().head(2000);
    let h = 60;
    let cfg = MetricConfig {
        p: 2,
        q: 0,
        threshold_u: uniform_threshold_for("campus-data"),
        ..MetricConfig::default()
    };
    let score = |kind: MetricKind| {
        let mut m = make_metric(kind, cfg).unwrap();
        evaluate_metric(m.as_mut(), &series, h, 4)
            .unwrap()
            .density_distance
    };
    let ut = score(MetricKind::UniformThresholding);
    let vt = score(MetricKind::VariableThresholding);
    let ag = score(MetricKind::ArmaGarch);
    assert!(
        ag < ut && ag < vt,
        "ARMA-GARCH {ag} should beat UT {ut} and VT {vt}"
    );
}

/// Fig. 13(a): C-GARCH detects more injected errors than plain ARMA-GARCH
/// when errors are frequent enough to poison the plain model's window.
#[test]
fn fig13_shape_cgarch_captures_more_errors_under_load() {
    let series = campus_data().head(2000);
    let h = 60;
    let inj = inject_spikes(
        &series,
        &SpikeConfig {
            count: 120, // heavy contamination: ~6% of values
            protect_prefix: h + 5,
            seed: 5,
            ..SpikeConfig::default()
        },
    );

    // Plain ARMA-GARCH as detector: a value outside its own κσ̂ bounds.
    let mut plain = ArmaGarch::new(MetricConfig::default()).unwrap();
    let values = inj.series.values();
    let mut plain_detections = Vec::new();
    for t in h..values.len() {
        if let Ok(inf) = plain.infer(&values[t - h..t]) {
            if !inf.contains(values[t]) {
                plain_detections.push(t);
            }
        }
    }
    let plain_rate = inj.capture_rate(&plain_detections);

    let mut cg = CGarch::new(
        CGarchConfig {
            window: h,
            ocmax: 8,
            sv_max: None,
        },
        MetricConfig::default(),
    )
    .unwrap();
    let report = cg.process(values).unwrap();
    let cg_rate = inj.capture_rate(&report.detections);

    assert!(
        cg_rate >= plain_rate,
        "C-GARCH rate {cg_rate} below plain rate {plain_rate}"
    );
    assert!(cg_rate > 0.7, "C-GARCH captured only {cg_rate}");
}

/// Fig. 14(a): the σ-cache accelerates probability-value generation
/// substantially versus direct evaluation.
#[test]
fn fig14a_shape_sigma_cache_speeds_up_generation() {
    // Model rows with realistic σ̂ spread.
    let sigmas: Vec<f64> = (0..4000)
        .map(|i| 0.05 + 2.0 * ((i as f64 * 0.01).sin().abs()))
        .collect();
    let omega = OmegaSpec::new(0.05, 300).unwrap();
    let lo = sigmas.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = sigmas.iter().cloned().fold(0.0f64, f64::max);

    let t_naive = std::time::Instant::now();
    let mut acc = 0.0;
    for &s in &sigmas {
        acc += direct_probability_values(10.0, s, &omega)[150].rho;
    }
    let naive = t_naive.elapsed();

    let cache = SigmaCache::build(lo, hi, omega, SigmaCacheConfig::default()).unwrap();
    let t_cache = std::time::Instant::now();
    let mut acc2 = 0.0;
    for &s in &sigmas {
        acc2 += cache.probability_values(10.0, s)[150].rho;
    }
    let cached = t_cache.elapsed();

    assert!((acc - acc2).abs() / acc < 0.1, "cache changed the answers");
    assert!(
        cached < naive / 2,
        "σ-cache not at least 2x faster: {cached:?} vs {naive:?}"
    );
    assert_eq!(cache.stats().misses, 0);
}

/// Fig. 14(b): cache memory grows logarithmically with the σ spread.
#[test]
fn fig14b_shape_cache_size_grows_logarithmically() {
    let omega = OmegaSpec::new(0.05, 300).unwrap();
    let bytes: Vec<usize> = [2000.0, 4000.0, 8000.0, 16000.0]
        .iter()
        .map(|&spread| {
            SigmaCache::build(0.01, 0.01 * spread, omega, SigmaCacheConfig::default())
                .unwrap()
                .memory_bytes()
        })
        .collect();
    // Doubling the spread adds a near-constant increment.
    let increments: Vec<i64> = bytes
        .windows(2)
        .map(|w| w[1] as i64 - w[0] as i64)
        .collect();
    for w in increments.windows(2) {
        let rel = (w[0] - w[1]).abs() as f64 / w[0].max(1) as f64;
        assert!(rel < 0.2, "increments not constant: {increments:?}");
    }
    // 8x the spread costs well under 2x the memory.
    assert!(bytes[3] < bytes[0] * 2, "{bytes:?}");
}

/// Fig. 15: both datasets exhibit ARCH effects; campus-data more strongly
/// than car-data.
#[test]
fn fig15_shape_volatility_test_rejects_iid() {
    let h = 180;
    let alpha = 0.05;
    let residuals = |series: &tspdb::TimeSeries| {
        fit_arma(series.values(), 2, 0)
            .unwrap()
            .usable_residuals()
            .to_vec()
    };
    let campus = residuals(&campus_data().head(4000));
    let car = residuals(&car_data().head(4000));
    // Rejection at low lag orders (`cargo run --release -p tspdb-bench
    // --bin experiments -- fig15` prints the full table; a clean
    // synthetic process cannot push the paper's literal Φ(m) statistic
    // past χ²_m at m = 8: the χ²₁ kurtosis of ε² caps the a²
    // autocorrelation, hence Φ ≈ K·R²/m decays below the growing
    // critical value).
    for m in [1usize, 2, 3] {
        let crit = chi_square_quantile(1.0 - alpha, m as f64);
        let (phi_campus, _) = mean_statistic_over_windows(&campus, h, 20, m).unwrap();
        let (phi_car, _) = mean_statistic_over_windows(&car, h, 20, m).unwrap();
        assert!(
            phi_campus > crit,
            "m {m}: campus Φ {phi_campus} ≤ χ² {crit}"
        );
        // The synthetic car-data realization sits within a few percent of
        // the critical value already at m = 3 (same Φ-decay as above), so
        // the strict rejection claim is only asserted at m ≤ 2.
        if m <= 2 {
            assert!(phi_car > crit, "m {m}: car Φ {phi_car} ≤ χ² {crit}");
            assert!(
                phi_campus > phi_car,
                "m {m}: campus Φ {phi_campus} not above car Φ {phi_car}"
            );
        }
    }
}

/// Fig. 12 shape: on campus-data the ARMA-GARCH density distance does not
/// improve with higher AR order (the paper's justification for low orders).
#[test]
fn fig12_shape_low_model_order_suffices() {
    let series = campus_data().head(900);
    let h = 60;
    let score = |p: usize| {
        let mut m = ArmaGarch::new(MetricConfig {
            p,
            q: 0,
            ..MetricConfig::default()
        })
        .unwrap();
        evaluate_metric(&mut m, &series, h, 8)
            .unwrap()
            .density_distance
    };
    let d2 = score(2);
    let d8 = score(8);
    assert!(
        d8 > d2 * 0.8,
        "order 8 ({d8}) dramatically better than order 2 ({d2}) — unexpected"
    );
}
