//! Reproductions of every table and figure in the paper's evaluation
//! (Section VII). Each function prints the same rows/series the paper
//! reports, followed by the paper's numbers and a shape comparison
//! (`cargo run --release -p tspdb-bench --bin experiments -- <fig>`).
//!
//! Absolute times differ from the paper (MATLAB/Java on a 2 GHz Core Duo
//! vs. Rust); the claims checked here are the *relative* ones: metric
//! orderings, speedup factors, scaling shapes.

use crate::report::{fmt_duration, fmt_kb, TextTable};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tspdb_core::cgarch::{CGarch, CGarchConfig};
use tspdb_core::metrics::{make_metric, ArmaGarch, DynamicDensityMetric, MetricConfig, MetricKind};
use tspdb_core::quality::evaluate_metric;
use tspdb_core::sigma_cache::{direct_probability_values, SigmaCache, SigmaCacheConfig};
use tspdb_core::OmegaSpec;
use tspdb_models::archtest::mean_statistic_over_windows;
use tspdb_models::arma::fit_arma;
use tspdb_stats::descriptive::rolling_std;
use tspdb_stats::special::chi_square_quantile;
use tspdb_timeseries::datasets::{campus_data, car_data, table2, uniform_threshold_for};
use tspdb_timeseries::errors::{inject_spikes, SpikeConfig};
use tspdb_timeseries::TimeSeries;

/// Which paper artifact to regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentId {
    /// Table II — dataset summary.
    Table2,
    /// Fig. 4 — regions of changing volatility.
    Fig4,
    /// Fig. 5 — GARCH failure vs. C-GARCH recovery on erroneous values.
    Fig5,
    /// Fig. 10 — density distance vs. window size, all metrics, both
    /// datasets.
    Fig10,
    /// Fig. 11 — average inference time vs. window size.
    Fig11,
    /// Fig. 12 — density distance vs. ARMA model order.
    Fig12,
    /// Fig. 13 — C-GARCH vs. GARCH: error capture rate and time per value.
    Fig13,
    /// Fig. 14(a) — σ-cache vs. naive view-generation time.
    Fig14a,
    /// Fig. 14(b) — σ-cache size vs. maximum ratio threshold.
    Fig14b,
    /// Fig. 15 — ARCH-effect hypothesis test.
    Fig15,
    /// Ablation (not in the paper): the Section VI-B distance/memory
    /// trade-off — accuracy, memory and speed across H' settings.
    AblationCache,
}

/// All experiments in paper order.
pub const ALL_EXPERIMENTS: &[(&str, ExperimentId)] = &[
    ("table2", ExperimentId::Table2),
    ("fig4", ExperimentId::Fig4),
    ("fig5", ExperimentId::Fig5),
    ("fig10", ExperimentId::Fig10),
    ("fig11", ExperimentId::Fig11),
    ("fig12", ExperimentId::Fig12),
    ("fig13", ExperimentId::Fig13),
    ("fig14a", ExperimentId::Fig14a),
    ("fig14b", ExperimentId::Fig14b),
    ("fig15", ExperimentId::Fig15),
    ("ablation_cache", ExperimentId::AblationCache),
];

/// Run options.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Shrinks workloads for a fast smoke run (used by CI and the tests).
    pub quick: bool,
}

/// Runs one experiment and returns its printable report.
pub fn run_experiment(id: ExperimentId, opts: Options) -> String {
    match id {
        ExperimentId::Table2 => exp_table2(),
        ExperimentId::Fig4 => exp_fig4(),
        ExperimentId::Fig5 => exp_fig5(),
        ExperimentId::Fig10 => exp_fig10(opts),
        ExperimentId::Fig11 => exp_fig11(opts),
        ExperimentId::Fig12 => exp_fig12(opts),
        ExperimentId::Fig13 => exp_fig13(opts),
        ExperimentId::Fig14a => exp_fig14a(opts),
        ExperimentId::Fig14b => exp_fig14b(),
        ExperimentId::Fig15 => exp_fig15(opts),
        ExperimentId::AblationCache => exp_ablation_cache(),
    }
}

fn shape_line(out: &mut String, ok: bool, claim: &str) {
    let _ = writeln!(out, "shape[{}]: {claim}", if ok { "PASS" } else { "FAIL" });
}

// ---------------------------------------------------------------- Table II

fn exp_table2() -> String {
    let mut out = String::from("=== Table II: summary of datasets ===\n");
    let mut t = TextTable::new(["", "campus-data", "car-data"]);
    let rows = table2();
    t.row([
        "Monitored parameter".to_string(),
        rows[0].monitored.to_string(),
        rows[1].monitored.to_string(),
    ]);
    t.row([
        "Number of data values".to_string(),
        rows[0].count.to_string(),
        rows[1].count.to_string(),
    ]);
    t.row([
        "Sensor accuracy".to_string(),
        rows[0].accuracy.to_string(),
        rows[1].accuracy.to_string(),
    ]);
    t.row([
        "Sampling interval".to_string(),
        rows[0].sampling_interval.to_string(),
        rows[1].sampling_interval.to_string(),
    ]);
    out.push_str(&t.render());
    out.push_str("paper: 18031 / 10473 values, ±0.3 °C / ±10 m, 2 min / 1-2 s\n");
    shape_line(
        &mut out,
        rows[0].count == 18031 && rows[1].count == 10473,
        "dataset cardinalities match Table II exactly",
    );
    out
}

// ------------------------------------------------------------------ Fig. 4

fn exp_fig4() -> String {
    let mut out = String::from("=== Fig. 4: regions of changing volatility ===\n");
    // The paper plots hour-scale windows: one day of campus-data (720
    // two-minute samples), one hour of car-data.
    for (name, series) in [
        ("campus-data (a), one day", campus_data().head(720)),
        ("car-data (b), one hour", car_data().head(2700)),
    ] {
        let window = 60;
        // Residual volatility, not raw dispersion: detrend with AR(2) so
        // the diurnal ramp does not masquerade as volatility.
        let resid = fit_arma(series.values(), 2, 0)
            .map(|f| f.usable_residuals().to_vec())
            .unwrap_or_else(|_| series.values().to_vec());
        let rs = rolling_std(&resid, window);
        let bucket = rs.len() / 12;
        let mut t = TextTable::new(["segment", "avg rolling σ", "max rolling σ"]);
        let mut bucket_means = Vec::new();
        for b in 0..12 {
            let seg = &rs[b * bucket..((b + 1) * bucket).min(rs.len())];
            let mean = tspdb_stats::descriptive::mean(seg);
            let max = seg.iter().cloned().fold(0.0f64, f64::max);
            bucket_means.push(mean);
            t.row([format!("{b:>2}"), format!("{mean:.3}"), format!("{max:.3}")]);
        }
        let hi = bucket_means.iter().cloned().fold(0.0f64, f64::max);
        let lo = bucket_means.iter().cloned().fold(f64::INFINITY, f64::min);
        let _ = writeln!(
            out,
            "\n{name}: rolling residual σ over {window}-sample windows"
        );
        out.push_str(&t.render());
        let _ = writeln!(
            out,
            "volatile/calm ratio (Region A vs Region B): {:.1}x",
            hi / lo
        );
        shape_line(
            &mut out,
            hi / lo > 1.5,
            "distinct volatility regimes exist (Region A ≫ Region B)",
        );
    }
    out
}

// ------------------------------------------------------------------ Fig. 5

fn exp_fig5() -> String {
    let mut out =
        String::from("=== Fig. 5: GARCH failure vs C-GARCH recovery on erroneous values ===\n");
    // A 170-sample campus stretch (the paper plots minutes 40-170) with
    // two spikes at the paper's positions 127 and 132.
    let h = 60;
    let base = campus_data().head(170);
    let mut values = base.values().to_vec();
    let sigma = tspdb_stats::descriptive::sample_std(&values);
    values[127] -= 40.0 * sigma;
    values[132] += 35.0 * sigma;

    // (a) plain ARMA-GARCH on every sliding window.
    let mut plain = ArmaGarch::new(MetricConfig::default()).unwrap();
    let mut plain_max_bound = 0.0f64;
    for t in h..values.len() {
        if let Ok(inf) = plain.infer(&values[t - h..t]) {
            plain_max_bound = plain_max_bound.max(inf.upper.abs().max(inf.lower.abs()));
        }
    }
    let _ = writeln!(
        out,
        "(a) plain ARMA-GARCH: max |inferred bound| = {plain_max_bound:.0} deg C \
         (paper: bound exploded to ~1800 deg C)"
    );

    // (b) C-GARCH with the paper's ocmax = 7.
    let mut cg = CGarch::new(
        CGarchConfig {
            window: h,
            ocmax: 7,
            sv_max: None,
        },
        MetricConfig::default(),
    )
    .unwrap();
    let report = cg.process(&values).unwrap();
    let cg_max_bound = report
        .inferences
        .iter()
        .map(|(_, inf)| inf.upper.abs().max(inf.lower.abs()))
        .fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "(b) C-GARCH:          max |inferred bound| = {cg_max_bound:.1} deg C, \
         detections at {:?}, trend changes at {:?}",
        report.detections, report.trend_changes
    );

    let mut t = TextTable::new(["t", "raw", "r_hat", "lb", "ub", "flag"]);
    for (idx, inf) in &report.inferences {
        if (120..=140).contains(idx) {
            t.row([
                idx.to_string(),
                format!("{:.2}", values[*idx]),
                format!("{:.2}", inf.expected),
                format!("{:.2}", inf.lower),
                format!("{:.2}", inf.upper),
                if report.detections.contains(idx) {
                    "ERR"
                } else {
                    ""
                }
                .to_string(),
            ]);
        }
    }
    out.push_str("\nC-GARCH trace around the spikes (t = 120..140):\n");
    out.push_str(&t.render());
    shape_line(
        &mut out,
        plain_max_bound > 10.0 * cg_max_bound,
        "plain GARCH bound explodes; C-GARCH bound stays at the data scale",
    );
    shape_line(
        &mut out,
        report.detections.contains(&127) && report.detections.contains(&132),
        "both injected erroneous values detected",
    );
    out
}

// ------------------------------------------------- Fig. 10 / Fig. 11 sweep

/// One (dataset, metric, H) evaluation outcome.
struct SweepRow {
    dataset: &'static str,
    metric: MetricKind,
    h: usize,
    distance: f64,
    avg_time: Duration,
}

/// Window sizes of the paper's Figs. 10-11 sweep.
const WINDOW_SIZES: [usize; 6] = [30, 60, 90, 120, 150, 180];

/// Runs the Figs. 10/11 sweep. `parallel` fans the jobs out across threads
/// — right for the density-distance figure, wrong for the timing figure
/// (contention would distort per-inference wall times), so Fig. 11 runs
/// sequentially with a smaller evaluation budget.
fn sweep_metrics(opts: Options, parallel: bool) -> Vec<SweepRow> {
    let datasets: Vec<(&'static str, TimeSeries)> = if opts.quick {
        vec![
            ("campus-data", campus_data().head(3000)),
            ("car-data", car_data().head(3000)),
        ]
    } else {
        vec![("campus-data", campus_data()), ("car-data", car_data())]
    };
    let metrics = [
        MetricKind::UniformThresholding,
        MetricKind::VariableThresholding,
        MetricKind::ArmaGarch,
        MetricKind::KalmanGarch,
    ];
    let windows: &[usize] = if opts.quick {
        &[30, 90, 180]
    } else {
        &WINDOW_SIZES
    };

    // One job per (dataset, metric, H).
    let mut jobs = Vec::new();
    for (dname, series) in &datasets {
        for &metric in &metrics {
            for &h in windows {
                jobs.push((*dname, series, metric, h));
            }
        }
    }
    let run_job = |(dname, series, metric, h): &(&'static str, &TimeSeries, MetricKind, usize)| {
        let cfg = MetricConfig {
            p: 2,
            q: 0,
            threshold_u: uniform_threshold_for(dname),
            ..MetricConfig::default()
        };
        // Budget the number of inferences so the Kalman EM sweep stays
        // tractable; sub-sampling windows does not bias PIT. The
        // sequential (timing) sweep uses smaller budgets still — average
        // latency stabilises within tens of calls.
        let budget = match (metric, parallel) {
            (MetricKind::KalmanGarch, true) => {
                if opts.quick {
                    60
                } else {
                    250
                }
            }
            (MetricKind::KalmanGarch, false) => {
                if opts.quick {
                    15
                } else {
                    40
                }
            }
            (_, true) => {
                if opts.quick {
                    250
                } else {
                    900
                }
            }
            (_, false) => {
                if opts.quick {
                    60
                } else {
                    150
                }
            }
        };
        let stride = ((series.len() - h) / budget).max(1);
        let mut m = make_metric(*metric, cfg).expect("metric");
        if !parallel && *metric != MetricKind::KalmanGarch {
            // Timing sweep: one warm-up pass so allocator/cache effects do
            // not pollute the measured average (Kalman is ms-scale and
            // needs no warm-up).
            let _ = evaluate_metric(m.as_mut(), series, *h, stride * 4);
        }
        let eval = evaluate_metric(m.as_mut(), series, *h, stride).expect("evaluation");
        SweepRow {
            dataset: dname,
            metric: *metric,
            h: *h,
            distance: eval.density_distance,
            avg_time: eval.avg_time(),
        }
    };
    if parallel {
        // Fan out across scoped threads so the EM-heavy Kalman sweep uses
        // all cores.
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|job| scope.spawn(move || run_job(job)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    } else {
        jobs.iter().map(run_job).collect()
    }
}

fn sweep_table(
    rows: &[SweepRow],
    dataset: &str,
    windows: &[usize],
    cell: impl Fn(&SweepRow) -> String,
) -> TextTable {
    let metrics = [
        MetricKind::UniformThresholding,
        MetricKind::VariableThresholding,
        MetricKind::ArmaGarch,
        MetricKind::KalmanGarch,
    ];
    let mut header = vec!["H".to_string()];
    header.extend(metrics.iter().map(|m| m.label().to_string()));
    let mut t = TextTable::new(header);
    for &h in windows {
        let mut cells = vec![h.to_string()];
        for metric in metrics {
            let row = rows
                .iter()
                .find(|r| r.dataset == dataset && r.metric == metric && r.h == h)
                .expect("sweep row present");
            cells.push(cell(row));
        }
        t.row(cells);
    }
    t
}

fn exp_fig10(opts: Options) -> String {
    let rows = sweep_metrics(opts, true);
    let windows: Vec<usize> = rows
        .iter()
        .filter(|r| r.dataset == "campus-data" && r.metric == MetricKind::ArmaGarch)
        .map(|r| r.h)
        .collect();
    let mut out =
        String::from("=== Fig. 10: density distance vs window size (lower = better) ===\n");
    for dataset in ["campus-data", "car-data"] {
        let _ = writeln!(
            out,
            "\n({}) {dataset}",
            if dataset.starts_with("campus") {
                "a"
            } else {
                "b"
            }
        );
        out.push_str(
            &sweep_table(&rows, dataset, &windows, |r| format!("{:.3}", r.distance)).render(),
        );
        // Shape: GARCH-family beats the naive metrics on average across H.
        let avg = |metric: MetricKind| {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.dataset == dataset && r.metric == metric)
                .map(|r| r.distance)
                .collect();
            tspdb_stats::descriptive::mean(&v)
        };
        let ut = avg(MetricKind::UniformThresholding);
        let vt = avg(MetricKind::VariableThresholding);
        let ag = avg(MetricKind::ArmaGarch);
        let kg = avg(MetricKind::KalmanGarch);
        let _ = writeln!(
            out,
            "averages: UT {ut:.3}  VT {vt:.3}  ARMA-GARCH {ag:.3}  Kalman-GARCH {kg:.3}"
        );
        shape_line(
            &mut out,
            ag < ut && ag < vt,
            "ARMA-GARCH outperforms both naive metrics",
        );
        shape_line(
            &mut out,
            kg < vt,
            "Kalman-GARCH outperforms variable thresholding",
        );
    }
    out.push_str(
        "paper: GARCH metrics up to 20x (campus) / 12.3x (car) lower distance than naive \
         metrics; ARMA-GARCH best overall\n",
    );
    out
}

fn exp_fig11(opts: Options) -> String {
    let rows = sweep_metrics(opts, false);
    let windows: Vec<usize> = rows
        .iter()
        .filter(|r| r.dataset == "campus-data" && r.metric == MetricKind::ArmaGarch)
        .map(|r| r.h)
        .collect();
    let mut out = String::from(
        "=== Fig. 11: average time per density inference (log-scale in the paper) ===\n",
    );
    for dataset in ["campus-data", "car-data"] {
        let _ = writeln!(
            out,
            "\n({}) {dataset}",
            if dataset.starts_with("campus") {
                "a"
            } else {
                "b"
            }
        );
        out.push_str(&sweep_table(&rows, dataset, &windows, |r| fmt_duration(r.avg_time)).render());
        let ratio_at = |h: usize| {
            let ag = rows
                .iter()
                .find(|r| r.dataset == dataset && r.metric == MetricKind::ArmaGarch && r.h == h)
                .unwrap()
                .avg_time
                .as_secs_f64();
            let kg = rows
                .iter()
                .find(|r| r.dataset == dataset && r.metric == MetricKind::KalmanGarch && r.h == h)
                .unwrap()
                .avg_time
                .as_secs_f64();
            kg / ag
        };
        let first = *windows.first().unwrap();
        let last = *windows.last().unwrap();
        let _ = writeln!(
            out,
            "Kalman-GARCH / ARMA-GARCH time ratio: {:.1}x at H={first}, {:.1}x at H={last}",
            ratio_at(first),
            ratio_at(last)
        );
        shape_line(
            &mut out,
            ratio_at(last) > 1.5,
            "Kalman-GARCH is the slowest accurate metric (EM cost)",
        );
    }
    out.push_str("paper: ARMA-GARCH 5.1-18.6x faster than Kalman-GARCH; naive metrics fastest\n");
    out
}

// ----------------------------------------------------------------- Fig. 12

fn exp_fig12(opts: Options) -> String {
    let mut out = String::from("=== Fig. 12: effect of ARMA model order (campus-data) ===\n");
    let series = if opts.quick {
        campus_data().head(3000)
    } else {
        campus_data()
    };
    let h = 60;
    let orders = [2usize, 4, 6, 8];
    let metrics = [
        MetricKind::UniformThresholding,
        MetricKind::VariableThresholding,
        MetricKind::ArmaGarch,
    ];
    let mut header = vec!["p".to_string()];
    header.extend(metrics.iter().map(|m| m.label().to_string()));
    let mut t = TextTable::new(header);
    let mut ag_by_order = Vec::new();
    for &p in &orders {
        let mut cells = vec![p.to_string()];
        for metric in metrics {
            let cfg = MetricConfig {
                p,
                q: 0,
                threshold_u: uniform_threshold_for("campus-data"),
                ..MetricConfig::default()
            };
            let budget = if opts.quick { 250 } else { 900 };
            let stride = ((series.len() - h) / budget).max(1);
            let mut m = make_metric(metric, cfg).unwrap();
            let eval = evaluate_metric(m.as_mut(), &series, h, stride).unwrap();
            if metric == MetricKind::ArmaGarch {
                ag_by_order.push(eval.density_distance);
            }
            cells.push(format!("{:.3}", eval.density_distance));
        }
        t.row(cells);
    }
    out.push_str(&t.render());
    out.push_str("paper: ARMA-GARCH distance increases with model order (low order justified)\n");
    shape_line(
        &mut out,
        ag_by_order.last().unwrap() >= &(ag_by_order[0] * 0.9),
        "higher order brings no improvement for ARMA-GARCH",
    );
    out
}

// ----------------------------------------------------------------- Fig. 13

fn exp_fig13(opts: Options) -> String {
    let mut out = String::from("=== Fig. 13: C-GARCH vs GARCH on erroneous values ===\n");
    let h = 60;
    let series = if opts.quick {
        campus_data().head(5000)
    } else {
        campus_data()
    };
    let counts: &[usize] = if opts.quick {
        &[5, 25, 125]
    } else {
        &[5, 25, 125, 625]
    };
    let mut t = TextTable::new([
        "errors",
        "C-GARCH %captured",
        "GARCH %captured",
        "C-GARCH time/value",
        "GARCH time/value",
        "C-GARCH max sigma",
        "GARCH max sigma",
    ]);
    let mut ratios = Vec::new();
    let mut sigma_ratios = Vec::new();
    for &count in counts {
        // Moderate spike magnitudes (6-15x the global σ — still "very
        // high (or very low) values" at 25-70 °C off-trend): large enough
        // to be unambiguous errors, small enough that a volatility-inflated
        // plain GARCH stops seeing them, which is precisely the failure
        // mode Fig. 13 demonstrates.
        let inj = inject_spikes(
            &series,
            &SpikeConfig {
                count,
                protect_prefix: h + 5,
                seed: 0xF13 + count as u64,
                magnitude_lo: 6.0,
                magnitude_hi: 15.0,
            },
        );
        let values = inj.series.values();

        // Plain ARMA-GARCH as detector (no cleaning).
        let started = Instant::now();
        let mut plain = ArmaGarch::new(MetricConfig::default()).unwrap();
        let mut plain_detect = Vec::new();
        let mut plain_max_sigma = 0.0f64;
        for t_i in h..values.len() {
            if let Ok(inf) = plain.infer(&values[t_i - h..t_i]) {
                plain_max_sigma = plain_max_sigma.max(inf.density.std());
                if !inf.contains(values[t_i]) {
                    plain_detect.push(t_i);
                }
            }
        }
        let plain_time = started.elapsed() / (values.len() - h) as u32;
        let plain_rate = inj.capture_rate(&plain_detect);

        // C-GARCH with the paper's Fig. 13 setting ocmax = 8; SVmax learned
        // from a clean prefix.
        let sv_max = CGarch::learn_sv_max(&series.values()[..h], 8);
        let started = Instant::now();
        let mut cg = CGarch::new(
            CGarchConfig {
                window: h,
                ocmax: 8,
                sv_max: Some(sv_max),
            },
            MetricConfig::default(),
        )
        .unwrap();
        let report = cg.process(values).unwrap();
        let cg_time = started.elapsed() / values.len() as u32;
        let cg_rate = inj.capture_rate(&report.detections);
        let cg_max_sigma = report
            .inferences
            .iter()
            .map(|(_, inf)| inf.density.std())
            .fold(0.0f64, f64::max);

        ratios.push((cg_rate, plain_rate));
        sigma_ratios.push(plain_max_sigma / cg_max_sigma.max(1e-9));
        t.row([
            count.to_string(),
            format!("{:.1}", cg_rate * 100.0),
            format!("{:.1}", plain_rate * 100.0),
            fmt_duration(cg_time),
            fmt_duration(plain_time),
            format!("{cg_max_sigma:.2}"),
            format!("{plain_max_sigma:.2}"),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "paper: C-GARCH detects >2x more errors than GARCH at high error counts, at \
         comparable per-value cost. note: our plain baseline re-estimates per window \
         and is therefore stronger than the paper's; the \
         volatility-inflation failure shows up in the max-sigma columns instead\n",
    );
    let (cg_hi, plain_hi) = *ratios.last().unwrap();
    shape_line(
        &mut out,
        cg_hi > plain_hi,
        "C-GARCH captures more errors than plain GARCH at the highest error load",
    );
    shape_line(
        &mut out,
        ratios.iter().all(|(cg, _)| *cg > 0.5),
        "C-GARCH keeps a majority capture rate at every error load",
    );
    shape_line(
        &mut out,
        sigma_ratios.iter().all(|r| *r > 3.0),
        "plain GARCH volatility inflates by >3x over C-GARCH at every error load",
    );
    out
}

// ---------------------------------------------------------------- Fig. 14a

fn exp_fig14a(opts: Options) -> String {
    let mut out =
        String::from("=== Fig. 14(a): probabilistic view generation, naive vs sigma-cache ===\n");
    // The paper's setting: Δ = 0.05, n = 300, H' = 0.01, campus-data, view
    // sizes 6000..18000 tuples. Densities are inferred once with
    // ARMA-GARCH; the timed part is the probability value generation that
    // the σ-cache accelerates.
    let omega = OmegaSpec::new(0.05, 300).unwrap();
    let h = 60;
    let series = campus_data();
    let max_tuples = if opts.quick { 6_000 } else { 18_000 };
    let sizes: &[usize] = if opts.quick {
        &[2_000, 4_000, 6_000]
    } else {
        &[6_000, 10_000, 14_000, 18_000]
    };

    // Inference pass (shared by all sizes).
    let mut metric = ArmaGarch::new(MetricConfig::default()).unwrap();
    let values = series.values();
    let mut params: Vec<(f64, f64)> = Vec::new(); // (r̂, σ̂)
    let mut t_i = h;
    while params.len() < max_tuples && t_i < values.len() {
        if let Ok(inf) = metric.infer(&values[t_i - h..t_i]) {
            params.push((inf.expected, inf.density.std()));
        }
        t_i += 1;
    }

    let mut t = TextTable::new([
        "tuples",
        "naive",
        "sigma-cache",
        "speedup",
        "cache distributions",
        "max cell error",
    ]);
    let runs = 5; // the paper averages over ten executions; five suffices here
    let mut speedups = Vec::new();
    for &size in sizes {
        let slice = &params[..size.min(params.len())];
        // Naive: eq. 9 evaluated directly per tuple.
        let naive_time = {
            let started = Instant::now();
            let mut sink = 0.0;
            for _ in 0..runs {
                for &(r_hat, sigma) in slice {
                    sink += direct_probability_values(r_hat, sigma, &omega)[150].rho;
                }
            }
            std::hint::black_box(sink);
            started.elapsed() / runs
        };
        // σ-cache: build (included in the timing) + lookups.
        let lo = slice.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let hi = slice.iter().map(|p| p.1).fold(0.0f64, f64::max);
        let mut cache_len = 0;
        let cached_time = {
            let started = Instant::now();
            let mut sink = 0.0;
            for _ in 0..runs {
                let cache = SigmaCache::build(lo, hi, omega, SigmaCacheConfig::default()).unwrap();
                for &(r_hat, sigma) in slice {
                    sink += cache.probability_values(r_hat, sigma)[150].rho;
                }
                cache_len = cache.len();
            }
            std::hint::black_box(sink);
            started.elapsed() / runs
        };
        // Validate the approximation while we're here.
        let cache = SigmaCache::build(lo, hi, omega, SigmaCacheConfig::default()).unwrap();
        let max_err = slice
            .iter()
            .take(500)
            .map(|&(r_hat, sigma)| {
                let a = cache.probability_values(r_hat, sigma);
                let b = direct_probability_values(r_hat, sigma, &omega);
                a.iter()
                    .zip(&b)
                    .map(|(x, y)| (x.rho - y.rho).abs())
                    .fold(0.0f64, f64::max)
            })
            .fold(0.0f64, f64::max);
        let speedup = naive_time.as_secs_f64() / cached_time.as_secs_f64();
        speedups.push(speedup);
        t.row([
            size.to_string(),
            fmt_duration(naive_time),
            fmt_duration(cached_time),
            format!("{speedup:.1}x"),
            cache_len.to_string(),
            format!("{max_err:.4}"),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("paper: ~9.6x speedup at 18K tuples, growing with database size\n");
    shape_line(
        &mut out,
        *speedups.last().unwrap() > 3.0,
        "sigma-cache speeds view generation up by a large factor at the largest size",
    );
    shape_line(
        &mut out,
        speedups.windows(2).all(|w| w[1] > w[0] * 0.7),
        "speedup does not degrade with database size",
    );
    out
}

// ---------------------------------------------------------------- Fig. 14b

fn exp_fig14b() -> String {
    let mut out =
        String::from("=== Fig. 14(b): sigma-cache size vs maximum ratio threshold Ds ===\n");
    let omega = OmegaSpec::new(0.05, 300).unwrap();
    let mut t = TextTable::new(["Ds", "distributions", "cache size (KB)"]);
    let mut sizes = Vec::new();
    for spread in [2_000.0, 4_000.0, 8_000.0, 16_000.0] {
        let cache =
            SigmaCache::build(0.001, 0.001 * spread, omega, SigmaCacheConfig::default()).unwrap();
        sizes.push(cache.memory_bytes());
        t.row([
            format!("{spread:.0}"),
            cache.len().to_string(),
            fmt_kb(cache.memory_bytes()),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("paper: ~850-1150 KB over the same Ds range, logarithmic growth\n");
    let increments: Vec<i64> = sizes
        .windows(2)
        .map(|w| w[1] as i64 - w[0] as i64)
        .collect();
    let near_constant = increments
        .windows(2)
        .all(|w| ((w[0] - w[1]).abs() as f64) / (w[0].max(1) as f64) < 0.25);
    shape_line(
        &mut out,
        near_constant,
        "each doubling of Ds adds a near-constant increment (logarithmic growth)",
    );
    shape_line(
        &mut out,
        sizes[3] < sizes[0] * 2,
        "8x the spread costs less than 2x the memory",
    );
    let kb = sizes[3] as f64 / 1024.0;
    shape_line(
        &mut out,
        (500.0..2500.0).contains(&kb),
        "absolute cache size lands at the paper's order of magnitude (~1 MB)",
    );
    out
}

// ----------------------------------------------------------------- Fig. 15

fn exp_fig15(opts: Options) -> String {
    let mut out = String::from("=== Fig. 15: verifying time-varying volatility ===\n");
    let h = 180;
    let alpha = 0.05;
    let step = if opts.quick { 50 } else { 10 };
    let take = if opts.quick { 4_000 } else { usize::MAX };
    let mut cross = Vec::new();
    for (name, series) in [
        ("campus-data (a)", campus_data()),
        ("car-data (b)", car_data()),
    ] {
        let series = series.head(take);
        let resid = fit_arma(series.values(), 2, 0)
            .unwrap()
            .usable_residuals()
            .to_vec();
        let mut t = TextTable::new(["m", "Phi(m)", "chi2_m(0.05)", "reject iid?"]);
        let mut phis = Vec::new();
        for m in 1..=8usize {
            let crit = chi_square_quantile(1.0 - alpha, m as f64);
            let (phi, windows) = mean_statistic_over_windows(&resid, h, step, m).unwrap();
            phis.push(phi);
            t.row([
                m.to_string(),
                format!("{phi:.2}"),
                format!("{crit:.2}"),
                format!(
                    "{} ({windows} windows)",
                    if phi > crit { "yes" } else { "no" }
                ),
            ]);
        }
        let _ = writeln!(out, "\n{name}");
        out.push_str(&t.render());
        cross.push(phis);
        let crit1 = chi_square_quantile(1.0 - alpha, 1.0);
        shape_line(
            &mut out,
            cross.last().unwrap()[0] > crit1,
            "null hypothesis (iid errors) rejected: volatility varies over time",
        );
    }
    shape_line(
        &mut out,
        cross[0][0] > cross[1][0],
        "campus-data shows stronger time-varying volatility than car-data",
    );
    out.push_str(
        "paper: Phi(m) > chi2 for all m on both datasets; car-data closer to the \
         threshold. note: with clean synthetic data the statistic decays in m, \
         so rejection holds at low orders and weakens at m near 8\n",
    );
    out
}

// ------------------------------------------------------ σ-cache ablation

/// The Section VI-B trade-off, measured: tighter distance constraints cost
/// memory and (slightly) build time but bound the approximation error;
/// looser ones shrink the ladder at the price of coarser probabilities.
fn exp_ablation_cache() -> String {
    let mut out = String::from(
        "=== Ablation: sigma-cache distance constraint H' (trade-off of Section VI-B) ===\n",
    );
    let omega = OmegaSpec::new(0.05, 300).unwrap();
    let (min_s, max_s) = (0.05, 50.0);
    // A realistic query mix spanning the ladder.
    let sigmas: Vec<f64> = (0..4000)
        .map(|i| min_s + (max_s - min_s) * ((i as f64 * 0.37).sin().abs()))
        .collect();
    let mut t = TextTable::new([
        "H'",
        "guaranteed d_s",
        "distributions",
        "memory (KB)",
        "lookup time (4k queries)",
        "max cell error",
    ]);
    let mut errors = Vec::new();
    let mut mems = Vec::new();
    for h_prime in [0.001, 0.005, 0.01, 0.05, 0.1] {
        let cfg = SigmaCacheConfig {
            distance_constraint: Some(h_prime),
            memory_constraint: None,
        };
        let cache = SigmaCache::build(min_s, max_s, omega, cfg).unwrap();
        let started = Instant::now();
        let mut sink = 0.0;
        for &s in &sigmas {
            sink += cache.probability_values(10.0, s)[150].rho;
        }
        std::hint::black_box(sink);
        let lookup = started.elapsed();
        let max_err = sigmas
            .iter()
            .step_by(16)
            .map(|&s| {
                let a = cache.probability_values(10.0, s);
                let b = direct_probability_values(10.0, s, &omega);
                a.iter()
                    .zip(&b)
                    .map(|(x, y)| (x.rho - y.rho).abs())
                    .fold(0.0f64, f64::max)
            })
            .fold(0.0f64, f64::max);
        errors.push(max_err);
        mems.push(cache.memory_bytes());
        t.row([
            format!("{h_prime}"),
            format!("{:.4}", cache.ratio_threshold()),
            cache.len().to_string(),
            fmt_kb(cache.memory_bytes()),
            fmt_duration(lookup),
            format!("{max_err:.5}"),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "the paper: \"when the distance constraint increases, the amount of memory \
         required by the sigma-cache decreases ... a give-and-take relationship\"\n",
    );
    shape_line(
        &mut out,
        errors.windows(2).all(|w| w[1] >= w[0] * 0.5),
        "approximation error grows as the constraint loosens",
    );
    shape_line(
        &mut out,
        mems.windows(2).all(|w| w[1] <= w[0]),
        "memory shrinks monotonically as the constraint loosens",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Options = Options { quick: true };

    #[test]
    fn table2_reports_exact_cardinalities() {
        let out = exp_table2();
        assert!(out.contains("18031"));
        assert!(out.contains("10473"));
        assert!(out.contains("shape[PASS]"));
    }

    #[test]
    fn fig14b_is_logarithmic() {
        let out = exp_fig14b();
        assert!(
            !out.contains("shape[FAIL]"),
            "fig14b shape check failed:\n{out}"
        );
    }

    #[test]
    fn fig4_finds_regimes() {
        let out = exp_fig4();
        assert!(!out.contains("shape[FAIL]"), "{out}");
    }

    #[test]
    fn quick_fig12_runs_and_orders_do_not_help() {
        let out = exp_fig12(QUICK);
        assert!(out.contains("p"));
        assert!(!out.contains("shape[FAIL]"), "{out}");
    }

    #[test]
    fn ablation_cache_tradeoff_holds() {
        let out = exp_ablation_cache();
        assert!(!out.contains("shape[FAIL]"), "{out}");
    }

    #[test]
    fn experiment_ids_are_exhaustive() {
        assert_eq!(ALL_EXPERIMENTS.len(), 11);
        for (name, id) in ALL_EXPERIMENTS {
            assert!(!name.is_empty());
            // Every id maps to a runnable experiment (spot-check cheap ones
            // only; the expensive sweeps are covered by the binary).
            if matches!(id, ExperimentId::Table2 | ExperimentId::Fig14b) {
                let out = run_experiment(*id, QUICK);
                assert!(out.contains("==="));
            }
        }
    }
}
