//! C-GARCH: the cleaning-enhanced GARCH metric (paper Section V).
//!
//! Plain ARMA-GARCH breaks down when the training window contains
//! erroneous values — the squared terms in the GARCH recursion amplify a
//! single spike into an absurd volatility estimate (the paper's Fig. 5a,
//! where one bad reading inflates the inferred bound to 1800 °C). C-GARCH
//! wraps ARMA-GARCH with an online cleaning protocol:
//!
//! 1. At each step, infer `r̂_t`, `σ̂_t` and κ-bounds from the *cleaned*
//!    window (κ = 3 by default, so a legitimate value falls outside with
//!    probability ≈ 0.0027).
//! 2. If the incoming raw value lies outside `[lb, ub]`, mark it erroneous
//!    and substitute the inferred `r̂_t` into the window.
//! 3. Track the run of consecutive rejections; once it exceeds `ocmax` the
//!    readings are declared a *trend change*, the last `ocmax + 1` raw
//!    values are scrubbed by the successive variance reduction filter
//!    (Algorithm 2) to drop any genuine errors among them, and the window
//!    re-adopts the cleaned raw values.
//!
//! `SVmax` is learned from a clean sample as the maximum windowed variance
//! at window length `ocmax` ([`CGarch::learn_sv_max`]).

use crate::error::CoreError;
use crate::metrics::{ArmaGarch, DynamicDensityMetric, Inference, MetricConfig};
use crate::svr::svr_filter;
use std::collections::VecDeque;
use tspdb_stats::descriptive::max_windowed_variance;

/// Cleaning-specific configuration of C-GARCH.
#[derive(Debug, Clone, Copy)]
pub struct CGarchConfig {
    /// Sliding-window length `H` used for model estimation.
    pub window: usize,
    /// Maximum run of consecutive rejections before declaring a trend
    /// change (the paper suggests twice the longest expected error burst;
    /// its Fig. 5b uses 7, the Fig. 13 experiment uses 8).
    pub ocmax: usize,
    /// Variance threshold for the SVR filter; when `None` it is learned
    /// from the first full (warm-up) window.
    pub sv_max: Option<f64>,
}

impl Default for CGarchConfig {
    fn default() -> Self {
        CGarchConfig {
            window: 60,
            ocmax: 8,
            sv_max: None,
        }
    }
}

/// Result of feeding one raw value into the online cleaner.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CGarchStep {
    /// Positional index of the value within the stream.
    pub index: usize,
    /// The inference made *before* seeing the value (`None` during
    /// warm-up while the window fills).
    pub inference: Option<Inference>,
    /// Whether the raw value was flagged as erroneous.
    pub flagged: bool,
    /// Whether this step triggered a trend-change re-adjustment.
    pub trend_change: bool,
}

/// Batch report of an entire series run.
#[derive(Debug, Clone, Default)]
pub struct CGarchReport {
    /// Number of values processed.
    pub steps: usize,
    /// Indices flagged as erroneous.
    pub detections: Vec<usize>,
    /// Indices at which a trend change was declared.
    pub trend_changes: Vec<usize>,
    /// Per-step inference (post warm-up): `(index, r̂, σ̂, lb, ub)`.
    pub inferences: Vec<(usize, Inference)>,
}

/// The online C-GARCH processor.
#[derive(Debug, Clone)]
pub struct CGarch {
    cfg: CGarchConfig,
    inner: ArmaGarch,
    /// Cleaned estimation window (length ≤ `cfg.window`).
    buf: Vec<f64>,
    /// The most recent `ocmax + 1` *raw* values (pre-cleaning).
    recent_raw: VecDeque<f64>,
    consecutive: usize,
    seen: usize,
    sv_max: Option<f64>,
}

impl CGarch {
    /// Creates a C-GARCH processor.
    pub fn new(cfg: CGarchConfig, metric: MetricConfig) -> Result<Self, CoreError> {
        if cfg.ocmax == 0 {
            return Err(CoreError::InvalidConfig(
                "C-GARCH: ocmax must be at least 1".into(),
            ));
        }
        let inner = ArmaGarch::new(metric)?;
        if cfg.window < inner.min_window() {
            return Err(CoreError::InvalidConfig(format!(
                "C-GARCH: window {} below the ARMA-GARCH minimum {}",
                cfg.window,
                inner.min_window()
            )));
        }
        if let Some(sv) = cfg.sv_max {
            if !(sv >= 0.0) {
                return Err(CoreError::InvalidConfig(format!(
                    "C-GARCH: SVmax must be non-negative, got {sv}"
                )));
            }
        }
        Ok(CGarch {
            sv_max: cfg.sv_max,
            cfg,
            inner,
            buf: Vec::new(),
            recent_raw: VecDeque::new(),
            consecutive: 0,
            seen: 0,
        })
    }

    /// Learns `SVmax` from a clean sample: the maximum sample variance over
    /// all sliding windows of length `ocmax` (paper Section V-B).
    pub fn learn_sv_max(clean: &[f64], ocmax: usize) -> f64 {
        let v = max_windowed_variance(clean, ocmax.max(2));
        if v.is_nan() {
            0.0
        } else {
            v
        }
    }

    /// Learns `SVmax` from a *possibly contaminated* sample: the median of
    /// the sliding-window variances (robust against the handful of windows
    /// a spike touches), inflated to cover legitimate dispersion peaks.
    /// Used by the stateless trait path when no clean sample is available.
    pub(crate) fn robust_sv_max(values: &[f64], ocmax: usize) -> f64 {
        let w = ocmax.max(2);
        let stds = tspdb_stats::descriptive::rolling_std(values, w);
        if stds.is_empty() {
            return 0.0;
        }
        let mut vars: Vec<f64> = stds.iter().map(|s| s * s).collect();
        vars.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = vars[vars.len() / 2];
        median * 6.0
    }

    /// Feeds one raw value; returns what happened.
    ///
    /// Non-finite readings (NaN/±∞ — sensor dropouts) are treated as
    /// erroneous outright: flagged, replaced by the inferred value, and
    /// excluded from the trend-change counter (a dropout is not a trend).
    pub(crate) fn push(&mut self, r: f64) -> Result<CGarchStep, CoreError> {
        let index = self.seen;
        self.seen += 1;
        if !r.is_finite() {
            let replacement = if self.buf.len() >= self.cfg.window {
                let inference = self.inner.infer(&self.buf)?;
                let accepted = inference.expected;
                self.buf.remove(0);
                self.buf.push(accepted);
                return Ok(CGarchStep {
                    index,
                    inference: Some(inference),
                    flagged: true,
                    trend_change: false,
                });
            } else {
                // Warm-up: repeat the last accepted value (or zero at the
                // very start) so the window keeps filling with finite data.
                self.buf.last().copied().unwrap_or(0.0)
            };
            self.buf.push(replacement);
            return Ok(CGarchStep {
                index,
                inference: None,
                flagged: true,
                trend_change: false,
            });
        }
        self.recent_raw.push_back(r);
        while self.recent_raw.len() > self.cfg.ocmax + 1 {
            self.recent_raw.pop_front();
        }

        // Warm-up: accumulate until the window is full.
        if self.buf.len() < self.cfg.window {
            self.buf.push(r);
            if self.buf.len() == self.cfg.window && self.sv_max.is_none() {
                // Learn SVmax lazily from the warm-up window.
                self.sv_max = Some(Self::learn_sv_max(&self.buf, self.cfg.ocmax));
            }
            return Ok(CGarchStep {
                index,
                inference: None,
                flagged: false,
                trend_change: false,
            });
        }

        let inference = self.inner.infer(&self.buf)?;
        let sv_max = self
            .sv_max
            .unwrap_or_else(|| Self::learn_sv_max(&self.buf, self.cfg.ocmax));

        let (accepted, flagged, trend_change) = if inference.contains(r) {
            self.consecutive = 0;
            (r, false, false)
        } else {
            self.consecutive += 1;
            if self.consecutive > self.cfg.ocmax {
                // Trend change: scrub the recent raw values of genuine
                // errors, then re-adopt them so the model re-anchors on the
                // new regime.
                self.consecutive = 0;
                let raw: Vec<f64> = self.recent_raw.iter().copied().collect();
                let cleaned = svr_filter(&raw, sv_max);
                // Overwrite the tail of the window (those positions held
                // r̂ substitutes) with the cleaned raw history.
                let tail = cleaned.values.len() - 1; // last value is r_t itself
                let start = self.buf.len() - tail;
                self.buf[start..].copy_from_slice(&cleaned.values[..tail]);
                (cleaned.values[tail], true, true)
            } else {
                (inference.expected, true, false)
            }
        };

        self.buf.remove(0);
        self.buf.push(accepted);
        Ok(CGarchStep {
            index,
            inference: Some(inference),
            flagged,
            trend_change,
        })
    }

    /// Processes an entire value sequence and aggregates a report.
    pub fn process(&mut self, values: &[f64]) -> Result<CGarchReport, CoreError> {
        let mut report = CGarchReport::default();
        for &v in values {
            let step = self.push(v)?;
            report.steps += 1;
            if step.flagged {
                report.detections.push(step.index);
            }
            if step.trend_change {
                report.trend_changes.push(step.index);
            }
            if let Some(inf) = step.inference {
                report.inferences.push((step.index, inf));
            }
        }
        Ok(report)
    }
}

impl DynamicDensityMetric for CGarch {
    fn name(&self) -> &'static str {
        "cgarch"
    }

    fn min_window(&self) -> usize {
        self.inner.min_window()
    }

    /// Stateless per-window use: scrub the window with the SVR filter
    /// first (learning `SVmax` from the window itself when unset), then run
    /// ARMA-GARCH on the cleaned values.
    fn infer(&mut self, window: &[f64]) -> Result<Inference, CoreError> {
        if window.len() < self.min_window() {
            return Err(CoreError::WindowTooShort {
                needed: self.min_window(),
                got: window.len(),
            });
        }
        let sv_max = self
            .sv_max
            .unwrap_or_else(|| Self::robust_sv_max(window, self.cfg.ocmax));
        // Clean short sub-windows rather than the whole window: SVmax is a
        // short-window dispersion bound, not an H-window one.
        let chunk = (self.cfg.ocmax + 1).max(4);
        let mut cleaned = Vec::with_capacity(window.len());
        for piece in window.chunks(chunk) {
            cleaned.extend_from_slice(&svr_filter(piece, sv_max).values);
        }
        self.inner.infer(&cleaned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspdb_timeseries::errors::{inject_spikes, SpikeConfig};
    use tspdb_timeseries::generate::TemperatureGenerator;

    fn temp(n: usize) -> Vec<f64> {
        TemperatureGenerator::default()
            .generate(n)
            .values()
            .to_vec()
    }

    fn default_cgarch() -> CGarch {
        CGarch::new(CGarchConfig::default(), MetricConfig::default()).unwrap()
    }

    #[test]
    fn warm_up_produces_no_inference() {
        let mut c = default_cgarch();
        let values = temp(59);
        for v in values {
            let step = c.push(v).unwrap();
            assert!(step.inference.is_none());
            assert!(!step.flagged);
        }
    }

    #[test]
    fn detects_isolated_spikes() {
        let series = TemperatureGenerator::default().generate(600);
        let inj = inject_spikes(
            &series,
            &SpikeConfig {
                count: 5,
                protect_prefix: 80,
                seed: 7,
                ..SpikeConfig::default()
            },
        );
        let mut c = default_cgarch();
        let report = c.process(inj.series.values()).unwrap();
        let rate = inj.capture_rate(&report.detections);
        assert!(
            rate >= 0.8,
            "C-GARCH captured only {:.0}% of spikes ({:?} vs {:?})",
            rate * 100.0,
            report.detections,
            inj.positions
        );
    }

    #[test]
    fn spikes_do_not_inflate_volatility() {
        // The defining C-GARCH property (Fig. 5): after a spike, σ̂ must
        // stay at the clean-data scale rather than exploding.
        let series = TemperatureGenerator::default().generate(400);
        let inj = inject_spikes(
            &series,
            &SpikeConfig {
                count: 3,
                protect_prefix: 100,
                seed: 3,
                ..SpikeConfig::default()
            },
        );
        let mut c = default_cgarch();
        let report = c.process(inj.series.values()).unwrap();
        let max_sigma = report
            .inferences
            .iter()
            .map(|(_, inf)| inf.density.std())
            .fold(0.0f64, f64::max);
        // Clean temperature σ is well below 2 °C; a GARCH blow-up would
        // push σ̂ into the tens (the paper saw 1800 °C bounds).
        assert!(
            max_sigma < 5.0,
            "σ̂ exploded to {max_sigma} despite cleaning"
        );
    }

    #[test]
    fn plain_garch_inflates_where_cgarch_does_not() {
        // Head-to-head on the same corrupted stream (the Fig. 5a vs 5b
        // contrast).
        let series = TemperatureGenerator::default().generate(400);
        let inj = inject_spikes(
            &series,
            &SpikeConfig {
                count: 3,
                protect_prefix: 100,
                seed: 3,
                ..SpikeConfig::default()
            },
        );
        let h = 60;
        let mut plain = ArmaGarch::new(MetricConfig::default()).unwrap();
        let mut plain_max = 0.0f64;
        for t in h..inj.series.len() {
            let w = &inj.series.values()[t - h..t];
            if let Ok(inf) = plain.infer(w) {
                plain_max = plain_max.max(inf.density.std());
            }
        }
        let mut c = default_cgarch();
        let report = c.process(inj.series.values()).unwrap();
        let cg_max = report
            .inferences
            .iter()
            .map(|(_, inf)| inf.density.std())
            .fold(0.0f64, f64::max);
        assert!(
            plain_max > cg_max * 3.0,
            "plain GARCH max σ {plain_max} vs C-GARCH {cg_max}: cleaning had no effect"
        );
    }

    #[test]
    fn trend_change_is_adopted() {
        // A genuine level shift: after ocmax rejections the model must
        // re-anchor instead of rejecting forever.
        let mut values = temp(200);
        for v in values.iter_mut().skip(120) {
            *v += 12.0; // sudden +12 °C regime (weather front)
        }
        let mut c = CGarch::new(
            CGarchConfig {
                ocmax: 6,
                ..CGarchConfig::default()
            },
            MetricConfig::default(),
        )
        .unwrap();
        let report = c.process(&values).unwrap();
        assert!(
            !report.trend_changes.is_empty(),
            "no trend change declared on a level shift"
        );
        // After adoption, most later values must be accepted again (a model
        // that never re-anchors rejects essentially all ~40 of them).
        let last_quarter_flags = report.detections.iter().filter(|&&i| i >= 160).count();
        assert!(
            last_quarter_flags < 15,
            "model never re-anchored: {last_quarter_flags} late rejections"
        );
    }

    #[test]
    fn learn_sv_max_matches_descriptive_helper() {
        let xs = temp(300);
        let sv = CGarch::learn_sv_max(&xs, 8);
        let direct = max_windowed_variance(&xs, 8);
        assert!((sv - direct).abs() < 1e-12);
        assert!(sv > 0.0);
    }

    #[test]
    fn stateless_trait_use_survives_spiked_window() {
        let series = TemperatureGenerator::default().generate(200);
        let mut w = series.values()[..80].to_vec();
        w[40] += 300.0;
        let mut c = default_cgarch();
        let inf = c.infer(&w).unwrap();
        assert!(
            inf.density.std() < 5.0,
            "stateless C-GARCH σ̂ {} inflated",
            inf.density.std()
        );
    }

    #[test]
    fn config_validation() {
        assert!(CGarch::new(
            CGarchConfig {
                ocmax: 0,
                ..CGarchConfig::default()
            },
            MetricConfig::default()
        )
        .is_err());
        assert!(CGarch::new(
            CGarchConfig {
                window: 5,
                ..CGarchConfig::default()
            },
            MetricConfig::default()
        )
        .is_err());
        assert!(CGarch::new(
            CGarchConfig {
                sv_max: Some(-1.0),
                ..CGarchConfig::default()
            },
            MetricConfig::default()
        )
        .is_err());
    }

    #[test]
    fn sv_max_is_learned_lazily() {
        let mut c = default_cgarch();
        assert!(c.sv_max.is_none());
        for v in temp(61) {
            c.push(v).unwrap();
        }
        assert!(c.sv_max.is_some());
    }
}
