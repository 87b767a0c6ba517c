//! Synthetic time-series generators.
//!
//! The paper evaluates on two proprietary datasets (EPFL campus temperature
//! and Copenhagen GPS logs). Those are not redistributable, so this module
//! provides seeded generators that reproduce the *properties the paper's
//! experiments depend on* (see DESIGN.md "Substitutions"):
//!
//! * [`TemperatureGenerator`] — diurnal trend with volatility bursts around
//!   sunrise/sunset and calm nights (the Fig. 4(a) regimes), strong ARCH
//!   effects (Fig. 15(a)).
//! * [`GpsGenerator`] — stop-and-go vehicle kinematics observed with GPS
//!   noise; a near-integrated series with *milder* volatility clustering
//!   (Fig. 15(b)).
//! * [`ArmaGarchGenerator`] — a textbook ARMA(1,1)+GARCH(1,1) process with
//!   known coefficients, used by the estimation tests to verify parameter
//!   recovery.

use crate::series::TimeSeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tspdb_stats::Normal;

/// Standard normal draw via inverse-CDF (keeps generators reproducible and
/// independent of `rand`'s normal-sampling internals).
fn randn<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    Normal::from_mean_std(0.0, 1.0).sample(rng)
}

/// Ambient-temperature generator mimicking the paper's campus-data.
///
/// The process is `r_t = base(t) + x_t + m_t` where `base` is a diurnal
/// sinusoid with a slow day-to-day drift, `x_t` is an AR(1)-filtered
/// GARCH(1,1) innovation whose unconditional level is modulated by a
/// sunrise/sunset factor (this produces the Region A / Region B volatility
/// regimes of Fig. 4), and `m_t` is white measurement noise at the sensor
/// accuracy scale (±0.3 °C).
#[derive(Debug, Clone)]
pub struct TemperatureGenerator {
    /// RNG seed; equal seeds give identical series.
    pub seed: u64,
    /// Sampling interval in seconds (paper: 2 minutes).
    pub interval_secs: i64,
    /// Mean daily temperature in °C.
    pub daily_mean: f64,
    /// Amplitude of the diurnal cycle in °C.
    pub diurnal_amplitude: f64,
    /// Baseline innovation standard deviation (calm regime).
    pub calm_sigma: f64,
    /// Multiplier applied to the innovation level inside sunrise/sunset
    /// bursts (volatile regime).
    pub burst_factor: f64,
    /// Measurement-noise standard deviation (≈ accuracy / 3).
    pub measurement_sigma: f64,
}

impl Default for TemperatureGenerator {
    fn default() -> Self {
        TemperatureGenerator {
            seed: 0xCA_0175,
            interval_secs: 120,
            daily_mean: 12.0,
            diurnal_amplitude: 6.0,
            calm_sigma: 0.12,
            burst_factor: 5.0,
            measurement_sigma: 0.05,
        }
    }
}

impl TemperatureGenerator {
    /// Generates `n` observations.
    pub fn generate(&self, n: usize) -> TimeSeries {
        const DAY: f64 = 86_400.0;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut values = Vec::with_capacity(n);

        // GARCH(1,1) innovation state: high persistence so conditional
        // heteroskedasticity is visible inside evaluation windows (the
        // Fig. 15 ARCH test runs on 180-sample windows).
        let alpha1 = 0.30;
        let beta1 = 0.65;
        let mut sigma2 = self.calm_sigma * self.calm_sigma;
        let mut prev_a = 0.0;
        // AR(1) colouring of the innovations.
        let ar = 0.9;
        let mut x = 0.0;
        // Slow day-to-day drift of the daily mean (weather fronts).
        let mut drift = 0.0;

        for i in 0..n {
            let t = i as f64 * self.interval_secs as f64;
            let tod = (t % DAY) / DAY; // time of day in [0,1)
            if i % (DAY as usize / self.interval_secs as usize) == 0 {
                drift += randn(&mut rng) * 0.8;
                drift *= 0.9; // mean-revert so temperatures stay plausible
            }
            // Diurnal base curve: coldest ~05:00, warmest ~15:00.
            let base = self.daily_mean
                + drift
                + self.diurnal_amplitude * (2.0 * std::f64::consts::PI * (tod - 0.3125)).sin();
            // Volatility regime: multi-hour bursts around sunrise (~06:30)
            // and sunset (~19:00), calm at night — Regions A and B of
            // Fig. 4(a). Widths of ~0.09 day ≈ 2 h keep the regimes visible
            // inside 180-sample (6 h) analysis windows.
            let bump = |c: f64, w: f64| (-((tod - c) / w).powi(2)).exp();
            let regime = 1.0 + (self.burst_factor - 1.0) * (bump(0.27, 0.09) + bump(0.79, 0.09));
            let omega = (self.calm_sigma * regime).powi(2) * (1.0 - alpha1 - beta1);
            sigma2 = omega + alpha1 * prev_a * prev_a + beta1 * sigma2;
            let a = sigma2.sqrt() * randn(&mut rng);
            prev_a = a;
            x = ar * x + a;
            let measured = base + x + self.measurement_sigma * randn(&mut rng);
            values.push(measured);
        }
        TimeSeries::regular("temperature", 0, self.interval_secs, values)
    }
}

/// GPS x-coordinate generator mimicking the paper's car-data.
///
/// Simulates one vehicle's kinematics along the x axis: an
/// Ornstein–Uhlenbeck velocity process whose target alternates between
/// cruising speeds and full stops (traffic lights), integrated to position
/// and observed with GPS noise (±10 m accuracy). Sampling alternates
/// between 1 s and 2 s to match the paper's "1-2 seconds" interval.
#[derive(Debug, Clone)]
pub struct GpsGenerator {
    /// RNG seed.
    pub seed: u64,
    /// GPS noise standard deviation in metres (≈ accuracy / 3).
    pub noise_sigma: f64,
    /// Mean cruising speed in m/s.
    pub cruise_speed: f64,
}

impl Default for GpsGenerator {
    fn default() -> Self {
        GpsGenerator {
            seed: 0xD0_6CAB,
            noise_sigma: 3.3,
            cruise_speed: 11.0,
        }
    }
}

impl GpsGenerator {
    /// Generates `n` observations.
    pub fn generate(&self, n: usize) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut timestamps = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);

        let mut t = 0i64;
        let mut x = 0.0f64; // true position (m)
        let mut v = 0.0f64; // velocity (m/s)
        let mut target_v = self.cruise_speed;
        let mut phase_left = 40i64; // seconds until the next phase change
        let theta = 0.35; // OU mean-reversion strength
                          // GPS error is strongly autocorrelated (multipath/atmospheric
                          // drift), not white: AR(1) with the stationary std at noise_sigma.
        let rho: f64 = 0.98;
        let innov = self.noise_sigma * (1.0 - rho * rho).sqrt();
        let mut gps_err = 0.0f64;

        for _ in 0..n {
            // Acceleration noise is regime-dependent: a stopped car (engine
            // idling) jitters far less than one weaving through traffic.
            // This produces the mild volatility clustering the paper's
            // Fig. 15(b) reports for car-data.
            let accel_noise = 0.05 + 1.30 * (target_v / self.cruise_speed).min(1.5);
            // 1-2 s sampling, randomised so no deterministic periodicity
            // leaks into the residual autocorrelations.
            let dt = if rng.gen_bool(1.0 / 3.0) { 2.0 } else { 1.0 };
            phase_left -= dt as i64;
            if phase_left <= 0 {
                // Alternate between cruising and stopping; durations drawn
                // anew each phase.
                if target_v > 0.0 {
                    target_v = 0.0;
                    phase_left = rng.gen_range(40..150);
                } else {
                    target_v = self.cruise_speed * rng.gen_range(0.6..1.3);
                    phase_left = rng.gen_range(20..70);
                }
            }
            v += theta * (target_v - v) * dt + accel_noise * dt.sqrt() * randn(&mut rng);
            if v < 0.0 {
                v = 0.0; // cars don't reverse at speed in this scenario
            }
            x += v * dt;
            gps_err = rho * gps_err + innov * randn(&mut rng);
            values.push(x + gps_err);
            timestamps.push(t);
            t += dt as i64;
        }
        TimeSeries::from_parts("gps_x", timestamps, values)
    }
}

/// Parameters of an ARMA(1,1) + GARCH(1,1) data-generating process used by
/// estimation tests: `r_t = c + φ r_{t−1} + θ a_{t−1} + a_t`,
/// `a_t = σ_t ε_t`, `σ²_t = α0 + α1 a²_{t−1} + β1 σ²_{t−1}`.
#[derive(Debug, Clone, Copy)]
pub struct ArmaGarchGenerator {
    /// RNG seed.
    pub seed: u64,
    /// ARMA constant `φ_0`.
    pub c: f64,
    /// AR(1) coefficient `φ_1` (|φ| < 1 for stationarity).
    pub phi: f64,
    /// MA(1) coefficient `θ_1`.
    pub theta: f64,
    /// GARCH constant `α_0 > 0`.
    pub alpha0: f64,
    /// ARCH coefficient `α_1 ≥ 0`.
    pub alpha1: f64,
    /// GARCH coefficient `β_1 ≥ 0`, with `α_1 + β_1 < 1`.
    pub beta1: f64,
}

impl Default for ArmaGarchGenerator {
    fn default() -> Self {
        ArmaGarchGenerator {
            seed: 99,
            c: 0.5,
            phi: 0.7,
            theta: 0.3,
            alpha0: 0.05,
            alpha1: 0.15,
            beta1: 0.8,
        }
    }
}

impl ArmaGarchGenerator {
    /// Simulates `n` observations (after an internal burn-in of 500 steps so
    /// the reported samples come from the stationary distribution).
    pub fn generate(&self, n: usize) -> TimeSeries {
        assert!(
            self.alpha0 > 0.0 && self.alpha1 >= 0.0 && self.beta1 >= 0.0,
            "ArmaGarchGenerator: GARCH coefficients out of range"
        );
        assert!(
            self.alpha1 + self.beta1 < 1.0,
            "ArmaGarchGenerator: α1 + β1 must be < 1"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let burn = 500;
        let mut sigma2 = self.alpha0 / (1.0 - self.alpha1 - self.beta1);
        let mut prev_a = 0.0;
        let mut prev_r = self.c / (1.0 - self.phi);
        let mut out = Vec::with_capacity(n);
        for i in 0..burn + n {
            sigma2 = self.alpha0 + self.alpha1 * prev_a * prev_a + self.beta1 * sigma2;
            let a = sigma2.sqrt() * randn(&mut rng);
            let r = self.c + self.phi * prev_r + self.theta * prev_a + a;
            prev_a = a;
            prev_r = r;
            if i >= burn {
                out.push(r);
            }
        }
        TimeSeries::regular("arma_garch", 0, 1, out)
    }
}

/// Simulates a pure Gaussian AR(1) process (homoskedastic — no ARCH
/// effects). Used as the negative control for the ARCH-effect test.
pub fn ar1_series(seed: u64, phi: f64, sigma: f64, n: usize) -> TimeSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = 0.0;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n + 100 {
        x = phi * x + sigma * randn(&mut rng);
        out.push(x);
    }
    TimeSeries::regular("ar1", 0, 1, out.split_off(100))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspdb_stats::descriptive::{mean, rolling_std, sample_std};

    #[test]
    fn temperature_is_reproducible_under_seed() {
        let g = TemperatureGenerator::default();
        let a = g.generate(500);
        let b = g.generate(500);
        assert_eq!(a, b);
        let g2 = TemperatureGenerator {
            seed: 1,
            ..TemperatureGenerator::default()
        };
        assert_ne!(a, g2.generate(500));
    }

    #[test]
    fn temperature_has_plausible_range_and_diurnal_cycle() {
        let s = TemperatureGenerator::default().generate(7200); // 10 days
        let m = mean(s.values());
        assert!((m - 12.0).abs() < 3.0, "mean temperature {m}");
        assert!(s.values().iter().all(|v| (-15.0..45.0).contains(v)));
        // Warmest third of the day should be warmer than the coldest third.
        let per_day = 720;
        let mut day_warm = 0.0;
        let mut day_cold = 0.0;
        for d in 0..10 {
            let day = &s.values()[d * per_day..(d + 1) * per_day];
            day_cold += mean(&day[90..210]); // ~03:00-07:00
            day_warm += mean(&day[390..510]); // ~13:00-17:00
        }
        assert!(
            day_warm / 10.0 > day_cold / 10.0 + 3.0,
            "diurnal cycle missing: warm {day_warm} vs cold {day_cold}"
        );
    }

    #[test]
    fn temperature_volatility_varies_over_day() {
        // The defining property for the paper: the rolling std must differ
        // markedly between regimes (Fig. 4).
        let s = TemperatureGenerator::default().generate(7200);
        let r = rolling_std(s.values(), 60);
        let max = r.iter().cloned().fold(0.0, f64::max);
        let min = r.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min > 2.5,
            "volatility regimes too uniform: max {max}, min {min}"
        );
    }

    #[test]
    fn gps_is_monotone_ish_and_noisy() {
        let s = GpsGenerator::default().generate(2000);
        assert_eq!(s.len(), 2000);
        // The car drives forward overall.
        assert!(s.values()[1999] > s.values()[0] + 1000.0);
        // Timestamps follow the 1-2 s pattern and strictly increase.
        let ts = s.timestamps();
        assert!(ts.windows(2).all(|w| (1..=2).contains(&(w[1] - w[0]))));
    }

    #[test]
    fn gps_has_stop_phases() {
        let s = GpsGenerator::default().generate(4000);
        // During a stop the position barely moves for ≥ 10 consecutive
        // samples (aside from noise); detect at least one such plateau.
        let vals = s.values();
        let mut plateau = 0usize;
        let mut found = false;
        for w in vals.windows(2) {
            if (w[1] - w[0]).abs() < 8.0 {
                plateau += 1;
                if plateau >= 10 {
                    found = true;
                    break;
                }
            } else {
                plateau = 0;
            }
        }
        assert!(found, "no stop-and-go plateau found");
    }

    #[test]
    fn arma_garch_moments_match_theory() {
        let g = ArmaGarchGenerator::default();
        let s = g.generate(60_000);
        // Mean of ARMA(1,1): c / (1 − φ).
        let theo_mean = g.c / (1.0 - g.phi);
        let m = mean(s.values());
        assert!((m - theo_mean).abs() < 0.1, "mean {m} vs {theo_mean}");
        // Variance of ARMA(1,1) driven by innovations of variance σ²_a:
        // σ²_a (1 + 2φθ + θ²) / (1 − φ²).
        // The innovations' unconditional variance α0 / (1 − α1 − β1).
        let va = g.alpha0 / (1.0 - g.alpha1 - g.beta1);
        let theo_var =
            va * (1.0 + 2.0 * g.phi * g.theta + g.theta * g.theta) / (1.0 - g.phi * g.phi);
        let sd = sample_std(s.values());
        assert!(
            (sd * sd - theo_var).abs() / theo_var < 0.15,
            "var {} vs {theo_var}",
            sd * sd
        );
    }

    #[test]
    fn arma_garch_exhibits_volatility_clustering() {
        let s = ArmaGarchGenerator::default().generate(20_000);
        // Squared first differences should be autocorrelated.
        let diffs: Vec<f64> = s.values().windows(2).map(|w| w[1] - w[0]).collect();
        let sq: Vec<f64> = diffs.iter().map(|d| d * d).collect();
        let ac = tspdb_stats::descriptive::autocorrelations(&sq, 1);
        assert!(
            ac[1] > 0.05,
            "no ARCH effect in generator output: {}",
            ac[1]
        );
    }

    #[test]
    fn ar1_series_has_no_volatility_clustering() {
        let s = ar1_series(5, 0.6, 1.0, 20_000);
        let resid: Vec<f64> = s.values().windows(2).map(|w| w[1] - 0.6 * w[0]).collect();
        let sq: Vec<f64> = resid.iter().map(|d| d * d).collect();
        let ac = tspdb_stats::descriptive::autocorrelations(&sq, 1);
        assert!(ac[1].abs() < 0.05, "AR(1) control shows ARCH: {}", ac[1]);
    }

    #[test]
    #[should_panic(expected = "α1 + β1")]
    fn arma_garch_rejects_nonstationary_garch() {
        ArmaGarchGenerator {
            alpha1: 0.6,
            beta1: 0.5,
            ..ArmaGarchGenerator::default()
        }
        .generate(10);
    }
}
