//! Special functions: error function, gamma-family functions and their
//! inverses.
//!
//! Everything in this module is implemented from scratch (no external
//! numerics crates). The error function is evaluated through the regularized
//! incomplete gamma function, which yields close-to-machine-precision
//! accuracy over the whole real line; inverses use a rational initial guess
//! refined with Halley/Newton steps against the forward function.

/// Machine-level convergence tolerance used by the iterative routines.
const EPS: f64 = 1e-15;
/// Smallest representable scale used to guard the Lentz continued fraction.
const FPMIN: f64 = f64::MIN_POSITIVE / EPS;

/// Natural logarithm of the gamma function, `ln Γ(x)`.
///
/// Uses the Lanczos approximation (g = 7, 9 coefficients), accurate to about
/// 15 significant digits for positive arguments, combined with the reflection
/// formula for `x < 0.5`.
///
/// # Panics
/// Panics if `x` is zero or a negative integer (poles of Γ).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(
        !(x <= 0.0 && x == x.floor()),
        "ln_gamma: pole at non-positive integer {x}"
    );
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        let s = (std::f64::consts::PI * x).sin();
        return std::f64::consts::PI.ln() - s.abs().ln() - ln_gamma(1.0 - x);
    }
    let xm1 = x - 1.0;
    let mut a = COEF[0];
    let t = xm1 + G + 0.5;
    for (i, c) in COEF.iter().enumerate().skip(1) {
        a += c / (xm1 + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (xm1 + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// Switches between the series representation (for `x < a + 1`) and the
/// continued-fraction representation of the complement (otherwise), as is
/// standard practice.
///
/// Returns values clamped to `[0, 1]`.
pub(crate) fn gammp(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gammp: shape parameter must be positive, got {a}");
    assert!(x >= 0.0, "gammp: argument must be non-negative, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_cont_frac(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
///
/// Evaluated directly by the continued fraction for large `x` to avoid the
/// catastrophic cancellation `1 − P` would suffer when `P` is close to one.
pub(crate) fn gammq(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gammq: shape parameter must be positive, got {a}");
    assert!(x >= 0.0, "gammq: argument must be non-negative, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_series(a, x)
    } else {
        gamma_cont_frac(a, x)
    }
}

/// Series representation of `P(a, x)`; valid and rapidly convergent for
/// `x < a + 1`.
fn gamma_series(a: f64, x: f64) -> f64 {
    let gln = ln_gamma(a);
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut term = sum;
    for _ in 0..500 {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * EPS {
            break;
        }
    }
    (sum * (-x + a * x.ln() - gln).exp()).clamp(0.0, 1.0)
}

/// Modified Lentz continued-fraction evaluation of `Q(a, x)`; valid for
/// `x ≥ a + 1`.
fn gamma_cont_frac(a: f64, x: f64) -> f64 {
    let gln = ln_gamma(a);
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    ((-x + a * x.ln() - gln).exp() * h).clamp(0.0, 1.0)
}

/// Inverse of the regularized lower incomplete gamma function: returns `x`
/// such that `P(a, x) = p`.
///
/// Wilson–Hilferty (or small-`a` heuristic) initial guess refined by
/// safeguarded Halley iteration (Numerical Recipes style). Accurate to about
/// `1e-12` relative over the usual range.
pub(crate) fn inv_gammp(p: f64, a: f64) -> f64 {
    assert!(a > 0.0, "inv_gammp: shape parameter must be positive");
    assert!((0.0..=1.0).contains(&p), "inv_gammp: p must be in [0,1]");
    if p >= 1.0 {
        return 100.0f64.max(a + 100.0 * a.sqrt());
    }
    if p <= 0.0 {
        return 0.0;
    }
    let a1 = a - 1.0;
    let gln = ln_gamma(a);
    let (mut x, lna1, afac);
    if a > 1.0 {
        lna1 = a1.ln();
        afac = (a1 * (lna1 - 1.0) - gln).exp();
        let pp = if p < 0.5 { p } else { 1.0 - p };
        let t = (-2.0 * pp.ln()).sqrt();
        let mut g = (2.307_53 + t * 0.270_61) / (1.0 + t * (0.992_29 + t * 0.044_81)) - t;
        if p < 0.5 {
            g = -g;
        }
        x = (a * (1.0 - 1.0 / (9.0 * a) - g / (3.0 * a.sqrt())).powi(3)).max(1e-3);
    } else {
        lna1 = 0.0;
        afac = 0.0;
        let t = 1.0 - a * (0.253 + a * 0.12);
        x = if p < t {
            (p / t).powf(1.0 / a)
        } else {
            1.0 - (1.0 - (p - t) / (1.0 - t)).ln()
        };
    }
    for _ in 0..14 {
        if x <= 0.0 {
            return 0.0;
        }
        let err = gammp(a, x) - p;
        let t = if a > 1.0 {
            afac * (-(x - a1) + a1 * (x.ln() - lna1)).exp()
        } else {
            (-x + a1 * x.ln() - gln).exp()
        };
        let u = err / t;
        // Halley step.
        let step = u / (1.0 - 0.5 * (u * (a1 / x - 1.0)).min(1.0));
        x -= step;
        if x <= 0.0 {
            x = 0.5 * (x + step);
        }
        if step.abs() < EPS * x {
            break;
        }
    }
    x
}

/// Error function `erf(x) = 2/√π ∫₀ˣ e^{−t²} dt`, accurate to near machine
/// precision (via the incomplete gamma function: `erf(x) = P(1/2, x²)`).
#[cfg(test)]
pub(crate) fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let p = gammp(0.5, x * x);
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// Complementary error function `erfc(x) = 1 − erf(x)`.
///
/// For positive arguments the upper incomplete gamma function is used
/// directly so the result stays accurate deep into the tail (`erfc(10) ≈
/// 2.1e-45` without underflow of intermediate terms).
pub(crate) fn erfc(x: f64) -> f64 {
    if x == 0.0 {
        return 1.0;
    }
    if x > 0.0 {
        gammq(0.5, x * x)
    } else {
        1.0 + gammp(0.5, x * x)
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Inverse of the standard normal CDF (the probit function).
///
/// Acklam's rational approximation (relative error < 1.15e-9) refined with a
/// single Halley step against [`std_normal_cdf`], bringing the result to
/// near machine precision.
///
/// # Panics
/// Panics if `p` is outside `(0, 1)` (the function diverges at 0 and 1).
pub(crate) fn std_normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "std_normal_quantile: p must be in (0,1), got {p}"
    );
    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step against the high-precision CDF.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// CDF of the chi-square distribution with `k` degrees of freedom.
#[cfg(test)]
pub(crate) fn chi_square_cdf(x: f64, k: f64) -> f64 {
    assert!(
        k > 0.0,
        "chi_square_cdf: degrees of freedom must be positive"
    );
    if x <= 0.0 {
        return 0.0;
    }
    gammp(k / 2.0, x / 2.0)
}

/// Quantile (inverse CDF) of the chi-square distribution with `k` degrees of
/// freedom: the value `x` with `P(X ≤ x) = p`.
///
/// Used for the ARCH-effect hypothesis test threshold `χ²_m(α)` of the
/// paper's Section VII-D (there `p = 1 − α`).
pub fn chi_square_quantile(p: f64, k: f64) -> f64 {
    assert!(
        k > 0.0,
        "chi_square_quantile: degrees of freedom must be positive"
    );
    2.0 * inv_gammp(p, k / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "expected {b}, got {a} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_known_values() {
        close(ln_gamma(1.0), 0.0, 1e-14);
        close(ln_gamma(2.0), 0.0, 1e-14);
        close(ln_gamma(3.0), std::f64::consts::LN_2, 1e-14);
        close(ln_gamma(6.0), 120.0f64.ln(), 1e-14);
        // Γ(1/2) = √π.
        close(ln_gamma(0.5), 0.5 * std::f64::consts::PI.ln(), 1e-14);
        // ln Γ(10.3) cross-checked against Stirling's series with the
        // 1/(12x) correction (13.482036786...).
        close(ln_gamma(10.3), 13.482_036_786_138_35, 1e-10);
    }

    #[test]
    fn ln_gamma_reflection_negative_half() {
        // Γ(-0.5) = -2√π, so ln|Γ(-0.5)| = ln(2√π).
        close(
            ln_gamma(-0.5),
            (2.0 * std::f64::consts::PI.sqrt()).ln(),
            1e-12,
        );
    }

    #[test]
    #[should_panic(expected = "pole")]
    fn ln_gamma_pole_panics() {
        ln_gamma(-3.0);
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun table 7.1.
        close(erf(0.5), 0.520_499_877_813_046_5, 1e-13);
        close(erf(1.0), 0.842_700_792_949_714_9, 1e-13);
        close(erf(2.0), 0.995_322_265_018_952_7, 1e-13);
        close(erf(-1.0), -0.842_700_792_949_714_9, 1e-13);
        assert_eq!(erf(0.0), 0.0);
    }

    #[test]
    fn erfc_tail_accuracy() {
        // erfc(3) = 2.209e-5; erfc(5) = 1.537e-12 — must not collapse to 0.
        close(erfc(3.0), 2.209_049_699_858_544e-5, 1e-10);
        close(erfc(5.0), 1.537_459_794_428_035e-12, 1e-8);
        assert!(erfc(10.0) > 0.0);
    }

    #[test]
    fn erf_erfc_complementarity() {
        for &x in &[-3.0, -1.5, -0.1, 0.0, 0.3, 1.0, 2.5] {
            close(erf(x) + erfc(x), 1.0, 1e-14);
        }
    }

    #[test]
    fn normal_cdf_symmetry_and_values() {
        close(std_normal_cdf(0.0), 0.5, 1e-15);
        close(std_normal_cdf(1.959_963_984_540_054), 0.975, 1e-12);
        close(std_normal_cdf(-1.959_963_984_540_054), 0.025, 1e-12);
        // 3σ two-sided mass ≈ 0.9973 (quoted in the paper for κ = 3).
        let mass = std_normal_cdf(3.0) - std_normal_cdf(-3.0);
        close(mass, 0.997_300_203_936_740, 1e-12);
    }

    #[test]
    fn normal_quantile_round_trip() {
        for &p in &[1e-9, 1e-4, 0.01, 0.2, 0.5, 0.8, 0.975, 0.999_999] {
            let x = std_normal_quantile(p);
            close(std_normal_cdf(x), p, 1e-12);
        }
    }

    #[test]
    fn normal_quantile_known_points() {
        close(std_normal_quantile(0.5), 0.0, 1e-14);
        close(std_normal_quantile(0.975), 1.959_963_984_540_054, 1e-11);
        close(std_normal_quantile(0.841_344_746_068_543), 1.0, 1e-11);
    }

    #[test]
    fn gammp_gammq_sum_to_one() {
        for &a in &[0.3, 0.5, 1.0, 2.5, 10.0] {
            for &x in &[0.1, 0.5, 1.0, 3.0, 12.0] {
                close(gammp(a, x) + gammq(a, x), 1.0, 1e-13);
            }
        }
    }

    #[test]
    fn gammp_monotone_in_x() {
        let a = 1.7;
        let mut prev = 0.0;
        for i in 1..200 {
            let x = i as f64 * 0.1;
            let p = gammp(a, x);
            assert!(p >= prev, "gammp must be non-decreasing in x");
            prev = p;
        }
    }

    #[test]
    fn inv_gammp_round_trip() {
        for &a in &[0.5, 1.0, 2.0, 4.0, 15.0] {
            for &p in &[0.001, 0.05, 0.3, 0.5, 0.9, 0.999] {
                let x = inv_gammp(p, a);
                close(gammp(a, x), p, 1e-9);
            }
        }
    }

    #[test]
    fn chi_square_reference_quantiles() {
        // Classic table values for α = 0.05 upper-tail critical points:
        // χ²_1(0.95) = 3.841, χ²_2(0.95) = 5.991, χ²_8(0.95) = 15.507.
        close(chi_square_quantile(0.95, 1.0), 3.841_458_820_694_124, 1e-8);
        close(chi_square_quantile(0.95, 2.0), 5.991_464_547_107_979, 1e-8);
        close(chi_square_quantile(0.95, 8.0), 15.507_313_055_865_453, 1e-8);
    }

    #[test]
    fn chi_square_cdf_quantile_round_trip() {
        for k in 1..=10 {
            let k = k as f64;
            for &p in &[0.01, 0.25, 0.5, 0.75, 0.99] {
                let x = chi_square_quantile(p, k);
                close(chi_square_cdf(x, k), p, 1e-9);
            }
        }
    }
}
