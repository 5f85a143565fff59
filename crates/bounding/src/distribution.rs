//! Distributions of the excess variable ξ − X₀.
//!
//! During a bounding iteration, the amounts by which the disagreeing users'
//! private values exceed the rejected bound are modeled as i.i.d. positive
//! random variables (paper §V-A). Two families are used in the paper's
//! examples and evaluation:
//!
//! - **Uniform(0, U)** — Examples 5.1/5.3; the evaluation instantiates
//!   U = N/|D| (the expected coordinate span of an N-user cluster in a unit
//!   square holding |D| users).
//! - **Exponential(λ)** — Examples 5.2/5.4. The paper writes the density as
//!   `e^{−λx}/λ`, which does not integrate to 1 unless λ = 1; we implement
//!   the standard exponential `p(x) = λe^{−λx}` and derive the matching
//!   closed forms (documented in `DESIGN.md` as a corrected transcription).

/// A distribution of the positive excess ξ − X₀.
pub trait ExcessDistribution {
    /// Probability density at `x ≥ 0`.
    fn pdf(&self, x: f64) -> f64;
    /// Cumulative probability `P(ξ − X₀ ≤ x)`.
    fn cdf(&self, x: f64) -> f64;
    /// An upper limit of the support useful for capping increments:
    /// the smallest `x` with `cdf(x) = 1`, or a high quantile for unbounded
    /// supports.
    fn effective_span(&self) -> f64;
    /// The same distribution family stretched by `factor` (> 1 widens the
    /// support). Used by the secure bounding policy to recalibrate when the
    /// observed excesses exceed the modeled span.
    fn widened(&self, factor: f64) -> Self
    where
        Self: Sized;
}

/// Uniform on `(0, U)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    pub span: f64,
}

impl Uniform {
    /// Creates a uniform excess model with the given span `U > 0`.
    pub fn new(span: f64) -> Self {
        assert!(span > 0.0 && span.is_finite(), "span must be positive");
        Uniform { span }
    }
}

impl ExcessDistribution for Uniform {
    #[inline]
    fn pdf(&self, x: f64) -> f64 {
        if (0.0..self.span).contains(&x) {
            1.0 / self.span
        } else {
            0.0
        }
    }

    #[inline]
    fn cdf(&self, x: f64) -> f64 {
        (x / self.span).clamp(0.0, 1.0)
    }

    #[inline]
    fn effective_span(&self) -> f64 {
        self.span
    }

    fn widened(&self, factor: f64) -> Self {
        assert!(factor > 0.0);
        Uniform::new(self.span * factor)
    }
}

/// Exponential with rate `λ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    pub rate: f64,
}

impl Exponential {
    /// Creates an exponential excess model with rate `λ > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Exponential { rate }
    }
}

impl ExcessDistribution for Exponential {
    #[inline]
    fn pdf(&self, x: f64) -> f64 {
        if x >= 0.0 {
            self.rate * (-self.rate * x).exp()
        } else {
            0.0
        }
    }

    #[inline]
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }

    /// 99.9th percentile: `ln(1000)/λ`.
    #[inline]
    fn effective_span(&self) -> f64 {
        (1000f64).ln() / self.rate
    }

    fn widened(&self, factor: f64) -> Self {
        assert!(factor > 0.0);
        Exponential::new(self.rate / factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_pdf_cdf_consistency() {
        let u = Uniform::new(2.0);
        assert_eq!(u.pdf(1.0), 0.5);
        assert_eq!(u.pdf(3.0), 0.0);
        assert_eq!(u.cdf(1.0), 0.5);
        assert_eq!(u.cdf(-1.0), 0.0);
        assert_eq!(u.cdf(5.0), 1.0);
        assert_eq!(u.effective_span(), 2.0);
    }

    #[test]
    fn exponential_pdf_integrates_to_one() {
        let e = Exponential::new(3.0);
        // Trapezoid integral of the pdf over a long range ≈ 1.
        let mut total = 0.0;
        let dx = 1e-4;
        let mut x = 0.0;
        while x < 10.0 {
            total += 0.5 * (e.pdf(x) + e.pdf(x + dx)) * dx;
            x += dx;
        }
        assert!((total - 1.0).abs() < 1e-3, "integral {total}");
    }

    #[test]
    fn exponential_cdf_matches_closed_form() {
        let e = Exponential::new(2.0);
        assert_eq!(e.cdf(0.0), 0.0);
        assert!((e.cdf(1.0) - (1.0 - (-2.0f64).exp())).abs() < 1e-12);
        assert!(e.cdf(100.0) > 0.999999);
    }

    #[test]
    fn exponential_effective_span_covers_tail() {
        let e = Exponential::new(5.0);
        assert!(e.cdf(e.effective_span()) >= 0.999);
    }

    #[test]
    #[should_panic(expected = "span must be positive")]
    fn uniform_rejects_zero_span() {
        Uniform::new(0.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_negative_rate() {
        Exponential::new(-1.0);
    }
}
