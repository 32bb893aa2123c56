//! Confidence intervals over repeated (multi-seed) runs.
//!
//! The paper reports point estimates from single measurements; the
//! simulator can do better — every experiment re-runs under fresh seeds,
//! and this module summarizes the spread so EXPERIMENTS.md can state
//! mean ± CI instead of one number.

use std::fmt;

/// Mean with a normal-approximation confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Number of runs.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub std_dev: f64,
    /// Half-width of the interval at the chosen confidence.
    pub half_width: f64,
}

impl ConfidenceInterval {
    /// 95% CI over `samples` (z = 1.96 normal approximation — fine for the
    /// ≥10 seeds the experiments use). NaNs are dropped.
    ///
    /// Returns `None` for fewer than two valid samples.
    pub fn ci95(samples: &[f64]) -> Option<ConfidenceInterval> {
        Self::with_z(samples, 1.96)
    }

    /// CI with an explicit z-score.
    ///
    /// Returns `None` for fewer than two valid samples.
    pub fn with_z(samples: &[f64], z: f64) -> Option<ConfidenceInterval> {
        let clean: Vec<f64> = samples.iter().copied().filter(|v| !v.is_nan()).collect();
        if clean.len() < 2 {
            return None;
        }
        let n = clean.len();
        let mean = crate::reduce::ordered_sum(clean.iter().copied()) / n as f64;
        let var =
            crate::reduce::ordered_sum(clean.iter().map(|v| (v - mean).powi(2))) / (n as f64 - 1.0);
        let std_dev = var.sqrt();
        let half_width = z * std_dev / (n as f64).sqrt();
        Some(ConfidenceInterval { n, mean, std_dev, half_width })
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ± {:.3} (n={})", self.mean, self.half_width, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        // Samples 1..=5: mean 3, sd sqrt(2.5).
        let ci = ConfidenceInterval::ci95(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(ci.n, 5);
        assert!((ci.mean - 3.0).abs() < 1e-12);
        assert!((ci.std_dev - 2.5f64.sqrt()).abs() < 1e-12);
        let expected_hw = 1.96 * 2.5f64.sqrt() / 5f64.sqrt();
        assert!((ci.half_width - expected_hw).abs() < 1e-12);
    }

    #[test]
    fn identical_samples_have_zero_width() {
        let ci = ConfidenceInterval::ci95(&[7.0; 10]).unwrap();
        assert_eq!(ci.std_dev, 0.0);
        assert_eq!(ci.half_width, 0.0);
    }

    #[test]
    fn too_few_samples() {
        assert_eq!(ConfidenceInterval::ci95(&[]), None);
        assert_eq!(ConfidenceInterval::ci95(&[1.0]), None);
        assert_eq!(ConfidenceInterval::ci95(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn display_form() {
        let ci = ConfidenceInterval::ci95(&[1.0, 2.0, 3.0]).unwrap();
        let s = ci.to_string();
        assert!(s.contains("2.000 ±"));
        assert!(s.contains("n=3"));
    }
}
