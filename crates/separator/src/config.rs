//! Tunable constants for separator construction.

use sepdc_geom::centerpoint::CenterpointOpts;

/// Configuration for the unit-time sphere separator and the retry search.
///
/// Defaults follow the paper: the acceptance split ratio is
/// `δ = (d+1)/(d+2) + ε` with a small constant `ε` (the paper requires
/// `0 < ε < 1/(d+2)`), and every quantity that must be "constant" for the
/// unit-time claim (sample size, centerpoint effort) is a constant
/// independent of `n`.
#[derive(Clone, Copy, Debug)]
pub struct SeparatorConfig {
    /// Slack `ε` added to the ideal split ratio `(d+1)/(d+2)`.
    pub epsilon: f64,
    /// Random sample size used per candidate (constant for unit time).
    pub sample_size: usize,
    /// Iterated-Radon centerpoint effort.
    pub centerpoint: CenterpointOpts,
    /// Maximum unit-time candidates before the search falls back to a
    /// deterministic median cut (the theory gives success probability
    /// ≥ 1/2 per candidate, so this is hit with probability `2^-max`).
    pub max_attempts: usize,
    /// Numeric tolerance for classification.
    pub tol: f64,
}

impl Default for SeparatorConfig {
    fn default() -> Self {
        SeparatorConfig {
            epsilon: 0.04,
            sample_size: 128,
            // Lighter than the CenterpointOpts default: separator
            // candidates are retried on failure, so a slightly shallower
            // centerpoint is the right trade for unit-time candidates.
            centerpoint: CenterpointOpts {
                buffer_size: 96,
                rounds_factor: 4,
            },
            max_attempts: 48,
            tol: 1e-9,
        }
    }
}

impl SeparatorConfig {
    /// The acceptance split ratio `δ = (d+1)/(d+2) + ε` for dimension `d`.
    pub fn delta(&self, d: usize) -> f64 {
        assert!(d >= 1, "dimension must be positive");
        (d as f64 + 1.0) / (d as f64 + 2.0) + self.epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_matches_paper_formula() {
        let cfg = SeparatorConfig {
            epsilon: 0.0,
            ..Default::default()
        };
        assert!((cfg.delta(2) - 3.0 / 4.0).abs() < 1e-12);
        assert!((cfg.delta(3) - 4.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn default_epsilon_within_paper_range() {
        let cfg = SeparatorConfig::default();
        for d in 2..=8 {
            assert!(cfg.epsilon > 0.0 && cfg.epsilon < 1.0 / (d as f64 + 2.0));
            assert!(cfg.delta(d) < 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn delta_rejects_dimension_zero() {
        SeparatorConfig::default().delta(0);
    }
}
