//! Device-variation noise injection for the analog MAC path.
//!
//! Every noise sample is a counter-based draw, like the transient faults
//! of [`fault`](crate::fault): a hash of the model's seed and a key the
//! crossbar builds for the sample (its burst, crossed line, input step
//! and bit slice), never the next value of a stream. A sample therefore
//! does not depend on which samples were drawn before it, so a restricted
//! read-out of a few lines sees exactly the noise the full burst would.

use crate::fault::{chain_key, draw, unit};

/// Domain of the noise draws, mixed with the seed.
const NOISE_DOMAIN: u64 = 0x6E6F_6973_655F_7332; // "noise_s2"

/// Multiplicative Gaussian noise on analog partial sums, modeling ReRAM
/// conductance variation and wire IR drop.
///
/// Applied per (input-step, bit-slice) partial before ADC sampling, i.e. at
/// the point real variation enters the signal chain. Each sample is a
/// Box–Muller deviate from two uniforms hashed from the seed and the
/// sample's key, so noisy runs stay reproducible in any evaluation order.
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    sigma_rel: f64,
    /// The seed mixed with the noise domain.
    base: u64,
}

impl NoiseModel {
    /// Creates a noise model with relative standard deviation `sigma_rel`
    /// (e.g. `0.05` for 5 % variation).
    ///
    /// # Panics
    ///
    /// Panics if `sigma_rel` is negative or not finite.
    pub fn new(sigma_rel: f64, seed: u64) -> Self {
        assert!(
            sigma_rel.is_finite() && sigma_rel >= 0.0,
            "sigma_rel must be a non-negative finite number"
        );
        NoiseModel {
            sigma_rel,
            base: chain_key(NOISE_DOMAIN, seed),
        }
    }

    /// The configured relative sigma.
    pub fn sigma_rel(&self) -> f64 {
        self.sigma_rel
    }

    /// Perturbs an analog count with the sample keyed by `sample_key`,
    /// returning a non-negative rounded value.
    pub fn perturb_count(&self, value: u64, sample_key: u64) -> u64 {
        if self.sigma_rel == 0.0 || value == 0 {
            return value;
        }
        let gaussian = self.standard_normal(sample_key);
        let noisy = value as f64 * (1.0 + self.sigma_rel * gaussian);
        noisy.round().max(0.0) as u64
    }

    /// Standard normal sample via Box–Muller (the cosine deviate) from two
    /// uniforms hashed from the key.
    fn standard_normal(&self, sample_key: u64) -> f64 {
        let h1 = draw(self.base, &[sample_key]);
        let h2 = draw(h1, &[sample_key]);
        let u1 = unit(h1).max(f64::EPSILON);
        let u2 = unit(h2);
        let r = (-2.0 * u1.ln()).sqrt();
        r * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sigma_is_identity() {
        let n = NoiseModel::new(0.0, 1);
        assert_eq!(n.perturb_count(42, 5), 42);
    }

    /// 10^5 keyed samples of a 1000-count partial: mean and sigma within
    /// four standard errors of the configured 1000 and 5%.
    #[test]
    fn noise_is_centered_and_scaled() {
        let n = NoiseModel::new(0.05, 7);
        let base = 1000u64;
        let count = 100_000;
        let samples: Vec<u64> = (0..count).map(|k| n.perturb_count(base, k)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / count as f64;
        let var = samples
            .iter()
            .map(|&s| (s as f64 - mean).powi(2))
            .sum::<f64>()
            / count as f64;
        let sigma = var.sqrt();
        // Standard errors: 50/sqrt(n) for the mean, ~50/sqrt(2n) for sigma.
        let n_f = count as f64;
        assert!(
            (mean - 1000.0).abs() < 4.0 * 50.0 / n_f.sqrt(),
            "mean {mean}"
        );
        assert!(
            (sigma - 50.0).abs() < 4.0 * 50.0 / (2.0 * n_f).sqrt() + 0.5,
            "sigma {sigma}"
        );
    }

    #[test]
    fn samples_depend_on_seed_and_key_not_on_order() {
        let a = NoiseModel::new(0.1, 3);
        let b = NoiseModel::new(0.1, 3);
        let keys = [10u64, 100, 1000, 500, 50];
        let forward: Vec<u64> = keys
            .iter()
            .map(|&k| a.perturb_count(1_000_000, k))
            .collect();
        let backward: Vec<u64> = keys
            .iter()
            .rev()
            .map(|&k| b.perturb_count(1_000_000, k))
            .collect();
        assert!(forward.iter().eq(backward.iter().rev()));
        let other_seed = NoiseModel::new(0.1, 4);
        assert_ne!(other_seed.perturb_count(1_000_000, 10), forward[0]);
        assert_ne!(a.perturb_count(1_000_000, 11), forward[0]);
    }

    #[test]
    fn zero_input_stays_zero() {
        let n = NoiseModel::new(0.5, 1);
        assert_eq!(n.perturb_count(0, 9), 0);
    }
}
