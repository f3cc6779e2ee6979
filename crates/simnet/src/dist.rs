//! Declarative sampling distributions for heterogeneity knobs.
//!
//! The paper fixes heterogeneity to two small grids (§V-A). Real fleets are
//! messier: CPU speeds are roughly lognormal across device generations, link
//! bandwidth varies continuously, and session lifetimes follow heavy tails.
//! [`DistributionConfig`] makes the *shape* of each knob declarative — a
//! scenario spec picks `lognormal`/`normal`/`uniform`/`fixed`/`trace` per
//! knob and the simulation threads a seeded [`DistSampler`] through profile
//! generation, session lifetimes and arrival gaps.
//!
//! Samplers draw **at most one uniform** per sample (`fixed` and `trace`
//! draw none), so swapping one distribution for another never perturbs the
//! draw count of an unrelated stream. The normal quantile uses Acklam's
//! rational approximation rather than a rejection method for the same
//! reason: rejection consumes a data-dependent number of uniforms, which
//! would make downstream streams depend on sampled *values*.
//!
//! # Example
//!
//! ```
//! use comdml_simnet::{DistSampler, DistributionConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let cfg = DistributionConfig::LogNormal { mu: 0.0, sigma: 0.5 };
//! cfg.validate("cpu_dist").unwrap();
//! let mut s = DistSampler::new(cfg);
//! let mut rng = StdRng::seed_from_u64(7);
//! let v = s.sample(&mut rng);
//! assert!(v > 0.0);
//! ```

use rand::rngs::StdRng;
use rand::Rng;

/// Samples are clamped to this floor so a wide `normal` can never emit a
/// non-positive CPU speed, bandwidth, lifetime or arrival gap (profiles
/// assert positivity; a zero arrival gap would admit infinitely many agents
/// in one round).
pub const DIST_SAMPLE_FLOOR: f64 = 1e-6;

/// A declarative sampling distribution, tagged for JSON specs.
///
/// All distributions describe a positive quantity; [`DistSampler`] clamps
/// every sample to [`DIST_SAMPLE_FLOOR`]. `LogNormal` is parameterized by
/// the mean/std-dev of the *underlying normal* (`μ`, `σ`), the standard
/// convention: its mean is `exp(μ + σ²/2)`.
#[derive(Debug, Clone, PartialEq)]
pub enum DistributionConfig {
    /// Every sample is exactly `value`.
    Fixed {
        /// The constant value.
        value: f64,
    },
    /// Uniform on `[min, max]`.
    Uniform {
        /// Inclusive lower bound (positive).
        min: f64,
        /// Inclusive upper bound (`>= min`).
        max: f64,
    },
    /// Normal with the given mean and standard deviation, clamped positive.
    Normal {
        /// Mean of the distribution.
        mean: f64,
        /// Standard deviation (non-negative).
        std_dev: f64,
    },
    /// Lognormal: `exp(N(μ, σ²))`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal (non-negative).
        sigma: f64,
    },
    /// Replays `values` in order, cycling; consumes no randomness.
    Trace {
        /// The replayed values (non-empty, all positive and finite).
        values: Vec<f64>,
    },
}

impl DistributionConfig {
    /// Checks the parameters, returning a `"{ctx}: ..."`-prefixed error for
    /// anything degenerate (negative `std_dev`, `min > max`, empty trace,
    /// non-finite or non-positive values).
    pub fn validate(&self, ctx: &str) -> Result<(), String> {
        let pos = |name: &str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{ctx}: {name} must be positive and finite, got {v}"))
            }
        };
        match self {
            Self::Fixed { value } => pos("value", *value),
            Self::Uniform { min, max } => {
                pos("min", *min)?;
                pos("max", *max)?;
                if min > max {
                    return Err(format!("{ctx}: min {min} exceeds max {max}"));
                }
                Ok(())
            }
            Self::Normal { mean, std_dev } => {
                pos("mean", *mean)?;
                if !std_dev.is_finite() || *std_dev < 0.0 {
                    return Err(format!(
                        "{ctx}: std_dev must be non-negative and finite, got {std_dev}"
                    ));
                }
                Ok(())
            }
            Self::LogNormal { mu, sigma } => {
                if !mu.is_finite() {
                    return Err(format!("{ctx}: mu must be finite, got {mu}"));
                }
                if !sigma.is_finite() || *sigma < 0.0 {
                    return Err(format!(
                        "{ctx}: sigma must be non-negative and finite, got {sigma}"
                    ));
                }
                Ok(())
            }
            Self::Trace { values } => {
                if values.is_empty() {
                    return Err(format!("{ctx}: trace must not be empty"));
                }
                for (i, &v) in values.iter().enumerate() {
                    if !v.is_finite() || v <= 0.0 {
                        return Err(format!(
                            "{ctx}: trace[{i}] must be positive and finite, got {v}"
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    /// The distribution's spec tag (`fixed` / `uniform` / `normal` /
    /// `lognormal` / `trace`), shared by the JSON codec and error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Fixed { .. } => "fixed",
            Self::Uniform { .. } => "uniform",
            Self::Normal { .. } => "normal",
            Self::LogNormal { .. } => "lognormal",
            Self::Trace { .. } => "trace",
        }
    }
}

/// A stateful sampler over a [`DistributionConfig`].
///
/// Stateful only for `trace` (a replay cursor); the random variants are
/// pure functions of the rng stream. Each sample consumes exactly one
/// uniform for `uniform`/`normal`/`lognormal` and zero for `fixed`/`trace`.
#[derive(Debug, Clone)]
pub struct DistSampler {
    config: DistributionConfig,
    cursor: usize,
}

impl DistSampler {
    /// Wraps a validated config. Call [`DistributionConfig::validate`]
    /// first; sampling a degenerate config clamps rather than panics, but
    /// the values will be garbage.
    pub fn new(config: DistributionConfig) -> Self {
        Self { config, cursor: 0 }
    }

    /// The wrapped config.
    pub fn config(&self) -> &DistributionConfig {
        &self.config
    }

    /// Draws one sample, clamped to [`DIST_SAMPLE_FLOOR`].
    pub fn sample(&mut self, rng: &mut StdRng) -> f64 {
        let v = match &self.config {
            DistributionConfig::Fixed { value } => *value,
            DistributionConfig::Uniform { min, max } => {
                let u = rng.gen::<f64>();
                min + (max - min) * u
            }
            DistributionConfig::Normal { mean, std_dev } => mean + std_dev * standard_normal(rng),
            DistributionConfig::LogNormal { mu, sigma } => {
                (mu + sigma * standard_normal(rng)).exp()
            }
            DistributionConfig::Trace { values } => {
                let v = values[self.cursor % values.len()];
                self.cursor += 1;
                v
            }
        };
        v.max(DIST_SAMPLE_FLOOR)
    }
}

/// One standard-normal draw from a single uniform via the inverse CDF.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u = rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12);
    inverse_normal_cdf(u)
}

/// Acklam's rational approximation of the standard normal quantile
/// (relative error below `1.15e-9` over the open unit interval) — one
/// uniform per normal draw, unlike rejection methods whose draw count is
/// value-dependent.
fn inverse_normal_cdf(p: f64) -> f64 {
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
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
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
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn mean_of(cfg: DistributionConfig, n: usize, seed: u64) -> (f64, f64) {
        let mut s = DistSampler::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let samples: Vec<f64> = (0..n).map(|_| s.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        (mean, var)
    }

    #[test]
    fn fixed_is_exact_and_draw_free() {
        let mut s = DistSampler::new(DistributionConfig::Fixed { value: 2.5 });
        let mut rng = StdRng::seed_from_u64(1);
        let before = rng.clone().gen::<f64>();
        for _ in 0..10 {
            assert_eq!(s.sample(&mut rng), 2.5);
        }
        assert_eq!(rng.gen::<f64>(), before, "fixed must not consume randomness");
    }

    #[test]
    fn trace_cycles_in_order_without_randomness() {
        let mut s = DistSampler::new(DistributionConfig::Trace { values: vec![1.0, 2.0, 3.0] });
        let mut rng = StdRng::seed_from_u64(1);
        let before = rng.clone().gen::<f64>();
        let got: Vec<f64> = (0..7).map(|_| s.sample(&mut rng)).collect();
        assert_eq!(got, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]);
        assert_eq!(rng.gen::<f64>(), before, "trace must not consume randomness");
    }

    #[test]
    fn uniform_mean_and_bounds() {
        let cfg = DistributionConfig::Uniform { min: 2.0, max: 6.0 };
        let (mean, _) = mean_of(cfg.clone(), 20_000, 11);
        assert!((mean - 4.0).abs() < 0.05, "uniform mean drifted: {mean}");
        let mut s = DistSampler::new(cfg);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..1000 {
            let v = s.sample(&mut rng);
            assert!((2.0..=6.0).contains(&v), "out of bounds: {v}");
        }
    }

    #[test]
    fn normal_mean_and_variance() {
        let (mean, var) =
            mean_of(DistributionConfig::Normal { mean: 10.0, std_dev: 2.0 }, 20_000, 13);
        assert!((mean - 10.0).abs() < 0.06, "normal mean drifted: {mean}");
        assert!((var - 4.0).abs() < 0.25, "normal variance drifted: {var}");
    }

    #[test]
    fn lognormal_mean_matches_closed_form() {
        // E[exp(N(μ, σ²))] = exp(μ + σ²/2).
        let (mu, sigma) = (0.2f64, 0.4f64);
        let expected = (mu + sigma * sigma / 2.0).exp();
        let (mean, _) = mean_of(DistributionConfig::LogNormal { mu, sigma }, 40_000, 17);
        assert!((mean / expected - 1.0).abs() < 0.02, "lognormal mean {mean} vs {expected}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        for cfg in [
            DistributionConfig::Uniform { min: 1.0, max: 2.0 },
            DistributionConfig::Normal { mean: 3.0, std_dev: 1.0 },
            DistributionConfig::LogNormal { mu: 0.0, sigma: 0.7 },
        ] {
            let draw = |seed: u64| {
                let mut s = DistSampler::new(cfg.clone());
                let mut rng = StdRng::seed_from_u64(seed);
                (0..32).map(|_| s.sample(&mut rng)).collect::<Vec<f64>>()
            };
            assert_eq!(draw(5), draw(5), "{} not deterministic", cfg.kind());
            assert_ne!(draw(5), draw(6), "{} ignores the seed", cfg.kind());
        }
    }

    #[test]
    fn samples_stay_positive_even_for_wide_normals() {
        let cfg = DistributionConfig::Normal { mean: 0.5, std_dev: 50.0 };
        let mut s = DistSampler::new(cfg);
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..5000 {
            assert!(s.sample(&mut rng) >= DIST_SAMPLE_FLOOR);
        }
    }

    #[test]
    fn inverse_cdf_hits_known_quantiles() {
        // Φ⁻¹(0.5) = 0, Φ⁻¹(0.975) ≈ 1.959964, and symmetry.
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959_964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + inverse_normal_cdf(0.975)).abs() < 1e-7);
        // Tail branch sanity.
        assert!(inverse_normal_cdf(0.001) < -3.0);
        assert!(inverse_normal_cdf(0.999) > 3.0);
    }

    #[test]
    fn validation_rejects_degenerate_parameters() {
        let bad = [
            DistributionConfig::Fixed { value: 0.0 },
            DistributionConfig::Fixed { value: f64::NAN },
            DistributionConfig::Uniform { min: 5.0, max: 1.0 },
            DistributionConfig::Uniform { min: -1.0, max: 1.0 },
            DistributionConfig::Normal { mean: 1.0, std_dev: -0.5 },
            DistributionConfig::Normal { mean: f64::INFINITY, std_dev: 1.0 },
            DistributionConfig::LogNormal { mu: 0.0, sigma: -1.0 },
            DistributionConfig::LogNormal { mu: f64::NAN, sigma: 1.0 },
            DistributionConfig::Trace { values: vec![] },
            DistributionConfig::Trace { values: vec![1.0, -2.0] },
            DistributionConfig::Trace { values: vec![f64::NAN] },
        ];
        for cfg in bad {
            let err = cfg.validate("knob").unwrap_err();
            assert!(err.starts_with("knob:"), "error missing context: {err}");
        }
    }

    #[test]
    fn validation_accepts_every_well_formed_variant() {
        let good = [
            DistributionConfig::Fixed { value: 1.0 },
            DistributionConfig::Uniform { min: 1.0, max: 1.0 },
            DistributionConfig::Normal { mean: 2.0, std_dev: 0.0 },
            DistributionConfig::LogNormal { mu: -1.0, sigma: 0.0 },
            DistributionConfig::Trace { values: vec![0.5] },
        ];
        for cfg in good {
            cfg.validate("knob").unwrap_or_else(|e| panic!("rejected {cfg:?}: {e}"));
        }
    }
}
