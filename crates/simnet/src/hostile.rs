//! Hostile-world knobs: conditions the paper never tested.
//!
//! The paper's evaluation worlds are benign — links are stationary, the
//! topology never cuts, and every agent honestly reports its speed to the
//! pairing broadcast. These knobs open the other worlds:
//!
//! - [`DiurnalCycle`] — time-varying bandwidth (mobile fleets see day/night
//!   swings); a smooth multiplicative scale on every link.
//! - [`PartitionSchedule`] — correlated regional outages: one region at a
//!   time loses connectivity to the rest of the fleet, then heals, rotating
//!   through regions.
//! - [`ByzantineConfig`] — agents that misreport their speed (`τ̂`) to the
//!   pairing broadcast, stressing Algorithm 1's trust in advertised speeds:
//!   pairing decisions see the lie, execution runs on the truth.
//!
//! All three are pure functions of the simulated clock and agent identity —
//! no randomness — so enabling them cannot perturb any seeded stream and
//! every pinned determinism digest stays valid.

/// A smooth day/night bandwidth cycle applied as a multiplicative scale on
/// every link: `factor(t) = min + (1 − min)·(1 + cos(2πt/period))/2`.
///
/// At `t = 0` the factor is exactly `1.0` (peak); at `t = period/2` it
/// bottoms out at `min_factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalCycle {
    /// Full cycle length in simulated seconds.
    pub period_s: f64,
    /// Bandwidth scale at the trough, in `(0, 1]`.
    pub min_factor: f64,
}

impl DiurnalCycle {
    /// The bandwidth scale at simulated time `t_s`.
    pub fn factor_at(&self, t_s: f64) -> f64 {
        let phase = (2.0 * std::f64::consts::PI * t_s / self.period_s).cos();
        self.min_factor + (1.0 - self.min_factor) * 0.5 * (1.0 + phase)
    }

    /// Validates the knobs with `"{ctx}: ..."`-prefixed errors.
    pub fn validate(&self, ctx: &str) -> Result<(), String> {
        if !self.period_s.is_finite() || self.period_s <= 0.0 {
            return Err(format!(
                "{ctx}: period_s must be positive and finite, got {}",
                self.period_s
            ));
        }
        if !self.min_factor.is_finite() || self.min_factor <= 0.0 || self.min_factor > 1.0 {
            return Err(format!("{ctx}: min_factor must be in (0, 1], got {}", self.min_factor));
        }
        Ok(())
    }
}

/// Rotating correlated regional outages.
///
/// Agents are striped into `groups` regions by id (`region = id % groups`).
/// Each period, one region — cycling `0, 1, …, groups−1, 0, …` — is cut off
/// from every other region for the first `outage_s` seconds, then heals.
/// Links *within* a region stay up (the outage models a backbone cut, not a
/// regional power loss).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionSchedule {
    /// Number of regions (at least 2).
    pub groups: usize,
    /// Seconds between outage onsets.
    pub period_s: f64,
    /// Outage duration at the start of each period, in `(0, period_s]`.
    pub outage_s: f64,
}

impl PartitionSchedule {
    /// The region isolated at simulated time `t_s`, or `None` while healed.
    pub fn cut_at(&self, t_s: f64) -> Option<usize> {
        if t_s < 0.0 {
            return None;
        }
        let cycle = (t_s / self.period_s).floor();
        let phase = t_s - cycle * self.period_s;
        if phase < self.outage_s {
            Some((cycle as u64 % self.groups as u64) as usize)
        } else {
            None
        }
    }

    /// The region an agent id belongs to.
    pub fn region_of(&self, id: usize) -> usize {
        id % self.groups
    }

    /// Validates the knobs with `"{ctx}: ..."`-prefixed errors.
    pub fn validate(&self, ctx: &str) -> Result<(), String> {
        if self.groups < 2 {
            return Err(format!("{ctx}: groups must be at least 2, got {}", self.groups));
        }
        if !self.period_s.is_finite() || self.period_s <= 0.0 {
            return Err(format!(
                "{ctx}: period_s must be positive and finite, got {}",
                self.period_s
            ));
        }
        if !self.outage_s.is_finite() || self.outage_s <= 0.0 || self.outage_s > self.period_s {
            return Err(format!("{ctx}: outage_s must be in (0, period_s], got {}", self.outage_s));
        }
        Ok(())
    }
}

/// Byzantine speed misreporting against the pairing broadcast.
///
/// A deterministic `fraction` of agents advertise `speed_factor ×` their
/// true CPU speed in Algorithm 1's broadcast. `speed_factor > 1` models
/// freeloaders that attract offloads they then execute slowly;
/// `speed_factor < 1` models sandbagging. Execution always uses the true
/// profile — only the scheduler's beliefs are poisoned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantineConfig {
    /// Fraction of the fleet that lies, in `[0, 1]`.
    pub fraction: f64,
    /// Multiplier applied to the advertised CPU speed (positive, ≠ 1 to
    /// have any effect).
    pub speed_factor: f64,
}

impl ByzantineConfig {
    /// Whether `id` lies, as a deterministic pure function of `(id, salt)` —
    /// an FNV hash mapped to `[0, 1)` and compared against `fraction`, so
    /// the liar set is stable across rounds, threads and replays without
    /// touching any rng stream.
    pub fn is_liar(&self, id: usize, salt: u64) -> bool {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in id.to_le_bytes().into_iter().chain(salt.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        // Top 53 bits → uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.fraction
    }

    /// Validates the knobs with `"{ctx}: ..."`-prefixed errors.
    pub fn validate(&self, ctx: &str) -> Result<(), String> {
        if !self.fraction.is_finite() || !(0.0..=1.0).contains(&self.fraction) {
            return Err(format!("{ctx}: fraction must be in [0, 1], got {}", self.fraction));
        }
        if !self.speed_factor.is_finite() || self.speed_factor <= 0.0 {
            return Err(format!(
                "{ctx}: speed_factor must be positive and finite, got {}",
                self.speed_factor
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_peaks_at_zero_and_troughs_at_half_period() {
        let d = DiurnalCycle { period_s: 100.0, min_factor: 0.3 };
        assert!((d.factor_at(0.0) - 1.0).abs() < 1e-12);
        assert!((d.factor_at(50.0) - 0.3).abs() < 1e-12);
        assert!((d.factor_at(100.0) - 1.0).abs() < 1e-9);
        // Always inside [min, 1].
        for i in 0..200 {
            let f = d.factor_at(i as f64 * 1.7);
            assert!((0.3 - 1e-12..=1.0 + 1e-12).contains(&f), "factor {f} out of range");
        }
    }

    #[test]
    fn partition_rotates_regions_and_heals() {
        let p = PartitionSchedule { groups: 3, period_s: 60.0, outage_s: 20.0 };
        assert_eq!(p.cut_at(0.0), Some(0));
        assert_eq!(p.cut_at(19.9), Some(0));
        assert_eq!(p.cut_at(20.0), None);
        assert_eq!(p.cut_at(59.9), None);
        assert_eq!(p.cut_at(60.0), Some(1));
        assert_eq!(p.cut_at(125.0), Some(2));
        assert_eq!(p.cut_at(180.0), Some(0), "rotation wraps");
        assert_eq!(p.cut_at(-5.0), None);
        assert_eq!(p.region_of(7), 1);
    }

    #[test]
    fn byzantine_liar_set_is_deterministic_and_fraction_scaled() {
        let b = ByzantineConfig { fraction: 0.25, speed_factor: 4.0 };
        let liars: Vec<bool> = (0..10_000).map(|id| b.is_liar(id, 42)).collect();
        let again: Vec<bool> = (0..10_000).map(|id| b.is_liar(id, 42)).collect();
        assert_eq!(liars, again);
        let count = liars.iter().filter(|&&l| l).count();
        assert!((2000..3000).contains(&count), "expected ~25% liars, got {count}");
        // Salt changes the set.
        let other = (0..10_000).filter(|&id| b.is_liar(id, 43)).count();
        assert!((2000..3000).contains(&other));
        assert_ne!(
            (0..100).map(|id| b.is_liar(id, 42)).collect::<Vec<_>>(),
            (0..100).map(|id| b.is_liar(id, 43)).collect::<Vec<_>>()
        );
        // Degenerate fractions.
        let none = ByzantineConfig { fraction: 0.0, speed_factor: 4.0 };
        assert!((0..100).all(|id| !none.is_liar(id, 1)));
        let all = ByzantineConfig { fraction: 1.0, speed_factor: 4.0 };
        assert!((0..100).all(|id| all.is_liar(id, 1)));
    }

    #[test]
    fn validation_rejects_bad_hostile_knobs() {
        assert!(DiurnalCycle { period_s: 0.0, min_factor: 0.5 }.validate("d").is_err());
        assert!(DiurnalCycle { period_s: 10.0, min_factor: 0.0 }.validate("d").is_err());
        assert!(DiurnalCycle { period_s: 10.0, min_factor: 1.5 }.validate("d").is_err());
        assert!(DiurnalCycle { period_s: f64::NAN, min_factor: 0.5 }.validate("d").is_err());
        assert!(PartitionSchedule { groups: 1, period_s: 10.0, outage_s: 5.0 }
            .validate("p")
            .is_err());
        assert!(PartitionSchedule { groups: 2, period_s: 10.0, outage_s: 0.0 }
            .validate("p")
            .is_err());
        assert!(PartitionSchedule { groups: 2, period_s: 10.0, outage_s: 11.0 }
            .validate("p")
            .is_err());
        assert!(ByzantineConfig { fraction: 1.5, speed_factor: 2.0 }.validate("b").is_err());
        assert!(ByzantineConfig { fraction: -0.1, speed_factor: 2.0 }.validate("b").is_err());
        assert!(ByzantineConfig { fraction: 0.5, speed_factor: 0.0 }.validate("b").is_err());
        // Well-formed knobs pass.
        assert!(DiurnalCycle { period_s: 10.0, min_factor: 0.5 }.validate("d").is_ok());
        assert!(PartitionSchedule { groups: 2, period_s: 10.0, outage_s: 10.0 }
            .validate("p")
            .is_ok());
        assert!(ByzantineConfig { fraction: 0.0, speed_factor: 1.0 }.validate("b").is_ok());
    }
}
