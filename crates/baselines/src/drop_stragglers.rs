use comdml_core::{EngineRound, RoundEngine, RoundPlan};
use comdml_simnet::AgentId;

use crate::common::barrier_s;
use crate::BaselineConfig;

/// Straggler dropping (\[26\] Bonawitz et al., discussed in §II-B): each round
/// simply ignores the slowest fraction of participants (the reference system
/// drops ~30%), synchronizing only on the survivors.
///
/// Cheap rounds, but the dropped agents' data never contributes that round —
/// and the same slow agents are dropped every time, so their data is
/// systematically under-represented (the paper's criticism: "the challenge
/// of determining optimal parameters").
#[derive(Debug, Clone)]
pub struct DropStragglers {
    cfg: BaselineConfig,
    drop_fraction: f64,
}

impl DropStragglers {
    /// Creates the engine dropping the slowest `drop_fraction` each round.
    ///
    /// # Panics
    ///
    /// Panics if `drop_fraction` is not in `[0, 1)`.
    pub fn new(cfg: BaselineConfig, drop_fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&drop_fraction),
            "drop fraction must be in [0, 1), got {drop_fraction}"
        );
        Self { cfg, drop_fraction }
    }

    /// Survivors of an `n`-participant round: the fastest
    /// `ceil(n · (1 − drop_fraction))`, at least one.
    fn keep(&self, n: usize) -> usize {
        ((n as f64 * (1.0 - self.drop_fraction)).ceil() as usize).clamp(1, n)
    }
}

impl RoundEngine for DropStragglers {
    fn name(&self) -> &'static str {
        "Drop-30%"
    }

    fn rounds_factor(&self) -> f64 {
        // Surviving fraction of data per round, with the usual sub-linear
        // transfer between rounds.
        (1.0 - self.drop_fraction).powf(0.35)
    }

    /// The aggregation cohort is only the surviving fast fraction — the
    /// dropped stragglers' data never contributes this round, which is
    /// exactly what the analytic efficiency discounts.
    fn run_round(&mut self, plan: RoundPlan<'_>) -> EngineRound {
        let n = plan.participants.len();
        if n == 0 {
            return EngineRound::closed_form(0.0, 0.0, 0);
        }
        let mut by_speed: Vec<(AgentId, f64)> = plan
            .participants
            .iter()
            .map(|&id| (id, self.cfg.solo_time_s(plan.world.agent(id))))
            .collect();
        by_speed.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let keep = self.keep(n);
        let (survivors, times): (Vec<AgentId>, Vec<f64>) = by_speed[..keep].iter().copied().unzip();
        let b = self.cfg.model.model_bytes() as u64;
        let min_link = self.cfg.min_link_mbps(plan.world, &survivors);
        let comm = 2.0 * self.cfg.calibration.transfer_time_s(b, min_link);
        let round_s = barrier_s(&times, comm);
        let mut round = EngineRound::closed_form(round_s, self.rounds_factor(), n);
        round.progress.cohort = keep;
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::round_s;
    use crate::FedAvg;
    use comdml_simnet::WorldConfig;

    #[test]
    fn dropping_shortens_rounds() {
        let base = BaselineConfig::default();
        let world = WorldConfig::heterogeneous(10, 1).build();
        let mut fedavg = FedAvg::new(base.clone());
        let mut dropper = DropStragglers::new(base, 0.3);
        let t_full = round_s(&mut fedavg, &world, 0);
        let t_drop = round_s(&mut dropper, &world, 0);
        assert!(t_drop < t_full, "{t_drop} vs {t_full}");
    }

    #[test]
    fn needs_more_rounds_than_full_participation() {
        let engine = DropStragglers::new(BaselineConfig::default(), 0.3);
        assert!(engine.rounds_factor() < 1.0);
    }

    #[test]
    fn progress_cohort_is_the_surviving_fraction() {
        let base = BaselineConfig::default();
        let world = WorldConfig::heterogeneous(10, 3).build();
        let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
        let mut engine = DropStragglers::new(base, 0.3);
        let p = engine.run_round(RoundPlan::new(0, &world, &ids)).progress;
        assert_eq!(p.participants, 10);
        assert_eq!(p.cohort, 7, "30% of 10 dropped");
        assert!((p.efficiency - engine.rounds_factor()).abs() < 1e-12);
    }

    #[test]
    fn zero_drop_matches_full_straggler() {
        let base = BaselineConfig::default();
        let world = WorldConfig::heterogeneous(10, 2).build();
        let mut engine = DropStragglers::new(base.clone(), 0.0);
        let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
        let straggler = base.straggler_compute_s(&world, &ids);
        let t = round_s(&mut engine, &world, 0);
        assert!(t >= straggler, "keeps everyone: {t} vs {straggler}");
    }
}
