use comdml_cost::{CostCalibration, ModelSpec};
use comdml_simnet::{AgentId, AgentState, World};

/// Shared configuration of all baseline engines.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// The model being trained (for FLOPs and payload size).
    pub model: ModelSpec,
    /// Resource-to-seconds calibration (must match the ComDML run being
    /// compared against).
    pub calibration: CostCalibration,
    /// Central-server aggregate bandwidth in Mbps (FedAvg only).
    pub server_mbps: f64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            model: ModelSpec::resnet56(),
            calibration: CostCalibration::default(),
            server_mbps: 1000.0,
        }
    }
}

impl BaselineConfig {
    /// Solo full-model training time of one agent (`Ñ / p`): baselines do
    /// not split models, so every agent always trains the whole network.
    pub fn solo_time_s(&self, agent: &AgentState) -> f64 {
        agent.num_batches() as f64
            * self.calibration.batch_time_s(
                self.model.train_flops_per_sample(),
                agent.batch_size,
                agent.profile.cpus,
            )
    }

    /// Per-participant full-model epoch times, in participant order: the
    /// task times a synchronized baseline's barrier waits on.
    pub fn per_agent_times(&self, world: &World, participants: &[AgentId]) -> Vec<f64> {
        participants.iter().map(|&id| self.solo_time_s(world.agent(id))).collect()
    }

    /// The compute phase of a synchronized round: the slowest participant's
    /// full local epoch.
    pub fn straggler_compute_s(&self, world: &World, participants: &[AgentId]) -> f64 {
        barrier_s(&self.per_agent_times(world, participants), 0.0)
    }

    /// The slowest participant link in Mbps (0 if anyone is disconnected).
    pub fn min_link_mbps(&self, world: &World, participants: &[AgentId]) -> f64 {
        participants
            .iter()
            .map(|&id| world.agent(id).profile.link_mbps)
            .fold(f64::INFINITY, f64::min)
    }
}

/// A synchronized round's simulated seconds: the slowest task time plus
/// `aggregation_s`, or 0 with no participants. No agent trains or talks
/// during another's barrier wait, so the round needs no event clock.
pub(crate) fn barrier_s(task_times: &[f64], aggregation_s: f64) -> f64 {
    match task_times.iter().copied().reduce(f64::max) {
        Some(slowest) => slowest + aggregation_s,
        None => 0.0,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use comdml_core::{RoundEngine, RoundPlan};
    use comdml_simnet::WorldConfig;

    #[test]
    fn solo_time_matches_manual_computation() {
        let cfg = BaselineConfig::default();
        let world = WorldConfig::heterogeneous(5, 1).build();
        let a = &world.agents()[0];
        let expected = a.num_batches() as f64
            * cfg.calibration.batch_time_s(
                cfg.model.train_flops_per_sample(),
                a.batch_size,
                a.profile.cpus,
            );
        assert!((cfg.solo_time_s(a) - expected).abs() < 1e-12);
    }

    #[test]
    fn straggler_dominates_compute_phase() {
        let cfg = BaselineConfig::default();
        let world = WorldConfig::heterogeneous(10, 2).build();
        let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
        let straggler = cfg.straggler_compute_s(&world, &ids);
        for a in world.agents() {
            assert!(cfg.solo_time_s(a) <= straggler + 1e-9);
        }
    }

    /// Prices one round of `engine` over every agent of `world`.
    pub(crate) fn round_s(engine: &mut impl RoundEngine, world: &World, round: usize) -> f64 {
        let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
        engine.run_round(RoundPlan::new(round, world, &ids)).progress.round_s
    }
}
