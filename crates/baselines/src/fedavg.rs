use comdml_core::{EngineRound, RoundEngine, RoundPlan};
use comdml_simnet::{AgentId, World};

use crate::common::barrier_s;
use crate::BaselineConfig;

/// FedAvg \[1\]: server-coordinated federated averaging.
///
/// Per round: every participant downloads the global model, trains one full
/// local epoch, and uploads its update. The round is gated by the slowest
/// participant's compute, the slowest participant's link (2·b bytes each
/// way), and the server's aggregate bandwidth (2·P·b bytes through one
/// pipe) — the central-server bottleneck §I and §V-B.2 describe.
#[derive(Debug, Clone)]
pub struct FedAvg {
    cfg: BaselineConfig,
}

impl FedAvg {
    /// Creates the engine.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg }
    }

    /// Barrier time of one round over `participants`.
    fn price(&self, world: &World, participants: &[AgentId]) -> f64 {
        if participants.is_empty() {
            return 0.0;
        }
        let times = self.cfg.per_agent_times(world, participants);
        let b = self.cfg.model.model_bytes() as u64;
        // Slowest client link carries the model down and back up.
        let min_link = self.cfg.min_link_mbps(world, participants);
        let client_comm = 2.0 * self.cfg.calibration.transfer_time_s(b, min_link);
        // The server moves 2·P·b bytes through its own pipe.
        let server_bytes = 2 * participants.len() as u64 * b;
        let server_comm = self.cfg.calibration.transfer_time_s(server_bytes, self.cfg.server_mbps);
        barrier_s(&times, client_comm.max(server_comm))
    }
}

impl RoundEngine for FedAvg {
    fn name(&self) -> &'static str {
        "FedAvg"
    }

    /// The barrier waits for everyone, so every participant's update
    /// reaches the server fresh — a full-efficiency round over the whole
    /// cohort.
    fn run_round(&mut self, plan: RoundPlan<'_>) -> EngineRound {
        let round_s = self.price(plan.world, plan.participants);
        EngineRound::closed_form(round_s, self.rounds_factor(), plan.participants.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::round_s;
    use comdml_simnet::WorldConfig;

    #[test]
    fn round_time_exceeds_straggler_compute() {
        let mut engine = FedAvg::new(BaselineConfig::default());
        let world = WorldConfig::heterogeneous(10, 1).build();
        let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
        let compute = engine.cfg.straggler_compute_s(&world, &ids);
        let t = round_s(&mut engine, &world, 0);
        assert!(t > compute);
    }

    #[test]
    fn progress_pairs_barrier_time_with_full_efficiency() {
        let mut engine = FedAvg::new(BaselineConfig::default());
        let world = WorldConfig::heterogeneous(10, 3).build();
        let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
        let p = engine.run_round(RoundPlan::new(0, &world, &ids)).progress;
        assert_eq!(p.round_s, engine.price(&world, &ids));
        assert_eq!(p.efficiency, 1.0, "everyone aggregates fresh");
        assert_eq!(p.cohort, 10);
        let idle = engine.run_round(RoundPlan::new(0, &world, &[])).progress;
        assert_eq!(idle.efficiency, 0.0, "idle when empty");
    }

    #[test]
    fn slower_server_increases_round_time() {
        let mut fast_server =
            FedAvg::new(BaselineConfig { server_mbps: 10_000.0, ..Default::default() });
        let mut slow_server =
            FedAvg::new(BaselineConfig { server_mbps: 10.0, ..Default::default() });
        let world = WorldConfig::heterogeneous(10, 2).build();
        let t_fast = round_s(&mut fast_server, &world, 0);
        let t_slow = round_s(&mut slow_server, &world, 0);
        assert!(t_slow > t_fast, "{t_slow} vs {t_fast}");
    }
}
