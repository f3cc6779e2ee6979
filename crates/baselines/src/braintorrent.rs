use comdml_core::{EngineRound, RoundEngine, RoundPlan};
use comdml_simnet::{AgentId, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::barrier_s;
use crate::BaselineConfig;

/// BrainTorrent \[10\]: a peer-to-peer framework where agents take turns
/// acting as the aggregation server.
///
/// Per round a randomly selected participant pulls every other participant's
/// model over its own link (`(P−1)·b` bytes in, then `(P−1)·b` bytes out) —
/// cheaper than a real server but still serialized through one peer's
/// connection, unlike AllReduce's balanced schedule.
#[derive(Debug)]
pub struct BrainTorrent {
    cfg: BaselineConfig,
    rng: StdRng,
}

impl BrainTorrent {
    /// Creates the engine; the rotating aggregator is drawn from `seed`.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, rng: StdRng::seed_from_u64(0x000b_7a10) }
    }

    /// Overrides the aggregator-selection seed (for reproducible runs).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// Barrier time of one round over `participants`, drawing its
    /// aggregator.
    fn price(&mut self, world: &World, participants: &[AgentId]) -> f64 {
        let times = self.cfg.per_agent_times(world, participants);
        if participants.len() < 2 {
            return barrier_s(&times, 0.0);
        }
        let aggregator = participants[self.rng.gen_range(0..participants.len())];
        let agg_link = world.agent(aggregator).profile.link_mbps;
        let b = self.cfg.model.model_bytes() as u64;
        let bytes = 2 * (participants.len() as u64 - 1) * b;
        barrier_s(&times, self.cfg.calibration.transfer_time_s(bytes, agg_link))
    }
}

impl RoundEngine for BrainTorrent {
    fn name(&self) -> &'static str {
        "BrainTorrent"
    }

    /// The rotating aggregator serializes communication but still
    /// averages every participant's fresh update — only the round *time*
    /// varies with the drawn aggregator, never the learning efficiency.
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
    fn aggregation_scales_with_participants() {
        let world_small = WorldConfig::heterogeneous(4, 1).build();
        let world_big = WorldConfig::heterogeneous(32, 1).build();
        let mk = || BrainTorrent::new(BaselineConfig::default()).with_seed(1);
        // Compare aggregation-only by subtracting the straggler compute.
        let mut small_engine = mk();
        let w = &world_small;
        let ids: Vec<_> = w.agents().iter().map(|a| a.id).collect();
        let agg_small =
            round_s(&mut small_engine, w, 0) - small_engine.cfg.straggler_compute_s(w, &ids);
        let mut big_engine = mk();
        let w = &world_big;
        let ids: Vec<_> = w.agents().iter().map(|a| a.id).collect();
        let agg_big = round_s(&mut big_engine, w, 0) - big_engine.cfg.straggler_compute_s(w, &ids);
        assert!(agg_big > agg_small, "{agg_big} vs {agg_small}");
    }

    #[test]
    fn progress_varies_in_time_but_not_in_efficiency() {
        let mut engine = BrainTorrent::new(BaselineConfig::default()).with_seed(7);
        let world = WorldConfig::heterogeneous(12, 5).build();
        let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
        let times: Vec<f64> = (0..8)
            .map(|r| engine.run_round(RoundPlan::new(r, &world, &ids)).progress)
            .fold(Vec::new(), |mut acc, p| {
                assert_eq!((p.efficiency, p.cohort), (1.0, 12));
                acc.push(p.round_s);
                acc
            });
        assert!(
            times.iter().any(|&t| (t - times[0]).abs() > 1e-9),
            "the rotating aggregator should vary round times"
        );
    }

    #[test]
    fn single_agent_has_no_aggregation() {
        let mut engine = BrainTorrent::new(BaselineConfig::default());
        let world = WorldConfig::heterogeneous(1, 1).build();
        let t = round_s(&mut engine, &world, 0);
        let solo = engine.cfg.solo_time_s(&world.agents()[0]);
        assert!((t - solo).abs() < 1e-9);
    }
}
