//! Quantifies §III-B's design choice: classic split learning synchronizes
//! on *every batch* (activation up, gradient back), while local-loss split
//! training streams activations one way and never waits.
//!
//! Compares per-round time and communication volume for a 2-agent pair
//! across the paper's link grid.

use comdml_baselines::{BaselineConfig, ClassicSplitLearning};
use comdml_collective::AllReduceAlgorithm;
use comdml_core::{EventRound, Pairing, RoundEngine, RoundPlan, TrainingTimeEstimator};
use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml_exp::fmt_s;
use comdml_simnet::{Adjacency, AgentId, AgentProfile, AgentState, World};

fn main() {
    let spec = ModelSpec::resnet56();
    let profile = SplitProfile::new(&spec, 100);
    let cal = CostCalibration::default();
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
    let agent_layers = 19usize; // both schemes keep 19 layers on the agent
    let offload = spec.num_weighted_layers() - agent_layers;

    println!(
        "classic split learning vs local-loss split training\n\
         (ResNet-56, batch 100, agent keeps {agent_layers} layers; per-round times)\n"
    );
    println!(
        "{:>8}  {:>16}  {:>16}  {:>10}  {:>14}",
        "link", "classic SL (s)", "local-loss (s)", "speedup", "SL bytes/round"
    );

    for link in [10.0f64, 20.0, 50.0, 100.0] {
        let agents = vec![
            AgentState::new(AgentId(0), AgentProfile::new(0.5, link), 5_000, 100),
            AgentState::new(AgentId(1), AgentProfile::new(4.0, link), 5_000, 100),
        ];
        let adj = Adjacency::from_matrix(vec![vec![false, true], vec![true, false]]);
        let world = World::from_parts(agents, adj, 0);

        // Classic SL: the fast agent plays "server" for the slow one.
        let mut sl = ClassicSplitLearning::new(BaselineConfig::default(), agent_layers, 4.0);
        let t_sl =
            sl.run_round(RoundPlan::new(0, &world, &[AgentId(0), AgentId(1)])).progress.round_s;
        let sl_bytes = sl.bytes_per_batch() * world.agent(AgentId(0)).num_batches() as u64;

        // Local-loss: the ComDML pipeline with the same split.
        let pairings =
            vec![Pairing { slow: AgentId(0), fast: Some(AgentId(1)), offload, est_time_s: 0.0 }];
        let outcome =
            EventRound::new(&world, &pairings, &est, &cal, AllReduceAlgorithm::HalvingDoubling)
                .run()
                .outcome;
        let t_ll = outcome.compute_s;

        println!(
            "{:>5} Mbps  {:>16}  {:>16}  {:>9.1}x  {:>14}",
            link,
            fmt_s(t_sl),
            fmt_s(t_ll),
            t_sl / t_ll,
            fmt_s(sl_bytes as f64)
        );
    }
    println!(
        "\nlocal-loss training halves the traffic (no gradient backhaul) and \
         hides it behind compute — exactly the overhead §III-B eliminates"
    );
}
