//! Validates Algorithm 1's core assumption: the `AgentTrainingTime`
//! estimate (line 18's closed form) must predict the *simulated* pair
//! round time well enough to rank pairing options correctly.
//!
//! Reports the relative error of the estimate against the per-batch
//! pipeline simulation across the full profile grid, plus how often the
//! estimator picks the truly best split.

use comdml_collective::AllReduceAlgorithm;
use comdml_core::{EventRound, Pairing, TrainingTimeEstimator};
use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml_simnet::{
    Adjacency, AgentId, AgentProfile, AgentState, World, CPU_PROFILES, LINK_PROFILES_MBPS,
};

fn main() {
    let spec = ModelSpec::resnet56();
    let profile = SplitProfile::new(&spec, 100);
    let cal = CostCalibration::default();
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);

    let mut errors = Vec::new();
    let mut rank_hits = 0usize;
    let mut rank_total = 0usize;

    println!("estimator vs pipeline simulation (ResNet-56, 5k samples each)\n");
    println!(
        "{:>10} {:>10} {:>8} {:>6} {:>12} {:>12} {:>8}",
        "slow cpus", "fast cpus", "link", "m*", "estimate", "simulated", "err"
    );

    for &slow_cpus in &CPU_PROFILES[2..] {
        for &fast_cpus in &CPU_PROFILES[..2] {
            for &link in &LINK_PROFILES_MBPS {
                let agents = vec![
                    AgentState::new(AgentId(0), AgentProfile::new(slow_cpus, link), 5_000, 100),
                    AgentState::new(AgentId(1), AgentProfile::new(fast_cpus, link), 5_000, 100),
                ];
                let adj = Adjacency::from_matrix(vec![vec![false, true], vec![true, false]]);
                let world = World::from_parts(agents, adj, 0);
                let slow = world.agent(AgentId(0));
                let fast = world.agent(AgentId(1));
                let d = est.estimate(slow, fast, est.solo_time_s(fast), link);
                if d.offload == 0 {
                    continue;
                }

                let simulate = |m: usize| {
                    let pairings = vec![Pairing {
                        slow: AgentId(0),
                        fast: Some(AgentId(1)),
                        offload: m,
                        est_time_s: 0.0,
                    }];
                    EventRound::new(
                        &world,
                        &pairings,
                        &est,
                        &cal,
                        AllReduceAlgorithm::HalvingDoubling,
                    )
                    .run()
                    .outcome
                    .compute_s
                };
                let simulated = simulate(d.offload);
                let err = (d.est_time_s - simulated).abs() / simulated;
                errors.push(err);

                // How close is the estimator's pick to the true optimum
                // over every split, as the pipeline simulation sees it?
                let best_sim = (1..56).map(simulate).fold(f64::INFINITY, f64::min);
                rank_total += 1;
                if simulated <= best_sim * 1.25 {
                    rank_hits += 1;
                }

                println!(
                    "{:>10} {:>10} {:>8} {:>6} {:>11.1}s {:>11.1}s {:>7.1}%",
                    slow_cpus,
                    fast_cpus,
                    link,
                    d.offload,
                    d.est_time_s,
                    simulated,
                    err * 100.0
                );
            }
        }
    }

    let mean_err = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    println!(
        "\nmean |estimate - simulated| / simulated = {:.1}%  ({} configurations)",
        mean_err * 100.0,
        errors.len()
    );
    println!(
        "estimator's split within 25% of the true (pipeline) optimum in {rank_hits}/{rank_total} cases"
    );
    println!(
        "\n(The estimate is *conservative*: line 18 serializes communication with \
         the fast side's compute, while the pipeline overlaps them — safe for \
         scheduling, pessimistic in absolute terms.)"
    );
}
