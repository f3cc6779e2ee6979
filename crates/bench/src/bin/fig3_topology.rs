//! Regenerates **Fig. 3**: total training time under a random topology with
//! only 20% link connectivity, 50 agents, on the three I.I.D. datasets.
//!
//! Printed as a text bar chart (one bar per method per dataset).

use comdml_baselines::BaselineConfig;
use comdml_bench::{all_methods, fmt_s, world_for_dataset};
use comdml_core::{ComDmlConfig, LearningCurve, RoundPlan};
use comdml_data::DatasetSpec;
use comdml_simnet::{AgentId, Topology};

fn main() {
    let k = 50;
    let cells = [
        (DatasetSpec::cifar10(), 0.90),
        (DatasetSpec::cifar100(), 0.65),
        (DatasetSpec::cinic10(), 0.75),
    ];

    println!("Fig. 3 — training time (s) under 20% link connectivity, 50 agents, IID\n");
    for (spec, target) in cells {
        let world = world_for_dataset(&spec, true, k, 42, Topology::random(0.2));
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let curve = LearningCurve::for_dataset(&spec.name, true);
        println!("{} (target {:.0}%):", spec.name, target * 100.0);
        let mut engines = all_methods(
            BaselineConfig::default(),
            ComDmlConfig { curve, ..ComDmlConfig::default() },
        );
        // Gossip mixes through the sparse graph's conductance.
        let density = world.adjacency().density();
        engines[1] = Box::new(
            comdml_baselines::GossipLearning::new(BaselineConfig::default())
                .with_topology_density(density),
        );
        let mut results = Vec::new();
        for mut engine in engines {
            // Every agent trains every round; the curve sets the round
            // count at the method's mixing efficiency.
            let rounds = curve.rounds_to(target, engine.rounds_factor());
            let total: f64 = (0..rounds)
                .map(|r| engine.run_round(RoundPlan::new(r, &world, &ids)).progress.round_s)
                .sum();
            results.push((engine.name().to_string(), total));
        }
        let max = results.iter().map(|(_, v)| *v).fold(0.0, f64::max);
        for (name, v) in &results {
            let bar_len = ((v / max) * 48.0).round() as usize;
            println!("  {:<16} {:>10}  {}", name, fmt_s(*v), "#".repeat(bar_len.max(1)));
        }
        println!();
    }
}
