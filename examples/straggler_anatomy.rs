//! Fig. 1's anatomy: how workload balancing turns one agent's idle time
//! into useful work on the straggler's task.
//!
//! ```sh
//! cargo run --example straggler_anatomy
//! ```

use comdml::collective::AllReduceAlgorithm;
use comdml::core::{EventRound, Pairing, TrainingTimeEstimator};
use comdml::cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml::simnet::{Adjacency, AgentId, AgentProfile, AgentState, World};

fn print_outcome(title: &str, outcome: &comdml::core::RoundOutcome, world: &World) {
    println!("{title}");
    for s in &outcome.agent_stats {
        let cpus = world.agent(s.id).profile.cpus;
        println!(
            "  {} ({:>4} cpus): train {:>7.1}s  comm {:>6.1}s  idle {:>7.1}s",
            s.id, cpus, s.train_s, s.comm_s, s.idle_s
        );
    }
    println!(
        "  round time {:.1}s (compute {:.1}s + allreduce {:.1}s)\n",
        outcome.round_s(),
        outcome.compute_s,
        outcome.allreduce_s
    );
}

fn main() {
    // Agent 1 is 8x slower than agent 2 (Fig. 1's setup).
    let agents = vec![
        AgentState::new(AgentId(0), AgentProfile::new(0.25, 50.0), 25_000, 100),
        AgentState::new(AgentId(1), AgentProfile::new(2.0, 50.0), 25_000, 100),
    ];
    let adj = Adjacency::from_matrix(vec![vec![false, true], vec![true, false]]);
    let world = World::from_parts(agents, adj, 0);

    let spec = ModelSpec::resnet56();
    let profile = SplitProfile::new(&spec, 100);
    let cal = CostCalibration::default();
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);

    // Without balancing: both train the full model alone.
    let solo = vec![
        Pairing { slow: AgentId(0), fast: None, offload: 0, est_time_s: 0.0 },
        Pairing { slow: AgentId(1), fast: None, offload: 0, est_time_s: 0.0 },
    ];
    let before = EventRound::new(&world, &solo, &est, &cal, AllReduceAlgorithm::HalvingDoubling)
        .run()
        .outcome;
    print_outcome("WITHOUT workload balancing:", &before, &world);

    // With balancing: the scheduler picks the split.
    let ids = [AgentId(0), AgentId(1)];
    let pairings = comdml::core::PairingScheduler::new().pair(&world, &ids, &est);
    let offload = pairings.iter().find_map(|p| p.fast.map(|_| p.offload)).unwrap_or(0);
    let after = EventRound::new(&world, &pairings, &est, &cal, AllReduceAlgorithm::HalvingDoubling)
        .run()
        .outcome;
    print_outcome(
        &format!("WITH workload balancing (offloading {offload} layers):"),
        &after,
        &world,
    );

    println!("training-time reduction: {:.0}%", (1.0 - after.round_s() / before.round_s()) * 100.0);

    println!("\ntimeline without balancing:");
    print!("{}", before.render_timeline(60));
    println!("\ntimeline with balancing:");
    print!("{}", after.render_timeline(60));
}
