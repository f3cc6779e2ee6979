//! Quickstart: build a heterogeneous world, run ComDML to a target
//! accuracy, and inspect what the scheduler decided.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use comdml::core::{
    ComDmlConfig, FleetSim, LearningCurve, LearningModel, PairingScheduler, TrainingTimeEstimator,
};
use comdml::cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml::simnet::FleetConfig;

fn main() {
    // Ten agents with the paper's CPU/link profile mix, sharing CIFAR-10.
    let fleet = FleetConfig::new(10, 42).samples_per_agent(5_000);
    let mut sim = FleetSim::new(fleet, ComDmlConfig::default());
    let world = sim.fleet().world().clone();
    println!("world: {:?}\n", world.summary());

    // What does one round's pairing look like?
    let spec = ModelSpec::resnet56();
    let profile = SplitProfile::new(&spec, 100);
    let cal = CostCalibration::default();
    let estimator = TrainingTimeEstimator::new(&spec, &profile, &cal);
    let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
    let pairings = PairingScheduler::new().pair(&world, &ids, &estimator);
    println!("round-0 pairing decisions (slowest agents pick first):");
    for p in &pairings {
        let a = world.agent(p.slow);
        match p.fast {
            Some(fast) => println!(
                "  {} ({:>4} cpus) -> offloads {:>2} layers to {} (est {:>6.1}s, solo {:>6.1}s)",
                p.slow,
                a.profile.cpus,
                p.offload,
                fast,
                p.est_time_s,
                estimator.solo_time_s(a),
            ),
            None => println!(
                "  {} ({:>4} cpus) trains alone ({:>6.1}s)",
                p.slow, a.profile.cpus, p.est_time_s
            ),
        }
    }

    // Run the whole training to 80% accuracy, round by round.
    let mut model = LearningModel::new(LearningCurve::cifar10(true), 0.80);
    let mut offloads = 0;
    while !model.reached() {
        model.observe(&(&sim.step()).into());
        offloads += sim.engine().last_report().expect("round just ran").outcome.num_offloads;
    }
    let report = sim.report();
    println!(
        "\nComDML reached 80% in {} rounds, {:.0} simulated seconds \
         ({:.1}s/round, {:.1} offloading pairs/round)",
        report.rounds,
        report.total_sim_s,
        report.total_sim_s / report.rounds as f64,
        offloads as f64 / report.rounds as f64
    );
}
