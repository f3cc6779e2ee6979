//! ComDML across network topologies (§V-B.5): full mesh, ring, and random
//! graphs of decreasing connectivity. The scheduler adapts — agents without
//! useful links simply train independently.
//!
//! ```sh
//! cargo run --example topology_comparison
//! ```

use comdml::core::{ComDmlConfig, FleetSim, LearningCurve, LearningModel};
use comdml::simnet::{FleetConfig, Topology};

fn main() {
    let k = 50;
    println!("ComDML on 50 agents, IID CIFAR-10 to 80%, per topology:\n");
    println!(
        "{:<22} {:>10} {:>12} {:>18}",
        "topology", "time (s)", "s / round", "offloads / round"
    );
    for (name, topo) in [
        ("full mesh", Topology::Full),
        ("random p=0.5", Topology::random(0.5)),
        ("random p=0.2", Topology::random(0.2)),
        ("random p=0.05", Topology::random(0.05)),
        ("ring", Topology::Ring),
    ] {
        let fleet = FleetConfig::new(k, 42).samples_per_agent(5_000).topology(topo);
        let config = ComDmlConfig { churn: None, ..ComDmlConfig::default() };
        let mut model = LearningModel::new(LearningCurve::cifar10(true), 0.80);
        let mut sim = FleetSim::new(fleet, config);
        let mut offloads = 0;
        while !model.reached() {
            model.observe(&(&sim.step()).into());
            offloads += sim.engine().last_report().expect("round just ran").outcome.num_offloads;
        }
        let report = sim.report();
        let rounds = report.rounds as f64;
        println!(
            "{:<22} {:>10.0} {:>12.1} {:>18.1}",
            name,
            report.total_sim_s,
            report.total_sim_s / rounds,
            offloads as f64 / rounds
        );
    }
    println!(
        "\nSparser graphs leave fewer pairing options (fewer offloads per \
         round) and training degrades gracefully toward independent training."
    );
}
