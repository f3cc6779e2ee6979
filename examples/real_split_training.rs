//! Real local-loss split training end to end: four agents, two of them
//! offloading three layers, training a real CNN with real gradients on the
//! miniature synthetic dataset, aggregating with a real AllReduce.
//!
//! ```sh
//! cargo run --example real_split_training
//! ```

use comdml::nn::{RealFleetConfig, RealSplitFleet};

fn main() {
    let mut fleet = RealSplitFleet::new(RealFleetConfig {
        num_agents: 4,
        offload: 3,
        iid: true,
        ..RealFleetConfig::default()
    });
    println!("training {} agents (odd ranks offload 3 layers)…\n", fleet.num_agents());
    let report = fleet.run(10);

    println!("round | slow-side loss | fast-side loss | global accuracy");
    for (r, acc) in report.round_accuracies.iter().enumerate() {
        println!(
            "{:>5} | {:>14.4} | {:>14.4} | {:>14.1}%",
            r + 1,
            report.slow_losses[r],
            report.fast_losses[r],
            acc * 100.0
        );
    }
    println!(
        "\nboth sides converge (Theorem 1) and the aggregated global model \
         reaches {:.1}% accuracy",
        report.final_accuracy() * 100.0
    );
}
