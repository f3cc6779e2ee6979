//! Ablation study of ComDML's design choices (simulated time):
//!
//! 1. **Dynamic vs static pairing** — re-pair every round vs freeze the
//!    round-0 pairing, under profile churn (§IV-A motivates dynamic).
//! 2. **Slowest-first vs arbitrary pairing order** — Algorithm 1's priority
//!    rule vs visiting agents by id.
//! 3. **Split-point search breadth** — all `L` candidate splits vs the
//!    Table I grid vs a single fixed split.
//! 4. **AllReduce algorithm** — halving/doubling vs ring (§IV-B's choice).
//! 5. **Quantized aggregation** — int8 model payloads (§IV-B's extension).

use comdml_collective::{AllReduceAlgorithm, CollectiveCost};
use comdml_core::{
    ChurnPolicy, ComDmlConfig, EventRound, FleetSim, LearningCurve, PairingOrder, PairingScheduler,
    TrainingTimeEstimator,
};
use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml_exp::fmt_s;
use comdml_simnet::{AgentId, FleetConfig, WorldConfig};

fn main() {
    let spec = ModelSpec::resnet56();
    let cal = CostCalibration::default();
    let profile = SplitProfile::new(&spec, 100);
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
    let curve = LearningCurve::cifar10(true);
    let rounds = curve.rounds_to(0.90, 1.0);

    println!("ComDML ablation study (10 agents, ResNet-56, {rounds} rounds)\n");

    // 1. Dynamic vs static pairing under churn.
    {
        // The fleet harness applies the churn between rounds and re-pairs
        // on the churned profiles.
        let fleet = FleetConfig::new(10, 42).samples_per_agent(5_000);
        let churn = Some(ChurnPolicy { interval: 5, fraction: 0.3 });
        let mut dynamic = FleetSim::new(fleet, ComDmlConfig { churn, ..ComDmlConfig::default() });
        let dynamic_total = dynamic.run(rounds).total_sim_s;

        // Static: freeze the round-0 pairing on the same world and keep
        // simulating it while profiles churn underneath.
        let mut w = WorldConfig::heterogeneous(10, 42).total_samples(50_000).build();
        let ids: Vec<AgentId> = w.agents().iter().map(|a| a.id).collect();
        let frozen = PairingScheduler::new().pair(&w, &ids, &est);
        let mut static_total = 0.0;
        for r in 0..rounds {
            if r > 0 && r % 5 == 0 {
                w.churn_profiles(0.3);
            }
            static_total +=
                EventRound::new(&w, &frozen, &est, &cal, AllReduceAlgorithm::HalvingDoubling)
                    .run()
                    .outcome
                    .round_s();
        }
        println!(
            "1. pairing under churn:   dynamic {:>8}s   static {:>8}s   ({:+.0}% for dynamic)",
            fmt_s(dynamic_total),
            fmt_s(static_total),
            (1.0 - dynamic_total / static_total) * 100.0
        );
    }

    // 2. Slowest-first vs id-order pairing.
    {
        let world = WorldConfig::heterogeneous(10, 7).total_samples(50_000).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let sched = PairingScheduler::new();
        let run = |order| {
            let pairings = sched.pair_with_order(&world, &ids, &est, order);
            EventRound::new(&world, &pairings, &est, &cal, AllReduceAlgorithm::HalvingDoubling)
                .run()
                .outcome
                .round_s()
        };
        let slowest = run(PairingOrder::SlowestFirst);
        let by_id = run(PairingOrder::ByAgentId);
        println!(
            "2. pairing order:         slowest-first {:>6.1}s/round   by-id {:>6.1}s/round",
            slowest, by_id
        );
    }

    // 3. Split-candidate breadth.
    {
        for (name, candidates) in [
            ("all 56 splits", None),
            ("table-I grid (7)", Some(vec![1usize, 10, 19, 28, 37, 46, 55])),
            ("single split (28)", Some(vec![28usize])),
        ] {
            let config = ComDmlConfig {
                candidate_offloads: candidates,
                churn: None,
                ..ComDmlConfig::default()
            };
            let fleet = FleetConfig::new(10, 11).samples_per_agent(5_000);
            let total = FleetSim::new(fleet, config).run(rounds).total_sim_s;
            println!(
                "3. candidates {:<18} mean round {:>6.1}s  total {:>8}s",
                name,
                total / rounds as f64,
                fmt_s(total)
            );
        }
    }

    // 4. AllReduce algorithm at scale.
    {
        let b = spec.model_bytes() as u64;
        for k in [10usize, 100] {
            let hd = CollectiveCost::new(AllReduceAlgorithm::HalvingDoubling, k, b)
                .time_s(cal.bytes_per_s(10.0), cal.link_latency_s);
            let ring = CollectiveCost::new(AllReduceAlgorithm::Ring, k, b)
                .time_s(cal.bytes_per_s(10.0), cal.link_latency_s);
            println!("4. allreduce k={k:<4}       halving/doubling {hd:>6.2}s   ring {ring:>6.2}s");
        }
    }

    // 5. Quantized aggregation payload.
    {
        let b = spec.model_bytes() as u64;
        let full = CollectiveCost::new(AllReduceAlgorithm::HalvingDoubling, 10, b)
            .time_s(cal.bytes_per_s(10.0), cal.link_latency_s);
        let quant = CollectiveCost::new(AllReduceAlgorithm::HalvingDoubling, 10, b / 4)
            .time_s(cal.bytes_per_s(10.0), cal.link_latency_s);
        println!(
            "5. int8 aggregation:      fp32 {full:>6.2}s   int8 {quant:>6.2}s per round \
             (worst-case error {:.5})",
            comdml_collective::Int8Quantizer::fit(&[1.0, -1.0]).max_error()
        );
    }
}
