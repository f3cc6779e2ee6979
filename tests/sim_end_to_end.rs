//! End-to-end simulation tests spanning core, baselines, simnet and cost:
//! the paper's headline claims must hold as *invariants* of the system.

use comdml::baselines::{AllReduceDml, BaselineConfig, BrainTorrent, FedAvg, GossipLearning};
use comdml::core::{
    ChurnPolicy, ComDml, ComDmlConfig, FleetSim, LearningCurve, LearningModel, RoundEngine,
    RoundPlan,
};
use comdml::simnet::{AgentId, FleetConfig, Topology, World, WorldConfig};

fn no_churn_base() -> BaselineConfig {
    BaselineConfig::default()
}

fn no_churn_comdml() -> ComDmlConfig {
    ComDmlConfig { churn: None, ..ComDmlConfig::default() }
}

/// Time to `target` on the static `world`: the curve's round count at the
/// engine's rounds factor, every round priced over every agent.
struct TimeToTarget {
    rounds: usize,
    total_time_s: f64,
    mean_round_s: f64,
}

fn time_to_target(
    engine: &mut dyn RoundEngine,
    world: &World,
    curve: &LearningCurve,
    target: f64,
) -> TimeToTarget {
    let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
    let rounds = curve.rounds_to(target, engine.rounds_factor());
    let total_time_s: f64 = (0..rounds)
        .map(|r| engine.run_round(RoundPlan::new(r, world, &ids)).progress.round_s)
        .sum();
    TimeToTarget { rounds, total_time_s, mean_round_s: total_time_s / rounds as f64 }
}

#[test]
fn comdml_beats_every_synchronous_baseline_on_heterogeneous_worlds() {
    let curve = LearningCurve::cifar10(true);
    for seed in [1u64, 7, 42] {
        let world = WorldConfig::heterogeneous(10, seed).total_samples(50_000).build();
        let mut comdml = ComDml::new(no_churn_comdml());
        let t_comdml = time_to_target(&mut comdml, &world, &curve, 0.85);

        let baselines: Vec<Box<dyn RoundEngine>> = vec![
            Box::new(FedAvg::new(no_churn_base())),
            Box::new(AllReduceDml::new(no_churn_base())),
            Box::new(BrainTorrent::new(no_churn_base())),
        ];
        for mut b in baselines {
            let t = time_to_target(b.as_mut(), &world, &curve, 0.85);
            assert!(
                t_comdml.total_time_s < t.total_time_s,
                "seed {seed}: ComDML ({:.0}s) should beat {} ({:.0}s)",
                t_comdml.total_time_s,
                b.name(),
                t.total_time_s
            );
        }
    }
}

#[test]
fn comdml_beats_gossip_on_average() {
    // Gossip's barrier-free rounds can approach ComDML on unlucky link
    // assignments; across seeds ComDML must win clearly.
    let curve = LearningCurve::cifar10(true);
    let (mut total_comdml, mut total_gossip) = (0.0, 0.0);
    for seed in [1u64, 7, 42, 99, 123] {
        let world = WorldConfig::heterogeneous(10, seed).total_samples(50_000).build();
        let mut comdml = ComDml::new(no_churn_comdml());
        let mut gossip = GossipLearning::new(no_churn_base());
        total_comdml += time_to_target(&mut comdml, &world, &curve, 0.85).total_time_s;
        total_gossip += time_to_target(&mut gossip, &world, &curve, 0.85).total_time_s;
    }
    assert!(
        total_comdml < 0.9 * total_gossip,
        "ComDML ({total_comdml:.0}s) should beat gossip ({total_gossip:.0}s) by >10% on average"
    );
}

#[test]
fn comdml_reduction_vs_fedavg_is_large() {
    // Paper Table II: ~70% on IID CIFAR-10. Our reproduction lands between
    // ~35% (straggler stuck on a 10 Mbps link, where communication — not the
    // scheduler — binds) and ~55% (decent links). Require a >30% mean, which
    // no baseline achieves.
    let curve = LearningCurve::cifar10(true);
    let mut reductions = Vec::new();
    for seed in [1u64, 7, 42, 99] {
        let world = WorldConfig::heterogeneous(10, seed).total_samples(50_000).build();
        let mut comdml = ComDml::new(no_churn_comdml());
        let mut fedavg = FedAvg::new(no_churn_base());
        let a = time_to_target(&mut comdml, &world, &curve, 0.90).total_time_s;
        let b = time_to_target(&mut fedavg, &world, &curve, 0.90).total_time_s;
        reductions.push(1.0 - a / b);
    }
    let mean = reductions.iter().sum::<f64>() / reductions.len() as f64;
    assert!(mean > 0.30, "mean reduction {mean:.2} should exceed 30%: {reductions:?}");
}

#[test]
fn homogeneous_world_gains_little_from_balancing() {
    // When every agent is identical there are no stragglers to fix.
    let mut world = WorldConfig::heterogeneous(10, 3).build();
    for a in world.agents_mut().iter_mut() {
        a.profile = comdml::simnet::AgentProfile::new(1.0, 50.0);
        a.num_samples = 5_000;
    }
    let curve = LearningCurve::cifar10(true);
    let mut comdml = ComDml::new(no_churn_comdml());
    let mut allreduce = AllReduceDml::new(no_churn_base());
    let a = time_to_target(&mut comdml, &world, &curve, 0.85).total_time_s;
    let b = time_to_target(&mut allreduce, &world, &curve, 0.85).total_time_s;
    assert!(
        (a - b).abs() / b < 0.05,
        "homogeneous fleets should tie: ComDML {a:.0}s vs AllReduce {b:.0}s"
    );
}

#[test]
fn churn_does_not_break_comdml() {
    let config = ComDmlConfig {
        churn: Some(ChurnPolicy { interval: 3, fraction: 0.5 }),
        ..ComDmlConfig::default()
    };
    let mut model = LearningModel::new(LearningCurve::cifar10(true), 0.85);
    let mut sim = FleetSim::new(FleetConfig::new(20, 11).samples_per_agent(5_000), config);
    let mut offloads = 0;
    while !model.reached() {
        model.observe(&(&sim.step()).into());
        offloads += sim.engine().last_report().expect("round just ran").outcome.num_offloads;
    }
    let total = sim.report().total_sim_s;
    assert!(total.is_finite() && total > 0.0);
    assert!(offloads > 0, "scheduler keeps pairing through churn");
}

#[test]
fn sparse_topologies_degrade_gracefully() {
    let curve = LearningCurve::cifar10(true);
    let mut last = 0.0;
    for p in [1.0, 0.2, 0.02] {
        let world = WorldConfig::heterogeneous(30, 5)
            .total_samples(150_000)
            .topology(Topology::random(p))
            .build();
        let mut comdml = ComDml::new(no_churn_comdml());
        let t = time_to_target(&mut comdml, &world, &curve, 0.85).total_time_s;
        assert!(t.is_finite() && t > 0.0, "p={p} must still train");
        assert!(
            t >= last * 0.95,
            "sparser graphs should not get meaningfully faster: p={p}, {t:.0} vs {last:.0}"
        );
        last = t;
    }
}

#[test]
fn disconnected_world_trains_independently() {
    // p = 0: no links at all. Everybody trains alone; no offloads, no
    // aggregation — and nothing hangs or divides by zero.
    let world = WorldConfig::heterogeneous(8, 9).topology(Topology::random(0.0)).build();
    let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
    let mut comdml = ComDml::new(no_churn_comdml());
    let round = comdml.run_round(RoundPlan::new(0, &world, &ids));
    assert_eq!(comdml.last_report().expect("round just ran").outcome.num_offloads, 0);
    assert!(round.progress.round_s.is_finite());
}

#[test]
fn resnet110_takes_longer_than_resnet56() {
    let world = WorldConfig::heterogeneous(10, 13).build();
    let curve56 = LearningCurve::cifar10(true);
    let curve110 = curve56.deeper();
    let mut c56 = ComDml::new(no_churn_comdml());
    let mut c110 = ComDml::new(ComDmlConfig {
        model: comdml::cost::ModelSpec::resnet110(),
        churn: None,
        ..ComDmlConfig::default()
    });
    let t56 = time_to_target(&mut c56, &world, &curve56, 0.80).total_time_s;
    let t110 = time_to_target(&mut c110, &world, &curve110, 0.80).total_time_s;
    assert!(t110 > 1.5 * t56, "the deeper model should cost clearly more: {t110:.0} vs {t56:.0}");
}

#[test]
fn gossip_trades_cheap_rounds_for_more_rounds() {
    let world = WorldConfig::heterogeneous(10, 17).build();
    let curve = LearningCurve::cifar10(true);
    let mut gossip = GossipLearning::new(no_churn_base());
    let mut fedavg = FedAvg::new(no_churn_base());
    let g = time_to_target(&mut gossip, &world, &curve, 0.85);
    let f = time_to_target(&mut fedavg, &world, &curve, 0.85);
    assert!(g.rounds > f.rounds, "gossip needs more rounds");
    assert!(g.mean_round_s < f.mean_round_s, "gossip rounds are cheaper");
}
