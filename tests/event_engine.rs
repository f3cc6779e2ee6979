//! Integration tests of the discrete-event round engine: determinism,
//! exact equivalence of the default synchronous round with the legacy
//! closed-form simulation, failure-driven re-pairing, and the three aggregation modes
//! selectable from `ComDmlConfig`.

use std::collections::HashMap;

use comdml::collective::{AllReduceAlgorithm, CollectiveCost};
use comdml::core::{
    AggregationMode, ComDml, ComDmlConfig, Disruption, EventRound, PairRoundSim, Pairing,
    PairingScheduler, RoundEngine, RoundOutcome, RoundPlan, TrainingTimeEstimator,
};
use comdml::cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml::simnet::{Adjacency, AgentId, AgentProfile, AgentState, World, WorldConfig};

fn fixtures() -> (ModelSpec, SplitProfile, CostCalibration) {
    let spec = ModelSpec::resnet56();
    let profile = SplitProfile::new(&spec, 100);
    (spec, profile, CostCalibration::default())
}

/// Runs round `r` of `engine` over every agent of `world`, carrying
/// stragglers' unfinished work between rounds in `carry`, and returns the
/// round's outcome.
fn run_round(
    engine: &mut ComDml,
    world: &World,
    r: usize,
    carry: &mut HashMap<AgentId, f64>,
) -> RoundOutcome {
    let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
    let plan = RoundPlan { ready_at: std::mem::take(carry), ..RoundPlan::new(r, world, &ids) };
    *carry = engine.run_round(plan).carry;
    engine.last_report().expect("round just ran").outcome.clone()
}

/// Reference stats per agent: (id, train, comm, idle, finish).
type RefStats = Vec<(AgentId, f64, f64, f64, f64)>;

/// The pre-refactor closed-form round simulation, kept verbatim as the
/// reference the event engine must reproduce.
fn closed_form_round(
    world: &World,
    pairings: &[Pairing],
    estimator: &TrainingTimeEstimator<'_>,
    cal: &CostCalibration,
    algorithm: AllReduceAlgorithm,
) -> (RefStats, f64, f64) {
    let mut stats: RefStats = Vec::new();
    let mut compute_s = 0.0f64;
    for p in pairings {
        let slow = world.agent(p.slow);
        match p.fast {
            Some(fast_id) if p.offload > 0 => {
                let fast = world.agent(fast_id);
                let entry = estimator.profile().entry(p.offload).expect("profiled");
                let p_i = estimator.batches_per_s(slow);
                let p_j = estimator.batches_per_s(fast);
                let link = world.link_mbps(p.slow, fast_id);
                let sim = PairRoundSim {
                    n_slow_batches: slow.num_batches(),
                    n_fast_batches: fast.num_batches(),
                    slow_batch_s: entry.t_slow_rel / p_i,
                    fast_own_batch_s: 1.0 / p_j,
                    fast_guest_batch_s: entry.t_fast_rel / p_j,
                    transfer_s: cal.transfer_time_s(entry.nu_bytes_per_batch, link),
                    suffix_return_s: cal.transfer_time_s(entry.suffix_param_bytes, link),
                };
                let t = sim.run();
                compute_s = compute_s.max(t.pair_done_s);
                stats.push((p.slow, t.slow_busy_s, 0.0, 0.0, t.pair_done_s));
                stats.push((fast_id, t.fast_busy_s, t.comm_s, 0.0, t.pair_done_s));
            }
            _ => {
                let solo = estimator.solo_time_s(slow);
                compute_s = compute_s.max(solo);
                stats.push((p.slow, solo, 0.0, 0.0, solo));
            }
        }
    }
    for s in &mut stats {
        s.3 = (compute_s - s.1 - s.2).max(0.0);
    }
    let connected: Vec<AgentId> =
        stats.iter().map(|s| s.0).filter(|&id| world.agent(id).profile.is_connected()).collect();
    let allreduce_s = if connected.len() > 1 {
        let min_link = connected
            .iter()
            .map(|&id| world.agent(id).profile.link_mbps)
            .fold(f64::INFINITY, f64::min);
        CollectiveCost::new(algorithm, connected.len(), estimator.profile().model_bytes())
            .time_s(cal.bytes_per_s(min_link), cal.link_latency_s)
    } else {
        0.0
    };
    (stats, compute_s, allreduce_s)
}

#[test]
fn synchronous_wrapper_matches_closed_form_within_1e9() {
    let (spec, profile, cal) = fixtures();
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
    for seed in 0..12u64 {
        let world = WorldConfig::heterogeneous(14, seed).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let pairings = PairingScheduler::new().pair(&world, &ids, &est);
        let outcome =
            EventRound::new(&world, &pairings, &est, &cal, AllReduceAlgorithm::HalvingDoubling)
                .run()
                .outcome;
        let (ref_stats, ref_compute, ref_allreduce) =
            closed_form_round(&world, &pairings, &est, &cal, AllReduceAlgorithm::HalvingDoubling);

        assert!(
            (outcome.compute_s - ref_compute).abs() < 1e-9,
            "seed {seed}: compute {} vs {}",
            outcome.compute_s,
            ref_compute
        );
        assert!((outcome.allreduce_s - ref_allreduce).abs() < 1e-9, "seed {seed}");
        assert_eq!(outcome.agent_stats.len(), ref_stats.len(), "seed {seed}");
        for (got, want) in outcome.agent_stats.iter().zip(ref_stats.iter()) {
            assert_eq!(got.id, want.0, "seed {seed}: stat order");
            assert!((got.train_s - want.1).abs() < 1e-9, "seed {seed}: train {got:?}");
            assert!((got.comm_s - want.2).abs() < 1e-9, "seed {seed}: comm {got:?}");
            assert!((got.idle_s - want.3).abs() < 1e-9, "seed {seed}: idle {got:?}");
            assert!((got.finish_s - want.4).abs() < 1e-9, "seed {seed}: finish {got:?}");
        }
    }
}

#[test]
fn event_rounds_are_deterministic_under_identical_seeds() {
    // Event ordering is tie-broken by insertion order, so two identical
    // configurations must replay bit-for-bit — including under disruptions
    // and non-synchronous aggregation.
    let run = |mode| {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(16, 99).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let pairings = PairingScheduler::new().pair(&world, &ids, &est);
        let disruptions = vec![
            Disruption::Fail { agent: ids[3], at_s: 50.0 },
            Disruption::Join { agent: ids[5], at_s: 10.0 },
        ];
        EventRound::new(&world, &pairings, &est, &cal, AllReduceAlgorithm::Ring)
            .mode(mode)
            .disruptions(disruptions)
            .run()
    };
    for mode in [
        AggregationMode::Synchronous,
        AggregationMode::SemiSynchronous { quorum: 0.6, staleness_s: 1e6 },
        AggregationMode::Asynchronous,
    ] {
        let a = run(mode);
        let b = run(mode);
        assert_eq!(a, b, "identical runs must be identical under {mode:?}");
    }
}

/// A world with one 0.2-CPU straggler, one 4-CPU helper and three 2-CPU
/// bystanders (fast enough to finish early, eligible as replacements).
fn failure_world() -> World {
    let agents = vec![
        AgentState::new(AgentId(0), AgentProfile::new(0.2, 100.0), 5000, 100),
        AgentState::new(AgentId(1), AgentProfile::new(4.0, 100.0), 5000, 100),
        AgentState::new(AgentId(2), AgentProfile::new(2.0, 100.0), 2000, 100),
        AgentState::new(AgentId(3), AgentProfile::new(2.0, 100.0), 2000, 100),
        AgentState::new(AgentId(4), AgentProfile::new(2.0, 100.0), 2000, 100),
    ];
    let k = agents.len();
    let matrix: Vec<Vec<bool>> = (0..k).map(|i| (0..k).map(|j| i != j).collect()).collect();
    World::from_parts(agents, Adjacency::from_matrix(matrix), 7)
}

#[test]
fn helper_failure_triggers_repair_onto_idle_agent() {
    let (spec, profile, cal) = fixtures();
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
    let world = failure_world();
    let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
    let pairings = PairingScheduler::new().pair(&world, &ids, &est);
    let pair = pairings.iter().find(|p| p.fast.is_some()).expect("straggler pairs");
    assert_eq!(pair.slow, AgentId(0));
    let helper = pair.fast.unwrap();

    let healthy = EventRound::new(&world, &pairings, &est, &cal, AllReduceAlgorithm::Ring).run();
    // Kill the helper midway through the joint task.
    let fail_at = healthy.outcome.compute_s * 0.5;
    let report = EventRound::new(&world, &pairings, &est, &cal, AllReduceAlgorithm::Ring)
        .disruptions(vec![Disruption::Fail { agent: helper, at_s: fail_at }])
        .run();

    assert_eq!(report.repairs, 1, "an idle bystander must take over: {report:?}");
    assert_eq!(report.local_fallbacks, 0);
    // The drafted bystander appears in two pairings (its own and the one it
    // rescued) but must be reported exactly once.
    let mut ids: Vec<_> = report.outcome.agent_stats.iter().map(|s| s.id).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), report.outcome.agent_stats.len(), "duplicate agent stats");
    // The round still completes, later than the healthy run but far sooner
    // than the straggler training alone from scratch.
    assert!(report.outcome.compute_s >= healthy.outcome.compute_s - 1e-9);
    assert!(report.outcome.compute_s.is_finite());
    let solo = est.solo_time_s(world.agent(AgentId(0)));
    assert!(
        report.outcome.compute_s < solo,
        "re-paired round {} must still beat the solo straggler {solo}",
        report.outcome.compute_s
    );
}

#[test]
fn helper_failure_without_replacement_falls_back_to_local_training() {
    let (spec, profile, cal) = fixtures();
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
    // Only the straggler and its helper exist: nobody can take over.
    let agents = vec![
        AgentState::new(AgentId(0), AgentProfile::new(0.2, 100.0), 5000, 100),
        AgentState::new(AgentId(1), AgentProfile::new(4.0, 100.0), 5000, 100),
    ];
    let world = World::from_parts(
        agents,
        Adjacency::from_matrix(vec![vec![false, true], vec![true, false]]),
        3,
    );
    let pairings = PairingScheduler::new().pair(&world, &[AgentId(0), AgentId(1)], &est);
    assert!(pairings[0].fast.is_some());
    let healthy = EventRound::new(&world, &pairings, &est, &cal, AllReduceAlgorithm::Ring).run();
    let report = EventRound::new(&world, &pairings, &est, &cal, AllReduceAlgorithm::Ring)
        .disruptions(vec![Disruption::Fail {
            agent: AgentId(1),
            at_s: healthy.outcome.compute_s * 0.25,
        }])
        .run();
    assert_eq!(report.repairs, 0);
    assert_eq!(report.local_fallbacks, 1, "{report:?}");
    assert!(report.outcome.compute_s > healthy.outcome.compute_s);
}

#[test]
fn mid_round_joiner_can_host_a_repair() {
    let (spec, profile, cal) = fixtures();
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
    // Straggler + helper, plus a third agent that only joins mid-round.
    let agents = vec![
        AgentState::new(AgentId(0), AgentProfile::new(0.2, 100.0), 5000, 100),
        AgentState::new(AgentId(1), AgentProfile::new(4.0, 100.0), 5000, 100),
        AgentState::new(AgentId(2), AgentProfile::new(4.0, 100.0), 2000, 100),
    ];
    let k = agents.len();
    let matrix: Vec<Vec<bool>> = (0..k).map(|i| (0..k).map(|j| i != j).collect()).collect();
    let world = World::from_parts(agents, Adjacency::from_matrix(matrix), 5);
    // Only agents 0 and 1 participate this round; agent 2 is offline.
    let pairings = PairingScheduler::new().pair(&world, &[AgentId(0), AgentId(1)], &est);
    assert_eq!(pairings[0].fast, Some(AgentId(1)));
    let healthy = EventRound::new(&world, &pairings, &est, &cal, AllReduceAlgorithm::Ring).run();
    let fail_at = healthy.outcome.compute_s * 0.5;
    let report = EventRound::new(&world, &pairings, &est, &cal, AllReduceAlgorithm::Ring)
        .disruptions(vec![
            Disruption::Join { agent: AgentId(2), at_s: fail_at * 0.5 },
            Disruption::Fail { agent: AgentId(1), at_s: fail_at },
        ])
        .run();
    assert_eq!(report.repairs, 1, "the joiner must be drafted: {report:?}");
}

#[test]
fn synchronous_mode_from_config_matches_simulate_round() {
    let world = WorldConfig::heterogeneous(12, 21).build();
    let mut engine = ComDml::new(ComDmlConfig {
        churn: None,
        aggregation: AggregationMode::Synchronous,
        ..ComDmlConfig::default()
    });
    let outcome = run_round(&mut engine, &world, 0, &mut HashMap::new());
    let report = engine.last_report().expect("event report recorded");
    assert_eq!(report.outcome, outcome);
    assert!(report.spill_s.iter().all(|&s| s == 0.0), "a barrier leaves no spill");
    assert_eq!(report.repairs, 0);
}

#[test]
fn semi_synchronous_mode_from_config_skips_stragglers() {
    let world = WorldConfig::heterogeneous(20, 22).build();
    let mut sync_engine = ComDml::new(ComDmlConfig { churn: None, ..ComDmlConfig::default() });
    let sync_round = run_round(&mut sync_engine, &world, 0, &mut HashMap::new());

    let mut engine = ComDml::new(ComDmlConfig {
        churn: None,
        aggregation: AggregationMode::SemiSynchronous { quorum: 0.5, staleness_s: 1e9 },
        ..ComDmlConfig::default()
    });
    let mut carry = HashMap::new();
    let outcome = run_round(&mut engine, &world, 0, &mut carry);
    let report = engine.last_report().unwrap().clone();

    assert!(
        outcome.round_s() <= sync_round.round_s() + 1e-9,
        "a 50% quorum cannot be slower than the barrier: {} vs {}",
        outcome.round_s(),
        sync_round.round_s()
    );
    assert!(report.cohort.len() < 20, "someone must miss the quorum cohort: {:?}", report.cohort);
    assert!(
        report.spill_s.iter().any(|&s| s > 0.0),
        "stragglers must carry work into the next round"
    );
    // The carry-over is consumed by the next round.
    let second = run_round(&mut engine, &world, 1, &mut carry);
    assert!(second.round_s().is_finite() && second.round_s() > 0.0);
}

#[test]
fn asynchronous_mode_from_config_advances_at_mean_pace() {
    let world = WorldConfig::heterogeneous(20, 23).build();
    let mut sync_engine = ComDml::new(ComDmlConfig { churn: None, ..ComDmlConfig::default() });
    let sync_round = run_round(&mut sync_engine, &world, 0, &mut HashMap::new());

    let mut engine = ComDml::new(ComDmlConfig {
        churn: None,
        aggregation: AggregationMode::Asynchronous,
        ..ComDmlConfig::default()
    });
    let outcome = run_round(&mut engine, &world, 0, &mut HashMap::new());
    let report = engine.last_report().unwrap();
    assert!(
        outcome.compute_s < sync_round.compute_s,
        "mean completion {} must undercut the barrier {}",
        outcome.compute_s,
        sync_round.compute_s
    );
    assert!(report.spill_s.iter().any(|&s| s > 0.0), "the straggler's tail spills over");

    // Multi-round: async total time stays at or below the barrier total.
    let mut sync_engine = ComDml::new(ComDmlConfig { churn: None, ..ComDmlConfig::default() });
    let mut async_engine = ComDml::new(ComDmlConfig {
        churn: None,
        aggregation: AggregationMode::Asynchronous,
        ..ComDmlConfig::default()
    });
    let (mut carry_sync, mut carry_async) = (HashMap::new(), HashMap::new());
    let mut total_sync = 0.0;
    let mut total_async = 0.0;
    for r in 0..5 {
        total_sync += run_round(&mut sync_engine, &world, r, &mut carry_sync).round_s();
        total_async += run_round(&mut async_engine, &world, r, &mut carry_async).round_s();
    }
    assert!(
        total_async <= total_sync + 1e-9,
        "async pipeline {total_async} must not exceed the barrier {total_sync}"
    );
}
