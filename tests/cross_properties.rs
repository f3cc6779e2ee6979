//! Cross-crate property tests: scheduler/round invariants on randomly
//! generated worlds.

use comdml::core::{EventRound, PairingScheduler, TrainingTimeEstimator};
use comdml::cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml::simnet::{AgentId, Topology, WorldConfig};
use proptest::prelude::*;

fn fixtures() -> (ModelSpec, SplitProfile, CostCalibration) {
    let spec = ModelSpec::resnet20(); // smaller profile keeps cases fast
    let profile = SplitProfile::new(&spec, 100);
    (spec, profile, CostCalibration::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pairing is always a valid matching: every participant exactly
    /// once, helpers distinct from slow agents, offloads within profile
    /// range, and only across usable links.
    #[test]
    fn pairing_is_a_valid_matching(
        k in 2usize..24,
        seed in 0u64..10_000,
        p in 0.0f64..1.0,
    ) {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(k, seed)
            .topology(Topology::random(p))
            .build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let pairings = PairingScheduler::new().pair(&world, &ids, &est);

        let mut seen = Vec::new();
        for pairing in &pairings {
            prop_assert!(!seen.contains(&pairing.slow));
            seen.push(pairing.slow);
            if let Some(f) = pairing.fast {
                prop_assert!(f != pairing.slow);
                prop_assert!(!seen.contains(&f));
                seen.push(f);
                prop_assert!(pairing.offload > 0);
                prop_assert!(pairing.offload < spec.num_weighted_layers());
                prop_assert!(world.link_mbps(pairing.slow, f) > 0.0, "paired over dead link");
            } else {
                prop_assert_eq!(pairing.offload, 0);
            }
            prop_assert!(pairing.est_time_s.is_finite() && pairing.est_time_s >= 0.0);
        }
        seen.sort();
        let mut expected = ids.clone();
        expected.sort();
        prop_assert_eq!(seen, expected);
    }

    /// Pairing never makes the estimated makespan worse than solo training.
    #[test]
    fn pairing_never_hurts_estimated_makespan(k in 2usize..20, seed in 0u64..10_000) {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(k, seed).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let pairings = PairingScheduler::new().pair(&world, &ids, &est);
        let paired_makespan = pairings.iter().map(|p| p.est_time_s).fold(0.0, f64::max);
        let solo_makespan = ids
            .iter()
            .map(|&id| est.solo_time_s(world.agent(id)))
            .fold(0.0, f64::max);
        prop_assert!(paired_makespan <= solo_makespan + 1e-9);
    }

    /// Round simulation conserves accounting: every agent finishes within
    /// the compute phase, and times are non-negative and finite.
    #[test]
    fn round_accounting_is_consistent(k in 2usize..16, seed in 0u64..10_000) {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(k, seed).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let pairings = PairingScheduler::new().pair(&world, &ids, &est);
        let outcome = EventRound::new(
            &world,
            &pairings,
            &est,
            &cal,
            comdml::collective::AllReduceAlgorithm::HalvingDoubling,
        ).run().outcome;
        prop_assert_eq!(outcome.agent_stats.len(), k);
        for s in &outcome.agent_stats {
            prop_assert!(s.train_s >= 0.0 && s.train_s.is_finite());
            prop_assert!(s.comm_s >= 0.0 && s.comm_s.is_finite());
            prop_assert!(s.idle_s >= 0.0 && s.idle_s.is_finite());
            prop_assert!(s.finish_s <= outcome.compute_s + 1e-9);
            // Busy + idle + comm covers the whole compute phase.
            let covered = s.train_s + s.idle_s + s.comm_s;
            prop_assert!(covered >= outcome.compute_s - 1e-6,
                "agent {:?} unaccounted time: {covered} vs {}", s.id, outcome.compute_s);
        }
        prop_assert!(outcome.allreduce_s >= 0.0);
    }

    /// The estimator's chosen time never exceeds the solo time (it can
    /// always fall back to offload zero).
    #[test]
    fn estimator_decision_bounded_by_solo(
        cpus_slow in 0.1f64..4.0,
        cpus_fast in 0.1f64..4.0,
        link in 1.0f64..100.0,
        samples in 500usize..20_000,
    ) {
        use comdml::simnet::{AgentProfile, AgentState};
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let slow = AgentState::new(AgentId(0), AgentProfile::new(cpus_slow, link), samples, 100);
        let fast = AgentState::new(AgentId(1), AgentProfile::new(cpus_fast, link), samples, 100);
        let solo = est.solo_time_s(&slow);
        let d = est.estimate(&slow, &fast, est.solo_time_s(&fast), link);
        prop_assert!(d.est_time_s <= solo + 1e-9);
        prop_assert!(d.est_time_s.is_finite());
    }
}
