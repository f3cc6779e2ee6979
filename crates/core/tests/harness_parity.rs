//! Harness parity: any engine `FleetSim` drives is charged by the same
//! membership, sampling and shaping rules. A recording stub engine runs
//! through `FleetSim` and through a literal reference loop over the bare
//! `FleetDriver`; the sampled participants and the committed leaves must
//! agree round for round.

use comdml_core::{
    ComDmlConfig, EngineRound, FleetRoundSummary, FleetSim, RoundEngine, RoundPlan,
    TrainingTimeEstimator,
};
use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml_simnet::{AgentId, ArrivalProcess, FleetConfig, PartitionSchedule, SessionLifetime};

/// Round durations the stub alternates between: the long one overruns twice
/// the short one, so departures past the planning horizon go uncharged.
const ROUND_S: [f64; 2] = [700.0, 2_000.0];

/// Records what the harness hands it and prices every non-empty round from
/// [`ROUND_S`].
#[derive(Debug, Default)]
struct Recorder {
    rounds: Vec<(usize, Vec<AgentId>)>,
}

impl RoundEngine for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }

    fn run_round(&mut self, plan: RoundPlan<'_>) -> EngineRound {
        self.rounds.push((plan.round, plan.participants.to_vec()));
        let round_s = if plan.participants.is_empty() { 0.0 } else { ROUND_S[plan.round % 2] };
        EngineRound::closed_form(round_s, 1.0, plan.participants.len())
    }
}

#[test]
fn any_engine_is_charged_by_the_same_harness_rules() {
    let partition = PartitionSchedule { groups: 4, period_s: 3_600.0, outage_s: 900.0 };
    let fleet = || {
        FleetConfig::new(24, 9)
            .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.004 })
            .lifetime(SessionLifetime::Exponential { mean_s: 4_000.0 })
            .recycle_slots(true)
    };
    let config = ComDmlConfig {
        churn: None,
        sampling_rate: 0.5,
        partition: Some(partition),
        ..ComDmlConfig::default()
    };
    let rounds = 40;

    let mut sim = FleetSim::with_engine(fleet().build(), config, Recorder::default());
    let summaries: Vec<FleetRoundSummary> = (0..rounds).map(|_| sim.step()).collect();

    // The reference: the harness rules written out over the bare driver.
    let model = ModelSpec::resnet56();
    let profile = SplitProfile::new(&model, 100);
    let cal = CostCalibration::default();
    let estimator = TrainingTimeEstimator::new(&model, &profile, &cal);
    let mut driver = fleet().build();
    let mut last_round_s = 0.0;
    let mut expected = Vec::new();
    for round in 0..rounds {
        match partition.cut_at(driver.clock_s()) {
            Some(isolated) => driver.world_mut().set_partition(partition.groups, isolated),
            None => driver.world_mut().clear_partition(),
        }
        let horizon = if last_round_s > 0.0 {
            2.0 * last_round_s
        } else {
            driver.world().agents().iter().map(|a| estimator.solo_time_s(a)).fold(0.0, f64::max)
        };
        let plan = driver.begin_round(horizon);
        let sampled = driver.world_mut().sample_participants_among(&plan.participants, 0.5);
        let round_s = if sampled.is_empty() {
            driver.seconds_to_next_event().unwrap_or(0.0)
        } else {
            ROUND_S[round % 2]
        };
        driver.end_round(round_s);
        let committed = plan.committed_leaves_among(&sampled, round_s);
        last_round_s = if plan.participants.is_empty() { 0.0 } else { round_s };
        expected.push((round, sampled, committed));
    }

    let recorded = &sim.engine().rounds;
    assert_eq!(recorded.len(), rounds);
    let mut committed_total = 0;
    for ((summary, (round, sampled)), (want_round, want_sampled, want_committed)) in
        summaries.iter().zip(recorded).zip(&expected)
    {
        assert_eq!(round, want_round);
        assert_eq!(sampled, want_sampled, "round {round}: sampled participants");
        assert_eq!(summary.leaves_committed, *want_committed, "round {round}: committed leaves");
        committed_total += want_committed;
    }
    assert!(committed_total > 0, "the scenario should commit some participant departures");
    assert_eq!(sim.fleet().clock_s().to_bits(), driver.clock_s().to_bits());
}
