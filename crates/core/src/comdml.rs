use std::collections::HashMap;

use comdml_collective::AllReduceAlgorithm;
use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml_simnet::{
    AgentId, ByzantineConfig, DiurnalCycle, MembershipChange, MembershipEvent, PartitionSchedule,
    World,
};
use serde::{Deserialize, Serialize};

use crate::{
    AggregationMode, Disruption, EventGranularity, EventRound, EventRoundReport, LearningCurve,
    PairingScheduler, RoundProgress, TrainingTimeEstimator,
};

/// Dynamic-environment policy: re-roll a fraction of agent profiles every
/// `interval` rounds ("we randomly changed the profile of 20% of the agents
/// after 100 rounds", §V-B.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnPolicy {
    /// Rounds between churn events.
    pub interval: usize,
    /// Fraction of agents re-rolled per event.
    pub fraction: f64,
}

impl Default for ChurnPolicy {
    fn default() -> Self {
        Self { interval: 100, fraction: 0.2 }
    }
}

/// Configuration of a ComDML run.
#[derive(Debug, Clone)]
pub struct ComDmlConfig {
    /// The model being trained (cost model).
    pub model: ModelSpec,
    /// Resource-to-seconds calibration.
    pub calibration: CostCalibration,
    /// AllReduce algorithm for aggregation (§IV-B picks halving/doubling).
    pub algorithm: AllReduceAlgorithm,
    /// Fraction of active members sampled into each round (Table III uses
    /// 0.2). Applied by the fleet harness ([`crate::FleetSim`]).
    pub sampling_rate: f64,
    /// Profile churn policy (`None` = static environment). Applied by the
    /// fleet harness between rounds.
    pub churn: Option<ChurnPolicy>,
    /// Candidate offloads to profile (`None` = every layer boundary).
    pub candidate_offloads: Option<Vec<usize>>,
    /// Learning curve for rounds-to-accuracy conversion.
    pub curve: LearningCurve,
    /// Mini-batch size used for profiling (the paper uses 100).
    pub batch_size: usize,
    /// How rounds aggregate: the classic barrier, a quorum/staleness
    /// semi-synchronous trigger, or fully asynchronous (no barrier). The
    /// non-synchronous modes carry stragglers' unfinished work into the
    /// next round instead of waiting for them.
    pub aggregation: AggregationMode,
    /// FedBuff-style staleness decay exponent: updates arriving `s` rounds
    /// after their aggregation contribute `(1 + s)^(-staleness_decay)`
    /// learning progress ([`crate::staleness_weight`]). Zero ignores
    /// staleness; the default 0.5 is the literature's common square-root
    /// discount. Only the non-synchronous modes produce stale updates.
    pub staleness_decay: f64,
    /// Event granularity of the round engine: exact per-batch events, or
    /// closed-form coarse events for undisrupted pairings (the fleet-scale
    /// default; see [`EventGranularity`]).
    pub granularity: EventGranularity,
    /// Threads used to prepare pair pipelines each round
    /// ([`EventRound::pair_threads`]). Results are bit-for-bit identical
    /// for any value; 1 (the default) prepares inline.
    pub threads: usize,
    /// Diurnal time-varying bandwidth (`None` = stationary links). Applied
    /// by the clock-owning fleet harness ([`crate::FleetSim`]) as a link
    /// scale on the world at each round start.
    pub diurnal: Option<DiurnalCycle>,
    /// Rotating correlated regional outages (`None` = never partitioned).
    /// Applied by the clock-owning harness like [`ComDmlConfig::diurnal`].
    pub partition: Option<PartitionSchedule>,
    /// Byzantine agents misreporting speed to the pairing broadcast
    /// (`None` = everyone honest). The liar set is salted by the scenario
    /// seed where one is available (the fleet harness), else 0.
    pub byzantine: Option<ByzantineConfig>,
}

impl Default for ComDmlConfig {
    fn default() -> Self {
        Self {
            model: ModelSpec::resnet56(),
            calibration: CostCalibration::default(),
            algorithm: AllReduceAlgorithm::HalvingDoubling,
            sampling_rate: 1.0,
            churn: Some(ChurnPolicy::default()),
            candidate_offloads: None,
            curve: LearningCurve::cifar10(true),
            batch_size: 100,
            aggregation: AggregationMode::Synchronous,
            staleness_decay: 0.5,
            granularity: EventGranularity::Fine,
            threads: 1,
            diurnal: None,
            partition: None,
            byzantine: None,
        }
    }
}

/// One round as the fleet harness hands it to an engine: the world shaped
/// for the round, the sampled participants, and the membership changes
/// forecast inside the planning horizon.
#[derive(Debug, Clone)]
pub struct RoundPlan<'a> {
    /// Zero-based round index.
    pub round: usize,
    /// The world at the round start (hostile shaping and profile churn
    /// already applied).
    pub world: &'a World,
    /// Agents that train and aggregate this round, ascending by id.
    pub participants: &'a [AgentId],
    /// Arrivals and departures forecast inside the planning horizon,
    /// round-relative and ascending by time. Departures may name agents
    /// outside `participants`.
    pub events: &'a [MembershipEvent],
    /// Head starts carried over from earlier rounds, keyed by participant.
    pub ready_at: HashMap<AgentId, f64>,
}

impl<'a> RoundPlan<'a> {
    /// A round over a fixed participant set: no membership events and no
    /// head starts.
    pub fn new(round: usize, world: &'a World, participants: &'a [AgentId]) -> Self {
        Self { round, world, participants, events: &[], ready_at: HashMap::new() }
    }
}

/// What an engine reports for one round.
#[derive(Debug, Clone)]
pub struct EngineRound {
    /// The round's duration and learning-progress inputs. `disruptions`
    /// counts the departures the engine itself saw; the fleet harness
    /// replaces it with the departures committed inside the round.
    pub progress: RoundProgress,
    /// Simulation events the engine executed (0 for closed-form engines).
    pub events_processed: u64,
    /// Helper re-pairings after mid-round departures.
    pub repairs: usize,
    /// Unfinished work per agent, in seconds, to carry into the next
    /// round as a head start (empty under a barrier).
    pub carry: HashMap<AgentId, f64>,
}

impl EngineRound {
    /// A closed-form round: every participant's update aggregated at
    /// `efficiency`, no events, no carry-over. A round nobody entered
    /// learns nothing.
    pub fn closed_form(round_s: f64, efficiency: f64, participants: usize) -> Self {
        let progress = if participants == 0 {
            RoundProgress::idle(round_s)
        } else {
            RoundProgress::fresh(round_s, efficiency, participants)
        };
        Self { progress, events_processed: 0, repairs: 0, carry: HashMap::new() }
    }
}

/// A training method simulated round by round — the interface shared by
/// ComDML and every baseline. [`crate::FleetSim`] owns membership, profile
/// churn, participation sampling and the clock; an engine only prices and
/// simulates the round it is handed.
pub trait RoundEngine {
    /// Method name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// Rounds-to-accuracy efficiency relative to full synchronous averaging
    /// (1.0 for FedAvg-style methods; below 1 for partial-mixing gossip).
    fn rounds_factor(&self) -> f64 {
        1.0
    }

    /// Simulates one round over exactly `plan.participants`.
    fn run_round(&mut self, plan: RoundPlan<'_>) -> EngineRound;
}

impl<E: RoundEngine + ?Sized> RoundEngine for Box<E> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn rounds_factor(&self) -> f64 {
        (**self).rounds_factor()
    }

    fn run_round(&mut self, plan: RoundPlan<'_>) -> EngineRound {
        (**self).run_round(plan)
    }
}

/// The ComDML method: decentralized pairing + local-loss split training +
/// AllReduce aggregation, simulated round by round.
#[derive(Debug, Clone)]
pub struct ComDml {
    config: ComDmlConfig,
    profile: SplitProfile,
    scheduler: PairingScheduler,
    last_report: Option<EventRoundReport>,
    /// Sum of per-round staleness-weighted efficiencies (see
    /// [`EventRoundReport::efficiency`]) over `rounds_seen` rounds.
    efficiency_sum: f64,
    rounds_seen: usize,
}

impl ComDml {
    /// Builds the method, profiling all candidate splits up front (the
    /// paper's "prior to the training process" profiling step). Byzantine
    /// liar sets are salted with 0; [`crate::FleetSim::new`] salts them
    /// with the fleet seed.
    pub fn new(config: ComDmlConfig) -> Self {
        Self::salted(config, 0)
    }

    /// [`ComDml::new`] with the Byzantine liar set salted by `salt`.
    pub(crate) fn salted(config: ComDmlConfig, salt: u64) -> Self {
        let full = SplitProfile::new(&config.model, config.batch_size);
        let profile = match &config.candidate_offloads {
            Some(c) => full.restrict_to(c),
            None => full,
        };
        let scheduler = match config.byzantine {
            Some(b) => PairingScheduler::with_misreport(b, salt),
            None => PairingScheduler::new(),
        };
        Self { config, profile, scheduler, last_report: None, efficiency_sum: 0.0, rounds_seen: 0 }
    }

    /// The active configuration.
    pub fn config(&self) -> &ComDmlConfig {
        &self.config
    }

    /// The split profile in use.
    pub fn profile(&self) -> &SplitProfile {
        &self.profile
    }

    /// The full event-engine report of the most recent round (per-agent
    /// timings, aggregation cohort, spill-over, repairs), if any.
    pub fn last_report(&self) -> Option<&EventRoundReport> {
        self.last_report.as_ref()
    }
}

impl RoundEngine for ComDml {
    fn name(&self) -> &'static str {
        "ComDML"
    }

    /// Running mean of the staleness-weighted per-round efficiency: 1.0
    /// before any round ran (and always, under the synchronous barrier);
    /// below 1.0 once semi-sync or async rounds produced stale updates.
    fn rounds_factor(&self) -> f64 {
        if self.rounds_seen == 0 {
            1.0
        } else {
            self.efficiency_sum / self.rounds_seen as f64
        }
    }

    /// Pairs the participants, turns the forecast membership changes into
    /// mid-round disruptions, and runs the round on the discrete-event
    /// engine under the configured [`AggregationMode`]. Semi-synchronous
    /// and asynchronous stragglers' unfinished work comes back as carry.
    fn run_round(&mut self, plan: RoundPlan<'_>) -> EngineRound {
        // Free the previous round's world-sized report before this one
        // allocates its own.
        self.last_report = None;
        let estimator =
            TrainingTimeEstimator::new(&self.config.model, &self.profile, &self.config.calibration);
        let pairing_timer = comdml_obs::phase("fleet.pairing");
        let pairings = self.scheduler.pair(plan.world, plan.participants, &estimator);
        drop(pairing_timer);
        let disruptions: Vec<Disruption> = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                // Joiners are not cohort members — the round engine only
                // considers them as replacement helpers for repairs — so
                // participation sampling (which gates who *trains and
                // aggregates*) deliberately does not apply to them.
                MembershipChange::Join => Some(Disruption::Join { agent: e.agent, at_s: e.at_s }),
                // A departure only disrupts the round if the departing
                // agent is actually in it; unsampled members leave the
                // fleet without touching the round.
                MembershipChange::Leave => plan
                    .participants
                    .binary_search(&e.agent)
                    .is_ok()
                    .then_some(Disruption::Leave { agent: e.agent, at_s: e.at_s }),
            })
            .collect();
        let round_timer = comdml_obs::phase("fleet.round");
        let report = EventRound::new(
            plan.world,
            &pairings,
            &estimator,
            &self.config.calibration,
            self.config.algorithm,
        )
        .mode(self.config.aggregation)
        .granularity(self.config.granularity)
        .pair_threads(self.config.threads)
        .disruptions(disruptions)
        .ready_at(plan.ready_at)
        .run();
        drop(round_timer);
        let carry = report
            .spill_s
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s > 0.0)
            .map(|(i, &s)| (AgentId(i), s))
            .collect();
        let progress = report.progress(self.config.staleness_decay);
        self.efficiency_sum += progress.efficiency;
        self.rounds_seen += 1;
        let round = EngineRound {
            progress,
            events_processed: report.events_processed,
            repairs: report.repairs,
            carry,
        };
        self.last_report = Some(report);
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetSim;
    use comdml_simnet::{FleetConfig, WorldConfig};

    fn ids(world: &World) -> Vec<AgentId> {
        world.agents().iter().map(|a| a.id).collect()
    }

    #[test]
    fn run_produces_positive_times() {
        let world = WorldConfig::heterogeneous(10, 1).build();
        let ids = ids(&world);
        let mut comdml = ComDml::new(ComDmlConfig::default());
        for r in 0..5 {
            let round = comdml.run_round(RoundPlan::new(r, &world, &ids));
            assert!(round.progress.round_s > 0.0);
            let report = comdml.last_report().expect("round just ran");
            assert!(report.outcome.num_offloads > 0, "heterogeneous world should offload");
        }
    }

    #[test]
    fn comdml_beats_no_balancing_on_heterogeneous_world() {
        let world = WorldConfig::heterogeneous(10, 2).build();
        let ids = ids(&world);
        let mut comdml = ComDml::new(ComDmlConfig { churn: None, ..ComDmlConfig::default() });
        let rounds = 10;
        let mean_round_s = (0..rounds)
            .map(|r| comdml.run_round(RoundPlan::new(r, &world, &ids)).progress.round_s)
            .sum::<f64>()
            / rounds as f64;

        // "No balancing": every agent trains alone; round time is the
        // straggler's solo time.
        let cfg = ComDmlConfig::default();
        let profile = SplitProfile::new(&cfg.model, cfg.batch_size);
        let est = TrainingTimeEstimator::new(&cfg.model, &profile, &cfg.calibration);
        let straggler = world.agents().iter().map(|a| est.solo_time_s(a)).fold(0.0, f64::max);
        assert!(
            mean_round_s < straggler * 0.8,
            "balanced round {mean_round_s} vs straggler {straggler}"
        );
    }

    #[test]
    fn sampling_reduces_participants() {
        // Sampling is the fleet harness's: the engine prices exactly the
        // sampled participants it is handed.
        let config = ComDmlConfig { sampling_rate: 0.2, churn: None, ..ComDmlConfig::default() };
        let mut sim = FleetSim::new(FleetConfig::new(50, 3), config);
        let summary = sim.step();
        assert_eq!(summary.sampled, 10);
        let report = sim.engine().last_report().expect("round just ran");
        assert_eq!(report.outcome.agent_stats.len(), 10);
    }

    #[test]
    fn churn_triggers_on_interval() {
        let config = ComDmlConfig {
            churn: Some(ChurnPolicy { interval: 5, fraction: 0.5 }),
            ..ComDmlConfig::default()
        };
        let mut sim = FleetSim::new(FleetConfig::new(20, 4), config);
        let profiles = |sim: &FleetSim| -> Vec<_> {
            sim.fleet().world().agents().iter().map(|a| a.profile).collect()
        };
        let before = profiles(&sim);
        for _ in 0..5 {
            sim.step();
        }
        assert_eq!(before, profiles(&sim), "no churn before round 5");
        sim.step();
        assert_ne!(before, profiles(&sim), "churn at round 5 should change profiles");
    }

    #[test]
    fn round_progress_reports_realized_efficiency() {
        let world = WorldConfig::heterogeneous(12, 7).build();
        let ids = ids(&world);
        let mut engine = ComDml::new(ComDmlConfig { churn: None, ..ComDmlConfig::default() });
        let p = engine.run_round(RoundPlan::new(0, &world, &ids)).progress;
        assert!((p.efficiency - 1.0).abs() < 1e-12, "sync barrier is fully fresh");
        assert_eq!(p.participants, 12);
        assert_eq!(p.cohort, 12);
        assert_eq!(p.disruptions, 0);
        assert!(p.round_s > 0.0);

        let mut semi = ComDml::new(ComDmlConfig {
            churn: None,
            aggregation: AggregationMode::SemiSynchronous { quorum: 0.5, staleness_s: f64::MAX },
            ..ComDmlConfig::default()
        });
        let round = semi.run_round(RoundPlan::new(0, &world, &ids));
        let sp = round.progress;
        assert!(
            sp.efficiency < 1.0,
            "stragglers past the quorum spill and discount efficiency, got {}",
            sp.efficiency
        );
        assert!(sp.cohort < sp.participants, "quorum cohort excludes stragglers");
        assert!(!round.carry.is_empty(), "spilled stragglers carry their unfinished work");
    }

    #[test]
    fn restricted_candidates_are_respected() {
        let world = WorldConfig::heterogeneous(10, 6).build();
        let ids = ids(&world);
        let mut comdml = ComDml::new(ComDmlConfig {
            candidate_offloads: Some(vec![10, 28, 46]),
            churn: None,
            ..ComDmlConfig::default()
        });
        comdml.run_round(RoundPlan::new(0, &world, &ids));
        assert_eq!(comdml.profile().len(), 4); // 0 plus the three candidates
    }
}
