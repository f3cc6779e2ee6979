//! The two fleet workloads: ComDML through `FleetSim::new` + `step`, and
//! the traced mirror of `FleetSim::step` that times each layer call.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use comdml_core::{
    AggregationMode, ComDmlConfig, Disruption, EventGranularity, EventRound, FleetRoundSummary,
    FleetSim, Pairing, PairingScheduler, RoundProgress, TrainingTimeEstimator,
};
use comdml_cost::SplitProfile;
use comdml_exp::{run_job, Method, ScenarioSpec};
use comdml_simnet::{
    AgentId, ArrivalProcess, DistributionConfig, FleetDriver, MembershipChange, SessionLifetime,
};

use crate::layers::Layers;
use crate::{
    check_recorded_digest, fold, geomean, mean, median, quantile, Args, Metric, Outcome, FNV_OFFSET,
};

/// A fleet workload: one scenario driven round by round.
pub struct FleetWorkload {
    name: &'static str,
    spec: ScenarioSpec,
    /// Rounds per episode. A run repeats episodes, each a fresh fleet with
    /// its own seed derived from `--seed` stepped from round 0, until
    /// `--seconds` have passed, so every run measures the same kind of
    /// rounds however fast it goes. Each episode's digest covers all its
    /// rounds.
    episode_rounds: usize,
    /// Episodes every run completes whatever `--seconds` says:
    /// `sim_round_s` and the speedup cover exactly these, so they are
    /// identical on every run of one seed. Several worlds per run keep
    /// one world's draw from moving the figures.
    min_episodes: usize,
    /// Fleet builds timed per episode (the last one is measured);
    /// `setup_s` is the median over all of them.
    setups_per_episode: usize,
}

/// W1: a million agents with discrete profile classes under Poisson
/// arrivals / exponential sessions, 1% sampled cohorts. Per-round work is
/// O(world) while the cohort is only ~10k.
pub fn fleet_1m_cohort1() -> FleetWorkload {
    let agents = 1_000_000;
    let mut spec = ScenarioSpec::new("fleet_1m_cohort1")
        .agents(agents)
        .arrivals(ArrivalProcess::Poisson { rate_per_s: agents as f64 / 1e4 })
        .lifetime(SessionLifetime::Exponential { mean_s: 1e4 })
        .sampling_rate(0.01)
        .aggregation(AggregationMode::SemiSynchronous { quorum: 0.8, staleness_s: f64::MAX })
        .threads(1);
    spec.max_agents = Some(2 * agents);
    spec.granularity = EventGranularity::Coarse;
    FleetWorkload {
        name: "fleet_1m_cohort1",
        spec,
        episode_rounds: 100,
        min_episodes: 1,
        setups_per_episode: 1,
    }
}

/// W2: 2,000 agents on a full mesh with continuous (lognormal) CPU and
/// uniform link draws, full participation, fine per-batch events: every
/// agent is its own profile class, so pairing is all-pairs.
pub fn mesh_lognormal_2k() -> FleetWorkload {
    let mut spec = ScenarioSpec::new("mesh_lognormal_2k")
        .agents(2_000)
        .cpu_dist(DistributionConfig::LogNormal { mu: 0.3, sigma: 0.6 })
        .link_dist(DistributionConfig::Uniform { min: 5.0, max: 100.0 })
        .aggregation(AggregationMode::SemiSynchronous { quorum: 0.8, staleness_s: f64::MAX })
        .threads(1);
    spec.granularity = EventGranularity::Fine;
    FleetWorkload {
        name: "mesh_lognormal_2k",
        spec,
        episode_rounds: 4,
        min_episodes: 5,
        setups_per_episode: 20,
    }
}

/// One episode's rounds: output checks, and the digest over every
/// summary so far.
#[derive(Default)]
struct RoundLog {
    rounds: usize,
    failed: u64,
    digest: u64,
    summaries: Vec<FleetRoundSummary>,
    sampled: u64,
}

impl RoundLog {
    fn new() -> Self {
        Self { digest: FNV_OFFSET, ..Self::default() }
    }

    fn record(&mut self, s: FleetRoundSummary) {
        let sane = s.round_s.is_finite()
            && s.round_s > 0.0
            && s.efficiency > 0.0
            && s.efficiency <= 1.0
            && s.sampled > 0
            && s.sampled <= s.participants
            && s.cohort <= s.sampled;
        if !sane {
            eprintln!("round {} failed its output check: {s:?}", s.round);
            self.failed += 1;
        }
        for v in [
            s.round_s.to_bits(),
            s.efficiency.to_bits(),
            s.participants as u64,
            s.sampled as u64,
            s.cohort as u64,
            s.joins as u64,
            s.leaves as u64,
            s.leaves_committed as u64,
            s.repairs as u64,
            s.events_processed,
        ] {
            self.digest = fold(self.digest, v);
        }
        self.sampled += s.sampled as u64;
        self.rounds += 1;
        self.summaries.push(s);
    }

    /// Runs one round through `step`, timing it and recording its summary.
    /// Returns the round's host ms, or `None` (counted failed) if it
    /// panicked.
    fn step(&mut self, step: impl FnOnce() -> FleetRoundSummary) -> Option<f64> {
        let t = Instant::now();
        match catch_unwind(AssertUnwindSafe(step)) {
            Ok(s) => {
                let ms = t.elapsed().as_secs_f64() * 1e3;
                self.record(s);
                Some(ms)
            }
            Err(_) => {
                self.failed += 1;
                self.rounds += 1;
                None
            }
        }
    }
}

/// Names the outputs a fleet digest covers.
fn digest_scope(w: &FleetWorkload) -> String {
    format!("{}rounds", w.episode_rounds)
}

/// ComDML's time to target over an episode's rounds, by the rule
/// `comdml_exp::run_job` applies: the clock the round the model reaches
/// the target, otherwise the remaining rounds extrapolated at the mean
/// pace.
fn comdml_time_to_target(spec: &ScenarioSpec, summaries: &[FleetRoundSummary]) -> f64 {
    let mut model = spec.learning_model();
    let mut sim_s = 0.0;
    for s in summaries {
        model.observe(&RoundProgress::from(s));
        sim_s += s.round_s;
        if model.reached() {
            return sim_s;
        }
    }
    let rounds = model.rounds_observed();
    let mean = sim_s / rounds.max(1) as f64;
    sim_s + model.projected_rounds_to_target().saturating_sub(rounds) as f64 * mean
}

/// Runs the workload; `--trace 1` goes to the layer-timed mirror.
pub fn run(w: &FleetWorkload, args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return run_traced(w, args);
    }
    let spec = &w.spec;
    let mut setup_s = Vec::new();
    let mut round_ms = Vec::new();
    let mut episodes: Vec<RoundLog> = Vec::new();
    let mut wall_s = 0.0;
    let start = Instant::now();
    while episodes.len() < w.min_episodes || start.elapsed().as_secs_f64() < args.seconds {
        let e = episodes.len();
        let seed = episode_seed(args.seed, e);
        let mut sim = None;
        for _ in 0..w.setups_per_episode {
            drop(sim.take()); // free the previous fleet before building the next
            let t = Instant::now();
            let built = FleetSim::new(spec.fleet_config(seed), spec.comdml_config());
            setup_s.push(t.elapsed().as_secs_f64());
            sim = Some(built);
        }
        let mut sim = sim.ok_or("no setup ran")?;
        let mut log = RoundLog::new();
        let t = Instant::now();
        while log.rounds < w.episode_rounds {
            match log.step(|| sim.step()) {
                Some(ms) => round_ms.push(ms),
                None => break,
            }
        }
        wall_s += t.elapsed().as_secs_f64();
        episodes.push(log);
    }

    // Outside the timed loop: each episode must match every earlier run of
    // its seed in this build, and the first `min_episodes` give the
    // deterministic schedule-quality figures.
    let mut failed: u64 = episodes.iter().map(|l| l.failed).sum();
    let attempted: u64 = episodes.iter().map(|l| l.rounds as u64).sum();
    let sampled: u64 = episodes.iter().map(|l| l.sampled).sum();
    let mut sim_round_s = Vec::new();
    let mut speedup = Vec::new();
    for (e, log) in episodes.iter().enumerate() {
        let seed = episode_seed(args.seed, e);
        let rounds = &log.summaries;
        if rounds.len() < w.episode_rounds {
            continue; // a round panicked, already counted failed
        }
        if !check_recorded_digest(w.name, seed, &digest_scope(w), log.digest)? {
            failed += w.episode_rounds as u64;
        }
        if e >= w.min_episodes {
            continue;
        }
        sim_round_s.push(rounds.iter().map(|s| s.round_s).sum::<f64>() / rounds.len() as f64);
        let fedavg = run_job(&spec.clone().rounds(w.episode_rounds), Method::FedAvg, seed);
        let comdml_tt = comdml_time_to_target(spec, rounds);
        println!(
            "  episode {e} (fleet seed {seed}): {} rounds, digest({} rounds) {:016x}, sim round \
             {:.3} s, time to target ComDML {comdml_tt:.1} s vs FedAvg {:.1} s",
            log.rounds,
            w.episode_rounds,
            log.digest,
            sim_round_s[sim_round_s.len() - 1],
            fedavg.time_to_target_s
        );
        speedup.push(fedavg.time_to_target_s / comdml_tt);
    }
    println!(
        "{}: seed {}, {attempted} rounds over {} episodes in {wall_s:.2} s ({sampled} sampled \
         agent-rounds, {:.0}/s), setup median {:.3} ms of {}; round ms p50 {:.2} p90 {:.2} \
         over {} samples",
        w.name,
        args.seed,
        episodes.len(),
        sampled as f64 / wall_s,
        median(&setup_s) * 1e3,
        setup_s.len(),
        median(&round_ms),
        quantile(&round_ms, 0.9),
        round_ms.len(),
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("ops_per_s", round_ms.len() as f64 / wall_s, "1/s"),
            Metric::new("op_ms_p50", median(&round_ms), "ms"),
            Metric::new("op_ms_p90", quantile(&round_ms, 0.9), "ms"),
            Metric::new("sim_round_s", mean(&sim_round_s), "sim_s"),
            Metric::new("comdml_speedup_vs_fedavg", geomean(&speedup), "ratio"),
        ],
    })
}

/// The fleet seed of episode `e` of a run with workload seed `seed`.
fn episode_seed(seed: u64, e: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(e as u64)
}

/// `FleetSim::step` re-driven from public functions, with the benchmark's
/// timers around each layer call. It must reproduce `FleetSim`'s digest
/// bit for bit (checked every traced run).
struct Mirror {
    fleet: FleetDriver,
    config: ComDmlConfig,
    profile: SplitProfile,
    scheduler: PairingScheduler,
    ready_at: HashMap<AgentId, f64>,
    last_round_s: f64,
}

/// Counts the traced run reports next to the layer times.
#[derive(Default)]
struct MirrorCounts {
    membership_events: u64,
    sampled: u64,
    offloading_pairs: u64,
    events: u64,
    repairs: u64,
    /// Rounds whose pairing did not cover every sampled participant
    /// exactly once.
    bad_pairings: u64,
}

/// Every sampled participant appears exactly once across the pairing.
fn pairing_covers(participants: &[AgentId], pairings: &[Pairing]) -> bool {
    let mut seen: Vec<AgentId> =
        pairings.iter().flat_map(|p| std::iter::once(p.slow).chain(p.fast)).collect();
    seen.sort_unstable();
    seen == participants
}

impl Mirror {
    /// `FleetSim`'s planning-horizon multiplier (private there).
    const HORIZON_FACTOR: f64 = 2.0;

    /// Builds what `FleetSim::new` builds, timing the split profiling and
    /// the fleet build separately.
    fn build(
        spec: &ScenarioSpec,
        seed: u64,
        profile_ms: &mut Vec<f64>,
        build_ms: &mut Vec<f64>,
    ) -> Self {
        let config = spec.comdml_config();
        let fleet_config = spec.fleet_config(seed);
        let t = Instant::now();
        let full = SplitProfile::new(&config.model, config.batch_size);
        let profile = match &config.candidate_offloads {
            Some(c) => full.restrict_to(c),
            None => full,
        };
        profile_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let scheduler = match config.byzantine {
            Some(b) => PairingScheduler::with_misreport(b, fleet_config.seed()),
            None => PairingScheduler::new(),
        };
        let t = Instant::now();
        let fleet = fleet_config.build();
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        Self { fleet, config, profile, scheduler, ready_at: HashMap::new(), last_round_s: 0.0 }
    }

    fn step(&mut self, layers: &mut Layers, counts: &mut MirrorCounts) -> FleetRoundSummary {
        let now = self.fleet.clock_s();
        if let Some(d) = self.config.diurnal {
            self.fleet.world_mut().set_link_scale(d.factor_at(now));
        }
        if let Some(p) = self.config.partition {
            match p.cut_at(now) {
                Some(isolated) => self.fleet.world_mut().set_partition(p.groups, isolated),
                None => self.fleet.world_mut().clear_partition(),
            }
        }
        let round = self.fleet.round();
        if let Some(churn) = self.config.churn {
            if churn.interval > 0 && round > 0 && round.is_multiple_of(churn.interval) {
                self.fleet.world_mut().churn_profiles(churn.fraction);
            }
        }
        let horizon = if self.last_round_s > 0.0 {
            self.last_round_s * Self::HORIZON_FACTOR
        } else {
            layers.time("core.horizon", || {
                let estimator = TrainingTimeEstimator::new(
                    &self.config.model,
                    &self.profile,
                    &self.config.calibration,
                );
                self.fleet
                    .world()
                    .agents()
                    .iter()
                    .map(|a| estimator.solo_time_s(a))
                    .fold(0.0f64, f64::max)
            })
        };
        let plan = layers.time("simnet.begin_round", || self.fleet.begin_round(horizon));
        counts.membership_events += plan.events.len() as u64;
        layers.time("core.carry", || {
            self.ready_at.retain(|id, _| plan.participants.binary_search(id).is_ok())
        });

        let participants: Vec<AgentId> = if self.config.sampling_rate < 1.0 {
            let rate = self.config.sampling_rate;
            let fleet = &mut self.fleet;
            layers.time("simnet.sample", || {
                fleet.world_mut().sample_participants_among(&plan.participants, rate)
            })
        } else {
            plan.participants.clone()
        };
        let (round_carry, held) = layers.time("core.carry", || {
            let mut round_carry = std::mem::take(&mut self.ready_at);
            let held: HashMap<AgentId, f64> = if participants.len() < plan.participants.len() {
                let (held, kept) = round_carry
                    .into_iter()
                    .partition(|(id, _)| participants.binary_search(id).is_err());
                round_carry = kept;
                held
            } else {
                HashMap::new()
            };
            (round_carry, held)
        });

        let estimator =
            TrainingTimeEstimator::new(&self.config.model, &self.profile, &self.config.calibration);
        let pairings = layers.time("core.pair", || {
            self.scheduler.pair(self.fleet.world(), &participants, &estimator)
        });
        if !pairing_covers(&participants, &pairings) {
            counts.bad_pairings += 1;
        }
        counts.sampled += participants.len() as u64;
        counts.offloading_pairs += pairings.iter().filter(|p| p.is_offloading()).count() as u64;
        let disruptions: Vec<Disruption> = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                MembershipChange::Join => Some(Disruption::Join { agent: e.agent, at_s: e.at_s }),
                MembershipChange::Leave => participants
                    .binary_search(&e.agent)
                    .is_ok()
                    .then_some(Disruption::Leave { agent: e.agent, at_s: e.at_s }),
            })
            .collect();
        let joins = plan.events.iter().filter(|e| e.kind == MembershipChange::Join).count();
        let leaves = disruptions.len() - joins;

        let report = layers.time("core.event_round", || {
            EventRound::new(
                self.fleet.world(),
                &pairings,
                &estimator,
                &self.config.calibration,
                self.config.algorithm,
            )
            .mode(self.config.aggregation)
            .granularity(self.config.granularity)
            .pair_threads(self.config.threads)
            .disruptions(disruptions)
            .ready_at(round_carry)
            .run()
        });
        counts.events += report.events_processed;
        counts.repairs += report.repairs as u64;

        let mut round_s = report.round_end_s.max(0.0);
        let efficiency = report.efficiency(self.config.staleness_decay);
        if round_s <= 0.0 {
            round_s = self.fleet.seconds_to_next_event().unwrap_or(0.0);
        }
        layers.time("simnet.end_round", || self.fleet.end_round(round_s));
        layers.time("core.carry", || {
            self.ready_at = report
                .spill_s
                .iter()
                .enumerate()
                .filter(|&(i, &s)| s > 0.0 && self.fleet.is_active(AgentId(i)))
                .map(|(i, &s)| (AgentId(i), s))
                .collect();
            for (id, s) in held {
                if self.fleet.is_active(id) {
                    self.ready_at.insert(id, s);
                }
            }
        });
        let leaves_committed = plan.committed_leaves_among(&participants, round_s);
        self.last_round_s = if plan.participants.is_empty() { 0.0 } else { round_s };
        FleetRoundSummary {
            round,
            participants: plan.participants.len(),
            sampled: participants.len(),
            cohort: report.cohort.len(),
            joins,
            leaves,
            leaves_committed,
            repairs: report.repairs,
            round_s,
            efficiency,
            events_processed: report.events_processed,
        }
    }
}

/// The `obs` phase totals the event round records, in ms.
fn obs_phase_ms(snapshot: &comdml_obs::MetricsSnapshot, name: &str) -> f64 {
    snapshot.histograms.iter().find(|(n, _)| n == name).map_or(0.0, |(_, h)| h.sum)
}

fn run_traced(w: &FleetWorkload, args: &Args) -> Result<Outcome, String> {
    let spec = &w.spec;
    comdml_obs::metrics().reset();
    let mut layers = Layers::default();
    let mut counts = MirrorCounts::default();
    let (mut profile_ms, mut build_ms) = (Vec::new(), Vec::new());
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let (mut rounds, mut failed) = (0usize, 0u64);
    let start = Instant::now();
    // The untraced run's episodes, each traced in turn.
    let mut episodes = 0;
    while episodes == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let seed = episode_seed(args.seed, episodes);
        episodes += 1;
        let mut mirror = Mirror::build(spec, seed, &mut profile_ms, &mut build_ms);
        // The untraced reference: the same rounds through `FleetSim`
        // itself, alternating round by round with the mirror so both see
        // the same machine state. Only the mirror's rounds run with the obs
        // registry on (for the event round's own phases).
        let mut sim = FleetSim::new(spec.fleet_config(seed), spec.comdml_config());
        let (mut reference, mut log) = (RoundLog::new(), RoundLog::new());
        let mut diverged = false;
        while log.rounds < w.episode_rounds {
            let Some(ms) = reference.step(|| sim.step()) else { break };
            untraced_ms += ms;
            comdml_obs::set_metrics_enabled(true);
            let traced = log.step(|| mirror.step(&mut layers, &mut counts));
            comdml_obs::set_metrics_enabled(false);
            let Some(ms) = traced else { break };
            traced_ms += ms;
            // The mirror must reproduce `FleetSim` bit for bit.
            if reference.digest != log.digest {
                if !diverged {
                    eprintln!(
                        "fleet seed {seed}: mirror diverged from FleetSim in round {}",
                        log.rounds
                    );
                    diverged = true;
                }
                failed += 1;
            }
        }
        rounds += log.rounds;
        failed += reference.failed + log.failed;
        if reference.rounds == w.episode_rounds
            && !check_recorded_digest(w.name, seed, &digest_scope(w), reference.digest)?
        {
            failed += w.episode_rounds as u64;
        }
    }
    failed += counts.bad_pairings;
    let snap = comdml_obs::metrics().snapshot();
    let er = Some("core.event_round");
    layers.add("core.event_round.setup", er, obs_phase_ms(&snap, "phase.round.setup"));
    layers.add(
        "core.event_round.pair_prep",
        Some("core.event_round.setup"),
        obs_phase_ms(&snap, "phase.round.parallel_pairs"),
    );
    layers.add("core.event_round.loop", er, obs_phase_ms(&snap, "round.events"));
    layers.add("core.event_round.report", er, obs_phase_ms(&snap, "phase.round.report"));

    layers.print(w.name, "round", rounds, traced_ms);
    println!(
        "  {rounds} rounds over {episodes} episodes, {} sampled agent-rounds, {} pairings not \
         covering their cohort; untraced {untraced_ms:.1} ms; set-up medians: profile {:.3} ms, \
         fleet build {:.3} ms",
        counts.sampled,
        counts.bad_pairings,
        median(&profile_ms),
        median(&build_ms)
    );
    let per_round = |x: f64| x / rounds.max(1) as f64;
    let loop_ms = layers.busy("core.event_round.loop");
    let metrics = vec![
        Metric::new("simnet.sample_ms", per_round(layers.busy("simnet.sample")), "ms"),
        Metric::new("simnet.begin_round_ms", per_round(layers.busy("simnet.begin_round")), "ms"),
        Metric::new("simnet.end_round_ms", per_round(layers.busy("simnet.end_round")), "ms"),
        Metric::new(
            "simnet.membership_events",
            per_round(counts.membership_events as f64),
            "count",
        ),
        Metric::new("core.horizon_ms", per_round(layers.busy("core.horizon")), "ms"),
        Metric::new("core.carry_ms", per_round(layers.busy("core.carry")), "ms"),
        Metric::new("core.pair_ms", per_round(layers.busy("core.pair")), "ms"),
        Metric::new(
            "core.pair_offload_frac",
            counts.offloading_pairs as f64 / counts.sampled.max(1) as f64,
            "ratio",
        ),
        Metric::new("core.event_round_ms", per_round(layers.busy("core.event_round")), "ms"),
        Metric::new(
            "core.event_round.setup_ms",
            per_round(layers.busy("core.event_round.setup")),
            "ms",
        ),
        Metric::new(
            "core.event_round.pair_prep_ms",
            per_round(layers.busy("core.event_round.pair_prep")),
            "ms",
        ),
        Metric::new("core.event_round.loop_ms", per_round(loop_ms), "ms"),
        Metric::new(
            "core.event_round.report_ms",
            per_round(layers.busy("core.event_round.report")),
            "ms",
        ),
        Metric::new("core.events", per_round(counts.events as f64), "count"),
        Metric::new("core.events_per_s", counts.events as f64 / (loop_ms / 1e3).max(1e-12), "1/s"),
        Metric::new("core.repairs", per_round(counts.repairs as f64), "count"),
        Metric::new("cost.profile_ms", median(&profile_ms), "ms"),
        Metric::new("simnet.build_ms", median(&build_ms), "ms"),
        Metric::new("unattributed_ms", per_round(traced_ms - layers.attributed_ms()), "ms"),
        Metric::new("attributed_frac", layers.attributed_ms() / traced_ms.max(1e-12), "ratio"),
        Metric::new("obs.trace_overhead_frac", traced_ms / untraced_ms.max(1e-12) - 1.0, "ratio"),
    ];
    Ok(Outcome { attempted: 2 * rounds as u64, failed, metrics })
}
