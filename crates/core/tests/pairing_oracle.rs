//! Differential tests: `PairingScheduler::pair` against a literal
//! Algorithm-1 reference.
//!
//! The scheduler's full-mesh path prunes with profile classes, geometric
//! bins and a lower bound on the estimate; its sparse path scans
//! neighbours in ascending `τ̂ⱼ` and stops early. The oracle below does
//! none of that: slowest first, each still-unpaired agent scans every
//! reachable unpaired participant and every split, and takes the argmin
//! of `(τ̂, τ̂ⱼ, id)`. The two must agree bit for bit on every world the
//! strategies draw: discrete grids and continuous CPU/link draws, mixed
//! batch sizes, implicit and explicit meshes, sparse random graphs,
//! regional cuts, diurnal link scaling, Byzantine misreports and partial
//! participation.

use comdml_core::{Pairing, PairingScheduler, TrainingTimeEstimator};
use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml_simnet::{
    Adjacency, AgentId, AgentProfile, AgentState, ByzantineConfig, DistributionConfig,
    PartitionSchedule, Topology, World, WorldConfig,
};
use proptest::prelude::*;

/// A candidate's `(τ̂, τ̂ⱼ, id, split index)`: Algorithm 1's argmin key.
type Key = (f64, f64, usize, usize);

/// The literal Algorithm 1 (lines 2-21) over the broadcast `advertised`
/// states: no memo, no classes, no prunes.
fn oracle(
    world: &World,
    participants: &[AgentId],
    spec: &ModelSpec,
    profile: &SplitProfile,
    cal: &CostCalibration,
    misreport: Option<(ByzantineConfig, u64)>,
) -> Vec<Pairing> {
    let advertised = |id: AgentId| -> AgentState {
        let mut a = world.agent(id).clone();
        if let Some((b, salt)) = misreport {
            if b.fraction > 0.0 && b.speed_factor != 1.0 && b.is_liar(id.0, salt) {
                a.profile.cpus *= b.speed_factor;
            }
        }
        a
    };
    let speed = |a: &AgentState| {
        cal.batches_per_s(spec.train_flops_per_sample(), a.batch_size, a.profile.cpus)
    };
    // Line 2: every participant broadcasts p and τ̂ = Ñ / p.
    let mut order: Vec<(AgentId, AgentState, f64)> = participants
        .iter()
        .map(|&id| {
            let a = advertised(id);
            let solo = a.num_batches() as f64 / speed(&a);
            (id, a, solo)
        })
        .collect();
    // List A: descending τ̂, ties by ascending id.
    order.sort_by(|x, y| y.2.partial_cmp(&x.2).expect("finite solo times").then(x.0.cmp(&y.0)));

    let mut paired = vec![false; world.num_agents()];
    let mut out = Vec::new();
    for (i, slow, solo_i) in &order {
        if paired[i.0] {
            continue;
        }
        let n_i = slow.num_batches() as f64;
        let p_i = speed(slow);
        // The best option's `(τ̂, τ̂ⱼ, id, split index)` and offload.
        let mut best: Option<(Key, usize)> = None;
        for (j, fast, solo_j) in &order {
            if j == i || paired[j.0] {
                continue;
            }
            let link = world.link_mbps(*i, *j);
            let link_bytes_s = cal.bytes_per_s(link);
            if link_bytes_s <= 0.0 {
                continue;
            }
            let p_j = speed(fast);
            for (m, e) in profile.iter().enumerate() {
                if e.offload == 0 {
                    continue;
                }
                // Lines 16-18.
                let slow_arm = if e.t_slow_rel > 0.0 { n_i * e.t_slow_rel / p_i } else { 0.0 };
                let comm = n_i * e.nu_bytes_per_batch as f64 / link_bytes_s;
                let fast_arm = solo_j + comm + n_i * e.t_fast_rel / p_j;
                let t = slow_arm.max(fast_arm);
                if t >= *solo_i {
                    continue;
                }
                let key = (t, *solo_j, j.0, m);
                if best.is_none_or(|(b, _)| key < b) {
                    best = Some((key, e.offload));
                }
            }
        }
        paired[i.0] = true;
        match best {
            Some(((t, _, j, _), offload)) => {
                paired[j] = true;
                out.push(Pairing { slow: *i, fast: Some(AgentId(j)), offload, est_time_s: t });
            }
            None => out.push(Pairing { slow: *i, fast: None, offload: 0, est_time_s: *solo_i }),
        }
    }
    out
}

/// How a random world's agents, links and broadcast are drawn.
#[derive(Debug, Clone, Copy)]
struct Draw {
    k: usize,
    seed: u64,
    /// 0 = the paper's grid, 1 = lognormal, 2 = uniform.
    cpu: u8,
    /// 0 = the paper's grid, 1 = lognormal, 2 = uniform.
    link: u8,
    /// Give agents one of three batch sizes instead of one.
    mixed_batches: bool,
    /// 0 = implicit full mesh, 1 = explicit all-ones matrix, 2 = sparse ER.
    topology: u8,
    edge_p: f64,
    /// Regional cut active during the pairing, as `(groups, at_s)`.
    cut: Option<(usize, f64)>,
    link_scale: f64,
    liars: Option<(f64, f64)>,
    /// Fraction of agents participating (1.0 = everyone).
    participation: f64,
}

fn cpu_dist(kind: u8) -> Option<DistributionConfig> {
    match kind {
        1 => Some(DistributionConfig::LogNormal { mu: 0.0, sigma: 0.8 }),
        2 => Some(DistributionConfig::Uniform { min: 0.1, max: 4.0 }),
        _ => None,
    }
}

fn link_dist(kind: u8) -> Option<DistributionConfig> {
    match kind {
        1 => Some(DistributionConfig::LogNormal { mu: 3.5, sigma: 0.7 }),
        2 => Some(DistributionConfig::Uniform { min: 5.0, max: 100.0 }),
        _ => None,
    }
}

impl Draw {
    fn build(&self) -> (World, Vec<AgentId>, PairingScheduler) {
        let mut cfg = WorldConfig::heterogeneous(self.k, self.seed).sample_skew(1.0);
        if let Some(d) = cpu_dist(self.cpu) {
            cfg = cfg.cpu_dist(d);
        }
        if let Some(d) = link_dist(self.link) {
            cfg = cfg.link_dist(d);
        }
        if self.topology == 2 {
            cfg = cfg.topology(Topology::random(self.edge_p));
        }
        let mut world = cfg.build();
        if self.mixed_batches || self.topology == 1 {
            let mut agents = world.agents().to_vec();
            if self.mixed_batches {
                for a in &mut agents {
                    a.batch_size = [50, 100, 128][a.id.0 % 3];
                }
            }
            let k = agents.len();
            let adjacency = if self.topology == 1 {
                let matrix = (0..k).map(|i| (0..k).map(|j| i != j).collect()).collect();
                Adjacency::from_matrix(matrix)
            } else {
                world.adjacency().clone()
            };
            world = World::from_parts(agents, adjacency, self.seed);
        }
        if let Some((groups, at_s)) = self.cut {
            let schedule = PartitionSchedule { groups, period_s: 100.0, outage_s: 60.0 };
            if let Some(isolated) = schedule.cut_at(at_s) {
                world.set_partition(groups, isolated);
            }
        }
        world.set_link_scale(self.link_scale);
        let participants: Vec<AgentId> = if self.participation < 1.0 {
            let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
            world.sample_participants_among(&ids, self.participation)
        } else {
            world.agents().iter().map(|a| a.id).collect()
        };
        let sched = match self.liars {
            Some((fraction, speed_factor)) => PairingScheduler::with_misreport(
                ByzantineConfig { fraction, speed_factor },
                self.seed,
            ),
            None => PairingScheduler::new(),
        };
        (world, participants, sched)
    }
}

/// Strategy over every knob the scheduler's fast paths depend on.
fn draws() -> impl Strategy<Value = Draw> {
    (
        (2usize..48, 0u64..u64::MAX, 0u8..3, 0u8..3, 0u8..4),
        (0u8..3, 0.1f64..0.9, 0u8..3, 2usize..5, 0.0f64..100.0),
        (0u8..3, 0.25f64..4.0, 0u8..3, 0.05f64..0.6, 0.5f64..8.0),
        (0u8..3, 0.3f64..1.0),
    )
        .prop_map(
            |(
                (k, seed, cpu, link, batches),
                (topology, edge_p, cut, groups, at_s),
                (scale, scale_v, liars, fraction, factor),
                (part, rate),
            )| Draw {
                k,
                seed,
                cpu,
                link,
                mixed_batches: batches == 0,
                topology,
                edge_p,
                cut: (cut == 0).then_some((groups, at_s)),
                link_scale: if scale == 0 { scale_v } else { 1.0 },
                liars: (liars == 0).then_some((fraction, factor)),
                participation: if part == 0 { rate } else { 1.0 },
            },
        )
}

fn check(draw: Draw, profile: &SplitProfile) {
    let spec = ModelSpec::resnet56();
    let cal = CostCalibration::default();
    let est = TrainingTimeEstimator::new(&spec, profile, &cal);
    let (world, participants, sched) = draw.build();
    let want = oracle(
        &world,
        &participants,
        &spec,
        profile,
        &cal,
        draw.liars.map(|(fraction, speed_factor)| {
            (ByzantineConfig { fraction, speed_factor }, draw.seed)
        }),
    );
    let got = sched.pair(&world, &participants, &est);
    assert_eq!(got.len(), want.len(), "{draw:?}");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            (g.slow, g.fast, g.offload, g.est_time_s.to_bits()),
            (w.slow, w.fast, w.offload, w.est_time_s.to_bits()),
            "{draw:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Every split of ResNet-56 is a candidate.
    #[test]
    fn pair_matches_literal_algorithm_1(draw in draws()) {
        let spec = ModelSpec::resnet56();
        check(draw, &SplitProfile::new(&spec, 100));
    }

    /// A restricted candidate set (what `candidate_offloads` configures).
    #[test]
    fn pair_matches_oracle_on_restricted_splits(draw in draws()) {
        let spec = ModelSpec::resnet56();
        check(draw, &SplitProfile::new(&spec, 100).restrict_to(&[8, 16, 24, 32, 40, 48]));
    }
}

/// Continuous draws on a full mesh are the case the bins exist for:
/// larger worlds, every agent its own class.
#[test]
fn pair_matches_oracle_on_continuous_full_meshes() {
    let spec = ModelSpec::resnet56();
    let profile = SplitProfile::new(&spec, 100);
    for seed in 0..6 {
        for (cpu, link) in [(1, 1), (1, 2), (2, 1), (2, 0)] {
            let draw = Draw {
                k: 160,
                seed,
                cpu,
                link,
                mixed_batches: seed % 2 == 1,
                topology: 0,
                edge_p: 1.0,
                cut: None,
                link_scale: [1.0, 0.4, 2.5][seed as usize % 3],
                liars: None,
                participation: 1.0,
            };
            check(draw, &profile);
        }
    }
}

/// When the slow arm of line 18 dominates, helpers of different speeds tie
/// exactly on the estimate and `(τ̂ⱼ, id)` decides. Here two bins (CPUs
/// 8/8.1 and 16/16.5) both bound at that tied estimate: the bin visited
/// second holds the winner, so a bin bounded at exactly the best time must
/// still be searched.
#[test]
fn a_bin_bounded_at_the_best_time_is_still_searched() {
    let spec = ModelSpec::resnet56();
    let profile = SplitProfile::new(&spec, 100);
    let cal = CostCalibration::default();
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
    let agent = |id, cpus, samples| {
        AgentState::new(AgentId(id), AgentProfile::new(cpus, 10_000.0), samples, 100)
    };
    let agents = vec![
        agent(0, 0.02, 50_000),
        agent(1, 8.0, 100),
        agent(2, 8.1, 100),
        agent(3, 16.0, 100),
        agent(4, 16.5, 100),
    ];
    let k = agents.len();
    let world = World::from_parts(agents, Adjacency::full(k), 1);
    let slow = world.agent(AgentId(0));
    let tied: Vec<u64> = (1..k)
        .map(|j| {
            let fast = world.agent(AgentId(j));
            est.estimate(slow, fast, est.solo_time_s(fast), 10_000.0).est_time_s.to_bits()
        })
        .collect();
    assert!(tied.windows(2).all(|w| w[0] == w[1]), "every helper ties on the estimate");
    let ids: Vec<AgentId> = (0..k).map(AgentId).collect();
    let got = PairingScheduler::new().pair(&world, &ids, &est);
    assert_eq!(got, oracle(&world, &ids, &spec, &profile, &cal, None));
    assert_eq!(got[0].fast, Some(AgentId(4)), "the least-busy helper wins the tie");
}
