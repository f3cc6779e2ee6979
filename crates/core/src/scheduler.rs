use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use comdml_simnet::{AgentId, AgentState, ByzantineConfig, World};

use crate::{EstimateMemo, FnvBuildHasher, SplitDecision, TrainingTimeEstimator};

/// One scheduling decision: a slow agent, its chosen helper (if any), the
/// split, and the estimated completion time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pairing {
    /// The agent whose task is being scheduled.
    pub slow: AgentId,
    /// The helper the suffix is offloaded to (`None` = trains alone).
    pub fast: Option<AgentId>,
    /// Number of offloaded layers (0 when training alone).
    pub offload: usize,
    /// Estimated completion time in seconds (Algorithm 1's `τ̂`).
    pub est_time_s: f64,
}

impl Pairing {
    /// Whether this decision offloads work.
    pub fn is_offloading(&self) -> bool {
        self.fast.is_some() && self.offload > 0
    }
}

/// Alternative pairing orders used by the ablation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairingOrder {
    /// The paper's slowest-first order.
    SlowestFirst,
    /// Agents pair in id order (what a naive static scheme does).
    ByAgentId,
}

/// The dynamic decentralized pairing scheduler (§IV-A, Algorithm 1).
///
/// Every round, agents broadcast their processing speed and estimated solo
/// training time; the scheduler walks the agents in descending order of solo
/// time ("prioritizing the slowest agent first") and lets each still-unpaired
/// agent pick the unpaired, reachable neighbour and split that minimize its
/// estimated time. An agent pairs only when the best option beats training
/// alone; otherwise it trains independently.
///
/// The implementation is deliberately a pure function of shared, local
/// information (speeds, solo times, link speeds) — exactly what each agent
/// could compute for itself in the decentralized protocol.
///
/// # Byzantine misreports
///
/// Because the scheduler trusts the broadcast, it is exactly where lying
/// pays off: [`PairingScheduler::with_misreport`] substitutes a deterministic
/// fraction of agents' *advertised* speeds (and hence their broadcast `τ̂`)
/// with `speed_factor ×` the truth. Every scheduling input — visit order,
/// helper choice, split selection, estimated times — then sees the lie,
/// while round *execution* always runs on the true profiles, so misreports
/// degrade realized round times without touching the physics.
///
/// # Scaling
///
/// Paired-membership checks use O(1) indexed flags. On a full mesh the
/// candidate search is organised by two exact rules:
///
/// * **Classes.** Candidates sharing `(CPU, link, batch size)` — and the
///   side of any active regional cut — form a class. Within a class the
///   helper speed `p_j` and the link `c_ij` are constant and the estimate
///   rises with `τ̂ⱼ`, so only the least-busy unpaired member can win:
///   one estimate per class.
/// * **Bins.** Classes are grouped into geometric bins of
///   `(batch size, ⌊2·log₂ CPU⌋, ⌊2·log₂ link⌋)`. Each bin keeps its
///   fastest *advertised* CPU (liars stay liars) and its fastest link
///   column. For a slow agent `i`, a bin's estimates are bounded below by
///   the estimator evaluated at a virtual helper with that CPU, the link
///   `min(link_i, bin max)` scaled exactly as [`World::link_mbps`] scales
///   it, and the bin's least-busy unpaired `τ̂ⱼ`. Bins are searched in
///   ascending bound order — a bin is first keyed by that `τ̂ⱼ` (the fast
///   arm's floor) and only bounded when the key comes up — and the search
///   stops at the first bound **strictly** greater than the best estimate
///   so far, so a candidate tying it on `(τ̂, τ̂ⱼ, id)` is still found. A
///   one-class bin needs no bound: its class is offered directly, behind
///   the per-class `τ̂ⱼ` prune.
///
/// The bound is exact, not heuristic: every term of line 18 is monotone in
/// `τ̂ⱼ`, `p_j` and `c_ij`, and IEEE round-to-nearest `+ × ÷` and `max` are
/// monotone too, so the bound — evaluated by the same code as every real
/// candidate's estimate — is never above any member's. Pairings are
/// therefore bit-identical to the literal scan, which
/// `tests/pairing_oracle.rs` checks differentially.
///
/// With discrete profile grids every bin is one class and the search is
/// one estimate per class. With continuous `cpu_dist`/`link_dist` draws
/// every agent is its own class, and the bins keep the search far from
/// all-pairs: a unit test pins a 1,000-agent lognormal mesh below a tenth
/// of the n²/2 estimates.
///
/// # Example
///
/// ```
/// use comdml_core::{PairingScheduler, TrainingTimeEstimator};
/// use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
/// use comdml_simnet::WorldConfig;
///
/// let spec = ModelSpec::resnet56();
/// let profile = SplitProfile::new(&spec, 100);
/// let cal = CostCalibration::default();
/// let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
/// let world = WorldConfig::heterogeneous(10, 1).build();
/// let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
/// let pairings = PairingScheduler::new().pair(&world, &ids, &est);
/// assert_eq!(pairings.iter().map(|p| 1 + p.fast.is_some() as usize).sum::<usize>(), 10);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PairingScheduler {
    /// Byzantine speed misreporting applied to the broadcast, as
    /// `(config, salt)`; `None` = everyone is honest.
    misreport: Option<(ByzantineConfig, u64)>,
}

/// The pairing broadcast as the scheduler sees it: true agent states with
/// each liar's advertised state substituted. With no misreport configured
/// the spoof table is empty and every lookup returns the world's state
/// directly, so honest rounds are bit-for-bit unchanged.
struct Broadcast<'w> {
    world: &'w World,
    spoofed: HashMap<usize, AgentState, FnvBuildHasher>,
}

impl<'w> Broadcast<'w> {
    fn new(
        world: &'w World,
        misreport: Option<(ByzantineConfig, u64)>,
        participants: &[AgentId],
    ) -> Self {
        let mut spoofed: HashMap<usize, AgentState, FnvBuildHasher> = HashMap::default();
        if let Some((b, salt)) = misreport {
            if b.fraction > 0.0 && b.speed_factor != 1.0 {
                for &id in participants {
                    if b.is_liar(id.0, salt) {
                        let mut a = world.agent(id).clone();
                        a.profile.cpus *= b.speed_factor;
                        spoofed.insert(id.0, a);
                    }
                }
            }
        }
        Self { world, spoofed }
    }

    /// The state agent `id` broadcast — advertised for liars, true otherwise.
    fn agent(&self, id: AgentId) -> &AgentState {
        if self.spoofed.is_empty() {
            return self.world.agent(id);
        }
        self.spoofed.get(&id.0).unwrap_or_else(|| self.world.agent(id))
    }
}

/// Sorted per-class candidate list with a lazily advancing cursor.
#[derive(Default)]
struct ClassList {
    /// `(solo_time, id)` ascending by solo time, ties by id.
    members: Vec<(f64, AgentId)>,
    cursor: usize,
}

impl ClassList {
    fn sort(&mut self) {
        self.members.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
        });
    }

    /// First unpaired member other than `skip`, without consuming unpaired
    /// entries (the cursor only advances past permanently paired agents).
    fn peek(&mut self, paired: &[bool], skip: AgentId) -> Option<(f64, AgentId)> {
        while self.cursor < self.members.len() && paired[self.members[self.cursor].1 .0] {
            self.cursor += 1;
        }
        let mut i = self.cursor;
        while i < self.members.len() {
            let (solo, id) = self.members[i];
            if !paired[id.0] && id != skip {
                return Some((solo, id));
            }
            i += 1;
        }
        None
    }
}

/// Geometric bins per octave of CPU and of link speed.
const BINS_PER_OCTAVE: f64 = 2.0;

fn octave_bin(x: f64) -> i64 {
    // A dead (0 Mbps) link maps to `i64::MIN`: its own bin.
    (x.log2() * BINS_PER_OCTAVE).floor() as i64
}

/// Profile classes sharing a batch size, a CPU bin, a link bin and a side
/// of any active cut, with what a lower bound on their estimates needs.
struct Bin {
    /// The bin's slice of [`MeshIndex::classes`].
    classes: std::ops::Range<usize>,
    /// Every member in `(solo, id)` order; left empty for a one-class bin,
    /// whose class list serves.
    members: ClassList,
    /// A member with the bin's fastest advertised CPU: the virtual
    /// helper's speed `p_j`.
    helper: AgentState,
    /// The bin's fastest link column.
    max_link: f64,
    /// Whether the bin lies in the region an active cut isolates.
    isolated: bool,
}

/// The full-mesh candidate index: exact profile classes grouped into
/// bins that are visited in ascending order of a lower bound on their
/// members' estimates.
///
/// A one-class bin is a class of a discrete profile grid: every slow agent
/// of one profile asks it the same question, so its estimates go through
/// the [`EstimateMemo`]. A multi-class bin holds continuous draws, where a
/// question is rarely asked twice and memoizing would only fill the memo
/// with up to n²/2 unique keys, so its members are estimated directly.
struct MeshIndex {
    classes: Vec<ClassList>,
    bins: Vec<Bin>,
    cut: Option<(usize, usize)>,
    /// `(bound bits, bin, tightened)` of the multi-class bins still worth
    /// bounding, reused across slow agents.
    visit: BinaryHeap<Reverse<(u64, usize, bool)>>,
}

impl MeshIndex {
    fn new(bcast: &Broadcast<'_>, order: &[(AgentId, f64)]) -> Self {
        let cut = bcast.world.partition();
        let isolated = |id: AgentId| cut.is_some_and(|(groups, region)| id.0 % groups == region);
        // Exact classes: batch_size feeds batches_per_s and the side of a
        // cut decides reachability, so within a class the helper speed p_j
        // and the link are constant and the smallest-τ̂ⱼ member dominates.
        let mut index: HashMap<(u64, u64, usize, bool), usize, FnvBuildHasher> = HashMap::default();
        let mut classes: Vec<ClassList> = Vec::new();
        let mut reps: Vec<AgentId> = Vec::new();
        for &(id, solo) in order {
            let a = bcast.agent(id);
            let key = (
                a.profile.cpus.to_bits(),
                a.profile.link_mbps.to_bits(),
                a.batch_size,
                isolated(id),
            );
            let slot = *index.entry(key).or_insert_with(|| {
                classes.push(ClassList::default());
                reps.push(id);
                classes.len() - 1
            });
            classes[slot].members.push((solo, id));
        }
        let bin_key = |id: AgentId| {
            let a = bcast.agent(id);
            (
                a.batch_size,
                octave_bin(a.profile.cpus),
                octave_bin(a.profile.link_mbps),
                isolated(id),
            )
        };
        let keys: Vec<_> = reps.iter().map(|&id| bin_key(id)).collect();
        let mut by_bin: Vec<usize> = (0..classes.len()).collect();
        by_bin.sort_by_key(|&c| keys[c]);

        let mut sorted: Vec<ClassList> = Vec::with_capacity(classes.len());
        let mut bins: Vec<Bin> = Vec::new();
        for group in by_bin.chunk_by(|&a, &b| keys[a] == keys[b]) {
            let start = sorted.len();
            let mut fastest = reps[group[0]];
            let mut max_link = 0.0f64;
            let mut members = ClassList::default();
            for &c in group {
                let a = bcast.agent(reps[c]);
                if a.profile.cpus > bcast.agent(fastest).profile.cpus {
                    fastest = reps[c];
                }
                max_link = max_link.max(a.profile.link_mbps);
                let mut class = std::mem::take(&mut classes[c]);
                class.sort();
                if group.len() > 1 {
                    members.members.extend_from_slice(&class.members);
                }
                sorted.push(class);
            }
            members.sort();
            bins.push(Bin {
                classes: start..sorted.len(),
                members,
                helper: bcast.agent(fastest).clone(),
                max_link,
                isolated: isolated(fastest),
            });
        }
        Self { classes: sorted, bins, cut, visit: BinaryHeap::new() }
    }

    /// Algorithm 1's candidate search (lines 4-12) for slow agent `i`: the
    /// unpaired partner and split minimizing its estimate, ties broken by
    /// `(τ̂ⱼ, id)`, or `None` when no offload beats `solo_i`.
    fn best_partner(
        &mut self,
        bcast: &Broadcast<'_>,
        estimator: &TrainingTimeEstimator<'_>,
        memo: &mut EstimateMemo,
        paired: &[bool],
        (i, solo_i): (AgentId, f64),
    ) -> Option<(AgentId, SplitDecision)> {
        let world = bcast.world;
        let side = self.cut.is_some_and(|(groups, region)| i.0 % groups == region);
        let mut best = Best::new(bcast, estimator, paired, (i, solo_i));
        self.visit.clear();
        for (b, bin) in self.bins.iter_mut().enumerate() {
            if bin.isolated != side {
                continue; // an active cut severs every link across it
            }
            if bin.classes.len() == 1 {
                // One class: its own τ̂ⱼ prune is as tight as any bound.
                best.offer(&mut self.classes[bin.classes.start], Some(memo));
            } else if let Some((solo_j, _)) = bin.members.peek(paired, i) {
                // The fast arm of line 18 exceeds the least-busy τ̂ⱼ.
                if solo_j < solo_i {
                    self.visit.push(Reverse((solo_j.to_bits(), b, false)));
                }
            }
        }

        let link_i = world.link_classes_mbps()[i.0];
        let scale = world.link_scale();
        // Bounds are non-negative, so their bit patterns order like them.
        while let Some(Reverse((bits, b, tight))) = self.visit.pop() {
            let bound = f64::from_bits(bits);
            // Strictly greater: a bin bounded at exactly the best time may
            // still hold a tie that wins on (τ̂ⱼ, id).
            if bound > best.time {
                break;
            }
            let bin = &self.bins[b];
            if !tight {
                // Tighten: a virtual helper at the bin's fastest CPU and
                // link and its least-busy τ̂ⱼ, linked as `World::link_mbps`
                // links.
                let base = link_i.min(bin.max_link);
                let link = if scale == 1.0 { base } else { base * scale };
                let bound = estimator.estimate(best.slow, &bin.helper, bound, link).est_time_s;
                if bound < solo_i {
                    self.visit.push(Reverse((bound.to_bits(), b, true)));
                }
                continue;
            }
            for class in &mut self.classes[bin.classes.clone()] {
                best.offer(class, None);
            }
        }
        best.choice
    }
}

/// The running argmin of one slow agent's candidate search.
struct Best<'a> {
    bcast: &'a Broadcast<'a>,
    estimator: &'a TrainingTimeEstimator<'a>,
    paired: &'a [bool],
    i: AgentId,
    slow: &'a AgentState,
    solo_i: f64,
    /// The best estimate so far (`solo_i` until an offload wins).
    time: f64,
    /// `(τ̂, τ̂ⱼ, id)` of the choice: ties in estimated time are broken by
    /// `(τ̂ⱼ, id)`, matching the ascending-scan order of the sparse path.
    key: (f64, f64, usize),
    choice: Option<(AgentId, SplitDecision)>,
}

impl<'a> Best<'a> {
    fn new(
        bcast: &'a Broadcast<'a>,
        estimator: &'a TrainingTimeEstimator<'a>,
        paired: &'a [bool],
        (i, solo_i): (AgentId, f64),
    ) -> Self {
        let key = (f64::INFINITY, f64::INFINITY, usize::MAX);
        let slow = bcast.agent(i);
        Self { bcast, estimator, paired, i, slow, solo_i, time: solo_i, key, choice: None }
    }

    /// Offers a class's least-busy unpaired member: within a class it
    /// dominates every other member. `memo` serves the estimate when the
    /// same question is likely to come again (see [`MeshIndex`]).
    fn offer(&mut self, class: &mut ClassList, memo: Option<&mut EstimateMemo>) {
        let Some((solo_j, j)) = class.peek(self.paired, self.i) else { return };
        // Exact prune: the fast arm strictly exceeds τ̂ⱼ, so a candidate
        // this busy can never beat the current best.
        if solo_j >= self.time {
            return;
        }
        let link = self.bcast.world.link_mbps(self.i, j);
        if link <= 0.0 {
            return;
        }
        let fast = self.bcast.agent(j);
        let d = match memo {
            Some(memo) => memo.estimate(self.estimator, self.slow, fast, solo_j, link),
            None => self.estimator.estimate(self.slow, fast, solo_j, link),
        };
        if d.offload == 0 || d.est_time_s >= self.solo_i {
            return;
        }
        let key = (d.est_time_s, solo_j, j.0);
        if key < self.key {
            self.key = key;
            self.time = self.time.min(d.est_time_s);
            self.choice = Some((j, d));
        }
    }
}

impl PairingScheduler {
    /// Creates a scheduler that trusts every broadcast.
    pub fn new() -> Self {
        Self { misreport: None }
    }

    /// Returns a scheduler whose broadcast is poisoned by Byzantine speed
    /// misreports: the deterministic liar set (`config.is_liar(id, salt)`)
    /// advertises `speed_factor ×` its true CPU speed. The salt is
    /// typically the scenario seed, so the liar set varies across seeds but
    /// is identical across threads and replays.
    pub fn with_misreport(config: ByzantineConfig, salt: u64) -> Self {
        Self { misreport: Some((config, salt)) }
    }

    /// Runs one round of pairing over `participants`, slowest first.
    ///
    /// Returns one [`Pairing`] per *slow* agent; agents that act as helpers
    /// appear only in the `fast` field of their partner's pairing. Every
    /// participant appears exactly once across the result.
    pub fn pair(
        &self,
        world: &World,
        participants: &[AgentId],
        estimator: &TrainingTimeEstimator<'_>,
    ) -> Vec<Pairing> {
        let mut memo = EstimateMemo::new();
        let bcast = Broadcast::new(world, self.misreport, participants);
        // Step 1 (line 2): agents broadcast p and τ̂ — compute solo times
        // from the *advertised* states (a liar's τ̂ reflects its lie).
        // Profiles come from small grids and dataset shares from a handful
        // of sizes, so the solo times take few distinct values: grouping by
        // exact value and sorting the distinct keys replaces the
        // O(n log n) comparison sort with O(n + d log d) for d values.
        let mut groups: HashMap<u64, Vec<AgentId>, FnvBuildHasher> = HashMap::default();
        for &id in participants {
            let solo = memo.solo_time_s(estimator, bcast.agent(id));
            groups.entry(solo.to_bits()).or_default().push(id);
        }
        let mut keys: Vec<u64> = groups.keys().copied().collect();
        // Descending order of task completion time (list A); solo times are
        // non-negative, never NaN, and distinct bit patterns are distinct
        // values, so this reproduces the old comparison sort exactly.
        keys.sort_unstable_by(|&a, &b| {
            f64::from_bits(b).partial_cmp(&f64::from_bits(a)).expect("solo times are never NaN")
        });
        let mut order: Vec<(AgentId, f64)> = Vec::with_capacity(participants.len());
        for key in keys {
            let mut ids = groups.remove(&key).expect("key came from the map");
            ids.sort_unstable(); // equal solo times tie-break on ascending id
            let solo = f64::from_bits(key);
            order.extend(ids.into_iter().map(|id| (id, solo)));
        }
        self.pair_ordered(&bcast, &order, estimator, &mut memo)
    }

    /// Like [`PairingScheduler::pair`] but with a configurable visit order —
    /// used by the ablation study to quantify the value of slowest-first.
    pub fn pair_with_order(
        &self,
        world: &World,
        participants: &[AgentId],
        estimator: &TrainingTimeEstimator<'_>,
        order_kind: PairingOrder,
    ) -> Vec<Pairing> {
        match order_kind {
            PairingOrder::SlowestFirst => self.pair(world, participants, estimator),
            PairingOrder::ByAgentId => {
                let mut memo = EstimateMemo::new();
                let bcast = Broadcast::new(world, self.misreport, participants);
                let mut sorted = participants.to_vec();
                sorted.sort();
                let order: Vec<(AgentId, f64)> = sorted
                    .into_iter()
                    .map(|id| (id, memo.solo_time_s(estimator, bcast.agent(id))))
                    .collect();
                self.pair_ordered(&bcast, &order, estimator, &mut memo)
            }
        }
    }

    /// The shared pairing loop: visits agents in the given order, finding
    /// each unpaired one its best unpaired partner.
    fn pair_ordered(
        &self,
        bcast: &Broadcast<'_>,
        order: &[(AgentId, f64)],
        estimator: &TrainingTimeEstimator<'_>,
        memo: &mut EstimateMemo,
    ) -> Vec<Pairing> {
        let world = bcast.world;
        let k = world.num_agents();
        let mut paired = vec![true; k];
        for &(id, _) in order {
            paired[id.0] = false; // participants start unpaired
        }
        let mut mesh = world.adjacency().is_full_mesh().then(|| MeshIndex::new(bcast, order));
        // Sparse fallback: solo times by id for neighbour scans.
        let mut solo_of: Vec<f64> = Vec::new();
        if mesh.is_none() {
            solo_of.resize(k, f64::INFINITY);
            for &(id, solo) in order {
                solo_of[id.0] = solo;
            }
        }

        let mut out = Vec::with_capacity(order.len());
        for &(i, solo_i) in order {
            if paired[i.0] {
                continue;
            }
            let best = if let Some(mesh) = mesh.as_mut() {
                mesh.best_partner(bcast, estimator, memo, &paired, (i, solo_i))
            } else {
                // Neighbour scan in ascending τ̂ⱼ; once τ̂ⱼ crosses the best
                // estimate the rest cannot win (the fast arm exceeds τ̂ⱼ).
                let slow_state = bcast.agent(i);
                let mut best: Option<(AgentId, SplitDecision)> = None;
                let mut best_time = solo_i;
                let mut neighbors: Vec<(f64, AgentId)> = world
                    .adjacency()
                    .neighbors_iter(i.0)
                    .map(AgentId)
                    .filter(|&j| !paired[j.0] && solo_of[j.0].is_finite())
                    .map(|j| (solo_of[j.0], j))
                    .collect();
                neighbors.sort_by(|a, b| {
                    a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
                });
                for (solo_j, j) in neighbors {
                    if solo_j >= best_time {
                        break;
                    }
                    let link = world.link_mbps(i, j);
                    if link <= 0.0 {
                        continue;
                    }
                    let d = memo.estimate(estimator, slow_state, bcast.agent(j), solo_j, link);
                    if d.offload == 0 {
                        continue;
                    }
                    if d.est_time_s < best_time {
                        best_time = d.est_time_s;
                        best = Some((j, d));
                    }
                }
                best
            };

            match best {
                // Lines 13-14: pair with j* when offloading wins.
                Some((j, d)) => {
                    paired[i.0] = true;
                    paired[j.0] = true;
                    out.push(Pairing {
                        slow: i,
                        fast: Some(j),
                        offload: d.offload,
                        est_time_s: d.est_time_s,
                    });
                }
                None => {
                    paired[i.0] = true;
                    out.push(Pairing { slow: i, fast: None, offload: 0, est_time_s: solo_i });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
    use comdml_simnet::{Adjacency, AgentProfile, AgentState, Topology, WorldConfig};

    fn fixtures() -> (ModelSpec, SplitProfile, CostCalibration) {
        let spec = ModelSpec::resnet56();
        let profile = SplitProfile::new(&spec, 100);
        (spec, profile, CostCalibration::default())
    }

    fn two_agent_world(cpu_a: f64, cpu_b: f64, link: f64) -> World {
        let agents = vec![
            AgentState::new(AgentId(0), AgentProfile::new(cpu_a, link), 5000, 100),
            AgentState::new(AgentId(1), AgentProfile::new(cpu_b, link), 5000, 100),
        ];
        let adj = Adjacency::from_matrix(vec![vec![false, true], vec![true, false]]);
        World::from_parts(agents, adj, 0)
    }

    #[test]
    fn every_participant_appears_exactly_once() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(20, 3).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let pairings = PairingScheduler::new().pair(&world, &ids, &est);
        let mut seen = Vec::new();
        for p in &pairings {
            assert!(!seen.contains(&p.slow));
            seen.push(p.slow);
            if let Some(f) = p.fast {
                assert!(!seen.contains(&f));
                seen.push(f);
            }
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn heterogeneous_pair_offloads() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = two_agent_world(0.2, 4.0, 100.0);
        let pairings = PairingScheduler::new().pair(&world, &[AgentId(0), AgentId(1)], &est);
        assert_eq!(pairings.len(), 1);
        let p = pairings[0];
        assert_eq!(p.slow, AgentId(0));
        assert_eq!(p.fast, Some(AgentId(1)));
        assert!(p.offload > 0);
    }

    #[test]
    fn homogeneous_agents_train_alone() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = two_agent_world(1.0, 1.0, 100.0);
        let pairings = PairingScheduler::new().pair(&world, &[AgentId(0), AgentId(1)], &est);
        assert_eq!(pairings.len(), 2);
        assert!(pairings.iter().all(|p| p.fast.is_none()));
    }

    #[test]
    fn disconnected_agents_cannot_pair() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let agents = vec![
            AgentState::new(AgentId(0), AgentProfile::new(0.2, 100.0), 5000, 100),
            AgentState::new(AgentId(1), AgentProfile::new(4.0, 100.0), 5000, 100),
        ];
        // No topology edge between them.
        let adj = Adjacency::from_matrix(vec![vec![false, false], vec![false, false]]);
        let world = World::from_parts(agents, adj, 0);
        let pairings = PairingScheduler::new().pair(&world, &[AgentId(0), AgentId(1)], &est);
        assert!(pairings.iter().all(|p| p.fast.is_none()));
    }

    #[test]
    fn slowest_agent_gets_first_pick() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        // One very fast helper, two slow agents; the slowest must claim it.
        let agents = vec![
            AgentState::new(AgentId(0), AgentProfile::new(0.5, 100.0), 5000, 100),
            AgentState::new(AgentId(1), AgentProfile::new(0.2, 100.0), 5000, 100),
            AgentState::new(AgentId(2), AgentProfile::new(4.0, 100.0), 2000, 100),
        ];
        let adj = Adjacency::from_matrix(vec![
            vec![false, true, true],
            vec![true, false, true],
            vec![true, true, false],
        ]);
        let world = World::from_parts(agents, adj, 0);
        let pairings =
            PairingScheduler::new().pair(&world, &[AgentId(0), AgentId(1), AgentId(2)], &est);
        let offloader = pairings.iter().find(|p| p.fast.is_some()).expect("one pair forms");
        assert_eq!(offloader.slow, AgentId(1), "the 0.2-CPU agent pairs first");
        assert_eq!(offloader.fast, Some(AgentId(2)));
    }

    #[test]
    fn pairing_reduces_estimated_makespan() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(10, 7).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let pairings = PairingScheduler::new().pair(&world, &ids, &est);
        let max_est = pairings.iter().map(|p| p.est_time_s).fold(0.0, f64::max);
        let max_solo = ids.iter().map(|&id| est.solo_time_s(world.agent(id))).fold(0.0, f64::max);
        assert!(
            max_est < max_solo,
            "balancing should shrink the straggler: {max_est} vs {max_solo}"
        );
    }

    #[test]
    fn id_order_is_no_better_than_slowest_first() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(20, 9).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let sched = PairingScheduler::new();
        let slowest = sched.pair_with_order(&world, &ids, &est, PairingOrder::SlowestFirst);
        let by_id = sched.pair_with_order(&world, &ids, &est, PairingOrder::ByAgentId);
        let makespan = |ps: &[Pairing]| ps.iter().map(|p| p.est_time_s).fold(0.0, f64::max);
        assert!(makespan(&slowest) <= makespan(&by_id) + 1e-9);
    }

    #[test]
    fn full_mesh_and_matrix_mesh_agree() {
        // The class-pruned fast path must pick the same matching as the
        // generic neighbour scan on an explicit all-ones matrix.
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        for seed in 0..10 {
            let implicit = WorldConfig::heterogeneous(24, seed).build();
            assert!(implicit.adjacency().is_full_mesh());
            let k = implicit.num_agents();
            let matrix: Vec<Vec<bool>> = (0..k).map(|i| (0..k).map(|j| i != j).collect()).collect();
            let explicit =
                World::from_parts(implicit.agents().to_vec(), Adjacency::from_matrix(matrix), seed);
            let ids: Vec<AgentId> = implicit.agents().iter().map(|a| a.id).collect();
            let sched = PairingScheduler::new();
            let a = sched.pair(&implicit, &ids, &est);
            let b = sched.pair(&explicit, &ids, &est);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn mixed_batch_sizes_keep_fast_path_exact() {
        // batches_per_s depends on batch_size, so it is part of the class
        // identity; agents sharing (CPU, link) but not batch size must not
        // shadow each other in the full-mesh fast path.
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let mut agents = Vec::new();
        for i in 0..12 {
            let cpus = [0.2, 0.5, 4.0][i % 3];
            let batch = [50, 100][i % 2];
            agents.push(AgentState::new(AgentId(i), AgentProfile::new(cpus, 100.0), 5000, batch));
        }
        let k = agents.len();
        let implicit = World::from_parts(agents.clone(), Adjacency::full(k), 1);
        let matrix: Vec<Vec<bool>> = (0..k).map(|i| (0..k).map(|j| i != j).collect()).collect();
        let explicit = World::from_parts(agents, Adjacency::from_matrix(matrix), 1);
        let ids: Vec<AgentId> = (0..k).map(AgentId).collect();
        let sched = PairingScheduler::new();
        assert_eq!(sched.pair(&implicit, &ids, &est), sched.pair(&explicit, &ids, &est));
    }

    #[test]
    fn continuous_full_mesh_pairing_is_not_all_pairs() {
        // Lognormal CPU and uniform links make every agent its own profile
        // class; the bins' lower bound must still keep one pairing call far
        // below the n²/2 estimates of an all-pairs scan.
        use comdml_simnet::DistributionConfig;
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let n = 1_000;
        let world = WorldConfig::heterogeneous(n, 1)
            .total_samples(5_000 * n)
            .cpu_dist(DistributionConfig::LogNormal { mu: 0.3, sigma: 0.6 })
            .link_dist(DistributionConfig::Uniform { min: 5.0, max: 100.0 })
            .build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let before = crate::estimator::EVALUATIONS.with(|c| c.get());
        let pairings = PairingScheduler::new().pair(&world, &ids, &est);
        let evaluations = crate::estimator::EVALUATIONS.with(|c| c.get()) - before;
        let all_pairs = (n * n / 2) as u64;
        assert!(pairings.iter().any(Pairing::is_offloading));
        assert!(
            evaluations <= all_pairs / 10,
            "{evaluations} estimates for {n} agents (all-pairs: {all_pairs})"
        );
    }

    #[test]
    fn zero_fraction_misreport_is_bit_identical_to_honest() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(20, 3).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let honest = PairingScheduler::new().pair(&world, &ids, &est);
        let zero = PairingScheduler::with_misreport(
            ByzantineConfig { fraction: 0.0, speed_factor: 4.0 },
            7,
        )
        .pair(&world, &ids, &est);
        let unit = PairingScheduler::with_misreport(
            ByzantineConfig { fraction: 0.5, speed_factor: 1.0 },
            7,
        )
        .pair(&world, &ids, &est);
        assert_eq!(honest, zero);
        assert_eq!(honest, unit, "speed_factor 1.0 is not a lie");
    }

    #[test]
    fn liar_advertising_speed_attracts_an_offload() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        // Agent 1 is truly as slow as agent 0 (no pairing wins honestly),
        // but a lying agent 1 advertising 20× speed looks like a great
        // helper — the scheduler falls for it.
        let world = two_agent_world(0.2, 0.2, 100.0);
        let honest = PairingScheduler::new().pair(&world, &[AgentId(0), AgentId(1)], &est);
        assert!(honest.iter().all(|p| p.fast.is_none()), "equals never pair honestly");
        // Find a salt whose liar set is exactly {agent 1}.
        let b = ByzantineConfig { fraction: 0.5, speed_factor: 20.0 };
        let salt = (0..200u64)
            .find(|&s| !b.is_liar(0, s) && b.is_liar(1, s))
            .expect("some salt selects only agent 1");
        let fooled =
            PairingScheduler::with_misreport(b, salt).pair(&world, &[AgentId(0), AgentId(1)], &est);
        let p = fooled.iter().find(|p| p.fast.is_some()).expect("the lie attracts an offload");
        assert_eq!(p.slow, AgentId(0));
        assert_eq!(p.fast, Some(AgentId(1)));
        assert!(p.offload > 0);
        assert!(
            p.est_time_s < honest[0].est_time_s,
            "the advertised estimate looks better than honest reality"
        );
    }

    #[test]
    fn misreported_pairings_are_deterministic_and_well_formed() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(30, 11).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let sched = PairingScheduler::with_misreport(
            ByzantineConfig { fraction: 0.3, speed_factor: 8.0 },
            11,
        );
        let a = sched.pair(&world, &ids, &est);
        let b = sched.pair(&world, &ids, &est);
        assert_eq!(a, b);
        let mut seen = Vec::new();
        for p in &a {
            seen.push(p.slow);
            seen.extend(p.fast);
        }
        seen.sort();
        let mut expect = ids.clone();
        expect.sort();
        assert_eq!(seen, expect, "every participant appears exactly once");
        assert_ne!(
            a,
            PairingScheduler::new().pair(&world, &ids, &est),
            "a 30%-liar fleet must change some pairing decision"
        );
    }

    #[test]
    fn partial_participation_only_pairs_participants() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(30, 5).topology(Topology::Full).build();
        let participants: Vec<AgentId> = (0..30).step_by(3).map(AgentId).collect();
        let pairings = PairingScheduler::new().pair(&world, &participants, &est);
        let mut seen: Vec<AgentId> = Vec::new();
        for p in &pairings {
            seen.push(p.slow);
            seen.extend(p.fast);
        }
        seen.sort();
        assert_eq!(seen, participants, "non-participants must never be drafted");
    }
}
