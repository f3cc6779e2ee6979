use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml_simnet::AgentState;

/// The outcome of evaluating all candidate splits for one (slow, fast) pair:
/// the best estimated round time and the split that achieves it.
///
/// `offload == 0` means pairing does not help — the slow agent should train
/// alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitDecision {
    /// Estimated training time of the pair under the best split (seconds).
    pub est_time_s: f64,
    /// Number of layers to offload (`m*`).
    pub offload: usize,
}

/// Solo training time `τ̂ = Ñ / p` of `agent` on the whole `spec` model —
/// needs no split profile, so the fleet harness can bound its first
/// planning horizon whatever engine it drives.
pub(crate) fn solo_time_s(spec: &ModelSpec, cal: &CostCalibration, agent: &AgentState) -> f64 {
    agent.num_batches() as f64
        / cal.batches_per_s(spec.train_flops_per_sample(), agent.batch_size, agent.profile.cpus)
}

/// Algorithm 1's `AgentTrainingTime` function.
///
/// For every candidate split `m` the estimator converts full-model
/// processing speeds into split speeds via the profile's relative times
/// (`pᵐ = p / Tᵐ`, lines 16–17) and evaluates
///
/// ```text
/// τ̂ᵢⱼᵐ = max( Ñᵢ / pᵢᵐ ,  τ̂ⱼ + Ñᵢ·νₘ / cᵢⱼ + Ñᵢ / pⱼᵐ )   (line 18)
/// ```
///
/// — the slow side computes its prefix in parallel (left arm) while the
/// fast side first finishes its own task `τ̂ⱼ`, receives `Ñᵢ` activations of
/// `νₘ` bytes over the `cᵢⱼ` link, and trains the offloaded suffix (right
/// arm). The returned decision minimizes over `m` (lines 20–21).
///
/// # Example
///
/// ```
/// use comdml_core::TrainingTimeEstimator;
/// use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
/// use comdml_simnet::{AgentId, AgentProfile, AgentState};
///
/// let spec = ModelSpec::resnet56();
/// let profile = SplitProfile::new(&spec, 100);
/// let cal = CostCalibration::default();
/// let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
///
/// let slow = AgentState::new(AgentId(0), AgentProfile::new(0.25, 50.0), 5000, 100);
/// let fast = AgentState::new(AgentId(1), AgentProfile::new(2.0, 50.0), 5000, 100);
/// let solo = est.solo_time_s(&slow);
/// let d = est.estimate(&slow, &fast, est.solo_time_s(&fast), 50.0);
/// assert!(d.est_time_s < solo); // offloading helps a 8x-slower agent
/// assert!(d.offload > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TrainingTimeEstimator<'a> {
    spec: &'a ModelSpec,
    profile: &'a SplitProfile,
    cal: &'a CostCalibration,
}

impl<'a> TrainingTimeEstimator<'a> {
    /// Creates an estimator over a model spec, its split profile and a cost
    /// calibration.
    pub fn new(spec: &'a ModelSpec, profile: &'a SplitProfile, cal: &'a CostCalibration) -> Self {
        Self { spec, profile, cal }
    }

    /// The model spec being scheduled.
    pub fn spec(&self) -> &ModelSpec {
        self.spec
    }

    /// The split profile in use.
    pub fn profile(&self) -> &SplitProfile {
        self.profile
    }

    /// Full-model processing speed of an agent in batches per second
    /// (the paper's `p`).
    pub fn batches_per_s(&self, agent: &AgentState) -> f64 {
        self.cal.batches_per_s(
            self.spec.train_flops_per_sample(),
            agent.batch_size,
            agent.profile.cpus,
        )
    }

    /// Solo training time `τ̂ = Ñ / p`: one local epoch without offloading.
    pub fn solo_time_s(&self, agent: &AgentState) -> f64 {
        solo_time_s(self.spec, self.cal, agent)
    }

    /// Evaluates all splits for slow agent `i` offloading to fast agent `j`
    /// whose own task takes `fast_solo_s`, over a `link_mbps` link.
    ///
    /// Returns the best decision; with a dead link (0 Mbps) or when no split
    /// beats training alone, the decision has `offload == 0` and the solo
    /// time.
    pub fn estimate(
        &self,
        slow: &AgentState,
        fast: &AgentState,
        fast_solo_s: f64,
        link_mbps: f64,
    ) -> SplitDecision {
        #[cfg(test)]
        EVALUATIONS.with(|n| n.set(n.get() + 1));
        let n_i = slow.num_batches() as f64;
        let p_i = self.batches_per_s(slow);
        let p_j = self.batches_per_s(fast);
        let link_bytes_s = self.cal.bytes_per_s(link_mbps);
        let solo = n_i / p_i;

        let mut best = SplitDecision { est_time_s: solo, offload: 0 };
        if link_bytes_s <= 0.0 {
            return best;
        }
        for e in self.profile.iter() {
            if e.offload == 0 {
                continue;
            }
            // Lines 16-17: convert full-model speeds into split-side speeds.
            let slow_arm = if e.t_slow_rel > 0.0 { n_i * e.t_slow_rel / p_i } else { 0.0 };
            let comm = n_i * e.nu_bytes_per_batch as f64 / link_bytes_s;
            let fast_arm = fast_solo_s + comm + n_i * e.t_fast_rel / p_j;
            // Line 18: parallel arms.
            let t = slow_arm.max(fast_arm);
            if t < best.est_time_s {
                best = SplitDecision { est_time_s: t, offload: e.offload };
            }
        }
        best
    }
}

#[cfg(test)]
thread_local! {
    /// [`TrainingTimeEstimator::estimate`] calls made on this thread, so
    /// unit tests can pin the scheduler's work independently of wall time.
    pub(crate) static EVALUATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Fowler–Noll–Vo hasher for the memo keys below: the keys are short
/// tuples of raw bit patterns, where FNV beats SipHash by a wide margin and
/// the DoS resistance SipHash buys is irrelevant.
#[derive(Default)]
pub struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for [`FnvHasher`]-keyed maps.
pub type FnvBuildHasher = std::hash::BuildHasherDefault<FnvHasher>;

type SoloKey = (u64, usize, usize);
type EstimateKey = (SoloKey, u64, usize, u64, u64);

/// Memoizes [`TrainingTimeEstimator`] evaluations on their *exact* input
/// bit patterns.
///
/// A fleet draws profiles from small grids (5 CPU classes × 5 link classes)
/// and dataset shares from a handful of sizes, so a million-agent pairing
/// round asks the estimator the same few thousand questions millions of
/// times. Keying on the raw bits (`f64::to_bits`) makes a memo hit return
/// the identical `SplitDecision` the direct call would compute — results
/// are bit-for-bit unchanged, only cheaper.
///
/// The memo is scoped by its owner (the scheduler builds one per pairing
/// round), so profile churn between rounds can never serve stale entries
/// with matching keys — a key *is* the full input.
#[derive(Debug, Default)]
pub struct EstimateMemo {
    solo: std::collections::HashMap<SoloKey, f64, FnvBuildHasher>,
    estimate: std::collections::HashMap<EstimateKey, SplitDecision, FnvBuildHasher>,
}

impl EstimateMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    fn solo_key(agent: &AgentState) -> SoloKey {
        (agent.profile.cpus.to_bits(), agent.batch_size, agent.num_batches())
    }

    /// Memoized [`TrainingTimeEstimator::solo_time_s`].
    pub fn solo_time_s(&mut self, est: &TrainingTimeEstimator<'_>, agent: &AgentState) -> f64 {
        *self.solo.entry(Self::solo_key(agent)).or_insert_with(|| est.solo_time_s(agent))
    }

    /// Memoized [`TrainingTimeEstimator::estimate`].
    pub fn estimate(
        &mut self,
        est: &TrainingTimeEstimator<'_>,
        slow: &AgentState,
        fast: &AgentState,
        fast_solo_s: f64,
        link_mbps: f64,
    ) -> SplitDecision {
        let key = (
            Self::solo_key(slow),
            fast.profile.cpus.to_bits(),
            fast.batch_size,
            fast_solo_s.to_bits(),
            link_mbps.to_bits(),
        );
        *self
            .estimate
            .entry(key)
            .or_insert_with(|| est.estimate(slow, fast, fast_solo_s, link_mbps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comdml_simnet::{AgentId, AgentProfile};

    fn fixtures() -> (ModelSpec, SplitProfile, CostCalibration) {
        let spec = ModelSpec::resnet56();
        let profile = SplitProfile::new(&spec, 100);
        (spec, profile, CostCalibration::default())
    }

    fn agent(id: usize, cpus: f64, link: f64, samples: usize) -> AgentState {
        AgentState::new(AgentId(id), AgentProfile::new(cpus, link), samples, 100)
    }

    #[test]
    fn solo_time_scales_with_batches_and_speed() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let a = agent(0, 1.0, 50.0, 5000);
        let b = agent(1, 2.0, 50.0, 5000);
        assert!((est.solo_time_s(&a) / est.solo_time_s(&b) - 2.0).abs() < 1e-9);
        let c = agent(2, 1.0, 50.0, 10_000);
        assert!((est.solo_time_s(&c) / est.solo_time_s(&a) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slow_agent_offloads_to_fast_idle_agent() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let slow = agent(0, 0.2, 100.0, 5000);
        let fast = agent(1, 4.0, 100.0, 5000);
        let d = est.estimate(&slow, &fast, est.solo_time_s(&fast), 100.0);
        assert!(d.offload > 0, "should offload, got {d:?}");
        assert!(d.est_time_s < est.solo_time_s(&slow) * 0.5, "should cut time at least in half");
    }

    #[test]
    fn equal_agents_gain_little() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let a = agent(0, 1.0, 50.0, 5000);
        let b = agent(1, 1.0, 50.0, 5000);
        let d = est.estimate(&a, &b, est.solo_time_s(&b), 50.0);
        // The partner is equally busy: any offload mostly queues behind the
        // partner's own task.
        assert!(d.est_time_s >= est.solo_time_s(&a) * 0.8);
    }

    #[test]
    fn dead_link_forces_solo_training() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let slow = agent(0, 0.2, 0.0, 5000);
        let fast = agent(1, 4.0, 100.0, 5000);
        let d = est.estimate(&slow, &fast, est.solo_time_s(&fast), 0.0);
        assert_eq!(d.offload, 0);
        assert!((d.est_time_s - est.solo_time_s(&slow)).abs() < 1e-9);
    }

    #[test]
    fn faster_link_never_hurts() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let slow = agent(0, 0.5, 100.0, 5000);
        let fast = agent(1, 4.0, 100.0, 5000);
        let solo_fast = est.solo_time_s(&fast);
        let mut prev = f64::INFINITY;
        for mbps in [10.0, 20.0, 50.0, 100.0] {
            let d = est.estimate(&slow, &fast, solo_fast, mbps);
            assert!(d.est_time_s <= prev + 1e-9, "time should not increase with bandwidth");
            prev = d.est_time_s;
        }
    }

    #[test]
    fn busier_partner_reduces_offload_benefit() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let slow = agent(0, 0.2, 100.0, 5000);
        let fast = agent(1, 4.0, 100.0, 5000);
        let d_idle = est.estimate(&slow, &fast, 0.0, 100.0);
        let d_busy = est.estimate(&slow, &fast, 10_000.0, 100.0);
        assert!(d_idle.est_time_s < d_busy.est_time_s);
    }

    #[test]
    fn memo_returns_bit_identical_decisions() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let mut memo = EstimateMemo::new();
        let agents: Vec<AgentState> = (0..8)
            .map(|i| agent(i, [0.2, 0.5, 1.0, 4.0][i % 4], 50.0, 4000 + 500 * (i % 3)))
            .collect();
        for s in &agents {
            assert_eq!(memo.solo_time_s(&est, s).to_bits(), est.solo_time_s(s).to_bits());
            for f in &agents {
                for link in [10.0, 50.0] {
                    let solo_f = est.solo_time_s(f);
                    // Ask twice: the second answer comes from the memo.
                    let direct = est.estimate(s, f, solo_f, link);
                    for _ in 0..2 {
                        let memoed = memo.estimate(&est, s, f, solo_f, link);
                        assert_eq!(memoed.offload, direct.offload);
                        assert_eq!(memoed.est_time_s.to_bits(), direct.est_time_s.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn restricting_splits_still_finds_a_decision() {
        let (spec, profile, cal) = fixtures();
        let restricted = profile.restrict_to(&[10, 28, 46]);
        let est = TrainingTimeEstimator::new(&spec, &restricted, &cal);
        let slow = agent(0, 0.2, 100.0, 5000);
        let fast = agent(1, 4.0, 100.0, 5000);
        let d = est.estimate(&slow, &fast, est.solo_time_s(&fast), 100.0);
        assert!([0, 10, 28, 46].contains(&d.offload));
    }
}
