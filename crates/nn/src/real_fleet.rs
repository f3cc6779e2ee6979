use comdml_collective::halving_doubling_allreduce;
use comdml_data::{
    iid_partition, Batcher, DatasetSpec, DirichletPartitioner, SyntheticImageDataset,
};
use comdml_tensor::ParamVec;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{accuracy, models, LocalLossSplit, Sequential, SgdPair, Trainer};

/// Configuration of a real (gradient-descent) ComDML fleet.
#[derive(Debug, Clone)]
pub struct RealFleetConfig {
    /// Number of agents (must be even so pairs form cleanly).
    pub num_agents: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum (0.9 in the paper).
    pub momentum: f32,
    /// Layers offloaded by each slow agent (0 = no split training anywhere).
    pub offload: usize,
    /// RNG seed for data, models and pairing.
    pub seed: u64,
    /// IID split if true, Dirichlet(alpha) label skew otherwise.
    pub iid: bool,
    /// Dirichlet concentration for the non-IID split.
    pub alpha: f64,
    /// Gaussian noise std added to activations crossing each cut (a privacy
    /// protection for slow agents, §IV-C; 0 disables it).
    pub activation_noise_std: f32,
}

impl Default for RealFleetConfig {
    fn default() -> Self {
        Self {
            num_agents: 4,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            offload: 3,
            seed: 7,
            iid: true,
            alpha: 0.5,
            activation_noise_std: 0.0,
        }
    }
}

/// Transform applied to every input batch before training (e.g. patch
/// shuffling).
pub type InputHook = Box<dyn FnMut(&comdml_tensor::Tensor) -> comdml_tensor::Tensor + Send>;

/// Transform applied to every agent's flattened parameters before they are
/// released into aggregation (e.g. differential-privacy noise).
pub type ParamHook = Box<dyn FnMut(&mut [f32]) + Send>;

/// Report of a real-fleet run: accuracy trajectory plus the per-side losses
/// that the convergence claims of Theorem 1 are about.
#[derive(Debug, Clone, PartialEq)]
pub struct RealFleetReport {
    /// Global-model accuracy after each round.
    pub round_accuracies: Vec<f32>,
    /// Mean slow-side auxiliary loss per round.
    pub slow_losses: Vec<f32>,
    /// Mean fast-side loss per round.
    pub fast_losses: Vec<f32>,
}

impl RealFleetReport {
    /// Accuracy after the final round.
    pub fn final_accuracy(&self) -> f32 {
        self.round_accuracies.last().copied().unwrap_or(0.0)
    }
}

enum AgentModel {
    Plain(Trainer),
    Split(Box<LocalLossSplit>, SgdPair),
}

/// A fleet of agents running the ComDML protocol with *real* gradient
/// descent on the miniature synthetic dataset.
///
/// Odd-indexed agents act as slow agents offloading `config.offload` layers
/// to their even-indexed partner's hardware; numerically the split model's
/// parameters live together, which is exactly what the converged system
/// computes. After every round, all agents AllReduce-average their
/// global-model parameters (§IV-B) using the same halving/doubling
/// implementation the simulator accounts for.
///
/// # Example
///
/// ```
/// use comdml_nn::{RealFleetConfig, RealSplitFleet};
///
/// let mut fleet = RealSplitFleet::new(RealFleetConfig {
///     num_agents: 2,
///     ..RealFleetConfig::default()
/// });
/// let report = fleet.run(2);
/// assert_eq!(report.round_accuracies.len(), 2);
/// ```
pub struct RealSplitFleet {
    agents: Vec<AgentModel>,
    batchers: Vec<Batcher>,
    dataset: SyntheticImageDataset,
    eval_model: Sequential,
    eval_set: SyntheticImageDataset,
    input_hook: Option<InputHook>,
    param_hook: Option<ParamHook>,
}

impl std::fmt::Debug for RealSplitFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RealSplitFleet")
            .field("num_agents", &self.agents.len())
            .field("train_samples", &self.dataset.len())
            .finish()
    }
}

impl RealSplitFleet {
    /// Builds the fleet: synthetic data, partition, identical initial models
    /// (all agents start from the same weights, as after a first broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `num_agents` is zero.
    pub fn new(config: RealFleetConfig) -> Self {
        assert!(config.num_agents > 0, "need at least one agent");
        let spec = DatasetSpec::miniature();
        let dataset = SyntheticImageDataset::generate(&spec, config.seed);
        let eval_set = SyntheticImageDataset::generate(&spec, config.seed ^ 0xdead_beef);

        let parts = if config.iid {
            iid_partition(dataset.len(), config.num_agents, config.seed)
        } else {
            DirichletPartitioner::new(config.alpha, config.seed)
                .partition(dataset.labels(), config.num_agents)
        };
        let batchers: Vec<Batcher> = parts
            .into_iter()
            .enumerate()
            .map(|(i, p)| Batcher::new(p, config.batch_size, config.seed.wrapping_add(i as u64)))
            .collect();

        // All agents share the same initial weights: build from one seed.
        let arch = |rng: &mut StdRng| models::tiny_cnn(spec.channels, spec.num_classes, rng);
        let mut agents = Vec::with_capacity(config.num_agents);
        for i in 0..config.num_agents {
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed);
            let model = arch(&mut rng);
            let is_slow = i % 2 == 1 && config.offload > 0 && config.offload < model.len();
            if is_slow {
                let mut split = LocalLossSplit::from_sequential(
                    model,
                    config.offload,
                    spec.num_classes,
                    &mut rng,
                )
                .expect("offload validated above");
                if config.activation_noise_std > 0.0 {
                    split.set_activation_noise(
                        config.activation_noise_std,
                        config.seed.wrapping_add(i as u64),
                    );
                }
                agents.push(AgentModel::Split(
                    Box::new(split),
                    SgdPair::new(config.lr, config.momentum),
                ));
            } else {
                agents.push(AgentModel::Plain(Trainer::new(model, config.lr, config.momentum)));
            }
        }
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed);
        let eval_model = arch(&mut rng);

        Self { agents, batchers, dataset, eval_model, eval_set, input_hook: None, param_hook: None }
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.agents.len()
    }

    /// Installs an input transform applied to every training batch (e.g.
    /// [`patch shuffling`](https://doi.org/10.1109/ICDM54844.2022.00074)).
    pub fn set_input_hook(&mut self, hook: InputHook) {
        self.input_hook = Some(hook);
    }

    /// Installs a parameter transform applied to every agent's released
    /// model before aggregation (e.g. differential-privacy noise).
    pub fn set_param_hook(&mut self, hook: ParamHook) {
        self.param_hook = Some(hook);
    }

    /// Distance-correlation probe: the slow-side activation that a paired
    /// fast agent would observe for `n` evaluation samples, alongside the
    /// raw inputs — feed both to `comdml_privacy::distance_correlation`.
    ///
    /// Returns `None` if the fleet has no split (slow) agent.
    pub fn leakage_probe(
        &mut self,
        n: usize,
    ) -> Option<(comdml_tensor::Tensor, comdml_tensor::Tensor)> {
        let idx: Vec<usize> = (0..self.eval_set.len().min(n)).collect();
        let (x, _) = self.eval_set.batch(&idx);
        for agent in self.agents.iter_mut() {
            if let AgentModel::Split(split, _) = agent {
                let z = split.slow_activation(&x).expect("consistent shapes");
                return Some((x, z));
            }
        }
        None
    }

    /// Runs `rounds` rounds of local training + AllReduce aggregation.
    pub fn run(&mut self, rounds: usize) -> RealFleetReport {
        let mut report = RealFleetReport {
            round_accuracies: Vec::with_capacity(rounds),
            slow_losses: Vec::with_capacity(rounds),
            fast_losses: Vec::with_capacity(rounds),
        };
        for _ in 0..rounds {
            let (slow_loss, fast_loss) = self.train_round();
            self.aggregate();
            report.slow_losses.push(slow_loss);
            report.fast_losses.push(fast_loss);
            report.round_accuracies.push(self.evaluate());
        }
        report
    }

    fn train_round(&mut self) -> (f32, f32) {
        let mut slow_sum = 0.0f32;
        let mut slow_n = 0usize;
        let mut fast_sum = 0.0f32;
        let mut fast_n = 0usize;
        for (agent, batcher) in self.agents.iter_mut().zip(self.batchers.iter_mut()) {
            for batch in batcher.epoch() {
                let (mut x, y) = self.dataset.batch(&batch);
                if let Some(hook) = self.input_hook.as_mut() {
                    x = hook(&x);
                }
                match agent {
                    AgentModel::Plain(trainer) => {
                        let loss = trainer.step(&x, &y).expect("shapes are consistent");
                        fast_sum += loss;
                        fast_n += 1;
                    }
                    AgentModel::Split(split, opts) => {
                        let losses = split.train_step(&x, &y, opts).expect("shapes are consistent");
                        slow_sum += losses.slow_loss;
                        slow_n += 1;
                        fast_sum += losses.fast_loss;
                        fast_n += 1;
                    }
                }
            }
        }
        (
            if slow_n > 0 { slow_sum / slow_n as f32 } else { 0.0 },
            if fast_n > 0 { fast_sum / fast_n as f32 } else { 0.0 },
        )
    }

    fn aggregate(&mut self) {
        let mut bufs: Vec<Vec<f32>> = self
            .agents
            .iter()
            .map(|a| match a {
                AgentModel::Plain(t) => {
                    ParamVec::flatten(&t.model().parameters()).values().to_vec()
                }
                AgentModel::Split(s, _) => {
                    ParamVec::flatten(&s.full_parameters()).values().to_vec()
                }
            })
            .collect();
        if let Some(hook) = self.param_hook.as_mut() {
            for buf in &mut bufs {
                hook(buf);
            }
        }
        halving_doubling_allreduce(&mut bufs).expect("equal-length parameter buffers");
        let shapes: Vec<Vec<usize>> = match &self.agents[0] {
            AgentModel::Plain(t) => {
                t.model().parameters().iter().map(|p| p.shape().to_vec()).collect()
            }
            AgentModel::Split(s, _) => {
                s.full_parameters().iter().map(|p| p.shape().to_vec()).collect()
            }
        };
        for (agent, buf) in self.agents.iter_mut().zip(bufs) {
            let pv = ParamVec::from_parts(buf, shapes.clone()).expect("allreduce preserves length");
            let params = pv.unflatten().expect("shapes recorded at flatten time");
            match agent {
                AgentModel::Plain(t) => {
                    t.model_mut().set_parameters(&params).expect("same architecture")
                }
                AgentModel::Split(s, _) => {
                    s.set_full_parameters(&params).expect("same architecture")
                }
            }
        }
    }

    /// Global-model accuracy on the held-out evaluation set.
    pub fn evaluate(&mut self) -> f32 {
        // After aggregation every agent holds the same global model; read it
        // from agent 0 into the evaluation architecture.
        let params = match &self.agents[0] {
            AgentModel::Plain(t) => t.model().parameters(),
            AgentModel::Split(s, _) => s.full_parameters(),
        };
        self.eval_model.set_parameters(&params).expect("same architecture");
        let idx: Vec<usize> = (0..self.eval_set.len().min(256)).collect();
        let (x, y) = self.eval_set.batch(&idx);
        accuracy(&mut self.eval_model, &x, &y).expect("consistent shapes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_converges_with_split_training() {
        let mut fleet = RealSplitFleet::new(RealFleetConfig::default());
        let report = fleet.run(8);
        let final_acc = report.final_accuracy();
        assert!(final_acc > 0.6, "4-class task should exceed 60%, got {final_acc}");
        // Both sides' losses should decrease.
        assert!(report.slow_losses.last().unwrap() < &report.slow_losses[0]);
        assert!(report.fast_losses.last().unwrap() < &report.fast_losses[0]);
    }

    #[test]
    fn split_and_plain_fleets_reach_similar_accuracy() {
        let mut with_split = RealSplitFleet::new(RealFleetConfig::default());
        let mut no_split =
            RealSplitFleet::new(RealFleetConfig { offload: 0, ..RealFleetConfig::default() });
        let a = with_split.run(8).final_accuracy();
        let b = no_split.run(8).final_accuracy();
        assert!((a - b).abs() < 0.15, "split training should match plain accuracy: {a} vs {b}");
    }

    #[test]
    fn aggregation_synchronizes_models() {
        let mut fleet = RealSplitFleet::new(RealFleetConfig::default());
        fleet.run(1);
        // After a round every agent holds identical global parameters.
        let reference = match &fleet.agents[0] {
            AgentModel::Plain(t) => ParamVec::flatten(&t.model().parameters()),
            AgentModel::Split(s, _) => ParamVec::flatten(&s.full_parameters()),
        };
        for a in &fleet.agents[1..] {
            let pv = match a {
                AgentModel::Plain(t) => ParamVec::flatten(&t.model().parameters()),
                AgentModel::Split(s, _) => ParamVec::flatten(&s.full_parameters()),
            };
            for (x, y) in pv.values().iter().zip(reference.values().iter()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn non_iid_fleet_still_trains() {
        let mut fleet = RealSplitFleet::new(RealFleetConfig {
            iid: false,
            alpha: 0.5,
            ..RealFleetConfig::default()
        });
        let report = fleet.run(8);
        assert!(report.final_accuracy() > 0.5, "got {}", report.final_accuracy());
    }
}
