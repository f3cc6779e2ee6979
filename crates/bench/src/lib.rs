//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the ComDML paper. See DESIGN.md for the experiment index
//! and EXPERIMENTS.md for paper-vs-measured results.
//!
//! Part of the `comdml-rs` workspace — the crate map in the repository
//! README shows how this crate fits the whole.

mod json;
mod report;

pub use json::{BenchEntry, BenchRecord, Value};
pub use report::Report;

use comdml_baselines::{AllReduceDml, BaselineConfig, BrainTorrent, FedAvg, GossipLearning};
use comdml_core::{ComDml, ComDmlConfig, LearningCurve, RoundEngine};
use comdml_data::{DatasetSpec, DirichletPartitioner};
use comdml_simnet::{Topology, World, WorldConfig};

/// Builds the world for one dataset cell: `k` heterogeneous agents sharing
/// the dataset's training set; non-I.I.D. cells get Dirichlet(0.5) sizes
/// (label skew also skews per-agent sample counts).
pub fn world_for_dataset(
    spec: &DatasetSpec,
    iid: bool,
    k: usize,
    seed: u64,
    topo: Topology,
) -> World {
    let mut world = WorldConfig::heterogeneous(k, seed)
        .total_samples(spec.train_samples)
        .batch_size(100)
        .topology(topo)
        .build();
    if !iid {
        // Dirichlet label skew implies uneven per-agent dataset sizes.
        let labels: Vec<usize> = (0..spec.train_samples).map(|i| i % spec.num_classes).collect();
        let parts = DirichletPartitioner::new(0.5, seed ^ 0xd1).partition(&labels, k);
        for (agent, part) in world.agents_mut().iter_mut().zip(parts) {
            agent.num_samples = part.len().max(1);
        }
    }
    world
}

/// The five methods of the paper's Table II, boxed behind the shared
/// engine trait.
pub fn all_methods(base: BaselineConfig, comdml: ComDmlConfig) -> Vec<Box<dyn RoundEngine>> {
    vec![
        Box::new(ComDml::new(comdml)),
        Box::new(GossipLearning::new(base.clone())),
        Box::new(BrainTorrent::new(base.clone())),
        Box::new(AllReduceDml::new(base.clone())),
        Box::new(FedAvg::new(base)),
    ]
}

/// Rounds-to-target with the participation-sampling penalty: when only a
/// `sampling_rate` fraction of agents contributes per round, the global
/// model sees proportionally less data, inflating the round count
/// (sub-linearly — overlapping updates still transfer). The penalty is
/// [`comdml_core::sampling_penalty`], the same factor the round-driven
/// [`comdml_core::LearningModel`] applies per round — which is exactly why
/// the two agree under constant efficiency.
pub fn rounds_with_sampling(
    curve: &LearningCurve,
    target: f64,
    engine_factor: f64,
    sampling_rate: f64,
) -> usize {
    curve.rounds_to(target, engine_factor * comdml_core::sampling_penalty(sampling_rate))
}

/// Formats seconds with thousands separators, matching the tables' style.
pub fn fmt_s(v: f64) -> String {
    let n = v.round() as i64;
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Prints a markdown-ish table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells.iter().zip(widths.iter()).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_iid_world_has_uneven_sizes() {
        let spec = DatasetSpec::cifar10();
        let iid = world_for_dataset(&spec, true, 10, 1, Topology::Full);
        let non = world_for_dataset(&spec, false, 10, 1, Topology::Full);
        let spread = |w: &World| {
            let sizes: Vec<usize> = w.agents().iter().map(|a| a.num_samples).collect();
            *sizes.iter().max().unwrap() as f64 / *sizes.iter().min().unwrap() as f64
        };
        assert!(spread(&non) > spread(&iid));
    }

    #[test]
    fn all_methods_report_distinct_names() {
        let engines = all_methods(BaselineConfig::default(), ComDmlConfig::default());
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 5);
        let mut unique = names.clone();
        unique.dedup();
        assert_eq!(unique.len(), 5);
    }

    #[test]
    fn sampling_penalty_inflates_rounds() {
        let curve = LearningCurve::cifar10(true);
        let full = rounds_with_sampling(&curve, 0.80, 1.0, 1.0);
        let sampled = rounds_with_sampling(&curve, 0.80, 1.0, 0.2);
        assert!(sampled > full);
    }

    #[test]
    fn fmt_s_inserts_separators() {
        assert_eq!(fmt_s(1234567.2), "1,234,567");
        assert_eq!(fmt_s(999.4), "999");
    }
}
