//! Integration tests of the real gradient-descent path: split training,
//! aggregation and the privacy hooks, across nn, core, data, collective,
//! tensor and privacy.

use comdml::nn::{RealFleetConfig, RealSplitFleet};
use comdml::privacy::{distance_correlation, LaplaceMechanism, PatchShuffler};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn split_fleet_reaches_high_accuracy() {
    let mut fleet = RealSplitFleet::new(RealFleetConfig { seed: 3, ..RealFleetConfig::default() });
    let report = fleet.run(10);
    assert!(
        report.final_accuracy() > 0.9,
        "miniature task should be mastered, got {}",
        report.final_accuracy()
    );
    // Theorem 1's shape: both loss sequences trend down.
    assert!(report.slow_losses.last().unwrap() < &(report.slow_losses[0] * 0.5));
    assert!(report.fast_losses.last().unwrap() < &(report.fast_losses[0] * 0.5));
}

#[test]
fn offload_depth_does_not_wreck_accuracy() {
    // The paper's claim: workload balancing preserves model accuracy.
    let mut accs = Vec::new();
    for offload in [0usize, 2, 4] {
        let mut fleet =
            RealSplitFleet::new(RealFleetConfig { offload, seed: 5, ..RealFleetConfig::default() });
        accs.push(fleet.run(8).final_accuracy());
    }
    let min = accs.iter().cloned().fold(f32::INFINITY, f32::min);
    let max = accs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    assert!(max - min < 0.15, "accuracy should be stable across offload depths: {accs:?}");
}

#[test]
fn dp_hook_costs_accuracy_but_still_trains() {
    let mut protected = RealSplitFleet::new(RealFleetConfig { seed: 7, ..Default::default() });
    let mech = LaplaceMechanism::new(0.5, 0.08);
    let mut rng = StdRng::seed_from_u64(1);
    protected.set_param_hook(Box::new(move |p| mech.privatize(p, &mut rng)));
    let noisy = protected.run(6).final_accuracy();

    let mut plain = RealSplitFleet::new(RealFleetConfig { seed: 7, ..Default::default() });
    let clean = plain.run(6).final_accuracy();

    assert!(noisy > 0.4, "DP-protected fleet should still learn, got {noisy}");
    assert!(noisy <= clean + 0.05, "noise should not help: {noisy} vs {clean}");
}

#[test]
fn patch_shuffle_hook_keeps_training_viable() {
    let mut fleet = RealSplitFleet::new(RealFleetConfig { seed: 9, ..Default::default() });
    let shuffler = PatchShuffler::new(2);
    let mut rng = StdRng::seed_from_u64(2);
    fleet.set_input_hook(Box::new(move |x| {
        shuffler.shuffle(x, &mut rng).unwrap_or_else(|| x.clone())
    }));
    let acc = fleet.run(6).final_accuracy();
    assert!(acc > 0.5, "patch shuffling preserves local features, got {acc}");
}

#[test]
fn activation_noise_reduces_leakage() {
    let mut plain = RealSplitFleet::new(RealFleetConfig { seed: 13, ..Default::default() });
    plain.run(3);
    let (x, z) = plain.leakage_probe(96).expect("split agents exist");
    let open_dcor = distance_correlation(&x, &z).unwrap();

    let mut protected = RealSplitFleet::new(RealFleetConfig {
        seed: 13,
        activation_noise_std: 1.5,
        ..Default::default()
    });
    protected.run(3);
    let (x2, z2) = protected.leakage_probe(96).expect("split agents exist");
    let mut rng = StdRng::seed_from_u64(3);
    let observed = z2.add(&comdml::tensor::Tensor::randn(z2.shape(), 1.5, &mut rng)).unwrap();
    let protected_dcor = distance_correlation(&x2, &observed).unwrap();
    assert!(
        protected_dcor < open_dcor - 0.1,
        "noise at the cut should cut leakage: {protected_dcor} vs {open_dcor}"
    );
}

#[test]
fn non_iid_converges_slower_but_converges() {
    let mut iid =
        RealSplitFleet::new(RealFleetConfig { seed: 21, iid: true, ..Default::default() });
    let mut non = RealSplitFleet::new(RealFleetConfig {
        seed: 21,
        iid: false,
        alpha: 0.2,
        ..Default::default()
    });
    let acc_iid = iid.run(6).final_accuracy();
    let acc_non = non.run(6).final_accuracy();
    assert!(acc_non > 0.4, "non-IID fleet must still learn, got {acc_non}");
    assert!(acc_iid >= acc_non - 0.1, "IID should not be clearly worse");
}
