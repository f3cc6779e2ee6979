//! Compressed-aggregation extensions end to end (§IV-B: "other existing
//! aggregation techniques (e.g., quantized gradients) can also be
//! integrated"): int8-quantized and top-k-sparsified model releases must
//! still let the real fleet converge.

use comdml::collective::{Int8Quantizer, TopKSparsifier};
use comdml::nn::{RealFleetConfig, RealSplitFleet};

#[test]
fn int8_quantized_aggregation_preserves_accuracy() {
    let mut plain = RealSplitFleet::new(RealFleetConfig { seed: 31, ..Default::default() });
    let clean = plain.run(6).final_accuracy();

    let mut quantized = RealSplitFleet::new(RealFleetConfig { seed: 31, ..Default::default() });
    quantized.set_param_hook(Box::new(|params| {
        // Simulate the 4x-smaller wire format: round-trip through int8.
        let q = Int8Quantizer::fit(params);
        let restored = q.dequantize(&q.quantize(params));
        params.copy_from_slice(&restored);
    }));
    let quant = quantized.run(6).final_accuracy();

    assert!(quant > 0.7, "quantized fleet must still learn, got {quant}");
    assert!(
        (clean - quant).abs() < 0.15,
        "int8 aggregation should be nearly lossless: {clean} vs {quant}"
    );
}

#[test]
fn topk_sparsified_aggregation_still_learns() {
    let mut sparse = RealSplitFleet::new(RealFleetConfig { seed: 33, ..Default::default() });
    sparse.set_param_hook(Box::new(|params| {
        // Keep the 25% largest-magnitude weights per release.
        let sp = TopKSparsifier::with_fraction(0.25, params.len());
        let restored = sp.sparsify(params).densify();
        params.copy_from_slice(&restored);
    }));
    let acc = sparse.run(8).final_accuracy();
    assert!(acc > 0.5, "75% sparsification should degrade gracefully, got {acc}");
}

#[test]
fn extreme_sparsification_finally_breaks_training() {
    // Sanity check that the hook actually bites: keeping 0.1% of weights
    // must visibly hurt within the same budget.
    let mut plain = RealSplitFleet::new(RealFleetConfig { seed: 35, ..Default::default() });
    let clean = plain.run(5).final_accuracy();

    let mut crushed = RealSplitFleet::new(RealFleetConfig { seed: 35, ..Default::default() });
    crushed.set_param_hook(Box::new(|params| {
        let sp = TopKSparsifier::with_fraction(0.001, params.len());
        let restored = sp.sparsify(params).densify();
        params.copy_from_slice(&restored);
    }));
    let broken = crushed.run(5).final_accuracy();
    assert!(broken < clean - 0.1, "0.1% sparsity should clearly hurt: {broken} vs {clean}");
}
