//! Bit-level pins of every baseline's round pricing.
//!
//! The curve goldens pin accuracy, not time, so without these a change to
//! how a baseline prices its barrier (or its mean pace) could move every
//! baseline number in the sweeps unnoticed. Each engine's digest folds the
//! `round_s` bits of its first 3 rounds over all agents of four 16-agent
//! heterogeneous worlds, then a 1-participant round and an empty round.

use comdml_baselines::{
    AllReduceDml, BaselineConfig, BrainTorrent, ClassicSplitLearning, DropStragglers, FedAvg,
    FedProx, GossipLearning, TierBased,
};
use comdml_core::{RoundEngine, RoundPlan};
use comdml_simnet::{AgentId, WorldConfig};

/// The 8 engines with the sweep harness's default method parameters.
fn engines() -> Vec<Box<dyn RoundEngine>> {
    let base = BaselineConfig::default;
    vec![
        Box::new(FedAvg::new(base())),
        Box::new(AllReduceDml::new(base())),
        Box::new(BrainTorrent::new(base())),
        Box::new(GossipLearning::new(base())),
        Box::new(FedProx::new(base(), 0.5)),
        Box::new(DropStragglers::new(base(), 0.3)),
        Box::new(TierBased::new(base(), 5)),
        Box::new(ClassicSplitLearning::new(base(), 19, 8.0)),
    ]
}

/// Order-sensitive FNV-1a digest over `round_s.to_bits()` of every round
/// engine `index` prices, with a fresh engine per world seed.
fn pricing_digest(index: usize) -> u64 {
    let mut d = 0xcbf2_9ce4_8422_2325u64;
    for seed in 1..=4 {
        let world = WorldConfig::heterogeneous(16, seed).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let mut engine = engines().swap_remove(index);
        let plans: [&[AgentId]; 5] = [&ids, &ids, &ids, &ids[..1], &[]];
        for (round, participants) in plans.into_iter().enumerate() {
            let round_s =
                engine.run_round(RoundPlan::new(round, &world, participants)).progress.round_s;
            d = (d ^ round_s.to_bits()).wrapping_mul(0x1000_0000_01b3);
        }
    }
    d
}

/// The pins were recorded while the baselines still priced rounds on the
/// round engine's event clock, so they also hold the closed forms
/// bit-identical to it.
#[test]
fn baseline_round_pricing_is_pinned() {
    let pins: [u64; 8] = [
        0x9ce1_1428_ba73_77d4, // FedAvg
        0x1efd_dc39_4bd5_2c07, // AllReduce
        0x0f90_0720_82e2_66cc, // BrainTorrent
        0x2c04_0e60_f8b6_92de, // Gossip Learning
        0x1bd6_be36_983c_45e4, // FedProx
        0x208c_a780_27b5_0650, // Drop-30%
        0x045b_44a1_361f_4b42, // TiFL (tiers)
        0x3a75_94f1_06cb_f667, // Split Learning
    ];
    for (index, pin) in pins.into_iter().enumerate() {
        let name = engines()[index].name();
        assert_eq!(pricing_digest(index), pin, "{name} round pricing moved");
    }
}
