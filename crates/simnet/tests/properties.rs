//! Property tests for the simulation substrate.

use comdml_simnet::{EventQueue, Topology, WorldConfig};
use proptest::prelude::*;

/// Reference model for the calendar queue: the binary heap it replaced,
/// reduced to its ordering contract — pop the `(time, seq)`-minimal entry.
#[derive(Default)]
struct HeapModel {
    entries: Vec<(f64, u64, usize)>,
    seq: u64,
}

impl HeapModel {
    fn push(&mut self, time: f64, payload: usize) {
        self.entries.push((time, self.seq, payload));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(f64, usize)> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("no NaN times"))
            .map(|(i, _)| i)?;
        let (t, _, p) = self.entries.remove(best);
        Some((t, p))
    }
}

proptest! {
    /// World building conserves the dataset and stays within profile grids.
    #[test]
    fn world_invariants(k in 1usize..64, seed in 0u64..u64::MAX, total in 100usize..200_000) {
        let world = WorldConfig::heterogeneous(k, seed).total_samples(total).build();
        prop_assert_eq!(world.num_agents(), k);
        let sum: usize = world.agents().iter().map(|a| a.num_samples).sum();
        prop_assert_eq!(sum, total, "every sample assigned exactly once");
        for a in world.agents() {
            prop_assert!(a.profile.cpus > 0.0 && a.profile.cpus <= 4.0);
            prop_assert!(a.profile.link_mbps >= 0.0 && a.profile.link_mbps <= 100.0);
        }
    }

    /// Link speeds are symmetric and zero on missing edges.
    #[test]
    fn link_symmetry(k in 2usize..32, seed in 0u64..u64::MAX, p in 0.0f64..1.0) {
        let world = WorldConfig::heterogeneous(k, seed)
            .topology(Topology::random(p))
            .build();
        for i in 0..k {
            for j in 0..k {
                let a = world.link_mbps(i.into(), j.into());
                let b = world.link_mbps(j.into(), i.into());
                prop_assert!((a - b).abs() < 1e-12, "symmetric links");
                if i == j {
                    prop_assert_eq!(a, 0.0);
                }
                if !world.adjacency().connected(i, j) {
                    prop_assert_eq!(a, 0.0);
                }
            }
        }
    }

    /// Churn changes at most the requested fraction of profiles.
    #[test]
    fn churn_bounds(k in 5usize..40, seed in 0u64..u64::MAX, frac in 0.0f64..1.0) {
        let mut world = WorldConfig::heterogeneous(k, seed).build();
        let before: Vec<_> = world.agents().iter().map(|a| a.profile).collect();
        world.churn_profiles(frac);
        let changed = world
            .agents()
            .iter()
            .zip(before.iter())
            .filter(|(a, b)| a.profile != **b)
            .count();
        let max_changed = (k as f64 * frac).round() as usize;
        prop_assert!(changed <= max_changed, "{changed} > {max_changed}");
    }

    /// Participant sampling returns sorted unique ids within bounds.
    #[test]
    fn sampling_invariants(k in 1usize..64, seed in 0u64..u64::MAX, rate in 0.0f64..1.0) {
        let mut world = WorldConfig::heterogeneous(k, seed).build();
        let all: Vec<_> = world.agents().iter().map(|a| a.id).collect();
        let sample = world.sample_participants_among(&all, rate);
        prop_assert!(!sample.is_empty());
        prop_assert!(sample.len() <= k);
        for w in sample.windows(2) {
            prop_assert!(w[0] < w[1], "sorted and unique");
        }
        for id in &sample {
            prop_assert!(id.0 < k);
        }
    }

    /// The calendar queue pops in exactly the order the old binary heap
    /// did, under random interleaved push/pop with heavy timestamp
    /// collisions (times drawn from a tiny grid so equal-time tie-breaks
    /// are exercised constantly, and spans vary enough to force both
    /// resize directions and the far-future rotation fallback).
    #[test]
    fn calendar_queue_matches_heap_order(
        ops in prop::collection::vec((0u8..4, 0u32..64), 1..400),
        scale in 0.01f64..1e6,
    ) {
        let mut q = EventQueue::new();
        let mut model = HeapModel::default();
        let mut payload = 0usize;
        for (op, t) in ops {
            if op == 0 {
                // Pop on both; results must agree bit for bit.
                let got = q.pop();
                let want = model.pop();
                prop_assert_eq!(got, want);
            } else {
                let time = f64::from(t) * scale / 7.0;
                q.push(time, payload);
                model.push(time, payload);
                payload += 1;
            }
            prop_assert_eq!(q.len(), model.entries.len());
            prop_assert_eq!(q.peek_time().map(f64::to_bits),
                            model.entries.iter().map(|e| e.0)
                                .min_by(|a, b| a.partial_cmp(b).unwrap())
                                .map(f64::to_bits));
        }
        // Drain: the full remaining order must match.
        while let Some(want) = model.pop() {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert!(q.is_empty());
    }

    /// Topology density is within [0, 1] and full mesh is exactly 1.
    #[test]
    fn density_bounds(k in 2usize..32, seed in 0u64..u64::MAX, p in 0.0f64..1.0) {
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(seed)
        };
        let adj = Topology::random(p).build(k, &mut rng);
        let d = adj.density();
        prop_assert!((0.0..=1.0).contains(&d));
        let full = Topology::Full.build(k, &mut rng);
        prop_assert!((full.density() - 1.0).abs() < 1e-12);
    }
}
