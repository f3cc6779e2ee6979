use crate::ModelSpec;

/// Profiling result for one candidate split `m` (number of offloaded layers).
///
/// `t_slow_rel`/`t_fast_rel` are *relative* training times — the fraction of
/// the full-model per-batch compute that each side performs — matching the
/// paper's `T_s^{a_m}` and `T_f^{a_m}` (Algorithm 1 converts an agent's
/// full-model processing speed `p` into split speeds via `p^m = p / T^m`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitEntry {
    /// Number of layers offloaded to the fast agent (suffix length).
    pub offload: usize,
    /// Slow-side relative training time, including the auxiliary head.
    pub t_slow_rel: f64,
    /// Fast-side relative training time.
    pub t_fast_rel: f64,
    /// Intermediate activation bytes transferred per *batch* (`ν_m`).
    pub nu_bytes_per_batch: u64,
    /// One-time per-round payload for shipping the trained suffix parameters
    /// back to the slow agent.
    pub suffix_param_bytes: u64,
}

/// The complete split-model profile of a model for a given batch size.
///
/// Entry `m` describes offloading the last `m` weighted layers. `m = 0` means
/// the agent trains alone; `m = L − 1` keeps only the first layer locally.
/// Profiling is a *local, lightweight* operation in the paper (§I: "This
/// pairing strategy employs lightweight, low-overhead local split model
/// profiling"); here it is a pure function of the analytic [`ModelSpec`].
///
/// # Example
///
/// ```
/// use comdml_cost::{ModelSpec, SplitProfile};
///
/// let profile = SplitProfile::new(&ModelSpec::resnet56(), 100);
/// assert_eq!(profile.len(), 56); // m in 0..=55
/// assert_eq!(profile.entry(0).unwrap().nu_bytes_per_batch, 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SplitProfile {
    entries: Vec<SplitEntry>,
    batch_size: usize,
    model_bytes: u64,
}

impl SplitProfile {
    /// Profiles every split of `spec` for mini-batches of `batch_size`
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(spec: &ModelSpec, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let total = spec.train_flops_per_sample();
        let l = spec.num_weighted_layers();
        let entries = (0..l)
            .map(|m| {
                let keep = l - m;
                let slow = spec.prefix_train_flops(keep) + spec.aux_head_flops(m);
                let fast = spec.suffix_train_flops(m);
                SplitEntry {
                    offload: m,
                    t_slow_rel: slow / total,
                    t_fast_rel: fast / total,
                    nu_bytes_per_batch: (spec.cut_activation_bytes(m) * batch_size) as u64,
                    suffix_param_bytes: spec.suffix_param_bytes(m) as u64,
                }
            })
            .collect();
        Self { entries, batch_size, model_bytes: spec.model_bytes() as u64 }
    }

    /// Number of candidate splits (`L`, for `m ∈ 0..L`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the profile is empty (never true for a valid model).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The batch size the profile was computed for.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The full model payload in bytes (for AllReduce cost accounting).
    pub fn model_bytes(&self) -> u64 {
        self.model_bytes
    }

    /// The entry for offloading `m` layers, if `m` is among the profiled
    /// candidates (lookup is by offload value, so it remains correct after
    /// [`SplitProfile::restrict_to`]).
    pub fn entry(&self, m: usize) -> Option<&SplitEntry> {
        if self.entries.get(m).is_some_and(|e| e.offload == m) {
            return self.entries.get(m);
        }
        self.entries.iter().find(|e| e.offload == m)
    }

    /// Iterates over all split entries in offload order.
    pub fn iter(&self) -> impl Iterator<Item = &SplitEntry> {
        self.entries.iter()
    }

    /// Restricts the profile to a subset of candidate offloads (the paper
    /// evaluates `M` candidate split models, not necessarily all `L`).
    ///
    /// Unknown offload values are silently dropped; `m = 0` is always kept so
    /// "train alone" remains representable.
    pub fn restrict_to(&self, offloads: &[usize]) -> Self {
        let mut entries: Vec<SplitEntry> = self
            .entries
            .iter()
            .filter(|e| e.offload == 0 || offloads.contains(&e.offload))
            .copied()
            .collect();
        entries.sort_by_key(|e| e.offload);
        entries.dedup_by_key(|e| e.offload);
        Self { entries, batch_size: self.batch_size, model_bytes: self.model_bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_has_one_entry_per_split() {
        let p = SplitProfile::new(&ModelSpec::resnet56(), 100);
        assert_eq!(p.len(), 56);
        assert_eq!(p.entry(0).unwrap().offload, 0);
        assert_eq!(p.entry(55).unwrap().offload, 55);
        assert!(p.entry(56).is_none());
    }

    #[test]
    fn zero_offload_means_full_local_training() {
        let p = SplitProfile::new(&ModelSpec::resnet56(), 100);
        let e = p.entry(0).unwrap();
        assert!((e.t_slow_rel - 1.0).abs() < 1e-9);
        assert_eq!(e.t_fast_rel, 0.0);
        assert_eq!(e.nu_bytes_per_batch, 0);
        assert_eq!(e.suffix_param_bytes, 0);
    }

    #[test]
    fn relative_times_sum_to_one_plus_aux() {
        let spec = ModelSpec::resnet56();
        let p = SplitProfile::new(&spec, 100);
        for e in p.iter() {
            let aux = spec.aux_head_flops(e.offload) / spec.train_flops_per_sample();
            assert!((e.t_slow_rel + e.t_fast_rel - 1.0 - aux).abs() < 1e-9);
        }
    }

    #[test]
    fn slow_share_decreases_with_offload() {
        let p = SplitProfile::new(&ModelSpec::resnet56(), 100);
        for w in p.iter().collect::<Vec<_>>().windows(2) {
            assert!(w[1].t_slow_rel <= w[0].t_slow_rel + 1e-6);
        }
    }

    #[test]
    fn intermediate_size_reflects_stage_shapes() {
        let p = SplitProfile::new(&ModelSpec::resnet56(), 100);
        // Cut after stem (m = 55): 16*32*32 floats * 100 samples.
        assert_eq!(p.entry(55).unwrap().nu_bytes_per_batch, 16 * 32 * 32 * 4 * 100);
        // Cut before FC (m = 1): 64*8*8 floats * 100 samples.
        assert_eq!(p.entry(1).unwrap().nu_bytes_per_batch, 64 * 8 * 8 * 4 * 100);
        // Early cuts carry more activation data than late cuts.
        assert!(p.entry(55).unwrap().nu_bytes_per_batch > p.entry(1).unwrap().nu_bytes_per_batch);
    }

    #[test]
    fn restrict_to_keeps_requested_and_zero() {
        let p = SplitProfile::new(&ModelSpec::resnet56(), 100);
        let r = p.restrict_to(&[10, 28, 46]);
        let offloads: Vec<usize> = r.iter().map(|e| e.offload).collect();
        assert_eq!(offloads, vec![0, 10, 28, 46]);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        let _ = SplitProfile::new(&ModelSpec::resnet20(), 0);
    }
}
