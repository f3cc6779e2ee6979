/// Converts abstract resource profiles into seconds.
///
/// The paper assigns each agent a CPU profile (4, 2, 1, 0.5 or 0.2 "CPUs")
/// and a link profile (0–100 Mbps). The calibration maps "1 CPU" to a
/// sustained FLOP rate so that simulated round times land in the same range
/// as the paper's testbed (their 0.2-CPU straggler takes tens of seconds per
/// ResNet-56 batch of 100 samples).
///
/// # Example
///
/// ```
/// use comdml_cost::{CostCalibration, ModelSpec};
///
/// let cal = CostCalibration::default();
/// let spec = ModelSpec::resnet56();
/// let per_batch = cal.batch_time_s(spec.train_flops_per_sample(), 100, 1.0);
/// assert!(per_batch > 0.1 && per_batch < 60.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostCalibration {
    /// Sustained training throughput of one CPU unit, in FLOPs per second.
    pub flops_per_cpu_s: f64,
    /// Fixed per-message latency added to every transfer, in seconds.
    pub link_latency_s: f64,
    /// Effective fraction of nominal link bandwidth achieved by bulk
    /// transfers (protocol overhead).
    pub bandwidth_efficiency: f64,
}

impl Default for CostCalibration {
    fn default() -> Self {
        // Chosen so a 1-CPU agent trains a ResNet-56 batch of 100 in ~1 s
        // (a GPU-fraction-class device, like the paper's simulated CPUs
        // backed by GTX 1080 Ti hardware). At this operating point the
        // 10–100 Mbps links of the profile grid are *comparable* to batch
        // compute, which is the regime where Table I's communication column
        // becomes non-trivial.
        Self { flops_per_cpu_s: 7.5e10, link_latency_s: 0.005, bandwidth_efficiency: 0.9 }
    }
}

impl CostCalibration {
    /// Seconds to train one mini-batch of `batch_size` samples of a workload
    /// costing `flops_per_sample`, on an agent with `cpus` CPU units.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is not positive.
    pub fn batch_time_s(&self, flops_per_sample: f64, batch_size: usize, cpus: f64) -> f64 {
        assert!(cpus > 0.0, "cpu profile must be positive, got {cpus}");
        flops_per_sample * batch_size as f64 / (cpus * self.flops_per_cpu_s)
    }

    /// Processing speed in batches per second — the paper's `p_i`.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is not positive.
    pub fn batches_per_s(&self, flops_per_sample: f64, batch_size: usize, cpus: f64) -> f64 {
        1.0 / self.batch_time_s(flops_per_sample, batch_size, cpus)
    }

    /// Seconds to push `bytes` over a `mbps` megabit-per-second link.
    ///
    /// Returns `f64::INFINITY` for a disconnected (0 Mbps) link, matching the
    /// paper's "0 representing disconnected agents".
    pub fn transfer_time_s(&self, bytes: u64, mbps: f64) -> f64 {
        if mbps <= 0.0 {
            return f64::INFINITY;
        }
        let bytes_per_s = mbps * 1e6 / 8.0 * self.bandwidth_efficiency;
        self.link_latency_s + bytes as f64 / bytes_per_s
    }

    /// Effective link throughput in bytes per second (0 when disconnected).
    pub fn bytes_per_s(&self, mbps: f64) -> f64 {
        if mbps <= 0.0 {
            0.0
        } else {
            mbps * 1e6 / 8.0 * self.bandwidth_efficiency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelSpec;

    #[test]
    fn batch_time_scales_inversely_with_cpus() {
        let cal = CostCalibration::default();
        let t1 = cal.batch_time_s(1e9, 100, 1.0);
        let t4 = cal.batch_time_s(1e9, 100, 4.0);
        assert!((t1 / t4 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn straggler_is_20x_slower_than_fastest_profile() {
        let cal = CostCalibration::default();
        let spec = ModelSpec::resnet56();
        let fast = cal.batch_time_s(spec.train_flops_per_sample(), 100, 4.0);
        let slow = cal.batch_time_s(spec.train_flops_per_sample(), 100, 0.2);
        assert!((slow / fast - 20.0).abs() < 1e-6);
    }

    #[test]
    fn disconnected_links_transfer_nothing() {
        let cal = CostCalibration::default();
        assert!(cal.transfer_time_s(1_000_000, 0.0).is_infinite());
        assert_eq!(cal.bytes_per_s(0.0), 0.0);
    }

    #[test]
    fn transfer_time_tracks_bandwidth() {
        let cal = CostCalibration { link_latency_s: 0.0, ..CostCalibration::default() };
        // 1 MB over 8 Mbps at 90% efficiency: 1e6 / (1e6 * 0.9) s.
        let t = cal.transfer_time_s(1_000_000, 8.0);
        assert!((t - 1.0 / 0.9).abs() < 1e-6);
        // Double the bandwidth, halve the time.
        assert!((cal.transfer_time_s(1_000_000, 16.0) - t / 2.0).abs() < 1e-6);
    }

    #[test]
    fn batches_per_s_is_reciprocal() {
        let cal = CostCalibration::default();
        let t = cal.batch_time_s(2e9, 50, 2.0);
        let p = cal.batches_per_s(2e9, 50, 2.0);
        assert!((t * p - 1.0).abs() < 1e-9);
    }
}
