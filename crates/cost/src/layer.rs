/// The kind of a weighted layer, used for display and sanity checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv,
    /// Fully connected layer.
    Dense,
}

/// Analytic cost description of one weighted layer.
///
/// `flops_fwd` counts multiply-accumulates ×2 for one sample's forward pass;
/// the backward pass is modelled as twice the forward cost (one pass for
/// input gradients, one for weight gradients), the standard approximation for
/// dense/conv workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Human-readable layer name, e.g. `"stage2.block3.conv1"`.
    pub name: String,
    /// Layer kind.
    pub kind: LayerKind,
    /// Forward FLOPs per sample.
    pub flops_fwd: f64,
    /// Number of trainable parameters.
    pub params: usize,
    /// Elements in the output activation for one sample.
    pub out_elems: usize,
    /// Output channels (0 for dense layers).
    pub out_channels: usize,
}

impl LayerSpec {
    /// Builds the cost entry for a `k×k` convolution.
    ///
    /// `h_out`/`w_out` are the output spatial dimensions; FLOPs follow the
    /// textbook `2·k²·C_in·C_out·H_out·W_out` count.
    pub fn conv(
        name: impl Into<String>,
        k: usize,
        c_in: usize,
        c_out: usize,
        h_out: usize,
        w_out: usize,
    ) -> Self {
        let flops_fwd = 2.0 * (k * k * c_in * c_out * h_out * w_out) as f64;
        Self {
            name: name.into(),
            kind: LayerKind::Conv,
            flops_fwd,
            params: k * k * c_in * c_out + c_out,
            out_elems: c_out * h_out * w_out,
            out_channels: c_out,
        }
    }

    /// Builds the cost entry for a fully connected layer.
    pub fn dense(name: impl Into<String>, in_features: usize, out_features: usize) -> Self {
        Self {
            name: name.into(),
            kind: LayerKind::Dense,
            flops_fwd: 2.0 * (in_features * out_features) as f64,
            params: in_features * out_features + out_features,
            out_elems: out_features,
            out_channels: 0,
        }
    }

    /// Training FLOPs per sample (forward + backward ≈ 3× forward).
    pub fn flops_train(&self) -> f64 {
        3.0 * self.flops_fwd
    }

    /// Parameter payload in bytes (`f32` storage).
    pub fn param_bytes(&self) -> usize {
        self.params * std::mem::size_of::<f32>()
    }

    /// Activation payload in bytes for one sample (`f32` storage).
    pub fn activation_bytes(&self) -> usize {
        self.out_elems * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_flops_match_textbook_formula() {
        // 3x3 conv, 16 -> 16 channels, 32x32 output.
        let l = LayerSpec::conv("c", 3, 16, 16, 32, 32);
        assert_eq!(l.flops_fwd, 2.0 * 9.0 * 16.0 * 16.0 * 1024.0);
        assert_eq!(l.params, 9 * 16 * 16 + 16);
        assert_eq!(l.out_elems, 16 * 32 * 32);
    }

    #[test]
    fn dense_flops_and_params() {
        let l = LayerSpec::dense("fc", 64, 10);
        assert_eq!(l.flops_fwd, 1280.0);
        assert_eq!(l.params, 650);
        assert_eq!(l.out_elems, 10);
        assert_eq!(l.kind, LayerKind::Dense);
    }

    #[test]
    fn training_is_three_times_forward() {
        let l = LayerSpec::conv("c", 3, 8, 8, 16, 16);
        assert_eq!(l.flops_train(), 3.0 * l.flops_fwd);
    }

    #[test]
    fn byte_sizes_use_f32() {
        let l = LayerSpec::dense("fc", 10, 10);
        assert_eq!(l.param_bytes(), 110 * 4);
        assert_eq!(l.activation_bytes(), 40);
    }
}
