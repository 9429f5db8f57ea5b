//! The model zoo: performance descriptors for the architectures the paper
//! evaluates.
//!
//! Each entry records what the communication-aware scaling model needs:
//! parameter count (gradient volume per all-reduce), single-V100 training
//! throughput, and per-GPU batch capacity (for gradient accumulation under
//! strong scaling, §3). Throughputs are representative published numbers
//! for fp32 training on V100-class hardware; the *relative* shapes, not the
//! absolute values, are what the reproduction depends on.

/// A deep-learning model architecture's performance descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArch {
    /// Human-readable name, e.g. `"ResNet-50"`.
    pub name: &'static str,
    /// Trainable parameters, in millions.
    pub params_millions: f64,
    /// Single-GPU training throughput in samples/second (V100, fp32).
    pub per_gpu_samples_per_sec: f64,
    /// Largest per-GPU micro-batch that fits in accelerator memory. Larger
    /// effective batches on a single GPU use gradient accumulation.
    pub max_samples_per_gpu: u32,
    /// Fixed per-iteration overhead in seconds (kernel launches, data
    /// loading, Python driver) independent of batch and GPU count.
    pub fixed_overhead_secs: f64,
    /// Extra overhead per gradient-accumulation micro-step, in seconds.
    pub microstep_overhead_secs: f64,
}

impl ModelArch {
    /// Gradient volume exchanged per all-reduce, in bytes (fp32 gradients).
    pub fn grad_bytes(&self) -> f64 {
        self.params_millions * 1e6 * 4.0
    }
}

/// ResNet-50 v1.5 (He et al.): 25.6 M parameters.
pub const RESNET50: ModelArch = ModelArch {
    name: "ResNet-50",
    params_millions: 25.6,
    per_gpu_samples_per_sec: 750.0,
    max_samples_per_gpu: 256,
    fixed_overhead_secs: 0.010,
    microstep_overhead_secs: 0.004,
};

/// ResNet-101: 44.5 M parameters.
pub const RESNET101: ModelArch = ModelArch {
    name: "ResNet-101",
    params_millions: 44.5,
    per_gpu_samples_per_sec: 430.0,
    max_samples_per_gpu: 192,
    fixed_overhead_secs: 0.012,
    microstep_overhead_secs: 0.005,
};

/// ResNet-152: 60.2 M parameters.
pub const RESNET152: ModelArch = ModelArch {
    name: "ResNet-152",
    params_millions: 60.2,
    per_gpu_samples_per_sec: 300.0,
    max_samples_per_gpu: 128,
    fixed_overhead_secs: 0.014,
    microstep_overhead_secs: 0.006,
};

/// BERT-base (Devlin et al.), sequence length 128: 110 M parameters.
/// Communication-heavy relative to its compute, so it scales worst — the
/// bottom curve of Fig. 4.
pub const BERT_BASE: ModelArch = ModelArch {
    name: "BERT-base",
    params_millions: 110.0,
    per_gpu_samples_per_sec: 210.0,
    max_samples_per_gpu: 64,
    fixed_overhead_secs: 0.015,
    microstep_overhead_secs: 0.006,
};

/// VGG-16: few layers but 138 M parameters, the classic poor scaler.
pub const VGG16: ModelArch = ModelArch {
    name: "VGG-16",
    params_millions: 138.0,
    per_gpu_samples_per_sec: 330.0,
    max_samples_per_gpu: 128,
    fixed_overhead_secs: 0.010,
    microstep_overhead_secs: 0.004,
};

/// DenseNet-121: only 8 M parameters — the best scaler in the zoo (tiny
/// gradients relative to compute).
pub const DENSENET121: ModelArch = ModelArch {
    name: "DenseNet-121",
    params_millions: 8.0,
    per_gpu_samples_per_sec: 420.0,
    max_samples_per_gpu: 192,
    fixed_overhead_secs: 0.014,
    microstep_overhead_secs: 0.006,
};

/// GPT-2 small (124 M parameters), sequence length 1024: heavy gradients
/// and heavy compute.
pub const GPT2_SMALL: ModelArch = ModelArch {
    name: "GPT-2 small",
    params_millions: 124.0,
    per_gpu_samples_per_sec: 26.0,
    max_samples_per_gpu: 8,
    fixed_overhead_secs: 0.020,
    microstep_overhead_secs: 0.010,
};

/// ViT-B/16 (86 M parameters) at 224×224.
pub const VIT_B16: ModelArch = ModelArch {
    name: "ViT-B/16",
    params_millions: 86.0,
    per_gpu_samples_per_sec: 290.0,
    max_samples_per_gpu: 128,
    fixed_overhead_secs: 0.013,
    microstep_overhead_secs: 0.006,
};

/// All zoo entries, heaviest communicators last.
pub const ZOO: &[ModelArch] = &[
    RESNET50,
    RESNET101,
    RESNET152,
    BERT_BASE,
    VGG16,
    DENSENET121,
    GPT2_SMALL,
    VIT_B16,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grad_bytes_is_four_bytes_per_param() {
        assert!((RESNET50.grad_bytes() - 25.6e6 * 4.0).abs() < 1.0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn deeper_resnets_are_slower_per_gpu() {
        assert!(RESNET50.per_gpu_samples_per_sec > RESNET101.per_gpu_samples_per_sec);
        assert!(RESNET101.per_gpu_samples_per_sec > RESNET152.per_gpu_samples_per_sec);
    }

    #[test]
    fn communication_intensity_orders_scaling_quality() {
        use crate::analytic::AnalyticScaling;
        use crate::{PlacementQuality, ScalingModel};
        // Gradient bytes per unit of compute predicts who scales best:
        // DenseNet (tiny gradients) beats VGG (huge gradients) at 8 GPUs.
        let speedup = |arch: &ModelArch| {
            AnalyticScaling::for_arch(arch, 256, 8).speedup(8, PlacementQuality::Packed)
        };
        assert!(speedup(&DENSENET121) > speedup(&RESNET50));
        assert!(speedup(&RESNET50) > speedup(&VGG16));
        // GPT-2's compute per sample is so large that even 124M-parameter
        // gradients amortize.
        assert!(speedup(&GPT2_SMALL) > speedup(&VGG16));
    }
}
