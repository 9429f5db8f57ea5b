//! The communication-aware analytic scaling model.
//!
//! Serves as the "physical truth" of data-parallel training in this
//! reproduction: the profiler measures it, the planner plans against the
//! fitted measurements, and the executor runs on it. One iteration of
//! synchronous data-parallel SGD on `g` GPUs with global batch `B` costs
//!
//! ```text
//! L(g) = compute(g) + allreduce(g) + fixed_overhead
//! compute(g)   = ceil(B/g) / per_gpu_rate + (microsteps-1) · microstep_overhead
//! allreduce(g) = 2(g-1)/g · grad_bytes / bandwidth(g, placement)     (g > 1)
//! ```
//!
//! Strong scaling is assumed (§3): the global batch is fixed, and when the
//! per-GPU share exceeds accelerator memory the model pays for gradient
//! accumulation micro-steps instead of changing the batch. Bandwidth is
//! NVLink-class while the gang fits on one machine, network-class once it
//! spans machines, and severely degraded when workers are scattered without
//! placement control — reproducing both Fig. 4 and the Table 1 ablation.

use crate::zoo::ModelArch;
use crate::{PlacementQuality, ScalingModel};

/// Analytic iteration-latency model for one (architecture, batch size,
/// machine shape) combination.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticScaling {
    arch: ModelArch,
    batch_size: u32,
    node_gpus: u32,
    intra_node_bw_gbps: f64,
    inter_node_bw_gbps: f64,
    scattered_bw_gbps: f64,
    scattered_overhead_factor: f64,
}

impl AnalyticScaling {
    /// Creates a model for `arch` training with global batch `batch_size`
    /// on machines with `node_gpus` GPUs each, using V100-class bandwidth
    /// defaults (NVLink 25 GB/s intra-node, 25 Gbit/s network).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` or `node_gpus` is zero.
    pub fn for_arch(arch: &ModelArch, batch_size: u32, node_gpus: u32) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(node_gpus > 0, "node GPU count must be positive");
        let inter = 3.125;
        AnalyticScaling {
            arch: arch.clone(),
            batch_size,
            node_gpus,
            intra_node_bw_gbps: 25.0,
            inter_node_bw_gbps: inter,
            // Untuned, contended cross-node all-reduce achieves a fraction
            // of line rate in practice; 1/8 reproduces Table 1's measured
            // no-placement throughputs.
            scattered_bw_gbps: inter / 8.0,
            scattered_overhead_factor: 1.10,
        }
    }

    /// Number of gradient-accumulation micro-steps on `gpus` GPUs.
    pub fn microsteps(&self, gpus: u32) -> u32 {
        let per_gpu = self.batch_size.div_ceil(gpus);
        per_gpu.div_ceil(self.arch.max_samples_per_gpu)
    }

    /// The all-reduce share of one iteration, in seconds (zero on one
    /// GPU). Mirrors the communication term of `iter_latency_secs`.
    fn allreduce_secs(&self, gpus: u32, placement: PlacementQuality) -> f64 {
        if gpus <= 1 {
            return 0.0;
        }
        let g = f64::from(gpus);
        let grad = self.arch.grad_bytes();
        match placement {
            PlacementQuality::Packed if gpus > self.node_gpus => {
                let per_node = f64::from(self.node_gpus.min(gpus));
                let nodes = (g / f64::from(self.node_gpus)).ceil();
                let intra =
                    2.0 * (per_node - 1.0) / per_node * grad / (self.intra_node_bw_gbps * 1e9);
                let inter = 2.0 * (nodes - 1.0) / nodes * grad / (self.inter_node_bw_gbps * 1e9);
                intra + inter
            }
            _ => {
                let bytes = 2.0 * (g - 1.0) / g * grad;
                bytes / (self.bandwidth_gbps(gpus, placement) * 1e9)
            }
        }
    }

    fn bandwidth_gbps(&self, gpus: u32, placement: PlacementQuality) -> f64 {
        match placement {
            PlacementQuality::Packed => {
                if gpus <= self.node_gpus {
                    self.intra_node_bw_gbps
                } else {
                    self.inter_node_bw_gbps
                }
            }
            PlacementQuality::Scattered => self.scattered_bw_gbps,
        }
    }
}

impl ScalingModel for AnalyticScaling {
    fn iter_latency_secs(&self, gpus: u32, placement: PlacementQuality) -> f64 {
        assert!(gpus > 0, "cannot train on zero GPUs");
        let per_gpu_samples = f64::from(self.batch_size.div_ceil(gpus));
        let microsteps = self.microsteps(gpus);
        let compute = per_gpu_samples / self.arch.per_gpu_samples_per_sec
            + f64::from(microsteps - 1) * self.arch.microstep_overhead_secs;
        // Hierarchical all-reduce above one node: a ring within each node
        // over NVLink-class links, then a per-node ring over the network
        // (as NCCL performs it) — see `allreduce_secs`.
        let allreduce = self.allreduce_secs(gpus, placement);
        let base = compute + allreduce + self.arch.fixed_overhead_secs;
        match placement {
            PlacementQuality::Packed => base,
            // Scattered workers additionally pay remote data loading and
            // orchestration overheads, observed even for 1-GPU trials
            // (Table 1's 1-GPU row).
            PlacementQuality::Scattered => base * self.scattered_overhead_factor,
        }
    }

    fn batch_size(&self) -> u32 {
        self.batch_size
    }

    fn latency_components(&self, gpus: u32, placement: PlacementQuality) -> (f64, f64) {
        assert!(gpus > 0, "cannot train on zero GPUs");
        let per_gpu_samples = f64::from(self.batch_size.div_ceil(gpus));
        let microsteps = self.microsteps(gpus);
        let compute = per_gpu_samples / self.arch.per_gpu_samples_per_sec
            + f64::from(microsteps - 1) * self.arch.microstep_overhead_secs
            + self.arch.fixed_overhead_secs;
        let comm = self.allreduce_secs(gpus, placement);
        match placement {
            PlacementQuality::Packed => (compute, comm),
            // The scattered overhead factor inflates both shares, so the
            // parts still sum to `iter_latency_secs` (up to rounding).
            PlacementQuality::Scattered => (
                compute * self.scattered_overhead_factor,
                comm * self.scattered_overhead_factor,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{BERT_BASE, RESNET50, VGG16};

    fn resnet50_16xl() -> AnalyticScaling {
        // ResNet-50, batch 1024, p3.16xlarge shape (8 GPUs/node) — the
        // Table 1 configuration.
        AnalyticScaling::for_arch(&RESNET50, 1024, 8)
    }

    #[test]
    fn latency_decreases_with_gpus_when_packed_on_node() {
        let m = resnet50_16xl();
        let mut prev = f64::INFINITY;
        for g in [1, 2, 4, 8] {
            let l = m.iter_latency_secs(g, PlacementQuality::Packed);
            assert!(l < prev, "latency should fall: {g} GPUs -> {l}");
            prev = l;
        }
    }

    #[test]
    fn scaling_is_sublinear() {
        let m = resnet50_16xl();
        for g in [2, 4, 8, 16] {
            let s = m.speedup(g, PlacementQuality::Packed);
            assert!(s < f64::from(g), "speedup at {g} GPUs must be sublinear");
            assert!(s > 1.0, "but still a speedup");
        }
    }

    #[test]
    fn crossing_node_boundary_hurts() {
        let m = AnalyticScaling::for_arch(&RESNET50, 512, 4);
        // Per-GPU efficiency (speedup/g) drops sharply from 4 GPUs (one
        // node) to 8 GPUs (two nodes).
        let eff4 = m.speedup(4, PlacementQuality::Packed) / 4.0;
        let eff8 = m.speedup(8, PlacementQuality::Packed) / 8.0;
        assert!(eff8 < eff4 * 0.8, "eff4={eff4} eff8={eff8}");
    }

    #[test]
    fn reproduces_table1_throughput_shape() {
        // Table 1: placed {749, 1480, 2773}, scattered {674, 948, 1210}
        // samples/s for ResNet-50 bs=1024 at 1/2/4 GPUs on p3.16xlarge.
        let m = resnet50_16xl();
        let placed: Vec<f64> = [1, 2, 4]
            .iter()
            .map(|&g| m.throughput(g, PlacementQuality::Packed))
            .collect();
        let scattered: Vec<f64> = [1, 2, 4]
            .iter()
            .map(|&g| m.throughput(g, PlacementQuality::Scattered))
            .collect();
        let expect_placed = [749.0, 1480.0, 2773.0];
        let expect_scattered = [674.0, 948.0, 1210.0];
        for i in 0..3 {
            assert!(
                (placed[i] - expect_placed[i]).abs() / expect_placed[i] < 0.10,
                "placed[{i}] = {} vs paper {}",
                placed[i],
                expect_placed[i]
            );
            assert!(
                (scattered[i] - expect_scattered[i]).abs() / expect_scattered[i] < 0.12,
                "scattered[{i}] = {} vs paper {}",
                scattered[i],
                expect_scattered[i]
            );
        }
        // The headline ratios: ~3.7x packed scaling, ~1.8x scattered.
        assert!(placed[2] / placed[0] > 3.4);
        assert!(scattered[2] / scattered[0] < 2.1);
    }

    #[test]
    fn gradient_accumulation_kicks_in_under_strong_scaling() {
        let m = AnalyticScaling::for_arch(&RESNET50, 2048, 8);
        // 2048 samples on 1 GPU with 256-sample capacity = 8 micro-steps.
        assert_eq!(m.microsteps(1), 8);
        assert_eq!(m.microsteps(8), 1);
        // Accumulation costs overhead but total compute is preserved:
        // latency at 1 GPU is near 8× the per-microstep compute, not more
        // than ~15% above it.
        let l1 = m.iter_latency_secs(1, PlacementQuality::Packed);
        let ideal = 2048.0 / RESNET50.per_gpu_samples_per_sec;
        assert!(l1 >= ideal);
        assert!(l1 < ideal * 1.15);
    }

    #[test]
    fn communication_heavy_models_scale_worse() {
        // Fig. 4's ordering: BERT and VGG (large gradients per unit
        // compute) sit below ResNet-50.
        let rn = AnalyticScaling::for_arch(&RESNET50, 512, 4);
        let bert = AnalyticScaling::for_arch(&BERT_BASE, 512, 4);
        let vgg = AnalyticScaling::for_arch(&VGG16, 512, 4);
        let g = 8;
        assert!(
            bert.speedup(g, PlacementQuality::Packed) < rn.speedup(g, PlacementQuality::Packed)
        );
        assert!(vgg.speedup(g, PlacementQuality::Packed) < rn.speedup(g, PlacementQuality::Packed));
    }

    #[test]
    fn scattered_is_never_faster_than_packed() {
        let m = resnet50_16xl();
        for g in 1..=16 {
            assert!(
                m.iter_latency_secs(g, PlacementQuality::Scattered)
                    >= m.iter_latency_secs(g, PlacementQuality::Packed)
            );
        }
    }

    #[test]
    #[should_panic(expected = "zero GPUs")]
    fn zero_gpus_panics() {
        resnet50_16xl().iter_latency_secs(0, PlacementQuality::Packed);
    }

    #[test]
    fn bandwidth_override_changes_cross_node_latency() {
        let with_inter = |gbps: f64| AnalyticScaling {
            inter_node_bw_gbps: gbps,
            scattered_bw_gbps: gbps / 8.0,
            ..AnalyticScaling::for_arch(&RESNET50, 512, 4)
        };
        let slow = with_inter(0.5);
        let fast = with_inter(10.0);
        assert!(
            slow.iter_latency_secs(8, PlacementQuality::Packed)
                > fast.iter_latency_secs(8, PlacementQuality::Packed)
        );
        // Intra-node behaviour unchanged.
        assert_eq!(
            slow.iter_latency_secs(4, PlacementQuality::Packed),
            fast.iter_latency_secs(4, PlacementQuality::Packed)
        );
    }
}
