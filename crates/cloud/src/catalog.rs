//! The instance-type catalog.
//!
//! Prices mirror the AWS EC2 us-west-2 GPU offerings the paper evaluates on
//! (p3.2xlarge ≈ $3/h with 1 GPU, p3.16xlarge ≈ $24/h with 8 GPUs, §4.1;
//! p3.16xlarge spot ≈ $7.50/h, §6.2). The paper treats the price of an
//! instance as constant over a job (§3), which the catalog reproduces.

use rb_core::Cost;

/// Whether instances are billed at the on-demand or spot price.
///
/// Spot instances are cheaper but pre-emptible; the paper notes GPU spot
/// prices show negligible variance over long periods, so both tiers are
/// modelled as fixed prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PricingTier {
    /// Uninterruptible capacity at the list price.
    #[default]
    OnDemand,
    /// Pre-emptible capacity at the (much lower) spot price.
    Spot,
}

/// A cloud machine shape: GPU count, bandwidths, and hourly prices.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceType {
    /// Provider SKU, e.g. `"p3.8xlarge"`.
    pub name: &'static str,
    /// Number of GPUs on the instance — the allocable unit of compute.
    pub gpus: u32,
    /// Number of vCPUs (used only for descriptive output).
    pub vcpus: u32,
    /// Accelerator model, e.g. `"V100"`.
    pub gpu_model: &'static str,
    /// On-demand price per instance-hour.
    pub on_demand_hourly: Cost,
    /// Spot price per instance-hour.
    pub spot_hourly: Cost,
    /// Effective intra-node GPU interconnect bandwidth (GB/s per link,
    /// NVLink class). Governs all-reduce time for colocated workers.
    pub intra_node_bw_gbps: f64,
    /// Network bandwidth to other instances (GB/s). Governs all-reduce time
    /// for scattered workers — the quantity the placement controller exists
    /// to avoid paying (§2.1).
    pub inter_node_bw_gbps: f64,
}

impl InstanceType {
    /// Returns the hourly price under the given tier.
    pub fn hourly_price(&self, tier: PricingTier) -> Cost {
        match tier {
            PricingTier::OnDemand => self.on_demand_hourly,
            PricingTier::Spot => self.spot_hourly,
        }
    }

    /// Returns the hourly price of a single GPU's share of the instance.
    ///
    /// Per-function billing charges for exactly the resources a function
    /// uses; a k-GPU function on this instance type costs `k` GPU-shares.
    pub fn per_gpu_hourly(&self, tier: PricingTier) -> Cost {
        self.hourly_price(tier) / u64::from(self.gpus.max(1))
    }
}

/// AWS p3.2xlarge: 1× V100, the paper's ~$3/h single-GPU reference (§4.1).
pub const P3_2XLARGE: InstanceType = InstanceType {
    name: "p3.2xlarge",
    gpus: 1,
    vcpus: 8,
    gpu_model: "V100",
    on_demand_hourly: Cost::from_micros(3_060_000),
    spot_hourly: Cost::from_micros(918_000),
    intra_node_bw_gbps: 25.0,
    inter_node_bw_gbps: 1.25,
};

/// AWS p3.8xlarge: 4× V100 — the worker instance for most paper experiments.
pub const P3_8XLARGE: InstanceType = InstanceType {
    name: "p3.8xlarge",
    gpus: 4,
    vcpus: 32,
    gpu_model: "V100",
    on_demand_hourly: Cost::from_micros(12_240_000),
    spot_hourly: Cost::from_micros(3_672_000),
    intra_node_bw_gbps: 25.0,
    inter_node_bw_gbps: 1.25,
};

/// AWS p3.16xlarge: 8× V100; spot price $7.50/h as quoted in §6.2.
pub const P3_16XLARGE: InstanceType = InstanceType {
    name: "p3.16xlarge",
    gpus: 8,
    vcpus: 64,
    gpu_model: "V100",
    on_demand_hourly: Cost::from_micros(24_480_000),
    spot_hourly: Cost::from_micros(7_500_000),
    intra_node_bw_gbps: 25.0,
    inter_node_bw_gbps: 3.125,
};

/// AWS r5.4xlarge: the CPU-only head node hosting the driver and checkpoint
/// store. The paper ignores its negligible cost; we keep it for completeness.
pub const R5_4XLARGE: InstanceType = InstanceType {
    name: "r5.4xlarge",
    gpus: 0,
    vcpus: 16,
    gpu_model: "none",
    on_demand_hourly: Cost::from_micros(1_008_000),
    spot_hourly: Cost::from_micros(302_400),
    intra_node_bw_gbps: 0.0,
    inter_node_bw_gbps: 1.25,
};

/// AWS g4dn.12xlarge: 4× T4, a cheaper GPU shape useful in examples.
pub const G4DN_12XLARGE: InstanceType = InstanceType {
    name: "g4dn.12xlarge",
    gpus: 4,
    vcpus: 48,
    gpu_model: "T4",
    on_demand_hourly: Cost::from_micros(3_912_000),
    spot_hourly: Cost::from_micros(1_173_600),
    intra_node_bw_gbps: 8.0,
    inter_node_bw_gbps: 6.25,
};

/// All catalog entries.
pub const CATALOG: &[InstanceType] = &[
    P3_2XLARGE,
    P3_8XLARGE,
    P3_16XLARGE,
    R5_4XLARGE,
    G4DN_12XLARGE,
];

/// Looks up an instance type by SKU name. A user entry point for a
/// caller that names instance types as text; library code uses the
/// constants, so only tests call it.
///
/// # Examples
///
/// ```
/// use rb_cloud::catalog::lookup;
/// assert_eq!(lookup("p3.8xlarge").unwrap().gpus, 4);
/// assert!(lookup("m1.tiny").is_none());
/// ```
pub fn lookup(name: &str) -> Option<&'static InstanceType> {
    CATALOG.iter().find(|t| t.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_prices_match_paper_quotes() {
        // §4.1: p3.2xlarge ~ $3/h, p3.16xlarge ~ $24/h.
        assert!((P3_2XLARGE.on_demand_hourly.as_dollars() - 3.06).abs() < 1e-9);
        assert!((P3_16XLARGE.on_demand_hourly.as_dollars() - 24.48).abs() < 1e-9);
        // §6.2: p3.16xlarge at $7.50/h (spot).
        assert!((P3_16XLARGE.spot_hourly.as_dollars() - 7.50).abs() < 1e-9);
    }

    #[test]
    fn per_gpu_price_divides_instance_price() {
        let per_gpu = P3_8XLARGE.per_gpu_hourly(PricingTier::OnDemand);
        assert_eq!(per_gpu * 4, P3_8XLARGE.on_demand_hourly);
    }

    #[test]
    fn per_gpu_price_on_cpu_instance_does_not_divide_by_zero() {
        assert_eq!(
            R5_4XLARGE.per_gpu_hourly(PricingTier::OnDemand),
            R5_4XLARGE.on_demand_hourly
        );
    }

    #[test]
    fn lookup_finds_all_entries() {
        for t in CATALOG {
            assert_eq!(lookup(t.name).unwrap(), t);
        }
        assert!(lookup("nonexistent").is_none());
    }

    #[test]
    fn spot_is_cheaper_than_on_demand() {
        for t in CATALOG {
            assert!(t.spot_hourly <= t.on_demand_hourly, "{}", t.name);
        }
    }

    #[test]
    fn tier_selection() {
        assert_eq!(
            P3_8XLARGE.hourly_price(PricingTier::Spot),
            P3_8XLARGE.spot_hourly
        );
        assert_eq!(
            P3_8XLARGE.hourly_price(PricingTier::OnDemand),
            P3_8XLARGE.on_demand_hourly
        );
    }
}
