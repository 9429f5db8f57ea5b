//! The fitted cloud profile.

use rb_cloud::CloudPricing;
use rb_core::{Distribution, RbError, Result, SimDuration};

/// Observed capacity-fault tallies over a recent event window. Collected
/// by the executor's retry layer and folded back into the provisioning
/// model by [`CloudProfile::risk_from_events`], so residual re-plans
/// price the capacity risk the run is *actually seeing* (a degraded
/// zone, a brownout) rather than the calibrated steady state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CapacityEvents {
    /// Provisioning requests issued in the window.
    pub requests: u64,
    /// Requests denied (capacity or zone faults).
    pub denials: u64,
    /// Retry attempts spent recovering from denials.
    pub retries: u64,
    /// Instances lost to correlated zone outages.
    pub outage_kills: u64,
}

impl CapacityEvents {
    /// True when the window recorded no capacity trouble at all.
    pub fn is_calm(&self) -> bool {
        self.denials == 0 && self.retries == 0 && self.outage_kills == 0
    }
}

/// Everything the planner/simulator knows about the target cloud: pricing
/// plus the two provider-side latency distributions of §4.1 (scaling
/// latency and instance initialization latency) and the per-instance data
/// ingress volume.
#[derive(Debug, Clone)]
pub struct CloudProfile {
    /// Instance type, billing model, tier, and data price.
    pub pricing: CloudPricing,
    /// Scaling latency: seconds from provisioning request to hand-over
    /// (provider queuing delay).
    pub provision_delay: Distribution,
    /// Instance initialization latency: seconds to install dependencies
    /// and join the cluster after hand-over.
    pub init_latency: Distribution,
    /// Gigabytes of training data each new instance downloads once.
    pub dataset_gb: f64,
    /// Spot interruption rate per instance-hour (extension; zero for
    /// on-demand capacity and for the paper's experiments).
    pub spot_interruptions_per_hour: f64,
}

impl CloudProfile {
    /// A profile with constant provisioning/initialization latencies and no
    /// data ingress.
    pub fn new(pricing: CloudPricing) -> Self {
        CloudProfile {
            pricing,
            provision_delay: Distribution::Constant(30.0),
            init_latency: Distribution::Constant(60.0),
            dataset_gb: 0.0,
            spot_interruptions_per_hour: 0.0,
        }
    }

    /// Sets a constant provisioning delay.
    pub fn with_provision_delay(mut self, d: SimDuration) -> Self {
        self.provision_delay = Distribution::Constant(d.as_secs_f64());
        self
    }

    /// Sets a constant instance-initialization latency.
    pub fn with_init_latency(mut self, d: SimDuration) -> Self {
        self.init_latency = Distribution::Constant(d.as_secs_f64());
        self
    }

    /// Sets the provisioning-delay distribution. A user entry point for a
    /// measured, non-constant delay; no library code calls it, and the
    /// simulator tests and Algorithm 1 oracle build their noisy clouds
    /// with it.
    ///
    /// # Panics
    ///
    /// Panics if the distribution has negative or non-finite parameters.
    pub fn with_provision_delay_dist(mut self, d: Distribution) -> Self {
        d.validate().expect("invalid provision-delay distribution");
        self.provision_delay = d;
        self
    }

    /// Sets the init-latency distribution. A user entry point for a
    /// measured, non-constant latency; no library code calls it, and the
    /// simulator tests and Algorithm 1 oracle build their noisy clouds
    /// with it.
    ///
    /// # Panics
    ///
    /// Panics if the distribution has negative or non-finite parameters.
    pub fn with_init_latency_dist(mut self, d: Distribution) -> Self {
        d.validate().expect("invalid init-latency distribution");
        self.init_latency = d;
        self
    }

    /// Sets the per-instance dataset download volume (GB).
    ///
    /// # Panics
    ///
    /// Panics if `gb` is negative or non-finite.
    pub fn with_dataset_gb(mut self, gb: f64) -> Self {
        assert!(
            gb.is_finite() && gb >= 0.0,
            "dataset_gb must be finite and non-negative, got {gb}"
        );
        self.dataset_gb = gb;
        self
    }

    /// Enables spot interruptions at `rate` reclaims per instance-hour.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or non-finite.
    pub fn with_spot_interruptions(mut self, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "spot interruption rate must be finite and non-negative, got {rate}"
        );
        self.spot_interruptions_per_hour = rate;
        self
    }

    /// Checks the whole profile: both latency distributions well-formed,
    /// data volume and interruption rate finite and non-negative, and no
    /// negative prices. Builders already reject bad values one at a time;
    /// this covers profiles assembled by struct literal or deserialized.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        self.provision_delay.validate()?;
        self.init_latency.validate()?;
        if !self.dataset_gb.is_finite() || self.dataset_gb < 0.0 {
            return Err(RbError::InvalidConfig(format!(
                "dataset_gb must be finite and non-negative, got {}",
                self.dataset_gb
            )));
        }
        if !self.spot_interruptions_per_hour.is_finite() || self.spot_interruptions_per_hour < 0.0 {
            return Err(RbError::InvalidConfig(format!(
                "spot_interruptions_per_hour must be finite and non-negative, got {}",
                self.spot_interruptions_per_hour
            )));
        }
        let ty = &self.pricing.instance_type;
        for (what, price) in [
            ("on_demand_hourly", ty.on_demand_hourly),
            ("spot_hourly", ty.spot_hourly),
            ("data_price_per_gb", self.pricing.data_price_per_gb),
        ] {
            if price < rb_core::Cost::ZERO {
                return Err(RbError::InvalidConfig(format!(
                    "{what} must be non-negative, got {price}"
                )));
            }
        }
        Ok(())
    }

    /// Re-prices provisioning risk from an observed event window: the
    /// provision-delay distribution is stretched by the expected number
    /// of attempts a request will need under the observed denial rate.
    ///
    /// Two estimates are compared and the worse one wins: the *measured*
    /// expansion `1 + retries/requests` (what recovery actually cost so
    /// far, including outage re-provisioning) and the *stationary*
    /// expectation `1/(1 - p)` with
    /// `p = (denials + outage_kills)/requests` capped at 0.95 (what an
    /// ongoing denial rate implies for future requests). A calm window
    /// returns the profile unchanged, so risk pricing is bit-neutral
    /// when nothing went wrong.
    pub fn risk_from_events(&self, window: &CapacityEvents) -> CloudProfile {
        if window.requests == 0 || window.is_calm() {
            return self.clone();
        }
        let req = window.requests as f64;
        let measured = 1.0 + window.retries as f64 / req;
        let p = (((window.denials + window.outage_kills) as f64) / req).min(0.95);
        let stationary = 1.0 / (1.0 - p);
        let factor = measured.max(stationary);
        let mut risky = self.clone();
        risky.provision_delay = self.provision_delay.scaled(factor);
        risky
    }

    /// GPUs per instance (the allocable unit granularity).
    pub fn gpus_per_instance(&self) -> u32 {
        self.pricing.instance_type.gpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_cloud::catalog::P3_8XLARGE;

    #[test]
    fn builder_chain_sets_fields() {
        let p = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
            .with_provision_delay(SimDuration::from_secs(15))
            .with_init_latency(SimDuration::from_secs(15))
            .with_dataset_gb(150.0);
        assert_eq!(p.provision_delay.mean(), 15.0);
        assert_eq!(p.init_latency.mean(), 15.0);
        assert_eq!(p.dataset_gb, 150.0);
        assert_eq!(p.gpus_per_instance(), 4);
    }

    #[test]
    fn stochastic_delays_supported() {
        let p = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
            .with_provision_delay_dist(Distribution::lognormal_from_moments(20.0, 8.0));
        assert!((p.provision_delay.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn validate_accepts_the_default_profile() {
        let p = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
            .with_dataset_gb(150.0)
            .with_spot_interruptions(1.0);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_struct_literal_garbage() {
        let good = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE));
        let bad_delay = CloudProfile {
            provision_delay: Distribution::Constant(-1.0),
            ..good.clone()
        };
        assert!(bad_delay.validate().is_err());
        let bad_init = CloudProfile {
            init_latency: Distribution::Exponential { rate: f64::NAN },
            ..good.clone()
        };
        assert!(bad_init.validate().is_err());
        let bad_gb = CloudProfile {
            dataset_gb: f64::INFINITY,
            ..good.clone()
        };
        assert!(bad_gb.validate().is_err());
        let bad_rate = CloudProfile {
            spot_interruptions_per_hour: -0.5,
            ..good.clone()
        };
        assert!(bad_rate.validate().is_err());
        let mut bad_price = good.clone();
        bad_price.pricing.data_price_per_gb = rb_core::Cost::from_dollars(-0.01);
        assert!(bad_price.validate().is_err());
    }

    #[test]
    fn risk_from_events_stretches_provision_delay() {
        let p = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
            .with_provision_delay(SimDuration::from_secs(30));
        // Calm window: untouched (bit-neutral for re-planning).
        let calm = CapacityEvents {
            requests: 10,
            ..CapacityEvents::default()
        };
        assert!(calm.is_calm());
        assert_eq!(p.risk_from_events(&calm).provision_delay.mean(), 30.0);
        assert_eq!(
            p.risk_from_events(&CapacityEvents::default())
                .provision_delay
                .mean(),
            30.0
        );
        // Half the requests denied: stationary expectation doubles the
        // delay (1/(1-0.5)), beating the measured 1 + 5/10 = 1.5.
        let rough = CapacityEvents {
            requests: 10,
            denials: 5,
            retries: 5,
            outage_kills: 0,
        };
        let risky = p.risk_from_events(&rough);
        assert!((risky.provision_delay.mean() - 60.0).abs() < 1e-9);
        // Heavy measured retries win over a mild denial rate.
        let churny = CapacityEvents {
            requests: 10,
            denials: 1,
            retries: 30,
            outage_kills: 0,
        };
        assert!((p.risk_from_events(&churny).provision_delay.mean() - 120.0).abs() < 1e-9);
        // The denial probability is capped, so a fully-denied window
        // stays finite.
        let dark = CapacityEvents {
            requests: 4,
            denials: 4,
            retries: 0,
            outage_kills: 8,
        };
        assert!(p.risk_from_events(&dark).provision_delay.mean().is_finite());
        // Everything else is preserved.
        assert_eq!(risky.init_latency.mean(), p.init_latency.mean());
        assert_eq!(risky.pricing, p.pricing);
    }

    #[test]
    #[should_panic(expected = "invalid provision-delay distribution")]
    fn builder_rejects_malformed_distribution() {
        let _ = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
            .with_provision_delay_dist(Distribution::Uniform { lo: 5.0, hi: 1.0 });
    }

    #[test]
    #[should_panic(expected = "spot interruption rate")]
    fn builder_rejects_nan_interruption_rate() {
        let _ = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
            .with_spot_interruptions(f64::NAN);
    }
}
