//! The billing meter: converts resource usage into exact dollar amounts.
//!
//! The meter is deliberately dumb — it records *what happened* (instance
//! lifetimes, data ingress, function executions) and prices the record under
//! a [`CloudPricing`] profile on demand. This lets the same execution trace
//! be priced under per-instance and per-function billing, which is exactly
//! the comparison Fig. 9 and Fig. 11 make.

use crate::catalog::PricingTier;
use crate::pricing::{BillingModel, CloudPricing};
use rb_core::{Cost, InstanceId, RbError, Result, SimDuration, SimTime};
use std::collections::BTreeMap;

/// One function execution: `gpus` GPUs busy for `duration`.
///
/// Under per-function billing these records *are* the compute bill; under
/// per-instance billing they are ignored (lifetimes are billed instead) but
/// remain useful for utilization accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsageRecord {
    /// GPUs used by the function.
    pub gpus: u32,
    /// How long the function ran.
    pub duration: SimDuration,
}

#[derive(Debug, Clone, Copy)]
struct Lifetime {
    started: SimTime,
    stopped: Option<SimTime>,
}

/// Accumulates billable events during an execution.
#[derive(Debug, Clone, Default)]
pub struct BillingMeter {
    lifetimes: BTreeMap<InstanceId, Lifetime>,
    /// Lifetimes priced under a tier other than the profile's — a
    /// mid-run market switch pins everything bought on the old market
    /// so the flip only reprices *future* capacity.
    tier_overrides: BTreeMap<InstanceId, PricingTier>,
    usage: Vec<UsageRecord>,
    ingress_gb: f64,
}

impl BillingMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        BillingMeter::default()
    }

    /// Records that billing for `id` begins at `t` (the instant the provider
    /// hands over the instance; initialization time is billed, as on EC2).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the instance was already started.
    pub fn instance_started(&mut self, id: InstanceId, t: SimTime) {
        let prev = self.lifetimes.insert(
            id,
            Lifetime {
                started: t,
                stopped: None,
            },
        );
        debug_assert!(prev.is_none(), "instance {id} started twice");
    }

    /// Records that `id` was terminated at `t`.
    ///
    /// Stopping is **idempotent**: a spot reclaim can race the executor's
    /// own release, so a second stop keeps the *earliest* recorded stop
    /// time and is not an error. A stop time before the recorded start is
    /// clamped to the start (zero-length lifetime; the billing minimum
    /// still applies exactly once, in [`CloudPricing::instance_charge`]).
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Provider`] if the instance was never started.
    pub fn instance_stopped(&mut self, id: InstanceId, t: SimTime) -> Result<()> {
        let life = self
            .lifetimes
            .get_mut(&id)
            .ok_or_else(|| RbError::Provider(format!("instance {id} stopped but never started")))?;
        let t = t.max(life.started);
        life.stopped = Some(match life.stopped {
            Some(prev) => prev.min(t),
            None => t,
        });
        Ok(())
    }

    /// Records a function execution (used for per-function compute billing
    /// and utilization statistics).
    pub fn record_usage(&mut self, rec: UsageRecord) {
        self.usage.push(rec);
    }

    /// Records `gb` gigabytes of ingress data movement.
    pub fn record_ingress(&mut self, gb: f64) {
        debug_assert!(gb >= 0.0);
        self.ingress_gb += gb;
    }

    /// Number of instances ever started.
    pub fn instances_started(&self) -> usize {
        self.lifetimes.len()
    }

    /// When billing for `id` began, if it was ever started. Pool handoff
    /// uses this to compute the donated instance's billed lifetime.
    pub fn started_at(&self, id: InstanceId) -> Option<SimTime> {
        self.lifetimes.get(&id).map(|l| l.started)
    }

    /// Pins every lifetime recorded so far to `tier` and returns how
    /// many were pinned. Called at the instant of a market switch: the
    /// capacity bought up to now was bought on the old market, and only
    /// instances provisioned after the flip follow the new profile.
    pub fn pin_existing_lifetimes(&mut self, tier: PricingTier) -> usize {
        let mut pinned = 0;
        for id in self.lifetimes.keys() {
            if !self.tier_overrides.contains_key(id) {
                self.tier_overrides.insert(*id, tier);
                pinned += 1;
            }
        }
        pinned
    }

    fn lifetime_charge(
        &self,
        id: InstanceId,
        life: &Lifetime,
        pricing: &CloudPricing,
        now: SimTime,
    ) -> Cost {
        let dur = pricing
            .billing
            .billable(life.stopped.unwrap_or(now) - life.started);
        let hourly = match self.tier_overrides.get(&id) {
            Some(&tier) => pricing.instance_type.hourly_price(tier),
            None => pricing.instance_hourly(),
        };
        hourly.per_hour_for(dur)
    }

    /// Total GPU-seconds of recorded function usage.
    pub fn busy_gpu_seconds(&self) -> f64 {
        self.usage
            .iter()
            .map(|u| u.gpus as f64 * u.duration.as_secs_f64())
            .sum()
    }

    /// Total instance-seconds held (instances still open are charged up to
    /// `now`).
    pub fn held_instance_seconds(&self, now: SimTime) -> f64 {
        self.lifetimes
            .values()
            .map(|l| (l.stopped.unwrap_or(now) - l.started).as_secs_f64())
            .sum()
    }

    /// Cluster-level GPU utilization in `[0, 1]`: busy GPU-time over held
    /// GPU-time. Returns `None` when nothing was held.
    pub fn utilization(&self, now: SimTime, gpus_per_instance: u32) -> Option<f64> {
        let held = self.held_instance_seconds(now) * f64::from(gpus_per_instance);
        if held <= 0.0 {
            return None;
        }
        Some((self.busy_gpu_seconds() / held).min(1.0))
    }

    /// The compute bill under `pricing`, charging open instances up to `now`.
    pub fn compute_cost(&self, pricing: &CloudPricing, now: SimTime) -> Cost {
        match pricing.billing {
            BillingModel::PerInstance { .. } => self
                .lifetimes
                .iter()
                .map(|(&id, l)| self.lifetime_charge(id, l, pricing, now))
                .sum(),
            BillingModel::PerFunction => self
                .usage
                .iter()
                .map(|u| pricing.function_charge(u.gpus, u.duration))
                .sum(),
        }
    }

    /// The data-movement bill under `pricing`.
    pub fn data_cost(&self, pricing: &CloudPricing) -> Cost {
        pricing.ingress_charge(self.ingress_gb)
    }

    /// The complete bill: compute plus data.
    pub fn total_cost(&self, pricing: &CloudPricing, now: SimTime) -> Cost {
        self.compute_cost(pricing, now) + self.data_cost(pricing)
    }

    /// The instance-lifetime bill as a cumulative timeline: one
    /// `(release_time, cost_so_far)` point per instance, ordered by
    /// release time (open lifetimes close at `now`; ties keep instance
    /// id order). The final point equals
    /// [`BillingMeter::compute_cost`] under per-instance billing — this
    /// is the meter's spend curve, exported to the trace bus so a run's
    /// cost can be read off the timeline like any other lane.
    pub fn cost_timeline(&self, pricing: &CloudPricing, now: SimTime) -> Vec<(SimTime, Cost)> {
        let mut charges: Vec<(SimTime, Cost)> = self
            .lifetimes
            .iter()
            .map(|(&id, l)| {
                let end = l.stopped.unwrap_or(now);
                (end, self.lifetime_charge(id, l, pricing, now))
            })
            .collect();
        charges.sort_by_key(|&(t, _)| t);
        let mut total = Cost::ZERO;
        charges
            .into_iter()
            .map(|(t, c)| {
                total += c;
                (t, total)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::P3_8XLARGE;

    fn pricing() -> CloudPricing {
        CloudPricing::on_demand(P3_8XLARGE)
    }

    #[test]
    fn per_instance_bill_sums_lifetimes() {
        let mut m = BillingMeter::new();
        m.instance_started(InstanceId::new(0), SimTime::ZERO);
        m.instance_stopped(InstanceId::new(0), SimTime::from_secs(3600))
            .unwrap();
        m.instance_started(InstanceId::new(1), SimTime::from_secs(100));
        m.instance_stopped(InstanceId::new(1), SimTime::from_secs(1900))
            .unwrap();
        let bill = m.compute_cost(&pricing(), SimTime::from_secs(3600));
        // 1 h + 0.5 h = 1.5 × hourly.
        assert_eq!(bill, P3_8XLARGE.on_demand_hourly * 3 / 2);
    }

    #[test]
    fn open_instances_billed_to_now() {
        let mut m = BillingMeter::new();
        m.instance_started(InstanceId::new(0), SimTime::ZERO);
        let bill = m.compute_cost(&pricing(), SimTime::from_secs(7200));
        assert_eq!(bill, P3_8XLARGE.on_demand_hourly * 2);
    }

    #[test]
    fn minimum_charge_applies_per_instance() {
        let mut m = BillingMeter::new();
        m.instance_started(InstanceId::new(0), SimTime::ZERO);
        m.instance_stopped(InstanceId::new(0), SimTime::from_secs(5))
            .unwrap();
        let bill = m.compute_cost(&pricing(), SimTime::from_secs(5));
        assert_eq!(
            bill,
            pricing()
                .instance_hourly()
                .per_hour_for(SimDuration::from_secs(60))
        );
    }

    #[test]
    fn double_stop_is_idempotent_and_keeps_earliest() {
        let mut m = BillingMeter::new();
        m.instance_started(InstanceId::new(0), SimTime::ZERO);
        // Spot reclaim at t=1800 races the executor's own release at
        // t=3600 — whichever lands second must not extend the bill.
        m.instance_stopped(InstanceId::new(0), SimTime::from_secs(3600))
            .unwrap();
        m.instance_stopped(InstanceId::new(0), SimTime::from_secs(1800))
            .unwrap();
        m.instance_stopped(InstanceId::new(0), SimTime::from_secs(7200))
            .unwrap();
        let bill = m.compute_cost(&pricing(), SimTime::from_secs(7200));
        assert_eq!(bill, P3_8XLARGE.on_demand_hourly / 2);
    }

    #[test]
    fn stop_of_unknown_instance_is_a_typed_error() {
        let mut m = BillingMeter::new();
        let err = m
            .instance_stopped(InstanceId::new(7), SimTime::from_secs(10))
            .unwrap_err();
        assert!(matches!(err, rb_core::RbError::Provider(_)));
    }

    #[test]
    fn stop_before_start_clamps_to_zero_length() {
        let mut m = BillingMeter::new();
        m.instance_started(InstanceId::new(0), SimTime::from_secs(100));
        m.instance_stopped(InstanceId::new(0), SimTime::from_secs(40))
            .unwrap();
        // Zero-length lifetime still pays the 60 s minimum, once.
        let bill = m.compute_cost(&pricing(), SimTime::from_secs(100));
        assert_eq!(
            bill,
            pricing()
                .instance_hourly()
                .per_hour_for(SimDuration::from_secs(60))
        );
    }

    #[test]
    fn preempted_instance_pays_minimum_exactly_once() {
        // A 5 s spot lifetime reclaimed, then redundantly released by the
        // executor: the 60 s minimum applies once, not per stop call.
        let mut m = BillingMeter::new();
        m.instance_started(InstanceId::new(0), SimTime::ZERO);
        m.instance_stopped(InstanceId::new(0), SimTime::from_secs(5))
            .unwrap();
        m.instance_stopped(InstanceId::new(0), SimTime::from_secs(5))
            .unwrap();
        let expected = pricing()
            .instance_hourly()
            .per_hour_for(SimDuration::from_secs(60));
        assert_eq!(m.compute_cost(&pricing(), SimTime::from_secs(5)), expected);
        // The timeline agrees: one point, one minimum charge.
        let timeline = m.cost_timeline(&pricing(), SimTime::from_secs(5));
        assert_eq!(timeline.len(), 1);
        assert_eq!(timeline[0].1, expected);
    }

    #[test]
    fn pinned_lifetimes_keep_their_tier_across_a_market_flip() {
        let mut m = BillingMeter::new();
        // One instance bought on-demand, then the run flips to spot.
        m.instance_started(InstanceId::new(0), SimTime::ZERO);
        assert_eq!(m.pin_existing_lifetimes(PricingTier::OnDemand), 1);
        assert_eq!(
            m.tier_overrides.get(&InstanceId::new(0)).copied(),
            Some(PricingTier::OnDemand)
        );
        // Re-pinning is a no-op for already-pinned lifetimes.
        assert_eq!(m.pin_existing_lifetimes(PricingTier::Spot), 0);
        // A second instance bought after the flip follows the profile.
        m.instance_started(InstanceId::new(1), SimTime::ZERO);
        let hour = SimTime::from_secs(3600);
        m.instance_stopped(InstanceId::new(0), hour).unwrap();
        m.instance_stopped(InstanceId::new(1), hour).unwrap();
        let spot = pricing().with_spot();
        let bill = m.compute_cost(&spot, hour);
        let expected = P3_8XLARGE.on_demand_hourly + P3_8XLARGE.hourly_price(PricingTier::Spot);
        assert_eq!(bill, expected);
        // The timeline's final point agrees with the bill.
        let timeline = m.cost_timeline(&spot, hour);
        assert_eq!(timeline.last().unwrap().1, expected);
    }

    #[test]
    fn per_function_bill_ignores_lifetimes() {
        let mut m = BillingMeter::new();
        m.instance_started(InstanceId::new(0), SimTime::ZERO);
        m.instance_stopped(InstanceId::new(0), SimTime::from_secs(3600))
            .unwrap();
        m.record_usage(UsageRecord {
            gpus: 4,
            duration: SimDuration::from_secs(1800),
        });
        let p = pricing().with_per_function_billing();
        // 4 GPUs × 0.5 h = half the instance hourly price.
        assert_eq!(
            m.compute_cost(&p, SimTime::from_secs(3600)),
            P3_8XLARGE.on_demand_hourly / 2
        );
    }

    #[test]
    fn data_cost_accumulates_ingress() {
        let mut m = BillingMeter::new();
        m.record_ingress(150.0);
        m.record_ingress(150.0);
        let p = pricing().with_data_price(Cost::from_dollars(0.01));
        assert_eq!(m.data_cost(&p), Cost::from_dollars(3.0));
    }

    #[test]
    fn utilization_ratio() {
        let mut m = BillingMeter::new();
        m.instance_started(InstanceId::new(0), SimTime::ZERO);
        m.instance_stopped(InstanceId::new(0), SimTime::from_secs(100))
            .unwrap();
        // 4-GPU instance held 100 s = 400 GPU-s; 200 GPU-s busy → 50%.
        m.record_usage(UsageRecord {
            gpus: 2,
            duration: SimDuration::from_secs(100),
        });
        let u = m.utilization(SimTime::from_secs(100), 4).unwrap();
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_none_when_nothing_held() {
        let m = BillingMeter::new();
        assert!(m.utilization(SimTime::ZERO, 4).is_none());
    }

    #[test]
    fn total_is_compute_plus_data() {
        let mut m = BillingMeter::new();
        m.instance_started(InstanceId::new(0), SimTime::ZERO);
        m.instance_stopped(InstanceId::new(0), SimTime::from_secs(3600))
            .unwrap();
        m.record_ingress(100.0);
        let p = pricing().with_data_price(Cost::from_dollars(0.02));
        let now = SimTime::from_secs(3600);
        assert_eq!(
            m.total_cost(&p, now),
            m.compute_cost(&p, now) + Cost::from_dollars(2.0)
        );
    }
}
