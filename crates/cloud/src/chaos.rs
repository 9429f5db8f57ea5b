//! Deterministic fault injection for the cloud/executor stack.
//!
//! The paper assumes the cloud behaves (§3): provisioning always
//! succeeds, instances only die through the spot market, and storage is
//! infallible. Real tuning frameworks treat worker loss and resource
//! shortfall as first-class failures, so this module injects them — in
//! virtual time, seeded exactly like the spot-interruption stream, so a
//! chaotic run is as bit-reproducible as a calm one.
//!
//! A [`FaultPlan`] declares *what* can go wrong; a [`FaultInjector`]
//! decides *when*, using counter-based streams ([`Prng::for_stream`])
//! keyed by request index or instance id, so every decision is a pure
//! function of `(seed, entity index)` and never of polling cadence.
//! The cardinal invariant: with no plan attached (or an inactive one)
//! the injector draws **zero** samples and the run is bit-identical to
//! an uninjected run.
//!
//! Fault taxonomy (each independently configurable):
//!
//! * **insufficient capacity** — a provisioning request is denied
//!   outright ([`rb_core::RbError::Capacity`]); retryable;
//! * **provisioning stragglers** — an instance's hand-over delay is
//!   multiplied by a large factor (a hung request, bounded only by the
//!   caller's patience);
//! * **hardware failure** — a running instance dies at a sampled
//!   instant even on on-demand capacity (non-spot);
//! * **degraded node** — an instance runs, but slower than its shape
//!   promises;
//! * **checkpoint corruption** — consumed by `rb-train`'s checkpoint
//!   store: a saved generation fails verification on the next read.

use rb_core::{mix_seed, Distribution, InstanceId, Prng, RbError, Result, SimTime};

/// A window of virtual time during which one zone is degraded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneWindow {
    /// The afflicted zone (must be `< ZonePlan::zones`).
    pub zone: u32,
    /// Window start, in virtual seconds since time zero.
    pub start_secs: f64,
    /// Window length, in virtual seconds.
    pub duration_secs: f64,
}

impl ZoneWindow {
    /// Whether `at` falls inside the window (start inclusive, end
    /// exclusive).
    pub fn contains(&self, at: SimTime) -> bool {
        let t = at.as_secs_f64();
        t >= self.start_secs && t < self.start_secs + self.duration_secs
    }

    /// The window's start as an instant.
    pub fn start(&self) -> SimTime {
        SimTime::ZERO + rb_core::SimDuration::from_secs_f64(self.start_secs)
    }

    /// The window's end as an instant.
    pub fn end(&self) -> SimTime {
        SimTime::ZERO + rb_core::SimDuration::from_secs_f64(self.start_secs + self.duration_secs)
    }

    fn validate(&self, what: &str, zones: u32) -> Result<()> {
        if self.zone >= zones {
            return Err(RbError::InvalidConfig(format!(
                "fault plan: {what} names zone {} but the plan has {} zones",
                self.zone, zones
            )));
        }
        for (name, v) in [
            ("start_secs", self.start_secs),
            ("duration_secs", self.duration_secs),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(RbError::InvalidConfig(format!(
                    "fault plan: {what}.{name} must be finite and non-negative, got {v}"
                )));
            }
        }
        Ok(())
    }
}

/// Correlated failure-domain model: the provider's capacity is divided
/// into `zones` zones, and the chaos layer can afflict one zone with a
/// *brownout* (elevated denial probability and inflated hand-over
/// delays for a window) or an *outage* (every instance in the zone dies
/// at the window start and new capacity is denied outright until it
/// closes). [`ZonePlan::none`] disables the domain model entirely: one
/// zone, no windows, zero extra random draws.
#[derive(Debug, Clone, PartialEq)]
pub struct ZonePlan {
    /// Number of failure domains (≥ 1). With 1 zone the domain model
    /// degenerates to the zone-free provider.
    pub zones: u32,
    /// The brownout window, if any.
    pub brownout: Option<ZoneWindow>,
    /// Probability that a provisioning request targeting the browned-out
    /// zone is denied while the window is open.
    pub brownout_denial_prob: f64,
    /// Hand-over delay multiplier (≥ 1) for instances provisioned in the
    /// browned-out zone while the window is open.
    pub brownout_delay_factor: f64,
    /// The outage window, if any.
    pub outage: Option<ZoneWindow>,
}

impl ZonePlan {
    /// The empty zone plan: one zone, no correlated events, zero draws.
    pub fn none() -> Self {
        ZonePlan {
            zones: 1,
            brownout: None,
            brownout_denial_prob: 0.0,
            brownout_delay_factor: 1.0,
            outage: None,
        }
    }

    /// Whether any correlated zone event can fire.
    pub fn is_active(&self) -> bool {
        self.brownout.is_some() || self.outage.is_some()
    }

    /// Checks the plan's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<()> {
        if self.zones == 0 {
            return Err(RbError::InvalidConfig(
                "fault plan: zones must be >= 1".to_owned(),
            ));
        }
        if !(0.0..=1.0).contains(&self.brownout_denial_prob) {
            return Err(RbError::InvalidConfig(format!(
                "fault plan: brownout_denial_prob must be a probability in [0, 1], got {}",
                self.brownout_denial_prob
            )));
        }
        if !self.brownout_delay_factor.is_finite() || self.brownout_delay_factor < 1.0 {
            return Err(RbError::InvalidConfig(format!(
                "fault plan: brownout_delay_factor must be finite and >= 1, got {}",
                self.brownout_delay_factor
            )));
        }
        if let Some(w) = &self.brownout {
            w.validate("brownout", self.zones)?;
        }
        if let Some(w) = &self.outage {
            w.validate("outage", self.zones)?;
        }
        Ok(())
    }
}

impl Default for ZonePlan {
    fn default() -> Self {
        ZonePlan::none()
    }
}

/// Declarative fault model: probabilities and severities for each fault
/// class. [`FaultPlan::none`] (also `Default`) disables everything.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that an entire provisioning request is denied with
    /// an insufficient-capacity error.
    pub capacity_failure_prob: f64,
    /// Probability that a provisioned instance straggles: its hand-over
    /// delay is multiplied by [`FaultPlan::straggler_factor`].
    pub straggler_prob: f64,
    /// Hand-over delay multiplier for stragglers (≥ 1).
    pub straggler_factor: f64,
    /// Non-spot hardware failure rate per instance-hour on running
    /// instances (Poisson, like spot interruptions but independent of
    /// the market).
    pub hw_failure_rate_per_hour: f64,
    /// Probability that a provisioned instance is degraded (slow).
    pub degraded_prob: f64,
    /// Work-unit latency multiplier on a degraded node (≥ 1).
    pub degraded_factor: f64,
    /// Probability that a saved checkpoint generation is corrupted in
    /// storage and fails verification on the next read. Consumed by the
    /// checkpoint store, not the provider.
    pub checkpoint_corruption_prob: f64,
    /// Correlated failure domains: zone brownout/outage windows.
    pub zones: ZonePlan,
}

impl FaultPlan {
    /// The empty plan: no faults, and — by the injector's contract —
    /// zero random draws.
    pub fn none() -> Self {
        FaultPlan {
            capacity_failure_prob: 0.0,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
            hw_failure_rate_per_hour: 0.0,
            degraded_prob: 0.0,
            degraded_factor: 1.0,
            checkpoint_corruption_prob: 0.0,
            zones: ZonePlan::none(),
        }
    }

    /// Whether any fault class can fire.
    pub fn is_active(&self) -> bool {
        self.capacity_failure_prob > 0.0
            || self.straggler_prob > 0.0
            || self.hw_failure_rate_per_hour > 0.0
            || self.degraded_prob > 0.0
            || self.checkpoint_corruption_prob > 0.0
            || self.zones.is_active()
    }

    /// Checks the plan's parameters: probabilities in `[0, 1]`, factors
    /// at least 1, rates finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<()> {
        let prob = |name: &str, p: f64| -> Result<()> {
            if !(0.0..=1.0).contains(&p) {
                return Err(RbError::InvalidConfig(format!(
                    "fault plan: {name} must be a probability in [0, 1], got {p}"
                )));
            }
            Ok(())
        };
        prob("capacity_failure_prob", self.capacity_failure_prob)?;
        prob("straggler_prob", self.straggler_prob)?;
        prob("degraded_prob", self.degraded_prob)?;
        prob(
            "checkpoint_corruption_prob",
            self.checkpoint_corruption_prob,
        )?;
        if !self.straggler_factor.is_finite() || self.straggler_factor < 1.0 {
            return Err(RbError::InvalidConfig(format!(
                "fault plan: straggler_factor must be finite and >= 1, got {}",
                self.straggler_factor
            )));
        }
        if !self.degraded_factor.is_finite() || self.degraded_factor < 1.0 {
            return Err(RbError::InvalidConfig(format!(
                "fault plan: degraded_factor must be finite and >= 1, got {}",
                self.degraded_factor
            )));
        }
        if !self.hw_failure_rate_per_hour.is_finite() || self.hw_failure_rate_per_hour < 0.0 {
            return Err(RbError::InvalidConfig(format!(
                "fault plan: hw_failure_rate_per_hour must be finite and non-negative, got {}",
                self.hw_failure_rate_per_hour
            )));
        }
        self.zones.validate()?;
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Per-instance fault assignment decided at provisioning time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceFaults {
    /// Hand-over delay multiplier (1.0 = healthy).
    pub delay_factor: f64,
    /// Work-unit latency multiplier (1.0 = healthy).
    pub slowdown: f64,
    /// Hours of running time until a hardware failure, if one is
    /// scheduled.
    pub fail_after_hours: Option<f64>,
}

impl InstanceFaults {
    /// A healthy instance: no delay inflation, no slowdown, no failure.
    pub fn healthy() -> Self {
        InstanceFaults {
            delay_factor: 1.0,
            slowdown: 1.0,
            fail_after_hours: None,
        }
    }
}

/// Running totals of faults actually injected, for the recovery rollup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Provisioning requests denied for capacity.
    pub capacity_failures: u64,
    /// Instances whose hand-over was straggler-inflated.
    pub stragglers: u64,
    /// Hardware failures that actually struck a running instance.
    pub hw_failures: u64,
    /// Instances provisioned degraded.
    pub degraded_nodes: u64,
    /// Provisioning requests denied by a zone brownout or outage.
    pub zone_denials: u64,
    /// Running instances killed by a zone outage.
    pub zone_outage_kills: u64,
}

impl FaultCounts {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.capacity_failures
            + self.stragglers
            + self.hw_failures
            + self.degraded_nodes
            + self.zone_denials
            + self.zone_outage_kills
    }
}

/// The runtime half of the fault layer: seeded decision streams plus
/// injection tallies. Owned by the provider (and, for checkpoint
/// corruption, mirrored into the checkpoint store's seed).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Per-request capacity decisions: stream index = request counter.
    capacity_seed: u64,
    /// Per-instance straggler/degraded decisions: stream index =
    /// instance id.
    node_seed: u64,
    /// Per-instance hardware-failure instants: stream index = instance
    /// id (a separate family so enabling one fault class never shifts
    /// another's draws).
    hw_seed: u64,
    /// Per-request zone-brownout denial decisions: stream index = zone
    /// request counter (its own family, so arming the zone model never
    /// shifts capacity/node/hw draws).
    zone_seed: u64,
    requests: u64,
    zone_requests: u64,
    counts: FaultCounts,
}

impl FaultInjector {
    /// Creates an injector for `plan`, deriving independent stream
    /// families from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        FaultInjector {
            plan,
            capacity_seed: mix_seed(seed, 0xCAFA_C171),
            node_seed: mix_seed(seed, 0x0DE6_4ADE),
            hw_seed: mix_seed(seed, 0x4A4D_FA11),
            zone_seed: mix_seed(seed, 0x5A0E_FA17),
            requests: 0,
            zone_requests: 0,
            counts: FaultCounts::default(),
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides whether the next provisioning request is denied for
    /// capacity. Consumes one request index either way, so a denied
    /// request and its retry see independent draws regardless of what
    /// happens in between.
    pub fn capacity_fault(&mut self) -> bool {
        let k = self.requests;
        self.requests += 1;
        if self.plan.capacity_failure_prob <= 0.0 {
            return false;
        }
        let denied =
            Prng::for_stream(self.capacity_seed, k).next_f64() < self.plan.capacity_failure_prob;
        if denied {
            self.counts.capacity_failures += 1;
        }
        denied
    }

    /// Decides the fault assignment of a freshly provisioned instance.
    /// Pure in `(seed, id)`: the same instance index gets the same
    /// faults in every run, independent of request batching.
    pub fn instance_faults(&mut self, id: InstanceId) -> InstanceFaults {
        let mut out = InstanceFaults::healthy();
        if self.plan.straggler_prob > 0.0 || self.plan.degraded_prob > 0.0 {
            let mut rng = Prng::for_stream(self.node_seed, id.raw());
            // Fixed draw order (straggler, then degraded) keeps each
            // class's decisions stable when the other is toggled off —
            // both draws happen whenever either class is active.
            let s = rng.next_f64();
            let d = rng.next_f64();
            if s < self.plan.straggler_prob {
                out.delay_factor = self.plan.straggler_factor;
                self.counts.stragglers += 1;
            }
            if d < self.plan.degraded_prob {
                out.slowdown = self.plan.degraded_factor;
                self.counts.degraded_nodes += 1;
            }
        }
        if self.plan.hw_failure_rate_per_hour > 0.0 {
            let mut rng = Prng::for_stream(self.hw_seed, id.raw());
            out.fail_after_hours = Some(
                Distribution::Exponential {
                    rate: self.plan.hw_failure_rate_per_hour,
                }
                .sample(&mut rng),
            );
        }
        out
    }

    /// Decides whether a provisioning request targeting `zone` at `at`
    /// is denied by a correlated zone event. Outage denial is
    /// deterministic (the window is declared, not sampled); brownout
    /// denial consumes one zone-stream index per call, so a denied
    /// request and its retry see independent draws. With no zone event
    /// declared this draws nothing and always returns `false`.
    pub fn zone_denial(&mut self, zone: u32, at: SimTime) -> bool {
        if !self.plan.zones.is_active() {
            return false;
        }
        if let Some(w) = &self.plan.zones.outage {
            if w.zone == zone && w.contains(at) {
                self.counts.zone_denials += 1;
                return true;
            }
        }
        let k = self.zone_requests;
        self.zone_requests += 1;
        let brownout = self.plan.zones.brownout.as_ref();
        let prob = self.plan.zones.brownout_denial_prob;
        if prob <= 0.0 || !brownout.is_some_and(|w| w.zone == zone && w.contains(at)) {
            return false;
        }
        let denied = Prng::for_stream(self.zone_seed, k).next_f64() < prob;
        if denied {
            self.counts.zone_denials += 1;
        }
        denied
    }

    /// The hand-over delay multiplier a zone brownout imposes on an
    /// instance provisioned in `zone` at `at` (1.0 when no brownout
    /// applies). Deterministic — the window and factor are declared.
    pub fn zone_delay_factor(&self, zone: u32, at: SimTime) -> f64 {
        match &self.plan.zones.brownout {
            Some(w) if w.zone == zone && w.contains(at) => self.plan.zones.brownout_delay_factor,
            _ => 1.0,
        }
    }

    /// The instant at which an instance provisioned in `zone` with
    /// hand-over at `ready_at` is killed by the declared zone outage,
    /// if its lifetime intersects the window.
    pub fn zone_kill_at(&self, zone: u32, ready_at: SimTime) -> Option<SimTime> {
        let w = self.plan.zones.outage.as_ref()?;
        if w.zone != zone || ready_at >= w.end() {
            return None;
        }
        Some(w.start().max(ready_at))
    }

    /// Records that a scheduled zone-outage kill actually struck.
    pub fn note_zone_kill(&mut self) {
        self.counts.zone_outage_kills += 1;
    }

    /// Records that a scheduled hardware failure actually struck.
    pub fn note_hw_failure(&mut self) {
        self.counts.hw_failures += 1;
    }

    /// Faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stormy() -> FaultPlan {
        FaultPlan {
            capacity_failure_prob: 0.5,
            straggler_prob: 0.3,
            straggler_factor: 40.0,
            hw_failure_rate_per_hour: 2.0,
            degraded_prob: 0.25,
            degraded_factor: 1.8,
            checkpoint_corruption_prob: 0.2,
            zones: ZonePlan::none(),
        }
    }

    fn zoned() -> ZonePlan {
        ZonePlan {
            zones: 2,
            brownout: Some(ZoneWindow {
                zone: 0,
                start_secs: 100.0,
                duration_secs: 200.0,
            }),
            brownout_denial_prob: 0.6,
            brownout_delay_factor: 10.0,
            outage: Some(ZoneWindow {
                zone: 0,
                start_secs: 400.0,
                duration_secs: 300.0,
            }),
        }
    }

    #[test]
    fn empty_plan_is_inactive_and_draws_nothing() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        assert_eq!(plan, FaultPlan::default());
        let mut inj = FaultInjector::new(plan, 7);
        for _ in 0..100 {
            assert!(!inj.capacity_fault());
        }
        for i in 0..100 {
            assert_eq!(
                inj.instance_faults(InstanceId::new(i)),
                InstanceFaults::healthy()
            );
        }
        assert_eq!(inj.counts(), FaultCounts::default());
    }

    #[test]
    fn plan_validation_rejects_garbage() {
        let cases: Vec<(&str, FaultPlan)> = vec![
            (
                "prob > 1",
                FaultPlan {
                    capacity_failure_prob: 1.5,
                    ..FaultPlan::none()
                },
            ),
            (
                "negative prob",
                FaultPlan {
                    straggler_prob: -0.1,
                    ..FaultPlan::none()
                },
            ),
            (
                "nan prob",
                FaultPlan {
                    checkpoint_corruption_prob: f64::NAN,
                    ..FaultPlan::none()
                },
            ),
            (
                "factor < 1",
                FaultPlan {
                    straggler_factor: 0.5,
                    ..FaultPlan::none()
                },
            ),
            (
                "infinite factor",
                FaultPlan {
                    degraded_factor: f64::INFINITY,
                    ..FaultPlan::none()
                },
            ),
            (
                "negative rate",
                FaultPlan {
                    hw_failure_rate_per_hour: -2.0,
                    ..FaultPlan::none()
                },
            ),
        ];
        for (what, plan) in cases {
            let err = plan.validate().expect_err(what);
            assert!(matches!(err, RbError::InvalidConfig(_)), "{what}: {err:?}");
        }
        assert!(stormy().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn injector_rejects_invalid_plans() {
        let _ = FaultInjector::new(
            FaultPlan {
                capacity_failure_prob: 2.0,
                ..FaultPlan::none()
            },
            1,
        );
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_entity() {
        let mut a = FaultInjector::new(stormy(), 42);
        let mut b = FaultInjector::new(stormy(), 42);
        for _ in 0..50 {
            assert_eq!(a.capacity_fault(), b.capacity_fault());
        }
        for i in 0..50 {
            assert_eq!(
                a.instance_faults(InstanceId::new(i)),
                b.instance_faults(InstanceId::new(i))
            );
        }
        assert_eq!(a.counts(), b.counts());
        assert!(a.counts().total() > 0, "a stormy plan injects something");
    }

    #[test]
    fn instance_decisions_are_independent_of_query_order() {
        // Instance 5's faults are the same whether or not instances
        // 0..4 were asked about first — the counter-based seeding the
        // spot stream already uses.
        let mut ordered = FaultInjector::new(stormy(), 9);
        for i in 0..5 {
            let _ = ordered.instance_faults(InstanceId::new(i));
        }
        let via_order = ordered.instance_faults(InstanceId::new(5));
        let mut direct = FaultInjector::new(stormy(), 9);
        assert_eq!(direct.instance_faults(InstanceId::new(5)), via_order);
    }

    #[test]
    fn toggling_one_class_does_not_shift_another() {
        // Disabling hardware failures must not change which instances
        // straggle: the families are seeded independently.
        let mut with_hw = FaultInjector::new(stormy(), 11);
        let mut without_hw = FaultInjector::new(
            FaultPlan {
                hw_failure_rate_per_hour: 0.0,
                ..stormy()
            },
            11,
        );
        for i in 0..64 {
            let a = with_hw.instance_faults(InstanceId::new(i));
            let b = without_hw.instance_faults(InstanceId::new(i));
            assert_eq!(a.delay_factor, b.delay_factor, "instance {i}");
            assert_eq!(a.slowdown, b.slowdown, "instance {i}");
            assert!(b.fail_after_hours.is_none());
        }
    }

    #[test]
    fn inactive_zone_plan_draws_nothing_and_never_denies() {
        let mut inj = FaultInjector::new(stormy(), 7);
        for k in 0..50 {
            assert!(!inj.zone_denial(0, SimTime::from_secs(k)));
            assert_eq!(inj.zone_delay_factor(0, SimTime::from_secs(k)), 1.0);
            assert_eq!(inj.zone_kill_at(0, SimTime::from_secs(k)), None);
        }
        assert_eq!(inj.counts().zone_denials, 0);
        assert_eq!(inj.counts().zone_outage_kills, 0);
    }

    #[test]
    fn zone_events_only_strike_the_declared_zone_and_window() {
        let plan = FaultPlan {
            zones: zoned(),
            ..FaultPlan::none()
        };
        assert!(plan.is_active());
        let mut inj = FaultInjector::new(plan, 5);
        // Outage denial is deterministic inside the window, zone 0 only.
        assert!(inj.zone_denial(0, SimTime::from_secs(450)));
        assert!(!inj.zone_denial(1, SimTime::from_secs(450)));
        assert!(!inj.zone_denial(0, SimTime::from_secs(701)));
        // Brownout delay factor applies in-window, in-zone only.
        assert_eq!(inj.zone_delay_factor(0, SimTime::from_secs(150)), 10.0);
        assert_eq!(inj.zone_delay_factor(1, SimTime::from_secs(150)), 1.0);
        assert_eq!(inj.zone_delay_factor(0, SimTime::from_secs(350)), 1.0);
        // Outage kills: an instance handed over before the window dies at
        // its start; one handed over inside dies immediately; one handed
        // over after it escapes.
        assert_eq!(
            inj.zone_kill_at(0, SimTime::from_secs(100)),
            Some(SimTime::from_secs(400))
        );
        assert_eq!(
            inj.zone_kill_at(0, SimTime::from_secs(500)),
            Some(SimTime::from_secs(500))
        );
        assert_eq!(inj.zone_kill_at(0, SimTime::from_secs(700)), None);
        assert_eq!(inj.zone_kill_at(1, SimTime::from_secs(100)), None);
    }

    #[test]
    fn brownout_denials_are_deterministic_and_roughly_match_probability() {
        let run = || {
            let plan = FaultPlan {
                zones: ZonePlan {
                    outage: None,
                    ..zoned()
                },
                ..FaultPlan::none()
            };
            let mut inj = FaultInjector::new(plan, 13);
            let denials: Vec<bool> = (0..2000)
                .map(|_| inj.zone_denial(0, SimTime::from_secs(150)))
                .collect();
            (denials, inj.counts().zone_denials)
        };
        let (a, denied) = run();
        let (b, _) = run();
        assert_eq!(a, b);
        let frac = denied as f64 / 2000.0;
        assert!((frac - 0.6).abs() < 0.05, "denial rate {frac}");
    }

    #[test]
    fn toggling_zones_does_not_shift_other_families() {
        // Arming the zone model must not change which requests are
        // capacity-denied or which instances straggle.
        let mut plain = FaultInjector::new(stormy(), 11);
        let mut zoned_inj = FaultInjector::new(
            FaultPlan {
                zones: zoned(),
                ..stormy()
            },
            11,
        );
        for i in 0..64 {
            let _ = zoned_inj.zone_denial(0, SimTime::from_secs(i));
            assert_eq!(
                plain.capacity_fault(),
                zoned_inj.capacity_fault(),
                "req {i}"
            );
            assert_eq!(
                plain.instance_faults(InstanceId::new(i)),
                zoned_inj.instance_faults(InstanceId::new(i)),
                "instance {i}"
            );
        }
    }

    #[test]
    fn zone_plan_validation_rejects_garbage() {
        let bad_zone = ZonePlan {
            outage: Some(ZoneWindow {
                zone: 2,
                start_secs: 0.0,
                duration_secs: 1.0,
            }),
            ..zoned()
        };
        assert!(bad_zone.validate().is_err(), "window names missing zone");
        assert!(
            ZonePlan {
                zones: 0,
                ..zoned()
            }
            .validate()
            .is_err(),
            "zero zones"
        );
        let bad_prob = ZonePlan {
            brownout_denial_prob: 1.5,
            ..zoned()
        };
        assert!(bad_prob.validate().is_err());
        let bad_factor = ZonePlan {
            brownout_delay_factor: 0.5,
            ..zoned()
        };
        assert!(bad_factor.validate().is_err());
        let bad_window = ZonePlan {
            outage: Some(ZoneWindow {
                zone: 0,
                start_secs: f64::NAN,
                duration_secs: 1.0,
            }),
            ..zoned()
        };
        assert!(bad_window.validate().is_err());
        assert!(zoned().validate().is_ok());
        assert!(ZonePlan::none().validate().is_ok());
        assert!(!ZonePlan::none().is_active());
    }

    #[test]
    fn fault_rates_roughly_match_probabilities() {
        let mut inj = FaultInjector::new(stormy(), 3);
        let n = 2000u64;
        for _ in 0..n {
            let _ = inj.capacity_fault();
        }
        for i in 0..n {
            let _ = inj.instance_faults(InstanceId::new(i));
        }
        let c = inj.counts();
        let frac = |x: u64| x as f64 / n as f64;
        assert!((frac(c.capacity_failures) - 0.5).abs() < 0.05);
        assert!((frac(c.stragglers) - 0.3).abs() < 0.05);
        assert!((frac(c.degraded_nodes) - 0.25).abs() < 0.05);
    }
}
