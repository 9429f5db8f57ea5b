//! The simulated cloud provider.
//!
//! [`SimProvider`] services provisioning requests the way EC2 does from the
//! job's point of view: a request is acknowledged immediately, and each
//! instance becomes available after a *scaling latency* (provider queuing
//! delay, §4.1) sampled per instance. As the paper assumes (§3), every
//! request is eventually served.

use crate::billing::BillingMeter;
use crate::catalog::InstanceType;
use crate::chaos::{FaultCounts, FaultInjector, FaultPlan, InstanceFaults};
use rb_core::ids::IdGen;
use rb_core::{mix_seed, Distribution, InstanceId, Prng, RbError, Result, SimDuration, SimTime};
use rb_obs::{Lane, RecorderHandle};
use std::collections::{BTreeMap, BTreeSet};

/// Lifecycle state of one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Requested; becomes ready at the contained time.
    Pending {
        /// When the provider will hand over the instance.
        ready_at: SimTime,
    },
    /// Handed over and billing; available to the job since the contained
    /// time.
    Running {
        /// When the instance became ready.
        since: SimTime,
    },
    /// Terminated at the contained time.
    Terminated {
        /// When the instance was released.
        at: SimTime,
    },
}

/// Static configuration of the simulated provider.
#[derive(Debug, Clone)]
pub struct ProviderConfig {
    /// The (homogeneous) worker instance shape.
    pub instance_type: InstanceType,
    /// Scaling latency: seconds from request to hand-over, sampled per
    /// instance.
    pub provision_delay_secs: Distribution,
    /// Spot interruption rate per instance-hour (Poisson). Zero (the
    /// default) models uninterruptible on-demand capacity; the paper
    /// defers pre-emptible capacity, so this is an extension.
    pub interruption_rate_per_hour: f64,
}

impl ProviderConfig {
    /// Checks the configuration: the hand-over delay distribution must be
    /// well-formed and the interruption rate finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        self.provision_delay_secs.validate()?;
        if !self.interruption_rate_per_hour.is_finite() || self.interruption_rate_per_hour < 0.0 {
            return Err(RbError::InvalidConfig(format!(
                "interruption_rate_per_hour must be finite and non-negative, got {}",
                self.interruption_rate_per_hour
            )));
        }
        Ok(())
    }
}

/// The simulated provider: owns the fleet, samples hand-over delays, and
/// feeds the [`BillingMeter`].
#[derive(Debug)]
pub struct SimProvider {
    config: ProviderConfig,
    rng: Prng,
    /// Base seed for per-instance spot-interruption streams. Each
    /// instance draws its interruption offset from
    /// `Prng::for_stream(interrupt_seed, id.raw())`, so the instant an
    /// instance is reclaimed depends only on the provider seed and the
    /// instance's creation index — never on how many other draws (delay
    /// samples, other instances) happened first. Two runs that provision
    /// the same instance index see the same interruption, regardless of
    /// controller polling cadence or interleaved requests.
    interrupt_seed: u64,
    ids: IdGen<InstanceId>,
    fleet: BTreeMap<InstanceId, InstanceState>,
    /// Pre-sampled spot interruption instants (absent for on-demand or
    /// when the rate is zero). Sampled at provisioning so results are
    /// independent of query order.
    preempt_at: BTreeMap<InstanceId, SimTime>,
    meter: BillingMeter,
    /// Fault injector (absent by default — and absent means *zero*
    /// extra RNG draws, so an uninjected provider is bit-identical to
    /// one that never heard of faults).
    faults: Option<FaultInjector>,
    /// Work-unit slowdown factors for degraded instances (> 1.0).
    slowdown: BTreeMap<InstanceId, f64>,
    /// Instances whose scheduled reclaim is an injected hardware
    /// failure rather than a spot interruption.
    hw_origin: BTreeSet<InstanceId>,
    /// The zone new capacity is requested from. Zones are a pure
    /// labelling of the fleet (placement within one region); they only
    /// matter when an armed fault plan declares zone-correlated events.
    home_zone: u32,
    /// Zone each instance was provisioned (or adopted) into.
    zones: BTreeMap<InstanceId, u32>,
    /// Instances whose scheduled reclaim is a zone outage rather than
    /// a spot interruption or hardware failure.
    zone_origin: BTreeSet<InstanceId>,
    /// Observability sink (no-op by default). The recorder only
    /// receives lifecycle facts; provisioning randomness and billing
    /// are oblivious to it.
    recorder: RecorderHandle,
}

impl SimProvider {
    /// Creates a provider with its own deterministic randomness stream.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ProviderConfig::validate`] —
    /// a malformed delay distribution or interruption rate would
    /// otherwise sample garbage deep inside a run.
    pub fn new(config: ProviderConfig, seed: u64) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid provider config: {e}");
        }
        SimProvider {
            config,
            rng: Prng::seed_from_u64(seed),
            interrupt_seed: mix_seed(seed, 0x5107_1A7E),
            ids: IdGen::new(),
            fleet: BTreeMap::new(),
            preempt_at: BTreeMap::new(),
            meter: BillingMeter::new(),
            faults: None,
            slowdown: BTreeMap::new(),
            hw_origin: BTreeSet::new(),
            home_zone: 0,
            zones: BTreeMap::new(),
            zone_origin: BTreeSet::new(),
            recorder: RecorderHandle::noop(),
        }
    }

    /// Attaches an observability recorder; provisioning, hand-over,
    /// termination and preemption events are reported on the cloud lane.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    /// Arms fault injection under `plan`, seeding decision streams from
    /// `seed` the same way the spot stream is seeded. An inactive plan
    /// leaves the provider untouched (no injector, no draws).
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        if plan.is_active() {
            self.faults = Some(FaultInjector::new(plan, seed));
        } else {
            plan.validate().expect("invalid fault plan");
            self.faults = None;
        }
    }

    /// Faults injected so far (all zero without an injector).
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults.as_ref().map(|f| f.counts()).unwrap_or_default()
    }

    /// Work-unit latency multiplier for an instance: 1.0 for healthy
    /// nodes, the plan's `degraded_factor` for injected-degraded ones.
    pub fn node_slowdown(&self, id: InstanceId) -> f64 {
        self.slowdown.get(&id).copied().unwrap_or(1.0)
    }

    /// The zone future provisioning requests will land in.
    pub fn home_zone(&self) -> u32 {
        self.home_zone
    }

    /// Moves future provisioning requests to `zone` (wrapped into the
    /// declared zone count). Existing instances keep the zone they were
    /// created in — moving the home zone is a *placement* decision, not
    /// a migration.
    pub fn set_home_zone(&mut self, zone: u32) {
        self.home_zone = zone % self.num_zones();
    }

    /// The zone `id` was provisioned into (zone 0 for unknown ids —
    /// every provider has at least one zone).
    pub fn instance_zone(&self, id: InstanceId) -> u32 {
        self.zones.get(&id).copied().unwrap_or(0)
    }

    /// Number of zones declared by the armed fault plan (1 without an
    /// injector: an unfaulted region is a single homogeneous domain).
    pub fn num_zones(&self) -> u32 {
        self.faults
            .as_ref()
            .map(|f| f.plan().zones.zones)
            .unwrap_or(1)
            .max(1)
    }

    /// Changes the spot-interruption rate for *future* provisioning.
    /// Instances already holding a sampled interruption keep it; this
    /// is what a mid-run market switch needs — the old fleet drains
    /// under the old market's rules while new capacity arrives under
    /// the new market's.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and non-negative.
    pub fn set_interruption_rate(&mut self, rate_per_hour: f64) {
        assert!(
            rate_per_hour.is_finite() && rate_per_hour >= 0.0,
            "interruption rate must be finite and non-negative, got {rate_per_hour}"
        );
        self.config.interruption_rate_per_hour = rate_per_hour;
    }

    /// The configured instance shape.
    pub fn instance_type(&self) -> &InstanceType {
        &self.config.instance_type
    }

    /// Requests `n` instances at time `now`.
    ///
    /// Returns the instance ids and the time each becomes ready. Billing for
    /// each instance starts at its ready time (as on EC2, where the billed
    /// period starts when the instance enters the running state).
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Capacity`] if an armed fault injector denies
    /// the request (transient; retryable).
    pub fn provision(&mut self, n: usize, now: SimTime) -> Result<Vec<(InstanceId, SimTime)>> {
        if let Some(inj) = self.faults.as_mut() {
            if inj.capacity_fault() {
                if self.recorder.enabled() {
                    self.recorder.instant(
                        now,
                        "cloud",
                        "fault.capacity",
                        Lane::Cloud,
                        vec![("requested", (n as u64).into())],
                    );
                    self.recorder.counter_add("cloud", "capacity_denied", 1);
                }
                return Err(RbError::Capacity(format!(
                    "request for {n} instance(s) denied"
                )));
            }
        }
        let zone = self.home_zone;
        if let Some(inj) = self.faults.as_mut() {
            if inj.zone_denial(zone, now) {
                if self.recorder.enabled() {
                    self.recorder.instant(
                        now,
                        "cloud",
                        "fault.zone_denied",
                        Lane::Cloud,
                        vec![
                            ("zone", (zone as u64).into()),
                            ("requested", (n as u64).into()),
                        ],
                    );
                    self.recorder.counter_add("cloud", "zone_denied", 1);
                }
                return Err(RbError::Capacity(format!(
                    "zone {zone}: request for {n} instance(s) denied"
                )));
            }
        }
        // Brownout hand-over inflation is a pure function of (zone,
        // time) — no draw, so an inactive zone plan changes nothing.
        let zone_factor = self
            .faults
            .as_ref()
            .map_or(1.0, |inj| inj.zone_delay_factor(zone, now));
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let delay =
                SimDuration::from_secs_f64(self.config.provision_delay_secs.sample(&mut self.rng));
            let id = self.ids.next();
            let fault = match self.faults.as_mut() {
                Some(inj) => inj.instance_faults(id),
                None => InstanceFaults::healthy(),
            };
            // Stragglers and brownouts inflate the sampled delay;
            // healthy instances keep the exact duration (no f64
            // round-trip).
            let total_factor = fault.delay_factor * zone_factor;
            let ready_at = if total_factor > 1.0 {
                now + SimDuration::from_secs_f64(delay.as_secs_f64() * total_factor)
            } else {
                now + delay
            };
            self.fleet.insert(id, InstanceState::Pending { ready_at });
            self.zones.insert(id, zone);
            if self.config.interruption_rate_per_hour > 0.0 {
                // Per-instance forked stream: the draw is a pure function
                // of (provider seed, instance index), so interruption
                // traces are identical across runs that differ only in
                // polling cadence or unrelated provisioning.
                let mut irng = Prng::for_stream(self.interrupt_seed, id.raw());
                let hours = Distribution::Exponential {
                    rate: self.config.interruption_rate_per_hour,
                }
                .sample(&mut irng);
                self.preempt_at
                    .insert(id, ready_at + SimDuration::from_secs_f64(hours * 3600.0));
            }
            if fault.slowdown > 1.0 {
                self.slowdown.insert(id, fault.slowdown);
                if self.recorder.enabled() {
                    self.recorder.instant(
                        now,
                        "cloud",
                        "fault.degraded",
                        Lane::Cloud,
                        vec![("instance", id.raw().into())],
                    );
                    self.recorder.counter_add("cloud", "degraded_nodes", 1);
                }
            }
            if fault.delay_factor > 1.0 && self.recorder.enabled() {
                self.recorder.instant(
                    now,
                    "cloud",
                    "fault.straggler",
                    Lane::Cloud,
                    vec![
                        ("instance", id.raw().into()),
                        ("ready_ms", ready_at.as_millis().into()),
                    ],
                );
                self.recorder.counter_add("cloud", "stragglers", 1);
            }
            if let Some(hours) = fault.fail_after_hours {
                // A hardware failure reclaims the instance exactly like a
                // spot interruption; whichever strikes first wins the
                // scheduled slot, and we remember the cause for the
                // recovery rollup.
                let fail_at = ready_at + SimDuration::from_secs_f64(hours * 3600.0);
                if self
                    .preempt_at
                    .get(&id)
                    .map_or(true, |&spot| fail_at < spot)
                {
                    self.preempt_at.insert(id, fail_at);
                    self.hw_origin.insert(id);
                }
            }
            // A zone outage reclaims every instance alive in the zone
            // at (or provisioned into) the outage window — the
            // correlated counterpart of the independent failures
            // above. Deterministic: no draw, earliest reclaim wins.
            if let Some(kill_at) = self
                .faults
                .as_ref()
                .and_then(|inj| inj.zone_kill_at(zone, ready_at))
            {
                if self
                    .preempt_at
                    .get(&id)
                    .map_or(true, |&other| kill_at < other)
                {
                    self.preempt_at.insert(id, kill_at);
                    self.hw_origin.remove(&id);
                    self.zone_origin.insert(id);
                }
            }
            out.push((id, ready_at));
        }
        if self.recorder.enabled() {
            for &(id, ready_at) in &out {
                self.recorder.instant(
                    now,
                    "cloud",
                    "provision",
                    Lane::Cloud,
                    vec![
                        ("instance", id.raw().into()),
                        ("ready_ms", ready_at.as_millis().into()),
                    ],
                );
            }
            self.recorder
                .counter_add("cloud", "provisioned", out.len() as u64);
        }
        Ok(out)
    }

    /// Adopts a warm instance handed over from a shared pool: it enters
    /// the fleet already `Running` at `now` — no provisioning delay, no
    /// initialization, billing from `now`. The donor paid (and stopped)
    /// its own bill; adoption opens a fresh lifetime on this meter.
    ///
    /// Adoption consumes **zero** draws from the provider's main RNG
    /// stream: delays are skipped entirely and the spot-interruption
    /// instant (when the market is pre-emptible) comes from the same
    /// per-instance forked stream `provision` uses. A run that never
    /// adopts is therefore bit-identical to one on a provider that has
    /// no such method. Fault injection does not apply: the
    /// capacity already exists — it is being transferred, not requested.
    pub fn adopt_running(&mut self, now: SimTime) -> InstanceId {
        let id = self.ids.next();
        self.fleet.insert(id, InstanceState::Running { since: now });
        self.zones.insert(id, self.home_zone);
        self.meter.instance_started(id, now);
        if self.config.interruption_rate_per_hour > 0.0 {
            let mut irng = Prng::for_stream(self.interrupt_seed, id.raw());
            let hours = Distribution::Exponential {
                rate: self.config.interruption_rate_per_hour,
            }
            .sample(&mut irng);
            self.preempt_at
                .insert(id, now + SimDuration::from_secs_f64(hours * 3600.0));
        }
        if self.recorder.enabled() {
            self.recorder.instant(
                now,
                "cloud",
                "instance.adopt",
                Lane::Cloud,
                vec![("instance", id.raw().into())],
            );
            self.recorder.counter_add("cloud", "adopted", 1);
        }
        id
    }

    /// Transitions every pending instance whose ready time has arrived to
    /// `Running` and starts its billing. Returns the newly ready ids.
    pub fn poll_ready(&mut self, now: SimTime) -> Vec<InstanceId> {
        let mut ready = Vec::new();
        for (&id, state) in self.fleet.iter_mut() {
            if let InstanceState::Pending { ready_at } = *state {
                if ready_at <= now {
                    *state = InstanceState::Running { since: ready_at };
                    self.meter.instance_started(id, ready_at);
                    if self.recorder.enabled() {
                        self.recorder.instant(
                            ready_at,
                            "cloud",
                            "instance.running",
                            Lane::Cloud,
                            vec![("instance", id.raw().into())],
                        );
                    }
                    ready.push(id);
                }
            }
        }
        ready
    }

    /// Terminates a running instance at `now`, stopping its billing —
    /// or **cancels** a still-pending one. Cancelling an in-flight
    /// provisioning request is free: billing only ever starts at
    /// hand-over, so an instance that never reached `Running` never
    /// touches the meter. This is what lets a retry loop abandon a
    /// stuck (straggling) request without paying for it.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Provider`] if the instance is unknown or
    /// already terminated.
    pub fn terminate(&mut self, id: InstanceId, now: SimTime) -> Result<()> {
        match self.fleet.get_mut(&id) {
            Some(state @ InstanceState::Running { .. }) => {
                *state = InstanceState::Terminated { at: now };
                self.meter.instance_stopped(id, now)?;
                self.preempt_at.remove(&id);
                self.hw_origin.remove(&id);
                self.zone_origin.remove(&id);
                if self.recorder.enabled() {
                    self.recorder.instant(
                        now,
                        "cloud",
                        "instance.terminate",
                        Lane::Cloud,
                        vec![("instance", id.raw().into())],
                    );
                    self.recorder.counter_add("cloud", "terminated", 1);
                }
                Ok(())
            }
            Some(state @ InstanceState::Pending { .. }) => {
                *state = InstanceState::Terminated { at: now };
                self.preempt_at.remove(&id);
                self.hw_origin.remove(&id);
                self.zone_origin.remove(&id);
                if self.recorder.enabled() {
                    self.recorder.instant(
                        now,
                        "cloud",
                        "instance.cancel",
                        Lane::Cloud,
                        vec![("instance", id.raw().into())],
                    );
                    self.recorder.counter_add("cloud", "cancelled", 1);
                }
                Ok(())
            }
            Some(InstanceState::Terminated { .. }) => Err(RbError::Provider(format!(
                "cannot terminate {id}: already terminated"
            ))),
            None => Err(RbError::Provider(format!("unknown instance {id}"))),
        }
    }

    /// Terminates every running instance at `now` (end-of-job cleanup).
    pub fn terminate_all(&mut self, now: SimTime) {
        let running: Vec<InstanceId> = self
            .fleet
            .iter()
            .filter(|(_, s)| matches!(s, InstanceState::Running { .. }))
            .map(|(&id, _)| id)
            .collect();
        for id in running {
            self.terminate(id, now)
                .expect("running instance must terminate cleanly");
        }
    }

    /// The instant at which the spot market will reclaim `id`, if it is
    /// pre-emptible. Known to the simulation (not to a real tenant!) so
    /// the executor can replay interruptions deterministically.
    pub fn preemption_time(&self, id: InstanceId) -> Option<SimTime> {
        self.preempt_at.get(&id).copied()
    }

    /// Reclaims a running spot instance at its sampled interruption time.
    /// Billing stops at the interruption (interrupted partial periods are
    /// not charged beyond it, as on EC2 spot).
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Provider`] if the instance is not running or
    /// has no pending interruption.
    pub fn preempt(&mut self, id: InstanceId) -> Result<SimTime> {
        let at = self
            .preempt_at
            .get(&id)
            .copied()
            .ok_or_else(|| RbError::Provider(format!("{id} has no scheduled interruption")))?;
        match self.fleet.get_mut(&id) {
            Some(state @ InstanceState::Running { .. }) => {
                *state = InstanceState::Terminated { at };
                self.meter.instance_stopped(id, at)?;
                self.preempt_at.remove(&id);
                let hw = self.hw_origin.remove(&id);
                let zone_kill = self.zone_origin.remove(&id);
                if hw {
                    if let Some(inj) = self.faults.as_mut() {
                        inj.note_hw_failure();
                    }
                }
                if zone_kill {
                    if let Some(inj) = self.faults.as_mut() {
                        inj.note_zone_kill();
                    }
                }
                if self.recorder.enabled() {
                    self.recorder.instant(
                        at,
                        "cloud",
                        if zone_kill {
                            "fault.zone_outage"
                        } else if hw {
                            "fault.hw_failure"
                        } else {
                            "instance.preempt"
                        },
                        Lane::Cloud,
                        vec![("instance", id.raw().into())],
                    );
                    self.recorder.counter_add(
                        "cloud",
                        if zone_kill {
                            "zone_outage_killed"
                        } else if hw {
                            "hw_failed"
                        } else {
                            "preempted"
                        },
                        1,
                    );
                }
                Ok(at)
            }
            other => Err(RbError::Provider(format!(
                "cannot preempt {id}: state {other:?}"
            ))),
        }
    }

    /// Returns the state of an instance, if known.
    pub fn state(&self, id: InstanceId) -> Option<InstanceState> {
        self.fleet.get(&id).copied()
    }

    /// Ids of all currently running instances, in creation order.
    pub fn running_ids(&self) -> Vec<InstanceId> {
        self.fleet
            .iter()
            .filter(|(_, s)| matches!(s, InstanceState::Running { .. }))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Read access to the billing meter.
    pub fn meter(&self) -> &BillingMeter {
        &self.meter
    }

    /// Mutable access to the billing meter (for recording usage and ingress
    /// events that the provider itself does not observe).
    pub fn meter_mut(&mut self) -> &mut BillingMeter {
        &mut self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::P3_8XLARGE;
    use crate::pricing::CloudPricing;

    /// Number of instances pending or running.
    fn live_count(p: &SimProvider) -> usize {
        p.fleet
            .values()
            .filter(|s| !matches!(s, InstanceState::Terminated { .. }))
            .count()
    }

    /// A provider config with a constant hand-over delay.
    fn with_constant_delay(instance_type: InstanceType, delay: SimDuration) -> ProviderConfig {
        ProviderConfig {
            instance_type,
            provision_delay_secs: Distribution::Constant(delay.as_secs_f64()),
            interruption_rate_per_hour: 0.0,
        }
    }

    fn provider(delay_secs: u64) -> SimProvider {
        SimProvider::new(
            with_constant_delay(P3_8XLARGE.clone(), SimDuration::from_secs(delay_secs)),
            1,
        )
    }

    #[test]
    fn provision_then_poll_transitions_to_running() {
        let mut p = provider(30);
        let handles = p.provision(3, SimTime::ZERO).unwrap();
        assert_eq!(handles.len(), 3);
        for (_, ready) in &handles {
            assert_eq!(*ready, SimTime::from_secs(30));
        }
        assert!(p.poll_ready(SimTime::from_secs(29)).is_empty());
        assert_eq!(p.running_ids().len(), 0);
        let ready = p.poll_ready(SimTime::from_secs(30));
        assert_eq!(ready.len(), 3);
        assert_eq!(p.running_ids().len(), 3);
    }

    #[test]
    fn billing_starts_at_ready_not_request() {
        let mut p = provider(60);
        let (id, ready_at) = p.provision(1, SimTime::ZERO).unwrap()[0];
        p.poll_ready(ready_at);
        p.terminate(id, ready_at + SimDuration::from_hours(1))
            .unwrap();
        let bill = p.meter().compute_cost(
            &CloudPricing::on_demand(P3_8XLARGE),
            ready_at + SimDuration::from_hours(1),
        );
        // Exactly one hour billed despite the 60 s queue delay.
        assert_eq!(bill, P3_8XLARGE.on_demand_hourly);
    }

    #[test]
    fn terminate_pending_cancels_without_billing() {
        let mut p = provider(30);
        let (id, _) = p.provision(1, SimTime::ZERO).unwrap()[0];
        // Cancelling an in-flight request succeeds...
        p.terminate(id, SimTime::from_secs(1)).unwrap();
        assert!(matches!(
            p.state(id),
            Some(InstanceState::Terminated { at }) if at == SimTime::from_secs(1)
        ));
        // ...the instance never becomes ready...
        assert!(p.poll_ready(SimTime::from_secs(30)).is_empty());
        assert_eq!(p.running_ids().len(), 0);
        // ...billing never started (nothing to charge, ever)...
        assert_eq!(p.meter().instances_started(), 0);
        let bill = p.meter().compute_cost(
            &CloudPricing::on_demand(P3_8XLARGE),
            SimTime::from_secs(7200),
        );
        assert_eq!(bill, rb_core::Cost::ZERO);
        // ...and it no longer counts as live.
        assert_eq!(live_count(&p), 0);
    }

    #[test]
    fn cancel_clears_scheduled_interruption() {
        let mut cfg = with_constant_delay(P3_8XLARGE.clone(), SimDuration::from_secs(60));
        cfg.interruption_rate_per_hour = 1.0;
        let mut p = SimProvider::new(cfg, 5);
        let (id, _) = p.provision(1, SimTime::ZERO).unwrap()[0];
        assert!(p.preemption_time(id).is_some());
        p.terminate(id, SimTime::from_secs(10)).unwrap();
        assert_eq!(p.preemption_time(id), None);
        assert!(p.preempt(id).is_err());
    }

    #[test]
    fn double_terminate_is_an_error() {
        let mut p = provider(0);
        let (id, ready) = p.provision(1, SimTime::ZERO).unwrap()[0];
        p.poll_ready(ready);
        p.terminate(id, SimTime::from_secs(100)).unwrap();
        assert!(p.terminate(id, SimTime::from_secs(200)).is_err());
    }

    #[test]
    fn unknown_instance_is_an_error() {
        let mut p = provider(0);
        assert!(p.terminate(InstanceId::new(99), SimTime::ZERO).is_err());
    }

    #[test]
    fn terminate_all_stops_every_running_instance() {
        let mut p = provider(0);
        p.provision(4, SimTime::ZERO).unwrap();
        p.poll_ready(SimTime::ZERO);
        p.terminate_all(SimTime::from_secs(120));
        assert_eq!(p.running_ids().len(), 0);
        assert_eq!(live_count(&p), 0);
    }

    #[test]
    fn stochastic_delays_are_deterministic_per_seed() {
        let mk = || {
            let cfg = ProviderConfig {
                instance_type: P3_8XLARGE.clone(),
                provision_delay_secs: Distribution::lognormal_from_moments(20.0, 10.0),
                interruption_rate_per_hour: 0.0,
            };
            SimProvider::new(cfg, 42)
        };
        let mut a = mk();
        let mut b = mk();
        let ra = a.provision(5, SimTime::ZERO).unwrap();
        let rb = b.provision(5, SimTime::ZERO).unwrap();
        assert_eq!(ra, rb);
        // And the delays actually vary across instances.
        let distinct: std::collections::BTreeSet<_> = ra.iter().map(|(_, t)| *t).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn spot_interruptions_are_sampled_and_preemptable() {
        let mut cfg = with_constant_delay(P3_8XLARGE.clone(), SimDuration::from_secs(0));
        cfg.interruption_rate_per_hour = 2.0;
        let mut p = SimProvider::new(cfg, 9);
        let handles = p.provision(4, SimTime::ZERO).unwrap();
        p.poll_ready(SimTime::ZERO);
        for (id, ready) in &handles {
            let t = p.preemption_time(*id).expect("spot instances get a draw");
            assert!(t >= *ready);
        }
        // Preempting stops billing at the sampled instant.
        let (victim, _) = handles[0];
        let at = p.preempt(victim).unwrap();
        assert_eq!(p.preemption_time(victim), None);
        assert!(matches!(
            p.state(victim),
            Some(InstanceState::Terminated { at: t }) if t == at
        ));
        // Double preemption fails.
        assert!(p.preempt(victim).is_err());
    }

    #[test]
    fn interruption_draws_are_independent_of_provisioning_cadence() {
        let mk = || {
            let cfg = ProviderConfig {
                instance_type: P3_8XLARGE.clone(),
                provision_delay_secs: Distribution::Constant(5.0),
                interruption_rate_per_hour: 1.5,
            };
            SimProvider::new(cfg, 77)
        };
        // One batch of 6 versus the same 6 provisioned across three
        // requests at different times: identical instance indices must
        // get identical interruption *offsets* past their ready times.
        let mut a = mk();
        let ha = a.provision(6, SimTime::ZERO).unwrap();
        let mut b = mk();
        let mut hb = b.provision(2, SimTime::ZERO).unwrap();
        hb.extend(b.provision(3, SimTime::from_secs(100)).unwrap());
        hb.extend(b.provision(1, SimTime::from_secs(900)).unwrap());
        for ((ia, ra), (ib, rb)) in ha.iter().zip(hb.iter()) {
            assert_eq!(ia, ib);
            let offset_a = a.preemption_time(*ia).unwrap() - *ra;
            let offset_b = b.preemption_time(*ib).unwrap() - *rb;
            assert_eq!(offset_a, offset_b, "instance {ia} offset diverged");
        }
        // And the offsets vary across instances (distinct streams).
        let distinct: std::collections::BTreeSet<_> = ha
            .iter()
            .map(|(id, r)| a.preemption_time(*id).unwrap() - *r)
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn on_demand_instances_are_never_preempted() {
        let mut p = provider(0);
        let (id, _) = p.provision(1, SimTime::ZERO).unwrap()[0];
        p.poll_ready(SimTime::ZERO);
        assert_eq!(p.preemption_time(id), None);
        assert!(p.preempt(id).is_err());
    }

    #[test]
    fn terminate_clears_pending_interruption() {
        let mut cfg = with_constant_delay(P3_8XLARGE.clone(), SimDuration::from_secs(0));
        cfg.interruption_rate_per_hour = 1.0;
        let mut p = SimProvider::new(cfg, 3);
        let (id, _) = p.provision(1, SimTime::ZERO).unwrap()[0];
        p.poll_ready(SimTime::ZERO);
        p.terminate(id, SimTime::from_secs(120)).unwrap();
        assert_eq!(p.preemption_time(id), None);
    }

    #[test]
    fn running_ids_in_creation_order() {
        let mut p = provider(0);
        let handles = p.provision(3, SimTime::ZERO).unwrap();
        p.poll_ready(SimTime::ZERO);
        assert_eq!(
            p.running_ids(),
            handles.iter().map(|(id, _)| *id).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "invalid provider config")]
    fn constructor_rejects_malformed_delay_distribution() {
        let cfg = ProviderConfig {
            instance_type: P3_8XLARGE.clone(),
            provision_delay_secs: Distribution::Constant(-5.0),
            interruption_rate_per_hour: 0.0,
        };
        let _ = SimProvider::new(cfg, 1);
    }

    #[test]
    #[should_panic(expected = "invalid provider config")]
    fn constructor_rejects_nan_interruption_rate() {
        let cfg = ProviderConfig {
            instance_type: P3_8XLARGE.clone(),
            provision_delay_secs: Distribution::Constant(1.0),
            interruption_rate_per_hour: f64::NAN,
        };
        let _ = SimProvider::new(cfg, 1);
    }

    #[test]
    fn capacity_faults_deny_provisioning_with_a_retryable_error() {
        let mut p = provider(10);
        p.set_fault_plan(
            FaultPlan {
                capacity_failure_prob: 1.0,
                ..FaultPlan::none()
            },
            7,
        );
        let err = p.provision(2, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, RbError::Capacity(_)), "{err:?}");
        assert_eq!(p.fault_counts().capacity_failures, 1);
        assert_eq!(live_count(&p), 0, "a denied request provisions nothing");
    }

    #[test]
    fn stragglers_inflate_handover_and_degraded_nodes_report_slowdown() {
        let mut p = provider(30);
        p.set_fault_plan(
            FaultPlan {
                straggler_prob: 1.0,
                straggler_factor: 10.0,
                degraded_prob: 1.0,
                degraded_factor: 2.5,
                ..FaultPlan::none()
            },
            7,
        );
        let (id, ready) = p.provision(1, SimTime::ZERO).unwrap()[0];
        assert_eq!(ready, SimTime::from_secs(300), "30 s delay x 10");
        assert_eq!(p.node_slowdown(id), 2.5);
        let c = p.fault_counts();
        assert_eq!((c.stragglers, c.degraded_nodes), (1, 1));
        // Healthy instances on the same provider report no slowdown.
        assert_eq!(p.node_slowdown(InstanceId::new(999)), 1.0);
    }

    #[test]
    fn hw_failures_reclaim_on_demand_instances_like_preemptions() {
        let mut p = provider(0);
        p.set_fault_plan(
            FaultPlan {
                hw_failure_rate_per_hour: 4.0,
                ..FaultPlan::none()
            },
            11,
        );
        let (id, ready) = p.provision(1, SimTime::ZERO).unwrap()[0];
        p.poll_ready(ready);
        let at = p
            .preemption_time(id)
            .expect("hw failure schedules a reclaim even with no spot market");
        assert!(at >= ready);
        assert_eq!(p.preempt(id).unwrap(), at);
        assert_eq!(p.fault_counts().hw_failures, 1);
        assert!(matches!(
            p.state(id),
            Some(InstanceState::Terminated { .. })
        ));
    }

    fn two_zone_outage_plan() -> FaultPlan {
        use crate::chaos::{ZonePlan, ZoneWindow};
        FaultPlan {
            zones: ZonePlan {
                zones: 2,
                outage: Some(ZoneWindow {
                    zone: 0,
                    start_secs: 100.0,
                    duration_secs: 300.0,
                }),
                ..ZonePlan::none()
            },
            ..FaultPlan::none()
        }
    }

    #[test]
    fn zone_outage_denies_new_capacity_and_kills_survivors_in_zone() {
        let mut p = provider(0);
        p.set_fault_plan(two_zone_outage_plan(), 13);
        assert_eq!(p.num_zones(), 2);
        // Provisioned before the outage, but the zone goes dark at
        // t=100 s: a reclaim is scheduled at the outage start.
        let (id, ready) = p.provision(1, SimTime::ZERO).unwrap()[0];
        p.poll_ready(ready);
        assert_eq!(p.instance_zone(id), 0);
        assert_eq!(p.preemption_time(id), Some(SimTime::from_secs(100)));
        // During the window the zone denies all new capacity...
        let err = p.provision(1, SimTime::from_secs(150)).unwrap_err();
        assert!(matches!(err, RbError::Capacity(_)), "{err:?}");
        // ...while the other zone still serves.
        p.set_home_zone(1);
        let (id2, _) = p.provision(1, SimTime::from_secs(150)).unwrap()[0];
        assert_eq!(p.instance_zone(id2), 1);
        assert_eq!(p.preemption_time(id2), None);
        // The scheduled kill is attributed to the outage.
        assert_eq!(p.preempt(id).unwrap(), SimTime::from_secs(100));
        let c = p.fault_counts();
        assert_eq!((c.zone_denials, c.zone_outage_kills), (1, 1));
        // After the window the zone accepts requests again.
        p.set_home_zone(0);
        assert!(p.provision(1, SimTime::from_secs(400)).is_ok());
    }

    #[test]
    fn zone_brownout_inflates_handover_inside_the_window_only() {
        use crate::chaos::{ZonePlan, ZoneWindow};
        let mut p = provider(30);
        p.set_fault_plan(
            FaultPlan {
                zones: ZonePlan {
                    zones: 2,
                    brownout: Some(ZoneWindow {
                        zone: 0,
                        start_secs: 100.0,
                        duration_secs: 200.0,
                    }),
                    brownout_delay_factor: 5.0,
                    ..ZonePlan::none()
                },
                ..FaultPlan::none()
            },
            13,
        );
        // Inside the window: 30 s hand-over becomes 150 s.
        let (_, ready) = p.provision(1, SimTime::from_secs(100)).unwrap()[0];
        assert_eq!(ready, SimTime::from_secs(250));
        // Outside the window (and in the other zone) it is untouched.
        let (_, ready) = p.provision(1, SimTime::from_secs(400)).unwrap()[0];
        assert_eq!(ready, SimTime::from_secs(430));
        p.set_home_zone(1);
        let (_, ready) = p.provision(1, SimTime::from_secs(100)).unwrap()[0];
        assert_eq!(ready, SimTime::from_secs(130));
    }

    #[test]
    fn set_home_zone_wraps_into_declared_zone_count() {
        let mut p = provider(0);
        // Without an injector there is a single zone.
        p.set_home_zone(3);
        assert_eq!(p.home_zone(), 0);
        p.set_fault_plan(two_zone_outage_plan(), 13);
        p.set_home_zone(3);
        assert_eq!(p.home_zone(), 1);
    }

    #[test]
    fn windowless_zone_plan_is_bit_identical_to_zoneless_plan() {
        use crate::chaos::ZonePlan;
        // An armed injector whose zone plan declares zones but no
        // windows must draw exactly what the zoneless plan draws.
        let mk = |zoned: bool| {
            let cfg = ProviderConfig {
                instance_type: P3_8XLARGE.clone(),
                provision_delay_secs: Distribution::lognormal_from_moments(20.0, 10.0),
                interruption_rate_per_hour: 1.5,
            };
            let mut p = SimProvider::new(cfg, 42);
            let mut plan = FaultPlan {
                straggler_prob: 0.5,
                straggler_factor: 4.0,
                ..FaultPlan::none()
            };
            if zoned {
                plan.zones = ZonePlan {
                    zones: 4,
                    ..ZonePlan::none()
                };
            }
            p.set_fault_plan(plan, 42);
            p
        };
        let mut plain = mk(false);
        let mut zoned = mk(true);
        assert_eq!(zoned.num_zones(), 4);
        let ha = plain.provision(6, SimTime::ZERO).unwrap();
        let hb = zoned.provision(6, SimTime::ZERO).unwrap();
        assert_eq!(ha, hb);
        for (id, _) in &ha {
            assert_eq!(plain.preemption_time(*id), zoned.preemption_time(*id));
        }
        assert_eq!(plain.fault_counts(), zoned.fault_counts());
    }

    #[test]
    fn inactive_fault_plan_is_bit_identical_to_no_plan() {
        let mk = |armed: bool| {
            let cfg = ProviderConfig {
                instance_type: P3_8XLARGE.clone(),
                provision_delay_secs: Distribution::lognormal_from_moments(20.0, 10.0),
                interruption_rate_per_hour: 1.5,
            };
            let mut p = SimProvider::new(cfg, 42);
            if armed {
                p.set_fault_plan(FaultPlan::none(), 42);
            }
            p
        };
        let mut plain = mk(false);
        let mut disarmed = mk(true);
        assert!(disarmed.faults.is_none(), "an inactive plan arms nothing");
        let ha = plain.provision(5, SimTime::ZERO).unwrap();
        let hb = disarmed.provision(5, SimTime::ZERO).unwrap();
        assert_eq!(ha, hb);
        for (id, _) in &ha {
            assert_eq!(plain.preemption_time(*id), disarmed.preemption_time(*id));
        }
        assert_eq!(disarmed.fault_counts(), FaultCounts::default());
    }
}
