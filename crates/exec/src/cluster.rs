//! The cluster manager (§5): elastic scaling against the simulated
//! provider.
//!
//! Extends the provider with the job-side realities the paper models:
//! after the provider hands an instance over (scaling latency), the
//! instance still pays an *initialization latency* (dependency install,
//! joining the cluster) and a one-time dataset download before trials can
//! use it. Billing runs from hand-over to termination; the embedded
//! [`BillingMeter`](rb_cloud::BillingMeter) is the source of truth for
//! "real" cost columns.

use rb_cloud::{
    FaultCounts, FaultPlan, PricingTier, ProviderConfig, SharedPool, SimProvider, UsageRecord,
};
use rb_core::{Cost, InstanceId, NodeId, Prng, RbError, Result, SimDuration, SimTime};
use rb_profile::{CapacityEvents, CloudProfile};
use std::collections::BTreeMap;

/// How the cluster manager survives a misbehaving provider: capped
/// exponential backoff on insufficient-capacity denials, and a
/// per-request hand-over timeout that abandons (cancels, unbilled) and
/// replaces provisioning requests stuck on a straggling instance.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Re-request attempts after the first (capacity denials and
    /// straggler replacements share the budget).
    pub max_retries: u32,
    /// Backoff before the first retry, in seconds; doubles per attempt.
    pub base_backoff_secs: f64,
    /// Backoff ceiling, in seconds.
    pub max_backoff_secs: f64,
    /// A request whose instance has not been handed over this many
    /// seconds after it was issued is abandoned and re-issued.
    pub request_timeout_secs: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff_secs: 10.0,
            max_backoff_secs: 120.0,
            request_timeout_secs: 240.0,
        }
    }
}

impl RetryPolicy {
    /// Checks the policy's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] for negative or non-finite
    /// delays.
    pub fn validate(&self) -> Result<()> {
        for (what, v) in [
            ("base_backoff_secs", self.base_backoff_secs),
            ("max_backoff_secs", self.max_backoff_secs),
            ("request_timeout_secs", self.request_timeout_secs),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(RbError::InvalidConfig(format!(
                    "retry policy: {what} must be finite and non-negative, got {v}"
                )));
            }
        }
        Ok(())
    }

    /// Backoff before retry number `attempt` (1-based): capped
    /// exponential.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let exp = self.base_backoff_secs * 2f64.powi(attempt.saturating_sub(1).min(30) as i32);
        SimDuration::from_secs_f64(exp.min(self.max_backoff_secs))
    }
}

/// A mid-run market/zone move for the cluster to execute at a barrier:
/// every field is optional, so a directive can flip just the pricing
/// tier, just the interruption expectation, just the home zone, or any
/// combination. Executed by [`ClusterManager::switch_market`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SwitchDirective {
    /// Pricing tier for capacity provisioned after the switch (existing
    /// lifetimes are pinned to the old tier).
    pub market: Option<PricingTier>,
    /// Spot-interruption rate for capacity provisioned after the
    /// switch (instances already holding a sampled interruption keep
    /// it).
    pub interruption_rate_per_hour: Option<f64>,
    /// Zone future provisioning lands in. Setting this forces a full
    /// drain: capacity cannot be parked across a zone move.
    pub zone: Option<u32>,
}

impl SwitchDirective {
    /// True when the directive changes nothing.
    pub fn is_empty(&self) -> bool {
        self.market.is_none() && self.interruption_rate_per_hour.is_none() && self.zone.is_none()
    }
}

/// What executing a [`SwitchDirective`] did to the fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchOutcome {
    /// Ready nodes terminated (offered to the shared pool when one is
    /// attached).
    pub drained: usize,
    /// Ready nodes parked warm instead of terminated (market-only
    /// switch where holding is cheaper than re-provisioning).
    pub parked: usize,
    /// In-flight provisioning requests cancelled, never billed.
    pub cancelled: usize,
}

/// What a resilient node request actually achieved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryOutcome {
    /// Nodes acquired (warm reattaches plus fresh provisions kept).
    pub acquired: usize,
    /// Re-request rounds issued (capacity denials + straggler
    /// replacements).
    pub retries: u64,
    /// Stuck provisioning requests cancelled, never billed.
    pub abandoned: u64,
    /// Nodes requested but not acquired after the retry budget ran out.
    pub shortfall: usize,
}

/// A node still being initialized.
#[derive(Debug, Clone, Copy)]
struct PendingNode {
    instance: InstanceId,
    usable_at: SimTime,
}

/// A deprovision-deferred instance kept initialized for fast reattach.
#[derive(Debug, Clone, Copy)]
struct WarmNode {
    node: NodeId,
    instance: InstanceId,
    /// The instance is released for real if not reused by this time.
    expires_at: SimTime,
}

/// Elastic cluster of homogeneous GPU instances.
#[derive(Debug)]
pub struct ClusterManager {
    provider: SimProvider,
    cloud: CloudProfile,
    rng: Prng,
    pending: Vec<PendingNode>,
    ready: BTreeMap<NodeId, InstanceId>,
    /// Warm pool (§6.3.1 runs with "a warm pool of instances"): released
    /// nodes are parked here — still billed — and reattached in
    /// `warm_attach_secs` instead of a full provision+init cycle.
    warm: Vec<WarmNode>,
    warm_capacity: usize,
    warm_hold: SimDuration,
    warm_attach: SimDuration,
    /// Cross-job elastic pool (multi-tenant serving): `(pool, job id,
    /// job group)`. `None` — the default — leaves every code path
    /// bit-identical to a pool-less manager; the executor's legacy
    /// drivers never set it. The group (e.g. one tenant's Hyperband
    /// bracket set) gives this job affinity for same-group parked
    /// capacity at acquisition.
    shared_pool: Option<(SharedPool, u64, Option<u64>)>,
    /// Physical ids of instances adopted from the shared pool, keyed
    /// by this provider's local instance id. A later release of an
    /// adopted instance must be offered under the physical id it
    /// arrived with, so pool ownership stays traceable across
    /// handoffs.
    adopted_physical: BTreeMap<u64, u64>,
    /// Provisioning requests issued to the provider (both request
    /// paths), for the observed capacity-event window.
    provision_requests: u64,
    /// Cumulative retry rounds across all resilient requests.
    provision_retries: u64,
}

impl ClusterManager {
    /// Creates a manager over a fresh provider.
    pub fn new(cloud: CloudProfile, seed: u64) -> Self {
        let provider = SimProvider::new(
            ProviderConfig {
                instance_type: cloud.pricing.instance_type.clone(),
                provision_delay_secs: cloud.provision_delay.clone(),
                quota: None,
                interruption_rate_per_hour: cloud.spot_interruptions_per_hour,
            },
            seed ^ 0xC1A5_7E12,
        );
        ClusterManager {
            provider,
            cloud,
            rng: Prng::seed_from_u64(seed ^ 0x11D0_77E5),
            pending: Vec::new(),
            ready: BTreeMap::new(),
            warm: Vec::new(),
            warm_capacity: 0,
            warm_hold: SimDuration::ZERO,
            warm_attach: SimDuration::from_secs(2),
            shared_pool: None,
            adopted_physical: BTreeMap::new(),
            provision_requests: 0,
            provision_retries: 0,
        }
    }

    /// Routes instance churn through a shared cross-job pool: releases
    /// that would terminate an instance offer it to the pool instead,
    /// and scale-ups adopt pooled capacity before provisioning fresh.
    /// `job` tags this manager's offers for the pool's double-release
    /// guard; `group` (e.g. one tenant's Hyperband bracket set) gives
    /// the job affinity for same-group parked capacity.
    pub fn set_shared_pool(&mut self, pool: SharedPool, job: u64, group: Option<u64>) {
        self.shared_pool = Some((pool, job, group));
    }

    /// Offers a just-terminated instance to the shared pool (no-op
    /// without one). The donor's bill — minimum-charge floor included —
    /// already stands; the pool credits the premium back only if the
    /// instance is actually handed to another job. A conflicting offer
    /// (the pool disputes this job's ownership) is dropped here — the
    /// pool has already counted it and the termination stands either
    /// way.
    fn offer_to_pool(&self, instance: InstanceId, now: SimTime) {
        let Some((pool, job, group)) = &self.shared_pool else {
            return;
        };
        let Some(started) = self.provider.meter().started_at(instance) else {
            // Cancelled while pending: never billed, nothing to donate.
            return;
        };
        let lifetime = now.max(started) - started;
        let (job, group) = (*job, *group);
        let physical = self
            .adopted_physical
            .get(&instance.raw())
            .copied()
            .unwrap_or_else(|| rb_cloud::physical_id(job, instance));
        pool.with(|p| {
            let _ = p.offer(job, group, physical, now, lifetime);
        });
    }

    /// Adopts up to `k` warm instances from the shared pool (no-op
    /// without one). Adopted instances skip provisioning delay, the
    /// init-latency sample (zero RNG draws), and the dataset ingress —
    /// they arrive warm. Returns how many were adopted.
    fn adopt_from_pool(&mut self, k: usize, now: SimTime) -> usize {
        if k == 0 {
            return 0;
        }
        let Some((pool, job, group)) = &self.shared_pool else {
            return 0;
        };
        let (job, group) = (*job, *group);
        let pool = pool.clone();
        let dataset_gb = self.cloud.dataset_gb;
        let grants = pool.with(|p| p.acquire(job, now, k, dataset_gb, group));
        for grant in &grants {
            let instance = self.provider.adopt_running(now);
            self.adopted_physical.insert(instance.raw(), grant.physical);
            self.pending.push(PendingNode {
                instance,
                usable_at: grant.usable_at,
            });
        }
        grants.len()
    }

    /// Installs a recorder on the embedded provider: provision,
    /// termination and preemption events flow onto the unified trace
    /// bus. A no-op recorder (the default) costs nothing.
    pub fn set_recorder(&mut self, recorder: rb_obs::RecorderHandle) {
        self.provider.set_recorder(recorder);
    }

    /// Enables a warm pool: up to `capacity` released nodes are held
    /// (billed) for `hold`, and reattach in `attach` instead of a full
    /// provision + initialization cycle.
    pub fn with_warm_pool(
        mut self,
        capacity: usize,
        hold: SimDuration,
        attach: SimDuration,
    ) -> Self {
        self.warm_capacity = capacity;
        self.warm_hold = hold;
        self.warm_attach = attach;
        self
    }

    /// Releases warm nodes whose hold expired by `now` back to the
    /// provider (their billing stops at expiry).
    fn expire_warm(&mut self, now: SimTime) {
        let mut keep = Vec::with_capacity(self.warm.len());
        for w in self.warm.drain(..) {
            if w.expires_at <= now {
                self.provider
                    .terminate(w.instance, w.expires_at)
                    .expect("warm instance is running");
            } else {
                keep.push(w);
            }
        }
        self.warm = keep;
    }

    /// Number of instances currently parked warm.
    pub fn warm_count(&self) -> usize {
        self.warm.len()
    }

    /// GPUs on each node.
    pub fn gpus_per_node(&self) -> u32 {
        self.cloud.gpus_per_instance()
    }

    /// Requests `k` new instances at `now`. Each becomes usable after its
    /// provisioning delay plus a sampled initialization latency; its
    /// dataset ingress is charged immediately on hand-over.
    ///
    /// # Errors
    ///
    /// Propagates provider errors (e.g. quota).
    pub fn request_nodes(&mut self, k: usize, now: SimTime) -> Result<()> {
        self.expire_warm(now);
        // Reattach from the warm pool first (most recently parked first).
        let mut k = k;
        while k > 0 {
            let Some(w) = self.warm.pop() else { break };
            self.pending.push(PendingNode {
                instance: w.instance,
                usable_at: now + self.warm_attach,
            });
            k -= 1;
        }
        k -= self.adopt_from_pool(k, now);
        if k == 0 {
            return Ok(());
        }
        self.provision_requests += 1;
        let handles = self.provider.provision(k, now)?;
        for (instance, ready_at) in handles {
            let init = SimDuration::from_secs_f64(self.cloud.init_latency.sample(&mut self.rng));
            self.provider
                .meter_mut()
                .record_ingress(self.cloud.dataset_gb);
            self.pending.push(PendingNode {
                instance,
                usable_at: ready_at + init,
            });
        }
        Ok(())
    }

    /// Arms the embedded provider's fault injector (see
    /// [`rb_cloud::FaultPlan`]). An inactive plan leaves the provider
    /// untouched and the run bit-identical.
    pub fn set_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        self.provider.set_fault_plan(plan, seed);
    }

    /// Faults the provider has injected so far.
    pub fn fault_counts(&self) -> FaultCounts {
        self.provider.fault_counts()
    }

    /// The observed capacity-event window since the start of the run:
    /// requests issued, denials (independent + zone-correlated), retry
    /// rounds spent, and zone-outage kills. Feed to
    /// [`CloudProfile::risk_from_events`] to price observed capacity
    /// risk into residual re-plans.
    pub fn capacity_events(&self) -> CapacityEvents {
        let c = self.fault_counts();
        CapacityEvents {
            requests: self.provision_requests,
            denials: c.capacity_failures + c.zone_denials,
            retries: self.provision_retries,
            outage_kills: c.zone_outage_kills,
        }
    }

    /// The zone future provisioning requests land in.
    pub fn home_zone(&self) -> u32 {
        self.provider.home_zone()
    }

    /// Number of failure domains the armed fault plan declares (1
    /// without zone chaos).
    pub fn num_zones(&self) -> u32 {
        self.provider.num_zones()
    }

    /// Moves future provisioning to `zone` (wrapped into the declared
    /// zone count). Existing nodes stay where they are.
    pub fn set_home_zone(&mut self, zone: u32) {
        self.provider.set_home_zone(zone);
    }

    /// The zone a ready node's instance lives in (zone 0 for unknown
    /// nodes).
    pub fn node_zone(&self, node: NodeId) -> u32 {
        self.ready
            .get(&node)
            .map_or(0, |i| self.provider.instance_zone(*i))
    }

    /// Executes a mid-run market/zone switch: pins every lifetime
    /// bought so far to the old pricing tier, applies the directive to
    /// the profile and provider, and drains the current fleet so the
    /// next scale-up lands on the new market/zone.
    ///
    /// Drain policy: in-flight provisioning requests are cancelled
    /// (free — billing never started). Ready nodes are *parked warm*
    /// when the switch is market-only and holding them for the warm
    /// window costs no more than re-provisioning on the new market
    /// (`old_hourly × warm_hold ≤ new_hourly × mean_scale_up`);
    /// otherwise they are terminated — offered to the shared pool when
    /// one is attached, so pool custody survives the switch. A zone
    /// move never parks (capacity cannot be parked across domains),
    /// but a zone-only move keeps ready nodes already in the target
    /// zone — re-buying capacity that is already where the directive
    /// wants it would pay a scale-up cycle for nothing.
    ///
    /// The caller is responsible for checkpoint safety: pause and save
    /// before switching (the executor's forced-barrier path does).
    ///
    /// # Errors
    ///
    /// Propagates provider errors from the drain.
    pub fn switch_market(
        &mut self,
        directive: &SwitchDirective,
        now: SimTime,
    ) -> Result<SwitchOutcome> {
        let mut outcome = SwitchOutcome::default();
        if directive.is_empty() {
            return Ok(outcome);
        }
        let old_tier = self.cloud.pricing.tier;
        let old_hourly = self.cloud.pricing.instance_hourly();
        self.provider.meter_mut().pin_existing_lifetimes(old_tier);
        if let Some(tier) = directive.market {
            self.cloud.pricing = self.cloud.pricing.clone().with_tier(tier);
        }
        if let Some(rate) = directive.interruption_rate_per_hour {
            self.cloud.spot_interruptions_per_hour = rate;
            self.provider.set_interruption_rate(rate);
        }
        if let Some(zone) = directive.zone {
            self.provider.set_home_zone(zone);
        }
        // Cancel in-flight requests: they were aimed at the old
        // market/zone and have not started billing.
        for p in std::mem::take(&mut self.pending) {
            if self.provider.meter().started_at(p.instance).is_none() {
                self.provider.terminate(p.instance, now)?;
                outcome.cancelled += 1;
            } else {
                // Already handed over (e.g. a warm reattach): drain it
                // like a ready node below.
                self.provider.terminate(p.instance, now)?;
                self.offer_to_pool(p.instance, now);
                outcome.drained += 1;
            }
        }
        let park_ok = directive.zone.is_none()
            && self.warm_capacity > 0
            && old_hourly.per_hour_for(self.warm_hold)
                <= self
                    .cloud
                    .pricing
                    .instance_hourly()
                    .per_hour_for(SimDuration::from_secs_f64(self.cloud.mean_scale_up_secs()));
        // A zone-only move keeps nodes that already escaped into the
        // target zone (a retry round may have provisioned them there):
        // they are exactly where the directive wants capacity, and
        // re-buying them would pay a scale-up cycle for nothing.
        let keep_zone = directive
            .market
            .is_none()
            .then_some(directive.zone)
            .flatten();
        for (node, instance) in std::mem::take(&mut self.ready) {
            if keep_zone.is_some_and(|z| self.provider.instance_zone(instance) == z) {
                self.ready.insert(node, instance);
            } else if park_ok && self.warm.len() < self.warm_capacity {
                self.warm.push(WarmNode {
                    node,
                    instance,
                    expires_at: now + self.warm_hold,
                });
                outcome.parked += 1;
            } else {
                self.provider.terminate(instance, now)?;
                self.offer_to_pool(instance, now);
                outcome.drained += 1;
            }
        }
        Ok(outcome)
    }

    /// The compute slowdown factor of a degraded node (1.0 for healthy
    /// or unknown nodes).
    pub fn node_slowdown(&self, node: NodeId) -> f64 {
        self.ready
            .get(&node)
            .map_or(1.0, |i| self.provider.node_slowdown(*i))
    }

    /// Like [`request_nodes`](Self::request_nodes), but survives a faulty
    /// provider: insufficient-capacity denials are retried under the
    /// policy's capped exponential backoff, and requests whose instance
    /// has not been handed over by the per-request timeout are abandoned
    /// (cancelled while still pending — never billed) and re-issued.
    /// Never fails on capacity; instead reports what it could not get as
    /// [`RetryOutcome::shortfall`].
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] for a malformed policy;
    /// non-capacity provider errors (e.g. quota) propagate.
    pub fn request_nodes_resilient(
        &mut self,
        k: usize,
        now: SimTime,
        policy: &RetryPolicy,
    ) -> Result<RetryOutcome> {
        policy.validate()?;
        self.expire_warm(now);
        let mut out = RetryOutcome::default();
        let mut remaining = k;
        // Warm reattaches cannot fail; take them first.
        while remaining > 0 {
            let Some(w) = self.warm.pop() else { break };
            self.pending.push(PendingNode {
                instance: w.instance,
                usable_at: now + self.warm_attach,
            });
            remaining -= 1;
            out.acquired += 1;
        }
        let adopted = self.adopt_from_pool(remaining, now);
        remaining -= adopted;
        out.acquired += adopted;
        let mut attempt: u32 = 0;
        let mut t = now;
        // Retries rotate through failure domains: a denial or abandoned
        // straggler in one zone re-issues the request in the next, so a
        // zone-correlated event (brownout, outage) cannot starve the
        // whole retry budget. The rotation is transient — the home zone
        // is restored on exit; a *persistent* move is the controller's
        // executed switch, not the retry loop's.
        let home_zone = self.provider.home_zone();
        let num_zones = self.provider.num_zones();
        while remaining > 0 {
            self.provision_requests += 1;
            match self.provider.provision(remaining, t) {
                Ok(handles) => {
                    let deadline =
                        t.saturating_add(SimDuration::from_secs_f64(policy.request_timeout_secs));
                    let mut kept = 0usize;
                    for (instance, ready_at) in handles {
                        if ready_at > deadline {
                            // Stuck on a straggler: cancel while still
                            // pending (free — billing only ever starts
                            // at hand-over, so the abandoned node is
                            // never billed even if its replacement
                            // succeeds elsewhere) and re-issue below.
                            self.provider.terminate(instance, deadline)?;
                            out.abandoned += 1;
                            continue;
                        }
                        let init = SimDuration::from_secs_f64(
                            self.cloud.init_latency.sample(&mut self.rng),
                        );
                        self.provider
                            .meter_mut()
                            .record_ingress(self.cloud.dataset_gb);
                        self.pending.push(PendingNode {
                            instance,
                            usable_at: ready_at + init,
                        });
                        kept += 1;
                    }
                    remaining -= kept;
                    out.acquired += kept;
                    if remaining == 0 || attempt >= policy.max_retries {
                        break;
                    }
                    attempt += 1;
                    out.retries += 1;
                    // Replacements go out the moment the stuck requests
                    // are abandoned — in the next zone over.
                    t = deadline;
                    self.rotate_zone(num_zones);
                }
                Err(RbError::Capacity(_)) => {
                    if attempt >= policy.max_retries {
                        break;
                    }
                    attempt += 1;
                    out.retries += 1;
                    // Saturating: extreme user-supplied backoff bounds
                    // must stall the clock at the horizon, not overflow
                    // the millisecond counter.
                    t = t.saturating_add(policy.backoff(attempt));
                    self.rotate_zone(num_zones);
                }
                Err(e) => {
                    self.provider.set_home_zone(home_zone);
                    self.provision_retries += out.retries;
                    return Err(e);
                }
            }
        }
        self.provider.set_home_zone(home_zone);
        self.provision_retries += out.retries;
        out.shortfall = remaining;
        Ok(out)
    }

    /// Advances the provider's home zone to the next failure domain
    /// (no-op in a single-zone region).
    fn rotate_zone(&mut self, num_zones: u32) {
        if num_zones > 1 {
            self.provider
                .set_home_zone((self.provider.home_zone() + 1) % num_zones);
        }
    }

    /// The instant every currently pending node becomes usable, if any
    /// are pending. The executor's stage barrier waits for this.
    pub fn pending_ready_time(&self) -> Option<SimTime> {
        self.pending.iter().map(|p| p.usable_at).max()
    }

    /// Promotes pending nodes whose initialization finished by `now` into
    /// the ready set. Returns the newly usable node ids.
    pub fn absorb_ready(&mut self, now: SimTime) -> Vec<NodeId> {
        // The provider marks hand-over (billing start) for anything whose
        // provisioning completed; initialization may still be running.
        self.provider.poll_ready(now);
        let mut new_nodes = Vec::new();
        let mut still_pending = Vec::new();
        for p in self.pending.drain(..) {
            if p.usable_at <= now {
                let node = NodeId::new(p.instance.raw());
                self.ready.insert(node, p.instance);
                new_nodes.push(node);
            } else {
                still_pending.push(p);
            }
        }
        self.pending = still_pending;
        new_nodes
    }

    /// The usable nodes, in id order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.node_ids().collect()
    }

    /// [`ClusterManager::nodes`] without collecting them.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ready.keys().copied()
    }

    /// Number of usable nodes.
    pub fn ready_count(&self) -> usize {
        self.ready.len()
    }

    /// Number of requested-but-not-yet-usable nodes.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Terminates the given nodes at `now`, ending their billing.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Execution`] if a node is unknown; provider
    /// errors propagate.
    pub fn terminate_nodes(&mut self, nodes: &[NodeId], now: SimTime) -> Result<()> {
        self.expire_warm(now);
        for &node in nodes {
            let instance = self
                .ready
                .remove(&node)
                .ok_or_else(|| RbError::Execution(format!("terminating unknown node {node}")))?;
            if self.warm.len() < self.warm_capacity {
                // Park instead of releasing: stays billed, reattaches fast.
                self.warm.push(WarmNode {
                    node,
                    instance,
                    expires_at: now + self.warm_hold,
                });
            } else {
                self.provider.terminate(instance, now)?;
                self.offer_to_pool(instance, now);
            }
        }
        Ok(())
    }

    /// Terminates everything at `now` (job teardown), including warm
    /// nodes (billed up to `now` or their earlier expiry).
    pub fn terminate_all(&mut self, now: SimTime) {
        for w in std::mem::take(&mut self.warm) {
            let at = now.min(w.expires_at);
            let _ = w.node;
            self.provider
                .terminate(w.instance, at)
                .expect("warm instance is running");
            self.offer_to_pool(w.instance, at);
        }
        // Pending instances may still be mid-provisioning; release the
        // ready ones and let any pending ones be cancelled by marking them
        // ready first (their billing started at hand-over regardless).
        self.provider
            .poll_ready(now + SimDuration::from_hours(24 * 365));
        let end = now.max(self.latest_handover());
        if self.shared_pool.is_some() {
            // Under a shared pool, end-of-job capacity is donated rather
            // than discarded: another queued job may be about to scale up.
            for instance in self.provider.running_ids() {
                self.provider
                    .terminate(instance, end)
                    .expect("running instance must terminate cleanly");
                self.offer_to_pool(instance, end);
            }
        }
        self.provider.terminate_all(end);
        self.ready.clear();
        self.pending.clear();
    }

    fn latest_handover(&self) -> SimTime {
        self.pending
            .iter()
            .map(|p| p.usable_at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// The instant the spot market will reclaim `node`, if pre-emptible
    /// and still alive.
    pub fn preemption_time(&self, node: NodeId) -> Option<SimTime> {
        let instance = self.ready.get(&node)?;
        self.provider.preemption_time(*instance)
    }

    /// Reclaims a spot node at its sampled interruption instant, stopping
    /// its billing there and removing it from the ready set.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Execution`] for unknown nodes; provider errors
    /// (already reclaimed, no interruption scheduled) propagate.
    pub fn preempt_node(&mut self, node: NodeId) -> Result<SimTime> {
        let instance = self
            .ready
            .remove(&node)
            .ok_or_else(|| RbError::Execution(format!("preempting unknown node {node}")))?;
        self.provider.preempt(instance)
    }

    /// Records a function-granularity usage event (for per-function
    /// billing and utilization accounting).
    pub fn record_usage(&mut self, gpus: u32, duration: SimDuration) {
        self.provider
            .meter_mut()
            .record_usage(UsageRecord { gpus, duration });
    }

    /// The compute + data bill as of `now`, under the profile's billing
    /// model.
    pub fn total_cost(&self, now: SimTime) -> Cost {
        self.provider.meter().total_cost(&self.cloud.pricing, now)
    }

    /// The compute-only bill as of `now`.
    pub fn compute_cost(&self, now: SimTime) -> Cost {
        self.provider.meter().compute_cost(&self.cloud.pricing, now)
    }

    /// The data-ingress bill.
    pub fn data_cost(&self) -> Cost {
        self.provider.meter().data_cost(&self.cloud.pricing)
    }

    /// Cluster GPU utilization (busy GPU-time / held GPU-time) as of `now`.
    pub fn utilization(&self, now: SimTime) -> Option<f64> {
        self.provider.meter().utilization(now, self.gpus_per_node())
    }

    /// Total instance-seconds held (billed) as of `now`, open instances
    /// accruing. Dividing observed preemptions by this (in hours) gives
    /// an online estimate of the spot interruption rate.
    pub fn held_instance_seconds(&self, now: SimTime) -> f64 {
        self.provider.meter().held_instance_seconds(now)
    }

    /// Instances ever provisioned.
    pub fn instances_provisioned(&self) -> usize {
        self.provider.meter().instances_started()
    }

    /// The billing meter's cumulative spend curve as of `now` (see
    /// [`rb_cloud::BillingMeter::cost_timeline`]).
    pub fn cost_timeline(&self, now: SimTime) -> Vec<(SimTime, Cost)> {
        self.provider
            .meter()
            .cost_timeline(&self.cloud.pricing, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_cloud::catalog::P3_8XLARGE;
    use rb_cloud::CloudPricing;

    fn cloud() -> CloudProfile {
        CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
            .with_provision_delay(SimDuration::from_secs(15))
            .with_init_latency(SimDuration::from_secs(15))
    }

    #[test]
    fn nodes_become_usable_after_provision_plus_init() {
        let mut cm = ClusterManager::new(cloud(), 1);
        cm.request_nodes(2, SimTime::ZERO).unwrap();
        assert_eq!(cm.pending_count(), 2);
        assert_eq!(cm.pending_ready_time(), Some(SimTime::from_secs(30)));
        assert!(cm.absorb_ready(SimTime::from_secs(29)).is_empty());
        let nodes = cm.absorb_ready(SimTime::from_secs(30));
        assert_eq!(nodes.len(), 2);
        assert_eq!(cm.ready_count(), 2);
        assert_eq!(cm.pending_count(), 0);
    }

    #[test]
    fn billing_covers_init_but_not_queue_delay() {
        let mut cm = ClusterManager::new(cloud(), 1);
        cm.request_nodes(1, SimTime::ZERO).unwrap();
        let t = SimTime::from_secs(30);
        let nodes = cm.absorb_ready(t);
        // Hold for 1 hour after becoming usable, then terminate.
        let end = t + SimDuration::from_hours(1);
        cm.terminate_nodes(&nodes, end).unwrap();
        // Billed from hand-over (15 s) to end (3630 s): 3615 s.
        let expect =
            CloudPricing::on_demand(P3_8XLARGE).instance_charge(SimDuration::from_secs(3615));
        assert_eq!(cm.compute_cost(end), expect);
    }

    #[test]
    fn ingress_charged_per_instance() {
        let mut cloud = cloud().with_dataset_gb(150.0);
        cloud.pricing = cloud.pricing.with_data_price(Cost::from_dollars(0.01));
        let mut cm = ClusterManager::new(cloud, 1);
        cm.request_nodes(3, SimTime::ZERO).unwrap();
        assert_eq!(cm.data_cost(), Cost::from_dollars(4.50));
    }

    #[test]
    fn terminate_unknown_node_errors() {
        let mut cm = ClusterManager::new(cloud(), 1);
        assert!(cm
            .terminate_nodes(&[NodeId::new(9)], SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn usage_drives_per_function_cost_and_utilization() {
        let mut profile = cloud();
        profile.pricing = profile.pricing.with_per_function_billing();
        let mut cm = ClusterManager::new(profile, 1);
        cm.request_nodes(1, SimTime::ZERO).unwrap();
        let t = SimTime::from_secs(30);
        cm.absorb_ready(t);
        cm.record_usage(2, SimDuration::from_secs(1800));
        let end = t + SimDuration::from_secs(3600);
        // Per-function: 2 GPUs × 0.5 h = a quarter of the 4-GPU instance
        // hourly price.
        assert_eq!(cm.compute_cost(end), P3_8XLARGE.on_demand_hourly / 4);
        // Utilization: 3600 GPU-s busy of (3615 s × 4 GPUs) held.
        let u = cm.utilization(end).unwrap();
        assert!((u - 3600.0 / (3615.0 * 4.0)).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn terminate_all_cleans_up() {
        let mut cm = ClusterManager::new(cloud(), 1);
        cm.request_nodes(2, SimTime::ZERO).unwrap();
        cm.absorb_ready(SimTime::from_secs(30));
        cm.request_nodes(1, SimTime::from_secs(40)).unwrap();
        cm.terminate_all(SimTime::from_secs(100));
        assert_eq!(cm.ready_count(), 0);
        assert_eq!(cm.pending_count(), 0);
        assert_eq!(cm.instances_provisioned(), 3);
    }

    #[test]
    fn warm_pool_reattaches_quickly_and_keeps_billing() {
        let mut cm = ClusterManager::new(cloud(), 1).with_warm_pool(
            2,
            SimDuration::from_secs(300),
            SimDuration::from_secs(2),
        );
        cm.request_nodes(2, SimTime::ZERO).unwrap();
        let nodes = cm.absorb_ready(SimTime::from_secs(30));
        // Release both: they park warm instead of terminating.
        cm.terminate_nodes(&nodes, SimTime::from_secs(100)).unwrap();
        assert_eq!(cm.ready_count(), 0);
        assert_eq!(cm.warm_count(), 2);
        // Re-request within the hold: ready after 2 s, not 30 s.
        cm.request_nodes(2, SimTime::from_secs(150)).unwrap();
        assert_eq!(cm.pending_ready_time(), Some(SimTime::from_secs(152)));
        cm.absorb_ready(SimTime::from_secs(152));
        assert_eq!(cm.ready_count(), 2);
        assert_eq!(cm.warm_count(), 0);
        // No new instances were provisioned.
        assert_eq!(cm.instances_provisioned(), 2);
        // Billing covered the warm interval: both instances still open.
        let end = SimTime::from_secs(252);
        cm.terminate_all(end);
        let expect =
            CloudPricing::on_demand(P3_8XLARGE).instance_charge(SimDuration::from_secs(252 - 15));
        assert_eq!(cm.compute_cost(end), expect * 2);
    }

    #[test]
    fn warm_pool_expires_and_stops_billing() {
        let mut cm = ClusterManager::new(cloud(), 1).with_warm_pool(
            1,
            SimDuration::from_secs(60),
            SimDuration::from_secs(2),
        );
        cm.request_nodes(1, SimTime::ZERO).unwrap();
        let nodes = cm.absorb_ready(SimTime::from_secs(30));
        cm.terminate_nodes(&nodes, SimTime::from_secs(100)).unwrap();
        // Past the hold: the next request provisions fresh capacity and the
        // warm instance's billing stopped at its expiry (t=160).
        cm.request_nodes(1, SimTime::from_secs(400)).unwrap();
        assert_eq!(cm.warm_count(), 0);
        assert_eq!(
            cm.pending_ready_time(),
            Some(SimTime::from_secs(430)),
            "fresh provision pays the full 30 s"
        );
        let ready = cm.absorb_ready(SimTime::from_secs(430));
        assert_eq!(cm.instances_provisioned(), 2);
        cm.terminate_nodes(&ready, SimTime::from_secs(500)).unwrap();
        // First instance billed 15..160 (145 s), second 415..500 (85 s)...
        // but the second parks warm again (capacity 1), so bill to its end:
        cm.terminate_all(SimTime::from_secs(520));
        let pr = CloudPricing::on_demand(P3_8XLARGE);
        let expect = pr.instance_charge(SimDuration::from_secs(145))
            + pr.instance_charge(SimDuration::from_secs(520 - 415));
        assert_eq!(cm.compute_cost(SimTime::from_secs(520)), expect);
    }

    #[test]
    fn retry_policy_backoff_is_capped_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), SimDuration::from_secs(10));
        assert_eq!(p.backoff(2), SimDuration::from_secs(20));
        assert_eq!(p.backoff(3), SimDuration::from_secs(40));
        assert_eq!(p.backoff(10), SimDuration::from_secs(120));
        assert!(RetryPolicy {
            base_backoff_secs: -1.0,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            request_timeout_secs: f64::NAN,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn resilient_requests_match_legacy_without_faults() {
        let mut legacy = ClusterManager::new(cloud(), 9);
        legacy.request_nodes(3, SimTime::ZERO).unwrap();
        let mut resilient = ClusterManager::new(cloud(), 9);
        let out = resilient
            .request_nodes_resilient(3, SimTime::ZERO, &RetryPolicy::default())
            .unwrap();
        assert_eq!(
            out,
            RetryOutcome {
                acquired: 3,
                ..RetryOutcome::default()
            }
        );
        assert_eq!(legacy.pending_ready_time(), resilient.pending_ready_time());
    }

    #[test]
    fn capacity_denials_are_retried_with_backoff() {
        let mut cm = ClusterManager::new(cloud(), 7);
        cm.set_fault_plan(
            FaultPlan {
                capacity_failure_prob: 0.5,
                ..FaultPlan::none()
            },
            42,
        );
        let policy = RetryPolicy {
            max_retries: 20,
            ..RetryPolicy::default()
        };
        let out = cm
            .request_nodes_resilient(2, SimTime::ZERO, &policy)
            .unwrap();
        assert_eq!(out.shortfall, 0);
        assert_eq!(out.acquired, 2);
        assert_eq!(out.retries, cm.fault_counts().capacity_failures);
        // Backoff pushed the successful request later than a clean one.
        if out.retries > 0 {
            assert!(cm.pending_ready_time().unwrap() > SimTime::from_secs(30));
        }
    }

    #[test]
    fn exhausted_retries_report_shortfall_not_an_error() {
        let mut cm = ClusterManager::new(cloud(), 7);
        cm.set_fault_plan(
            FaultPlan {
                capacity_failure_prob: 1.0,
                ..FaultPlan::none()
            },
            42,
        );
        let policy = RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::default()
        };
        let out = cm
            .request_nodes_resilient(2, SimTime::ZERO, &policy)
            .unwrap();
        assert_eq!(out.shortfall, 2);
        assert_eq!(out.acquired, 0);
        assert_eq!(out.retries, 3);
        assert_eq!(cm.instances_provisioned(), 0);
    }

    #[test]
    fn stragglers_are_abandoned_unbilled_and_replaced() {
        let mut cm = ClusterManager::new(cloud(), 7);
        // Every instance straggles 100×: 1500 s hand-over vs a 240 s
        // request timeout, so each round is abandoned and re-issued.
        cm.set_fault_plan(
            FaultPlan {
                straggler_prob: 1.0,
                straggler_factor: 100.0,
                ..FaultPlan::none()
            },
            42,
        );
        let policy = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        };
        let out = cm
            .request_nodes_resilient(1, SimTime::ZERO, &policy)
            .unwrap();
        assert_eq!(out.shortfall, 1);
        assert_eq!(out.abandoned, 3, "initial attempt + 2 retries");
        assert_eq!(out.retries, 2);
        // Cancelled-while-pending instances never start billing.
        assert_eq!(cm.instances_provisioned(), 0);
        assert_eq!(cm.compute_cost(SimTime::from_secs(7200)), Cost::ZERO);
    }

    #[test]
    fn extreme_backoff_bounds_saturate_instead_of_overflowing() {
        // A pathological policy whose per-retry backoff saturates the
        // millisecond clock: repeated accumulation must stall at the
        // horizon, not overflow (this used to panic in debug builds).
        let mut cm = ClusterManager::new(cloud(), 7);
        cm.set_fault_plan(
            FaultPlan {
                capacity_failure_prob: 1.0,
                ..FaultPlan::none()
            },
            42,
        );
        let policy = RetryPolicy {
            max_retries: 40,
            base_backoff_secs: 1e15,
            max_backoff_secs: 1e18,
            request_timeout_secs: 240.0,
        };
        let out = cm
            .request_nodes_resilient(2, SimTime::ZERO, &policy)
            .unwrap();
        assert_eq!(out.shortfall, 2);
        assert_eq!(out.retries, 40);
    }

    fn zoned_plan(brownout_factor: f64, outage: bool) -> FaultPlan {
        use rb_cloud::{ZonePlan, ZoneWindow};
        let window = ZoneWindow {
            zone: 0,
            start_secs: 0.0,
            duration_secs: 1000.0,
        };
        FaultPlan {
            zones: ZonePlan {
                zones: 2,
                brownout: (brownout_factor > 1.0).then_some(window),
                brownout_delay_factor: brownout_factor.max(1.0),
                outage: outage.then_some(window),
                ..ZonePlan::none()
            },
            ..FaultPlan::none()
        }
    }

    #[test]
    fn abandoned_node_stays_free_when_the_retry_succeeds_in_another_zone() {
        let mut cm = ClusterManager::new(cloud(), 7);
        // Zone 0 brownout inflates the 15 s hand-over to 1500 s — past
        // the 240 s request timeout — so the first request is abandoned
        // and the retry rotates into healthy zone 1.
        cm.set_fault_plan(zoned_plan(100.0, false), 42);
        let out = cm
            .request_nodes_resilient(1, SimTime::ZERO, &RetryPolicy::default())
            .unwrap();
        assert_eq!(
            out,
            RetryOutcome {
                acquired: 1,
                retries: 1,
                abandoned: 1,
                shortfall: 0,
            }
        );
        // Replacement issued at the 240 s deadline, lands 15+15 s later.
        assert_eq!(cm.pending_ready_time(), Some(SimTime::from_secs(270)));
        let nodes = cm.absorb_ready(SimTime::from_secs(270));
        assert_eq!(cm.node_zone(nodes[0]), 1);
        // The abandoned node never started billing and is not an
        // instance start; only the zone-1 replacement is.
        assert_eq!(cm.instances_provisioned(), 1);
        // Retry rounds counted exactly once despite abandon + re-issue.
        assert_eq!(cm.capacity_events().retries, 1);
        // The transient rotation restored the home zone.
        assert_eq!(cm.home_zone(), 0);
        // Bill: only the replacement, from its hand-over at t=255.
        let end = SimTime::from_secs(255 + 3600);
        cm.terminate_all(end);
        let expect =
            CloudPricing::on_demand(P3_8XLARGE).instance_charge(SimDuration::from_secs(3600));
        assert_eq!(cm.compute_cost(end), expect);
    }

    #[test]
    fn zone_outage_denial_retries_into_the_next_zone() {
        let mut cm = ClusterManager::new(cloud(), 7);
        cm.set_fault_plan(zoned_plan(1.0, true), 42);
        let out = cm
            .request_nodes_resilient(2, SimTime::ZERO, &RetryPolicy::default())
            .unwrap();
        assert_eq!(
            out,
            RetryOutcome {
                acquired: 2,
                retries: 1,
                abandoned: 0,
                shortfall: 0,
            }
        );
        let ev = cm.capacity_events();
        assert_eq!(ev.requests, 2, "denied request + zone-1 retry");
        assert_eq!(ev.denials, 1);
        assert_eq!(ev.retries, 1);
        assert_eq!(cm.fault_counts().zone_denials, 1);
        // Retry went out after one 10 s backoff, into zone 1.
        assert_eq!(cm.pending_ready_time(), Some(SimTime::from_secs(40)));
        assert_eq!(cm.home_zone(), 0, "transient rotation restored");
    }

    #[test]
    fn market_switch_pins_old_lifetimes_and_drains_the_fleet() {
        let mut spot = cloud();
        spot.pricing = spot.pricing.with_spot();
        let mut cm = ClusterManager::new(spot, 7);
        cm.request_nodes(2, SimTime::ZERO).unwrap();
        let t = SimTime::from_secs(30);
        assert_eq!(cm.absorb_ready(t).len(), 2);
        // One request still in flight when the switch lands.
        cm.request_nodes(1, SimTime::from_secs(40)).unwrap();
        let sw = SwitchDirective {
            market: Some(PricingTier::OnDemand),
            interruption_rate_per_hour: Some(0.0),
            zone: None,
        };
        let at = SimTime::from_secs(100);
        let outcome = cm.switch_market(&sw, at).unwrap();
        assert_eq!(
            outcome,
            SwitchOutcome {
                drained: 2,
                parked: 0,
                cancelled: 1,
            }
        );
        assert_eq!(cm.ready_count(), 0);
        assert_eq!(cm.pending_count(), 0);
        // New capacity lands on the new market.
        cm.request_nodes(1, at).unwrap();
        cm.absorb_ready(SimTime::from_secs(130));
        let end = SimTime::from_secs(115 + 3600);
        cm.terminate_all(end);
        // Old fleet billed at the pinned spot rate 15..100 (85 s);
        // the new instance on-demand from 115 for an hour.
        let pr = CloudPricing::on_demand(P3_8XLARGE);
        let expect = pr
            .clone()
            .with_spot()
            .instance_charge(SimDuration::from_secs(85))
            * 2
            + pr.instance_charge(SimDuration::from_secs(3600));
        assert_eq!(cm.compute_cost(end), expect);
    }

    #[test]
    fn market_only_switch_parks_when_holding_is_cheaper() {
        // Cheap spot fleet, short warm hold, expensive on-demand
        // re-provision: holding the fleet across the switch beats
        // buying it back, so the drain parks instead of terminating.
        let mut spot = cloud();
        spot.pricing = spot.pricing.with_spot();
        let mut cm = ClusterManager::new(spot, 7).with_warm_pool(
            2,
            SimDuration::from_secs(10),
            SimDuration::from_secs(2),
        );
        cm.request_nodes(2, SimTime::ZERO).unwrap();
        cm.absorb_ready(SimTime::from_secs(30));
        let sw = SwitchDirective {
            market: Some(PricingTier::OnDemand),
            ..SwitchDirective::default()
        };
        let outcome = cm.switch_market(&sw, SimTime::from_secs(100)).unwrap();
        assert_eq!(outcome.parked, 2);
        assert_eq!(outcome.drained, 0);
        assert_eq!(cm.warm_count(), 2);
        // A zone move never parks, no matter the economics.
        let mut cm2 = ClusterManager::new(cloud(), 7).with_warm_pool(
            2,
            SimDuration::from_secs(10),
            SimDuration::from_secs(2),
        );
        cm2.set_fault_plan(zoned_plan(1.0, true), 42);
        cm2.set_home_zone(1);
        cm2.request_nodes(2, SimTime::ZERO).unwrap();
        cm2.absorb_ready(SimTime::from_secs(30));
        let outcome = cm2
            .switch_market(
                &SwitchDirective {
                    zone: Some(0),
                    ..SwitchDirective::default()
                },
                SimTime::from_secs(2000),
            )
            .unwrap();
        assert_eq!(outcome.parked, 0);
        assert_eq!(outcome.drained, 2);
        assert_eq!(cm2.home_zone(), 0);
    }

    #[test]
    fn degraded_nodes_surface_their_slowdown() {
        let mut cm = ClusterManager::new(cloud(), 7);
        cm.set_fault_plan(
            FaultPlan {
                degraded_prob: 1.0,
                degraded_factor: 2.5,
                ..FaultPlan::none()
            },
            42,
        );
        cm.request_nodes(1, SimTime::ZERO).unwrap();
        let nodes = cm.absorb_ready(SimTime::from_secs(30));
        assert_eq!(nodes.len(), 1);
        assert_eq!(cm.node_slowdown(nodes[0]), 2.5);
        assert_eq!(cm.node_slowdown(NodeId::new(999)), 1.0);
    }

    #[test]
    fn warm_capacity_is_respected() {
        let mut cm = ClusterManager::new(cloud(), 1).with_warm_pool(
            1,
            SimDuration::from_secs(300),
            SimDuration::from_secs(2),
        );
        cm.request_nodes(3, SimTime::ZERO).unwrap();
        let nodes = cm.absorb_ready(SimTime::from_secs(30));
        cm.terminate_nodes(&nodes, SimTime::from_secs(100)).unwrap();
        // Only one fits the pool; the other two released for real.
        assert_eq!(cm.warm_count(), 1);
    }
}
