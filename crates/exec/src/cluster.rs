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
    FaultCounts, FaultPlan, InstancePool, PoolConfig, PricingTier, ProviderConfig, SharedPool,
    SimProvider, UsageRecord,
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
    /// Zone future provisioning lands in.
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
    /// Billed nodes terminated (ready, or handed over but still
    /// initializing); none is offered to a pool.
    pub drained: usize,
    /// In-flight provisioning requests cancelled, never billed.
    pub cancelled: usize,
}

/// What a node request actually achieved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryOutcome {
    /// Nodes acquired (pool adoptions plus fresh provisions kept).
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

/// Where a manager parks released capacity.
#[derive(Debug)]
enum Pool {
    /// A service's pool, shared with other jobs: `job` tags this
    /// manager's offers, and `group` (e.g. one tenant's Hyperband
    /// bracket set) gives it affinity for same-group parked capacity.
    /// Its ledger is the service's, not the job's.
    Shared {
        pool: SharedPool,
        job: u64,
        group: Option<u64>,
    },
    /// This job's own warm pool (§6.3.1 runs with "a warm pool of
    /// instances"): its ledger is part of the job's bill, and teardown
    /// drains it. `retired` is the settled net cost of the pools an
    /// executed market switch replaced.
    Private { pool: SharedPool, retired: Cost },
}

impl Pool {
    /// The pool with this manager's job id and group.
    fn parts(&self) -> (&SharedPool, u64, Option<u64>) {
        match self {
            Pool::Shared { pool, job, group } => (pool, *job, *group),
            Pool::Private { pool, .. } => (pool, 0, None),
        }
    }
}

/// A private pool's settled net cost: park cost minus the
/// minimum-charge credit (the service's `net_cost` rule).
fn settled_net(pool: &InstancePool) -> Cost {
    let s = pool.stats();
    s.park_cost - s.min_charge_saved
}

/// Elastic cluster of homogeneous GPU instances.
#[derive(Debug)]
pub struct ClusterManager {
    provider: SimProvider,
    cloud: CloudProfile,
    rng: Prng,
    pending: Vec<PendingNode>,
    ready: BTreeMap<NodeId, InstanceId>,
    /// The pool released capacity is parked in. `None` — the default —
    /// leaves every code path bit-identical to a pool-less manager.
    pool: Option<Pool>,
    /// Physical ids of instances adopted from the pool, keyed
    /// by this provider's local instance id. A later release of an
    /// adopted instance must be offered under the physical id it
    /// arrived with, so pool ownership stays traceable across
    /// handoffs.
    adopted_physical: BTreeMap<u64, u64>,
    /// Provisioning requests issued to the provider, for the observed
    /// capacity-event window.
    provision_requests: u64,
    /// Cumulative retry rounds across all requests.
    provision_retries: u64,
}

impl ClusterManager {
    /// Creates a manager over a fresh provider.
    pub fn new(cloud: CloudProfile, seed: u64) -> Self {
        let provider = SimProvider::new(
            ProviderConfig {
                instance_type: cloud.pricing.instance_type.clone(),
                provision_delay_secs: cloud.provision_delay.clone(),
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
            pool: None,
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
    /// the job affinity for same-group parked capacity. Replaces a
    /// private pool, so attach before the first request.
    pub fn set_shared_pool(&mut self, pool: SharedPool, job: u64, group: Option<u64>) {
        self.pool = Some(Pool::Shared { pool, job, group });
    }

    /// Gives this job a warm pool of its own, priced like its capacity:
    /// released instances park there exactly as under a shared pool,
    /// and under per-instance billing the pool's park cost minus its
    /// minimum-charge credit is added to the job's bill.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] if `config` fails
    /// [`PoolConfig::validate`].
    pub(crate) fn set_private_pool(&mut self, config: PoolConfig) -> Result<()> {
        let pool = InstancePool::new(config, self.cloud.pricing.clone())?;
        self.pool = Some(Pool::Private {
            pool: SharedPool::new(pool),
            retired: Cost::ZERO,
        });
        Ok(())
    }

    /// The pool this manager parks released capacity in, if any.
    #[cfg(test)]
    pub(crate) fn pool(&self) -> Option<&SharedPool> {
        self.pool.as_ref().map(|p| p.parts().0)
    }

    /// Offers a just-terminated instance to the pool (no-op without
    /// one). The donor's bill — minimum-charge floor included —
    /// already stands; the pool credits the premium back only if the
    /// instance is actually adopted again. A conflicting offer
    /// (the pool disputes this job's ownership) is dropped here — the
    /// pool has already counted it and the termination stands either
    /// way.
    fn offer_to_pool(&self, instance: InstanceId, now: SimTime) {
        let Some((pool, job, group)) = self.pool.as_ref().map(Pool::parts) else {
            return;
        };
        let Some(started) = self.provider.meter().started_at(instance) else {
            // Cancelled while pending: never billed, nothing to donate.
            return;
        };
        let lifetime = now.max(started) - started;
        let physical = self
            .adopted_physical
            .get(&instance.raw())
            .copied()
            .unwrap_or_else(|| rb_cloud::physical_id(job, instance));
        pool.with(|p| {
            let _ = p.offer(job, group, physical, now, lifetime);
        });
    }

    /// Adopts up to `k` warm instances from the pool (no-op without
    /// one). Adopted instances skip provisioning delay, the
    /// init-latency sample (zero RNG draws), and the dataset ingress —
    /// they arrive warm. Returns how many were adopted.
    fn adopt_from_pool(&mut self, k: usize, now: SimTime) -> usize {
        if k == 0 {
            return 0;
        }
        let Some((pool, job, group)) = self.pool.as_ref().map(Pool::parts) else {
            return 0;
        };
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

    /// GPUs on each node.
    pub fn gpus_per_node(&self) -> u32 {
        self.cloud.gpus_per_instance()
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

    /// Executes a mid-run market/zone switch: pins every lifetime
    /// bought so far to the old pricing tier, applies the directive to
    /// the profile and provider, and drains the current fleet so the
    /// next scale-up lands on the new market/zone.
    ///
    /// Drain policy: in-flight provisioning requests are cancelled
    /// (free — billing never started), and every billed node is
    /// terminated and offered to no pool. Adoption bills an instance at
    /// the adopter's current tier and places it in the current home
    /// zone, so pre-switch capacity must not come back through a pool;
    /// for the same reason a private pool's parked capacity is drained
    /// here too, and the pool is replaced by an empty one priced at the
    /// new tier (the drained pool's settled cost stays on the bill). A
    /// zone-only move keeps ready nodes already in the
    /// target zone — re-buying capacity that is already where the
    /// directive wants it would pay a scale-up cycle for nothing.
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
        // market/zone. One already handed over (e.g. a pool adoption)
        // is billed, so it drains like a ready node.
        for p in std::mem::take(&mut self.pending) {
            if self.provider.meter().started_at(p.instance).is_none() {
                outcome.cancelled += 1;
            } else {
                outcome.drained += 1;
            }
            self.provider.terminate(p.instance, now)?;
        }
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
            } else {
                self.provider.terminate(instance, now)?;
                outcome.drained += 1;
            }
        }
        self.drain_private_pool(now);
        if let Some(Pool::Private { pool, retired }) = &mut self.pool {
            let (net, config) = pool.with(|p| (settled_net(p), p.config().clone()));
            *retired += net;
            *pool = SharedPool::new(InstancePool::new(config, self.cloud.pricing.clone())?);
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

    /// Requests `k` more nodes at `now`. Parked capacity is adopted from
    /// the pool first (usable after the pool's handoff); the rest is
    /// provisioned, each instance usable after its provisioning delay
    /// plus a sampled initialization latency, with its dataset ingress
    /// charged on hand-over.
    ///
    /// Without a `policy` the provider gets one attempt and a capacity
    /// denial is the error. With one, the request survives a faulty
    /// provider: insufficient-capacity denials are retried under the
    /// policy's capped exponential backoff, and requests whose instance
    /// has not been handed over by the per-request timeout are
    /// abandoned (cancelled while still pending — never billed) and
    /// re-issued. It never fails on capacity; instead it reports what
    /// it could not get as [`RetryOutcome::shortfall`].
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] for a malformed policy;
    /// provider errors (a capacity denial without a policy) propagate.
    pub fn request_nodes(
        &mut self,
        k: usize,
        now: SimTime,
        policy: Option<&RetryPolicy>,
    ) -> Result<RetryOutcome> {
        if let Some(policy) = policy {
            policy.validate()?;
        }
        let adopted = self.adopt_from_pool(k, now);
        let mut out = RetryOutcome {
            acquired: adopted,
            ..RetryOutcome::default()
        };
        let mut remaining = k - adopted;
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
            match (self.provider.provision(remaining, t), policy) {
                (Ok(handles), _) => {
                    let deadline = policy.map(|p| {
                        t.saturating_add(SimDuration::from_secs_f64(p.request_timeout_secs))
                    });
                    let mut kept = 0usize;
                    for (instance, ready_at) in handles {
                        if let Some(deadline) = deadline.filter(|&d| ready_at > d) {
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
                    let (Some(policy), Some(deadline)) = (policy, deadline) else {
                        break;
                    };
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
                (Err(RbError::Capacity(_)), Some(policy)) => {
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
                (Err(e), _) => {
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

    /// Terminates the given nodes at `now`, ending their billing, and
    /// offers each to the pool when one is attached.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Execution`] if a node is unknown; provider
    /// errors propagate.
    pub fn terminate_nodes(&mut self, nodes: &[NodeId], now: SimTime) -> Result<()> {
        for &node in nodes {
            let instance = self
                .ready
                .remove(&node)
                .ok_or_else(|| RbError::Execution(format!("terminating unknown node {node}")))?;
            self.provider.terminate(instance, now)?;
            self.offer_to_pool(instance, now);
        }
        Ok(())
    }

    /// Terminates everything at `now` (job teardown), and drains a
    /// private pool at the same instant.
    pub fn terminate_all(&mut self, now: SimTime) {
        // Pending instances may still be mid-provisioning; release the
        // ready ones and let any pending ones be cancelled by marking them
        // ready first (their billing started at hand-over regardless).
        self.provider
            .poll_ready(now + SimDuration::from_hours(24 * 365));
        let end = now.max(self.latest_handover());
        if matches!(self.pool, Some(Pool::Shared { .. })) {
            // Under a service's pool, end-of-job capacity is donated
            // rather than discarded: another queued job may be about to
            // scale up. A private pool has no later job to serve.
            for instance in self.provider.running_ids() {
                self.provider
                    .terminate(instance, end)
                    .expect("running instance must terminate cleanly");
                self.offer_to_pool(instance, end);
            }
        }
        self.drain_private_pool(end);
        self.provider.terminate_all(end);
        self.ready.clear();
        self.pending.clear();
    }

    /// Terminates everything a private pool holds at `at`, settling its
    /// park cost (no-op for a shared pool, whose ledger the service
    /// drains). After the drain nothing is parked, so the ledger must
    /// balance exactly.
    fn drain_private_pool(&self, at: SimTime) {
        if let Some(Pool::Private { pool, .. }) = &self.pool {
            pool.with(|p| {
                p.drain(at);
                debug_assert!(
                    p.stats().balances(0),
                    "private pool ledger out of balance after drain: {:?}",
                    p.stats()
                );
            });
        }
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
    /// model (see [`ClusterManager::compute_cost`]).
    pub fn total_cost(&self, now: SimTime) -> Cost {
        self.provider.meter().total_cost(&self.cloud.pricing, now) + self.private_pool_cost(now)
    }

    /// The compute-only bill as of `now`: the meter, plus a private
    /// pool's share (see below; a shared pool's ledger is the
    /// service's, not the job's).
    pub fn compute_cost(&self, now: SimTime) -> Cost {
        self.provider.meter().compute_cost(&self.cloud.pricing, now) + self.private_pool_cost(now)
    }

    /// A private pool's share of the job's bill as of `now`: the settled
    /// park cost minus the minimum-charge credit of this pool and of any
    /// a market switch retired (the service's `net_cost` rule), plus
    /// the park time still-parked instances have run up. Zero under
    /// per-function billing, which bills no held capacity, parked or not.
    fn private_pool_cost(&self, now: SimTime) -> Cost {
        match &self.pool {
            Some(Pool::Private { pool, retired })
                if self.cloud.pricing.billing.is_per_instance() =>
            {
                *retired + pool.with(|p| settled_net(p) + p.accrued_park_cost(now))
            }
            _ => Cost::ZERO,
        }
    }

    /// The data-ingress bill.
    pub fn data_cost(&self) -> Cost {
        self.provider.meter().data_cost(&self.cloud.pricing)
    }

    /// Cluster GPU utilization (busy GPU-time / held GPU-time) as of `now`.
    pub fn utilization(&self, now: SimTime) -> Option<f64> {
        self.provider.meter().utilization(now, self.gpus_per_node())
    }

    /// Instances ever provisioned from the provider (pool adoptions
    /// start a meter lifetime but are not provisions).
    pub fn instances_provisioned(&self) -> usize {
        self.provider.meter().instances_started() - self.adopted_physical.len()
    }

    /// The job's cumulative spend curve as of `now`: the billing
    /// meter's (see [`rb_cloud::BillingMeter::cost_timeline`]), closed
    /// by one more point that adds a private pool's share, so under
    /// per-instance billing it ends at [`ClusterManager::compute_cost`].
    pub fn cost_timeline(&self, now: SimTime) -> Vec<(SimTime, Cost)> {
        let mut curve = self
            .provider
            .meter()
            .cost_timeline(&self.cloud.pricing, now);
        let pool = self.private_pool_cost(now);
        if pool != Cost::ZERO {
            let (t, total) = curve
                .last()
                .map_or((now, Cost::ZERO), |&(t, c)| (t.max(now), c));
            curve.push((t, total + pool));
        }
        curve
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
        cm.request_nodes(2, SimTime::ZERO, None).unwrap();
        assert_eq!(cm.pending.len(), 2);
        assert_eq!(cm.pending_ready_time(), Some(SimTime::from_secs(30)));
        assert!(cm.absorb_ready(SimTime::from_secs(29)).is_empty());
        let nodes = cm.absorb_ready(SimTime::from_secs(30));
        assert_eq!(nodes.len(), 2);
        assert_eq!(cm.ready_count(), 2);
        assert_eq!(cm.pending.len(), 0);
    }

    #[test]
    fn billing_covers_init_but_not_queue_delay() {
        let mut cm = ClusterManager::new(cloud(), 1);
        cm.request_nodes(1, SimTime::ZERO, None).unwrap();
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
        cm.request_nodes(3, SimTime::ZERO, None).unwrap();
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
        cm.request_nodes(1, SimTime::ZERO, None).unwrap();
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
        cm.request_nodes(2, SimTime::ZERO, None).unwrap();
        cm.absorb_ready(SimTime::from_secs(30));
        cm.request_nodes(1, SimTime::from_secs(40), None).unwrap();
        cm.terminate_all(SimTime::from_secs(100));
        assert_eq!(cm.ready_count(), 0);
        assert_eq!(cm.pending.len(), 0);
        assert_eq!(cm.instances_provisioned(), 3);
    }

    fn warm_pool(capacity: usize, max_hold_secs: f64) -> PoolConfig {
        PoolConfig {
            capacity,
            max_hold_secs,
        }
    }

    fn parked(cm: &ClusterManager) -> usize {
        cm.pool().unwrap().with(|p| p.parked_count())
    }

    #[test]
    fn warm_pool_reattaches_quickly_and_keeps_billing() {
        let mut cm = ClusterManager::new(cloud(), 1);
        cm.set_private_pool(warm_pool(2, 300.0)).unwrap();
        cm.request_nodes(2, SimTime::ZERO, None).unwrap();
        let nodes = cm.absorb_ready(SimTime::from_secs(30));
        // Release both: they park in the pool instead of vanishing.
        cm.terminate_nodes(&nodes, SimTime::from_secs(100)).unwrap();
        assert_eq!(cm.ready_count(), 0);
        assert_eq!(parked(&cm), 2);
        // The bill to date carries the park time run up so far, before
        // the pool settles it.
        let pr = CloudPricing::on_demand(P3_8XLARGE);
        let hourly = pr.instance_hourly();
        assert_eq!(
            cm.compute_cost(SimTime::from_secs(150)),
            (pr.instance_charge(SimDuration::from_secs(85))
                + hourly.per_hour_for(SimDuration::from_secs(50)))
                * 2
        );
        // Re-request within the hold: ready after the 2 s handoff, not 30 s.
        cm.request_nodes(2, SimTime::from_secs(150), None).unwrap();
        assert_eq!(cm.pending_ready_time(), Some(SimTime::from_secs(152)));
        cm.absorb_ready(SimTime::from_secs(152));
        assert_eq!(cm.ready_count(), 2);
        assert_eq!(parked(&cm), 0);
        // No new instances were provisioned.
        assert_eq!(cm.instances_provisioned(), 2);
        // Billing covered the park. Each instance is billed in three
        // pieces — donor lifetime 15..100, 50 s parked, adopter lifetime
        // 150..252 — which add up to the single 15..252 lifetime up to
        // per-piece rounding.
        let end = SimTime::from_secs(252);
        cm.terminate_all(end);
        let piece = pr.instance_charge(SimDuration::from_secs(85))
            + hourly.per_hour_for(SimDuration::from_secs(50))
            + pr.instance_charge(SimDuration::from_secs(102));
        assert_eq!(cm.compute_cost(end), piece * 2);
        let whole = pr.instance_charge(SimDuration::from_secs(252 - 15)) * 2;
        assert!((cm.compute_cost(end) - whole).as_dollars().abs() <= 2e-6);
        // The spend curve ends at the bill.
        assert_eq!(
            cm.cost_timeline(end).last().map(|&(_, c)| c),
            Some(cm.compute_cost(end))
        );
        // Teardown offers nothing to a private pool: it has no later job.
        let stats = cm.pool().unwrap().with(|p| p.stats());
        assert_eq!((stats.offers, stats.handoffs, stats.drained), (2, 2, 0));
        assert!(stats.balances(0));
    }

    #[test]
    fn warm_pool_expires_and_stops_billing() {
        let mut cm = ClusterManager::new(cloud(), 1);
        cm.set_private_pool(warm_pool(1, 60.0)).unwrap();
        cm.request_nodes(1, SimTime::ZERO, None).unwrap();
        let nodes = cm.absorb_ready(SimTime::from_secs(30));
        cm.terminate_nodes(&nodes, SimTime::from_secs(100)).unwrap();
        // Past the hold: the next request provisions fresh capacity and
        // the parked instance was billed only to its expiry (t=160).
        cm.request_nodes(1, SimTime::from_secs(400), None).unwrap();
        assert_eq!(parked(&cm), 0);
        assert_eq!(
            cm.pending_ready_time(),
            Some(SimTime::from_secs(430)),
            "fresh provision pays the full 30 s"
        );
        let ready = cm.absorb_ready(SimTime::from_secs(430));
        assert_eq!(cm.instances_provisioned(), 2);
        cm.terminate_nodes(&ready, SimTime::from_secs(500)).unwrap();
        // The second parks again (capacity 1) until teardown drains it.
        cm.terminate_all(SimTime::from_secs(520));
        // First instance: 15..100 on the meter + the 60 s hold (145 s);
        // second: 415..500 on the meter + 20 s parked (105 s).
        let pr = CloudPricing::on_demand(P3_8XLARGE);
        let hourly = pr.instance_hourly();
        let expect = pr.instance_charge(SimDuration::from_secs(85))
            + hourly.per_hour_for(SimDuration::from_secs(60))
            + pr.instance_charge(SimDuration::from_secs(85))
            + hourly.per_hour_for(SimDuration::from_secs(20));
        assert_eq!(cm.compute_cost(SimTime::from_secs(520)), expect);
        let stats = cm.pool().unwrap().with(|p| p.stats());
        assert_eq!((stats.expirations, stats.drained), (1, 1));
    }

    #[test]
    fn each_piece_of_a_pooled_lifetime_pays_its_own_minimum_charge() {
        let pr = CloudPricing::on_demand(P3_8XLARGE);
        let hourly = pr.instance_hourly();
        // Adopter piece under the 60 s floor: donor 15..100, parked
        // 100..110, adopted 110..130 (20 s, billed 60 s). One unbroken
        // 15..130 lifetime would be billed its exact 115 s.
        let mut cm = ClusterManager::new(cloud(), 1);
        cm.set_private_pool(warm_pool(1, 300.0)).unwrap();
        cm.request_nodes(1, SimTime::ZERO, None).unwrap();
        let nodes = cm.absorb_ready(SimTime::from_secs(30));
        cm.terminate_nodes(&nodes, SimTime::from_secs(100)).unwrap();
        cm.request_nodes(1, SimTime::from_secs(110), None).unwrap();
        cm.absorb_ready(SimTime::from_secs(112));
        let end = SimTime::from_secs(130);
        cm.terminate_all(end);
        let bill = pr.instance_charge(SimDuration::from_secs(85))
            + hourly.per_hour_for(SimDuration::from_secs(10))
            + pr.instance_charge(SimDuration::from_secs(20));
        assert_eq!(cm.compute_cost(end), bill);
        let whole = pr.instance_charge(SimDuration::from_secs(115));
        let floor_paid = hourly.per_hour_for(SimDuration::from_secs(40));
        assert!(
            (cm.compute_cost(end) - whole - floor_paid)
                .as_dollars()
                .abs()
                <= 2e-6
        );

        // Donor piece under the floor that expires un-adopted: 15..25
        // (10 s, billed 60 s) plus the 60 s hold, where one unbroken
        // 15..85 lifetime would be billed its exact 70 s. The credit for
        // the donor's floor comes only with an adoption.
        let mut cm = ClusterManager::new(cloud(), 1);
        cm.set_private_pool(warm_pool(1, 60.0)).unwrap();
        cm.request_nodes(1, SimTime::ZERO, None).unwrap();
        let nodes = cm.absorb_ready(SimTime::from_secs(30));
        cm.terminate_nodes(&nodes, SimTime::from_secs(25)).unwrap();
        let end = SimTime::from_secs(500);
        cm.terminate_all(end);
        assert_eq!(
            cm.compute_cost(end),
            pr.instance_charge(SimDuration::from_secs(10))
                + hourly.per_hour_for(SimDuration::from_secs(60))
        );
        assert_eq!(cm.pool().unwrap().with(|p| p.stats().expirations), 1);
    }

    #[test]
    fn warm_pool_parks_free_under_per_function_billing() {
        // Per-function billing charges function usage only: held
        // capacity is free on the meter, and parked capacity is too.
        let mut cloud = cloud();
        cloud.pricing = cloud.pricing.with_per_function_billing();
        let mut cm = ClusterManager::new(cloud, 1);
        cm.set_private_pool(warm_pool(2, 300.0)).unwrap();
        cm.request_nodes(2, SimTime::ZERO, None).unwrap();
        let nodes = cm.absorb_ready(SimTime::from_secs(30));
        cm.terminate_nodes(&nodes, SimTime::from_secs(100)).unwrap();
        cm.request_nodes(1, SimTime::from_secs(150), None).unwrap();
        cm.absorb_ready(SimTime::from_secs(152));
        assert_eq!(cm.compute_cost(SimTime::from_secs(200)), Cost::ZERO);
        cm.record_usage(4, SimDuration::from_secs(30));
        let end = SimTime::from_secs(350);
        cm.terminate_all(end);
        let stats = cm.pool().unwrap().with(|p| p.stats());
        assert_eq!((stats.handoffs, stats.drained), (1, 1));
        assert!(stats.park_cost > Cost::ZERO, "the pool's own ledger");
        let usage = CloudPricing::on_demand(P3_8XLARGE)
            .with_per_function_billing()
            .function_charge(4, SimDuration::from_secs(30));
        assert_eq!(cm.compute_cost(end), usage);
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
        // On a clean provider, no policy and the default policy make the
        // same provider calls and the same init-latency draws.
        let mut legacy = ClusterManager::new(cloud(), 9);
        let plain = legacy.request_nodes(3, SimTime::ZERO, None).unwrap();
        let mut resilient = ClusterManager::new(cloud(), 9);
        let out = resilient
            .request_nodes(3, SimTime::ZERO, Some(&RetryPolicy::default()))
            .unwrap();
        assert_eq!(
            out,
            RetryOutcome {
                acquired: 3,
                ..RetryOutcome::default()
            }
        );
        assert_eq!(plain, out);
        assert_eq!(legacy.pending_ready_time(), resilient.pending_ready_time());
        assert_eq!(legacy.capacity_events(), resilient.capacity_events());
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
        let out = cm.request_nodes(2, SimTime::ZERO, Some(&policy)).unwrap();
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
        let out = cm.request_nodes(2, SimTime::ZERO, Some(&policy)).unwrap();
        assert_eq!(out.shortfall, 2);
        assert_eq!(out.acquired, 0);
        assert_eq!(out.retries, 3);
        assert_eq!(cm.instances_provisioned(), 0);
        // Without a policy there is one attempt, and the denial is the
        // error.
        let err = cm.request_nodes(2, SimTime::ZERO, None).unwrap_err();
        assert!(matches!(err, RbError::Capacity(_)), "{err:?}");
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
        let out = cm.request_nodes(1, SimTime::ZERO, Some(&policy)).unwrap();
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
        let out = cm.request_nodes(2, SimTime::ZERO, Some(&policy)).unwrap();
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
            .request_nodes(1, SimTime::ZERO, Some(&RetryPolicy::default()))
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
        assert_eq!(cm.provider.instance_zone(cm.ready[&nodes[0]]), 1);
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
            .request_nodes(2, SimTime::ZERO, Some(&RetryPolicy::default()))
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
        cm.request_nodes(2, SimTime::ZERO, None).unwrap();
        let t = SimTime::from_secs(30);
        assert_eq!(cm.absorb_ready(t).len(), 2);
        // One request still in flight when the switch lands.
        cm.request_nodes(1, SimTime::from_secs(40), None).unwrap();
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
                cancelled: 1,
            }
        );
        assert_eq!(cm.ready_count(), 0);
        assert_eq!(cm.pending.len(), 0);
        // New capacity lands on the new market.
        cm.request_nodes(1, at, None).unwrap();
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
    fn market_only_switch_hands_nothing_to_the_warm_pool() {
        // A warm-pool manager on spot: one node parks at a scale-down
        // just before a market-only switch to on-demand. Adoption would
        // bill pre-switch capacity at the new tier, so the switch
        // terminates the fleet, offers it to no pool, and drains what
        // was already parked; later parks are billed at the new tier.
        let mut spot = cloud();
        spot.pricing = spot.pricing.with_spot();
        let mut cm = ClusterManager::new(spot, 7);
        cm.set_private_pool(warm_pool(2, 300.0)).unwrap();
        cm.request_nodes(3, SimTime::ZERO, None).unwrap();
        let nodes = cm.absorb_ready(SimTime::from_secs(30));
        cm.terminate_nodes(&nodes[..1], SimTime::from_secs(95))
            .unwrap();
        let sw = SwitchDirective {
            market: Some(PricingTier::OnDemand),
            ..SwitchDirective::default()
        };
        let at = SimTime::from_secs(100);
        let spot_pool = cm.pool().unwrap().clone();
        let outcome = cm.switch_market(&sw, at).unwrap();
        assert_eq!(
            outcome,
            SwitchOutcome {
                drained: 2,
                cancelled: 0,
            }
        );
        let stats = spot_pool.with(|p| p.stats());
        assert_eq!((stats.offers, stats.drained), (1, 1), "{stats:?}");
        assert!(stats.balances(0));
        assert_eq!(parked(&cm), 0);
        // The next request provisions fresh capacity on the new tier.
        cm.request_nodes(2, at, None).unwrap();
        assert_eq!(cm.pending_ready_time(), Some(SimTime::from_secs(130)));
        let fresh = cm.absorb_ready(SimTime::from_secs(130));
        assert_eq!(cm.instances_provisioned(), 5);
        // A node parked after the switch idles at the on-demand rate
        // until teardown drains it.
        cm.terminate_nodes(&fresh[..1], SimTime::from_secs(1000))
            .unwrap();
        let end = SimTime::from_secs(1200);
        cm.terminate_all(end);
        let od = CloudPricing::on_demand(P3_8XLARGE);
        let spot = od.clone().with_spot();
        let expect = spot.instance_charge(SimDuration::from_secs(80))
            + spot
                .instance_hourly()
                .per_hour_for(SimDuration::from_secs(5))
            + spot.instance_charge(SimDuration::from_secs(85)) * 2
            + od.instance_charge(SimDuration::from_secs(1000 - 115))
            + od.instance_hourly()
                .per_hour_for(SimDuration::from_secs(200))
            + od.instance_charge(SimDuration::from_secs(1200 - 115));
        assert_eq!(cm.compute_cost(end), expect);
        let stats = cm.pool().unwrap().with(|p| p.stats());
        assert_eq!((stats.offers, stats.handoffs, stats.drained), (1, 0, 1));
        assert_eq!(
            stats.park_cost,
            od.instance_hourly()
                .per_hour_for(SimDuration::from_secs(200))
        );

        // A zone move drains too.
        let mut cm2 = ClusterManager::new(cloud(), 7);
        cm2.set_private_pool(warm_pool(2, 10.0)).unwrap();
        cm2.set_fault_plan(zoned_plan(1.0, true), 42);
        cm2.provider.set_home_zone(1);
        cm2.request_nodes(2, SimTime::ZERO, None).unwrap();
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
        assert_eq!(outcome.drained, 2);
        assert_eq!(cm2.home_zone(), 0);
        assert_eq!(parked(&cm2), 0);
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
        cm.request_nodes(1, SimTime::ZERO, None).unwrap();
        let nodes = cm.absorb_ready(SimTime::from_secs(30));
        assert_eq!(nodes.len(), 1);
        assert_eq!(cm.node_slowdown(nodes[0]), 2.5);
        assert_eq!(cm.node_slowdown(NodeId::new(999)), 1.0);
    }

    #[test]
    fn warm_capacity_is_respected() {
        let mut cm = ClusterManager::new(cloud(), 1);
        cm.set_private_pool(warm_pool(1, 300.0)).unwrap();
        cm.request_nodes(3, SimTime::ZERO, None).unwrap();
        let nodes = cm.absorb_ready(SimTime::from_secs(30));
        cm.terminate_nodes(&nodes, SimTime::from_secs(100)).unwrap();
        // Only one fits the pool; the other two released for real.
        assert_eq!(parked(&cm), 1);
        assert_eq!(cm.pool().unwrap().with(|p| p.stats().rejected_full), 2);
    }
}
