//! A shared elastic instance pool for multi-job serving.
//!
//! RubberBand's cost argument (§3: avoid the 60 s minimum charge and
//! hand-over latency for capacity you churn) compounds across jobs:
//! capacity released at one job's down-scaling barrier is exactly the
//! warm capacity another job is about to provision. The
//! [`InstancePool`] models that handoff. A job that scales down
//! *offers* its released instances to the pool instead of letting them
//! vanish; a job that scales up *acquires* parked capacity before
//! asking the provider for fresh instances.
//!
//! Accounting is deliberately explicit, because the savings claim is
//! the whole point:
//!
//! * every donor terminates the instance **on its own meter** — its
//!   [`crate::BillingMeter`] bill is exactly what it would have been
//!   without a pool, minimum-charge floor included;
//! * at *handoff* (and only then) the pool credits back the donor's
//!   minimum-charge premium — the difference between the floored and
//!   the exact charge — because economically the instance kept
//!   running instead of being churned. A parked entry that expires
//!   un-adopted credits nothing;
//! * the pool pays for the park itself: prorated hourly cost for the
//!   time each instance sits idle between release and adoption (or
//!   expiry). Pooling is only a net win when handoffs actually happen
//!   — [`PoolStats`] exposes both sides so a serve report can show
//!   `net = billed − saved + park`.
//!
//! The double-release guard is load-bearing: a crafted double barrier
//! (a watchdog split followed by the regular stage barrier, or a spot
//! reclaim racing the executor's own release) can offer the same
//! instance twice. The second offer must be rejected, or the
//! minimum-charge saving would be credited twice for one instance.
//! Under *concurrent* contention there is a second aliasing hazard.
//! Instance ids live in per-job (per-provider) id spaces, so the pool
//! identifies capacity by a *physical id*: minted from
//! `(donor job, local id)` at first offer ([`physical_id`]) and
//! carried through every handoff ([`PoolGrant::physical`], remembered
//! by the adopter's cluster manager). The pool tracks *custody* of
//! every physical it has handled: a handoff moves custody to the
//! adopting job (which may be the original donor on a down-up plan —
//! re-parking after re-adoption is a legal cycle, not a double
//! release), and expiry/drain marks the instance dead. An offer that
//! contradicts custody — the physical is parked under a different
//! donor, or custody moved to another job — is a stale claim on
//! capacity the offerer no longer owns, rejected with a typed
//! [`RbError::PoolConflict`] and counted in [`PoolStats::conflicts`],
//! never silently re-parked. An offer of a physical the pool already
//! terminated, or one the offerer itself still has parked, is counted
//! in [`PoolStats::double_releases`] and declined.
//!
//! The ledger balances exactly: every offer is accounted once
//! (`offers = parked + rejected_full + double_releases + conflicts`)
//! and every parked instance leaves once
//! (`parked = handoffs + expirations + drained + still-parked`) —
//! see [`PoolStats::balances`]. Park time is billed only for time the
//! pool actually held an instance: an entry that outlives
//! [`PoolConfig::max_hold_secs`] is billed exactly the hold window at
//! expiry, never up to a later `drain` call.
//!
//! All pool state is deterministic: offers append in call order,
//! acquisition scans oldest-first (same-group entries first when the
//! acquirer declares a job-group affinity), and nothing here draws
//! randomness.

use crate::pricing::CloudPricing;
use rb_core::{Cost, InstanceId, RbError, Result, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Static configuration of a shared pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum instances parked at once. Offers beyond this are
    /// declined (the donor's termination stands). Must be positive: a
    /// zero-capacity pool silently degrades every handoff to a decline,
    /// which is indistinguishable from "pool off" except for the park
    /// bookkeeping — [`PoolConfig::validate`] rejects it instead.
    pub capacity: usize,
    /// How long a parked instance is held before the pool gives up and
    /// terminates it (paying the park cost with nothing to show).
    pub max_hold_secs: f64,
    /// Handoff latency: seconds between acquisition and the instance
    /// being usable by the adopting job (state scrub + reattach). Far
    /// below fresh-provision delay + init latency, which is the point.
    pub handoff_secs: f64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            capacity: 8,
            max_hold_secs: 120.0,
            handoff_secs: 2.0,
        }
    }
}

impl PoolConfig {
    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] for a zero-capacity pool or a
    /// non-finite/negative hold or handoff time.
    pub fn validate(&self) -> Result<()> {
        if self.capacity == 0 {
            return Err(RbError::InvalidConfig(
                "shared pool capacity must be positive (zero would silently decline every \
                 handoff; disable the pool instead)"
                    .into(),
            ));
        }
        for (what, v) in [
            ("max_hold_secs", self.max_hold_secs),
            ("handoff_secs", self.handoff_secs),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(RbError::InvalidConfig(format!(
                    "shared pool: {what} must be finite and non-negative, got {v}"
                )));
            }
        }
        Ok(())
    }
}

/// One parked instance awaiting adoption.
#[derive(Debug, Clone)]
struct ParkedInstance {
    donor_job: u64,
    /// Job group (e.g. one tenant's Hyperband bracket set) the donor
    /// belongs to; acquisition prefers same-group entries so capacity
    /// flows within a group before being offered cross-tenant.
    donor_group: Option<u64>,
    /// Physical identity, stable across handoffs; detects cross-job
    /// aliasing on re-offer.
    physical: u64,
    released_at: SimTime,
    /// Billed lifetime on the donor's meter, for the premium credit.
    lifetime: SimDuration,
}

/// A successful acquisition: one warm instance handed to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolGrant {
    /// The job that donated the capacity.
    pub donor_job: u64,
    /// Physical identity of the instance. An adopter that later
    /// releases this instance back to the pool must offer it under
    /// this same id, so ownership stays traceable across handoffs.
    pub physical: u64,
    /// When the adopting job can start using the instance
    /// (acquisition time + [`PoolConfig::handoff_secs`]).
    pub usable_at: SimTime,
}

/// Mints the physical id for a job's own (never-adopted) instance:
/// local instance ids are per-job spaces, so the pair is globally
/// unique. Adopted instances keep the [`PoolGrant::physical`] they
/// arrived with instead.
pub fn physical_id(job: u64, instance: InstanceId) -> u64 {
    debug_assert!(instance.raw() < (1 << 32), "instance id overflows tag");
    (job << 32) | instance.raw()
}

/// Cumulative pool accounting. Every field is monotone; a serve report
/// snapshots this at the end of the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    /// Instances offered by donors (accepted or not).
    pub offers: u64,
    /// Offers accepted and parked.
    pub parked: u64,
    /// Parked instances adopted by another request.
    pub handoffs: u64,
    /// Parked instances that timed out un-adopted, billed exactly the
    /// hold window.
    pub expirations: u64,
    /// Parked instances still inside their hold window when the pool
    /// was drained at end of run, billed their actual park time.
    pub drained: u64,
    /// Offers declined because the pool was at capacity.
    pub rejected_full: u64,
    /// Offers declined by the idempotency guard (same donor instance
    /// offered twice — e.g. a crafted double barrier).
    pub double_releases: u64,
    /// Offers rejected with [`RbError::PoolConflict`]: a different job
    /// offered an instance id that is currently parked.
    pub conflicts: u64,
    /// Minimum-charge premium credited back at handoff. Only lifetimes
    /// under the billing floor carry a premium; only handoffs credit it.
    pub min_charge_saved: Cost,
    /// Prorated cost of keeping instances parked (paid by the pool).
    pub park_cost: Cost,
    /// Data ingress the adopting jobs skipped (warm instances keep the
    /// shared dataset cache), in GB.
    pub ingress_gb_saved: f64,
    /// Dollar value of the skipped ingress under the pool's pricing.
    pub ingress_saved: Cost,
}

impl PoolStats {
    /// Net effect of running the pool: positive means the pool saved
    /// money overall (credits exceed park spend).
    pub fn net_saving(&self) -> Cost {
        self.min_charge_saved + self.ingress_saved - self.park_cost
    }

    /// Conservation invariant: every offer is accounted exactly once,
    /// and every parked instance leaves the pool exactly once.
    /// `parked_now` is the current [`InstancePool::parked_count`].
    pub fn balances(&self, parked_now: usize) -> bool {
        self.offers == self.parked + self.rejected_full + self.double_releases + self.conflicts
            && self.parked == self.handoffs + self.expirations + self.drained + parked_now as u64
    }
}

/// The shared pool: parked capacity, the double-release guard, and the
/// savings ledger. See the module docs for the accounting rules.
#[derive(Debug)]
pub struct InstancePool {
    config: PoolConfig,
    pricing: CloudPricing,
    parked: VecDeque<ParkedInstance>,
    /// Custody of every physical the pool has handed out or retired:
    /// who may legally offer it next. Absent means the instance has
    /// never left the pool via a grant — its provisioner owns it.
    custody: BTreeMap<u64, Custody>,
    stats: PoolStats,
}

/// Where a physical instance went after leaving the parked queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Custody {
    /// Handed to this job at acquisition; only it may re-offer.
    Adopter(u64),
    /// Terminated by the pool at expiry or drain; any later offer is a
    /// use-after-free claim.
    Dead,
}

impl InstancePool {
    /// Creates an empty pool.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] if the configuration fails
    /// [`PoolConfig::validate`].
    pub fn new(config: PoolConfig, pricing: CloudPricing) -> Result<Self> {
        config.validate()?;
        Ok(InstancePool {
            config,
            pricing,
            parked: VecDeque::new(),
            custody: BTreeMap::new(),
            stats: PoolStats::default(),
        })
    }

    /// Number of instances currently parked.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Snapshot of the cumulative accounting.
    pub fn stats(&self) -> PoolStats {
        self.stats.clone()
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Offers a released instance to the pool. `physical` is the
    /// instance's stable physical id — [`physical_id`] for capacity
    /// the donor provisioned itself, or the [`PoolGrant::physical`] it
    /// arrived with if the donor adopted it. `lifetime` is the billed
    /// lifetime on the donor's meter (used for the premium credit at
    /// handoff); `donor_group` tags the entry with the donor's job
    /// group for affinity at [`InstancePool::acquire`]. Returns
    /// `Ok(true)` if the instance was parked; `Ok(false)` if the pool
    /// declined (full, or the double-release guard fired) — in which
    /// case the donor's termination simply stands.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::PoolConflict`] if the offer contradicts
    /// custody: `physical` is currently parked under a *different*
    /// donor job, or the pool last handed it to another job. Either
    /// way the offerer is making a stale claim on capacity whose
    /// ownership already moved on — re-parking it would park one
    /// physical instance twice and double-credit the ledger. The offer
    /// is rejected and counted in [`PoolStats::conflicts`]; the pool
    /// itself stays consistent.
    pub fn offer(
        &mut self,
        donor_job: u64,
        donor_group: Option<u64>,
        physical: u64,
        released_at: SimTime,
        lifetime: SimDuration,
    ) -> Result<bool> {
        self.stats.offers += 1;
        self.expire(released_at);
        if let Some(holder) = self.parked.iter().find(|e| e.physical == physical) {
            if holder.donor_job != donor_job {
                self.stats.conflicts += 1;
                return Err(RbError::PoolConflict(format!(
                    "instance {physical:#x} offered by job {donor_job} while parked by job {}",
                    holder.donor_job,
                )));
            }
            // Same physical release offered twice (double barrier /
            // reclaim race): crediting it again would double-count
            // the minimum-charge saving.
            self.stats.double_releases += 1;
            return Ok(false);
        }
        match self.custody.get(&physical) {
            Some(Custody::Dead) => {
                // The pool already terminated this instance at expiry
                // or drain: a use-after-free claim, declined.
                self.stats.double_releases += 1;
                return Ok(false);
            }
            Some(Custody::Adopter(job)) if *job != donor_job => {
                self.stats.conflicts += 1;
                return Err(RbError::PoolConflict(format!(
                    "instance {physical:#x} offered by job {donor_job} but custody moved to \
                     job {job} at handoff",
                )));
            }
            _ => {}
        }
        if self.parked.len() >= self.config.capacity {
            self.stats.rejected_full += 1;
            return Ok(false);
        }
        self.custody.remove(&physical);
        self.parked.push_back(ParkedInstance {
            donor_job,
            donor_group,
            physical,
            released_at,
            lifetime,
        });
        self.stats.parked += 1;
        Ok(true)
    }

    /// Acquires up to `n` warm instances for `job` scaling up at `now`.
    /// Only instances released at or before `now` are eligible (a pool
    /// shared across interleaved virtual clocks must not hand a job
    /// capacity from its own future). Entries donated by the caller's
    /// own job group (`group`, when declared) go first, so
    /// barrier-released capacity flows between, say, one tenant's
    /// Hyperband brackets before being offered cross-tenant; within
    /// each class, oldest entries go first. Custody of each granted
    /// physical moves to `job`: only it may offer the instance back.
    ///
    /// `dataset_gb` is the ingress each granted instance lets the
    /// adopting job skip; it feeds the savings ledger.
    pub fn acquire(
        &mut self,
        job: u64,
        now: SimTime,
        n: usize,
        dataset_gb: f64,
        group: Option<u64>,
    ) -> Vec<PoolGrant> {
        self.expire(now);
        let mut take = vec![false; self.parked.len()];
        let mut remaining = n;
        if group.is_some() {
            for (i, entry) in self.parked.iter().enumerate() {
                if remaining == 0 {
                    break;
                }
                if entry.released_at <= now && entry.donor_group == group {
                    take[i] = true;
                    remaining -= 1;
                }
            }
        }
        for (i, entry) in self.parked.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            if !take[i] && entry.released_at <= now {
                take[i] = true;
                remaining -= 1;
            }
        }
        let mut grants = Vec::new();
        let mut kept = VecDeque::new();
        for (i, entry) in std::mem::take(&mut self.parked).into_iter().enumerate() {
            if take[i] {
                // Park bill: the instance idled from release to now.
                self.stats.park_cost += self
                    .pricing
                    .instance_hourly()
                    .per_hour_for(now - entry.released_at);
                // Premium credit: the donor paid the billing floor on a
                // lifetime this handoff proves was not churn.
                if self.pricing.billing.is_per_instance() {
                    let floored = self.pricing.instance_charge(entry.lifetime);
                    let exact = self.pricing.instance_hourly().per_hour_for(entry.lifetime);
                    self.stats.min_charge_saved += floored - exact;
                }
                if dataset_gb > 0.0 {
                    self.stats.ingress_gb_saved += dataset_gb;
                    self.stats.ingress_saved += self.pricing.ingress_charge(dataset_gb);
                }
                self.stats.handoffs += 1;
                self.custody.insert(entry.physical, Custody::Adopter(job));
                grants.push(PoolGrant {
                    donor_job: entry.donor_job,
                    physical: entry.physical,
                    usable_at: now + SimDuration::from_secs_f64(self.config.handoff_secs),
                });
            } else {
                kept.push_back(entry);
            }
        }
        self.parked = kept;
        grants
    }

    /// Terminates parked instances whose hold window has ended at
    /// `now`, billing exactly the hold window to the pool. The
    /// boundary is inclusive: an instance held for the full
    /// `max_hold_secs` is expired, so an `acquire` at that same
    /// instant must never be granted stale capacity.
    pub fn expire(&mut self, now: SimTime) {
        let hold = SimDuration::from_secs_f64(self.config.max_hold_secs);
        let mut kept = VecDeque::new();
        while let Some(entry) = self.parked.pop_front() {
            if now >= entry.released_at + hold {
                self.stats.park_cost += self.pricing.instance_hourly().per_hour_for(hold);
                self.stats.expirations += 1;
                self.custody.insert(entry.physical, Custody::Dead);
            } else {
                kept.push_back(entry);
            }
        }
        self.parked = kept;
    }

    /// Parked instances a job stepping at `now` could adopt: released
    /// at or before `now` and still inside their hold window. Used by
    /// pool-aware admission to decide whether a queued job's first
    /// stage could be served entirely from parked capacity.
    pub fn eligible_count(&self, now: SimTime) -> usize {
        let hold = SimDuration::from_secs_f64(self.config.max_hold_secs);
        self.parked
            .iter()
            .filter(|e| e.released_at <= now && now < e.released_at + hold)
            .count()
    }

    /// Ends the pool's life at `now`: entries whose hold window has
    /// already ended expire normally (billed exactly the hold window —
    /// not up to this later drain call), and every instance still
    /// inside its window is terminated and billed its actual park
    /// time.
    pub fn drain(&mut self, now: SimTime) {
        self.expire(now);
        while let Some(entry) = self.parked.pop_front() {
            let held = now - entry.released_at;
            self.stats.park_cost += self.pricing.instance_hourly().per_hour_for(held);
            self.stats.drained += 1;
            self.custody.insert(entry.physical, Custody::Dead);
        }
    }
}

/// A cloneable handle to a pool shared by many jobs' cluster managers.
///
/// The mutex is uncontended in practice — the serve loop is
/// single-threaded over virtual time — but it keeps `ClusterManager`
/// `Send` and the handle trivially cloneable.
#[derive(Debug, Clone)]
pub struct SharedPool {
    inner: Arc<Mutex<InstancePool>>,
}

impl SharedPool {
    /// Wraps a pool for sharing.
    pub fn new(pool: InstancePool) -> Self {
        SharedPool {
            inner: Arc::new(Mutex::new(pool)),
        }
    }

    /// Runs `f` with exclusive access to the pool.
    pub fn with<R>(&self, f: impl FnOnce(&mut InstancePool) -> R) -> R {
        let mut guard = self.inner.lock().expect("shared pool poisoned");
        f(&mut guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::P3_8XLARGE;

    fn pricing() -> CloudPricing {
        CloudPricing::on_demand(P3_8XLARGE)
    }

    fn pool(capacity: usize) -> InstancePool {
        InstancePool::new(
            PoolConfig {
                capacity,
                max_hold_secs: 120.0,
                handoff_secs: 2.0,
            },
            pricing(),
        )
        .unwrap()
    }

    #[test]
    fn zero_capacity_pool_is_a_typed_error() {
        let err = InstancePool::new(
            PoolConfig {
                capacity: 0,
                ..PoolConfig::default()
            },
            pricing(),
        )
        .unwrap_err();
        assert!(matches!(err, RbError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn nan_hold_is_a_typed_error() {
        let err = PoolConfig {
            max_hold_secs: f64::NAN,
            ..PoolConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(matches!(err, RbError::InvalidConfig(_)));
    }

    #[test]
    fn handoff_credits_min_charge_premium_once() {
        let mut p = pool(4);
        // 10 s billed lifetime: the donor paid the 60 s floor, so the
        // premium is 50 s of hourly rate.
        assert!(p
            .offer(
                1,
                None,
                0,
                SimTime::from_secs(100),
                SimDuration::from_secs(10),
            )
            .unwrap());
        let grants = p.acquire(9, SimTime::from_secs(100), 1, 0.0, None);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].donor_job, 1);
        assert_eq!(grants[0].usable_at, SimTime::from_secs(102));
        let hourly = pricing().instance_hourly();
        let expected = hourly.per_hour_for(SimDuration::from_secs(60))
            - hourly.per_hour_for(SimDuration::from_secs(10));
        assert_eq!(p.stats().min_charge_saved, expected);
        // Zero park time: released and adopted at the same instant.
        assert_eq!(p.stats().park_cost, Cost::ZERO);
    }

    #[test]
    fn double_release_does_not_double_credit() {
        // A crafted double barrier: the watchdog's forced barrier and
        // the regular stage barrier both release instance 3 of job 7.
        let mut p = pool(4);
        let life = SimDuration::from_secs(5);
        assert!(p.offer(7, None, 3, SimTime::from_secs(50), life).unwrap());
        assert!(!p.offer(7, None, 3, SimTime::from_secs(55), life).unwrap());
        assert_eq!(p.stats().double_releases, 1);
        assert_eq!(p.parked_count(), 1);
        // After the one real entry is handed off to job 9, custody
        // moved: the original donor's third offer is a stale claim,
        // now a typed conflict rather than a silent decline.
        let grants = p.acquire(9, SimTime::from_secs(60), 2, 0.0, None);
        assert_eq!(grants.len(), 1);
        let err = p
            .offer(7, None, 3, SimTime::from_secs(70), life)
            .unwrap_err();
        assert!(matches!(err, RbError::PoolConflict(_)), "{err:?}");
        let hourly = pricing().instance_hourly();
        let one_premium = hourly.per_hour_for(SimDuration::from_secs(60))
            - hourly.per_hour_for(SimDuration::from_secs(5));
        assert_eq!(p.stats().min_charge_saved, one_premium);
        // The adopter itself re-parking the physical it was granted is
        // a new, legitimate release.
        assert!(p.offer(9, None, 3, SimTime::from_secs(70), life).unwrap());
        assert!(p.stats().balances(p.parked_count()));
    }

    #[test]
    fn cross_job_offer_of_a_parked_id_is_a_typed_error() {
        // A handoff chain gone stale: job 2 adopted physical instance
        // 3 from job 1 and re-parked it; job 1's crafted double
        // barrier then re-offers the same physical id. The stale claim
        // must be rejected, not silently re-parked.
        let mut p = pool(4);
        let life = SimDuration::from_secs(5);
        assert!(p.offer(2, None, 3, SimTime::from_secs(10), life).unwrap());
        let err = p
            .offer(1, None, 3, SimTime::from_secs(12), life)
            .unwrap_err();
        assert!(matches!(err, RbError::PoolConflict(_)), "{err:?}");
        assert_eq!(p.stats().conflicts, 1);
        assert_eq!(p.parked_count(), 1, "conflicting offer must not re-park");
        // Once the entry is handed off, custody is with its next
        // owner (job 5), whose release is legitimate.
        assert_eq!(p.acquire(5, SimTime::from_secs(20), 1, 0.0, None).len(), 1);
        assert!(p.offer(5, None, 3, SimTime::from_secs(25), life).unwrap());
        assert!(p.stats().balances(p.parked_count()));
    }

    #[test]
    fn adoption_transfers_custody_so_re_parking_is_legal() {
        let mut p = pool(4);
        let life = SimDuration::from_secs(10);
        let t = SimTime::from_secs;
        // Job 1 parks physical 7, adopts it back at its next scale-up,
        // and parks it again: a legal down-up-down cycle, not a double
        // release.
        assert!(p.offer(1, None, 7, t(0), life).unwrap());
        assert_eq!(p.acquire(1, t(10), 1, 0.0, None).len(), 1);
        assert!(p.offer(1, None, 7, t(20), life).unwrap());
        assert_eq!(p.stats().double_releases, 0);
        // Job 2 adopts it; job 1's claim is now stale and typed.
        assert_eq!(p.acquire(2, t(30), 1, 0.0, None).len(), 1);
        let err = p.offer(1, None, 7, t(40), life).unwrap_err();
        assert!(matches!(err, RbError::PoolConflict(_)), "{err:?}");
        // Job 2's own re-park is legitimate...
        assert!(p.offer(2, None, 7, t(40), life).unwrap());
        // ...until the pool expires the instance: offering a physical
        // the pool already terminated is a use-after-free claim,
        // declined and counted as a double release.
        p.expire(t(400));
        assert!(!p.offer(2, None, 7, t(401), life).unwrap());
        let s = p.stats();
        assert_eq!((s.double_releases, s.conflicts, s.expirations), (1, 1, 1));
        assert!(s.balances(p.parked_count()));
    }

    #[test]
    fn group_affinity_grants_same_group_entries_first() {
        let mut p = pool(4);
        let life = SimDuration::from_secs(5);
        // Tenant group 1 parked first (older), group 2 second.
        assert!(p
            .offer(1, Some(1), 10, SimTime::from_secs(10), life)
            .unwrap());
        assert!(p
            .offer(2, Some(2), 20, SimTime::from_secs(20), life)
            .unwrap());
        // A group-2 bracket asking for one instance gets its sibling's
        // capacity even though the group-1 entry is older...
        let grants = p.acquire(6, SimTime::from_secs(30), 1, 0.0, Some(2));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].donor_job, 2);
        assert_eq!(grants[0].physical, 20);
        // ...and spills over to foreign entries once the group is dry.
        let grants = p.acquire(6, SimTime::from_secs(31), 1, 0.0, Some(2));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].donor_job, 1);
        // With no affinity declared, order is strictly oldest-first.
        assert!(p
            .offer(3, Some(3), 30, SimTime::from_secs(40), life)
            .unwrap());
        assert!(p
            .offer(4, Some(4), 40, SimTime::from_secs(50), life)
            .unwrap());
        let grants = p.acquire(6, SimTime::from_secs(55), 1, 0.0, None);
        assert_eq!(grants[0].donor_job, 3);
    }

    #[test]
    fn full_pool_declines() {
        let mut p = pool(1);
        let life = SimDuration::from_secs(30);
        assert!(p.offer(1, None, 0, SimTime::ZERO, life).unwrap());
        assert!(!p.offer(1, None, 1, SimTime::ZERO, life).unwrap());
        assert_eq!(p.stats().rejected_full, 1);
    }

    #[test]
    fn long_lifetimes_carry_no_premium() {
        let mut p = pool(4);
        assert!(p
            .offer(
                1,
                None,
                0,
                SimTime::from_secs(10),
                SimDuration::from_secs(300),
            )
            .unwrap());
        p.acquire(2, SimTime::from_secs(10), 1, 0.0, None);
        assert_eq!(p.stats().min_charge_saved, Cost::ZERO);
        assert_eq!(p.stats().handoffs, 1);
    }

    #[test]
    fn acquire_ignores_future_releases() {
        let mut p = pool(4);
        let life = SimDuration::from_secs(10);
        assert!(p.offer(2, None, 0, SimTime::from_secs(500), life).unwrap());
        // A job whose clock is at t=100 must not adopt capacity that
        // will only exist at t=500.
        assert!(p
            .acquire(3, SimTime::from_secs(100), 1, 0.0, None)
            .is_empty());
        assert_eq!(p.acquire(3, SimTime::from_secs(500), 1, 0.0, None).len(), 1);
    }

    #[test]
    fn expiry_bills_park_time_and_credits_nothing() {
        let mut p = pool(4);
        let life = SimDuration::from_secs(10);
        assert!(p.offer(1, None, 0, SimTime::ZERO, life).unwrap());
        // 120 s hold window: gone by t=121.
        assert!(p
            .acquire(2, SimTime::from_secs(121), 1, 0.0, None)
            .is_empty());
        let s = p.stats();
        assert_eq!(s.expirations, 1);
        assert_eq!(s.min_charge_saved, Cost::ZERO);
        assert_eq!(
            s.park_cost,
            pricing()
                .instance_hourly()
                .per_hour_for(SimDuration::from_secs(120))
        );
    }

    #[test]
    fn instance_at_exactly_max_hold_is_not_granted() {
        // Boundary audit: at now == released_at + max_hold the hold
        // window has fully elapsed — an acquire at that instant must
        // expire the entry, not hand out stale capacity.
        let mut p = pool(4);
        let life = SimDuration::from_secs(10);
        assert!(p.offer(1, None, 0, SimTime::ZERO, life).unwrap());
        assert_eq!(p.eligible_count(SimTime::from_secs(119)), 1);
        assert_eq!(p.eligible_count(SimTime::from_secs(120)), 0);
        assert!(p
            .acquire(2, SimTime::from_secs(120), 1, 0.0, None)
            .is_empty());
        let s = p.stats();
        assert_eq!(s.expirations, 1);
        assert_eq!(s.handoffs, 0);
        assert_eq!(
            s.park_cost,
            pricing()
                .instance_hourly()
                .per_hour_for(SimDuration::from_secs(120))
        );
        assert!(s.balances(p.parked_count()));
    }

    #[test]
    fn drain_bills_expired_entries_only_up_to_expiry() {
        // Billing audit: an entry whose hold window ended at t=120 and
        // that is drained at t=500 is billed 120 s of park, not 500.
        let mut p = pool(4);
        let life = SimDuration::from_secs(10);
        assert!(p.offer(1, None, 0, SimTime::ZERO, life).unwrap());
        p.drain(SimTime::from_secs(500));
        let s = p.stats();
        assert_eq!(s.expirations, 1);
        assert_eq!(s.drained, 0);
        assert_eq!(
            s.park_cost,
            pricing()
                .instance_hourly()
                .per_hour_for(SimDuration::from_secs(120)),
            "park billed past the hold window"
        );
        assert!(s.balances(p.parked_count()));
    }

    #[test]
    fn drain_terminates_everything() {
        let mut p = pool(4);
        let life = SimDuration::from_secs(10);
        p.offer(1, None, 0, SimTime::from_secs(100), life).unwrap();
        p.offer(1, None, 1, SimTime::from_secs(100), life).unwrap();
        p.drain(SimTime::from_secs(160));
        assert_eq!(p.parked_count(), 0);
        let s = p.stats();
        // Both entries were still inside their hold window: billed
        // their actual 60 s park and counted as drained, not expired.
        assert_eq!(s.drained, 2);
        assert_eq!(s.expirations, 0);
        assert_eq!(
            s.park_cost,
            pricing()
                .instance_hourly()
                .per_hour_for(SimDuration::from_secs(60))
                * 2
        );
        assert!(s.balances(p.parked_count()));
    }

    #[test]
    fn stats_balance_through_a_mixed_history() {
        // offered = parked + rejected_full + double_releases + conflicts
        // parked  = handoffs + expirations + drained + still-parked,
        // maintained through every outcome the pool can produce.
        let mut p = pool(2);
        let life = SimDuration::from_secs(10);
        let t = SimTime::from_secs;
        assert!(p.offer(1, Some(1), 100, t(0), life).unwrap());
        assert!(p.offer(2, Some(1), 200, t(1), life).unwrap());
        // Full (capacity 2).
        assert!(!p.offer(3, None, 300, t(2), life).unwrap());
        // Double release by job 1.
        assert!(!p.offer(1, Some(1), 100, t(3), life).unwrap());
        // Cross-job conflict: job 9 makes a stale claim on physical
        // 200, currently parked by job 2.
        assert!(p.offer(9, None, 200, t(4), life).is_err());
        // One handoff, then time runs past the hold window for the
        // rest, then drain.
        assert_eq!(p.acquire(8, t(5), 1, 0.0, Some(1)).len(), 1);
        assert!(p.offer(4, None, 700, t(100), life).unwrap());
        p.expire(t(130)); // expires the t=1 entry (held 120 s < 129 s)
        p.drain(t(150)); // drains the t=100 entry (held 50 s)
        let s = p.stats();
        assert_eq!(s.offers, 6);
        assert_eq!(
            (s.parked, s.rejected_full, s.double_releases, s.conflicts),
            (3, 1, 1, 1)
        );
        assert_eq!((s.handoffs, s.expirations, s.drained), (1, 1, 1));
        assert_eq!(p.parked_count(), 0);
        assert!(s.balances(p.parked_count()));
    }

    #[test]
    fn ingress_savings_are_ledgered() {
        let p_cfg = PoolConfig::default();
        let mut p =
            InstancePool::new(p_cfg, pricing().with_data_price(Cost::from_dollars(0.01))).unwrap();
        p.offer(1, None, 0, SimTime::ZERO, SimDuration::from_secs(10))
            .unwrap();
        p.acquire(2, SimTime::ZERO, 1, 150.0, None);
        let s = p.stats();
        assert_eq!(s.ingress_gb_saved, 150.0);
        assert_eq!(s.ingress_saved, Cost::from_dollars(1.50));
        assert!(s.net_saving() > Cost::ZERO);
    }

    #[test]
    fn shared_handle_round_trips() {
        let sp = SharedPool::new(pool(2));
        sp.with(|p| {
            p.offer(1, None, 0, SimTime::ZERO, SimDuration::from_secs(5))
                .unwrap()
        });
        assert_eq!(sp.with(|p| p.parked_count()), 1);
        let cloned = sp.clone();
        assert_eq!(cloned.with(|p| p.parked_count()), 1);
    }
}
