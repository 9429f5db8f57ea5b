//! The admission controller and fair-share scheduler.
//!
//! ## The discrete-event loop
//!
//! Every running job is an [`ExecutorCore`] whose clock advances one
//! stage per [`ExecutorCore::step`]. The service's loop is a classic
//! min-time event loop over those clocks:
//!
//! 1. **Admit** every pending arrival due at or before the next step
//!    (rejecting over-queue and over-budget arrivals with a typed
//!    reason);
//! 2. **Dispatch** queued jobs into free slots in fair-share order —
//!    the queued job whose tenant has the lowest spend ÷ weight ratio
//!    wins; ties break by arrival time, then submission index;
//! 3. **Step** the running core with the *smallest* virtual clock
//!    (ties again by submission index), so cross-job event order is a
//!    deterministic function of the jobs alone.
//!
//! Because each executor derives every noise stream from its own seed,
//! interleaving does not perturb individual runs: a job executed
//! through the service produces the same training timeline it would
//! produce alone (shifted to its dispatch time). Only the *shared*
//! resources — the queue and the optional instance pool — couple jobs,
//! and both are driven by the deterministic loop order above.
//!
//! ## The shared pool
//!
//! With [`ServeOptions::pool`] set, the service builds one
//! [`InstancePool`] (priced from the first job's cloud profile) and
//! attaches it to every core. Instances a job would terminate at a
//! barrier are parked; a job that scales up adopts them for a 2 s
//! handoff instead of a ~30 s provision + init + ingress, and the
//! donor's minimum-charge premium is credited back at the service
//! level (see [`crate::ServeReport::net_cost`]). Park time past
//! `max_hold_secs` is billed to the pool and the instance expires.
//!
//! ## Contention
//!
//! With `max_concurrent > 1`, two or more running jobs race for the
//! same parked instances at interleaved barriers. Acquisition order is
//! still deterministic: when several cores' clocks tie, the service
//! steps the one whose tenant has the lowest spend ÷ weight fair
//! share (ties by arrival time, then submission index) — the same
//! tie-break dispatch uses — so the under-served tenant's job reaches
//! the pool first. The pool's ledger stays exact under any
//! interleaving: `offered = adopted + expired + drained (+ parked)`
//! and `billed = job meters + park` ([`rb_cloud::PoolStats::balances`]
//! is debug-asserted after the drain).
//!
//! ## Pool-aware admission
//!
//! With [`ServeOptions::pool_admission`] set, a queued job whose
//! first-stage instance demand fits entirely inside currently-parked
//! (eligible, unexpired) pool capacity is dispatched *past*
//! `max_concurrent`: its whole first stage will be served warm, so the
//! marginal cost of running it now — against capacity that is
//! otherwise billing park time toward expiry — beats holding it in
//! the queue. Each such dispatch emits a `job.admit_from_pool` event
//! and bumps the `serve.pool_admits` counter
//! ([`crate::ServeReport::pool_admits`]).

use crate::report::{percentile, JobOutcome, RejectReason, RejectedJob, ServeReport, TenantUsage};
use crate::tenant::{JobRequest, TenantSpec};
use rb_cloud::{InstancePool, PoolConfig, SharedPool};
use rb_core::{Cost, RbError, Result, SimDuration, SimTime};
use rb_exec::{ExecutorCore, NoopHook, StepOutcome};
use rb_obs::{JobScopedRecorder, Lane, Recorder, RecorderHandle};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Service-level knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Jobs allowed to run concurrently (≥ 1).
    pub max_concurrent: usize,
    /// Arrivals allowed to wait in the queue; the next arrival past
    /// this is rejected with [`RejectReason::QueueFull`].
    pub max_queue: usize,
    /// Shared elastic instance pool; `None` disables handoffs (every
    /// job terminates its own capacity, exactly as when run alone).
    pub pool: Option<PoolConfig>,
    /// Admit a queued job past `max_concurrent` when its first-stage
    /// instance demand can be served entirely from parked pool
    /// capacity (skipping provision + init). Requires `pool`.
    pub pool_admission: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_concurrent: 4,
            max_queue: 64,
            pool: None,
            pool_admission: false,
        }
    }
}

impl ServeOptions {
    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] when `max_concurrent` is zero
    /// (nothing could ever run) or the pool config is malformed (zero
    /// capacity, non-finite hold). Checked at service construction so a
    /// bad config fails loudly instead of silently starving every job.
    pub fn validate(&self) -> Result<()> {
        if self.max_concurrent == 0 {
            return Err(RbError::InvalidConfig(
                "serve: max_concurrent must be >= 1".into(),
            ));
        }
        if let Some(pool) = &self.pool {
            pool.validate()?;
        }
        if self.pool_admission && self.pool.is_none() {
            return Err(RbError::InvalidConfig(
                "serve: pool_admission requires a pool (there is no parked capacity to admit \
                 against without one)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Per-job bookkeeping that outlives the consumed [`JobRequest`].
#[derive(Clone, Copy)]
struct JobMeta {
    arrival: SimTime,
    tenant: usize,
    bracket: Option<u32>,
    /// Stage-0 instance demand, for pool-aware admission.
    first_stage_demand: u32,
}

/// The multi-tenant tuning service.
#[derive(Debug, Clone)]
pub struct TuningService {
    tenants: Vec<TenantSpec>,
    options: ServeOptions,
}

impl TuningService {
    /// Builds a service over a validated tenant list.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] when the tenant list is empty,
    /// any tenant fails [`TenantSpec::validate`] (zero/negative/non-finite
    /// weight, non-positive budget), or the options fail
    /// [`ServeOptions::validate`].
    pub fn new(tenants: Vec<TenantSpec>, options: ServeOptions) -> Result<Self> {
        if tenants.is_empty() {
            return Err(RbError::InvalidConfig(
                "serve: at least one tenant is required".into(),
            ));
        }
        for t in &tenants {
            t.validate()?;
        }
        options.validate()?;
        Ok(TuningService { tenants, options })
    }

    /// The tenant list.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// The service options.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Runs a workload to completion without observability.
    ///
    /// # Errors
    ///
    /// As [`TuningService::run_with_recorder`].
    pub fn run(&self, jobs: Vec<JobRequest>) -> Result<ServeReport> {
        self.run_with_recorder(jobs, &RecorderHandle::noop())
    }

    /// Runs a workload to completion, reporting service events and each
    /// job's executor trace into `recorder` (jobs are lane-scoped via
    /// [`JobScopedRecorder`] so their timelines stay separable).
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] when a job names an unknown
    /// tenant, or propagates the failing executor's error.
    pub fn run_with_recorder(
        &self,
        jobs: Vec<JobRequest>,
        recorder: &RecorderHandle,
    ) -> Result<ServeReport> {
        for (i, job) in jobs.iter().enumerate() {
            if job.tenant >= self.tenants.len() {
                return Err(RbError::InvalidConfig(format!(
                    "serve: job {i} names tenant {} but only {} tenants exist",
                    job.tenant,
                    self.tenants.len()
                )));
            }
        }

        // One shared pool for the whole workload, priced from the first
        // job's cloud profile (pools only make sense across jobs renting
        // the same instance type; heterogeneous fleets would need one
        // pool per type).
        let pool = match (&self.options.pool, jobs.first()) {
            (Some(cfg), Some(first)) => Some(SharedPool::new(InstancePool::new(
                cfg.clone(),
                first.executor.cloud().pricing.clone(),
            )?)),
            _ => None,
        };

        let meta: Vec<JobMeta> = jobs
            .iter()
            .map(|j| JobMeta {
                arrival: j.arrival,
                tenant: j.tenant,
                bracket: j.bracket,
                first_stage_demand: j.executor.first_stage_instance_demand(),
            })
            .collect();
        let mut requests: Vec<Option<JobRequest>> = jobs.into_iter().map(Some).collect();

        // Arrival order: (arrival time, submission index).
        let mut pending: VecDeque<usize> = {
            let mut order: Vec<usize> = (0..requests.len()).collect();
            order.sort_by_key(|&i| (meta[i].arrival, i));
            order.into()
        };
        let mut queue: Vec<usize> = Vec::new();
        let mut running: BTreeMap<u64, ExecutorCore> = BTreeMap::new();
        let mut dispatched_at: Vec<SimTime> = vec![SimTime::ZERO; requests.len()];
        let mut pool_admitted: Vec<bool> = vec![false; requests.len()];
        let mut pool_admits: u64 = 0;
        let mut spend: Vec<Cost> = vec![Cost::ZERO; self.tenants.len()];
        let mut completed: Vec<usize> = vec![0; self.tenants.len()];
        let mut rejected_count: Vec<usize> = vec![0; self.tenants.len()];
        let mut outcomes: Vec<JobOutcome> = Vec::new();
        let mut rejected: Vec<RejectedJob> = Vec::new();
        let mut clock = SimTime::ZERO;
        let mut last_finish = SimTime::ZERO;
        let mut hook = NoopHook;

        loop {
            // 1. Admission horizon: the next running step, else (queue
            // drained and idle) jump the clock to the next arrival.
            let next_step = running.iter().map(|(id, core)| (core.now(), *id)).min();
            let horizon = match next_step {
                Some((t, _)) => Some(t),
                None if !queue.is_empty() => Some(clock),
                None => pending.front().map(|&i| meta[i].arrival),
            };
            let Some(horizon) = horizon else { break };

            // 2. Admit every arrival due at or before the horizon.
            while let Some(&idx) = pending.front() {
                let arrival = meta[idx].arrival;
                if arrival > horizon {
                    break;
                }
                pending.pop_front();
                clock = clock.max(arrival);
                let tenant = meta[idx].tenant;
                let reason = if queue.len() >= self.options.max_queue {
                    Some(RejectReason::QueueFull)
                } else if self.tenants[tenant]
                    .budget
                    .is_some_and(|b| spend[tenant] >= b)
                {
                    Some(RejectReason::BudgetExhausted)
                } else {
                    None
                };
                match reason {
                    Some(reason) => {
                        rejected_count[tenant] += 1;
                        if recorder.enabled() {
                            recorder.instant(
                                arrival,
                                "serve",
                                "job.reject",
                                Lane::Job(idx as u64),
                                vec![("tenant", tenant.into()), ("reason", reason.label().into())],
                            );
                        }
                        recorder.counter_add("serve", "jobs_rejected", 1);
                        rejected.push(RejectedJob {
                            job: idx as u64,
                            tenant,
                            arrival,
                            reason,
                        });
                    }
                    None => {
                        if recorder.enabled() {
                            recorder.instant(
                                arrival,
                                "serve",
                                "job.submit",
                                Lane::Job(idx as u64),
                                vec![("tenant", tenant.into())],
                            );
                        }
                        queue.push(idx);
                    }
                }
            }

            // 3. Dispatch queued jobs into free slots, fair-share first.
            while running.len() < self.options.max_concurrent && !queue.is_empty() {
                let pick = self.pick_fair(&queue, &meta, &spend);
                let idx = queue.remove(pick);
                let req = requests[idx].take().expect("job dispatched twice");
                self.dispatch_one(
                    idx,
                    req,
                    clock,
                    recorder,
                    pool.as_ref(),
                    None,
                    &mut dispatched_at,
                    &mut running,
                )?;
            }

            // 3b. Pool-aware admission: with every slot busy, a queued
            // job whose entire first stage fits in parked (eligible,
            // unexpired) pool capacity dispatches anyway — it will run
            // warm off instances that are otherwise billing park time
            // toward expiry. Strictly in fair-share order: admission
            // stops at the first pick that does not fit, so this never
            // becomes a backfill path around the fair queue.
            if self.options.pool_admission && !queue.is_empty() {
                if let Some(pool) = &pool {
                    let mut eligible = pool.with(|p| p.eligible_count(clock));
                    while !queue.is_empty() && eligible > 0 {
                        let pick = self.pick_fair(&queue, &meta, &spend);
                        let demand = meta[queue[pick]].first_stage_demand as usize;
                        if demand == 0 || demand > eligible {
                            break;
                        }
                        let idx = queue.remove(pick);
                        let req = requests[idx].take().expect("job dispatched twice");
                        self.dispatch_one(
                            idx,
                            req,
                            clock,
                            recorder,
                            Some(pool),
                            Some((eligible, demand as u32)),
                            &mut dispatched_at,
                            &mut running,
                        )?;
                        pool_admitted[idx] = true;
                        pool_admits += 1;
                        eligible -= demand;
                    }
                }
            }

            // 4. Step the running core that is furthest behind. Among
            // clock ties the fair-share tie-break (spend ÷ weight,
            // then arrival, then submission index) decides — the same
            // order dispatch uses — so which contending job reaches
            // the shared pool first at an interleaved barrier is a
            // deterministic function of the workload, not of map
            // iteration order.
            let mut pick: Option<(SimTime, f64, SimTime, u64)> = None;
            for (id, core) in &running {
                let m = &meta[*id as usize];
                let share = spend[m.tenant].as_dollars() / self.tenants[m.tenant].weight;
                let key = (core.now(), share, m.arrival, *id);
                let better = match &pick {
                    None => true,
                    Some(best) => key
                        .0
                        .cmp(&best.0)
                        .then_with(|| key.1.total_cmp(&best.1))
                        .then_with(|| key.2.cmp(&best.2))
                        .then_with(|| key.3.cmp(&best.3))
                        .is_lt(),
                };
                if better {
                    pick = Some(key);
                }
            }
            let Some((t, _, _, id)) = pick else {
                // Nothing running: if nothing is waiting either, done.
                if pending.is_empty() && queue.is_empty() {
                    break;
                }
                continue;
            };
            clock = clock.max(t);
            let core = running.get_mut(&id).expect("picked a running core");
            if let StepOutcome::Finished { at } = core.step(t, &mut hook)? {
                let core = running.remove(&id).expect("finished core is running");
                let report = core.finish()?;
                clock = clock.max(at);
                last_finish = last_finish.max(at);
                let idx = id as usize;
                let tenant = meta[idx].tenant;
                let dispatched = dispatched_at[idx];
                spend[tenant] += report.total_cost();
                completed[tenant] += 1;
                if recorder.enabled() {
                    recorder.instant(
                        at,
                        "serve",
                        "job.done",
                        Lane::Job(id),
                        vec![
                            ("tenant", tenant.into()),
                            ("cost_usd", report.total_cost().as_dollars().into()),
                            ("jct_s", report.jct.as_secs_f64().into()),
                        ],
                    );
                }
                recorder.counter_add("serve", "jobs_completed", 1);
                if let Some(b) = meta[idx].bracket.filter(|_| recorder.enabled()) {
                    // Bracket-tagged jobs form one tenant's Hyperband
                    // job group: give each bracket a lane-scoped span
                    // so the group reads as parallel lanes in a trace.
                    recorder.span(
                        dispatched,
                        at,
                        "serve",
                        "bracket",
                        Lane::Bracket(b),
                        vec![("job", idx.into()), ("tenant", tenant.into())],
                    );
                }
                outcomes.push(JobOutcome {
                    job: id,
                    tenant,
                    arrival: meta[idx].arrival,
                    dispatched,
                    finished: at,
                    queue_wait: dispatched.saturating_since(meta[idx].arrival),
                    pool_admitted: pool_admitted[idx],
                    report,
                });
            }
        }

        // Wind down the pool: anything still parked terminates now and
        // bills its park time. After the drain nothing is parked, so
        // the ledger must balance exactly: every offer was parked,
        // rejected, double-released, or conflicted; every park was
        // handed off, expired, or drained.
        let pool_stats = pool.map(|p| {
            p.with(|pool| {
                pool.drain(clock);
                let stats = pool.stats();
                debug_assert!(
                    stats.balances(0),
                    "pool ledger out of balance after drain: {stats:?}"
                );
                stats
            })
        });

        let job_cost: Cost = outcomes
            .iter()
            .fold(Cost::ZERO, |acc, o| acc + o.report.total_cost());
        let park = pool_stats.as_ref().map_or(Cost::ZERO, |s| s.park_cost);
        let saved = pool_stats
            .as_ref()
            .map_or(Cost::ZERO, |s| s.min_charge_saved);
        let billed_cost = job_cost + park;
        let mut waits_by_tenant: Vec<Vec<SimDuration>> = vec![Vec::new(); self.tenants.len()];
        for o in &outcomes {
            waits_by_tenant[o.tenant].push(o.queue_wait);
        }
        for w in &mut waits_by_tenant {
            w.sort_unstable();
        }
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantUsage {
                name: t.name.clone(),
                weight: t.weight,
                budget: t.budget,
                completed: completed[i],
                rejected: rejected_count[i],
                spend: spend[i],
                wait_p50: percentile(&waits_by_tenant[i], 0.50),
                wait_p90: percentile(&waits_by_tenant[i], 0.90),
            })
            .collect();
        Ok(ServeReport {
            outcomes,
            rejected,
            tenants,
            pool: pool_stats,
            pool_admits,
            makespan: last_finish,
            billed_cost,
            net_cost: billed_cost - saved,
        })
    }

    /// Instantiates one job's executor core at `clock` (or its arrival,
    /// whichever is later), attaches the shared pool, emits the
    /// dispatch events, and registers the core as running. Used by both
    /// the normal slot-fill path and pool-aware admission (`from_pool`
    /// carries `(eligible parked count, first-stage demand)` for the
    /// admission event's fields).
    #[allow(clippy::too_many_arguments)]
    fn dispatch_one(
        &self,
        idx: usize,
        req: JobRequest,
        clock: SimTime,
        recorder: &RecorderHandle,
        pool: Option<&SharedPool>,
        from_pool: Option<(usize, u32)>,
        dispatched_at: &mut [SimTime],
        running: &mut BTreeMap<u64, ExecutorCore>,
    ) -> Result<()> {
        let JobRequest {
            executor,
            configs,
            arrival,
            tenant,
            bracket,
        } = req;
        let start = clock.max(arrival);
        let job_id = idx as u64;
        let wait = start.saturating_since(arrival);
        let scoped: Arc<dyn Recorder> = Arc::new(JobScopedRecorder::new(recorder.share(), job_id));
        // The request is consumed here, so the core takes its executor
        // and configurations without copying them.
        let mut core =
            ExecutorCore::from_parts(executor, configs, RecorderHandle::new(scoped), start)?;
        if let Some(pool) = pool {
            // Bracket-tagged jobs share a group keyed by tenant, so
            // barrier-released capacity prefers siblings of the same
            // Hyperband run before flowing cross-tenant.
            let group = bracket.map(|_| tenant as u64);
            core.attach_shared_pool(pool.clone(), job_id, group);
        }
        if !wait.is_zero() && recorder.enabled() {
            recorder.span(
                arrival,
                start,
                "serve",
                "job.queued",
                Lane::Job(job_id),
                vec![("wait_s", wait.as_secs_f64().into())],
            );
        }
        if recorder.enabled() {
            recorder.instant(
                start,
                "serve",
                "job.dispatch",
                Lane::Job(job_id),
                vec![
                    ("tenant", tenant.into()),
                    ("wait_s", wait.as_secs_f64().into()),
                ],
            );
        }
        if let Some((eligible, demand)) = from_pool {
            if recorder.enabled() {
                recorder.instant(
                    start,
                    "serve",
                    "job.admit_from_pool",
                    Lane::Job(job_id),
                    vec![
                        ("tenant", tenant.into()),
                        ("first_stage_demand", (demand as usize).into()),
                        ("parked_eligible", eligible.into()),
                    ],
                );
            }
            recorder.counter_add("serve", "pool_admits", 1);
        }
        recorder.histogram("serve", "queue_wait_s", wait.as_secs_f64());
        dispatched_at[idx] = start;
        running.insert(job_id, core);
        Ok(())
    }

    /// The queued job that should dispatch next: lowest tenant
    /// spend ÷ weight, ties by arrival time, then submission index.
    /// Returns a position within `queue`.
    fn pick_fair(&self, queue: &[usize], meta: &[JobMeta], spend: &[Cost]) -> usize {
        let share = |idx: usize| {
            let t = meta[idx].tenant;
            spend[t].as_dollars() / self.tenants[t].weight
        };
        let mut best = 0;
        for pos in 1..queue.len() {
            let (a, b) = (queue[pos], queue[best]);
            let ord = share(a)
                .total_cmp(&share(b))
                .then(meta[a].arrival.cmp(&meta[b].arrival))
                .then(a.cmp(&b));
            if ord.is_lt() {
                best = pos;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tenant_list_is_a_typed_error() {
        let err = TuningService::new(Vec::new(), ServeOptions::default()).unwrap_err();
        assert!(matches!(err, RbError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn bad_tenant_weight_is_rejected_at_construction() {
        let err = TuningService::new(
            vec![TenantSpec::new("a", 1.0), TenantSpec::new("b", 0.0)],
            ServeOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RbError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn zero_concurrency_is_rejected() {
        let err = TuningService::new(
            vec![TenantSpec::new("a", 1.0)],
            ServeOptions {
                max_concurrent: 0,
                ..ServeOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, RbError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn zero_capacity_pool_is_rejected() {
        let err = TuningService::new(
            vec![TenantSpec::new("a", 1.0)],
            ServeOptions {
                pool: Some(PoolConfig {
                    capacity: 0,
                    ..PoolConfig::default()
                }),
                ..ServeOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, RbError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn empty_workload_yields_an_empty_report() {
        let svc =
            TuningService::new(vec![TenantSpec::new("a", 1.0)], ServeOptions::default()).unwrap();
        let report = svc.run(Vec::new()).unwrap();
        assert!(report.outcomes.is_empty());
        assert!(report.rejected.is_empty());
        assert_eq!(report.billed_cost, Cost::ZERO);
        assert_eq!(report.makespan, SimTime::ZERO);
        assert_eq!(report.tenants.len(), 1);
    }
}
