//! ext-serve — the multi-tenant service sweep.
//!
//! Runs the same seeded workload through [`rb_serve::TuningService`]
//! across tenant counts and arrival spacings, each cell once with the
//! shared elastic instance pool and once without. The pool-on/pool-off
//! pair shares job seeds, so the cost delta is exactly what the pool's
//! barrier handoffs are worth: adopters skip dataset re-ingress and the
//! provision + init cycle, at the price of park time for instances the
//! pool holds.
//!
//! Three sub-sweeps exercise the service at increasing concurrency:
//!
//! * **serial** — `max_concurrent = 1`, the original pairwise
//!   comparison (each successor adopts its predecessor's whole fleet);
//! * **contended** — `max_concurrent = 2` with a downscaling plan, so
//!   two running jobs race for the same parked instances at
//!   interleaved barriers and pool-aware admission can dispatch queued
//!   jobs against parked capacity;
//! * **hyperband** — one tenant's Hyperband bracket set submitted as a
//!   bracket-tagged job group ([`rubberband::hyperband_group_jobs`]),
//!   so barrier-released capacity flows between sibling brackets.
//!
//! Each sub-sweep ends with a machine-checkable `ext-serve … summary:`
//! line that `scripts/verify.sh` diffs against
//! `scripts/expected_ext_serve.txt`; a drift means the scheduler, the
//! pool lifecycle, or the billing accounting changed behaviour.

use crate::table::{left, right, Cell, Table};
use crate::tables::physics_for;
use rb_cloud::catalog::P3_8XLARGE;
use rb_cloud::{CloudPricing, PoolConfig};
use rb_core::{Cost, Prng, Result, SimDuration, SimTime};
use rb_exec::{ExecOptions, Executor};
use rb_hpo::{Config, Dim, ExperimentSpec, SearchSpace};
use rb_profile::CloudProfile;
use rb_serve::{JobRequest, ServeOptions, ServeReport, TenantSpec, TuningService};
use rb_sim::AllocationPlan;

/// The axes of the [`ext_serve`] and [`ext_serve_contended`] sweeps.
#[derive(Debug, Clone, Copy)]
pub struct ServeSweep {
    /// Tenant counts.
    pub tenants: &'static [usize],
    /// Arrival gaps of the serial sweep, in seconds.
    pub gaps: &'static [u64],
    /// Arrival gaps of the contended sweep, in seconds.
    pub contended_gaps: &'static [u64],
}

impl ServeSweep {
    /// The reduced sweeps: `repro quick ext-serve` prints them and
    /// `repro fleet` records their jobs.
    pub const QUICK: ServeSweep = ServeSweep {
        tenants: &[2],
        gaps: &[0, 300],
        contended_gaps: &[0],
    };

    /// The full sweeps of `repro ext-serve`.
    pub const FULL: ServeSweep = ServeSweep {
        tenants: &[1, 2, 3],
        gaps: &[0, 300],
        contended_gaps: &[0],
    };
}

/// One service cell's executed outcome.
#[derive(Debug, Clone)]
pub struct ServeCell {
    /// Number of tenants sharing the service.
    pub tenants: usize,
    /// Seconds between consecutive job arrivals.
    pub gap_secs: u64,
    /// Whether the shared instance pool was enabled.
    pub pool: bool,
    /// Concurrent job slots the cell ran with.
    pub max_concurrent: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs rejected at admission.
    pub rejected: usize,
    /// Total billed cost in dollars (job meters + pool park time).
    pub billed: Cost,
    /// Billed cost net of the minimum-charge credit.
    pub net: Cost,
    /// Median queue wait in seconds.
    pub p50_wait_secs: f64,
    /// Virtual makespan in seconds.
    pub makespan_secs: f64,
    /// Barrier handoffs the pool brokered (0 when disabled).
    pub handoffs: u64,
    /// Parked instances the pool gave up on (0 when disabled).
    pub expirations: u64,
    /// Instances still parked at the end-of-run drain.
    pub drained: u64,
    /// Double releases the idempotency guard absorbed (must stay 0).
    pub double_releases: u64,
    /// Cross-job ownership conflicts the pool rejected (must stay 0).
    pub conflicts: u64,
    /// Jobs dispatched early by pool-aware admission.
    pub pool_admits: u64,
}

fn serve_cloud() -> CloudProfile {
    // Paid ingress and a real provision + init cycle: the costs a warm
    // handoff avoids, so the pool's value shows up on the bill.
    CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE).with_data_price(Cost::from_dollars(0.02)))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15))
        .with_dataset_gb(100.0)
}

fn serve_configs(n: usize, seed: u64) -> Vec<Config> {
    let space = SearchSpace::new()
        .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
        .build()
        .unwrap();
    space.sample_n(n, &mut Prng::seed_from_u64(seed))
}

/// Builds a cell's workload: `jobs` single-plan SHA runs arriving
/// `gap_secs` apart, round-robin across tenants. Pool-on and pool-off
/// cells call this with the same arguments, so the comparison is at
/// identical seeds. `gpus_per_stage` sets the allocation shape: the
/// serial sweep holds a flat fleet, the contended sweep downsizes at
/// barriers so instances park mid-run.
fn serve_jobs_with_plan(
    jobs: usize,
    tenants: usize,
    gap_secs: u64,
    seed: u64,
    gpus_per_stage: &[u32],
) -> Result<Vec<JobRequest>> {
    let task = rb_train::task::resnet101_cifar10();
    let physics = physics_for(&task, 1024, 4);
    let spec = ExperimentSpec::from_stages(&[(8, 1), (4, 2), (2, 4), (1, 8)])?;
    (0..jobs)
        .map(|k| {
            let job_seed = seed ^ ((tenants as u64) << 32) ^ (gap_secs << 16) ^ k as u64;
            let executor = Executor::new(
                spec.clone(),
                AllocationPlan::new(gpus_per_stage.to_vec()),
                task.clone(),
                physics.clone(),
                serve_cloud(),
            )?
            .with_options(ExecOptions {
                seed: job_seed,
                ..ExecOptions::default()
            });
            Ok(JobRequest::new(
                executor,
                serve_configs(8, job_seed ^ 0xC0FFEE),
                SimTime::from_secs(k as u64 * gap_secs),
                k % tenants,
            ))
        })
        .collect()
}

fn serve_jobs(jobs: usize, tenants: usize, gap_secs: u64, seed: u64) -> Result<Vec<JobRequest>> {
    serve_jobs_with_plan(jobs, tenants, gap_secs, seed, &[8, 8, 8, 8])
}

/// One completed service job, flattened for the fleet manifests: the
/// cell coordinates, the billing tenant, and the job's own meters.
#[derive(Debug, Clone)]
pub struct ServeJobRow {
    /// Number of tenants sharing the service.
    pub tenants: usize,
    /// Seconds between consecutive job arrivals.
    pub gap_secs: u64,
    /// Whether the shared instance pool was enabled.
    pub pool: bool,
    /// Concurrent job slots the cell ran with.
    pub max_concurrent: usize,
    /// The submitting tenant's name (`tenant-{i}`).
    pub tenant: String,
    /// Job completion time (from dispatch), virtual milliseconds.
    pub jct_ms: u64,
    /// Compute + data cost in micro-dollars.
    pub cost_micros: i64,
    /// Queue wait before dispatch, virtual milliseconds.
    pub queue_wait_ms: u64,
    /// Whether pool-aware admission dispatched this job early.
    pub pool_admitted: bool,
    /// Spot preemptions the job absorbed.
    pub preemptions: u32,
    /// Faults injected into the job.
    pub faults: u64,
    /// Provisioning retry rounds.
    pub retries: u64,
    /// Checkpoint generation fallbacks.
    pub fallbacks: u64,
    /// Stages run on degraded capacity.
    pub degraded: u32,
}

/// Flattens one executed report into its [`ServeCell`] and per-job
/// [`ServeJobRow`]s (pushed onto `jobs`).
fn flatten_report(
    tenants: usize,
    gap: u64,
    pool: bool,
    max_concurrent: usize,
    report: &ServeReport,
    jobs: &mut Vec<ServeJobRow>,
) -> ServeCell {
    let stats = report.pool.clone().unwrap_or_default();
    for outcome in &report.outcomes {
        jobs.push(ServeJobRow {
            tenants,
            gap_secs: gap,
            pool,
            max_concurrent,
            tenant: format!("tenant-{}", outcome.tenant),
            jct_ms: outcome.report.jct.as_millis(),
            cost_micros: outcome.report.total_cost().as_micros(),
            queue_wait_ms: outcome.queue_wait.as_millis(),
            pool_admitted: outcome.pool_admitted,
            preemptions: outcome.report.preemptions,
            faults: outcome.report.faults_injected,
            retries: outcome.report.provision_retries,
            fallbacks: outcome.report.checkpoint_fallbacks,
            degraded: outcome.report.degraded_stages,
        });
    }
    ServeCell {
        tenants,
        gap_secs: gap,
        pool,
        max_concurrent,
        completed: report.outcomes.len(),
        rejected: report.rejected.len(),
        billed: report.billed_cost,
        net: report.net_cost,
        p50_wait_secs: report.queue_wait_p50().as_secs_f64(),
        makespan_secs: report
            .makespan
            .saturating_since(SimTime::ZERO)
            .as_secs_f64(),
        handoffs: stats.handoffs,
        expirations: stats.expirations,
        drained: stats.drained,
        double_releases: stats.double_releases,
        conflicts: stats.conflicts,
        pool_admits: report.pool_admits,
    }
}

/// Runs the serial sweep: every (tenant count × arrival gap) cell with
/// the pool off and on, four jobs per cell on a serial service so each
/// successor can adopt its predecessor's fleet.
///
/// # Errors
///
/// Propagates service and executor errors.
pub fn ext_serve(tenant_counts: &[usize], gaps: &[u64], seed: u64) -> Result<Vec<ServeCell>> {
    ext_serve_with_jobs(tenant_counts, gaps, seed).map(|(cells, _)| cells)
}

/// [`ext_serve`] also returning one [`ServeJobRow`] per completed job,
/// in completion order — the per-run records the `repro fleet`
/// artifact turns into rollup manifests.
///
/// # Errors
///
/// Propagates service and executor errors.
pub fn ext_serve_with_jobs(
    tenant_counts: &[usize],
    gaps: &[u64],
    seed: u64,
) -> Result<(Vec<ServeCell>, Vec<ServeJobRow>)> {
    let mut cells = Vec::new();
    let mut jobs = Vec::new();
    for &tenants in tenant_counts {
        for &gap in gaps {
            for pool in [false, true] {
                let service = TuningService::new(
                    (0..tenants)
                        .map(|t| TenantSpec::new(format!("tenant-{t}"), 1.0))
                        .collect(),
                    ServeOptions {
                        max_concurrent: 1,
                        max_queue: 16,
                        pool: pool.then(PoolConfig::default),
                        pool_admission: false,
                    },
                )?;
                let report = service.run(serve_jobs(4, tenants, gap, seed)?)?;
                cells.push(flatten_report(tenants, gap, pool, 1, &report, &mut jobs));
            }
        }
    }
    Ok((cells, jobs))
}

/// Runs the contended sweep: two concurrent slots, six jobs per cell on
/// a downscaling plan (instances park at every barrier), pool-aware
/// admission on when the pool is. Two running jobs race for the same
/// parked instances at interleaved barriers, and queued jobs whose
/// first stage fits inside parked capacity dispatch past the slot
/// limit.
///
/// # Errors
///
/// Propagates service and executor errors.
pub fn ext_serve_contended(
    tenant_counts: &[usize],
    gaps: &[u64],
    seed: u64,
) -> Result<Vec<ServeCell>> {
    ext_serve_contended_with_jobs(tenant_counts, gaps, seed).map(|(cells, _)| cells)
}

/// [`ext_serve_contended`] also returning the per-job rows for the
/// fleet manifests.
///
/// # Errors
///
/// Propagates service and executor errors.
pub fn ext_serve_contended_with_jobs(
    tenant_counts: &[usize],
    gaps: &[u64],
    seed: u64,
) -> Result<(Vec<ServeCell>, Vec<ServeJobRow>)> {
    let mut cells = Vec::new();
    let mut jobs = Vec::new();
    for &tenants in tenant_counts {
        for &gap in gaps {
            for pool in [false, true] {
                let service = TuningService::new(
                    (0..tenants)
                        .map(|t| TenantSpec::new(format!("tenant-{t}"), 1.0))
                        .collect(),
                    ServeOptions {
                        max_concurrent: 2,
                        max_queue: 16,
                        pool: pool.then(PoolConfig::default),
                        pool_admission: pool,
                    },
                )?;
                // A downscaling plan (16→8→4→4 GPUs over the 8/4/2/1
                // trial ladder) releases instances at barriers 0 and 1,
                // so parked capacity exists *while* other jobs run —
                // the contention the serial sweep's flat fleet never
                // creates.
                let report =
                    service.run(serve_jobs_with_plan(6, tenants, gap, seed, &[16, 8, 4, 4])?)?;
                cells.push(flatten_report(tenants, gap, pool, 2, &report, &mut jobs));
            }
        }
    }
    Ok((cells, jobs))
}

/// Hyperband shape `(r, R, η)` shared by the sweep runner and its
/// header line.
const HYPERBAND_SHAPE: (u64, u64, u32) = (1, 4, 2);

/// Runs the Hyperband job-group pair: one tenant submits the brackets
/// of `hyperband(r=1, R=4, η=2)` as bracket-tagged jobs, once without
/// and once with the pool (plus pool-aware admission). Bracket-tagged
/// jobs share a pool-affinity group, so capacity a bracket releases at
/// a barrier flows to sibling brackets before expiring.
///
/// # Errors
///
/// Propagates bracket-generation, planning, service, and executor
/// errors.
pub fn ext_serve_hyperband(seed: u64) -> Result<Vec<ServeCell>> {
    let (r, big_r, eta) = HYPERBAND_SHAPE;
    let task = rb_train::task::resnet101_cifar10();
    let physics = physics_for(&task, 1024, 4);
    let space = SearchSpace::new()
        .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
        .build()?;
    let mut cells = Vec::new();
    let mut jobs_sink = Vec::new();
    for pool in [false, true] {
        let jobs = rubberband::hyperband_group_jobs(
            r,
            big_r,
            eta,
            &task,
            &physics,
            &serve_cloud(),
            &space,
            SimDuration::from_hours(2),
            0,
            SimTime::ZERO,
            seed,
        )?;
        let brackets = jobs.len();
        let service = TuningService::new(
            vec![TenantSpec::new("hyperband", 1.0)],
            ServeOptions {
                max_concurrent: 2,
                max_queue: 16,
                pool: pool.then(PoolConfig::default),
                pool_admission: pool,
            },
        )?;
        let report = service.run(jobs)?;
        cells.push(flatten_report(1, 0, pool, 2, &report, &mut jobs_sink));
        debug_assert_eq!(cells.last().map(|c| c.completed), Some(brackets));
    }
    Ok(cells)
}

/// The serial sweep as a table, ending with a machine-checkable summary
/// line.
pub fn ext_serve_table(cells: &[ServeCell]) -> Table {
    let s = PairSummary::over(cells);
    cells_table(
        "Extension — multi-tenant service with a shared elastic instance pool\n\
         (4 jobs/cell, serial dispatch, paid ingress; pool pairs share seeds)"
            .into(),
        cells,
    )
    .with_notes(format!(
        "\next-serve summary: cells={} pairs={} pool_cheaper={} \
         wait_regressions={} handoffs={} \
         expirations={} double_releases={} saved=${:.4}\n",
        cells.len(),
        s.pairs,
        s.cheaper,
        s.wait_regressions,
        s.handoffs,
        s.expirations,
        s.double_releases,
        s.saved.as_dollars()
    ))
}

/// The contended sweep as a table, after a blank line, ending with a
/// machine-checkable summary line.
pub fn ext_serve_contended_table(cells: &[ServeCell]) -> Table {
    let s = PairSummary::over(cells);
    cells_table(
        "\nExtension — contended pools: 2 slots, downscaling plans, pool admission\n\
         (6 jobs/cell; running jobs race for parked instances at barriers)"
            .into(),
        cells,
    )
    .with_notes(format!(
        "\next-serve contended summary: cells={} pairs={} pool_cheaper={} \
         wait_regressions={} handoffs={} pool_admits={} \
         conflicts={} double_releases={} saved=${:.4}\n",
        cells.len(),
        s.pairs,
        s.cheaper,
        s.wait_regressions,
        s.handoffs,
        s.pool_admits,
        s.conflicts,
        s.double_releases,
        s.saved.as_dollars()
    ))
}

/// The Hyperband job-group pair as a table, after a blank line, ending
/// with a machine-checkable summary line.
pub fn ext_serve_hyperband_table(cells: &[ServeCell]) -> Table {
    let (r, big_r, eta) = HYPERBAND_SHAPE;
    let ladder = rb_hpo::hyperband_brackets(r, big_r, eta)
        .map(|brackets| {
            brackets
                .iter()
                .map(|(params, _)| params.describe())
                .collect::<Vec<_>>()
                .join(" · ")
        })
        .unwrap_or_default();
    let s = PairSummary::over(cells);
    cells_table(
        format!(
            "\nExtension — Hyperband bracket group through the service\n\
             (one tenant, brackets {ladder}, group pool affinity)"
        ),
        cells,
    )
    .with_notes(format!(
        "\next-serve hyperband summary: cells={} brackets={} pool_cheaper={} \
         wait_regressions={} handoffs={} pool_admits={} \
         conflicts={} saved=${:.4}\n",
        cells.len(),
        cells.first().map_or(0, |c| c.completed),
        s.cheaper,
        s.wait_regressions,
        s.handoffs,
        s.pool_admits,
        s.conflicts,
        s.saved.as_dollars()
    ))
}

/// One sub-sweep's cells under `title`.
fn cells_table(title: String, cells: &[ServeCell]) -> Table {
    Table::of(
        title,
        cells,
        &[
            (left("tenants", 8), |c| Cell::count(c.tenants)),
            (right("gap_s", 6), |c| Cell::int(c.gap_secs)),
            (right("pool", 6), |c| Cell::flag(c.pool, "on", "off")),
            (right("done", 5), |c| Cell::count(c.completed)),
            (right("rej", 4), |c| Cell::count(c.rejected)),
            (right("billed", 10), |c| Cell::Cost(c.billed)),
            (right("net", 10), |c| Cell::Cost(c.net)),
            (right("p50_wait", 9), |c| {
                Cell::Real(c.p50_wait_secs, 0, "s")
            }),
            (right("makespan", 11), |c| {
                Cell::Real(c.makespan_secs, 0, "s")
            }),
            (right("handoffs", 9), |c| Cell::int(c.handoffs)),
            (right("admits", 7), |c| Cell::int(c.pool_admits)),
        ],
    )
}

/// Pairwise aggregates over adjacent pool-off/pool-on cells.
#[derive(Default)]
struct PairSummary {
    pairs: u64,
    cheaper: u64,
    wait_regressions: u64,
    handoffs: u64,
    expirations: u64,
    double_releases: u64,
    conflicts: u64,
    pool_admits: u64,
    saved: Cost,
}

impl PairSummary {
    fn over(cells: &[ServeCell]) -> PairSummary {
        let mut s = PairSummary::default();
        // Pool-off/pool-on pairs are adjacent by construction.
        for pair in cells.chunks_exact(2) {
            let (off, on) = (&pair[0], &pair[1]);
            s.pairs += 1;
            if on.billed < off.billed {
                s.cheaper += 1;
                s.saved += off.billed - on.billed;
            }
            if on.p50_wait_secs > off.p50_wait_secs {
                s.wait_regressions += 1;
            }
            s.handoffs += on.handoffs;
            s.expirations += on.expirations;
            s.double_releases += on.double_releases + off.double_releases;
            s.conflicts += on.conflicts + off.conflicts;
            s.pool_admits += on.pool_admits + off.pool_admits;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_on_is_cheaper_at_equal_or_better_wait_in_every_pair() {
        let cells = ext_serve(&[2], &[0], 1).unwrap();
        assert_eq!(cells.len(), 2);
        for pair in cells.chunks_exact(2) {
            let (off, on) = (&pair[0], &pair[1]);
            assert!(!off.pool && on.pool);
            assert_eq!(off.completed, 4);
            assert_eq!(on.completed, 4);
            assert!(on.handoffs > 0, "pool must actually broker handoffs");
            assert_eq!(on.double_releases, 0);
            assert_eq!(on.conflicts, 0);
            assert!(
                on.billed < off.billed,
                "pool-on {} !< pool-off {}",
                on.billed,
                off.billed
            );
            assert!(on.net <= on.billed);
            assert!(on.p50_wait_secs <= off.p50_wait_secs);
        }
    }

    #[test]
    fn contended_pool_wins_every_pair_and_admits_from_the_pool() {
        let cells = ext_serve_contended(&[2], &[0], 1).unwrap();
        assert_eq!(cells.len(), 2);
        for pair in cells.chunks_exact(2) {
            let (off, on) = (&pair[0], &pair[1]);
            assert!(!off.pool && on.pool);
            assert_eq!(off.completed, 6);
            assert_eq!(on.completed, 6);
            assert!(on.handoffs > 0, "contended pool must broker handoffs");
            assert!(
                on.pool_admits > 0,
                "pool-aware admission must fire: parked capacity exists while slots are full"
            );
            assert_eq!(on.conflicts, 0, "no spurious ownership conflicts");
            assert_eq!(on.double_releases, 0);
            assert!(
                on.billed < off.billed,
                "pool-on {} !< pool-off {}",
                on.billed,
                off.billed
            );
            assert!(on.p50_wait_secs <= off.p50_wait_secs);
        }
    }

    #[test]
    fn hyperband_group_pair_prefers_the_pool() {
        let cells = ext_serve_hyperband(1).unwrap();
        assert_eq!(cells.len(), 2);
        let (off, on) = (&cells[0], &cells[1]);
        assert!(!off.pool && on.pool);
        assert_eq!(off.completed, on.completed, "same bracket count");
        assert!(on.completed >= 2, "hyperband(1,4,2) has multiple brackets");
        assert!(on.handoffs > 0, "group affinity must broker handoffs");
        assert_eq!(on.conflicts, 0);
        assert_eq!(on.double_releases, 0);
        assert!(
            on.billed <= off.billed,
            "pool-on {} > pool-off {}",
            on.billed,
            off.billed
        );
    }

    #[test]
    fn the_sweep_is_deterministic_per_seed() {
        let a = ext_serve(&[2], &[300], 1).unwrap();
        let b = ext_serve(&[2], &[300], 1).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let a = ext_serve_contended(&[2], &[0], 1).unwrap();
        let b = ext_serve_contended(&[2], &[0], 1).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
