//! The executor step's allocation contract: one `ExecutorCore::step`
//! costs arithmetic, not allocation. Per-trial curves are resolved once
//! at construction, and the per-round scratch (owed units, preemption
//! instants, hosting lists, unit observations, ranking, the placement
//! plan's working copy) is kept and reused, and a checkpoint is a size
//! record in storage the store keeps. What a step still allocates is
//! growth: each buffer's first fill in a fresh core, a trial's metric
//! history once per round, and the cloud layer's own records.
//!
//! Ordinary tests cannot see allocations, so this binary installs a
//! counting `#[global_allocator]` and runs from `main()` without the
//! libtest harness (`harness = false`): no harness thread can allocate
//! while a window is open.

use rb_cloud::catalog::P3_8XLARGE;
use rb_cloud::CloudPricing;
use rb_core::{Prng, SimDuration};
use rb_exec::{Executor, ExecutorCore, NoopHook};
use rb_hpo::{Config, Dim, SearchSpace, ShaParams};
use rb_obs::RecorderHandle;
use rb_profile::{CloudProfile, ModelProfile};
use rb_sim::AllocationPlan;
use rb_train::task::resnet101_cifar10;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Allocation events (alloc / alloc_zeroed / realloc) since process
/// start. Frees are not counted: a step that allocates nothing frees
/// nothing it did not allocate before, so acquisitions suffice.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation events made while `f` runs.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Each plan the jobs below run under, with the most allocation events
/// one step may make on average over all their steps, and what the step
/// made before per-trial curves were resolved once and its scratch was
/// kept on the core. Every bound is at most half the old count.
const PLANS: [([u32; 5], f64, f64); 2] = [
    // The serve_fleet job's plan: wave-scheduled first stages on one
    // instance.
    ([4, 4, 4, 4, 4], 12.6, 52.4),
    // Scales up, then back down through the placement controller.
    ([8, 16, 8, 8, 4], 19.7, 67.7),
];

fn configs(n: usize, seed: u64) -> Vec<Config> {
    let space = SearchSpace::new()
        .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
        .add("weight_decay", Dim::LogUniform { lo: 1e-5, hi: 1e-2 })
        .build()
        .unwrap();
    space.sample_n(n, &mut Prng::seed_from_u64(seed))
}

/// SHA(16, 1, 20, η=2) on ResNet-101/CIFAR-10 with the stepper suite's
/// physics and cloud under `gpus` per stage.
fn executor(gpus: &[u32], seed: u64) -> Executor {
    let task = resnet101_cifar10();
    let scaling = Arc::new(rb_scaling::AnalyticScaling::for_arch(&task.arch, 1024, 4));
    let mut physics =
        ModelProfile::from_scaling(task.name, scaling, task.steps_per_iter(1024), 2.0, 0.02);
    physics.train_startup_secs = 2.0;
    let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15));
    let spec = ShaParams::new(16, 1, 20).with_eta(2).generate().unwrap();
    let plan = AllocationPlan::new(gpus.to_vec());
    Executor::new(spec, plan, task, physics, cloud)
        .unwrap()
        .with_options(rb_exec::ExecOptions {
            seed,
            ..rb_exec::ExecOptions::default()
        })
}

/// Average allocation events per step over eight seeded jobs under
/// `gpus`.
fn allocations_per_step(gpus: &[u32]) -> f64 {
    let mut steps = 0u64;
    let mut step_allocs = 0u64;
    for seed in 1..=8u64 {
        let exec = executor(gpus, seed);
        let cfgs = configs(16, seed);
        let (core, new_allocs) =
            allocations_during(|| ExecutorCore::new(&exec, &cfgs, RecorderHandle::noop()));
        let mut core = core.unwrap();
        let mut job_steps = 0u64;
        let ((), allocs) = allocations_during(|| {
            while !core.is_finished() {
                let now = core.now();
                core.step(now, &mut NoopHook).unwrap();
                job_steps += 1;
            }
        });
        let (report, finish_allocs) = allocations_during(|| core.finish());
        report.unwrap();
        println!(
            "plan {gpus:?} seed {seed}: {new_allocs} allocations at construction, \
             {allocs} over {job_steps} steps, {finish_allocs} at finish"
        );
        steps += job_steps;
        step_allocs += allocs;
    }
    step_allocs as f64 / steps as f64
}

fn main() {
    for (gpus, bound, before) in PLANS {
        assert!(bound <= before / 2.0, "the bound must halve the old count");
        let per_step = allocations_per_step(&gpus);
        println!("executor step allocations under plan {gpus:?}: {per_step:.1} per step");
        assert!(
            per_step <= bound,
            "an executor step under plan {gpus:?} must allocate at most {bound} times on \
             average ({per_step:.1} per step)"
        );
    }
}
