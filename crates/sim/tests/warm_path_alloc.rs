//! The arena engine's allocation contract: a warmed-up `predict` never
//! calls the allocator, not even one that resumes the last plan's
//! billing walk; a warmed-up `stage_quantiles` or `explain` and an
//! all-hit `predict_batch` allocate at most their output vector; and a
//! stage-memo miss allocates the same whatever the sample count.
//!
//! Ordinary tests cannot see allocations, so this binary installs a
//! counting `#[global_allocator]` and runs from `main()` without the
//! libtest harness (`harness = false`): no harness thread can allocate
//! while a window is open. The count is one process-wide atomic.

use rb_cloud::catalog::P3_8XLARGE;
use rb_cloud::CloudPricing;
use rb_core::SimDuration;
use rb_hpo::ExperimentSpec;
use rb_profile::{CloudProfile, ModelProfile};
use rb_scaling::zoo::RESNET50;
use rb_scaling::AnalyticScaling;
use rb_sim::{AllocationPlan, SimConfig, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Allocation events (alloc / alloc_zeroed / realloc) since process
/// start. Frees are not counted: every free on the warm path pairs with
/// an allocation, so counting acquisitions suffices. A statistic that
/// publishes no other data, so `Relaxed`.
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
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The five shrinking SHA stages on sublinear ResNet-50 scaling, at the
/// default Monte-Carlo sample count.
fn sim() -> Simulator {
    let scaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, 4));
    let model = ModelProfile::from_scaling("rn50", scaling, 10, 2.0, 0.0);
    let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15));
    Simulator::new(model, cloud)
}

fn spec() -> ExperimentSpec {
    ExperimentSpec::from_stages(&[(16, 4), (8, 8), (4, 16), (2, 32), (1, 64)]).unwrap()
}

fn warm_predict_never_allocates() {
    let spec = spec();
    let plan = AllocationPlan::new(vec![32, 16, 8, 4, 4]);
    // Past the plan cache, so every predict runs the full simulation path.
    let sim = sim();
    // Warm up: arena high-water marks, the DAG template, stage memos.
    sim.predict_uncached(&spec, &plan).unwrap();
    sim.predict_uncached(&spec, &plan).unwrap();
    let delta = allocations_during(|| {
        for _ in 0..32 {
            std::hint::black_box(sim.predict_uncached(&spec, &plan).unwrap());
        }
    });
    println!("warm predict allocations over 32 calls: {delta}");
    assert_eq!(delta, 0, "warm predict must not allocate");
}

/// The planner's common miss: a plan one stage away from the last one.
/// The arena keeps the last plan loaded and the walk resumes at the
/// changed stage, which must not allocate either.
fn warm_resumed_predict_never_allocates() {
    let spec = spec();
    let plans = [
        AllocationPlan::new(vec![32, 16, 8, 4, 4]),
        AllocationPlan::new(vec![32, 16, 12, 4, 4]),
    ];
    let sim = sim();
    for plan in plans.iter().chain(&plans) {
        sim.predict_uncached(&spec, plan).unwrap();
    }
    let delta = allocations_during(|| {
        for k in 0..32 {
            std::hint::black_box(sim.predict_uncached(&spec, &plans[k % 2]).unwrap());
        }
    });
    println!("warm resumed predict allocations over 32 calls: {delta}");
    assert_eq!(delta, 0, "a warm resumed predict must not allocate");
}

/// `stage_quantiles` and `explain` load the plan into the same arena as
/// `predict` and reduce it there, so once warm each allocates exactly
/// one thing: the `Vec` it returns.
fn warm_stage_readers_allocate_only_their_output() {
    let spec = spec();
    let plan = AllocationPlan::new(vec![32, 16, 8, 4, 4]);
    let sim = sim();
    for _ in 0..2 {
        sim.stage_quantiles(&spec, &plan).unwrap();
        sim.explain(&spec, &plan).unwrap();
    }
    let quantiles = allocations_during(|| {
        std::hint::black_box(sim.stage_quantiles(&spec, &plan).unwrap());
    });
    let explain = allocations_during(|| {
        std::hint::black_box(sim.explain(&spec, &plan).unwrap());
    });
    println!("warm allocations: stage_quantiles {quantiles}, explain {explain}");
    assert_eq!(
        quantiles, 1,
        "warm stage_quantiles allocates only its output"
    );
    assert_eq!(explain, 1, "warm explain allocates only its output");
}

fn all_hit_batch_allocates_only_its_output() {
    let spec = spec();
    let sim = sim();
    let plans: Vec<AllocationPlan> = (0..8)
        .map(|i| AllocationPlan::new(vec![32 - 2 * i, 16, 8, 4, 4]))
        .collect();
    // Two warm-up passes: the first fills the plan cache, the second
    // settles every buffer on the all-hit path.
    for _ in 0..2 {
        for pred in sim.predict_batch(&spec, &plans) {
            pred.unwrap();
        }
    }
    let calls = 16u64;
    let delta = allocations_during(|| {
        for _ in 0..calls {
            for pred in std::hint::black_box(sim.predict_batch(&spec, &plans)) {
                pred.unwrap();
            }
        }
    });
    println!("warm all-hit predict_batch allocations over {calls} calls: {delta}");
    assert!(
        delta <= calls,
        "all-hit predict_batch must allocate at most its output vector ({delta} > {calls})"
    );
}

/// A miss draws its stage's samples into buffers sized up front: the
/// noise column, one scratch row and the sample vector. None of them
/// is allocated per sample, so the allocations of a cold prediction
/// (every stage misses and draws its noise column) and of a one-stage
/// sibling (one stage-memo miss that reads a shared column) are the
/// same at 8 and at 64 samples.
fn stage_memo_miss_allocations_do_not_grow_with_samples() {
    let spec = spec();
    let plan = AllocationPlan::new(vec![32, 16, 8, 4, 4]);
    // Stage 3 moves from one 4-GPU instance to two; no stage grows.
    let sibling = AllocationPlan::new(vec![32, 16, 8, 8, 4]);
    let noisy = |samples: u32| {
        let scaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, 4));
        let model = ModelProfile::from_scaling("rn50", scaling, 10, 2.0, 0.3);
        let cloud =
            CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE).with_per_function_billing())
                .with_provision_delay(SimDuration::from_secs(15))
                .with_init_latency(SimDuration::from_secs(15));
        Simulator::new(model, cloud).with_config(SimConfig {
            samples,
            ..SimConfig::default()
        })
    };
    // Grow this thread's prediction arena past both sample counts first,
    // so only the misses themselves are counted.
    noisy(64).predict_uncached(&spec, &plan).unwrap();
    let count = |samples: u32| {
        let sim = noisy(samples);
        let cold = allocations_during(|| {
            std::hint::black_box(sim.predict_uncached(&spec, &plan).unwrap());
        });
        let miss = allocations_during(|| {
            std::hint::black_box(sim.predict_uncached(&spec, &sibling).unwrap());
        });
        let stats = sim.cache_stats();
        assert_eq!(stats.stage_memo.misses, 6, "{samples} samples");
        assert_eq!((stats.noise.hits, stats.noise.misses), (1, 5));
        println!(
            "stage-memo miss allocations at {samples} samples: cold plan {cold}, sibling {miss}"
        );
        (cold, miss)
    };
    assert_eq!(
        count(8),
        count(64),
        "stage-memo miss allocations grew with the sample count"
    );
}

fn main() {
    warm_predict_never_allocates();
    warm_resumed_predict_never_allocates();
    warm_stage_readers_allocate_only_their_output();
    all_hit_batch_allocates_only_its_output();
    stage_memo_miss_allocations_do_not_grow_with_samples();
}
