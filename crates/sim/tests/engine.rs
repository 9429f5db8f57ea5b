//! Determinism and correctness contract of the prediction engine.
//!
//! The engine promises that every execution strategy — sequential
//! reference, cached, uncached, template-built, one thread, many threads,
//! batched — produces **bit-identical** predictions. These tests pin that
//! contract.

use rb_cloud::catalog::P3_8XLARGE;
use rb_cloud::CloudPricing;
use rb_core::par::plan_chunks;
use rb_core::{RbError, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_obs::{MemoryRecorder, RecorderHandle};
use rb_profile::{CloudProfile, ModelProfile};
use rb_scaling::zoo::RESNET50;
use rb_scaling::AnalyticScaling;
use rb_sim::{AllocationPlan, EngineConfig, Prediction, SimConfig, Simulator, PAR_MIN_WORK};
use std::sync::Arc;

/// A noisy sublinear-scaling simulator: noise makes every sample distinct,
/// so any divergence in sampling order or seed derivation shows up in the
/// aggregate.
fn sim() -> Simulator {
    let scaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, 4));
    let model = ModelProfile::from_scaling("rn50", scaling, 10, 2.0, 0.3);
    let cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15));
    Simulator::new(model, cloud).with_config(SimConfig {
        samples: 17,
        seed: 0xE11,
        sync_overhead_secs: 1.0,
    })
}

fn spec() -> ExperimentSpec {
    ExperimentSpec::from_stages(&[(16, 4), (8, 8), (4, 16), (2, 32), (1, 64)]).unwrap()
}

fn plans() -> Vec<AllocationPlan> {
    vec![
        AllocationPlan::new(vec![16, 16, 16, 16, 16]),
        AllocationPlan::new(vec![32, 16, 8, 4, 4]),
        AllocationPlan::new(vec![16, 8, 4, 2, 1]),
        AllocationPlan::new(vec![48, 24, 12, 6, 3]),
    ]
}

/// `count` distinct valid plans for [`spec`].
fn distinct_plans(count: usize) -> Vec<AllocationPlan> {
    (0..count as u32)
        .map(|k| AllocationPlan::new(vec![16 + k, 8, 4, 2, 1]))
        .collect()
}

/// Batch sizes of distinct plans just below and just at-or-above
/// [`PAR_MIN_WORK`] for [`sim`] on [`spec`].
fn sizes_around_the_gate() -> (usize, usize) {
    let per_plan = spec().num_stages() * sim().config().samples as usize;
    let below = (PAR_MIN_WORK - 1) / per_plan;
    assert!(below * per_plan < PAR_MIN_WORK && (below + 1) * per_plan >= PAR_MIN_WORK);
    (below, below + 1)
}

#[test]
fn cached_predictions_are_identical_to_uncached() {
    let cached = sim(); // default engine: cache + templates on
    let uncached = sim().with_engine(EngineConfig {
        plan_cache: false,
        ..EngineConfig::default()
    });
    for plan in plans() {
        let cold = cached.predict(&spec(), &plan).unwrap();
        let warm = cached.predict(&spec(), &plan).unwrap(); // cache hit
        let raw = uncached.predict(&spec(), &plan).unwrap();
        assert_eq!(cold, warm, "{plan}: cache hit diverged from miss");
        assert_eq!(cold, raw, "{plan}: cached diverged from uncached");
    }
    assert_eq!(cached.cached_predictions(), plans().len());
    assert_eq!(uncached.cached_predictions(), 0);
}

#[test]
fn predictions_are_bit_identical_across_thread_counts() {
    let reference = sim();
    for plan in plans() {
        let expect = reference.predict_reference(&spec(), &plan).unwrap();
        for threads in [1, 2, 3, 8] {
            let s = sim().with_engine(EngineConfig::sequential_baseline().with_threads(threads));
            assert_eq!(
                s.predict(&spec(), &plan).unwrap(),
                expect,
                "{plan}: {threads} threads diverged from the sequential reference"
            );
        }
        // The full engine (templates + cache + auto threads) too.
        assert_eq!(sim().predict(&spec(), &plan).unwrap(), expect);
    }
}

#[test]
fn template_built_dags_predict_identically() {
    let with_templates = sim();
    let without = sim().with_engine(EngineConfig {
        dag_templates: false,
        ..EngineConfig::default()
    });
    for plan in plans() {
        assert_eq!(
            with_templates.predict(&spec(), &plan).unwrap(),
            without.predict(&spec(), &plan).unwrap(),
            "{plan}: template instantiation changed the prediction"
        );
    }
}

#[test]
fn batch_results_come_back_in_input_order() {
    let s = sim();
    let batch = plans();
    let preds = s.predict_batch(&spec(), &batch);
    assert_eq!(preds.len(), batch.len());
    for (plan, got) in batch.iter().zip(&preds) {
        let expect = s.predict_reference(&spec(), plan).unwrap();
        assert_eq!(
            *got.as_ref().unwrap(),
            expect,
            "{plan}: batch slot disagrees with its sequential prediction"
        );
    }
}

#[test]
fn batch_deduplicates_but_answers_every_slot() {
    let s = sim();
    let p = AllocationPlan::new(vec![16, 8, 4, 2, 1]);
    let batch = vec![p.clone(), p.clone(), p.clone()];
    let preds = s.predict_batch(&spec(), &batch);
    let expect = s.predict_reference(&spec(), &p).unwrap();
    for got in preds {
        assert_eq!(got.unwrap(), expect);
    }
    // Three identical plans, one cache entry.
    assert_eq!(s.cached_predictions(), 1);
}

#[test]
fn invalid_plans_fail_per_slot_without_poisoning_the_batch() {
    let s = sim();
    let good = AllocationPlan::new(vec![16, 8, 4, 2, 1]);
    let wrong_len = AllocationPlan::new(vec![16, 8]);
    let zero_gpus = AllocationPlan::new(vec![16, 8, 0, 2, 1]);
    let batch = vec![
        wrong_len.clone(),
        good.clone(),
        zero_gpus.clone(),
        good.clone(),
        wrong_len,
    ];
    let preds = s.predict_batch(&spec(), &batch);
    assert_eq!(preds.len(), 5);
    assert!(matches!(preds[0], Err(RbError::InvalidPlan(_))));
    assert!(matches!(preds[2], Err(RbError::InvalidPlan(_))));
    assert!(matches!(preds[4], Err(RbError::InvalidPlan(_))));
    let expect = s.predict_reference(&spec(), &good).unwrap();
    assert_eq!(*preds[1].as_ref().unwrap(), expect);
    assert_eq!(*preds[3].as_ref().unwrap(), expect);
    // Errors are never cached.
    assert_eq!(s.cached_predictions(), 1);
}

#[test]
fn batch_matches_one_at_a_time_prediction() {
    let batched = sim();
    let sequential = sim();
    let batch = plans();
    let got = batched.predict_batch(&spec(), &batch);
    for (plan, got) in batch.iter().zip(got) {
        assert_eq!(
            got.unwrap(),
            sequential.predict(&spec(), plan).unwrap(),
            "{plan}"
        );
    }
}

#[test]
fn plan_cache_generation_cap_bounds_memory_without_changing_results() {
    let capped = sim().with_engine(EngineConfig {
        plan_cache_cap: 2,
        ..EngineConfig::default()
    });
    let reference = sim();
    for plan in plans() {
        assert_eq!(
            capped.predict(&spec(), &plan).unwrap(),
            reference.predict_reference(&spec(), &plan).unwrap(),
            "{plan}: eviction changed the prediction"
        );
        assert!(
            capped.cached_predictions() <= 2,
            "cache grew past the cap: {}",
            capped.cached_predictions()
        );
    }
    // Re-predicting after eviction still agrees (recomputed, not stale).
    let p = &plans()[0];
    assert_eq!(
        capped.predict(&spec(), p).unwrap(),
        reference.predict_reference(&spec(), p).unwrap()
    );
}

#[test]
fn stage_memo_generation_cap_bounds_the_template() {
    let capped = sim().with_engine(EngineConfig {
        stage_memo_cap: 3,
        ..EngineConfig::default()
    });
    let reference = sim();
    for plan in plans() {
        assert_eq!(
            capped.predict(&spec(), &plan).unwrap(),
            reference.predict_reference(&spec(), &plan).unwrap(),
            "{plan}: memo eviction changed the prediction"
        );
    }
    let template = capped.template_for(&spec());
    assert!(
        template.cached_stage_configs() <= 3,
        "stage memo grew past the cap: {}",
        template.cached_stage_configs()
    );
}

#[test]
fn low_fidelity_simulator_shares_templates_and_prefix_samples() {
    let full = sim(); // 17 samples
    let low = full.with_samples(4);
    let plan = AllocationPlan::new(vec![16, 8, 4, 2, 1]);
    // Low fidelity equals a fresh 4-sample simulator bit-for-bit …
    let fresh = sim().with_config(SimConfig {
        samples: 4,
        ..*sim().config()
    });
    assert_eq!(
        low.predict(&spec(), &plan).unwrap(),
        fresh.predict_reference(&spec(), &plan).unwrap()
    );
    // … and does not pollute the parent's plan cache, whose prediction
    // stays at full fidelity.
    assert_eq!(full.cached_predictions(), 0);
    let p = full.predict(&spec(), &plan).unwrap();
    assert_eq!(p.samples, 17);
    assert_eq!(p, full.predict_reference(&spec(), &plan).unwrap());
}

#[test]
fn stage_quantiles_are_ordered_and_deterministic() {
    let s = sim();
    let plan = AllocationPlan::new(vec![32, 16, 8, 4, 4]);
    let qs = s.stage_quantiles(&spec(), &plan).unwrap();
    assert_eq!(qs.len(), spec().num_stages());
    for q in &qs {
        assert!(
            q.p10_secs <= q.p50_secs && q.p50_secs <= q.p90_secs,
            "{q:?}"
        );
        assert!(q.mean_secs > 0.0);
        assert_eq!(q.samples, 17);
    }
    // Same sample streams as the prediction: stage means sum to the JCT.
    let pred = s.predict(&spec(), &plan).unwrap();
    let total: f64 = qs.iter().map(|q| q.mean_secs).sum();
    assert!((total - pred.jct.as_secs_f64()).abs() < 1e-3, "{total}");
    // Deterministic across simulators and cache states.
    assert_eq!(qs, sim().stage_quantiles(&spec(), &plan).unwrap());
}

#[test]
fn clones_share_the_prediction_cache_but_with_config_detaches() {
    let a = sim();
    let b = a.clone();
    let plan = AllocationPlan::new(vec![16, 8, 4, 2, 1]);
    a.predict(&spec(), &plan).unwrap();
    assert_eq!(b.cached_predictions(), 1, "clone should see the entry");
    let detached = b.clone().with_config(SimConfig {
        samples: 17,
        seed: 0xE12, // different seed: cached values would be stale
        sync_overhead_secs: 1.0,
    });
    assert_eq!(detached.cached_predictions(), 0);
}

#[test]
fn batches_either_side_of_the_fan_out_gate_are_thread_count_independent() {
    let (below, above) = sizes_around_the_gate();
    for size in [below, above] {
        let batch = distinct_plans(size);
        let one_at_a_time = sim();
        let expect: Vec<Prediction> = batch
            .iter()
            .map(|plan| one_at_a_time.predict(&spec(), plan).unwrap())
            .collect();
        for threads in [1, 2, 8, 0] {
            let s = sim().with_engine(EngineConfig::default().with_threads(threads));
            for pass in ["cold", "warm"] {
                let got: Vec<Prediction> = s
                    .predict_batch(&spec(), &batch)
                    .into_iter()
                    .map(Result::unwrap)
                    .collect();
                assert_eq!(got, expect, "{size} plans, {threads} threads, {pass}");
            }
            let plan_cache = s.cache_stats().plan;
            assert_eq!(
                (plan_cache.hits, plan_cache.misses),
                (size as u64, size as u64),
                "{size} plans, {threads} threads: plan-cache tallies"
            );
        }
    }
}

#[test]
fn batch_chunk_counters_report_the_fan_out_that_ran() {
    let (below, above) = sizes_around_the_gate();
    let counters = |size: usize| {
        let sink = Arc::new(MemoryRecorder::new());
        let s = sim()
            .with_engine(EngineConfig::default().with_threads(2))
            .with_recorder(RecorderHandle::new(sink.clone()));
        s.predict_batch(&spec(), &distinct_plans(size));
        let log = sink.finish();
        (
            log.counter("sim", "batch_plans_computed"),
            log.counter("sim", "batch_chunks"),
            log.counter("sim", "batch_chunk_items"),
        )
    };
    // Below the gate the batch runs inline: one chunk of every plan.
    assert_eq!(counters(below), (below as u64, 1, below as u64));
    // At the gate it fans out over the two workers' chunking.
    let fanned = plan_chunks(above, 2);
    assert!(fanned.num_chunks > 1, "{fanned:?}");
    assert_eq!(
        counters(above),
        (
            above as u64,
            fanned.num_chunks as u64,
            fanned.chunk_size as u64
        )
    );
}
