//! Determinism and correctness contract of the prediction engine.
//!
//! The engine promises that every execution strategy — sequential
//! reference, cached, uncached, batched — produces **bit-identical**
//! predictions. These tests pin that
//! contract.

use rb_cloud::catalog::{PricingTier, P3_2XLARGE, P3_8XLARGE};
use rb_cloud::CloudPricing;
use rb_core::{Distribution, Prng, RbError, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_profile::{CloudProfile, ModelProfile};
use rb_scaling::zoo::RESNET50;
use rb_scaling::AnalyticScaling;
use rb_sim::{AllocationPlan, Prediction, SimConfig, Simulator};
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

#[test]
fn cached_predictions_are_identical_to_uncached() {
    let cached = sim();
    let uncached = sim();
    for plan in plans() {
        let cold = cached.predict(&spec(), &plan).unwrap();
        let warm = cached.predict(&spec(), &plan).unwrap(); // cache hit
        let raw = uncached.predict_uncached(&spec(), &plan).unwrap();
        assert_eq!(cold, warm, "{plan}: cache hit diverged from miss");
        assert_eq!(cold, raw, "{plan}: cached diverged from uncached");
    }
    assert_eq!(cached.cached_predictions(), plans().len());
    assert_eq!(uncached.cached_predictions(), 0);
}

#[test]
fn predictions_are_bit_identical_to_the_sequential_reference() {
    let reference = sim();
    for plan in plans() {
        let expect = reference.predict_reference(&spec(), &plan).unwrap();
        assert_eq!(
            sim().predict(&spec(), &plan).unwrap(),
            expect,
            "{plan}: the engine diverged from the reference"
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
    });
    assert_eq!(detached.cached_predictions(), 0);
}

/// The prediction arena belongs to the thread, not to a simulator: its
/// buffers outlive each simulator that loads plans into them, and a
/// brand-new simulator's `cache_stats().arena` reads the tally the
/// earlier ones left. The benchmark counts a cold plan's arena grows
/// that way, from a fresh simulator before and after. Exact deltas need
/// a per-thread tally: under a process-wide one, the tests `cargo test`
/// runs on its other threads would move them. The case runs on a thread
/// of its own so that its first load is certain to grow the arena.
#[test]
fn a_fresh_simulator_reads_the_threads_arena_tally() {
    std::thread::spawn(|| {
        let arena = || {
            let a = sim().cache_stats().arena;
            (a.hits, a.misses)
        };
        let before = arena();
        let (first, second) = (&plans()[0], &plans()[1]);
        let s = sim();
        s.predict(&spec(), first).unwrap(); // grows the arena: a miss
        s.predict(&spec(), second).unwrap(); // same shape: a hit
        s.predict(&spec(), first).unwrap(); // plan-cache hit: no load
        s.stage_quantiles(&spec(), second).unwrap(); // a hit
        let after = arena();
        assert_eq!((after.0 - before.0, after.1 - before.1), (2, 1));
        // A second simulator has its own caches, so its first prediction
        // loads again, into the warm arena.
        sim().predict(&spec(), first).unwrap();
        assert_eq!(arena(), (after.0 + 1, after.1));
    })
    .join()
    .unwrap();
}

#[test]
fn batches_match_one_at_a_time_cold_and_warm() {
    for size in [1, 8, 95] {
        let batch = distinct_plans(size);
        let one_at_a_time = sim();
        let expect: Vec<Prediction> = batch
            .iter()
            .map(|plan| one_at_a_time.predict(&spec(), plan).unwrap())
            .collect();
        let s = sim();
        for pass in ["cold", "warm"] {
            let got: Vec<Prediction> = s
                .predict_batch(&spec(), &batch)
                .into_iter()
                .map(Result::unwrap)
                .collect();
            assert_eq!(got, expect, "{size} plans, {pass}");
        }
        let plan_cache = s.cache_stats().plan;
        assert_eq!(
            (plan_cache.hits, plan_cache.misses),
            (size as u64, size as u64),
            "{size} plans: plan-cache tallies"
        );
    }
}

/// Generated cases of [`one_stage_siblings_share_noise_columns_exactly`].
const SHARING_CASES: u64 = 36;

/// One generated (simulator, spec, plan) case for the noise-column
/// sharing test. Case `c` cycles through GPUs per instance ∈ {1, 4},
/// both billing models and the three ways a stage's noise column is
/// keyed: lognormal SCALE and INIT (one column per growth count),
/// constant SCALE and INIT (one column per stage, whatever the growth),
/// and zero noise (constant TRAIN: only the SCALE draws of a lognormal
/// provider, before a constant INIT). The ladder (2–4 stages of up to
/// 12 trials), the plan and the seed come from `c`'s own stream.
fn sharing_case(c: u64) -> (Simulator, ExperimentSpec, AllocationPlan, u32) {
    let mut rng = Prng::for_stream(0x5A2E_0001, c);
    let mut pick = |lo: u32, hi: u32| lo + rng.next_below(u64::from(hi - lo + 1)) as u32;
    let n_stages = pick(2, 4) as usize;
    let mut trials = pick(1, 12);
    let mut ladder = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        ladder.push((trials, u64::from(pick(1, 8))));
        trials = pick((trials / 2).max(1), trials);
    }
    let spec = ExperimentSpec::from_stages(&ladder).unwrap();
    let (ty, gpg) = if c % 2 == 0 {
        (P3_2XLARGE, 1)
    } else {
        (P3_8XLARGE, 4)
    };
    let plan = AllocationPlan::new(ladder.iter().map(|&(t, _)| pick(1, 2 * t * gpg)).collect());
    let mut pricing = CloudPricing::on_demand(ty);
    if (c / 2) % 2 == 1 {
        pricing = pricing.with_per_function_billing();
    }
    let lognormal = Distribution::lognormal_from_moments(30.0, 15.0);
    let cloud = CloudProfile::new(pricing);
    let (cloud, noise) = match (c / 4) % 3 {
        0 => (
            CloudProfile {
                provision_delay: lognormal,
                init_latency: Distribution::lognormal_from_moments(20.0, 8.0),
                ..cloud
            },
            0.5,
        ),
        1 => (
            cloud
                .with_provision_delay(SimDuration::from_secs(30))
                .with_init_latency(SimDuration::from_secs(20)),
            0.5,
        ),
        _ => (
            CloudProfile {
                provision_delay: lognormal,
                ..cloud.with_init_latency(SimDuration::from_secs(20))
            },
            0.0,
        ),
    };
    let scaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, gpg));
    let model = ModelProfile::from_scaling("rn50", scaling, 10, 2.0, noise);
    let sim = Simulator::new(model, cloud).with_config(SimConfig {
        samples: 8,
        seed: rng.next_u64(),
    });
    (sim, spec, plan, gpg)
}

/// Every allocation of a stage reads the same noise column, and a
/// low-fidelity pass leaves shorter columns behind. On one simulator
/// per case, a 3-sample pass and then the full 8-sample pass predict
/// the plan and every one-stage sibling of it (each stage moved to each
/// other allocation up to twice its trials plus one instance), each
/// pass in its own shuffled order; every prediction must equal the
/// sequential reference at its fidelity bit for bit.
#[test]
fn one_stage_siblings_share_noise_columns_exactly() {
    let mut column_hits = 0;
    for c in 0..SHARING_CASES {
        let (sim, spec, plan, gpg) = sharing_case(c);
        let mut batch = vec![plan.clone()];
        for (s, stage) in spec.stages().enumerate() {
            for gpus in 1..=2 * stage.num_trials + gpg {
                if gpus != plan.gpus(s) {
                    let mut sibling = plan.as_slice().to_vec();
                    sibling[s] = gpus;
                    batch.push(AllocationPlan::new(sibling));
                }
            }
        }
        let mut order = Prng::for_stream(0x5A2E_0002, c);
        for engine in [sim.with_samples(3), sim.clone()] {
            order.shuffle(&mut batch);
            for p in &batch {
                assert_eq!(
                    engine.predict(&spec, p).unwrap(),
                    engine.predict_reference(&spec, p).unwrap(),
                    "case {c} {p} at {} samples",
                    engine.config().samples
                );
            }
        }
        column_hits += sim.cache_stats().noise.hits;
    }
    assert!(column_hits > 0, "no stage-memo miss read a shared column");
}

/// Generated cases of [`a_resumed_walk_equals_a_full_walk`].
const RESUME_CASES: u64 = 24;

/// Plan edits per case of [`a_resumed_walk_equals_a_full_walk`].
const RESUME_STEPS: usize = 40;

/// The sequence of plans one case walks through: from the case's plan,
/// each step decrements or increments one stage, edits two or three
/// stages at once, or repeats the last plan exactly.
fn edit_sequence(
    spec: &ExperimentSpec,
    start: &AllocationPlan,
    gpg: u32,
    c: u64,
) -> Vec<AllocationPlan> {
    let mut rng = Prng::for_stream(0x5A2E_0003, c);
    let caps: Vec<u32> = spec
        .stages()
        .map(|s| 2 * s.num_trials * gpg + gpg)
        .collect();
    let mut plans = vec![start.clone()];
    for _ in 0..RESUME_STEPS {
        let mut gpus = plans.last().unwrap().as_slice().to_vec();
        let edits = match rng.next_below(8) {
            0 => 0,
            1 | 2 => 2 + rng.next_below(2) as usize,
            _ => 1,
        };
        for _ in 0..edits {
            let s = rng.next_below(gpus.len() as u64) as usize;
            let step = 1 + rng.next_below(u64::from(gpg) * 2) as u32;
            gpus[s] = if rng.next_below(2) == 0 {
                gpus[s].saturating_sub(step).max(1)
            } else {
                (gpus[s] + step).min(caps[s])
            };
        }
        plans.push(AllocationPlan::new(gpus));
    }
    plans
}

/// A predict that resumes the arena's billing walk at the first changed
/// stage returns what a walk from stage 0 returns. Each case runs a
/// generated sequence of plan edits through one simulator's
/// `predict_uncached`, so every step loads and bills; every few steps it also
/// runs `stage_quantiles` and `explain` (which load, or walk from stage
/// 0), a second simulator on the same thread (another template), and a
/// `with_samples` sibling (the same template at another sample count).
/// Every prediction must equal the sequential reference of its plan,
/// and the readers must equal a fresh simulator's. The references are
/// computed first: `predict_reference` builds a fresh template, which
/// would reset the arena mid-sequence.
#[test]
fn a_resumed_walk_equals_a_full_walk() {
    let (mut next_stage_grew, mut repeats) = (0, 0);
    for c in 0..RESUME_CASES {
        let (sim, spec, start, gpg) = sharing_case(c);
        let plans = edit_sequence(&spec, &start, gpg, c);
        let expect: Vec<Prediction> = plans
            .iter()
            .map(|p| sim.predict_reference(&spec, p).unwrap())
            .collect();
        let low = sim.with_samples(3);
        let low_expect: Vec<Prediction> = plans
            .iter()
            .map(|p| low.predict_reference(&spec, p).unwrap())
            .collect();
        let readers: Vec<_> = plans
            .iter()
            .map(|p| {
                let fresh = sharing_case(c).0;
                (
                    fresh.explain(&spec, p).unwrap(),
                    fresh.stage_quantiles(&spec, p).unwrap(),
                )
            })
            .collect();
        let (other, other_spec, other_plan, _) = sharing_case(c + RESUME_CASES);
        let other_expect = other.predict_reference(&other_spec, &other_plan).unwrap();
        let instances = |p: &AllocationPlan| -> Vec<u32> {
            spec.stages()
                .enumerate()
                .map(|(s, st)| AllocationPlan::effective_instances(p.gpus(s), st.num_trials, gpg))
                .collect()
        };
        for (k, p) in plans.iter().enumerate() {
            assert_eq!(
                sim.predict_uncached(&spec, p).unwrap(),
                expect[k],
                "case {c} step {k} {p}"
            );
            if k > 0 {
                let (was, now) = (instances(&plans[k - 1]), instances(p));
                repeats += usize::from(plans[k - 1] == *p);
                // A stage that grew and left the next stage's growth
                // different moves the next stage's key and the release
                // groups.
                next_stage_grew += (1..now.len())
                    .filter(|&s| {
                        now[s - 1] > was[s - 1]
                            && now[s].saturating_sub(now[s - 1])
                                != was[s].saturating_sub(was[s - 1])
                    })
                    .count();
            }
            match k % 7 {
                2 => {
                    assert_eq!(
                        sim.explain(&spec, p).unwrap(),
                        readers[k].0,
                        "case {c} step {k}"
                    );
                }
                3 => {
                    assert_eq!(
                        sim.stage_quantiles(&spec, p).unwrap(),
                        readers[k].1,
                        "case {c} step {k}"
                    );
                }
                4 => {
                    assert_eq!(
                        other.predict(&other_spec, &other_plan).unwrap(),
                        other_expect
                    );
                }
                5 => {
                    assert_eq!(
                        low.predict_uncached(&spec, p).unwrap(),
                        low_expect[k],
                        "case {c} step {k} at 3 samples"
                    );
                }
                6 => {
                    // Explain a neighbour, then predict this plan again.
                    let q = &plans[k - 1];
                    assert_eq!(
                        sim.explain(&spec, q).unwrap(),
                        readers[k - 1].0,
                        "case {c} step {k}"
                    );
                    assert_eq!(
                        sim.predict_uncached(&spec, p).unwrap(),
                        expect[k],
                        "case {c} step {k} again"
                    );
                }
                _ => {}
            }
        }
    }
    assert!(repeats > 0, "no exact repeat in the sequences");
    assert!(next_stage_grew > 0, "no edit moved the next stage's growth");
}

/// A [`Simulator::repriced`] sibling at spot prices shares the planning
/// simulator's templates (per-instance billing) or builds its own
/// (per-function billing), and the two never resume each other's
/// billing walks. Each case interleaves the two on one thread over a
/// generated edit sequence, planning simulator then sibling on every
/// plan (A, B, A, B, …), through `predict_uncached` so every call loads
/// and bills; every prediction must equal `Simulator::new` on that
/// side's cloud bit for bit. The references are computed first, on
/// fresh simulators.
#[test]
fn a_repriced_sibling_predicts_like_a_fresh_simulator() {
    let mut shared = [0, 0];
    for c in 0..RESUME_CASES {
        let (sim, spec, start, gpg) = sharing_case(c);
        let mut spot = sim.cloud().clone();
        spot.pricing = spot.pricing.with_spot();
        let sibling = sim.repriced(PricingTier::Spot);
        let plans = edit_sequence(&spec, &start, gpg, c);
        let fresh = |cloud: &CloudProfile| {
            Simulator::new(sim.model().clone(), cloud.clone()).with_config(sim.config().clone())
        };
        let expect: Vec<[Prediction; 2]> = plans
            .iter()
            .map(|p| {
                [
                    fresh(sim.cloud()).predict(&spec, p).unwrap(),
                    fresh(&spot).predict(&spec, p).unwrap(),
                ]
            })
            .collect();
        for (k, p) in plans.iter().enumerate() {
            for (side, engine) in [&sim, &sibling].into_iter().enumerate() {
                assert_eq!(
                    engine.predict_uncached(&spec, p).unwrap(),
                    expect[k][side],
                    "case {c} step {k} {p} side {side}"
                );
            }
        }
        assert_ne!(
            expect[0][0].cost, expect[0][1].cost,
            "case {c}: same prices"
        );
        // The sibling's stage lookups land in the planning simulator's
        // memo tallies only when the templates are shared.
        let per_instance = sim.cloud().pricing.billing.is_per_instance();
        let before = sim.cache_stats().stage_memo;
        sibling.predict_uncached(&spec, &plans[0]).unwrap();
        assert_eq!(
            sim.cache_stats().stage_memo != before,
            per_instance,
            "case {c}"
        );
        shared[usize::from(per_instance)] += 1;
    }
    assert!(
        shared[0] > 0 && shared[1] > 0,
        "both billing models: {shared:?}"
    );
}
