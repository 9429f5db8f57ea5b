//! Fidelity and property-based tests spanning the simulator, planner,
//! placement controller and executor.
//!
//! The planner only works if its DAG model predicts reality; these tests
//! compare predictions against event-accurate execution across many
//! plans, and hammer structural invariants with random workloads drawn
//! from the deterministic `rb_core::Prng` (fixed seeds, fixed case
//! counts, fully offline).

use rubberband::prelude::*;
use rubberband::rb_cloud::catalog::P3_8XLARGE;
use rubberband::rb_core::Prng;
use rubberband::rb_hpo::{Dim, ShaParams};
use rubberband::rb_train::task::resnet101_cifar10;

fn cloud() -> CloudProfile {
    CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15))
}

fn space() -> SearchSpace {
    SearchSpace::new()
        .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
        .build()
        .unwrap()
}

/// Prediction vs execution across a spread of hand-picked plans: the DAG
/// model must stay within 12% of event-accurate execution on both JCT
/// and cost (Table 2's fidelity claim, across more plans than the paper
/// prints).
#[test]
fn simulator_tracks_executor_across_plans() {
    let task = resnet101_cifar10();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    let spec = ShaParams::new(16, 1, 20).with_eta(2).generate().unwrap();
    let sim = Simulator::new(physics.clone(), cloud());
    let plans = [
        vec![16, 16, 16, 16, 16],
        vec![16, 8, 4, 4, 4],
        vec![32, 16, 8, 4, 4],
        vec![4, 4, 4, 4, 4],
        vec![8, 16, 8, 8, 4],
    ];
    for p in plans {
        let plan = AllocationPlan::new(p.clone());
        let pred = sim.predict(&spec, &plan).unwrap();
        let report =
            rubberband::execute(&spec, &plan, &task, &physics, &cloud(), &space(), 5).unwrap();
        let jct_err =
            (report.jct.as_secs_f64() - pred.jct.as_secs_f64()).abs() / pred.jct.as_secs_f64();
        let cost_err = (report.total_cost().as_dollars() - pred.cost.as_dollars()).abs()
            / pred.cost.as_dollars().max(1e-9);
        assert!(jct_err < 0.12, "plan {p:?}: JCT err {jct_err}");
        assert!(cost_err < 0.12, "plan {p:?}: cost err {cost_err}");
    }
}

/// Per-function billing never exceeds per-instance billing for the same
/// execution: functions only pay for busy GPU-time, which is a subset of
/// held GPU-time.
#[test]
fn per_function_is_never_dearer_than_per_instance() {
    let task = resnet101_cifar10();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    let spec = ShaParams::new(8, 1, 8).generate().unwrap();
    for plan in [vec![8, 8, 8, 8], vec![8, 4, 4, 4], vec![16, 8, 8, 8]] {
        let run = |per_function: bool| {
            let mut c = cloud();
            if per_function {
                c.pricing = c.pricing.with_per_function_billing();
            }
            rubberband::execute(
                &spec,
                &AllocationPlan::new(plan.clone()),
                &task,
                &physics,
                &c,
                &space(),
                2,
            )
            .unwrap()
        };
        let pi = run(false);
        let pf = run(true);
        assert!(
            pf.compute_cost <= pi.compute_cost,
            "plan {plan:?}: {} > {}",
            pf.compute_cost,
            pi.compute_cost
        );
    }
}

/// SHA generation invariants for arbitrary valid parameters: the
/// work ladder always starts with `n` trials doing `min(r, R)` work,
/// trial counts shrink by η (flooring at one, merged at the tail),
/// per-stage work grows by η until the remainder stage, and the
/// survivor ends at exactly `R`.
#[test]
fn sha_specs_are_structurally_sound() {
    let mut rng = Prng::seed_from_u64(0xF1DE_0001);
    for _ in 0..64 {
        let n = 1 + rng.next_below(299) as u32;
        let r = 1 + rng.next_below(7);
        let mult = 1 + rng.next_below(199);
        let eta = 2 + rng.next_below(3) as u32;
        let big_r = r * mult;
        let spec = ShaParams {
            n,
            r,
            big_r,
            eta,
            max_stages: None,
        }
        .generate()
        .unwrap();
        let stages: Vec<(u32, u64)> = spec.stages().map(|s| (s.num_trials, s.iters)).collect();
        assert_eq!(stages[0].0, n);
        if n == 1 {
            // A single trial collapses into one stage doing all of R.
            assert_eq!(stages.len(), 1);
            assert_eq!(stages[0].1, big_r);
        } else {
            assert_eq!(stages[0].1, r.min(big_r));
        }
        // The survivor's cumulative work is exactly R.
        assert_eq!(spec.max_iters(), big_r);
        // Trial counts divide by η (clamped at 1) stage over stage.
        for w in stages.windows(2) {
            assert_eq!(w[1].0, (w[0].0 / eta).max(1));
        }
        // Work grows by η each stage except the final remainder stage
        // (and single-trial merged tails).
        for (k, w) in stages.windows(2).enumerate() {
            let is_final = k + 2 == stages.len();
            if !is_final && w[1].0 > 1 {
                assert_eq!(w[1].1, w[0].1 * u64::from(eta));
            }
        }
    }
}

/// Fair-ladder arithmetic: `round_down_fair` always yields a fair,
/// not-larger allocation, and decrementing always terminates at 1.
#[test]
fn fair_ladder_invariants() {
    let mut rng = Prng::seed_from_u64(0xF1DE_0002);
    for _ in 0..64 {
        let alloc = 1 + rng.next_below(1999) as u32;
        let trials = 1 + rng.next_below(299) as u32;
        let fair = AllocationPlan::round_down_fair(alloc, trials);
        assert!(fair >= 1 && fair <= alloc.max(1));
        assert!(fair % trials == 0 || trials % fair == 0);
        let mut a = alloc;
        let mut steps = 0;
        while let Some(next) = AllocationPlan::decrement_fair(a, trials) {
            assert!(next < a);
            assert!(next % trials == 0 || trials % next == 0);
            a = next;
            steps += 1;
            assert!(steps < 4000);
        }
        assert_eq!(a, 1);
    }
}

/// Simulated plans: prediction is deterministic, positive, and
/// per-function cost never exceeds per-instance cost for identical
/// noise-free workloads.
#[test]
fn prediction_invariants() {
    let mut rng = Prng::seed_from_u64(0xF1DE_0003);
    let task = resnet101_cifar10();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    for _ in 0..64 {
        let num_stages = 1 + rng.next_below(4) as usize;
        let stage_gpus: Vec<u32> = (0..num_stages)
            .map(|_| 1 + rng.next_below(39) as u32)
            .collect();
        let trials0 = 1 + rng.next_below(31) as u32;
        let units = 1 + rng.next_below(11);
        // Build a shrinking spec compatible with the plan length.
        let mut stages = Vec::new();
        let mut t = trials0;
        for _ in 0..stage_gpus.len() {
            stages.push((t, units));
            t = (t / 2).max(1);
        }
        let spec = ExperimentSpec::from_stages(&stages).unwrap();
        let plan = AllocationPlan::new(stage_gpus.clone());
        let mk = |per_function: bool| {
            let mut c = cloud();
            if per_function {
                c.pricing = c.pricing.with_per_function_billing();
            }
            Simulator::new(physics.clone(), c).with_config(SimConfig {
                samples: 4,
                seed: 99,
            })
        };
        let sim = mk(false);
        let a = sim.predict(&spec, &plan).unwrap();
        let b = sim.predict(&spec, &plan).unwrap();
        assert_eq!(a, b);
        assert!(a.jct > SimDuration::ZERO);
        assert!(a.cost > Cost::ZERO);
        let pf = mk(true).predict(&spec, &plan).unwrap();
        assert!(pf.cost <= a.cost, "pf {} > pi {}", pf.cost, a.cost);
    }
}

/// The placement controller always produces valid, fully-assigned,
/// locality-preserving plans when capacity suffices.
#[test]
fn placement_controller_invariants() {
    use rubberband::rb_core::TrialId;
    use rubberband::rb_placement::{ClusterState, PlacementController};

    let mut rng = Prng::seed_from_u64(0xF1DE_0004);
    for _ in 0..64 {
        let len = 1 + rng.next_below(11) as usize;
        let allocs: Vec<u32> = (0..len).map(|_| 1 + rng.next_below(8) as u32).collect();
        let gpn = 4;
        // Enough nodes: every trial padded to whole nodes.
        let nodes_needed: u32 = allocs.iter().map(|a| a.div_ceil(gpn)).sum();
        let cluster = ClusterState::with_n_nodes(nodes_needed.max(1), gpn);
        let map: Vec<(TrialId, u32)> = allocs
            .iter()
            .enumerate()
            .map(|(i, &a)| (TrialId::new(i as u64), a))
            .collect();
        let mut pc = PlacementController::new();
        let diff = pc.update(&map, &cluster).unwrap();
        assert_eq!(diff.started.len(), allocs.len());
        assert!(pc.plan().is_valid_for(&cluster));
        for &(t, a) in &map {
            assert_eq!(pc.plan().assigned_gpus(t), a);
            // Locality: minimal node count.
            let chunks = pc.plan().get(t).unwrap();
            assert!(chunks.len() as u32 <= a.div_ceil(gpn));
        }
        // Idempotent second call.
        let diff2 = pc.update(&map, &cluster).unwrap();
        assert_eq!(diff2, rubberband::rb_placement::PlacementDiff::default());
    }
}

/// A checkpoint measures the model state plus its serialized metadata:
/// a 45-byte header, the one config entry ("lr": 8 + 2 + 1 + 8 bytes)
/// and 16 bytes per history point, for arbitrary values and history
/// lengths.
#[test]
fn checkpoint_sizes_are_pinned() {
    use rubberband::rb_core::TrialId;
    use rubberband::rb_train::checkpoint::{model_state_bytes, CheckpointStore};
    use rubberband::rb_train::Trial;

    let mut rng = Prng::seed_from_u64(0xF1DE_0005);
    let task = resnet101_cifar10();
    let mut store = CheckpointStore::new();
    for _ in 0..64 {
        let lr = rng.uniform(1e-6, 1.0);
        let iters = 1 + rng.next_below(59);
        let seed = rng.next_below(1000);
        let mut trial = Trial::new(TrialId::new(seed), Config::new().with_f64("lr", lr), seed);
        trial.start().unwrap();
        for _ in 0..iters {
            trial.advance(&task, 1).unwrap();
        }
        store.save(&trial, &task.arch);
        let ck = store.get(trial.id).unwrap();
        assert_eq!(ck.iters_done, iters);
        assert_eq!(
            ck.total_bytes(),
            model_state_bytes(&task.arch) + 64 + 16 * iters
        );
    }
}

/// Learning curves are monotone (noise-free) and bounded for random
/// configurations.
#[test]
fn learning_curves_are_sane() {
    let mut rng = Prng::seed_from_u64(0xF1DE_0006);
    let task = resnet101_cifar10();
    for _ in 0..64 {
        let lr = rng.uniform(1e-6, 10.0);
        let wd = rng.uniform(1e-7, 1e-1);
        let cfg = Config::new()
            .with_f64("lr", lr)
            .with_f64("weight_decay", wd);
        let mut prev = 0.0;
        for i in [0u64, 1, 2, 5, 10, 25, 50, 100] {
            let a = task.curve(&cfg).clean(i);
            assert!((0.0..=1.0).contains(&a));
            assert!(a + 1e-12 >= prev, "dip at {i}: {a} < {prev}");
            prev = a;
        }
    }
}

/// The executor survives arbitrary small workloads: random shrinking
/// specs and fair-ish plans always run to completion with coherent
/// reports and traces.
#[test]
fn executor_handles_random_workloads() {
    let mut rng = Prng::seed_from_u64(0xF1DE_0007);
    let task = resnet101_cifar10();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    for _ in 0..24 {
        let trials0 = 2 + rng.next_below(10) as u32;
        let units = 1 + rng.next_below(3);
        let halvings = 1 + rng.next_below(3) as usize;
        let gpus0 = 1 + rng.next_below(16) as u32;
        let seed = rng.next_below(1000);
        let mut stages = Vec::new();
        let mut t = trials0;
        let mut g = gpus0;
        let mut plan = Vec::new();
        for _ in 0..=halvings {
            stages.push((t, units));
            plan.push(rubberband::rb_sim::AllocationPlan::round_down_fair(
                g.max(1),
                t,
            ));
            t = (t / 2).max(1);
            g = (g / 2).max(1);
        }
        let spec = ExperimentSpec::from_stages(&stages).unwrap();
        let plan = AllocationPlan::new(plan);
        let report =
            rubberband::execute(&spec, &plan, &task, &physics, &cloud(), &space(), seed).unwrap();
        assert!(report.jct > SimDuration::ZERO);
        assert!(report.total_cost() > Cost::ZERO);
        assert_eq!(report.stages.len(), spec.num_stages());
        assert!(report.best_accuracy > 0.0);
        // Trace barriers: one per stage, last at JCT.
        let barriers: Vec<_> = report
            .trace
            .events
            .iter()
            .filter_map(|e| match e {
                rubberband::rb_exec::TraceEvent::Barrier { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(barriers.len(), spec.num_stages());
        assert_eq!(
            barriers.last().copied(),
            Some(rubberband::rb_core::SimTime::ZERO + report.jct)
        );
        // Deterministic replay.
        let again =
            rubberband::execute(&spec, &plan, &task, &physics, &cloud(), &space(), seed).unwrap();
        assert_eq!(again.jct, report.jct);
        assert_eq!(again.compute_cost, report.compute_cost);
    }
}
