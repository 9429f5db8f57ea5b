//! Algorithm 1 of the paper (§4.2), node by node: the reference the
//! simulator's stage-composed kernel is checked against.
//!
//! [`build`] wires the execution DAG of a (spec, plan) pair from the
//! spec, the plan and the profiles. Per stage: a SCALE node and one INIT
//! node per new instance when the stage grows the cluster, one TRAIN
//! node per trial (a queued trial chains behind an earlier slot), and a
//! SYNC barrier over the stage's TRAIN nodes. [`walk`] samples every
//! node's latency and propagates finish times along the edges; a stage's
//! nodes draw from `Prng::for_stream(sample_seed, stage)` in
//! construction order. Per-instance billing releases a LIFO stack of
//! live instances down to the next stage's need at each barrier;
//! per-function billing charges each TRAIN node. The oracle uses only
//! public APIs, so it shares no code with the kernel it checks.

use rb_cloud::catalog::{P3_2XLARGE, P3_8XLARGE};
use rb_cloud::CloudPricing;
use rb_core::{Cost, Distribution, Prng, SimDuration};
use rb_hpo::ExperimentSpec;
use rb_profile::{CloudProfile, ModelProfile};
use rb_scaling::zoo::RESNET50;
use rb_scaling::{AnalyticScaling, IdealScaling, PlacementQuality};
use rb_sim::{AllocationPlan, SimConfig, Simulator, SYNC_OVERHEAD_SECS};
use std::sync::Arc;

/// What a node does.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// Provision `new` instances; hand-over when the slowest arrives.
    Scale { new: u32 },
    /// Initialize one new instance.
    Init,
    /// Train one trial on `gpus` GPUs.
    Train { gpus: u32 },
    /// The end-of-stage barrier.
    Sync,
}

#[derive(Debug)]
struct Node {
    stage: usize,
    kind: Kind,
    /// The node's latency is the maximum of `draws` draws (clamped at 0).
    dist: Distribution,
    draws: u32,
    /// Indices of earlier nodes this one waits for.
    preds: Vec<usize>,
}

#[derive(Debug, Default)]
struct Dag {
    /// Nodes in construction order, which is a topological order.
    nodes: Vec<Node>,
    /// Each stage's SYNC node.
    sync: Vec<usize>,
    /// Each stage's SCALE node, when the stage grew the cluster.
    scale: Vec<Option<usize>>,
    /// Instances held during each stage.
    held: Vec<u32>,
}

impl Dag {
    fn push(&mut self, stage: usize, kind: Kind, dist: &Distribution, preds: Vec<usize>) -> usize {
        let draws = match kind {
            Kind::Scale { new } => new,
            _ => 1,
        };
        self.nodes.push(Node {
            stage,
            kind,
            dist: dist.clone(),
            draws,
            preds,
        });
        self.nodes.len() - 1
    }

    /// The TRAIN nodes of `stage`, in slot order.
    fn trains(&self, stage: usize) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| {
                self.nodes[i].stage == stage && matches!(self.nodes[i].kind, Kind::Train { .. })
            })
            .collect()
    }

    /// Instances provisioned over the job.
    fn provisioned(&self) -> u32 {
        self.nodes
            .iter()
            .map(|n| match n.kind {
                Kind::Scale { new } => new,
                _ => 0,
            })
            .sum()
    }
}

/// The execution DAG of `spec` under `plan` with `sim`'s profiles.
fn build(spec: &ExperimentSpec, plan: &AllocationPlan, sim: &Simulator) -> Dag {
    let cloud = sim.cloud();
    let gpg = cloud.gpus_per_instance().max(1);
    let sync = Distribution::Constant(SYNC_OVERHEAD_SECS);
    let mut dag = Dag::default();
    let mut frontier: Vec<usize> = Vec::new();
    let mut current = 0;
    for (s, stage) in spec.stages().enumerate() {
        let (trials, alloc) = (stage.num_trials, plan.gpus(s));
        let needed = AllocationPlan::effective_instances(alloc, trials, gpg);
        // SCALE waits for the previous barrier; TRAIN for every INIT.
        let mut deps = frontier.clone();
        let mut scale = None;
        if needed > current {
            let new = needed - current;
            let at = dag.push(s, Kind::Scale { new }, &cloud.provision_delay, frontier);
            deps = (0..new)
                .map(|_| dag.push(s, Kind::Init, &cloud.init_latency, vec![at]))
                .collect();
            scale = Some(at);
        }
        current = needed;
        let gpus = if alloc >= trials { alloc / trials } else { 1 };
        let slots = alloc.min(trials);
        let train = sim
            .model()
            .train_task_dist(stage.iters, gpus, PlacementQuality::Packed);
        let mut trains: Vec<usize> = Vec::new();
        for slot in 0..trials {
            let preds = if slot < slots {
                deps.clone()
            } else {
                vec![trains[(slot - slots) as usize]]
            };
            trains.push(dag.push(s, Kind::Train { gpus }, &train, preds));
        }
        let barrier = dag.push(s, Kind::Sync, &sync, trains);
        dag.sync.push(barrier);
        dag.scale.push(scale);
        dag.held.push(needed);
        frontier = vec![barrier];
    }
    dag
}

/// One sampled execution, with the per-stage attribution `explain`
/// reports: each stage's SYNC-to-SYNC span, and the charges of the
/// instances released at its barrier (per-instance) or of its TRAIN
/// nodes (per-function).
struct Sample {
    jct: f64,
    compute: Cost,
    stage_secs: Vec<f64>,
    stage_usd: Vec<f64>,
}

fn walk(dag: &Dag, sample_seed: u64, pricing: &CloudPricing) -> Sample {
    let mut finish = vec![0.0_f64; dag.nodes.len()];
    let mut took = vec![0.0_f64; dag.nodes.len()];
    let mut stage = usize::MAX;
    let mut rng = Prng::for_stream(sample_seed, 0);
    for (i, node) in dag.nodes.iter().enumerate() {
        if node.stage != stage {
            stage = node.stage;
            rng = Prng::for_stream(sample_seed, stage as u64);
        }
        let start = node.preds.iter().map(|&p| finish[p]).fold(0.0, f64::max);
        took[i] = (0..node.draws)
            .map(|_| node.dist.sample(&mut rng))
            .fold(0.0, f64::max);
        finish[i] = start + took[i];
    }
    let stages = dag.sync.len();
    let mut out = Sample {
        jct: finish.iter().copied().fold(0.0, f64::max),
        compute: Cost::ZERO,
        stage_secs: Vec::with_capacity(stages),
        stage_usd: vec![0.0; stages],
    };
    let mut prev = 0.0;
    for &barrier in &dag.sync {
        out.stage_secs.push(finish[barrier] - prev);
        prev = finish[barrier];
    }
    if pricing.billing.is_per_instance() {
        let mut live: Vec<f64> = Vec::new();
        for s in 0..stages {
            if let Some(at) = dag.scale[s] {
                if let Kind::Scale { new } = dag.nodes[at].kind {
                    live.extend(std::iter::repeat(finish[at]).take(new as usize));
                }
            }
            let end = finish[dag.sync[s]];
            let keep = dag.held.get(s + 1).copied().unwrap_or(0) as usize;
            while live.len() > keep {
                let handed = live.pop().expect("live instances");
                let c =
                    pricing.instance_charge(SimDuration::from_secs_f64((end - handed).max(0.0)));
                out.compute += c;
                out.stage_usd[s] += c.as_dollars();
            }
        }
        assert!(live.is_empty(), "every instance is released at job end");
    } else {
        for (i, node) in dag.nodes.iter().enumerate() {
            if let Kind::Train { gpus } = node.kind {
                let c = pricing.function_charge(gpus, SimDuration::from_secs_f64(took[i]));
                out.compute += c;
                out.stage_usd[node.stage] += c.as_dollars();
            }
        }
    }
    out
}

/// Means over `sim`'s Monte-Carlo samples, sample `i` seeded as the
/// predictor seeds it: JCT, total cost (compute plus data ingress), and
/// the per-stage span and cost.
struct Expected {
    jct: f64,
    cost: f64,
    stage_secs: Vec<f64>,
    stage_usd: Vec<f64>,
}

fn oracle(sim: &Simulator, spec: &ExperimentSpec, plan: &AllocationPlan) -> Expected {
    let dag = build(spec, plan, sim);
    let cloud = sim.cloud();
    let data = cloud.pricing.ingress_charge(cloud.dataset_gb) * u64::from(dag.provisioned());
    let n = sim.config().samples.max(1);
    let mut e = Expected {
        jct: 0.0,
        cost: 0.0,
        stage_secs: vec![0.0; dag.sync.len()],
        stage_usd: vec![0.0; dag.sync.len()],
    };
    for i in 0..n {
        let seed = Prng::for_stream(sim.config().seed, u64::from(i)).next_u64();
        let w = walk(&dag, seed, &cloud.pricing);
        e.jct += w.jct;
        e.cost += (w.compute + data).as_dollars();
        for s in 0..dag.sync.len() {
            e.stage_secs[s] += w.stage_secs[s];
            e.stage_usd[s] += w.stage_usd[s];
        }
    }
    let n = f64::from(n);
    e.jct /= n;
    e.cost /= n;
    e.stage_secs.iter_mut().for_each(|x| *x /= n);
    e.stage_usd.iter_mut().for_each(|x| *x /= n);
    e
}

/// Generated cases. At this count the four tests of this file take
/// under 0.2 s in a debug build on a 2-vCPU x86-64 host.
const CASES: u64 = 328;

/// One generated (simulator, spec, plan) case. Case `c` cycles through
/// GPUs per instance ∈ {1, 4}, both billing models and four plan
/// shapes: shrinking with the trial count, growing mid-job, waves of
/// fewer GPUs than trials, and allocations that do not divide evenly.
/// Everything else — the stage ladder (2–5 stages), iterations, the
/// shape's parameters and the seed — is drawn from `c`'s own stream.
///
/// The latencies come in three blocks (see [`latencies`]): lognormal
/// SCALE and INIT with noisy training for cases 0–199, constant SCALE
/// and INIT (no draws ahead of TRAIN in a stage's stream) for 200–263,
/// and training without noise (a constant TRAIN latency) for 264–327.
fn case(c: u64) -> (Simulator, ExperimentSpec, AllocationPlan) {
    let mut rng = Prng::for_stream(0xA160_0001, c);
    let mut pick = |lo: u32, hi: u32| lo + rng.next_below(u64::from(hi - lo + 1)) as u32;
    let n_stages = pick(2, 5) as usize;
    let mut trials = pick(1, 16);
    let mut ladder = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        ladder.push((trials, u64::from(pick(1, 12))));
        trials = pick((trials / 2).max(1), trials);
    }
    let spec = ExperimentSpec::from_stages(&ladder).unwrap();

    let (ty, gpg) = if c % 2 == 0 {
        (P3_2XLARGE, 1)
    } else {
        (P3_8XLARGE, 4)
    };
    let gpus: Vec<u32> = match (c / 4) % 4 {
        // Shrinking: a fixed share per trial, so the cluster follows the
        // trial count down.
        0 => {
            let per_trial = pick(1, 4);
            ladder.iter().map(|&(t, _)| t * per_trial).collect()
        }
        // Growing mid-job: one GPU until stage `grow`, which needs at
        // least two instances.
        1 => {
            let grow = pick(1, n_stages as u32 - 1) as usize;
            (0..n_stages)
                .map(|s| match s.cmp(&grow) {
                    std::cmp::Ordering::Less => 1,
                    std::cmp::Ordering::Equal => ladder[s].0.max(2) * pick(1, 2) * gpg,
                    std::cmp::Ordering::Greater => pick(1, 2 * ladder[s].0 * gpg),
                })
                .collect()
        }
        // Waves: fewer GPUs than trials wherever the stage has more
        // than one trial.
        2 => ladder
            .iter()
            .map(|&(t, _)| pick(1, (t - 1).max(1)))
            .collect(),
        // Uneven: the remainder of the allocation idles.
        _ => ladder
            .iter()
            .map(|&(t, _)| {
                if t > 1 {
                    t * pick(1, 3) + pick(1, t - 1)
                } else {
                    pick(1, 2 * gpg + 1)
                }
            })
            .collect(),
    };

    let mut pricing = CloudPricing::on_demand(ty).with_data_price(Cost::from_dollars(0.02));
    if (c / 2) % 2 == 1 {
        pricing = pricing.with_per_function_billing();
    }
    let (provision, init, noise) = latencies(c);
    let cloud = CloudProfile {
        provision_delay: provision,
        init_latency: init,
        ..CloudProfile::new(pricing)
    }
    .with_dataset_gb(f64::from(pick(1, 200)));
    let scaling = Arc::new(AnalyticScaling::for_arch(&RESNET50, 512, gpg));
    let model = ModelProfile::from_scaling("rn50", scaling, 10, 2.0, noise);
    let sim = Simulator::new(model, cloud).with_config(SimConfig {
        samples: 8,
        seed: rng.next_u64(),
    });
    (sim, spec, AllocationPlan::new(gpus))
}

/// Case `c`'s SCALE and INIT distributions and training noise. Each
/// block after the first spans whole 16-case cycles of [`case`], so every
/// shape, billing model and instance size meets each latency regime; the
/// noiseless block alternates lognormal and constant SCALE and INIT.
fn latencies(c: u64) -> (Distribution, Distribution, f64) {
    let lognormal = || {
        (
            Distribution::lognormal_from_moments(30.0, 15.0),
            Distribution::lognormal_from_moments(20.0, 8.0),
        )
    };
    let constant = || (Distribution::Constant(30.0), Distribution::Constant(20.0));
    let ((provision, init), noise) = match c {
        0..=199 => (lognormal(), 0.7),
        200..=263 => (constant(), 0.7),
        _ if (c / 16) % 2 == 0 => (lognormal(), 0.0),
        _ => (constant(), 0.0),
    };
    (provision, init, noise)
}

#[test]
fn stage_composed_prediction_matches_full_dag_walk() {
    let (mut grew, mut waves, mut uneven) = (0, 0, 0);
    for c in 0..CASES {
        let (sim, spec, plan) = case(c);
        let want = oracle(&sim, &spec, &plan);
        let dag = build(&spec, &plan, &sim);
        grew += usize::from(dag.scale.iter().skip(1).any(Option::is_some));
        let layouts: Vec<(u32, u32)> = spec
            .stages()
            .enumerate()
            .map(|(s, st)| (plan.gpus(s), st.num_trials))
            .collect();
        waves += usize::from(layouts.iter().any(|&(a, t)| a < t));
        uneven += usize::from(layouts.iter().any(|&(a, t)| a > t && a % t != 0));

        // Tolerances are the storage granularities (SimDuration rounds
        // to milliseconds, Cost to micro-dollars).
        let pred = sim.predict(&spec, &plan).unwrap();
        assert!(
            (pred.jct.as_secs_f64() - want.jct).abs() < 1e-3,
            "case {c} {plan}: jct {} vs {}",
            pred.jct.as_secs_f64(),
            want.jct
        );
        assert!(
            (pred.cost.as_dollars() - want.cost).abs() < 1e-5,
            "case {c} {plan}: cost {} vs {}",
            pred.cost.as_dollars(),
            want.cost
        );

        let rows = sim.explain(&spec, &plan).unwrap();
        assert_eq!(rows.len(), spec.num_stages());
        for (s, row) in rows.iter().enumerate() {
            assert_eq!(row.instances, dag.held[s], "case {c} stage {s}");
            assert!(
                (row.duration.as_secs_f64() - want.stage_secs[s]).abs() < 1e-3,
                "case {c} {plan} stage {s}: span {} vs {}",
                row.duration.as_secs_f64(),
                want.stage_secs[s]
            );
            assert!(
                (row.cost.as_dollars() - want.stage_usd[s]).abs() < 1e-5,
                "case {c} {plan} stage {s}: cost {} vs {}",
                row.cost.as_dollars(),
                want.stage_usd[s]
            );
        }
        // The stage breakdown adds up to the prediction it explains, up
        // to one storage unit of rounding per stage mean.
        let cloud = sim.cloud();
        let data = cloud.pricing.ingress_charge(cloud.dataset_gb) * u64::from(dag.provisioned());
        let cost: Cost = rows.iter().map(|r| r.cost).sum::<Cost>() + data;
        let span = rows
            .iter()
            .fold(SimDuration::ZERO, |acc, r| acc + r.duration);
        let slack = rows.len() as i64;
        assert!(
            (cost.as_micros() - pred.cost.as_micros()).abs() <= slack
                && (span.as_millis() as i64 - pred.jct.as_millis() as i64).abs() <= slack,
            "case {c} {plan}: stages sum to {} µ$, {} ms; predicted {} µ$, {} ms",
            cost.as_micros(),
            span.as_millis(),
            pred.cost.as_micros(),
            pred.jct.as_millis()
        );
    }
    // Every plan shape the generator promises actually occurs.
    for (what, n) in [("growth", grew), ("waves", waves), ("uneven", uneven)] {
        assert!(n >= 20, "only {n} of {CASES} cases had {what}");
    }
}

#[test]
fn preds_are_topologically_ordered() {
    for c in 0..CASES {
        let (sim, spec, plan) = case(c);
        let dag = build(&spec, &plan, &sim);
        for (i, n) in dag.nodes.iter().enumerate() {
            for &p in &n.preds {
                assert!(p < i, "case {c}: node {i} depends on later node {p}");
            }
        }
    }
}

#[test]
fn sync_depends_on_every_train_in_stage() {
    for c in 0..CASES {
        let (sim, spec, plan) = case(c);
        let dag = build(&spec, &plan, &sim);
        for (s, &barrier) in dag.sync.iter().enumerate() {
            assert_eq!(
                dag.nodes[barrier].preds,
                dag.trains(s),
                "case {c} stage {s}"
            );
        }
    }
}

/// The hand-checked 4 → 2 → 1 trial job: 1-GPU instances, SCALE 10 s,
/// INIT 20 s, TRAIN 40 s on one GPU, SYNC 1 s, no noise.
fn deterministic(gpus: Vec<u32>) -> (Dag, Simulator) {
    let model = ModelProfile::from_scaling(
        "ideal",
        Arc::new(IdealScaling {
            base_secs: 4.0,
            batch: 512,
        }),
        1,
        0.0,
        0.0,
    );
    let cloud = CloudProfile::new(CloudPricing::on_demand(P3_2XLARGE))
        .with_provision_delay(SimDuration::from_secs(10))
        .with_init_latency(SimDuration::from_secs(20));
    let sim = Simulator::new(model, cloud);
    let spec = ExperimentSpec::from_stages(&[(4, 10), (2, 10), (1, 10)]).unwrap();
    (build(&spec, &AllocationPlan::new(gpus), &sim), sim)
}

#[test]
fn nodes_follow_the_stage_construction() {
    // Shrinking: stage 0 is 1 SCALE + 4 INIT + 4 TRAIN + 1 SYNC; the
    // shrinking stages add only TRAIN + SYNC.
    let (dag, sim) = deterministic(vec![4, 2, 1]);
    assert_eq!(dag.nodes.len(), 10 + 3 + 2);
    assert_eq!(dag.held, vec![4, 2, 1]);
    assert_eq!(dag.provisioned(), 4);
    assert!(dag.scale[0].is_some() && dag.scale[1].is_none());
    // The sink is the hand-computed JCT: 71, then 112, then 153 s.
    assert_eq!(walk(&dag, 1, &sim.cloud().pricing).jct, 153.0);

    // Growth: each growing stage's SCALE waits for the previous SYNC.
    let (dag, _) = deterministic(vec![1, 2, 4]);
    let scale1 = dag.scale[1].expect("stage 1 grows");
    assert_eq!(dag.nodes[scale1].kind, Kind::Scale { new: 1 });
    assert_eq!(dag.nodes[scale1].preds, vec![dag.sync[0]]);

    // Waves: 4 trials on 1 GPU chain serially; 2 trials on 2 GPUs run
    // side by side.
    let (dag, _) = deterministic(vec![1, 2, 1]);
    let t0 = dag.trains(0);
    assert_eq!(t0.len(), 4);
    for w in t0.windows(2) {
        assert_eq!(dag.nodes[w[1]].preds, vec![w[0]], "serial chain broken");
    }
    let t1 = dag.trains(1);
    assert_eq!(dag.nodes[t1[0]].preds, dag.nodes[t1[1]].preds);

    // Uneven: 3 GPUs for 4 trials, the 4th chains behind slot 0.
    let (dag, _) = deterministic(vec![3, 2, 1]);
    let t0 = dag.trains(0);
    assert_eq!(dag.nodes[t0[3]].preds, vec![t0[0]]);
    assert_eq!(dag.nodes[t0[1]].preds, dag.nodes[t0[0]].preds);
}
