//! The descent loop shared by both descent planners.
//!
//! Greedy cost descent under a deadline ([`crate::greedy::optimize_plan`])
//! and JCT descent under a budget ([`crate::budget::plan_min_jct`]) have
//! one shape (Algorithm 2): from a single incumbent, generate neighbour
//! candidates, predict them in one `predict_batch`, score each against
//! the incumbent, and move to the best-scoring one until none scores.
//!
//! Each step records one `candidates_generated`, one `candidates_pruned`
//! and one `steps_taken` counter update and one accept instant, in that
//! order; the repro traces and their expected summaries pin the
//! sequence.

use rb_core::{Result, SimTime};
use rb_hpo::ExperimentSpec;
use rb_obs::Lane;
use rb_sim::{AllocationPlan, Prediction, Simulator};

/// Hard cap on descent steps: a defence against pathological simulator
/// outputs, generous relative to any fair ladder's length.
const MAX_STEPS: usize = 10_000;

/// Static context of one descent.
pub(crate) struct Descent<'a> {
    pub sim: &'a Simulator,
    pub spec: &'a ExperimentSpec,
    /// Name of the instant event emitted when the incumbent advances
    /// (e.g. `"step.accept"`); lane is always [`Lane::Planner`].
    pub accept_event: &'static str,
}

/// Runs the descent from one warm start.
///
/// * `generate` appends the neighbour candidates of the incumbent to
///   `out`.
/// * `score` rates a candidate against the incumbent: `None` prunes it
///   (counted in `candidates_pruned`), `Some(m)` enters it with marginal
///   benefit `m`. The first candidate with the strictly greatest `m`
///   becomes the next incumbent.
///
/// Returns the final incumbent, its prediction and the steps taken. Both
/// planners' scores admit only strict improvements, so the final
/// incumbent is also the best plan seen.
///
/// # Errors
///
/// Propagates simulator errors from batch prediction.
pub(crate) fn descend<G, S>(
    d: &Descent<'_>,
    start_plan: AllocationPlan,
    start_pred: Prediction,
    mut generate: G,
    score: S,
) -> Result<(AllocationPlan, Prediction, usize)>
where
    G: FnMut(&AllocationPlan, &mut Vec<AllocationPlan>) -> Result<()>,
    S: Fn(&Prediction, &Prediction) -> Option<f64>,
{
    let recorder = d.sim.recorder();
    let (mut plan, mut pred) = (start_plan, start_pred);
    let mut steps = 0usize;
    let mut cands: Vec<AllocationPlan> = Vec::new();
    while steps < MAX_STEPS {
        cands.clear();
        generate(&plan, &mut cands)?;
        recorder.counter_add("planner", "candidates_generated", cands.len() as u64);
        let mut chosen: Option<(usize, Prediction, f64)> = None;
        let mut pruned = 0u64;
        for (k, cand) in d.sim.predict_batch(d.spec, &cands).into_iter().enumerate() {
            let cand = cand?;
            match score(&pred, &cand) {
                None => pruned += 1,
                Some(m) => {
                    if chosen.as_ref().map_or(true, |(_, _, best)| m > *best) {
                        chosen = Some((k, cand, m));
                    }
                }
            }
        }
        recorder.counter_add("planner", "candidates_pruned", pruned);
        let Some((k, next, _)) = chosen else {
            break;
        };
        plan = cands.swap_remove(k);
        pred = next;
        steps += 1;
        recorder.counter_add("planner", "steps_taken", 1);
        if recorder.enabled() {
            // Planning precedes virtual time; planner events sit at t=0
            // on their own lane, ordered by sequence.
            recorder.instant(
                SimTime::ZERO,
                "planner",
                d.accept_event,
                Lane::Planner,
                vec![
                    ("cost_usd", pred.cost.as_dollars().into()),
                    ("jct_secs", pred.jct.as_secs_f64().into()),
                ],
            );
        }
    }
    Ok((plan, pred, steps))
}

/// Predicts `plans` in one batch and returns the index and prediction of
/// the best plan under `better` (strict; earlier index wins ties) among
/// those passing `keep`. `Ok(None)` when nothing passes.
///
/// # Errors
///
/// Propagates simulator errors.
pub(crate) fn batch_select<K, B>(
    sim: &Simulator,
    spec: &ExperimentSpec,
    plans: &[AllocationPlan],
    mut keep: K,
    better: B,
) -> Result<Option<(usize, Prediction)>>
where
    K: FnMut(&Prediction) -> bool,
    B: Fn(&Prediction, &Prediction) -> bool,
{
    let mut best: Option<(usize, Prediction)> = None;
    for (i, pred) in sim.predict_batch(spec, plans).into_iter().enumerate() {
        let pred = pred?;
        if !keep(&pred) {
            continue;
        }
        let replace = match &best {
            None => true,
            Some((_, b)) => better(&pred, b),
        };
        if replace {
            best = Some((i, pred));
        }
    }
    Ok(best)
}
