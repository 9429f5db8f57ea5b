//! The placement controller algorithm (Algorithm 3).
//!
//! Responsibilities, per §4.4:
//!
//! * return the current plan unchanged when it already satisfies the
//!   requested allocations;
//! * preserve assignments of trials whose allocation did not change;
//! * place changed trials largest-first, best-fit, each on a single node
//!   when it fits (locality) or on whole nodes when it does not;
//! * displace strictly smaller trials when needed — displaced
//!   trials re-enter the queue and get their own chance to be placed;
//!   trials placed in this round cannot be displaced again;
//! * bin-pack trials off victim nodes ahead of a scale-down so instances
//!   can be deprovisioned without interrupting the experiment (Fig. 5).

use crate::plan::{ClusterState, Placement, PlacementPlan};
use rb_core::{NodeId, RbError, Result, TrialId};
use std::collections::BTreeMap;

/// What changed in one controller invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlacementDiff {
    /// Previously placed trials whose physical assignment changed (their
    /// workers must be checkpointed, destroyed and recreated, §5).
    pub moved: Vec<TrialId>,
    /// Trials placed for the first time.
    pub started: Vec<TrialId>,
    /// Trials removed from the plan (terminated or completed).
    pub removed: Vec<TrialId>,
}

/// The stateful placement controller.
#[derive(Debug, Clone, Default)]
pub struct PlacementController {
    plan: PlacementPlan,
    /// Kept between [`PlacementController::update`] calls for its
    /// storage.
    work: Work,
}

/// The working state of one [`PlacementController::update`].
#[derive(Debug, Clone, Default)]
struct Work {
    /// The plan being built, swapped in on success so that a failed
    /// update leaves the controller's plan untouched.
    plan: PlacementPlan,
    /// Trials waiting to be placed, largest allocation first.
    queue: Vec<(u32, TrialId)>,
    previously_placed: Vec<TrialId>,
    placed_this_round: Vec<TrialId>,
}

/// The GPUs `allocations` (ordered by trial) requests for `trial`.
fn allocation_of(allocations: &[(TrialId, u32)], trial: TrialId) -> Option<u32> {
    allocations
        .binary_search_by_key(&trial, |&(t, _)| t)
        .ok()
        .map(|i| allocations[i].1)
}

impl PlacementController {
    /// Creates a controller with an empty plan.
    pub fn new() -> Self {
        PlacementController::default()
    }

    /// The current placement plan.
    pub fn plan(&self) -> &PlacementPlan {
        &self.plan
    }

    /// Runs the placement algorithm for the requested `allocations`
    /// (`(trial, GPUs)` ordered by trial, each trial once) over
    /// `cluster`, updating the plan in place.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Placement`] when the allocations cannot be
    /// satisfied (aggregate or fragmentation-induced capacity shortfall
    /// that displacement cannot fix). The plan is left unchanged on error.
    pub fn update(
        &mut self,
        allocations: &[(TrialId, u32)],
        cluster: &ClusterState,
    ) -> Result<PlacementDiff> {
        debug_assert!(
            allocations.windows(2).all(|w| w[0].0 < w[1].0),
            "allocations must be ordered by trial, each trial once"
        );
        let total: u32 = allocations.iter().map(|&(_, g)| g).sum();
        if total > cluster.total_gpus() {
            return Err(RbError::Placement(format!(
                "allocations need {total} GPUs, cluster has {}",
                cluster.total_gpus()
            )));
        }
        let mut work = std::mem::take(&mut self.work);
        work.plan.clone_from(&self.plan);
        let diff = self.replan(&mut work, allocations, cluster);
        if diff.is_ok() {
            std::mem::swap(&mut self.plan, &mut work.plan);
        }
        self.work = work;
        diff
    }

    /// The body of [`PlacementController::update`], on `work.plan`, a
    /// copy of the current plan.
    fn replan(
        &self,
        work: &mut Work,
        allocations: &[(TrialId, u32)],
        cluster: &ClusterState,
    ) -> Result<PlacementDiff> {
        let Work {
            plan,
            queue,
            previously_placed,
            placed_this_round,
        } = work;
        let cap = cluster.gpus_per_node();
        let mut diff = PlacementDiff::default();

        // Drop trials that are gone.
        plan.retain_trials(|trial| {
            let keep = allocation_of(allocations, trial).is_some();
            if !keep {
                diff.removed.push(trial);
            }
            keep
        });

        // Identify trials whose current placement is already satisfactory:
        // correct total, on live nodes, minimal node count.
        queue.clear();
        previously_placed.clear();
        placed_this_round.clear();
        for &(trial, gpus) in allocations {
            let ok = plan.get(trial).is_some_and(|chunks| {
                let tot: u32 = chunks.iter().map(|p| p.gpus).sum();
                tot == gpus
                    && chunks.iter().all(|p| cluster.contains(p.node))
                    && chunks.len() as u32 <= gpus.div_ceil(cap)
            });
            if ok {
                continue;
            }
            if plan.remove(trial) {
                previously_placed.push(trial);
            }
            queue.push((gpus, trial));
        }
        if queue.is_empty() {
            return Ok(diff);
        }

        // Largest allocation first; ties by trial id for determinism.
        queue.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        while let Some((gpus, trial)) = queue.first().copied() {
            queue.remove(0);
            let displaced = self.place_one(plan, cluster, trial, gpus, placed_this_round)?;
            placed_this_round.push(trial);
            for d in displaced {
                let alloc = allocation_of(allocations, d).expect("displaced trials are allocated");
                if !previously_placed.contains(&d) {
                    previously_placed.push(d);
                }
                // Re-insert maintaining descending-allocation order.
                let pos = queue
                    .binary_search_by(|(a, t)| alloc.cmp(a).then(t.cmp(&d)))
                    .unwrap_or_else(|p| p);
                queue.insert(pos, (alloc, d));
            }
        }

        placed_this_round.sort_unstable();
        for &trial in placed_this_round.iter() {
            if previously_placed.contains(&trial) {
                diff.moved.push(trial);
            } else {
                diff.started.push(trial);
            }
        }
        debug_assert!(
            plan.is_valid_for(cluster),
            "controller produced invalid plan"
        );
        Ok(diff)
    }

    /// Places one trial, possibly displacing smaller trials.
    /// Returns the displaced trials (now unplaced).
    fn place_one(
        &self,
        plan: &mut PlacementPlan,
        cluster: &ClusterState,
        trial: TrialId,
        gpus: u32,
        placed_this_round: &[TrialId],
    ) -> Result<Vec<TrialId>> {
        let cap = cluster.gpus_per_node();
        if gpus <= cap {
            self.place_single_node(plan, cluster, trial, gpus, placed_this_round)
        } else {
            self.place_multi_node(plan, cluster, trial, gpus, placed_this_round)
        }
    }

    fn evictable(
        &self,
        plan: &PlacementPlan,
        node: NodeId,
        max_alloc: u32,
        placed_this_round: &[TrialId],
    ) -> Vec<(u32, TrialId)> {
        let mut out: Vec<(u32, TrialId)> = plan
            .iter()
            .filter(|(t, chunks)| {
                !placed_this_round.contains(t) && chunks.iter().any(|p| p.node == node)
            })
            .map(|(t, _)| (plan.assigned_gpus(t), t))
            .filter(|&(a, _)| a < max_alloc)
            .collect();
        // Evict smallest victims first to minimize churn.
        out.sort();
        out
    }

    fn place_single_node(
        &self,
        plan: &mut PlacementPlan,
        cluster: &ClusterState,
        trial: TrialId,
        gpus: u32,
        placed_this_round: &[TrialId],
    ) -> Result<Vec<TrialId>> {
        // Best fit: the node with the least free space that still fits.
        let best = plan
            .free_nodes(cluster)
            .filter(|&(_, f)| f >= gpus)
            .min_by_key(|&(n, f)| (f, n));
        if let Some((node, _)) = best {
            plan.assign(trial, [Placement { node, gpus }]);
            return Ok(Vec::new());
        }
        // Displacement: scan nodes by descending free space, evicting
        // strictly smaller victims until the trial fits.
        let mut nodes: Vec<(NodeId, u32)> = plan.free_nodes(cluster).collect();
        nodes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (node, free_gpus) in nodes {
            let victims = self.evictable(plan, node, gpus, placed_this_round);
            let evictable_on_node: u32 = victims
                .iter()
                .map(|&(_, t)| {
                    plan.get(t)
                        .map(|cs| {
                            cs.iter()
                                .filter(|p| p.node == node)
                                .map(|p| p.gpus)
                                .sum::<u32>()
                        })
                        .unwrap_or(0)
                })
                .sum();
            if free_gpus + evictable_on_node < gpus {
                continue;
            }
            let mut freed = free_gpus;
            let mut displaced = Vec::new();
            for (_, victim) in victims {
                if freed >= gpus {
                    break;
                }
                freed += plan
                    .get(victim)
                    .expect("victim is placed")
                    .iter()
                    .filter(|p| p.node == node)
                    .map(|p| p.gpus)
                    .sum::<u32>();
                plan.remove(victim);
                displaced.push(victim);
            }
            debug_assert!(freed >= gpus);
            plan.assign(trial, [Placement { node, gpus }]);
            return Ok(displaced);
        }
        Err(RbError::Placement(format!(
            "cannot place {trial} ({gpus} GPUs): no node can be freed"
        )))
    }

    fn place_multi_node(
        &self,
        plan: &mut PlacementPlan,
        cluster: &ClusterState,
        trial: TrialId,
        gpus: u32,
        placed_this_round: &[TrialId],
    ) -> Result<Vec<TrialId>> {
        let cap = cluster.gpus_per_node();
        // Whole empty nodes needed for the full chunks; the remainder can
        // share a node.
        let needed_nodes = (gpus / cap) as usize;
        // Gather empty nodes first, then nodes that can be fully emptied
        // by displacing smaller trials (emptiest first).
        let mut empties: Vec<NodeId> = plan
            .free_nodes(cluster)
            .filter(|&(_, f)| f == cap)
            .map(|(n, _)| n)
            .collect();
        empties.sort();
        let mut displaced = Vec::new();
        if empties.len() < needed_nodes {
            let mut candidates: Vec<(u32, NodeId)> = plan
                .free_nodes(cluster)
                .filter(|&(_, f)| f < cap)
                .map(|(n, f)| (cap - f, n))
                .collect();
            candidates.sort();
            for (_, node) in candidates {
                if empties.len() >= needed_nodes {
                    break;
                }
                // Every resident trial must be evictable.
                let residents: Vec<TrialId> = plan
                    .iter()
                    .filter(|(_, chunks)| chunks.iter().any(|p| p.node == node))
                    .map(|(t, _)| t)
                    .collect();
                let all_evictable = residents
                    .iter()
                    .all(|t| !placed_this_round.contains(t) && plan.assigned_gpus(*t) < gpus);
                if !all_evictable {
                    continue;
                }
                for t in residents {
                    plan.remove(t);
                    displaced.push(t);
                }
                empties.push(node);
            }
        }
        // Full nodes for the bulk of the allocation; a remainder chunk may
        // share a node (best-fit) so that unfair static allocations like
        // 5 GPUs on 4-GPU machines remain placeable.
        let full_nodes = (gpus / cap) as usize;
        let remainder = gpus % cap;
        if empties.len() < full_nodes {
            return Err(RbError::Placement(format!(
                "cannot place {trial} ({gpus} GPUs): needs {full_nodes} free nodes"
            )));
        }
        let mut chunks: Vec<Placement> = empties
            .iter()
            .take(full_nodes)
            .map(|&node| Placement { node, gpus: cap })
            .collect();
        if remainder > 0 {
            let best = plan
                .free_nodes(cluster)
                .filter(|&(n, f)| !chunks.iter().any(|p| p.node == n) && f >= remainder)
                .min_by_key(|&(n, f)| (f, n));
            match best {
                Some((node, _)) => chunks.push(Placement {
                    node,
                    gpus: remainder,
                }),
                None => {
                    return Err(RbError::Placement(format!(
                        "cannot place {trial}: no node for the {remainder}-GPU remainder"
                    )))
                }
            }
        }
        plan.assign(trial, chunks);
        Ok(displaced)
    }

    /// Prepares a scale-down by `count` nodes: picks the emptiest victim
    /// nodes, relocates their trials onto survivors (best-fit), and
    /// returns `(freed nodes, relocated trials)`. The plan is updated;
    /// the caller deprovisions the freed nodes and shrinks the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::Placement`] if fewer than `count` nodes can be
    /// freed without exceeding surviving capacity. The plan is left unchanged on error.
    pub fn plan_scale_down(
        &mut self,
        cluster: &ClusterState,
        count: usize,
    ) -> Result<(Vec<NodeId>, Vec<TrialId>)> {
        if count == 0 {
            return Ok((Vec::new(), Vec::new()));
        }
        if count > cluster.nodes().len() {
            return Err(RbError::Placement(format!(
                "cannot remove {count} of {} nodes",
                cluster.nodes().len()
            )));
        }
        let mut plan = self.plan.clone();
        let cap = cluster.gpus_per_node();
        // Victims: least-used nodes first.
        let free = plan.free_per_node(cluster);
        let mut by_use: Vec<(u32, NodeId)> = free.iter().map(|(&n, &f)| (cap - f, n)).collect();
        by_use.sort();
        let mut freed = Vec::new();
        let mut moved = Vec::new();
        for (_, victim) in by_use {
            if freed.len() >= count {
                break;
            }
            let residents: Vec<TrialId> = plan
                .iter()
                .filter(|(_, chunks)| chunks.iter().any(|p| p.node == victim))
                .map(|(t, _)| t)
                .collect();
            // Tentatively relocate every resident into surviving nodes.
            let mut attempt = plan.clone();
            let mut ok = true;
            let mut relocated = Vec::new();
            for t in residents {
                let gpus = attempt.assigned_gpus(t);
                attempt.remove(t);
                // Survivors: not the victim, not already freed.
                let surviving_free: BTreeMap<NodeId, u32> = attempt
                    .free_per_node(cluster)
                    .into_iter()
                    .filter(|(n, _)| *n != victim && !freed.contains(n))
                    .collect();
                let best = surviving_free
                    .iter()
                    .filter(|(_, &f)| f >= gpus)
                    .min_by_key(|(&n, &f)| (f, n));
                match best {
                    Some((&node, _)) if gpus <= cap => {
                        attempt.assign(t, vec![Placement { node, gpus }]);
                        relocated.push(t);
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                plan = attempt;
                freed.push(victim);
                moved.extend(relocated);
            }
        }
        if freed.len() < count {
            return Err(RbError::Placement(format!(
                "could only free {} of {count} nodes",
                freed.len()
            )));
        }
        self.plan = plan;
        Ok((freed, moved))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_scaling::PlacementQuality;

    fn alloc(pairs: &[(u64, u32)]) -> Vec<(TrialId, u32)> {
        pairs.iter().map(|&(t, g)| (TrialId::new(t), g)).collect()
    }

    #[test]
    fn trials_are_colocated_on_single_nodes() {
        let cluster = ClusterState::with_n_nodes(4, 4);
        let mut pc = PlacementController::new();
        let diff = pc
            .update(&alloc(&[(0, 2), (1, 2), (2, 4), (3, 1)]), &cluster)
            .unwrap();
        assert_eq!(diff.started.len(), 4);
        for t in [0u64, 1, 2, 3] {
            assert_eq!(
                pc.plan().quality(TrialId::new(t), 4),
                Some(PlacementQuality::Packed),
                "trial {t} scattered"
            );
            assert_eq!(pc.plan().get(TrialId::new(t)).unwrap().len(), 1);
        }
        assert!(pc.plan().is_valid_for(&cluster));
    }

    #[test]
    fn best_fit_packs_small_trials_together() {
        let cluster = ClusterState::with_n_nodes(2, 4);
        let mut pc = PlacementController::new();
        pc.update(&alloc(&[(0, 3)]), &cluster).unwrap();
        // A 1-GPU trial should slot into node 0's remaining GPU, not open
        // node 1.
        pc.update(&alloc(&[(0, 3), (1, 1)]), &cluster).unwrap();
        let n0 = pc.plan().get(TrialId::new(0)).unwrap()[0].node;
        let n1 = pc.plan().get(TrialId::new(1)).unwrap()[0].node;
        assert_eq!(n0, n1, "best fit should co-locate");
    }

    #[test]
    fn unchanged_allocations_keep_their_assignment() {
        let cluster = ClusterState::with_n_nodes(4, 4);
        let mut pc = PlacementController::new();
        pc.update(&alloc(&[(0, 4), (1, 4), (2, 4)]), &cluster)
            .unwrap();
        let before = pc.plan().get(TrialId::new(1)).unwrap().to_vec();
        // Trial 0 terminates; 1 and 2 unchanged; 3 arrives.
        let diff = pc
            .update(&alloc(&[(1, 4), (2, 4), (3, 4)]), &cluster)
            .unwrap();
        assert_eq!(diff.removed, vec![TrialId::new(0)]);
        assert_eq!(diff.moved, vec![]);
        assert_eq!(diff.started, vec![TrialId::new(3)]);
        assert_eq!(pc.plan().get(TrialId::new(1)).unwrap(), &before[..]);
    }

    #[test]
    fn noop_when_already_satisfied() {
        let cluster = ClusterState::with_n_nodes(2, 4);
        let mut pc = PlacementController::new();
        pc.update(&alloc(&[(0, 2), (1, 2)]), &cluster).unwrap();
        let diff = pc.update(&alloc(&[(0, 2), (1, 2)]), &cluster).unwrap();
        assert_eq!(diff, PlacementDiff::default());
    }

    #[test]
    fn growing_trial_displaces_smaller_ones() {
        let cluster = ClusterState::with_n_nodes(2, 4);
        let mut pc = PlacementController::new();
        // Fill both nodes with 1-GPU trials plus a 3-GPU trial.
        pc.update(
            &alloc(&[(0, 3), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]),
            &cluster,
        )
        .unwrap();
        // Trial 0 grows to 4 GPUs: the 1-GPU trial sharing its node must be
        // displaced (and re-placed), while trial 0 gets a full node.
        let diff = pc
            .update(&alloc(&[(0, 4), (1, 1), (2, 1), (3, 1)]), &cluster)
            .unwrap();
        assert!(diff.moved.contains(&TrialId::new(0)));
        assert_eq!(pc.plan().assigned_gpus(TrialId::new(0)), 4);
        assert_eq!(pc.plan().get(TrialId::new(0)).unwrap().len(), 1);
        // Everyone still placed, nothing oversubscribed.
        for t in [1u64, 2, 3] {
            assert_eq!(pc.plan().assigned_gpus(TrialId::new(t)), 1);
        }
        assert!(pc.plan().is_valid_for(&cluster));
    }

    #[test]
    fn multi_node_trials_take_whole_nodes() {
        let cluster = ClusterState::with_n_nodes(3, 4);
        let mut pc = PlacementController::new();
        pc.update(&alloc(&[(0, 8), (1, 2)]), &cluster).unwrap();
        let chunks = pc.plan().get(TrialId::new(0)).unwrap();
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(|p| p.gpus == 4));
        assert_eq!(
            pc.plan().quality(TrialId::new(0), 4),
            Some(PlacementQuality::Packed)
        );
    }

    #[test]
    fn multi_node_placement_displaces_when_needed() {
        let cluster = ClusterState::with_n_nodes(2, 4);
        let mut pc = PlacementController::new();
        pc.update(&alloc(&[(0, 1), (1, 1)]), &cluster).unwrap();
        // An 8-GPU trial needs both nodes empty.
        let diff = pc.update(&alloc(&[(2, 8)]), &cluster).unwrap();
        assert_eq!(pc.plan().assigned_gpus(TrialId::new(2)), 8);
        assert_eq!(diff.removed.len(), 2);
    }

    #[test]
    fn capacity_shortfall_is_an_error_and_preserves_plan() {
        let cluster = ClusterState::with_n_nodes(1, 4);
        let mut pc = PlacementController::new();
        pc.update(&alloc(&[(0, 2)]), &cluster).unwrap();
        let before = pc.plan().clone();
        let err = pc.update(&alloc(&[(0, 2), (1, 4)]), &cluster).unwrap_err();
        assert!(matches!(err, RbError::Placement(_)));
        assert_eq!(pc.plan(), &before);
    }

    #[test]
    fn scale_down_bin_packs_and_frees_nodes() {
        let cluster = ClusterState::with_n_nodes(3, 4);
        let mut pc = PlacementController::new();
        // Nodes: [t0:4], [t1:2], [t2:2] (controller packs t1,t2 together,
        // so construct a spread state explicitly via updates).
        pc.update(&alloc(&[(0, 4), (1, 2)]), &cluster).unwrap();
        pc.update(&alloc(&[(0, 4), (1, 2), (2, 4)]), &cluster)
            .unwrap();
        pc.update(&alloc(&[(0, 4), (1, 2), (2, 2)]), &cluster)
            .unwrap();
        // Now shrink by one node: t1 or t2 relocates so a node frees up.
        let (freed, _moved) = pc.plan_scale_down(&cluster, 1).unwrap();
        assert_eq!(freed.len(), 1);
        // All trials remain placed on the two survivors.
        for t in [0u64, 1, 2] {
            let chunks = pc.plan().get(TrialId::new(t)).unwrap();
            assert!(chunks.iter().all(|p| !freed.contains(&p.node)));
        }
        assert!(pc.plan().is_valid_for(&cluster));
    }

    #[test]
    fn scale_down_fails_when_survivors_cannot_absorb() {
        let cluster = ClusterState::with_n_nodes(2, 4);
        let mut pc = PlacementController::new();
        pc.update(&alloc(&[(0, 4), (1, 4)]), &cluster).unwrap();
        assert!(pc.plan_scale_down(&cluster, 1).is_err());
        // Zero-count scale-down is a no-op.
        assert_eq!(pc.plan_scale_down(&cluster, 0).unwrap().0.len(), 0);
        assert!(pc.plan_scale_down(&cluster, 3).is_err());
    }

    #[test]
    fn update_is_deterministic() {
        let cluster = ClusterState::with_n_nodes(4, 4);
        let allocs = alloc(&[(0, 2), (1, 2), (2, 4), (3, 1), (4, 3)]);
        let mut a = PlacementController::new();
        let mut b = PlacementController::new();
        a.update(&allocs, &cluster).unwrap();
        b.update(&allocs, &cluster).unwrap();
        assert_eq!(a.plan(), b.plan());
    }

    #[test]
    fn trials_on_removed_nodes_are_relocated() {
        let mut cluster = ClusterState::with_n_nodes(2, 4);
        let mut pc = PlacementController::new();
        pc.update(&alloc(&[(0, 4), (1, 4)]), &cluster).unwrap();
        // Node hosting trial 1 disappears (e.g. external deprovision).
        let n1 = pc.plan().get(TrialId::new(1)).unwrap()[0].node;
        cluster.remove(n1);
        cluster.add(NodeId::new(10));
        let diff = pc.update(&alloc(&[(0, 4), (1, 4)]), &cluster).unwrap();
        assert_eq!(diff.moved, vec![TrialId::new(1)]);
        assert_eq!(
            pc.plan().get(TrialId::new(1)).unwrap()[0].node,
            NodeId::new(10)
        );
    }
}
