//! Placement plans: trial → physical GPU assignments.

use rb_core::{NodeId, TrialId};
use rb_scaling::PlacementQuality;
use std::collections::BTreeMap;

/// One chunk of a trial's placement: `gpus` GPUs on `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The machine hosting the chunk.
    pub node: NodeId,
    /// GPUs of that machine assigned to the trial.
    pub gpus: u32,
}

/// The homogeneous cluster the controller places onto (§4.4.1 assumes all
/// worker instances have the same number and type of GPUs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterState {
    nodes: Vec<NodeId>,
    gpus_per_node: u32,
}

impl ClusterState {
    /// Creates a cluster of the given nodes, each with `gpus_per_node`
    /// GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `gpus_per_node` is zero.
    pub fn new(nodes: Vec<NodeId>, gpus_per_node: u32) -> Self {
        assert!(gpus_per_node > 0, "nodes must have GPUs");
        ClusterState {
            nodes,
            gpus_per_node,
        }
    }

    /// A cluster of `n` fresh nodes numbered 0..n.
    pub fn with_n_nodes(n: u32, gpus_per_node: u32) -> Self {
        ClusterState::new((0..u64::from(n)).map(NodeId::new).collect(), gpus_per_node)
    }

    /// The node ids, in stable order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// GPUs per node.
    pub fn gpus_per_node(&self) -> u32 {
        self.gpus_per_node
    }

    /// Total GPUs in the cluster.
    pub fn total_gpus(&self) -> u32 {
        self.nodes.len() as u32 * self.gpus_per_node
    }

    /// True if `node` belongs to the cluster.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Removes a node (after deprovisioning).
    pub fn remove(&mut self, node: NodeId) {
        self.nodes.retain(|&n| n != node);
    }

    /// Replaces the node list, keeping its storage.
    pub fn set_nodes(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        self.nodes.clear();
        self.nodes.extend(nodes);
    }

    /// Adds a node (after provisioning).
    pub fn add(&mut self, node: NodeId) {
        debug_assert!(!self.contains(node), "node {node} added twice");
        self.nodes.push(node);
    }
}

/// The full mapping of trials to physical assignments.
///
/// Stored flat — one entry per chunk, ordered by trial, each trial's
/// chunks contiguous in assignment order — so copying a plan into one
/// that already has room ([`Clone::clone_from`]) and re-placing trials
/// reuse its storage instead of allocating per trial.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct PlacementPlan {
    owners: Vec<TrialId>,
    chunks: Vec<Placement>,
}

impl Clone for PlacementPlan {
    fn clone(&self) -> Self {
        PlacementPlan {
            owners: self.owners.clone(),
            chunks: self.chunks.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.owners.clone_from(&source.owners);
        self.chunks.clone_from(&source.chunks);
    }
}

impl PlacementPlan {
    /// An empty plan.
    pub fn new() -> Self {
        PlacementPlan::default()
    }

    /// The chunk positions of `trial` (empty when unplaced; the start is
    /// where its chunks would go).
    fn range(&self, trial: TrialId) -> std::ops::Range<usize> {
        let start = self.owners.partition_point(|&t| t < trial);
        let len = self.owners[start..].partition_point(|&t| t == trial);
        start..start + len
    }

    /// The placement chunks of `trial`, if placed.
    pub fn get(&self, trial: TrialId) -> Option<&[Placement]> {
        let r = self.range(trial);
        (!r.is_empty()).then(|| &self.chunks[r])
    }

    /// Total GPUs assigned to `trial`.
    pub fn assigned_gpus(&self, trial: TrialId) -> u32 {
        self.chunks[self.range(trial)].iter().map(|p| p.gpus).sum()
    }

    /// Inserts or replaces a trial's assignment.
    pub fn assign(&mut self, trial: TrialId, chunks: impl IntoIterator<Item = Placement>) {
        let r = self.range(trial);
        let at = r.start;
        self.owners.drain(r.clone());
        self.chunks.drain(r);
        let mut n = 0;
        for p in chunks {
            self.owners.insert(at + n, trial);
            self.chunks.insert(at + n, p);
            n += 1;
        }
        debug_assert!(n > 0, "empty assignment for {trial}");
    }

    /// Removes a trial's assignment; returns whether it was placed.
    pub fn remove(&mut self, trial: TrialId) -> bool {
        let r = self.range(trial);
        let placed = !r.is_empty();
        self.owners.drain(r.clone());
        self.chunks.drain(r);
        placed
    }

    /// Keeps only the trials for which `keep` returns true; `keep` sees
    /// each placed trial once, in trial order.
    pub(crate) fn retain_trials(&mut self, mut keep: impl FnMut(TrialId) -> bool) {
        let mut write = 0;
        let mut read = 0;
        while read < self.owners.len() {
            let trial = self.owners[read];
            let len = self.owners[read..].partition_point(|&t| t == trial);
            if keep(trial) {
                for k in read..read + len {
                    self.owners[write] = self.owners[k];
                    self.chunks[write] = self.chunks[k];
                    write += 1;
                }
            }
            read += len;
        }
        self.owners.truncate(write);
        self.chunks.truncate(write);
    }

    /// Iterates over `(trial, chunks)` in trial order.
    pub fn iter(&self) -> impl Iterator<Item = (TrialId, &[Placement])> {
        let mut at = 0;
        std::iter::from_fn(move || {
            let trial = *self.owners.get(at)?;
            let len = self.owners[at..].partition_point(|&t| t == trial);
            let chunks = &self.chunks[at..at + len];
            at += len;
            Some((trial, chunks))
        })
    }

    /// Number of placed trials.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when nothing is placed.
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// GPUs used on `node` under this plan.
    fn used_on(&self, node: NodeId) -> u32 {
        self.chunks
            .iter()
            .filter(|p| p.node == node)
            .map(|p| p.gpus)
            .sum()
    }

    /// Free GPUs on each node of `cluster`, in the cluster's node order
    /// (nodes with no assignment included).
    pub(crate) fn free_nodes<'a>(
        &'a self,
        cluster: &'a ClusterState,
    ) -> impl Iterator<Item = (NodeId, u32)> + 'a {
        cluster
            .nodes()
            .iter()
            .map(move |&n| (n, cluster.gpus_per_node().saturating_sub(self.used_on(n))))
    }

    /// Free GPUs per node of `cluster` (nodes with no assignment included).
    pub fn free_per_node(&self, cluster: &ClusterState) -> BTreeMap<NodeId, u32> {
        self.free_nodes(cluster).collect()
    }

    /// True when no node is over-subscribed and every chunk sits on a
    /// cluster node.
    pub fn is_valid_for(&self, cluster: &ClusterState) -> bool {
        self.chunks
            .iter()
            .all(|p| cluster.contains(p.node) && self.used_on(p.node) <= cluster.gpus_per_node())
    }

    /// The placement quality of a trial as seen by the communication model
    /// (§2.1): packed when it occupies the minimal feasible number of
    /// nodes, scattered otherwise.
    pub fn quality(&self, trial: TrialId, gpus_per_node: u32) -> Option<PlacementQuality> {
        let chunks = self.get(trial)?;
        let total: u32 = chunks.iter().map(|p| p.gpus).sum();
        let minimal = total.div_ceil(gpus_per_node.max(1)) as usize;
        Some(if chunks.len() <= minimal {
            PlacementQuality::Packed
        } else {
            PlacementQuality::Scattered
        })
    }
}

/// The placement-unaware baseline of Table 1: spread each trial's workers
/// round-robin across all nodes, one GPU at a time, with no locality
/// preference ("RubberBand delegates placement of workers to the
/// underlying scheduler without indicating location preferences").
///
/// `allocations` lists `(trial, GPUs)` ordered by trial. Returns `None`
/// when the cluster lacks capacity.
pub fn scatter_placement(
    allocations: &[(TrialId, u32)],
    cluster: &ClusterState,
) -> Option<PlacementPlan> {
    let total: u32 = allocations.iter().map(|&(_, g)| g).sum();
    if total > cluster.total_gpus() {
        return None;
    }
    let mut free: Vec<(NodeId, u32)> = cluster
        .nodes()
        .iter()
        .map(|&n| (n, cluster.gpus_per_node()))
        .collect();
    let mut plan = PlacementPlan::new();
    let mut cursor = 0usize;
    for &(trial, gpus) in allocations {
        let mut chunks: BTreeMap<NodeId, u32> = BTreeMap::new();
        let mut remaining = gpus;
        while remaining > 0 {
            // Round-robin over nodes with any free GPU.
            let mut hops = 0;
            while free[cursor % free.len()].1 == 0 {
                cursor += 1;
                hops += 1;
                if hops > free.len() {
                    return None;
                }
            }
            let slot = cursor % free.len();
            free[slot].1 -= 1;
            *chunks.entry(free[slot].0).or_insert(0) += 1;
            remaining -= 1;
            cursor += 1;
        }
        plan.assign(
            trial,
            chunks
                .into_iter()
                .map(|(node, gpus)| Placement { node, gpus }),
        );
    }
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_accounting() {
        let mut c = ClusterState::with_n_nodes(3, 4);
        assert_eq!(c.total_gpus(), 12);
        assert!(c.contains(NodeId::new(1)));
        c.remove(NodeId::new(1));
        assert!(!c.contains(NodeId::new(1)));
        assert_eq!(c.total_gpus(), 8);
        c.add(NodeId::new(7));
        assert!(c.contains(NodeId::new(7)));
    }

    #[test]
    fn plan_usage_and_validity() {
        let cluster = ClusterState::with_n_nodes(2, 4);
        let mut plan = PlacementPlan::new();
        plan.assign(
            TrialId::new(0),
            vec![Placement {
                node: NodeId::new(0),
                gpus: 3,
            }],
        );
        plan.assign(
            TrialId::new(1),
            vec![Placement {
                node: NodeId::new(0),
                gpus: 1,
            }],
        );
        assert!(plan.is_valid_for(&cluster));
        assert_eq!(plan.assigned_gpus(TrialId::new(0)), 3);
        assert_eq!(plan.free_per_node(&cluster)[&NodeId::new(0)], 0);
        assert_eq!(plan.free_per_node(&cluster)[&NodeId::new(1)], 4);
        // Oversubscribe node 0.
        plan.assign(
            TrialId::new(2),
            vec![Placement {
                node: NodeId::new(0),
                gpus: 1,
            }],
        );
        assert!(!plan.is_valid_for(&cluster));
    }

    #[test]
    fn flat_storage_keeps_trials_ordered_and_contiguous() {
        let p = |node: u64, gpus: u32| Placement {
            node: NodeId::new(node),
            gpus,
        };
        let mut plan = PlacementPlan::new();
        plan.assign(TrialId::new(5), [p(0, 1)]);
        plan.assign(TrialId::new(2), vec![p(1, 4), p(2, 2)]);
        plan.assign(TrialId::new(9), [p(3, 1)]);
        // Re-assigning replaces the chunks in place.
        plan.assign(TrialId::new(5), vec![p(0, 2), p(4, 2)]);
        let seen: Vec<(u64, usize)> = plan.iter().map(|(t, c)| (t.raw(), c.len())).collect();
        assert_eq!(seen, vec![(2, 2), (5, 2), (9, 1)]);
        assert_eq!(plan.get(TrialId::new(2)).unwrap(), &[p(1, 4), p(2, 2)][..]);
        assert_eq!(plan.assigned_gpus(TrialId::new(5)), 4);
        assert_eq!(plan.len(), 3);
        let mut copy = PlacementPlan::new();
        copy.clone_from(&plan);
        assert_eq!(copy, plan);
        plan.retain_trials(|t| t != TrialId::new(5));
        let trials: Vec<TrialId> = plan.iter().map(|(t, _)| t).collect();
        assert_eq!(trials, vec![TrialId::new(2), TrialId::new(9)]);
        assert!(plan.remove(TrialId::new(9)));
        assert!(!plan.remove(TrialId::new(9)));
        assert_eq!(plan.get(TrialId::new(9)), None);
        assert_eq!(plan.assigned_gpus(TrialId::new(9)), 0);
        assert!(plan.remove(TrialId::new(2)));
        assert!(plan.is_empty());
    }

    #[test]
    fn quality_detects_scatter() {
        let mut plan = PlacementPlan::new();
        // 2 GPUs on one 4-GPU node: packed.
        plan.assign(
            TrialId::new(0),
            vec![Placement {
                node: NodeId::new(0),
                gpus: 2,
            }],
        );
        // 2 GPUs split across two nodes: scattered.
        plan.assign(
            TrialId::new(1),
            vec![
                Placement {
                    node: NodeId::new(1),
                    gpus: 1,
                },
                Placement {
                    node: NodeId::new(2),
                    gpus: 1,
                },
            ],
        );
        // 8 GPUs over two 4-GPU nodes: minimal, packed.
        plan.assign(
            TrialId::new(2),
            vec![
                Placement {
                    node: NodeId::new(3),
                    gpus: 4,
                },
                Placement {
                    node: NodeId::new(4),
                    gpus: 4,
                },
            ],
        );
        assert_eq!(
            plan.quality(TrialId::new(0), 4),
            Some(PlacementQuality::Packed)
        );
        assert_eq!(
            plan.quality(TrialId::new(1), 4),
            Some(PlacementQuality::Scattered)
        );
        assert_eq!(
            plan.quality(TrialId::new(2), 4),
            Some(PlacementQuality::Packed)
        );
        assert_eq!(plan.quality(TrialId::new(9), 4), None);
    }

    #[test]
    fn scatter_baseline_spreads_workers() {
        let cluster = ClusterState::with_n_nodes(4, 8);
        let alloc = [(TrialId::new(0), 4u32)];
        let plan = scatter_placement(&alloc, &cluster).unwrap();
        // 4 GPUs round-robin over 4 nodes → 4 chunks of 1.
        assert_eq!(plan.get(TrialId::new(0)).unwrap().len(), 4);
        assert_eq!(
            plan.quality(TrialId::new(0), 8),
            Some(PlacementQuality::Scattered)
        );
    }

    #[test]
    fn scatter_respects_capacity() {
        let cluster = ClusterState::with_n_nodes(2, 2);
        let mut alloc = vec![(TrialId::new(0), 2u32), (TrialId::new(1), 1u32)];
        let plan = scatter_placement(&alloc, &cluster).unwrap();
        assert!(plan.is_valid_for(&cluster));
        assert_eq!(plan.assigned_gpus(TrialId::new(0)), 2);
        // Exactly full still works; over capacity → None.
        alloc.push((TrialId::new(2), 1u32));
        assert!(scatter_placement(&alloc, &cluster).is_some());
        alloc.push((TrialId::new(3), 1u32));
        assert!(scatter_placement(&alloc, &cluster).is_none());
    }
}
