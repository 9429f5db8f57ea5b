//! Property-based tests for the placement controller under churn.
//!
//! Randomized cases are drawn from the deterministic [`Prng`] in
//! `rb-core` (fixed seed, fixed case count), so failures reproduce
//! bit-identically and the suite runs fully offline.

use rb_core::{Prng, TrialId};
use rb_placement::{ClusterState, PlacementController};

const CASES: u64 = 128;

fn allocations(gpus: &[u32]) -> Vec<(TrialId, u32)> {
    gpus.iter()
        .enumerate()
        .map(|(i, &g)| (TrialId::new(i as u64), g))
        .collect()
}

/// Draws a vector of `1..len_hi` elements uniform in `[lo, hi)`.
fn rand_vec(rng: &mut Prng, lo: u32, hi: u32, len_hi: u64) -> Vec<u32> {
    let len = 1 + rng.next_below(len_hi - 1) as usize;
    (0..len)
        .map(|_| lo + rng.next_below((hi - lo) as u64) as u32)
        .collect()
}

/// Two consecutive reallocations over a generous cluster always leave
/// a valid, complete, locality-preserving plan, and repeating the
/// same allocations is a no-op.
#[test]
fn controller_survives_reallocation_churn() {
    let mut rng = Prng::seed_from_u64(0x91AC_0001);
    for _ in 0..CASES {
        let first = rand_vec(&mut rng, 1, 9, 10);
        let second = rand_vec(&mut rng, 1, 9, 10);
        let gpn = 4u32;
        let need = |v: &[u32]| v.iter().map(|a| a.div_ceil(gpn)).sum::<u32>();
        let nodes = need(&first).max(need(&second)).max(1);
        let cluster = ClusterState::with_n_nodes(nodes, gpn);
        let mut pc = PlacementController::new();
        pc.update(&allocations(&first), &cluster).unwrap();
        let a2 = allocations(&second);
        pc.update(&a2, &cluster).unwrap();
        assert!(pc.plan().is_valid_for(&cluster));
        for &(t, g) in &a2 {
            assert_eq!(pc.plan().assigned_gpus(t), g);
            let chunks = pc.plan().get(t).unwrap();
            assert!(
                chunks.len() as u32 <= g.div_ceil(gpn),
                "scattered: first={first:?} second={second:?}"
            );
        }
        let diff = pc.update(&a2, &cluster).unwrap();
        assert!(diff.is_noop());
    }
}

/// Scale-down either frees exactly the requested nodes while keeping
/// every trial placed, or refuses and leaves the plan untouched.
#[test]
fn scale_down_is_all_or_nothing() {
    let mut rng = Prng::seed_from_u64(0x91AC_0002);
    for _ in 0..CASES {
        let allocs = rand_vec(&mut rng, 1, 5, 8);
        let extra_nodes = rng.next_below(4) as u32;
        let remove = 1 + rng.next_below(3) as usize;
        let gpn = 4u32;
        let nodes = allocs.iter().map(|a| a.div_ceil(gpn)).sum::<u32>() + extra_nodes;
        let cluster = ClusterState::with_n_nodes(nodes.max(1), gpn);
        let map = allocations(&allocs);
        let mut pc = PlacementController::new();
        pc.update(&map, &cluster).unwrap();
        let before = pc.plan().clone();
        match pc.plan_scale_down(&cluster, remove) {
            Ok((freed, _moved)) => {
                assert_eq!(freed.len(), remove);
                for &(t, g) in &map {
                    assert_eq!(pc.plan().assigned_gpus(t), g);
                    let chunks = pc.plan().get(t).unwrap();
                    for c in chunks {
                        assert!(
                            !freed.contains(&c.node),
                            "trial on freed node: allocs={allocs:?} remove={remove}"
                        );
                    }
                }
                assert!(pc.plan().is_valid_for(&cluster));
            }
            Err(_) => {
                assert_eq!(pc.plan(), &before);
            }
        }
    }
}
