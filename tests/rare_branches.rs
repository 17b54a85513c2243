//! Branches of the §6 recursion that the default workloads no longer
//! take, forced at n = `HALVING_FIRST_BELOW` so the root asks the sphere
//! search first. Each test asserts that its branch ran (its counter is
//! positive) and that the answers equal the kd-tree oracle bit for bit.
//!
//! - Punt by threshold: a tiny `punt_slack` puts every node's crossing
//!   count over its `m^μ` threshold, so every node corrects through the §3
//!   query structure (the Punting Lemma's safety net).
//! - Punt by march explosion: a tiny `marching_slack` lets no march stay
//!   under its active-ball limit.
//! - Halving rescue: the random search accepts a separator that routes
//!   every point one way, and the halving cut re-splits the node instead
//!   of leaving a forced brute leaf.
//! - Unbounded-list correction: a side of at most k points leaves every
//!   list on it short (an unbounded ball, which crosses every cut), so the
//!   combine merges the whole opposite side into those lists. The test
//!   asserts its precondition on the returned tree: a leaf of at most k
//!   points.
//!
//! The auto depth guard's forced leaf is not pinned: no input is known
//! that reaches it at the default depth limit.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sepdc::core::{
    kdtree_all_knn, parallel_knn, KnnDcConfig, ParallelDcOutput, PartitionNode, HALVING_FIRST_BELOW,
};
use sepdc::geom::Point;
use sepdc::workloads::Workload;

/// Run §6 on `pts` and require the kd-tree oracle's answer bit for bit.
fn run_exact(pts: &[Point<2>], cfg: &KnnDcConfig) -> ParallelDcOutput<2> {
    let out = parallel_knn::<2, 3>(pts, cfg);
    out.knn
        .identical_to(&kdtree_all_knn(pts, cfg.k))
        .unwrap_or_else(|e| panic!("parallel vs kd-tree oracle: {e}"));
    out
}

fn uniform() -> Vec<Point<2>> {
    Workload::UniformCube.generate::<2>(HALVING_FIRST_BELOW, 61)
}

#[test]
fn tiny_punt_slack_punts_by_threshold() {
    let mut cfg = KnnDcConfig::new(4).with_seed(3);
    cfg.punt_slack = 1e-3;
    let s = run_exact(&uniform(), &cfg).stats;
    assert!(s.punts_threshold > 0, "{s:?}");
}

#[test]
fn tiny_marching_slack_punts_by_march() {
    let mut cfg = KnnDcConfig::new(4).with_seed(3);
    cfg.marching_slack = 1e-3;
    let s = run_exact(&uniform(), &cfg).stats;
    assert!(s.punts_marching > 0, "{s:?}");
}

/// 64 uniform sites, each jittered by up to 1e-3 into 2^14 points in all.
fn jittered_sites() -> Vec<Point<2>> {
    let sites = Workload::UniformCube.generate::<2>(64, 0);
    let mut jitter = ChaCha8Rng::seed_from_u64(1);
    (0..HALVING_FIRST_BELOW)
        .map(|i| {
            let s = sites[i % 64];
            Point::from([
                s[0] + jitter.gen_range(-1e-3..1e-3),
                s[1] + jitter.gen_range(-1e-3..1e-3),
            ])
        })
        .collect()
}

#[test]
fn one_sided_sphere_is_rescued_by_the_halving_cut() {
    // A wide tolerance lets the search accept a sphere whose surface band
    // holds the points its strict routing sends one way.
    let mut cfg = KnnDcConfig::new(1).with_seed(8200);
    cfg.base_case = Some(16);
    cfg.separator.tol = 0.5;
    cfg.separator.epsilon = 0.2;
    cfg.separator.max_attempts = 1;
    let s = run_exact(&jittered_sites(), &cfg).stats;
    assert!(s.halving_rescues >= 1, "{s:?}");
    assert_eq!(s.degenerate_splits, 0, "{s:?}");
}

/// 2^14 copies of (0.5, 0.5) and four points off to the side.
fn bundle_and_stragglers() -> Vec<Point<2>> {
    let mut pts = vec![Point::from([0.5, 0.5]); HALVING_FIRST_BELOW];
    pts.extend((1..=4).map(|j| Point::from([0.6 + 0.1 * j as f64, 0.5 + 0.01 * j as f64])));
    pts
}

#[test]
fn short_lists_are_corrected_against_the_whole_other_side() {
    // The root's sphere splits the four stragglers off the bundle. With
    // k = 4 each straggler knows only three neighbors, so its ball is
    // unbounded and every bundle point is a candidate.
    let cfg = KnnDcConfig::new(4).with_seed(3);
    let out = run_exact(&bundle_and_stragglers(), &cfg);
    let short_leaf = out
        .tree
        .nodes()
        .iter()
        .any(|n| matches!(*n, PartitionNode::Leaf { len, .. } if len as usize <= cfg.k));
    assert!(short_leaf, "no leaf of at most k points: {:?}", out.stats);
}
