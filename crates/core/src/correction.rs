//! The correction step of the divide-and-conquer recursions.
//!
//! After solving the two sides of a separator recursively, only the points
//! whose subset k-neighborhood ball crosses the separator can have wrong
//! lists (Lemma 6.1). Two correction strategies exist:
//!
//! * **query-structure correction** (`correct_via_query`) — the paper's
//!   Section 5 combine step and the Section 6 *punt* path: build the
//!   Section 3 search structure over the crossing balls and let every point
//!   of the subset query it;
//! * **fast correction** (in [`crate::parallel`]) — march crossing balls
//!   down the opposite partition subtree (Section 6.2) in `O(1)` rounds.
//!
//! Both funnel candidate `(owner, point)` pairs into
//! `SharedLists::merge_candidate`, which is order-independent, so the
//! parallel corrections are deterministic.

use crate::query::{QueryTree, QueryTreeConfig};
use crate::shared::SharedLists;
use rayon::prelude::*;
use sepdc_geom::ball::Ball;
use sepdc_geom::point::Point;
use sepdc_geom::shape::Separator;
use sepdc_geom::soa::{FilterStats, SoaPoints};
use sepdc_scan::CostProfile;

/// A crossing ball together with its owning point id.
pub(crate) struct CrossingBall<const D: usize> {
    pub owner: u32,
    pub ball: Ball<D>,
}

/// Sides smaller than this are scanned sequentially — parallel dispatch
/// overhead dwarfs the per-id work below it.
const PAR_SCAN_CUTOFF: usize = 2048;

/// The first correction step at a node whose items are `ids`, interior
/// side first (`nl` of them): collect both sides' crossing balls and fix
/// the owners whose subset ball is unbounded by a scan of the opposite
/// side. Returns the left and right crossing sets and the ε-skips.
///
/// ε-mode shrinks each crossing ball's radius by 1/(1+ε) here
/// ([`crate::config::eps_radius_scale`]); every later correction stage
/// reads the shrunk radii, so the whole correction inherits the
/// relaxation from this single site.
pub(crate) fn collect_both_sides<const D: usize>(
    points: &[Point<D>],
    soa: &SoaPoints<D>,
    lists: &SharedLists,
    ids: &[u32],
    nl: usize,
    sep: &Separator<D>,
    epsilon: f64,
) -> (Vec<CrossingBall<D>>, Vec<CrossingBall<D>>, u64) {
    let (left, right) = ids.split_at(nl);
    let scale = crate::config::eps_radius_scale(epsilon);
    let (cross_l, unbounded_l, skips_l) = collect_crossing(points, lists, left, sep, scale);
    let (cross_r, unbounded_r, skips_r) = collect_crossing(points, lists, right, sep, scale);
    correct_unbounded(soa, lists, &unbounded_l, right);
    correct_unbounded(soa, lists, &unbounded_r, left);
    (cross_l, cross_r, skips_l + skips_r)
}

/// Collect the crossing balls of one side. Owners with unbounded subset
/// balls (side smaller than `k+1`, possible only after degenerate fallback
/// cuts) are returned separately for exhaustive correction.
///
/// `eps_scale` is the ε-mode radius shrink [`crate::config::eps_radius_scale`]
/// (`1.0` = exact). When `< 1.0` each subset ball is tested with radius
/// `r · eps_scale`: balls that cross only at full radius are dropped, which
/// is exactly what bounds the reported k-th distance by `(1+ε)` times the
/// exact one (DESIGN.md §17). The third return value counts those drops so
/// the relaxation stays observable; it is always `0` at `eps_scale = 1.0`,
/// where the constructed balls are bit-identical to the unscaled ones
/// (IEEE: `x * 1.0 == x`).
///
/// Large sides are scanned as parallel chunks with per-chunk buffers; the
/// chunk results are concatenated in chunk order, so the output is
/// identical to the sequential scan regardless of thread count.
fn collect_crossing<const D: usize>(
    points: &[Point<D>],
    lists: &SharedLists,
    side_ids: &[u32],
    sep: &Separator<D>,
    eps_scale: f64,
) -> (Vec<CrossingBall<D>>, Vec<u32>, u64) {
    let relaxed = eps_scale < 1.0;
    let scan = |ids: &[u32]| {
        let mut crossing = Vec::new();
        let mut unbounded = Vec::new();
        let mut eps_skips = 0u64;
        for &i in ids {
            let r_sq = lists.radius_sq(i as usize);
            if !r_sq.is_finite() {
                unbounded.push(i);
                continue;
            }
            let r = r_sq.sqrt();
            let ball = Ball::new(points[i as usize], r * eps_scale);
            if ball.crosses(sep) {
                crossing.push(CrossingBall { owner: i, ball });
            } else if relaxed && Ball::new(points[i as usize], r).crosses(sep) {
                eps_skips += 1;
            }
        }
        (crossing, unbounded, eps_skips)
    };
    if side_ids.len() < PAR_SCAN_CUTOFF {
        return scan(side_ids);
    }
    let per_chunk: Vec<(Vec<CrossingBall<D>>, Vec<u32>, u64)> =
        side_ids.par_chunks(PAR_SCAN_CUTOFF).map(scan).collect();
    let mut crossing = Vec::new();
    let mut unbounded = Vec::new();
    let mut eps_skips = 0u64;
    for (c, u, s) in per_chunk {
        crossing.extend(c);
        unbounded.extend(u);
        eps_skips += s;
    }
    (crossing, unbounded, eps_skips)
}

/// Exhaustively merge every point of `opposite` into the lists of the
/// `unbounded` owners (and vice versa candidates are handled by the
/// caller's other direction). Rare path; linear in
/// `|unbounded| · |opposite|`. Owners are corrected in parallel when the
/// pair count is large — each owner writes only its own list, and
/// `merge_candidate` is order-independent, so the result is deterministic.
fn correct_unbounded<const D: usize>(
    soa: &SoaPoints<D>,
    lists: &SharedLists,
    unbounded: &[u32],
    opposite: &[u32],
) {
    let one = |&o: &u32| {
        // One blocked distance sweep per owner, then a batched merge (the
        // cached radius is loaded once per batch; `merge_candidate`
        // re-checks under the lock, so the lists are identical to the
        // per-candidate path).
        let po = soa.point(o as usize);
        let mut dists = vec![0.0; opposite.len()];
        soa.dist_sq_gather(&po, opposite, &mut dists);
        lists.merge_batch(o as usize, opposite, &dists, f64::INFINITY);
    };
    if unbounded.len().saturating_mul(opposite.len()) >= PAR_SCAN_CUTOFF && unbounded.len() > 1 {
        unbounded.par_iter().for_each(one);
    } else {
        unbounded.iter().for_each(one);
    }
}

/// Query-structure correction over an explicit crossing-ball set.
///
/// Builds the Section 3 structure on the crossing balls and queries it with
/// every point of the subset; a point strictly inside a crossing ball from
/// the *opposite* side is merged into that ball owner's list.
///
/// Returns the work–depth cost of the build plus the query sweep, and the
/// accumulated ε skip count of the leaf cover scans.
pub(crate) fn correct_via_query<const D: usize, const E: usize>(
    soa: &SoaPoints<D>,
    lists: &SharedLists,
    subset: &[u32],
    crossing: &[CrossingBall<D>],
    qcfg: QueryTreeConfig,
    seed: u64,
) -> (CostProfile, FilterStats) {
    if crossing.is_empty() || subset.is_empty() {
        return (CostProfile::zero(), FilterStats::default());
    }
    let balls: Vec<Ball<D>> = crossing.iter().map(|c| c.ball).collect();
    let tree = QueryTree::build::<E>(&balls, qcfg, seed);
    let height = tree.stats().height as u64;

    // Every subset point queries the structure; merges go through the
    // shared lists (order-independent). Chunks reuse one set of scratch
    // buffers: the leaf cover test and the owner-distance evaluation both
    // run through the blocked SoA kernels.
    let process = |ids: &[u32]| -> FilterStats {
        let mut stats = FilterStats::default();
        let mut scratch: Vec<f64> = Vec::new();
        let mut hits: Vec<u32> = Vec::new();
        let mut owners: Vec<u32> = Vec::new();
        let mut dists: Vec<f64> = Vec::new();
        for &p_id in ids {
            let p = soa.point(p_id as usize);
            hits.clear();
            tree.covering_into(&p, true, &mut scratch, &mut hits, &mut stats);
            // Which side is this point on? Determined by ownership: a point
            // corrects only balls owned by the *other* side. We recover the
            // side from the crossing metadata at merge time instead of
            // re-classifying against the separator (robust to surface ties).
            owners.clear();
            for &ball_local in &hits {
                let o = crossing[ball_local as usize].owner;
                if o != p_id {
                    owners.push(o);
                }
            }
            if owners.is_empty() {
                continue;
            }
            soa.dist_sq_gather_into(&p, &owners, &mut dists);
            for (&o, &d) in owners.iter().zip(&dists) {
                lists.merge_candidate(o as usize, p_id, d);
            }
        }
        stats
    };
    let stats = if subset.len() >= PAR_SCAN_CUTOFF {
        subset
            .par_chunks(PAR_SCAN_CUTOFF)
            .fold(FilterStats::default, |mut acc, chunk| {
                acc.merge(&process(chunk));
                acc
            })
            .reduce(FilterStats::default, |mut a, b| {
                a.merge(&b);
                a
            })
    } else {
        process(subset)
    };

    // Build cost, then one query round of depth = tree height + leaf scan,
    // executed by all subset points in parallel (unit rounds each).
    let cost = tree
        .build_cost()
        .then(CostProfile::rounds(height + 1, subset.len() as u64))
        .with_punt();
    (cost, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::solve_subset_brute;
    use crate::KnnResult;
    use sepdc_geom::Hyperplane;

    /// Points on a line, split at x = mid; solve sides independently, then
    /// correct and compare against the global answer.
    fn line_fixture(
        n: usize,
        k: usize,
        mid: f64,
    ) -> (Vec<Point<1>>, SharedLists, Vec<u32>, Vec<u32>, Separator<1>) {
        let points: Vec<Point<1>> = (0..n).map(|i| Point::from([i as f64])).collect();
        let sep: Separator<1> = Hyperplane::axis_aligned(0, mid).into();
        let left: Vec<u32> = (0..n as u32).filter(|&i| (i as f64) < mid).collect();
        let right: Vec<u32> = (0..n as u32).filter(|&i| (i as f64) > mid).collect();
        let lists = SharedLists::new(n, k);
        // Solve each side independently (mimicking recursion).
        let mut tmp = KnnResult::new(n, k);
        solve_subset_brute(&points, &left, &mut tmp);
        solve_subset_brute(&points, &right, &mut tmp);
        for i in 0..n {
            lists.set_list(i, tmp.neighbors(i));
        }
        (points, lists, left, right, sep)
    }

    #[test]
    fn collect_crossing_identifies_boundary_balls() {
        let (points, lists, left, _right, sep) = line_fixture(20, 1, 9.5);
        let (crossing, unbounded, eps_skips) = collect_crossing(&points, &lists, &left, &sep, 1.0);
        assert!(unbounded.is_empty());
        assert_eq!(eps_skips, 0);
        // Only the point at x = 9 has a subset ball (radius 1) crossing
        // x = 9.5.
        assert_eq!(crossing.len(), 1);
        assert_eq!(crossing[0].owner, 9);
    }

    #[test]
    fn collect_crossing_eps_shrink_drops_and_counts_marginal_balls() {
        let (points, lists, left, _right, sep) = line_fixture(20, 1, 9.5);
        // The x = 9 ball has radius 1 and crosses x = 9.5 by exactly 0.5;
        // shrinking to radius 0.4 drops it and counts one ε skip.
        let (crossing, unbounded, eps_skips) = collect_crossing(&points, &lists, &left, &sep, 0.4);
        assert!(unbounded.is_empty());
        assert!(crossing.is_empty());
        assert_eq!(eps_skips, 1);
        // A shrink that still crosses keeps the ball and counts nothing.
        let (crossing, _, eps_skips) = collect_crossing(&points, &lists, &left, &sep, 0.9);
        assert_eq!(crossing.len(), 1);
        assert_eq!(eps_skips, 0);
    }

    #[test]
    fn query_correction_fixes_boundary_lists() {
        let (points, lists, left, right, sep) = line_fixture(20, 2, 9.5);
        let mut crossing = Vec::new();
        for ids in [&left, &right] {
            let (c, u, _) = collect_crossing(&points, &lists, ids, &sep, 1.0);
            assert!(u.is_empty());
            crossing.extend(c);
        }
        let subset: Vec<u32> = (0..20).collect();
        let soa = SoaPoints::from_points(&points);
        let (_, stats) = correct_via_query::<1, 2>(
            &soa,
            &lists,
            &subset,
            &crossing,
            QueryTreeConfig::default(),
            7,
        );
        assert_eq!(stats, FilterStats::default(), "exact mode skips nothing");
        let result = lists.into_result();
        let oracle = crate::brute::brute_force_knn(&points, 2);
        result.same_distances(&oracle, 1e-12).unwrap();
    }

    #[test]
    fn unbounded_owners_are_corrected_exhaustively() {
        // Left side has a single point: its subset ball is unbounded.
        let points: Vec<Point<1>> = (0..10).map(|i| Point::from([i as f64])).collect();
        let lists = SharedLists::new(10, 1);
        let left = vec![0u32];
        let right: Vec<u32> = (1..10).collect();
        let mut tmp = KnnResult::new(10, 1);
        solve_subset_brute(&points, &right, &mut tmp);
        for i in 1..10 {
            lists.set_list(i, tmp.neighbors(i));
        }
        let sep: Separator<1> = Hyperplane::axis_aligned(0, 0.5).into();
        let (_, unbounded, _) = collect_crossing(&points, &lists, &left, &sep, 1.0);
        assert_eq!(unbounded, vec![0]);
        let soa = SoaPoints::from_points(&points);
        correct_unbounded(&soa, &lists, &unbounded, &right);
        assert_eq!(lists.radius_sq(0), 1.0);
    }

    #[test]
    fn empty_crossing_is_free() {
        let points: Vec<Point<1>> = (0..4).map(|i| Point::from([i as f64])).collect();
        let lists = SharedLists::new(4, 1);
        let soa = SoaPoints::from_points(&points);
        let (cost, stats) = correct_via_query::<1, 2>(
            &soa,
            &lists,
            &[0, 1, 2, 3],
            &[],
            QueryTreeConfig::default(),
            1,
        );
        assert_eq!(cost, CostProfile::zero());
        assert_eq!(stats, FilterStats::default());
    }
}
