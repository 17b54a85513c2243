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
//!
//! A node's items arrive as a `Span`: ids and points in the arena order
//! the recursion's in-place partition left, so every scan here reads one
//! contiguous range, and the list of the item at arena position `p` is row
//! `p` of the shared neighbor lists.

use crate::dc::Span;
use crate::query::{QueryTree, QueryTreeConfig};
use crate::shared::SharedLists;
use rayon::prelude::*;
use sepdc_geom::ball::Ball;
use sepdc_geom::point::Point;
use sepdc_geom::shape::Separator;
use sepdc_geom::soa::FilterStats;
use sepdc_scan::CostProfile;

/// A crossing ball and its owner's arena position, which is the row of the
/// owner's list. The ball's center is the owner's point.
pub(crate) struct CrossingBall<const D: usize> {
    pub owner: u32,
    pub ball: Ball<D>,
}

/// Sides smaller than this are scanned sequentially — parallel dispatch
/// overhead dwarfs the per-id work below it.
const PAR_SCAN_CUTOFF: usize = 2048;

/// The first correction step at a node whose items are `node`, interior
/// side first (`nl` of them): collect both sides' crossing balls and fix
/// the owners whose subset ball is unbounded by a scan of the opposite
/// side. Returns the left and right crossing sets, the ε-skips and the
/// distances that scan evaluated.
///
/// ε-mode shrinks each crossing ball's radius by 1/(1+ε) here
/// ([`crate::config::eps_radius_scale`]); every later correction stage
/// reads the shrunk radii, so the whole correction inherits the
/// relaxation from this single site.
pub(crate) fn collect_both_sides<const D: usize>(
    lists: &SharedLists,
    node: Span<'_, D>,
    nl: usize,
    sep: &Separator<D>,
    epsilon: f64,
) -> (Vec<CrossingBall<D>>, Vec<CrossingBall<D>>, u64, u64) {
    let (left, right) = node.split_at(nl);
    let scale = crate::config::eps_radius_scale(epsilon);
    let (cross_l, unbounded_l, skips_l) = collect_crossing(lists, left, sep, scale);
    let (cross_r, unbounded_r, skips_r) = collect_crossing(lists, right, sep, scale);
    let evals = correct_unbounded(lists, left, &unbounded_l, right)
        + correct_unbounded(lists, right, &unbounded_r, left);
    (cross_l, cross_r, skips_l + skips_r, evals)
}

/// Collect the crossing balls of one side, reading its radii and points in
/// arena order. Owners with unbounded subset balls (a side of at most `k`
/// points) are returned separately, as arena positions, for exhaustive
/// correction.
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
    lists: &SharedLists,
    side: Span<'_, D>,
    sep: &Separator<D>,
    eps_scale: f64,
) -> (Vec<CrossingBall<D>>, Vec<u32>, u64) {
    let relaxed = eps_scale < 1.0;
    // Scan the points whose first one sits at arena position `first`.
    let scan = |first: usize, pts: &[Point<D>]| {
        let mut crossing = Vec::new();
        let mut unbounded = Vec::new();
        let mut eps_skips = 0u64;
        for (pos, p) in (first..).zip(pts) {
            let r_sq = lists.radius_sq(pos);
            if !r_sq.is_finite() {
                unbounded.push(pos as u32);
                continue;
            }
            let r = r_sq.sqrt();
            let ball = Ball::new(*p, r * eps_scale);
            if ball.crosses(sep) {
                crossing.push(CrossingBall {
                    owner: pos as u32,
                    ball,
                });
            } else if relaxed && Ball::new(*p, r).crosses(sep) {
                eps_skips += 1;
            }
        }
        (crossing, unbounded, eps_skips)
    };
    if side.len() < PAR_SCAN_CUTOFF {
        return scan(side.off, side.pts);
    }
    let per_chunk: Vec<(Vec<CrossingBall<D>>, Vec<u32>, u64)> = side
        .pts
        .par_chunks(PAR_SCAN_CUTOFF)
        .enumerate()
        .map(|(c, pts)| scan(side.off + c * PAR_SCAN_CUTOFF, pts))
        .collect();
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
/// `unbounded` owners, arena positions on the side `own` (and vice versa
/// candidates are handled by the caller's other direction). Rare path;
/// linear in `|unbounded| · |opposite|`. Owners are corrected in parallel
/// when the pair count is large — each owner writes only its own list, and
/// `merge_candidate` is order-independent, so the result is deterministic.
/// Returns the number of distances evaluated.
fn correct_unbounded<const D: usize>(
    lists: &SharedLists,
    own: Span<'_, D>,
    unbounded: &[u32],
    opposite: Span<'_, D>,
) -> u64 {
    let one = |&o: &u32| {
        // One distance sweep over the opposite side's points, then a
        // batched merge (the cached radius is loaded once per batch;
        // `merge_candidate` re-checks under the lock, so the lists are
        // identical to the per-candidate path).
        let po = own.point(o as usize);
        let dists: Vec<f64> = opposite.pts.iter().map(|p| po.dist_sq(p)).collect();
        let owner = own.id(o as usize);
        lists.merge_batch(o as usize, owner, opposite.ids, &dists, f64::INFINITY);
    };
    let pairs = unbounded.len().saturating_mul(opposite.len());
    if pairs >= PAR_SCAN_CUTOFF && unbounded.len() > 1 {
        unbounded.par_iter().for_each(one);
    } else {
        unbounded.iter().for_each(one);
    }
    pairs as u64
}

/// Query-structure correction over an explicit crossing-ball set.
///
/// Builds the Section 3 structure on the crossing balls and queries it with
/// every point of the subset, a range of the arena; a point strictly inside
/// a crossing ball owned by another point is merged into that owner's
/// list.
///
/// Returns the work–depth cost of the build plus the query sweep, and the
/// accumulated ε skip count of the leaf cover scans.
pub(crate) fn correct_via_query<const D: usize, const E: usize>(
    lists: &SharedLists,
    subset: Span<'_, D>,
    crossing: &[CrossingBall<D>],
    qcfg: QueryTreeConfig,
    seed: u64,
) -> (CostProfile, FilterStats) {
    if crossing.is_empty() || subset.ids.is_empty() {
        return (CostProfile::zero(), FilterStats::default());
    }
    let balls: Vec<Ball<D>> = crossing.iter().map(|c| c.ball).collect();
    let tree = QueryTree::build::<E>(&balls, qcfg, seed);
    let height = tree.stats().height as u64;

    // Every subset point queries the structure; merges go through the
    // shared lists (order-independent). Chunks reuse one set of scratch
    // buffers; the leaf cover test runs through the blocked SoA kernel.
    // `first` is the arena position of `ids[0]`.
    let process = |first: usize, ids: &[u32], pts: &[Point<D>]| -> FilterStats {
        let mut stats = FilterStats::default();
        let mut scratch: Vec<f64> = Vec::new();
        let mut hits: Vec<u32> = Vec::new();
        for ((pos, &p_id), p) in (first..).zip(ids).zip(pts) {
            hits.clear();
            tree.covering_into(p, true, &mut scratch, &mut hits, &mut stats);
            // A point is merged into every ball owned by another point,
            // whatever its side: a same-side owner's solved list already
            // holds every point strictly inside its ball, so that merge
            // changes nothing. Ownership, not a re-classification against
            // the separator, decides (robust to surface ties).
            for &h in &hits {
                let c = &crossing[h as usize];
                if c.owner as usize != pos {
                    // The ball's center is its owner's point.
                    let d = p.dist_sq(&c.ball.center);
                    let owner = subset.id(c.owner as usize);
                    lists.merge_candidate(c.owner as usize, owner, p_id, d);
                }
            }
        }
        stats
    };
    let stats = if subset.len() >= PAR_SCAN_CUTOFF {
        subset
            .ids
            .par_chunks(PAR_SCAN_CUTOFF)
            .zip(subset.pts.par_chunks(PAR_SCAN_CUTOFF))
            .enumerate()
            .fold(FilterStats::default, |mut acc, (c, (ids, pts))| {
                acc.merge(&process(subset.off + c * PAR_SCAN_CUTOFF, ids, pts));
                acc
            })
            .reduce(FilterStats::default, |mut a, b| {
                a.merge(&b);
                a
            })
    } else {
        process(subset.off, subset.ids, subset.pts)
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

    /// Points `0..n` on a line, split at x = mid, each side solved on its
    /// own (mimicking the recursion). The arena is the id order, whose
    /// first `nl` items are the left side, so rows are ids.
    fn line_fixture(
        n: usize,
        k: usize,
        mid: f64,
    ) -> (Vec<Point<1>>, Vec<u32>, usize, SharedLists, Separator<1>) {
        let points: Vec<Point<1>> = (0..n).map(|i| Point::from([i as f64])).collect();
        let sep: Separator<1> = Hyperplane::axis_aligned(0, mid).into();
        let ids: Vec<u32> = (0..n as u32).collect();
        let nl = ids.iter().filter(|&&i| (i as f64) < mid).count();
        let lists = SharedLists::new(n, k);
        let mut tmp = KnnResult::new(n, k);
        solve_subset_brute(&points, &ids[..nl], &mut tmp);
        solve_subset_brute(&points, &ids[nl..], &mut tmp);
        for i in 0..n {
            lists.set_list(i, tmp.neighbors(i));
        }
        (points, ids, nl, lists, sep)
    }

    fn span<'a>(ids: &'a [u32], pts: &'a [Point<1>]) -> Span<'a, 1> {
        Span { ids, pts, off: 0 }
    }

    #[test]
    fn collect_crossing_identifies_boundary_balls() {
        let (points, ids, nl, lists, sep) = line_fixture(20, 1, 9.5);
        let left = span(&ids, &points).split_at(nl).0;
        let (crossing, unbounded, eps_skips) = collect_crossing(&lists, left, &sep, 1.0);
        assert!(unbounded.is_empty());
        assert_eq!(eps_skips, 0);
        // Only the point at x = 9 has a subset ball (radius 1) crossing
        // x = 9.5.
        assert_eq!(crossing.len(), 1);
        assert_eq!(crossing[0].owner, 9);
    }

    #[test]
    fn collect_crossing_eps_shrink_drops_and_counts_marginal_balls() {
        let (points, ids, nl, lists, sep) = line_fixture(20, 1, 9.5);
        let left = span(&ids, &points).split_at(nl).0;
        // The x = 9 ball has radius 1 and crosses x = 9.5 by exactly 0.5;
        // shrinking to radius 0.4 drops it and counts one ε skip.
        let (crossing, unbounded, eps_skips) = collect_crossing(&lists, left, &sep, 0.4);
        assert!(unbounded.is_empty());
        assert!(crossing.is_empty());
        assert_eq!(eps_skips, 1);
        // A shrink that still crosses keeps the ball and counts nothing.
        let (crossing, _, eps_skips) = collect_crossing(&lists, left, &sep, 0.9);
        assert_eq!(crossing.len(), 1);
        assert_eq!(eps_skips, 0);
    }

    #[test]
    fn query_correction_fixes_boundary_lists() {
        let (points, ids, nl, lists, sep) = line_fixture(20, 2, 9.5);
        let node = span(&ids, &points);
        let mut crossing = Vec::new();
        let (left, right) = node.split_at(nl);
        for side in [left, right] {
            let (c, u, _) = collect_crossing(&lists, side, &sep, 1.0);
            assert!(u.is_empty());
            crossing.extend(c);
        }
        let (_, stats) =
            correct_via_query::<1, 2>(&lists, node, &crossing, QueryTreeConfig::default(), 7);
        assert_eq!(stats, FilterStats::default(), "exact mode skips nothing");
        let result = lists.into_result(&ids);
        let oracle = crate::brute::brute_force_knn(&points, 2);
        result.same_distances(&oracle, 1e-12).unwrap();
    }

    #[test]
    fn unbounded_owners_are_corrected_exhaustively() {
        // The left side has a single point: its subset ball is unbounded.
        let points: Vec<Point<1>> = (0..10).map(|i| Point::from([i as f64])).collect();
        let ids: Vec<u32> = (0..10).collect();
        let lists = SharedLists::new(10, 1);
        let mut tmp = KnnResult::new(10, 1);
        solve_subset_brute(&points, &ids[1..], &mut tmp);
        for i in 1..10 {
            lists.set_list(i, tmp.neighbors(i));
        }
        let sep: Separator<1> = Hyperplane::axis_aligned(0, 0.5).into();
        let (left, right) = span(&ids, &points).split_at(1);
        let (_, unbounded, _) = collect_crossing(&lists, left, &sep, 1.0);
        assert_eq!(unbounded, vec![0]);
        assert_eq!(correct_unbounded(&lists, left, &unbounded, right), 9);
        assert_eq!(lists.radius_sq(0), 1.0);
    }

    #[test]
    fn empty_crossing_is_free() {
        let points: Vec<Point<1>> = (0..4).map(|i| Point::from([i as f64])).collect();
        let lists = SharedLists::new(4, 1);
        let (cost, stats) = correct_via_query::<1, 2>(
            &lists,
            span(&[0, 1, 2, 3], &points),
            &[],
            QueryTreeConfig::default(),
            1,
        );
        assert_eq!(cost, CostProfile::zero());
        assert_eq!(stats, FilterStats::default());
    }
}
