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
//! Both end in §6.2's k-closest fix, one crossing ball at a time: a ball's
//! candidates go to its owner's row and no other, so the fixes run per
//! owner (`rows::apply_per_owner`), each chunk of owners writing its own
//! range of the node's rows. The query correction first collects its
//! (ball, candidate, distance) triples read-only. Merges are
//! order-independent, so the corrections are deterministic.
//!
//! A node's items arrive as a `Span` beside its `Rows`: ids and points in
//! the order the recursion's in-place partition left, so every scan here
//! reads one contiguous range, and the list of the item at position `p` of
//! the node is row `p`.

use crate::dc::Span;
use crate::query::{QueryTree, QueryTreeConfig};
use crate::rows::{apply_per_owner, for_each_owner, Rows};
use rayon::prelude::*;
use sepdc_geom::ball::{Ball, FilterStats};
use sepdc_geom::point::Point;
use sepdc_geom::shape::Separator;
use sepdc_scan::CostProfile;

/// Crossing balls in ascending owner order, column by column. An owner is
/// a position of the node, so it is also the row of the owner's list; a
/// ball's center is its owner's point.
#[derive(Default)]
pub(crate) struct Crossing<const D: usize> {
    /// The owners' positions, strictly ascending.
    pub owners: Vec<u32>,
    /// The owners' subset balls.
    pub balls: Vec<Ball<D>>,
}

impl<const D: usize> Crossing<D> {
    /// Number of balls.
    pub(crate) fn len(&self) -> usize {
        self.owners.len()
    }

    /// `true` when no ball crosses.
    pub(crate) fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// Append `other`, whose owners all follow this set's.
    pub(crate) fn append(&mut self, mut other: Self) {
        self.owners.append(&mut other.owners);
        self.balls.append(&mut other.balls);
    }
}

/// Sides smaller than this are scanned sequentially — parallel dispatch
/// overhead dwarfs the per-id work below it. It is also the least work
/// (distances or merges) a chunk of owners takes in parallel.
const PAR_SCAN_CUTOFF: usize = 2048;

/// The first correction step at a node whose items are `node`, interior
/// side first (`nl` of them), and whose rows are `rows`: collect both
/// sides' crossing balls and fix the owners whose subset ball is unbounded
/// by a scan of the opposite side. Returns the left and right crossing
/// sets, the ε-skips and the distances that scan evaluated.
///
/// ε-mode shrinks each crossing ball's radius by 1/(1+ε) here
/// ([`crate::config::eps_radius_scale`]); every later correction stage
/// reads the shrunk radii, so the whole correction inherits the
/// relaxation from this single site.
pub(crate) fn collect_both_sides<const D: usize>(
    mut rows: Rows<'_>,
    node: Span<'_, D>,
    nl: usize,
    sep: &Separator<D>,
    epsilon: f64,
) -> (Crossing<D>, Crossing<D>, u64, u64) {
    let (left, right) = node.split_at(nl);
    let scale = crate::config::eps_radius_scale(epsilon);
    let (radius_l, radius_r) = rows.radius_sq().split_at(nl);
    let (cross_l, unbounded_l, skips_l) = collect_crossing(radius_l, left.pts, 0, sep, scale);
    let (cross_r, unbounded_r, skips_r) = collect_crossing(radius_r, right.pts, nl, sep, scale);
    let evals = correct_unbounded(rows.reborrow(), node, &unbounded_l, right)
        + correct_unbounded(rows, node, &unbounded_r, left);
    (cross_l, cross_r, skips_l + skips_r, evals)
}

/// Collect the crossing balls of one side from its points and their rows'
/// radii, both in position order; the side's first point is node position
/// `first`. Owners with unbounded subset balls (a side of at most `k`
/// points) are returned separately, as positions, for exhaustive
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
    radius_sq: &[f64],
    pts: &[Point<D>],
    first: usize,
    sep: &Separator<D>,
    eps_scale: f64,
) -> (Crossing<D>, Vec<u32>, u64) {
    let relaxed = eps_scale < 1.0;
    let ball = |i: usize, r: f64| Ball::new(pts[i], r * eps_scale);
    // The owners first; their balls are built once the count is known.
    let scan = |from: usize, radius_sq: &[f64]| {
        let mut owners = Vec::new();
        let mut unbounded = Vec::new();
        let mut eps_skips = 0u64;
        for (i, &r_sq) in (from..).zip(radius_sq) {
            if !r_sq.is_finite() {
                unbounded.push((first + i) as u32);
                continue;
            }
            let r = r_sq.sqrt();
            if ball(i, r).crosses(sep) {
                owners.push((first + i) as u32);
            } else if relaxed && Ball::new(pts[i], r).crosses(sep) {
                eps_skips += 1;
            }
        }
        (owners, unbounded, eps_skips)
    };
    let (owners, unbounded, eps_skips) = if pts.len() < PAR_SCAN_CUTOFF {
        scan(0, radius_sq)
    } else {
        let per_chunk: Vec<(Vec<u32>, Vec<u32>, u64)> = radius_sq
            .par_chunks(PAR_SCAN_CUTOFF)
            .enumerate()
            .map(|(c, radius_sq)| scan(c * PAR_SCAN_CUTOFF, radius_sq))
            .collect();
        let mut all = (Vec::new(), Vec::new(), 0u64);
        for (o, u, s) in per_chunk {
            all.0.extend(o);
            all.1.extend(u);
            all.2 += s;
        }
        all
    };
    let balls = owners
        .iter()
        .map(|&o| {
            let i = o as usize - first;
            ball(i, radius_sq[i].sqrt())
        })
        .collect();
    (Crossing { owners, balls }, unbounded, eps_skips)
}

/// Exhaustively merge every point of `opposite` into the lists of the
/// `unbounded` owners, positions of `node` on the other side (the caller
/// handles the other direction). Rare path; linear in `|unbounded| ·
/// |opposite|`. Each owner writes only its own row, so owners are corrected
/// in parallel when the pair count is large. Returns the number of
/// distances evaluated.
fn correct_unbounded<const D: usize>(
    rows: Rows<'_>,
    node: Span<'_, D>,
    unbounded: &[u32],
    opposite: Span<'_, D>,
) -> u64 {
    let per_owner = opposite.len();
    for_each_owner(
        rows,
        unbounded,
        |b| b * per_owner,
        PAR_SCAN_CUTOFF,
        |b, row, dists| {
            // One distance sweep over the opposite side's points, then a
            // batched merge.
            let po = node.pts[unbounded[b] as usize];
            dists.clear();
            dists.extend(opposite.pts.iter().map(|p| po.dist_sq(p)));
            row.merge_batch(opposite.ids, dists, f64::INFINITY);
            per_owner as u64
        },
    )
}

/// Query-structure correction over an explicit crossing-ball set.
///
/// Builds the Section 3 structure on the crossing balls and queries it with
/// every point of the subset, the node whose rows are `rows`; a point
/// strictly inside a crossing ball owned by another point is merged into
/// that owner's list.
///
/// Returns the work–depth cost of the build plus the query sweep, and the
/// accumulated ε skip count of the leaf cover scans.
pub(crate) fn correct_via_query<const D: usize, const E: usize>(
    rows: Rows<'_>,
    subset: Span<'_, D>,
    crossing: &Crossing<D>,
    qcfg: QueryTreeConfig,
    seed: u64,
) -> (CostProfile, FilterStats) {
    if crossing.is_empty() || subset.ids.is_empty() {
        return (CostProfile::zero(), FilterStats::default());
    }
    let tree = QueryTree::build::<E>(&crossing.balls, qcfg, seed);
    let height = tree.stats().height as u64;

    // Every subset point queries the structure, read-only, and offers
    // itself to each ball it lies in as a (ball, candidate, distance)
    // triple. An offer beyond the owner's current radius is dropped here:
    // radii only shrink while the offers are applied, so the merge would
    // reject it too. Chunks reuse one hit buffer; the leaf cover test reads
    // the ball array. `first` is the position of `ids[0]`.
    let radius_sq = rows.radius_sq();
    let scan = |first: usize, ids: &[u32], pts: &[Point<D>]| {
        let mut stats = FilterStats::default();
        let mut offers: Vec<(u32, u32, f64)> = Vec::new();
        let mut hits: Vec<u32> = Vec::new();
        for ((pos, &p_id), p) in (first..).zip(ids).zip(pts) {
            hits.clear();
            tree.covering_into(p, true, &mut hits, &mut stats);
            // A point is offered to every ball owned by another point,
            // whatever its side: a same-side owner's solved list already
            // holds every point strictly inside its ball, so that merge
            // changes nothing. Ownership, not a re-classification against
            // the separator, decides (robust to surface ties).
            for &h in &hits {
                let owner = crossing.owners[h as usize] as usize;
                if owner != pos {
                    // The ball's center is its owner's point.
                    let d = p.dist_sq(&crossing.balls[h as usize].center);
                    if d <= radius_sq[owner] {
                        offers.push((h, p_id, d));
                    }
                }
            }
        }
        (offers, stats)
    };
    let per_chunk: Vec<_> = if subset.len() >= PAR_SCAN_CUTOFF {
        subset
            .ids
            .par_chunks(PAR_SCAN_CUTOFF)
            .zip(subset.pts.par_chunks(PAR_SCAN_CUTOFF))
            .enumerate()
            .map(|(c, (ids, pts))| scan(c * PAR_SCAN_CUTOFF, ids, pts))
            .collect()
    } else {
        vec![scan(0, subset.ids, subset.pts)]
    };
    let mut stats = FilterStats::default();
    let mut offers = Vec::new();
    for (o, s) in per_chunk {
        offers.extend(o);
        stats.merge(&s);
    }

    // §6.2's k-closest fix, per owner.
    apply_per_owner(
        rows,
        &crossing.owners,
        &offers,
        |&(b, _, _)| b as usize,
        PAR_SCAN_CUTOFF,
        |&(_, j, d), row, _| u64::from(row.merge(j, d)),
    );

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
    use crate::rows::RowStore;
    use crate::KnnResult;
    use sepdc_geom::Hyperplane;

    /// Points `0..n` on a line, split at x = mid, each side solved on its
    /// own (mimicking the recursion). The node is the id order, whose
    /// first `nl` items are the left side, so rows are ids.
    fn line_fixture(
        n: usize,
        k: usize,
        mid: f64,
    ) -> (Vec<Point<1>>, Vec<u32>, usize, RowStore, Separator<1>) {
        let points: Vec<Point<1>> = (0..n).map(|i| Point::from([i as f64])).collect();
        let sep: Separator<1> = Hyperplane::axis_aligned(0, mid).into();
        let ids: Vec<u32> = (0..n as u32).collect();
        let nl = ids.iter().filter(|&&i| (i as f64) < mid).count();
        let mut store = RowStore::new(n, k);
        let mut tmp = KnnResult::new(n, k);
        solve_subset_brute(&points, &ids[..nl], &mut tmp);
        solve_subset_brute(&points, &ids[nl..], &mut tmp);
        let mut rows = store.rows();
        for i in 0..n {
            rows.set_list(i, tmp.neighbors(i));
        }
        (points, ids, nl, store, sep)
    }

    fn span<'a>(ids: &'a [u32], pts: &'a [Point<1>]) -> Span<'a, 1> {
        Span { ids, pts }
    }

    #[test]
    fn collect_crossing_identifies_boundary_balls() {
        let (points, _, nl, mut store, sep) = line_fixture(20, 1, 9.5);
        let rows = store.rows();
        let (crossing, unbounded, eps_skips) =
            collect_crossing(&rows.radius_sq()[..nl], &points[..nl], 0, &sep, 1.0);
        assert!(unbounded.is_empty());
        assert_eq!(eps_skips, 0);
        // Only the point at x = 9 has a subset ball (radius 1) crossing
        // x = 9.5.
        assert_eq!(crossing.owners, vec![9]);
    }

    #[test]
    fn collect_crossing_eps_shrink_drops_and_counts_marginal_balls() {
        let (points, _, nl, mut store, sep) = line_fixture(20, 1, 9.5);
        let rows = store.rows();
        let radius_l = &rows.radius_sq()[..nl];
        // The x = 9 ball has radius 1 and crosses x = 9.5 by exactly 0.5;
        // shrinking to radius 0.4 drops it and counts one ε skip.
        let (crossing, unbounded, eps_skips) =
            collect_crossing(radius_l, &points[..nl], 0, &sep, 0.4);
        assert!(unbounded.is_empty());
        assert!(crossing.is_empty());
        assert_eq!(eps_skips, 1);
        // A shrink that still crosses keeps the ball and counts nothing.
        let (crossing, _, eps_skips) = collect_crossing(radius_l, &points[..nl], 0, &sep, 0.9);
        assert_eq!(crossing.len(), 1);
        assert_eq!(eps_skips, 0);
    }

    #[test]
    fn query_correction_fixes_boundary_lists() {
        let (points, ids, nl, mut store, sep) = line_fixture(20, 2, 9.5);
        let node = span(&ids, &points);
        let (mut crossing, cross_r, _, evals) =
            collect_both_sides(store.rows(), node, nl, &sep, 0.0);
        assert_eq!(evals, 0, "no side is within k points");
        assert!(crossing.owners.iter().all(|&o| (o as usize) < nl));
        assert!(cross_r.owners.iter().all(|&o| (o as usize) >= nl));
        crossing.append(cross_r);
        let (_, stats) =
            correct_via_query::<1, 2>(store.rows(), node, &crossing, QueryTreeConfig::default(), 7);
        assert_eq!(stats, FilterStats::default(), "exact mode skips nothing");
        let result = store.into_result(&ids);
        let oracle = crate::brute::brute_force_knn(&points, 2);
        result.identical_to(&oracle).unwrap();
    }

    #[test]
    fn unbounded_owners_are_corrected_exhaustively() {
        // The left side has a single point: its subset ball is unbounded.
        let points: Vec<Point<1>> = (0..10).map(|i| Point::from([i as f64])).collect();
        let ids: Vec<u32> = (0..10).collect();
        let mut store = RowStore::new(10, 1);
        let mut tmp = KnnResult::new(10, 1);
        solve_subset_brute(&points, &ids[1..], &mut tmp);
        let mut rows = store.rows();
        for i in 1..10 {
            rows.set_list(i, tmp.neighbors(i));
        }
        let sep: Separator<1> = Hyperplane::axis_aligned(0, 0.5).into();
        let (_, unbounded, _) =
            collect_crossing(&rows.radius_sq()[..1], &points[..1], 0, &sep, 1.0);
        assert_eq!(unbounded, vec![0]);
        let node = span(&ids, &points);
        let (_, right) = node.split_at(1);
        assert_eq!(
            correct_unbounded(rows.reborrow(), node, &unbounded, right),
            9
        );
        assert_eq!(rows.radius_sq()[0], 1.0);
    }

    #[test]
    fn empty_crossing_is_free() {
        let points: Vec<Point<1>> = (0..4).map(|i| Point::from([i as f64])).collect();
        let mut store = RowStore::new(4, 1);
        let (cost, stats) = correct_via_query::<1, 2>(
            store.rows(),
            span(&[0, 1, 2, 3], &points),
            &Crossing::default(),
            QueryTreeConfig::default(),
            1,
        );
        assert_eq!(cost, CostProfile::zero());
        assert_eq!(stats, FilterStats::default());
    }
}
