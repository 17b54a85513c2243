//! k-nearest-neighbor result representation and merge machinery.
//!
//! Every all-k-NN algorithm in this crate produces a [`KnnResult`]: for each
//! input point, the `k` nearest other points in ascending distance order.
//! The divide-and-conquer algorithms build these lists relative to a subset
//! first and then *correct* them by merging candidates from the other side
//! of a separator — `merge_into_row` is that correction step, shared by
//! [`KnnResult::merge_candidate`] and the §5/§6 recursions' rows
//! (`crate::rows`), which write each list where the recursion leaves its
//! point. Their results keep the lists there and read point `i`'s through
//! an id → row map, so no pass moves the rows to id order.

use crate::dc::{Leaf, Span};
use crate::rows::Rows;
use sepdc_geom::point::Point;
use sepdc_scan::CostProfile;

/// One neighbor: index into the input point array plus squared distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Index of the neighbor point.
    pub idx: u32,
    /// Squared Euclidean distance to it.
    pub dist_sq: f64,
}

/// Per-point k-nearest lists, stored as one flat row-major `n × k` buffer.
///
/// Lists are kept sorted ascending by `dist_sq` (ties broken by index, so
/// results are deterministic). A list may be shorter than `k` only when the
/// point's subset had fewer than `k + 1` points — the finished algorithms
/// always return full lists for `n > k`. The flat layout means one
/// allocation for the whole result and cache-line-contiguous rows.
///
/// The §5/§6 recursions leave each list at the row of its point's final
/// arena position; their results read point `i`'s list through an id →
/// row map instead of moving the rows to id order. Every method reads
/// through it, so a mapped result behaves exactly like an id-order one.
#[derive(Clone, Debug)]
pub struct KnnResult {
    k: usize,
    lens: Vec<u32>,
    entries: Vec<Neighbor>,
    /// `row_of[i]` is the row holding point `i`'s list; empty when row `i`
    /// is point `i`'s.
    row_of: Vec<u32>,
}

impl KnnResult {
    /// Empty result for `n` points.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KnnResult {
            k,
            lens: vec![0; n],
            entries: vec![
                Neighbor {
                    idx: 0,
                    dist_sq: 0.0
                };
                n * k
            ],
            row_of: Vec::new(),
        }
    }

    /// Assemble from filled rows (row-major `n × k`, row `r` holding
    /// `lens[r]` valid entries) whose row `r` is the list of point
    /// `perm[r]`; the result maps each point to its row.
    pub(crate) fn from_rows(
        k: usize,
        lens: Vec<u32>,
        entries: Vec<Neighbor>,
        perm: &[u32],
    ) -> Self {
        assert!(k > 0, "k must be positive");
        assert_eq!(entries.len(), lens.len() * k);
        assert_eq!(perm.len(), lens.len(), "one perm entry per row");
        let mut row_of = vec![u32::MAX; perm.len()];
        for (r, &i) in perm.iter().enumerate() {
            row_of[i as usize] = r as u32;
        }
        debug_assert!(
            row_of.iter().all(|&r| r != u32::MAX),
            "perm is not a permutation"
        );
        KnnResult {
            k,
            lens,
            entries,
            row_of,
        }
    }

    /// The row holding point `i`'s list.
    #[inline]
    fn row(&self, i: usize) -> usize {
        if self.row_of.is_empty() {
            i
        } else {
            self.row_of[i] as usize
        }
    }

    /// The `k` this result was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// `true` when there are no points.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// The neighbor list of point `i` (ascending distance).
    pub fn neighbors(&self, i: usize) -> &[Neighbor] {
        let r = self.row(i);
        let start = r * self.k;
        &self.entries[start..start + self.lens[r] as usize]
    }

    /// Visit every list in storage order: `f(i, neighbors(i))` once per
    /// point, the rows read sequentially. A mapped result inverts its
    /// id → row map with one scatter first, so no visit is a random row
    /// access.
    pub(crate) fn for_each_list(&self, mut f: impl FnMut(u32, &[Neighbor])) {
        let mut point_of = vec![0u32; self.row_of.len()];
        for (i, &r) in self.row_of.iter().enumerate() {
            point_of[r as usize] = i as u32;
        }
        let rows = self.entries.chunks_exact(self.k).zip(&self.lens);
        for (r, (row, &len)) in rows.enumerate() {
            let i = if point_of.is_empty() {
                r as u32
            } else {
                point_of[r]
            };
            f(i, &row[..len as usize]);
        }
    }

    /// Squared radius of the k-neighborhood ball of point `i`: the distance
    /// to its k-th nearest neighbor, or `f64::INFINITY` when fewer than `k`
    /// neighbors are known (the ball is unbounded in the paper's sense).
    pub fn radius_sq(&self, i: usize) -> f64 {
        let r = self.row(i);
        if (self.lens[r] as usize) < self.k {
            f64::INFINITY
        } else {
            self.entries[r * self.k + self.k - 1].dist_sq
        }
    }

    /// Radius (not squared) of the k-neighborhood ball of point `i`.
    pub fn radius(&self, i: usize) -> f64 {
        self.radius_sq(i).sqrt()
    }

    /// Offer `(j, dist_sq)` as a candidate neighbor of `i`. Keeps the list
    /// sorted, capped at `k`, deduplicated by index. Returns `true` when
    /// the candidate was inserted.
    ///
    /// `O(k)` per call — `k` is a small constant throughout the paper.
    pub fn merge_candidate(&mut self, i: usize, j: u32, dist_sq: f64) -> bool {
        debug_assert_ne!(i as u32, j, "a point is not its own neighbor");
        let r = self.row(i);
        let start = r * self.k;
        let row = &mut self.entries[start..start + self.k];
        match merge_into_row(row, self.lens[r] as usize, j, dist_sq) {
            Some(new_len) => {
                self.lens[r] = new_len as u32;
                true
            }
            None => false,
        }
    }

    /// Replace the list of point `i` wholesale (used by leaf solvers);
    /// truncates to `k`.
    pub(crate) fn set_list(&mut self, i: usize, list: &[Neighbor]) {
        let m = list.len().min(self.k);
        let r = self.row(i);
        let start = r * self.k;
        self.entries[start..start + m].copy_from_slice(&list[..m]);
        self.lens[r] = m as u32;
    }

    /// Distance-profile equality with `other` under tolerance `tol`:
    /// the sorted distance sequences agree per point. Index-insensitive,
    /// which is the right equality under ties (two valid k-NN answers may
    /// pick different equidistant neighbors).
    pub fn same_distances(&self, other: &KnnResult, tol: f64) -> Result<(), String> {
        if self.len() != other.len() {
            return Err(format!(
                "length mismatch: {} vs {}",
                self.len(),
                other.len()
            ));
        }
        if self.k != other.k {
            return Err(format!("k mismatch: {} vs {}", self.k, other.k));
        }
        for i in 0..self.len() {
            let a = self.neighbors(i);
            let b = other.neighbors(i);
            if a.len() != b.len() {
                return Err(format!(
                    "point {i}: list lengths {} vs {}",
                    a.len(),
                    b.len()
                ));
            }
            for (r, (na, nb)) in a.iter().zip(b).enumerate() {
                if (na.dist_sq - nb.dist_sq).abs() > tol {
                    return Err(format!(
                        "point {i} rank {r}: dist_sq {} vs {}",
                        na.dist_sq, nb.dist_sq
                    ));
                }
            }
        }
        Ok(())
    }

    /// Exact equality with `other`: every list holds the same ids in the
    /// same order with bit-identical squared distances. Every exact
    /// algorithm here breaks distance ties by index, so its answer meets
    /// the brute oracle's under this check.
    pub fn identical_to(&self, other: &KnnResult) -> Result<(), String> {
        if self.len() != other.len() || self.k != other.k {
            return Err(format!(
                "shape mismatch: n={} k={} vs n={} k={}",
                self.len(),
                self.k,
                other.len(),
                other.k
            ));
        }
        let key = |nb: &Neighbor| (nb.idx, nb.dist_sq.to_bits());
        for i in 0..self.len() {
            let (a, b) = (self.neighbors(i), other.neighbors(i));
            if !a.iter().map(key).eq(b.iter().map(key)) {
                return Err(format!("point {i}: {a:?} vs {b:?}"));
            }
        }
        Ok(())
    }

    /// Measure this (possibly ε-approximate) result against an `exact`
    /// reference, producing the per-run error certificate of DESIGN.md §17.
    ///
    /// Errors are measured — never assumed from the ε knob: rank `r` of
    /// point `i` compares this result's distance `d̃` against the exact
    /// `d` as `√(d̃/d) − 1` (the paper's radii are distances, not squared
    /// distances, so the `(1+ε)` guarantee lives on the square root).
    /// An approximate list may also come up *short* when ε-skipping
    /// starves a list below `k`; short ranks are counted, not compared.
    ///
    /// # Panics
    /// Panics when the two results have different `n` or `k` — comparing
    /// unrelated runs is a caller bug, not a measurable error.
    pub fn error_certificate(&self, exact: &KnnResult) -> ErrorCertificate {
        assert_eq!(self.len(), exact.len(), "point-count mismatch");
        assert_eq!(self.k, exact.k, "k mismatch");
        let mut cert = ErrorCertificate::default();
        for i in 0..self.len() {
            let approx = self.neighbors(i);
            let ex = exact.neighbors(i);
            if approx.len() < ex.len() {
                cert.short_ranks += (ex.len() - approx.len()) as u64;
            }
            for (a, e) in approx.iter().zip(ex) {
                cert.compared_entries += 1;
                if a.dist_sq.to_bits() != e.dist_sq.to_bits() || a.idx != e.idx {
                    cert.mismatched_entries += 1;
                }
                // Relative error on the distance (√ of the squared ratio).
                // d̃ ≥ d rank-by-rank (approximation only drops candidates,
                // it never invents closer ones), so the clamp to 0 only
                // absorbs tie permutations.
                let rel = if e.dist_sq == 0.0 {
                    if a.dist_sq == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    ((a.dist_sq / e.dist_sq).sqrt() - 1.0).max(0.0)
                };
                cert.max_rel_error = cert.max_rel_error.max(rel);
                cert.sum_rel_error += rel;
            }
        }
        cert
    }

    /// Internal invariants: sorted, deduplicated, no self-loops, capped.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..self.len() {
            let l = self.neighbors(i);
            if l.len() > self.k {
                return Err(format!("point {i}: list longer than k"));
            }
            for w in l.windows(2) {
                let ord_ok = w[0].dist_sq < w[1].dist_sq
                    || (w[0].dist_sq == w[1].dist_sq && w[0].idx < w[1].idx);
                if !ord_ok {
                    return Err(format!("point {i}: list not strictly ordered"));
                }
            }
            if l.iter().any(|n| n.idx as usize == i) {
                return Err(format!("point {i}: self-loop"));
            }
        }
        Ok(())
    }
}

/// Measured (1+ε) error certificate: an approximate run compared rank by
/// rank against an exact reference. See [`KnnResult::error_certificate`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ErrorCertificate {
    /// Largest observed relative *distance* error `√(d̃/d) − 1` over all
    /// compared ranks. A valid `(1+ε)` run keeps this `≤ ε`.
    pub max_rel_error: f64,
    /// Sum of the relative errors (divide by `compared_entries` for the
    /// mean; kept as a sum so certificates merge by addition).
    pub sum_rel_error: f64,
    /// Ranks present in both results and compared.
    pub compared_entries: u64,
    /// Compared ranks whose `(idx, dist_sq)` differ from the exact answer
    /// (bit-level — includes harmless tie permutations).
    pub mismatched_entries: u64,
    /// Ranks the approximate result is missing entirely (its list came up
    /// shorter than the exact one).
    pub short_ranks: u64,
}

impl ErrorCertificate {
    /// Mean relative error over the compared ranks (0 when none).
    pub fn mean_rel_error(&self) -> f64 {
        if self.compared_entries == 0 {
            0.0
        } else {
            self.sum_rel_error / self.compared_entries as f64
        }
    }

    /// `true` when every observed error is within the `(1+ε)` contract:
    /// `max_rel_error ≤ ε` and no list came up short.
    pub fn within(&self, epsilon: f64) -> bool {
        self.short_ranks == 0 && self.max_rel_error <= epsilon
    }

    /// Counter rows for a [`RunReport`](crate::report::RunReport), under
    /// the `certificate.*` namespace.
    pub fn counters(&self) -> Vec<(String, f64)> {
        vec![
            ("certificate.max_rel_error".to_string(), self.max_rel_error),
            (
                "certificate.mean_rel_error".to_string(),
                self.mean_rel_error(),
            ),
            (
                "certificate.compared_entries".to_string(),
                self.compared_entries as f64,
            ),
            (
                "certificate.mismatched_entries".to_string(),
                self.mismatched_entries as f64,
            ),
            (
                "certificate.short_ranks".to_string(),
                self.short_ranks as f64,
            ),
        ]
    }
}

/// Merge candidate `(j, dist_sq)` into the first `len` entries of a sorted
/// row whose capacity is `row.len() == k`. Shared by [`KnnResult`] and the
/// rows of the §5/§6 recursions. Returns the new length when the candidate
/// was inserted, `None` when it was rejected (worse than a full row's tail,
/// or a duplicate index).
pub(crate) fn merge_into_row(
    row: &mut [Neighbor],
    len: usize,
    j: u32,
    dist_sq: f64,
) -> Option<usize> {
    let k = row.len();
    if len == k {
        let tail = row[k - 1];
        if dist_sq > tail.dist_sq || (dist_sq == tail.dist_sq && j >= tail.idx) {
            return None;
        }
    }
    if row[..len].iter().any(|n| n.idx == j) {
        return None;
    }
    let pos = row[..len]
        .iter()
        .position(|n| dist_sq < n.dist_sq || (dist_sq == n.dist_sq && j < n.idx))
        .unwrap_or(len);
    let new_len = (len + 1).min(k);
    for t in (pos + 1..new_len).rev() {
        row[t] = row[t - 1];
    }
    row[pos] = Neighbor { idx: j, dist_sq };
    Some(new_len)
}

/// Solve k-NN exactly within a subset of points by all-pairs scan, writing
/// global indices into `result`. `ids` are indices into `points`.
///
/// `O(|ids|² k)`. This is the reference solver: the correction tests seed
/// their subsets with it and `bench_layers` replays a tree's leaves with
/// it. The §5 and §6 recursions solve their leaves with the crate's leaf
/// helper instead, which takes the all-coincident leaf in closed form.
pub fn solve_subset_brute<const D: usize>(
    points: &[Point<D>],
    ids: &[u32],
    result: &mut KnnResult,
) {
    let k = result.k();
    let mut scratch = Vec::with_capacity(k + 1);
    for &i in ids {
        brute_list_into(points, i, ids, k, &mut scratch);
        result.set_list(i as usize, &scratch);
    }
}

/// Solve a §5/§6 leaf: write the k-NN list of every item within the leaf
/// into its rows, the item at position `r` into row `r`. The leaf's points
/// are contiguous (`leaf.pts`), so the solve reads and writes one range.
/// Returns the leaf's cost and the distances it evaluated.
///
/// A [`Leaf::Unsplittable`] leaf is solved in closed form. The driver makes
/// one only when neither cut source has a cut, and the halving cut has
/// none only when every point is equal on every axis. So each pairwise
/// `dist_sq` is `+0.0` (signed zeros included), and under the (`dist_sq`,
/// index) order of [`brute_list_span_into`] a point's list is the
/// `min(k, m − 1)` smallest other ids. The leaf selects the `k + 1`
/// smallest ids once and writes every list from them: `O(m·k)` work,
/// costed as `k + 1` min-scans over the `m` ids, and no distance
/// evaluated, where the all-pairs scan costs `m²`. Every other leaf takes
/// the all-pairs scan.
pub(crate) fn solve_leaf<const D: usize>(
    mut rows: Rows<'_>,
    leaf: Span<'_, D>,
    kind: Leaf,
) -> (CostProfile, u64) {
    // Lists go straight into the leaf's rows through one reused scratch
    // buffer: an n-point KnnResult per leaf would cost O(n) per leaf.
    let (ids, m, k) = (leaf.ids, leaf.len(), rows.k());
    let mut scratch = Vec::with_capacity(k + 1);
    if kind == Leaf::Unsplittable {
        debug_assert!(
            leaf.pts.iter().all(|p| *p == leaf.pts[0]),
            "an unsplittable leaf holds coincident points"
        );
        // The k + 1 smallest ids, ascending: a point's list is the first k
        // of them other than itself.
        let mut smallest: Vec<u32> = Vec::with_capacity(k + 2);
        for &j in ids {
            if smallest.len() > k && j > smallest[k] {
                continue;
            }
            smallest.insert(smallest.partition_point(|&s| s < j), j);
            smallest.truncate(k + 1);
        }
        for (r, &i) in ids.iter().enumerate() {
            scratch.clear();
            scratch.extend(
                smallest
                    .iter()
                    .filter(|&&j| j != i)
                    .take(k)
                    .map(|&idx| Neighbor { idx, dist_sq: 0.0 }),
            );
            rows.set_list(r, &scratch);
        }
        return (CostProfile::rounds(k as u64 + 1, m as u64), 0);
    }
    let mut dists = Vec::with_capacity(m);
    for r in 0..m {
        brute_list_span_into(ids, leaf.pts, r, k, &mut dists, &mut scratch);
        rows.set_list(r, &scratch);
    }
    // Paper base case: "compute in m time using m processors".
    (CostProfile::rounds(m as u64, m as u64), (m * m) as u64)
}

/// k-NN list of point `i` within the subset `ids` by one all-pairs scan:
/// sorted, deduplicated, capped at `k`, global indices. Fills `out`
/// (cleared first) so leaf loops can reuse one scratch buffer.
pub(crate) fn brute_list_into<const D: usize>(
    points: &[Point<D>],
    i: u32,
    ids: &[u32],
    k: usize,
    out: &mut Vec<Neighbor>,
) {
    out.clear();
    let pi = points[i as usize];
    for &j in ids {
        if i == j {
            continue;
        }
        let d = pi.dist_sq(&points[j as usize]);
        // Insertion sort into a list capped at k.
        if out.len() == k {
            let tail = out[out.len() - 1];
            if d > tail.dist_sq || (d == tail.dist_sq && j >= tail.idx) {
                continue;
            }
        }
        let pos = out
            .iter()
            .position(|n| d < n.dist_sq || (d == n.dist_sq && j < n.idx))
            .unwrap_or(out.len());
        out.insert(pos, Neighbor { idx: j, dist_sq: d });
        out.truncate(k);
    }
}

/// [`brute_list_into`] over points stored contiguously: the list of the
/// point at position `r` among `pts`, whose ids are `ids`. One distance
/// sweep over the slice into `dists`, then the identical capped insertion
/// pass. Each distance is `pts[r].dist_sq(&pts[j])`, the scalar kernel's
/// operation sequence, so the list is the one [`brute_list_into`] builds
/// over the same ids.
pub(crate) fn brute_list_span_into<const D: usize>(
    ids: &[u32],
    pts: &[Point<D>],
    r: usize,
    k: usize,
    dists: &mut Vec<f64>,
    out: &mut Vec<Neighbor>,
) {
    out.clear();
    let pi = pts[r];
    dists.clear();
    dists.extend(pts.iter().map(|p| pi.dist_sq(p)));
    for (s, (&j, &d)) in ids.iter().zip(dists.iter()).enumerate() {
        if s == r {
            continue;
        }
        if out.len() == k {
            let tail = out[out.len() - 1];
            if d > tail.dist_sq || (d == tail.dist_sq && j >= tail.idx) {
                continue;
            }
        }
        let pos = out
            .iter()
            .position(|n| d < n.dist_sq || (d == n.dist_sq && j < n.idx))
            .unwrap_or(out.len());
        out.insert(pos, Neighbor { idx: j, dist_sq: d });
        out.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_keeps_sorted_and_capped() {
        let mut r = KnnResult::new(3, 2);
        assert!(r.merge_candidate(0, 1, 4.0));
        assert!(r.merge_candidate(0, 2, 1.0));
        assert_eq!(r.neighbors(0)[0].idx, 2);
        assert_eq!(r.neighbors(0)[1].idx, 1);
        // Better candidate evicts the tail.
        assert!(!r.merge_candidate(0, 1, 4.0), "dedup");
        let mut r2 = KnnResult::new(4, 2);
        r2.merge_candidate(0, 1, 1.0);
        r2.merge_candidate(0, 2, 2.0);
        assert!(r2.merge_candidate(0, 3, 1.5));
        assert_eq!(r2.neighbors(0).len(), 2);
        assert_eq!(r2.neighbors(0)[1].idx, 3);
        r2.check_invariants().unwrap();
    }

    #[test]
    fn merge_rejects_worse_when_full() {
        let mut r = KnnResult::new(4, 1);
        r.merge_candidate(0, 1, 1.0);
        assert!(!r.merge_candidate(0, 2, 2.0));
        assert_eq!(r.neighbors(0).len(), 1);
        assert_eq!(r.neighbors(0)[0].idx, 1);
    }

    #[test]
    fn ties_break_by_index() {
        let mut r = KnnResult::new(4, 2);
        r.merge_candidate(0, 3, 1.0);
        assert!(r.merge_candidate(0, 1, 1.0));
        assert_eq!(r.neighbors(0)[0].idx, 1);
        assert_eq!(r.neighbors(0)[1].idx, 3);
        // A third equidistant candidate with larger index is rejected.
        assert!(!r.merge_candidate(0, 5, 1.0));
    }

    #[test]
    fn radius_semantics() {
        let mut r = KnnResult::new(2, 2);
        assert_eq!(r.radius_sq(0), f64::INFINITY);
        r.merge_candidate(0, 1, 9.0);
        assert_eq!(r.radius_sq(0), f64::INFINITY, "only 1 of k=2 known");
        let mut full = KnnResult::new(3, 1);
        full.merge_candidate(0, 2, 4.0);
        assert_eq!(full.radius(0), 2.0);
    }

    #[test]
    fn solve_subset_brute_on_line() {
        let pts: Vec<Point<1>> = (0..6).map(|i| Point::from([i as f64])).collect();
        let ids: Vec<u32> = (0..6).collect();
        let mut r = KnnResult::new(6, 2);
        solve_subset_brute(&pts, &ids, &mut r);
        r.check_invariants().unwrap();
        // Point 0: neighbors 1 (d=1) and 2 (d=4).
        assert_eq!(r.neighbors(0)[0].idx, 1);
        assert_eq!(r.neighbors(0)[1].idx, 2);
        // Point 3: neighbors 2 and 4 (both d=1, index order).
        assert_eq!(r.neighbors(3)[0].idx, 2);
        assert_eq!(r.neighbors(3)[1].idx, 4);
    }

    #[test]
    fn solve_subset_respects_subset() {
        let pts: Vec<Point<1>> = (0..6).map(|i| Point::from([i as f64])).collect();
        let ids = vec![0u32, 5]; // only the two extremes
        let mut r = KnnResult::new(6, 1);
        solve_subset_brute(&pts, &ids, &mut r);
        assert_eq!(r.neighbors(0)[0].idx, 5);
        assert_eq!(r.neighbors(5)[0].idx, 0);
        assert!(r.neighbors(1).is_empty(), "non-subset point untouched");
    }

    #[test]
    fn same_distances_tolerates_tie_permutations() {
        let mut a = KnnResult::new(3, 1);
        a.merge_candidate(0, 1, 1.0);
        let mut b = KnnResult::new(3, 1);
        b.merge_candidate(0, 2, 1.0);
        assert!(a.same_distances(&b, 1e-12).is_ok());
        let mut c = KnnResult::new(3, 1);
        c.merge_candidate(0, 2, 2.0);
        assert!(a.same_distances(&c, 1e-12).is_err());
    }

    #[test]
    fn identical_to_compares_ids_and_distance_bits() {
        let mut a = KnnResult::new(3, 1);
        a.merge_candidate(0, 1, 1.0);
        assert!(a.identical_to(&a.clone()).is_ok());
        // A tie permutation and a one-ulp drift both count as different.
        let mut b = KnnResult::new(3, 1);
        b.merge_candidate(0, 2, 1.0);
        assert!(a.identical_to(&b).is_err());
        let mut c = KnnResult::new(3, 1);
        c.merge_candidate(0, 1, f64::from_bits(1.0f64.to_bits() + 1));
        assert!(a.same_distances(&c, 1e-12).is_ok());
        assert!(a.identical_to(&c).is_err());
        assert!(a.identical_to(&KnnResult::new(3, 2)).is_err());
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        KnnResult::new(3, 0);
    }

    #[test]
    fn error_certificate_identical_runs_are_clean() {
        let mut r = KnnResult::new(2, 2);
        r.merge_candidate(0, 1, 1.0);
        r.merge_candidate(1, 0, 1.0);
        let cert = r.error_certificate(&r.clone());
        assert_eq!(cert.max_rel_error, 0.0);
        assert_eq!(cert.mismatched_entries, 0);
        assert_eq!(cert.short_ranks, 0);
        assert_eq!(cert.compared_entries, 2);
        assert!(cert.within(0.0));
    }

    #[test]
    fn error_certificate_measures_inflated_distances() {
        let mut exact = KnnResult::new(1, 2);
        exact.merge_candidate(0, 1, 1.0);
        exact.merge_candidate(0, 2, 4.0);
        let mut approx = KnnResult::new(1, 2);
        approx.merge_candidate(0, 1, 1.0);
        // Rank 1 picked a farther neighbor: distance 3 vs exact 2 —
        // relative distance error √(9/4) − 1 = 0.5.
        approx.merge_candidate(0, 3, 9.0);
        let cert = approx.error_certificate(&exact);
        assert_eq!(cert.max_rel_error, 0.5);
        assert_eq!(cert.mismatched_entries, 1);
        assert_eq!(cert.compared_entries, 2);
        assert!(cert.within(0.5));
        assert!(!cert.within(0.49));
        assert_eq!(cert.mean_rel_error(), 0.25);
    }

    #[test]
    fn error_certificate_counts_short_lists_and_zero_exact() {
        let mut exact = KnnResult::new(1, 2);
        exact.merge_candidate(0, 1, 0.0);
        exact.merge_candidate(0, 2, 1.0);
        let mut approx = KnnResult::new(1, 2);
        approx.merge_candidate(0, 1, 0.0);
        let cert = approx.error_certificate(&exact);
        assert_eq!(cert.short_ranks, 1);
        assert_eq!(cert.compared_entries, 1);
        assert_eq!(cert.max_rel_error, 0.0);
        assert!(!cert.within(1.0), "short list breaks the contract");
        // A nonzero approximate distance against an exact zero is an
        // unbounded relative error, not a crash.
        let mut approx2 = KnnResult::new(1, 2);
        approx2.merge_candidate(0, 3, 0.25);
        approx2.merge_candidate(0, 2, 1.0);
        let cert2 = approx2.error_certificate(&exact);
        assert_eq!(cert2.max_rel_error, f64::INFINITY);
    }

    #[test]
    fn unsplittable_leaf_matches_the_all_pairs_scan() {
        // A group with every signed-zero pattern, its ids in shuffled order
        // and spread out, at k below, at and above the group size.
        let zeros = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]];
        let pts: Vec<Point<2>> = (0..40).map(|i| Point::from(zeros[i % 4])).collect();
        for m in [1usize, 2, 9, 40] {
            let ids: Vec<u32> = (0..m as u32).map(|j| (j * 17 + 5) % 40).rev().collect();
            let leaf: Vec<Point<2>> = ids.iter().map(|&i| pts[i as usize]).collect();
            let rows: Vec<u32> = (0..m as u32).collect();
            for k in [1usize, 3, 8, 39, 45] {
                let solve = |kind| {
                    // Rows are the leaf's positions.
                    let mut store = crate::rows::RowStore::new(m, k);
                    let span = Span {
                        ids: &ids,
                        pts: &leaf,
                    };
                    let (cost, evals) = solve_leaf(store.rows(), span, kind);
                    (store.into_result(&rows), cost, evals)
                };
                let (closed, cost, evals) = solve(Leaf::Unsplittable);
                let (scan, _, scan_evals) = solve(Leaf::Degenerate);
                closed
                    .identical_to(&scan)
                    .unwrap_or_else(|e| panic!("m={m} k={k}: {e}"));
                assert_eq!((evals, scan_evals), (0, (m * m) as u64));
                assert_eq!(cost, CostProfile::rounds(k as u64 + 1, m as u64));
            }
        }
    }

    #[test]
    fn contiguous_leaf_lists_match_the_id_order_scan_exactly() {
        // Duplicates included: tie-breaking must agree bit-for-bit. The
        // ids are shuffled, as the in-place partition leaves them, and the
        // contiguous scan reads their points in that order.
        let mut pts: Vec<Point<2>> = (0..37)
            .map(|i| Point::from([(i as f64 * 0.83).sin(), (i % 5) as f64]))
            .collect();
        pts.push(pts[3]);
        pts.push(pts[3]);
        let ids: Vec<u32> = (0..pts.len() as u32).map(|j| (j * 7 + 3) % 39).collect();
        let leaf: Vec<Point<2>> = ids.iter().map(|&i| pts[i as usize]).collect();
        let (mut a, mut b, mut dists) = (Vec::new(), Vec::new(), Vec::new());
        for k in [1usize, 3, 8] {
            for (r, &i) in ids.iter().enumerate() {
                brute_list_into(&pts, i, &ids, k, &mut a);
                brute_list_span_into(&ids, &leaf, r, k, &mut dists, &mut b);
                assert_eq!(a.len(), b.len(), "i={i} k={k}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.idx, y.idx, "i={i} k={k}");
                    assert_eq!(x.dist_sq.to_bits(), y.dist_sq.to_bits(), "i={i} k={k}");
                }
            }
        }
    }
}
