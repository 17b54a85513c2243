//! Median hyperplane cuts — Bentley's partitioning primitive.
//!
//! The paper's Section 1 argues that a hyperplane chosen by "translating a
//! fixed hyperplane until the points are divided in half" can be crossed by
//! `Ω(n)` edges of the k-nearest-neighbor graph, making the combine step
//! expensive. These cuts are implemented here both as the baseline for that
//! comparison (EXP-3) and as the deterministic fallback of the separator
//! search (a median cut always splits every multiset with distinct
//! coordinates roughly in half).

use sepdc_geom::point::Point;
use sepdc_geom::shape::Separator;
use sepdc_geom::Hyperplane;

/// Median cut along a fixed axis: the hyperplane `x[axis] = median`,
/// nudged so that the two open sides are as balanced as possible.
///
/// Returns `None` when all points share the same coordinate along `axis`
/// (no flat cut along this axis can split them).
pub fn median_cut_axis<const D: usize>(points: &[Point<D>], axis: usize) -> Option<Separator<D>> {
    assert!(axis < D, "axis {axis} out of range for dimension {D}");
    if points.len() < 2 {
        return None;
    }
    let mut coords: Vec<f64> = points.iter().map(|p| p[axis]).collect();
    coords.sort_by(|a, b| a.partial_cmp(b).expect("non-finite coordinate"));
    let lo = coords[0];
    let hi = coords[coords.len() - 1];
    if hi - lo <= 0.0 {
        return None;
    }
    // Midpoint between the two middle order statistics; when they are
    // equal, walk outward to the nearest strictly different pair so the
    // plane separates at least one point from the rest.
    let n = coords.len();
    let m = n / 2;
    let mut value = (coords[m - 1] + coords[m]) / 2.0;
    if coords[m - 1] == coords[m] {
        // Find the closest "gap" to the median position.
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n - 1 {
            if coords[i] < coords[i + 1] {
                let dist = (i as isize - (m as isize - 1)).unsigned_abs();
                let cut = (coords[i] + coords[i + 1]) / 2.0;
                if best.is_none_or(|(bd, _)| dist < bd) {
                    best = Some((dist, cut));
                }
            }
        }
        value = best?.1;
    }
    Some(Separator::Halfspace(Hyperplane::axis_aligned(axis, value)))
}

/// Median cut along the widest axis (largest coordinate extent).
///
/// Returns `None` only when every point is identical.
pub fn median_cut_widest<const D: usize>(points: &[Point<D>]) -> Option<Separator<D>> {
    if points.len() < 2 {
        return None;
    }
    let mut lo = points[0];
    let mut hi = points[0];
    for p in points {
        lo = lo.min(p);
        hi = hi.max(p);
    }
    let mut order: Vec<usize> = (0..D).collect();
    order.sort_by(|&a, &b| {
        (hi[b] - lo[b])
            .partial_cmp(&(hi[a] - lo[a]))
            .expect("non-finite extent")
    });
    // Try axes from widest to narrowest: a degenerate axis may still be
    // paired with a usable one.
    for axis in order {
        if let Some(sep) = median_cut_axis(points, axis) {
            return Some(sep);
        }
    }
    None
}

/// Derandomized halving cut in expected linear time.
///
/// Where [`median_cut_widest`] sorts every coordinate (`O(n log n)`), this
/// cut follows the selection-based recipe of the "Halving Balls in
/// Deterministic Linear Time" line of work: pick the widest axis, find the
/// middle order statistic with `select_nth_unstable` (expected `O(n)`), and
/// place the plane in whichever adjacent coordinate gap yields the more
/// balanced strict two-sided split. Ties at the median value are resolved
/// by comparing the two candidate cuts (tie block left vs. tie block
/// right) and keeping the one that minimizes the larger side.
///
/// The result is a pure function of the point multiset — no RNG, no
/// dependence on input order beyond the multiset of coordinates — which is
/// what lets the divide-and-conquer driver's halving cuts stay
/// byte-identical across thread counts.
///
/// Returns `None` only when every point is identical.
pub fn halving_cut_widest<const D: usize>(points: &[Point<D>]) -> Option<Separator<D>> {
    if points.len() < 2 {
        return None;
    }
    let mut lo = points[0];
    let mut hi = points[0];
    for p in points {
        lo = lo.min(p);
        hi = hi.max(p);
    }
    let mut order: Vec<usize> = (0..D).collect();
    order.sort_by(|&a, &b| {
        (hi[b] - lo[b])
            .partial_cmp(&(hi[a] - lo[a]))
            .expect("non-finite extent")
    });
    let mut coords: Vec<f64> = Vec::with_capacity(points.len());
    for axis in order {
        if hi[axis] - lo[axis] <= 0.0 {
            continue; // axis constant; a wider one may still split
        }
        coords.clear();
        coords.extend(points.iter().map(|p| p[axis]));
        let m = coords.len() / 2;
        let (_, &mut v_mid, _) = coords.select_nth_unstable_by(m, f64::total_cmp);
        // One linear pass around the median value: the nearest strictly
        // smaller and strictly larger coordinates, plus side populations.
        let mut lo_max = f64::NEG_INFINITY;
        let mut hi_min = f64::INFINITY;
        let (mut n_lt, mut n_gt) = (0usize, 0usize);
        for &c in &coords {
            if c < v_mid {
                n_lt += 1;
                lo_max = lo_max.max(c);
            } else if c > v_mid {
                n_gt += 1;
                hi_min = hi_min.min(c);
            }
        }
        let n = coords.len();
        let n_eq = n - n_lt - n_gt;
        // Two candidate planes: below the tie block (ties go right) or
        // above it (ties go left). Keep the more balanced strict split.
        let below = (n_lt > 0).then(|| ((lo_max + v_mid) / 2.0, n_lt.max(n_eq + n_gt)));
        let above = (n_gt > 0).then(|| ((v_mid + hi_min) / 2.0, (n_lt + n_eq).max(n_gt)));
        let value = match (below, above) {
            (Some((vb, wb)), Some((va, wa))) => {
                if wb <= wa {
                    vb
                } else {
                    va
                }
            }
            (Some((vb, _)), None) => vb,
            (None, Some((va, _))) => va,
            (None, None) => continue,
        };
        return Some(Separator::Halfspace(Hyperplane::axis_aligned(axis, value)));
    }
    None
}

/// Median cut cycling through axes by depth — the classic k-d recursion
/// order used by Bentley's multidimensional divide and conquer.
pub fn median_cut_cycling<const D: usize>(
    points: &[Point<D>],
    depth: usize,
) -> Option<Separator<D>> {
    let first = depth % D;
    for off in 0..D {
        if let Some(sep) = median_cut_axis(points, (first + off) % D) {
            return Some(sep);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::split_counts;
    use sepdc_geom::shape::Side;

    #[test]
    fn median_cut_balances_distinct_points() {
        let pts: Vec<Point<2>> = (0..100).map(|i| Point::from([i as f64, 0.0])).collect();
        let sep = median_cut_axis(&pts, 0).unwrap();
        let c = split_counts(&pts, &sep, 1e-9);
        assert_eq!(c.left(), 50);
        assert_eq!(c.right(), 50);
        assert_eq!(c.surface, 0, "cut between points, none on the surface");
    }

    #[test]
    fn median_cut_handles_heavy_ties() {
        // 90 copies of 0 and 10 distinct values: cut must still split.
        let mut pts = vec![Point::<2>::from([0.0, 0.0]); 90];
        for i in 1..=10 {
            pts.push(Point::from([i as f64, 0.0]));
        }
        let sep = median_cut_axis(&pts, 0).unwrap();
        let c = split_counts(&pts, &sep, 1e-9);
        assert!(c.left() > 0 && c.right() > 0, "cut failed to split: {c:?}");
    }

    #[test]
    fn median_cut_none_for_constant_axis() {
        let pts = vec![Point::<2>::from([1.0, 0.0]), Point::from([1.0, 5.0])];
        assert!(median_cut_axis(&pts, 0).is_none());
        // But axis 1 works.
        assert!(median_cut_axis(&pts, 1).is_some());
    }

    #[test]
    fn widest_cut_picks_spread_axis() {
        let pts: Vec<Point<2>> = (0..50)
            .map(|i| Point::from([i as f64 * 100.0, (i % 3) as f64]))
            .collect();
        let sep = median_cut_widest(&pts).unwrap();
        match sep {
            Separator::Halfspace(h) => {
                assert!((h.normal[0].abs() - 1.0).abs() < 1e-12, "should cut axis 0");
            }
            _ => panic!("median cut must be a halfspace"),
        }
    }

    #[test]
    fn widest_cut_none_for_identical_points() {
        let pts = vec![Point::<3>::splat(2.0); 10];
        assert!(median_cut_widest(&pts).is_none());
    }

    #[test]
    fn cycling_cut_rotates_axes() {
        let pts: Vec<Point<2>> = (0..20)
            .map(|i| Point::from([i as f64, (i * 7 % 20) as f64]))
            .collect();
        let s0 = median_cut_cycling(&pts, 0).unwrap();
        let s1 = median_cut_cycling(&pts, 1).unwrap();
        let axis_of = |s: &Separator<2>| match s {
            Separator::Halfspace(h) => {
                if h.normal[0].abs() > 0.5 {
                    0
                } else {
                    1
                }
            }
            _ => panic!(),
        };
        assert_eq!(axis_of(&s0), 0);
        assert_eq!(axis_of(&s1), 1);
    }

    #[test]
    fn halving_cut_balances_distinct_points() {
        let pts: Vec<Point<2>> = (0..100).map(|i| Point::from([i as f64, 0.0])).collect();
        let sep = halving_cut_widest(&pts).unwrap();
        let c = split_counts(&pts, &sep, 1e-9);
        assert_eq!(c.left(), 50);
        assert_eq!(c.right(), 50);
    }

    #[test]
    fn halving_cut_handles_heavy_ties() {
        // 90 copies of 0 and 10 distinct values: the tie block must land on
        // one strict side and the other side must stay non-empty.
        let mut pts = vec![Point::<2>::from([0.0, 0.0]); 90];
        for i in 1..=10 {
            pts.push(Point::from([i as f64, 0.0]));
        }
        let sep = halving_cut_widest(&pts).unwrap();
        let c = split_counts(&pts, &sep, 1e-9);
        assert!(c.left() > 0 && c.right() > 0, "cut failed to split: {c:?}");
        assert_eq!(c.left() + c.right(), pts.len());
    }

    #[test]
    fn halving_cut_none_for_identical_points() {
        let pts = vec![Point::<3>::splat(2.0); 10];
        assert!(halving_cut_widest(&pts).is_none());
    }

    #[test]
    fn halving_cut_is_order_independent() {
        // Pure function of the multiset: shuffling the input must not move
        // the plane.
        let pts: Vec<Point<2>> = (0..57)
            .map(|i| Point::from([(i * 13 % 29) as f64, (i % 5) as f64]))
            .collect();
        let mut rev = pts.clone();
        rev.reverse();
        assert_eq!(halving_cut_widest(&pts), halving_cut_widest(&rev));
    }

    #[test]
    fn no_point_sits_on_the_cut() {
        // The nudged cut must classify every input strictly.
        let pts: Vec<Point<2>> = (0..31)
            .map(|i| Point::from([(i % 7) as f64, 0.0]))
            .collect();
        let sep = median_cut_axis(&pts, 0).unwrap();
        for p in &pts {
            assert_ne!(sep.side(p), Side::Surface);
        }
    }
}
