//! Closed balls, the elements of neighborhood systems (Section 2 of the
//! paper).

use crate::point::Point;
use crate::shape::Separator;

/// A closed ball `{ x : |x - center| <= radius }`.
///
/// Radius zero is permitted: the `k`-neighborhood ball of a point that
/// coincides with `k` duplicates degenerates to a point, and the marching
/// predicates remain well defined.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ball<const D: usize> {
    /// Center.
    pub center: Point<D>,
    /// Non-negative radius.
    pub radius: f64,
}

impl<const D: usize> Ball<D> {
    /// Construct a ball.
    ///
    /// # Panics
    /// Panics on non-finite or negative radius.
    pub fn new(center: Point<D>, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "ball radius must be finite and non-negative, got {radius}"
        );
        Ball { center, radius }
    }

    /// `true` when `p` lies in the closed ball.
    pub fn contains(&self, p: &Point<D>) -> bool {
        self.center.dist_sq(p) <= self.radius * self.radius
    }

    /// `true` when `p` lies in the open interior.
    ///
    /// The paper's `k`-neighborhood ball is "the largest ball whose
    /// *interior* contains at most `k - 1` points", so the open predicate is
    /// the one used when counting.
    pub fn contains_interior(&self, p: &Point<D>) -> bool {
        self.center.dist_sq(p) < self.radius * self.radius
    }

    /// `true` when this ball and `other` intersect (closed).
    pub fn intersects(&self, other: &Ball<D>) -> bool {
        let d = self.center.dist(&other.center);
        d <= self.radius + other.radius
    }

    /// `true` when this ball crosses the separator surface.
    pub fn crosses(&self, sep: &Separator<D>) -> bool {
        sep.intersects_ball(&self.center, self.radius)
    }

    /// Marching predicate: ball meets the separator or its interior.
    pub fn touches_interior_of(&self, sep: &Separator<D>) -> bool {
        sep.ball_touches_interior(&self.center, self.radius)
    }

    /// Marching predicate: ball meets the separator or its exterior.
    pub fn touches_exterior_of(&self, sep: &Separator<D>) -> bool {
        sep.ball_touches_exterior(&self.center, self.radius)
    }
}

/// Counters from one ε-relaxed cover-filter pass, accumulated by the
/// caller into the run-level `precision.eps_skips` counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Candidates the (1+ε)-relaxed predicate skipped even though the
    /// exact predicate admits them — the certificate's skip count.
    pub eps_skips: u64,
}

impl FilterStats {
    /// Accumulate another pass's counters into this one.
    pub fn merge(&mut self, other: &FilterStats) {
        self.eps_skips += other.eps_skips;
    }
}

/// Cover test of the balls `balls[ids[j]]`: append to `out`, in `ids`
/// order, every id whose ball covers `p` — closed when `open` is false,
/// open interior when true.
///
/// `eps_scale` is `1 / (1+ε)²`. At `1.0` the test is exactly
/// [`Ball::contains`] / [`Ball::contains_interior`]. Below it, only
/// `dist_sq <= r² · eps_scale` is admitted (`<` when `open`), and each
/// ball the exact predicate admits but the relaxed one skips increments
/// `stats.eps_skips`.
///
/// Each ball is read as one record from the array. A leaf's ids are
/// scattered over the whole array, so a columnar copy of the centers
/// would touch `D + 1` cache lines per ball instead.
pub fn filter_covering_into<const D: usize>(
    balls: &[Ball<D>],
    p: &Point<D>,
    ids: &[u32],
    open: bool,
    eps_scale: f64,
    out: &mut Vec<u32>,
    stats: &mut FilterStats,
) {
    if eps_scale >= 1.0 {
        // The exact predicate: the byte-contract fast path.
        let hit = |&i: &u32| {
            let b = &balls[i as usize];
            if open {
                b.contains_interior(p)
            } else {
                b.contains(p)
            }
        };
        out.extend(ids.iter().copied().filter(hit));
        return;
    }
    for &i in ids {
        let b = &balls[i as usize];
        let d = b.center.dist_sq(p);
        let r2 = b.radius * b.radius;
        let t = r2 * eps_scale;
        let admit = if open { d < t } else { d <= t };
        if admit {
            out.push(i);
        } else if if open { d < r2 } else { d <= r2 } {
            stats.eps_skips += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sphere::Sphere;

    #[test]
    fn contains_open_vs_closed() {
        let b = Ball::new(Point::<2>::origin(), 1.0);
        let on = Point::from([1.0, 0.0]);
        assert!(b.contains(&on));
        assert!(!b.contains_interior(&on));
        assert!(b.contains_interior(&Point::from([0.5, 0.0])));
        assert!(!b.contains(&Point::from([1.5, 0.0])));
    }

    #[test]
    fn zero_radius_ball_contains_only_center() {
        let b = Ball::new(Point::<3>::splat(2.0), 0.0);
        assert!(b.contains(&Point::splat(2.0)));
        assert!(!b.contains_interior(&Point::splat(2.0)));
        assert!(!b.contains(&Point::from([2.0, 2.0, 2.1])));
    }

    #[test]
    fn ball_ball_intersection() {
        let a = Ball::new(Point::<2>::origin(), 1.0);
        let b = Ball::new(Point::from([1.5, 0.0]), 1.0);
        let c = Ball::new(Point::from([3.0, 0.0]), 0.5);
        assert!(a.intersects(&b));
        assert!(b.intersects(&c));
        assert!(!a.intersects(&c));
        // Tangency counts (closed balls).
        let t = Ball::new(Point::from([2.0, 0.0]), 1.0);
        assert!(a.intersects(&t));
    }

    #[test]
    fn crossing_and_marching_agree_with_sphere() {
        let sep: Separator<2> = Sphere::new(Point::origin(), 2.0).into();
        let straddle = Ball::new(Point::from([2.0, 0.0]), 0.5);
        assert!(straddle.crosses(&sep));
        assert!(straddle.touches_interior_of(&sep));
        assert!(straddle.touches_exterior_of(&sep));

        let inside = Ball::new(Point::origin(), 0.5);
        assert!(!inside.crosses(&sep));
        assert!(inside.touches_interior_of(&sep));
        assert!(!inside.touches_exterior_of(&sep));

        let outside = Ball::new(Point::from([5.0, 0.0]), 0.5);
        assert!(!outside.crosses(&sep));
        assert!(!outside.touches_interior_of(&sep));
        assert!(outside.touches_exterior_of(&sep));
    }

    #[test]
    fn every_ball_reaches_at_least_one_side() {
        let sep: Separator<2> = Sphere::new(Point::from([0.3, -0.7]), 1.3).into();
        for (c, r) in [
            (Point::from([0.0, 0.0]), 0.1),
            (Point::from([4.0, 4.0]), 2.0),
            (Point::from([0.3, -0.7]), 1.3),
            (Point::from([0.3, 0.6]), 0.0),
        ] {
            let b = Ball::new(c, r);
            assert!(
                b.touches_interior_of(&sep) || b.touches_exterior_of(&sep),
                "ball at {c:?} r={r} reaches no side"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn new_rejects_negative_radius() {
        Ball::new(Point::<2>::origin(), -1.0);
    }

    fn pts_3d(n: usize) -> Vec<Point<3>> {
        // Deterministic, irregular, includes duplicates.
        (0..n)
            .map(|i| {
                let f = i as f64;
                Point::from([
                    (f * 0.37).sin() * 10.0,
                    (f * 1.91).cos() * 3.0,
                    (i % 7) as f64,
                ])
            })
            .collect()
    }

    #[test]
    fn cover_filter_matches_scalar() {
        let balls: Vec<Ball<3>> = pts_3d(33)
            .into_iter()
            .enumerate()
            .map(|(i, p)| Ball::new(p, (i % 5) as f64))
            .collect();
        let probe = Point::from([1.0, 0.5, 3.0]);
        // Reversed and repeated ids: the filter keeps their order.
        let mut ids: Vec<u32> = (0..balls.len() as u32).rev().collect();
        ids.extend(0..balls.len() as u32);
        for open in [false, true] {
            let mut got = Vec::new();
            let mut stats = FilterStats::default();
            filter_covering_into(&balls, &probe, &ids, open, 1.0, &mut got, &mut stats);
            let want: Vec<u32> = ids
                .iter()
                .copied()
                .filter(|&i| {
                    let b = &balls[i as usize];
                    if open {
                        b.contains_interior(&probe)
                    } else {
                        b.contains(&probe)
                    }
                })
                .collect();
            assert!(!want.is_empty(), "the probe must hit some ball");
            assert_eq!(got, want, "open={open}");
            assert_eq!(stats, FilterStats::default());
        }
    }

    #[test]
    fn tiered_filter_counts_eps_skips_exactly() {
        // Probe at distance 0.9r from each center: with eps_scale shrunk
        // below (0.9)^2 the relaxed predicate must skip, and the skip is
        // counted.
        let balls: Vec<Ball<3>> = (0..6)
            .map(|i| Ball::new(Point::from([i as f64 * 10.0, 0.0, 0.0]), 1.0))
            .collect();
        let probe = Point::from([0.9, 0.0, 0.0]); // inside ball 0 only
        let ids: Vec<u32> = (0..balls.len() as u32).collect();
        let eps_scale = 0.5; // relaxed threshold r^2/2 < 0.81
        let mut out = Vec::new();
        let mut stats = FilterStats::default();
        filter_covering_into(&balls, &probe, &ids, false, eps_scale, &mut out, &mut stats);
        assert!(out.is_empty(), "relaxed filter must skip");
        assert_eq!(stats.eps_skips, 1);
    }

    #[test]
    fn filter_stats_merge_accumulates() {
        let mut a = FilterStats { eps_skips: 4 };
        a.merge(&FilterStats { eps_skips: 40 });
        assert_eq!(a, FilterStats { eps_skips: 44 });
    }
}
