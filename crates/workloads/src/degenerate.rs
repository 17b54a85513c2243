//! Degenerate and adversarial-robustness inputs.
//!
//! These generators produce the inputs a *total* API must survive rather
//! than the inputs the complexity analysis is about: NaN-poisoned clouds,
//! all-coincident multisets, near-coincident clusters sitting inside the
//! separator tolerance band. They are deliberately **not** part of
//! [`crate::Workload::ALL`] — the experiment sweeps assume finite,
//! non-degenerate data — and are consumed by the totality/fuzz test
//! suites instead.

use crate::distributions::uniform_cube;
use rand::Rng;
use sepdc_geom::Point;

/// A uniform cloud where roughly `poison_rate` of the points have one
/// coordinate replaced by NaN (always including point 0's replacement
/// candidate pool, so at least one point is poisoned for `n ≥ 1`).
///
/// Feeding this to any `try_*` entry point must yield
/// `SepdcError::NonFinitePoint` — never a panic or a hang.
pub fn nan_poisoned<const D: usize, R: Rng>(
    n: usize,
    poison_rate: f64,
    rng: &mut R,
) -> Vec<Point<D>> {
    let mut pts = uniform_cube::<D, R>(n, rng);
    let mut poisoned = false;
    for p in pts.iter_mut() {
        if rng.gen_range(0.0..1.0) < poison_rate {
            let axis = rng.gen_range(0..D);
            p.0[axis] = f64::NAN;
            poisoned = true;
        }
    }
    if !poisoned {
        if let Some(p) = pts.first_mut() {
            p.0[0] = f64::NAN;
        }
    }
    pts
}

/// A uniform cloud where one random point has one coordinate replaced by
/// `±INFINITY`.
pub fn inf_poisoned<const D: usize, R: Rng>(n: usize, rng: &mut R) -> Vec<Point<D>> {
    let mut pts = uniform_cube::<D, R>(n, rng);
    if let Some(i) = (!pts.is_empty()).then(|| rng.gen_range(0..pts.len())) {
        let axis = rng.gen_range(0..D);
        let sign = if rng.gen_range(0.0..1.0) < 0.5 {
            1.0
        } else {
            -1.0
        };
        pts[i].0[axis] = sign * f64::INFINITY;
    }
    pts
}

/// `n` copies of the same point — no separator can split this multiset, so
/// every algorithm must fall through to its forced-leaf path and report
/// `radius_sq = 0` for `k < n`.
pub fn all_coincident<const D: usize>(n: usize, value: f64) -> Vec<Point<D>> {
    vec![Point::splat(value); n]
}

/// A cloud of tight duplicate bundles: `n` points in `n / bundle` distinct
/// locations, each location repeated `bundle` times exactly. Exercises the
/// duplicate-handling of the neighbor lists (distance-0 neighbors must be
/// distinct indices) and separator surfaces through coincident points.
pub fn duplicate_bundles<const D: usize, R: Rng>(
    n: usize,
    bundle: usize,
    rng: &mut R,
) -> Vec<Point<D>> {
    let bundle = bundle.max(1);
    let sites = uniform_cube::<D, R>(n.div_ceil(bundle), rng);
    let mut out = Vec::with_capacity(n);
    'fill: for site in sites {
        for _ in 0..bundle {
            if out.len() == n {
                break 'fill;
            }
            out.push(site);
        }
    }
    out
}

/// Points jittered by at most `scale` around a single location: the whole
/// cloud fits inside a typical separator tolerance band, so accepted
/// separators can disagree with strict-side routing. This is the shape
/// behind the degenerate-split forced-leaf fallback.
pub fn tolerance_band_cluster<const D: usize, R: Rng>(
    n: usize,
    scale: f64,
    rng: &mut R,
) -> Vec<Point<D>> {
    (0..n)
        .map(|_| {
            let mut c = [0.0; D];
            for v in &mut c {
                *v = 0.5 + rng.gen_range(-scale..scale.max(f64::MIN_POSITIVE));
            }
            Point(c)
        })
        .collect()
}

/// A strip of `n - 2` uniform points plus one far outlier on each side of
/// it along axis 0. The strip is `width` wide along axis 0 and
/// `L = n^(1/(D-1))` long on every other axis, so neighbors sit about one
/// unit apart; the outliers sit `2L` out (at `-2L` and `2L`, centered on
/// the other axes).
///
/// Built against the widest-axis halving cut: the outliers make axis 0
/// the widest at every subset that holds one, so the cut splits the strip
/// across its width, and with `width` well below one every k-NN ball
/// crosses it. A sphere separator still crosses few.
pub fn outlier_strip<const D: usize, R: Rng>(n: usize, width: f64, rng: &mut R) -> Vec<Point<D>> {
    let len = (n.max(1) as f64).powf(1.0 / (D.max(2) - 1) as f64);
    let mut pts: Vec<Point<D>> = (0..n.saturating_sub(2))
        .map(|_| {
            let mut c = [0.0; D];
            c[0] = rng.gen_range(0.0..width.max(f64::MIN_POSITIVE));
            for v in &mut c[1..] {
                *v = rng.gen_range(0.0..len);
            }
            Point(c)
        })
        .collect();
    for x in [-2.0 * len, 2.0 * len].into_iter().take(n) {
        let mut c = [len / 2.0; D];
        c[0] = x;
        pts.push(Point(c));
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn nan_poisoned_always_has_a_nan() {
        for n in [1usize, 2, 10, 100] {
            let pts = nan_poisoned::<2, _>(n, 0.05, &mut rng(1));
            assert_eq!(pts.len(), n);
            assert!(pts.iter().any(|p| !p.is_finite()), "n={n}");
        }
        assert!(nan_poisoned::<2, _>(0, 0.5, &mut rng(1)).is_empty());
    }

    #[test]
    fn inf_poisoned_has_an_infinity() {
        let pts = inf_poisoned::<3, _>(50, &mut rng(2));
        assert!(pts.iter().any(|p| p.0.iter().any(|c| c.is_infinite())));
    }

    #[test]
    fn all_coincident_is_constant() {
        let pts = all_coincident::<2>(40, 3.0);
        assert_eq!(pts.len(), 40);
        assert!(pts.iter().all(|p| *p == Point::splat(3.0)));
    }

    #[test]
    fn duplicate_bundles_repeat_sites() {
        let pts = duplicate_bundles::<2, _>(100, 4, &mut rng(3));
        assert_eq!(pts.len(), 100);
        let mut sorted: Vec<_> = pts
            .iter()
            .map(|p| (p.0[0].to_bits(), p.0[1].to_bits()))
            .collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 25);
    }

    #[test]
    fn tolerance_band_cluster_is_tight() {
        let pts = tolerance_band_cluster::<2, _>(64, 1e-12, &mut rng(4));
        assert_eq!(pts.len(), 64);
        for p in &pts {
            assert!((p.0[0] - 0.5).abs() <= 1e-12);
            assert!(p.is_finite());
        }
    }

    #[test]
    fn outlier_strip_is_thin_but_widest_along_axis_0() {
        let pts = outlier_strip::<2, _>(100, 0.01, &mut rng(5));
        assert_eq!(pts.len(), 100);
        let (strip, outliers) = pts.split_at(98);
        assert!(strip.iter().all(|p| (0.0..0.01).contains(&p.0[0])));
        assert!(strip.iter().all(|p| (0.0..100.0).contains(&p.0[1])));
        assert_eq!(outliers, [Point([-200.0, 50.0]), Point([200.0, 50.0])]);
    }
}
