//! Exact-path and certificate tests for the cover filter and the opt-in
//! (1+ε)-approximation mode (DESIGN.md §17).
//!
//! Three contracts are pinned here:
//!
//! 1. **Relaxed-filter soundness.** The ε-relaxed cover filter only ever
//!    narrows the exact filter: what it keeps is an in-order subsequence
//!    of what the exact filter keeps, each ball it drops is counted once
//!    in `eps_skips`, and at ε = 0 it *is* the exact filter. This is
//!    fuzzed on raw-bit and subnormal coordinates, not just sampled.
//! 2. **Exact parity.** At ε = 0 the §6 recursion, the §5 recursion, and
//!    the kd-tree baseline return answers byte-identical to the
//!    brute-force oracle, and no run reports an ε skip.
//! 3. **ε certificate.** With ε > 0 the answers may drift, but the drift
//!    measured against the brute-force oracle stays within the
//!    certificate bound: per-rank relative distance error ≤ ε and no
//!    short lists.

use proptest::prelude::*;
use sepdc::core::{
    brute_force_knn, eps_cover_scale, parallel_knn, simple_parallel_knn, try_kdtree_all_knn,
    KnnDcConfig, KnnResult,
};
use sepdc::geom::ball::Ball;
use sepdc::geom::point::Point;
use sepdc::geom::soa::{FilterStats, SoaBalls, SoaPoints};
use sepdc::workloads::Workload;

/// Coordinates as raw bit patterns: mostly finite grid values, with a
/// tail of special values and fully random bits (same idiom as
/// `proptest_soa_kernels.rs`; the vendored proptest has no `prop_oneof`).
fn raw_coord() -> impl Strategy<Value = f64> {
    (0u32..12, any::<u64>()).prop_map(|(sel, bits)| match sel {
        0..=5 => ((bits % 32) as f64 - 16.0) * 0.5, // coarse grid
        6 => f64::NAN,
        7 => f64::INFINITY,
        8 => f64::NEG_INFINITY,
        9 => -0.0,
        10 => f64::MIN_POSITIVE / 2.0, // subnormal
        _ => f64::from_bits(bits),     // arbitrary raw bits
    })
}

/// The ε values the filter tests sweep; index 0 is the exact predicate.
const EPSILONS: [f64; 4] = [0.0, 1e-9, 0.5, 3.0];

/// A total, bit-exact fingerprint of one answer set.
fn fingerprint(knn: &KnnResult) -> Vec<Vec<(u64, u32)>> {
    (0..knn.len())
        .map(|i| {
            knn.neighbors(i)
                .iter()
                .map(|n| (n.dist_sq.to_bits(), n.idx))
                .collect()
        })
        .collect()
}

/// Run the exact and the ε-relaxed cover filters over every ball for
/// probe `p` and check contract 1 against the scalar predicates.
fn check_filters<const D: usize>(
    balls: &[Ball<D>],
    p: &Point<D>,
    eps: f64,
) -> Result<(), TestCaseError> {
    let soa = SoaBalls::from_balls(balls);
    let ids: Vec<u32> = (0..balls.len() as u32).collect();
    let scale = eps_cover_scale(eps);
    let mut scratch = Vec::new();
    for open in [false, true] {
        let mut exact = Vec::new();
        soa.filter_covering_into(p, &ids, open, &mut scratch, &mut exact);
        let scalar: Vec<u32> = ids
            .iter()
            .copied()
            .filter(|&i| {
                let b = &balls[i as usize];
                if open {
                    b.contains_interior(p)
                } else {
                    b.contains(p)
                }
            })
            .collect();
        prop_assert_eq!(&exact, &scalar, "exact filter vs scalar, open={}", open);

        let mut relaxed = Vec::new();
        let mut stats = FilterStats::default();
        soa.filter_covering_eps_into(p, &ids, open, scale, &mut scratch, &mut relaxed, &mut stats);
        let mut rest = exact.iter();
        for &i in &relaxed {
            prop_assert!(
                rest.any(|&e| e == i),
                "relaxed kept {} outside the exact set (or out of order), open={}",
                i,
                open
            );
            let d = balls[i as usize].center.dist_sq(p);
            let t = soa.radius_sq()[i as usize] * scale;
            prop_assert!(
                if open { d < t } else { d <= t },
                "relaxed kept {} past r²·scale",
                i
            );
        }
        prop_assert_eq!(
            stats.eps_skips,
            (exact.len() - relaxed.len()) as u64,
            "each dropped ball is one skip, open={}",
            open
        );
        if eps == 0.0 {
            prop_assert_eq!(&relaxed, &exact, "ε = 0 is the exact filter, open={}", open);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 1 on raw bits: NaN, infinite, and arbitrary-bit centers
    /// and probes never let the relaxed filter keep a ball the exact one
    /// drops, and the skip count is exact. Radii are sanitized because
    /// `Ball::new` rejects non-finite ones. The `on_sphere` balls sit a
    /// grid step from the probe along one axis with that step as radius,
    /// so whenever the probe's coordinate on that axis is on the grid,
    /// `dist_sq == r²` exactly and the closed/open boundary is exercised.
    #[test]
    fn eps_cover_filter_only_narrows_on_raw_bits(
        vals in proptest::collection::vec(raw_coord(), 0..96),
        radii_raw in proptest::collection::vec(raw_coord(), 0..32),
        on_sphere in proptest::collection::vec((0usize..3, 1u32..16), 0..8),
        probe in proptest::collection::vec(raw_coord(), 3..4),
        eps_sel in 0usize..EPSILONS.len(),
    ) {
        let p = Point::from([probe[0], probe[1], probe[2]]);
        let n = (vals.len() / 3).min(radii_raw.len());
        let mut balls: Vec<Ball<3>> = (0..n)
            .map(|i| {
                let r = radii_raw[i].abs();
                let r = if r.is_finite() { r } else { 1.5 };
                Ball::new(Point::from([vals[3 * i], vals[3 * i + 1], vals[3 * i + 2]]), r)
            })
            .collect();
        for &(axis, step) in &on_sphere {
            let r = step as f64 * 0.5;
            let mut c = p;
            c[axis] += r;
            balls.push(Ball::new(c, r));
        }
        check_filters(&balls, &p, EPSILONS[eps_sel])?;
    }

    /// Contract 1 where squares lose precision: regime 0 puts every
    /// coordinate and radius in the subnormal range, so all squares flush
    /// to zero; regime 1 puts them near `sqrt(MIN_POSITIVE)`, so squares
    /// straddle the normal/subnormal boundary. The blocked kernel must
    /// stay bit-exact with the scalar distance in both.
    #[test]
    fn cover_filters_are_sound_on_subnormals(
        regime in 0u32..2,
        scales in proptest::collection::vec((0u32..40, 0u32..40), 1..48),
        q_scale in 0u32..40,
        eps_sel in 0usize..EPSILONS.len(),
    ) {
        let unit = if regime == 0 { f64::MIN_POSITIVE } else { f64::MIN_POSITIVE.sqrt() };
        let tiny = |s: u32| unit * (s as f64 + 0.5) / 8.0;
        let balls: Vec<Ball<2>> = scales
            .iter()
            .map(|&(s, r)| Ball::new(Point::from([tiny(s), -tiny(s / 2 + 1)]), tiny(r)))
            .collect();
        let p = Point::from([tiny(q_scale), tiny(q_scale + 1)]);

        let centers: Vec<Point<2>> = balls.iter().map(|b| b.center).collect();
        let soa = SoaPoints::from_points(&centers);
        let ids: Vec<u32> = (0..centers.len() as u32).collect();
        let mut d = vec![0.0; centers.len()];
        soa.dist_sq_gather(&p, &ids, &mut d);
        for (i, c) in centers.iter().enumerate() {
            prop_assert_eq!(d[i].to_bits(), p.dist_sq(c).to_bits(), "kernel vs scalar at {}", i);
        }
        check_filters(&balls, &p, EPSILONS[eps_sel])?;
    }

    /// Contract 2, end to end: at ε = 0 the §6 recursion, the §5
    /// recursion, and the kd baseline all equal the oracle bit for bit,
    /// and neither recursion reports an ε skip.
    #[test]
    fn exact_paths_are_byte_identical_end_to_end(
        selector in 0u32..4,
        n in 60usize..220,
        seed in 0u64..1 << 40,
    ) {
        let w = match selector % 4 {
            0 => Workload::UniformCube,
            1 => Workload::Clusters,
            2 => Workload::SphereShell,
            _ => Workload::NoisyLine,
        };
        let points = w.generate::<2>(n, seed);
        let k = 3;
        let cfg = KnnDcConfig::new(k).with_seed(seed);
        let oracle = fingerprint(&brute_force_knn(&points, k));

        let p6 = parallel_knn::<2, 3>(&points, &cfg);
        prop_assert_eq!(&fingerprint(&p6.knn), &oracle, "§6 vs oracle");
        prop_assert_eq!(p6.meter.eps_skips, 0, "§6 exact run skipped a ball");
        prop_assert_eq!(p6.report.counter("precision.eps_skips"), Some(0.0));

        let p5 = simple_parallel_knn::<2, 3>(&points, &cfg);
        prop_assert_eq!(&fingerprint(&p5.knn), &oracle, "§5 vs oracle");
        prop_assert_eq!(p5.report.counter("precision.eps_skips"), Some(0.0));

        let kd = try_kdtree_all_knn(&points, k).unwrap();
        prop_assert_eq!(&fingerprint(&kd), &oracle, "kd vs oracle");
    }

    /// ε certificate: the approximate answers drift within the certified
    /// bound against the brute-force oracle — per-rank relative distance
    /// error ≤ ε, full-length lists, and the certificate's own exact-run
    /// comparison is clean at ε = 0.
    #[test]
    fn epsilon_mode_error_is_bounded_and_certified(
        n in 120usize..300,
        seed in 0u64..1 << 40,
    ) {
        let eps = 0.5;
        let points = Workload::Clusters.generate::<2>(n, seed);
        let k = 3;
        let cfg = KnnDcConfig::new(k).with_seed(seed).with_epsilon(eps);
        let approx = parallel_knn::<2, 3>(&points, &cfg);
        let oracle = brute_force_knn(&points, k);
        let cert = approx.knn.error_certificate(&oracle);
        prop_assert!(
            cert.within(eps),
            "certificate out of bound: max_rel_error {} short_ranks {}",
            cert.max_rel_error, cert.short_ranks
        );
        prop_assert_eq!(cert.compared_entries, (n * k) as u64);

        // ε = 0 in the same configuration is the exact path: certificate
        // against the oracle is identically clean.
        let exact = parallel_knn::<2, 3>(&points, &cfg.with_epsilon(0.0));
        let clean = exact.knn.error_certificate(&oracle);
        prop_assert_eq!(clean.max_rel_error, 0.0);
        prop_assert_eq!(clean.mismatched_entries, 0);
        prop_assert_eq!(clean.short_ranks, 0);
    }
}

/// ε-mode must actually *use* its freedom somewhere: across a seed sweep
/// the certificate is nonzero at least once (the relaxation changed an
/// answer) while every run stays within the bound. A sweep (rather than
/// one pinned seed) keeps the test robust to splitter evolution.
#[test]
fn epsilon_mode_produces_nonzero_bounded_certificates() {
    let eps = 0.5;
    let k = 4;
    let mut saw_drift = false;
    for seed in 0..24u64 {
        let points = Workload::Clusters.generate::<2>(500, seed);
        let cfg = KnnDcConfig::new(k).with_seed(seed).with_epsilon(eps);
        let approx = parallel_knn::<2, 3>(&points, &cfg);
        let oracle = brute_force_knn(&points, k);
        let cert = approx.knn.error_certificate(&oracle);
        assert!(
            cert.within(eps),
            "seed {seed}: certificate out of bound: {cert:?}"
        );
        if cert.max_rel_error > 0.0 {
            saw_drift = true;
        }
    }
    assert!(
        saw_drift,
        "ε = {eps} never changed any answer across the sweep — the \
         relaxation is not exercising its freedom"
    );
}
