//! Property-based parity tests for the SoA blocked distance kernels and
//! soundness tests for the AABB-pruned Fast-Correction march.
//!
//! The kernels in `sepdc::geom::soa` claim **bitwise** parity with the
//! scalar reference `Point::dist_sq` for every input whose distance is a
//! number — not approximate agreement. These tests pin that down with
//! `to_bits` equality across dimensions 1..=8, with duplicate points,
//! duplicate ids, and raw-bit coordinates that include NaNs, infinities,
//! and subnormals. When the distance is NaN both sides must say NaN, but
//! the payload bits are exempt — see [`same_dist`].
//!
//! The pruning tests pin the conservativeness of the ball-vs-AABB
//! rejection: a pruned subtree can never contain an in-ball candidate, so
//! the pruned and unpruned marches agree on every candidate inside the
//! ball — and the end-to-end neighbor graph is byte-identical.

use proptest::prelude::*;
use sepdc::core::partition_tree::march_balls_unpruned;
use sepdc::core::{brute_force_knn, march_balls, parallel_knn, KnnDcConfig};
use sepdc::geom::ball::Ball;
use sepdc::geom::point::Point;
use sepdc::geom::soa::{SoaBalls, SoaPoints};

/// Coordinates as raw bit patterns: mostly finite grid values (duplicates
/// and exact ties), with a tail of special values (NaN, ±inf, -0.0,
/// subnormal) and fully random bit patterns. The vendored proptest has no
/// `prop_oneof`, so the choice is a mapped selector tuple.
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

/// Finite coarse-grid coordinate (for the end-to-end pruning tests, which
/// go through validated entry points).
fn coarse_coord() -> impl Strategy<Value = f64> {
    (-8i32..8).prop_map(|x| x as f64 * 0.5)
}

/// Parity predicate: bitwise equality whenever the scalar result is a
/// number (finite, ±0, subnormal, or +inf — a sum of squares is never
/// -inf), and NaN ⇔ NaN otherwise. NaN *payload* bits are exempt: IEEE-754
/// leaves NaN propagation through `-`/`*`/`+` implementation-defined, and
/// LLVM may commute the (mathematically commutative) adds differently in
/// the two separately compiled loops, so which input NaN's payload survives
/// is not stable. Every repo entry point rejects non-finite coordinates, so
/// the determinism contract only ever exercises the bitwise half.
fn same_dist(kernel: f64, scalar: f64) -> bool {
    (kernel.is_nan() && scalar.is_nan()) || kernel.to_bits() == scalar.to_bits()
}

/// Parity of every kernel against the scalar reference, for one dimension.
/// `vals` is the flattened coordinate buffer (length `n * D`).
fn check_parity<const D: usize>(vals: &[f64], q_vals: &[f64]) -> Result<(), TestCaseError> {
    let n = vals.len() / D;
    let pts: Vec<Point<D>> = (0..n)
        .map(|i| Point::from(std::array::from_fn(|d| vals[i * D + d])))
        .collect();
    let q: Point<D> = Point::from(std::array::from_fn(|d| q_vals[d]));
    let soa = SoaPoints::from_points(&pts);

    // Gather kernel: reversed ids followed by the forward ids — duplicate
    // ids are legal and must produce duplicate (identical) outputs.
    let mut ids: Vec<u32> = (0..n as u32).rev().collect();
    ids.extend(0..n as u32);
    let mut out = vec![0.0; ids.len()];
    soa.dist_sq_gather(&q, &ids, &mut out);
    for (j, &i) in ids.iter().enumerate() {
        prop_assert!(
            same_dist(out[j], q.dist_sq(&pts[i as usize])),
            "gather D={} id={}",
            D,
            i
        );
    }

    // Contiguous range kernel, every (start, len) combination.
    for start in 0..n {
        let mut out = vec![0.0; n - start];
        soa.dist_sq_range(&q, start, &mut out);
        for (j, &d) in out.iter().enumerate() {
            prop_assert!(
                same_dist(d, q.dist_sq(&pts[start + j])),
                "range D={} start={} j={}",
                D,
                start,
                j
            );
        }
    }

    // Scalar tail kernel.
    for (i, p) in pts.iter().enumerate() {
        prop_assert!(same_dist(soa.dist_sq_to(&q, i), q.dist_sq(p)));
    }
    Ok(())
}

/// One flattened coordinate buffer spanning lengths around the BLOCK=8
/// boundary (0..=3 full blocks plus tails).
fn flat_coords(d: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(raw_coord(), 0..(27 * d + 1)).prop_map(move |mut v| {
        v.truncate((v.len() / d) * d);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kernels_match_scalar_bitwise_d1(vals in flat_coords(1), q in proptest::collection::vec(raw_coord(), 1..2)) {
        check_parity::<1>(&vals, &q)?;
    }

    #[test]
    fn kernels_match_scalar_bitwise_d2(vals in flat_coords(2), q in proptest::collection::vec(raw_coord(), 2..3)) {
        check_parity::<2>(&vals, &q)?;
    }

    #[test]
    fn kernels_match_scalar_bitwise_d3(vals in flat_coords(3), q in proptest::collection::vec(raw_coord(), 3..4)) {
        check_parity::<3>(&vals, &q)?;
    }

    #[test]
    fn kernels_match_scalar_bitwise_d4(vals in flat_coords(4), q in proptest::collection::vec(raw_coord(), 4..5)) {
        check_parity::<4>(&vals, &q)?;
    }

    #[test]
    fn kernels_match_scalar_bitwise_d5(vals in flat_coords(5), q in proptest::collection::vec(raw_coord(), 5..6)) {
        check_parity::<5>(&vals, &q)?;
    }

    #[test]
    fn kernels_match_scalar_bitwise_d6(vals in flat_coords(6), q in proptest::collection::vec(raw_coord(), 6..7)) {
        check_parity::<6>(&vals, &q)?;
    }

    #[test]
    fn kernels_match_scalar_bitwise_d7(vals in flat_coords(7), q in proptest::collection::vec(raw_coord(), 7..8)) {
        check_parity::<7>(&vals, &q)?;
    }

    #[test]
    fn kernels_match_scalar_bitwise_d8(vals in flat_coords(8), q in proptest::collection::vec(raw_coord(), 8..9)) {
        check_parity::<8>(&vals, &q)?;
    }

    /// The batched ball-cover filter is the scalar `contains` /
    /// `contains_interior` filter, in the same (leaf) order.
    #[test]
    fn ball_cover_filter_matches_scalar(
        vals in flat_coords(2),
        radii_raw in proptest::collection::vec(raw_coord(), 0..32),
        probe in proptest::collection::vec(raw_coord(), 2..3),
    ) {
        let n = (vals.len() / 2).min(radii_raw.len());
        // `Ball::new` rejects non-finite radii (validated everywhere in the
        // repo), so sanitize the raw radii; centers stay raw-bit — a NaN
        // center must simply fail both cover predicates.
        let balls: Vec<Ball<2>> = (0..n)
            .map(|i| {
                let r = radii_raw[i].abs();
                let r = if r.is_finite() { r } else { 1.5 };
                Ball::new(Point::from([vals[2 * i], vals[2 * i + 1]]), r)
            })
            .collect();
        let soa = SoaBalls::from_balls(&balls);
        let p = Point::from([probe[0], probe[1]]);
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut scratch = Vec::new();
        for open in [false, true] {
            let mut fast = Vec::new();
            soa.filter_covering_into(&p, &ids, open, &mut scratch, &mut fast);
            let slow: Vec<u32> = ids
                .iter()
                .copied()
                .filter(|&i| {
                    let b = &balls[i as usize];
                    if open { b.contains_interior(&p) } else { b.contains(&p) }
                })
                .collect();
            prop_assert_eq!(&fast, &slow, "open={}", open);
        }
    }

    /// AABB pruning soundness, end to end: the pruned tree's march agrees
    /// with the unpruned march on every in-ball candidate, only ever visits
    /// fewer (ball, node) pairs, and the k-NN output itself is identical to
    /// the oracle (pruning changes accounting, never answers).
    #[test]
    fn pruned_march_is_sound(
        pts in proptest::collection::vec([coarse_coord(), coarse_coord()].prop_map(Point::from), 2..160),
        k in 1usize..4,
        seed in 0u64..500,
        br in 0.1f64..4.0,
        bc in [coarse_coord(), coarse_coord()].prop_map(Point::from),
    ) {
        let cfg = KnnDcConfig::new(k).with_seed(seed);
        let out = parallel_knn::<2, 3>(&pts, &cfg);

        // The neighbor graph is byte-identical to the oracle's distances.
        let oracle = brute_force_knn(&pts, k);
        prop_assert!(out.knn.same_distances(&oracle, 1e-9).is_ok());

        // March an arbitrary ball down the output tree both ways.
        let balls = vec![Ball::new(bc, br)];
        let pruned = march_balls(&out.tree, &balls, usize::MAX);
        let full = march_balls_unpruned(&out.tree, &balls, usize::MAX);
        prop_assert!(!pruned.aborted && !full.aborted);
        prop_assert!(pruned.total_steps <= full.total_steps);
        prop_assert_eq!(full.pruned, 0);

        // Candidate subset property …
        let mut pc = pruned.candidates[0].clone();
        let mut fc = full.candidates[0].clone();
        pc.sort_unstable();
        fc.sort_unstable();
        for id in &pc {
            prop_assert!(fc.binary_search(id).is_ok(), "pruned march invented candidate {id}");
        }
        // … and every in-ball candidate of the unpruned march survives
        // pruning: a pruned subtree's box misses the ball, so it cannot
        // hold a point inside the ball.
        let r_sq = br * br;
        for &id in &fc {
            if bc.dist_sq(&pts[id as usize]) <= r_sq {
                prop_assert!(
                    pc.binary_search(&id).is_ok(),
                    "pruning dropped in-ball candidate {id}"
                );
            }
        }
    }
}
