//! Edge-case coverage for degenerate inputs: `k ≥ n`, `k = n - 1`,
//! `n ∈ {0, 1, 2}`, all-duplicate multisets, and the poisoned generators
//! from `sepdc_workloads::degenerate`. Both divide-and-conquer algorithms
//! are compared against the brute-force oracle; short lists must keep
//! their radius at `INFINITY` and every result must pass
//! `check_invariants`.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sepdc::core::{
    brute_force_knn, parallel_knn, simple_parallel_knn, try_parallel_knn, try_simple_parallel_knn,
    KnnDcConfig, KnnResult, NeighborhoodSystem, QueryTree, QueryTreeConfig, SepdcError,
};
use sepdc::geom::Point;
use sepdc::workloads::{degenerate, rng, Workload};

/// Run both D&C algorithms and the oracle on the same input; verify
/// agreement, invariants, and the short-list radius contract.
fn check_all_algorithms(pts: &[Point<2>], k: usize, seed: u64, label: &str) {
    let cfg = KnnDcConfig::new(k).with_seed(seed);
    let oracle = brute_force_knn(pts, k);
    oracle.check_invariants().unwrap();

    let par = parallel_knn::<2, 3>(pts, &cfg);
    par.knn
        .same_distances(&oracle, 1e-12)
        .unwrap_or_else(|e| panic!("{label}: parallel vs oracle: {e}"));
    par.knn.check_invariants().unwrap();

    let simple = simple_parallel_knn::<2, 3>(pts, &cfg);
    simple
        .knn
        .same_distances(&oracle, 1e-12)
        .unwrap_or_else(|e| panic!("{label}: simple vs oracle: {e}"));
    simple.knn.check_invariants().unwrap();

    // Short lists (fewer than k neighbors exist) keep an unbounded radius.
    for result in [&par.knn, &simple.knn, &oracle] {
        check_short_list_radii(result, pts.len(), k, label);
    }
}

fn check_short_list_radii(knn: &KnnResult, n: usize, k: usize, label: &str) {
    for i in 0..n {
        let len = knn.neighbors(i).len();
        assert_eq!(len, k.min(n - 1), "{label}: point {i} list length");
        if len < k {
            assert_eq!(
                knn.radius_sq(i),
                f64::INFINITY,
                "{label}: point {i} short list must keep radius_sq = INFINITY"
            );
        }
    }
}

#[test]
fn k_at_and_above_n() {
    for n in [2usize, 5, 40] {
        let pts = Workload::UniformCube.generate::<2>(n, 31);
        for k in [n - 1, n, n + 1, n + 5] {
            check_all_algorithms(&pts, k, 7, &format!("n={n} k={k}"));
        }
    }
}

#[test]
fn tiny_inputs() {
    // n = 0: empty result, no panic (k is valid, there is just nothing to do).
    let empty: Vec<Point<2>> = Vec::new();
    let cfg = KnnDcConfig::new(3);
    let out = try_parallel_knn::<2, 3>(&empty, &cfg).unwrap();
    assert_eq!(out.knn.len(), 0);
    let out = try_simple_parallel_knn::<2, 3>(&empty, &cfg).unwrap();
    assert_eq!(out.knn.len(), 0);

    // n = 1: one empty list with unbounded radius. n = 2: mutual neighbors.
    for n in [1usize, 2] {
        let pts = Workload::UniformCube.generate::<2>(n, 32);
        for k in [1usize, 2, 3] {
            check_all_algorithms(&pts, k, 8, &format!("tiny n={n} k={k}"));
        }
    }
}

#[test]
fn all_duplicate_inputs() {
    for n in [2usize, 17, 130] {
        let pts = degenerate::all_coincident::<2>(n, 2.5);
        for k in [1usize, 2, n - 1, n, n + 1] {
            if k == 0 {
                continue;
            }
            check_all_algorithms(&pts, k, 9, &format!("coincident n={n} k={k}"));
        }
        // All-coincident with k < n: every neighbor is at distance 0.
        let knn = brute_force_knn(&pts, 1);
        for i in 0..n {
            assert_eq!(knn.radius_sq(i), 0.0);
        }
    }
}

#[test]
fn duplicate_bundles_match_oracle() {
    let pts = degenerate::duplicate_bundles::<2, _>(120, 5, &mut rng(33));
    for k in [1usize, 4, 6] {
        check_all_algorithms(&pts, k, 10, &format!("bundles k={k}"));
    }
}

#[test]
fn tolerance_band_cluster_terminates_and_matches() {
    // The whole cloud sits inside a typical separator tolerance band: this
    // is the shape where accepted separators can disagree with strict-side
    // routing. Must terminate (degenerate-split guard) and stay correct.
    let pts = degenerate::tolerance_band_cluster::<2, _>(200, 1e-12, &mut rng(34));
    check_all_algorithms(&pts, 2, 11, "tolerance-band");
}

/// 20k points jittered by 1e-6: neighbor gaps are ~1e-8, so many points sit
/// in a separator's `EPS` = 1e-9 surface band, which routes them to the
/// interior side.
fn band_cloud(seed: u64) -> Vec<Point<2>> {
    degenerate::tolerance_band_cluster::<2, _>(20_000, 1e-6, &mut ChaCha8Rng::seed_from_u64(seed))
}

#[test]
fn balls_reaching_the_eps_band_are_corrected() {
    // A ball centered just outside a separator that holds an interior-routed
    // band point, without reaching the exact surface, must still count as
    // crossing; otherwise that point's list is never corrected.
    for s in 0..=5 {
        let pts = band_cloud(s);
        let oracle = brute_force_knn(&pts, 4);
        let cfg = KnnDcConfig::new(4).with_seed(3);
        parallel_knn::<2, 3>(&pts, &cfg)
            .knn
            .identical_to(&oracle)
            .unwrap_or_else(|e| panic!("s={s}: {e}"));
    }
}

#[test]
fn query_tree_covers_probes_in_the_eps_band() {
    // The same band defect in the query tree: a ball reaching the band but
    // not the surface would miss the interior child.
    let pts = band_cloud(1);
    let sys = NeighborhoodSystem::from_knn(&pts, &brute_force_knn(&pts, 4));
    let tree = QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), 5);
    for p in &pts {
        let mut fast = tree.covering(p);
        fast.sort_unstable();
        let slow: Vec<u32> = (0..sys.balls().len() as u32)
            .filter(|&i| sys.balls()[i as usize].contains(p))
            .collect();
        assert_eq!(fast, slow, "covering mismatch at {p:?}");
    }
}

#[test]
fn poisoned_clouds_are_rejected_not_panicked() {
    let cfg = KnnDcConfig::new(2);
    for n in [1usize, 10, 100] {
        let nan_pts = degenerate::nan_poisoned::<2, _>(n, 0.1, &mut rng(35));
        for res in [
            try_parallel_knn::<2, 3>(&nan_pts, &cfg).map(|o| o.knn),
            try_simple_parallel_knn::<2, 3>(&nan_pts, &cfg).map(|o| o.knn),
        ] {
            match res {
                Err(SepdcError::NonFinitePoint { idx }) => {
                    assert!(
                        !nan_pts[idx].is_finite(),
                        "reported index must be the offender"
                    );
                }
                other => panic!("n={n}: expected NonFinitePoint, got {:?}", other.err()),
            }
        }
    }
    let inf_pts = degenerate::inf_poisoned::<2, _>(50, &mut rng(36));
    assert!(matches!(
        try_parallel_knn::<2, 3>(&inf_pts, &cfg),
        Err(SepdcError::NonFinitePoint { .. })
    ));
}
