//! Thread-count build parity for every splitter backend.
//!
//! The determinism contract says every build is a pure function of
//! (points, config, seed) — at any rayon pool size. This suite pins it
//! for the `random` and `graph` backends over adversarial generators,
//! over both the §6 k-NN recursion and the §3 query structure, using
//! snapshot bytes as the strictest possible fingerprint (byte-identical
//! trees, not just equal answers). The driver asks a backend first only
//! at nodes of at least `HALVING_FIRST_BELOW` items, so the backends are
//! pinned on inputs of that size; the small-input proptest pins the
//! halving-first path below it.
//!
//! Also re-pins the seed=8200 / tol=0.5 degenerate rescue — the case
//! where the random search accepts a separator that routes every point
//! one way and the driver's halving rescue must re-split instead of
//! forcing a brute leaf — at every pool size.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sepdc_core::snapshot::save_query_tree;
use sepdc_core::{
    brute_force_knn, kdtree_all_knn, parallel_knn, KnnDcConfig, ParallelDcStats, QueryTree,
    QueryTreeConfig, SplitterKind, HALVING_FIRST_BELOW,
};
use sepdc_geom::ball::Ball;
use sepdc_geom::Point;
use sepdc_workloads::degenerate::{duplicate_bundles, tolerance_band_cluster};
use sepdc_workloads::Workload;

const POOLS: [usize; 3] = [1, 2, 7];

fn in_pool<T>(threads: usize, f: impl FnOnce() -> T + Send, t: std::marker::PhantomData<T>) -> T
where
    T: Send,
{
    let _ = t;
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// A total, bit-exact fingerprint of a k-NN answer set.
fn knn_fingerprint(out: &sepdc_core::ParallelDcOutput<2>) -> Vec<(usize, Vec<(u64, u32)>)> {
    (0..out.knn.len())
        .map(|i| {
            (
                i,
                out.knn
                    .neighbors(i)
                    .iter()
                    .map(|n| (n.dist_sq.to_bits(), n.idx))
                    .collect(),
            )
        })
        .collect()
}

/// Decode a generator selector into a (possibly adversarial) point set.
fn generate(selector: u32, n: usize, seed: u64) -> Vec<Point<2>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match selector % 4 {
        0 => Workload::UniformCube.generate::<2>(n, seed),
        1 => duplicate_bundles::<2, _>(n, 6, &mut rng),
        2 => tolerance_band_cluster::<2, _>(n, 1e-6, &mut rng),
        _ => Workload::NoisyLine.generate::<2>(n, seed),
    }
}

/// Balls for the query-tree side: centers at the points, radius to the
/// nearest neighbor (a miniature neighborhood system, deterministic).
fn balls_of(points: &[Point<2>]) -> Vec<Ball<2>> {
    let knn = kdtree_all_knn(points, 1);
    points
        .iter()
        .enumerate()
        .map(|(i, p)| Ball::new(*p, knn.neighbors(i)[0].dist_sq.sqrt().max(1e-9)))
        .collect()
}

/// Build `points` under `random` and `graph` in 1/2/7-thread pools and
/// assert the builds are byte-identical: the §6 recursion (bit-exact
/// neighbor lists + stats) and the §3 query tree (bit-exact snapshot
/// bytes). Returns each backend's §6 stats.
fn assert_builds_identical_across_pools(
    points: &[Point<2>],
    seed: u64,
) -> Result<Vec<(SplitterKind, ParallelDcStats)>, TestCaseError> {
    let balls = balls_of(points);
    let mut per_kind = Vec::new();
    for kind in [SplitterKind::Random, SplitterKind::Graph] {
        let cfg = KnnDcConfig::new(2).with_seed(seed).with_splitter(kind);
        let tree_cfg = QueryTreeConfig {
            splitter: kind,
            ..QueryTreeConfig::default()
        };
        let mut base: Option<(_, ParallelDcStats, Vec<u8>)> = None;
        for threads in POOLS {
            let (fp, stats, snap) = in_pool(
                threads,
                || {
                    let out = parallel_knn::<2, 3>(points, &cfg);
                    let tree = QueryTree::try_build::<3>(&balls, tree_cfg, seed).unwrap();
                    (knn_fingerprint(&out), out.stats, save_query_tree(&tree))
                },
                std::marker::PhantomData,
            );
            match &base {
                None => base = Some((fp, stats, snap)),
                Some((base_fp, base_stats, base_snap)) => {
                    prop_assert_eq!(
                        &fp,
                        base_fp,
                        "{:?} knn differs at {} threads",
                        kind,
                        threads
                    );
                    prop_assert_eq!(
                        &stats,
                        base_stats,
                        "{:?} stats differ at {} threads",
                        kind,
                        threads
                    );
                    prop_assert_eq!(
                        &snap,
                        base_snap,
                        "{:?} snapshot differs at {} threads",
                        kind,
                        threads
                    );
                }
            }
        }
        per_kind.push((kind, base.unwrap().1));
    }
    Ok(per_kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Small inputs: every node is below the cutoff, so this pins the
    /// halving-first path (and the backend only as a rescue).
    #[test]
    fn backends_build_identically_across_pools(
        selector in 0u32..4,
        n in 60usize..200,
        seed in 0u64..1 << 48,
    ) {
        assert_builds_identical_across_pools(&generate(selector, n, seed), seed)?;
    }
}

/// Every generator at the cutoff: the root of both builds asks the backend
/// first, so this pins `random` and `graph` inside the driver. `random`
/// cuts every root; `graph` cuts the uniform and tolerance-band roots, and
/// on duplicate bundles and the noisy line it returns no cut and the
/// halving fallback cuts the root. Fails if a backend stops being asked or
/// stops cutting where it cuts today.
#[test]
fn backends_build_identically_across_pools_at_the_cutoff() {
    for selector in 0..4 {
        let points = generate(selector, HALVING_FIRST_BELOW, 29 + u64::from(selector));
        let per_kind = assert_builds_identical_across_pools(&points, 31).unwrap();
        for (kind, stats) in per_kind {
            // A backend search adds at least one candidate, a halving cut
            // exactly one.
            assert!(
                stats.candidates > stats.halving_splits,
                "selector {selector} {kind:?}: {stats:?}"
            );
            // Internal nodes are leaves - 1; those not cut by the halving
            // cut were cut by the backend.
            let backend = stats.base_leaves as u64 - 1 - stats.halving_splits;
            match kind {
                SplitterKind::Random => assert!(backend > 0, "selector {selector}: {stats:?}"),
                SplitterKind::Graph => {
                    assert_eq!(
                        stats.graph_splits, backend,
                        "selector {selector}: {stats:?}"
                    );
                    assert!(
                        backend > 0 || selector % 2 == 1,
                        "selector {selector}: {stats:?}"
                    );
                }
            }
        }
    }
}

/// The pinned seed=8200 / tol=0.5 degenerate case: the random search
/// accepts a one-sided separator, and the driver's halving rescue must
/// re-split the node instead of forcing a brute leaf — with the same
/// counters and bit-exact answers at every pool size. The input (the one
/// `parallel.rs` pins the precondition on) is 64 uniform sites jittered
/// into 2^14 points, so the root takes the backend's cut first.
#[test]
fn halving_rescue_is_pinned_and_pool_oblivious() {
    use rand::Rng;
    let sites = Workload::UniformCube.generate::<2>(64, 0);
    let mut jitter = ChaCha8Rng::seed_from_u64(1);
    let pts: Vec<Point<2>> = (0..1usize << 14)
        .map(|i| {
            let s = sites[i % 64];
            Point::from([
                s[0] + jitter.gen_range(-1e-3..1e-3),
                s[1] + jitter.gen_range(-1e-3..1e-3),
            ])
        })
        .collect();
    let mut cfg = KnnDcConfig::new(1).with_seed(8200);
    cfg.base_case = Some(16);
    cfg.separator.tol = 0.5;
    cfg.separator.epsilon = 0.2;
    cfg.separator.max_attempts = 1;
    let oracle = brute_force_knn(&pts, 1);

    let mut base = None;
    for threads in POOLS {
        let (fp, stats) = in_pool(
            threads,
            || {
                let out = parallel_knn::<2, 3>(&pts, &cfg);
                out.knn.same_distances(&oracle, 1e-12).unwrap();
                (knn_fingerprint(&out), out.stats)
            },
            std::marker::PhantomData,
        );
        assert!(stats.halving_rescues >= 1, "{threads} threads: {stats:?}");
        assert_eq!(stats.degenerate_splits, 0, "{threads} threads: {stats:?}");
        match &base {
            None => base = Some((fp, stats)),
            Some(b) => assert_eq!(&(fp, stats), b, "{threads} threads"),
        }
    }
}
