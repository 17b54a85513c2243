//! Thread-count build parity for every splitter backend.
//!
//! The determinism contract says every build is a pure function of
//! (points, config, seed) — at any rayon pool size. This suite pins it
//! for the `random` and `graph` backends over adversarial generators,
//! over both the §6 k-NN recursion and the §3 query structure, using
//! snapshot bytes as the strictest possible fingerprint (byte-identical
//! trees, not just equal answers).
//!
//! Also re-pins the seed=5028 / tol=0.5 degenerate rescue — the case
//! where the random search accepts a separator that routes every point
//! one way and the driver's halving rescue must re-split instead of
//! forcing a brute leaf — at every pool size.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sepdc_core::snapshot::save_query_tree;
use sepdc_core::{
    brute_force_knn, parallel_knn, KnnDcConfig, QueryTree, QueryTreeConfig, SplitterKind,
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
    let knn = brute_force_knn(points, 1);
    points
        .iter()
        .enumerate()
        .map(|(i, p)| Ball::new(*p, knn.neighbors(i)[0].dist_sq.sqrt().max(1e-9)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `random` and `graph` builds are byte-identical across 1/2/7-thread
    /// pools, for the §6 recursion (bit-exact neighbor lists + stats) and
    /// the §3 query tree (bit-exact snapshot bytes).
    #[test]
    fn backends_build_identically_across_pools(
        selector in 0u32..4,
        n in 60usize..200,
        seed in 0u64..1 << 48,
    ) {
        let points = generate(selector, n, seed);
        let balls = balls_of(&points);
        for kind in [SplitterKind::Random, SplitterKind::Graph] {
            let cfg = KnnDcConfig::new(2).with_seed(seed).with_splitter(kind);
            let tree_cfg = QueryTreeConfig { splitter: kind, ..QueryTreeConfig::default() };
            let mut knn_base = None;
            let mut snap_base: Option<Vec<u8>> = None;
            for threads in POOLS {
                let (fp, stats, snap) = in_pool(
                    threads,
                    || {
                        let out = parallel_knn::<2, 3>(&points, &cfg);
                        let tree =
                            QueryTree::try_build::<3>(&balls, tree_cfg, seed).unwrap();
                        (knn_fingerprint(&out), out.stats, save_query_tree(&tree))
                    },
                    std::marker::PhantomData,
                );
                match (&knn_base, &snap_base) {
                    (None, _) => {
                        knn_base = Some((fp, stats));
                        snap_base = Some(snap);
                    }
                    (Some((base_fp, base_stats)), Some(base_snap)) => {
                        prop_assert_eq!(
                            &fp, base_fp,
                            "{:?} knn differs at {} threads", kind, threads
                        );
                        prop_assert_eq!(
                            &stats, base_stats,
                            "{:?} stats differ at {} threads", kind, threads
                        );
                        prop_assert_eq!(
                            &snap, base_snap,
                            "{:?} snapshot differs at {} threads", kind, threads
                        );
                    }
                    _ => unreachable!("bases are set together"),
                }
            }
        }
    }
}

/// The pinned seed=5028 / tol=0.5 degenerate case: the random search
/// accepts a one-sided separator, and the driver's halving rescue must
/// re-split the node instead of forcing a brute leaf — with the same
/// counters and bit-exact answers at every pool size.
#[test]
fn halving_rescue_is_pinned_and_pool_oblivious() {
    let pts = Workload::UniformCube.generate::<2>(64, 0);
    let mut cfg = KnnDcConfig::new(1).with_seed(5028);
    cfg.base_case = Some(16);
    cfg.separator.tol = 0.5;
    cfg.separator.epsilon = 0.2;
    cfg.separator.max_attempts = 1;

    let mut base = None;
    for threads in POOLS {
        let (fp, stats) = in_pool(
            threads,
            || {
                let out = parallel_knn::<2, 3>(&pts, &cfg);
                out.knn
                    .same_distances(&brute_force_knn(&pts, 1), 1e-12)
                    .unwrap();
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
