//! Determinism contract of *construction* — the build-side mirror of
//! `serve_parity.rs`. The Section 6 tree (node arena, per-node separators,
//! leaf permutation ranges, per-node bounds) and the final k-NN lists must
//! be a pure function of (points, config): any rayon pool size — including
//! a strictly sequential one — must reproduce them byte for byte. The
//! per-node seeding scheme (`sepdc::core::seeding`) derives every node's
//! RNG stream from the root seed and the node's root-to-node path, and the
//! parallel sweep/partition/march paths are all order-preserving, so this
//! holds by construction; these tests pin it through the public facade.
//! The uniform, clustered and query-structure inputs exceed
//! `HALVING_FIRST_BELOW`, so their top nodes take the default backend's
//! sphere; the smaller inputs pin the halving-first path below it.

use sepdc::core::serve::{CoverPredicate, ServeConfig};
use sepdc::core::{
    parallel_knn, KnnDcConfig, NeighborhoodSystem, ParallelDcOutput, PartitionNode, QueryTree,
    QueryTreeConfig, HALVING_FIRST_BELOW,
};
use sepdc::geom::Separator;
use sepdc::workloads::Workload;

const POOLS: [usize; 3] = [1, 2, 7];

fn in_pool<T>(threads: usize, f: impl FnOnce() -> T + Send) -> T
where
    T: Send,
{
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// Byte-level equality of two Section 6 outputs: lists (ids *and*
/// distances, not just distances), structural stats, work/depth profile,
/// and the full tree arena including leaf permutation ranges and bounds.
fn assert_outputs_identical(a: &ParallelDcOutput<2>, b: &ParallelDcOutput<2>, ctx: &str) {
    assert_eq!(a.knn.len(), b.knn.len(), "{ctx}: n differs");
    for i in 0..a.knn.len() {
        assert_eq!(
            a.knn.neighbors(i),
            b.knn.neighbors(i),
            "{ctx}: neighbor list {i} differs"
        );
    }
    assert_eq!(a.stats, b.stats, "{ctx}: stats differ");
    assert_eq!(a.cost, b.cost, "{ctx}: work/depth profile differs");
    assert_eq!(
        a.tree.nodes(),
        b.tree.nodes(),
        "{ctx}: node arena differs (layout or separators)"
    );
    for (i, n) in a.tree.nodes().iter().enumerate() {
        if let PartitionNode::Leaf { start, len } = *n {
            assert_eq!(
                a.tree.leaf_point_ids(start, len),
                b.tree.leaf_point_ids(start, len),
                "{ctx}: leaf {i} permutation range differs"
            );
        }
    }
    assert_eq!(
        a.tree.bounds(),
        b.tree.bounds(),
        "{ctx}: per-node bounds differ"
    );
}

/// Internal nodes cut by a sphere: the backend's cuts (the halving cut
/// is a hyperplane).
fn sphere_splits(out: &ParallelDcOutput<2>) -> usize {
    out.tree
        .nodes()
        .iter()
        .filter(|n| {
            matches!(
                n,
                PartitionNode::Internal {
                    sep: Separator::Sphere(_),
                    ..
                }
            )
        })
        .count()
}

fn check_workload(w: Workload, n: usize, k: usize, seed: u64) -> ParallelDcOutput<2> {
    let pts = w.generate::<2>(n, seed);
    let cfg = KnnDcConfig::new(k).with_seed(seed ^ 0x5EED);
    let baseline = in_pool(1, || parallel_knn::<2, 3>(&pts, &cfg));
    baseline.knn.check_invariants().unwrap();
    for threads in POOLS {
        let out = in_pool(threads, || parallel_knn::<2, 3>(&pts, &cfg));
        assert_outputs_identical(&out, &baseline, &format!("{} {threads} threads", w.name()));
    }
    baseline
}

#[test]
fn construction_identical_across_pools_uniform() {
    let out = check_workload(Workload::UniformCube, 20_000, 3, 41);
    assert!(sphere_splits(&out) > 0, "no backend cut: {:?}", out.stats);
}

#[test]
fn construction_identical_across_pools_clustered() {
    let out = check_workload(Workload::Clusters, 20_000, 3, 42);
    assert!(sphere_splits(&out) > 0, "no backend cut: {:?}", out.stats);
}

#[test]
fn construction_identical_across_pools_degenerate() {
    // Grid (massive ties) and NoisyLine (near-lower-dimensional) are the
    // adversarial routing cases: many points sit within tolerance of the
    // separator surfaces, so any evaluation-order dependence in the sweep
    // or the partition would surface here first.
    check_workload(Workload::Grid, 2048, 2, 43);
    check_workload(Workload::NoisyLine, 1500, 2, 44);
}

#[test]
fn construction_identical_with_duplicates() {
    let mut pts = Workload::UniformCube.generate::<2>(800, 45);
    for _ in 0..120 {
        pts.push(pts[7]);
    }
    let cfg = KnnDcConfig::new(2).with_seed(46);
    let baseline = in_pool(1, || parallel_knn::<2, 3>(&pts, &cfg));
    for threads in POOLS {
        let out = in_pool(threads, || parallel_knn::<2, 3>(&pts, &cfg));
        assert_outputs_identical(&out, &baseline, &format!("duplicates {threads} threads"));
    }
}

#[test]
fn query_structure_build_identical_across_pools() {
    // The Section 3 build shares the sweep + path-seeding machinery; its
    // internal node type is private, so parity is pinned through stats,
    // the work/depth profile, and behavior on a fixed probe batch.
    let pts = Workload::Clusters.generate::<2>(20_000, 47);
    assert!(pts.len() >= HALVING_FIRST_BELOW);
    let knn = in_pool(1, || parallel_knn::<2, 3>(&pts, &KnnDcConfig::new(3)));
    let sys = NeighborhoodSystem::from_knn(&pts, &knn.knn);
    let probes = Workload::UniformCube.generate::<2>(2000, 48);
    let scfg = ServeConfig::default();
    let baseline = in_pool(1, || {
        QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), 47)
    });
    let base_serve = baseline
        .try_serve(&probes, CoverPredicate::Closed, &scfg)
        .unwrap();
    for threads in POOLS {
        let tree = in_pool(threads, || {
            QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), 47)
        });
        assert_eq!(tree.stats(), baseline.stats(), "{threads} threads: stats");
        assert_eq!(
            tree.build_cost(),
            baseline.build_cost(),
            "{threads} threads: work/depth"
        );
        let served = tree
            .try_serve(&probes, CoverPredicate::Closed, &scfg)
            .unwrap();
        assert_eq!(
            served.result.offsets(),
            base_serve.result.offsets(),
            "{threads} threads: serve offsets"
        );
        assert_eq!(
            served.result.ids(),
            base_serve.result.ids(),
            "{threads} threads: serve ids"
        );
    }
}
