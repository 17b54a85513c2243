//! Golden counters: the work, depth and structure counters of fixed
//! builds, and hashes of their outputs, pinned in
//! `ci/baselines/knn_counters.txt`.
//!
//! Under the determinism contract every value below is a pure function of
//! (input, config), so a change that claims "same work, same bytes" leaves
//! the file unchanged, and a change that moves a counter on purpose
//! regenerates it and says why. Each §6 row records every counter of the
//! run report (`stats.*`, `meter.*`, `cost.*`, `correction.*`) and FNV-1a
//! hashes of the returned tree (nodes, leaf permutation, bound bits) and of
//! the k-NN lists. The inputs are the benchmark's three shapes, the outlier
//! strips in 2D and 3D and the all-coincident set, at
//! n = 2·`HALVING_FIRST_BELOW` with k = 4 and seed 3, plus the inputs of
//! `tests/rare_branches.rs` that take the halving rescue and the
//! unbounded-list correction. One §5 row and one §3 query-tree row (its
//! stats and snapshot hash) follow, then three more §6 rows at the same
//! n, k and seed: duplicate bundles, a tolerance-band cloud and a noisy
//! line.
//!
//! On a mismatch the test writes the regenerated file next to the test
//! binary's scratch directory and names the first differing line; copy it
//! over the baseline only when the change is meant to move the counters.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sepdc::core::snapshot::{fnv1a64, save_query_tree};
use sepdc::core::{
    kdtree_all_knn, parallel_knn, simple_parallel_knn, KnnDcConfig, KnnResult, NeighborhoodSystem,
    ParallelDcOutput, QueryTree, QueryTreeConfig, RunReport, HALVING_FIRST_BELOW,
};
use sepdc::geom::Point;
use sepdc::workloads::{degenerate, Workload};
use std::fmt::Write;

const BASELINE: &str = include_str!("../ci/baselines/knn_counters.txt");
const N: usize = 2 * HALVING_FIRST_BELOW;
const K: usize = 4;
const SEED: u64 = 3;

/// FNV-1a over the lists' `(idx, dist_sq bits)` in row order.
fn knn_hash(knn: &KnnResult) -> u64 {
    let mut bytes = Vec::new();
    for i in 0..knn.len() {
        for n in knn.neighbors(i) {
            bytes.extend(n.idx.to_le_bytes());
            bytes.extend(n.dist_sq.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

fn counters(out: &mut String, report: &RunReport) {
    for (name, v) in &report.counters {
        writeln!(out, "{name} {v:?}").unwrap();
    }
}

fn knn_row<const D: usize>(out: &mut String, label: &str, o: &ParallelDcOutput<D>) {
    writeln!(out, "[{label}]").unwrap();
    counters(out, &o.report);
    // `Debug` prints every float with its shortest round-trip form, so
    // equal text means equal bits.
    let nodes = format!("{:?}", o.tree.nodes());
    let perm: Vec<u8> = o.tree.perm().iter().flat_map(|i| i.to_le_bytes()).collect();
    let bounds: Vec<u8> = o
        .tree
        .bounds()
        .expect("the §6 tree carries bounds")
        .iter()
        .flat_map(|b| (0..D).flat_map(|d| [b.lo[d], b.hi[d]]))
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    for (name, h) in [
        ("tree.nodes", fnv1a64(nodes.as_bytes())),
        ("tree.perm", fnv1a64(&perm)),
        ("tree.bounds", fnv1a64(&bounds)),
        ("knn", knn_hash(&o.knn)),
    ] {
        writeln!(out, "hash.{name} {h:#018x}").unwrap();
    }
}

fn parallel<const D: usize, const E: usize>(
    out: &mut String,
    label: &str,
    pts: &[Point<D>],
    cfg: &KnnDcConfig,
) -> KnnResult {
    let o = parallel_knn::<D, E>(pts, cfg);
    o.knn
        .identical_to(&kdtree_all_knn(pts, cfg.k))
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    knn_row(out, label, &o);
    o.knn
}

/// The benchmark's snapped input: every 20th point moved to the origin.
fn snapped() -> Vec<Point<2>> {
    let mut pts = Workload::UniformCube.generate::<2>(N, SEED);
    for p in pts.iter_mut().step_by(20) {
        *p = Point([0.0, 0.0]);
    }
    pts
}

/// `tests/rare_branches.rs`' rescue input: 64 uniform sites, each jittered
/// by up to 1e-3 into 2^14 points in all.
fn jittered_sites() -> Vec<Point<2>> {
    let sites = Workload::UniformCube.generate::<2>(64, 0);
    let mut jitter = ChaCha8Rng::seed_from_u64(1);
    (0..HALVING_FIRST_BELOW)
        .map(|i| {
            let s = sites[i % 64];
            Point::from([
                s[0] + jitter.gen_range(-1e-3..1e-3),
                s[1] + jitter.gen_range(-1e-3..1e-3),
            ])
        })
        .collect()
}

/// `tests/rare_branches.rs`' unbounded-list input: 2^14 copies of one
/// point and four points off to the side.
fn bundle_and_stragglers() -> Vec<Point<2>> {
    let mut pts = vec![Point::from([0.5, 0.5]); HALVING_FIRST_BELOW];
    pts.extend((1..=4).map(|j| Point::from([0.6 + 0.1 * j as f64, 0.5 + 0.01 * j as f64])));
    pts
}

fn regenerate() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# Regenerated by tests/golden_counters.rs; see its module docs."
    )
    .unwrap();
    let cfg = KnnDcConfig::new(K).with_seed(SEED);
    let rng = |seed| ChaCha8Rng::seed_from_u64(seed);

    let uniform = Workload::UniformCube.generate::<2>(N, SEED);
    let knn = parallel::<2, 3>(&mut out, "uniform-2d", &uniform, &cfg);
    parallel::<3, 4>(
        &mut out,
        "clusters-3d",
        &Workload::Clusters.generate::<3>(N, SEED),
        &cfg,
    );
    parallel::<2, 3>(&mut out, "snapped-2d", &snapped(), &cfg);
    parallel::<2, 3>(
        &mut out,
        "outlier-strip-2d",
        &degenerate::outlier_strip::<2, _>(N, 0.01, &mut rng(SEED)),
        &cfg,
    );
    parallel::<3, 4>(
        &mut out,
        "outlier-strip-3d",
        &degenerate::outlier_strip::<3, _>(N, 0.01, &mut rng(SEED)),
        &cfg,
    );
    parallel::<2, 3>(
        &mut out,
        "all-coincident-2d",
        &degenerate::all_coincident::<2>(N, 0.5),
        &cfg,
    );
    let mut rescue = KnnDcConfig::new(1).with_seed(8200);
    rescue.base_case = Some(16);
    rescue.separator.tol = 0.5;
    rescue.separator.epsilon = 0.2;
    rescue.separator.max_attempts = 1;
    parallel::<2, 3>(&mut out, "halving-rescue-2d", &jittered_sites(), &rescue);
    parallel::<2, 3>(
        &mut out,
        "unbounded-correction-2d",
        &bundle_and_stragglers(),
        &cfg,
    );

    // §5 on half the size: it corrects through a query tree at every node.
    let half = &uniform[..HALVING_FIRST_BELOW];
    let simple = simple_parallel_knn::<2, 3>(half, &cfg);
    simple
        .knn
        .identical_to(&kdtree_all_knn(half, K))
        .unwrap_or_else(|e| panic!("simple-uniform-2d: {e}"));
    writeln!(out, "[simple-uniform-2d n={}]", half.len()).unwrap();
    counters(&mut out, &simple.report);
    writeln!(out, "hash.knn {:#018x}", knn_hash(&simple.knn)).unwrap();

    // §3 over the uniform input's k-NN balls.
    let balls = NeighborhoodSystem::from_knn(&uniform, &knn);
    let tree = QueryTree::build::<3>(balls.balls(), QueryTreeConfig::default(), SEED);
    let snap = save_query_tree(&tree);
    writeln!(out, "[query-tree-uniform-2d]").unwrap();
    counters(&mut out, tree.run_report());
    writeln!(out, "snapshot.bytes {}", snap.len()).unwrap();
    writeln!(out, "hash.snapshot {:#018x}", fnv1a64(&snap)).unwrap();

    // The adversarial shapes no row above covers: exact duplicates, a
    // cloud inside the separator's tolerance band, and a noisy line.
    parallel::<2, 3>(
        &mut out,
        "duplicate-bundles-2d",
        &degenerate::duplicate_bundles::<2, _>(N, 8, &mut rng(SEED)),
        &cfg,
    );
    parallel::<2, 3>(
        &mut out,
        "tolerance-band-2d",
        &degenerate::tolerance_band_cluster::<2, _>(N, 1e-6, &mut rng(SEED)),
        &cfg,
    );
    parallel::<2, 3>(
        &mut out,
        "noisy-line-2d",
        &Workload::NoisyLine.generate::<2>(N, SEED),
        &cfg,
    );
    out
}

#[test]
fn counters_match_the_committed_baseline() {
    let now = regenerate();
    if now == BASELINE {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("knn_counters.txt");
    std::fs::write(&path, &now).unwrap();
    let mut section = "";
    for (i, (a, b)) in BASELINE.lines().zip(now.lines()).enumerate() {
        if a.starts_with('[') {
            section = a;
        }
        assert_eq!(
            a,
            b,
            "ci/baselines/knn_counters.txt line {} in {section}; regenerated file at {}",
            i + 1,
            path.display()
        );
    }
    panic!(
        "ci/baselines/knn_counters.txt has {} lines, the regenerated file {}: {}",
        BASELINE.lines().count(),
        now.lines().count(),
        path.display()
    );
}
