//! *Simple Parallel Divide-and-Conquer* (Section 5): the `O(log² n)` time,
//! `n` processor k-neighborhood algorithm.
//!
//! 1. split the points in half with a (median) hyperplane;
//! 2. recursively compute the k-neighborhood systems of the two halves, in
//!    parallel;
//! 3. correct every ball that intersects the cutting hyperplane by querying
//!    the Section 3 search structure built over the crossing balls.
//!
//! This is the hyperplane-based baseline (Bentley's shape with the paper's
//! improved combine step). Each level costs `O(log n)` rounds for the
//! query-structure correction, and there are `O(log n)` levels, hence
//! `O(log² n)` depth. The statistics expose the crossing counts that
//! motivate Section 6: on hyperplane-adversarial inputs a single cut is
//! crossed by `Ω(n)` balls.

use crate::config::KnnDcConfig;
use crate::correction::{collect_both_sides, correct_via_query};
use crate::dc::{partition_points, Driver, Engine, Leaf, Node, Routing, Rule, Slab, Span};
use crate::error::{validate_points, SepdcError};
use crate::knn::{solve_leaf, KnnResult};
use crate::parallel::knn_report;
use crate::report::{cost_counters, stats_counters, Phase, RunRecorder, RunReport};
use crate::seeding::punt_seed;
use crate::shared::SharedLists;
use sepdc_geom::point::Point;
use sepdc_geom::shape::Separator;
use sepdc_geom::soa::FilterStats;
use sepdc_scan::CostProfile;

/// Statistics from one run of the Section 5 algorithm.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimpleDcStats {
    /// Recursion tree height.
    pub height: usize,
    /// Total crossing balls summed over all nodes.
    pub total_crossing: u64,
    /// Largest crossing count at any single node.
    pub max_node_crossing: usize,
    /// Largest crossing count at any node, as a fraction of that node's
    /// subset size — the `Ω(1)` exhibit on adversarial inputs.
    pub max_crossing_fraction: f64,
    /// Base-case leaves.
    pub base_leaves: usize,
    /// Forced leaves of every kind: all-coincident leaves, which no cut
    /// splits and which are solved in closed form, plus the leaves
    /// counted in `degenerate_splits` and `depth_forced_leaves`. The
    /// all-coincident count is `forced_leaves − degenerate_splits −
    /// depth_forced_leaves`.
    pub forced_leaves: usize,
    /// Nodes where a median cut routed every point to one side and the
    /// recursion fell back to a brute-force leaf.
    pub degenerate_splits: usize,
    /// Nodes cut off by the automatic depth guard and solved as
    /// brute-force leaves.
    pub depth_forced_leaves: usize,
}

impl SimpleDcStats {
    fn leaf(kind: Leaf) -> Self {
        let (forced_leaves, degenerate_splits, depth_forced_leaves) = kind.counts();
        SimpleDcStats {
            base_leaves: 1,
            forced_leaves,
            degenerate_splits,
            depth_forced_leaves,
            ..Default::default()
        }
    }

    /// The `stats.*` run-report counters, one per field.
    fn counters(&self) -> Vec<(String, f64)> {
        stats_counters!(self;
            height, total_crossing, max_node_crossing, max_crossing_fraction,
            base_leaves, forced_leaves, degenerate_splits, depth_forced_leaves)
    }

    fn merge(self, other: Self, node_crossing: usize, node_size: usize) -> Self {
        let frac = node_crossing as f64 / node_size.max(1) as f64;
        SimpleDcStats {
            height: 1 + self.height.max(other.height),
            total_crossing: self.total_crossing + other.total_crossing + node_crossing as u64,
            max_node_crossing: self
                .max_node_crossing
                .max(other.max_node_crossing)
                .max(node_crossing),
            max_crossing_fraction: self
                .max_crossing_fraction
                .max(other.max_crossing_fraction)
                .max(frac),
            base_leaves: self.base_leaves + other.base_leaves,
            forced_leaves: self.forced_leaves + other.forced_leaves,
            degenerate_splits: self.degenerate_splits + other.degenerate_splits,
            depth_forced_leaves: self.depth_forced_leaves + other.depth_forced_leaves,
        }
    }
}

/// Output of [`simple_parallel_knn`].
pub struct SimpleDcOutput {
    /// The k-nearest-neighbor lists.
    pub knn: KnnResult,
    /// Work–depth profile (depth is the `O(log² n)` quantity).
    pub cost: CostProfile,
    /// Structural statistics.
    pub stats: SimpleDcStats,
    /// The merged observability artifact (same schema as the Section 6
    /// report; this algorithm has no event meter, so only `stats.*` and
    /// `cost.*` counters appear). Phase timings and the depth histogram
    /// are empty when [`KnnDcConfig::record`] is `false`.
    pub report: RunReport,
}

/// The Section 5 engine: leaf solves, in-place routing, and the
/// query-structure correction. Every hook reads its node's points from the
/// coordinate arena the driver partitions with the ids.
struct Ctx<'a, const D: usize> {
    /// Row `p` is the list of the point at arena position `p`.
    lists: &'a SharedLists,
    cfg: &'a KnnDcConfig,
    obs: &'a RunRecorder,
}

/// Section 5: hyperplane divide and conquer with query-structure
/// correction. `E` must be `D + 1`.
///
/// Infallible wrapper around [`try_simple_parallel_knn`].
///
/// # Panics
/// Panics with the [`SepdcError`] message on invalid input; use
/// [`try_simple_parallel_knn`] to handle it as a typed error instead.
pub fn simple_parallel_knn<const D: usize, const E: usize>(
    points: &[Point<D>],
    cfg: &KnnDcConfig,
) -> SimpleDcOutput {
    try_simple_parallel_knn::<D, E>(points, cfg)
        .unwrap_or_else(|e| panic!("simple_parallel_knn: {e}"))
}

/// Total variant of [`simple_parallel_knn`]: validates once up front and
/// returns a typed [`SepdcError`] instead of panicking. After validation
/// the only reachable error is [`SepdcError::RecursionDepthExceeded`], and
/// only when [`KnnDcConfig::max_depth`] is set explicitly.
pub fn try_simple_parallel_knn<const D: usize, const E: usize>(
    points: &[Point<D>],
    cfg: &KnnDcConfig,
) -> Result<SimpleDcOutput, SepdcError> {
    assert_eq!(E, D + 1, "simple_parallel_knn requires E = D + 1");
    cfg.validate()?;
    validate_points(points)?;
    let t_run = std::time::Instant::now();
    let n = points.len();
    let lists = SharedLists::new(n, cfg.k);
    let obs = RunRecorder::new(cfg.record, cfg.resolve_depth_limit(n));
    let ctx = Ctx {
        lists: &lists,
        cfg,
        obs: &obs,
    };
    let driver = Driver::<D, E>::for_knn(cfg, n, Rule::MedianCycling, &obs, None);
    // The arena: ids and their points, partitioned in place together, each
    // recursive call getting disjoint `&mut` slices of both.
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut pts = points.to_vec();
    let slab = Slab {
        ids: &mut perm,
        pts: &mut pts,
        off: 0,
    };
    let (cost, stats, fstats) = driver.run(&ctx, slab, cfg.seed, 0)?;
    drop(pts);
    let mut counters = stats.counters();
    counters.extend(cost_counters(&cost));
    counters.push(("precision.eps_skips".to_string(), fstats.eps_skips as f64));
    Ok(SimpleDcOutput {
        knn: lists.into_result(&perm),
        cost,
        stats,
        report: knn_report("simple", cfg, n, &driver, counters, t_run),
    })
}

impl<const D: usize, const E: usize> Engine<D, E> for Ctx<'_, D> {
    type Routed = usize;
    type Out = (CostProfile, SimpleDcStats, FilterStats);

    fn gather(&self, _: &[u32]) -> Option<Vec<Point<D>>> {
        None
    }

    fn leaf(&self, items: Span<'_, D>, kind: Leaf) -> Self::Out {
        let t0 = self.obs.start();
        let (cost, _) = solve_leaf(self.lists, items, kind);
        self.obs.stop(Phase::LeafSolve, t0);
        (cost, SimpleDcStats::leaf(kind), FilterStats::default())
    }

    fn route(&self, slab: &mut Slab<'_, D>, sep: &Separator<D>) -> Routing<usize> {
        partition_points(slab, sep)
    }

    fn combine(
        &self,
        items: Span<'_, D>,
        nl: usize,
        node: Node<D>,
        (lcost, lstats, lf): Self::Out,
        (rcost, rstats, rf): Self::Out,
    ) -> Self::Out {
        let m = items.len();
        // Correction: query structure over all crossing balls (both
        // sides). The child calls permuted their halves but the item sets
        // are unchanged.
        let (mut crossing, cross_r, eps_skips, unbounded_evals) =
            self.obs.time(Phase::CollectCrossing, || {
                collect_both_sides(self.lists, items, nl, &node.sep, self.cfg.epsilon)
            });
        crossing.extend(cross_r);
        let node_crossing = crossing.len();
        self.obs.add_crossing(node.depth, node_crossing as u64);
        let qseed = punt_seed(node.seed);
        // The query tree's ε stays `cfg.query.epsilon` because the balls
        // above are already shrunk.
        let qcfg = self.cfg.query;
        // Every internal node corrects through the query structure here
        // (the Section 5 combine step), so its time lands in the same
        // `punt-correction` phase the Section 6 punt path uses.
        let (corr_cost, corr_stats) = self.obs.time(Phase::PuntCorrection, || {
            correct_via_query::<D, E>(self.lists, items, &crossing, qcfg, qseed)
        });

        let local = CostProfile::scan(m as u64); // the split
        let mut cost = local.then(lcost.alongside(rcost)).then(corr_cost);
        cost.work += unbounded_evals;
        let stats = lstats.merge(rstats, node_crossing, m);
        let mut fstats = lf;
        fstats.merge(&rf);
        fstats.merge(&corr_stats);
        fstats.eps_skips += eps_skips;
        (cost, stats, fstats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_knn;
    use sepdc_workloads::Workload;

    fn check_matches_oracle<const D: usize, const E: usize>(
        w: Workload,
        n: usize,
        k: usize,
        seed: u64,
    ) {
        let pts = w.generate::<D>(n, seed);
        let cfg = KnnDcConfig::new(k).with_seed(seed ^ 0xABCD);
        let out = simple_parallel_knn::<D, E>(&pts, &cfg);
        let oracle = brute_force_knn(&pts, k);
        out.knn
            .same_distances(&oracle, 1e-9)
            .unwrap_or_else(|e| panic!("{} n={n} k={k}: {e}", w.name()));
        out.knn.check_invariants().unwrap();
    }

    #[test]
    fn matches_oracle_uniform_2d() {
        check_matches_oracle::<2, 3>(Workload::UniformCube, 800, 1, 1);
        check_matches_oracle::<2, 3>(Workload::UniformCube, 800, 4, 2);
    }

    #[test]
    fn matches_oracle_adversarial() {
        check_matches_oracle::<2, 3>(Workload::TwoSlabs, 600, 1, 3);
        check_matches_oracle::<2, 3>(Workload::SphereShell, 600, 2, 4);
        check_matches_oracle::<2, 3>(Workload::NoisyLine, 500, 3, 5);
    }

    #[test]
    fn matches_oracle_3d() {
        check_matches_oracle::<3, 4>(Workload::UniformCube, 700, 2, 6);
        check_matches_oracle::<3, 4>(Workload::Clusters, 700, 1, 7);
    }

    #[test]
    fn small_inputs() {
        for n in [1usize, 2, 5, 33] {
            let pts = Workload::UniformCube.generate::<2>(n, 8);
            let cfg = KnnDcConfig::new(1);
            let out = simple_parallel_knn::<2, 3>(&pts, &cfg);
            let oracle = brute_force_knn(&pts, 1);
            out.knn.same_distances(&oracle, 1e-12).unwrap();
        }
    }

    #[test]
    fn duplicate_points() {
        let mut pts = Workload::UniformCube.generate::<2>(200, 9);
        let dup = pts[0];
        for _ in 0..50 {
            pts.push(dup);
        }
        let cfg = KnnDcConfig::new(2);
        let out = simple_parallel_knn::<2, 3>(&pts, &cfg);
        let oracle = brute_force_knn(&pts, 2);
        out.knn.same_distances(&oracle, 1e-12).unwrap();
    }

    #[test]
    fn all_identical_points() {
        let pts = vec![sepdc_geom::Point::<2>::splat(1.0); 100];
        let cfg = KnnDcConfig::new(3);
        let out = simple_parallel_knn::<2, 3>(&pts, &cfg);
        assert!(out.stats.forced_leaves >= 1);
        for i in 0..100 {
            assert_eq!(out.knn.radius_sq(i), 0.0);
        }
    }

    #[test]
    fn crossing_stats_expose_adversarial_structure() {
        // On two-slabs, the level that cuts along the slab axis is crossed
        // by a constant fraction of the balls.
        let pts = Workload::TwoSlabs.generate::<2>(1024, 10);
        let cfg = KnnDcConfig::new(1);
        let out = simple_parallel_knn::<2, 3>(&pts, &cfg);
        assert!(
            out.stats.max_crossing_fraction > 0.3,
            "expected Ω(n) crossing on two-slabs, got fraction {}",
            out.stats.max_crossing_fraction
        );
        // Uniform control: crossings are sublinear at every node.
        let upts = Workload::UniformCube.generate::<2>(1024, 11);
        let uout = simple_parallel_knn::<2, 3>(&upts, &cfg);
        assert!(
            uout.stats.max_crossing_fraction < out.stats.max_crossing_fraction,
            "uniform {} vs slabs {}",
            uout.stats.max_crossing_fraction,
            out.stats.max_crossing_fraction
        );
    }

    #[test]
    fn depth_is_polylog() {
        let pts = Workload::UniformCube.generate::<2>(4096, 12);
        let cfg = KnnDcConfig::new(1);
        let out = simple_parallel_knn::<2, 3>(&pts, &cfg);
        let log2n = (4096f64).log2();
        // Depth O(log² n) with modest constants (base-case adds ~base).
        let bound = 40.0 * log2n * log2n;
        assert!(
            (out.cost.depth as f64) < bound,
            "depth {} vs bound {bound}",
            out.cost.depth
        );
        assert!(out.stats.height as f64 <= 3.0 * log2n);
    }

    #[test]
    fn try_variant_rejects_invalid_inputs() {
        use crate::SepdcError;
        let mut pts = Workload::UniformCube.generate::<2>(80, 14);
        let cfg = KnnDcConfig::new(2);
        assert!(try_simple_parallel_knn::<2, 3>(&pts, &cfg).is_ok());
        assert!(matches!(
            try_simple_parallel_knn::<2, 3>(&pts, &KnnDcConfig::new(0)),
            Err(SepdcError::InvalidK { k: 0 })
        ));
        pts[7].0[0] = f64::NAN;
        assert!(matches!(
            try_simple_parallel_knn::<2, 3>(&pts, &cfg),
            Err(SepdcError::NonFinitePoint { idx: 7 })
        ));
    }

    #[test]
    #[should_panic(expected = "simple_parallel_knn: invalid k = 0")]
    fn infallible_wrapper_panics_with_typed_message() {
        let pts = Workload::UniformCube.generate::<2>(10, 15);
        let _ = simple_parallel_knn::<2, 3>(&pts, &KnnDcConfig::new(0));
    }

    #[test]
    fn explicit_max_depth_is_strict() {
        use crate::SepdcError;
        let pts = Workload::UniformCube.generate::<2>(900, 16);
        let cfg = KnnDcConfig {
            max_depth: Some(1),
            ..KnnDcConfig::new(1)
        };
        assert!(matches!(
            try_simple_parallel_knn::<2, 3>(&pts, &cfg),
            Err(SepdcError::RecursionDepthExceeded { limit: 1 })
        ));
        let cfg_ok = KnnDcConfig {
            max_depth: Some(64),
            ..KnnDcConfig::new(1)
        };
        let out = try_simple_parallel_knn::<2, 3>(&pts, &cfg_ok).unwrap();
        out.knn
            .same_distances(&brute_force_knn(&pts, 1), 1e-9)
            .unwrap();
        assert_eq!(out.stats.depth_forced_leaves, 0);
        assert_eq!(out.stats.degenerate_splits, 0);
    }

    #[test]
    fn run_report_is_populated() {
        let pts = Workload::UniformCube.generate::<2>(1500, 17);
        let cfg = KnnDcConfig::new(2);
        let out = simple_parallel_knn::<2, 3>(&pts, &cfg);
        let r = &out.report;
        assert_eq!(r.algo, "simple");
        assert_eq!((r.dim, r.n, r.k), (2, 1500, 2));
        assert!(r.wall_ms > 0.0);
        assert_eq!(
            r.counter("stats.base_leaves"),
            Some(out.stats.base_leaves as f64)
        );
        assert_eq!(r.counter("cost.work"), Some(out.cost.work as f64));
        // The simple algorithm corrects through the query structure at
        // every internal node, so the punt-correction phase is hot.
        assert!(r.phase("punt-correction").unwrap().calls > 0);
        assert_eq!(
            r.depth.iter().map(|d| d.leaves).sum::<u64>() as usize,
            out.stats.base_leaves
        );
        assert_eq!(
            r.depth.iter().map(|d| d.crossing).sum::<u64>(),
            out.stats.total_crossing
        );
        let back = crate::report::RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(&back, r);
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = Workload::Clusters.generate::<2>(500, 13);
        let cfg = KnnDcConfig::new(2).with_seed(99);
        let a = simple_parallel_knn::<2, 3>(&pts, &cfg);
        let b = simple_parallel_knn::<2, 3>(&pts, &cfg);
        a.knn.same_distances(&b.knn, 0.0).unwrap();
        assert_eq!(a.stats, b.stats);
    }
}
