//! The separator-based search structure for the neighborhood query problem
//! (Section 3 of the paper).
//!
//! Given a `k`-ply neighborhood system `B`, build a binary tree: each
//! internal node stores a sphere separator `S` of the ball *centers*; the
//! left subtree indexes `B_I(S) ∪ B_O(S)` (balls meeting the closed
//! interior) and the right subtree `B_E(S) ∪ B_O(S)` (balls meeting the
//! closed exterior) — crossing balls are duplicated into both. A query
//! point descends by its side of each separator (surface ties go left, the
//! paper's convention) and scans one leaf.
//!
//! Costs (Lemma 3.1): height `O(log n)`, leaves `O(n / m₀)`, total space
//! `O(n)`, query `O(log n + m₀)`; parallel construction in `O(log n)`
//! rounds w.h.p. (Theorem 3.1).

use crate::config::eps_cover_scale;
use crate::dc::{Driver, Engine, Leaf, Node, Routing, Rule, Slab, Span};
use crate::error::{validate_points, SepdcError};
use crate::report::{cost_counters, stats_counters, RunRecorder, RunReport};
use crate::splitter::RandomSphere;
use rayon::prelude::*;
use sepdc_geom::ball::Ball;
use sepdc_geom::point::Point;
use sepdc_geom::shape::Separator;
use sepdc_geom::soa::{FilterStats, SoaBalls};
use sepdc_scan::CostProfile;
use sepdc_separator::{SearchOutcome, SeparatorConfig};

/// Minimum node size before the ball-routing side tests and the centers
/// gather run in parallel. The parallel paths are positionally identical
/// to their serial twins, so the cutoff moves wall-clock only.
const ROUTE_PAR_CUTOFF: usize = 1 << 14;

/// Build parameters for the query structure.
#[derive(Clone, Copy, Debug)]
pub struct QueryTreeConfig {
    /// Leaf capacity `m₀`. The paper requires `m₀^μ ≤ ((1-δ)/2)·m₀` for
    /// the recurrences of Lemma 3.1; with the default `δ, μ` this holds
    /// for `m₀ ≥ ~150`, but smaller leaves are fine in practice and only
    /// affect constants. The default trades a slightly taller tree for
    /// cheaper leaf scans.
    pub leaf_size: usize,
    /// Separator search configuration.
    pub separator: SeparatorConfig,
    /// Subtree size below which construction stops forking rayon tasks.
    pub parallel_cutoff: usize,
    /// Whether to record build phase timings and the per-depth histogram
    /// into [`QueryTree::run_report`]. Defaults to `false`: the Section 5/6
    /// punt paths build throwaway query trees whose time is already
    /// attributed to their caller's `punt-correction` phase, so per-node
    /// instrumentation inside those builds would only add overhead.
    pub record: bool,
    /// Cover-filter relaxation ε ∈ [0, 1]. When nonzero, leaf scans may
    /// skip balls whose squared radius exceeds the probe distance by less
    /// than a `(1+ε)²` factor; skips are counted in the filter stats so the
    /// relaxation stays observable. `0.0` (default) is the exact predicate.
    pub epsilon: f64,
}

impl Default for QueryTreeConfig {
    fn default() -> Self {
        QueryTreeConfig {
            leaf_size: 48,
            separator: SeparatorConfig::default(),
            parallel_cutoff: 4096,
            record: false,
            epsilon: 0.0,
        }
    }
}

/// Tree node. Crate-visible (not public API) so the
/// [`snapshot`](crate::snapshot) module can flatten and reconstruct the
/// boxed tree without exposing its shape to callers.
pub(crate) enum QNode<const D: usize> {
    Internal {
        sep: Separator<D>,
        left: Box<QNode<D>>,
        right: Box<QNode<D>>,
    },
    Leaf {
        /// Indices into the original ball array.
        ball_ids: Vec<u32>,
    },
}

/// Structural statistics, the measurable side of Lemma 3.1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryTreeStats {
    /// Tree height (edges on the longest root-leaf path).
    pub height: usize,
    /// Number of leaves.
    pub leaves: usize,
    /// Number of internal nodes.
    pub internals: usize,
    /// Total ball references across leaves (the `O(n)` space bound).
    pub stored_balls: usize,
    /// Separator candidates drawn during construction (a halving cut
    /// counts one).
    pub candidates: u64,
    /// Nodes split by the backend's deterministic median-cut fallback.
    pub fallbacks: usize,
    /// Nodes where no separator could split and the node became an
    /// oversized leaf.
    pub forced_leaves: usize,
}

impl QueryTreeStats {
    /// The `stats.*` run-report counters, one per field.
    fn counters(&self) -> Vec<(String, f64)> {
        stats_counters!(self;
            height, leaves, internals, stored_balls, candidates, fallbacks, forced_leaves)
    }
}

/// The search structure.
pub struct QueryTree<const D: usize> {
    root: QNode<D>,
    balls: Vec<Ball<D>>,
    /// Columnar centers + squared radii for the batched leaf cover tests.
    soa: SoaBalls<D>,
    stats: QueryTreeStats,
    cost: CostProfile,
    report: RunReport,
    /// Cover-filter relaxation ε (round-tripped through snapshots).
    epsilon: f64,
}

/// The Section 3 engine: ball leaves, duplicating routing, and node
/// assembly.
struct BuildCtx<'a, const D: usize> {
    balls: &'a [Ball<D>],
    obs: &'a RunRecorder,
}

/// Outcome of one recursive build: node plus accumulated stats/cost.
struct Built<const D: usize> {
    node: QNode<D>,
    stats: QueryTreeStats,
    cost: CostProfile,
}

impl<const D: usize> QueryTree<D> {
    /// Build the structure over a neighborhood system. `E` must be `D + 1`
    /// (stereographic lift dimension).
    ///
    /// Deterministic given `seed`. Construction is parallel (rayon join on
    /// the two subtrees), mirroring *Parallel Neighborhood Querying*.
    ///
    /// ```
    /// use sepdc_core::{QueryTree, QueryTreeConfig};
    /// use sepdc_geom::{Ball, Point};
    ///
    /// let balls: Vec<Ball<2>> = (0..200)
    ///     .map(|i| Ball::new(Point::from([(i % 20) as f64, (i / 20) as f64]), 0.6))
    ///     .collect();
    /// let tree = QueryTree::build::<3>(&balls, QueryTreeConfig::default(), 7);
    /// let hits = tree.covering(&Point::from([5.0, 5.0]));
    /// assert!(hits.contains(&105)); // the ball centered exactly there
    /// ```
    pub fn build<const E: usize>(balls: &[Ball<D>], cfg: QueryTreeConfig, seed: u64) -> Self {
        Self::try_build::<E>(balls, cfg, seed).unwrap_or_else(|e| panic!("QueryTree::build: {e}"))
    }

    /// Total variant of [`Self::build`]: rejects balls with non-finite
    /// centers or non-finite/negative radii ([`SepdcError::NonFiniteBall`])
    /// and a zero `leaf_size` ([`SepdcError::InvalidConfig`]) instead of
    /// panicking or descending into degenerate separator searches.
    pub fn try_build<const E: usize>(
        balls: &[Ball<D>],
        cfg: QueryTreeConfig,
        seed: u64,
    ) -> Result<Self, SepdcError> {
        assert_eq!(E, D + 1, "QueryTree::build requires E = D + 1");
        if cfg.leaf_size == 0 {
            return Err(SepdcError::InvalidConfig {
                param: "leaf_size",
                value: 0.0,
            });
        }
        if !cfg.epsilon.is_finite() || !(0.0..=1.0).contains(&cfg.epsilon) {
            return Err(SepdcError::InvalidConfig {
                param: "epsilon",
                value: cfg.epsilon,
            });
        }
        if let Some(idx) = balls
            .iter()
            .position(|b| !b.center.is_finite() || !b.radius.is_finite() || b.radius < 0.0)
        {
            return Err(SepdcError::NonFiniteBall { idx });
        }
        let t_run = std::time::Instant::now();
        let mut ids: Vec<u32> = (0..balls.len() as u32).collect();
        // Automatic depth guard: accepted δ-splits keep the height
        // O(log n), so only degenerate routing can reach it.
        let depth_limit = 8 * ((balls.len().max(2) as f64).log2().ceil() as usize) + 64;
        let obs = RunRecorder::new(cfg.record, depth_limit);
        let driver = Driver {
            rule: Rule::<D, E>::Backend(&RandomSphere),
            sep: &cfg.separator,
            obs: &obs,
            meter: None,
            leaf_size: cfg.leaf_size,
            depth_limit,
            strict_depth: false,
            parallel_cutoff: cfg.parallel_cutoff,
        };
        let slab = Slab {
            ids: &mut ids,
            pts: &mut [],
            off: 0,
        };
        let built = driver.run(&BuildCtx { balls, obs: &obs }, slab, seed, 0)?;
        let mut counters = built.stats.counters();
        counters.extend(cost_counters(&built.cost));
        let report = RunReport {
            version: crate::report::RUN_REPORT_VERSION,
            algo: "query-build".to_string(),
            dim: D,
            n: balls.len(),
            k: 0,
            seed,
            threads: rayon::current_num_threads(),
            wall_ms: 0.0,
            config: vec![
                ("leaf_size".to_string(), cfg.leaf_size as f64),
                ("parallel_cutoff".to_string(), cfg.parallel_cutoff as f64),
                ("separator.epsilon".to_string(), cfg.separator.epsilon),
                ("separator.tol".to_string(), cfg.separator.tol),
                (
                    "separator.max_attempts".to_string(),
                    cfg.separator.max_attempts as f64,
                ),
                ("record".to_string(), f64::from(u8::from(cfg.record))),
                ("epsilon".to_string(), cfg.epsilon),
            ],
            phases: obs.phases(),
            counters,
            depth: obs.depth_rows(),
        }
        .finish(t_run.elapsed());
        Ok(QueryTree {
            root: built.node,
            balls: balls.to_vec(),
            soa: SoaBalls::from_balls(balls),
            stats: built.stats,
            cost: built.cost,
            report,
            epsilon: cfg.epsilon,
        })
    }

    /// Indices of all balls whose *closed* body contains `p`.
    ///
    /// Panics on a non-finite probe; use [`QueryTree::try_covering`] for
    /// the typed-error path.
    pub fn covering(&self, p: &Point<D>) -> Vec<u32> {
        self.try_covering(p).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Indices of all balls whose *open interior* contains `p` — the
    /// predicate the correction step needs (a point strictly inside a
    /// k-neighborhood ball invalidates its radius).
    ///
    /// Panics on a non-finite probe; use
    /// [`QueryTree::try_covering_interior`] for the typed-error path.
    pub fn covering_interior(&self, p: &Point<D>) -> Vec<u32> {
        self.try_covering_interior(p)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`QueryTree::covering`]: rejects a non-finite probe with
    /// [`SepdcError::NonFinitePoint`] instead of descending on a separator
    /// predicate that NaN poisons — the same validation
    /// [`QueryTree::try_serve`] applies to every probe of a batch, so
    /// single-probe and batch paths agree on bad input.
    pub fn try_covering(&self, p: &Point<D>) -> Result<Vec<u32>, SepdcError> {
        validate_points(std::slice::from_ref(p))?;
        let mut out = Vec::new();
        self.covering_into(
            p,
            false,
            &mut Vec::new(),
            &mut out,
            &mut FilterStats::default(),
        );
        Ok(out)
    }

    /// Fallible [`QueryTree::covering_interior`] (see
    /// [`QueryTree::try_covering`] for the contract).
    pub fn try_covering_interior(&self, p: &Point<D>) -> Result<Vec<u32>, SepdcError> {
        validate_points(std::slice::from_ref(p))?;
        let mut out = Vec::new();
        self.covering_into(
            p,
            true,
            &mut Vec::new(),
            &mut out,
            &mut FilterStats::default(),
        );
        Ok(out)
    }

    /// Scratch-reusing cover query: appends to `out` the ids of all balls
    /// containing `p` (open interior when `open`), in leaf order, and
    /// returns the number of tree nodes visited. The leaf scan runs through
    /// the ε-aware [`SoaBalls`] kernel honoring the tree's ε; `scratch` is
    /// a reusable distance buffer so batch callers ([`serve`](crate::serve),
    /// the punt correction) do no per-probe allocation, and `stats`
    /// accumulates the ε skip count.
    pub(crate) fn covering_into(
        &self,
        p: &Point<D>,
        open: bool,
        scratch: &mut Vec<f64>,
        out: &mut Vec<u32>,
        stats: &mut FilterStats,
    ) -> usize {
        let (leaf, visited) = self.descend_counted(p);
        self.soa.filter_covering_eps_into(
            p,
            leaf,
            open,
            eps_cover_scale(self.epsilon),
            scratch,
            out,
            stats,
        );
        visited
    }

    /// The leaf list plus the number of tree nodes visited reaching it —
    /// the instrumented descent the [`serve`](crate::serve) engine uses to
    /// bill each probe's `O(log n + m₀)` cost without a second walk.
    pub(crate) fn descend_counted(&self, p: &Point<D>) -> (&[u32], usize) {
        let mut node = &self.root;
        let mut visited = 0;
        loop {
            visited += 1;
            match node {
                QNode::Leaf { ball_ids } => return (ball_ids, visited),
                QNode::Internal { sep, left, right } => {
                    node = if sep.side(p).routes_interior() {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Columnar view of the indexed balls (the batched cover kernel).
    pub(crate) fn soa_balls(&self) -> &SoaBalls<D> {
        &self.soa
    }

    /// The root node, for snapshot flattening.
    pub(crate) fn root(&self) -> &QNode<D> {
        &self.root
    }

    /// The indexed balls, in id order.
    pub fn balls(&self) -> &[Ball<D>] {
        &self.balls
    }

    /// Reassemble a tree from snapshot-decoded parts. The caller
    /// ([`snapshot::load_query_tree`](crate::snapshot::load_query_tree))
    /// has already validated every id, range, and float; this constructor
    /// only stamps a fresh `algo = "query-load"` report so a loaded tree
    /// is observable like a built one.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_snapshot_parts(
        root: QNode<D>,
        balls: Vec<Ball<D>>,
        soa: SoaBalls<D>,
        stats: QueryTreeStats,
        cost: CostProfile,
        seed: u64,
        epsilon: f64,
        load_elapsed: std::time::Duration,
    ) -> Self {
        let mut counters = stats.counters();
        counters.extend(cost_counters(&cost));
        let report = RunReport {
            version: crate::report::RUN_REPORT_VERSION,
            algo: "query-load".to_string(),
            dim: D,
            n: balls.len(),
            k: 0,
            seed,
            threads: rayon::current_num_threads(),
            wall_ms: 0.0,
            config: Vec::new(),
            phases: Vec::new(),
            counters,
            depth: Vec::new(),
        }
        .finish(load_elapsed);
        QueryTree {
            root,
            balls,
            soa,
            stats,
            cost,
            report,
            epsilon,
        }
    }

    /// The cover-filter relaxation ε this tree was built with (`0.0` =
    /// exact predicate).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of tree nodes visited plus leaf balls scanned for `p` —
    /// the measured query cost `O(log n + m₀)`.
    pub fn query_cost(&self, p: &Point<D>) -> usize {
        let (leaf, visited) = self.descend_counted(p);
        visited + leaf.len()
    }

    /// Structural statistics.
    pub fn stats(&self) -> QueryTreeStats {
        self.stats
    }

    /// Work–depth profile of the (parallel) construction.
    pub fn build_cost(&self) -> CostProfile {
        self.cost
    }

    /// The construction's [`RunReport`] (`algo = "query-build"`). The
    /// per-depth histogram's `crossing` column counts the ball references
    /// *duplicated* into both subtrees at each level — exactly the crossing
    /// balls `B_O(S)` whose duplication drives the Lemma 3.1 space bound.
    /// Phase timings and the histogram are recorded only when
    /// [`QueryTreeConfig::record`] is set.
    pub fn run_report(&self) -> &RunReport {
        &self.report
    }

    /// Number of balls indexed.
    pub fn len(&self) -> usize {
        self.balls.len()
    }

    /// `true` when no balls are indexed.
    pub fn is_empty(&self) -> bool {
        self.balls.is_empty()
    }
}

impl<const D: usize, const E: usize> Engine<D, E> for BuildCtx<'_, D> {
    type Routed = (Vec<u32>, Vec<u32>);
    type Out = Built<D>;

    /// A node's centers, gathered in id order: routing duplicates balls
    /// into fresh id lists, so the slab carries no coordinates.
    fn gather(&self, ids: &[u32]) -> Option<Vec<Point<D>>> {
        let center = |&i: &u32| self.balls[i as usize].center;
        Some(if ids.len() >= ROUTE_PAR_CUTOFF {
            ids.par_iter().map(center).collect()
        } else {
            ids.iter().map(center).collect()
        })
    }

    fn leaf(&self, items: Span<'_, D>, kind: Leaf) -> Built<D> {
        let m = items.len();
        Built {
            node: QNode::Leaf {
                ball_ids: items.ids.to_vec(),
            },
            stats: QueryTreeStats {
                leaves: 1,
                stored_balls: m,
                forced_leaves: kind.counts().0,
                ..QueryTreeStats::default()
            },
            cost: CostProfile::round(m as u64),
        }
    }

    /// Closed-interior contact goes left, closed-exterior goes right;
    /// crossers go both ways (B₀ = B_I ∪ B_O, B₁ = B_E ∪ B_O). The side
    /// tests are the expensive part: large nodes precompute them in
    /// parallel (order-preserving collect), then push serially so the
    /// children receive ids in the identical order for every pool size.
    fn route(&self, slab: &mut Slab<'_, D>, sep: &Separator<D>) -> Routing<(Vec<u32>, Vec<u32>)> {
        let ids = &*slab.ids;
        let sides = |i: &u32| {
            let b = &self.balls[*i as usize];
            (b.touches_interior_of(sep), b.touches_exterior_of(sep))
        };
        let flags: Vec<(bool, bool)> = if ids.len() >= ROUTE_PAR_CUTOFF {
            ids.par_iter().map(sides).collect()
        } else {
            ids.iter().map(sides).collect()
        };
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for (&i, &(l, r)) in ids.iter().zip(&flags) {
            debug_assert!(l || r, "ball reaches no side of the separator");
            if l {
                left.push(i);
            }
            if r {
                right.push(i);
            }
        }
        // No progress when every ball crosses into one side's list.
        if left.len() < ids.len() && right.len() < ids.len() {
            Routing::Split((left, right))
        } else {
            Routing::OneSided { rotate: false }
        }
    }

    fn combine(
        &self,
        items: Span<'_, D>,
        (left_ids, right_ids): (Vec<u32>, Vec<u32>),
        node: Node<D>,
        lb: Built<D>,
        rb: Built<D>,
    ) -> Built<D> {
        // Ball references duplicated into both subtrees = the crossing set
        // B_O(S) at this node.
        let m = items.len();
        self.obs
            .add_crossing(node.depth, (left_ids.len() + right_ids.len() - m) as u64);
        // Cost: the candidate rounds plus one scan (the split) at this
        // node, then the two children in parallel.
        let local = CostProfile::scan(m as u64).with_candidates(node.attempts);
        let (a, b) = (lb.stats, rb.stats);
        Built {
            node: QNode::Internal {
                sep: node.sep,
                left: Box::new(lb.node),
                right: Box::new(rb.node),
            },
            stats: QueryTreeStats {
                height: 1 + a.height.max(b.height),
                leaves: a.leaves + b.leaves,
                internals: 1 + a.internals + b.internals,
                stored_balls: a.stored_balls + b.stored_balls,
                candidates: a.candidates + b.candidates + node.attempts,
                fallbacks: a.fallbacks
                    + b.fallbacks
                    + usize::from(node.outcome == SearchOutcome::Fallback),
                forced_leaves: a.forced_leaves + b.forced_leaves,
            },
            cost: local.then(lb.cost.alongside(rb.cost)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_knn;
    use crate::neighborhood::NeighborhoodSystem;
    use sepdc_separator::hyperplane_cut::halving_cut_widest;
    use sepdc_workloads::Workload;

    fn knn_system(n: usize, k: usize, seed: u64) -> (Vec<Point<2>>, NeighborhoodSystem<2>) {
        let pts = Workload::UniformCube.generate::<2>(n, seed);
        let knn = brute_force_knn(&pts, k);
        let sys = NeighborhoodSystem::from_knn(&pts, &knn);
        (pts, sys)
    }

    #[test]
    fn covering_matches_linear_scan() {
        let (pts, sys) = knn_system(600, 2, 1);
        let tree = QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), 42);
        for p in pts.iter().take(100) {
            let mut fast = tree.covering(p);
            fast.sort_unstable();
            let mut slow: Vec<u32> = sys
                .balls()
                .iter()
                .enumerate()
                .filter(|(_, b)| b.contains(p))
                .map(|(i, _)| i as u32)
                .collect();
            slow.sort_unstable();
            assert_eq!(fast, slow, "covering mismatch at {p:?}");
        }
    }

    #[test]
    fn covering_interior_matches_linear_scan() {
        let (pts, sys) = knn_system(400, 1, 2);
        let tree = QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), 7);
        for p in pts.iter().take(80) {
            let mut fast = tree.covering_interior(p);
            fast.sort_unstable();
            let mut slow: Vec<u32> = sys
                .balls()
                .iter()
                .enumerate()
                .filter(|(_, b)| b.contains_interior(p))
                .map(|(i, _)| i as u32)
                .collect();
            slow.sort_unstable();
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn non_finite_probes_are_typed_errors_matching_batch_path() {
        let (_, sys) = knn_system(100, 1, 4);
        let tree = QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), 5);
        for bad in [
            Point::<2>::from([f64::NAN, 0.0]),
            Point::from([0.0, f64::INFINITY]),
        ] {
            assert_eq!(
                tree.try_covering(&bad),
                Err(SepdcError::NonFinitePoint { idx: 0 })
            );
            assert_eq!(
                tree.try_covering_interior(&bad),
                Err(SepdcError::NonFinitePoint { idx: 0 })
            );
            // The batch path reports the same error for the same probe.
            let batch = tree.try_serve(
                &[bad],
                crate::serve::CoverPredicate::Closed,
                &crate::ServeConfig::default(),
            );
            assert_eq!(batch.err(), Some(SepdcError::NonFinitePoint { idx: 0 }));
        }
        // The infallible names still answer normal probes.
        let p = Point::from([0.5, 0.5]);
        assert_eq!(tree.covering(&p), tree.try_covering(&p).unwrap());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn covering_panics_with_the_typed_message() {
        let (_, sys) = knn_system(50, 1, 6);
        let tree = QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), 5);
        tree.covering(&Point::from([f64::NAN, 0.0]));
    }

    #[test]
    fn covering_works_for_off_sample_probes() {
        let (_, sys) = knn_system(500, 2, 3);
        let tree = QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), 9);
        let probes = Workload::UniformCube.generate::<2>(200, 99);
        for p in &probes {
            let mut fast = tree.covering(p);
            fast.sort_unstable();
            let mut slow: Vec<u32> = sys
                .balls()
                .iter()
                .enumerate()
                .filter(|(_, b)| b.contains(p))
                .map(|(i, _)| i as u32)
                .collect();
            slow.sort_unstable();
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn height_is_logarithmic() {
        let (_, sys) = knn_system(2000, 1, 4);
        let tree = QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), 11);
        let stats = tree.stats();
        let log2n = (2000f64).log2();
        assert!(
            (stats.height as f64) < 4.0 * log2n,
            "height {} too large vs log2(n) = {log2n:.1}",
            stats.height
        );
    }

    #[test]
    fn space_is_linear() {
        let (_, sys) = knn_system(3000, 1, 5);
        let tree = QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), 13);
        let stats = tree.stats();
        // Lemma 3.1: stored balls = O(n). Allow a generous constant.
        assert!(
            stats.stored_balls < 6 * 3000,
            "stored {} not O(n)",
            stats.stored_balls
        );
        assert!(stats.leaves * tree_cfg_leaf() >= 3000, "leaves too few");
    }

    fn tree_cfg_leaf() -> usize {
        QueryTreeConfig::default().leaf_size
    }

    #[test]
    fn tiny_system_is_single_leaf() {
        let balls = vec![Ball::new(Point::<2>::origin(), 1.0); 5];
        let tree = QueryTree::build::<3>(&balls, QueryTreeConfig::default(), 1);
        let stats = tree.stats();
        assert_eq!(stats.leaves, 1);
        assert_eq!(stats.height, 0);
        assert_eq!(tree.covering(&Point::origin()).len(), 5);
    }

    #[test]
    fn identical_centers_forced_leaf() {
        let balls = vec![Ball::new(Point::<2>::splat(1.0), 0.5); 200];
        let tree = QueryTree::build::<3>(&balls, QueryTreeConfig::default(), 2);
        assert!(tree.stats().forced_leaves >= 1);
        assert_eq!(tree.covering(&Point::splat(1.0)).len(), 200);
        assert!(tree.covering(&Point::splat(9.0)).is_empty());
    }

    #[test]
    fn one_sided_cut_is_rescued_instead_of_forcing_a_leaf() {
        // 100 small balls left of x = 0 and 100 wider balls in a thin strip
        // right of it. The root's halving cut lands between the groups and
        // every strip ball crosses it, so its routing is one-sided: the
        // 200-ball root must take the backend's sphere instead of becoming
        // an oversized forced leaf.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let mut balls = Vec::new();
        for (xs, r) in [(-1.0..-0.01, 0.005), (0.0..0.01, 0.03)] {
            for _ in 0..100 {
                let c = Point::from([rng.gen_range(xs.clone()), rng.gen_range(0.0..0.5)]);
                balls.push(Ball::new(c, r));
            }
        }
        let centers: Vec<Point<2>> = balls.iter().map(|b| b.center).collect();
        let halving = halving_cut_widest(&centers).unwrap();
        assert!(
            balls.iter().all(|b| b.touches_interior_of(&halving))
                || balls.iter().all(|b| b.touches_exterior_of(&halving)),
            "precondition lost: the root's halving routing is two-sided"
        );
        let tree = QueryTree::build::<3>(&balls, QueryTreeConfig::default(), 2);
        assert!(
            matches!(
                &tree.root,
                QNode::Internal {
                    sep: Separator::Sphere(_),
                    ..
                }
            ),
            "the root did not take the backend's cut"
        );
        assert_eq!(tree.stats().forced_leaves, 0, "{:?}", tree.stats());
        let probes = Workload::UniformCube.generate::<2>(100, 12);
        for p in centers.iter().chain(&probes) {
            let mut fast = tree.covering(p);
            fast.sort_unstable();
            let slow: Vec<u32> = (0..balls.len() as u32)
                .filter(|&i| balls[i as usize].contains(p))
                .collect();
            assert_eq!(fast, slow, "covering mismatch at {p:?}");
        }
    }

    /// Internal nodes cut by a sphere: the backends' cuts (the halving
    /// cut is a hyperplane).
    fn sphere_nodes(node: &QNode<2>) -> usize {
        match node {
            QNode::Internal { sep, left, right } => {
                usize::from(matches!(sep, Separator::Sphere(_)))
                    + sphere_nodes(left)
                    + sphere_nodes(right)
            }
            QNode::Leaf { .. } => 0,
        }
    }

    #[test]
    fn large_trees_route_probes_through_backend_spheres() {
        // At twice the cutoff the root and at least one child ask the
        // backend first, so probes descend through sphere nodes below the
        // root.
        let pts = Workload::UniformCube.generate::<2>(2 * crate::dc::HALVING_FIRST_BELOW, 13);
        let knn = crate::kdtree::kdtree_all_knn(&pts, 2);
        let sys = NeighborhoodSystem::from_knn(&pts, &knn);
        let probes = Workload::UniformCube.generate::<2>(300, 14);
        let tree = QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), 3);
        assert!(
            matches!(
                &tree.root,
                QNode::Internal {
                    sep: Separator::Sphere(_),
                    ..
                }
            ),
            "the root did not take the backend's cut"
        );
        assert!(sphere_nodes(&tree.root) >= 2, "{:?}", tree.stats());
        for p in pts.iter().take(300).chain(&probes) {
            let mut fast = tree.covering(p);
            fast.sort_unstable();
            let slow: Vec<u32> = (0..sys.balls().len() as u32)
                .filter(|&i| sys.balls()[i as usize].contains(p))
                .collect();
            assert_eq!(fast, slow, "covering mismatch at {p:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, sys) = knn_system(500, 1, 6);
        let a = QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), 5);
        let b = QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), 5);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn build_cost_depth_scales_with_height() {
        let (_, sys) = knn_system(2000, 1, 7);
        let tree = QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), 3);
        let cost = tree.build_cost();
        let stats = tree.stats();
        assert!(cost.depth as usize >= stats.height);
        assert!(cost.separator_candidates >= stats.internals as u64);
        // Work is near-linear-ish: O(n log n) with small constants here.
        assert!(cost.work < 80 * 2000 * 11);
    }

    #[test]
    fn build_report_records_depth_profile_when_enabled() {
        let (_, sys) = knn_system(2000, 1, 9);
        let cfg = QueryTreeConfig {
            record: true,
            ..QueryTreeConfig::default()
        };
        let tree = QueryTree::build::<3>(sys.balls(), cfg, 17);
        let r = tree.run_report();
        assert_eq!(r.algo, "query-build");
        assert_eq!(r.n, 2000);
        assert!(r.wall_ms > 0.0);
        // One root; per-level node totals equal internals + leaves.
        assert_eq!(r.depth[0].nodes, 1);
        let stats = tree.stats();
        let nodes: u64 = r.depth.iter().map(|d| d.nodes).sum();
        assert_eq!(nodes as usize, stats.internals + stats.leaves);
        let leaves: u64 = r.depth.iter().map(|d| d.leaves).sum();
        assert_eq!(leaves as usize, stats.leaves);
        // Duplicated (crossing) references account exactly for the space
        // blow-up beyond n.
        let crossing: u64 = r.depth.iter().map(|d| d.crossing).sum();
        assert_eq!(crossing as usize, stats.stored_balls - 2000);
        assert!(r.phase("split").unwrap().calls >= stats.internals as u64);
        assert_eq!(r.counter("stats.leaves"), Some(stats.leaves as f64));
        // Default config records nothing but still reports counters.
        let quiet = QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), 17);
        assert!(quiet.run_report().depth.is_empty());
        assert!(quiet.run_report().phases.is_empty());
        assert_eq!(
            quiet.run_report().counter("stats.leaves"),
            Some(stats.leaves as f64)
        );
    }

    #[test]
    fn query_cost_is_logarithmic_plus_leaf() {
        let (pts, sys) = knn_system(4000, 1, 8);
        let cfg = QueryTreeConfig::default();
        let tree = QueryTree::build::<3>(sys.balls(), cfg, 21);
        let mut worst = 0;
        for p in pts.iter().take(200) {
            worst = worst.max(tree.query_cost(p));
        }
        let bound = 6 * (4000f64).log2() as usize + 8 * cfg.leaf_size;
        assert!(worst <= bound, "query cost {worst} > bound {bound}");
    }
}
