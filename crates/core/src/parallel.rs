//! *Parallel Nearest Neighborhood* (Section 6): the random `O(log n)` time,
//! `n` processor k-nearest-neighbor algorithm — the paper's headline
//! result.
//!
//! The recursion partitions with a **sphere separator** instead of a
//! hyperplane, so only `ι_B(S) = O(m^μ)` balls cross the cut w.h.p.
//! (Lemma 6.4), and the correction step can afford to be aggressive:
//!
//! * **fast path** — march the crossing balls down the opposite partition
//!   subtree (Section 6.2). Reachable-leaf computation is `O(1)` rounds
//!   with `h·2^h` processors (Lemma 6.3); candidate gathering and the
//!   k-closest fix are `O(1)` scan rounds. Succeeds when no level holds
//!   more than `m^{1-η}` active balls (Lemma 6.2, w.h.p.).
//! * **punt** — when the node was unlucky (too many crossers, or the march
//!   exploded), fall back to the Section 3 query structure, paying
//!   `O(log m)` rounds at this node. The Punting Lemma (4.1) shows the
//!   punts along any root-leaf path sum to `O(log n)` w.h.p., so the whole
//!   algorithm stays `O(log n)` depth.

use crate::config::KnnDcConfig;
use crate::correction::{collect_both_sides, correct_via_query, CrossingBall};
use crate::dc::{partition_points, Driver, Engine, Leaf, Node, Routing, Rule, Slab, Span};
use crate::error::{validate_points, SepdcError};
use crate::knn::{solve_leaf, KnnResult};
use crate::partition_tree::{march_arena_par, Hit, PartitionNode, PartitionTree};
use crate::report::{cost_counters, meter_counters, stats_counters, Phase, RunRecorder, RunReport};
use crate::seeding::punt_seed;
use crate::shared::SharedLists;
use crate::splitter::RandomSphere;
use rayon::prelude::*;
use sepdc_geom::aabb::Aabb;
use sepdc_geom::point::Point;
use sepdc_geom::shape::Separator;
use sepdc_scan::cost::{CostMeter, MeterSnapshot};
use sepdc_scan::CostProfile;
use sepdc_separator::SearchOutcome;

/// Minimum right-subtree arena length before the postorder index remap
/// fans out across the pool.
const REMAP_PAR_CUTOFF: usize = 1 << 14;
/// Chunk granularity for the parallel remap.
const REMAP_PAR_CHUNK: usize = 1 << 12;
/// Minimum march hit count before the candidate-fix loop fans out. Hits
/// are fixed independently ([`SharedLists`] merges are order-independent
/// and idempotent under the row lock), so the split is output-invariant.
const FIX_PAR_MIN_HITS: usize = 128;

/// Statistics from one run of the Section 6 algorithm.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ParallelDcStats {
    /// Partition tree height.
    pub height: usize,
    /// Total crossing balls over all nodes.
    pub total_crossing: u64,
    /// Largest per-node crossing count.
    pub max_node_crossing: usize,
    /// Largest per-node crossing count divided by the node's `m^μ` punt
    /// threshold (> 1 means that node punted).
    pub max_crossing_vs_threshold: f64,
    /// Nodes corrected on the fast path.
    pub fast_corrections: u64,
    /// Nodes that punted because the crossing count exceeded `m^μ`.
    pub punts_threshold: u64,
    /// Nodes that punted because the march exceeded the active-ball limit.
    pub punts_marching: u64,
    /// Largest `max_active_per_level / m^{1-η}` ratio observed in a
    /// *successful* march (Lemma 6.2 says this stays below 1 w.h.p.).
    pub max_marching_ratio: f64,
    /// Base-case leaves.
    pub base_leaves: usize,
    /// Forced leaves of every kind: all-coincident leaves, which no cut
    /// splits and which are solved in closed form, plus the leaves
    /// counted in `degenerate_splits` and `depth_forced_leaves`. The
    /// all-coincident count is `forced_leaves − degenerate_splits −
    /// depth_forced_leaves`.
    pub forced_leaves: usize,
    /// Nodes where an *accepted* separator routed every point to one side
    /// (tolerance-counted split disagreed with strict-side routing) and
    /// the recursion fell back to a brute-force leaf instead of recursing
    /// on an unshrunk slice.
    pub degenerate_splits: usize,
    /// Nodes cut off by the automatic depth guard and solved as
    /// brute-force leaves.
    pub depth_forced_leaves: usize,
    /// Separator candidates drawn (a halving cut counts one).
    pub candidates: u64,
    /// Nodes split by the derandomized halving cut: below 2^14 points its
    /// first choice, above it the fallback or rescue of the backend.
    pub halving_splits: u64,
    /// Nodes where the driver's second cut re-split a node whose first cut
    /// routed every point one way and would otherwise have become a forced
    /// brute leaf (counted in `degenerate_splits` when the rescue fails
    /// too). Below 2^14 points the backend rescues the halving cut, above
    /// it the halving cut rescues the backend.
    pub halving_rescues: u64,
}

impl ParallelDcStats {
    fn leaf(kind: Leaf) -> Self {
        let (forced_leaves, degenerate_splits, depth_forced_leaves) = kind.counts();
        ParallelDcStats {
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
            height, total_crossing, max_node_crossing, max_crossing_vs_threshold,
            fast_corrections, punts_threshold, punts_marching, max_marching_ratio,
            base_leaves, forced_leaves, degenerate_splits, depth_forced_leaves,
            candidates, halving_splits, halving_rescues)
    }

    fn merge(self, o: Self) -> Self {
        ParallelDcStats {
            height: 1 + self.height.max(o.height),
            total_crossing: self.total_crossing + o.total_crossing,
            max_node_crossing: self.max_node_crossing.max(o.max_node_crossing),
            max_crossing_vs_threshold: self
                .max_crossing_vs_threshold
                .max(o.max_crossing_vs_threshold),
            fast_corrections: self.fast_corrections + o.fast_corrections,
            punts_threshold: self.punts_threshold + o.punts_threshold,
            punts_marching: self.punts_marching + o.punts_marching,
            max_marching_ratio: self.max_marching_ratio.max(o.max_marching_ratio),
            base_leaves: self.base_leaves + o.base_leaves,
            forced_leaves: self.forced_leaves + o.forced_leaves,
            degenerate_splits: self.degenerate_splits + o.degenerate_splits,
            depth_forced_leaves: self.depth_forced_leaves + o.depth_forced_leaves,
            candidates: self.candidates + o.candidates,
            halving_splits: self.halving_splits + o.halving_splits,
            halving_rescues: self.halving_rescues + o.halving_rescues,
        }
    }
}

/// Output of [`parallel_knn`].
pub struct ParallelDcOutput<const D: usize> {
    /// The k-nearest-neighbor lists.
    pub knn: KnnResult,
    /// Work–depth profile (depth is the `O(log n)` quantity of
    /// Theorem 6.1).
    pub cost: CostProfile,
    /// Structural statistics.
    pub stats: ParallelDcStats,
    /// Whole-run event counters.
    pub meter: MeterSnapshot,
    /// The partition tree (reusable for queries and the experiments).
    pub tree: PartitionTree<D>,
    /// The merged observability artifact: config echo, phase timings,
    /// per-depth histograms, and every counter above under one versioned
    /// schema. Phase timings and the depth histogram are empty when
    /// [`KnnDcConfig::record`] is `false`.
    pub report: RunReport,
}

/// A solved subtree: its postorder node arena (leaf ranges relative to
/// the subtree's own id slice), the matching per-node bounding boxes, and
/// the cost and statistics accumulated below it.
struct Subtree<const D: usize> {
    nodes: Vec<PartitionNode<D>>,
    bounds: Vec<Aabb<D>>,
    cost: CostProfile,
    stats: ParallelDcStats,
}

/// The Section 6 engine: leaf solves, in-place routing, and the
/// fast-correction / punt combine. Every hook reads its node's points from
/// the coordinate arena the driver partitions with the ids.
struct Ctx<'a, const D: usize> {
    /// Row `p` is the list of the point at arena position `p`.
    lists: &'a SharedLists,
    cfg: &'a KnnDcConfig,
    meter: &'a CostMeter,
    obs: &'a RunRecorder,
}

/// Section 6: sphere-separator divide and conquer with fast correction and
/// punting. `E` must be `D + 1`.
///
/// Infallible wrapper around [`try_parallel_knn`] for callers whose inputs
/// are valid by construction.
///
/// # Panics
/// Panics with the [`SepdcError`] message on invalid input: `k = 0`,
/// non-finite coordinates, out-of-range config tunables, or an exceeded
/// explicit `max_depth`. Use [`try_parallel_knn`] to handle these as typed
/// errors instead.
pub fn parallel_knn<const D: usize, const E: usize>(
    points: &[Point<D>],
    cfg: &KnnDcConfig,
) -> ParallelDcOutput<D> {
    try_parallel_knn::<D, E>(points, cfg).unwrap_or_else(|e| panic!("parallel_knn: {e}"))
}

/// Total variant of [`parallel_knn`]: validates once up front (`k`, config
/// tunables, coordinate finiteness — one linear scan) and returns a typed
/// [`SepdcError`] instead of panicking. The recursion itself runs
/// validation-free; after the up-front checks the only reachable error is
/// [`SepdcError::RecursionDepthExceeded`], and only when
/// [`KnnDcConfig::max_depth`] is set explicitly.
pub fn try_parallel_knn<const D: usize, const E: usize>(
    points: &[Point<D>],
    cfg: &KnnDcConfig,
) -> Result<ParallelDcOutput<D>, SepdcError> {
    assert_eq!(E, D + 1, "parallel_knn requires E = D + 1");
    cfg.validate()?;
    validate_points(points)?;
    let t_run = std::time::Instant::now();
    let n = points.len();
    let lists = SharedLists::new(n, cfg.k);
    let meter = CostMeter::new();
    let obs = RunRecorder::new(cfg.record, cfg.resolve_depth_limit(n));
    let ctx = Ctx {
        lists: &lists,
        cfg,
        meter: &meter,
        obs: &obs,
    };
    let driver = Driver::<D, E>::for_knn(cfg, n, Rule::Backend(&RandomSphere), &obs, Some(&meter));
    // The arena: ids and their points, which the recursion partitions in
    // place together, handing each recursive call disjoint `&mut` slices
    // of both — no per-level clones, and every node's points contiguous.
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut pts = points.to_vec();
    let slab = Slab {
        ids: &mut perm,
        pts: &mut pts,
        off: 0,
    };
    let sub = driver.run(&ctx, slab, cfg.seed, 0)?;
    drop(pts);
    let knn = lists.into_result(&perm);
    let snapshot = meter.snapshot();
    let mut counters = sub.stats.counters();
    counters.extend(meter_counters(&snapshot));
    counters.extend(cost_counters(&sub.cost));
    // Correction-engine view of the meter (same numbers, task-oriented
    // names): total march steps, subtrees skipped by AABB-vs-ball
    // rejection, and distance evaluations spent on marched candidates and
    // on unbounded lists.
    for (name, v) in [
        ("march_steps", snapshot.marching_balls),
        ("march_pruned", snapshot.march_pruned),
        ("dist_evals", snapshot.correction_dist_evals),
    ] {
        counters.push((format!("correction.{name}"), v as f64));
    }
    Ok(ParallelDcOutput {
        knn,
        cost: sub.cost,
        stats: sub.stats,
        meter: snapshot,
        tree: PartitionTree::from_parts_with_bounds(sub.nodes, perm, sub.bounds),
        report: knn_report("parallel", cfg, n, &driver, counters, t_run),
    })
}

/// The run report of a Section 5 or Section 6 build: the config echo
/// (the resolved tunables, each as a named `f64`, in a fixed order), the
/// recorder's phases and depth histogram, and `counters`.
pub(crate) fn knn_report<const D: usize, const E: usize>(
    algo: &str,
    cfg: &KnnDcConfig,
    n: usize,
    driver: &Driver<D, E>,
    counters: Vec<(String, f64)>,
    t_run: std::time::Instant,
) -> RunReport {
    let config = vec![
        ("k".to_string(), cfg.k as f64),
        ("dim".to_string(), D as f64),
        ("base_case".to_string(), driver.leaf_size as f64),
        ("mu_epsilon".to_string(), cfg.mu_epsilon),
        ("punt_slack".to_string(), cfg.punt_slack),
        ("eta".to_string(), cfg.eta),
        ("marching_slack".to_string(), cfg.marching_slack),
        ("separator.epsilon".to_string(), cfg.separator.epsilon),
        ("separator.tol".to_string(), cfg.separator.tol),
        (
            "separator.max_attempts".to_string(),
            cfg.separator.max_attempts as f64,
        ),
        ("query.leaf_size".to_string(), cfg.query.leaf_size as f64),
        ("parallel_cutoff".to_string(), cfg.parallel_cutoff as f64),
        ("depth_limit".to_string(), driver.depth_limit as f64),
        ("record".to_string(), f64::from(u8::from(cfg.record))),
        ("epsilon".to_string(), cfg.epsilon),
    ];
    RunReport {
        version: crate::report::RUN_REPORT_VERSION,
        algo: algo.to_string(),
        dim: D,
        n,
        k: cfg.k,
        seed: cfg.seed,
        threads: rayon::current_num_threads(),
        wall_ms: 0.0,
        config,
        phases: driver.obs.phases(),
        counters,
        depth: driver.obs.depth_rows(),
    }
    .finish(t_run.elapsed())
}

impl<const D: usize, const E: usize> Engine<D, E> for Ctx<'_, D> {
    type Routed = usize;
    type Out = Subtree<D>;

    fn gather(&self, _: &[u32]) -> Option<Vec<Point<D>>> {
        None
    }

    fn leaf(&self, items: Span<'_, D>, kind: Leaf) -> Subtree<D> {
        let t0 = self.obs.start();
        let (cost, dist_evals) = solve_leaf(self.lists, items, kind);
        self.meter.add_distance_evals(dist_evals);
        self.obs.stop(Phase::LeafSolve, t0);
        Subtree {
            // Leaf offsets are relative to this call's own slice; ancestors
            // shift them as they merge child arenas.
            nodes: vec![PartitionNode::Leaf {
                start: 0,
                len: items.len() as u32,
            }],
            bounds: vec![Aabb::of_points(items.pts)],
            cost,
            stats: ParallelDcStats::leaf(kind),
        }
    }

    fn route(&self, slab: &mut Slab<'_, D>, sep: &Separator<D>) -> Routing<usize> {
        partition_points(slab, sep)
    }

    fn combine(
        &self,
        items: Span<'_, D>,
        nl: usize,
        node: Node<D>,
        left: Subtree<D>,
        right: Subtree<D>,
    ) -> Subtree<D> {
        let (m, depth, sep) = (items.len(), node.depth, node.sep);
        // Merge the child arenas into one postorder node vec: the right
        // child's node indices shift by the left arena's length, and its
        // leaf ranges (relative to the right slice) shift by `nl` to become
        // relative to this call's slice. The bounds arena is positional
        // (bounds[i] boxes the subtree rooted at node i), so it
        // concatenates with no rewriting.
        let node_off = left.nodes.len() as u32;
        let mut nodes = left.nodes;
        nodes.reserve(right.nodes.len() + 1);
        let mut bounds = left.bounds;
        bounds.reserve(right.bounds.len() + 1);
        bounds.extend(right.bounds);
        let mut rnodes = right.nodes;
        let shift = |nd: &mut PartitionNode<D>| match nd {
            PartitionNode::Internal { left, right, .. } => {
                *left += node_off;
                *right += node_off;
            }
            PartitionNode::Leaf { start, .. } => *start += nl as u32,
        };
        if rnodes.len() >= REMAP_PAR_CUTOFF {
            rnodes
                .par_chunks_mut(REMAP_PAR_CHUNK)
                .for_each(|chunk| chunk.iter_mut().for_each(shift));
        } else {
            rnodes.iter_mut().for_each(shift);
        }
        nodes.append(&mut rnodes);
        let l_root = node_off - 1;
        let r_root = nodes.len() as u32 - 1;

        // ---- Correction (the paper's `Correction` procedure) ----
        // The child calls permuted their halves but the item *sets* are
        // unchanged, so the two halves are exactly the left/right subsets.
        let (cross_l, cross_r, eps_skips, unbounded_evals) =
            self.obs.time(Phase::CollectCrossing, || {
                collect_both_sides(self.lists, items, nl, &sep, self.cfg.epsilon)
            });
        self.meter.add_eps_skips(eps_skips);
        self.meter.add_distance_evals(unbounded_evals);
        self.meter.add_correction_dist_evals(unbounded_evals);

        let crossing_total = cross_l.len() + cross_r.len();
        self.obs.add_crossing(depth, crossing_total as u64);
        let threshold = self.cfg.punt_threshold(m, D);
        let crossing_ratio = crossing_total as f64 / threshold;

        let mut stats = left.stats.merge(right.stats);
        stats.total_crossing += crossing_total as u64;
        stats.max_node_crossing = stats.max_node_crossing.max(crossing_total);
        stats.max_crossing_vs_threshold = stats.max_crossing_vs_threshold.max(crossing_ratio);
        stats.candidates += node.attempts;
        stats.halving_splits += u64::from(node.outcome == SearchOutcome::Halving);
        stats.halving_rescues += u64::from(node.rescued);

        let qseed = punt_seed(node.seed);
        // Fast Correction unless the separator was unlucky: march each
        // side's crossers down the opposite subtree (already merged into
        // `nodes`, leaf ranges indexing this call's slices). `None`: too
        // many crossers to try; `Some(None)`: the march exploded (Lemma
        // 6.2's low-probability event).
        let marched = ((crossing_total as f64) < threshold).then(|| {
            let limit = self.cfg.marching_limit(m);
            self.obs.time(Phase::FastCorrection, || {
                try_fast_correction(
                    self, &cross_l, &cross_r, &nodes, &bounds, l_root, r_root, items, limit,
                )
            })
        });
        let corr_cost = if let Some(Some((work, max_ratio))) = marched {
            self.meter.add_fast_correction();
            stats.fast_corrections += 1;
            self.obs.fast_correction(depth);
            stats.max_marching_ratio = stats.max_marching_ratio.max(max_ratio);
            // Lemma 6.3: constant rounds with enough processors — the
            // march, the gather, and the k-closest fix.
            CostProfile {
                work,
                depth: 3,
                ..CostProfile::default()
            }
        } else {
            // Punt to the query structure.
            self.meter.add_punt();
            self.meter.add_query_build();
            if marched.is_some() {
                stats.punts_marching += 1;
            } else {
                stats.punts_threshold += 1;
            }
            self.obs.punt(depth);
            let mut crossing = cross_l;
            crossing.extend(cross_r);
            self.obs.time(Phase::PuntCorrection, || {
                // The punt tree's ε stays `cfg.query.epsilon` (0 by
                // default): it is built over already-shrunk balls, so a
                // second relaxation would double-count ε.
                let (cost, fstats) =
                    correct_via_query::<D, E>(self.lists, items, &crossing, self.cfg.query, qseed);
                self.meter.add_eps_skips(fstats.eps_skips);
                cost
            })
        };

        let local = CostProfile::scan(m as u64).with_candidates(node.attempts);
        let mut cost = local.then(left.cost.alongside(right.cost)).then(corr_cost);
        cost.work += unbounded_evals;
        bounds.push(bounds[l_root as usize].union(&bounds[r_root as usize]));
        nodes.push(PartitionNode::Internal {
            sep,
            size: m as u32,
            left: l_root,
            right: r_root,
        });
        Subtree {
            nodes,
            bounds,
            cost,
            stats,
        }
    }
}

/// March both crossing sets down the opposite subtrees and merge the
/// verified candidates. Returns `(work, max_active_ratio)` on success,
/// `None` when either march exceeds `limit` (caller punts).
///
/// `nodes` is the merged child arena (left subtree rooted at `l_root`,
/// right at `r_root`) and `items` the current call's slices, which the
/// leaf ranges index into.
#[allow(clippy::too_many_arguments)]
fn try_fast_correction<const D: usize>(
    ctx: &Ctx<'_, D>,
    cross_l: &[CrossingBall<D>],
    cross_r: &[CrossingBall<D>],
    nodes: &[PartitionNode<D>],
    bounds: &[Aabb<D>],
    l_root: u32,
    r_root: u32,
    items: Span<'_, D>,
    limit: usize,
) -> Option<(u64, f64)> {
    let mut work = 0u64;
    let mut max_ratio = 0.0f64;
    let limit_f = limit as f64;
    for (crossers, opposite_root) in [(cross_l, r_root), (cross_r, l_root)] {
        if crossers.is_empty() {
            continue;
        }
        let balls: Vec<_> = crossers.iter().map(|c| c.ball).collect();
        // Marching descends only into children whose subtree box the ball
        // intersects: a pruned subtree holds no in-ball points, so the
        // merged lists are identical to the unpruned march's (only the
        // step/abort accounting changes). The parallel driver shards the
        // balls and recombines per-level counts exactly, so steps, prune
        // counts, the active-level high-water mark, and the abort decision
        // all match the monolithic march bit for bit.
        let out = march_arena_par(nodes, opposite_root, &balls, limit, Some(bounds));
        ctx.meter.add_marching(out.total_steps);
        ctx.meter.add_march_pruned(out.pruned);
        if out.aborted {
            return None;
        }
        work += out.total_steps;
        max_ratio = max_ratio.max(out.max_active_per_level as f64 / limit_f);
        // Candidate fix: one distance sweep over each hit leaf's
        // contiguous points, then a batched merge into the crosser's row
        // (radius loaded once per batch; `merge_candidate` re-checks under
        // the row lock, so lists are unchanged). Keep the k closest (merge
        // handles it). Each hit touches only its owner's row and the
        // shared-store merge is order-independent, so the fix loop fans out
        // across the pool when there are many hits; meter totals are added
        // once per side either way.
        let fix = |h: &Hit, dists: &mut Vec<f64>| fix_hit(ctx, crossers, items, h, dists);
        let evals = if out.hits.len() >= FIX_PAR_MIN_HITS && rayon::current_num_threads() > 1 {
            out.hits
                .par_iter()
                .fold(
                    || (Vec::new(), 0u64),
                    |(mut dists, evals), h| {
                        let e = fix(h, &mut dists);
                        (dists, evals + e)
                    },
                )
                .reduce(|| (Vec::new(), 0u64), |a, b| (a.0, a.1 + b.1))
                .1
        } else {
            let mut dists = Vec::new();
            out.hits.iter().map(|h| fix(h, &mut dists)).sum()
        };
        work += evals;
        ctx.meter.add_distance_evals(evals);
        ctx.meter.add_correction_dist_evals(evals);
    }
    Some((work, max_ratio))
}

/// Fix a crossing ball against one leaf its march reached: the leaf's
/// points are `items.pts[start..start + len]`. Returns the number of
/// distance evaluations spent (one per leaf point). `dists` is a reusable
/// distance buffer.
fn fix_hit<const D: usize>(
    ctx: &Ctx<'_, D>,
    crossers: &[CrossingBall<D>],
    items: Span<'_, D>,
    h: &Hit,
    dists: &mut Vec<f64>,
) -> u64 {
    let c = &crossers[h.ball as usize];
    let range = h.start as usize..(h.start + h.len) as usize;
    let (cands, pts) = (&items.ids[range.clone()], &items.pts[range]);
    let owner = items.id(c.owner as usize);
    debug_assert!(
        !cands.contains(&owner),
        "opposite subtree cannot contain the owner"
    );
    let r_sq = c.ball.radius * c.ball.radius;
    // The ball's center is the owner's point, the minuend of every
    // distance kernel.
    dists.clear();
    dists.extend(pts.iter().map(|p| c.ball.center.dist_sq(p)));
    ctx.lists
        .merge_batch(c.owner as usize, owner, cands, dists, r_sq);
    h.len as u64
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
    ) -> ParallelDcStats {
        let pts = w.generate::<D>(n, seed);
        let cfg = KnnDcConfig::new(k).with_seed(seed ^ 0x5EED);
        let out = parallel_knn::<D, E>(&pts, &cfg);
        let oracle = brute_force_knn(&pts, k);
        out.knn
            .same_distances(&oracle, 1e-9)
            .unwrap_or_else(|e| panic!("{} n={n} k={k}: {e}", w.name()));
        out.knn.check_invariants().unwrap();
        out.stats
    }

    #[test]
    fn matches_oracle_uniform_2d() {
        check_matches_oracle::<2, 3>(Workload::UniformCube, 900, 1, 1);
        check_matches_oracle::<2, 3>(Workload::UniformCube, 900, 4, 2);
    }

    #[test]
    fn matches_oracle_adversarial() {
        check_matches_oracle::<2, 3>(Workload::TwoSlabs, 700, 1, 3);
        check_matches_oracle::<2, 3>(Workload::SphereShell, 700, 2, 4);
        check_matches_oracle::<2, 3>(Workload::NoisyLine, 500, 3, 5);
        check_matches_oracle::<2, 3>(Workload::Grid, 700, 2, 6);
    }

    #[test]
    fn matches_oracle_3d() {
        check_matches_oracle::<3, 4>(Workload::UniformCube, 800, 2, 7);
        check_matches_oracle::<3, 4>(Workload::Clusters, 800, 1, 8);
    }

    /// Internal nodes cut by a sphere: the backend's accepted candidates
    /// (the halving cut and the median fallback are hyperplanes).
    fn sphere_splits<const D: usize>(out: &ParallelDcOutput<D>) -> usize {
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

    /// [`parallel_knn`] under the default backend, checked bit for bit
    /// against the kd-tree oracle; panics unless the backend cut a node.
    fn check_backend_reached<const D: usize, const E: usize>(
        name: &str,
        pts: &[Point<D>],
        k: usize,
    ) -> ParallelDcOutput<D> {
        let out = parallel_knn::<D, E>(pts, &KnnDcConfig::new(k).with_seed(17));
        out.knn
            .identical_to(&crate::kdtree::kdtree_all_knn(pts, k))
            .unwrap_or_else(|e| panic!("{name} n={}: {e}", pts.len()));
        out.knn.check_invariants().unwrap();
        assert!(
            sphere_splits(&out) > 0,
            "{name}: no backend cut: {:?}",
            out.stats
        );
        out
    }

    #[test]
    fn matches_oracle_above_the_cutoff() {
        use rand::SeedableRng;
        let n = crate::dc::HALVING_FIRST_BELOW;
        let strip = sepdc_workloads::degenerate::outlier_strip::<2, _>(
            n,
            0.01,
            &mut rand_chacha::ChaCha8Rng::seed_from_u64(18),
        );
        check_backend_reached::<2, 3>("outlier_strip", &strip, 4);
        for (w, k) in [
            (Workload::UniformCube, 4),
            (Workload::TwoSlabs, 1),
            (Workload::SphereShell, 2),
            (Workload::Grid, 2),
        ] {
            check_backend_reached::<2, 3>(w.name(), &w.generate::<2>(n, 19), k);
        }
        check_backend_reached::<3, 4>("clusters", &Workload::Clusters.generate::<3>(n, 20), 2);
    }

    #[test]
    fn marches_through_sphere_nodes_below_the_root() {
        // At four times the cutoff the root's children hold about 2^14
        // points or more, so they ask the backend too, and the root's
        // correction marches its crossing balls through their spheres.
        let pts = Workload::UniformCube.generate::<2>(4 * crate::dc::HALVING_FIRST_BELOW, 21);
        let out = check_backend_reached::<2, 3>("uniform", &pts, 4);
        assert!(sphere_splits(&out) >= 3, "{:?}", out.stats);
        assert!(out.stats.fast_corrections > 0, "{:?}", out.stats);
        assert!(out.meter.marching_balls > 0);
    }

    #[test]
    fn small_inputs() {
        for n in [1usize, 2, 7, 40] {
            let pts = Workload::UniformCube.generate::<2>(n, 9);
            let cfg = KnnDcConfig::new(1);
            let out = parallel_knn::<2, 3>(&pts, &cfg);
            let oracle = brute_force_knn(&pts, 1);
            out.knn.same_distances(&oracle, 1e-12).unwrap();
        }
    }

    #[test]
    fn duplicates_and_identical() {
        let mut pts = Workload::UniformCube.generate::<2>(300, 10);
        for _ in 0..60 {
            pts.push(pts[5]);
        }
        let cfg = KnnDcConfig::new(2);
        let out = parallel_knn::<2, 3>(&pts, &cfg);
        out.knn
            .same_distances(&brute_force_knn(&pts, 2), 1e-12)
            .unwrap();

        let same = vec![sepdc_geom::Point::<2>::splat(3.0); 120];
        let out2 = parallel_knn::<2, 3>(&same, &cfg);
        assert!(out2.stats.forced_leaves >= 1);
        for i in 0..120 {
            assert_eq!(out2.knn.radius_sq(i), 0.0);
        }
    }

    #[test]
    fn fast_path_dominates_on_uniform_data() {
        let stats = check_matches_oracle::<2, 3>(Workload::UniformCube, 4000, 1, 11);
        assert!(
            stats.fast_corrections > 0,
            "no fast corrections at all: {stats:?}"
        );
        let punts = stats.punts_threshold + stats.punts_marching;
        assert!(
            stats.fast_corrections >= 3 * punts,
            "fast path not dominant: {} fast vs {} punts",
            stats.fast_corrections,
            punts
        );
    }

    #[test]
    fn depth_is_order_log_n() {
        let pts = Workload::UniformCube.generate::<2>(8192, 12);
        let cfg = KnnDcConfig::new(1);
        let out = parallel_knn::<2, 3>(&pts, &cfg);
        let log2n = (8192f64).log2();
        // Depth = O(log n): candidates + scans + O(1) corrections per
        // level, plus the base case (~max(32, log n) rounds at the leaves).
        let bound = 30.0 * log2n + 64.0;
        assert!(
            (out.cost.depth as f64) < bound,
            "depth {} vs bound {bound}",
            out.cost.depth
        );
        assert!(out.stats.height as f64 <= 3.5 * log2n);
    }

    #[test]
    fn partition_tree_covers_all_points() {
        let pts = Workload::Clusters.generate::<2>(1000, 13);
        let cfg = KnnDcConfig::new(1);
        let out = parallel_knn::<2, 3>(&pts, &cfg);
        let mut ids = Vec::new();
        out.tree.collect_point_ids(&mut ids);
        ids.sort_unstable();
        assert_eq!(ids, (0..1000u32).collect::<Vec<_>>());
        assert_eq!(out.tree.size(), 1000);
    }

    #[test]
    fn meter_counts_are_consistent() {
        let pts = Workload::UniformCube.generate::<2>(2000, 14);
        let cfg = KnnDcConfig::new(1);
        let out = parallel_knn::<2, 3>(&pts, &cfg);
        let m = out.meter;
        assert_eq!(
            m.punts,
            out.stats.punts_threshold + out.stats.punts_marching
        );
        assert_eq!(m.fast_corrections, out.stats.fast_corrections);
        assert!(m.separator_candidates >= m.separator_accepts);
        assert!(m.separator_accepts > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = Workload::SphereShell.generate::<2>(600, 15);
        let cfg = KnnDcConfig::new(2).with_seed(123);
        let a = parallel_knn::<2, 3>(&pts, &cfg);
        let b = parallel_knn::<2, 3>(&pts, &cfg);
        a.knn.same_distances(&b.knn, 0.0).unwrap();
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn k_equal_to_eight_still_correct() {
        check_matches_oracle::<2, 3>(Workload::UniformCube, 600, 8, 16);
    }

    #[test]
    fn degenerate_one_sided_separator_is_rescued() {
        // Regression for the release-mode infinite recursion: the separator
        // search accepts by *tolerance-counted* split (`side_with_tol` with
        // `cfg.separator.tol`), but the recursion routes by strict `side()`
        // (crate EPS). With a large tolerance an accepted separator can
        // route every point to one strict side, and the old
        // `debug_assert!(nl > 0 && nl < m)` let release builds recurse
        // forever on the unshrunk slice.
        //
        // The input is 64 uniform sites, each jittered into 256 points
        // (2^14 in all): the root sits at the size where the backend's cut
        // comes first (`dc::HALVING_FIRST_BELOW`), and the sparse sites let
        // a sphere miss every point. The seed below was found by offline
        // search: the root `find_good_separator` call accepts a separator
        // whose strict routing is one-sided. The precondition is asserted
        // explicitly so the test fails loudly (rather than silently
        // passing) if the candidate stream ever changes.
        use rand::{Rng, SeedableRng};
        let sites = Workload::UniformCube.generate::<2>(64, 0);
        let mut jitter = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let pts: Vec<sepdc_geom::Point<2>> = (0..crate::dc::HALVING_FIRST_BELOW)
            .map(|i| {
                let s = sites[i % 64];
                sepdc_geom::Point::from([
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

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed);
        let found = sepdc_separator::find_good_separator::<2, 3, _>(&pts, &cfg.separator, &mut rng)
            .expect("precondition: root separator search must accept");
        let nl = pts
            .iter()
            .filter(|p| found.separator.side(p).routes_interior())
            .count();
        assert!(
            nl == 0 || nl == pts.len(),
            "precondition lost: routing is two-sided (nl = {nl}); re-run the seed search"
        );

        // The driver's halving rescue re-splits the node instead of
        // forcing a brute leaf, and the answers still match the oracle.
        let out = parallel_knn::<2, 3>(&pts, &cfg);
        assert!(
            out.stats.halving_rescues >= 1,
            "rescue never fired: {:?}",
            out.stats
        );
        assert_eq!(
            out.stats.degenerate_splits, 0,
            "rescue should eliminate the degenerate leaf: {:?}",
            out.stats
        );
        out.knn
            .same_distances(&brute_force_knn(&pts, 1), 1e-12)
            .unwrap();
        out.knn.check_invariants().unwrap();
        assert_eq!(
            out.report.counter("stats.halving_rescues"),
            Some(out.stats.halving_rescues as f64)
        );
    }

    #[test]
    fn backend_matches_oracle_on_degenerate_workloads() {
        use rand::SeedableRng;
        use sepdc_workloads::degenerate::{duplicate_bundles, tolerance_band_cluster};

        // At the cutoff the root asks the backend first and the backend
        // cuts it; every node below it takes the halving cut.
        let n = crate::dc::HALVING_FIRST_BELOW;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let workloads: Vec<(&str, Vec<sepdc_geom::Point<2>>)> = vec![
            (
                "duplicate_bundles",
                duplicate_bundles::<2, _>(n, 8, &mut rng),
            ),
            (
                "tolerance_band_cluster",
                tolerance_band_cluster::<2, _>(n, 1e-6, &mut rng),
            ),
            ("noisy_line", Workload::NoisyLine.generate::<2>(n, 5)),
        ];
        for (name, pts) in &workloads {
            let oracle = brute_force_knn(pts, 2);
            let cfg = KnnDcConfig::new(2).with_seed(11);
            let out = parallel_knn::<2, 3>(pts, &cfg);
            out.knn
                .identical_to(&oracle)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            out.knn.check_invariants().unwrap();
            // A backend search adds at least one candidate, a halving
            // cut exactly one: more candidates than halving splits
            // means the backend was asked.
            assert!(
                out.stats.candidates > out.stats.halving_splits,
                "{name}: backend never asked: {:?}",
                out.stats
            );
            assert!(
                sphere_splits(&out) > 0,
                "{name}: backend cut no node: {:?}",
                out.stats
            );
        }
        // all_coincident: the backend cannot split, but the answer must
        // stay correct.
        let same = sepdc_workloads::degenerate::all_coincident::<2>(200, 2.5);
        let out = parallel_knn::<2, 3>(&same, &KnnDcConfig::new(2));
        out.knn.identical_to(&brute_force_knn(&same, 2)).unwrap();
        assert!(out.stats.forced_leaves >= 1);
    }

    #[test]
    fn try_variant_rejects_invalid_inputs() {
        use crate::SepdcError;
        let mut pts = Workload::UniformCube.generate::<2>(100, 20);
        let cfg = KnnDcConfig::new(2);
        assert!(try_parallel_knn::<2, 3>(&pts, &cfg).is_ok());
        assert_eq!(
            try_parallel_knn::<2, 3>(&pts, &KnnDcConfig::new(0))
                .err()
                .map(|e| e.to_string()),
            Some(SepdcError::InvalidK { k: 0 }.to_string())
        );
        pts[41].0[1] = f64::NAN;
        match try_parallel_knn::<2, 3>(&pts, &cfg) {
            Err(SepdcError::NonFinitePoint { idx: 41 }) => {}
            other => panic!(
                "expected NonFinitePoint {{ idx: 41 }}, got {:?}",
                other.err()
            ),
        }
        let bad_cfg = KnnDcConfig {
            eta: f64::NAN,
            ..cfg
        };
        let clean = Workload::UniformCube.generate::<2>(50, 21);
        assert!(matches!(
            try_parallel_knn::<2, 3>(&clean, &bad_cfg),
            Err(SepdcError::InvalidConfig { param: "eta", .. })
        ));
    }

    #[test]
    #[should_panic(expected = "parallel_knn: point 3 has a non-finite")]
    fn infallible_wrapper_panics_with_typed_message() {
        let mut pts = Workload::UniformCube.generate::<2>(10, 22);
        pts[3].0[0] = f64::INFINITY;
        let _ = parallel_knn::<2, 3>(&pts, &KnnDcConfig::new(1));
    }

    #[test]
    fn explicit_max_depth_is_strict() {
        use crate::SepdcError;
        let pts = Workload::UniformCube.generate::<2>(900, 23);
        let cfg = KnnDcConfig {
            max_depth: Some(1),
            ..KnnDcConfig::new(1)
        };
        match try_parallel_knn::<2, 3>(&pts, &cfg) {
            Err(SepdcError::RecursionDepthExceeded { limit: 1 }) => {}
            other => panic!("expected RecursionDepthExceeded, got {:?}", other.err()),
        }
        // A generous explicit limit succeeds and still matches the oracle.
        let cfg_ok = KnnDcConfig {
            max_depth: Some(64),
            ..KnnDcConfig::new(1)
        };
        let out = try_parallel_knn::<2, 3>(&pts, &cfg_ok).unwrap();
        out.knn
            .same_distances(&brute_force_knn(&pts, 1), 1e-9)
            .unwrap();
        assert_eq!(out.stats.depth_forced_leaves, 0);
    }

    #[test]
    fn run_report_is_populated_and_consistent() {
        let pts = Workload::UniformCube.generate::<2>(3000, 30);
        let cfg = KnnDcConfig::new(2);
        let out = parallel_knn::<2, 3>(&pts, &cfg);
        let r = &out.report;
        assert_eq!(r.version, crate::report::RUN_REPORT_VERSION);
        assert_eq!(r.algo, "parallel");
        assert_eq!((r.dim, r.n, r.k), (2, 3000, 2));
        assert!(r.wall_ms > 0.0);
        assert!(r.threads >= 1);
        // Counters mirror the structural stats, the meter, and the cost
        // profile under their prefixes.
        assert_eq!(
            r.counter("stats.fast_corrections"),
            Some(out.stats.fast_corrections as f64)
        );
        assert_eq!(
            r.counter("meter.distance_evals"),
            Some(out.meter.distance_evals as f64)
        );
        assert_eq!(r.counter("cost.depth"), Some(out.cost.depth as f64));
        // Phase timings: one leaf-solve interval per base-case leaf, and
        // every internal node timed a split.
        assert_eq!(
            r.phase("leaf-solve").unwrap().calls as usize,
            out.stats.base_leaves
        );
        assert!(r.phase("split").unwrap().calls > 0);
        // Depth histogram: exactly one root, and the per-depth sums agree
        // with the whole-run stats.
        assert_eq!(r.depth[0].nodes, 1);
        let sum = |f: fn(&crate::report::DepthRow) -> u64| -> u64 { r.depth.iter().map(f).sum() };
        assert_eq!(sum(|d| d.leaves) as usize, out.stats.base_leaves);
        assert_eq!(
            sum(|d| d.punts),
            out.stats.punts_threshold + out.stats.punts_marching
        );
        assert_eq!(sum(|d| d.fast_corrections), out.stats.fast_corrections);
        assert_eq!(sum(|d| d.crossing), out.stats.total_crossing);
        assert_eq!(sum(|d| d.candidates), out.stats.candidates);
        // Config echo carries the resolved tunables.
        assert!(r.config.iter().any(|(name, v)| name == "k" && *v == 2.0));
        // The artifact round-trips through its own serializer.
        let back = crate::report::RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(&back, r);
    }

    #[test]
    fn record_disabled_skips_phases_and_histograms() {
        let pts = Workload::UniformCube.generate::<2>(600, 31);
        let cfg = KnnDcConfig {
            record: false,
            ..KnnDcConfig::new(1)
        };
        let out = parallel_knn::<2, 3>(&pts, &cfg);
        assert!(out.report.phases.is_empty());
        assert!(out.report.depth.is_empty());
        // The always-computed counters and wall time are still reported.
        assert!(out.report.wall_ms > 0.0);
        assert!(out.report.counter("stats.base_leaves").unwrap() > 0.0);
        // And the result itself is unaffected.
        out.knn
            .same_distances(&brute_force_knn(&pts, 1), 1e-9)
            .unwrap();
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // The result must be a pure function of (points, config): the
        // chunked parallel scans concatenate in order and the shared-store
        // merges are order-independent, so any thread count — including a
        // strictly sequential pool — must produce bit-identical output.
        let pts = Workload::Clusters.generate::<2>(3000, 17);
        let cfg = KnnDcConfig::new(3).with_seed(99);
        let baseline = parallel_knn::<2, 3>(&pts, &cfg);
        for threads in [1, 2, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let out = pool.install(|| parallel_knn::<2, 3>(&pts, &cfg));
            out.knn
                .same_distances(&baseline.knn, 0.0)
                .unwrap_or_else(|e| panic!("{threads} threads: {e}"));
            assert_eq!(out.stats, baseline.stats, "{threads} threads");
            assert_eq!(
                out.tree.nodes().len(),
                baseline.tree.nodes().len(),
                "{threads} threads"
            );
        }
    }
}
