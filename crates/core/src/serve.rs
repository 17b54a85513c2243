//! Parallel batch-query serving engine — the throughput-oriented read
//! path over the Section 3 search structure.
//!
//! [`QueryTree`] answers one probe in `O(log n + m₀)`; this module is for
//! the *serving* shape of that workload — build once, answer millions of
//! probes. A batch of probes is split into fixed-size chunks, chunks are
//! served in parallel through `rayon::join` on the vendored work-stealing
//! pool, and every chunk writes into one reusable output arena instead of
//! allocating a `Vec<u32>` per probe. Results come back as a flat
//! CSR-style [`BatchResult`] (one offsets array + one ids array) rather
//! than a `Vec<Vec<u32>>` — a single allocation pair for the whole batch,
//! cache-linear to consume.
//!
//! # Determinism contract
//!
//! The returned [`BatchResult`] is a **pure function of the tree and the
//! probe slice**: chunk boundaries depend only on
//! [`ServeConfig::chunk_size`], chunk outputs are concatenated in chunk
//! order, and per-probe hit ids keep leaf order — so every thread count
//! (including 1) and every chunk size produces byte-identical output.
//! This is the same discipline the build path established for the k-NN
//! drivers (DESIGN.md §8/§11).
//!
//! # Serving quickstart
//!
//! Build a tree over a neighborhood system once, then serve probe batches
//! against it (this example is the README's serving quickstart and runs
//! as a doctest):
//!
//! ```
//! use sepdc_core::serve::{CoverPredicate, ServeConfig};
//! use sepdc_core::{kdtree_all_knn, NeighborhoodSystem, QueryTree, QueryTreeConfig};
//! use sepdc_workloads::Workload;
//!
//! // A k-ply neighborhood system: the 2-NN balls of 2 000 points.
//! let points = Workload::UniformCube.generate::<2>(2_000, 42);
//! let system = NeighborhoodSystem::from_knn(&points, &kdtree_all_knn(&points, 2));
//!
//! // Build once (the write path) …
//! let tree = QueryTree::build::<3>(system.balls(), QueryTreeConfig::default(), 7);
//!
//! // … serve batches forever (the read path).
//! let probes = Workload::UniformCube.generate::<2>(10_000, 99);
//! let out = tree
//!     .try_serve(&probes, CoverPredicate::Closed, &ServeConfig::default())
//!     .unwrap();
//! assert_eq!(out.result.len(), probes.len());
//! for (probe, hits) in probes.iter().zip(out.result.iter()) {
//!     for &id in hits {
//!         assert!(system.balls()[id as usize].contains(probe));
//!     }
//! }
//! println!(
//!     "{} probes, {} hits, mean query cost {:.1}",
//!     out.stats.probes,
//!     out.stats.hits,
//!     out.stats.mean_cost()
//! );
//! ```
//!
//! The `covering` / `covering_interior` point queries and their batch
//! wrappers ([`QueryTree::batch_covering`],
//! [`QueryTree::batch_covering_interior`]) are thin front-ends over
//! [`QueryTree::try_serve`]; the `sepdc query` and `sepdc serve` CLI
//! subcommands drive the same engine end to end.

pub use crate::config::ServeConfig;

use crate::config::eps_cover_scale;
use crate::error::{validate_points, SepdcError};
use crate::query::QueryTree;
use crate::report::{Phase, RunRecorder, RunReport, RUN_REPORT_VERSION};
use sepdc_geom::point::Point;
use sepdc_geom::soa::FilterStats;

/// Which containment predicate a batch evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoverPredicate {
    /// Closed-ball containment (`‖p − c‖ ≤ r`): the neighborhood query
    /// problem as stated in Section 3.
    Closed,
    /// Open-interior containment (`‖p − c‖ < r`): the predicate the
    /// correction steps need — a point strictly inside a k-neighborhood
    /// ball invalidates its radius.
    Open,
}

impl CoverPredicate {
    /// Wire name used in reports and CLI summaries.
    pub fn name(self) -> &'static str {
        match self {
            CoverPredicate::Closed => "closed",
            CoverPredicate::Open => "open",
        }
    }
}

/// Flat CSR-style batch answer: hit ids of probe `i` live at
/// `ids[offsets[i] .. offsets[i + 1]]`, in leaf (ball-id) order.
///
/// Two allocations for the whole batch regardless of probe count —
/// compare `Vec<Vec<u32>>`, which costs one allocation per probe and
/// scatters rows across the heap.
///
/// Offsets are explicit `u64`, not `usize`: the CSR arrays cross process
/// boundaries (snapshot files, daemon framing), so their width must not
/// depend on the architecture that produced them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchResult {
    offsets: Vec<u64>,
    ids: Vec<u32>,
}

impl BatchResult {
    /// An answer for zero probes.
    pub fn empty() -> Self {
        BatchResult {
            offsets: vec![0],
            ids: Vec::new(),
        }
    }

    /// Number of probes answered.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when the batch contained no probes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit ids of probe `i` (indices into the tree's ball array).
    pub fn hits(&self, i: usize) -> &[u32] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate the per-probe hit lists in probe order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.offsets
            .windows(2)
            .map(move |w| &self.ids[w[0] as usize..w[1] as usize])
    }

    /// Total hits across the batch (`ids.len()`).
    pub fn total_hits(&self) -> usize {
        self.ids.len()
    }

    /// The raw CSR offsets array (`len() + 1` entries, starting at 0).
    ///
    /// Fixed-width `u64` so the answer's shape is identical on every
    /// architecture — the wire/snapshot contract, not a host detail.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw concatenated hit-id array.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }
}

impl<'a> IntoIterator for &'a BatchResult {
    type Item = &'a [u32];
    type IntoIter = BatchIter<'a>;
    fn into_iter(self) -> BatchIter<'a> {
        BatchIter {
            result: self,
            next: 0,
        }
    }
}

/// Iterator over the per-probe hit lists of a [`BatchResult`].
pub struct BatchIter<'a> {
    result: &'a BatchResult,
    next: usize,
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = &'a [u32];
    fn next(&mut self) -> Option<&'a [u32]> {
        if self.next < self.result.len() {
            self.next += 1;
            Some(self.result.hits(self.next - 1))
        } else {
            None
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.result.len() - self.next;
        (rem, Some(rem))
    }
}

/// Aggregate statistics of one served batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Probes answered.
    pub probes: usize,
    /// Total hits across the batch.
    pub hits: u64,
    /// Chunks the batch was split into.
    pub chunks: usize,
    /// Summed per-probe query cost (nodes visited + leaf balls scanned —
    /// the measured `O(log n + m₀)` of Lemma 3.1).
    pub cost_total: u64,
    /// Largest single-probe query cost in the batch.
    pub cost_max: u64,
    /// ε skips accumulated across every leaf scan of the batch (zero when
    /// ε = 0).
    pub filter: FilterStats,
}

impl ServeStats {
    /// Mean per-probe query cost (0 for an empty batch).
    pub fn mean_cost(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.cost_total as f64 / self.probes as f64
        }
    }
}

/// Everything one served batch returns: the CSR answer, aggregate stats,
/// and the run report (`algo = "query-serve"`).
#[derive(Clone, Debug)]
pub struct ServeOutput {
    /// The flat batch answer.
    pub result: BatchResult,
    /// Aggregate statistics.
    pub stats: ServeStats,
    /// The batch's [`RunReport`]. Phase timings and the query-cost
    /// histogram are present only when [`ServeConfig::record`] is set; the
    /// `serve.*` counters are always filled.
    pub report: RunReport,
}

/// Output arena of one chunk task: per-probe hit counts plus the
/// concatenated ids, reused across every probe in the chunk.
struct ChunkPart {
    lens: Vec<u32>,
    ids: Vec<u32>,
    stats: ServeStats,
}

/// Query-cost histogram buckets: the serve report reuses the depth
/// histogram with `depth = ⌊log₂ cost⌋` (cost ≥ 1), capped here.
const COST_BUCKETS: usize = 48;

fn cost_bucket(cost: u64) -> usize {
    (63 - cost.max(1).leading_zeros() as usize).min(COST_BUCKETS)
}

fn serve_chunk<const D: usize>(
    tree: &QueryTree<D>,
    chunk: &[Point<D>],
    pred: CoverPredicate,
    cfg: &ServeConfig,
    obs: &RunRecorder,
) -> ChunkPart {
    let t = obs.start();
    let mut part = ChunkPart {
        lens: Vec::with_capacity(chunk.len()),
        ids: Vec::new(),
        stats: ServeStats {
            chunks: 1,
            ..ServeStats::default()
        },
    };
    let soa = tree.soa_balls();
    let open = pred == CoverPredicate::Open;
    // ε > 0 relaxes the cover predicate per DESIGN.md §17.
    let eps_scale = eps_cover_scale(cfg.epsilon);
    // One distance buffer for the whole chunk: the leaf filter runs
    // through the blocked SoA kernels, appending hits in leaf order (so the
    // CSR assembly stays byte-identical to the scalar filter).
    let mut scratch: Vec<f64> = Vec::new();
    for p in chunk {
        let (leaf, visited) = tree.descend_counted(p);
        let before = part.ids.len();
        soa.filter_covering_eps_into(
            p,
            leaf,
            open,
            eps_scale,
            &mut scratch,
            &mut part.ids,
            &mut part.stats.filter,
        );
        let hits = (part.ids.len() - before) as u64;
        let cost = visited as u64 + leaf.len() as u64;
        part.lens.push(hits as u32);
        part.stats.probes += 1;
        part.stats.hits += hits;
        part.stats.cost_total += cost;
        part.stats.cost_max = part.stats.cost_max.max(cost);
        if obs.is_enabled() {
            // Histogram reuse: one "node" per probe in its cost bucket,
            // hits accumulated in the bucket's crossing column.
            let bucket = cost_bucket(cost);
            obs.node(bucket);
            obs.add_crossing(bucket, hits);
        }
    }
    obs.stop(Phase::Serve, t);
    part
}

/// Serve `probes[lo..hi)` (chunk-aligned bounds), forking while more than
/// one chunk remains and the batch is above the parallel threshold.
fn serve_rec<const D: usize>(
    tree: &QueryTree<D>,
    probes: &[Point<D>],
    pred: CoverPredicate,
    cfg: &ServeConfig,
    obs: &RunRecorder,
    parallel: bool,
) -> Vec<ChunkPart> {
    let chunks = probes.len().div_ceil(cfg.chunk_size);
    if chunks <= 1 {
        return vec![serve_chunk(tree, probes, pred, cfg, obs)];
    }
    if !parallel {
        return probes
            .chunks(cfg.chunk_size)
            .map(|c| serve_chunk(tree, c, pred, cfg, obs))
            .collect();
    }
    // Split at a chunk boundary so chunk contents are identical to the
    // sequential path — the determinism contract does not depend on how
    // the range is divided among tasks.
    let mid = (chunks / 2) * cfg.chunk_size;
    let (left, right) = probes.split_at(mid);
    let (mut l, r) = rayon::join(
        || serve_rec(tree, left, pred, cfg, obs, parallel),
        || serve_rec(tree, right, pred, cfg, obs, parallel),
    );
    l.extend(r);
    l
}

/// Assemble the chunk parts (in chunk order) into one CSR result.
fn assemble(parts: Vec<ChunkPart>, probes: usize) -> (BatchResult, ServeStats) {
    let mut stats = ServeStats::default();
    let total: usize = parts.iter().map(|p| p.ids.len()).sum();
    let mut offsets = Vec::with_capacity(probes + 1);
    let mut ids = Vec::with_capacity(total);
    offsets.push(0u64);
    let mut at = 0u64;
    for part in parts {
        for &len in &part.lens {
            at += u64::from(len);
            offsets.push(at);
        }
        ids.extend_from_slice(&part.ids);
        stats.probes += part.stats.probes;
        stats.hits += part.stats.hits;
        stats.chunks += part.stats.chunks;
        stats.cost_total += part.stats.cost_total;
        stats.cost_max = stats.cost_max.max(part.stats.cost_max);
        stats.filter.merge(&part.stats.filter);
    }
    (BatchResult { offsets, ids }, stats)
}

impl<const D: usize> QueryTree<D> {
    /// Serve a probe batch: the full engine entry point.
    ///
    /// Validates the probes once up front (the first non-finite probe is
    /// rejected as [`SepdcError::NonFinitePoint`] with its index) and the
    /// config ([`SepdcError::InvalidConfig`] for a zero chunk size), then
    /// answers every probe under `pred` in parallel chunks. See the
    /// [module docs](crate::serve) for the determinism contract.
    pub fn try_serve(
        &self,
        probes: &[Point<D>],
        pred: CoverPredicate,
        cfg: &ServeConfig,
    ) -> Result<ServeOutput, SepdcError> {
        cfg.validate()?;
        validate_points(probes)?;
        let t_run = std::time::Instant::now();
        let obs = RunRecorder::new(cfg.record, COST_BUCKETS);
        let (result, stats) = if probes.is_empty() {
            (BatchResult::empty(), ServeStats::default())
        } else {
            let parallel = probes.len() > cfg.parallel_threshold;
            let parts = serve_rec(self, probes, pred, cfg, &obs, parallel);
            assemble(parts, probes.len())
        };
        let report = RunReport {
            version: RUN_REPORT_VERSION,
            algo: "query-serve".to_string(),
            dim: D,
            n: self.len(),
            k: 0,
            seed: 0,
            threads: rayon::current_num_threads(),
            wall_ms: 0.0,
            config: vec![
                ("chunk_size".to_string(), cfg.chunk_size as f64),
                (
                    "parallel_threshold".to_string(),
                    cfg.parallel_threshold as f64,
                ),
                (
                    "predicate.open".to_string(),
                    f64::from(u8::from(pred == CoverPredicate::Open)),
                ),
                ("record".to_string(), f64::from(u8::from(cfg.record))),
                ("epsilon".to_string(), cfg.epsilon),
            ],
            phases: obs.phases(),
            counters: vec![
                ("serve.probes".to_string(), stats.probes as f64),
                ("serve.hits".to_string(), stats.hits as f64),
                ("serve.chunks".to_string(), stats.chunks as f64),
                ("serve.cost_total".to_string(), stats.cost_total as f64),
                ("serve.cost_max".to_string(), stats.cost_max as f64),
                ("serve.cost_mean".to_string(), stats.mean_cost()),
                (
                    "precision.eps_skips".to_string(),
                    stats.filter.eps_skips as f64,
                ),
            ],
            depth: obs.depth_rows(),
        }
        .finish(t_run.elapsed());
        Ok(ServeOutput {
            result,
            stats,
            report,
        })
    }

    /// Batch query under the *closed* containment predicate: the hit
    /// lists of [`QueryTree::covering`] for every probe, as a flat
    /// [`BatchResult`]. Total variant of [`QueryTree::batch_covering`].
    pub fn try_batch_covering(&self, probes: &[Point<D>]) -> Result<BatchResult, SepdcError> {
        self.try_serve(probes, CoverPredicate::Closed, &ServeConfig::default())
            .map(|out| out.result)
    }

    /// Batch query under the *open-interior* predicate: the hit lists of
    /// [`QueryTree::covering_interior`] for every probe, as a flat
    /// [`BatchResult`]. Total variant of
    /// [`QueryTree::batch_covering_interior`]; probes with non-finite
    /// coordinates are rejected with the offending index instead of
    /// silently descending on NaN comparisons.
    pub fn try_batch_covering_interior(
        &self,
        probes: &[Point<D>],
    ) -> Result<BatchResult, SepdcError> {
        self.try_serve(probes, CoverPredicate::Open, &ServeConfig::default())
            .map(|out| out.result)
    }

    /// Panicking wrapper over [`QueryTree::try_batch_covering`] (finite
    /// probes are a caller bug in tests and scripts).
    pub fn batch_covering(&self, probes: &[Point<D>]) -> BatchResult {
        self.try_batch_covering(probes)
            .unwrap_or_else(|e| panic!("QueryTree::batch_covering: {e}"))
    }

    /// Panicking wrapper over [`QueryTree::try_batch_covering_interior`] —
    /// the shape the correction steps consume ("for all p ∈ P, in
    /// parallel").
    pub fn batch_covering_interior(&self, probes: &[Point<D>]) -> BatchResult {
        self.try_batch_covering_interior(probes)
            .unwrap_or_else(|e| panic!("QueryTree::batch_covering_interior: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_knn;
    use crate::neighborhood::NeighborhoodSystem;
    use crate::query::QueryTreeConfig;
    use sepdc_workloads::Workload;

    fn tree_2d(n: usize, k: usize, seed: u64) -> QueryTree<2> {
        let pts = Workload::UniformCube.generate::<2>(n, seed);
        let knn = brute_force_knn(&pts, k);
        let sys = NeighborhoodSystem::from_knn(&pts, &knn);
        QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), seed)
    }

    #[test]
    fn batch_matches_pointwise_queries() {
        let tree = tree_2d(700, 2, 3);
        let probes = Workload::Clusters.generate::<2>(300, 5);
        let closed = tree.batch_covering(&probes);
        let open = tree.batch_covering_interior(&probes);
        assert_eq!(closed.len(), probes.len());
        for (i, p) in probes.iter().enumerate() {
            assert_eq!(closed.hits(i), tree.covering(p), "closed probe {i}");
            assert_eq!(open.hits(i), tree.covering_interior(p), "open probe {i}");
        }
        assert_eq!(
            closed.total_hits(),
            closed.iter().map(<[u32]>::len).sum::<usize>()
        );
    }

    #[test]
    fn chunk_size_cannot_change_the_answer() {
        let tree = tree_2d(500, 1, 9);
        let probes = Workload::UniformCube.generate::<2>(2500, 11);
        let baseline = tree
            .try_serve(&probes, CoverPredicate::Closed, &ServeConfig::default())
            .unwrap();
        for chunk_size in [1, 7, 64, 100_000] {
            for parallel_threshold in [0, 100_000] {
                let cfg = ServeConfig {
                    chunk_size,
                    parallel_threshold,
                    ..ServeConfig::default()
                };
                let out = tree
                    .try_serve(&probes, CoverPredicate::Closed, &cfg)
                    .unwrap();
                assert_eq!(
                    out.result, baseline.result,
                    "chunk={chunk_size} threshold={parallel_threshold}"
                );
            }
        }
    }

    #[test]
    fn empty_batch_and_empty_tree() {
        let tree = tree_2d(200, 1, 2);
        let out = tree
            .try_serve(&[], CoverPredicate::Open, &ServeConfig::default())
            .unwrap();
        assert!(out.result.is_empty());
        assert_eq!(out.result.offsets(), &[0]);
        assert_eq!(out.stats, ServeStats::default());

        let empty: QueryTree<2> = QueryTree::build::<3>(&[], QueryTreeConfig::default(), 1);
        let probes = Workload::UniformCube.generate::<2>(50, 4);
        let res = empty.batch_covering(&probes);
        assert_eq!(res.len(), 50);
        assert_eq!(res.total_hits(), 0);
        assert!(res.iter().all(<[u32]>::is_empty));
    }

    #[test]
    fn non_finite_probe_rejected_with_index() {
        let tree = tree_2d(150, 1, 6);
        let mut probes = Workload::UniformCube.generate::<2>(10, 8);
        probes[7] = Point::from([0.5, f64::NAN]);
        for result in [
            tree.try_batch_covering(&probes),
            tree.try_batch_covering_interior(&probes),
            tree.try_serve(&probes, CoverPredicate::Closed, &ServeConfig::default())
                .map(|o| o.result),
        ] {
            assert_eq!(result, Err(SepdcError::NonFinitePoint { idx: 7 }));
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn infallible_batch_panics_on_nan() {
        let tree = tree_2d(100, 1, 6);
        tree.batch_covering_interior(&[Point::from([f64::INFINITY, 0.0])]);
    }

    #[test]
    fn zero_chunk_size_is_invalid_config() {
        let tree = tree_2d(100, 1, 6);
        let cfg = ServeConfig {
            chunk_size: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(
            tree.try_serve(&[], CoverPredicate::Closed, &cfg),
            Err(SepdcError::InvalidConfig {
                param: "serve.chunk_size",
                ..
            })
        ));
    }

    #[test]
    fn serve_report_counters_and_histogram() {
        let tree = tree_2d(800, 2, 12);
        let probes = Workload::UniformCube.generate::<2>(3000, 13);
        let cfg = ServeConfig {
            record: true,
            chunk_size: 256,
            parallel_threshold: 512,
            ..ServeConfig::default()
        };
        let out = tree.try_serve(&probes, CoverPredicate::Open, &cfg).unwrap();
        let r = &out.report;
        assert_eq!(r.algo, "query-serve");
        assert_eq!(r.n, tree.len());
        assert!(r.wall_ms > 0.0);
        assert_eq!(r.counter("serve.probes"), Some(3000.0));
        assert_eq!(r.counter("serve.hits"), Some(out.stats.hits as f64));
        assert_eq!(r.counter("serve.chunks"), Some(out.stats.chunks as f64));
        assert!(r.counter("serve.cost_mean").unwrap() > 0.0);
        let serve = r.phase("serve").unwrap();
        assert_eq!(serve.calls, out.stats.chunks as u64);
        assert!(serve.ms > 0.0);
        // Histogram: one node per probe (bucketed by ⌊log₂ cost⌋), hits in
        // the crossing column.
        let nodes: u64 = r.depth.iter().map(|d| d.nodes).sum();
        let hits: u64 = r.depth.iter().map(|d| d.crossing).sum();
        assert_eq!(nodes, 3000);
        assert_eq!(hits, out.stats.hits);
        // Round-trips through the shared serializer.
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(&back, r);
        // Recording off (the default) leaves phases/histogram empty but
        // keeps the counters.
        let quiet = tree
            .try_serve(&probes, CoverPredicate::Open, &ServeConfig::default())
            .unwrap();
        assert!(quiet.report.phases.is_empty());
        assert!(quiet.report.depth.is_empty());
        assert_eq!(quiet.report.counter("serve.probes"), Some(3000.0));
    }

    #[test]
    fn cost_buckets_are_log2() {
        assert_eq!(cost_bucket(1), 0);
        assert_eq!(cost_bucket(2), 1);
        assert_eq!(cost_bucket(3), 1);
        assert_eq!(cost_bucket(1024), 10);
        assert_eq!(cost_bucket(u64::MAX), COST_BUCKETS);
        // cost 0 cannot occur (every probe visits the root) but must not
        // underflow the bucket math.
        assert_eq!(cost_bucket(0), 0);
    }

    #[test]
    fn epsilon_serving_relaxes_cover_and_counts_skips() {
        let tree = tree_2d(600, 2, 31);
        let probes = Workload::UniformCube.generate::<2>(1200, 32);
        let exact = tree
            .try_serve(&probes, CoverPredicate::Closed, &ServeConfig::default())
            .unwrap();
        let relaxed = tree
            .try_serve(
                &probes,
                CoverPredicate::Closed,
                &ServeConfig {
                    epsilon: 0.5,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
        // ε-mode may only *drop* hits (the predicate shrinks), and every
        // dropped hit is counted.
        assert!(relaxed.stats.hits <= exact.stats.hits);
        let dropped = exact.stats.hits - relaxed.stats.hits;
        assert_eq!(relaxed.stats.filter.eps_skips, dropped);
        assert!(dropped > 0, "ε = 0.5 should drop marginal covers here");
        for (i, _) in probes.iter().enumerate() {
            let e: std::collections::HashSet<u32> = exact.result.hits(i).iter().copied().collect();
            for id in relaxed.result.hits(i) {
                assert!(e.contains(id), "ε-mode invented hit {id} at probe {i}");
            }
        }
    }

    #[test]
    fn stats_match_query_cost() {
        let tree = tree_2d(600, 1, 17);
        let probes = Workload::UniformCube.generate::<2>(100, 18);
        let out = tree
            .try_serve(&probes, CoverPredicate::Closed, &ServeConfig::default())
            .unwrap();
        let expected: u64 = probes.iter().map(|p| tree.query_cost(p) as u64).sum();
        assert_eq!(out.stats.cost_total, expected);
        assert!(out.stats.cost_max as f64 >= out.stats.mean_cost());
    }
}
