//! Per-layer replays for the traced run. Each replay calls one public
//! function of the program in isolation, on the workload's own input,
//! under its own span.

use crate::knn::{knn_hash, K};
use crate::serve::{self, DaemonCounters, INDEX_SEED, STAGING};
use crate::trace::Tracer;
use crate::{metric, stats, Ctx, Metric, Tally};
use sepdc_core::knn::solve_subset_brute;
use sepdc_core::seeding::child_seed;
use sepdc_core::serve::{CoverPredicate, ServeConfig};
use sepdc_core::snapshot::{load_query_tree, save_query_tree};
use sepdc_core::{
    kdtree_all_knn, march_balls, splitter_for, KnnDcConfig, KnnResult, NeighborhoodSystem,
    ParallelDcOutput, PartitionNode, QueryTree, QueryTreeConfig, RunReport, ShardedConfig,
    ShardedIndex,
};
use sepdc_geom::soa::SoaPoints;
use sepdc_geom::Point;
use std::hint::black_box;
use std::time::Instant;

/// Probes for the in-process serve and parse replays.
const LAYER_PROBES: usize = 65_536;
/// Probes in the daemon session a k-NN workload's trace runs.
const DAEMON_PROBES: usize = 20_000;
/// Singleton inserts and deletes replayed on a private sharded index.
const WRITES: usize = 1_000;
/// Query points for the distance-kernel replay.
const KERNEL_QUERIES: usize = 64;
/// Balls marched per batch in the march replay (bounds its memory).
const MARCH_CHUNK: usize = 4_096;

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Layers of `parallel_knn`: the program's own phase timers and counters
/// from the traced calls, plus isolated replays of the separator search,
/// the leaf solve, the march and the distance kernels over the tree the
/// last traced call returned.
pub fn knn_layers<const D: usize, const E: usize>(
    points: &[Point<D>],
    cfg: &KnnDcConfig,
    reports: &[RunReport],
    out: &ParallelDcOutput<D>,
    t: &mut Tracer,
    parent: usize,
) -> Vec<Metric> {
    // Phase busy times are summed across workers by the program; the
    // median over the traced calls is reported.
    let phase_s = |name: &str| -> Vec<f64> {
        reports
            .iter()
            .map(|r| r.phase(name).map_or(0.0, |p| p.ms / 1e3))
            .collect()
    };
    let busy = |name: &str| stats::median(&phase_s(name));
    let search = phase_s("separator-search");
    let partition: Vec<f64> = phase_s("split")
        .iter()
        .zip(&search)
        .map(|(s, q)| s - q)
        .collect();
    let total: Vec<f64> = reports
        .iter()
        .map(|r| {
            [
                "split",
                "leaf-solve",
                "collect-crossing",
                "fast-correction",
                "punt-correction",
            ]
            .iter()
            .map(|n| r.phase(n).map_or(0.0, |p| p.ms))
            .sum()
        })
        .collect();
    let punt_share: Vec<f64> = phase_s("punt-correction")
        .iter()
        .zip(&total)
        .map(|(p, all)| p * 1e3 / all)
        .collect();
    let search_calls = reports
        .last()
        .and_then(|r| r.phase("separator-search"))
        .map_or(0, |p| p.calls);
    let (m, s) = (&out.meter, &out.stats);

    let tree = &out.tree;
    let nodes = tree.nodes();
    // Each subtree owns one contiguous range of the permutation array
    // (left child first); children precede parents in the arena.
    let mut range = vec![(0u32, 0u32); nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        range[i] = match *node {
            PartitionNode::Leaf { start, len } => (start, len),
            PartitionNode::Internal { left, right, .. } => {
                let (l, r) = (range[left as usize], range[right as usize]);
                (l.0, l.1 + r.1)
            }
        };
    }
    // The recursion seeds every node from its root path; replay each
    // internal node's search with that node's seed on its point range.
    let mut seed = vec![0u64; nodes.len()];
    seed[tree.root() as usize] = cfg.seed;
    for i in (0..nodes.len()).rev() {
        if let PartitionNode::Internal { left, right, .. } = nodes[i] {
            seed[left as usize] = child_seed(seed[i], false);
            seed[right as usize] = child_seed(seed[i], true);
        }
    }
    let splitter = splitter_for::<D, E>(cfg.splitter);
    let gather = |(start, len): (u32, u32)| -> Vec<Point<D>> {
        tree.leaf_point_ids(start, len)
            .iter()
            .map(|&i| points[i as usize])
            .collect()
    };
    let internal: Vec<usize> = (0..nodes.len())
        .filter(|&i| matches!(nodes[i], PartitionNode::Internal { .. }))
        .collect();
    let sep_span = t.begin("separator_replay", "separator", Some(parent));
    let mut sep_s = 0.0;
    for &i in &internal {
        let centers = gather(range[i]);
        let start = Instant::now();
        black_box(splitter.split(&centers, &cfg.separator, seed[i]));
        sep_s += start.elapsed().as_secs_f64();
    }
    t.end(sep_span);

    let leaves: Vec<(u32, u32)> = nodes
        .iter()
        .filter_map(|n| match *n {
            PartitionNode::Leaf { start, len } => Some((start, len)),
            PartitionNode::Internal { .. } => None,
        })
        .collect();
    let (_, leaf_s) = t.time("leaf_replay", "leaf", parent, || {
        let mut lists = KnnResult::new(points.len(), cfg.k);
        for &(start, len) in &leaves {
            solve_subset_brute(points, tree.leaf_point_ids(start, len), &mut lists);
        }
        black_box(lists)
    });

    let balls = NeighborhoodSystem::from_knn(points, &out.knn)
        .balls()
        .to_vec();
    let (_, march_s) = t.time("march_replay", "march", parent, || {
        for chunk in balls.chunks(MARCH_CHUNK) {
            black_box(march_balls(tree, chunk, usize::MAX));
        }
    });

    let soa = SoaPoints::from_points(points);
    let queries = &points[..KERNEL_QUERIES.min(points.len())];
    let evals = (queries.len() * points.len()) as f64;
    let mut d64 = vec![0.0f64; points.len()];
    let (_, range_s) = t.time("dist_sq_range", "geom", parent, || {
        for q in queries {
            soa.dist_sq_range(q, 0, &mut d64);
            black_box(&d64);
        }
    });
    let mut d32 = vec![0.0f32; points.len()];
    let (_, range32_s) = t.time("dist_sq_f32_range", "geom", parent, || {
        for q in queries {
            soa.dist_sq_f32_range(q, 0, &mut d32);
            black_box(&d32);
        }
    });

    // The sequential reference: the kd-tree k-NN on one thread.
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon shim cannot fail to build a pool");
    let kd_s: Vec<f64> = (0..3)
        .map(|_| {
            t.time("kdtree_all_knn_1t", "baseline", parent, || {
                one.install(|| knn_hash(&kdtree_all_knn(points, cfg.k)))
            })
            .1
        })
        .collect();

    let forced = s.forced_leaves + s.degenerate_splits + s.depth_forced_leaves;
    let max_leaf = leaves.iter().map(|&(_, len)| len).max().unwrap_or(0);
    vec![
        metric("separator.busy_s", stats::median(&search), "s"),
        metric("separator.calls", search_calls as f64, "count"),
        metric(
            "separator.candidates",
            m.separator_candidates as f64,
            "count",
        ),
        metric(
            "separator.accept_ratio",
            ratio(m.separator_accepts, m.separator_candidates),
            "ratio",
        ),
        metric("separator.replay_s", sep_s, "s"),
        metric(
            "separator.replay_us_per_call",
            sep_s * 1e6 / internal.len().max(1) as f64,
            "us",
        ),
        metric("partition.busy_s", stats::median(&partition), "s"),
        metric("tree.height", tree.height() as f64, "count"),
        metric("tree.leaves", leaves.len() as f64, "count"),
        metric("leaf.busy_s", busy("leaf-solve"), "s"),
        metric("leaf.replay_s", leaf_s, "s"),
        metric("leaf.max_points", f64::from(max_leaf), "count"),
        metric("leaf.forced", forced as f64, "count"),
        metric("correction.collect_busy_s", busy("collect-crossing"), "s"),
        metric("correction.fast_busy_s", busy("fast-correction"), "s"),
        metric("correction.crossing", s.total_crossing as f64, "count"),
        metric("correction.fast", s.fast_corrections as f64, "count"),
        metric(
            "correction.dist_evals",
            m.correction_dist_evals as f64,
            "count",
        ),
        metric("march.steps", m.marching_balls as f64, "count"),
        metric("march.pruned", m.march_pruned as f64, "count"),
        metric(
            "march.prune_ratio",
            ratio(m.march_pruned, m.march_pruned + m.marching_balls),
            "ratio",
        ),
        metric("march.replay_s", march_s, "s"),
        metric(
            "punt.count",
            (s.punts_threshold + s.punts_marching) as f64,
            "count",
        ),
        metric("punt.busy_share", stats::median(&punt_share), "ratio"),
        metric("precision.f32_rejects", m.f32_rejects as f64, "count"),
        metric(
            "precision.reject_ratio",
            ratio(m.f32_rejects, m.f32_rejects + m.f64_confirms),
            "ratio",
        ),
        metric(
            "precision.unsafe_margin_hits",
            m.unsafe_margin_hits as f64,
            "count",
        ),
        metric("geom.dist_evals", m.distance_evals as f64, "count"),
        metric("geom.range_ns_per_pt", range_s * 1e9 / evals, "ns"),
        metric("geom.range_f32_ns_per_pt", range32_s * 1e9 / evals, "ns"),
        metric("cost.work", out.cost.work as f64, "count"),
        metric("cost.depth", out.cost.depth as f64, "count"),
        metric("baseline.kdtree_s", stats::median(&kd_s), "s"),
    ]
}

/// Layers below and beside the k-NN: the index build (`sepdc index
/// build`'s steps), the snapshot codec, probe parsing, the serve engine,
/// the sharded write path, and the daemon. `own` carries the counters of
/// the workload's own daemon sessions; without them a short read session
/// against an index of these points is run.
pub fn stack_layers<const D: usize, const E: usize>(
    ctx: &Ctx,
    points: &[Point<D>],
    own: Option<&DaemonCounters>,
    tally: &mut Tally,
    t: &mut Tracer,
    parent: usize,
) -> Vec<Metric> {
    let (knn, kd_s) = t.time("kdtree_all_knn", "index", parent, || {
        kdtree_all_knn(points, K)
    });
    let balls = NeighborhoodSystem::from_knn(points, &knn).balls().to_vec();
    let (tree, build_s) = t.time("query_tree_build", "index", parent, || {
        QueryTree::<D>::try_build::<E>(&balls, QueryTreeConfig::default(), INDEX_SEED)
            .expect("generated balls are finite")
    });
    let (bytes, save_s) = t.time("save_query_tree", "snapshot", parent, || {
        save_query_tree(&tree)
    });
    let (loaded, load_s) = t.time("load_query_tree", "snapshot", parent, || {
        load_query_tree::<D>(&bytes).expect("a fresh snapshot loads")
    });
    let qs = tree.stats();

    let probes = serve::probes::<D>(ctx.seed, LAYER_PROBES);
    let lines: Vec<String> = probes.iter().map(serve::probe_line).collect();
    let (parsed, parse_s) = t.time("parse_points", "io", parent, || {
        lines
            .iter()
            .filter_map(|l| sepdc_cli::io::parse_points::<D>(l).ok())
            .count()
    });
    tally.add(parsed == lines.len());
    let serve_cfg = ServeConfig::default();
    let (served, serve_s) = t.time("try_serve", "serve", parent, || {
        let (mut cost, mut hits) = (0u64, 0u64);
        for chunk in probes.chunks(4096) {
            let out = loaded
                .try_serve(chunk, CoverPredicate::Closed, &serve_cfg)
                .expect("finite probes serve");
            cost += out.stats.cost_total;
            hits += out.stats.hits;
        }
        (cost, hits)
    });

    let scfg = ShardedConfig {
        staging_cap: STAGING,
        tree: QueryTreeConfig::default(),
    };
    let (mut index, _) = t.time("sharded_build", "sharded", parent, || {
        ShardedIndex::<D>::from_balls::<E>(&balls, scfg, INDEX_SEED).expect("finite balls")
    });
    let clone_s: Vec<f64> = (0..5)
        .map(|_| {
            t.time("sharded_clone", "sharded", parent, || index.clone())
                .1
        })
        .collect();
    let fresh = serve::fresh_balls::<D>(ctx.seed, WRITES);
    let (_, insert_s) = t.time("sharded_insert", "sharded", parent, || {
        for b in &fresh {
            index
                .try_insert_batch::<E>(std::slice::from_ref(b))
                .expect("finite ball inserts");
        }
    });
    let victims = serve::distinct_ids(ctx.seed, points.len(), WRITES);
    let (deleted, delete_s) = t.time("sharded_delete", "sharded", parent, || {
        victims
            .iter()
            .filter(|&&id| index.delete_batch(&[id])[0])
            .count()
    });
    tally.add(deleted == victims.len());
    let st = index.stats();

    let daemon = match own {
        Some(c) => *c,
        None => {
            let path = ctx.tmp.join(format!("layers-{D}d.snap"));
            let script = serve::read_script(&loaded, &probes[..DAEMON_PROBES]);
            tally.attempted += script.len() as u64;
            let session = std::fs::write(&path, &bytes)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
                .and_then(|()| serve::run_session(ctx, &path, &script, Some((&mut *t, parent))));
            match session {
                Ok(s) => {
                    tally.failed += s.failed;
                    s.counters
                }
                Err(e) => {
                    eprintln!("daemon session failed: {e}");
                    tally.failed += script.len() as u64;
                    DaemonCounters::default()
                }
            }
        }
    };

    let n_probes = probes.len() as f64;
    vec![
        metric("index.kdtree_s", kd_s, "s"),
        metric("index.build_s", build_s, "s"),
        metric("snapshot.save_s", save_s, "s"),
        metric("snapshot.load_s", load_s, "s"),
        metric("snapshot.bytes", bytes.len() as f64, "bytes"),
        metric("query.height", qs.height as f64, "count"),
        metric("query.leaves", qs.leaves as f64, "count"),
        metric("io.parse_ns_per_req", parse_s * 1e9 / n_probes, "ns"),
        metric("serve.replay_ns_per_probe", serve_s * 1e9 / n_probes, "ns"),
        metric("serve.cost_mean", served.0 as f64 / n_probes, "count"),
        metric("serve.hits_per_probe", served.1 as f64 / n_probes, "count"),
        metric("sharded.clone_us", stats::median(&clone_s) * 1e6, "us"),
        metric("sharded.insert_us", insert_s * 1e6 / WRITES as f64, "us"),
        metric("sharded.delete_us", delete_s * 1e6 / WRITES as f64, "us"),
        metric("sharded.rebuilds", st.rebuilds as f64, "count"),
        metric("sharded.rebuilt_balls", st.rebuilt_balls as f64, "count"),
        metric("sharded.shards", st.shards as f64, "count"),
        metric(
            "sharded.tombstone_ratio",
            ratio(st.dead as u64, (st.dead + st.live) as u64),
            "ratio",
        ),
        metric("daemon.ready_s", daemon.ready_s, "s"),
        metric("daemon.batches", daemon.batches as f64, "count"),
        metric(
            "daemon.probes_per_batch",
            ratio(daemon.probes, daemon.batches),
            "count",
        ),
        metric("daemon.swaps", daemon.swaps as f64, "count"),
    ]
}
