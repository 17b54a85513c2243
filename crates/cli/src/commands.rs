//! Command implementations, free of files (strings in; strings, or rows
//! streamed into any writer, out) so they are directly testable; the
//! binary handles files and process exit codes.

use crate::io::{format_points, parse_points, push_hit_row, sniff_dimension, write_edges};
use crate::CliResult;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sepdc_core::serve::{CoverPredicate, ServeConfig};
use sepdc_core::snapshot::{self, SnapshotKind};
use sepdc_core::{
    kdtree_all_knn, try_brute_force_knn, try_kdtree_all_knn, try_parallel_knn,
    try_simple_parallel_knn, KnnDcConfig, KnnGraph, KnnResult, NeighborhoodSystem, Precision,
    QueryTree, QueryTreeConfig, RunReport, SepdcError, ShardedConfig, ShardedIndex, SplitterKind,
};
use sepdc_separator::{find_good_separator, SeparatorConfig};
use sepdc_workloads::Workload;
use std::io::Write;

/// Supported dimensions (the paper treats `d` as a fixed constant; the
/// binary monomorphizes these).
pub const SUPPORTED_DIMS: std::ops::RangeInclusive<usize> = 1..=5;

/// Dispatch a dimension-generic operation over the supported dimensions.
macro_rules! with_dim {
    ($dim:expr, $f:ident ( $($arg:expr),* )) => {
        match $dim {
            1 => $f::<1, 2>($($arg),*),
            2 => $f::<2, 3>($($arg),*),
            3 => $f::<3, 4>($($arg),*),
            4 => $f::<4, 5>($($arg),*),
            5 => $f::<5, 6>($($arg),*),
            d => Err(format!("unsupported dimension {d} (supported: 1..=5)")),
        }
    };
}

fn workload_by_name(name: &str) -> CliResult<Workload> {
    Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!(
                "unknown workload '{name}' (available: {})",
                names.join(", ")
            )
        })
}

/// `generate`: emit a workload point set as CSV.
pub fn generate(workload: &str, n: usize, dim: usize, seed: u64) -> CliResult<String> {
    let w = workload_by_name(workload)?;
    fn run<const D: usize, const E: usize>(w: Workload, n: usize, seed: u64) -> CliResult<String> {
        Ok(format_points(&w.generate::<D>(n, seed)))
    }
    with_dim!(dim, run(w, n, seed))
}

/// Streams a k-NN graph's edges as CSV into a writer.
type EdgeWriter = Box<dyn Fn(&mut dyn Write) -> std::io::Result<()>>;

/// Output of the `knn` command.
pub struct KnnCommandOutput {
    /// Human-readable run summary.
    pub summary: String,
    /// Serialized [`RunReport`] for the run, when the chosen algorithm
    /// produces one (`parallel` and `simple`; `kdtree` and `brute` have no
    /// instrumented recursion and yield `None`).
    pub report_json: Option<String>,
    /// The graph and its points, behind [`KnnCommandOutput::write_edges`].
    edges: EdgeWriter,
}

impl KnnCommandOutput {
    /// Stream the undirected k-NN graph as CSV into `w`: a `# source,
    /// target,distance` header, then one `a,b,distance` row per edge
    /// (`a < b`, ascending). Nothing is formatted unless this is called.
    pub fn write_edges(&self, w: &mut dyn Write) -> std::io::Result<()> {
        (self.edges)(w)
    }
}

impl std::fmt::Debug for KnnCommandOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnnCommandOutput")
            .field("summary", &self.summary)
            .field("report_json", &self.report_json)
            .finish_non_exhaustive()
    }
}

/// `knn`: compute the k-NN graph of a point file with a chosen algorithm.
///
/// `epsilon > 0` opts into `(1+ε)`-approximate correction for the `parallel`/`simple` algorithms; the exact
/// run is then computed alongside and the *measured* error certificate is
/// appended to the report (`certificate.*` counters) and the summary.
pub fn knn(
    input: &str,
    dim_flag: Option<usize>,
    k: usize,
    algo: &str,
    seed: u64,
    epsilon: f64,
) -> CliResult<KnnCommandOutput> {
    let dim = resolve_dim(input, dim_flag)?;
    fn run<const D: usize, const E: usize>(
        input: &str,
        k: usize,
        algo: &str,
        seed: u64,
        epsilon: f64,
    ) -> CliResult<KnnCommandOutput> {
        let points = parse_points::<D>(input)?;
        if points.is_empty() {
            // The algorithms accept n = 0 (empty result), but an empty
            // point file at the CLI boundary is a user mistake.
            return Err(SepdcError::EmptyInput.to_string());
        }
        if epsilon > 0.0 && !matches!(algo, "parallel" | "simple") {
            return Err(format!(
                "--epsilon requires the parallel or simple algorithm (got '{algo}')"
            ));
        }
        let cfg = KnnDcConfig::new(k).with_seed(seed).with_epsilon(epsilon);
        let t0 = std::time::Instant::now();
        // Appends the measured ε error certificate (vs a fresh exact run)
        // to the summary and report of an approximate run.
        let certify = |knn: &KnnResult,
                       exact: Result<KnnResult, SepdcError>,
                       extra: &mut String,
                       report: &mut RunReport|
         -> Result<(), SepdcError> {
            let cert = knn.error_certificate(&exact?);
            extra.push_str(&format!(
                ", ε-certificate: max rel err {:.3e} (mean {:.3e}, {} of {} ranks differ)",
                cert.max_rel_error,
                cert.mean_rel_error(),
                cert.mismatched_entries,
                cert.compared_entries,
            ));
            report.counters.extend(cert.counters());
            Ok(())
        };
        // All algorithms run through their `try_*` variants: NaN-poisoned
        // files, `k = 0`, and any other invalid input surface as the typed
        // error's message instead of a panic.
        let run: Result<(KnnResult, String, Option<String>), SepdcError> = match algo {
            "parallel" => try_parallel_knn::<D, E>(&points, &cfg).and_then(|out| {
                // Every fallback path is surfaced here: silent forced
                // leaves or degenerate splits are exactly the conditions
                // that erode the separator guarantees, so hiding them from
                // the summary would mask a degraded run.
                let mut extra = format!(
                    ", depth {} rounds, {} fast / {} punts ({} threshold, {} marching), \
                     {} forced leaves ({} degenerate splits, {} depth-capped), \
                     {} march steps ({} pruned), {} correction dist evals",
                    out.cost.depth,
                    out.stats.fast_corrections,
                    out.stats.punts_threshold + out.stats.punts_marching,
                    out.stats.punts_threshold,
                    out.stats.punts_marching,
                    out.stats.forced_leaves,
                    out.stats.degenerate_splits,
                    out.stats.depth_forced_leaves,
                    out.meter.marching_balls,
                    out.meter.march_pruned,
                    out.meter.correction_dist_evals,
                );
                let mut report = out.report;
                if epsilon > 0.0 {
                    let exact =
                        try_parallel_knn::<D, E>(&points, &cfg.with_epsilon(0.0)).map(|o| o.knn);
                    certify(&out.knn, exact, &mut extra, &mut report)?;
                }
                Ok((out.knn, extra, Some(report.to_json())))
            }),
            "simple" => try_simple_parallel_knn::<D, E>(&points, &cfg).and_then(|out| {
                let mut extra = format!(
                    ", depth {} rounds, {} forced leaves ({} degenerate splits, {} depth-capped)",
                    out.cost.depth,
                    out.stats.forced_leaves,
                    out.stats.degenerate_splits,
                    out.stats.depth_forced_leaves,
                );
                let mut report = out.report;
                if epsilon > 0.0 {
                    let exact = try_simple_parallel_knn::<D, E>(&points, &cfg.with_epsilon(0.0))
                        .map(|o| o.knn);
                    certify(&out.knn, exact, &mut extra, &mut report)?;
                }
                Ok((out.knn, extra, Some(report.to_json())))
            }),
            "kdtree" => try_kdtree_all_knn(&points, k).map(|r| (r, String::new(), None)),
            "brute" => try_brute_force_knn(&points, k).map(|r| (r, String::new(), None)),
            other => {
                return Err(format!(
                    "unknown algorithm '{other}' (parallel, simple, kdtree, brute)"
                ))
            }
        };
        let (result, extra, report_json) = run.map_err(|e| e.to_string())?;
        let elapsed = t0.elapsed();
        let graph = KnnGraph::from_knn(&result);
        let summary = format!(
            "{} points (d={D}), k={k}, algo={algo}: {} edges, max degree {}, {} component(s), {elapsed:.2?}{extra}",
            points.len(),
            graph.num_edges(),
            graph.max_degree(),
            graph.connected_components(),
        );
        Ok(KnnCommandOutput {
            summary,
            report_json,
            edges: Box::new(move |w| {
                let edge =
                    |&(a, b): &(u32, u32)| (a, b, points[a as usize].dist(&points[b as usize]));
                write_edges(w, graph.edges().iter().map(edge))
            }),
        })
    }
    with_dim!(dim, run(input, k, algo, seed, epsilon))
}

/// Output of the `query` command.
#[derive(Debug)]
pub struct QueryCommandOutput {
    /// Hit lists CSV: `probe,count,ball_ids` (ids space-separated).
    pub hits_csv: String,
    /// Human-readable serving summary (throughput, cost, tree shape).
    pub summary: String,
    /// Serialized [`RunReport`] of the serve run (`algo = "query-serve"`).
    pub report_json: String,
}

/// `query`: build the §3 search structure over a point file's k-NN
/// neighborhood system, then serve a probe batch against it through the
/// [`sepdc_core::serve`] engine.
///
/// Probes come either from a probe file (`probes_text`, same format and
/// dimension as the input) or from a generated workload
/// (`probe_workload` × `probe_n`, seeded off the main seed so probes are
/// off-sample but reproducible).
#[allow(clippy::too_many_arguments)]
pub fn query(
    input: &str,
    dim_flag: Option<usize>,
    k: usize,
    probes_text: Option<&str>,
    probe_workload: &str,
    probe_n: usize,
    interior: bool,
    seed: u64,
    chunk: usize,
    epsilon: f64,
) -> CliResult<QueryCommandOutput> {
    let dim = resolve_dim(input, dim_flag)?;
    let probe_w = workload_by_name(probe_workload)?;
    #[allow(clippy::too_many_arguments)]
    fn run<const D: usize, const E: usize>(
        input: &str,
        k: usize,
        probes_text: Option<&str>,
        probe_w: Workload,
        probe_n: usize,
        interior: bool,
        seed: u64,
        chunk: usize,
        epsilon: f64,
    ) -> CliResult<QueryCommandOutput> {
        let points = parse_points::<D>(input)?;
        if points.is_empty() {
            return Err(SepdcError::EmptyInput.to_string());
        }
        let probes = match probes_text {
            Some(text) => parse_points::<D>(text)?,
            None => probe_w.generate::<D>(probe_n, seed ^ 0x5EED_BA7C),
        };
        let t_build = std::time::Instant::now();
        let knn = try_kdtree_all_knn(&points, k).map_err(|e| e.to_string())?;
        let system = NeighborhoodSystem::from_knn(&points, &knn);
        let tree = QueryTree::try_build::<E>(system.balls(), QueryTreeConfig::default(), seed)
            .map_err(|e| e.to_string())?;
        let build_s = t_build.elapsed().as_secs_f64();
        let pred = if interior {
            CoverPredicate::Open
        } else {
            CoverPredicate::Closed
        };
        let cfg = ServeConfig {
            chunk_size: chunk,
            record: true,
            epsilon,
            ..ServeConfig::default()
        };
        let out = tree
            .try_serve(&probes, pred, &cfg)
            .map_err(|e| e.to_string())?;
        let serve_s = out.report.wall_ms / 1e3;
        let mut hits_csv = b"# probe,count,ball_ids\n".to_vec();
        for (i, hits) in out.result.iter().enumerate() {
            push_hit_row(&mut hits_csv, i as u64, hits);
        }
        let hits_csv = String::from_utf8(hits_csv).expect("hit rows are ASCII");
        let stats = tree.stats();
        let summary = format!(
            "{} balls (d={D}, k={k}), tree height {} / {} leaves, built in {:.1} ms; \
             served {} probes ({} predicate) in {:.2} ms: {} hits, \
             {:.0} probes/s, query cost mean {:.1} max {}",
            tree.len(),
            stats.height,
            stats.leaves,
            build_s * 1e3,
            out.stats.probes,
            pred.name(),
            serve_s * 1e3,
            out.stats.hits,
            out.stats.probes as f64 / serve_s.max(1e-9),
            out.stats.mean_cost(),
            out.stats.cost_max,
        );
        Ok(QueryCommandOutput {
            hits_csv,
            summary,
            report_json: out.report.to_json(),
        })
    }
    with_dim!(
        dim,
        run(
            input,
            k,
            probes_text,
            probe_w,
            probe_n,
            interior,
            seed,
            chunk,
            epsilon
        )
    )
}

/// Output of the `index build` command.
#[derive(Debug)]
pub struct IndexBuildOutput {
    /// Serialized snapshot bytes (the `.snap` file contents).
    pub snapshot: Vec<u8>,
    /// Human-readable build summary.
    pub summary: String,
}

/// `index build`: build the §3 query structure over a point file's k-NN
/// neighborhood system and serialize it as a versioned snapshot.
///
/// Runs the exact pipeline the `query` command runs (kd-tree k-NN →
/// neighborhood system → `QueryTree` with the default config and the
/// given seed), so a daemon serving the snapshot answers byte-identically
/// to `sepdc query` over the same inputs.
///
/// `sharded: Some(staging_cap)` freezes a batch-dynamic
/// [`ShardedIndex`] (snapshot kind 3) instead: same balls, same global
/// ids (the input row order), but the served daemon additionally accepts
/// `insert`/`delete` lines.
#[allow(clippy::too_many_arguments)]
pub fn index_build(
    input: &str,
    dim_flag: Option<usize>,
    k: usize,
    seed: u64,
    sharded: Option<usize>,
    // Both ignored; kept only because the repository benchmark passes them.
    _splitter: SplitterKind,
    _precision: Precision,
    epsilon: f64,
) -> CliResult<IndexBuildOutput> {
    let dim = resolve_dim(input, dim_flag)?;
    fn run<const D: usize, const E: usize>(
        input: &str,
        k: usize,
        seed: u64,
        sharded: Option<usize>,
        epsilon: f64,
    ) -> CliResult<IndexBuildOutput> {
        let points = parse_points::<D>(input)?;
        if points.is_empty() {
            return Err(SepdcError::EmptyInput.to_string());
        }
        // ε rides in the snapshot META (word 16), so a daemon loading
        // this index serves with the same relaxation.
        let tree_cfg = QueryTreeConfig {
            epsilon,
            ..QueryTreeConfig::default()
        };
        let t0 = std::time::Instant::now();
        let knn = try_kdtree_all_knn(&points, k).map_err(|e| e.to_string())?;
        let system = NeighborhoodSystem::from_knn(&points, &knn);
        if let Some(staging_cap) = sharded {
            let cfg = ShardedConfig {
                staging_cap,
                tree: tree_cfg,
            };
            let index = ShardedIndex::from_balls::<E>(system.balls(), cfg, seed)
                .map_err(|e| e.to_string())?;
            let build_ms = t0.elapsed().as_secs_f64() * 1e3;
            let snapshot = snapshot::save_sharded_index(&index);
            let s = index.stats();
            let summary = format!(
                "sharded-indexed {} balls (d={D}, k={k}, seed {seed}, staging {staging_cap}) \
                 in {build_ms:.1} ms: {} shards / {} slots, {} staged, snapshot {} bytes",
                s.live,
                s.shards,
                s.slots,
                s.staged,
                snapshot.len(),
            );
            return Ok(IndexBuildOutput { snapshot, summary });
        }
        let tree =
            QueryTree::try_build::<E>(system.balls(), tree_cfg, seed).map_err(|e| e.to_string())?;
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let snapshot = snapshot::save_query_tree(&tree);
        let stats = tree.stats();
        let summary = format!(
            "indexed {} balls (d={D}, k={k}, seed {seed}) in {build_ms:.1} ms: \
             height {}, {} leaves, snapshot {} bytes",
            tree.len(),
            stats.height,
            stats.leaves,
            snapshot.len(),
        );
        Ok(IndexBuildOutput { snapshot, summary })
    }
    with_dim!(dim, run(input, k, seed, sharded, epsilon))
}

/// `index inspect`: print a snapshot's header and section table, then
/// deep-validate it by reconstructing the stored structure. Corrupt
/// files surface their typed [`sepdc_core::snapshot::SnapshotError`]
/// message instead of partial output.
pub fn index_inspect(bytes: &[u8]) -> CliResult<String> {
    let info = snapshot::inspect(bytes).map_err(|e| e.to_string())?;
    let mut out = format!(
        "snapshot: {} v{} (dim {}, {} bytes)\nsections:\n",
        info.kind.name(),
        info.version,
        info.dim,
        info.total_len,
    );
    for s in &info.sections {
        out.push_str(&format!(
            "  {:4}  offset {:>10}  len {:>10}  fnv1a64 {:016x}\n",
            s.tag, s.offset, s.len, s.checksum
        ));
    }
    let detail = match info.kind {
        SnapshotKind::QueryTree => {
            fn load<const D: usize, const E: usize>(bytes: &[u8]) -> CliResult<String> {
                let t0 = std::time::Instant::now();
                let tree = snapshot::load_query_tree::<D>(bytes).map_err(|e| e.to_string())?;
                let s = tree.stats();
                Ok(format!(
                    "query-tree: {} balls, height {}, {} leaves, {} internals, \
                     {} stored refs, seed {} (ε = {}); \
                     loaded + validated in {:.1} ms\n",
                    tree.len(),
                    s.height,
                    s.leaves,
                    s.internals,
                    s.stored_balls,
                    tree.run_report().seed,
                    tree.epsilon(),
                    t0.elapsed().as_secs_f64() * 1e3,
                ))
            }
            with_dim!(info.dim as usize, load(bytes))?
        }
        SnapshotKind::ShardedIndex => {
            fn load<const D: usize, const E: usize>(bytes: &[u8]) -> CliResult<String> {
                let t0 = std::time::Instant::now();
                let index = snapshot::load_sharded_index::<D>(bytes).map_err(|e| e.to_string())?;
                let s = index.stats();
                let mut detail = format!(
                    "sharded-index: {} live balls ({} dead, {} staged) in {} shards / {} slots, \
                     seed {}, next id {}, {} rebuilds; loaded + validated in {:.1} ms\n",
                    s.live,
                    s.dead,
                    s.staged,
                    s.shards,
                    s.slots,
                    index.seed(),
                    s.next_id,
                    s.rebuilds,
                    t0.elapsed().as_secs_f64() * 1e3,
                );
                for (slot, live, total) in index.shard_sizes() {
                    detail.push_str(&format!("  slot {slot:>2}: {live} live / {total} stored\n"));
                }
                Ok(detail)
            }
            with_dim!(info.dim as usize, load(bytes))?
        }
    };
    out.push_str(&detail);
    Ok(out)
}

/// `report`: pretty-print a previously saved run report (`sepdc knn
/// --report out.json` output, or the per-case reports embedded in the
/// benchmark JSON). Schema-version mismatches and malformed JSON surface
/// as errors rather than partial output.
pub fn report(text: &str) -> CliResult<String> {
    RunReport::from_json(text)
        .map(|r| r.render_human())
        .map_err(|e| e.to_string())
}

/// `separator`: draw a good separator for a point file and report its
/// quality against the exact k-neighborhood system.
pub fn separator(input: &str, dim_flag: Option<usize>, k: usize, seed: u64) -> CliResult<String> {
    let dim = resolve_dim(input, dim_flag)?;
    fn run<const D: usize, const E: usize>(input: &str, k: usize, seed: u64) -> CliResult<String> {
        let points = parse_points::<D>(input)?;
        if points.len() <= k {
            return Err(format!("need more than k = {k} points"));
        }
        let cfg = SeparatorConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let found = find_good_separator::<D, E, _>(&points, &cfg, &mut rng)
            .ok_or("point set cannot be split (all points identical?)")?;
        let knn = kdtree_all_knn(&points, k);
        let system = NeighborhoodSystem::from_knn(&points, &knn);
        let iota = system.intersection_number(&found.separator);
        Ok(format!(
            "separator found in {} attempt(s) ({:?}): split {} / {} (ratio {:.3} ≤ δ = {:.3}), \
             ι_B(S) = {iota} of {} balls ({:.1}% crossing; O(n^{:.2}) scale = {:.0})",
            found.attempts,
            found.outcome,
            found.counts.left(),
            found.counts.right(),
            found.counts.ratio(),
            cfg.delta(D),
            points.len(),
            100.0 * iota as f64 / points.len() as f64,
            (D as f64 - 1.0) / D as f64,
            (points.len() as f64).powf((D as f64 - 1.0) / D as f64),
        ))
    }
    with_dim!(dim, run(input, k, seed))
}

/// `figure`: render a 2D point file's neighborhood system + separator as
/// SVG (the paper's Figure 1 for your own data).
pub fn figure(input: &str, k: usize, seed: u64) -> CliResult<String> {
    let points = parse_points::<2>(input)?;
    if points.len() <= k {
        return Err(format!("need more than k = {k} points"));
    }
    let cfg = SeparatorConfig::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let found = find_good_separator::<2, 3, _>(&points, &cfg, &mut rng)
        .ok_or("point set cannot be split")?;
    let knn = kdtree_all_knn(&points, k);
    let system = NeighborhoodSystem::from_knn(&points, &knn);
    Ok(sepdc_viz::scene::draw_figure1(
        system.balls(),
        &found.separator,
        640.0,
    ))
}

fn resolve_dim(input: &str, dim_flag: Option<usize>) -> CliResult<usize> {
    match dim_flag {
        Some(d) => Ok(d),
        None => sniff_dimension(input).ok_or("empty input; cannot infer dimension".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges_csv(out: &KnnCommandOutput) -> String {
        let mut csv = Vec::new();
        out.write_edges(&mut csv).unwrap();
        String::from_utf8(csv).unwrap()
    }

    #[test]
    fn generate_then_knn_roundtrip() {
        let pts = generate("uniform-cube", 200, 2, 7).unwrap();
        let out = knn(&pts, None, 2, "parallel", 1, 0.0).unwrap();
        assert!(out.summary.contains("200 points (d=2)"));
        assert!(edges_csv(&out).lines().count() > 200);
        // Same input through the oracle gives the same edges.
        let oracle = knn(&pts, Some(2), 2, "brute", 1, 0.0).unwrap();
        assert_eq!(edges_csv(&out), edges_csv(&oracle));
    }

    #[test]
    fn all_algorithms_agree_via_cli() {
        let pts = generate("clusters", 150, 3, 3).unwrap();
        let mut counts = Vec::new();
        for algo in ["parallel", "simple", "kdtree", "brute"] {
            let out = knn(&pts, None, 1, algo, 5, 0.0).unwrap();
            counts.push(edges_csv(&out).lines().count());
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn dimension_sniffing() {
        let pts = generate("uniform-cube", 50, 4, 1).unwrap();
        let out = knn(&pts, None, 1, "kdtree", 1, 0.0).unwrap();
        assert!(out.summary.contains("(d=4)"));
    }

    #[test]
    fn unknown_workload_and_algo() {
        assert!(generate("nope", 10, 2, 1)
            .unwrap_err()
            .contains("available"));
        let pts = generate("grid", 30, 2, 1).unwrap();
        assert!(knn(&pts, None, 1, "nope", 1, 0.0).is_err());
    }

    #[test]
    fn unsupported_dimension() {
        assert!(generate("uniform-cube", 10, 9, 1)
            .unwrap_err()
            .contains("unsupported dimension"));
    }

    #[test]
    fn separator_report() {
        let pts = generate("uniform-cube", 500, 2, 2).unwrap();
        let report = separator(&pts, None, 1, 3).unwrap();
        assert!(report.contains("split"), "{report}");
        assert!(report.contains("ι_B(S)"), "{report}");
    }

    #[test]
    fn figure_is_svg() {
        let pts = generate("clusters", 120, 2, 4).unwrap();
        let svg = figure(&pts, 1, 5).unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("Figure 1"));
    }

    #[test]
    fn knn_summary_surfaces_fallback_counters() {
        // Satellite fix: degenerate splits, depth-capped leaves, and punt
        // counters used to be computed and then dropped on the floor.
        let pts = generate("uniform-cube", 400, 2, 9).unwrap();
        let out = knn(&pts, None, 2, "parallel", 3, 0.0).unwrap();
        for needle in [
            "fast",
            "punts",
            "threshold",
            "marching",
            "forced leaves",
            "degenerate splits",
            "depth-capped",
            "march steps",
            "pruned",
            "correction dist evals",
        ] {
            assert!(out.summary.contains(needle), "{}", out.summary);
        }
        let simple = knn(&pts, None, 2, "simple", 3, 0.0).unwrap();
        for needle in ["forced leaves", "degenerate splits", "depth-capped"] {
            assert!(simple.summary.contains(needle), "{}", simple.summary);
        }
        // The brute/kdtree paths have no instrumented recursion.
        assert!(knn(&pts, None, 2, "brute", 3, 0.0)
            .unwrap()
            .report_json
            .is_none());
        assert!(knn(&pts, None, 2, "kdtree", 3, 0.0)
            .unwrap()
            .report_json
            .is_none());
    }

    #[test]
    fn knn_report_json_is_a_valid_run_report() {
        let pts = generate("clusters", 300, 3, 2).unwrap();
        for (algo, name) in [("parallel", "parallel"), ("simple", "simple")] {
            let out = knn(&pts, None, 2, algo, 7, 0.0).unwrap();
            let json = out.report_json.as_deref().expect(algo);
            let rep = RunReport::from_json(json).unwrap();
            assert_eq!(rep.algo, name);
            assert_eq!(rep.n, 300);
            assert_eq!(rep.k, 2);
            assert!(rep.wall_ms > 0.0, "{algo}: wall time must be stamped");
            assert!(!rep.phases.is_empty(), "{algo}: recording is on by default");
            assert!(rep.counter("stats.base_leaves").unwrap() >= 1.0);
        }
    }

    #[test]
    fn query_serves_probes_and_reports() {
        let pts = generate("uniform-cube", 300, 2, 11).unwrap();
        let out = query(&pts, None, 2, None, "uniform-cube", 100, false, 11, 32, 0.0).unwrap();
        assert!(out.summary.contains("served 100 probes"), "{}", out.summary);
        assert!(out.summary.contains("closed predicate"), "{}", out.summary);
        // Header + one row per probe.
        assert_eq!(out.hits_csv.lines().count(), 101);
        let rep = RunReport::from_json(&out.report_json).unwrap();
        assert_eq!(rep.algo, "query-serve");
        assert_eq!(rep.counter("serve.probes").unwrap(), 100.0);
        assert!(rep.counter("serve.chunks").unwrap() >= 1.0);
    }

    #[test]
    fn query_hits_match_pointwise_interior() {
        let pts_csv = generate("clusters", 200, 2, 5).unwrap();
        let probes_csv = generate("uniform-cube", 60, 2, 6).unwrap();
        let out = query(
            &pts_csv,
            None,
            1,
            Some(&probes_csv),
            "grid",
            0,
            true,
            5,
            7,
            0.0,
        )
        .unwrap();
        assert!(out.summary.contains("open predicate"), "{}", out.summary);
        // Rebuild the same structures directly; every CSV row must equal
        // the pointwise interior query.
        let points = parse_points::<2>(&pts_csv).unwrap();
        let probes = parse_points::<2>(&probes_csv).unwrap();
        let knn = try_kdtree_all_knn(&points, 1).unwrap();
        let system = NeighborhoodSystem::from_knn(&points, &knn);
        let tree =
            QueryTree::try_build::<3>(system.balls(), QueryTreeConfig::default(), 5).unwrap();
        let rows: Vec<&str> = out.hits_csv.lines().skip(1).collect();
        assert_eq!(rows.len(), probes.len());
        for (i, row) in rows.iter().enumerate() {
            let mut parts = row.splitn(3, ',');
            assert_eq!(parts.next().unwrap().parse::<usize>().unwrap(), i);
            let count: usize = parts.next().unwrap().parse().unwrap();
            let ids: Vec<u32> = parts
                .next()
                .unwrap()
                .split_whitespace()
                .map(|s| s.parse().unwrap())
                .collect();
            assert_eq!(ids.len(), count);
            assert_eq!(ids, tree.covering_interior(&probes[i]), "probe {i}");
        }
    }

    #[test]
    fn query_rejects_bad_probe_files_and_config() {
        let pts = generate("grid", 50, 2, 1).unwrap();
        // Non-finite probe coordinates are rejected with the line number.
        let err = query(
            &pts,
            None,
            1,
            Some("0.5,0.5\nnan,0.2\n"),
            "uniform-cube",
            0,
            false,
            1,
            8,
            0.0,
        )
        .unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // A zero chunk size is a typed config error from the serve engine.
        let err = query(&pts, None, 1, None, "uniform-cube", 10, false, 1, 0, 0.0).unwrap_err();
        assert!(err.contains("serve.chunk_size"), "{err}");
    }

    #[test]
    fn report_pretty_printer_round_trip() {
        let pts = generate("uniform-cube", 250, 2, 4).unwrap();
        let out = knn(&pts, None, 1, "parallel", 6, 0.0).unwrap();
        let rendered = report(out.report_json.as_deref().unwrap()).unwrap();
        assert!(rendered.contains("run report v1"), "{rendered}");
        assert!(rendered.contains("phase timings"), "{rendered}");
        assert!(rendered.contains("per-depth histogram"), "{rendered}");
        // Bad inputs are typed errors, not partial output.
        assert!(report("not json").unwrap_err().contains("parse"));
        let err = report("{\"run_report_version\": 99}").unwrap_err();
        assert!(err.contains("99"), "{err}");
    }

    #[test]
    fn knn_rejects_zero_k_and_empty() {
        let pts = generate("grid", 20, 2, 1).unwrap();
        // `k = 0` and empty inputs map to the typed SepdcError messages.
        for algo in ["parallel", "simple", "kdtree", "brute"] {
            let err = knn(&pts, None, 0, algo, 1, 0.0).unwrap_err();
            assert!(err.contains("invalid k = 0"), "{algo}: {err}");
        }
        let err = knn("", Some(2), 1, "brute", 1, 0.0).unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn knn_epsilon_certifies() {
        let pts = generate("uniform-cube", 300, 2, 13).unwrap();
        // ε > 0 runs the exact algorithm alongside and reports a measured
        // certificate in the summary and the report counters.
        let eps = knn(&pts, None, 2, "parallel", 3, 0.25).unwrap();
        assert!(eps.summary.contains("ε-certificate"), "{}", eps.summary);
        let rep = RunReport::from_json(eps.report_json.as_deref().unwrap()).unwrap();
        let max_err = rep.counter("certificate.max_rel_error").unwrap();
        assert!((0.0..=0.25).contains(&max_err), "max rel err {max_err}");
        assert_eq!(rep.counter("epsilon"), None, "epsilon echoes in config");
        assert!(rep.config.iter().any(|(n, v)| n == "epsilon" && *v == 0.25));
        // ε is a correction-path knob: algorithms without one reject it.
        let err = knn(&pts, None, 2, "kdtree", 3, 0.1).unwrap_err();
        assert!(err.contains("--epsilon requires"), "{err}");
    }

    #[test]
    fn query_epsilon_serves_relaxed_predicate() {
        let pts = generate("uniform-cube", 250, 2, 17).unwrap();
        let serve =
            |eps: f64| query(&pts, None, 2, None, "uniform-cube", 80, false, 7, 64, eps).unwrap();
        let exact = serve(0.0);
        let relaxed = serve(0.5);
        let rep = RunReport::from_json(&relaxed.report_json).unwrap();
        assert!(rep.config.iter().any(|(n, v)| n == "epsilon" && *v == 0.5));
        let skips = rep.counter("precision.eps_skips").unwrap();
        let exact_rep = RunReport::from_json(&exact.report_json).unwrap();
        let dropped = exact_rep.counter("serve.hits").unwrap() - rep.counter("serve.hits").unwrap();
        assert_eq!(skips, dropped, "every dropped hit is counted");
        assert!(exact_rep.counter("precision.eps_skips").unwrap() == 0.0);
    }

    #[test]
    fn knn_rejects_non_finite_coordinates() {
        // NaN/inf coordinates are stopped at parse time with a line number,
        // so the algorithms only ever see finite points from the CLI.
        for poisoned in ["0.5,0.5\nNaN,0.25\n", "0.5,0.5\n0.25,inf\n"] {
            let err = knn(poisoned, None, 1, "parallel", 1, 0.0).unwrap_err();
            assert!(err.contains("non-finite"), "{err}");
            assert!(err.contains("line 2"), "{err}");
        }
    }
}
