//! # sepdc-core
//!
//! The algorithms of Frieze, Miller & Teng, *Separator Based Parallel
//! Divide and Conquer in Computational Geometry* (SPAA 1992):
//!
//! | Paper | Module |
//! |---|---|
//! | §2 neighborhood systems, Density Lemma | [`neighborhood`] |
//! | §3 neighborhood query structure, Thm 3.1 | [`query`] |
//! | §4 Punting Lemma, probabilistic `(a,b)`-trees | [`punting`] |
//! | §5 Simple Parallel Divide-and-Conquer (`O(log² n)`) | [`simple_parallel`] |
//! | §6 Parallel Nearest Neighborhood (`O(log n)`) | [`parallel`] |
//! | §6.2 Fast Correction / reachability marching | [`partition_tree`], [`correction`] |
//! | Def 1.1 k-NN graph | [`graph`] |
//! | §3 batch serving (read path over [`query`]) | [`serve`] |
//! | persistent index snapshots (save/load) | [`snapshot`] |
//! | batch-dynamic sharding (logarithmic method) | [`sharded`] |
//! | separator divide-and-conquer driver, random sphere split backend | `dc`, [`splitter`] |
//!
//! Baselines and substrates: [`brute`] (the `O(n²)` oracle), [`kdtree`]
//! (the sequential `O(n log n)`-class baseline standing in for Vaidya's
//! algorithm), [`knn`] (result representation shared by all).
//!
//! ## Quick start
//!
//! ```
//! use sepdc_core::{parallel_knn, KnnDcConfig, KnnGraph};
//! use sepdc_workloads::Workload;
//!
//! let points = Workload::UniformCube.generate::<2>(500, 42);
//! let cfg = KnnDcConfig::new(3); // k = 3
//! let out = parallel_knn::<2, 3>(&points, &cfg); // <D, D+1>
//! let graph = KnnGraph::from_knn(&out.knn);
//! assert_eq!(graph.num_vertices(), 500);
//! assert!(out.stats.fast_corrections > 0);
//! ```

#![deny(missing_docs)]

pub mod balltree;
pub mod brute;
pub mod config;
pub mod correction;
mod dc;
pub mod error;
pub mod graph;
pub mod graph_separator;
pub mod kdtree;
pub mod knn;
pub mod neighborhood;
pub mod parallel;
pub mod partition_tree;
pub mod punting;
pub mod query;
pub mod report;
pub mod seeding;
pub mod serve;
pub mod sharded;
mod shared;
pub mod simple_parallel;
pub mod snapshot;
pub mod splitter;
pub mod validate;

pub use brute::{brute_force_knn, try_brute_force_knn};
pub use config::{eps_cover_scale, eps_radius_scale, KnnDcConfig, Precision, ServeConfig};
pub use dc::HALVING_FIRST_BELOW;
pub use error::SepdcError;
pub use graph::KnnGraph;
pub use graph_separator::{sphere_graph_separator, GraphSeparator};
pub use kdtree::{kdtree_all_knn, try_kdtree_all_knn, KdTree};
pub use knn::{ErrorCertificate, KnnResult, Neighbor};
pub use neighborhood::NeighborhoodSystem;
pub use parallel::{parallel_knn, try_parallel_knn, ParallelDcOutput, ParallelDcStats};
pub use partition_tree::{march_balls, MarchOutcome, PartitionNode, PartitionTree};
pub use query::{QueryTree, QueryTreeConfig, QueryTreeStats};
pub use report::{
    DepthRow, Phase, PhaseSample, ReportError, RunRecorder, RunReport, RUN_REPORT_VERSION,
};
pub use serve::{BatchResult, CoverPredicate, ServeOutput, ServeStats};
pub use sharded::{ShardedBatch, ShardedConfig, ShardedIndex, ShardedNeighbor, ShardedStats};
pub use simple_parallel::{
    simple_parallel_knn, try_simple_parallel_knn, SimpleDcOutput, SimpleDcStats,
};
pub use snapshot::{
    load_query_tree, load_sharded_index, save_query_tree, save_sharded_index, SectionInfo,
    SnapshotError, SnapshotInfo, SnapshotKind, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use splitter::{splitter_for, RandomSphere, Splitter, SplitterKind};
pub use validate::{validate_against_oracle, validate_knn, ValidationError};
