//! Pluggable split-decision backends — the [`Splitter`] trait.
//!
//! The recursion engines ([`crate::parallel`], [`crate::query`]) ask a
//! `Splitter` for the cut of every node of at least 2^14 items, so the
//! choice of dividing machinery there is a configuration knob rather than
//! a code path:
//!
//! * [`RandomSphere`] — the paper's engine, verbatim: the seeded retry
//!   loop over unit-time MTTV sphere candidates with the median-cut
//!   fallback. The default.
//! * [`GraphSplitter`] — the `GraphSeparator` backend: a seed-free
//!   BFS/greedy separator over the sparse intersection graph
//!   ([`crate::graph_separator::grid_bfs_separator`]). The build is a pure
//!   function of the point multiset and the configuration.
//!
//! A backend only proposes cuts. The shared driver (`dc.rs`) pairs it
//! with the derandomized halving cut under both: smaller nodes try the
//! halving cut first and the backend second, larger ones the reverse. The
//! second cut is taken when the first has none, or tried once when the
//! first routes every item to one side; then the node is a forced leaf.
//!
//! # Determinism contract
//!
//! `split` must be a pure function of `(points, cfg, seed)` — never of
//! the rayon pool size, wall clock, or any global RNG — because the
//! driver calls it from inside `rayon::join` and promises byte-identical
//! output at every thread count.

use crate::graph_separator::grid_bfs_separator;
use sepdc_geom::point::Point;
use sepdc_separator::{find_good_separator_seeded, FoundSeparator, SearchOutcome, SeparatorConfig};

/// Which split-decision backend drives a build.
///
/// Stored in [`KnnDcConfig`](crate::KnnDcConfig) and
/// [`QueryTreeConfig`](crate::QueryTreeConfig), selected on the CLI via
/// `--splitter {random,graph}`, and recorded in query-tree snapshot
/// metadata.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SplitterKind {
    /// [`RandomSphere`]: the paper's seeded random sphere search.
    #[default]
    Random,
    /// [`GraphSplitter`]: the deterministic BFS/greedy intersection-graph
    /// separator.
    Graph,
}

impl SplitterKind {
    /// The CLI / report name of the backend.
    pub fn name(self) -> &'static str {
        match self {
            SplitterKind::Random => "random",
            SplitterKind::Graph => "graph",
        }
    }

    /// Parse a CLI name (`random`, `graph`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "random" => Some(SplitterKind::Random),
            "graph" => Some(SplitterKind::Graph),
            _ => None,
        }
    }

    /// Stable numeric code for snapshot metadata and config echoes. Code 1
    /// belonged to a retired backend and is rejected on load.
    pub fn code(self) -> u64 {
        match self {
            SplitterKind::Random => 0,
            SplitterKind::Graph => 2,
        }
    }

    /// Inverse of [`Self::code`]; `None` for unknown codes (e.g. a
    /// snapshot written by a newer version).
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(SplitterKind::Random),
            2 => Some(SplitterKind::Graph),
            _ => None,
        }
    }
}

/// A split-decision backend. See the [module docs](self) for the shipped
/// implementations and the determinism contract.
///
/// `D` is the point dimension, `E = D + 1` the lift dimension the MTTV
/// candidate generator works in.
pub trait Splitter<const D: usize, const E: usize>: Send + Sync {
    /// Find a separator that δ-splits `points`, or `None` when the
    /// backend is out of options (the driver then tries the halving cut).
    /// Must be a pure function of `(points, cfg, seed)`.
    fn split(
        &self,
        points: &[Point<D>],
        cfg: &SeparatorConfig,
        seed: u64,
    ) -> Option<FoundSeparator<D>>;
}

/// The paper's engine, extracted unchanged: seeded random sphere search
/// with the median-cut fallback. The default backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomSphere;

impl<const D: usize, const E: usize> Splitter<D, E> for RandomSphere {
    fn split(
        &self,
        points: &[Point<D>],
        cfg: &SeparatorConfig,
        seed: u64,
    ) -> Option<FoundSeparator<D>> {
        find_good_separator_seeded::<D, E>(points, cfg, seed)
    }
}

/// The `GraphSeparator` backend: seed-free BFS/greedy separator over the
/// sparse intersection graph. Builds under this backend are pure
/// functions of the point multiset and configuration — no randomness at
/// all.
#[derive(Clone, Copy, Debug, Default)]
pub struct GraphSplitter;

impl<const D: usize, const E: usize> Splitter<D, E> for GraphSplitter {
    fn split(
        &self,
        points: &[Point<D>],
        cfg: &SeparatorConfig,
        _seed: u64,
    ) -> Option<FoundSeparator<D>> {
        grid_bfs_separator(points, cfg).map(|found| FoundSeparator {
            separator: found.separator,
            counts: found.counts,
            attempts: found.attempts,
            outcome: SearchOutcome::Graph,
        })
    }
}

/// The backend for a [`SplitterKind`], as a shared static — the engines
/// resolve this once per build and thread it through the recursion.
pub fn splitter_for<const D: usize, const E: usize>(
    kind: SplitterKind,
) -> &'static dyn Splitter<D, E> {
    match kind {
        SplitterKind::Random => &RandomSphere,
        SplitterKind::Graph => &GraphSplitter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepdc_workloads::degenerate::all_coincident;
    use sepdc_workloads::Workload;

    const KINDS: [SplitterKind; 2] = [SplitterKind::Random, SplitterKind::Graph];

    #[test]
    fn kind_name_parse_code_round_trip() {
        for kind in KINDS {
            assert_eq!(SplitterKind::parse(kind.name()), Some(kind));
            assert_eq!(SplitterKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(SplitterKind::parse("kdtree"), None);
        assert_eq!(SplitterKind::parse("halving"), None);
        assert_eq!(SplitterKind::from_code(1), None);
        assert_eq!(SplitterKind::from_code(99), None);
        assert_eq!(SplitterKind::default(), SplitterKind::Random);
    }

    #[test]
    fn random_backend_matches_raw_search() {
        let pts = Workload::UniformCube.generate::<2>(3000, 1);
        let cfg = SeparatorConfig::default();
        let a = Splitter::<2, 3>::split(&RandomSphere, &pts, &cfg, 42).unwrap();
        let b = find_good_separator_seeded::<2, 3>(&pts, &cfg, 42).unwrap();
        assert_eq!(a.separator, b.separator);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.outcome, b.outcome);
    }

    #[test]
    fn every_backend_splits_uniform_points() {
        let pts = Workload::UniformCube.generate::<2>(2000, 2);
        let cfg = SeparatorConfig::default();
        for kind in KINDS {
            let found = splitter_for::<2, 3>(kind)
                .split(&pts, &cfg, 7)
                .unwrap_or_else(|| panic!("backend {} failed on uniform points", kind.name()));
            assert!(found.counts.left() > 0 && found.counts.right() > 0);
        }
    }

    #[test]
    fn no_backend_splits_coincident_points() {
        let pts = all_coincident::<2>(100, 1.5);
        let cfg = SeparatorConfig {
            max_attempts: 2,
            ..Default::default()
        };
        for kind in KINDS {
            assert!(
                splitter_for::<2, 3>(kind).split(&pts, &cfg, 3).is_none(),
                "backend {} invented a split of identical points",
                kind.name()
            );
        }
    }

    #[test]
    fn graph_backend_is_seed_oblivious() {
        let pts = Workload::Clusters.generate::<2>(1200, 5);
        let cfg = SeparatorConfig::default();
        let sp = splitter_for::<2, 3>(SplitterKind::Graph);
        let a = sp.split(&pts, &cfg, 1).unwrap();
        let b = sp.split(&pts, &cfg, 0xDEAD_BEEF).unwrap();
        assert_eq!(a.separator, b.separator);
        assert_eq!(a.counts, b.counts);
    }
}
