//! The split-decision backend — the [`Splitter`] trait.
//!
//! The recursion engines ([`crate::parallel`], [`crate::query`]) ask a
//! `Splitter` for the cut of every node of at least 2^14 items. The one
//! shipped backend is [`RandomSphere`], the paper's engine verbatim: the
//! seeded retry loop over unit-time MTTV sphere candidates with the
//! median-cut fallback. The driver's tests substitute fakes through the
//! trait.
//!
//! A backend only proposes cuts. The shared driver (`dc.rs`) pairs it
//! with the derandomized halving cut: smaller nodes try the halving cut
//! first and the backend second, larger ones the reverse. The second cut
//! is taken when the first has none, or tried once when the first routes
//! every item to one side; then the node is a forced leaf.
//!
//! # Determinism contract
//!
//! `split` must be a pure function of `(points, cfg, seed)` — never of
//! the rayon pool size, wall clock, or any global RNG — because the
//! driver calls it from inside `rayon::join` and promises byte-identical
//! output at every thread count.

use sepdc_geom::point::Point;
use sepdc_separator::{find_good_separator_seeded, FoundSeparator, SeparatorConfig};

// Kept only because `bench_layers/` (the frozen benchmark) names it.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SplitterKind {
    #[default]
    Random,
}

/// A split-decision backend. See the [module docs](self) for the
/// determinism contract.
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
/// with the median-cut fallback.
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

// Kept only because `bench_layers/` (the frozen benchmark) calls it.
#[doc(hidden)]
pub fn splitter_for<const D: usize, const E: usize>(
    _kind: SplitterKind,
) -> &'static dyn Splitter<D, E> {
    &RandomSphere
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepdc_workloads::degenerate::all_coincident;
    use sepdc_workloads::Workload;

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
    fn backend_splits_uniform_points() {
        let pts = Workload::UniformCube.generate::<2>(2000, 2);
        let cfg = SeparatorConfig::default();
        let found = Splitter::<2, 3>::split(&RandomSphere, &pts, &cfg, 7)
            .expect("the backend splits uniform points");
        assert!(found.counts.left() > 0 && found.counts.right() > 0);
    }

    #[test]
    fn backend_does_not_split_coincident_points() {
        let pts = all_coincident::<2>(100, 1.5);
        let cfg = SeparatorConfig {
            max_attempts: 2,
            ..Default::default()
        };
        assert!(
            Splitter::<2, 3>::split(&RandomSphere, &pts, &cfg, 3).is_none(),
            "the backend invented a split of identical points"
        );
    }
}
