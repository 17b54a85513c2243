//! The retry loop around the unit-time candidate generator.
//!
//! Section 3.3 of the paper: *"Iteratively apply Unit Time Sphere Separator
//! Algorithm until finding a good sphere separator S."* Each candidate
//! succeeds with probability bounded below by a constant (≥ 1/2 in the
//! paper's accounting), so the number of rounds is geometric; Theorem 3.1
//! turns this into the `O(log n)` high-probability bound via a Bernoulli
//! ("heads/tails") argument.
//!
//! Practical completeness: after `max_attempts` failed candidates the
//! search falls back to a deterministic median hyperplane cut, which
//! `δ`-splits every point multiset that is splittable at all. This keeps
//! the implementation total without changing the probabilistic analysis
//! (the fallback fires with probability `2^-max_attempts`).

use crate::config::SeparatorConfig;
use crate::hyperplane_cut::median_cut_widest;
use crate::mttv::unit_time_candidate;
use crate::quality::{is_good_point_split, split_counts, SplitCounts};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sepdc_geom::point::Point;
use sepdc_geom::shape::Separator;

/// How the good separator was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A unit-time random candidate was accepted.
    Random,
    /// The deterministic median-cut fallback was used.
    Fallback,
    /// The derandomized widest-axis halving cut: the divide-and-conquer
    /// driver's first cut below 2^14 items, its fallback and rescue above.
    Halving,
    /// A BFS/greedy separator over the sparse ball-intersection graph was
    /// accepted (the `graph` splitter backend).
    Graph,
}

/// A good separator together with the search statistics the complexity
/// analysis cares about.
#[derive(Clone, Debug)]
pub struct FoundSeparator<const D: usize> {
    /// The accepted separator.
    pub separator: Separator<D>,
    /// How the split partitions the input points.
    pub counts: SplitCounts,
    /// Number of unit-time candidates drawn (the 'coin flips' of
    /// Theorem 3.1), including the accepted one.
    pub attempts: usize,
    /// Random acceptance or deterministic fallback.
    pub outcome: SearchOutcome,
}

/// Find a separator that `δ`-splits `points`, retrying unit-time candidates
/// and falling back to a median cut.
///
/// Returns `None` only when the point set cannot be split at all (fewer
/// than two points, or every point identical).
///
/// ```
/// use rand::SeedableRng;
/// use sepdc_separator::{find_good_separator, SeparatorConfig};
/// use sepdc_geom::Point;
///
/// let points: Vec<Point<2>> = (0..100)
///     .map(|i| Point::from([(i % 10) as f64, (i / 10) as f64]))
///     .collect();
/// let cfg = SeparatorConfig::default();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let found = find_good_separator::<2, 3, _>(&points, &cfg, &mut rng).unwrap();
/// assert!(found.counts.ratio() <= cfg.delta(2));
/// ```
pub fn find_good_separator<const D: usize, const E: usize, R: Rng>(
    points: &[Point<D>],
    cfg: &SeparatorConfig,
    rng: &mut R,
) -> Option<FoundSeparator<D>> {
    if points.len() < 2 {
        return None;
    }
    let delta = cfg.delta(D);
    for attempt in 1..=cfg.max_attempts {
        let Some(sep) = unit_time_candidate::<D, E, R>(points, cfg, rng) else {
            continue;
        };
        let counts = split_counts(points, &sep, cfg.tol);
        if is_good_point_split(&counts, delta) {
            return Some(FoundSeparator {
                separator: sep,
                counts,
                attempts: attempt,
                outcome: SearchOutcome::Random,
            });
        }
    }
    // Deterministic fallback.
    fallback(points, cfg)
}

fn fallback<const D: usize>(
    points: &[Point<D>],
    cfg: &SeparatorConfig,
) -> Option<FoundSeparator<D>> {
    let sep = median_cut_widest(points)?;
    let counts = split_counts(points, &sep, cfg.tol);
    if counts.left() == 0 || counts.right() == 0 {
        return None;
    }
    Some(FoundSeparator {
        separator: sep,
        counts,
        attempts: cfg.max_attempts,
        outcome: SearchOutcome::Fallback,
    })
}

/// The RNG seed of candidate `attempt` (0-based) in a seeded search.
///
/// Candidate 0 streams from `seed` itself, so a seeded search's first draw
/// is bit-identical to handing `ChaCha8Rng::seed_from_u64(seed)` to
/// [`find_good_separator`] — the pinned degenerate-separator regression
/// tests rely on this. Later candidates decorrelate via a golden-ratio
/// multiply, giving every attempt an independent ChaCha8 stream that does
/// not depend on how many draws earlier attempts consumed.
#[inline]
pub fn candidate_seed(seed: u64, attempt: usize) -> u64 {
    seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Evaluate candidate `attempt`: draw it from its own seeded stream, score
/// the split, and return it only when acceptable.
fn eval_candidate<const D: usize, const E: usize>(
    points: &[Point<D>],
    cfg: &SeparatorConfig,
    delta: f64,
    seed: u64,
    attempt: usize,
) -> Option<(Separator<D>, SplitCounts)> {
    let mut rng = ChaCha8Rng::seed_from_u64(candidate_seed(seed, attempt));
    let sep = unit_time_candidate::<D, E, _>(points, cfg, &mut rng)?;
    let counts = split_counts(points, &sep, cfg.tol);
    is_good_point_split(&counts, delta).then_some((sep, counts))
}

/// Seeded, thread-count-oblivious separator search.
///
/// Semantically identical to [`find_good_separator`] with a fresh
/// `ChaCha8Rng` per candidate (see [`candidate_seed`]): candidates are
/// evaluated in index order and the **first acceptable candidate wins**,
/// with `attempts = winner + 1` and the median-cut fallback after
/// `max_attempts` rejections. No candidate's stream depends on another's
/// draws, so the returned separator, counts, attempts, and outcome are a
/// pure function of `(points, cfg, seed)` for every thread count, which is
/// what lets the tree builders call this from inside `rayon::join` without
/// breaking build determinism.
pub fn find_good_separator_seeded<const D: usize, const E: usize>(
    points: &[Point<D>],
    cfg: &SeparatorConfig,
    seed: u64,
) -> Option<FoundSeparator<D>> {
    if points.len() < 2 {
        return None;
    }
    let delta = cfg.delta(D);
    for attempt in 0..cfg.max_attempts {
        if let Some((sep, counts)) = eval_candidate::<D, E>(points, cfg, delta, seed, attempt) {
            return Some(FoundSeparator {
                separator: sep,
                counts,
                attempts: attempt + 1,
                outcome: SearchOutcome::Random,
            });
        }
    }
    fallback(points, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn uniform_square(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::from([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]))
            .collect()
    }

    #[test]
    fn finds_good_separator_quickly_on_uniform() {
        let pts = uniform_square(5000, 1);
        let cfg = SeparatorConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let found = find_good_separator::<2, 3, _>(&pts, &cfg, &mut rng).unwrap();
        assert_eq!(found.outcome, SearchOutcome::Random);
        assert!(found.attempts <= 10, "needed {} attempts", found.attempts);
        assert!(found.counts.ratio() <= cfg.delta(2));
    }

    #[test]
    fn attempt_distribution_is_geometric_ish() {
        // Mean attempts should be small; this is the empirical face of the
        // Bernoulli argument in Theorem 3.1.
        let pts = uniform_square(2000, 3);
        let cfg = SeparatorConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut total_attempts = 0;
        let runs = 30;
        for _ in 0..runs {
            let f = find_good_separator::<2, 3, _>(&pts, &cfg, &mut rng).unwrap();
            total_attempts += f.attempts;
        }
        let mean = total_attempts as f64 / runs as f64;
        assert!(mean < 4.0, "mean attempts {mean} too high");
    }

    #[test]
    fn two_points_are_split() {
        let pts = vec![Point::<2>::from([0.0, 0.0]), Point::from([1.0, 0.0])];
        let cfg = SeparatorConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let found = find_good_separator::<2, 3, _>(&pts, &cfg, &mut rng).unwrap();
        assert_eq!(found.counts.left(), 1);
        assert_eq!(found.counts.right(), 1);
    }

    #[test]
    fn identical_points_return_none() {
        let pts = vec![Point::<2>::splat(1.0); 100];
        let cfg = SeparatorConfig {
            max_attempts: 4, // keep the test fast; fallback also fails
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        assert!(find_good_separator::<2, 3, _>(&pts, &cfg, &mut rng).is_none());
    }

    #[test]
    fn single_point_returns_none() {
        let pts = vec![Point::<2>::origin()];
        let cfg = SeparatorConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        assert!(find_good_separator::<2, 3, _>(&pts, &cfg, &mut rng).is_none());
    }

    #[test]
    fn fallback_fires_when_candidates_disabled() {
        // Zero attempts forces the median-cut fallback path.
        let pts = uniform_square(500, 8);
        let cfg = SeparatorConfig {
            max_attempts: 0,
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let found = find_good_separator::<2, 3, _>(&pts, &cfg, &mut rng).unwrap();
        assert_eq!(found.outcome, SearchOutcome::Fallback);
        assert!(found.counts.left() > 0 && found.counts.right() > 0);
    }

    #[test]
    fn sweep_is_identical_for_every_pool_size() {
        // The contract the parallel builders rely on: the search's output
        // is a pure function of (points, cfg, seed), whatever the pool
        // size it runs in.
        let pts = uniform_square(2500, 21);
        let cfg = SeparatorConfig::default();
        let in_pool = |threads: usize, seed: u64| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| find_good_separator_seeded::<2, 3>(&pts, &cfg, seed))
                .map(|f| (f.separator, f.counts, f.attempts, f.outcome))
        };
        for seed in [0u64, 7, 5028, 0xDEADBEEF] {
            let one = in_pool(1, seed);
            assert!(one.is_some(), "seed {seed}");
            for threads in [2usize, 5] {
                assert_eq!(in_pool(threads, seed), one, "seed {seed} x{threads}");
            }
        }
    }

    #[test]
    fn sweep_candidate_zero_matches_fresh_rng_stream() {
        // candidate_seed(s, 0) == s, so the sweep's first draw equals
        // handing ChaCha8Rng::seed_from_u64(s) to the rng-based search
        // (pinned because tests elsewhere select degenerate separators by
        // that exact stream).
        let pts = uniform_square(3000, 22);
        let cfg = SeparatorConfig {
            max_attempts: 1,
            ..Default::default()
        };
        for seed in [3u64, 5028, 99] {
            assert_eq!(candidate_seed(seed, 0), seed);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = find_good_separator::<2, 3, _>(&pts, &cfg, &mut rng);
            let b = find_good_separator_seeded::<2, 3>(&pts, &cfg, seed);
            assert_eq!(
                a.as_ref().map(|f| (f.separator, f.counts, f.attempts)),
                b.as_ref().map(|f| (f.separator, f.counts, f.attempts)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn sweep_small_inputs_and_fallback() {
        // Below the two-point floor.
        let one = vec![Point::<2>::origin()];
        assert!(find_good_separator_seeded::<2, 3>(&one, &SeparatorConfig::default(), 1).is_none());
        // Zero attempts forces the fallback, same as the rng-based search.
        let pts = uniform_square(500, 23);
        let cfg = SeparatorConfig {
            max_attempts: 0,
            ..Default::default()
        };
        let found = find_good_separator_seeded::<2, 3>(&pts, &cfg, 9).unwrap();
        assert_eq!(found.outcome, SearchOutcome::Fallback);
        // Identical points cannot be split at all.
        let same = vec![Point::<2>::splat(1.0); 100];
        let cfg4 = SeparatorConfig {
            max_attempts: 4,
            ..Default::default()
        };
        assert!(find_good_separator_seeded::<2, 3>(&same, &cfg4, 6).is_none());
    }

    #[test]
    fn candidate_seeds_are_distinct_across_attempts() {
        let mut seen = std::collections::HashSet::new();
        for attempt in 0..64 {
            assert!(seen.insert(candidate_seed(0xC0FFEE, attempt)));
        }
    }

    #[test]
    fn works_in_3d() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let pts: Vec<Point<3>> = (0..2000)
            .map(|_| {
                Point::from([
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                ])
            })
            .collect();
        let cfg = SeparatorConfig::default();
        let found = find_good_separator::<3, 4, _>(&pts, &cfg, &mut rng).unwrap();
        assert!(found.counts.ratio() <= cfg.delta(3) + 1e-12);
    }
}
