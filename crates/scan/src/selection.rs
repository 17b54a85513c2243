//! Parallel selection in the vector model.
//!
//! Section 6.2 of the paper: for `k > 1` the correction's "closest point"
//! computation becomes a **k-closest** computation, which "can be computed
//! in random `O(log log k)` time" — a classical randomized selection
//! result. This module provides the selection primitives: randomized
//! `quickselect` expressed with packs (each partition round is `O(1)` scan
//! rounds), `k_smallest`, and the round-count instrumentation that lets
//! EXP-12 verify the doubly-logarithmic round growth.

use rand::Rng;

/// Result of a selection: the value plus the number of partition rounds
/// the randomized recursion used (the vector-model time, up to constants).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Selected {
    /// The selected order statistic.
    pub value: f64,
    /// Partition rounds used.
    pub rounds: usize,
}

/// The `rank`-th smallest element (0-based) of `xs`, by randomized
/// partitioning. Expected `O(n)` work and `O(log n)` rounds worst case;
/// with the sampling pivot rule the expected round count for the
/// `k`-smallest use case is `O(log log n)`.
///
/// # Panics
/// Panics when `rank >= xs.len()` or any element is NaN.
pub fn select_rank<R: Rng>(xs: &[f64], rank: usize, rng: &mut R) -> Selected {
    assert!(rank < xs.len(), "rank {rank} out of range {}", xs.len());
    let mut pool: Vec<f64> = xs.to_vec();
    let mut target = rank;
    let mut rounds = 0;
    loop {
        rounds += 1;
        if pool.len() <= 32 {
            pool.sort_by(|a, b| a.partial_cmp(b).expect("NaN in selection"));
            return Selected {
                value: pool[target],
                rounds,
            };
        }
        // Sampled pivot: median of a small random sample — this is what
        // drives the expected O(log log) round behaviour.
        let mut sample: Vec<f64> = (0..9).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        sample.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
        let pivot = sample[sample.len() / 2];

        // One partition = three packs (less / equal / greater), each a
        // scan + scatter in the vector model.
        let less: Vec<f64> = pool.iter().copied().filter(|&x| x < pivot).collect();
        let equal = pool.iter().filter(|&&x| x == pivot).count();
        let greater: Vec<f64> = pool.iter().copied().filter(|&x| x > pivot).collect();

        if target < less.len() {
            pool = less;
        } else if target < less.len() + equal {
            return Selected {
                value: pivot,
                rounds,
            };
        } else {
            target -= less.len() + equal;
            pool = greater;
        }
    }
}

/// The `k` smallest elements of `xs` in ascending order (the §6.2
/// k-closest primitive). Uses one selection for the threshold plus one
/// pack; ties at the threshold are broken arbitrarily but the returned
/// multiset of values is exact.
pub fn k_smallest<R: Rng>(xs: &[f64], k: usize, rng: &mut R) -> Vec<f64> {
    if k == 0 {
        return Vec::new();
    }
    if k >= xs.len() {
        let mut all = xs.to_vec();
        all.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
        return all;
    }
    let threshold = select_rank(xs, k - 1, rng).value;
    let mut strict: Vec<f64> = xs.iter().copied().filter(|&x| x < threshold).collect();
    let ties = k - strict.len();
    strict.extend(std::iter::repeat_n(threshold, ties));
    strict.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
    strict
}

/// Floyd–Rivest style selection: pivots drawn from a `√n`-size sample
/// bracket the target rank, shrinking the candidate pool from `n` to
/// `Õ(n^{3/4})` per round — expected `O(log log n)` partition rounds,
/// the bound behind the paper's "`k` closest points can be computed in
/// random `O(log log k)` time" remark (§6.2).
///
/// Same contract as [`select_rank`]; the `rounds` field lets EXP-12
/// observe the doubly-logarithmic growth directly.
pub fn select_rank_fr<R: Rng>(xs: &[f64], rank: usize, rng: &mut R) -> Selected {
    assert!(rank < xs.len(), "rank {rank} out of range {}", xs.len());
    let mut pool: Vec<f64> = xs.to_vec();
    let mut target = rank;
    let mut rounds = 0;
    loop {
        rounds += 1;
        let n = pool.len();
        // Generous base case: below this size the remaining pool is sorted
        // outright (in the vector model a polylog-size sort is itself a
        // constant number of rounds, and the asymptotics of interest are
        // the shrink rounds above it).
        if n <= 2048 {
            pool.sort_by(|a, b| a.partial_cmp(b).expect("NaN in selection"));
            return Selected {
                value: pool[target],
                rounds,
            };
        }
        // Sample ~√n elements, sort them, and take two order statistics
        // around the target's proportional position with a safety margin
        // of ~n^{1/4} sample slots.
        let s = (n as f64).sqrt().ceil() as usize;
        let mut sample: Vec<f64> = (0..s).map(|_| pool[rng.gen_range(0..n)]).collect();
        sample.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
        let pos = (target as f64 / n as f64 * s as f64) as usize;
        let margin = (s as f64).sqrt().ceil() as usize + 1;
        let lo_pivot = sample[pos.saturating_sub(margin).min(s - 1)];
        let hi_pivot = sample[(pos + margin).min(s - 1)];

        // Heavy-tie short circuit: both pivots on the same value means
        // the sample is dominated by one element; resolve by equality.
        if lo_pivot == hi_pivot {
            let pivot = lo_pivot;
            let less = pool.iter().filter(|&&x| x < pivot).count();
            let equal = pool.iter().filter(|&&x| x == pivot).count();
            if target < less {
                pool.retain(|&x| x < pivot);
            } else if target < less + equal {
                return Selected {
                    value: pivot,
                    rounds,
                };
            } else {
                target -= less + equal;
                pool.retain(|&x| x > pivot);
            }
            continue;
        }
        let below = pool.iter().filter(|&&x| x < lo_pivot).count();
        let above = pool.iter().filter(|&&x| x > hi_pivot).count();
        let mid_len = n - below - above;
        if target >= below && target < below + mid_len && mid_len < n {
            // Keep only the middle band.
            pool.retain(|&x| x >= lo_pivot && x <= hi_pivot);
            target -= below;
        } else {
            // Bracketing missed (low probability): fall back to one
            // classical partition round around the nearer pivot.
            let pivot = if target < below { lo_pivot } else { hi_pivot };
            let less: Vec<f64> = pool.iter().copied().filter(|&x| x < pivot).collect();
            let equal = pool.iter().filter(|&&x| x == pivot).count();
            if target < less.len() {
                pool = less;
            } else if target < less.len() + equal {
                return Selected {
                    value: pivot,
                    rounds,
                };
            } else {
                target -= less.len() + equal;
                pool.retain(|&x| x > pivot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn pseudo(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 100_000) as f64 / 100.0
            })
            .collect()
    }

    #[test]
    fn select_rank_matches_sort() {
        let xs = pseudo(2000, 3);
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for rank in [0usize, 1, 999, 1998, 1999] {
            let s = select_rank(&xs, rank, &mut rng);
            assert_eq!(s.value, sorted[rank], "rank {rank}");
        }
    }

    #[test]
    fn select_rank_with_heavy_ties() {
        let mut xs = vec![5.0; 500];
        xs.extend(vec![1.0; 10]);
        xs.extend(vec![9.0; 10]);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert_eq!(select_rank(&xs, 0, &mut rng).value, 1.0);
        assert_eq!(select_rank(&xs, 10, &mut rng).value, 5.0);
        assert_eq!(select_rank(&xs, 509, &mut rng).value, 5.0);
        assert_eq!(select_rank(&xs, 510, &mut rng).value, 9.0);
    }

    #[test]
    fn select_rounds_are_logarithmic_ish() {
        let xs = pseudo(100_000, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let s = select_rank(&xs, 50_000, &mut rng);
        assert!(s.rounds <= 30, "rounds {} too many", s.rounds);
    }

    #[test]
    fn floyd_rivest_matches_sort() {
        let xs = pseudo(20_000, 17);
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for rank in [0usize, 13, 9_999, 19_998, 19_999] {
            let s = select_rank_fr(&xs, rank, &mut rng);
            assert_eq!(s.value, sorted[rank], "rank {rank}");
        }
    }

    #[test]
    fn floyd_rivest_rounds_are_doubly_logarithmic_ish() {
        // The point of Floyd–Rivest: rounds grow like log log n, far below
        // quickselect's log n. Check absolute smallness and slow growth.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut max_rounds_small = 0;
        let mut max_rounds_big = 0;
        for trial in 0..10 {
            let cont = |n: usize, seed: u64| -> Vec<f64> {
                let mut s = seed | 1;
                (0..n)
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        s as f64 / u64::MAX as f64
                    })
                    .collect()
            };
            let small = cont(1_000, 100 + trial);
            let big = cont(300_000, 200 + trial);
            max_rounds_small = max_rounds_small.max(select_rank_fr(&small, 500, &mut rng).rounds);
            max_rounds_big = max_rounds_big.max(select_rank_fr(&big, 150_000, &mut rng).rounds);
        }
        assert!(max_rounds_big <= 8, "FR rounds {max_rounds_big} too many");
        assert!(
            max_rounds_big <= max_rounds_small + 4,
            "rounds grew too fast: {max_rounds_small} -> {max_rounds_big}"
        );
    }

    #[test]
    fn floyd_rivest_heavy_ties() {
        let mut xs = vec![5.0; 5000];
        xs.extend(vec![1.0; 50]);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        assert_eq!(select_rank_fr(&xs, 0, &mut rng).value, 1.0);
        assert_eq!(select_rank_fr(&xs, 100, &mut rng).value, 5.0);
    }

    #[test]
    fn k_smallest_matches_sorted_prefix() {
        let xs = pseudo(3000, 11);
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for k in [1usize, 5, 100, 2999, 3000, 5000] {
            let got = k_smallest(&xs, k, &mut rng);
            let want = &sorted[..k.min(xs.len())];
            assert_eq!(got, want, "k={k}");
        }
    }

    #[test]
    fn k_smallest_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert!(k_smallest(&[1.0, 2.0], 0, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn select_rank_range_checked() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        select_rank(&[1.0], 1, &mut rng);
    }
}
