//! Concurrent per-point neighbor lists for the parallel recursions.
//!
//! The divide-and-conquer algorithms write neighbor lists from parallel
//! recursive calls. The index sets touched by sibling calls are disjoint,
//! so there is never real contention — but Rust cannot see that statically
//! across arbitrary index partitions. Instead of a `Mutex<Vec<_>>` per
//! point (two pointer chases plus an allocation per list), the store is a
//! single flat row-major `n × k` buffer guarded by one spinlock byte per
//! row, with the k-th-neighbor distance cached in an atomic so the hot
//! reject path (`candidate worse than current tail`) never takes the lock.
//!
//! Rows are arena positions, not point ids: row `r` holds the list of the
//! point the §5/§6 recursion keeps at position `r` of its permutation
//! arena, so a node's rows are one contiguous range, like its ids and
//! coordinates. The entries themselves (`Neighbor::idx`) are input ids,
//! which keeps the `(dist_sq, id)` order and the dedup of the id-indexed
//! store. The finished store converts into a plain [`KnnResult`] by
//! permuting its rows to id order in place, without a second entry buffer.

use crate::knn::{merge_into_row, KnnResult, Neighbor};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Flat, lock-striped neighbor lists; `Sync` handle passed to parallel
/// recursions.
pub(crate) struct SharedLists {
    k: usize,
    /// Row-major `n × k` entry buffer; row `r` is `entries[r*k .. (r+1)*k]`
    /// with `lens[r]` valid prefix entries, guarded by `locks[r]`.
    entries: Vec<UnsafeCell<Neighbor>>,
    lens: Vec<AtomicU32>,
    locks: Vec<AtomicBool>,
    /// Cached squared radius per row as f64 bits: `INFINITY` until the row
    /// is full, then the tail entry's `dist_sq`. During any window where
    /// concurrent merges may target a row, this value only decreases, so a
    /// stale read can only *over-admit* a candidate (which the locked merge
    /// then rejects) — never wrongly reject one.
    ///
    /// [`Self::set_list`] *can* raise the value back to `INFINITY`
    /// (overwriting a full row with a short list), so the monotonicity
    /// above holds only because of the call-window discipline: `set_list`
    /// runs exclusively in leaf base-cases, and every `merge_candidate`
    /// happens during corrections at an *ancestor* node, i.e. after
    /// `rayon::join` on the subtree containing the leaf has returned.
    /// `join`'s happens-before edge orders the leaf's `set_list` before any
    /// merge that can target the row, so no merge window ever observes a
    /// raise. The `merged` flags below turn a violation of that discipline
    /// into a debug panic instead of a silent wrong-reject race.
    radius_bits: Vec<AtomicU64>,
    /// Debug builds only: set once row `i` has received any
    /// `merge_candidate` attempt (even a fast-rejected one — the reject
    /// consumed the cached radius). `set_list` asserts the flag is still
    /// clear, pinning the "set_list strictly precedes the row's merge
    /// window" invariant at runtime.
    #[cfg(debug_assertions)]
    merged: Vec<AtomicBool>,
}

// SAFETY: every access to a row of `entries` happens while holding that
// row's spinlock (see `lock`/`unlock`); `lens`/`radius_bits` are atomics.
unsafe impl Sync for SharedLists {}

impl SharedLists {
    pub(crate) fn new(n: usize, k: usize) -> Self {
        // `k = 0` is rejected with a typed error at every public entry
        // point (`validate_k`); this is an internal invariant only.
        debug_assert!(k > 0);
        SharedLists {
            k,
            entries: (0..n * k)
                .map(|_| {
                    UnsafeCell::new(Neighbor {
                        idx: 0,
                        dist_sq: 0.0,
                    })
                })
                .collect(),
            lens: (0..n).map(|_| AtomicU32::new(0)).collect(),
            locks: (0..n).map(|_| AtomicBool::new(false)).collect(),
            radius_bits: (0..n)
                .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
                .collect(),
            #[cfg(debug_assertions)]
            merged: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    pub(crate) fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn lock(&self, i: usize) {
        while self.locks[i]
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
    }

    #[inline]
    fn unlock(&self, i: usize) {
        self.locks[i].store(false, Ordering::Release);
    }

    /// Row `i` as a mutable slice.
    ///
    /// # Safety
    /// Caller must hold lock `i` for the lifetime of the returned slice.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn row_mut(&self, i: usize) -> &mut [Neighbor] {
        std::slice::from_raw_parts_mut(self.entries[i * self.k].get(), self.k)
    }

    /// Replace the list of point `i` (base-case solve); truncates to `k`.
    ///
    /// Must be called *before* any [`Self::merge_candidate`] targets row
    /// `i`: a short list resets the cached radius to `INFINITY`, which
    /// would break the only-decreases contract the lock-free fast reject
    /// relies on if a merge window were already open. The recursion
    /// guarantees this ordering structurally (leaf solves happen-before
    /// ancestor corrections via `rayon::join`); debug builds assert it.
    pub(crate) fn set_list(&self, i: usize, list: &[Neighbor]) {
        #[cfg(debug_assertions)]
        debug_assert!(
            !self.merged[i].load(Ordering::Relaxed),
            "SharedLists::set_list on row {i} after merge_candidate opened its merge window; \
             this may raise the cached radius mid-race and break the fast-reject invariant"
        );
        let m = list.len().min(self.k);
        self.lock(i);
        let row = unsafe { self.row_mut(i) };
        row[..m].copy_from_slice(&list[..m]);
        let r = if m == self.k {
            row[self.k - 1].dist_sq
        } else {
            f64::INFINITY
        };
        self.lens[i].store(m as u32, Ordering::Relaxed);
        self.radius_bits[i].store(r.to_bits(), Ordering::Relaxed);
        self.unlock(i);
    }

    /// Squared k-neighborhood radius of point `i`
    /// (`INFINITY` when fewer than `k` neighbors are known).
    pub(crate) fn radius_sq(&self, i: usize) -> f64 {
        f64::from_bits(self.radius_bits[i].load(Ordering::Acquire))
    }

    /// Offer candidate `j` at `dist_sq` to row `i`, the list of point
    /// `owner`; same semantics as [`KnnResult::merge_candidate`].
    pub(crate) fn merge_candidate(&self, i: usize, owner: u32, j: u32, dist_sq: f64) -> bool {
        debug_assert_ne!(owner, j, "a point is not its own neighbor");
        // Mark the row's merge window open before the fast reject: even a
        // rejected offer consumed the cached radius, so a later set_list
        // raising it would already be a (debug-checked) ordering violation.
        #[cfg(debug_assertions)]
        self.merged[i].store(true, Ordering::Relaxed);
        // Lock-free fast reject: strictly worse than the cached tail
        // distance can never be inserted (the cache only shrinks while
        // merges race, so over-admission is the only possible staleness).
        if dist_sq > f64::from_bits(self.radius_bits[i].load(Ordering::Relaxed)) {
            return false;
        }
        self.lock(i);
        let len = self.lens[i].load(Ordering::Relaxed) as usize;
        let row = unsafe { self.row_mut(i) };
        let inserted = merge_into_row(row, len, j, dist_sq);
        if let Some(new_len) = inserted {
            self.lens[i].store(new_len as u32, Ordering::Relaxed);
            if new_len == self.k {
                self.radius_bits[i].store(row[self.k - 1].dist_sq.to_bits(), Ordering::Relaxed);
            }
        }
        self.unlock(i);
        inserted.is_some()
    }

    /// Batched [`SharedLists::merge_candidate`]: offer `cands[j]` at
    /// distance `dists[j]` to row `i`, the list of point `owner`, for every
    /// `j` with `dists[j] < cap_sq` (the caller's crossing-ball radius cap,
    /// strict — matching the Fast Correction merge condition).
    ///
    /// The cached row radius is loaded **once per batch** instead of once
    /// per candidate, and refreshed only after a merge actually ran. This
    /// is sound because the cached radius is monotone non-increasing while
    /// the merge window is open: a stale (larger) value can only
    /// *over*-admit, and `merge_candidate` re-checks under the row lock, so
    /// the resulting lists are identical to the per-candidate path.
    pub(crate) fn merge_batch(
        &self,
        i: usize,
        owner: u32,
        cands: &[u32],
        dists: &[f64],
        cap_sq: f64,
    ) {
        debug_assert_eq!(cands.len(), dists.len());
        let mut cached = f64::from_bits(self.radius_bits[i].load(Ordering::Relaxed));
        for (&q, &d) in cands.iter().zip(dists) {
            // Same admission predicate as merge_candidate's fast reject
            // (`> cached` rejects, so `<= cached` admits).
            if d < cap_sq && d <= cached {
                self.merge_candidate(i, owner, q, d);
                cached = f64::from_bits(self.radius_bits[i].load(Ordering::Relaxed));
            }
        }
    }

    /// Unwrap into a plain result once all parallel work is done: row `r`
    /// becomes the list of point `perm[r]`. The entry buffer is handed over
    /// and permuted in place ([`permute_rows`]).
    pub(crate) fn into_result(self, perm: &[u32]) -> KnnResult {
        let SharedLists {
            k, entries, lens, ..
        } = self;
        let mut lens: Vec<u32> = lens.into_iter().map(AtomicU32::into_inner).collect();
        // `UnsafeCell<T>` is repr(transparent) over `T`, so the buffer can
        // be reinterpreted without copying.
        let mut entries: Vec<Neighbor> = {
            let mut v = std::mem::ManuallyDrop::new(entries);
            // SAFETY: same layout, and `v` is never dropped, so the buffer
            // has exactly one owner.
            unsafe { Vec::from_raw_parts(v.as_mut_ptr() as *mut Neighbor, v.len(), v.capacity()) }
        };
        permute_rows(k, &mut lens, &mut entries, perm);
        KnnResult::from_flat_parts(k, lens, entries)
    }
}

/// Move row `r` of a flat `n × k` buffer to row `perm[r]`, for every `r`,
/// in place. Each cycle of `perm` is walked once from its first row, which
/// carries the cycle: every step swaps the row it holds into that row's
/// target and takes the target's old row in exchange. An n-bit set marks
/// the rows already placed; `O(n·k)` moves and no second buffer.
fn permute_rows(k: usize, lens: &mut [u32], entries: &mut [Neighbor], perm: &[u32]) {
    assert_eq!(perm.len(), lens.len(), "one perm entry per row");
    let mut placed = vec![0u64; perm.len().div_ceil(64)];
    for start in 0..perm.len() {
        if placed[start / 64] >> (start % 64) & 1 == 1 {
            continue;
        }
        let mut cur = start;
        loop {
            placed[cur / 64] |= 1 << (cur % 64);
            let dst = perm[cur] as usize;
            if dst == start {
                break;
            }
            debug_assert!(
                placed[dst / 64] >> (dst % 64) & 1 == 0,
                "perm is not a permutation"
            );
            lens.swap(start, dst);
            for t in 0..k {
                entries.swap(start * k + t, dst * k + t);
            }
            cur = dst;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_convert() {
        let s = SharedLists::new(3, 2);
        s.merge_candidate(0, 0, 1, 4.0);
        s.merge_candidate(0, 0, 2, 1.0);
        assert_eq!(s.radius_sq(0), 4.0);
        let r = s.into_result(&[0, 1, 2]);
        assert_eq!(r.neighbors(0)[0].idx, 2);
        assert_eq!(r.neighbors(0)[1].idx, 1);
        r.check_invariants().unwrap();
    }

    #[test]
    fn radius_infinite_until_k_known() {
        let s = SharedLists::new(2, 3);
        assert_eq!(s.radius_sq(0), f64::INFINITY);
        s.merge_candidate(0, 0, 1, 1.0);
        assert_eq!(s.radius_sq(0), f64::INFINITY);
    }

    #[test]
    fn set_list_updates_radius_cache() {
        let s = SharedLists::new(2, 2);
        s.set_list(
            0,
            &[
                Neighbor {
                    idx: 1,
                    dist_sq: 1.0,
                },
                Neighbor {
                    idx: 2,
                    dist_sq: 3.0,
                },
            ],
        );
        assert_eq!(s.radius_sq(0), 3.0);
        // A closer candidate shrinks the cached radius.
        assert!(s.merge_candidate(0, 0, 3, 2.0));
        assert_eq!(s.radius_sq(0), 2.0);
        // A strictly worse candidate is rejected on the fast path.
        assert!(!s.merge_candidate(0, 0, 4, 5.0));
        s.set_list(
            1,
            &[Neighbor {
                idx: 0,
                dist_sq: 1.0,
            }],
        );
        assert_eq!(s.radius_sq(1), f64::INFINITY, "short list is unbounded");
    }

    #[test]
    fn concurrent_merges_preserve_invariants() {
        let s = SharedLists::new(1, 4);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let s = &s;
                scope.spawn(move || {
                    for j in 0..100u32 {
                        let id = 1 + t * 100 + j;
                        s.merge_candidate(0, 0, id, (id % 17) as f64);
                    }
                });
            }
        });
        let r = s.into_result(&[0]);
        r.check_invariants().unwrap();
        assert_eq!(r.neighbors(0).len(), 4);
        // The four best candidates have dist 0 (ids ≡ 0 mod 17).
        assert!(r.neighbors(0).iter().all(|n| n.dist_sq == 0.0));
    }

    /// Hammer a single row right at the k boundary: many threads racing to
    /// fill the last slots, with duplicate candidate ids offered from every
    /// thread. The final row must equal what a sequential merge of the same
    /// candidate multiset produces.
    #[test]
    fn stress_k_boundary_and_duplicates() {
        const THREADS: u32 = 8;
        const PER_THREAD: u32 = 500;
        let k = 8;
        let s = SharedLists::new(1, k);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let s = &s;
                scope.spawn(move || {
                    for j in 0..PER_THREAD {
                        // Every thread offers the same candidate set, so
                        // 7 of 8 offers of each id are duplicates racing
                        // against the insert of the first.
                        let id = 1 + (j % 64);
                        let d = ((id * 37) % 101) as f64;
                        s.merge_candidate(0, 0, id, d);
                        // Plus a thread-unique id to churn the tail.
                        let uid = 100 + t * PER_THREAD + j;
                        s.merge_candidate(0, 0, uid, 50.0 + (uid % 13) as f64);
                    }
                });
            }
        });
        let got = s.into_result(&[0]);
        got.check_invariants().unwrap();

        // Sequential oracle over the same candidate multiset.
        let mut oracle = KnnResult::new(1, k);
        for t in 0..THREADS {
            for j in 0..PER_THREAD {
                let id = 1 + (j % 64);
                oracle.merge_candidate(0, id, ((id * 37) % 101) as f64);
                let uid = 100 + t * PER_THREAD + j;
                oracle.merge_candidate(0, uid, 50.0 + (uid % 13) as f64);
            }
        }
        assert_eq!(got.neighbors(0), oracle.neighbors(0));
    }

    /// Pin the call-window invariant: overwriting a row *after* its merge
    /// window opened could raise the cached radius back to `INFINITY`
    /// mid-race, breaking the only-decreases contract the lock-free fast
    /// reject depends on. Debug builds must refuse it loudly. (On the
    /// pre-guard code this sequence was silently accepted.)
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "set_list on row 0 after merge_candidate")]
    fn set_list_after_merge_window_is_rejected_in_debug() {
        let s = SharedLists::new(1, 1);
        assert!(s.merge_candidate(0, 0, 1, 2.0));
        // Row 0 is full (radius 2.0); this overwrite with a short list
        // would publish radius INFINITY into an already-open merge window.
        s.set_list(0, &[]);
    }

    /// The radius cache must be non-increasing while a row's merge window
    /// is open, no matter how merges interleave: a reader samples the
    /// radius concurrently with racing writers and asserts monotonicity.
    #[test]
    fn stress_radius_cache_monotone_during_merge_window() {
        use std::sync::atomic::AtomicBool as Flag;
        let k = 4;
        let s = SharedLists::new(1, k);
        let done = Flag::new(false);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..4u32)
                .map(|t| {
                    let s = &s;
                    scope.spawn(move || {
                        // Strictly decreasing candidate quality over time
                        // so the cache keeps moving while threads race.
                        for j in 0..2000u32 {
                            let id = 1 + t * 2000 + j;
                            s.merge_candidate(0, 0, id, 4000.0 - j as f64 + (t as f64) * 0.25);
                        }
                    })
                })
                .collect();
            let (s, done) = (&s, &done);
            let reader = scope.spawn(move || {
                let mut last = f64::INFINITY;
                while !done.load(Ordering::Acquire) {
                    let r = s.radius_sq(0);
                    assert!(
                        r <= last,
                        "radius cache increased mid-window: {last} -> {r}"
                    );
                    last = r;
                    std::hint::spin_loop();
                }
                // One deterministic final sample: the writers are done, so
                // the row is full and the cache must be finite.
                let r = s.radius_sq(0);
                assert!(r <= last, "final radius {r} above last observed {last}");
                r
            });
            for w in writers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Release);
            let final_seen = reader.join().unwrap();
            assert!(final_seen.is_finite(), "reader never saw a full row");
        });
        let r = s.into_result(&[0]);
        r.check_invariants().unwrap();
        assert_eq!(r.neighbors(0).len(), k);
    }

    /// Race `set_list` on one row against merges on another: rows are
    /// independent, so neither interferes with the other.
    #[test]
    fn stress_disjoint_rows_do_not_interfere() {
        let s = SharedLists::new(2, 4);
        std::thread::scope(|scope| {
            let s0 = &s;
            scope.spawn(move || {
                let base = [
                    Neighbor {
                        idx: 10,
                        dist_sq: 1.0,
                    },
                    Neighbor {
                        idx: 11,
                        dist_sq: 2.0,
                    },
                    Neighbor {
                        idx: 12,
                        dist_sq: 3.0,
                    },
                    Neighbor {
                        idx: 13,
                        dist_sq: 4.0,
                    },
                ];
                for _ in 0..1000 {
                    s0.set_list(0, &base);
                }
            });
            let s1 = &s;
            scope.spawn(move || {
                for j in 0..1000u32 {
                    s1.merge_candidate(1, 1, 2 + j, (j % 29) as f64);
                }
            });
        });
        let r = s.into_result(&[0, 1]);
        r.check_invariants().unwrap();
        assert_eq!(r.neighbors(0).len(), 4);
        assert_eq!(r.neighbors(0)[0].idx, 10);
        assert_eq!(r.neighbors(1).len(), 4);
        assert!(r.neighbors(1).iter().all(|n| n.dist_sq == 0.0));
    }

    /// `n` rows where row `r` holds `r % (k + 1)` entries tagged with `r`:
    /// every length from 0 to k.
    fn tagged(n: usize, k: usize) -> (SharedLists, Vec<Vec<Neighbor>>) {
        let s = SharedLists::new(n, k);
        let rows: Vec<Vec<Neighbor>> = (0..n)
            .map(|r| {
                (0..r % (k + 1))
                    .map(|j| Neighbor {
                        idx: (r * 16 + j) as u32,
                        dist_sq: j as f64,
                    })
                    .collect()
            })
            .collect();
        for (r, row) in rows.iter().enumerate() {
            s.set_list(r, row);
        }
        (s, rows)
    }

    #[test]
    fn into_result_permutes_rows_like_a_scatter() {
        let k = 3;
        let mut perms: Vec<Vec<u32>> = vec![vec![], vec![0], (0..9).collect()];
        // One 2-cycle, one n-cycle.
        let mut two: Vec<u32> = (0..9).collect();
        two.swap(2, 7);
        perms.push(two);
        perms.push((0..9).map(|r| (r + 1) % 9).collect());
        // Random perms (Fisher-Yates over a splitmix stream).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        for n in [2u32, 5, 64, 65, 130] {
            let mut p: Vec<u32> = (0..n).collect();
            for i in (1..p.len()).rev() {
                p.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            perms.push(p);
        }
        for perm in perms {
            let (s, rows) = tagged(perm.len(), k);
            let got = s.into_result(&perm);
            // The scatter reference: row `r` lands at `perm[r]`.
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(
                    got.neighbors(perm[r] as usize),
                    &row[..],
                    "{perm:?} row {r}"
                );
            }
        }
    }
}
