//! The neighbor rows of the §5/§6 recursions, owned by the nodes that
//! write them.
//!
//! Row `r` of a node is the list of the point at position `r` of the
//! node's slab, and a node's rows are one contiguous range of an `n × k`
//! buffer, like its ids and points. The driver splits the rows with the
//! ids and points ([`crate::dc::Slab`]) but never swaps them: every
//! partition of a range runs before any leaf below it writes a row, so the
//! rows are still empty when their points move. A leaf writes its rows, a
//! combine merges into its node's rows after both children have returned,
//! and sibling calls hold disjoint ranges, so every row has one writer at
//! a time and Rust's borrows prove it: there is no lock, atomic or
//! `unsafe` here. Within a combine, the corrections write per owner
//! ([`for_each_owner`]), each chunk of owners holding its own row range.
//!
//! The entries (`Neighbor::idx`) are input ids, which keeps the
//! `(dist_sq, id)` order and the dedup of the id-indexed lists. The
//! finished store becomes a [`KnnResult`] that keeps its rows where the
//! recursion left them and reads point `i`'s list through an id → row map
//! ([`RowStore::into_result`]).

use crate::knn::{merge_into_row, KnnResult, Neighbor};
use std::ops::Range;

/// The row buffer of one §5/§6 build; the recursion writes it through
/// [`Rows`] views.
pub(crate) struct RowStore {
    k: usize,
    lens: Vec<u32>,
    /// Squared radius of each row: `INFINITY` until the row holds `k`
    /// entries, then its last entry's `dist_sq`. Crossing collection reads
    /// it in position order.
    radius_sq: Vec<f64>,
    entries: Vec<Neighbor>,
}

impl RowStore {
    /// `n` empty rows of capacity `k`.
    pub(crate) fn new(n: usize, k: usize) -> Self {
        // `k = 0` is rejected with a typed error at every public entry
        // point (`validate_k`); this is an internal invariant only.
        debug_assert!(k > 0);
        RowStore {
            k,
            lens: vec![0; n],
            radius_sq: vec![f64::INFINITY; n],
            entries: vec![
                Neighbor {
                    idx: 0,
                    dist_sq: 0.0
                };
                n * k
            ],
        }
    }

    /// Every row, for the root slab.
    pub(crate) fn rows(&mut self) -> Rows<'_> {
        Rows {
            k: self.k,
            lens: &mut self.lens,
            radius_sq: &mut self.radius_sq,
            entries: &mut self.entries,
        }
    }

    /// The finished lists, row `r` being the list of point `perm[r]`. The
    /// rows stay where they are; the result reads them through the inverse
    /// of `perm`, built after the radius column is freed.
    pub(crate) fn into_result(self, perm: &[u32]) -> KnnResult {
        let RowStore {
            k, lens, entries, ..
        } = self;
        KnnResult::from_rows(k, lens, entries, perm)
    }
}

/// A contiguous range of rows, mutably: a slab's third column. Empty for
/// the §3 engine, which keeps no lists.
#[derive(Default)]
pub(crate) struct Rows<'a> {
    k: usize,
    lens: &'a mut [u32],
    radius_sq: &'a mut [f64],
    entries: &'a mut [Neighbor],
}

impl<'a> Rows<'a> {
    /// The capacity of each row.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// The rows for a shorter borrow.
    pub(crate) fn reborrow(&mut self) -> Rows<'_> {
        Rows {
            k: self.k,
            lens: self.lens,
            radius_sq: self.radius_sq,
            entries: self.entries,
        }
    }

    /// The first `at` rows and the rest.
    pub(crate) fn split_at(self, at: usize) -> (Rows<'a>, Rows<'a>) {
        let (ll, rl) = self.lens.split_at_mut(at);
        let (lr, rr) = self.radius_sq.split_at_mut(at);
        let (le, re) = self.entries.split_at_mut(at * self.k);
        let k = self.k;
        (
            Rows {
                k,
                lens: ll,
                radius_sq: lr,
                entries: le,
            },
            Rows {
                k,
                lens: rl,
                radius_sq: rr,
                entries: re,
            },
        )
    }

    /// Each row's squared radius (`INFINITY` while it holds fewer than `k`
    /// entries), in row order.
    pub(crate) fn radius_sq(&self) -> &[f64] {
        self.radius_sq
    }

    /// Replace row `r` with `list` (a leaf solve); truncates to `k`.
    pub(crate) fn set_list(&mut self, r: usize, list: &[Neighbor]) {
        let m = list.len().min(self.k);
        self.entries[r * self.k..r * self.k + m].copy_from_slice(&list[..m]);
        self.lens[r] = m as u32;
        self.radius_sq[r] = if m == self.k {
            list[m - 1].dist_sq
        } else {
            f64::INFINITY
        };
    }

    /// Row `r`, for merging.
    pub(crate) fn row(&mut self, r: usize) -> Row<'_> {
        Row {
            len: &mut self.lens[r],
            radius_sq: &mut self.radius_sq[r],
            entries: &mut self.entries[r * self.k..(r + 1) * self.k],
        }
    }
}

/// One row, mutably.
pub(crate) struct Row<'a> {
    len: &'a mut u32,
    radius_sq: &'a mut f64,
    entries: &'a mut [Neighbor],
}

impl Row<'_> {
    /// Offer candidate `j` at `dist_sq`; same semantics as
    /// [`KnnResult::merge_candidate`]. A candidate beyond the row's radius
    /// is rejected before the row is read.
    pub(crate) fn merge(&mut self, j: u32, dist_sq: f64) -> bool {
        if dist_sq > *self.radius_sq {
            return false;
        }
        let Some(len) = merge_into_row(self.entries, *self.len as usize, j, dist_sq) else {
            return false;
        };
        *self.len = len as u32;
        if len == self.entries.len() {
            *self.radius_sq = self.entries[len - 1].dist_sq;
        }
        true
    }

    /// Offer `cands[t]` at `dists[t]` for every `t` with `dists[t] <
    /// cap_sq`, the caller's crossing-ball radius (strict, the Fast
    /// Correction merge condition).
    pub(crate) fn merge_batch(&mut self, cands: &[u32], dists: &[f64], cap_sq: f64) {
        debug_assert_eq!(cands.len(), dists.len());
        for (&j, &d) in cands.iter().zip(dists) {
            if d < cap_sq {
                self.merge(j, d);
            }
        }
    }
}

/// Run `f(b, row, scratch)` for every ball `b` of a correction, `row` being
/// the row of the ball's owner `owners[b]`; returns the sum of what `f`
/// returns. Owners are positions of `rows`, strictly ascending in `b`, as
/// crossing collection emits them.
///
/// The balls are bisected into chunks until a chunk's work, `work(end) −
/// work(start)` for the monotone prefix `work`, falls below
/// `min_par_work`. Each half takes the rows from its first owner's row up
/// to the other half's, so the chunks own disjoint row ranges and run in
/// parallel, with no lock: each row is written by the one chunk that owns
/// its ball. Merges are order-independent, so the rows come out the same
/// at every pool size. `scratch` is one reusable buffer per chunk.
pub(crate) fn for_each_owner<W, F>(
    rows: Rows<'_>,
    owners: &[u32],
    work: W,
    min_par_work: usize,
    f: F,
) -> u64
where
    W: Fn(usize) -> usize + Sync,
    F: Fn(usize, &mut Row<'_>, &mut Vec<f64>) -> u64 + Sync,
{
    debug_assert!(owners.windows(2).all(|w| w[0] < w[1]));
    let min_par_work = if rayon::current_num_threads() > 1 {
        min_par_work
    } else {
        usize::MAX
    };
    owned_chunk(rows, 0, 0..owners.len(), owners, &work, min_par_work, &f)
}

/// Apply `items`, each tagged with a ball, to the rows of the balls'
/// owners: `f(item, row, scratch)` for every item, `row` being the row of
/// `owners[ball(item)]`; returns the sum of what `f` returns. A batch of
/// fewer than `2 · min_par_work` items, or a one-thread pool, takes one
/// pass in item order. A larger one is bucketed by ball (a stable counting
/// sort) and runs through [`for_each_owner`], one unit of work per item.
pub(crate) fn apply_per_owner<T, B, F>(
    mut rows: Rows<'_>,
    owners: &[u32],
    items: &[T],
    ball: B,
    min_par_work: usize,
    f: F,
) -> u64
where
    T: Sync,
    B: Fn(&T) -> usize,
    F: Fn(&T, &mut Row<'_>, &mut Vec<f64>) -> u64 + Sync,
{
    if items.len() < 2 * min_par_work || rayon::current_num_threads() == 1 {
        let mut scratch = Vec::new();
        return items
            .iter()
            .map(|t| f(t, &mut rows.row(owners[ball(t)] as usize), &mut scratch))
            .sum();
    }
    // Ball `b`'s items are `order[start[b]..start[b + 1]]`, in item order.
    let mut start = vec![0usize; owners.len() + 1];
    for t in items {
        start[ball(t) + 1] += 1;
    }
    for b in 0..owners.len() {
        start[b + 1] += start[b];
    }
    let mut next = start.clone();
    let mut order = vec![0u32; items.len()];
    for (i, t) in items.iter().enumerate() {
        order[next[ball(t)]] = i as u32;
        next[ball(t)] += 1;
    }
    for_each_owner(
        rows,
        owners,
        |b| start[b],
        min_par_work,
        |b, row, scratch| {
            order[start[b]..start[b + 1]]
                .iter()
                .map(|&i| f(&items[i as usize], row, scratch))
                .sum()
        },
    )
}

/// [`for_each_owner`] over the balls `balls`, whose owners' rows lie in
/// `rows`, which starts at position `base`.
fn owned_chunk<W, F>(
    mut rows: Rows<'_>,
    base: usize,
    balls: Range<usize>,
    owners: &[u32],
    work: &W,
    min_par_work: usize,
    f: &F,
) -> u64
where
    W: Fn(usize) -> usize + Sync,
    F: Fn(usize, &mut Row<'_>, &mut Vec<f64>) -> u64 + Sync,
{
    if balls.len() > 1 && work(balls.end) - work(balls.start) >= min_par_work {
        let mid = balls.start + balls.len() / 2;
        let at = owners[mid] as usize - base;
        let (lo, hi) = rows.split_at(at);
        let (a, b) = rayon::join(
            || owned_chunk(lo, base, balls.start..mid, owners, work, min_par_work, f),
            || owned_chunk(hi, base + at, mid..balls.end, owners, work, min_par_work, f),
        );
        return a + b;
    }
    let mut scratch = Vec::new();
    balls
        .map(|b| f(b, &mut rows.row(owners[b] as usize - base), &mut scratch))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(idx: u32, dist_sq: f64) -> Neighbor {
        Neighbor { idx, dist_sq }
    }

    #[test]
    fn merges_keep_the_radius_column() {
        let mut store = RowStore::new(2, 2);
        let mut rows = store.rows();
        assert_eq!(rows.radius_sq(), &[f64::INFINITY; 2]);
        assert!(rows.row(0).merge(1, 4.0));
        assert_eq!(rows.radius_sq()[0], f64::INFINITY, "one of k = 2 known");
        assert!(rows.row(0).merge(2, 1.0));
        assert_eq!(rows.radius_sq()[0], 4.0);
        // A closer candidate shrinks the radius; a worse one is rejected
        // before the row is read.
        assert!(rows.row(0).merge(3, 2.0));
        assert_eq!(rows.radius_sq()[0], 2.0);
        assert!(!rows.row(0).merge(4, 5.0));
        rows.set_list(1, &[nb(0, 1.0), nb(2, 3.0)]);
        assert_eq!(rows.radius_sq()[1], 3.0);
        rows.set_list(1, &[nb(0, 1.0)]);
        assert_eq!(
            rows.radius_sq()[1],
            f64::INFINITY,
            "short list is unbounded"
        );
        let r = store.into_result(&[0, 1]);
        assert_eq!(r.neighbors(0), &[nb(2, 1.0), nb(3, 2.0)]);
        assert_eq!(r.neighbors(1), &[nb(0, 1.0)]);
        r.check_invariants().unwrap();
    }

    #[test]
    fn merge_batch_caps_strictly() {
        let mut store = RowStore::new(1, 3);
        let mut rows = store.rows();
        rows.row(0)
            .merge_batch(&[5, 6, 7, 8], &[2.0, 1.0, 3.0, 0.5], 2.0);
        let r = store.into_result(&[0]);
        assert_eq!(r.neighbors(0), &[nb(8, 0.5), nb(6, 1.0)]);
    }

    #[test]
    fn split_rows_are_the_halves() {
        let mut store = RowStore::new(5, 2);
        let (mut lo, mut hi) = store.rows().split_at(2);
        lo.set_list(1, &[nb(9, 1.0), nb(8, 2.0)]);
        hi.set_list(0, &[nb(7, 3.0)]);
        assert_eq!(hi.radius_sq().len(), 3);
        let r = store.into_result(&[0, 1, 2, 3, 4]);
        assert_eq!(r.neighbors(1), &[nb(9, 1.0), nb(8, 2.0)]);
        assert_eq!(r.neighbors(2), &[nb(7, 3.0)]);
        assert!(r.neighbors(0).is_empty() && r.neighbors(4).is_empty());
    }

    /// `n` rows where row `r` holds `r % (k + 1)` entries tagged with `r`:
    /// every length from 0 to k.
    fn tagged(n: usize, k: usize) -> (RowStore, Vec<Vec<Neighbor>>) {
        let mut store = RowStore::new(n, k);
        let rows: Vec<Vec<Neighbor>> = (0..n)
            .map(|r| {
                (0..r % (k + 1))
                    .map(|j| nb((r * 16 + j) as u32, j as f64))
                    .collect()
            })
            .collect();
        let mut view = store.rows();
        for (r, row) in rows.iter().enumerate() {
            view.set_list(r, row);
        }
        (store, rows)
    }

    /// Identity, a 2-cycle, a 9-cycle, empty, single and random perms of
    /// 2–130 rows.
    fn perms() -> Vec<Vec<u32>> {
        let mut perms: Vec<Vec<u32>> = vec![vec![], vec![0], (0..9).collect()];
        let mut two: Vec<u32> = (0..9).collect();
        two.swap(2, 7);
        perms.push(two);
        perms.push((0..9).map(|r| (r + 1) % 9).collect());
        // Fisher-Yates over a splitmix stream.
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
        perms
    }

    /// The id-order result a scatter of the rows would build: row `r`
    /// becomes the list of point `perm[r]`.
    fn scattered(rows: &[Vec<Neighbor>], perm: &[u32], k: usize) -> KnnResult {
        let mut out = KnnResult::new(rows.len(), k);
        for (row, &i) in rows.iter().zip(perm) {
            out.set_list(i as usize, row);
        }
        out
    }

    #[test]
    fn into_result_maps_rows_like_a_scatter() {
        let k = 3;
        for perm in perms() {
            let (store, rows) = tagged(perm.len(), k);
            let got = store.into_result(&perm);
            assert_eq!(got.len(), perm.len());
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(
                    got.neighbors(perm[r] as usize),
                    &row[..],
                    "{perm:?} row {r}"
                );
            }
            got.identical_to(&scattered(&rows, &perm, k)).unwrap();
        }
    }

    #[test]
    fn a_mapped_result_reads_like_the_id_order_one() {
        let k = 3;
        for perm in perms() {
            let n = perm.len();
            // Full lists of the other ids at distinct distances, so every
            // radius is finite and every list valid.
            let rows: Vec<Vec<Neighbor>> = perm
                .iter()
                .map(|&i| {
                    (0..n as u32)
                        .filter(|&j| j != i)
                        .take(k)
                        .map(|j| nb(j, (1 + j) as f64))
                        .collect()
                })
                .collect();
            let mut store = RowStore::new(n, k);
            let mut view = store.rows();
            for (r, row) in rows.iter().enumerate() {
                view.set_list(r, row);
            }
            let mut mapped = store.into_result(&perm);
            let mut plain = scattered(&rows, &perm, k);
            mapped.identical_to(&plain).unwrap();
            plain.identical_to(&mapped).unwrap();
            assert_eq!(mapped.check_invariants(), plain.check_invariants());
            assert!(mapped.check_invariants().is_ok());
            for i in 0..n {
                assert_eq!(mapped.radius_sq(i).to_bits(), plain.radius_sq(i).to_bits());
            }
            // The same offers land in the same lists: a new closest id,
            // one beyond every radius, and a duplicate.
            for i in 0..n {
                let dup = u32::from(i == 0);
                for (j, d) in [
                    (n as u32, 0.5),
                    (n as u32 + 1, 1e9),
                    (dup, 1.0 + dup as f64),
                ] {
                    assert_eq!(
                        mapped.merge_candidate(i, j, d),
                        plain.merge_candidate(i, j, d),
                        "{perm:?} point {i}"
                    );
                }
            }
            mapped.identical_to(&plain).unwrap();
            // A self-loop is reported at the same point: the checks read
            // ids, not rows.
            if n > 1 {
                let bad = perm[n - 1];
                let mut looped = rows.clone();
                looped[n - 1][0].idx = bad;
                let mut store = RowStore::new(n, k);
                let mut view = store.rows();
                for (r, row) in looped.iter().enumerate() {
                    view.set_list(r, row);
                }
                let mapped = store.into_result(&perm);
                assert_eq!(
                    mapped.check_invariants(),
                    Err(format!("point {bad}: self-loop"))
                );
                assert_eq!(
                    mapped.check_invariants(),
                    scattered(&looped, &perm, k).check_invariants()
                );
            }
        }
    }

    #[test]
    fn for_each_owner_visits_each_owner_once_at_every_pool_size() {
        // Owners at every third position; ball `b` offers `b + 1`
        // candidates to its owner, so the work prefix is triangular.
        let (n, k) = (300, 4);
        let owners: Vec<u32> = (0..n as u32).filter(|r| r % 3 == 1).collect();
        let work = |b: usize| b * (b + 1) / 2;
        let run = || {
            let mut store = RowStore::new(n, k);
            let total = for_each_owner(store.rows(), &owners, work, 64, |b, row, scratch| {
                scratch.push(b as f64);
                for j in 0..=b as u32 {
                    row.merge(1000 + j, (b as f64 - j as f64).abs());
                }
                b as u64 + 1
            });
            (store.into_result(&(0..n as u32).collect::<Vec<_>>()), total)
        };
        let (want, total) = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(run);
        assert_eq!(total, work(owners.len()) as u64);
        for (b, &o) in owners.iter().enumerate() {
            assert_eq!(want.neighbors(o as usize).len(), (b + 1).min(k));
        }
        assert!(want.neighbors(0).is_empty() && want.neighbors(2).is_empty());
        for threads in [2, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (got, got_total) = pool.install(run);
            assert_eq!(got_total, total, "{threads} threads");
            got.identical_to(&want)
                .unwrap_or_else(|e| panic!("{threads} threads: {e}"));
        }
    }

    #[test]
    fn apply_per_owner_matches_one_pass_at_every_pool_size() {
        // 40 balls owning every fifth row; 1,000 offers spread over them
        // (ball 0 gets none), duplicates included.
        let (n, k) = (200, 3);
        let owners: Vec<u32> = (0..40).map(|b| 5 * b + 2).collect();
        let offers: Vec<(usize, u32, f64)> = (0..1000u32)
            .map(|t| {
                let b = 1 + (t as usize * 7) % 39;
                (b, 500 + t % 97, ((t * 31) % 53) as f64)
            })
            .collect();
        let ids: Vec<u32> = (0..n as u32).collect();
        let run = |min_par_work| {
            let mut store = RowStore::new(n, k);
            let merged = apply_per_owner(
                store.rows(),
                &owners,
                &offers,
                |o| o.0,
                min_par_work,
                |&(_, j, d), row, _| u64::from(row.merge(j, d)),
            );
            (store.into_result(&ids), merged)
        };
        let one_pass = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let (want, _) = one_pass.install(|| run(8));
        for (b, &o) in owners.iter().enumerate() {
            assert_eq!(want.neighbors(o as usize).len(), if b == 0 { 0 } else { k });
        }
        for threads in [2, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for min_par_work in [8, 64, 1000] {
                let (got, _) = pool.install(|| run(min_par_work));
                got.identical_to(&want)
                    .unwrap_or_else(|e| panic!("{threads} threads, {min_par_work}: {e}"));
            }
        }
    }
}
