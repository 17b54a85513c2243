//! Batch-dynamic indexing via the logarithmic method (Bentley–Saxe),
//! composed from static [`QueryTree`] shards.
//!
//! The paper's separator structure is build-once; production data is not.
//! [`ShardedIndex`] closes that gap without touching the core recursion:
//!
//! * **Shards.** Slot `i` holds at most `staging_cap · 2^i` balls in one
//!   immutable [`QueryTree`]. Inserts buffer into a sorted *staging* array
//!   (at most `staging_cap` entries, scanned linearly by queries); when it
//!   fills, the staging entries and every occupied slot below the first
//!   empty slot `j` merge — purging tombstones — into a single fresh tree
//!   at slot `j` (the classic binary carry). Each ball therefore
//!   participates in `O(log(n / staging_cap))` rebuilds over its lifetime,
//!   the amortized-insert bound that the unit test
//!   `single_inserts_rebuild_each_ball_logarithmically_often` checks.
//! * **Deletes.** A delete tombstones the ball's bit in its shard's bitmap
//!   (or removes it from staging outright). Tombstoned balls keep their
//!   slot in the shard's tree until the next carry that includes the shard
//!   sweeps them out; queries filter them at gather time.
//! * **Determinism.** Every rebuild draws its seed from the splitmix64
//!   stream `shard_seed(master_seed, epoch)` where `epoch` counts rebuilds
//!   — a pure function of the operation sequence, so rebuilds are
//!   byte-identical at every thread count. Queries scatter across shards
//!   (rayon, order-preserving collect) and gather with a total order:
//!   covering answers sort ascending by global id, k-NN candidates merge
//!   by `(dist_sq.to_bits(), id)`. Answers are therefore independent of
//!   shard layout *and* thread count: any interleaving of inserts and
//!   deletes answers byte-identically to a fresh build over the surviving
//!   balls (see `tests/churn_oracle.rs`).
//!
//! Global ids are `u64`, assigned monotonically by insertion order and
//! never reused, so the staging array and each shard's id column stay
//! sorted for free and lookups are binary searches.

use crate::error::{validate_k, validate_points, SepdcError};
use crate::query::{QueryTree, QueryTreeConfig};
use crate::seeding::mix;
use crate::serve::{BatchResult, CoverPredicate};
use crate::ServeConfig;
use rayon::prelude::*;
use sepdc_geom::ball::Ball;
use sepdc_geom::point::Point;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Domain-separation tag for per-shard rebuild seeds (`b"SHARD"` packed).
const SHARD_TAG: u64 = 0x0053_4841_5244;

/// Snapshot-decoded shard parts: one
/// `(slot, tree, ids, tombstone bitmap, dead count)` tuple per occupied
/// slot, in ascending slot order.
pub(crate) type ShardParts<const D: usize> = Vec<(usize, QueryTree<D>, Vec<u64>, Vec<u64>, usize)>;

/// Seed for the rebuild numbered `epoch` under `master` — a splitmix64
/// stream independent of which thread performs the rebuild.
fn shard_seed(master: u64, epoch: u64) -> u64 {
    mix(master ^ mix(epoch ^ SHARD_TAG))
}

/// Tunables for [`ShardedIndex`].
#[derive(Clone, Copy, Debug)]
pub struct ShardedConfig {
    /// Staging capacity `B` (slot `i` then holds ≤ `B · 2^i` balls). The
    /// staging array is brute-scanned by every query, so `B` trades
    /// per-query overhead against rebuild frequency. Must be ≥ 1.
    pub staging_cap: usize,
    /// Build configuration for every shard's [`QueryTree`].
    pub tree: QueryTreeConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            staging_cap: 256,
            tree: QueryTreeConfig::default(),
        }
    }
}

impl ShardedConfig {
    /// Reject configurations the logarithmic method cannot run with.
    pub fn validate(&self) -> Result<(), SepdcError> {
        if self.staging_cap == 0 {
            return Err(SepdcError::InvalidConfig {
                param: "sharded.staging_cap",
                value: 0.0,
            });
        }
        if self.tree.leaf_size == 0 {
            return Err(SepdcError::InvalidConfig {
                param: "leaf_size",
                value: 0.0,
            });
        }
        Ok(())
    }
}

/// The immutable payload of one shard, shared by clones of the index (the
/// daemon's warm-swap path clones the whole index per mutation; sharing
/// the built trees makes that an `Arc` bump, not a rebuild).
pub(crate) struct ShardCore<const D: usize> {
    /// The static query structure over this shard's balls, local ids
    /// `0..n` in the order of `ids`.
    pub(crate) tree: QueryTree<D>,
    /// Local id → global id, strictly increasing (merges preserve global
    /// id order), so global-id lookups are binary searches.
    pub(crate) ids: Vec<u64>,
}

/// One occupied slot: the shared immutable core plus this clone's
/// tombstone bitmap (small and copy-on-mutate, outside the `Arc`).
pub(crate) struct Shard<const D: usize> {
    pub(crate) core: Arc<ShardCore<D>>,
    /// Tombstone bitmap over local ids, `ceil(n / 64)` words.
    pub(crate) tombs: Vec<u64>,
    /// Number of set bits in `tombs`.
    pub(crate) dead: usize,
}

impl<const D: usize> Clone for Shard<D> {
    fn clone(&self) -> Self {
        Shard {
            core: Arc::clone(&self.core),
            tombs: self.tombs.clone(),
            dead: self.dead,
        }
    }
}

impl<const D: usize> Shard<D> {
    fn new(core: ShardCore<D>) -> Self {
        let words = core.ids.len().div_ceil(64);
        Shard {
            core: Arc::new(core),
            tombs: vec![0u64; words],
            dead: 0,
        }
    }

    pub(crate) fn is_dead(&self, local: usize) -> bool {
        self.tombs[local / 64] >> (local % 64) & 1 == 1
    }

    fn live(&self) -> usize {
        self.core.ids.len() - self.dead
    }
}

/// Counters and sizes reported by [`ShardedIndex::stats`] — the
/// amortization accounting DESIGN.md §15 describes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Balls answering queries (staged + shard entries minus tombstones).
    pub live: usize,
    /// Tombstoned entries still occupying shard slots.
    pub dead: usize,
    /// Balls in the staging array.
    pub staged: usize,
    /// Occupied shard slots.
    pub shards: usize,
    /// Total slots allocated (occupied or not).
    pub slots: usize,
    /// Shard trees built over the index's lifetime (carries + compactions).
    pub rebuilds: u64,
    /// Total balls passed through those rebuilds; `rebuilt_balls / inserts`
    /// is the measured amortization factor (`O(log(n / B))` by the
    /// logarithmic method).
    pub rebuilt_balls: u64,
    /// Next global id to be assigned (ids are never reused).
    pub next_id: u64,
}

/// One k-NN answer: a global ball id and the exact squared distance from
/// the probe to that ball's center.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardedNeighbor {
    /// Global id of the ball.
    pub id: u64,
    /// Squared center distance (bit-exact: the merge key is
    /// `(dist_sq.to_bits(), id)`).
    pub dist_sq: f64,
}

/// CSR batch-covering answer over global ids: row `i` holds the ids of
/// all live balls covering probe `i`, ascending.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardedBatch {
    offsets: Vec<u64>,
    ids: Vec<u64>,
}

impl ShardedBatch {
    /// Number of probe rows.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// `true` when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Global ids covering probe `i`, ascending.
    pub fn hits(&self, i: usize) -> &[u64] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate rows in probe order.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> + '_ {
        (0..self.len()).map(move |i| self.hits(i))
    }

    /// The raw CSR offsets (length `rows + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The concatenated id rows.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }
}

/// A batch-dynamic neighborhood index: logarithmic-method shards over the
/// §3 [`QueryTree`], with tombstone deletes and deterministic cross-shard
/// query merges. See the module docs for the full contract.
pub struct ShardedIndex<const D: usize> {
    cfg: ShardedConfig,
    /// Master seed; every rebuild derives its own via [`shard_seed`].
    seed: u64,
    /// Slot `i` holds ≤ `staging_cap · 2^i` balls, or is empty.
    slots: Vec<Option<Shard<D>>>,
    /// Insert buffer, sorted ascending by global id (ids are assigned
    /// monotonically, so pushes keep it sorted; deletes splice).
    staging: Vec<(u64, Ball<D>)>,
    next_id: u64,
    /// Rebuild counter — the seed-stream position of the *next* rebuild.
    epoch: u64,
    rebuilds: u64,
    rebuilt_balls: u64,
}

impl<const D: usize> Clone for ShardedIndex<D> {
    fn clone(&self) -> Self {
        ShardedIndex {
            cfg: self.cfg,
            seed: self.seed,
            slots: self.slots.clone(),
            staging: self.staging.clone(),
            next_id: self.next_id,
            epoch: self.epoch,
            rebuilds: self.rebuilds,
            rebuilt_balls: self.rebuilt_balls,
        }
    }
}

impl<const D: usize> ShardedIndex<D> {
    /// An empty index.
    pub fn new(cfg: ShardedConfig, seed: u64) -> Result<Self, SepdcError> {
        cfg.validate()?;
        Ok(ShardedIndex {
            cfg,
            seed,
            slots: Vec::new(),
            staging: Vec::new(),
            next_id: 0,
            epoch: 0,
            rebuilds: 0,
            rebuilt_balls: 0,
        })
    }

    /// Bulk build over `balls`, assigning global ids `0..balls.len()`.
    /// `E` must be `D + 1`. The result is a *bulk* layout (one shard, or
    /// staging only when everything fits there) — incremental insertion of
    /// the same balls produces a different layout with byte-identical
    /// query answers.
    pub fn from_balls<const E: usize>(
        balls: &[Ball<D>],
        cfg: ShardedConfig,
        seed: u64,
    ) -> Result<Self, SepdcError> {
        let entries: Vec<(u64, Ball<D>)> = balls
            .iter()
            .enumerate()
            .map(|(i, &b)| (i as u64, b))
            .collect();
        Self::from_entries::<E>(&entries, cfg, seed)
    }

    /// Bulk build preserving explicit global ids (strictly increasing).
    /// This is how a layout-independent "fresh build over the survivors"
    /// is constructed for parity tests and offline compaction.
    pub fn from_entries<const E: usize>(
        entries: &[(u64, Ball<D>)],
        cfg: ShardedConfig,
        seed: u64,
    ) -> Result<Self, SepdcError> {
        cfg.validate()?;
        if let Some(idx) = entries
            .iter()
            .position(|(_, b)| !b.center.is_finite() || !b.radius.is_finite() || b.radius < 0.0)
        {
            return Err(SepdcError::NonFiniteBall { idx });
        }
        if let Some(w) = entries.windows(2).position(|w| w[0].0 >= w[1].0) {
            return Err(SepdcError::InvalidConfig {
                param: "sharded.entry_ids",
                value: w as f64,
            });
        }
        let mut index = Self::new(cfg, seed)?;
        index.next_id = entries.last().map_or(0, |(id, _)| id + 1);
        if entries.len() < cfg.staging_cap {
            index.staging = entries.to_vec();
            return Ok(index);
        }
        // One shard in the smallest slot whose capacity holds everything.
        let mut slot = 0usize;
        while cfg.staging_cap << slot < entries.len() {
            slot += 1;
        }
        index.slots.resize_with(slot + 1, || None);
        index.build_shard::<E>(slot, entries.to_vec())?;
        Ok(index)
    }

    /// Insert a batch, returning the assigned global ids (monotonic).
    /// `E` must be `D + 1`. Carries (shard rebuilds) happen inline when
    /// the staging array fills; the epoch-derived seeds keep every rebuild
    /// byte-identical at any thread count.
    pub fn try_insert_batch<const E: usize>(
        &mut self,
        balls: &[Ball<D>],
    ) -> Result<Vec<u64>, SepdcError> {
        if let Some(idx) = balls
            .iter()
            .position(|b| !b.center.is_finite() || !b.radius.is_finite() || b.radius < 0.0)
        {
            return Err(SepdcError::NonFiniteBall { idx });
        }
        let mut out = Vec::with_capacity(balls.len());
        for &b in balls {
            let id = self.next_id;
            self.next_id += 1;
            self.staging.push((id, b));
            out.push(id);
            if self.staging.len() >= self.cfg.staging_cap {
                self.carry::<E>()?;
            }
        }
        Ok(out)
    }

    /// Delete by global id; returns per-id whether a live ball was
    /// removed (`false` for unknown or already-deleted ids). Staged balls
    /// are removed outright; shard balls are tombstoned and swept out by
    /// the next carry that includes their shard.
    pub fn delete_batch(&mut self, ids: &[u64]) -> Vec<bool> {
        ids.iter().map(|&id| self.delete_one(id)).collect()
    }

    fn delete_one(&mut self, id: u64) -> bool {
        if let Ok(pos) = self.staging.binary_search_by_key(&id, |e| e.0) {
            self.staging.remove(pos);
            return true;
        }
        for shard in self.slots.iter_mut().flatten() {
            if let Ok(local) = shard.core.ids.binary_search(&id) {
                if shard.is_dead(local) {
                    return false;
                }
                shard.tombs[local / 64] |= 1 << (local % 64);
                shard.dead += 1;
                return true;
            }
        }
        false
    }

    /// Carry: merge staging plus every occupied slot below the first
    /// empty one into a fresh shard there, purging tombstones. The merged
    /// size is ≤ `B + B·(2^j - 1) = B·2^j`, slot `j`'s capacity.
    fn carry<const E: usize>(&mut self) -> Result<(), SepdcError> {
        let mut j = 0;
        while j < self.slots.len() && self.slots[j].is_some() {
            j += 1;
        }
        if j == self.slots.len() {
            self.slots.push(None);
        }
        let mut entries = std::mem::take(&mut self.staging);
        for slot in &mut self.slots[..j] {
            if let Some(shard) = slot.take() {
                for (local, &gid) in shard.core.ids.iter().enumerate() {
                    if !shard.is_dead(local) {
                        entries.push((gid, shard.core.tree.balls()[local]));
                    }
                }
            }
        }
        // Each source run is ascending; a sort restores the global order
        // (k-way merge would too, but the carry is already O(m log m)).
        entries.sort_unstable_by_key(|e| e.0);
        self.build_shard::<E>(j, entries)
    }

    /// Merge *everything* (all shards + staging) into the smallest layout
    /// that holds the live balls, dropping every tombstone. Use when the
    /// dead fraction grows large between natural carries.
    pub fn compact<const E: usize>(&mut self) -> Result<(), SepdcError> {
        let mut entries = std::mem::take(&mut self.staging);
        for slot in &mut self.slots {
            if let Some(shard) = slot.take() {
                for (local, &gid) in shard.core.ids.iter().enumerate() {
                    if !shard.is_dead(local) {
                        entries.push((gid, shard.core.tree.balls()[local]));
                    }
                }
            }
        }
        entries.sort_unstable_by_key(|e| e.0);
        self.slots.clear();
        if entries.len() < self.cfg.staging_cap {
            self.staging = entries;
            return Ok(());
        }
        let mut slot = 0usize;
        while self.cfg.staging_cap << slot < entries.len() {
            slot += 1;
        }
        self.slots.resize_with(slot + 1, || None);
        self.build_shard::<E>(slot, entries)
    }

    /// Build one shard tree at `slot` from globally-sorted `entries`,
    /// advancing the rebuild accounting. Empty merges leave the slot
    /// empty without consuming an epoch.
    fn build_shard<const E: usize>(
        &mut self,
        slot: usize,
        entries: Vec<(u64, Ball<D>)>,
    ) -> Result<(), SepdcError> {
        if entries.is_empty() {
            return Ok(());
        }
        let seed = shard_seed(self.seed, self.epoch);
        self.epoch += 1;
        self.rebuilds += 1;
        self.rebuilt_balls += entries.len() as u64;
        let balls: Vec<Ball<D>> = entries.iter().map(|(_, b)| *b).collect();
        let ids: Vec<u64> = entries.iter().map(|(id, _)| *id).collect();
        let tree = QueryTree::try_build::<E>(&balls, self.cfg.tree, seed)?;
        self.slots[slot] = Some(Shard::new(ShardCore { tree, ids }));
        Ok(())
    }

    fn occupied(&self) -> impl Iterator<Item = &Shard<D>> {
        self.slots.iter().flatten()
    }

    /// Global ids of all live balls whose *closed* body contains `p`,
    /// ascending. Rejects non-finite probes.
    pub fn try_covering(&self, p: &Point<D>) -> Result<Vec<u64>, SepdcError> {
        self.covering_impl(p, false)
    }

    /// Open-interior variant of [`Self::try_covering`].
    pub fn try_covering_interior(&self, p: &Point<D>) -> Result<Vec<u64>, SepdcError> {
        self.covering_impl(p, true)
    }

    fn covering_impl(&self, p: &Point<D>, open: bool) -> Result<Vec<u64>, SepdcError> {
        if !p.is_finite() {
            return Err(SepdcError::NonFinitePoint { idx: 0 });
        }
        let mut out = Vec::new();
        let mut local = Vec::new();
        let mut stats = sepdc_geom::ball::FilterStats::default();
        for shard in self.occupied() {
            local.clear();
            shard
                .core
                .tree
                .covering_into(p, open, &mut local, &mut stats);
            for &l in &local {
                if !shard.is_dead(l as usize) {
                    out.push(shard.core.ids[l as usize]);
                }
            }
        }
        for (id, b) in &self.staging {
            let hit = if open {
                b.contains_interior(p)
            } else {
                b.contains(p)
            };
            if hit {
                out.push(*id);
            }
        }
        // Global ids are disjoint across shards and staging; sorting them
        // gives the deterministic gather order (shard-layout independent).
        out.sort_unstable();
        Ok(out)
    }

    /// Batch covering: scatter `probes` across every live shard through
    /// the deterministic [`QueryTree::try_serve`] engine (shards in
    /// parallel under rayon), brute-scan staging, and gather each row
    /// ascending by global id with tombstones filtered. Answers are
    /// byte-identical for every thread count, chunk size, and shard
    /// layout holding the same live balls.
    pub fn try_covering_batch(
        &self,
        probes: &[Point<D>],
        pred: CoverPredicate,
        cfg: &ServeConfig,
    ) -> Result<ShardedBatch, SepdcError> {
        cfg.validate()?;
        validate_points(probes)?;
        let shards: Vec<&Shard<D>> = self.occupied().collect();
        let parts: Vec<BatchResult> = shards
            .par_iter()
            .map(|s| s.core.tree.try_serve(probes, pred, cfg).map(|o| o.result))
            .collect::<Vec<_>>()
            .into_iter()
            .collect::<Result<_, _>>()?;
        let open = matches!(pred, CoverPredicate::Open);
        let mut offsets = Vec::with_capacity(probes.len() + 1);
        offsets.push(0u64);
        let mut ids = Vec::new();
        let mut row: Vec<u64> = Vec::new();
        for (i, p) in probes.iter().enumerate() {
            row.clear();
            for (shard, part) in shards.iter().zip(&parts) {
                for &l in part.hits(i) {
                    if !shard.is_dead(l as usize) {
                        row.push(shard.core.ids[l as usize]);
                    }
                }
            }
            for (id, b) in &self.staging {
                let hit = if open {
                    b.contains_interior(p)
                } else {
                    b.contains(p)
                };
                if hit {
                    row.push(*id);
                }
            }
            row.sort_unstable();
            ids.extend_from_slice(&row);
            offsets.push(ids.len() as u64);
        }
        Ok(ShardedBatch { offsets, ids })
    }

    /// The `k` live balls whose centers are nearest `p`, merged across
    /// shards by the total order `(dist_sq.to_bits(), global_id)` — the
    /// same key a brute-force scan over the survivors would sort by, so
    /// the answer is exact and layout-independent. Shorter when fewer
    /// than `k` balls are live.
    pub fn try_knn(&self, p: &Point<D>, k: usize) -> Result<Vec<ShardedNeighbor>, SepdcError> {
        validate_k(k)?;
        if !p.is_finite() {
            return Err(SepdcError::NonFinitePoint { idx: 0 });
        }
        let mut cands: Vec<(u64, u64)> = Vec::new();
        for shard in self.occupied() {
            shard_topk(shard, p, k, &mut cands);
        }
        for (id, b) in &self.staging {
            cands.push((b.center.dist_sq(p).to_bits(), *id));
        }
        cands.sort_unstable();
        cands.truncate(k);
        Ok(cands
            .into_iter()
            .map(|(bits, id)| ShardedNeighbor {
                id,
                dist_sq: f64::from_bits(bits),
            })
            .collect())
    }

    /// Batch k-NN: probes scatter across a rayon iterator with an
    /// order-preserving collect, so the batch is exactly the concatenation
    /// of the per-probe [`Self::try_knn`] answers.
    pub fn try_knn_batch(
        &self,
        probes: &[Point<D>],
        k: usize,
    ) -> Result<Vec<Vec<ShardedNeighbor>>, SepdcError> {
        validate_k(k)?;
        validate_points(probes)?;
        probes
            .par_iter()
            .map(|p| self.try_knn(p, k))
            .collect::<Vec<_>>()
            .into_iter()
            .collect::<Result<_, _>>()
    }

    /// Number of live balls (staged + shard entries minus tombstones).
    pub fn len(&self) -> usize {
        self.staging.len() + self.occupied().map(Shard::live).sum::<usize>()
    }

    /// `true` when no live balls are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the amortization accounting.
    pub fn stats(&self) -> ShardedStats {
        ShardedStats {
            live: self.len(),
            dead: self.occupied().map(|s| s.dead).sum(),
            staged: self.staging.len(),
            shards: self.occupied().count(),
            slots: self.slots.len(),
            rebuilds: self.rebuilds,
            rebuilt_balls: self.rebuilt_balls,
            next_id: self.next_id,
        }
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> ShardedConfig {
        self.cfg
    }

    /// The master seed every rebuild seed derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `(slot, live, total)` per occupied shard, ascending by slot — the
    /// shard manifest `index inspect` prints.
    pub fn shard_sizes(&self) -> Vec<(usize, usize, usize)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.as_ref()
                    .map(|shard| (i, shard.live(), shard.core.ids.len()))
            })
            .collect()
    }

    // -- snapshot plumbing (validated on the load side) ------------------

    /// Iterate occupied shards with their slot index, for serialization.
    pub(crate) fn shards_for_snapshot(&self) -> Vec<(usize, &Shard<D>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|shard| (i, shard)))
            .collect()
    }

    /// The staging entries, ascending by global id.
    pub(crate) fn staging_for_snapshot(&self) -> &[(u64, Ball<D>)] {
        &self.staging
    }

    /// `(seed, next_id, epoch, rebuilds, rebuilt_balls, slot_count)`.
    pub(crate) fn meta_for_snapshot(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.seed,
            self.next_id,
            self.epoch,
            self.rebuilds,
            self.rebuilt_balls,
            self.slots.len() as u64,
        )
    }

    /// Reassemble from snapshot-decoded parts. The caller
    /// ([`crate::snapshot::load_sharded_index`]) has validated every
    /// invariant (sorted disjoint ids, bitmap widths, slot capacities).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_snapshot_parts(
        cfg: ShardedConfig,
        seed: u64,
        slot_count: usize,
        shards: ShardParts<D>,
        staging: Vec<(u64, Ball<D>)>,
        next_id: u64,
        epoch: u64,
        rebuilds: u64,
        rebuilt_balls: u64,
    ) -> Self {
        let mut slots: Vec<Option<Shard<D>>> = Vec::new();
        slots.resize_with(slot_count, || None);
        for (slot, tree, ids, tombs, dead) in shards {
            slots[slot] = Some(Shard {
                core: Arc::new(ShardCore { tree, ids }),
                tombs,
                dead,
            });
        }
        ShardedIndex {
            cfg,
            seed,
            slots,
            staging,
            next_id,
            epoch,
            rebuilds,
            rebuilt_balls,
        }
    }
}

/// Exact top-`k` of one shard by `(dist_bits, global_id)`: one sweep of
/// the shard's ball array (`Point::dist_sq`) feeding a bounded max-heap,
/// tombstones skipped. Appends the shard's candidates to `out`.
fn shard_topk<const D: usize>(shard: &Shard<D>, p: &Point<D>, k: usize, out: &mut Vec<(u64, u64)>) {
    let mut heap: BinaryHeap<(u64, u64)> = BinaryHeap::with_capacity(k + 1);
    for (local, b) in shard.core.tree.balls().iter().enumerate() {
        if shard.is_dead(local) {
            continue;
        }
        let key = (p.dist_sq(&b.center).to_bits(), shard.core.ids[local]);
        if heap.len() < k {
            heap.push(key);
        } else if key < *heap.peek().expect("non-empty heap") {
            heap.pop();
            heap.push(key);
        }
    }
    out.extend(heap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepdc_workloads::Workload;

    fn balls(n: usize, seed: u64) -> Vec<Ball<2>> {
        Workload::UniformCube
            .generate::<2>(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, c)| Ball::new(c, 0.02 + 0.08 * ((i % 7) as f64 / 7.0)))
            .collect()
    }

    fn small_cfg() -> ShardedConfig {
        ShardedConfig {
            staging_cap: 16,
            ..ShardedConfig::default()
        }
    }

    /// Brute oracle over the same live multiset.
    struct Oracle {
        live: Vec<(u64, Ball<2>)>,
    }

    impl Oracle {
        fn covering(&self, p: &Point<2>, open: bool) -> Vec<u64> {
            let mut out: Vec<u64> = self
                .live
                .iter()
                .filter(|(_, b)| {
                    if open {
                        b.contains_interior(p)
                    } else {
                        b.contains(p)
                    }
                })
                .map(|(id, _)| *id)
                .collect();
            out.sort_unstable();
            out
        }

        fn knn(&self, p: &Point<2>, k: usize) -> Vec<(u64, u64)> {
            let mut keys: Vec<(u64, u64)> = self
                .live
                .iter()
                .map(|(id, b)| (b.center.dist_sq(p).to_bits(), *id))
                .collect();
            keys.sort_unstable();
            keys.truncate(k);
            keys
        }
    }

    #[test]
    fn insert_only_matches_oracle_and_bulk_build() {
        let bs = balls(300, 1);
        let mut inc = ShardedIndex::new(small_cfg(), 7).unwrap();
        let ids = inc.try_insert_batch::<3>(&bs).unwrap();
        assert_eq!(ids, (0..300).collect::<Vec<u64>>());
        let bulk = ShardedIndex::from_balls::<3>(&bs, small_cfg(), 7).unwrap();
        assert_eq!(inc.len(), 300);
        assert_eq!(bulk.len(), 300);
        assert!(inc.stats().shards > 1, "carries must have happened");
        assert_eq!(bulk.stats().shards, 1, "bulk build is one shard");
        let oracle = Oracle {
            live: ids.iter().copied().zip(bs.iter().copied()).collect(),
        };
        for p in Workload::Clusters.generate::<2>(60, 9) {
            let want = oracle.covering(&p, false);
            assert_eq!(inc.try_covering(&p).unwrap(), want);
            assert_eq!(bulk.try_covering(&p).unwrap(), want);
            let want_knn = oracle.knn(&p, 5);
            for idx in [&inc, &bulk] {
                let got: Vec<(u64, u64)> = idx
                    .try_knn(&p, 5)
                    .unwrap()
                    .iter()
                    .map(|n| (n.dist_sq.to_bits(), n.id))
                    .collect();
                assert_eq!(got, want_knn);
            }
        }
    }

    #[test]
    fn deletes_tombstone_and_filter() {
        let bs = balls(200, 2);
        let mut idx = ShardedIndex::new(small_cfg(), 3).unwrap();
        let ids = idx.try_insert_batch::<3>(&bs).unwrap();
        // Delete every third ball; one unknown id; one double delete.
        let dels: Vec<u64> = ids.iter().copied().filter(|id| id % 3 == 0).collect();
        let outcome = idx.delete_batch(&dels);
        assert!(outcome.iter().all(|&d| d));
        assert_eq!(idx.delete_batch(&[dels[0]]), vec![false], "double delete");
        assert_eq!(idx.delete_batch(&[9999]), vec![false], "unknown id");
        assert_eq!(idx.len(), 200 - dels.len());
        let oracle = Oracle {
            live: ids
                .iter()
                .copied()
                .zip(bs.iter().copied())
                .filter(|(id, _)| id % 3 != 0)
                .collect(),
        };
        for p in Workload::UniformCube.generate::<2>(40, 77) {
            assert_eq!(idx.try_covering(&p).unwrap(), oracle.covering(&p, false));
            assert_eq!(
                idx.try_covering_interior(&p).unwrap(),
                oracle.covering(&p, true)
            );
            let got: Vec<(u64, u64)> = idx
                .try_knn(&p, 4)
                .unwrap()
                .iter()
                .map(|n| (n.dist_sq.to_bits(), n.id))
                .collect();
            assert_eq!(got, oracle.knn(&p, 4));
        }
    }

    #[test]
    fn carry_purges_tombstones_and_compact_shrinks() {
        let bs = balls(64, 3);
        let cfg = ShardedConfig {
            staging_cap: 8,
            ..ShardedConfig::default()
        };
        let mut idx = ShardedIndex::new(cfg, 1).unwrap();
        let ids = idx.try_insert_batch::<3>(&bs).unwrap();
        idx.delete_batch(&ids[..32]);
        assert_eq!(idx.stats().dead, 32);
        // Enough inserts to carry through every occupied slot purge them.
        idx.try_insert_batch::<3>(&balls(64, 4)).unwrap();
        let s = idx.stats();
        assert_eq!(s.live, 96);
        // Compaction drops any remaining tombstones and minimizes slots.
        idx.compact::<3>().unwrap();
        let s = idx.stats();
        assert_eq!((s.live, s.dead, s.shards), (96, 0, 1));
        assert_eq!(idx.shard_sizes(), vec![(s.slots - 1, 96, 96)]);
    }

    #[test]
    fn batch_queries_match_single_probe_paths() {
        let bs = balls(400, 5);
        let mut idx = ShardedIndex::new(small_cfg(), 11).unwrap();
        let ids = idx.try_insert_batch::<3>(&bs).unwrap();
        idx.delete_batch(
            &ids.iter()
                .copied()
                .filter(|i| i % 5 == 0)
                .collect::<Vec<_>>(),
        );
        let probes = Workload::Clusters.generate::<2>(150, 13);
        for (pred, open) in [
            (CoverPredicate::Closed, false),
            (CoverPredicate::Open, true),
        ] {
            let batch = idx
                .try_covering_batch(&probes, pred, &ServeConfig::default())
                .unwrap();
            assert_eq!(batch.len(), probes.len());
            for (i, p) in probes.iter().enumerate() {
                assert_eq!(batch.hits(i), idx.covering_impl(p, open).unwrap());
            }
        }
        let knn = idx.try_knn_batch(&probes, 3).unwrap();
        for (i, p) in probes.iter().enumerate() {
            assert_eq!(knn[i], idx.try_knn(p, 3).unwrap());
        }
    }

    #[test]
    fn clone_shares_cores_and_diverges_on_mutation() {
        let bs = balls(120, 6);
        let mut a = ShardedIndex::from_balls::<3>(&bs, small_cfg(), 2).unwrap();
        let b = a.clone();
        a.delete_batch(&[0, 1, 2]);
        a.try_insert_batch::<3>(&balls(5, 7)).unwrap();
        assert_eq!(a.len(), 122);
        assert_eq!(b.len(), 120, "clone is isolated from mutations");
        let p = Point::from([0.5, 0.5]);
        let with_deleted = b.try_covering(&p).unwrap();
        for id in [0u64, 1, 2] {
            assert!(!a.try_covering(&p).unwrap().contains(&id) || !with_deleted.contains(&id));
        }
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        let bad_cfg = ShardedConfig {
            staging_cap: 0,
            ..ShardedConfig::default()
        };
        assert!(matches!(
            ShardedIndex::<2>::new(bad_cfg, 1),
            Err(SepdcError::InvalidConfig {
                param: "sharded.staging_cap",
                ..
            })
        ));
        let mut idx = ShardedIndex::<2>::new(ShardedConfig::default(), 1).unwrap();
        let bad_ball = Ball {
            center: Point::from([f64::NAN, 0.0]),
            radius: 1.0,
        };
        assert_eq!(
            idx.try_insert_batch::<3>(&[bad_ball]),
            Err(SepdcError::NonFiniteBall { idx: 0 })
        );
        let nan_probe = Point::from([f64::NAN, 0.0]);
        assert_eq!(
            idx.try_covering(&nan_probe),
            Err(SepdcError::NonFinitePoint { idx: 0 })
        );
        assert_eq!(
            idx.try_knn(&nan_probe, 1),
            Err(SepdcError::NonFinitePoint { idx: 0 })
        );
        assert_eq!(
            idx.try_knn(&Point::from([0.0, 0.0]), 0),
            Err(SepdcError::InvalidK { k: 0 })
        );
        // Non-increasing explicit ids are rejected.
        let b = Ball::new(Point::from([0.0, 0.0]), 1.0);
        assert!(
            ShardedIndex::from_entries::<3>(&[(3, b), (3, b)], ShardedConfig::default(), 1)
                .is_err()
        );
    }

    #[test]
    fn single_inserts_rebuild_each_ball_logarithmically_often() {
        // N single inserts at staging capacity B: each ball takes part in
        // at most ⌊log₂(N/B)⌋ + 1 rebuilds, one per slot it carries into.
        const N: usize = 4096;
        let cfg = small_cfg();
        let mut idx = ShardedIndex::new(cfg, 5).unwrap();
        for b in balls(N, 10) {
            idx.try_insert_batch::<3>(&[b]).unwrap();
        }
        let s = idx.stats();
        assert_eq!(s.live, N);
        let per_ball = (N / cfg.staging_cap).ilog2() as u64 + 1;
        assert!(s.rebuilt_balls <= N as u64 * per_ball, "{s:?}");
    }

    #[test]
    fn knn_short_when_fewer_than_k_live() {
        let bs = balls(3, 8);
        let idx = ShardedIndex::from_balls::<3>(&bs, ShardedConfig::default(), 1).unwrap();
        let got = idx.try_knn(&Point::from([0.5, 0.5]), 10).unwrap();
        assert_eq!(got.len(), 3);
        let empty = ShardedIndex::<2>::new(ShardedConfig::default(), 1).unwrap();
        assert!(empty
            .try_knn(&Point::from([0.5, 0.5]), 4)
            .unwrap()
            .is_empty());
        assert!(empty
            .try_covering(&Point::from([0.5, 0.5]))
            .unwrap()
            .is_empty());
    }
}
