//! Analytic work–depth accounting.
//!
//! The paper's results are statements about the *parallel vector model*:
//! `O(log n)` time means `O(log n)` rounds of unit-time vector operations
//! (a SCAN, a separator candidate, an element-wise map) along the critical
//! path, using `n` virtual processors. Wall-clock time on a work-stealing
//! multicore does not expose that quantity, so every algorithm in this
//! workspace *computes* it: each phase produces a [`CostProfile`], and
//! profiles compose sequentially (depths add) or in parallel (depths max),
//! mirroring Brent's theorem exactly.
//!
//! [`CostMeter`] supplements the pure profiles with whole-run event
//! counters (separator retries, punts, …) gathered across rayon tasks with
//! relaxed atomics — they are aggregated only after the parallel phase
//! completes, so relaxed ordering is sufficient (no inter-thread data flows
//! through them).

use std::sync::atomic::{AtomicU64, Ordering};

/// Work–depth profile of one (sub)computation in the vector model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostProfile {
    /// Total operations across all virtual processors.
    pub work: u64,
    /// Rounds of unit-time vector operations on the critical path.
    pub depth: u64,
    /// Number of SCAN invocations (subset of `work`/`depth` attribution).
    pub scan_ops: u64,
    /// Separator candidates drawn (each is one unit-time round).
    pub separator_candidates: u64,
    /// Times the algorithm punted to the slow correction path.
    pub punts: u64,
}

impl CostProfile {
    /// The empty computation.
    pub fn zero() -> Self {
        Self::default()
    }

    /// One unit-time vector round touching `work` elements.
    pub fn round(work: u64) -> Self {
        CostProfile {
            work,
            depth: 1,
            ..Self::default()
        }
    }

    /// One SCAN over `n` elements: unit depth, linear work.
    pub fn scan(n: u64) -> Self {
        CostProfile {
            work: n,
            depth: 1,
            scan_ops: 1,
            ..Self::default()
        }
    }

    /// `rounds` consecutive unit-time rounds each touching `work` elements.
    pub fn rounds(rounds: u64, work_per_round: u64) -> Self {
        CostProfile {
            work: rounds * work_per_round,
            depth: rounds,
            ..Self::default()
        }
    }

    /// Sequential composition: this, then `next`.
    #[must_use]
    pub fn then(self, next: CostProfile) -> Self {
        CostProfile {
            work: self.work + next.work,
            depth: self.depth + next.depth,
            scan_ops: self.scan_ops + next.scan_ops,
            separator_candidates: self.separator_candidates + next.separator_candidates,
            punts: self.punts + next.punts,
        }
    }

    /// Parallel composition: this alongside `other` (depth is the max).
    #[must_use]
    pub fn alongside(self, other: CostProfile) -> Self {
        CostProfile {
            work: self.work + other.work,
            depth: self.depth.max(other.depth),
            scan_ops: self.scan_ops + other.scan_ops,
            separator_candidates: self.separator_candidates + other.separator_candidates,
            punts: self.punts + other.punts,
        }
    }

    /// Mark `n` separator candidate rounds (each unit depth).
    #[must_use]
    pub fn with_candidates(mut self, n: u64) -> Self {
        self.separator_candidates += n;
        self.work += n;
        self.depth += n;
        self
    }

    /// Mark one punt.
    #[must_use]
    pub fn with_punt(mut self) -> Self {
        self.punts += 1;
        self
    }
}

/// Shared event counters for a whole run. Cheap to clone a reference to
/// (`&CostMeter` is `Sync`); aggregate with [`CostMeter::snapshot`] after
/// the parallel phase.
#[derive(Debug, Default)]
pub struct CostMeter {
    separator_candidates: AtomicU64,
    separator_accepts: AtomicU64,
    punts: AtomicU64,
    fast_corrections: AtomicU64,
    marching_balls: AtomicU64,
    march_pruned: AtomicU64,
    query_builds: AtomicU64,
    distance_evals: AtomicU64,
    correction_dist_evals: AtomicU64,
    eps_skips: AtomicU64,
}

/// A point-in-time copy of a [`CostMeter`]'s counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeterSnapshot {
    /// Separator candidates drawn across the run.
    pub separator_candidates: u64,
    /// Candidates accepted as good separators.
    pub separator_accepts: u64,
    /// Punts to the slow (query-structure) correction.
    pub punts: u64,
    /// Fast corrections that ran to completion.
    pub fast_corrections: u64,
    /// Total ball-node marching steps performed.
    pub marching_balls: u64,
    /// Subtrees skipped by AABB-vs-ball rejection during marching.
    pub march_pruned: u64,
    /// Query structures built (punt path).
    pub query_builds: u64,
    /// Point-to-point distance evaluations.
    pub distance_evals: u64,
    /// Distance evaluations spent correcting lists across a separator:
    /// Fast-Correction candidates and the exhaustive scans that fix
    /// unbounded lists (a subset of [`MeterSnapshot::distance_evals`]).
    pub correction_dist_evals: u64,
    /// Candidates skipped by the ε-relaxed predicates (zero in exact mode).
    pub eps_skips: u64,
    // The three fields below always read 0. They are kept only because
    // the repository benchmark still reads them.
    #[doc(hidden)]
    pub f32_rejects: u64,
    #[doc(hidden)]
    pub f64_confirms: u64,
    #[doc(hidden)]
    pub unsafe_margin_hits: u64,
}

impl CostMeter {
    /// Fresh meter, all counters zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record separator candidates drawn.
    pub fn add_candidates(&self, n: u64) {
        self.separator_candidates.fetch_add(n, Ordering::Relaxed);
    }

    /// Record an accepted separator.
    pub fn add_accept(&self) {
        self.separator_accepts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a punt.
    pub fn add_punt(&self) {
        self.punts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a completed fast correction.
    pub fn add_fast_correction(&self) {
        self.fast_corrections.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` ball-node marching steps.
    pub fn add_marching(&self, n: u64) {
        self.marching_balls.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` subtrees pruned off the march by AABB rejection.
    pub fn add_march_pruned(&self, n: u64) {
        self.march_pruned.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a query-structure build.
    pub fn add_query_build(&self) {
        self.query_builds.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` distance evaluations.
    pub fn add_distance_evals(&self, n: u64) {
        self.distance_evals.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` correction distance evaluations (also counted in the
    /// global `distance_evals` by the caller).
    pub fn add_correction_dist_evals(&self, n: u64) {
        self.correction_dist_evals.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` candidates skipped by an ε-relaxed predicate.
    pub fn add_eps_skips(&self, n: u64) {
        self.eps_skips.fetch_add(n, Ordering::Relaxed);
    }

    /// Copy out all counters.
    pub fn snapshot(&self) -> MeterSnapshot {
        MeterSnapshot {
            separator_candidates: self.separator_candidates.load(Ordering::Relaxed),
            separator_accepts: self.separator_accepts.load(Ordering::Relaxed),
            punts: self.punts.load(Ordering::Relaxed),
            fast_corrections: self.fast_corrections.load(Ordering::Relaxed),
            marching_balls: self.marching_balls.load(Ordering::Relaxed),
            march_pruned: self.march_pruned.load(Ordering::Relaxed),
            query_builds: self.query_builds.load(Ordering::Relaxed),
            distance_evals: self.distance_evals.load(Ordering::Relaxed),
            correction_dist_evals: self.correction_dist_evals.load(Ordering::Relaxed),
            eps_skips: self.eps_skips.load(Ordering::Relaxed),
            ..MeterSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_identity_for_then_and_alongside() {
        let p = CostProfile::rounds(3, 10);
        assert_eq!(p.then(CostProfile::zero()), p);
        assert_eq!(CostProfile::zero().then(p), p);
        assert_eq!(p.alongside(CostProfile::zero()), p);
    }

    #[test]
    fn then_adds_depth() {
        let a = CostProfile::round(5);
        let b = CostProfile::round(7);
        let c = a.then(b);
        assert_eq!(c.work, 12);
        assert_eq!(c.depth, 2);
    }

    #[test]
    fn alongside_maxes_depth_sums_work() {
        let a = CostProfile::rounds(10, 1);
        let b = CostProfile::rounds(3, 100);
        let c = a.alongside(b);
        assert_eq!(c.depth, 10);
        assert_eq!(c.work, 10 + 300);
    }

    #[test]
    fn scan_counts() {
        let s = CostProfile::scan(1000);
        assert_eq!(s.scan_ops, 1);
        assert_eq!(s.depth, 1);
        assert_eq!(s.work, 1000);
        let two = s.then(CostProfile::scan(500));
        assert_eq!(two.scan_ops, 2);
    }

    #[test]
    fn candidates_add_depth_and_count() {
        let p = CostProfile::zero().with_candidates(4);
        assert_eq!(p.separator_candidates, 4);
        assert_eq!(p.depth, 4);
    }

    #[test]
    fn punt_counts_propagate() {
        let p = CostProfile::round(1).with_punt();
        let q = CostProfile::round(1);
        assert_eq!(p.alongside(q).punts, 1);
        assert_eq!(p.then(q).punts, 1);
    }

    #[test]
    fn meter_accumulates_across_threads() {
        let meter = CostMeter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        meter.add_candidates(1);
                        meter.add_distance_evals(3);
                    }
                });
            }
        });
        let snap = meter.snapshot();
        assert_eq!(snap.separator_candidates, 8000);
        assert_eq!(snap.distance_evals, 24000);
    }

    #[test]
    fn meter_eps_skips_accumulate() {
        let meter = CostMeter::new();
        meter.add_eps_skips(3);
        meter.add_eps_skips(4);
        assert_eq!(meter.snapshot().eps_skips, 7);
    }

    #[test]
    fn brent_composition_models_balanced_tree() {
        // A perfectly balanced binary recursion of height h with unit-round
        // nodes has depth h+1 and work 2^(h+1)-1.
        fn tree(h: u32) -> CostProfile {
            let node = CostProfile::round(1);
            if h == 0 {
                node
            } else {
                node.then(tree(h - 1).alongside(tree(h - 1)))
            }
        }
        let p = tree(4);
        assert_eq!(p.depth, 5);
        assert_eq!(p.work, 31);
    }
}
