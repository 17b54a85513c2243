//! The separator divide-and-conquer driver shared by the three engines.
//!
//! The paper's title technique is one skeleton: split by a separator,
//! recurse on both sides in parallel, combine. The §3 query structure
//! ([`crate::query`]), the §5 hyperplane recursion
//! ([`crate::simple_parallel`]) and the §6 sphere recursion
//! ([`crate::parallel`]) all instantiate it through [`Driver::run`], which
//! owns everything they share: the recorder's node/leaf events and the
//! `split` ⊃ `separator-search` phase intervals, the leaf-size test, the
//! depth guard, the split decision with its fallback chain, the per-node
//! seeds and the `rayon::join`. An engine supplies its hooks ([`Engine`]):
//! what a leaf does, how a cut routes the node's items, and how two solved
//! children combine.
//!
//! # Items and positions
//!
//! A node's items arrive as a [`Slab`]: its ids and, for the §5 and §6
//! engines, each id's coordinates at the same position. Those engines
//! partition the slab in place, so the coordinates travel with the ids
//! through every cut, a node's centers are its coordinate slice, and
//! position `r` of a node is arena position `off + r` for the whole run.
//! The §3 engine routes by duplicating crossing balls into fresh id lists,
//! so its slab carries no coordinates and it gathers its centers by id.
//!
//! # Cut order and fallback chain
//!
//! A node has two cut sources: the split [`Rule`] (a [`Splitter`] backend,
//! or the axis-cycling median hyperplane of §5) and the derandomized
//! halving cut along the widest axis. Under a backend, a node of fewer
//! than [`HALVING_FIRST_BELOW`] items tries the halving cut first: it is
//! cheaper than one MTTV search at that size, and the sphere's guarantees
//! are asymptotic in the node size. Larger nodes, and every node under the
//! median rule, try the rule first, so the large nodes keep the sphere's
//! crossing bound, which the halving cut lacks.
//!
//! 1. The first source proposes a cut. When it has none, the alternate
//!    source's cut is taken instead.
//! 2. When the cut routes every item to one side and the alternate has not
//!    been tried, the alternate's cut is tried once as a rescue. A large
//!    `tol` can cause this: a backend's acceptance gate counts surface
//!    points on both sides, strict routing sends them all one way.
//! 3. Otherwise the node becomes a forced leaf: [`Leaf::Unsplittable`] when
//!    neither source has a cut (every center identical),
//!    [`Leaf::Degenerate`] when every cut routed one-sided. Recursing on
//!    an unshrunk item set would never terminate. The §5 and §6 engines
//!    solve an unsplittable leaf in closed form: its points coincide, so
//!    each list is the smallest other ids at distance 0, and no distance
//!    is evaluated.
//!
//! Every step is a pure function of the node's items and path seed, so
//! the output is identical at every pool size.

use crate::config::KnnDcConfig;
use crate::error::SepdcError;
use crate::report::{Phase, RunRecorder};
use crate::seeding::child_seed;
use crate::splitter::Splitter;
use rayon::prelude::*;
use sepdc_geom::point::Point;
use sepdc_geom::shape::Separator;
use sepdc_scan::cost::CostMeter;
use sepdc_separator::hyperplane_cut::{halving_cut_widest, median_cut_cycling};
use sepdc_separator::{SearchOutcome, SeparatorConfig};

/// Minimum node size before the in-place route computes its flag column in
/// parallel. Either way the swap walk that follows is the same, so the
/// layout does not depend on it.
const PARTITION_PAR_CUTOFF: usize = 1 << 14;

/// Under a backend, nodes of fewer items than this try the widest-axis
/// halving cut before the backend's; larger nodes try the backend first.
///
/// Below the cutoff the halving cut costs less than one MTTV search
/// (DESIGN.md §16), and the sphere's guarantees, which are asymptotic in
/// the node size, buy little. At and above it the backend's cut keeps the
/// paper's `O(m^{(d-1)/d})` crossing bound on the few nodes with the
/// largest crossing sets. The halving cut has no such bound: on the
/// `outlier_strip` workload nearly every k-NN ball crosses it, and the
/// §6 recursion runs faster with the cutoff than with halving cuts
/// everywhere (EXPERIMENTS.md). On the benchmark inputs an end-to-end
/// sweep of the cutoff is flat from 2,048 to 16,384 (EXPERIMENTS.md
/// "Halving-first cutoff sweep"); 2^14 is the top of that range, so the
/// sphere search runs on the fewest nodes the sweep left unchanged.
pub const HALVING_FIRST_BELOW: usize = 1 << 14;

/// Why the driver stopped subdividing a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Leaf {
    /// At or below the leaf size.
    Base,
    /// Neither cut source had a cut (every center identical).
    Unsplittable,
    /// Every cut tried routed every item one way.
    Degenerate,
    /// The automatic depth guard fired.
    DepthCapped,
}

impl Leaf {
    /// `(forced_leaves, degenerate_splits, depth_forced_leaves)` for one
    /// leaf of this kind — the fallback accounting every engine reports.
    pub(crate) fn counts(self) -> (usize, usize, usize) {
        match self {
            Leaf::Base => (0, 0, 0),
            Leaf::Unsplittable => (1, 0, 0),
            Leaf::Degenerate => (1, 1, 0),
            Leaf::DepthCapped => (1, 0, 1),
        }
    }
}

/// The accepted cut of an internal node, as the combine hook sees it.
pub(crate) struct Node<const D: usize> {
    /// The separator the items were routed by.
    pub sep: Separator<D>,
    /// Candidates the split decision drew: a backend search counts its
    /// draws (`max_attempts` when it found no cut), a halving cut one.
    pub attempts: u64,
    /// How `sep` was found.
    pub outcome: SearchOutcome,
    /// Whether `sep` is the alternate source's cut, replacing a first cut
    /// that routed one-sided.
    pub rescued: bool,
    /// Recursion depth of the node.
    pub depth: usize,
    /// The node's path seed.
    pub seed: u64,
}

/// A node's items: ids, the coordinates of the in-place engines at the same
/// positions (empty for §3), and the arena position of `ids[0]`.
pub(crate) struct Slab<'a, const D: usize> {
    /// The node's item ids.
    pub ids: &'a mut [u32],
    /// `pts[r]` is the point of `ids[r]` (§5, §6), or empty (§3).
    pub pts: &'a mut [Point<D>],
    /// Arena position of the slab's first item (0 for §3).
    pub off: usize,
}

impl<const D: usize> Slab<'_, D> {
    /// The slab read-only.
    pub(crate) fn span(&self) -> Span<'_, D> {
        Span {
            ids: self.ids,
            pts: self.pts,
            off: self.off,
        }
    }
}

/// A read-only [`Slab`]: what the leaf and combine hooks read. Position
/// `r` of a span is arena position `off + r`, which the §5 and §6 engines
/// use as the row of the item's neighbor list.
#[derive(Clone, Copy)]
pub(crate) struct Span<'a, const D: usize> {
    /// The items' ids.
    pub ids: &'a [u32],
    /// The items' points, position for position (empty for §3).
    pub pts: &'a [Point<D>],
    /// Arena position of the first item.
    pub off: usize,
}

impl<'a, const D: usize> Span<'a, D> {
    /// Number of items.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The first `at` items and the rest.
    pub(crate) fn split_at(self, at: usize) -> (Self, Self) {
        let (li, ri) = self.ids.split_at(at);
        let (lp, rp) = self.pts.split_at(at);
        (
            Span {
                ids: li,
                pts: lp,
                off: self.off,
            },
            Span {
                ids: ri,
                pts: rp,
                off: self.off + at,
            },
        )
    }

    /// The id at arena position `pos`.
    pub(crate) fn id(&self, pos: usize) -> u32 {
        self.ids[pos - self.off]
    }

    /// The point at arena position `pos`.
    pub(crate) fn point(&self, pos: usize) -> &'a Point<D> {
        &self.pts[pos - self.off]
    }
}

/// What routing a node's items by a cut produced.
pub(crate) enum Routing<R> {
    /// Both sides received items.
    Split(R),
    /// Every item routes to one side, and no item has moved. `rotate` marks
    /// an in-place route where every item routes exterior: the partition's
    /// swap walk leaves its slab rotated left by one there, and the driver
    /// applies that rotation after the rescue has proposed on the order
    /// the first cut saw.
    OneSided {
        /// Rotate the slab left by one before routing it again.
        rotate: bool,
    },
}

/// What a successful routing hands the two children.
pub(crate) trait Routed<const D: usize> {
    /// The children's slabs.
    fn children<'a>(&'a mut self, slab: &'a mut Slab<'_, D>) -> (Slab<'a, D>, Slab<'a, D>);
}

/// In-place partition (§5, §6): the interior side is the first `nl` items
/// of the node's own slab.
impl<const D: usize> Routed<D> for usize {
    fn children<'a>(&'a mut self, slab: &'a mut Slab<'_, D>) -> (Slab<'a, D>, Slab<'a, D>) {
        let nl = *self;
        let (li, ri) = slab.ids.split_at_mut(nl);
        let (lp, rp) = slab.pts.split_at_mut(nl);
        (
            Slab {
                ids: li,
                pts: lp,
                off: slab.off,
            },
            Slab {
                ids: ri,
                pts: rp,
                off: slab.off + nl,
            },
        )
    }
}

/// Duplicating routing (§3): crossing balls go to both children, so each
/// child gets a fresh id list.
impl<const D: usize> Routed<D> for (Vec<u32>, Vec<u32>) {
    fn children<'a>(&'a mut self, _: &'a mut Slab<'_, D>) -> (Slab<'a, D>, Slab<'a, D>) {
        let child = |ids| Slab {
            ids,
            pts: &mut [],
            off: 0,
        };
        (child(&mut self.0), child(&mut self.1))
    }
}

/// An engine's hooks. `E = D + 1` is the lift dimension of the backend's
/// candidate generator.
pub(crate) trait Engine<const D: usize, const E: usize>: Sync {
    /// What a successful [`Self::route`] hands the children.
    type Routed: Routed<D>;
    /// A solved subtree.
    type Out: Send;

    /// The centers the split rule sees for a node whose slab carries no
    /// coordinates, gathered by id; `None` when the slab's own coordinates
    /// are the centers.
    fn gather(&self, ids: &[u32]) -> Option<Vec<Point<D>>>;

    /// Solve a node the driver does not subdivide.
    fn leaf(&self, items: Span<'_, D>, kind: Leaf) -> Self::Out;

    /// Route the node's items by `sep`.
    fn route(&self, slab: &mut Slab<'_, D>, sep: &Separator<D>) -> Routing<Self::Routed>;

    /// Combine the solved children of an internal node whose items are
    /// `items` (the children have permuted their own slices in place).
    fn combine(
        &self,
        items: Span<'_, D>,
        routed: Self::Routed,
        node: Node<D>,
        left: Self::Out,
        right: Self::Out,
    ) -> Self::Out;
}

/// How a node's cut is proposed before the fallback chain.
#[derive(Clone, Copy)]
pub(crate) enum Rule<const D: usize, const E: usize> {
    /// A split-decision backend (§3, §6).
    Backend(&'static dyn Splitter<D, E>),
    /// The axis-cycling median hyperplane of Bentley's recursion (§5).
    MedianCycling,
}

/// One of a node's two cut sources.
#[derive(Clone, Copy)]
enum Source {
    /// The split [`Rule`].
    Rule,
    /// The widest-axis halving cut.
    Halving,
}

/// The recursion's configuration, shared by every node of one build.
pub(crate) struct Driver<'a, const D: usize, const E: usize> {
    /// How cuts are proposed.
    pub rule: Rule<D, E>,
    /// Separator tunables, handed to the backend; `max_attempts` also
    /// prices a backend search that found no cut.
    pub sep: &'a SeparatorConfig,
    /// Phase timer and per-depth histogram.
    pub obs: &'a RunRecorder,
    /// The §6 event meter, which counts candidates and accepted cuts.
    pub meter: Option<&'a CostMeter>,
    /// Nodes of at most this many items become leaves.
    pub leaf_size: usize,
    /// Depth at which the recursion stops subdividing.
    pub depth_limit: usize,
    /// `true` when `depth_limit` is an explicit limit: reaching it is then
    /// [`SepdcError::RecursionDepthExceeded`] instead of a forced leaf.
    pub strict_depth: bool,
    /// Nodes larger than this solve their children through `rayon::join`.
    pub parallel_cutoff: usize,
}

impl<'a, const D: usize, const E: usize> Driver<'a, D, E> {
    /// The driver of a §5/§6 k-NN build over `n` points: base-case leaves,
    /// the configured depth guard and fork cutoff.
    pub(crate) fn for_knn(
        cfg: &'a KnnDcConfig,
        n: usize,
        rule: Rule<D, E>,
        obs: &'a RunRecorder,
        meter: Option<&'a CostMeter>,
    ) -> Self {
        Driver {
            rule,
            sep: &cfg.separator,
            obs,
            meter,
            leaf_size: cfg.resolve_base_case(n, D),
            depth_limit: cfg.resolve_depth_limit(n),
            strict_depth: cfg.max_depth.is_some(),
            parallel_cutoff: cfg.parallel_cutoff,
        }
    }

    /// Solve the subtree rooted at the node holding `slab` at `depth` (0
    /// for the root) with path seed `seed`. Child seeds are a pure function
    /// of the parent's (see [`crate::seeding`]), never of which thread
    /// builds which subtree.
    pub(crate) fn run<En: Engine<D, E>>(
        &self,
        en: &En,
        mut slab: Slab<'_, D>,
        seed: u64,
        depth: usize,
    ) -> Result<En::Out, SepdcError> {
        let m = slab.ids.len();
        self.obs.node(depth);
        if m <= self.leaf_size {
            return Ok(self.leaf(en, slab.span(), depth, Leaf::Base));
        }
        if depth >= self.depth_limit {
            // Accepted δ-splits cannot reach this depth; getting here means
            // the routing degenerated level after level.
            if self.strict_depth {
                return Err(SepdcError::RecursionDepthExceeded {
                    limit: self.depth_limit,
                });
            }
            return Ok(self.leaf(en, slab.span(), depth, Leaf::DepthCapped));
        }
        let t_split = self.obs.start();
        let gathered = en.gather(slab.ids);
        // The fallback chain of the module docs: the alternate source is
        // the fallback when the first has no cut, else the one rescue.
        let (first, alternate) = match self.rule {
            Rule::Backend(_) if m < HALVING_FIRST_BELOW => (Source::Halving, Source::Rule),
            _ => (Source::Rule, Source::Halving),
        };
        let mut attempts = 0;
        let centers = gathered.as_deref().unwrap_or(&*slab.pts);
        let mut cut = self.propose(first, centers, seed, depth, &mut attempts);
        let fell_back = cut.is_none();
        if fell_back {
            cut = self.propose(alternate, centers, seed, depth, &mut attempts);
        }
        let Some((mut sep, mut outcome)) = cut else {
            self.obs.stop(Phase::Split, t_split);
            return Ok(self.leaf(en, slab.span(), depth, Leaf::Unsplittable));
        };
        // Route by the cut; a one-sided route takes the one rescue, unless
        // the cut already came from the alternate source.
        let mut rescue = (!fell_back).then_some(alternate);
        let mut rescued = false;
        let routed = loop {
            match en.route(&mut slab, &sep) {
                Routing::Split(routed) => break Some(routed),
                Routing::OneSided { rotate } => {
                    // The one-sided route moved nothing, so the rescue sees
                    // the order the first cut saw.
                    let centers = gathered.as_deref().unwrap_or(&*slab.pts);
                    let next = rescue
                        .take()
                        .and_then(|src| self.propose(src, centers, seed, depth, &mut attempts));
                    if rotate {
                        slab.ids.rotate_left(1);
                        slab.pts.rotate_left(1);
                    }
                    let Some(cut) = next else { break None };
                    (sep, outcome) = cut;
                    rescued = true;
                }
            }
        };
        self.obs.add_candidates(depth, attempts);
        if let Some(meter) = self.meter {
            meter.add_candidates(attempts);
            meter.add_accept();
        }
        // Nothing below this node reads the gathered centers: free them
        // before the children gather theirs.
        drop(gathered);
        self.obs.stop(Phase::Split, t_split);
        let Some(mut routed) = routed else {
            return Ok(self.leaf(en, slab.span(), depth, Leaf::Degenerate));
        };

        let (lseed, rseed) = (child_seed(seed, false), child_seed(seed, true));
        let (l, r) = routed.children(&mut slab);
        let (lres, rres) = if m > self.parallel_cutoff {
            rayon::join(
                || self.run(en, l, lseed, depth + 1),
                || self.run(en, r, rseed, depth + 1),
            )
        } else {
            (
                self.run(en, l, lseed, depth + 1),
                self.run(en, r, rseed, depth + 1),
            )
        };
        let (left, right) = (lres?, rres?);
        let node = Node {
            sep,
            attempts,
            outcome,
            rescued,
            depth,
            seed,
        };
        Ok(en.combine(slab.span(), routed, node, left, right))
    }

    fn leaf<En: Engine<D, E>>(
        &self,
        en: &En,
        items: Span<'_, D>,
        depth: usize,
        kind: Leaf,
    ) -> En::Out {
        let out = en.leaf(items, kind);
        self.obs.leaf(depth);
        out
    }

    /// The cut `source` proposes for a node, timed as `separator-search`
    /// (a sub-interval of `split`). Adds the candidates it drew to
    /// `attempts`.
    fn propose(
        &self,
        source: Source,
        centers: &[Point<D>],
        seed: u64,
        depth: usize,
        attempts: &mut u64,
    ) -> Option<(Separator<D>, SearchOutcome)> {
        let (cut, drawn) = self
            .obs
            .time(Phase::SeparatorSearch, || match (source, self.rule) {
                (Source::Rule, Rule::Backend(sp)) => match sp.split(centers, self.sep, seed) {
                    Some(f) => (Some((f.separator, f.outcome)), f.attempts as u64),
                    None => (None, self.sep.max_attempts as u64),
                },
                (Source::Rule, Rule::MedianCycling) => (
                    median_cut_cycling(centers, depth).map(|sep| (sep, SearchOutcome::Fallback)),
                    0,
                ),
                (Source::Halving, _) => (
                    halving_cut_widest(centers).map(|sep| (sep, SearchOutcome::Halving)),
                    1,
                ),
            });
        *attempts += drawn;
        cut
    }
}

/// The §5/§6 routing hook: partition the slab in place, strict interior
/// side first, each point moving with its id.
///
/// The flag column comes first (a parallel chunked scan on large nodes),
/// then a two-pointer walk swaps ids, points and flags together, so
/// `flags[lo]` always describes `ids[lo]`: the layout is the one a serial
/// predicate-driven walk leaves. A one-sided cut moves nothing; where that
/// walk would rotate the slab, [`Routing::OneSided`] says so.
pub(crate) fn partition_points<const D: usize>(
    slab: &mut Slab<'_, D>,
    sep: &Separator<D>,
) -> Routing<usize> {
    let interior = |p: &Point<D>| sep.side(p).routes_interior();
    let mut flags: Vec<bool> = if slab.pts.len() >= PARTITION_PAR_CUTOFF {
        slab.pts.par_iter().map(interior).collect()
    } else {
        slab.pts.iter().map(interior).collect()
    };
    let nl = flags.iter().filter(|&&f| f).count();
    if nl == 0 || nl == flags.len() {
        return Routing::OneSided { rotate: nl == 0 };
    }
    let (mut lo, mut hi) = (0, flags.len());
    while lo < hi {
        if flags[lo] {
            lo += 1;
        } else {
            hi -= 1;
            slab.ids.swap(lo, hi);
            slab.pts.swap(lo, hi);
            flags.swap(lo, hi);
        }
    }
    Routing::Split(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitter::RandomSphere;
    use sepdc_geom::sphere::Sphere;
    use sepdc_separator::FoundSeparator;
    use sepdc_workloads::Workload;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Each leaf's `(kind, ids)` and each split's `(outcome, rescued)`,
    /// children before parents (the root's split is last).
    type Trace = (Vec<(Leaf, Vec<u32>)>, Vec<(SearchOutcome, bool)>);

    /// Routes by strict side, except that the cuts `refuse` picks out
    /// route every point exterior.
    struct Probe {
        points: Vec<Point<2>>,
        refuse: fn(&Separator<2>) -> bool,
    }

    impl Engine<2, 3> for Probe {
        type Routed = usize;
        type Out = Trace;

        fn gather(&self, _: &[u32]) -> Option<Vec<Point<2>>> {
            None
        }

        fn leaf(&self, items: Span<'_, 2>, kind: Leaf) -> Trace {
            for (&i, p) in items.ids.iter().zip(items.pts) {
                assert_eq!(*p, self.points[i as usize], "a point left its id");
            }
            (vec![(kind, items.ids.to_vec())], Vec::new())
        }

        fn route(&self, slab: &mut Slab<'_, 2>, sep: &Separator<2>) -> Routing<usize> {
            if (self.refuse)(sep) {
                // Far from the unit square: every point is exterior.
                let far = Sphere::new(Point::splat(10.0), 0.5).into();
                return partition_points(slab, &far);
            }
            partition_points(slab, sep)
        }

        fn combine(
            &self,
            _: Span<'_, 2>,
            _: usize,
            node: Node<2>,
            mut l: Trace,
            r: Trace,
        ) -> Trace {
            l.0.extend(r.0);
            l.1.extend(r.1);
            l.1.push((node.outcome, node.rescued));
            l
        }
    }

    /// A backend that never proposes a cut.
    struct Never;

    impl Splitter<2, 3> for Never {
        fn split(&self, _: &[Point<2>], _: &SeparatorConfig, _: u64) -> Option<FoundSeparator<2>> {
            None
        }
    }

    /// [`RandomSphere`], counting the searches it runs.
    #[derive(Default)]
    struct Counted(AtomicUsize);

    impl Splitter<2, 3> for Counted {
        fn split(
            &self,
            p: &[Point<2>],
            cfg: &SeparatorConfig,
            seed: u64,
        ) -> Option<FoundSeparator<2>> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Splitter::<2, 3>::split(&RandomSphere, p, cfg, seed)
        }
    }

    /// [`RandomSphere`], recording the centers of every search.
    #[derive(Default)]
    struct Recorded(Mutex<Vec<Vec<Point<2>>>>);

    impl Splitter<2, 3> for Recorded {
        fn split(
            &self,
            p: &[Point<2>],
            cfg: &SeparatorConfig,
            seed: u64,
        ) -> Option<FoundSeparator<2>> {
            self.0.lock().unwrap().push(p.to_vec());
            Splitter::<2, 3>::split(&RandomSphere, p, cfg, seed)
        }
    }

    /// Drive `n` uniform points to leaves of at most 8.
    fn run(
        n: usize,
        rule: Rule<2, 3>,
        refuse: fn(&Separator<2>) -> bool,
        depth_limit: usize,
        strict_depth: bool,
    ) -> Result<Trace, SepdcError> {
        let (sep, obs) = (SeparatorConfig::default(), RunRecorder::disabled());
        let driver = Driver {
            rule,
            sep: &sep,
            obs: &obs,
            meter: None,
            leaf_size: 8,
            depth_limit,
            strict_depth,
            parallel_cutoff: 64,
        };
        let points = Workload::UniformCube.generate::<2>(n, 1);
        let (mut ids, mut pts): (Vec<u32>, _) = ((0..n as u32).collect(), points.clone());
        let slab = Slab {
            ids: &mut ids,
            pts: &mut pts,
            off: 0,
        };
        let trace = driver.run(&Probe { points, refuse }, slab, 7, 0)?;
        assert_eq!(trace.0.iter().map(|(_, ids)| ids.len()).sum::<usize>(), n);
        Ok(trace)
    }

    /// Drive `n` points under a fresh [`Counted`] backend; returns the
    /// trace and the number of backend searches.
    fn run_counted(n: usize, refuse: fn(&Separator<2>) -> bool) -> (Trace, usize) {
        let backend: &'static Counted = Box::leak(Box::default());
        let trace = run(n, Rule::Backend(backend), refuse, 64, false).unwrap();
        (trace, backend.0.load(Ordering::Relaxed))
    }

    #[test]
    fn small_nodes_take_the_halving_cut_without_a_backend_search() {
        let ((leaves, splits), searches) = run_counted(200, |_| false);
        assert_eq!(searches, 0);
        assert!(!splits.is_empty());
        assert!(splits.iter().all(|&s| s == (SearchOutcome::Halving, false)));
        assert!(leaves.iter().all(|(kind, _)| *kind == Leaf::Base));
    }

    #[test]
    fn nodes_at_the_cutoff_take_the_backend_cut_first() {
        // Only the root holds HALVING_FIRST_BELOW items; its children are
        // below the cutoff.
        let ((leaves, splits), searches) = run_counted(HALVING_FIRST_BELOW, |_| false);
        assert_eq!(searches, 1);
        let (root, below) = splits.split_last().unwrap();
        assert_eq!(*root, (SearchOutcome::Random, false));
        assert!(below.iter().all(|&s| s == (SearchOutcome::Halving, false)));
        assert!(leaves.iter().all(|(kind, _)| *kind == Leaf::Base));
    }

    #[test]
    fn one_sided_halving_cut_is_rescued_by_the_backend() {
        let planes = |s: &Separator<2>| matches!(s, Separator::Halfspace(_));
        let ((leaves, splits), searches) = run_counted(200, planes);
        assert_eq!(searches, splits.len());
        assert!(
            splits.iter().all(|&s| s == (SearchOutcome::Random, true)),
            "{splits:?}"
        );
        assert!(
            leaves.iter().all(|(kind, _)| *kind == Leaf::Base),
            "{leaves:?}"
        );
    }

    #[test]
    fn the_rescue_proposes_on_the_order_the_first_cut_saw() {
        // Below the cutoff the halving cut comes first. Refused, it routes
        // every point exterior, after which the slab is rotated by one;
        // the backend's rescue at the root must still sample the input
        // order.
        let backend: &'static Recorded = Box::leak(Box::default());
        let planes = |s: &Separator<2>| matches!(s, Separator::Halfspace(_));
        let (_, splits) = run(200, Rule::Backend(backend), planes, 64, false).unwrap();
        assert_eq!(splits.last(), Some(&(SearchOutcome::Random, true)));
        let seen = backend.0.lock().unwrap();
        assert_eq!(seen[0], Workload::UniformCube.generate::<2>(200, 1));
    }

    #[test]
    fn halving_cut_splits_when_the_rule_has_none() {
        // At the cutoff the root asks the backend first.
        let (leaves, splits) = run(
            HALVING_FIRST_BELOW,
            Rule::Backend(&Never),
            |_| false,
            64,
            false,
        )
        .unwrap();
        assert!(!splits.is_empty());
        assert!(splits.iter().all(|&s| s == (SearchOutcome::Halving, false)));
        assert!(leaves
            .iter()
            .all(|(kind, ids)| *kind == Leaf::Base && ids.len() <= 8));
    }

    #[test]
    fn one_sided_cut_is_rescued_by_the_halving_cut() {
        // At the cutoff the root's first cut is the backend's sphere.
        let spheres = |s: &Separator<2>| matches!(s, Separator::Sphere(_));
        let (leaves, splits) = run(
            HALVING_FIRST_BELOW,
            Rule::Backend(&RandomSphere),
            spheres,
            64,
            false,
        )
        .unwrap();
        assert!(splits.iter().any(|&(_, rescued)| rescued), "{splits:?}");
        assert!(
            leaves.iter().all(|(kind, _)| *kind == Leaf::Base),
            "{leaves:?}"
        );
    }

    #[test]
    fn no_progress_after_the_rescue_forces_a_leaf() {
        // Both cuts route every point exterior, and each such route leaves
        // the layout of the partition's swap walk: rotated left by one.
        let mut twice: Vec<u32> = (0..200).collect();
        twice.rotate_left(2);
        for rule in [Rule::Backend(&RandomSphere), Rule::MedianCycling] {
            let trace = run(200, rule, |_| true, 64, false).unwrap();
            assert_eq!(trace, (vec![(Leaf::Degenerate, twice.clone())], vec![]));
        }
    }

    #[test]
    fn depth_guard_forces_leaves_or_errors_when_strict() {
        let (leaves, splits) = run(200, Rule::MedianCycling, |_| false, 1, false).unwrap();
        assert_eq!(splits.len(), 1);
        assert!(leaves.iter().all(|(kind, _)| *kind == Leaf::DepthCapped));
        assert!(matches!(
            run(200, Rule::MedianCycling, |_| false, 1, true),
            Err(SepdcError::RecursionDepthExceeded { limit: 1 })
        ));
    }

    #[test]
    fn large_nodes_keep_the_sphere_where_the_halving_cut_crosses_every_ball() {
        // Why nodes at the cutoff ask the backend first: two far outliers
        // make the strip's width the widest axis, so the halving cut splits
        // the strip lengthwise and nearly every 4-NN ball crosses it. The
        // MTTV sphere crosses few.
        use rand::SeedableRng;
        let pts = sepdc_workloads::degenerate::outlier_strip::<2, _>(
            HALVING_FIRST_BELOW,
            0.01,
            &mut rand_chacha::ChaCha8Rng::seed_from_u64(1),
        );
        let knn = crate::kdtree::kdtree_all_knn(&pts, 4);
        let crossing = |sep: &Separator<2>| {
            (0..pts.len())
                .filter(|&i| sep.intersects_ball(&pts[i], knn.radius_sq(i).sqrt()))
                .count()
        };
        let halving = crossing(&halving_cut_widest(&pts).unwrap());
        let found = Splitter::<2, 3>::split(&RandomSphere, &pts, &SeparatorConfig::default(), 7);
        let sphere = crossing(&found.unwrap().separator);
        assert!(halving * 10 > pts.len() * 9, "halving crossing {halving}");
        assert!(
            sphere * 20 < halving,
            "sphere {sphere} vs halving {halving}"
        );
    }

    #[test]
    fn partition_points_replays_the_serial_walk_with_the_points_in_tow() {
        let sep: Separator<2> = Sphere::new(Point::from([0.4, 0.6]), 0.3).into();
        for n in [100, PARTITION_PAR_CUTOFF + 77] {
            let points = Workload::UniformCube.generate::<2>(n, 5);
            // The predicate-driven walk over ids that the layout must match.
            let mut want: Vec<u32> = (0..n as u32).collect();
            let (mut lo, mut hi) = (0, n);
            while lo < hi {
                if sep.side(&points[want[lo] as usize]).routes_interior() {
                    lo += 1;
                } else {
                    hi -= 1;
                    want.swap(lo, hi);
                }
            }
            let (mut ids, mut pts): (Vec<u32>, _) = ((0..n as u32).collect(), points.clone());
            let mut slab = Slab {
                ids: &mut ids,
                pts: &mut pts,
                off: 0,
            };
            assert!(matches!(partition_points(&mut slab, &sep), Routing::Split(nl) if nl == lo));
            assert_eq!(ids, want, "n = {n}");
            assert!(ids.iter().zip(&pts).all(|(&i, p)| *p == points[i as usize]));
        }
        // A one-sided cut moves nothing and flags the all-exterior case.
        let points = Workload::UniformCube.generate::<2>(50, 6);
        for (sphere, rotate) in [
            (Sphere::new(Point::splat(0.5), 2.0), false),
            (Sphere::new(Point::splat(9.0), 1.0), true),
        ] {
            let (mut ids, mut pts): (Vec<u32>, _) = ((0..50).collect(), points.clone());
            let mut slab = Slab {
                ids: &mut ids,
                pts: &mut pts,
                off: 0,
            };
            assert!(
                matches!(partition_points(&mut slab, &sphere.into()), Routing::OneSided { rotate: r } if r == rotate)
            );
            assert_eq!(ids, (0..50).collect::<Vec<u32>>());
            assert_eq!(pts, points);
        }
    }
}
