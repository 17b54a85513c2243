//! The partition tree produced by the separator-based recursion
//! (the `T` of Section 6), and the ball-marching machinery of Fast
//! Correction (Section 6.2).
//!
//! Internal nodes carry the separator chosen at that recursion step; leaves
//! carry the point ids solved by the base case. *Marching* a ball `B` down
//! the tree computes its set of **reachable** leaves (Lemma 6.3): the root
//! is reachable; from a reachable node, the left child is reachable when
//! `B` meets the separator or its interior, the right child when `B` meets
//! the separator or its exterior. Every point of the point set that lies
//! inside `B` sits in a reachable leaf, so the reachable leaves are a sound
//! candidate set for correcting `B`'s radius.
//!
//! The tree is arena-allocated: all nodes live in one contiguous `Vec` and
//! children are referred to by index, and all leaf point ids live in one
//! shared permutation array which each leaf addresses as a `(start, len)`
//! range. This removes per-node `Box`es and per-leaf `Vec`s, and makes
//! marching a pure array walk.

use rayon::prelude::*;
use sepdc_geom::aabb::Aabb;
use sepdc_geom::ball::Ball;
use sepdc_geom::shape::Separator;

/// One node of a [`PartitionTree`], referring to children by arena index
/// and to leaf points by a range of the tree's permutation array.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PartitionNode<const D: usize> {
    /// Internal node: the separator plus the two subtree indices.
    Internal {
        /// The separator chosen at this recursion step.
        sep: Separator<D>,
        /// Number of points below this node.
        size: u32,
        /// Arena index of the interior-side subtree.
        left: u32,
        /// Arena index of the exterior-side subtree.
        right: u32,
    },
    /// Leaf: base-case point ids, stored as `perm[start..start + len]`.
    Leaf {
        /// Start of this leaf's range in the permutation array.
        start: u32,
        /// Number of points at this leaf.
        len: u32,
    },
}

/// A partition tree in arena form: `nodes` holds every node with children
/// at strictly smaller indices than their parent (postorder) and the root
/// last; `perm` is a permutation of the point ids, tiled left-to-right by
/// the leaves.
pub struct PartitionTree<const D: usize> {
    nodes: Vec<PartitionNode<D>>,
    perm: Vec<u32>,
    /// Optional per-node bounding boxes, parallel to `nodes` (`bounds[i]`
    /// bounds every point in the subtree rooted at `i`). Present on trees
    /// built by the parallel recursion; marching uses them for ball-vs-box
    /// pruning.
    bounds: Option<Vec<Aabb<D>>>,
}

impl<const D: usize> PartitionTree<D> {
    /// Assemble a tree from its arena parts.
    ///
    /// Invariants (checked in debug builds): `nodes` is non-empty, every
    /// internal node's children have smaller indices than it (so the last
    /// node is the root), and every leaf range lies within `perm`.
    pub fn from_parts(nodes: Vec<PartitionNode<D>>, perm: Vec<u32>) -> Self {
        assert!(!nodes.is_empty(), "a tree has at least one node");
        #[cfg(debug_assertions)]
        for (i, n) in nodes.iter().enumerate() {
            match *n {
                PartitionNode::Internal { left, right, .. } => {
                    debug_assert!((left as usize) < i && (right as usize) < i);
                }
                PartitionNode::Leaf { start, len } => {
                    debug_assert!((start + len) as usize <= perm.len());
                }
            }
        }
        PartitionTree {
            nodes,
            perm,
            bounds: None,
        }
    }

    /// Assemble a tree with per-node bounding boxes (`bounds[i]` must
    /// bound every point of the subtree rooted at node `i`).
    ///
    /// # Panics
    /// Panics when `bounds` is not parallel to `nodes`.
    pub fn from_parts_with_bounds(
        nodes: Vec<PartitionNode<D>>,
        perm: Vec<u32>,
        bounds: Vec<Aabb<D>>,
    ) -> Self {
        assert_eq!(nodes.len(), bounds.len(), "bounds must parallel nodes");
        let mut t = Self::from_parts(nodes, perm);
        t.bounds = Some(bounds);
        t
    }

    /// Per-node bounding boxes, when the tree carries them.
    pub fn bounds(&self) -> Option<&[Aabb<D>]> {
        self.bounds.as_deref()
    }

    /// Arena index of the root (always the last node).
    pub fn root(&self) -> u32 {
        (self.nodes.len() - 1) as u32
    }

    /// The node at arena index `id`.
    pub fn node(&self, id: u32) -> &PartitionNode<D> {
        &self.nodes[id as usize]
    }

    /// All nodes, children before parents, root last.
    pub fn nodes(&self) -> &[PartitionNode<D>] {
        &self.nodes
    }

    /// The point ids of a leaf range (as stored in a [`PartitionNode::Leaf`]).
    pub fn leaf_point_ids(&self, start: u32, len: u32) -> &[u32] {
        &self.perm[start as usize..(start + len) as usize]
    }

    /// The whole permutation array (point ids tiled left-to-right by leaf
    /// order) — the flat column the snapshot writer serializes.
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// Number of points in the tree.
    pub fn size(&self) -> usize {
        match self.nodes[self.root() as usize] {
            PartitionNode::Internal { size, .. } => size as usize,
            PartitionNode::Leaf { len, .. } => len as usize,
        }
    }

    /// Height in edges (leaf = 0). One bottom-up pass over the arena —
    /// children precede parents, so each node's height is ready when
    /// visited.
    pub fn height(&self) -> usize {
        let mut h = vec![0usize; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if let PartitionNode::Internal { left, right, .. } = n {
                h[i] = 1 + h[*left as usize].max(h[*right as usize]);
            }
        }
        h[self.root() as usize]
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, PartitionNode::Leaf { .. }))
            .count()
    }

    /// All point ids, in leaf order (explicit depth-first walk from the
    /// root, left before right).
    pub fn collect_point_ids(&self, out: &mut Vec<u32>) {
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            match self.nodes[id as usize] {
                PartitionNode::Leaf { start, len } => {
                    out.extend_from_slice(self.leaf_point_ids(start, len));
                }
                PartitionNode::Internal { left, right, .. } => {
                    // Right pushed first so left is visited first.
                    stack.push(right);
                    stack.push(left);
                }
            }
        }
    }
}

/// Result of marching a batch of balls down a partition tree.
#[derive(Clone, Debug)]
pub struct MarchOutcome {
    /// For each input ball, the point ids found in its reachable leaves.
    /// Meaningful only when `aborted` is false.
    pub candidates: Vec<Vec<u32>>,
    /// Largest number of active (ball, node) pairs at any level — the
    /// quantity Lemma 6.2 bounds by `m^{1-η}` w.h.p.
    pub max_active_per_level: usize,
    /// Number of levels marched.
    pub levels: usize,
    /// Total (ball, node) steps — the marching work.
    pub total_steps: u64,
    /// Subtrees a ball would have descended into by the separator
    /// predicates alone, skipped because the ball misses the subtree's
    /// bounding box (0 when the tree carries no bounds).
    pub pruned: u64,
    /// `true` when the active-ball limit was exceeded and the march was
    /// abandoned (the caller must punt).
    pub aborted: bool,
}

/// March `balls` down `tree` level-synchronously, collecting for each ball
/// the point ids in its reachable leaves. Aborts (returning
/// `aborted = true`) as soon as a level holds more than `active_limit`
/// active pairs — the "unlucky" event of Lemma 6.2 that triggers a punt.
pub fn march_balls<const D: usize>(
    tree: &PartitionTree<D>,
    balls: &[Ball<D>],
    active_limit: usize,
) -> MarchOutcome {
    let bounds = tree.bounds.as_deref();
    march_arena(
        &tree.nodes,
        tree.root(),
        balls,
        active_limit,
        bounds,
        balls.len(),
    )
    .expand(&tree.perm, balls.len())
}

/// [`march_balls`] with AABB pruning disabled even when the tree carries
/// bounds. The pruned and unpruned marches agree on every in-ball
/// candidate (pruning only removes subtrees whose box the ball misses, and
/// such subtrees cannot contain in-ball points) — the soundness tests pin
/// this equivalence. A test reference only, hence hidden.
#[doc(hidden)]
pub fn march_balls_unpruned<const D: usize>(
    tree: &PartitionTree<D>,
    balls: &[Ball<D>],
    active_limit: usize,
) -> MarchOutcome {
    march_arena(
        &tree.nodes,
        tree.root(),
        balls,
        active_limit,
        None,
        balls.len(),
    )
    .expand(&tree.perm, balls.len())
}

/// One reachable leaf of a marched ball: the ball's index in its batch and
/// the leaf's `start..start + len` range of the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Hit {
    pub ball: u32,
    pub start: u32,
    pub len: u32,
}

/// A march reported as leaf hits: what Fast Correction reads, since a
/// leaf's points and ids are contiguous ranges of the arena. The fields
/// other than `hits` are [`MarchOutcome`]'s.
pub(crate) struct March {
    /// Every reachable (ball, leaf) pair, each ball's in the order its
    /// march reaches them. Empty when `aborted`.
    pub hits: Vec<Hit>,
    pub max_active_per_level: usize,
    pub levels: usize,
    pub total_steps: u64,
    pub pruned: u64,
    pub aborted: bool,
}

impl March {
    /// The [`MarchOutcome`] of these hits: each ball's leaf ranges of
    /// `perm`, concatenated.
    fn expand(self, perm: &[u32], balls: usize) -> MarchOutcome {
        let mut candidates = vec![Vec::new(); balls];
        for h in &self.hits {
            let range = h.start as usize..(h.start + h.len) as usize;
            candidates[h.ball as usize].extend_from_slice(&perm[range]);
        }
        MarchOutcome {
            candidates,
            max_active_per_level: self.max_active_per_level,
            levels: self.levels,
            total_steps: self.total_steps,
            pruned: self.pruned,
            aborted: self.aborted,
        }
    }
}

/// One chunk's share of a march: loop-top frontier sizes per level (the
/// aborting level's size included when `aborted`), pruned subtrees per
/// *expanded* level, and the chunk's hits.
struct MarchChunkOutcome {
    hits: Vec<Hit>,
    actives: Vec<u64>,
    pruned: Vec<u64>,
    aborted: bool,
}

/// March one contiguous chunk of balls, whose first is ball `first` of the
/// batch, level-synchronously from `root`, recording per-level accounting
/// so [`march_arena`] can reconstruct the whole batch's numbers exactly.
/// Each ball's BFS depends only on that ball, so a level-`l` frontier of
/// the whole batch is the disjoint union of the chunks' level-`l`
/// frontiers — per-level sums over chunks *are* the batch's counts. The
/// chunk still aborts at the full `active_limit` (its frontier is a subset
/// of the combined one, so exceeding it proves a combined abort) to bound
/// speculative work on punting nodes.
fn march_chunk<const D: usize>(
    nodes: &[PartitionNode<D>],
    root: u32,
    balls: &[Ball<D>],
    first: u32,
    active_limit: usize,
    bounds: Option<&[Aabb<D>]>,
) -> MarchChunkOutcome {
    let mut hits = Vec::new();
    let mut frontier: Vec<(u32, u32)> = (0..balls.len()).map(|b| (root, b as u32)).collect();
    let mut actives: Vec<u64> = Vec::new();
    let mut pruned: Vec<u64> = Vec::new();
    let mut aborted = false;
    let mut next: Vec<(u32, u32)> = Vec::new();

    while !frontier.is_empty() {
        actives.push(frontier.len() as u64);
        if frontier.len() > active_limit {
            aborted = true;
            break;
        }
        let mut level_pruned = 0u64;
        next.clear();
        next.reserve(frontier.len() * 2);
        for &(node, b) in &frontier {
            let ball = &balls[b as usize];
            match nodes[node as usize] {
                PartitionNode::Leaf { start, len } => hits.push(Hit {
                    ball: first + b,
                    start,
                    len,
                }),
                PartitionNode::Internal {
                    ref sep,
                    left,
                    right,
                    ..
                } => {
                    // Ball-vs-box rejection: a child whose subtree box the
                    // ball misses cannot contain an in-ball point, so
                    // skipping it never loses a candidate that could pass
                    // the strict `d < r^2` merge test downstream. Sound for
                    // empty boxes too (distance +inf => always pruned, and
                    // an empty subtree has no candidates).
                    for (reaches, child) in [
                        (ball.touches_interior_of(sep), left),
                        (ball.touches_exterior_of(sep), right),
                    ] {
                        if !reaches {
                            continue;
                        }
                        if let Some(bs) = bounds {
                            if !bs[child as usize].intersects_ball(ball) {
                                level_pruned += 1;
                                continue;
                            }
                        }
                        next.push((child, b));
                    }
                }
            }
        }
        pruned.push(level_pruned);
        std::mem::swap(&mut frontier, &mut next);
    }
    MarchChunkOutcome {
        hits,
        actives,
        pruned,
        aborted,
    }
}

/// March `balls` down the subtree of the arena `nodes` rooted at `root`,
/// level-synchronously, in chunks of `chunk_size` balls marched
/// independently (on the pool when there is more than one). The chunks'
/// per-level accounting recombines into one batch march's exact numbers:
/// the march aborts at the first level whose *summed* frontier exceeds
/// `active_limit`, `total_steps`/`pruned` count only levels strictly
/// before it, and on success every field, and each ball's hits in order,
/// is the same for any `chunk_size` (pinned by tests).
///
/// The subtree need not be assembled into a [`PartitionTree`]: the §6
/// recursion marches a node's child arena, whose leaf ranges index that
/// node's own slice of the arena.
pub(crate) fn march_arena<const D: usize>(
    nodes: &[PartitionNode<D>],
    root: u32,
    balls: &[Ball<D>],
    active_limit: usize,
    bounds: Option<&[Aabb<D>]>,
    chunk_size: usize,
) -> March {
    if balls.len() > active_limit {
        // Level-0 abort: nothing is expanded.
        return March {
            hits: Vec::new(),
            max_active_per_level: balls.len(),
            levels: 0,
            total_steps: 0,
            pruned: 0,
            aborted: true,
        };
    }
    let chunk_size = chunk_size.max(1);
    let chunks: Vec<MarchChunkOutcome> = if balls.len() <= chunk_size {
        vec![march_chunk(nodes, root, balls, 0, active_limit, bounds)]
    } else {
        balls
            .par_chunks(chunk_size)
            .enumerate()
            .map(|(c, part)| {
                let first = (c * chunk_size) as u32;
                march_chunk(nodes, root, part, first, active_limit, bounds)
            })
            .collect()
    };
    let max_levels = chunks.iter().map(|c| c.actives.len()).max().unwrap_or(0);
    let mut sum_act = vec![0u64; max_levels];
    let mut sum_pruned = vec![0u64; max_levels];
    for c in &chunks {
        for (l, &a) in c.actives.iter().enumerate() {
            sum_act[l] += a;
        }
        for (l, &p) in c.pruned.iter().enumerate() {
            sum_pruned[l] += p;
        }
    }
    if let Some(l) = sum_act.iter().position(|&a| a > active_limit as u64) {
        return March {
            hits: Vec::new(),
            max_active_per_level: sum_act[l] as usize,
            levels: l,
            total_steps: sum_act[..l].iter().sum(),
            pruned: sum_pruned[..l].iter().sum(),
            aborted: true,
        };
    }
    // A chunk abort implies its own level sum already exceeded the limit,
    // which the combined scan above would have caught.
    debug_assert!(chunks.iter().all(|c| !c.aborted));
    let mut hits = Vec::with_capacity(chunks.iter().map(|c| c.hits.len()).sum());
    for c in chunks {
        hits.extend(c.hits);
    }
    March {
        hits,
        max_active_per_level: sum_act.iter().copied().max().unwrap_or(0) as usize,
        levels: max_levels,
        total_steps: sum_act.iter().sum(),
        pruned: sum_pruned.iter().sum(),
        aborted: false,
    }
}

/// Ball-count floor below which the march is always one chunk: the
/// chunked driver's per-chunk frontier allocations cost more than the
/// march itself on tiny crossing sets.
const MARCH_PAR_MIN_BALLS: usize = 64;

/// Thread-count-oblivious march driver: one chunk on small batches or a
/// one-worker pool, ~4 chunks per worker otherwise. Legal to gate on the
/// pool size because [`march_arena`]'s output does not depend on the
/// chunking.
pub(crate) fn march_arena_par<const D: usize>(
    nodes: &[PartitionNode<D>],
    root: u32,
    balls: &[Ball<D>],
    active_limit: usize,
    bounds: Option<&[Aabb<D>]>,
) -> March {
    let threads = rayon::current_num_threads();
    let chunk = if balls.len() < MARCH_PAR_MIN_BALLS || threads <= 1 {
        balls.len()
    } else {
        // ~4 chunks per worker for load balance, floored so degenerate
        // splits never schedule per-ball tasks.
        balls.len().div_ceil(4 * threads).max(8)
    };
    march_arena(nodes, root, balls, active_limit, bounds, chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepdc_geom::point::Point;
    use sepdc_geom::sphere::Sphere;
    use sepdc_geom::Hyperplane;

    /// Hand-built tree over points 0..8 on a line, split at x = 4, then at
    /// x = 2 and x = 6. Arena layout (postorder, root last):
    /// leaves [0,1] [2,3] at 0/1, cut-2 at 2, leaves [4,5] [6,7] at 3/4,
    /// cut-6 at 5, root cut-4 at 6.
    fn line_tree() -> PartitionTree<1> {
        let leaf = |start: u32| PartitionNode::Leaf { start, len: 2 };
        let cut = |x: f64, size: u32, left: u32, right: u32| PartitionNode::Internal {
            sep: Separator::Halfspace(Hyperplane::axis_aligned(0, x)),
            size,
            left,
            right,
        };
        PartitionTree::from_parts(
            vec![
                leaf(0),
                leaf(2),
                cut(2.0, 4, 0, 1),
                leaf(4),
                leaf(6),
                cut(6.0, 4, 3, 4),
                cut(4.0, 8, 2, 5),
            ],
            (0..8).collect(),
        )
    }

    #[test]
    fn structure_queries() {
        let t = line_tree();
        assert_eq!(t.height(), 2);
        assert_eq!(t.leaves(), 4);
        assert_eq!(t.size(), 8);
        let mut ids = Vec::new();
        t.collect_point_ids(&mut ids);
        assert_eq!(ids, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn small_ball_reaches_one_leaf() {
        let t = line_tree();
        // Ball at x=1, r=0.4: only the [0,1] leaf is reachable.
        let balls = vec![Ball::new(Point::<1>::from([1.0]), 0.4)];
        let out = march_balls(&t, &balls, 100);
        assert!(!out.aborted);
        assert_eq!(out.candidates[0], vec![0, 1]);
        assert_eq!(out.levels, 3);
    }

    #[test]
    fn straddling_ball_reaches_both_sides() {
        let t = line_tree();
        // Ball at x=4, r=0.5 crosses the root cut: reaches leaves around 4.
        let balls = vec![Ball::new(Point::<1>::from([4.0]), 0.5)];
        let out = march_balls(&t, &balls, 100);
        assert!(!out.aborted);
        // Reaches [2,3] (interior side, then its right leaf) and [4,5].
        let mut c = out.candidates[0].clone();
        c.sort_unstable();
        assert_eq!(c, vec![2, 3, 4, 5]);
    }

    #[test]
    fn huge_ball_reaches_everything() {
        let t = line_tree();
        let balls = vec![Ball::new(Point::<1>::from([4.0]), 100.0)];
        let out = march_balls(&t, &balls, 100);
        let mut c = out.candidates[0].clone();
        c.sort_unstable();
        assert_eq!(c, (0..8).collect::<Vec<u32>>());
        assert_eq!(out.max_active_per_level, 4, "duplicated at each level");
    }

    #[test]
    fn reachability_covers_contained_points() {
        // Soundness property: every point inside the ball appears among
        // the candidates, for a tree with sphere separators.
        let pts: Vec<Point<2>> = (0..16)
            .map(|i| Point::from([(i % 4) as f64, (i / 4) as f64]))
            .collect();
        // Sphere around (1.5, 1.5) radius 1.2 as root; children leaves by
        // the actual side of each point.
        let sep: Separator<2> = Sphere::new(Point::from([1.5, 1.5]), 1.2).into();
        let mut perm = Vec::new();
        let mut right_ids = Vec::new();
        for (i, p) in pts.iter().enumerate() {
            if sep.side(p).routes_interior() {
                perm.push(i as u32);
            } else {
                right_ids.push(i as u32);
            }
        }
        let nl = perm.len() as u32;
        perm.extend_from_slice(&right_ids);
        let t = PartitionTree::from_parts(
            vec![
                PartitionNode::Leaf { start: 0, len: nl },
                PartitionNode::Leaf {
                    start: nl,
                    len: 16 - nl,
                },
                PartitionNode::Internal {
                    sep,
                    size: 16,
                    left: 0,
                    right: 1,
                },
            ],
            perm,
        );
        let ball = Ball::new(Point::from([2.0, 2.0]), 1.5);
        let out = march_balls(&t, std::slice::from_ref(&ball), 100);
        for (i, p) in pts.iter().enumerate() {
            if ball.contains(p) {
                assert!(
                    out.candidates[0].contains(&(i as u32)),
                    "point {i} in ball but not a candidate"
                );
            }
        }
    }

    #[test]
    fn abort_on_active_limit() {
        let t = line_tree();
        let balls: Vec<Ball<1>> = (0..50)
            .map(|i| Ball::new(Point::from([i as f64 * 0.1]), 50.0))
            .collect();
        let out = march_balls(&t, &balls, 60);
        assert!(out.aborted, "50 huge balls duplicate past 60 actives");
    }

    #[test]
    fn empty_ball_batch() {
        let t = line_tree();
        let out = march_balls(&t, &[], 10);
        assert!(!out.aborted);
        assert_eq!(out.levels, 0);
        assert!(out.candidates.is_empty());
        assert_eq!(out.pruned, 0);
    }

    /// `line_tree` with correct per-subtree boxes (points 0..8 at x = i).
    fn line_tree_with_bounds() -> PartitionTree<1> {
        let t = line_tree();
        let span = |a: f64, b: f64| Aabb {
            lo: Point::<1>::from([a]),
            hi: Point::from([b]),
        };
        let bounds = vec![
            span(0.0, 1.0),
            span(2.0, 3.0),
            span(0.0, 3.0),
            span(4.0, 5.0),
            span(6.0, 7.0),
            span(4.0, 7.0),
            span(0.0, 7.0),
        ];
        let mut perm = Vec::new();
        t.collect_point_ids(&mut perm);
        let nodes = vec![
            PartitionNode::Leaf { start: 0, len: 2 },
            PartitionNode::Leaf { start: 2, len: 2 },
            clone_internal(t.node(2)),
            PartitionNode::Leaf { start: 4, len: 2 },
            PartitionNode::Leaf { start: 6, len: 2 },
            clone_internal(t.node(5)),
            clone_internal(t.node(6)),
        ];
        PartitionTree::from_parts_with_bounds(nodes, perm, bounds)
    }

    fn clone_internal(n: &PartitionNode<1>) -> PartitionNode<1> {
        match n {
            PartitionNode::Internal {
                sep,
                size,
                left,
                right,
            } => PartitionNode::Internal {
                sep: *sep,
                size: *size,
                left: *left,
                right: *right,
            },
            PartitionNode::Leaf { start, len } => PartitionNode::Leaf {
                start: *start,
                len: *len,
            },
        }
    }

    #[test]
    fn pruned_march_skips_unreachable_boxes_but_keeps_in_ball_points() {
        let t = line_tree_with_bounds();
        // Ball at x=4.5, r=1: the root's halfspace predicates send it both
        // ways, but the left subtree's box [0,3] is 1.5 away — pruned.
        let balls = vec![Ball::new(Point::<1>::from([4.5]), 1.0)];
        let pruned = march_balls(&t, &balls, 100);
        let full = march_balls_unpruned(&t, &balls, 100);
        assert!(!pruned.aborted && !full.aborted);
        assert!(pruned.pruned > 0, "left subtree should be pruned");
        assert_eq!(full.pruned, 0, "unpruned march never prunes");
        assert!(pruned.total_steps < full.total_steps);
        // Every candidate the pruned march keeps is also in the full set,
        // and every *in-ball* point survives the pruning.
        for c in &pruned.candidates[0] {
            assert!(full.candidates[0].contains(c));
        }
        for i in 0u32..8 {
            let p = Point::<1>::from([i as f64]);
            if balls[0].contains(&p) {
                assert!(pruned.candidates[0].contains(&i), "lost in-ball point {i}");
            }
        }
    }

    #[test]
    fn bounds_absent_means_no_pruning() {
        let t = line_tree();
        assert!(t.bounds().is_none());
        let balls = vec![Ball::new(Point::<1>::from([4.5]), 1.0)];
        let out = march_balls(&t, &balls, 100);
        assert_eq!(out.pruned, 0);
    }

    /// A mixed batch exercising every march behavior on `line_tree`: tiny
    /// balls (one leaf), straddlers, huge balls (every leaf), empty balls.
    fn mixed_balls() -> Vec<Ball<1>> {
        (0..40)
            .map(|i| {
                let x = (i % 11) as f64 * 0.8 - 1.0;
                let r = match i % 4 {
                    0 => 0.3,
                    1 => 1.5,
                    2 => 9.0,
                    _ => 0.0,
                };
                Ball::new(Point::<1>::from([x]), r)
            })
            .collect()
    }

    /// [`march_arena`] over the whole of `t` in chunks of `chunk` balls.
    fn chunked(
        t: &PartitionTree<1>,
        balls: &[Ball<1>],
        limit: usize,
        bounds: bool,
        chunk: usize,
    ) -> MarchOutcome {
        let bounds = t.bounds.as_deref().filter(|_| bounds);
        march_arena(&t.nodes, t.root(), balls, limit, bounds, chunk).expand(&t.perm, balls.len())
    }

    #[test]
    fn chunked_march_matches_monolithic_on_success() {
        for (t, label) in [(line_tree(), "plain"), (line_tree_with_bounds(), "boxed")] {
            let balls = mixed_balls();
            let serial = march_balls(&t, &balls, 1000);
            assert!(!serial.aborted);
            for chunk in [1usize, 3, 7, 16, 40, 100] {
                let par = chunked(&t, &balls, 1000, true, chunk);
                assert!(!par.aborted, "{label} chunk {chunk}");
                assert_eq!(par.candidates, serial.candidates, "{label} chunk {chunk}");
                assert_eq!(
                    par.max_active_per_level, serial.max_active_per_level,
                    "{label} chunk {chunk}"
                );
                assert_eq!(par.levels, serial.levels, "{label} chunk {chunk}");
                assert_eq!(par.total_steps, serial.total_steps, "{label} chunk {chunk}");
                assert_eq!(par.pruned, serial.pruned, "{label} chunk {chunk}");
            }
        }
    }

    #[test]
    fn chunked_march_abort_accounting_matches_monolithic() {
        // 50 huge balls against limit 60: the frontier doubles past the
        // limit mid-march, and every accounting field the meter ingests
        // (total_steps, pruned, max_active, levels) must equal the
        // monolithic abort's, whatever the chunking.
        let t = line_tree();
        let balls: Vec<Ball<1>> = (0..50)
            .map(|i| Ball::new(Point::from([i as f64 * 0.1]), 50.0))
            .collect();
        let serial = march_balls(&t, &balls, 60);
        assert!(serial.aborted);
        for chunk in [1usize, 4, 13, 50] {
            let par = chunked(&t, &balls, 60, false, chunk);
            assert!(par.aborted, "chunk {chunk}");
            assert_eq!(
                par.max_active_per_level, serial.max_active_per_level,
                "chunk {chunk}"
            );
            assert_eq!(par.levels, serial.levels, "chunk {chunk}");
            assert_eq!(par.total_steps, serial.total_steps, "chunk {chunk}");
            assert_eq!(par.pruned, serial.pruned, "chunk {chunk}");
        }
        // Level-0 abort: more balls than the limit allows before any step.
        let par0 = chunked(&t, &balls, 10, false, 7);
        let ser0 = march_balls(&t, &balls, 10);
        assert!(par0.aborted && ser0.aborted);
        assert_eq!(par0.total_steps, ser0.total_steps);
        assert_eq!(par0.max_active_per_level, ser0.max_active_per_level);
        assert_eq!(par0.levels, ser0.levels);
    }
}
