//! Sphere separators applied to the k-NN graph.
//!
//! The abstract's punchline: *"given n points in d dimensions we construct
//! the k-nearest neighbor graph, a 'nicely' embedded graph in d
//! dimensions"* — i.e. the constructed graph has small geometric
//! separators by the MTTV theory (§1: "there is a o(n) size subset of
//! vertices W such that every edge crossing S has one end point in W").
//! This module computes such vertex separators from a sphere separator,
//! closing the loop from point set → k-NN graph → graph partition. It
//! partitions graphs only; the D&C recursions cut their nodes through
//! [`crate::splitter`].

use crate::graph::KnnGraph;
use rand::Rng;
use sepdc_geom::point::Point;
use sepdc_geom::shape::Separator;
use sepdc_separator::{find_good_separator, SeparatorConfig};

/// A vertex separator of a k-NN graph derived from a geometric separator.
#[derive(Clone, Debug)]
pub struct GraphSeparator {
    /// Number of graph edges whose endpoints lie on opposite sides of the
    /// geometric separator; each contributes one endpoint to `separator`.
    pub cut_edges: usize,
    /// Vertices removed: one endpoint of every cut edge.
    pub separator: Vec<u32>,
    /// Interior-side vertices not in the separator.
    pub side_a: Vec<u32>,
    /// Exterior-side vertices not in the separator.
    pub side_b: Vec<u32>,
}

impl GraphSeparator {
    /// Balance of the split: `max(|A|, |B|) / (|A| + |B|)`.
    pub fn balance(&self) -> f64 {
        let a = self.side_a.len();
        let b = self.side_b.len();
        if a + b == 0 {
            return 1.0;
        }
        a.max(b) as f64 / (a + b) as f64
    }

    /// Verify the separator property against the graph: after removing
    /// `separator`, no edge connects `side_a` to `side_b`.
    pub fn verify(&self, graph: &KnnGraph) -> Result<(), (u32, u32)> {
        let n = graph.num_vertices();
        let mut side = vec![0u8; n]; // 0 = separator, 1 = A, 2 = B
        for &v in &self.side_a {
            side[v as usize] = 1;
        }
        for &v in &self.side_b {
            side[v as usize] = 2;
        }
        for &v in &self.separator {
            side[v as usize] = 0;
        }
        for &(a, b) in graph.edges() {
            if side[a as usize] != 0
                && side[b as usize] != 0
                && side[a as usize] != side[b as usize]
            {
                return Err((a, b));
            }
        }
        Ok(())
    }
}

/// Derive a vertex separator of `graph` from an explicit geometric
/// separator: vertices are split by side; every cut edge contributes its
/// interior-side endpoint to `W`.
pub fn vertex_separator_from<const D: usize>(
    points: &[Point<D>],
    graph: &KnnGraph,
    sep: &Separator<D>,
) -> GraphSeparator {
    let n = graph.num_vertices();
    assert_eq!(points.len(), n);
    let interior: Vec<bool> = points
        .iter()
        .map(|p| sep.side(p).routes_interior())
        .collect();
    let mut in_w = vec![false; n];
    let mut cut_edges = 0;
    for &(a, b) in graph.edges() {
        if interior[a as usize] != interior[b as usize] {
            cut_edges += 1;
            // Take the interior endpoint into W.
            let w = if interior[a as usize] { a } else { b };
            in_w[w as usize] = true;
        }
    }
    let mut separator = Vec::new();
    let mut side_a = Vec::new();
    let mut side_b = Vec::new();
    for v in 0..n as u32 {
        if in_w[v as usize] {
            separator.push(v);
        } else if interior[v as usize] {
            side_a.push(v);
        } else {
            side_b.push(v);
        }
    }
    GraphSeparator {
        cut_edges,
        separator,
        side_a,
        side_b,
    }
}

/// Find a sphere-based vertex separator of the k-NN graph: draw good
/// geometric separators with the §2 machinery and keep the one with the
/// smallest `W` among `tries` draws. Returns `None` when the point set
/// cannot be split.
pub fn sphere_graph_separator<const D: usize, const E: usize, R: Rng>(
    points: &[Point<D>],
    graph: &KnnGraph,
    cfg: &SeparatorConfig,
    tries: usize,
    rng: &mut R,
) -> Option<GraphSeparator> {
    let mut best: Option<GraphSeparator> = None;
    for _ in 0..tries.max(1) {
        let found = find_good_separator::<D, E, _>(points, cfg, rng)?;
        let gs = vertex_separator_from(points, graph, &found.separator);
        if best
            .as_ref()
            .is_none_or(|b| gs.separator.len() < b.separator.len())
        {
            best = Some(gs);
        }
    }
    best
}

/// Recursive sphere-separator bisection of a k-NN graph into `parts`
/// blocks (`parts` rounded up to a power of two internally; small residual
/// blocks are possible on degenerate inputs). Returns the block id of each
/// vertex and the number of edges whose endpoints ended in different
/// blocks — the classical geometric-partitioning application of the
/// separator machinery.
pub fn recursive_bisection<const D: usize, const E: usize, R: Rng>(
    points: &[Point<D>],
    graph: &KnnGraph,
    parts: usize,
    cfg: &SeparatorConfig,
    rng: &mut R,
) -> (Vec<u32>, usize) {
    assert!(parts >= 1);
    let n = points.len();
    let mut block = vec![0u32; n];
    let levels = parts.next_power_of_two().trailing_zeros();
    let mut next_block = 1u32;
    // Work queue of (vertex subset, block id, remaining levels).
    let mut queue: Vec<(Vec<u32>, u32, u32)> = vec![((0..n as u32).collect(), 0, levels)];
    while let Some((ids, b, lv)) = queue.pop() {
        if lv == 0 || ids.len() < 2 {
            continue;
        }
        let sub: Vec<Point<D>> = ids.iter().map(|&i| points[i as usize]).collect();
        let Some(found) = find_good_separator::<D, E, _>(&sub, cfg, rng) else {
            continue;
        };
        let mut left = Vec::new();
        let mut right = Vec::new();
        for &i in &ids {
            if found.separator.side(&points[i as usize]).routes_interior() {
                left.push(i);
            } else {
                right.push(i);
            }
        }
        let rb = next_block;
        next_block += 1;
        for &i in &right {
            block[i as usize] = rb;
        }
        queue.push((left, b, lv - 1));
        queue.push((right, rb, lv - 1));
    }
    let cut = graph
        .edges()
        .iter()
        .filter(|&&(a, b)| block[a as usize] != block[b as usize])
        .count();
    (block, cut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_knn;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sepdc_geom::Hyperplane;
    use sepdc_workloads::Workload;

    fn knn_graph(n: usize, k: usize, w: Workload, seed: u64) -> (Vec<Point<2>>, KnnGraph) {
        let pts = w.generate::<2>(n, seed);
        let g = KnnGraph::from_knn(&brute_force_knn(&pts, k));
        (pts, g)
    }

    #[test]
    fn separator_property_holds_by_construction() {
        let (pts, g) = knn_graph(500, 2, Workload::UniformCube, 1);
        let sep: Separator<2> = Hyperplane::axis_aligned(0, 0.5).into();
        let gs = vertex_separator_from(&pts, &g, &sep);
        gs.verify(&g).expect("separator property violated");
        assert_eq!(gs.separator.len() + gs.side_a.len() + gs.side_b.len(), 500);
    }

    #[test]
    fn sphere_separator_is_sublinear_on_uniform() {
        let (pts, g) = knn_graph(2000, 1, Workload::UniformCube, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let gs =
            sphere_graph_separator::<2, 3, _>(&pts, &g, &SeparatorConfig::default(), 4, &mut rng)
                .unwrap();
        gs.verify(&g).unwrap();
        // o(n): comfortably below n/4, around O(√n) in practice.
        assert!(
            gs.separator.len() < 500,
            "separator size {} not sublinear",
            gs.separator.len()
        );
        assert!(gs.balance() <= 0.90, "balance {}", gs.balance());
    }

    #[test]
    fn separator_beats_hyperplane_on_two_slabs() {
        let (pts, g) = knn_graph(1000, 1, Workload::TwoSlabs, 4);
        // The bad hyperplane: cuts between the slabs — W is huge.
        let bad: Separator<2> = Hyperplane::axis_aligned(1, 0.05 / 500.0).into();
        let bad_gs = vertex_separator_from(&pts, &g, &bad);
        bad_gs.verify(&g).unwrap();
        assert!(bad_gs.separator.len() > 400, "bad cut should be ~n/2");

        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let good =
            sphere_graph_separator::<2, 3, _>(&pts, &g, &SeparatorConfig::default(), 4, &mut rng)
                .unwrap();
        good.verify(&g).unwrap();
        assert!(
            good.separator.len() * 4 < bad_gs.separator.len(),
            "sphere W = {} not much smaller than bad hyperplane W = {}",
            good.separator.len(),
            bad_gs.separator.len()
        );
    }

    #[test]
    fn recursive_bisection_partitions_with_small_cut() {
        let (pts, g) = knn_graph(1200, 2, Workload::UniformCube, 9);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let (block, cut) =
            recursive_bisection::<2, 3, _>(&pts, &g, 4, &SeparatorConfig::default(), &mut rng);
        // Every vertex has a block; exactly 4 blocks used; roughly balanced.
        let mut counts = std::collections::HashMap::new();
        for &b in &block {
            *counts.entry(b).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 4);
        for &c in counts.values() {
            assert!(c > 100, "block too small: {c}");
        }
        // Cut is far below the edge count.
        assert!(
            cut * 4 < g.num_edges(),
            "cut {cut} too large vs {} edges",
            g.num_edges()
        );
    }

    #[test]
    fn recursive_bisection_single_part_is_trivial() {
        let (pts, g) = knn_graph(100, 1, Workload::UniformCube, 11);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let (block, cut) =
            recursive_bisection::<2, 3, _>(&pts, &g, 1, &SeparatorConfig::default(), &mut rng);
        assert!(block.iter().all(|&b| b == 0));
        assert_eq!(cut, 0);
    }

    #[test]
    fn unsplittable_returns_none() {
        let pts = vec![Point::<2>::splat(1.0); 50];
        let g = KnnGraph::from_knn(&brute_force_knn(&pts, 1));
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let cfg = SeparatorConfig {
            max_attempts: 2,
            ..Default::default()
        };
        assert!(sphere_graph_separator::<2, 3, _>(&pts, &g, &cfg, 2, &mut rng).is_none());
    }

    #[test]
    fn empty_sides_are_fine() {
        // A sphere containing everything: side_b empty, W empty.
        let (pts, g) = knn_graph(100, 1, Workload::UniformCube, 7);
        let sep: Separator<2> = sepdc_geom::Sphere::new(Point::from([0.5, 0.5]), 100.0).into();
        let gs = vertex_separator_from(&pts, &g, &sep);
        assert_eq!(gs.cut_edges, 0);
        assert!(gs.separator.is_empty());
        assert_eq!(gs.side_a.len(), 100);
        gs.verify(&g).unwrap();
    }
}
