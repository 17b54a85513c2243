//! The k-nearest-neighbor graph (Definition 1.1).
//!
//! Vertices are the input points; `(p_i, p_j)` is an edge when `p_i` is a
//! k-nearest neighbor of `p_j` or vice versa. The paper constructs the
//! graph from the k-neighborhood system in `O(log n)` extra rounds; here
//! the symmetrization is a counting sort + dedup over the directed lists.

use crate::knn::KnnResult;
use sepdc_geom::point::Point;
use sepdc_geom::shape::Separator;

/// Undirected k-NN graph.
#[derive(Clone, Debug)]
pub struct KnnGraph {
    n: usize,
    /// Sorted, deduplicated edges `(lo, hi)`.
    edges: Vec<(u32, u32)>,
    /// CSR-style adjacency.
    offsets: Vec<u32>,
    adjacency: Vec<u32>,
}

impl KnnGraph {
    /// Symmetrize a [`KnnResult`] into the k-NN graph.
    ///
    /// ```
    /// use sepdc_core::{brute_force_knn, KnnGraph};
    /// use sepdc_geom::Point;
    /// let pts: Vec<Point<1>> = (0..4).map(|i| Point::from([i as f64])).collect();
    /// let g = KnnGraph::from_knn(&brute_force_knn(&pts, 1));
    /// assert_eq!(g.num_vertices(), 4);
    /// assert!(g.degree(1) >= 1);
    /// ```
    pub fn from_knn(knn: &KnnResult) -> Self {
        let n = knn.len();
        // Each directed pair as (lower, upper) endpoint, the lists read in
        // storage order, counted by lower endpoint.
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(n * knn.k());
        let mut starts = vec![0u32; n + 1];
        knn.for_each_list(|i, list| {
            for nb in list {
                let (a, b) = (i.min(nb.idx), i.max(nb.idx));
                starts[a as usize + 1] += 1;
                pairs.push((a, b));
            }
        });
        for a in 0..n {
            starts[a + 1] += starts[a];
        }
        // Counting sort on the lower endpoint, then each (small) bucket of
        // upper endpoints sorted and deduplicated: the edges come out in
        // the order one sort of all pairs gives.
        let mut uppers = vec![0u32; pairs.len()];
        let mut cursor = starts.clone();
        for &(a, b) in &pairs {
            uppers[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
        }
        drop(pairs);
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(uppers.len());
        for a in 0..n {
            let bucket = &mut uppers[starts[a] as usize..starts[a + 1] as usize];
            bucket.sort_unstable();
            for (j, &b) in bucket.iter().enumerate() {
                if j == 0 || bucket[j - 1] != b {
                    edges.push((a as u32, b));
                }
            }
        }
        // CSR.
        let mut degree = vec![0u32; n];
        for &(a, b) in &edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut cursor = offsets.clone();
        let mut adjacency = vec![0u32; edges.len() * 2];
        for &(a, b) in &edges {
            adjacency[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            adjacency[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }
        KnnGraph {
            n,
            edges,
            offsets,
            adjacency,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The sorted edge list.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Neighbors of vertex `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjacency[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Number of edges with endpoints on opposite sides of a separator
    /// (surface points count as interior, matching the routing convention).
    /// This is the "edges crossing the cut" count of the introduction.
    pub fn edges_cut_by<const D: usize>(&self, points: &[Point<D>], sep: &Separator<D>) -> usize {
        assert_eq!(points.len(), self.n);
        self.edges
            .iter()
            .filter(|&&(a, b)| {
                let sa = sep.side(&points[a as usize]).routes_interior();
                let sb = sep.side(&points[b as usize]).routes_interior();
                sa != sb
            })
            .count()
    }

    /// Number of connected components (simple DFS; graphs here are small
    /// multiples of `n`).
    pub fn connected_components(&self) -> usize {
        let mut seen = vec![false; self.n];
        let mut components = 0;
        let mut stack = Vec::new();
        for start in 0..self.n {
            if seen[start] {
                continue;
            }
            components += 1;
            seen[start] = true;
            stack.push(start as u32);
            while let Some(v) = stack.pop() {
                for &w in self.neighbors(v as usize) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
        }
        components
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_knn;
    use sepdc_geom::Hyperplane;

    fn line_graph(n: usize, k: usize) -> (Vec<Point<1>>, KnnGraph) {
        let pts: Vec<Point<1>> = (0..n).map(|i| Point::from([i as f64])).collect();
        let knn = brute_force_knn(&pts, k);
        let g = KnnGraph::from_knn(&knn);
        (pts, g)
    }

    #[test]
    fn line_1nn_graph_is_path_segments() {
        let (_, g) = line_graph(6, 1);
        // 1-NN on a line: each point links to an adjacent point; the edge
        // set is a subset of the path edges and covers every vertex.
        assert!(g.num_edges() >= 3);
        for v in 0..6 {
            assert!(g.degree(v) >= 1);
        }
        for &(a, b) in g.edges() {
            assert_eq!(b - a, 1, "1-NN edges on a line are adjacent pairs");
        }
    }

    #[test]
    fn symmetry_and_dedup() {
        let (_, g) = line_graph(10, 2);
        // Adjacent via i->j implies j adjacent to i.
        for v in 0..10 {
            for &w in g.neighbors(v) {
                assert!(g.neighbors(w as usize).contains(&(v as u32)));
            }
        }
        // Edge list strictly increasing => deduplicated.
        for w in g.edges().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn k2_line_graph_connected() {
        let (_, g) = line_graph(20, 2);
        assert_eq!(g.connected_components(), 1);
    }

    #[test]
    fn max_degree_bounded_for_knn_graphs() {
        // Degree bound for k-NN graphs in the plane: ≤ τ₂·k + k = 6k + k.
        let pts = sepdc_workloads::Workload::UniformCube.generate::<2>(500, 1);
        for k in [1usize, 3] {
            let knn = brute_force_knn(&pts, k);
            let g = KnnGraph::from_knn(&knn);
            assert!(
                g.max_degree() <= 7 * k,
                "k={k}: max degree {} suspiciously large",
                g.max_degree()
            );
        }
    }

    #[test]
    fn edges_cut_by_hyperplane() {
        let (pts, g) = line_graph(10, 1);
        let sep = Hyperplane::axis_aligned(0, 4.5).into();
        // Only the edge (4,5) can cross x = 4.5 (if present).
        let cut = g.edges_cut_by(&pts, &sep);
        assert!(cut <= 1);
        let far = Hyperplane::axis_aligned(0, 100.0).into();
        assert_eq!(g.edges_cut_by(&pts, &far), 0);
    }

    #[test]
    fn edges_match_one_sort_of_all_pairs() {
        // A §6 result keeps its lists in arena order behind an id → row
        // map; the storage-order counting sort must give the same edges
        // as sorting every id-order pair once.
        let pts = sepdc_workloads::Workload::Clusters.generate::<2>(3000, 4);
        for k in [1usize, 4] {
            let knn = crate::parallel_knn::<2, 3>(&pts, &crate::KnnDcConfig::new(k)).knn;
            let mut want: Vec<(u32, u32)> = (0..pts.len())
                .flat_map(|i| {
                    let i = i as u32;
                    knn.neighbors(i as usize)
                        .iter()
                        .map(move |nb| (i.min(nb.idx), i.max(nb.idx)))
                })
                .collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(KnnGraph::from_knn(&knn).edges(), &want[..], "k = {k}");
        }
    }

    #[test]
    fn empty_graph() {
        let knn = KnnResult::new(0, 1);
        let g = KnnGraph::from_knn(&knn);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.connected_components(), 0);
    }

    use crate::knn::KnnResult;
}
