//! Structure-of-arrays coordinate arena and batched distance kernels.
//!
//! The kd-tree's leaf scans and the brute-force baseline reduce to the
//! same primitive: squared distances from **one** query point to a
//! **contiguous run** of candidate points. (The §5/§6 recursions keep
//! their points in the order of their own permutation arena instead, so
//! their scans are contiguous without a column copy; the query tree's
//! leaf cover tests read their scattered balls from the ball array, see
//! [`crate::ball::filter_covering_into`].) The AoS [`Point<D>`] layout
//! makes that primitive a strided read — the compiler sees one
//! independent scalar reduction per pair. [`SoaPoints`] stores the same
//! coordinates as `D` contiguous `f64` columns so a run of candidates
//! reads each dimension as a dense streak, and the kernels below process
//! candidates in fixed-width blocks of [`BLOCK`] with a local accumulator
//! array — a shape LLVM auto-vectorizes without any `unsafe` or explicit
//! SIMD intrinsics.
//!
//! # Bitwise parity contract
//!
//! Every **f64** kernel in this module is **bit-for-bit identical** to the
//! scalar reference `q.dist_sq(&p)` whenever the distance is a number. The
//! reference accumulates `acc += (q[d] - p[d])^2` in ascending-dimension
//! order; the blocked kernels keep one accumulator lane per candidate and
//! perform the exact same IEEE-754 operation sequence — same ascending
//! order, same operand order (query as minuend), no `mul_add`/FMA anywhere
//! (fusing would change the rounding and break the repo-wide determinism
//! contract: byte-identical k-NN output across thread counts and with the
//! pre-SoA implementation). Since squares are non-negative, every non-NaN
//! sum is insensitive to how the compiler commutes the adds, so non-NaN
//! results match the scalar loop bit for bit. A NaN *result* (possible only
//! for non-finite inputs, which every validated entry point rejects) is NaN
//! on both sides, but its payload bits are unspecified — IEEE-754 leaves
//! NaN propagation implementation-defined and LLVM may commute the adds
//! differently in separately compiled loops. The parity proptests in
//! `tests/proptest_soa_kernels.rs` pin down exactly this contract,
//! including raw-bit non-finite inputs.

use crate::point::Point;

/// Fixed kernel width: candidates processed per blocked-loop iteration.
///
/// Eight `f64` lanes span two AVX2 registers (or four NEON ones); wider
/// blocks stop paying once the accumulator array spills.
pub const BLOCK: usize = 8;

/// Per-dimension contiguous coordinate columns for a point set.
///
/// Built once from a point set (same index space as the `&[Point<D>]` it
/// came from), then shared read-only by its consumer: brute force and a
/// kd-tree stored in tree order scan it with the range kernel.
#[derive(Clone, Debug)]
pub struct SoaPoints<const D: usize> {
    /// `cols[d][i]` is coordinate `d` of point `i`.
    cols: [Vec<f64>; D],
    len: usize,
}

impl<const D: usize> SoaPoints<D> {
    /// Transpose a point slice into per-dimension columns.
    pub fn from_points(points: &[Point<D>]) -> Self {
        let mut cols: [Vec<f64>; D] = std::array::from_fn(|_| Vec::with_capacity(points.len()));
        for p in points {
            for (d, col) in cols.iter_mut().enumerate() {
                col.push(p.0[d]);
            }
        }
        let len = points.len();
        SoaPoints { cols, len }
    }

    /// Borrow coordinate column `d` (`col(d)[i]` is coordinate `d` of
    /// point `i`).
    pub fn col(&self, d: usize) -> &[f64] {
        &self.cols[d]
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the arena holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Scalar tail kernel: squared distance from `q` to point `i`.
    ///
    /// Same operation sequence as [`Point::dist_sq`] (ascending-dimension
    /// accumulation, no FMA) — the blocked kernels defer to this for the
    /// `len % BLOCK` remainder.
    #[inline]
    pub fn dist_sq_to(&self, q: &Point<D>, i: usize) -> f64 {
        let mut acc = 0.0;
        for d in 0..D {
            let diff = q.0[d] - self.cols[d][i];
            acc += diff * diff;
        }
        acc
    }

    /// Contiguous kernel: `out[j] = |points[start + j] - q|^2`.
    ///
    /// The dense-streak kernel for scans over an unbroken id range (brute
    /// force, kd-tree leaves); `out.len()` fixes the range length.
    ///
    /// # Panics
    /// Panics when `start + out.len()` exceeds the arena.
    pub fn dist_sq_range(&self, q: &Point<D>, start: usize, out: &mut [f64]) {
        let n = out.len();
        assert!(start + n <= self.len, "range kernel out of bounds");
        let blocks = n / BLOCK;
        for b in 0..blocks {
            let base = b * BLOCK;
            let mut acc = [0.0f64; BLOCK];
            for d in 0..D {
                let col = &self.cols[d][start + base..start + base + BLOCK];
                let qd = q.0[d];
                for j in 0..BLOCK {
                    let diff = qd - col[j];
                    acc[j] += diff * diff;
                }
            }
            out[base..base + BLOCK].copy_from_slice(&acc);
        }
        for (j, o) in out.iter_mut().enumerate().skip(blocks * BLOCK) {
            *o = self.dist_sq_to(q, start + j);
        }
    }

    // Kept only because the repository benchmark still times it; it goes
    // when the benchmark drops its f32 kernel metric.
    #[doc(hidden)]
    pub fn dist_sq_f32_range(&self, q: &Point<D>, start: usize, out: &mut [f32]) {
        let end = start + out.len();
        out.fill(0.0);
        for (d, col) in self.cols.iter().enumerate() {
            let qd = q.0[d] as f32;
            for (o, &c) in out.iter_mut().zip(&col[start..end]) {
                let diff = qd - c as f32;
                *o += diff * diff;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts_3d(n: usize) -> Vec<Point<3>> {
        // Deterministic, irregular, includes duplicates.
        (0..n)
            .map(|i| {
                let f = i as f64;
                Point::from([
                    (f * 0.37).sin() * 10.0,
                    (f * 1.91).cos() * 3.0,
                    (i % 7) as f64,
                ])
            })
            .collect()
    }

    #[test]
    fn range_kernel_matches_scalar_bitwise() {
        let pts = pts_3d(41);
        let soa = SoaPoints::from_points(&pts);
        let q = pts[17];
        let mut out = vec![0.0; 30];
        soa.dist_sq_range(&q, 5, &mut out);
        for j in 0..30 {
            assert_eq!(out[j].to_bits(), q.dist_sq(&pts[5 + j]).to_bits());
        }
    }

    #[test]
    fn tail_lengths_are_covered() {
        let pts = pts_3d(BLOCK * 2 + 3);
        let soa = SoaPoints::from_points(&pts);
        let q = Point::origin();
        for n in 0..pts.len() {
            let mut out = vec![0.0; n];
            soa.dist_sq_range(&q, pts.len() - n, &mut out);
            for (j, d) in out.iter().enumerate() {
                assert_eq!(d.to_bits(), q.dist_sq(&pts[pts.len() - n + j]).to_bits());
            }
        }
    }

    #[test]
    fn columns_round_trip() {
        let pts = pts_3d(9);
        let soa = SoaPoints::from_points(&pts);
        assert_eq!(soa.len(), 9);
        for (i, p) in pts.iter().enumerate() {
            assert!((0..3).all(|d| soa.col(d)[i] == p[d]));
        }
    }
}
