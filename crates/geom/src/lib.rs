//! # sepdc-geom
//!
//! `d`-dimensional geometry substrate for the separator based parallel
//! divide and conquer algorithms of Frieze, Miller and Teng (SPAA 1992).
//!
//! The paper's machinery needs a surprisingly wide slice of computational
//! geometry, all of which is built here from scratch:
//!
//! * [`Point`] — fixed-dimension points over `f64` (const-generic `D`).
//! * [`matrix`] — small dense linear algebra: Gaussian elimination with
//!   partial pivoting, null-space vectors (for Radon points) and
//!   circumsphere systems, plus Householder reflections used to rotate a
//!   centerpoint onto a coordinate axis.
//! * [`Sphere`], [`Hyperplane`], [`Separator`] — "generalized spheres".
//!   The Miller–Teng–Thurston–Vavasis construction maps a random great
//!   circle of `S^d` back to the plane; when the circle passes near the
//!   north pole the image is a hyperplane, so the separator type must be
//!   the union of both.
//! * [`Ball`] — closed balls with the ball-vs-separator side predicates
//!   used by the Fast Correction marching step (Section 6.2 of the paper).
//! * [`stereo`] — the stereographic lift `R^d -> S^d ⊂ R^{d+1}`, its
//!   inverse, and the conformal dilation `D_α` of MTTV.
//! * [`radon`] — Radon points of `d+2` points.
//! * [`centerpoint`] — approximate centerpoints by iterated Radon points.
//!
//! Everything is deterministic given an external RNG; no global state.

#![warn(missing_docs)]

pub mod aabb;
pub mod ball;
pub mod centerpoint;
pub mod halfspace;
pub mod matrix;
pub mod point;
pub mod predicates;
pub mod radon;
pub mod shape;
pub mod soa;
pub mod sphere;
pub mod stereo;

pub use aabb::Aabb;
pub use ball::Ball;
pub use halfspace::Hyperplane;
pub use point::Point;
pub use shape::{Separator, Side};
pub use soa::{FilterStats, SoaBalls, SoaPoints};
pub use sphere::Sphere;

/// Default absolute tolerance used by geometric predicates.
///
/// All inputs handled by this crate are assumed to live in a bounded region
/// (workload generators emit coordinates of magnitude `O(1)`), so a single
/// absolute epsilon is appropriate. Predicates accepting custom tolerances
/// are provided where callers need tighter control.
pub const EPS: f64 = 1e-9;

/// Kissing numbers `τ_d` for small `d` (Lemma 2.1 of the paper, citing
/// Conway & Sloane). Entry `KISSING[d]` is `τ_d`; `d = 0, 1` included for
/// completeness.
pub const KISSING: [usize; 9] = [0, 2, 6, 12, 24, 40, 72, 126, 240];

/// Kissing number `τ_d` for dimension `d`.
///
/// # Panics
/// Panics if `d` is outside the tabulated range `1..=8`; the paper treats
/// the dimension as a constant and every algorithm in this workspace is
/// instantiated for small `d`.
pub fn kissing_number(d: usize) -> usize {
    assert!(
        (1..KISSING.len()).contains(&d),
        "kissing number tabulated only for 1 <= d <= 8, got {d}"
    );
    KISSING[d]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kissing_numbers_match_known_values() {
        assert_eq!(kissing_number(1), 2);
        assert_eq!(kissing_number(2), 6);
        assert_eq!(kissing_number(3), 12);
        assert_eq!(kissing_number(4), 24);
        assert_eq!(kissing_number(8), 240);
    }

    #[test]
    #[should_panic(expected = "kissing number")]
    fn kissing_number_rejects_dimension_zero() {
        kissing_number(0);
    }

    #[test]
    #[should_panic(expected = "kissing number")]
    fn kissing_number_rejects_large_dimension() {
        kissing_number(9);
    }
}
