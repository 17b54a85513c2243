//! Generalized spheres: the separator type.
//!
//! The MTTV construction chooses a uniform random great circle on the lifted
//! sphere `S^D` and maps it back through the inverse stereographic
//! projection. Generic great circles map to spheres in `R^D`; circles
//! through the projection pole map to hyperplanes. A faithful implementation
//! therefore works with the Möbius-closed family "spheres ∪ hyperplanes",
//! which this module packages behind one classification API.

use crate::halfspace::Hyperplane;
use crate::point::Point;
use crate::sphere::Sphere;

/// Which side of a separator a point lies on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// Strictly inside (sphere interior / negative halfspace).
    Interior,
    /// On the separating surface (within tolerance).
    Surface,
    /// Strictly outside.
    Exterior,
}

impl Side {
    /// The paper routes surface points to the interior subtree (Section 3.2
    /// case 3: "if p is on S then recursively search on the left subtree").
    pub fn routes_interior(self) -> bool {
        matches!(self, Side::Interior | Side::Surface)
    }
}

/// A separator surface in `R^D`: a `(D-1)`-sphere or a hyperplane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Separator<const D: usize> {
    /// Spherical separator (the common case for MTTV).
    Sphere(Sphere<D>),
    /// Flat separator (great circle through the pole, or a Bentley cut).
    Halfspace(Hyperplane<D>),
}

impl<const D: usize> Separator<D> {
    /// Signed distance to the separating surface (negative = interior).
    pub fn signed_distance(&self, p: &Point<D>) -> f64 {
        match self {
            Separator::Sphere(s) => s.signed_distance(p),
            Separator::Halfspace(h) => h.signed_distance(p),
        }
    }

    /// Classify a point with tolerance `tol`.
    pub fn side_with_tol(&self, p: &Point<D>, tol: f64) -> Side {
        match self {
            Separator::Sphere(s) => s.side_with_tol(p, tol),
            Separator::Halfspace(h) => h.side_with_tol(p, tol),
        }
    }

    /// Classify a point with the crate default tolerance.
    pub fn side(&self, p: &Point<D>) -> Side {
        self.side_with_tol(p, crate::EPS)
    }

    /// `true` when the closed ball `B(p, r)` meets the separating surface's
    /// `EPS` band, which [`Self::side`] routes to the interior. This is the
    /// intersection-number predicate `ι_B(S)` of Section 2.1: a ball that
    /// reaches an interior-routed band point from outside crosses the cut
    /// even when it stops short of the exact surface.
    pub fn intersects_ball(&self, p: &Point<D>, r: f64) -> bool {
        let r = r + crate::EPS;
        match self {
            Separator::Sphere(s) => s.intersects_ball(p, r),
            Separator::Halfspace(h) => h.intersects_ball(p, r),
        }
    }

    /// "Goes left" marching predicate: the ball meets the interior or the
    /// surface's `EPS` band, i.e. some point it holds routes interior.
    pub fn ball_touches_interior(&self, p: &Point<D>, r: f64) -> bool {
        let r = r + crate::EPS;
        match self {
            Separator::Sphere(s) => s.ball_touches_interior(p, r),
            Separator::Halfspace(h) => h.ball_touches_interior(p, r),
        }
    }

    /// "Goes right" marching predicate: ball meets surface or exterior.
    pub fn ball_touches_exterior(&self, p: &Point<D>, r: f64) -> bool {
        match self {
            Separator::Sphere(s) => s.ball_touches_exterior(p, r),
            Separator::Halfspace(h) => h.ball_touches_exterior(p, r),
        }
    }

    /// Flip orientation: interior becomes exterior and vice versa.
    ///
    /// Only flat separators can be flipped exactly; for spheres the inside
    /// is geometrically distinguished, so `flip` is available only for
    /// halfspaces and panics otherwise. Callers that need a balanced split
    /// relabel sides at a higher level instead.
    pub fn flip_halfspace(self) -> Self {
        match self {
            Separator::Halfspace(h) => Separator::Halfspace(Hyperplane {
                normal: -h.normal,
                offset: -h.offset,
            }),
            Separator::Sphere(_) => panic!("cannot flip a spherical separator"),
        }
    }
}

impl<const D: usize> From<Sphere<D>> for Separator<D> {
    fn from(s: Sphere<D>) -> Self {
        Separator::Sphere(s)
    }
}

impl<const D: usize> From<Hyperplane<D>> for Separator<D> {
    fn from(h: Hyperplane<D>) -> Self {
        Separator::Halfspace(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_and_halfspace_agree_on_api() {
        let sphere: Separator<2> = Sphere::new(Point::origin(), 1.0).into();
        let plane: Separator<2> = Hyperplane::axis_aligned(0, 1.0).into();
        assert_eq!(sphere.side(&Point::from([0.0, 0.0])), Side::Interior);
        assert_eq!(plane.side(&Point::from([0.0, 0.0])), Side::Interior);
        assert_eq!(sphere.side(&Point::from([5.0, 0.0])), Side::Exterior);
        assert_eq!(plane.side(&Point::from([5.0, 0.0])), Side::Exterior);
    }

    #[test]
    fn surface_routes_interior() {
        assert!(Side::Surface.routes_interior());
        assert!(Side::Interior.routes_interior());
        assert!(!Side::Exterior.routes_interior());
    }

    #[test]
    fn flip_halfspace_swaps_sides() {
        let plane: Separator<2> = Hyperplane::axis_aligned(0, 1.0).into();
        let flipped = plane.flip_halfspace();
        let p = Point::from([0.0, 0.0]);
        assert_eq!(plane.side(&p), Side::Interior);
        assert_eq!(flipped.side(&p), Side::Exterior);
        // Surface stays surface.
        let s = Point::from([1.0, 3.0]);
        assert_eq!(flipped.side(&s), Side::Surface);
    }

    #[test]
    fn ball_reaching_the_band_crosses_and_touches_interior() {
        // The ball stops 0.5 EPS past the surface: it misses the exact
        // surface but holds a band point that routes interior.
        let eps = crate::EPS;
        let seps: [Separator<2>; 2] = [
            Hyperplane::axis_aligned(0, 1.0).into(),
            Sphere::new(Point::origin(), 1.0).into(),
        ];
        for sep in seps {
            let (p, r) = (Point::from([1.0 + 1.5 * eps, 0.0]), eps);
            let band = Point::from([1.0 + 0.5 * eps, 0.0]);
            assert!(sep.side(&band).routes_interior());
            assert!(sep.intersects_ball(&p, r), "{sep:?}");
            assert!(sep.ball_touches_interior(&p, r), "{sep:?}");
            // Past the band the ball reaches only the exterior.
            let far = Point::from([1.0 + 3.0 * eps, 0.0]);
            assert!(!sep.intersects_ball(&far, r), "{sep:?}");
            assert!(!sep.ball_touches_interior(&far, r), "{sep:?}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot flip")]
    fn flip_sphere_panics() {
        let sphere: Separator<2> = Sphere::new(Point::origin(), 1.0).into();
        let _ = sphere.flip_halfspace();
    }

    #[test]
    fn signed_distance_consistent_with_side() {
        let sep: Separator<3> = Sphere::new(Point::splat(1.0), 2.0).into();
        for p in [
            Point::from([1.0, 1.0, 1.0]),
            Point::from([5.0, 5.0, 5.0]),
            Point::from([3.0, 1.0, 1.0]),
        ] {
            let sd = sep.signed_distance(&p);
            match sep.side(&p) {
                Side::Interior => assert!(sd < 0.0),
                Side::Exterior => assert!(sd > 0.0),
                Side::Surface => assert!(sd.abs() <= crate::EPS),
            }
        }
    }
}
