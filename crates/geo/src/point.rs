//! 2-D points in the normalized unit square.

use serde::{Deserialize, Serialize};

/// A 2-D point. Coordinates are normalized into the unit square `[0, 1]²`
/// by the dataset generators, mirroring the paper's normalization of the
/// California POI dataset.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// Creates a point at `(x, y)`.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Squared Euclidean distance to `other`.
    ///
    /// Preferred over [`Point::dist`] in hot loops (neighbor search, RSS
    /// ranking) because ordering by squared distance equals ordering by
    /// distance and skips the square root.
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Chebyshev (L∞) distance to `other`; the side length of the smallest
    /// square centered anywhere that covers both points is `2 * chebyshev`.
    #[inline]
    pub fn chebyshev(&self, other: &Point) -> f64 {
        let dx = (self.x - other.x).abs();
        let dy = (self.y - other.y).abs();
        dx.max(dy)
    }

    /// Component-wise midpoint.
    #[inline]
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// True when both coordinates lie in `[0, 1]`.
    #[inline]
    pub fn in_unit_square(&self) -> bool {
        (0.0..=1.0).contains(&self.x) && (0.0..=1.0).contains(&self.y)
    }

    /// Clamps both coordinates into `[0, 1]`.
    #[inline]
    pub fn clamp_unit(&self) -> Point {
        Point::new(self.x.clamp(0.0, 1.0), self.y.clamp(0.0, 1.0))
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_and_dist_sq_agree() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist_sq(&b), 25.0);
    }

    #[test]
    fn dist_is_symmetric() {
        let a = Point::new(0.25, 0.75);
        let b = Point::new(0.5, 0.125);
        assert_eq!(a.dist(&b), b.dist(&a));
    }

    #[test]
    fn dist_to_self_is_zero() {
        let a = Point::new(0.1, 0.9);
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn chebyshev_takes_max_axis() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(0.2, 0.7);
        assert!((a.chebyshev(&b) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = Point::new(0.0, 1.0);
        let b = Point::new(1.0, 0.0);
        assert_eq!(a.midpoint(&b), Point::new(0.5, 0.5));
    }

    #[test]
    fn unit_square_check_and_clamp() {
        assert!(Point::new(0.0, 1.0).in_unit_square());
        assert!(!Point::new(-0.1, 0.5).in_unit_square());
        assert_eq!(Point::new(-0.1, 1.5).clamp_unit(), Point::new(0.0, 1.0));
    }

    #[test]
    fn from_tuple() {
        let p: Point = (0.3, 0.4).into();
        assert_eq!(p, Point::new(0.3, 0.4));
    }
}
