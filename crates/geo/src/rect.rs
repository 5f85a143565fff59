//! Axis-aligned rectangles — the shape of every cloaked region in the paper.

use crate::point::Point;
use serde::{Deserialize, Serialize};

/// An axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
///
/// Cloaked regions produced by secure bounding are rectangles of this type;
/// the paper's headline quality metric is [`Rect::area`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its extremes. Panics in debug builds if the
    /// extremes are inverted.
    #[inline]
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y, "inverted rect");
        Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// A degenerate rectangle covering exactly one point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect::new(p.x, p.y, p.x, p.y)
    }

    /// The tightest rectangle covering all `points`. Returns `None` on an
    /// empty slice.
    pub fn bounding(points: &[Point]) -> Option<Self> {
        let (first, rest) = points.split_first()?;
        let mut r = Rect::from_point(*first);
        for p in rest {
            r.expand_point(*p);
        }
        Some(r)
    }

    /// Width along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area — the paper's "size of cloaked location".
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// True when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// True when `other` is fully inside `self`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.min_x >= self.min_x
            && other.max_x <= self.max_x
            && other.min_y >= self.min_y
            && other.max_y <= self.max_y
    }

    /// True when the two rectangles share any point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Grows the rectangle in place to cover `p`.
    #[inline]
    pub fn expand_point(&mut self, p: Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Smallest rectangle covering both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect::new(
            self.min_x.min(other.min_x),
            self.min_y.min(other.min_y),
            self.max_x.max(other.max_x),
            self.max_y.max(other.max_y),
        )
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) * 0.5,
            (self.min_y + self.max_y) * 0.5,
        )
    }

    /// The unit square `[0,1]²`.
    pub const UNIT: Rect = Rect {
        min_x: 0.0,
        min_y: 0.0,
        max_x: 1.0,
        max_y: 1.0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounding_of_points() {
        let pts = [
            Point::new(0.2, 0.8),
            Point::new(0.5, 0.1),
            Point::new(0.9, 0.4),
        ];
        let r = Rect::bounding(&pts).unwrap();
        assert_eq!(r, Rect::new(0.2, 0.1, 0.9, 0.8));
        for p in &pts {
            assert!(r.contains(p));
        }
    }

    #[test]
    fn bounding_empty_is_none() {
        assert!(Rect::bounding(&[]).is_none());
    }

    #[test]
    fn bounding_single_point_has_zero_area() {
        let r = Rect::bounding(&[Point::new(0.3, 0.3)]).unwrap();
        assert_eq!(r.area(), 0.0);
        assert!(r.contains(&Point::new(0.3, 0.3)));
    }

    #[test]
    fn area_and_perimeter() {
        let r = Rect::new(0.0, 0.0, 0.5, 0.25);
        assert!((r.area() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::new(0.0, 0.0, 0.3, 0.3);
        let b = Rect::new(0.5, 0.5, 0.9, 0.6);
        let u = a.union(&b);
        assert!(u.contains_rect(&a) && u.contains_rect(&b));
        assert_eq!(u, Rect::new(0.0, 0.0, 0.9, 0.6));
    }

    #[test]
    fn intersection_detection() {
        let a = Rect::new(0.0, 0.0, 0.5, 0.5);
        let b = Rect::new(0.4, 0.4, 0.9, 0.9);
        let c = Rect::new(0.6, 0.6, 0.9, 0.9);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        // touching edges count as intersecting
        let d = Rect::new(0.5, 0.0, 0.7, 0.5);
        assert!(a.intersects(&d));
    }

    #[test]
    fn contains_boundary() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(r.contains(&Point::new(0.0, 1.0)));
        assert!(!r.contains(&Point::new(1.0000001, 0.5)));
    }

    #[test]
    fn center_of_unit_square() {
        assert_eq!(Rect::UNIT.center(), Point::new(0.5, 0.5));
    }

    #[test]
    fn expand_point_grows_minimally() {
        let mut r = Rect::from_point(Point::new(0.5, 0.5));
        r.expand_point(Point::new(0.2, 0.7));
        assert_eq!(r, Rect::new(0.2, 0.5, 0.5, 0.7));
    }
}
