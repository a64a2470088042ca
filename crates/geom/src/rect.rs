//! Axis-aligned `D`-dimensional rectangles (MBRs).

use crate::{total_cmp_f64, GeomError, Interval, Point};

/// An axis-aligned rectangle in `D` dimensions, stored as per-axis
/// `min`/`max` corners.
///
/// This is the minimum bounding rectangle (MBR) of the paper: leaf entries
/// hold the MBR of a data object, internal entries hold the MBR of a
/// subtree. The empty rectangle (identity for [`Rect::union`]) is
/// represented with `min = +inf`, `max = -inf` on every axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect<const D: usize> {
    min: [f64; D],
    max: [f64; D],
}

impl<const D: usize> Rect<D> {
    /// Create a rectangle from corner arrays, validating `min <= max`
    /// per axis and rejecting NaN.
    pub fn try_new(min: [f64; D], max: [f64; D]) -> Result<Self, GeomError> {
        for axis in 0..D {
            if min[axis].is_nan() || max[axis].is_nan() {
                return Err(GeomError::NanCoordinate { axis });
            }
            if min[axis] > max[axis] {
                return Err(GeomError::InvertedAxis { axis });
            }
        }
        Ok(Self { min, max })
    }

    /// Create a rectangle from corners known to be ordered.
    ///
    /// # Panics
    /// Panics if `min > max` on some axis or any coordinate is NaN.
    pub fn new(min: [f64; D], max: [f64; D]) -> Self {
        Self::try_new(min, max).expect("invalid rectangle")
    }

    /// Create a rectangle from corners already known to pass
    /// [`try_new`](Self::try_new) — read back from a page whose every
    /// rectangle was validated, say — without checking them again.
    /// Debug builds still check.
    #[inline]
    pub fn from_validated(min: [f64; D], max: [f64; D]) -> Self {
        debug_assert!(Self::try_new(min, max).is_ok(), "unvalidated rectangle");
        Self { min, max }
    }

    /// The empty rectangle: identity for [`union`](Self::union), contains
    /// nothing, intersects nothing.
    pub fn empty() -> Self {
        Self {
            min: [f64::INFINITY; D],
            max: [f64::NEG_INFINITY; D],
        }
    }

    /// A degenerate rectangle covering exactly one point.
    pub fn from_point(p: Point<D>) -> Self {
        Self {
            min: *p.coords(),
            max: *p.coords(),
        }
    }

    /// Rectangle from two arbitrary corner points (in any corner order).
    pub fn from_corners(a: Point<D>, b: Point<D>) -> Self {
        Self {
            min: *a.min_with(&b).coords(),
            max: *a.max_with(&b).coords(),
        }
    }

    /// The unit hyper-cube `[0,1]^D` — all data sets in the paper are
    /// normalized to it (§3).
    pub fn unit() -> Self {
        Self {
            min: [0.0; D],
            max: [1.0; D],
        }
    }

    /// Whether this is the empty rectangle.
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..D).any(|i| self.min[i] > self.max[i])
    }

    /// Minimum corner.
    #[inline]
    pub fn min(&self) -> &[f64; D] {
        &self.min
    }

    /// Maximum corner.
    #[inline]
    pub fn max(&self) -> &[f64; D] {
        &self.max
    }

    /// Lower bound along `axis`.
    #[inline]
    pub fn lo(&self, axis: usize) -> f64 {
        self.min[axis]
    }

    /// Upper bound along `axis`.
    #[inline]
    pub fn hi(&self, axis: usize) -> f64 {
        self.max[axis]
    }

    /// Extent (side length) along `axis`.
    #[inline]
    pub fn extent(&self, axis: usize) -> f64 {
        self.max[axis] - self.min[axis]
    }

    /// The interval this rectangle spans on `axis`.
    pub fn interval(&self, axis: usize) -> Interval {
        Interval::new(self.min[axis], self.max[axis])
    }

    /// Center point. The packing algorithms sort by this (§2.2).
    pub fn center(&self) -> Point<D> {
        Point::new(std::array::from_fn(|i| self.center_coord(i)))
    }

    /// Center coordinate along one axis, without building the point.
    ///
    /// Never NaN for a rectangle [`try_new`](Self::try_new) accepts.
    /// `min + (max − min) / 2` is used wherever it is finite; it
    /// overflows to ±∞ for `[−f64::MAX, f64::MAX]` and is NaN with an
    /// infinite corner, where `min / 2 + max / 2` is used instead (0 for
    /// `[−∞, +∞]`, whose halves cancel to NaN).
    #[inline]
    pub fn center_coord(&self, axis: usize) -> f64 {
        let (lo, hi) = (self.min[axis], self.max[axis]);
        let c = lo + (hi - lo) / 2.0;
        if c.is_finite() {
            c
        } else {
            unbounded_center(lo, hi)
        }
    }

    /// Area (2-D) / volume (general D): product of extents.
    /// The empty rectangle has area 0.
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..D).map(|i| self.extent(i)).product()
    }

    /// Perimeter in the R-tree literature's sense: for D = 2 this is the
    /// classical `2 * (width + height)`; in general `2^(D-1)` times the sum
    /// of extents (total edge length of the box). Tables 4/6/8/10 of the
    /// paper report sums of this quantity.
    pub fn perimeter(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let sum: f64 = (0..D).map(|i| self.extent(i)).sum();
        sum * 2f64.powi(D as i32 - 1)
    }

    /// Margin: plain sum of extents, the quantity R*-style heuristics
    /// minimize. Proportional to [`perimeter`](Self::perimeter) for a fixed
    /// `D`.
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..D).map(|i| self.extent(i)).sum()
    }

    /// Whether the closed rectangle contains the point.
    pub fn contains_point(&self, p: &Point<D>) -> bool {
        (0..D).all(|i| self.min[i] <= p.coord(i) && p.coord(i) <= self.max[i])
    }

    /// Whether this rectangle fully contains `other`.
    /// Every rectangle contains the empty rectangle.
    pub fn contains_rect(&self, other: &Self) -> bool {
        if other.is_empty() {
            return true;
        }
        if self.is_empty() {
            return false;
        }
        (0..D).all(|i| self.min[i] <= other.min[i] && other.max[i] <= self.max[i])
    }

    /// Whether the closed rectangles intersect (touching boundaries count,
    /// matching the paper's "all rectangles that intersect the query
    /// region" semantics).
    pub fn intersects(&self, other: &Self) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        (0..D).all(|i| self.min[i] <= other.max[i] && other.min[i] <= self.max[i])
    }

    /// Smallest rectangle covering both (`empty` is the identity).
    pub fn union(&self, other: &Self) -> Self {
        let mut min = [0.0; D];
        let mut max = [0.0; D];
        for i in 0..D {
            min[i] = self.min[i].min(other.min[i]);
            max[i] = self.max[i].max(other.max[i]);
        }
        Self { min, max }
    }

    /// Grow in place to cover `other`.
    pub fn union_in_place(&mut self, other: &Self) {
        for i in 0..D {
            self.min[i] = self.min[i].min(other.min[i]);
            self.max[i] = self.max[i].max(other.max[i]);
        }
    }

    /// Intersection, `None` if disjoint.
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        if !self.intersects(other) {
            return None;
        }
        let mut min = [0.0; D];
        let mut max = [0.0; D];
        for i in 0..D {
            min[i] = self.min[i].max(other.min[i]);
            max[i] = self.max[i].min(other.max[i]);
        }
        Some(Self { min, max })
    }

    /// Area the union with `other` would add over this rectangle's own
    /// area. Guttman's ChooseLeaf descends into the child needing the
    /// least enlargement.
    pub fn enlargement(&self, other: &Self) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Squared minimum distance from a point to this rectangle (0 if the
    /// point is inside). Drives best-first k-NN search.
    pub fn min_dist2(&self, p: &Point<D>) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        let mut acc = 0.0;
        for i in 0..D {
            let c = p.coord(i);
            let d = if c < self.min[i] {
                self.min[i] - c
            } else if c > self.max[i] {
                c - self.max[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// MBR of an iterator of rectangles.
    pub fn union_all<'a, I: IntoIterator<Item = &'a Self>>(rects: I) -> Self
    where
        Self: 'a,
    {
        let mut acc = Self::empty();
        for r in rects {
            acc.union_in_place(r);
        }
        acc
    }

    /// Clamp this rectangle into `bounds` (used by the generators: the
    /// paper clips synthetic squares at the unit-square boundary, §3).
    pub fn clamp_to(&self, bounds: &Self) -> Self {
        let mut min = [0.0; D];
        let mut max = [0.0; D];
        for i in 0..D {
            min[i] = self.min[i].clamp(bounds.min[i], bounds.max[i]);
            max[i] = self.max[i].clamp(bounds.min[i], bounds.max[i]);
        }
        Self { min, max }
    }

    /// Order two rectangles by center coordinate along `axis`; the shared
    /// comparator of all three packing algorithms.
    pub fn cmp_center(&self, other: &Self, axis: usize) -> std::cmp::Ordering {
        total_cmp_f64(self.center_coord(axis), other.center_coord(axis))
    }
}

/// [`Rect::center_coord`] where `lo + (hi − lo) / 2` is not finite:
/// an infinite corner, or a span past `f64::MAX`. Kept out of line so
/// the sort-key loops inline only the finite case.
#[cold]
#[inline(never)]
fn unbounded_center(lo: f64, hi: f64) -> f64 {
    let halves = lo / 2.0 + hi / 2.0;
    if halves.is_nan() {
        0.0
    } else {
        halves
    }
}

impl<const D: usize> Default for Rect<D> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<const D: usize> std::fmt::Display for Rect<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "[empty]");
        }
        write!(f, "[")?;
        for i in 0..D {
            if i > 0 {
                write!(f, " x ")?;
            }
            write!(f, "{}..{}", self.min[i], self.max[i])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(min: [f64; 2], max: [f64; 2]) -> Rect<2> {
        Rect::new(min, max)
    }

    #[test]
    fn area_and_perimeter_2d() {
        let b = r([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(b.area(), 6.0);
        assert_eq!(b.perimeter(), 10.0);
        assert_eq!(b.margin(), 5.0);
    }

    #[test]
    fn perimeter_3d_is_total_edge_length() {
        let b = Rect::new([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]);
        // A box has 4 parallel edges per axis: 4*(1+2+3) = 24.
        assert_eq!(b.perimeter(), 24.0);
        assert_eq!(b.area(), 6.0);
    }

    #[test]
    fn empty_rect_identities() {
        let e = Rect::<2>::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        assert_eq!(e.perimeter(), 0.0);
        let b = r([0.0, 0.0], [1.0, 1.0]);
        assert_eq!(e.union(&b), b);
        assert_eq!(b.union(&e), b);
        assert!(!e.intersects(&b));
        assert!(!b.intersects(&e));
        assert!(b.contains_rect(&e));
        assert!(!e.contains_rect(&b));
    }

    #[test]
    fn touching_rectangles_intersect() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([1.0, 0.0], [2.0, 1.0]);
        assert!(a.intersects(&b));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.area(), 0.0);
        assert_eq!(i.lo(0), 1.0);
        assert_eq!(i.hi(0), 1.0);
    }

    #[test]
    fn disjoint_rectangles() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([2.0, 2.0], [3.0, 3.0]);
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_none());
    }

    #[test]
    fn containment() {
        let outer = r([0.0, 0.0], [10.0, 10.0]);
        let inner = r([2.0, 2.0], [3.0, 3.0]);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer));
        assert!(outer.contains_point(&Point::new([0.0, 10.0])));
        assert!(!outer.contains_point(&Point::new([-0.001, 5.0])));
    }

    #[test]
    fn center() {
        let b = r([0.0, 2.0], [4.0, 4.0]);
        assert_eq!(b.center(), Point::new([2.0, 3.0]));
        assert_eq!(b.center_coord(0), 2.0);
        assert_eq!(b.center_coord(1), 3.0);
    }

    #[test]
    fn center_is_never_nan_for_accepted_rects() {
        let (inf, max) = (f64::INFINITY, f64::MAX);
        // (lo, hi, center): infinite corners and spans that overflow.
        let cases = [
            (-inf, 0.0, -inf),
            (0.0, inf, inf),
            (-inf, inf, 0.0),
            (-inf, -inf, -inf),
            (inf, inf, inf),
            (-max, max, 0.0),
            (max / 2.0, max, 0.75 * max),
            (-max, -max, -max),
        ];
        for (lo, hi, want) in cases {
            let b = Rect::<1>::try_new([lo], [hi]).unwrap();
            assert_eq!(b.center_coord(0), want, "[{lo}, {hi}]");
            assert_eq!(b.center().coord(0), want, "[{lo}, {hi}]");
        }
        // Where the plain midpoint is finite it is kept bit for bit.
        for (lo, hi) in [(0.1, 0.7), (-3.0, 1e300), (-0.0, 0.0), (5.0, 5.0)] {
            let b = Rect::<1>::new([lo], [hi]);
            let plain = lo + (hi - lo) / 2.0;
            assert_eq!(b.center_coord(0).to_bits(), plain.to_bits());
        }
    }

    #[test]
    fn enlargement() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([2.0, 0.0], [3.0, 1.0]);
        // Union is [0,3]x[0,1] = 3; a's own area 1 -> enlargement 2.
        assert_eq!(a.enlargement(&b), 2.0);
        assert_eq!(a.enlargement(&a), 0.0);
    }

    #[test]
    fn min_dist2() {
        let b = r([1.0, 1.0], [2.0, 2.0]);
        assert_eq!(b.min_dist2(&Point::new([1.5, 1.5])), 0.0);
        assert_eq!(b.min_dist2(&Point::new([0.0, 1.5])), 1.0);
        assert_eq!(b.min_dist2(&Point::new([0.0, 0.0])), 2.0);
        assert_eq!(
            Rect::<2>::empty().min_dist2(&Point::new([0.0, 0.0])),
            f64::INFINITY
        );
    }

    #[test]
    fn union_all() {
        let rects = vec![
            r([0.0, 0.0], [1.0, 1.0]),
            r([5.0, 5.0], [6.0, 6.0]),
            r([-1.0, 2.0], [0.0, 3.0]),
        ];
        let u = Rect::union_all(&rects);
        assert_eq!(u, r([-1.0, 0.0], [6.0, 6.0]));
        assert_eq!(Rect::<2>::union_all([]), Rect::empty());
    }

    #[test]
    fn clamp_to_unit() {
        let b = r([0.5, -0.5], [1.5, 0.5]);
        let c = b.clamp_to(&Rect::unit());
        assert_eq!(c, r([0.5, 0.0], [1.0, 0.5]));
    }

    #[test]
    fn from_corners_any_order() {
        let a = Point::new([3.0, 0.0]);
        let b = Point::new([1.0, 2.0]);
        let r1 = Rect::from_corners(a, b);
        assert_eq!(r1, r([1.0, 0.0], [3.0, 2.0]));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Rect::try_new([1.0, 0.0], [0.0, 1.0]).is_err());
        assert!(Rect::try_new([f64::NAN, 0.0], [1.0, 1.0]).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(r([0.0, 0.0], [1.0, 2.0]).to_string(), "[0..1 x 0..2]");
        assert_eq!(Rect::<2>::empty().to_string(), "[empty]");
    }

    #[test]
    fn cmp_center_orders_by_axis() {
        let a = r([0.0, 0.0], [1.0, 1.0]); // center (0.5, 0.5)
        let b = r([0.25, 2.0], [0.75, 3.0]); // center (0.5, 2.5)
        assert_eq!(a.cmp_center(&b, 0), std::cmp::Ordering::Equal);
        assert_eq!(a.cmp_center(&b, 1), std::cmp::Ordering::Less);
    }
}
