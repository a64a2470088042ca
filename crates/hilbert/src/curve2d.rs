//! Classic 2-D Hilbert curve (the rotate-and-flip formulation), compiled
//! for tests only.
//!
//! An independent oracle for the production encoders
//! ([`crate::lut::xy2d_lut`], [`crate::curve::axes_to_index`]): the
//! tests cross-check them against it, which guards against transcription
//! bugs — the usual failure mode of Hilbert code.

/// Map `(x, y)` on a `2^bits × 2^bits` grid to its Hilbert index.
///
/// # Panics
/// Panics if a coordinate does not fit in `bits` bits or `bits > 32`.
pub(crate) fn xy2d(mut x: u64, mut y: u64, bits: u32) -> u128 {
    assert!((1..=32).contains(&bits), "bits must be in 1..=32");
    let side = 1u64 << bits;
    assert!(x < side && y < side, "coordinate out of grid");
    let mut d: u128 = 0;
    let mut s = side / 2;
    while s > 0 {
        let rx = u64::from(x & s > 0);
        let ry = u64::from(y & s > 0);
        d += (s as u128) * (s as u128) * ((3 * rx) ^ ry) as u128;
        // Rotate/flip the quadrant so the sub-curve is in canonical
        // orientation.
        if ry == 0 {
            if rx == 1 {
                x = side - 1 - x;
                y = side - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Inverse of [`xy2d`]: map a Hilbert index to `(x, y)`.
pub(crate) fn d2xy(d: u128, bits: u32) -> (u64, u64) {
    assert!((1..=32).contains(&bits), "bits must be in 1..=32");
    let side = 1u64 << bits;
    assert!(d < (side as u128) * (side as u128), "index out of curve");
    let (mut x, mut y) = (0u64, 0u64);
    let mut t = d;
    let mut s = 1u64;
    while s < side {
        let rx = 1 & (t / 2) as u64;
        let ry = 1 & ((t as u64) ^ rx);
        // Rotate.
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_order_curve() {
        // The 2x2 Hilbert curve visits (0,0),(0,1),(1,1),(1,0).
        assert_eq!(d2xy(0, 1), (0, 0));
        assert_eq!(d2xy(1, 1), (0, 1));
        assert_eq!(d2xy(2, 1), (1, 1));
        assert_eq!(d2xy(3, 1), (1, 0));
    }

    #[test]
    fn round_trip_exhaustive_16() {
        let bits = 4;
        let n = 1u64 << bits;
        for x in 0..n {
            for y in 0..n {
                let d = xy2d(x, y, bits);
                assert_eq!(d2xy(d, bits), (x, y), "round trip at ({x},{y})");
            }
        }
    }

    #[test]
    fn bijective_and_continuous_16() {
        let bits = 4;
        let n = 1u64 << bits;
        let mut prev = None;
        let mut seen = std::collections::HashSet::new();
        for d in 0..(n * n) as u128 {
            let p = d2xy(d, bits);
            assert!(seen.insert(p));
            if let Some((px, py)) = prev {
                let dist = (p.0 as i64 - px as i64).abs() + (p.1 as i64 - py as i64).abs();
                assert_eq!(dist, 1, "discontinuity at index {d}");
            }
            prev = Some(p);
        }
    }

    #[test]
    #[should_panic(expected = "out of grid")]
    fn rejects_out_of_grid() {
        let _ = xy2d(4, 0, 2);
    }

    #[test]
    #[should_panic(expected = "out of curve")]
    fn rejects_out_of_curve() {
        let _ = d2xy(16, 2);
    }
}
