//! d-dimensional Hilbert space-filling curve, plus the order-preserving
//! float→integer key the STR paper describes for Hilbert-Sort packing.
//!
//! Kamel & Faloutsos's packing algorithm orders rectangle centers "based on
//! their distance from the origin, measured along the Hilbert Curve"
//! (paper §2.2). The paper notes the published method covers integer
//! coordinates and sketches an extension to floats: view each float as its
//! sign/exponent/mantissa bit string, which embeds all floats in one huge
//! conceptual integer grid — "In practice, one does not store or compute
//! all bit values on the hypothetical grid."
//!
//! We realize that construction exactly:
//!
//! * [`float::f64_order_key`] maps `f64 → u64` preserving `<` (the IEEE-754
//!   total-order trick). This *is* the paper's conceptual bit grid: a
//!   2⁶⁴-cell axis per dimension, with no precision loss.
//! * [`curve`] computes Hilbert indices on that grid for any dimension
//!   `D ≥ 1` with `D × bits ≤ 128`, using Skilling's transpose algorithm.
//!   For the 2-D experiments this gives an exact 128-bit Hilbert index of
//!   the full double-precision plane.

pub mod curve;
#[cfg(test)]
mod curve2d;
pub mod float;
pub mod lut;

pub use curve::{axes_from_index, axes_to_index, hilbert_index_f64};
pub use float::{f64_from_order_key, f64_order_key};
pub use lut::xy2d_lut;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_index_is_deterministic_2d() {
        let a = hilbert_index_f64(&[0.25, 0.75]);
        let b = hilbert_index_f64(&[0.25, 0.75]);
        assert_eq!(a, b);
        let c = hilbert_index_f64(&[0.250001, 0.75]);
        assert_ne!(a, c);
    }

    #[test]
    fn nd_curve_is_a_hilbert_curve_on_8x8() {
        // Bijection + consecutive indices are grid neighbours, verified
        // exhaustively on an 8x8 grid.
        let bits = 3;
        let n = 1u64 << bits;
        let mut seen = std::collections::HashSet::new();
        let mut prev: Option<[u64; 2]> = None;
        for h in 0..n * n {
            let p = axes_from_index::<2>(h as u128, bits);
            assert!(seen.insert(p), "index {h} collided");
            assert_eq!(axes_to_index(&p, bits), h as u128, "round trip at {h}");
            if let Some(q) = prev {
                let d = (p[0] as i64 - q[0] as i64).abs() + (p[1] as i64 - q[1] as i64).abs();
                assert_eq!(d, 1, "curve must move to a grid neighbour at step {h}");
            }
            prev = Some(p);
        }
    }
}
