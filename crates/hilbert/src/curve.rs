//! Generic d-dimensional Hilbert curve via Skilling's transpose algorithm.
//!
//! J. Skilling, "Programming the Hilbert curve", AIP Conf. Proc. 707
//! (2004): a Hilbert index on a `D`-dimensional grid of `2^bits` cells per
//! axis is computed by an in-place bit transform of the coordinate vector
//! (the "transpose" representation), followed by bit interleaving. The
//! transform is its own inverse modulo a Gray-code step, so encode and
//! decode share almost all code.
//!
//! The 2-D specialization is cross-checked exhaustively against the
//! classic rotate-and-flip encoder (`curve2d`, a test-only oracle).

/// Convert coordinates (each `< 2^bits`) to a Hilbert index.
///
/// The result occupies `D * bits` bits, so `D * bits <= 128` is required.
///
/// # Panics
/// Panics if `bits == 0`, `D == 0`, `D * bits > 128`, or a coordinate is
/// out of range.
pub fn axes_to_index<const D: usize>(axes: &[u64; D], bits: u32) -> u128 {
    let x = axes_to_transpose(axes, bits);
    if (3..=crate::lut::MAX_SPREAD_DIMS).contains(&D) {
        // Hot path for d ≥ 3 keys: the transpose transform above is
        // inherently serial per bit, but the interleave is stateless —
        // spread tables emit 8 bits of every axis per lookup.
        return crate::lut::interleave_nd_lut(&x, bits);
    }
    interleave(&x, bits)
}

/// [`axes_to_index`] forced down the per-bit interleave, bypassing the
/// d-dimensional spread tables: the test oracle for the spread-table
/// path.
#[cfg(test)]
pub(crate) fn axes_to_index_per_bit<const D: usize>(axes: &[u64; D], bits: u32) -> u128 {
    let x = axes_to_transpose(axes, bits);
    interleave(&x, bits)
}

/// Skilling's bit transform: coordinates to the "transpose"
/// representation of the Hilbert index.
fn axes_to_transpose<const D: usize>(axes: &[u64; D], bits: u32) -> [u64; D] {
    validate::<D>(bits);
    if bits < 64 {
        for (i, &a) in axes.iter().enumerate() {
            assert!(a < (1u64 << bits), "coordinate {i} out of grid");
        }
    }
    let mut x = *axes;

    // --- AxesToTranspose (Skilling) ---
    // Inverse undo.
    let mut q = if bits == 64 {
        1u64 << 63
    } else {
        1u64 << (bits - 1)
    };
    while q > 1 {
        let p = q - 1;
        for i in 0..D {
            if x[i] & q != 0 {
                x[0] ^= p; // invert
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..D {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u64;
    q = if bits == 64 {
        1u64 << 63
    } else {
        1u64 << (bits - 1)
    };
    while q > 1 {
        if x[D - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
    x
}

/// Inverse of [`axes_to_index`].
pub fn axes_from_index<const D: usize>(index: u128, bits: u32) -> [u64; D] {
    validate::<D>(bits);
    let total = (D as u32) * bits;
    if total < 128 {
        assert!(index < (1u128 << total), "index out of curve");
    }
    let mut x = deinterleave::<D>(index, bits);

    // --- TransposeToAxes (Skilling) ---
    let n = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    // Gray decode by H ^ (H/2).
    let mut t = x[D - 1] >> 1;
    for i in (1..D).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work.
    let mut q = 2u64;
    while q != 0 && q <= n {
        let p = q - 1;
        for i in (0..D).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        if q > n / 2 {
            break;
        }
        q <<= 1;
    }
    x
}

/// Hilbert index of a point with `f64` coordinates, on the exact
/// order-preserving integer embedding of the doubles (see
/// [`crate::float`]).
///
/// `D * bits` is capped at 128, so:
/// * `D = 1`: 64 bits/axis (the key itself),
/// * `D = 2`: 64 bits/axis — the full double-precision plane, losslessly,
/// * `D = 3`: 42 bits/axis, `D = 4`: 32 bits/axis, … (top bits of the key;
///   order-preserving truncation).
pub fn hilbert_index_f64<const D: usize>(p: &[f64; D]) -> u128 {
    let bits = bits_for_dims::<D>();
    let shift = 64 - bits;
    let mut axes = [0u64; D];
    for i in 0..D {
        axes[i] = crate::float::f64_order_key(p[i]) >> shift;
    }
    if D == 2 {
        // Hot path of Hilbert-Sort packing: the table-driven encoder
        // computes the same curve four bits per axis at a time.
        return crate::lut::xy2d_lut(axes[0], axes[1], bits);
    }
    axes_to_index(&axes, bits)
}

/// Bits per axis used by [`hilbert_index_f64`] for dimension `D`.
pub fn bits_for_dims<const D: usize>() -> u32 {
    assert!(D >= 1, "dimension must be at least 1");
    (128 / D as u32).min(64)
}

fn validate<const D: usize>(bits: u32) {
    assert!(D >= 1, "dimension must be at least 1");
    assert!(bits >= 1, "bits must be at least 1");
    assert!(
        (D as u32) * bits <= 128,
        "D * bits = {} exceeds the 128-bit index",
        D as u32 * bits
    );
}

/// Interleave the transpose representation into a single index: bit
/// `bits-1` of `x[0]` is the most significant index bit, then bit `bits-1`
/// of `x[1]`, …, then bit `bits-2` of `x[0]`, and so on.
fn interleave<const D: usize>(x: &[u64; D], bits: u32) -> u128 {
    let mut out = 0u128;
    for b in (0..bits).rev() {
        for xi in x.iter() {
            out = (out << 1) | ((xi >> b) & 1) as u128;
        }
    }
    out
}

/// Inverse of [`interleave`].
fn deinterleave<const D: usize>(index: u128, bits: u32) -> [u64; D] {
    let mut x = [0u64; D];
    let mut pos = (D as u32) * bits;
    for b in (0..bits).rev() {
        for xi in x.iter_mut() {
            pos -= 1;
            *xi |= (((index >> pos) & 1) as u64) << b;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_round_trip() {
        let x = [0b101u64, 0b011u64];
        let idx = interleave::<2>(&x, 3);
        assert_eq!(deinterleave::<2>(idx, 3), x);
        // Manual check: bits of x0=101, x1=011 interleaved msb-first:
        // (1,0),(0,1),(1,1) -> 100111.
        assert_eq!(idx, 0b10_01_11);
    }

    #[test]
    fn round_trip_2d_exhaustive() {
        let bits = 4;
        let n = 1u64 << bits;
        for x in 0..n {
            for y in 0..n {
                let h = axes_to_index(&[x, y], bits);
                assert_eq!(axes_from_index::<2>(h, bits), [x, y]);
            }
        }
    }

    #[test]
    fn round_trip_3d_exhaustive_small() {
        let bits = 2;
        let n = 1u64 << bits;
        let mut seen = std::collections::HashSet::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let h = axes_to_index(&[x, y, z], bits);
                    assert!(seen.insert(h), "collision at ({x},{y},{z})");
                    assert_eq!(axes_from_index::<3>(h, bits), [x, y, z]);
                }
            }
        }
        assert_eq!(seen.len(), (n * n * n) as usize);
    }

    #[test]
    fn continuity_3d() {
        let bits = 3;
        let n = 1u128 << (3 * bits);
        let mut prev: Option<[u64; 3]> = None;
        for h in 0..n {
            let p = axes_from_index::<3>(h, bits);
            if let Some(q) = prev {
                let d: i64 = (0..3).map(|i| (p[i] as i64 - q[i] as i64).abs()).sum();
                assert_eq!(d, 1, "discontinuity at {h}");
            }
            prev = Some(p);
        }
    }

    #[test]
    fn round_trip_1d_is_identity() {
        for v in [0u64, 1, 5, 100, (1 << 20) - 1] {
            let h = axes_to_index(&[v], 20);
            assert_eq!(h, v as u128);
            assert_eq!(axes_from_index::<1>(h, 20), [v]);
        }
    }

    #[test]
    fn full_width_2d_round_trip() {
        // 64 bits per axis, 128-bit index: the configuration used for the
        // double-precision plane.
        for &(x, y) in &[
            (0u64, 0u64),
            (u64::MAX, u64::MAX),
            (u64::MAX, 0),
            (0, u64::MAX),
            (0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210),
        ] {
            let h = axes_to_index(&[x, y], 64);
            assert_eq!(axes_from_index::<2>(h, 64), [x, y]);
        }
    }

    #[test]
    fn matches_classic_2d_exhaustive() {
        // Same curve as the independent rotate-and-flip implementation.
        let bits = 4;
        let n = 1u64 << bits;
        for x in 0..n {
            for y in 0..n {
                assert_eq!(
                    axes_to_index(&[x, y], bits),
                    crate::curve2d::xy2d(x, y, bits),
                    "mismatch at ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn f64_truncation_keeps_order_3d() {
        // 42-bit truncation of the order key is still monotone per axis.
        let lo = hilbert_index_f64(&[0.0, 0.0, 0.0]);
        let hi = hilbert_index_f64(&[0.0, 0.0, 1e-9]);
        // Not comparing magnitudes (the curve wiggles) — but the points
        // must be distinguished even at tiny separations.
        assert_ne!(lo, hi);
    }

    #[test]
    fn bits_for_dims_table() {
        assert_eq!(bits_for_dims::<1>(), 64);
        assert_eq!(bits_for_dims::<2>(), 64);
        assert_eq!(bits_for_dims::<3>(), 42);
        assert_eq!(bits_for_dims::<4>(), 32);
        assert_eq!(bits_for_dims::<8>(), 16);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_oversized_index() {
        let _ = axes_to_index(&[0u64; 3], 64);
    }

    #[test]
    #[should_panic(expected = "out of grid")]
    fn rejects_out_of_grid_coordinate() {
        let _ = axes_to_index(&[8, 0], 3);
    }
}
