//! Structure-of-arrays rectangle batches and the batch intersection
//! kernel the flat index tier queries through.
//!
//! The flat tier (crates/flat) stores each level's MBRs as per-axis
//! `min`/`max` arrays rather than an array of [`Rect`] structs. A region
//! query then reduces to a data-parallel compare over contiguous `f64`
//! runs: for every candidate `i`,
//! `q.lo(a) <= max[a][i] && min[a][i] <= q.hi(a)` on all axes. This
//! module provides a borrowed SoA view and a blocked kernel that tests
//! 4 rectangles per step with branch-free `&` combining — a shape LLVM
//! autovectorizes on every target — plus an explicit SSE2 path for the
//! 2-D case evaluated in the paper.
//!
//! Semantics match [`Rect::intersects`] exactly on the precondition
//! that **no slot is empty** (every slot passes [`Rect::try_new`]). An
//! empty query is refused up front. An empty slot (`min = +inf,
//! max = -inf`) fails `min[i] <= q.hi` or `q.lo <= max[i]` whenever the
//! query is finite on one side of some axis, but a query spanning
//! −∞..+∞ on every axis passes both compares and counts it as a hit,
//! where [`Rect::intersects`] says false. The loop carries no emptiness
//! check; callers keep empty rectangles out of the columns instead.

use crate::Rect;

/// How many rectangles each kernel block tests at once.
const LANES: usize = 4;

/// A borrowed structure-of-arrays view over `len` rectangles: one
/// `min` and one `max` coordinate slice per axis, all of equal length.
#[derive(Debug, Clone, Copy)]
pub struct SoaRects<'a, const D: usize> {
    mins: [&'a [f64]; D],
    maxs: [&'a [f64]; D],
    len: usize,
}

impl<'a, const D: usize> SoaRects<'a, D> {
    /// Assemble a view from per-axis coordinate slices.
    ///
    /// # Panics
    /// Panics if the slices do not all share one length.
    pub fn new(mins: [&'a [f64]; D], maxs: [&'a [f64]; D]) -> Self {
        let len = mins.first().map_or(0, |m| m.len());
        for a in 0..D {
            assert_eq!(mins[a].len(), len, "SoA min slice length mismatch");
            assert_eq!(maxs[a].len(), len, "SoA max slice length mismatch");
        }
        Self { mins, maxs, len }
    }

    /// Number of rectangles in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no rectangles.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reassemble rectangle `i` as an AoS [`Rect`], unchecked: its
    /// corners must pass [`Rect::try_new`], as every slot of a loaded
    /// flat index does ([`Rect::from_validated`]; debug builds check).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> Rect<D> {
        Rect::from_validated(
            std::array::from_fn(|a| self.mins[a][i]),
            std::array::from_fn(|a| self.maxs[a][i]),
        )
    }

    /// Invoke `visit(i)` for every `i` in `start..end` whose rectangle
    /// intersects `query` (closed-boundary, as [`Rect::intersects`]).
    ///
    /// The range is processed in [`LANES`]-wide blocks; each block
    /// evaluates all axes branch-free and only branches once per block
    /// on the combined hit mask, so misses — the common case while
    /// pruning — cost no per-rectangle branches.
    ///
    /// # Panics
    /// Panics if `end > len()` or `start > end`.
    #[inline]
    pub fn for_each_intersecting<F: FnMut(usize)>(
        &self,
        start: usize,
        end: usize,
        query: &Rect<D>,
        visit: &mut F,
    ) {
        assert!(start <= end && end <= self.len, "range out of bounds");
        if query.is_empty() {
            return;
        }

        let mut i = start;

        #[cfg(target_arch = "x86_64")]
        if D == 2 {
            // Explicit SSE2 path (baseline on x86-64): 2 rects per
            // 128-bit lane pair, 4 per block, movemask to a hit mask.
            while i + LANES <= end {
                let mask = unsafe { mask4_sse2_2d(self, query, i) };
                if mask != 0 {
                    for lane in 0..LANES {
                        if mask & (1 << lane) != 0 {
                            visit(i + lane);
                        }
                    }
                }
                i += LANES;
            }
        }

        while i + LANES <= end {
            let mut hit = [true; LANES];
            for a in 0..D {
                let lo = &self.mins[a][i..i + LANES];
                let hi = &self.maxs[a][i..i + LANES];
                let qlo = query.lo(a);
                let qhi = query.hi(a);
                for lane in 0..LANES {
                    hit[lane] &= (qlo <= hi[lane]) & (lo[lane] <= qhi);
                }
            }
            for (lane, &h) in hit.iter().enumerate() {
                if h {
                    visit(i + lane);
                }
            }
            i += LANES;
        }

        // Tail: fewer than LANES rects left.
        'rect: while i < end {
            for a in 0..D {
                if query.lo(a) > self.maxs[a][i] || self.mins[a][i] > query.hi(a) {
                    i += 1;
                    continue 'rect;
                }
            }
            visit(i);
            i += 1;
        }
    }

    /// Count the rectangles in `start..end` intersecting `query`.
    pub fn count_intersecting(&self, start: usize, end: usize, query: &Rect<D>) -> usize {
        let mut n = 0;
        self.for_each_intersecting(start, end, query, &mut |_| n += 1);
        n
    }
}

/// SSE2 block test for `D == 2`: rects `i .. i+4` against `query`,
/// returning a 4-bit hit mask (bit `l` = rect `i + l` intersects).
///
/// # Safety
/// Caller guarantees `D == 2` and `i + 4 <= soa.len`.
#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn mask4_sse2_2d<const D: usize>(soa: &SoaRects<'_, D>, query: &Rect<D>, i: usize) -> u32 {
    use core::arch::x86_64::*;
    debug_assert!(D == 2 && i + LANES <= soa.len);
    let qxlo = _mm_set1_pd(query.lo(0));
    let qxhi = _mm_set1_pd(query.hi(0));
    let qylo = _mm_set1_pd(query.lo(1));
    let qyhi = _mm_set1_pd(query.hi(1));
    let mut mask = 0u32;
    for half in 0..2 {
        let off = i + half * 2;
        let lx = _mm_loadu_pd(soa.mins[0].as_ptr().add(off));
        let hx = _mm_loadu_pd(soa.maxs[0].as_ptr().add(off));
        let ly = _mm_loadu_pd(soa.mins[1].as_ptr().add(off));
        let hy = _mm_loadu_pd(soa.maxs[1].as_ptr().add(off));
        let m = _mm_and_pd(
            _mm_and_pd(_mm_cmple_pd(qxlo, hx), _mm_cmple_pd(lx, qxhi)),
            _mm_and_pd(_mm_cmple_pd(qylo, hy), _mm_cmple_pd(ly, qyhi)),
        );
        mask |= (_mm_movemask_pd(m) as u32) << (half * 2);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f64 in [0,1) (splitmix64 bits).
    fn rand01(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn random_rects<const D: usize>(n: usize, seed: u64) -> Vec<Rect<D>> {
        let mut s = seed;
        (0..n)
            .map(|k| {
                if k % 17 == 0 {
                    return Rect::empty(); // interleave empty sentinels
                }
                let mut min = [0.0; D];
                let mut max = [0.0; D];
                for a in 0..D {
                    let lo = rand01(&mut s);
                    let ext = rand01(&mut s) * 0.2;
                    min[a] = lo;
                    // k % 5 == 0 → degenerate (zero-extent) on this axis
                    max[a] = if k % 5 == 0 { lo } else { lo + ext };
                }
                Rect::new(min, max)
            })
            .collect()
    }

    fn to_soa<const D: usize>(rects: &[Rect<D>]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut mins = vec![Vec::with_capacity(rects.len()); D];
        let mut maxs = vec![Vec::with_capacity(rects.len()); D];
        for r in rects {
            for a in 0..D {
                mins[a].push(r.lo(a));
                maxs[a].push(r.hi(a));
            }
        }
        (mins, maxs)
    }

    fn check_matches_aos<const D: usize>(n: usize, seed: u64) {
        let rects = random_rects::<D>(n, seed);
        let (mins, maxs) = to_soa(&rects);
        let soa = SoaRects::<D>::new(
            std::array::from_fn(|a| mins[a].as_slice()),
            std::array::from_fn(|a| maxs[a].as_slice()),
        );
        let mut s = seed ^ 0xdead_beef;
        for _ in 0..50 {
            let mut qmin = [0.0; D];
            let mut qmax = [0.0; D];
            for a in 0..D {
                let lo = rand01(&mut s);
                qmin[a] = lo;
                qmax[a] = lo + rand01(&mut s) * 0.4;
            }
            let q = Rect::new(qmin, qmax);
            // Misaligned sub-ranges exercise both the blocked body and
            // the scalar tail.
            let start = (rand01(&mut s) * n as f64 * 0.3) as usize;
            let end = start + ((rand01(&mut s) * (n - start) as f64) as usize);
            let mut got = Vec::new();
            soa.for_each_intersecting(start, end, &q, &mut |i| got.push(i));
            let want: Vec<usize> = (start..end).filter(|&i| rects[i].intersects(&q)).collect();
            assert_eq!(got, want, "D={D} range {start}..{end}");
            assert_eq!(soa.count_intersecting(start, end, &q), want.len());
        }
    }

    #[test]
    fn matches_aos_intersects_2d() {
        check_matches_aos::<2>(257, 1);
    }

    #[test]
    fn matches_aos_intersects_3d() {
        check_matches_aos::<3>(130, 7);
    }

    #[test]
    fn empty_query_matches_nothing() {
        let rects = random_rects::<2>(64, 3);
        let (mins, maxs) = to_soa(&rects);
        let soa = SoaRects::<2>::new([&mins[0], &mins[1]], [&maxs[0], &maxs[1]]);
        assert_eq!(soa.count_intersecting(0, 64, &Rect::empty()), 0);
    }

    /// The kernel's precondition, pinned: with empty slots, a query
    /// infinite on both sides of every axis counts each one as a hit
    /// (which [`Rect::intersects`] does not), while queries infinite on
    /// one side only count none.
    #[test]
    fn empty_slots_hit_only_an_everywhere_infinite_query() {
        let (inf, ninf) = (f64::INFINITY, f64::NEG_INFINITY);
        let rects = vec![Rect::<2>::empty(); 5];
        let (mins, maxs) = to_soa(&rects);
        let soa = SoaRects::<2>::new([&mins[0], &mins[1]], [&maxs[0], &maxs[1]]);
        let everywhere = Rect::new([ninf; 2], [inf; 2]);
        assert_eq!(soa.count_intersecting(0, 5, &everywhere), 5);
        assert!(!rects[0].intersects(&everywhere));
        for q in [
            Rect::new([ninf; 2], [0.0; 2]),
            Rect::new([0.0; 2], [inf; 2]),
            Rect::new([ninf, 0.0], [inf, inf]),
            Rect::new([ninf, ninf], [inf, 0.0]),
        ] {
            assert_eq!(soa.count_intersecting(0, 5, &q), 0, "{q:?}");
        }
    }

    #[test]
    fn get_round_trips() {
        let rects: Vec<Rect<2>> = random_rects::<2>(34, 9)
            .into_iter()
            .filter(|r| !r.is_empty())
            .collect();
        let (mins, maxs) = to_soa(&rects);
        let soa = SoaRects::<2>::new([&mins[0], &mins[1]], [&maxs[0], &maxs[1]]);
        assert_eq!(soa.len(), 32);
        for (i, r) in rects.iter().enumerate() {
            assert_eq!(soa.get(i), *r);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = [0.0f64; 4];
        let b = [0.0f64; 3];
        let _ = SoaRects::<2>::new([&a, &a], [&a, &b]);
    }
}
