//! The ordering abstraction the three packing algorithms plug into.

use std::sync::Arc;

use geom::Rect;
use rtree::{Entry, NodeCapacity, RTree};
use storage::BufferPool;

/// An ordering applied to the entries of each level during bottom-up
/// packing.
///
/// §2.2: "The three algorithms differ only in how the rectangles are
/// ordered at each level." Implementations permute `entries`; the bulk
/// loader then cuts consecutive runs of `cap.max()` into nodes.
pub trait PackingOrder<const D: usize> {
    /// Short display name ("STR", "HS", "NX", …) used by experiment
    /// output.
    fn name(&self) -> &'static str;

    /// Permute `entries` into packing order for `level` (0 = leaf data,
    /// higher = node MBRs).
    fn order_level(&self, entries: &mut Vec<Entry<D>>, level: u32, cap: NodeCapacity);

    /// Pack `(rect, id)` items into a fresh R-tree on `pool` — a
    /// convenience over [`crate::pack`].
    fn pack(
        &self,
        pool: Arc<BufferPool>,
        items: Vec<(Rect<D>, u64)>,
        cap: NodeCapacity,
    ) -> rtree::Result<RTree<D>>
    where
        Self: Sized,
    {
        crate::pack(pool, items, cap, self)
    }
}

/// The `u64` sort key of `rect`'s center along `axis`. Adding `0.0`
/// folds `-0.0` into `+0.0` (the comparator holds them equal), so keys
/// order every center exactly as [`Rect::cmp_center`] does; a center is
/// never NaN, infinite corners included.
#[inline]
pub(crate) fn center_key<const D: usize>(rect: &Rect<D>, axis: usize) -> u64 {
    hilbert::f64_order_key(rect.center_coord(axis) + 0.0)
}

/// Stable sort of `entries` by center coordinate along `axis` — the
/// order `sort_by(|a, b| a.rect.cmp_center(&b.rect, axis))` gives.
///
/// Every packer's center sort goes through here: each level of in-memory
/// STR and NX packing, each axis TGS tries, each slab of the out-of-core
/// pipeline ([`crate::str_pack::order_slab`]) and each LSM compaction
/// ([`crate::pack_str_to_flat`]). Each center is computed once, as a
/// `u64` order key, and [`extsort::radix_sort_by_key`] orders the
/// entries: one in-place pass on the top key bits moves each entry once,
/// and every bucket then sorts inside the cache. On a 2-vCPU Xeon VM a
/// 1M-entry level sorts in 0.4 of the time of the least-significant-digit
/// pair sort this replaced, whose pair buffers and permutation outgrow
/// the L2 cache, and a 14k-entry slab in about the same (DESIGN §13).
pub fn sort_by_center<const D: usize>(entries: &mut [Entry<D>], axis: usize) {
    extsort::radix_sort_by_key(entries, |e| center_key(&e.rect, axis));
}

/// A [`PackingOrder`] defined by a closure — for experimenting with new
/// orderings against the same harness (the paper's conclusion calls the
/// search for better packings an open challenge).
pub struct CustomOrder<F> {
    name: &'static str,
    f: F,
}

impl<F> CustomOrder<F> {
    /// Wrap `f` as a named packing order.
    pub fn new(name: &'static str, f: F) -> Self {
        Self { name, f }
    }
}

impl<const D: usize, F> PackingOrder<D> for CustomOrder<F>
where
    F: Fn(&mut Vec<Entry<D>>, u32, NodeCapacity),
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn order_level(&self, entries: &mut Vec<Entry<D>>, level: u32, cap: NodeCapacity) {
        (self.f)(entries, level, cap)
    }
}

/// The three packing algorithms of the paper, as a value — handy for
/// iterating experiments over all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackerKind {
    /// Sort-Tile-Recursive (the paper's contribution).
    Str,
    /// Hilbert Sort (Kamel & Faloutsos).
    Hilbert,
    /// Nearest-X (Roussopoulos & Leifker).
    NearestX,
}

impl PackerKind {
    /// All three, in the paper's column order (STR, HS, NX).
    pub const ALL: [PackerKind; 3] = [PackerKind::Str, PackerKind::Hilbert, PackerKind::NearestX];

    /// The name used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            PackerKind::Str => "STR",
            PackerKind::Hilbert => "HS",
            PackerKind::NearestX => "NX",
        }
    }

    /// Apply this packer's ordering to one level.
    pub fn order_level<const D: usize>(
        &self,
        entries: &mut Vec<Entry<D>>,
        level: u32,
        cap: NodeCapacity,
    ) {
        match self {
            PackerKind::Str => crate::StrPacker::new().order_level(entries, level, cap),
            PackerKind::Hilbert => crate::HilbertPacker::new().order_level(entries, level, cap),
            PackerKind::NearestX => crate::NearestXPacker::new().order_level(entries, level, cap),
        }
    }

    /// Pack items into a fresh tree with this algorithm.
    pub fn pack<const D: usize>(
        &self,
        pool: Arc<BufferPool>,
        items: Vec<(Rect<D>, u64)>,
        cap: NodeCapacity,
    ) -> rtree::Result<RTree<D>> {
        self.pack_named(pool, rtree::DEFAULT_TREE, items, cap)
    }

    /// [`Self::pack`] under a catalog name of the caller's choosing.
    pub fn pack_named<const D: usize>(
        &self,
        pool: Arc<BufferPool>,
        name: &str,
        items: Vec<(Rect<D>, u64)>,
        cap: NodeCapacity,
    ) -> rtree::Result<RTree<D>> {
        match self {
            PackerKind::Str => crate::pack_named(pool, name, items, cap, &crate::StrPacker::new()),
            PackerKind::Hilbert => {
                crate::pack_named(pool, name, items, cap, &crate::HilbertPacker::new())
            }
            PackerKind::NearestX => {
                crate::pack_named(pool, name, items, cap, &crate::NearestXPacker::new())
            }
        }
    }
}

impl std::fmt::Display for PackerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(PackerKind::Str.name(), "STR");
        assert_eq!(PackerKind::Hilbert.to_string(), "HS");
        assert_eq!(PackerKind::NearestX.to_string(), "NX");
        assert_eq!(PackerKind::ALL.len(), 3);
    }

    #[test]
    fn custom_order_runs_closure() {
        let reverse = CustomOrder::new("REV", |es: &mut Vec<Entry<2>>, _, _| es.reverse());
        let mut entries: Vec<Entry<2>> = (0..3)
            .map(|i| Entry::data(Rect::new([i as f64, 0.0], [i as f64, 0.0]), i as u64))
            .collect();
        PackingOrder::order_level(&reverse, &mut entries, 0, NodeCapacity::new(2).unwrap());
        let ids: Vec<u64> = entries.iter().map(|e| e.payload).collect();
        assert_eq!(ids, vec![2, 1, 0]);
        assert_eq!(PackingOrder::<2>::name(&reverse), "REV");
    }

    /// The radix sort behind [`sort_by_center`] against the comparator
    /// sort it replaced: the same permutation, entry for entry, so ties
    /// keep their input order. The sizes straddle the insertion cut and
    /// each change of digit width, 64Ki (about where a level's entries
    /// outgrow a 2 MiB L2 cache), and reach 1M entries; "all equal" puts
    /// every entry of a pass in one bucket, ordered by input index alone.
    /// Infinite centers come from `[x, +∞]` rectangles here;
    /// `infinite_corners_sort_like_the_comparator` covers `−∞` corners.
    #[test]
    fn sort_by_center_matches_comparator_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const SPECIALS: [f64; 13] = [
            -0.0,
            0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE,
            -1e300,
            -2.5,
            -1.0,
            1.0,
            f64::MAX,
            -f64::MAX,
        ];
        /// One axis of a rectangle, `(lo, hi)`, drawn from `shape`.
        fn corner(shape: &str, rng: &mut StdRng) -> (f64, f64) {
            match shape {
                "all equal" => (0.25, 0.75),
                "heavy ties" => {
                    let v = rng.gen_range(-3i32..4) as f64 / 2.0;
                    (v, v + 1.0)
                }
                "negative" => {
                    let lo: f64 = rng.gen_range(-1e6..0.0);
                    (lo, lo + rng.gen_range(0.0..10.0))
                }
                _ => match rng.gen_range(0..SPECIALS.len() + 3) {
                    i if i < SPECIALS.len() => (SPECIALS[i], SPECIALS[i]),
                    i if i == SPECIALS.len() => (rng.gen_range(-1.0..1.0), f64::INFINITY),
                    i if i == SPECIALS.len() + 1 => (-0.0, 0.0),
                    _ => (0.0, -0.0),
                },
            }
        }
        let mut rng = StdRng::seed_from_u64(19);
        for n in [
            0,
            1,
            2,
            16,
            17,
            127,
            128,
            1_023,
            1_024,
            65_535,
            65_536,
            65_537,
            1 << 20,
        ] {
            for shape in ["all equal", "heavy ties", "specials", "negative"] {
                let entries: Vec<Entry<2>> = (0..n as u64)
                    .map(|id| {
                        let (x0, x1) = corner(shape, &mut rng);
                        let (y0, y1) = corner(shape, &mut rng);
                        Entry::data(Rect::new([x0, y0], [x1, y1]), id)
                    })
                    .collect();
                for axis in 0..2 {
                    let mut expect = entries.clone();
                    expect.sort_by(|a, b| a.rect.cmp_center(&b.rect, axis));
                    let mut got = entries.clone();
                    sort_by_center(&mut got, axis);
                    assert!(
                        got.iter()
                            .map(|e| e.payload)
                            .eq(expect.iter().map(|e| e.payload)),
                        "{shape}: n={n} axis={axis}"
                    );
                }
            }
        }
    }

    /// Rectangles with infinite corners, or spans that overflow, have a
    /// center like any other (`[−∞, 0]` centers at −∞, `[−∞, +∞]` and
    /// `[−f64::MAX, f64::MAX]` at 0), so they sort in comparator order.
    #[test]
    fn infinite_corners_sort_like_the_comparator() {
        let (inf, max) = (f64::INFINITY, f64::MAX);
        let odd = [
            (-inf, 0.0),
            (-inf, inf),
            (-max, max),
            (0.0, inf),
            (-inf, -inf),
        ];
        let mut entries: Vec<Entry<2>> = (0..600u64)
            .map(|id| {
                let (lo, hi) = if id % 3 == 0 {
                    odd[(id / 3) as usize % odd.len()]
                } else {
                    let x = (id * 7919 % 600) as f64 - 300.0;
                    (x, x)
                };
                Entry::data(Rect::new([lo, 0.0], [hi, 0.0]), id)
            })
            .collect();
        let mut expect = entries.clone();
        expect.sort_by(|a, b| a.rect.cmp_center(&b.rect, 0));
        sort_by_center(&mut entries, 0);
        assert!(entries
            .iter()
            .map(|e| e.payload)
            .eq(expect.iter().map(|e| e.payload)));
        assert_eq!(entries[0].rect.lo(0), -inf);
    }
}
