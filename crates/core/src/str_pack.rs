//! Sort-Tile-Recursive packing — the paper's new algorithm (§2.2).

use obs::LazyHistogram;
use rtree::{Entry, NodeCapacity};

use crate::PackingOrder;

/// Sort-Tile-Recursive ordering.
///
/// For `r` rectangles at fan-out `n` in two dimensions (§2.2):
///
/// > Determine the number of leaf level pages `P = ⌈r/n⌉` and let
/// > `S = ⌈√P⌉`. Sort the rectangles by x-coordinate and partition them
/// > into `S` vertical slices. A slice consists of a run of `S·n`
/// > consecutive rectangles from the sorted list. […] Now sort the
/// > rectangles of each slice by y-coordinate and pack them into nodes by
/// > grouping them into runs of length `n`.
///
/// In `k` dimensions: sort by the first center coordinate, divide into
/// `S = ⌈P^(1/k)⌉` slabs of `n·⌈P^((k−1)/k)⌉` consecutive rectangles, and
/// recurse on each slab over the remaining `k−1` coordinates. `k = 1`
/// degenerates to a plain sort, "already handled well by regular B-trees".
///
/// The same tiling is re-applied at every level of the bottom-up build, as
/// the General Algorithm prescribes.
///
/// The paper's future work includes extending the results "to a parallel
/// shared-nothing platform"; STR is embarrassingly parallel after the
/// first sort (slabs are independent), and [`StrPacker::with_threads`]
/// exploits exactly that. The parallel ordering is bit-identical to the
/// sequential one.
#[derive(Debug, Clone, Copy)]
pub struct StrPacker {
    threads: usize,
}

impl StrPacker {
    /// Sequential packer (the paper's algorithm as published).
    pub fn new() -> Self {
        Self { threads: 1 }
    }

    /// Parallel packer using all available cores for the per-slab
    /// recursion.
    pub fn parallel() -> Self {
        Self::with_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Parallel packer with an explicit thread count (1 = sequential).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for StrPacker {
    fn default() -> Self {
        Self::new()
    }
}

// A level's phases (DESIGN.md §13): the top-level sort on the first
// coordinate, then the recursion over its slabs.
static SORT_NS: LazyHistogram = LazyHistogram::new("str.sort_ns");
static SLABS_NS: LazyHistogram = LazyHistogram::new("str.slabs_ns");

impl<const D: usize> PackingOrder<D> for StrPacker {
    fn name(&self) -> &'static str {
        "STR"
    }

    /// The outermost sort runs on the calling thread: on a large level its
    /// first pass moves each entry once, in place, bound by memory
    /// bandwidth, not by cores.
    /// The independent slabs then fan out across `threads` workers; the
    /// result is identical at every thread count because slab processing
    /// never crosses slab boundaries.
    fn order_level(&self, entries: &mut Vec<Entry<D>>, _level: u32, cap: NodeCapacity) {
        let n = cap.max();
        if D == 1 {
            let _sort = SORT_NS.start();
            crate::order::sort_by_center(entries, 0);
            return;
        }
        let pages = entries.len().div_ceil(n);
        if pages <= 1 {
            return;
        }
        let slab_size = n * slab_pages(pages, D as u32);
        let sort = SORT_NS.start();
        crate::order::sort_by_center(entries, 0);
        drop(sort);

        let _slabs = SLABS_NS.start();
        if self.threads == 1 {
            for slab in entries.chunks_mut(slab_size) {
                str_order::<D>(slab, 1, n);
            }
            return;
        }
        let slabs: Vec<&mut [Entry<D>]> = entries.chunks_mut(slab_size).collect();
        // Round-robin slabs over workers inside a scope: no allocation of
        // intermediate buffers, no unsafe, deterministic output.
        std::thread::scope(|scope| {
            let mut queues: Vec<Vec<&mut [Entry<D>]>> =
                (0..self.threads).map(|_| Vec::new()).collect();
            for (i, slab) in slabs.into_iter().enumerate() {
                queues[i % self.threads].push(slab);
            }
            for queue in queues {
                scope.spawn(move || {
                    for slab in queue {
                        str_order::<D>(slab, 1, n);
                    }
                });
            }
        });
    }
}

/// Order one slab (already selected by the first coordinate) over the
/// remaining `D − 1` coordinates — the per-slab recursion step, exposed
/// for the external packing pipeline which streams slabs off disk.
pub fn order_slab<const D: usize>(slab: &mut [Entry<D>], n: usize) {
    if D > 1 {
        str_order::<D>(slab, 1, n);
    } else {
        str_order::<D>(slab, 0, n);
    }
}

/// Recursively tile `entries` starting at coordinate `axis`.
fn str_order<const D: usize>(entries: &mut [Entry<D>], axis: usize, n: usize) {
    debug_assert!(axis < D);
    let remaining_dims = D - axis;
    if remaining_dims == 1 {
        // Base case: final coordinate, plain sort; the loader cuts runs
        // of n into nodes.
        crate::order::sort_by_center(entries, axis);
        return;
    }
    let pages = entries.len().div_ceil(n);
    if pages <= 1 {
        // Everything fits in one node; order within it is immaterial.
        return;
    }
    // Slabs of n·⌈P^((k−1)/k)⌉ rectangles each; chunking then yields the
    // paper's S = ⌈P^(1/k)⌉ (or fewer) slabs.
    let slab_size = n * slab_pages(pages, remaining_dims as u32);
    crate::order::sort_by_center(entries, axis);
    for slab in entries.chunks_mut(slab_size) {
        str_order::<D>(slab, axis + 1, n);
    }
}

/// `⌈p^((k−1)/k)⌉`, the pages per slab for `p` leaf pages and `k`
/// remaining dimensions: the smallest `m` with `m^k ≥ p^(k−1)`.
/// Floating-point `powf` alone can land on either side of an exact
/// integer root (`27^(1/3)` as `2.9999…` or `3.0000…4`), so the float
/// estimate is fixed up by exact integer comparison.
///
/// Public because the external (out-of-core) packing pipeline needs the
/// same slab arithmetic to size its streaming buffers.
pub fn slab_pages(p: usize, k: u32) -> usize {
    debug_assert!(k >= 2);
    debug_assert!(p >= 1);
    let mut m = (p as f64)
        .powf((k as f64 - 1.0) / k as f64)
        .round()
        .max(1.0) as usize;
    while !pow_at_least(m, k, p, k - 1) {
        m += 1;
    }
    while m > 1 && pow_at_least(m - 1, k, p, k - 1) {
        m -= 1;
    }
    m
}

/// Whether `m^a >= p^b`, in u128 with overflow treated as "huge".
fn pow_at_least(m: usize, a: u32, p: usize, b: u32) -> bool {
    match ((m as u128).checked_pow(a), (p as u128).checked_pow(b)) {
        (Some(lhs), Some(rhs)) => lhs >= rhs,
        (None, Some(_)) => true,
        (Some(_), None) => false,
        // Both astronomically large: fall back to exact comparison in
        // log space (a·ln m vs b·ln p), far beyond any realistic tree.
        (None, None) => (a as f64) * (m as f64).ln() >= (b as f64) * (p as f64).ln(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Rect;

    fn point_entry(x: f64, y: f64, id: u64) -> Entry<2> {
        Entry::data(Rect::new([x, y], [x, y]), id)
    }

    #[test]
    fn slab_pages_math() {
        // p pages, k remaining dims -> ⌈p^((k−1)/k)⌉ pages per slab.
        assert_eq!(slab_pages(25, 2), 5); // √25
        assert_eq!(slab_pages(26, 2), 6); // ⌈√26⌉
        assert_eq!(slab_pages(506, 2), 23); // the paper's 50k/100 case
        assert_eq!(slab_pages(27, 3), 9); // ⌈27^(2/3)⌉
        assert_eq!(slab_pages(1, 2), 1);
        assert_eq!(slab_pages(2, 2), 2);
        assert_eq!(slab_pages(1000, 3), 100);
        assert_eq!(slab_pages(1001, 3), 101); // ⌈1001^(2/3)⌉ = ⌈100.07⌉
    }

    #[test]
    fn pow_at_least_edges() {
        assert!(!pow_at_least(3, 3, 27, 2)); // 27 < 729
        assert!(!pow_at_least(8, 3, 27, 2)); // 512 < 729
        assert!(pow_at_least(9, 3, 27, 2)); // 729 >= 729
        assert!(pow_at_least(usize::MAX, 2, 10, 1)); // overflow lhs path
    }

    #[test]
    fn two_d_slices_are_vertical() {
        // 16 points on a 4x4 grid, n = 4: P = 4 pages, S = 2 slices of
        // 8 rectangles. The first 8 in STR order must be the two left
        // columns (x < 0.5), sorted by y within the slice.
        let mut entries = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                entries.push(point_entry(
                    i as f64 / 4.0,
                    j as f64 / 4.0,
                    (i * 4 + j) as u64,
                ));
            }
        }
        entries.reverse();
        PackingOrder::order_level(
            &StrPacker::new(),
            &mut entries,
            0,
            NodeCapacity::new(4).unwrap(),
        );
        let first_slice: Vec<f64> = entries[..8].iter().map(|e| e.rect.lo(0)).collect();
        assert!(
            first_slice.iter().all(|&x| x < 0.5),
            "first slice not leftmost: {first_slice:?}"
        );
        // Within the slice, y must be non-decreasing.
        let ys: Vec<f64> = entries[..8].iter().map(|e| e.rect.lo(1)).collect();
        assert!(
            ys.windows(2).all(|w| w[0] <= w[1]),
            "slice not y-sorted: {ys:?}"
        );
    }

    #[test]
    fn leaf_mbrs_tile_the_square() {
        // 2500 scattered points, n = 25: P = 100 pages, S = 10 slices of
        // 10 nodes — leaf MBRs should be ~0.1 x 0.1 tiles, so each
        // perimeter is ~0.4 and the total ~40. A naive x-sort would give
        // 100 full-height slivers with total perimeter ~202.
        let mut entries: Vec<Entry<2>> = (0..2500)
            .map(|i| {
                let x = ((i * 193) % 2503) as f64 / 2503.0;
                let y = ((i * 389) % 2501) as f64 / 2501.0;
                point_entry(x, y, i as u64)
            })
            .collect();
        let n = 25;
        PackingOrder::order_level(
            &StrPacker::new(),
            &mut entries,
            0,
            NodeCapacity::new(n).unwrap(),
        );
        let perimeter_sum: f64 = entries
            .chunks(n)
            .map(|chunk| Rect::union_all(chunk.iter().map(|e| &e.rect)).perimeter())
            .sum();
        assert!(
            perimeter_sum < 80.0,
            "STR tiles should have small total perimeter, got {perimeter_sum}"
        );
    }

    #[test]
    fn single_node_input_untouched_order_is_fine() {
        let mut entries: Vec<Entry<2>> = (0..5).map(|i| point_entry(i as f64, 0.0, i)).collect();
        PackingOrder::order_level(
            &StrPacker::new(),
            &mut entries,
            0,
            NodeCapacity::new(10).unwrap(),
        );
        assert_eq!(entries.len(), 5);
    }

    #[test]
    fn preserves_multiset_2d_and_3d() {
        let mut e2: Vec<Entry<2>> = (0..1000)
            .map(|i| point_entry(((i * 7) % 101) as f64, ((i * 11) % 103) as f64, i))
            .collect();
        let before: std::collections::HashSet<u64> = e2.iter().map(|e| e.payload).collect();
        PackingOrder::order_level(
            &StrPacker::new(),
            &mut e2,
            0,
            NodeCapacity::new(10).unwrap(),
        );
        assert_eq!(before, e2.iter().map(|e| e.payload).collect());

        let mut e3: Vec<Entry<3>> = (0..1000)
            .map(|i| {
                let p = [
                    ((i * 7) % 101) as f64,
                    ((i * 11) % 103) as f64,
                    ((i * 13) % 107) as f64,
                ];
                Entry::data(Rect::new(p, p), i)
            })
            .collect();
        let before: std::collections::HashSet<u64> = e3.iter().map(|e| e.payload).collect();
        PackingOrder::order_level(
            &StrPacker::new(),
            &mut e3,
            0,
            NodeCapacity::new(10).unwrap(),
        );
        assert_eq!(before, e3.iter().map(|e| e.payload).collect());
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        for &n_entries in &[100usize, 2_500, 10_000] {
            let make = || -> Vec<Entry<2>> {
                (0..n_entries)
                    .map(|i| {
                        let x = ((i * 193) % 7919) as f64 / 7919.0;
                        let y = ((i * 389) % 7907) as f64 / 7907.0;
                        point_entry(x, y, i as u64)
                    })
                    .collect()
            };
            let cap = NodeCapacity::new(25).unwrap();
            let mut seq = make();
            PackingOrder::order_level(&StrPacker::new(), &mut seq, 0, cap);
            for threads in [2usize, 3, 8] {
                let mut par = make();
                PackingOrder::order_level(&StrPacker::with_threads(threads), &mut par, 0, cap);
                let seq_ids: Vec<u64> = seq.iter().map(|e| e.payload).collect();
                let par_ids: Vec<u64> = par.iter().map(|e| e.payload).collect();
                assert_eq!(seq_ids, par_ids, "{threads} threads, {n_entries} entries");
            }
        }
    }

    #[test]
    fn parallel_3d_matches_sequential() {
        let make = || -> Vec<Entry<3>> {
            (0..5_000u64)
                .map(|i| {
                    let p = [
                        ((i * 7) % 101) as f64,
                        ((i * 11) % 103) as f64,
                        ((i * 13) % 107) as f64,
                    ];
                    Entry::data(Rect::new(p, p), i)
                })
                .collect()
        };
        let cap = NodeCapacity::new(16).unwrap();
        let mut seq = make();
        let mut par = make();
        PackingOrder::order_level(&StrPacker::new(), &mut seq, 0, cap);
        PackingOrder::order_level(&StrPacker::parallel(), &mut par, 0, cap);
        assert_eq!(
            seq.iter().map(|e| e.payload).collect::<Vec<_>>(),
            par.iter().map(|e| e.payload).collect::<Vec<_>>()
        );
    }

    #[test]
    fn thread_count_accessor() {
        assert_eq!(StrPacker::new().threads(), 1);
        assert_eq!(StrPacker::with_threads(0).threads(), 1);
        assert_eq!(StrPacker::with_threads(4).threads(), 4);
        assert!(StrPacker::parallel().threads() >= 1);
    }

    #[test]
    fn three_d_slabs_partition_on_first_axis() {
        // 27 points on a 3x3x3 grid, n = 1: P = 27, S = 3 slabs of 9.
        let mut entries = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    let p = [i as f64, j as f64, k as f64];
                    entries.push(Entry::data(Rect::new(p, p), (i * 9 + j * 3 + k) as u64));
                }
            }
        }
        entries.reverse();
        PackingOrder::order_level(
            &StrPacker::new(),
            &mut entries,
            0,
            NodeCapacity::with_min(2, 1).unwrap(),
        );
        // With n = 2: P = 14 pages, slab = 2·⌈14^(2/3)⌉ = 12 entries.
        // The first slab must hold the 12 smallest x coordinates (ties
        // may straddle the boundary), even though recursion reorders
        // within the slab.
        let slab = 2 * slab_pages(14, 3);
        assert_eq!(slab, 12);
        let max_first = entries[..slab]
            .iter()
            .map(|e| e.rect.lo(0))
            .fold(f64::MIN, f64::max);
        let min_rest = entries[slab..]
            .iter()
            .map(|e| e.rect.lo(0))
            .fold(f64::MAX, f64::min);
        assert!(
            max_first <= min_rest,
            "slab 0 (max x {max_first}) overlaps later entries (min {min_rest})"
        );
    }
}
