//! The paper's contribution: R-tree packing algorithms.
//!
//! Three packing algorithms share the bottom-up "General Algorithm"
//! framework (paper §2.2, implemented in [`rtree::bulk`]) and "differ only
//! in how the rectangles are ordered at each level":
//!
//! * [`StrPacker`] — **Sort-Tile-Recursive**, the paper's new algorithm:
//!   tile the space into `⌈√P⌉` vertical slices of `S·n` rectangles
//!   each (by x-center), then sort each slice by y-center; in k
//!   dimensions, recurse over the remaining coordinates.
//! * [`HilbertPacker`] — Kamel & Faloutsos's Hilbert-Sort packing: order
//!   rectangle centers by position along the Hilbert space-filling curve.
//! * [`NearestXPacker`] — Roussopoulos & Leifker's Nearest-X: order by
//!   x-coordinate of the center.
//!
//! All three implement [`PackingOrder`]; [`pack`] (or each packer's
//! `pack` method) bulk-loads a paged [`rtree::RTree`]. [`TreeMetrics`]
//! computes the paper's secondary comparison metric — leaf/total MBR area
//! and perimeter sums (Tables 4, 6, 8, 10).

pub mod external;
pub mod hs;
pub mod metrics;
pub mod model;
pub mod nx;
pub mod order;
pub mod str_pack;
pub mod tgs;

pub use external::{
    pack_str_external, pack_str_external_opts, ExternalPackError, ExternalPackOptions,
};
pub use hs::HilbertPacker;
pub use metrics::TreeMetrics;
pub use model::{expected_accesses, expected_accesses_rect, expected_leaf_accesses};
pub use nx::NearestXPacker;
pub use order::{sort_by_center, CustomOrder, PackerKind, PackingOrder};
pub use str_pack::StrPacker;
pub use tgs::{SplitCost, TgsPacker};

use std::sync::Arc;

use geom::Rect;
use rtree::{BulkLoader, Entry, NodeCapacity, RTree};
use storage::BufferPool;

/// Bulk-load `(rect, id)` items into a packed R-tree on `pool`, ordering
/// every level with `order`.
///
/// This is §2.2's General Algorithm: order the rectangles, cut the ordered
/// sequence into full nodes, emit (MBR, page) pairs, and repeat per level
/// until a single root remains.
pub fn pack<const D: usize, O: PackingOrder<D> + ?Sized>(
    pool: Arc<BufferPool>,
    items: Vec<(Rect<D>, u64)>,
    cap: NodeCapacity,
    order: &O,
) -> rtree::Result<RTree<D>> {
    pack_named(pool, rtree::DEFAULT_TREE, items, cap, order)
}

/// [`pack`] into a named catalog entry, so several packed trees (or a
/// packed tree alongside dynamic ones) share one v2 file.
pub fn pack_named<const D: usize, O: PackingOrder<D> + ?Sized>(
    pool: Arc<BufferPool>,
    name: &str,
    items: Vec<(Rect<D>, u64)>,
    cap: NodeCapacity,
    order: &O,
) -> rtree::Result<RTree<D>> {
    let entries: Vec<Entry<D>> = items
        .into_iter()
        .map(|(rect, id)| Entry::data(rect, id))
        .collect();
    BulkLoader::new(cap).load_into(pool, name, entries, &mut |es, level| {
        order.order_level(es, level, cap)
    })
}

/// STR-pack `(rect, id)` items straight into a flat image
/// ([`flat::pack_to_bytes`]) — no disk, no pool, no paged tree. Every
/// level is ordered by [`StrPacker::with_threads`]`(threads)`, so the
/// image is byte-identical to lowering `StrPacker::new().pack(..)` with
/// [`flat::flatten_to_bytes`]. This is the LSM compaction's drain: it
/// already holds every item in memory, so there is nothing for an
/// external sort to bound.
pub fn pack_str_to_flat<const D: usize>(
    items: Vec<(Rect<D>, u64)>,
    cap: NodeCapacity,
    threads: usize,
) -> flat::Result<Vec<u8>> {
    let entries: Vec<Entry<D>> = items
        .into_iter()
        .map(|(rect, id)| Entry::data(rect, id))
        .collect();
    let packer = StrPacker::with_threads(threads);
    flat::pack_to_bytes(entries, cap, &mut |es, level| {
        packer.order_level(es, level, cap)
    })
}

/// Rebuild an existing tree's contents into a freshly packed tree on a
/// new pool — the maintenance move for the "dynamic R-tree variants
/// based on the STR packing algorithm" the paper's future work
/// contemplates: run dynamic for a while, then repack to restore ~100%
/// utilization and packed structure.
pub fn repack<const D: usize, O: PackingOrder<D> + ?Sized>(
    tree: &RTree<D>,
    pool: Arc<BufferPool>,
    order: &O,
) -> rtree::Result<RTree<D>> {
    let items = tree.all_entries()?;
    pack(pool, items, tree.capacity(), order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use storage::MemDisk;

    #[test]
    fn repack_restores_full_utilization() {
        let items = uniform_points(3_000, 77);
        let mut tree = StrPacker::new()
            .pack(fresh_pool(), items, NodeCapacity::new(50).unwrap())
            .unwrap();
        // Degrade with churn.
        for i in 0..500u64 {
            let f = (i % 100) as f64 / 100.0;
            tree.insert(Rect::new([f, 0.98], [f, 0.99]), 100_000 + i)
                .unwrap();
        }
        let degraded = TreeMetrics::compute(&tree).unwrap();
        let rebuilt = repack(&tree, fresh_pool(), &StrPacker::new()).unwrap();
        let m = TreeMetrics::compute(&rebuilt).unwrap();
        assert_eq!(rebuilt.len(), tree.len());
        assert!(m.utilization > 0.95, "utilization {}", m.utilization);
        assert!(m.utilization >= degraded.utilization);
        rebuilt.validate(false).unwrap();
    }

    fn uniform_points(n: usize, seed: u64) -> Vec<(Rect<2>, u64)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let p = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
                (Rect::new(p, p), i as u64)
            })
            .collect()
    }

    fn fresh_pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 512))
    }

    #[test]
    fn every_packer_takes_an_infinite_corner() {
        // `[−∞, 0] × [0, 1]` passes `Rect::try_new`; its center must
        // sort like any other, not panic as a NaN coordinate.
        let mut items = uniform_points(10, 5);
        items.push((Rect::new([f64::NEG_INFINITY, 0.0], [0.0, 1.0]), 10));
        let cap = NodeCapacity::new(4).unwrap();
        let packers: [&dyn PackingOrder<2>; 4] = [
            &StrPacker::new(),
            &HilbertPacker::new(),
            &NearestXPacker::new(),
            &TgsPacker::new(),
        ];
        for packer in packers {
            let tree = pack(fresh_pool(), items.clone(), cap, packer).unwrap();
            tree.validate(false).unwrap();
            assert_eq!(tree.len(), 11, "{}", packer.name());
        }
        let external = pack_str_external(
            fresh_pool(),
            Arc::new(MemDisk::default_size()),
            items,
            cap,
            1024,
        )
        .unwrap();
        external.validate(false).unwrap();
        assert_eq!(external.len(), 11);
    }

    #[test]
    fn cached_key_sorts_leave_table4_metrics_unchanged() {
        // NX and STR now sort on cached center keys (sort_by_center)
        // instead of recomputing the midpoint in every comparison. The
        // optimization must be invisible: on the Table-4 configuration
        // (uniform points, capacity 100) the packed trees — and hence
        // their leaf MBR metrics — must match uncached stable-sort
        // references entry for entry.
        let items = uniform_points(10_000, 42);
        let cap = NodeCapacity::new(100).unwrap();

        // Uncached STR reference: same recursion as str_pack::str_order,
        // but with the original `sort_by(cmp_center)` at every site.
        fn str_reference(entries: &mut [Entry<2>], axis: usize, n: usize) {
            if axis == 1 {
                entries.sort_by(|a, b| a.rect.cmp_center(&b.rect, axis));
                return;
            }
            let pages = entries.len().div_ceil(n);
            if pages <= 1 {
                return;
            }
            let slab_size = n * str_pack::slab_pages(pages, 2);
            entries.sort_by(|a, b| a.rect.cmp_center(&b.rect, axis));
            for slab in entries.chunks_mut(slab_size) {
                str_reference(slab, axis + 1, n);
            }
        }

        type Ref = CustomOrder<Box<dyn Fn(&mut Vec<Entry<2>>, u32, NodeCapacity)>>;
        let references: [(PackerKind, Ref); 2] = [
            (
                PackerKind::NearestX,
                CustomOrder::new(
                    "NX-ref",
                    Box::new(|es: &mut Vec<Entry<2>>, _, _| {
                        es.sort_by(|a, b| a.rect.cmp_center(&b.rect, 0));
                    }),
                ),
            ),
            (
                PackerKind::Str,
                CustomOrder::new(
                    "STR-ref",
                    Box::new(|es: &mut Vec<Entry<2>>, _, cap: NodeCapacity| {
                        str_reference(es, 0, cap.max());
                    }),
                ),
            ),
        ];
        for (kind, reference) in references {
            let cached = kind.pack(fresh_pool(), items.clone(), cap).unwrap();
            let uncached = reference.pack(fresh_pool(), items.clone(), cap).unwrap();
            assert_eq!(
                cached.all_entries().unwrap(),
                uncached.all_entries().unwrap(),
                "{kind}: cached-key ordering diverged from stable reference"
            );
            let cs = cached.summary().unwrap();
            let us = uncached.summary().unwrap();
            assert_eq!(cs.leaf_area(), us.leaf_area(), "{kind} leaf area");
            assert_eq!(
                cs.leaf_perimeter(),
                us.leaf_perimeter(),
                "{kind} leaf perimeter"
            );
            assert_eq!(cs.total_area(), us.total_area(), "{kind} total area");
            assert_eq!(
                cs.total_perimeter(),
                us.total_perimeter(),
                "{kind} total perimeter"
            );
        }
    }

    #[test]
    fn all_packers_preserve_items_and_answer_queries() {
        let items = uniform_points(3000, 1);
        let q = Rect::new([0.2, 0.2], [0.4, 0.5]);
        let mut expect: Vec<u64> = items
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|(_, id)| *id)
            .collect();
        expect.sort_unstable();

        for kind in PackerKind::ALL {
            let tree = kind
                .pack(fresh_pool(), items.clone(), NodeCapacity::new(100).unwrap())
                .unwrap();
            assert_eq!(tree.len(), 3000, "{kind:?}");
            tree.validate(false)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            let mut got: Vec<u64> = tree
                .query_region(&q)
                .unwrap()
                .iter()
                .map(|(_, id)| *id)
                .collect();
            got.sort_unstable();
            assert_eq!(expect, got, "{kind:?} query mismatch");
        }
    }

    #[test]
    fn packed_trees_have_full_utilization() {
        let items = uniform_points(5000, 2);
        for kind in PackerKind::ALL {
            let tree = kind
                .pack(fresh_pool(), items.clone(), NodeCapacity::new(100).unwrap())
                .unwrap();
            let m = TreeMetrics::compute(&tree).unwrap();
            assert!(
                m.utilization > 0.97,
                "{kind:?} utilization {} should be ~1",
                m.utilization
            );
            // 5000 points at fan-out 100: 50 leaves + 1 root.
            assert_eq!(m.nodes, 51, "{kind:?}");
            assert_eq!(m.height, 2, "{kind:?}");
        }
    }

    #[test]
    fn quality_ordering_on_uniform_points() {
        // The paper's headline shape: on uniform data STR has the smallest
        // leaf perimeter, HS is close, NX is an order of magnitude worse
        // (Table 4: 88.2 vs 106.3 vs 982.5 at 50k).
        let items = uniform_points(10_000, 3);
        let cap = NodeCapacity::new(100).unwrap();
        let m_str = TreeMetrics::compute(
            &StrPacker::new()
                .pack(fresh_pool(), items.clone(), cap)
                .unwrap(),
        )
        .unwrap();
        let m_hs = TreeMetrics::compute(
            &HilbertPacker::new()
                .pack(fresh_pool(), items.clone(), cap)
                .unwrap(),
        )
        .unwrap();
        let m_nx = TreeMetrics::compute(
            &NearestXPacker::new()
                .pack(fresh_pool(), items, cap)
                .unwrap(),
        )
        .unwrap();

        assert!(
            m_str.leaf_perimeter < m_hs.leaf_perimeter,
            "STR {} !< HS {}",
            m_str.leaf_perimeter,
            m_hs.leaf_perimeter
        );
        assert!(
            m_nx.leaf_perimeter > 3.0 * m_str.leaf_perimeter,
            "NX {} should dwarf STR {}",
            m_nx.leaf_perimeter,
            m_str.leaf_perimeter
        );
        // Leaf areas on point data: STR/NX tile or slice the square
        // (~1); HS node MBRs overlap more (paper Table 4: 1.33 vs 0.97).
        for (name, m, hi) in [("STR", &m_str, 1.5), ("HS", &m_hs, 2.5), ("NX", &m_nx, 1.5)] {
            assert!(
                m.leaf_area > 0.7 && m.leaf_area < hi,
                "{name} leaf area {}",
                m.leaf_area
            );
        }
    }

    #[test]
    fn three_dimensional_packing_works() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let items: Vec<(Rect<3>, u64)> = (0..2000)
            .map(|i| {
                let p = [
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                ];
                (Rect::new(p, p), i as u64)
            })
            .collect();
        let cap = NodeCapacity::new(64).unwrap();
        let q = Rect::new([0.1, 0.1, 0.1], [0.4, 0.4, 0.4]);
        let mut expect: Vec<u64> = items
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|(_, id)| *id)
            .collect();
        expect.sort_unstable();

        for (name, tree) in [
            (
                "STR",
                StrPacker::new()
                    .pack(fresh_pool(), items.clone(), cap)
                    .unwrap(),
            ),
            (
                "HS",
                HilbertPacker::new()
                    .pack(fresh_pool(), items.clone(), cap)
                    .unwrap(),
            ),
            (
                "NX",
                NearestXPacker::new()
                    .pack(fresh_pool(), items.clone(), cap)
                    .unwrap(),
            ),
        ] {
            tree.validate(false)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut got: Vec<u64> = tree
                .query_region(&q)
                .unwrap()
                .iter()
                .map(|(_, id)| *id)
                .collect();
            got.sort_unstable();
            assert_eq!(expect, got, "{name} 3-D query mismatch");
        }
    }
}
