//! Analytical query-cost model.
//!
//! §3 of the paper: the area/perimeter sums "are good indicators of the
//! number of nodes accessed by a query" — that is the classical R-tree
//! cost model (Kamel & Faloutsos; Pagel et al.): a query window of
//! extents `q = (q₀ … q_{D−1})` whose position is uniform intersects a
//! node with MBR extents `w` with probability `∏ᵢ (wᵢ + qᵢ)` (in a unit
//! data space, ignoring boundary clipping). Summing over all nodes gives
//! the expected node accesses per query:
//!
//! ```text
//! E[accesses] = Σ_nodes ∏_axes (wᵢ + qᵢ)
//!             = Σ area  +  q·Σ margins  +  … + q^D · N      (for square q)
//! ```
//!
//! — which is exactly why the paper's Tables 4/6/8/10 report area *and*
//! perimeter: the area term dominates for large queries, the
//! perimeter/margin term for small ones, and the node count `N` for
//! point queries of region data. The `repro model` experiment validates
//! this model against measured node visits.

use geom::Rect;
use rtree::{RTree, Result};

/// Expected node accesses for a square query of side `q` with its
/// position uniform over the unit space, summed over **all** tree
/// levels. `q = 0` gives the point-query expectation (the area sum).
pub fn expected_accesses<const D: usize>(tree: &RTree<D>, q: f64) -> Result<f64> {
    expected_accesses_rect(tree, &[q; D])
}

/// As [`expected_accesses`] with per-axis query extents.
pub fn expected_accesses_rect<const D: usize>(tree: &RTree<D>, q: &[f64; D]) -> Result<f64> {
    let mut total = 0.0;
    tree.visit_views(&mut |_, node| {
        total += hit_probability(&node.mbr(), q);
    })?;
    Ok(total)
}

/// Expected *leaf* accesses only — the quantity of interest when upper
/// levels are buffered, as the paper argues they will be.
pub fn expected_leaf_accesses<const D: usize>(tree: &RTree<D>, q: f64) -> Result<f64> {
    let mut total = 0.0;
    tree.visit_views(&mut |_, node| {
        if node.is_leaf() {
            total += hit_probability(&node.mbr(), &[q; D]);
        }
    })?;
    Ok(total)
}

/// Probability that a uniformly placed query of extents `q` intersects
/// `mbr`, clamped to 1 (a node bigger than the space is always hit).
fn hit_probability<const D: usize>(mbr: &Rect<D>, q: &[f64; D]) -> f64 {
    if mbr.is_empty() {
        return 0.0;
    }
    let mut p = 1.0;
    for (i, qi) in q.iter().enumerate() {
        p *= (mbr.extent(i) + qi).min(1.0);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PackerKind, PackingOrder, StrPacker};
    use rtree::NodeCapacity;
    use std::sync::Arc;
    use storage::{BufferPool, MemDisk};

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 1024))
    }

    fn scattered(n: usize) -> Vec<(Rect<2>, u64)> {
        (0..n)
            .map(|i| {
                let x = ((i * 193) % 7919) as f64 / 7919.0;
                let y = ((i * 389) % 7907) as f64 / 7907.0;
                (Rect::new([x, y], [x, y]), i as u64)
            })
            .collect()
    }

    /// Mean node *visits* per query (every buffer request, hit or miss).
    fn measured_visits(tree: &RTree<2>, q: f64, count: usize) -> f64 {
        let pool = tree.pool();
        pool.reset_stats();
        let mut total_seed = 0x1234u64;
        for i in 0..count {
            total_seed = total_seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i as u64);
            let x = ((total_seed >> 16) & 0xFFFF) as f64 / 65536.0 * (1.0 - q).max(1e-9);
            let y = ((total_seed >> 32) & 0xFFFF) as f64 / 65536.0 * (1.0 - q).max(1e-9);
            let query = Rect::new([x, y], [x + q, y + q]);
            tree.query_region_visit(&query, &mut |_, _| {}).unwrap();
        }
        let s = pool.stats();
        (s.hits + s.misses) as f64 / count as f64
    }

    #[test]
    fn model_predicts_measured_visits_within_tolerance() {
        let tree = StrPacker::new()
            .pack(pool(), scattered(20_000), NodeCapacity::new(100).unwrap())
            .unwrap();
        for q in [0.05, 0.1, 0.3] {
            let predicted = expected_accesses(&tree, q).unwrap();
            let measured = measured_visits(&tree, q, 500);
            let rel = (predicted - measured).abs() / measured;
            assert!(
                rel < 0.25,
                "q={q}: predicted {predicted:.2} vs measured {measured:.2} ({:.0}% off)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn model_ranks_packers_like_reality() {
        // The model must reproduce the paper's ranking: STR < HS << NX
        // for region queries on uniform data.
        let items = scattered(20_000);
        let cap = NodeCapacity::new(100).unwrap();
        let mut predicted = Vec::new();
        for kind in PackerKind::ALL {
            let tree = kind.pack(pool(), items.clone(), cap).unwrap();
            predicted.push((kind.name(), expected_accesses(&tree, 0.1).unwrap()));
        }
        assert!(predicted[0].1 < predicted[1].1, "STR < HS: {predicted:?}");
        assert!(predicted[1].1 < predicted[2].1, "HS < NX: {predicted:?}");
        assert!(
            predicted[2].1 > 2.0 * predicted[0].1,
            "NX far worse: {predicted:?}"
        );
    }

    #[test]
    fn point_query_expectation_is_area_sum() {
        let tree = StrPacker::new()
            .pack(pool(), scattered(5_000), NodeCapacity::new(50).unwrap())
            .unwrap();
        let s = tree.summary().unwrap();
        let e = expected_accesses(&tree, 0.0).unwrap();
        assert!((e - s.levels.iter().map(|l| l.area_sum).sum::<f64>()).abs() < 1e-9);
        let el = expected_leaf_accesses(&tree, 0.0).unwrap();
        assert!((el - s.leaf_area()).abs() < 1e-9);
    }

    #[test]
    fn probability_is_clamped() {
        // A node spanning the whole space is hit with probability 1, not
        // (1 + q)^D.
        let p = hit_probability(&Rect::<2>::unit(), &[0.3, 0.3]);
        assert_eq!(p, 1.0);
        assert_eq!(hit_probability(&Rect::<2>::empty(), &[0.1, 0.1]), 0.0);
    }

    #[test]
    fn leaf_expectation_bounded_by_total() {
        let tree = StrPacker::new()
            .pack(pool(), scattered(3_000), NodeCapacity::new(30).unwrap())
            .unwrap();
        let _ = tree.pool().disk().num_pages();
        for q in [0.0, 0.1, 0.5] {
            let leaf = expected_leaf_accesses(&tree, q).unwrap();
            let all = expected_accesses(&tree, q).unwrap();
            assert!(leaf <= all + 1e-12, "q={q}: {leaf} > {all}");
        }
    }
}
