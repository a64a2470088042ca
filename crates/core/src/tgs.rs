//! Top-down Greedy Split packing — the paper's future work, realized.
//!
//! §5 closes with "we plan to continue our search for a better packing
//! algorithm"; the same group's follow-up (García, López, Leutenegger,
//! *A Greedy Algorithm for Bulk Loading R-trees*, ACM-GIS 1998) is TGS:
//! instead of a fixed one-pass ordering, recursively split the data set
//! with binary cuts, each cut chosen greedily over all axes to minimize
//! a cost function of the two resulting MBRs, with cuts constrained to
//! multiples of the subtree capacity so every node still packs full.
//!
//! TGS fits this repository's packing framework because a fully-packed
//! R-tree is determined by its *leaf order*: TGS computes an ordering in
//! which every subtree is a contiguous, capacity-aligned run, and the
//! bottom-up loader (with order preserved at upper levels) then
//! reconstructs exactly the greedy tree.

use geom::Rect;
use rtree::{Entry, NodeCapacity};

use crate::PackingOrder;

/// Cost of a candidate split, evaluated on the two halves' MBRs.
///
/// The original TGS objective is [`SplitCost::Area`]. On *point* data it
/// degenerates — any tiling of a region has the same total area — so the
/// default here is [`SplitCost::Perimeter`], which still discriminates
/// between axes (squarer pieces have less margin) and reduces to the
/// area behaviour on real rectangles. Cut-position ties are broken
/// toward the most balanced cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitCost {
    /// Sum of the two areas (the original TGS objective).
    Area,
    /// Sum of the two perimeters (margins) — favours squarish nodes even
    /// when areas are degenerate (point data). The default.
    #[default]
    Perimeter,
    /// Area of the overlap of the two halves, ties broken by area sum.
    Overlap,
}

impl SplitCost {
    fn eval<const D: usize>(&self, a: &Rect<D>, b: &Rect<D>) -> f64 {
        match self {
            SplitCost::Area => a.area() + b.area(),
            SplitCost::Perimeter => a.perimeter() + b.perimeter(),
            SplitCost::Overlap => {
                let overlap = a.intersection(b).map_or(0.0, |r| r.area());
                // Small area tiebreak keeps the objective total when
                // nothing overlaps.
                overlap * 1e6 + a.area() + b.area()
            }
        }
    }
}

/// Top-down greedy packer.
#[derive(Debug, Clone, Copy)]
pub struct TgsPacker {
    cost: SplitCost,
    balance_tol: f64,
}

impl Default for TgsPacker {
    fn default() -> Self {
        Self {
            cost: SplitCost::default(),
            balance_tol: 1e-9,
        }
    }
}

impl TgsPacker {
    /// TGS with the default (perimeter) objective.
    pub fn new() -> Self {
        Self::default()
    }

    /// TGS with the 1998 paper's area objective.
    pub fn classic() -> Self {
        Self::with_cost(SplitCost::Area)
    }

    /// TGS with an explicit cost function.
    pub fn with_cost(cost: SplitCost) -> Self {
        Self {
            cost,
            ..Self::default()
        }
    }

    /// Balanced-greedy variant: treat candidate cuts within `rel`
    /// relative cost of the optimum as ties and take the most balanced
    /// one. Pure greedy (the default, `rel ≈ 0`) prefers shaving slivers
    /// off the edges on uniform data — an extreme cut reduces the
    /// covered extent where a balanced one cannot — which degrades
    /// toward NX-style stripes; a few percent of tolerance restores
    /// kd-style tilings at no cost on clustered data.
    pub fn with_balance_tolerance(mut self, rel: f64) -> Self {
        self.balance_tol = rel.max(0.0);
        self
    }

    /// The configured cost function.
    pub fn cost(&self) -> SplitCost {
        self.cost
    }
}

impl<const D: usize> PackingOrder<D> for TgsPacker {
    fn name(&self) -> &'static str {
        "TGS"
    }

    fn order_level(&self, entries: &mut Vec<Entry<D>>, level: u32, cap: NodeCapacity) {
        // The full top-down computation happens once, on the leaf data;
        // upper levels must preserve the order it established.
        if level > 0 || entries.is_empty() {
            return;
        }
        let n = cap.max();
        if entries.len() <= n {
            return; // a single leaf; order is immaterial
        }
        // Capacity of one child subtree of the root: the smallest power
        // of n whose n-fold covers the whole set.
        let mut subtree = n;
        while subtree.saturating_mul(n) < entries.len() {
            subtree = subtree.saturating_mul(n);
        }
        tgs_partition(entries, subtree, n, self.cost, self.balance_tol);
    }
}

/// Recursively order `entries`: split into capacity-`subtree` groups by
/// greedy binary cuts, then recurse into each group one level down.
fn tgs_partition<const D: usize>(
    entries: &mut [Entry<D>],
    subtree: usize,
    n: usize,
    cost: SplitCost,
    balance_tol: f64,
) {
    if entries.len() <= n || subtree < n {
        // A single leaf's worth (or below alignment granularity): order
        // within a node is immaterial.
        return;
    }
    // Partition this set into groups of `subtree` entries via recursive
    // greedy binary splits aligned to `subtree`.
    split_recursive(entries, subtree, cost, balance_tol);
    // Recurse into each group with the next-smaller subtree capacity.
    for group in entries.chunks_mut(subtree) {
        tgs_partition(group, subtree / n, n, cost, balance_tol);
    }
}

/// Greedily split `entries` (which needs more than one `unit`-sized
/// group) into two contiguous parts at a multiple of `unit`, choosing
/// the axis and cut of minimum cost; recurse on both sides.
fn split_recursive<const D: usize>(
    entries: &mut [Entry<D>],
    unit: usize,
    cost: SplitCost,
    balance_tol: f64,
) {
    let len = entries.len();
    if len <= unit {
        return;
    }
    let groups = len.div_ceil(unit);

    // (cost, balance penalty, axis, cut): lower cost wins; near-ties go
    // to the most balanced cut, which keeps degenerate objectives (point
    // data under the area cost) from collapsing into slivers.
    let mut best: Option<(f64, usize, usize, usize)> = None;
    let mut best_order: Option<Vec<Entry<D>>> = None;

    for axis in 0..D {
        let mut sorted = entries.to_vec();
        crate::order::sort_by_center(&mut sorted, axis);
        // Prefix and suffix MBRs at unit granularity.
        let mut prefix = vec![Rect::<D>::empty(); groups + 1];
        for g in 0..groups {
            let hi = ((g + 1) * unit).min(len);
            prefix[g + 1] = prefix[g].union(&Rect::union_all(
                sorted[g * unit..hi].iter().map(|e| &e.rect),
            ));
        }
        let mut suffix = vec![Rect::<D>::empty(); groups + 1];
        for g in (0..groups).rev() {
            let hi = ((g + 1) * unit).min(len);
            suffix[g] = suffix[g + 1].union(&Rect::union_all(
                sorted[g * unit..hi].iter().map(|e| &e.rect),
            ));
        }
        for g in 1..groups {
            let c = cost.eval(&prefix[g], &suffix[g]);
            let balance = groups.abs_diff(2 * g);
            let better = match best {
                None => true,
                Some((bc, bbal, _, _)) => {
                    let tol = balance_tol.max(1e-12) * bc.abs().max(1e-300);
                    c < bc - tol || ((c - bc).abs() <= tol && balance < bbal)
                }
            };
            if better {
                best = Some((c, balance, axis, g * unit));
                best_order = Some(sorted.clone());
            }
        }
    }

    let (_, _, _, cut) = best.expect("groups >= 2 yields at least one candidate");
    let order = best_order.expect("same");
    entries.copy_from_slice(&order);
    let (left, right) = entries.split_at_mut(cut);
    split_recursive(left, unit, cost, balance_tol);
    split_recursive(right, unit, cost, balance_tol);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PackerKind, StrPacker, TreeMetrics};
    use rtree::NodeCapacity;
    use std::sync::Arc;
    use storage::{BufferPool, MemDisk};

    fn fresh_pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 512))
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

    #[test]
    fn preserves_multiset() {
        let items = scattered(1234);
        let mut entries: Vec<Entry<2>> = items.iter().map(|(r, id)| Entry::data(*r, *id)).collect();
        let before: std::collections::HashSet<u64> = entries.iter().map(|e| e.payload).collect();
        PackingOrder::order_level(
            &TgsPacker::new(),
            &mut entries,
            0,
            NodeCapacity::new(10).unwrap(),
        );
        assert_eq!(entries.len(), 1234);
        assert_eq!(before, entries.iter().map(|e| e.payload).collect());
    }

    #[test]
    fn packs_a_valid_queryable_tree() {
        let items = scattered(5000);
        let cap = NodeCapacity::new(50).unwrap();
        let tree = crate::pack(fresh_pool(), items.clone(), cap, &TgsPacker::new()).unwrap();
        tree.validate(false).unwrap();
        assert_eq!(tree.len(), 5000);
        let m = TreeMetrics::compute(&tree).unwrap();
        assert!(m.utilization > 0.98);

        let q = Rect::new([0.2, 0.3], [0.5, 0.6]);
        let mut expect: Vec<u64> = items
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|(_, id)| *id)
            .collect();
        let mut got: Vec<u64> = tree
            .query_region(&q)
            .unwrap()
            .into_iter()
            .map(|(_, id)| id)
            .collect();
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(expect, got);
    }

    #[test]
    fn quality_is_in_strs_league_on_uniform_points() {
        // Greedy binary cuts genuinely prefer slicing slivers off the
        // edges on uniform point data (an extreme cut shaves the covered
        // extent, a balanced one does not), so TGS lands between STR and
        // NX there; its wins come on skewed and extended data. Assert
        // the sandwich rather than parity.
        let items = scattered(10_000);
        let cap = NodeCapacity::new(100).unwrap();
        let m_tgs = TreeMetrics::compute(
            &crate::pack(fresh_pool(), items.clone(), cap, &TgsPacker::new()).unwrap(),
        )
        .unwrap();
        let m_str = TreeMetrics::compute(
            &crate::pack(fresh_pool(), items.clone(), cap, &StrPacker::new()).unwrap(),
        )
        .unwrap();
        let m_nx =
            TreeMetrics::compute(&PackerKind::NearestX.pack(fresh_pool(), items, cap).unwrap())
                .unwrap();
        assert!(
            m_tgs.leaf_perimeter < 5.0 * m_str.leaf_perimeter,
            "TGS {} vs STR {}",
            m_tgs.leaf_perimeter,
            m_str.leaf_perimeter
        );
        assert!(
            m_tgs.leaf_perimeter < 0.7 * m_nx.leaf_perimeter,
            "TGS {} vs NX {}",
            m_tgs.leaf_perimeter,
            m_nx.leaf_perimeter
        );

        // The balanced-greedy variant recovers kd-style tiles and lands
        // in STR's league even on uniform points.
        let items2 = scattered(10_000);
        let m_bal = TreeMetrics::compute(
            &crate::pack(
                fresh_pool(),
                items2,
                cap,
                &TgsPacker::new().with_balance_tolerance(0.03),
            )
            .unwrap(),
        )
        .unwrap();
        assert!(
            m_bal.leaf_perimeter < 1.6 * m_str.leaf_perimeter,
            "balanced TGS {} vs STR {}",
            m_bal.leaf_perimeter,
            m_str.leaf_perimeter
        );
    }

    #[test]
    fn cost_functions_all_work() {
        let items = scattered(2000);
        let cap = NodeCapacity::new(20).unwrap();
        for cost in [SplitCost::Area, SplitCost::Perimeter, SplitCost::Overlap] {
            let tree = crate::pack(
                fresh_pool(),
                items.clone(),
                cap,
                &TgsPacker::with_cost(cost),
            )
            .unwrap();
            tree.validate(false)
                .unwrap_or_else(|e| panic!("{cost:?}: {e}"));
            assert_eq!(tree.len(), 2000, "{cost:?}");
        }
    }

    #[test]
    fn splits_separate_clusters() {
        // Two clusters, capacity so each cluster is one subtree: the
        // greedy cut must fall exactly between them.
        let mut items = Vec::new();
        for i in 0..200u64 {
            let f = (i % 100) as f64 * 0.001;
            if i < 100 {
                items.push((Rect::new([f, f], [f, f]), i));
            } else {
                items.push((Rect::new([0.9 + f, 0.9 + f], [0.9 + f, 0.9 + f]), i));
            }
        }
        let cap = NodeCapacity::new(10).unwrap();
        let tree = crate::pack(fresh_pool(), items, cap, &TgsPacker::new()).unwrap();
        // Level-1 MBRs must not mix the clusters: every level-1 node MBR
        // stays within one corner.
        for mbr in tree.level_mbrs(1).unwrap() {
            let spans_both = mbr.lo(0) < 0.5 && mbr.hi(0) > 0.5;
            assert!(!spans_both, "level-1 node spans both clusters: {mbr}");
        }
    }

    #[test]
    fn competitive_on_clustered_data() {
        // Clustered data is where greedy cuts pay off: cuts fall in the
        // gaps between clusters. TGS must be in STR's league there.
        let mut items = Vec::new();
        let mut id = 0u64;
        for cx in 0..4 {
            for cy in 0..4 {
                for i in 0..250u64 {
                    let x = cx as f64 * 0.25 + 0.02 + ((i * 193) % 997) as f64 / 997.0 * 0.08;
                    let y = cy as f64 * 0.25 + 0.02 + ((i * 389) % 991) as f64 / 991.0 * 0.08;
                    items.push((Rect::new([x, y], [x, y]), id));
                    id += 1;
                }
            }
        }
        let cap = NodeCapacity::new(100).unwrap();
        let m_tgs = TreeMetrics::compute(
            &crate::pack(fresh_pool(), items.clone(), cap, &TgsPacker::new()).unwrap(),
        )
        .unwrap();
        let m_str = TreeMetrics::compute(
            &crate::pack(fresh_pool(), items, cap, &StrPacker::new()).unwrap(),
        )
        .unwrap();
        assert!(
            m_tgs.leaf_perimeter < 1.6 * m_str.leaf_perimeter,
            "TGS {} vs STR {} on clustered data",
            m_tgs.leaf_perimeter,
            m_str.leaf_perimeter
        );
    }

    #[test]
    fn small_inputs() {
        for n in [1usize, 2, 9, 10, 11, 100] {
            let items = scattered(n);
            let cap = NodeCapacity::new(10).unwrap();
            let tree = crate::pack(fresh_pool(), items, cap, &TgsPacker::new()).unwrap();
            tree.validate(false)
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(tree.len() as usize, n);
        }
    }
}
