//! R*-tree insertion (Beckmann, Kriegel, Schneider, Seeger; SIGMOD 1990).
//!
//! The STR paper cites the R*-tree as one of the improved dynamic
//! algorithms that "still are not competitive with regard to query time
//! when compared to loading algorithms" (§1). This module implements the
//! full R* insertion path so that claim is measurable here:
//!
//! * **ChooseSubtree**: at the level just above the leaves, pick the
//!   child whose *overlap* with its siblings grows least (ties: least
//!   area enlargement, then least area); higher up, least area
//!   enlargement.
//! * **Forced reinsertion**: on the first overflow at each level per
//!   insertion, evict the 30% of entries whose centers lie farthest from
//!   the node's center and reinsert them from the top — R*'s cheap local
//!   rebuild that gives most of its quality edge.
//! * **Topological split** (the [`SplitPolicy::RStarAxis`] split) when
//!   reinsertion has already happened at that level.

use geom::Rect;
use storage::PageId;

use crate::{Entry, Node, RTree, Result, SplitPolicy};

/// Fraction of a node forcibly reinserted on first overflow (the R*
/// paper's recommended 30%).
const REINSERT_FRACTION: f64 = 0.3;

impl<const D: usize> RTree<D> {
    /// Insert with the R* algorithm (ChooseSubtree, forced reinsertion,
    /// topological split). The tree's configured
    /// [`split_policy`](Self::split_policy) is not consulted; R* always
    /// uses its own split.
    pub fn insert_rstar(&mut self, rect: Rect<D>, data: u64) -> Result<()> {
        // One "first overflow" budget per level for the whole insertion,
        // shared by the reinsertions it spawns (the R* rule).
        let mut reinserted_levels: Vec<bool> = vec![false; self.height as usize + 1];
        let mut pending: Vec<(u32, Entry<D>)> = vec![(0, Entry::data(rect, data))];
        while let Some((level, entry)) = pending.pop() {
            // The tree may have grown since the entry was queued; levels
            // remain valid because growth only adds levels above.
            if reinserted_levels.len() < self.height as usize + 1 {
                reinserted_levels.resize(self.height as usize + 1, false);
            }
            let root = self.root;
            let split =
                self.rstar_insert_rec(root, entry, level, &mut reinserted_levels, &mut pending)?;
            if let Some(sibling) = split {
                self.grow_root(sibling)?;
            }
        }
        self.len += 1;
        Ok(())
    }

    /// Make a new root holding the old root and `sibling`.
    fn grow_root(&mut self, sibling: Entry<D>) -> Result<()> {
        let old_root = self.root;
        let old_mbr = self.read_node(old_root)?.mbr();
        let new_root_page = self.alloc_page()?;
        let new_root = Node {
            level: self.height,
            entries: vec![Entry::child(old_mbr, old_root), sibling],
        };
        self.write_node(new_root_page, &new_root)?;
        self.root = new_root_page;
        self.height += 1;
        Ok(())
    }

    /// Recursive insert; returns the sibling entry if this node split.
    fn rstar_insert_rec(
        &mut self,
        page: PageId,
        entry: Entry<D>,
        target_level: u32,
        reinserted: &mut [bool],
        pending: &mut Vec<(u32, Entry<D>)>,
    ) -> Result<Option<Entry<D>>> {
        let mut node = self.read_node(page)?;
        if node.level == target_level {
            node.entries.push(entry);
            return self.finish_node(page, node, reinserted, pending);
        }

        debug_assert!(node.level > target_level);
        let idx = choose_subtree_rstar(&node, &entry.rect, node.level == target_level + 1);
        let child_page = node.entries[idx].child_page();
        let split = self.rstar_insert_rec(child_page, entry, target_level, reinserted, pending)?;

        // Refresh the child's recorded MBR (it may have grown, or shrunk
        // after a forced reinsert).
        node.entries[idx].rect = self.read_node(child_page)?.mbr();
        if let Some(sibling) = split {
            node.entries.push(sibling);
        }
        self.finish_node(page, node, reinserted, pending)
    }

    /// Write `node` back, handling overflow via forced reinsert or
    /// split.
    fn finish_node(
        &mut self,
        page: PageId,
        mut node: Node<D>,
        reinserted: &mut [bool],
        pending: &mut Vec<(u32, Entry<D>)>,
    ) -> Result<Option<Entry<D>>> {
        if node.len() <= self.capacity().max() {
            self.write_node(page, &node)?;
            return Ok(None);
        }

        let level = node.level as usize;
        let is_root = page == self.root;
        if !is_root && !reinserted[level] {
            reinserted[level] = true;
            // Forced reinsert: drop the p entries with centers farthest
            // from the node's center.
            let center = node.mbr().center();
            let p = (((node.len() as f64) * REINSERT_FRACTION).ceil() as usize)
                .clamp(1, node.len() - self.capacity().min());
            node.entries.sort_by(|a, b| {
                // Farthest first.
                geom::total_cmp_f64(
                    b.rect.center().dist2(&center),
                    a.rect.center().dist2(&center),
                )
            });
            let evicted: Vec<Entry<D>> = node.entries.drain(..p).collect();
            self.write_node(page, &node)?;
            for e in evicted {
                pending.push((node.level, e));
            }
            return Ok(None);
        }

        // Split.
        let level = node.level;
        let (left, right) = SplitPolicy::RStarAxis.split(node.entries, self.capacity());
        let right_mbr = Rect::union_all(right.iter().map(|e| &e.rect));
        self.write_node(
            page,
            &Node {
                level,
                entries: left,
            },
        )?;
        let new_page = self.alloc_page()?;
        self.write_node(
            new_page,
            &Node {
                level,
                entries: right,
            },
        )?;
        Ok(Some(Entry::child(right_mbr, new_page)))
    }
}

/// R* ChooseSubtree: overlap-based at the level above the leaves, area
/// based higher up.
fn choose_subtree_rstar<const D: usize>(
    node: &Node<D>,
    rect: &Rect<D>,
    children_are_leaves: bool,
) -> usize {
    debug_assert!(!node.is_empty());
    if !children_are_leaves {
        // Least area enlargement, ties by least area.
        let mut best = 0;
        let mut best_enl = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for (i, e) in node.entries.iter().enumerate() {
            let enl = e.rect.enlargement(rect);
            let area = e.rect.area();
            if enl < best_enl || (enl == best_enl && area < best_area) {
                best = i;
                best_enl = enl;
                best_area = area;
            }
        }
        return best;
    }

    // Leaf-parent level: least overlap enlargement.
    let mut best = 0;
    let mut best_overlap_delta = f64::INFINITY;
    let mut best_enl = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, e) in node.entries.iter().enumerate() {
        let grown = e.rect.union(rect);
        let mut before = 0.0;
        let mut after = 0.0;
        for (j, other) in node.entries.iter().enumerate() {
            if i == j {
                continue;
            }
            before += e.rect.intersection(&other.rect).map_or(0.0, |r| r.area());
            after += grown.intersection(&other.rect).map_or(0.0, |r| r.area());
        }
        let overlap_delta = after - before;
        let enl = e.rect.enlargement(rect);
        let area = e.rect.area();
        let better = overlap_delta < best_overlap_delta
            || (overlap_delta == best_overlap_delta
                && (enl < best_enl || (enl == best_enl && area < best_area)));
        if better {
            best = i;
            best_overlap_delta = overlap_delta;
            best_enl = enl;
            best_area = area;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeCapacity;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use storage::{BufferPool, MemDisk};

    fn new_tree(cap: usize) -> RTree<2> {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 512));
        RTree::create(pool, NodeCapacity::new(cap).unwrap()).unwrap()
    }

    fn random_items(n: usize, seed: u64) -> Vec<(Rect<2>, u64)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..0.95);
                let y: f64 = rng.gen_range(0.0..0.95);
                let s: f64 = rng.gen_range(0.0..0.04);
                (Rect::new([x, y], [x + s, y + s]), i as u64)
            })
            .collect()
    }

    #[test]
    fn inserts_are_found() {
        let mut t = new_tree(8);
        let items = random_items(2_000, 1);
        for (r, id) in &items {
            t.insert_rstar(*r, *id).unwrap();
        }
        assert_eq!(t.len(), 2_000);
        t.validate(false).unwrap();
        for (r, id) in items.iter().take(100) {
            let hits = t.query_point(&r.center()).unwrap();
            assert!(hits.iter().any(|(_, i)| i == id), "lost {id}");
        }
    }

    #[test]
    fn region_queries_match_brute_force() {
        let mut t = new_tree(10);
        let items = random_items(1_000, 2);
        for (r, id) in &items {
            t.insert_rstar(*r, *id).unwrap();
        }
        let q = Rect::new([0.25, 0.25], [0.6, 0.55]);
        let mut expect: Vec<u64> = items
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|(_, id)| *id)
            .collect();
        let mut got: Vec<u64> = t
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
    fn produces_tighter_trees_than_linear_split() {
        // The R* pitch: better structure than Guttman's simpler
        // heuristics. Compare total leaf perimeter against linear-split
        // insertion of the same data.
        let items = random_items(3_000, 3);

        let mut rstar = new_tree(16);
        for (r, id) in &items {
            rstar.insert_rstar(*r, *id).unwrap();
        }
        let mut linear = new_tree(16);
        linear.set_split_policy(SplitPolicy::Linear);
        for (r, id) in &items {
            linear.insert(*r, *id).unwrap();
        }

        let perim =
            |t: &RTree<2>| -> f64 { t.level_mbrs(0).unwrap().iter().map(|r| r.perimeter()).sum() };
        let (pr, pl) = (perim(&rstar), perim(&linear));
        assert!(
            pr < pl,
            "R* leaf perimeter {pr} should beat linear split {pl}"
        );
    }

    #[test]
    fn mixed_with_deletes() {
        let mut t = new_tree(8);
        let items = random_items(800, 4);
        for (r, id) in &items {
            t.insert_rstar(*r, *id).unwrap();
        }
        for (r, id) in items.iter().step_by(3) {
            assert!(t.delete(r, *id).unwrap());
        }
        t.validate(false).unwrap();
        assert_eq!(t.len(), 800 - items.iter().step_by(3).count() as u64);
    }

    #[test]
    fn skewed_data_stays_valid() {
        // Clustered inserts exercise forced reinsertion heavily.
        let mut t = new_tree(6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for i in 0..1_500u64 {
            let cluster = (i % 3) as f64 * 0.3 + 0.1;
            let x = cluster + rng.gen_range(0.0..0.02);
            let y = cluster + rng.gen_range(0.0..0.02);
            t.insert_rstar(Rect::new([x, y], [x + 0.001, y + 0.001]), i)
                .unwrap();
        }
        assert_eq!(t.len(), 1_500);
        t.validate(false).unwrap();
    }
}
