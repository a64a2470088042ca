//! Guttman dynamic insertion.
//!
//! The one-at-a-time loading the paper's introduction criticizes: high
//! load time, sub-optimal space utilization, and a tree structure that
//! needs more node retrievals per query than a packed tree. Implemented
//! faithfully so the examples and benches can measure exactly that
//! comparison.

use geom::Rect;
use obs::LazyCounter;
use storage::PageId;

use crate::tree::Staging;
use crate::{Entry, Node, RTree, Result};

/// Node splits staged across every tree in the process (root splits
/// included — they stage an ordinary split first).
static SPLITS: LazyCounter = LazyCounter::new("rtree.splits");

impl<const D: usize> RTree<D> {
    /// Insert a data object with bounding rectangle `rect` and identifier
    /// `data`.
    ///
    /// Runs as a staged mutation: every node write is computed into an
    /// overlay first, so an I/O error during the descent or split phase
    /// leaves the tree exactly as it was (`validate` still passes). Only
    /// a failure while committing the computed writes can poison the
    /// tree (see [`crate::RTreeError::Poisoned`]).
    pub fn insert(&mut self, rect: Rect<D>, data: u64) -> Result<()> {
        self.check_poisoned()?;
        let mut st = self.begin_staging();
        st.len += 1;
        if let Err(e) = self.staged_insert_entry(&mut st, Entry::data(rect, data), 0) {
            self.abandon_staging(st);
            return Err(e);
        }
        self.commit_staging(st)
    }

    /// The Guttman insertion algorithm, expressed against a staging
    /// overlay: ChooseSubtree descent, split on overflow, AdjustTree walk
    /// back up, root split. Nothing outside `st` is modified (page
    /// allocation aside, which `st` tracks for rollback).
    pub(crate) fn staged_insert_entry(
        &mut self,
        st: &mut Staging<D>,
        entry: Entry<D>,
        level: u32,
    ) -> Result<()> {
        debug_assert!(level < st.height, "cannot insert above the root");

        // ChooseLeaf / ChooseSubtree: descend to `level`, remembering the
        // path as (page, index-of-chosen-child).
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let mut page = st.root;
        let mut node = self.staged_read(st, page)?;
        while node.level > level {
            let idx = choose_subtree(&node, &entry.rect);
            path.push((page, idx));
            page = node.entries[idx].child_page();
            node = self.staged_read(st, page)?;
        }

        // Add the entry; split if the node overflows.
        node.entries.push(entry);
        let mut split_off: Option<Entry<D>> = None; // entry for the new sibling
        if node.len() > self.capacity().max() {
            split_off = Some(self.staged_split(st, page, node)?);
        } else {
            st.write(page, node);
        }

        // AdjustTree: walk back up, growing MBRs and propagating splits.
        while let Some((parent_page, child_idx)) = path.pop() {
            let mut parent = self.staged_read(st, parent_page)?;
            // Tighten the chosen child's recorded MBR. The child may have
            // been rewritten by a split, so recompute from its node.
            let child_page = parent.entries[child_idx].child_page();
            let child_mbr = self.staged_read(st, child_page)?.mbr();
            parent.entries[child_idx].rect = child_mbr;

            if let Some(new_sibling) = split_off.take() {
                parent.entries.push(new_sibling);
            }
            if parent.len() > self.capacity().max() {
                split_off = Some(self.staged_split(st, parent_page, parent)?);
            } else {
                st.write(parent_page, parent);
            }
        }

        // Root split: grow the tree by one level.
        if let Some(new_sibling) = split_off {
            let old_root = st.root;
            let old_root_mbr = self.staged_read(st, old_root)?.mbr();
            let new_root_page = self.staged_alloc(st)?;
            let new_root = Node {
                level: st.height,
                entries: vec![Entry::child(old_root_mbr, old_root), new_sibling],
            };
            st.write(new_root_page, new_root);
            st.root = new_root_page;
            st.height += 1;
        }
        Ok(())
    }

    /// Split the overflowing `node` (still addressed by `page`): keep one
    /// group on `page`, stage the other on a fresh page, and return the
    /// parent entry for the new page.
    fn staged_split(
        &mut self,
        st: &mut Staging<D>,
        page: PageId,
        node: Node<D>,
    ) -> Result<Entry<D>> {
        let level = node.level;
        let (left, right) = self.split_policy().split(node.entries, self.capacity());
        let right_mbr = Rect::union_all(right.iter().map(|e| &e.rect));
        st.write(
            page,
            Node {
                level,
                entries: left,
            },
        );
        let new_page = self.staged_alloc(st)?;
        st.write(
            new_page,
            Node {
                level,
                entries: right,
            },
        );
        SPLITS.inc();
        obs::trace::event("rtree.split", page.index(), new_page.index());
        Ok(Entry::child(right_mbr, new_page))
    }
}

/// Guttman's ChooseLeaf criterion: the child needing the least area
/// enlargement; ties broken by the smaller area.
fn choose_subtree<const D: usize>(node: &Node<D>, rect: &Rect<D>) -> usize {
    debug_assert!(!node.is_leaf());
    debug_assert!(!node.is_empty());
    let mut best = 0usize;
    let mut best_enlargement = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, e) in node.entries.iter().enumerate() {
        let enlargement = e.rect.enlargement(rect);
        let area = e.rect.area();
        if enlargement < best_enlargement || (enlargement == best_enlargement && area < best_area) {
            best = i;
            best_enlargement = enlargement;
            best_area = area;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeCapacity, SplitPolicy};
    use geom::Point;
    use std::sync::Arc;
    use storage::{BufferPool, MemDisk};

    fn new_tree(cap: usize, policy: SplitPolicy) -> RTree<2> {
        let disk = Arc::new(MemDisk::default_size());
        let pool = Arc::new(BufferPool::new(disk, 256));
        let mut t = RTree::create(pool, NodeCapacity::new(cap).unwrap()).unwrap();
        t.set_split_policy(policy);
        t
    }

    fn square(x: f64, y: f64, s: f64) -> Rect<2> {
        Rect::new([x, y], [x + s, y + s])
    }

    #[test]
    fn insert_and_find_one() {
        let mut t = new_tree(4, SplitPolicy::Quadratic);
        t.insert(square(0.1, 0.1, 0.2), 7).unwrap();
        assert_eq!(t.len(), 1);
        let hits = t.query_region(&Rect::unit()).unwrap();
        assert_eq!(hits, vec![(square(0.1, 0.1, 0.2), 7)]);
        t.validate(true).unwrap();
    }

    #[test]
    fn root_split_grows_height() {
        let mut t = new_tree(4, SplitPolicy::Quadratic);
        for i in 0..5 {
            t.insert(square(i as f64, 0.0, 0.5), i as u64).unwrap();
        }
        assert_eq!(t.height(), 2, "5 entries at capacity 4 must split");
        assert_eq!(t.len(), 5);
        t.validate(true).unwrap();
    }

    fn insert_many(policy: SplitPolicy, n: u64, cap: usize) -> RTree<2> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut t = new_tree(cap, policy);
        for i in 0..n {
            let x: f64 = rng.gen_range(0.0..1.0);
            let y: f64 = rng.gen_range(0.0..1.0);
            let s: f64 = rng.gen_range(0.0..0.05);
            t.insert(square(x, y, s).clamp_to(&Rect::unit()), i)
                .unwrap();
        }
        t
    }

    #[test]
    fn thousand_inserts_all_policies() {
        for policy in [
            SplitPolicy::Linear,
            SplitPolicy::Quadratic,
            SplitPolicy::RStarAxis,
        ] {
            let t = insert_many(policy, 1000, 8);
            assert_eq!(t.len(), 1000);
            t.validate(true)
                .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
            // Every object findable by a point query at its center.
            let entries = t.all_entries().unwrap();
            assert_eq!(entries.len(), 1000);
            for (rect, id) in entries.iter().take(50) {
                let hits = t.query_point(&rect.center()).unwrap();
                assert!(
                    hits.iter().any(|(_, i)| i == id),
                    "{policy:?}: object {id} lost"
                );
            }
        }
    }

    #[test]
    fn region_query_matches_linear_scan() {
        let t = insert_many(SplitPolicy::Quadratic, 500, 10);
        let all = t.all_entries().unwrap();
        let q = Rect::new([0.2, 0.3], [0.5, 0.6]);
        let mut expect: Vec<u64> = all
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|(_, id)| *id)
            .collect();
        let mut got: Vec<u64> = t
            .query_region(&q)
            .unwrap()
            .iter()
            .map(|(_, id)| *id)
            .collect();
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(expect, got);
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let t = insert_many(SplitPolicy::Quadratic, 300, 10);
        let all = t.all_entries().unwrap();
        let q = Point::new([0.4, 0.7]);
        let mut by_dist: Vec<(f64, u64)> =
            all.iter().map(|(r, id)| (r.min_dist2(&q), *id)).collect();
        by_dist.sort_by(|a, b| geom::total_cmp_f64(a.0, b.0));
        let got = t.nearest(&q, 10).unwrap();
        assert_eq!(got.len(), 10);
        // Distances must match the scan (ids may tie at equal distance).
        for (i, (r, _, d)) in got.iter().enumerate() {
            assert!((d * d - by_dist[i].0).abs() < 1e-9, "rank {i} distance");
            assert!((r.min_dist2(&q).sqrt() - d).abs() < 1e-12);
        }
    }

    #[test]
    fn duplicate_rectangles_coexist() {
        let mut t = new_tree(4, SplitPolicy::Quadratic);
        for i in 0..20 {
            t.insert(square(0.5, 0.5, 0.1), i).unwrap();
        }
        assert_eq!(t.len(), 20);
        let hits = t.query_point(&Point::new([0.55, 0.55])).unwrap();
        assert_eq!(hits.len(), 20);
        t.validate(true).unwrap();
    }

    #[test]
    fn persist_round_trip_after_inserts() {
        let disk = Arc::new(MemDisk::default_size());
        let pool = Arc::new(BufferPool::new(disk.clone() as Arc<dyn storage::Disk>, 64));
        let mut t = RTree::create(pool, NodeCapacity::new(4).unwrap()).unwrap();
        for i in 0..50 {
            t.insert(square(i as f64 * 0.01, 0.0, 0.02), i).unwrap();
        }
        t.persist().unwrap();

        let pool2 = Arc::new(BufferPool::new(disk as Arc<dyn storage::Disk>, 64));
        let t2 = RTree::<2>::open(pool2).unwrap();
        assert_eq!(t2.len(), 50);
        assert_eq!(t2.height(), t.height());
        t2.validate(true).unwrap();
        let hits = t2.query_point(&Point::new([0.25, 0.01])).unwrap();
        assert!(!hits.is_empty());
    }
}
