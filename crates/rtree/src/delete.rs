//! Guttman deletion with tree condensation.
//!
//! The whole operation — removal, dissolving underfull nodes, orphan
//! reinsertion, and root shrinking — runs as **one** staged mutation: an
//! I/O error anywhere in that sequence abandons the staging overlay with
//! the committed tree untouched, so orphans can never be half-reinserted
//! or entries silently lost.

use geom::Rect;
use obs::{LazyCounter, LazyHistogram};

use crate::tree::Staging;
use crate::{Entry, RTree, Result};

/// Orphaned entries re-inserted by CondenseTree, and the distribution
/// of the subtree levels they went back in at (0 = single data entry;
/// higher = a whole orphaned subtree — the "re-insert depth").
static REINSERTS: LazyCounter = LazyCounter::new("rtree.delete.reinserts");
static REINSERT_LEVEL: LazyHistogram = LazyHistogram::new("rtree.delete.reinsert_level");

/// Result of the recursive removal step.
enum Outcome<const D: usize> {
    NotFound,
    /// The entry was removed somewhere below; `mbr` is the child's new
    /// MBR and `underfull` says whether it dropped below min fill.
    Removed {
        mbr: Rect<D>,
        underfull: bool,
    },
}

impl<const D: usize> RTree<D> {
    /// Delete the data object with exactly this bounding rectangle and
    /// identifier. Returns whether an entry was found and removed.
    ///
    /// Follows Guttman: FindLeaf locates the record, CondenseTree
    /// dissolves underfull nodes on the path and reinserts their entries
    /// at their original level, and a root with a single child is
    /// shortened away.
    pub fn delete(&mut self, rect: &Rect<D>, data: u64) -> Result<bool> {
        self.check_poisoned()?;
        let mut st = self.begin_staging();
        match self.staged_delete(&mut st, rect, data) {
            Ok(false) => {
                self.abandon_staging(st);
                Ok(false)
            }
            Ok(true) => {
                st.len -= 1;
                self.commit_staging(st)?;
                Ok(true)
            }
            Err(e) => {
                self.abandon_staging(st);
                Err(e)
            }
        }
    }

    /// Delete every entry intersecting `region`, returning how many were
    /// removed. A bulk convenience built on [`delete`](Self::delete).
    pub fn delete_region(&mut self, region: &Rect<D>) -> Result<u64> {
        let victims = self.query_region(region)?;
        let mut removed = 0;
        for (rect, id) in victims {
            if self.delete(&rect, id)? {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Phase 1 of deletion: compute the entire post-delete tree into the
    /// staging overlay. Returns whether the entry was found (false means
    /// the overlay holds nothing worth committing).
    pub(crate) fn staged_delete(
        &mut self,
        st: &mut Staging<D>,
        rect: &Rect<D>,
        data: u64,
    ) -> Result<bool> {
        let mut orphans: Vec<(u32, Entry<D>)> = Vec::new();
        let root = st.root;
        let outcome = self.staged_remove_below(st, root, rect, data, &mut orphans)?;
        if !matches!(outcome, Outcome::Removed { .. }) {
            debug_assert!(orphans.is_empty());
            return Ok(false);
        }

        // Reinsert orphaned entries at their recorded level. Reinserting
        // can itself split nodes and change the height, so levels are
        // re-validated against the staged height each time.
        while let Some((level, entry)) = orphans.pop() {
            if level < st.height {
                REINSERTS.inc();
                REINSERT_LEVEL.record(u64::from(level));
                obs::trace::event("rtree.reinsert", u64::from(level), entry.payload);
                self.staged_insert_entry(st, entry, level)?;
            } else {
                // The tree shrank below the orphan's level (can happen
                // when the root collapsed): dissolve the orphaned subtree
                // one level and retry its children.
                let node = self.staged_read(st, entry.child_page())?;
                st.free(entry.child_page());
                for e in node.entries {
                    orphans.push((node.level, e));
                }
            }
        }

        // Shorten the tree: an internal root with one child is replaced by
        // that child; an empty internal root degenerates to an empty leaf.
        loop {
            let node = self.staged_read(st, st.root)?;
            if node.is_leaf() || node.len() != 1 {
                break;
            }
            let child = node.entries[0].child_page();
            st.free(st.root);
            st.root = child;
            st.height -= 1;
        }
        Ok(true)
    }

    fn staged_remove_below(
        &mut self,
        st: &mut Staging<D>,
        page: storage::PageId,
        rect: &Rect<D>,
        data: u64,
        orphans: &mut Vec<(u32, Entry<D>)>,
    ) -> Result<Outcome<D>> {
        let mut node = self.staged_read(st, page)?;
        if node.is_leaf() {
            let Some(pos) = node
                .entries
                .iter()
                .position(|e| e.payload == data && e.rect == *rect)
            else {
                return Ok(Outcome::NotFound);
            };
            node.entries.remove(pos);
            let is_root = page == st.root;
            let underfull = !is_root && node.len() < self.capacity().min();
            let mbr = node.mbr();
            st.write(page, node);
            return Ok(Outcome::Removed { mbr, underfull });
        }

        // FindLeaf: descend only into children whose MBR contains the
        // target rectangle.
        let candidates: Vec<usize> = (0..node.len())
            .filter(|&i| node.entries[i].rect.contains_rect(rect))
            .collect();
        for idx in candidates {
            let child_page = node.entries[idx].child_page();
            match self.staged_remove_below(st, child_page, rect, data, orphans)? {
                Outcome::NotFound => continue,
                Outcome::Removed { mbr, underfull } => {
                    if underfull {
                        // CondenseTree: dissolve the child, orphaning its
                        // entries for reinsertion at their level.
                        let child = self.staged_read(st, child_page)?;
                        for e in child.entries {
                            orphans.push((child.level, e));
                        }
                        st.free(child_page);
                        node.entries.remove(idx);
                    } else {
                        node.entries[idx].rect = mbr;
                    }
                    let is_root = page == st.root;
                    let under = !is_root && node.len() < self.capacity().min();
                    let mbr = node.mbr();
                    st.write(page, node);
                    return Ok(Outcome::Removed {
                        mbr,
                        underfull: under,
                    });
                }
            }
        }
        Ok(Outcome::NotFound)
    }
}

#[cfg(test)]
mod tests {
    use crate::{NodeCapacity, RTree, SplitPolicy};
    use geom::{Point, Rect};
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use storage::{BufferPool, MemDisk};

    fn new_tree(cap: usize) -> RTree<2> {
        let disk = Arc::new(MemDisk::default_size());
        let pool = Arc::new(BufferPool::new(disk, 256));
        RTree::create(pool, NodeCapacity::new(cap).unwrap()).unwrap()
    }

    fn square(x: f64, y: f64, s: f64) -> Rect<2> {
        Rect::new([x, y], [x + s, y + s])
    }

    #[test]
    fn delete_only_entry() {
        let mut t = new_tree(4);
        let r = square(0.1, 0.1, 0.2);
        t.insert(r, 1).unwrap();
        assert!(t.delete(&r, 1).unwrap());
        assert!(t.is_empty());
        assert!(t.query_region(&Rect::unit()).unwrap().is_empty());
        t.validate(true).unwrap();
        // Deleting again finds nothing.
        assert!(!t.delete(&r, 1).unwrap());
    }

    #[test]
    fn delete_requires_exact_match() {
        let mut t = new_tree(4);
        let r = square(0.1, 0.1, 0.2);
        t.insert(r, 1).unwrap();
        assert!(!t.delete(&r, 2).unwrap(), "wrong id must not match");
        assert!(!t.delete(&square(0.1, 0.1, 0.21), 1).unwrap());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insert_delete_churn_stays_valid() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut t = new_tree(6);
        let mut live: Vec<(Rect<2>, u64)> = Vec::new();
        for i in 0..600u64 {
            if live.is_empty() || rng.gen_bool(0.6) {
                let r = square(rng.gen_range(0.0..0.9), rng.gen_range(0.0..0.9), 0.05);
                t.insert(r, i).unwrap();
                live.push((r, i));
            } else {
                let idx = rng.gen_range(0..live.len());
                let (r, id) = live.swap_remove(idx);
                assert!(t.delete(&r, id).unwrap(), "live entry {id} must delete");
            }
        }
        assert_eq!(t.len() as usize, live.len());
        t.validate(false).unwrap();
        // Everything still findable.
        for (r, id) in live.iter().take(100) {
            let hits = t.query_point(&r.center()).unwrap();
            assert!(hits.iter().any(|(_, i)| i == id), "entry {id} lost");
        }
    }

    #[test]
    fn drain_to_empty() {
        let mut t = new_tree(5);
        let mut items = Vec::new();
        for i in 0..200u64 {
            let f = (i % 20) as f64 / 20.0;
            let g = (i / 20) as f64 / 10.0;
            let r = square(f, g, 0.03);
            t.insert(r, i).unwrap();
            items.push((r, i));
        }
        let before = t.height();
        assert!(before > 1);
        for (r, id) in &items {
            assert!(t.delete(r, *id).unwrap());
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1, "tree must shrink back to a single leaf");
        t.validate(true).unwrap();
    }

    #[test]
    fn delete_region_bulk() {
        let mut t = new_tree(8);
        for i in 0..100u64 {
            let f = (i % 10) as f64 / 10.0;
            let g = (i / 10) as f64 / 10.0;
            t.insert(square(f, g, 0.05), i).unwrap();
        }
        // Remove the lower-left quadrant.
        let q = Rect::new([0.0, 0.0], [0.449, 0.449]);
        let removed = t.delete_region(&q).unwrap();
        assert!(removed > 0);
        assert_eq!(t.len(), 100 - removed);
        assert!(t.query_region(&q).unwrap().is_empty());
        t.validate(false).unwrap();
    }

    #[test]
    fn reinserted_orphans_remain_searchable() {
        // Force condensation by deleting clustered entries from a deep
        // tree, then verify global searchability.
        let mut t = new_tree(4);
        let mut items = Vec::new();
        for i in 0..128u64 {
            let x = (i % 16) as f64 / 16.0;
            let y = (i / 16) as f64 / 8.0;
            let r = square(x, y, 0.02);
            t.insert(r, i).unwrap();
            items.push((r, i));
        }
        // Delete a whole stripe (same leaves) to trigger underflow.
        for (r, id) in items.iter().filter(|(_, id)| id % 16 < 4) {
            assert!(t.delete(r, *id).unwrap());
        }
        t.validate(false).unwrap();
        for (r, id) in items.iter().filter(|(_, id)| id % 16 >= 4) {
            let hits = t
                .query_point(&Point::new([r.center().coord(0), r.center().coord(1)]))
                .unwrap();
            assert!(
                hits.iter().any(|(_, i)| i == id),
                "entry {id} lost after condensation"
            );
        }
    }

    #[test]
    fn delete_works_across_policies() {
        for policy in [
            SplitPolicy::Linear,
            SplitPolicy::Quadratic,
            SplitPolicy::RStarAxis,
        ] {
            let mut t = new_tree(5);
            t.set_split_policy(policy);
            let mut items = Vec::new();
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            for i in 0..150u64 {
                let r = square(rng.gen_range(0.0..0.9), rng.gen_range(0.0..0.9), 0.04);
                t.insert(r, i).unwrap();
                items.push((r, i));
            }
            for (r, id) in items.iter().step_by(2) {
                assert!(t.delete(r, *id).unwrap(), "{policy:?}");
            }
            assert_eq!(t.len(), 75);
            t.validate(false)
                .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        }
    }
}
