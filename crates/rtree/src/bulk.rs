//! Bottom-up bulk loading — the "General Algorithm" of paper §2.2.
//!
//! > 1. Preprocess the data file so that the r rectangles are ordered in
//! >    ⌈r/n⌉ consecutive groups of n rectangles […]
//! > 2. Load the ⌈r/n⌉ groups of rectangles into pages and output the
//! >    (MBR, page-number) for each leaf level page into a temporary
//! >    file. The page-numbers are used as the child pointers in the
//! >    nodes of the next higher level.
//! > 3. Recursively pack these MBRs into nodes at the next level,
//! >    proceeding upwards, until the root node is created.
//!
//! "The three algorithms differ only in how the rectangles are ordered at
//! each level" — so the loader takes the ordering as a callback, invoked
//! once per level, and the packing crates supply NX / HS / STR orderings.

use std::sync::Arc;

use geom::Rect;
use storage::{BufferPool, Disk, PageId, SequentialPageWriter};

use crate::codec::RectCodec;
use crate::store::{NodeStore, DEFAULT_TREE};
use crate::{Entry, NodeCapacity, RTree, RTreeError, Result};

/// Bottom-up loader producing a packed [`RTree`].
#[derive(Debug, Clone, Copy)]
pub struct BulkLoader {
    cap: NodeCapacity,
}

impl BulkLoader {
    /// Loader for trees with the given node capacity.
    pub fn new(cap: NodeCapacity) -> Self {
        Self { cap }
    }

    /// Node capacity used for every level.
    pub fn capacity(&self) -> NodeCapacity {
        self.cap
    }

    /// Build a packed tree from `entries` on `pool`.
    ///
    /// `order` is called once per level, lowest first, with the entries
    /// that will populate that level (data entries for level 0, child
    /// MBR entries above); it must permute the slice into packing order.
    /// Consecutive runs of `capacity.max()` entries then become nodes —
    /// every node full except possibly the last, which is the near-100%
    /// space utilization that motivates packing.
    ///
    /// Freshly packed pages stream straight to disk in sequential
    /// batches ([`SequentialPageWriter`]), bypassing the buffer pool:
    /// a build writes every page exactly once and re-reads none, so
    /// routing it through the LRU pool would only evict whatever was hot
    /// before the build. Disk write counters still advance one per page,
    /// so build I/O remains fully accounted. Each node is encoded
    /// directly from its slice of the ordered run — no per-node `Node`
    /// or entry copy is materialized.
    ///
    /// An empty disk is formatted as a v2 file and the tree is cataloged
    /// as [`DEFAULT_TREE`]; a disk already holding a v2 file gains
    /// another catalog entry (see [`load_into`](Self::load_into)).
    pub fn load<const D: usize>(
        &self,
        pool: Arc<BufferPool>,
        entries: Vec<Entry<D>>,
        order: &mut dyn FnMut(&mut Vec<Entry<D>>, u32),
    ) -> Result<RTree<D>> {
        self.load_into(pool, DEFAULT_TREE, entries, order)
    }

    /// [`load`](Self::load) into a named catalog entry, so several
    /// packed trees can share the pages of one v2 file. Packed pages
    /// still stream to the disk tail in sequential batches — bulk loads
    /// deliberately bypass the free list to stay contiguous.
    pub fn load_into<const D: usize>(
        &self,
        pool: Arc<BufferPool>,
        name: &str,
        entries: Vec<Entry<D>>,
        order: &mut dyn FnMut(&mut Vec<Entry<D>>, u32),
    ) -> Result<RTree<D>> {
        if entries.is_empty() {
            return Err(RTreeError::EmptyLoad);
        }
        let store = self.create_store::<D>(&pool, name)?;
        let total = entries.len() as u64;
        write_levels(store, self.cap, total, 0, entries, order)
    }

    /// Check that the capacity fits a page, then create the tree's
    /// catalog entry.
    fn create_store<const D: usize>(
        &self,
        pool: &Arc<BufferPool>,
        name: &str,
    ) -> Result<NodeStore<RectCodec<D>>> {
        let max = crate::codec::max_capacity::<D>(pool.page_size());
        if self.cap.max() > max {
            return Err(RTreeError::CapacityTooLarge {
                requested: self.cap.max(),
                max,
            });
        }
        NodeStore::create(pool.clone(), name)
    }
}

/// The General Algorithm's level loop, shared by every bulk builder:
/// order the level (`order(entries, level)`), cut it into runs of
/// `cap.max()`, hand each run to `sink` together with its level, and
/// make the level above from one entry per run — the run's MBR and the
/// payload `sink` returned for it (a page id for a paged tree, a run
/// index for a flat image). Repeats until a single entry remains; a
/// level-0 input always gets at least one leaf, so a one-item build is
/// a one-leaf tree.
///
/// Returns the root entry (the MBR of the whole tree and the root's
/// payload) and the tree height — the number of node levels written,
/// counting the levels below `level` the caller packed itself.
pub fn pack_levels<const D: usize, E, S>(
    cap: NodeCapacity,
    mut level: u32,
    mut current: Vec<Entry<D>>,
    order: &mut dyn FnMut(&mut Vec<Entry<D>>, u32),
    mut sink: S,
) -> std::result::Result<(Entry<D>, u32), E>
where
    S: FnMut(u32, &[Entry<D>]) -> std::result::Result<u64, E>,
{
    let n = cap.max();
    while level == 0 || current.len() > 1 {
        order(&mut current, level);
        let mut next = Vec::with_capacity(current.len().div_ceil(n));
        for run in current.chunks(n) {
            let payload = sink(level, run)?;
            next.push(Entry {
                rect: Rect::union_all(run.iter().map(|e| &e.rect)),
                payload,
            });
        }
        // Dropping the finished level first keeps one level resident:
        // the data, the bulk of memory, is gone before the upper levels.
        current = next;
        level += 1;
    }
    Ok((current[0], level))
}

/// Pack `entries` (the level-`level` entries of a tree over `total`
/// data items) through [`pack_levels`] onto the tail of `store`'s disk
/// in sequential batches, then seal the tree. Shared by
/// [`BulkLoader::load_into`] and [`ParallelLoad::finish`] so both
/// produce the same pages in the same order.
fn write_levels<const D: usize>(
    store: NodeStore<RectCodec<D>>,
    cap: NodeCapacity,
    total: u64,
    level: u32,
    entries: Vec<Entry<D>>,
    order: &mut dyn FnMut(&mut Vec<Entry<D>>, u32),
) -> Result<RTree<D>> {
    let disk = store.pool().disk().clone();
    let mut writer = SequentialPageWriter::new(disk.as_ref());
    let (root, height) = pack_levels(cap, level, entries, order, |level, run| {
        let (page, ()) = writer.append(|buf| crate::codec::encode_entries(level, run, buf))?;
        Ok::<_, RTreeError>(page.index())
    })?;
    writer.flush()?;
    let mut tree = RTree::from_parts(store, cap, root.child_page(), height, total);
    tree.persist()?;
    Ok(tree)
}

impl BulkLoader {
    /// Begin a bulk load whose leaf level is written by several workers
    /// in parallel.
    ///
    /// The number of leaves must be known up front (STR fixes it the
    /// moment the global sort finishes: ⌈r/n⌉). The loader creates the
    /// catalog entry and reserves one contiguous page run for the whole
    /// leaf level, so every worker can write its slice of leaves with
    /// pure page arithmetic — no allocator traffic, no coordination —
    /// via [`ParallelLoad::leaf_writer`]. Because the reservation
    /// happens where [`load`](Self::load) would have written its first
    /// leaf, the finished file is byte-identical to `load` given the
    /// same leaf order.
    pub fn begin_parallel<const D: usize>(
        &self,
        pool: Arc<BufferPool>,
        name: &str,
        leaf_count: u64,
    ) -> Result<ParallelLoad<D>> {
        if leaf_count == 0 {
            return Err(RTreeError::EmptyLoad);
        }
        let store = self.create_store::<D>(&pool, name)?;
        let first_leaf = pool.disk().allocate_run(leaf_count)?;
        Ok(ParallelLoad {
            store,
            cap: self.cap,
            first_leaf,
            leaf_count,
        })
    }
}

/// An in-progress parallel bulk load: the leaf page range is reserved,
/// workers fill disjoint slices of it, and [`finish`](Self::finish)
/// stitches the upper levels sequentially.
pub struct ParallelLoad<const D: usize> {
    store: NodeStore<RectCodec<D>>,
    cap: NodeCapacity,
    first_leaf: PageId,
    leaf_count: u64,
}

impl<const D: usize> ParallelLoad<D> {
    /// First page of the reserved leaf range.
    pub fn first_leaf(&self) -> PageId {
        self.first_leaf
    }

    /// Number of reserved leaf pages.
    pub fn leaf_count(&self) -> u64 {
        self.leaf_count
    }

    /// Node capacity of the tree being built.
    pub fn capacity(&self) -> NodeCapacity {
        self.cap
    }

    /// The underlying disk — what workers write leaves through.
    pub fn disk(&self) -> Arc<dyn Disk> {
        self.store.pool().disk().clone()
    }

    /// A writer for `count` leaves starting `offset` leaves into the
    /// reserved range. Writers are independent and `Send`: hand one to
    /// each worker for its contiguous slice.
    ///
    /// # Panics
    /// Panics if the slice exceeds the reserved range.
    pub fn leaf_writer(&self, offset: u64, count: u64) -> LeafRangeWriter<D> {
        assert!(
            offset + count <= self.leaf_count,
            "leaf slice [{offset}, {}) exceeds reservation of {}",
            offset + count,
            self.leaf_count
        );
        LeafRangeWriter::new(self.disk(), PageId(self.first_leaf.index() + offset), count)
    }

    /// Seal the tree: pack upper levels from the per-leaf parent entries
    /// (in leaf order — workers' results concatenated in slice order)
    /// and persist the meta. `total` is the number of data entries.
    pub fn finish(
        self,
        total: u64,
        level1: Vec<Entry<D>>,
        order_upper: &mut dyn FnMut(&mut Vec<Entry<D>>, u32),
    ) -> Result<RTree<D>> {
        assert_eq!(
            level1.len() as u64,
            self.leaf_count,
            "one parent entry per reserved leaf"
        );
        write_levels(self.store, self.cap, total, 1, level1, order_upper)
    }
}

/// Batched writer for a preassigned contiguous range of leaf pages.
/// Encodes level-0 nodes into an in-memory batch and flushes with one
/// positioned multi-page write, mirroring [`SequentialPageWriter`] but
/// over pages reserved before the writer existed — which is what makes
/// it safe to drive from several threads at once (each on its own
/// disjoint range).
pub struct LeafRangeWriter<const D: usize> {
    disk: Arc<dyn Disk>,
    page_size: usize,
    next: u64,
    end: u64,
    batch: Vec<u8>,
    batch_pages: usize,
    in_batch: usize,
}

/// Pages per batched leaf flush.
const LEAF_BATCH_PAGES: usize = 64;

impl<const D: usize> LeafRangeWriter<D> {
    fn new(disk: Arc<dyn Disk>, first: PageId, count: u64) -> Self {
        let page_size = disk.page_size();
        let batch_pages = LEAF_BATCH_PAGES.min(count.max(1) as usize);
        Self {
            disk,
            page_size,
            next: first.index(),
            end: first.index() + count,
            batch: vec![0u8; page_size * batch_pages],
            batch_pages,
            in_batch: 0,
        }
    }

    /// Encode one leaf node from `entries` and return its parent entry.
    ///
    /// # Panics
    /// Panics if the range is already full.
    pub fn write_leaf(&mut self, entries: &[Entry<D>]) -> Result<Entry<D>> {
        assert!(
            self.next + (self.in_batch as u64) < self.end,
            "leaf range overflow"
        );
        let base = self.in_batch * self.page_size;
        let page_buf = &mut self.batch[base..base + self.page_size];
        page_buf.fill(0);
        crate::codec::encode_entries(0, entries, page_buf);
        let page = PageId(self.next + self.in_batch as u64);
        self.in_batch += 1;
        if self.in_batch == self.batch_pages {
            self.flush()?;
        }
        Ok(Entry::child(
            Rect::union_all(entries.iter().map(|e| &e.rect)),
            page,
        ))
    }

    /// Write out any buffered pages.
    pub fn flush(&mut self) -> Result<()> {
        if self.in_batch == 0 {
            return Ok(());
        }
        self.disk.write_pages(
            PageId(self.next),
            &self.batch[..self.in_batch * self.page_size],
        )?;
        self.next += self.in_batch as u64;
        self.in_batch = 0;
        Ok(())
    }

    /// Flush and verify the whole range was written.
    pub fn finish(mut self) -> Result<()> {
        self.flush()?;
        assert_eq!(self.next, self.end, "leaf range not fully written");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Point;
    use std::sync::Arc;
    use storage::MemDisk;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 256))
    }

    /// The simplest ordering: leave entries as given at every level.
    fn identity(_: &mut Vec<Entry<2>>, _: u32) {}

    fn grid_entries(n: usize) -> Vec<Entry<2>> {
        (0..n)
            .map(|i| {
                let x = (i % 100) as f64 / 100.0;
                let y = (i / 100) as f64 / 100.0;
                Entry::data(Rect::new([x, y], [x + 0.005, y + 0.005]), i as u64)
            })
            .collect()
    }

    #[test]
    fn rejects_empty() {
        let loader = BulkLoader::new(NodeCapacity::new(4).unwrap());
        let err = loader
            .load::<2>(pool(), Vec::new(), &mut identity)
            .unwrap_err();
        assert!(matches!(err, RTreeError::EmptyLoad));
    }

    #[test]
    fn single_entry_tree() {
        let loader = BulkLoader::new(NodeCapacity::new(4).unwrap());
        let t = loader.load(pool(), grid_entries(1), &mut identity).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        t.validate(false).unwrap();
    }

    #[test]
    fn exactly_one_full_node() {
        let loader = BulkLoader::new(NodeCapacity::new(4).unwrap());
        let t = loader.load(pool(), grid_entries(4), &mut identity).unwrap();
        assert_eq!(t.height(), 1);
        t.validate(false).unwrap();
    }

    #[test]
    fn one_more_than_a_node_makes_two_levels() {
        let loader = BulkLoader::new(NodeCapacity::new(4).unwrap());
        let t = loader.load(pool(), grid_entries(5), &mut identity).unwrap();
        assert_eq!(t.height(), 2);
        assert_eq!(t.len(), 5);
        t.validate(false).unwrap();
    }

    #[test]
    fn page_count_matches_packing_arithmetic() {
        // 1000 entries at capacity 10: 100 leaves, 10 internal, 1 root.
        let loader = BulkLoader::new(NodeCapacity::new(10).unwrap());
        let t = loader
            .load(pool(), grid_entries(1000), &mut identity)
            .unwrap();
        assert_eq!(t.height(), 3);
        assert_eq!(t.node_count().unwrap(), 111);
        t.validate(false).unwrap();
    }

    #[test]
    fn utilization_is_nearly_full() {
        // 1003 entries at capacity 10: all leaves full except the last.
        let loader = BulkLoader::new(NodeCapacity::new(10).unwrap());
        let t = loader
            .load(pool(), grid_entries(1003), &mut identity)
            .unwrap();
        let leaves = t.level_mbrs(0).unwrap();
        assert_eq!(leaves.len(), 101);
        t.validate(false).unwrap();
    }

    #[test]
    fn loaded_tree_answers_queries() {
        let loader = BulkLoader::new(NodeCapacity::new(16).unwrap());
        let entries = grid_entries(2000);
        let t = loader.load(pool(), entries.clone(), &mut identity).unwrap();
        let q = Rect::new([0.25, 0.05], [0.35, 0.12]);
        let mut expect: Vec<u64> = entries
            .iter()
            .filter(|e| e.rect.intersects(&q))
            .map(|e| e.payload)
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
    fn order_callback_sees_every_level() {
        let loader = BulkLoader::new(NodeCapacity::new(10).unwrap());
        let mut levels = Vec::new();
        let mut order = |entries: &mut Vec<Entry<2>>, level: u32| {
            levels.push((level, entries.len()));
        };
        let t = loader.load(pool(), grid_entries(1000), &mut order).unwrap();
        assert_eq!(levels, vec![(0, 1000), (1, 100), (2, 10)]);
        drop(t);
    }

    #[test]
    fn ordering_is_respected() {
        // Sort by x at the leaf level; the first leaf must then hold the
        // 4 left-most rectangles.
        let loader = BulkLoader::new(NodeCapacity::new(4).unwrap());
        let mut entries = grid_entries(16);
        entries.reverse();
        let mut order = |es: &mut Vec<Entry<2>>, level: u32| {
            if level == 0 {
                es.sort_by(|a, b| a.rect.cmp_center(&b.rect, 0));
            }
        };
        let t = loader.load(pool(), entries, &mut order).unwrap();
        let first_leaf_hits = t
            .query_region(&Rect::new([0.0, 0.0], [0.031, 0.01]))
            .unwrap();
        assert_eq!(first_leaf_hits.len(), 4);
        t.validate(false).unwrap();
    }

    #[test]
    fn parallel_load_rejects_empty() {
        let loader = BulkLoader::new(NodeCapacity::new(4).unwrap());
        let err = loader
            .begin_parallel::<2>(pool(), crate::store::DEFAULT_TREE, 0)
            .err()
            .unwrap();
        assert!(matches!(err, RTreeError::EmptyLoad));
    }

    /// Two-worker parallel leaf writing produces the same bytes as
    /// [`BulkLoader::load`], page for page — for a single leaf and for a
    /// multi-level tree.
    #[test]
    fn parallel_load_is_byte_identical_to_load() {
        let cap = NodeCapacity::new(10).unwrap();
        let loader = BulkLoader::new(cap);
        for count in [7usize, 1234] {
            let entries = grid_entries(count);

            let load_disk = Arc::new(MemDisk::default_size());
            let load_pool = Arc::new(BufferPool::new(load_disk.clone(), 256));
            let loaded = loader
                .load(load_pool, entries.clone(), &mut identity)
                .unwrap();

            let par_disk = Arc::new(MemDisk::default_size());
            let par_pool = Arc::new(BufferPool::new(par_disk.clone(), 256));
            let n = cap.max();
            let leaf_count = entries.len().div_ceil(n) as u64;
            let load = loader
                .begin_parallel::<2>(par_pool, crate::store::DEFAULT_TREE, leaf_count)
                .unwrap();
            // Split the leaves between two workers at a leaf boundary.
            let split_leaf = leaf_count / 2;
            let split_entry = split_leaf as usize * n;
            let (lo, hi) = entries.split_at(split_entry);
            let mut level1 = vec![None; leaf_count as usize];
            let (res_lo, res_hi) = level1.split_at_mut(split_leaf as usize);
            std::thread::scope(|s| {
                for (slice, first_leaf, results) in [(lo, 0u64, res_lo), (hi, split_leaf, res_hi)] {
                    let mut writer = load.leaf_writer(first_leaf, slice.len().div_ceil(n) as u64);
                    s.spawn(move || {
                        for (i, group) in slice.chunks(n).enumerate() {
                            results[i] = Some(writer.write_leaf(group).unwrap());
                        }
                        writer.finish().unwrap();
                    });
                }
            });
            let level1: Vec<Entry<2>> = level1.into_iter().map(|e| e.unwrap()).collect();
            let par = load
                .finish(entries.len() as u64, level1, &mut identity)
                .unwrap();
            par.validate(false).unwrap();

            assert_eq!(par.len(), loaded.len(), "count={count}");
            assert_eq!(par.height(), loaded.height(), "count={count}");
            assert_eq!(load_disk.num_pages(), par_disk.num_pages(), "count={count}");
            let mut a = vec![0u8; load_disk.page_size()];
            let mut b = vec![0u8; par_disk.page_size()];
            for p in 0..load_disk.num_pages() {
                load_disk.read_page(storage::PageId(p), &mut a).unwrap();
                par_disk.read_page(storage::PageId(p), &mut b).unwrap();
                assert_eq!(a, b, "count={count}: page {p} differs");
            }
        }
    }

    #[test]
    fn bulk_loaded_tree_is_dynamically_extendable() {
        // Packing then inserting/deleting must keep a consistent tree —
        // the paper's future work contemplates dynamic R-trees seeded by
        // STR packing.
        let loader = BulkLoader::new(NodeCapacity::new(8).unwrap());
        let mut t = loader
            .load(pool(), grid_entries(500), &mut identity)
            .unwrap();
        for i in 0..100u64 {
            let x = (i % 10) as f64 / 10.0;
            t.insert(Rect::new([x, 0.9], [x + 0.01, 0.95]), 10_000 + i)
                .unwrap();
        }
        assert_eq!(t.len(), 600);
        t.validate(false).unwrap();
        let hits = t.query_point(&Point::new([0.105, 0.92])).unwrap();
        assert!(hits.iter().any(|(_, id)| *id >= 10_000));
    }
}
