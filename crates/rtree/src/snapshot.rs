//! Epoch-based snapshot isolation over a WAL-attached R-tree.
//!
//! [`SharedRTree`] wraps one writer tree behind a mutex and publishes an
//! immutable `(root, height, len)` triple per *epoch*. Because commits
//! are copy-on-write ([`RTree::attach_wal`]), a published root names a
//! frozen tree: no page reachable from it is ever overwritten in place,
//! so readers traverse it without any locking at all — [`snapshot`]
//! (SharedRTree::snapshot) just pins the current epoch and hands back a
//! read-only [`RTree`] view over a shared buffer pool.
//!
//! What keeps a snapshot consistent is garbage discipline, not locking:
//! pages a commit supersedes are parked per-epoch and only returned to
//! the allocator once every snapshot pinned at an older epoch has been
//! dropped. The WAL keeps even that reuse honest across crashes (reuse
//! additionally waits for the next checkpoint — see
//! `NodeStore::extend_free` in WAL mode).
//!
//! Writers serialize on the tree mutex for the *staging* half of a
//! commit only; the fsync half ([`RTree::finish_commit_cow`]'s logic,
//! inlined here) runs after the mutex drops, so concurrent writers pile
//! into one group-commit batch and share a single fsync. The in-memory
//! state is published before durability, which is sound because WAL
//! durability is prefix-closed: a crash loses a *suffix* of published
//! states, never a middle, and recovery lands exactly on a
//! previously-published epoch.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

use geom::Rect;
use storage::{BufferPool, PageId, Wal};

use crate::index::{IndexStats, SpatialIndex};
use crate::tree::{StagedTx, WAL_TREE_COMMITS};
use crate::{Entry, RTree, Result};
use geom::Point;
use storage::BufferStats;

/// The state triple readers pin.
#[derive(Clone, Copy)]
struct Published {
    root: PageId,
    height: u32,
    len: u64,
}

/// Epoch bookkeeping: which epochs readers hold, and which superseded
/// pages wait for them.
struct SnapState {
    /// Monotonic, bumped once per committed write.
    epoch: u64,
    published: Published,
    /// Pinned epoch -> number of live snapshots at it.
    pins: BTreeMap<u64, usize>,
    /// `(retire_epoch, pages)`: pages superseded by the commit that
    /// created `retire_epoch`, still reachable from snapshots pinned at
    /// any older epoch.
    garbage: Vec<(u64, Vec<PageId>)>,
    /// Pages past every pin, waiting for the next writer to hand them
    /// back to the store (frees need the writer's session lists).
    ready: Vec<PageId>,
}

struct Shared<const D: usize> {
    writer: Mutex<RTree<D>>,
    /// Template for reader views: a reader clone made once at
    /// construction, so `snapshot()` never touches the writer mutex.
    base: RTree<D>,
    state: Mutex<SnapState>,
    wal: Arc<Wal>,
    pool: Arc<BufferPool>,
    /// LSN of the newest meta image written through the pool. Finishers
    /// run unordered once the writer mutex drops; the gate keeps a stale
    /// meta from landing *after* a newer one (a checkpoint flushing the
    /// stale image past the watermark would otherwise lose commits).
    meta_gate: Mutex<u64>,
}

/// A concurrently readable, WAL-durable R-tree.
///
/// Cheap to clone (it is an `Arc` handle). Writers serialize; readers
/// never block and never see a half-applied mutation.
///
/// ```
/// use std::sync::Arc;
/// use geom::Rect;
/// use rtree::{NodeCapacity, RTree, SharedRTree};
/// use storage::{BufferPool, MemDisk, MemLogStore, Wal, WalOptions};
///
/// let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 64));
/// let tree = RTree::<2>::create(pool, NodeCapacity::new(8).unwrap()).unwrap();
/// let wal = Wal::create(MemLogStore::new(), 1, WalOptions::default()).unwrap();
/// let shared = SharedRTree::new(tree, wal).unwrap();
///
/// shared.insert(Rect::new([0.1, 0.1], [0.2, 0.2]), 7).unwrap();
/// let snap = shared.snapshot();
/// shared.insert(Rect::new([0.5, 0.5], [0.6, 0.6]), 8).unwrap();
/// // The snapshot still sees exactly one entry.
/// assert_eq!(snap.len(), 1);
/// assert_eq!(shared.snapshot().len(), 2);
/// ```
pub struct SharedRTree<const D: usize> {
    inner: Arc<Shared<D>>,
}

impl<const D: usize> Clone for SharedRTree<D> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
        }
    }
}

/// A pinned, immutable view of one published epoch. Dereferences to
/// [`RTree`], so every read-only tree API works on it. Dropping it
/// unpins the epoch and may release superseded pages for reuse.
pub struct Snapshot<const D: usize> {
    tree: RTree<D>,
    epoch: u64,
    shared: Arc<Shared<D>>,
}

impl<const D: usize> SharedRTree<D> {
    /// Wrap `tree` for shared use, attaching `wal` (the tree must not
    /// already have one).
    pub fn new(mut tree: RTree<D>, wal: Arc<Wal>) -> Result<Self> {
        if !tree.is_wal_attached() {
            tree.attach_wal(wal.clone())?;
        }
        tree.set_collect_frees(true);
        let published = Published {
            root: tree.root,
            height: tree.height,
            len: tree.len(),
        };
        let base = tree.reader_at(published.root, published.height, published.len);
        let pool = tree.pool().clone();
        Ok(Self {
            inner: Arc::new(Shared {
                writer: Mutex::new(tree),
                base,
                state: Mutex::new(SnapState {
                    epoch: 0,
                    published,
                    pins: BTreeMap::new(),
                    garbage: Vec::new(),
                    ready: Vec::new(),
                }),
                wal,
                pool,
                meta_gate: Mutex::new(0),
            }),
        })
    }

    /// Pin the current epoch and return a read-only view of it. Never
    /// blocks on writers.
    pub fn snapshot(&self) -> Snapshot<D> {
        let _tspan = obs::trace::span("shared.snapshot_pin");
        let mut st = lock(&self.inner.state);
        let epoch = st.epoch;
        *st.pins.entry(epoch).or_insert(0) += 1;
        let p = st.published;
        drop(st);
        Snapshot {
            tree: self.inner.base.reader_at(p.root, p.height, p.len),
            epoch,
            shared: self.inner.clone(),
        }
    }

    /// Insert, durably (see [`RTree::insert`]). Returns once the commit
    /// is fsync-durable; the new state is visible to snapshots taken
    /// after the in-memory publish, which precedes the fsync.
    pub fn insert(&self, rect: Rect<D>, data: u64) -> Result<()> {
        self.write_op(|tree| {
            tree.check_poisoned()?;
            let mut st = tree.begin_staging();
            st.len += 1;
            if let Err(e) = tree.staged_insert_entry(&mut st, Entry::data(rect, data), 0) {
                tree.abandon_staging(st);
                return Err(e);
            }
            tree.stage_commit_cow(st).map(Some)
        })
        .map(|_| ())
    }

    /// Delete, durably (see [`RTree::delete`]). Returns whether an entry
    /// was found and removed.
    pub fn delete(&self, rect: &Rect<D>, data: u64) -> Result<bool> {
        self.write_op(|tree| {
            tree.check_poisoned()?;
            let mut st = tree.begin_staging();
            match tree.staged_delete(&mut st, rect, data) {
                Ok(false) => {
                    tree.abandon_staging(st);
                    Ok(None)
                }
                Ok(true) => {
                    st.len -= 1;
                    tree.stage_commit_cow(st).map(Some)
                }
                Err(e) => {
                    tree.abandon_staging(st);
                    Err(e)
                }
            }
        })
    }

    /// Checkpoint: flush the pool, advance the WAL watermark, recycle
    /// fully-applied segments (see [`RTree::persist`]).
    pub fn checkpoint(&self) -> Result<()> {
        let mut tree = lock(&self.inner.writer);
        self.release_ready(&mut tree);
        tree.persist()
    }

    /// Run `f` against the writer tree (queries, `check`, stats). Blocks
    /// writers for the duration — prefer [`snapshot`](Self::snapshot)
    /// for reads. Garbage every reader has moved past is released first,
    /// so `f` sees no page as leaked just because no write has run since
    /// the last snapshot was dropped.
    pub fn with_tree<R>(&self, f: impl FnOnce(&RTree<D>) -> R) -> R {
        let mut tree = lock(&self.inner.writer);
        self.release_ready(&mut tree);
        f(&tree)
    }

    /// Hand the pages no snapshot can reach any more back to the writer
    /// tree's free list. The caller holds the writer mutex.
    fn release_ready(&self, tree: &mut RTree<D>) {
        let ready = std::mem::take(&mut lock(&self.inner.state).ready);
        if !ready.is_empty() {
            tree.release_pages(ready);
        }
    }

    /// Entry count of the newest published state.
    pub fn len(&self) -> u64 {
        lock(&self.inner.state).published.len
    }

    /// Whether the newest published state is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current epoch (bumped once per committed write).
    pub fn epoch(&self) -> u64 {
        lock(&self.inner.state).epoch
    }

    /// The write-ahead log commits go through.
    pub fn wal(&self) -> &Arc<Wal> {
        &self.inner.wal
    }

    /// The staging half under the writer mutex, the fsync half outside
    /// it. `op` returns `None` for a no-op (nothing staged, nothing to
    /// commit). Returns whether a transaction was committed.
    fn write_op(&self, op: impl FnOnce(&mut RTree<D>) -> Result<Option<StagedTx>>) -> Result<bool> {
        // Covers staging, publish, and the shared leader fsync — the
        // wal.commit span below nests inside it.
        let _tspan = obs::trace::span("shared.commit");
        let mut tree = lock(&self.inner.writer);
        let Some(tx) = op(&mut tree)? else {
            return Ok(false);
        };

        // Publish: new epoch, new triple; park what this commit
        // superseded; release what every reader has moved past. The
        // writer mutex is still held, so epochs are published in commit
        // order.
        {
            let mut st = lock(&self.inner.state);
            st.epoch += 1;
            st.published = Published {
                root: tree.root,
                height: tree.height,
                len: tree.len(),
            };
            let frees = tree.take_pending_frees();
            if !frees.is_empty() {
                if st.pins.is_empty() {
                    st.ready.extend(frees);
                } else {
                    let retire = st.epoch;
                    st.garbage.push((retire, frees));
                }
            }
        }
        self.release_ready(&mut tree);
        drop(tree);

        // Durability, outside the writer mutex: every writer that
        // reaches here concurrently shares one leader fsync.
        let lsn = tx.lsn;
        let res = self.inner.wal.commit(lsn).and_then(|()| {
            let mut gate = lock(&self.inner.meta_gate);
            if lsn > *gate {
                self.inner.pool.write_page(tx.meta_page, &tx.meta_image)?;
                *gate = lsn;
            }
            Ok(())
        });
        match res {
            Ok(()) => {
                self.inner.wal.tx_applied(lsn);
                WAL_TREE_COMMITS.inc();
                Ok(true)
            }
            Err(e) => {
                // Published but not durable, and the WAL may still carry
                // the records into a later fsync: ambiguous, so poison.
                lock(&self.inner.writer).poisoned = true;
                Err(e.into())
            }
        }
    }
}

impl<const D: usize> Snapshot<D> {
    /// The epoch this snapshot is pinned at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl<const D: usize> Deref for Snapshot<D> {
    type Target = RTree<D>;
    fn deref(&self) -> &RTree<D> {
        &self.tree
    }
}

/// A pinned snapshot answers queries exactly like the paged tree it
/// froze — delegation, so `QueryExecutor` and anything else taking
/// `&dyn SpatialIndex` can serve from an epoch without special cases
/// (deref coercion does not apply to trait-object casts).
impl<const D: usize> SpatialIndex<D> for Snapshot<D> {
    fn for_each_intersecting(
        &self,
        query: &Rect<D>,
        visit: &mut dyn FnMut(Rect<D>, u64),
    ) -> Result<()> {
        SpatialIndex::for_each_intersecting(&self.tree, query, visit)
    }

    fn query(&self, query: &Rect<D>) -> Result<Vec<(Rect<D>, u64)>> {
        SpatialIndex::query(&self.tree, query)
    }

    fn query_point(&self, point: &Point<D>) -> Result<Vec<(Rect<D>, u64)>> {
        SpatialIndex::query_point(&self.tree, point)
    }

    fn len(&self) -> u64 {
        SpatialIndex::len(&self.tree)
    }

    fn stats(&self) -> IndexStats {
        SpatialIndex::stats(&self.tree)
    }

    fn buffer_stats(&self) -> Option<BufferStats> {
        SpatialIndex::buffer_stats(&self.tree)
    }
}

impl<const D: usize> Drop for Snapshot<D> {
    fn drop(&mut self) {
        let _tspan = obs::trace::span("shared.snapshot_unpin");
        let mut st = lock(&self.shared.state);
        if let Some(n) = st.pins.get_mut(&self.epoch) {
            *n -= 1;
            if *n == 0 {
                st.pins.remove(&self.epoch);
            }
        }
        // Pages retired at epoch `r` are reachable from snapshots pinned
        // strictly before `r`; once none remain, they move to `ready`
        // (the next writer hands them to the store).
        let min_pin = st.pins.keys().next().copied();
        let garbage = std::mem::take(&mut st.garbage);
        for (retire, pages) in garbage {
            match min_pin {
                Some(m) if m < retire => st.garbage.push((retire, pages)),
                _ => st.ready.extend(pages),
            }
        }
    }
}

/// Mutex acquisition that survives a poisoned lock: a reader panicking
/// mid-query must not wedge the tree (the data structures stay
/// consistent because all invariants are re-established before guards
/// drop).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeCapacity;
    use storage::{MemDisk, MemLogStore, WalOptions};

    fn square(i: u64) -> Rect<2> {
        let x = (i % 32) as f64 / 32.0;
        let y = (i / 32) as f64 / 32.0;
        Rect::new([x, y], [x + 0.02, y + 0.02])
    }

    fn shared(cap: usize) -> SharedRTree<2> {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 256));
        let tree = RTree::<2>::create(pool, NodeCapacity::new(cap).unwrap()).unwrap();
        let wal = Wal::create(MemLogStore::new(), 1, WalOptions::default()).unwrap();
        SharedRTree::new(tree, wal).unwrap()
    }

    #[test]
    fn snapshots_pin_their_epoch() {
        let t = shared(8);
        for i in 0..50 {
            t.insert(square(i), i).unwrap();
        }
        let snap = t.snapshot();
        for i in 50..100 {
            t.insert(square(i), i).unwrap();
        }
        assert_eq!(snap.len(), 50);
        assert_eq!(t.len(), 100);
        // The old epoch still answers queries over exactly its 50.
        let hits = snap
            .query_region(&Rect::new([0.0, 0.0], [1.0, 1.0]))
            .unwrap();
        assert_eq!(hits.len(), 50);
        drop(snap);
        let hits = t
            .snapshot()
            .query_region(&Rect::new([0.0, 0.0], [1.0, 1.0]))
            .unwrap();
        assert_eq!(hits.len(), 100);
    }

    #[test]
    fn deletes_are_invisible_to_pinned_snapshots() {
        let t = shared(6);
        for i in 0..80 {
            t.insert(square(i), i).unwrap();
        }
        let snap = t.snapshot();
        for i in 0..40 {
            assert!(t.delete(&square(i), i).unwrap());
        }
        assert_eq!(snap.len(), 80);
        for i in 0..40 {
            let hits = snap.query_region(&square(i)).unwrap();
            assert!(hits.iter().any(|&(_, id)| id == i), "entry {i} missing");
        }
        assert_eq!(t.len(), 40);
    }

    #[test]
    fn garbage_is_released_after_readers_drain() {
        let t = shared(8);
        for i in 0..100 {
            t.insert(square(i), i).unwrap();
        }
        let snap = t.snapshot();
        for i in 0..50 {
            t.delete(&square(i), i).unwrap();
        }
        {
            let st = lock(&t.inner.state);
            assert!(
                !st.garbage.is_empty(),
                "superseded pages must wait for the pinned reader"
            );
        }
        drop(snap);
        {
            let st = lock(&t.inner.state);
            assert!(st.garbage.is_empty(), "drop must promote garbage");
            assert!(!st.ready.is_empty());
        }
        // The next write hands `ready` back to the store; the allocator
        // audit must come out clean afterwards.
        t.insert(square(200), 200).unwrap();
        t.checkpoint().unwrap();
        t.with_tree(|tree| {
            let report = tree.check();
            assert!(report.is_clean(), "{report}");
        });
    }

    #[test]
    fn no_op_delete_commits_nothing() {
        let t = shared(8);
        t.insert(square(1), 1).unwrap();
        let e = t.epoch();
        assert!(!t.delete(&square(9), 9).unwrap());
        assert_eq!(t.epoch(), e, "a not-found delete must not publish");
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let t = shared(8);
        for i in 0..200 {
            t.insert(square(i), i).unwrap();
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let t = t.clone();
            let stop = stop.clone();
            readers.push(std::thread::spawn(move || {
                let all = Rect::new([0.0, 0.0], [1.0, 1.0]);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let snap = t.snapshot();
                    let hits = snap.query_region(&all).unwrap();
                    assert_eq!(
                        hits.len() as u64,
                        snap.len(),
                        "snapshot tore at epoch {}",
                        snap.epoch()
                    );
                }
            }));
        }
        let mut writers = Vec::new();
        for w in 0..2u64 {
            let t = t.clone();
            writers.push(std::thread::spawn(move || {
                for i in 0..150 {
                    let id = 1000 + w * 1000 + i;
                    t.insert(square(id % 1024), id).unwrap();
                }
            }));
        }
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(t.len(), 500);
        t.with_tree(|tree| {
            let report = tree.check();
            assert!(report.is_clean(), "{report}");
        });
    }
}
