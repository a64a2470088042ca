//! Out-of-core STR packing.
//!
//! The paper's General Algorithm starts from a *data file* (§2.2), and
//! STR's global x-sort is the only step that needs to see all the data at
//! once — everything after it is embarrassingly slab-parallel. This
//! module runs the sort as an external merge sort (the [`extsort`]
//! crate) and streams the rest:
//!
//! 1. every rectangle goes through the external sorter, keyed by the
//!    order-preserving bits of its x-center (run formation is
//!    multi-threaded when [`ExternalPackOptions::threads`] > 1);
//! 2. once the sort finishes, `r` is known and every slab boundary is an
//!    exact *rank* in the sorted stream — slab `s` is rectangles
//!    `[s·slab, (s+1)·slab)`, a few node-capacities of memory regardless
//!    of data size. The merge thread cuts the sorted stream into slabs
//!    in memory; the scratch disk is only the sort's spill device;
//! 3. each slab is tiled over the remaining coordinates (§2.2's
//!    recursion) and its leaves are written into a contiguous page range
//!    reserved for it up front ([`rtree::ParallelLoad`]) — by a pool of
//!    workers fed over a rendezvous channel, or inline on the merge
//!    thread when there is one thread;
//! 4. the (tiny) upper levels are stitched sequentially at the end.
//!
//! Peak memory is `O(sort budget + (threads + 1) · slab size)` —
//! independent of `r` — while the result is **bit-identical** to
//! in-memory [`StrPacker`](crate::StrPacker) packing at every thread
//! count (the tests assert it page by page).

use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};

use extsort::ExternalSorter;
use geom::Rect;
use obs::{LazyCounter, LazyHistogram};
use rtree::{BulkLoader, Entry, NodeCapacity, RTree};
use storage::{BufferPool, Disk};

use crate::order::center_key;
use crate::str_pack::{order_slab, slab_pages};
use crate::PackingOrder;

// Per-phase wall times and volumes (see DESIGN.md §13). Phases overlap:
// scatter is the merge thread's cut-and-hand-off loop (with one thread it
// includes the inline packing), pack runs from the first slab to the
// last worker done.
static SORT_NS: LazyHistogram = LazyHistogram::new("external.sort_ns");
static SCATTER_NS: LazyHistogram = LazyHistogram::new("external.scatter_ns");
static PACK_NS: LazyHistogram = LazyHistogram::new("external.pack_ns");
static STITCH_NS: LazyHistogram = LazyHistogram::new("external.stitch_ns");
static SLABS_PACKED: LazyCounter = LazyCounter::new("external.slabs_packed");

/// Errors from the external packing pipeline.
#[derive(Debug)]
pub enum ExternalPackError {
    /// Failure in the external sort phase (scratch disk).
    Sort(extsort::SortError),
    /// Failure building the tree (destination disk).
    Tree(rtree::RTreeError),
}

impl std::fmt::Display for ExternalPackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExternalPackError::Sort(e) => write!(f, "external sort: {e}"),
            ExternalPackError::Tree(e) => write!(f, "tree build: {e}"),
        }
    }
}

impl std::error::Error for ExternalPackError {}

impl From<extsort::SortError> for ExternalPackError {
    fn from(e: extsort::SortError) -> Self {
        ExternalPackError::Sort(e)
    }
}

impl From<rtree::RTreeError> for ExternalPackError {
    fn from(e: rtree::RTreeError) -> Self {
        ExternalPackError::Tree(e)
    }
}

/// Tuning knobs for the external build.
#[derive(Debug, Clone, Copy)]
pub struct ExternalPackOptions {
    /// Total records buffered in memory by the sort phase.
    pub budget: usize,
    /// Worker threads for run formation and slab packing. `1` packs
    /// every slab inline on the merge thread.
    pub threads: usize,
}

impl ExternalPackOptions {
    /// Single-threaded pipeline with the given sort budget.
    pub fn new(budget: usize) -> Self {
        Self { budget, threads: 1 }
    }

    /// Set the worker thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// STR-pack `items` into a tree on `pool`, sorting through `scratch`
/// with an in-memory budget of `budget` records.
///
/// `budget` plays the role of the sort buffer in a real DBMS; packing
/// additionally holds one slab (`n·⌈P^((k−1)/k)⌉` records). The
/// produced tree is identical to `StrPacker::new().pack(...)` on the
/// same items.
pub fn pack_str_external<const D: usize, I>(
    pool: Arc<BufferPool>,
    scratch: Arc<dyn Disk>,
    items: I,
    cap: NodeCapacity,
    budget: usize,
) -> Result<RTree<D>, ExternalPackError>
where
    I: IntoIterator<Item = (Rect<D>, u64)>,
{
    pack_str_external_opts(
        pool,
        rtree::DEFAULT_TREE,
        scratch,
        items,
        cap,
        ExternalPackOptions::new(budget),
    )
}

/// [`pack_str_external`] into the catalog entry `name`, with full
/// [`ExternalPackOptions`] — notably a worker thread count for parallel
/// run formation and per-slab packing.
pub fn pack_str_external_opts<const D: usize, I>(
    pool: Arc<BufferPool>,
    name: &str,
    scratch: Arc<dyn Disk>,
    items: I,
    cap: NodeCapacity,
    opts: ExternalPackOptions,
) -> Result<RTree<D>, ExternalPackError>
where
    I: IntoIterator<Item = (Rect<D>, u64)>,
{
    let threads = opts.threads.max(1);

    // Phase 1: external sort by x-center. The order-preserving u64 key
    // avoids f64 comparators in the merge. Run formation is parallel
    // when threads > 1; either way the merged stream is the stable sort
    // of the input.
    let sort_span = SORT_NS.start();
    let sort_tspan = obs::trace::span("external.sort");
    let mut sorter = ExternalSorter::with_threads(
        scratch.clone(),
        opts.budget,
        threads,
        key::<D> as fn(&Entry<D>) -> u64,
    );
    for (rect, id) in items {
        sorter.push(Entry::data(rect, id))?;
    }
    let total = sorter.len() as usize;
    if total == 0 {
        return Err(ExternalPackError::Tree(rtree::RTreeError::EmptyLoad));
    }

    // Sampling pass, made exact: with the sort finished, `total` is
    // known and STR's slab boundaries are fixed ranks in the sorted
    // stream — the same arithmetic as the in-memory implementation.
    let n = cap.max();
    let pages = total.div_ceil(n);
    let slab_size = if D == 1 || pages <= 1 {
        total
    } else {
        n * slab_pages(pages, D as u32)
    };

    let merge = sorter.finish()?;
    drop(sort_tspan);
    drop(sort_span);

    pack_slabs(pool, name, merge, total, slab_size, cap, threads)
}

fn key<const D: usize>(e: &Entry<D>) -> u64 {
    center_key(&e.rect, 0)
}

type Merge<const D: usize> = extsort::MergeIter<Entry<D>, fn(&Entry<D>) -> u64>;

/// The tail of the pipeline: cut the merged stream at fixed ranks into
/// whole-leaf slabs, tile each slab ([`order_slab`]) and write its leaves
/// into the range [`rtree::ParallelLoad`] reserved for it, then stitch
/// the upper levels. With `threads > 1` each slab is handed over a
/// rendezvous channel to a pool of `threads` workers, so at most
/// `threads + 1` slabs are resident; with one thread the merge thread
/// packs each slab itself: always spawning one worker measured ~9% fewer
/// LSM ingest inserts/s (six alternating perfbench `ingest` pairs on a
/// 2-vCPU VM, equal peak RSS), measured while every LSM compaction still
/// drained through this pipeline as a 1-thread pack.
fn pack_slabs<const D: usize>(
    pool: Arc<BufferPool>,
    name: &str,
    mut merge: Merge<D>,
    total: usize,
    slab_size: usize,
    cap: NodeCapacity,
    threads: usize,
) -> Result<RTree<D>, ExternalPackError> {
    let n = cap.max();
    let num_slabs = total.div_ceil(slab_size);
    let total_leaves = total.div_ceil(n) as u64;
    // Full slabs hold a whole number of leaves, so every slab's leaf
    // range starts at a computable offset.
    debug_assert!(num_slabs == 1 || slab_size.is_multiple_of(n));
    let leaves_per_slab = (slab_size / n) as u64;

    let load = BulkLoader::new(cap).begin_parallel::<D>(pool, name, total_leaves)?;
    let level1: Mutex<Vec<Vec<Entry<D>>>> = Mutex::new(vec![Vec::new(); num_slabs]);
    let pack = |idx: usize, mut slab: Vec<Entry<D>>| -> Result<(), ExternalPackError> {
        let _slab_span = obs::trace::span("external.pack_slab");
        order_slab::<D>(&mut slab, n);
        let mut writer =
            load.leaf_writer(idx as u64 * leaves_per_slab, slab.len().div_ceil(n) as u64);
        let parents = slab
            .chunks(n)
            .map(|group| writer.write_leaf(group))
            .collect::<rtree::Result<Vec<_>>>()?;
        writer.finish()?;
        level1.lock().expect("a slab packer panicked")[idx] = parents;
        SLABS_PACKED.inc();
        Ok(())
    };

    let error: Mutex<Option<ExternalPackError>> = Mutex::new(None);
    let pack_span = PACK_NS.start();
    let pack_tspan = obs::trace::span("external.pack");
    let ctx = obs::trace::current();
    std::thread::scope(|scope| -> Result<(), ExternalPackError> {
        let tx = (threads > 1).then(|| {
            let (tx, rx) = sync_channel::<(usize, Vec<Entry<D>>)>(0);
            let rx = Arc::new(Mutex::new(rx));
            for _ in 0..threads {
                let (rx, pack, error) = (rx.clone(), &pack, &error);
                scope.spawn(move || {
                    let _attached = ctx.attach();
                    loop {
                        // Hold the receiver lock across `recv` only, not
                        // across the pack.
                        let job = rx.lock().expect("slab receiver poisoned").recv();
                        let Ok((idx, slab)) = job else { return };
                        if let Err(e) = pack(idx, slab) {
                            error.lock().expect("error slot poisoned").get_or_insert(e);
                        }
                    }
                });
            }
            tx
        });

        let _scatter_span = SCATTER_NS.start();
        let _scatter_tspan = obs::trace::span("external.scatter");
        for idx in 0..num_slabs {
            let records = slab_size.min(total - idx * slab_size);
            let mut slab = Vec::with_capacity(records);
            for _ in 0..records {
                // The sorter counted `total` records; the merge cannot
                // come up short without an error.
                slab.push(merge.next().expect("merge ended early")?);
            }
            match &tx {
                Some(tx) => {
                    // Workers only hang up by panicking; the scope
                    // re-raises that.
                    if tx.send((idx, slab)).is_err()
                        || error.lock().expect("error slot poisoned").is_some()
                    {
                        break;
                    }
                }
                None => pack(idx, slab)?,
            }
        }
        Ok(())
    })?;
    drop(pack_tspan);
    drop(pack_span);
    if let Some(e) = error.into_inner().expect("error slot poisoned") {
        return Err(e);
    }

    // The merge's cursor buffers are no longer needed; free them before
    // the stitch.
    drop(merge);

    // Level-1 entries in slab order, stitched exactly as in-memory
    // packing stitches its upper levels. Each slab's parents are freed as
    // they are moved, so the level is held once.
    let _stitch_span = STITCH_NS.start();
    let _stitch_tspan = obs::trace::span("external.stitch");
    let mut parents = Vec::with_capacity(total_leaves as usize);
    for slab in level1.into_inner().expect("a slab packer panicked") {
        parents.extend(slab);
    }
    let str_packer = crate::StrPacker::new();
    Ok(load.finish(total as u64, parents, &mut |entries, level| {
        str_packer.order_level(entries, level, cap)
    })?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrPacker;
    use rand::{Rng, SeedableRng};
    use storage::MemDisk;

    fn items(n: usize, seed: u64) -> Vec<(Rect<2>, u64)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..1.0);
                let y: f64 = rng.gen_range(0.0..1.0);
                let s: f64 = rng.gen_range(0.0..0.01);
                (
                    Rect::new([x, y], [(x + s).min(1.0), (y + s).min(1.0)]),
                    i as u64,
                )
            })
            .collect()
    }

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 512))
    }

    fn pool_on(disk: Arc<MemDisk>) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(disk, 512))
    }

    #[test]
    fn identical_to_in_memory_str() {
        let data = items(12_345, 1);
        let cap = NodeCapacity::new(64).unwrap();
        let in_memory = StrPacker::new().pack(pool(), data.clone(), cap).unwrap();
        // Budget far below the data size: many runs, real merging.
        let scratch = Arc::new(MemDisk::default_size());
        let external = pack_str_external(pool(), scratch, data, cap, 500).unwrap();

        assert_eq!(in_memory.len(), external.len());
        assert_eq!(in_memory.height(), external.height());
        assert_eq!(
            in_memory.level_mbrs(0).unwrap(),
            external.level_mbrs(0).unwrap(),
            "leaf structure must be bit-identical"
        );
        assert_eq!(
            in_memory.level_mbrs(1).unwrap(),
            external.level_mbrs(1).unwrap(),
            "upper structure must match too"
        );
        external.validate(false).unwrap();
    }

    /// The external pipeline writes the same disk image as in-memory
    /// STR packing — every page byte-identical — at every thread count.
    #[test]
    fn byte_identical_to_in_memory_at_every_thread_count() {
        let data = items(9_876, 5);
        let cap = NodeCapacity::new(32).unwrap();
        let mem_disk = Arc::new(MemDisk::default_size());
        StrPacker::new()
            .pack(pool_on(mem_disk.clone()), data.clone(), cap)
            .unwrap();

        for threads in [1usize, 2, 4, 8] {
            let ext_disk = Arc::new(MemDisk::default_size());
            let ext = pack_str_external_opts(
                pool_on(ext_disk.clone()),
                rtree::DEFAULT_TREE,
                Arc::new(MemDisk::default_size()),
                data.clone(),
                cap,
                ExternalPackOptions::new(700).threads(threads),
            )
            .unwrap();
            ext.validate(false).unwrap();
            assert_eq!(ext.len(), data.len() as u64);
            assert_eq!(
                mem_disk.num_pages(),
                ext_disk.num_pages(),
                "threads={threads}"
            );
            let mut a = vec![0u8; mem_disk.page_size()];
            let mut b = vec![0u8; ext_disk.page_size()];
            for p in 0..mem_disk.num_pages() {
                mem_disk.read_page(storage::PageId(p), &mut a).unwrap();
                ext_disk.read_page(storage::PageId(p), &mut b).unwrap();
                assert_eq!(a, b, "threads={threads}: page {p} differs");
            }
        }
    }

    #[test]
    fn queries_match_brute_force() {
        let data = items(5_000, 2);
        let cap = NodeCapacity::new(50).unwrap();
        let scratch = Arc::new(MemDisk::default_size());
        let tree = pack_str_external(pool(), scratch, data.clone(), cap, 256).unwrap();
        let q = Rect::new([0.3, 0.3], [0.55, 0.6]);
        let mut expect: Vec<u64> = data
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
    fn rejects_empty_input() {
        for threads in [1usize, 4] {
            let err = pack_str_external_opts::<2, _>(
                pool(),
                rtree::DEFAULT_TREE,
                Arc::new(MemDisk::default_size()),
                std::iter::empty(),
                NodeCapacity::new(10).unwrap(),
                ExternalPackOptions::new(100).threads(threads),
            )
            .unwrap_err();
            assert!(
                matches!(err, ExternalPackError::Tree(rtree::RTreeError::EmptyLoad)),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn tiny_budget_and_single_slab_edge_cases() {
        // Tiny budget: many runs. Small input: single slab, one leaf
        // range. Both must match in-memory packing at every thread count.
        let cap = NodeCapacity::new(20).unwrap();
        for (count, budget) in [(1_000usize, 7usize), (15, 4), (21, 5)] {
            let data = items(count, 30 + count as u64);
            let batch = StrPacker::new().pack(pool(), data.clone(), cap).unwrap();
            for threads in [1usize, 3] {
                let tree = pack_str_external_opts(
                    pool(),
                    rtree::DEFAULT_TREE,
                    Arc::new(MemDisk::default_size()),
                    data.clone(),
                    cap,
                    ExternalPackOptions::new(budget).threads(threads),
                )
                .unwrap();
                assert_eq!(tree.len(), count as u64, "count={count} threads={threads}");
                assert_eq!(
                    batch.level_mbrs(0).unwrap(),
                    tree.level_mbrs(0).unwrap(),
                    "count={count} threads={threads}"
                );
                tree.validate(false).unwrap();
            }
        }
    }

    #[test]
    fn three_dimensions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let data: Vec<(Rect<3>, u64)> = (0..3_000)
            .map(|i| {
                let p = [
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                ];
                (Rect::new(p, p), i as u64)
            })
            .collect();
        let cap = NodeCapacity::new(32).unwrap();
        let scratch = Arc::new(MemDisk::default_size());
        let tree = pack_str_external(pool(), scratch, data.clone(), cap, 200).unwrap();
        tree.validate(false).unwrap();
        let batch = StrPacker::new().pack(pool(), data.clone(), cap).unwrap();
        assert_eq!(batch.level_mbrs(0).unwrap(), tree.level_mbrs(0).unwrap());

        let par = pack_str_external_opts(
            pool(),
            rtree::DEFAULT_TREE,
            Arc::new(MemDisk::default_size()),
            data,
            cap,
            ExternalPackOptions::new(200).threads(4),
        )
        .unwrap();
        assert_eq!(batch.level_mbrs(0).unwrap(), par.level_mbrs(0).unwrap());
        assert_eq!(batch.level_mbrs(1).unwrap(), par.level_mbrs(1).unwrap());
    }
}
