//! Proof that the zero-copy query path stops allocating once warm, and
//! that a cold buffer pool's misses allocate nothing either.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the
//! number of heap allocations during a region query bounds what the
//! traversal and the pool do. The `NodeView` path must stay at a small
//! constant — the reused descent stack — no matter how many nodes the
//! query touches, and a miss must reuse an evicted frame's buffer.
//!
//! This lives in its own integration-test binary because a global
//! allocator is process-wide state no other test should share. The
//! count is per thread, so the tests of this binary may run in
//! parallel: a query runs its pool misses on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use geom::Rect;
use rtree::{BulkLoader, Entry, NodeCapacity, RTree};
use storage::{BufferPool, Disk, MemDisk};

struct Counting;

thread_local! {
    // Const-initialized with no destructor, so reading it inside the
    // allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A 3-level tree of 50k points (hundreds of leaves) on `pool`.
fn load_tree(pool: Arc<BufferPool>) -> RTree<2> {
    let entries: Vec<Entry<2>> = (0..50_000)
        .map(|i| {
            let x = ((i * 193) % 49_999) as f64 / 49_999.0;
            let y = ((i * 389) % 49_993) as f64 / 49_993.0;
            Entry::data(Rect::new([x, y], [x, y]), i as u64)
        })
        .collect();
    BulkLoader::new(NodeCapacity::new(100).unwrap())
        .load(pool, entries, &mut |es: &mut Vec<Entry<2>>, _| {
            es.sort_by(|a, b| a.rect.cmp_center(&b.rect, 0))
        })
        .unwrap()
}

#[test]
fn warm_zero_copy_query_allocates_no_per_node_buffers() {
    // Pool large enough to hold every page so the measured queries are
    // warm.
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 2048));
    let tree = load_tree(pool);

    let q = Rect::new([0.1, 0.1], [0.6, 0.7]); // ~30% of the space
    let mut hits = 0u64;

    // Warm the pool and the counters' code paths once.
    tree.query_region_visit(&q, &mut |_, _| hits += 1).unwrap();
    let expect = hits;
    assert!(expect > 10_000, "query should be large, got {expect}");
    let nodes_visited = {
        // Leaves alone give a lower bound on visited pages.
        expect / 100
    };

    // Zero-copy path: only the descent stack, regardless of tree size.
    hits = 0;
    let zero_copy = allocs_during(|| {
        tree.query_region_visit(&q, &mut |_, _| hits += 1).unwrap();
    });
    assert_eq!(hits, expect);
    assert!(
        zero_copy <= 8,
        "zero-copy query should not allocate per node, got {zero_copy} allocs \
         over ≥{nodes_visited} visited nodes"
    );

    // Same property for the streaming iterator once its buffers exist:
    // iterate twice, measure the second pass against a fresh iterator.
    let _ = tree.iter_region(&q).count();
    let streamed = allocs_during(|| {
        assert_eq!(tree.iter_region(&q).count() as u64, expect);
    });
    assert!(
        streamed <= nodes_visited / 4,
        "iter_region should reuse its match buffer, got {streamed} allocs"
    );
}

#[test]
fn cold_pool_misses_allocate_no_page_buffers() {
    // Persist, then reopen through a pool far smaller than the tree:
    // nearly every node visit is a miss that evicts a frame.
    let disk: Arc<dyn Disk> = Arc::new(MemDisk::default_size());
    let mut built = load_tree(Arc::new(BufferPool::new(disk.clone(), 2048)));
    built.persist().unwrap();
    drop(built);
    let pool = Arc::new(BufferPool::new(disk, 16));
    let tree = RTree::<2>::open(pool.clone()).unwrap();

    let q = Rect::new([0.05, 0.05], [0.95, 0.95]); // ~80% of the space
    let mut hits = 0u64;
    // The first pass grows the pool to its 16 frames and leaves the
    // descent stack's code paths warm.
    tree.query_region_visit(&q, &mut |_, _| hits += 1).unwrap();
    let expect = hits;

    hits = 0;
    let before = pool.stats();
    let cold = allocs_during(|| {
        tree.query_region_visit(&q, &mut |_, _| hits += 1).unwrap();
    });
    let misses = pool.stats().since(&before).misses;
    assert_eq!(hits, expect);
    assert!(misses >= 256, "query should miss often, got {misses}");
    assert!(
        cold <= 8,
        "a miss should reuse an evicted frame's buffer, got {cold} allocs \
         over {misses} misses"
    );
}
