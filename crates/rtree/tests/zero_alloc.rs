//! Proof that the zero-copy query path stops allocating once warm.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the
//! number of heap allocations during a warm region query bounds what the
//! traversal itself does. The `NodeView` path must stay at a small
//! constant — the reused descent stack — no matter how many nodes the
//! query touches.
//!
//! This lives in its own integration-test binary because a global
//! allocator is process-wide state no other test should share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use geom::Rect;
use rtree::{BulkLoader, Entry, NodeCapacity, RTree};
use storage::{BufferPool, MemDisk};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_zero_copy_query_allocates_no_per_node_buffers() {
    // Enough entries for a 3-level tree with hundreds of leaves; pool
    // large enough to hold every page so the measured queries are warm.
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 2048));
    let entries: Vec<Entry<2>> = (0..50_000)
        .map(|i| {
            let x = ((i * 193) % 49_999) as f64 / 49_999.0;
            let y = ((i * 389) % 49_993) as f64 / 49_993.0;
            Entry::data(Rect::new([x, y], [x, y]), i as u64)
        })
        .collect();
    let tree: RTree<2> = BulkLoader::new(NodeCapacity::new(100).unwrap())
        .load(pool, entries, &mut |es: &mut Vec<Entry<2>>, _| {
            es.sort_by(|a, b| a.rect.cmp_center(&b.rect, 0))
        })
        .unwrap();

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
