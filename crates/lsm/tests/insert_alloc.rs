//! The durable write path allocates nothing per operation once warm: an
//! insert or delete note is encoded straight into the WAL's reused
//! staging buffer, the memtable's columns only grow by doubling, and a
//! chunk sort permutes them through scratch buffers the memtable keeps.
//!
//! A counting `#[global_allocator]` (as in `rtree`'s `zero_alloc` test)
//! counts the heap allocations each thread makes. This lives in its own
//! integration-test binary because a global allocator is process-wide
//! state; the count is per thread, and with inline compaction every
//! allocation an insert causes happens on the inserting thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use geom::Rect;
use lsm::{LsmOptions, LsmTree, MemSegmentStore};
use storage::{LogStore, MemDisk, MemLogStore};

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

/// A log store that keeps nothing, so the store's own buffers do not
/// show up in a single operation's count.
struct SinkLog;

impl LogStore for SinkLog {
    fn list(&self) -> storage::Result<Vec<u64>> {
        Ok(Vec::new())
    }
    fn read(&self, _seg: u64) -> storage::Result<Vec<u8>> {
        Ok(Vec::new())
    }
    fn append(&self, _seg: u64, _bytes: &[u8]) -> storage::Result<()> {
        Ok(())
    }
    fn truncate(&self, _seg: u64, _len: u64) -> storage::Result<()> {
        Ok(())
    }
    fn delete(&self, _seg: u64) -> storage::Result<()> {
        Ok(())
    }
    fn sync(&self) -> storage::Result<()> {
        Ok(())
    }
}

/// Inline compaction, and a memtable far larger than any test fills,
/// so nothing seals.
fn open(log: Arc<dyn LogStore>) -> LsmTree<2> {
    let opts = LsmOptions {
        memtable_items: 1 << 16,
        background: false,
        ..LsmOptions::default()
    };
    LsmTree::open(
        Arc::new(MemDisk::default_size()),
        log,
        Arc::new(MemSegmentStore::new()),
        opts,
    )
    .unwrap()
}

fn rect_for(i: u64) -> Rect<2> {
    let x = (i % 211) as f64;
    let y = (i / 211) as f64;
    Rect::new([x, y], [x + 0.5, y + 0.5])
}

#[test]
fn steady_state_inserts_average_under_a_twentieth_of_an_allocation() {
    const N: u64 = 2_000;
    let tree = open(MemLogStore::new());
    for i in 0..N {
        tree.insert(rect_for(i), i).unwrap();
    }
    let allocs = allocs_during(|| {
        for i in N..2 * N {
            tree.insert(rect_for(i), i).unwrap();
        }
    });
    assert_eq!(tree.stats().compactions, 0, "nothing sealed");
    let per_insert = allocs as f64 / N as f64;
    assert!(
        per_insert <= 0.05,
        "{allocs} allocations over {N} inserts ({per_insert:.3} each)"
    );
}

#[test]
fn deleting_a_held_copy_allocates_nothing() {
    let tree = open(Arc::new(SinkLog));
    for i in 0..64 {
        tree.insert(rect_for(i), i).unwrap();
    }
    // Warm both staging buffers with a delete note each.
    assert!(tree.delete(&rect_for(0), 0).unwrap());
    assert!(tree.delete(&rect_for(1), 1).unwrap());
    let target = rect_for(40);
    let mut deleted = false;
    let allocs = allocs_during(|| deleted = tree.delete(&target, 40).unwrap());
    assert!(deleted);
    assert_eq!(allocs, 0, "a delete of a memtable copy allocated");
}

#[test]
fn chunk_completing_inserts_allocate_nothing_once_warm() {
    // 2,048 rows span at least two memtable chunks; inserting and then
    // deleting them warms every column, block column and sort buffer.
    const ROWS: u64 = 2_048;
    let tree = open(Arc::new(SinkLog));
    for i in 0..ROWS {
        tree.insert(rect_for(i), i).unwrap();
    }
    for i in 0..ROWS {
        assert!(tree.delete(&rect_for(i), i).unwrap());
    }
    assert_eq!(tree.stats().memtable_items, 0);
    for i in 0..ROWS {
        let allocs = allocs_during(|| tree.insert(rect_for(i), i).unwrap());
        assert_eq!(allocs, 0, "insert {i} of a warm memtable allocated");
    }
    assert_eq!(tree.stats().compactions, 0, "nothing sealed");
}
