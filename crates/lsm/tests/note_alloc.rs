//! Corrupt WAL notes must not over-allocate: a note whose item count
//! claims far more items than its payload holds decodes to `Corrupt`
//! while allocating at most a small multiple of its own length.
//!
//! A counting `#[global_allocator]` (as in `rtree`'s `zero_alloc`
//! test) sums the bytes requested during each decode. This lives in
//! its own integration-test binary because a global allocator is
//! process-wide state no other test should share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lsm::{LsmError, Note};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocation budget per input byte.
const PER_BYTE: u64 = 64;

/// Decode `payload` as a 2-D note; it must be `Corrupt` and stay within
/// the allocation budget.
fn assert_corrupt_within_budget(what: &str, payload: &[u8]) {
    let before = BYTES.load(Ordering::Relaxed);
    let decoded = Note::<2>::decode(payload);
    let allocated = BYTES.load(Ordering::Relaxed) - before;
    assert!(
        matches!(decoded, Err(LsmError::Corrupt(_))),
        "{what}: expected Corrupt, got {decoded:?}"
    );
    let budget = PER_BYTE * payload.len() as u64;
    assert!(
        allocated <= budget,
        "{what}: allocated {allocated} B decoding {} B (budget {budget} B)",
        payload.len()
    );
}

/// One test function: the counter is process-wide, so a second test
/// running on another thread would charge its allocations here.
#[test]
fn notes_with_inflated_counts_stay_within_budget() {
    // Tag 1 (insert) claiming u32::MAX items, and no items.
    let mut insert = vec![1u8];
    insert.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(insert.len(), 5);
    assert_corrupt_within_budget("insert note", &insert);

    // Tag 3 (delete): the insert note's layout, same inflated count,
    // and a one-item delete note whose count claims one more item.
    let mut delete = vec![3u8];
    delete.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_corrupt_within_budget("delete note", &delete);
    let mut one_short = Vec::new();
    lsm::DeleteNote::<2> {
        items: vec![(geom::Rect::new([0.0, 0.0], [1.0, 1.0]), 9)].into(),
    }
    .encode_into(&mut one_short);
    one_short[1..5].copy_from_slice(&2u32.to_le_bytes());
    assert_corrupt_within_budget("delete note one item short", &one_short);

    // Tag 4, the retired flip note: new segment id, seal LSN, written
    // flag, then a removed count of u32::MAX and no removed ids.
    let mut flip = vec![4u8];
    for word in [7u64, 11] {
        flip.extend_from_slice(&word.to_le_bytes());
    }
    flip.push(1);
    flip.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(flip.len(), 22);
    assert_corrupt_within_budget("flip note", &flip);
}
