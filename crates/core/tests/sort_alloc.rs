//! Proof that sorting a level, one too large for the L2 cache included,
//! allocates at most 16 bytes of scratch per entry: a `u64` key and a
//! `u32` input index, with no second entry-sized or pair-sized array.
//!
//! A counting `#[global_allocator]` wraps the system allocator and sums
//! the bytes each thread asks for; the sort runs on the test's thread.
//! This lives in its own integration-test binary because a global
//! allocator is process-wide state no other test should share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use geom::Rect;
use rtree::Entry;

struct Counting;

thread_local! {
    // Const-initialized with no destructor, so reading it inside the
    // allocator never allocates.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Bytes `f` allocates on this thread, freed or not.
fn bytes_during(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

#[test]
fn sort_by_center_scratch_is_at_most_16_bytes_per_entry() {
    for n in [14_200, 65_537, 262_144] {
        for shape in ["uniform", "all equal"] {
            let mut entries: Vec<Entry<2>> = (0..n as u64)
                .map(|id| {
                    let x = match shape {
                        // A scrambled walk over [0, 1): distinct centers.
                        "uniform" => {
                            (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64
                                / (1u64 << 53) as f64
                        }
                        _ => 0.5,
                    };
                    Entry::data(Rect::new([x, 0.0], [x, 1.0]), id)
                })
                .collect();
            for axis in 0..2 {
                let bytes = bytes_during(|| str_core::sort_by_center(&mut entries, axis));
                assert!(
                    bytes <= 16 * n as u64,
                    "{shape}: n={n} axis={axis}: {bytes} bytes, {:.1} per entry",
                    bytes as f64 / n as f64
                );
                let center = |e: &Entry<2>| e.rect.center_coord(axis);
                assert!(entries.windows(2).all(|w| center(&w[0]) <= center(&w[1])));
            }
        }
    }
}
