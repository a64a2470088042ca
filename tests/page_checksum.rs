//! Properties of the node-page checksum on a full-capacity 2-D page.
//!
//! The checksum is what stands between a torn or corrupted page and a
//! wrong query answer, so these pin its detection guarantees on the page
//! shape that matters most (every entry slot used): each single-bit flip
//! in the header or the entry region, each swap of two entries, and each
//! torn tail at a 512-byte sector boundary must be rejected — by both
//! read paths, with the same error. Known-answer vectors pin the
//! function itself so it cannot drift without a failing test.

use std::sync::Arc;

use str_rtree::geom::{Rect, Rect2};
use str_rtree::prelude::{pack, BufferPool, Disk, MemDisk, NodeCapacity, RTree, StrPacker};
use str_rtree::rtree::codec::{self, entry_size, max_capacity};
use str_rtree::rtree::{store, Entry, Node, NodeView, RTreeError};
use str_rtree::storage::{fnv1a_update, wide_hash, PageId, DEFAULT_PAGE_SIZE, FNV_SEED};

const PAGE: usize = 4096;
const ID: PageId = PageId(42);

fn full_node() -> Node<2> {
    let cap = max_capacity::<2>(PAGE);
    Node {
        level: 0,
        entries: (0..cap)
            .map(|i| {
                let x = i as f64 / cap as f64;
                let y = (i * 37 % cap) as f64 / cap as f64;
                Entry::data(Rect::new([x, y], [x + 0.004, y + 0.009]), 1_000 + i as u64)
            })
            .collect(),
    }
}

fn full_page() -> (Vec<u8>, usize) {
    let node = full_node();
    let mut page = vec![0u8; PAGE];
    codec::encode(&node, &mut page);
    (page, 24 + node.len() * entry_size::<2>())
}

/// Both read paths must reject `page`, with the same error; returns it.
fn rejected_identically(page: &[u8], what: &str) -> String {
    let owned = codec::decode::<2>(page, ID);
    let view = NodeView::<2>::parse(page, ID);
    match (owned, view) {
        (Err(a), Err(b)) => {
            let (a, b) = (a.to_string(), b.to_string());
            assert_eq!(a, b, "{what}: decoders reject differently");
            a
        }
        (Ok(_), _) => panic!("{what}: decode accepted a corrupted page"),
        (_, Ok(_)) => panic!("{what}: parse accepted a corrupted page"),
    }
}

#[test]
fn full_page_is_sealed_with_the_word_parallel_checksum() {
    let (page, body_end) = full_page();
    assert_eq!(
        body_end,
        PAGE - 32,
        "101 entries of 40 bytes after the header"
    );
    let stored = u64::from_le_bytes(page[16..24].try_into().unwrap());
    assert_eq!(stored, store::page_checksum(&page, body_end));
    assert_eq!(
        stored,
        wide_hash(wide_hash(0, &page[..16]), &page[24..body_end])
    );
    assert_eq!(codec::decode::<2>(&page, ID).unwrap(), full_node());
    assert_eq!(
        NodeView::<2>::parse(&page, ID).unwrap().to_node(),
        full_node()
    );
}

#[test]
fn known_answer_vectors() {
    // A change to these values changes every node page on disk. They
    // were cross-checked against an independent implementation of the
    // algorithm described on `storage::wide_hash`.
    let (page, body_end) = full_page();
    assert_eq!(store::page_checksum(&page, body_end), 0x9034_29c8_f796_d0bb);

    let mut bytes = [0u8; 64];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = i as u8;
    }
    assert_eq!(store::page_checksum(&bytes, 24), 0xd8ed_ee90_4eb8_3e0d);
    assert_eq!(store::page_checksum(&bytes, 64), 0x6d9f_863e_6e0b_14b4);
}

#[test]
fn every_single_bit_flip_is_rejected_identically() {
    let (page, body_end) = full_page();
    // Header prefix, checksum field and entry region: every byte the
    // page's meaning depends on.
    for offset in 0..body_end {
        for bit in 0..8 {
            let mut flipped = page.clone();
            flipped[offset] ^= 1 << bit;
            rejected_identically(&flipped, &format!("bit {bit} of byte {offset}"));
        }
    }
}

#[test]
fn swapping_any_two_entries_is_rejected() {
    let (page, _) = full_page();
    let size = entry_size::<2>();
    let cap = max_capacity::<2>(PAGE);
    for i in 0..cap {
        for j in i + 1..cap {
            let mut swapped = page.clone();
            let (a, b) = (24 + i * size, 24 + j * size);
            let entry_i = page[a..a + size].to_vec();
            swapped.copy_within(b..b + size, a);
            swapped[b..b + size].copy_from_slice(&entry_i);
            let err = rejected_identically(&swapped, &format!("swap {i} <-> {j}"));
            assert!(err.contains("checksum mismatch"), "swap {i} <-> {j}: {err}");
        }
    }
}

#[test]
fn torn_tail_at_every_sector_boundary_is_rejected() {
    let (page, _) = full_page();
    for boundary in (0..PAGE).step_by(512) {
        let mut torn = page.clone();
        torn[boundary..].fill(0);
        rejected_identically(&torn, &format!("zeros from byte {boundary}"));
    }
}

#[test]
fn tree_sealed_by_an_older_build_is_refused() {
    // Re-seal every node page of a packed tree with the legacy FNV-1a,
    // as builds before the word-parallel checksum wrote them. The meta
    // page is untouched, so the tree opens; every read of a node page
    // then fails with the typed checksum error, never a wrong answer.
    let disk = Arc::new(MemDisk::default_size());
    let square = |i: u64| {
        let (x, y) = ((i % 50) as f64 / 50.0, (i / 50) as f64 / 40.0);
        Rect2::new([x, y], [x + 0.01, y + 0.01])
    };
    let window = Rect2::new([0.2, 0.2], [0.6, 0.6]);
    {
        let pool = Arc::new(BufferPool::new(disk.clone(), 64));
        let items = (0..2_000).map(|i| (square(i), i)).collect();
        let cap = NodeCapacity::new(20).unwrap();
        let mut tree = pack(pool, items, cap, &StrPacker::new()).unwrap();
        tree.persist().unwrap();
    }

    let mut page = vec![0u8; DEFAULT_PAGE_SIZE];
    let mut resealed = 0;
    for p in 0..disk.num_pages() {
        disk.read_page(PageId(p), &mut page).unwrap();
        if page[..4] != *b"RTN1" {
            continue;
        }
        let count = u32::from_le_bytes(page[8..12].try_into().unwrap()) as usize;
        let end = 24 + count * entry_size::<2>();
        let legacy = fnv1a_update(fnv1a_update(FNV_SEED, &page[..16]), &page[24..end]);
        page[16..24].copy_from_slice(&legacy.to_le_bytes());
        disk.write_page(PageId(p), &page).unwrap();
        resealed += 1;
    }
    assert!(resealed > 100, "only {resealed} node pages");

    let pool = Arc::new(BufferPool::new(disk, 16));
    let tree = RTree::<2>::open(pool).unwrap();
    match tree.query_region(&window) {
        Err(RTreeError::Corrupt { reason, .. }) => {
            assert!(reason.contains("checksum mismatch"), "{reason}")
        }
        Err(other) => panic!("wrong error for an FNV-sealed page: {other}"),
        Ok(hits) => panic!("an FNV-sealed tree answered with {} hits", hits.len()),
    }
    assert!(tree.validate(false).is_err());
}
