//! Codec edge cases: `decode` and the zero-copy `NodeView::parse` must
//! accept and reject exactly the same pages, with the same diagnostics.
//! Anything less and the two read paths could disagree about what is on
//! disk — the one bug class a zero-copy refactor must never introduce.

use geom::Rect;
use rtree::codec::{self, max_capacity, NodeView};
use rtree::{store, Entry, Node};
use storage::{fnv1a_update, PageId, FNV_SEED};

const PAGE: usize = 4096;

fn sample_node(count: usize) -> Node<2> {
    Node {
        level: 0,
        entries: (0..count)
            .map(|i| {
                let x = i as f64 / count.max(1) as f64;
                Entry::data(Rect::new([x, 0.0], [x + 0.001, 0.25]), i as u64)
            })
            .collect(),
    }
}

fn encoded(count: usize) -> Vec<u8> {
    let mut page = vec![0u8; PAGE];
    codec::encode(&sample_node(count), &mut page);
    page
}

/// Both paths on the same bytes: either both succeed with identical
/// content, or both fail with identical error strings.
fn assert_paths_agree(page: &[u8], id: PageId) {
    let via_decode = codec::decode::<2>(page, id);
    let via_view = NodeView::<2>::parse(page, id);
    match (via_decode, via_view) {
        (Ok(node), Ok(view)) => {
            assert_eq!(node.level, view.level());
            assert_eq!(node.entries.len(), view.len());
            assert_eq!(node, view.to_node());
        }
        (Err(d), Err(v)) => {
            assert_eq!(d.to_string(), v.to_string(), "different diagnostics");
        }
        (Ok(_), Err(v)) => panic!("decode accepted what the view rejected: {v}"),
        (Err(d), Ok(_)) => panic!("view accepted what decode rejected: {d}"),
    }
}

#[test]
fn truncated_pages_rejected_identically() {
    let page = encoded(10);
    // Every truncation point: mid-header, exactly header, mid-body.
    for cut in [0, 1, 8, 23, 24, 25, 100, 24 + 10 * 40 - 1] {
        assert_paths_agree(&page[..cut], PageId(7));
        assert!(
            codec::decode::<2>(&page[..cut], PageId(7)).is_err(),
            "cut {cut}"
        );
    }
    // Cutting exactly at the body end keeps the page valid.
    assert_paths_agree(&page[..24 + 10 * 40], PageId(7));
    assert!(NodeView::<2>::parse(&page[..24 + 10 * 40], PageId(7)).is_ok());
}

#[test]
fn corrupted_entry_count_rejected_identically() {
    let mut page = encoded(10);
    // An absurd count whose body would overrun the page.
    page[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_paths_agree(&page, PageId(3));
    let err = NodeView::<2>::parse(&page, PageId(3))
        .unwrap_err()
        .to_string();
    assert!(err.contains("entry count exceeds page size"), "{err}");

    // A subtly wrong count that still fits fails the checksum instead.
    let mut page = encoded(10);
    page[8..12].copy_from_slice(&11u32.to_le_bytes());
    assert_paths_agree(&page, PageId(3));
    let err = codec::decode::<2>(&page, PageId(3))
        .unwrap_err()
        .to_string();
    assert!(err.contains("checksum mismatch"), "{err}");
}

#[test]
fn checksum_mismatch_rejected_identically() {
    // Flip one bit everywhere that matters: header fields and body.
    let clean = encoded(5);
    for pos in [4, 9, 13, 24, 60, 24 + 5 * 40 - 1] {
        let mut page = clean.clone();
        page[pos] ^= 0x10;
        assert_paths_agree(&page, PageId(11));
        assert!(
            codec::decode::<2>(&page, PageId(11)).is_err(),
            "flip at {pos} undetected"
        );
    }
    // Flipping a bit in the checksum field itself is also fatal.
    let mut page = clean.clone();
    page[17] ^= 0x01;
    assert_paths_agree(&page, PageId(11));
    // Flipping stale bytes past the body is harmless: unreachable data.
    let mut page = clean;
    page[24 + 5 * 40] ^= 0xFF;
    assert_paths_agree(&page, PageId(11));
    assert!(NodeView::<2>::parse(&page, PageId(11)).is_ok());
}

#[test]
fn bad_magic_and_dims_rejected_identically() {
    let mut page = encoded(3);
    page[0] = b'X';
    assert_paths_agree(&page, PageId(1));

    // Right bytes, wrong const D: a 2-D page read as 3-D.
    let page = encoded(3);
    let d = codec::decode::<3>(&page, PageId(1));
    let v = NodeView::<3>::parse(&page, PageId(1));
    assert_eq!(d.unwrap_err().to_string(), v.unwrap_err().to_string());
}

#[test]
fn non_finite_rectangle_rejected_identically() {
    // Corrupt one coordinate into NaN and re-seal the checksum so only
    // the per-entry rectangle validation can catch it.
    let mut node = sample_node(4);
    node.entries[2].payload = 99;
    let mut page = vec![0u8; PAGE];
    codec::encode(&node, &mut page);
    let off = 24 + 2 * 40; // entry 2, lo(0)
    page[off..off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    let body_end = 24 + 4 * 40;
    let sum = store::page_checksum(&page, body_end);
    page[16..24].copy_from_slice(&sum.to_le_bytes());
    assert_paths_agree(&page, PageId(5));
    let err = codec::decode::<2>(&page, PageId(5))
        .unwrap_err()
        .to_string();
    assert!(err.contains("bad rectangle"), "{err}");
}

#[test]
fn inverted_and_infinite_rectangles_judged_identically() {
    // Re-sealed so only the rectangle check decides. An inverted axis
    // is rejected by both paths with the same error; infinite (but
    // ordered) coordinates are legal rectangles to both.
    let cases: [(usize, f64, bool); 4] = [
        (0, 0.9, false),  // entry 1 lo(0) above its hi(0)
        (3, -0.5, false), // entry 1 hi(1) below its lo(1)
        (0, f64::NEG_INFINITY, true),
        (2, f64::INFINITY, true),
    ];
    for (word, value, accepted) in cases {
        let mut page = encoded(4);
        let off = 24 + 40 + word * 8;
        page[off..off + 8].copy_from_slice(&value.to_le_bytes());
        let sum = store::page_checksum(&page, 24 + 4 * 40);
        page[16..24].copy_from_slice(&sum.to_le_bytes());
        assert_paths_agree(&page, PageId(6));
        let res = codec::decode::<2>(&page, PageId(6));
        assert_eq!(res.is_ok(), accepted, "word {word} = {value}: {res:?}");
        if let Err(e) = res {
            assert!(e.to_string().contains("bad rectangle"), "{e}");
        }
    }
}

#[test]
fn legacy_fnv_sealed_page_is_rejected_by_both_paths() {
    // Builds before the word-parallel checksum sealed node pages with
    // FNV-1a over the header prefix and the entry region. Such a page
    // fails its checksum, identically on both read paths.
    let node = sample_node(7);
    let mut page = vec![0u8; PAGE];
    codec::encode(&node, &mut page);
    let body_end = 24 + 7 * 40;
    let legacy = fnv1a_update(fnv1a_update(FNV_SEED, &page[..16]), &page[24..body_end]);
    assert_ne!(legacy, store::page_checksum(&page, body_end));
    page[16..24].copy_from_slice(&legacy.to_le_bytes());

    let err = codec::decode::<2>(&page, PageId(3))
        .unwrap_err()
        .to_string();
    assert!(err.contains("checksum mismatch"), "{err}");
    assert!(NodeView::<2>::parse(&page, PageId(3)).is_err());
    assert_paths_agree(&page, PageId(3));
}

#[test]
fn node_at_exactly_max_capacity_round_trips_both_paths() {
    let cap = max_capacity::<2>(PAGE);
    assert_eq!(cap, 101); // (4096 − 24) / 40
    let page = encoded(cap);
    assert_paths_agree(&page, PageId(9));
    let view = NodeView::<2>::parse(&page, PageId(9)).unwrap();
    assert_eq!(view.len(), cap);
    assert_eq!(view.entries().count(), cap);
    assert_eq!(view.payload(cap - 1), (cap - 1) as u64);

    // One more entry cannot be encoded at all.
    let node = sample_node(cap + 1);
    let res = std::panic::catch_unwind(|| {
        let mut page = vec![0u8; PAGE];
        codec::encode(&node, &mut page);
    });
    assert!(res.is_err(), "encode must panic past max_capacity");
}
