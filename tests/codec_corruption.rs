//! Exhaustive corruption matrix for the node codec.
//!
//! Every byte region of an encoded page — magic, level, count, dims,
//! checksum, entry payloads, the stale tail — is hit with every
//! single-bit flip, and every truncation length is tried. For each
//! corrupted page the two decoders must agree exactly: [`codec::decode`]
//! and [`NodeView::parse`] either both reject with the same error, or
//! both accept — and acceptance is only legal when the decoded node is
//! bit-identical to the original (flips past the entry region land in
//! stale bytes the count field makes unreachable).
//!
//! The LSM's WAL delete note gets the same matrix: its decoder reads
//! untrusted log bytes, so it must be total.

use str_rtree::geom::Rect;
use str_rtree::lsm::{DeleteNote, LsmError, Note};
use str_rtree::rtree::codec::{self, entry_size};
use str_rtree::rtree::{Entry, Node, NodeView};
use str_rtree::storage::PageId;

const PAGE: usize = 512;

fn sample_node() -> Node<2> {
    Node {
        level: 1,
        entries: (0..6)
            .map(|i| Entry {
                rect: Rect::new([i as f64, 0.0], [i as f64 + 0.5, 1.0]),
                payload: 5000 + i,
            })
            .collect(),
    }
}

fn encoded() -> (Vec<u8>, Node<2>, usize) {
    let node = sample_node();
    let mut page = vec![0u8; PAGE];
    codec::encode(&node, &mut page);
    let body_end = 24 + node.len() * entry_size::<2>();
    (page, node, body_end)
}

/// Decode the same bytes both ways and insist they agree byte-for-byte
/// on the verdict. Returns the decoded node when both accepted.
fn decode_both(page: &[u8]) -> Option<Node<2>> {
    let id = PageId(7);
    let owned = codec::decode::<2>(page, id);
    let view = NodeView::<2>::parse(page, id);
    match (owned, view) {
        (Ok(node), Ok(view)) => {
            assert_eq!(view.to_node(), node, "decoders disagree on content");
            Some(node)
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "decoders reject differently");
            None
        }
        (Ok(_), Err(e)) => panic!("decode accepted what parse rejected: {e}"),
        (Err(e), Ok(_)) => panic!("parse accepted what decode rejected: {e}"),
    }
}

/// The labelled byte regions of a node page.
fn regions(body_end: usize) -> Vec<(&'static str, std::ops::Range<usize>)> {
    vec![
        ("magic", 0..4),
        ("level", 4..8),
        ("count", 8..12),
        ("dims", 12..16),
        ("checksum", 16..24),
        ("entries", 24..body_end),
        ("stale-tail", body_end..PAGE),
    ]
}

#[test]
fn single_bit_flips_never_yield_a_wrong_answer() {
    let (page, original, body_end) = encoded();
    assert!(decode_both(&page).is_some(), "pristine page must decode");

    for (name, range) in regions(body_end) {
        let mut rejected = 0u32;
        let mut accepted = 0u32;
        for offset in range.clone() {
            for bit in 0..8u8 {
                let mut corrupt = page.clone();
                corrupt[offset] ^= 1 << bit;
                match decode_both(&corrupt) {
                    None => rejected += 1,
                    Some(node) => {
                        // Acceptance is only sound if the corruption was
                        // invisible: the decoded node must be the original.
                        assert_eq!(
                            node, original,
                            "{name}: flip at byte {offset} bit {bit} \
                             decoded to a different node"
                        );
                        accepted += 1;
                    }
                }
            }
        }
        // Everything the checksum covers must always reject; the stale
        // tail is exactly the bytes where flips are harmless.
        if name == "stale-tail" {
            assert_eq!(rejected, 0, "{name}: stale bytes must not affect decode");
        } else {
            assert_eq!(
                accepted, 0,
                "{name}: {accepted} flips in a covered region went undetected"
            );
        }
    }
}

#[test]
fn every_truncation_is_rejected_identically() {
    let (page, _, body_end) = encoded();
    // Any prefix shorter than the entry body must fail: shorter than the
    // header trips the length check, otherwise count-exceeds-page.
    for len in 0..body_end {
        assert!(
            decode_both(&page[..len]).is_none(),
            "truncation to {len} bytes was accepted"
        );
    }
    // Truncating into the stale tail keeps the whole body: still valid.
    assert!(decode_both(&page[..body_end]).is_some());
}

#[test]
fn multi_byte_regions_reject_consistently() {
    let (page, _, body_end) = encoded();
    // Whole-region scrambles (not just single bits): overwrite each
    // region with a recognizable pattern and check agreement.
    for (name, range) in regions(body_end) {
        if range.is_empty() {
            continue;
        }
        let mut corrupt = page.clone();
        for (k, b) in corrupt[range.clone()].iter_mut().enumerate() {
            *b = (k as u8).wrapping_mul(37).wrapping_add(11);
        }
        let verdict = decode_both(&corrupt);
        if name == "stale-tail" {
            assert!(verdict.is_some(), "stale tail scramble must be harmless");
        } else {
            assert!(verdict.is_none(), "{name} scramble went undetected");
        }
    }
}

#[test]
fn zeroed_and_random_pages_are_rejected() {
    // A zeroed page (fresh allocation) and arbitrary garbage must both
    // be rejected — by both decoders, with identical reasons.
    assert!(decode_both(&vec![0u8; PAGE]).is_none());
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let garbage: Vec<u8> = (0..PAGE)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect();
    assert!(decode_both(&garbage).is_none());
}

fn encode_note(note: &Note<2>) -> Vec<u8> {
    let mut out = Vec::new();
    match note {
        Note::Insert(n) => n.encode_into(&mut out),
        Note::Delete(n) => n.encode_into(&mut out),
        Note::Flip(f) => f.encode_into(&mut out),
    }
    out
}

/// Every truncation and every length-inflated count of a delete note is
/// a typed `Corrupt`; every single-bit flip is either a typed `Corrupt`
/// or decodes to a note that re-encodes to exactly the flipped bytes.
/// Never a panic, never a misread.
#[test]
fn delete_note_corruption_is_typed_or_exact() {
    let note = DeleteNote::<2> {
        items: vec![
            (Rect::new([0.25, 0.5], [0.75, 1.0]), 42),
            (Rect::new([-3.0, 2.0], [-1.5, 2.0]), u64::MAX),
        ]
        .into(),
    };
    let bytes = encode_note(&Note::Delete(note));
    let corrupt = |b: &[u8], what: &str| match Note::<2>::decode(b) {
        Err(LsmError::Corrupt(_)) => {}
        other => panic!("{what}: expected Corrupt, got {other:?}"),
    };
    for len in 0..bytes.len() {
        corrupt(&bytes[..len], &format!("truncated to {len}"));
    }
    for count in [3u32, 4, 1 << 20, u32::MAX] {
        let mut inflated = bytes.clone();
        inflated[1..5].copy_from_slice(&count.to_le_bytes());
        corrupt(&inflated, &format!("count inflated to {count}"));
    }
    let mut long = bytes.clone();
    long.extend_from_slice(&[0; 8]);
    corrupt(&long, "trailing bytes");

    let (mut rejected, mut exact) = (0u32, 0u32);
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        match Note::<2>::decode(&flipped) {
            Err(LsmError::Corrupt(_)) => rejected += 1,
            Ok(back) => {
                assert_eq!(encode_note(&back), flipped, "bit {bit}: decoded a misread");
                exact += 1;
            }
            Err(other) => panic!("bit {bit}: untyped error {other}"),
        }
    }
    assert!(
        rejected > 0 && exact > 0,
        "{rejected} rejected, {exact} exact"
    );
}
