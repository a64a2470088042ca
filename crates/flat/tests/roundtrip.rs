//! Flat-tier round trips: build → load (owned / borrowed / mmap) →
//! query parity with the source paged tree, plus rejection of corrupt,
//! misaligned, and mismatched buffers.

use std::sync::Arc;

use flat_rtree as flat;

use flat::{FlatError, FlatTree};
use geom::{Rect, Rect2};
use rtree::{NodeCapacity, RTree};
use storage::{BufferPool, MemDisk};
use str_core::PackerKind;

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 1024))
}

fn packed(n: usize, seed: u64) -> RTree<2> {
    let items = datagen::synthetic::synthetic_squares(n, 1.0, seed).items();
    PackerKind::Str
        .pack(pool(), items, NodeCapacity::new(16).unwrap())
        .unwrap()
}

fn sorted(mut v: Vec<(Rect2, u64)>) -> Vec<(Rect2, u64)> {
    v.sort_by_key(|&(_, id)| id);
    v
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("str-flat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn flat_matches_paged_queries() {
    let tree = packed(3000, 42);
    let flat = FlatTree::from_rtree(&tree).unwrap();
    assert_eq!(flat.len(), 3000);
    assert_eq!(flat.num_levels() as u32, tree.height() + 1);
    assert_eq!(flat.root_mbr(), tree.root_mbr().unwrap());

    for (i, side) in [(0u64, 0.05), (1, 0.2), (2, 0.7), (3, 1.0)] {
        let lo = (i as f64) * 0.13 % 0.8;
        let q = Rect::new([lo, lo], [(lo + side).min(1.0), (lo + side).min(1.0)]);
        let want = sorted(tree.query_region(&q).unwrap());
        let got = sorted(flat.query_region(&q));
        assert_eq!(got, want, "query {q:?}");
    }

    // Point queries go through the same path.
    let p = geom::Point::new([0.5, 0.5]);
    let want = sorted(tree.query_region(&Rect::from_point(p)).unwrap());
    assert_eq!(sorted(flat.query_point(&p)), want);

    // Empty query region returns nothing.
    assert!(flat.query_region(&Rect::empty()).is_empty());
}

#[test]
fn borrowed_and_owned_loads_share_bytes() {
    let tree = packed(500, 7);
    let bytes = flat::flatten_to_bytes(&tree).unwrap();
    let borrowed = FlatTree::<2>::from_bytes(&bytes).unwrap();
    let owned = FlatTree::<2>::from_vec(bytes.clone()).unwrap();
    assert_eq!(borrowed.as_bytes(), owned.as_bytes());
    let q = Rect::new([0.1, 0.1], [0.4, 0.4]);
    assert_eq!(
        sorted(borrowed.query_region(&q)),
        sorted(owned.query_region(&q))
    );
}

#[test]
fn mmap_round_trip_serves_identical_results() {
    let tree = packed(2000, 9);
    let path = tmp("round.flat");
    let written = FlatTree::write_file(&tree, &path).unwrap();
    assert_eq!(written, std::fs::metadata(&path).unwrap().len());

    let flat = FlatTree::<2>::open(&path).unwrap();
    assert!(flat.is_mapped());
    assert_eq!(flat.len(), 2000);
    let q = Rect::new([0.2, 0.3], [0.6, 0.8]);
    assert_eq!(
        sorted(flat.query_region(&q)),
        sorted(tree.query_region(&q).unwrap())
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn empty_tree_flattens_and_serves() {
    let tree = RTree::<2>::create(pool(), NodeCapacity::new(8).unwrap()).unwrap();
    let flat = FlatTree::from_rtree(&tree).unwrap();
    assert!(flat.is_empty());
    assert_eq!(flat.num_levels(), 2);
    assert!(flat.root_mbr().is_empty());
    assert!(flat.query_region(&Rect::unit()).is_empty());
    assert!(flat.query_point(&geom::Point::new([0.0, 0.0])).is_empty());
}

#[test]
fn corruption_is_caught_by_checksum() {
    let tree = packed(200, 3);
    let bytes = flat::flatten_to_bytes(&tree).unwrap();
    assert_eq!(
        u16::from_le_bytes([bytes[4], bytes[5]]),
        2,
        "wide_hash seal"
    );
    // Flip one bit in every section in turn; each must be rejected.
    for off in [70usize, bytes.len() / 2, bytes.len() - 1] {
        let mut bad = bytes.clone();
        bad[off] ^= 0x01;
        match FlatTree::<2>::from_vec(bad) {
            Err(FlatError::ChecksumMismatch { .. }) => {}
            other => panic!("corruption at {off} not caught: {other:?}"),
        }
    }
}

#[test]
fn truncation_is_rejected() {
    let tree = packed(200, 4);
    let bytes = flat::flatten_to_bytes(&tree).unwrap();
    let short = bytes[..bytes.len() - 8].to_vec();
    assert!(matches!(
        FlatTree::<2>::from_vec(short),
        Err(FlatError::Parse(_))
    ));
}

#[test]
fn misaligned_borrow_fails_cleanly() {
    let tree = packed(100, 5);
    let bytes = flat::flatten_to_bytes(&tree).unwrap();
    // Build a buffer misaligned by construction: copy into an 8-aligned
    // allocation at offset 1.
    let mut backing = vec![0u8; bytes.len() + 8];
    let shift = {
        let base = backing.as_ptr() as usize;
        (8 - base % 8) % 8 + 1
    };
    backing[shift..shift + bytes.len()].copy_from_slice(&bytes);
    let misaligned = &backing[shift..shift + bytes.len()];
    assert_eq!(misaligned.as_ptr() as usize % 8, 1);
    assert!(matches!(
        FlatTree::<2>::from_bytes(misaligned),
        Err(FlatError::Unaligned)
    ));
}

#[test]
fn dims_mismatch_is_rejected() {
    let tree = packed(100, 6);
    let bytes = flat::flatten_to_bytes(&tree).unwrap();
    assert!(matches!(
        FlatTree::<3>::from_vec(bytes),
        Err(FlatError::DimsMismatch {
            file: 2,
            requested: 3
        })
    ));
}

#[test]
fn missing_file_is_io_error() {
    assert!(matches!(
        FlatTree::<2>::open(tmp("does-not-exist.flat")),
        Err(FlatError::Io(_))
    ));
}

/// An image written by an older build — version 1, sealed with
/// byte-serial FNV-1a over `[0..56) ++ [64..)` — is refused with a
/// parse error naming its version, not opened and not a panic.
#[test]
fn hand_sealed_version_1_image_is_refused() {
    let tree = packed(500, 9);
    let mut v1 = flat::flatten_to_bytes(&tree).unwrap();
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    let sum = storage::fnv1a_update(
        storage::fnv1a_update(storage::FNV_SEED, &v1[..56]),
        &v1[64..],
    );
    v1[56..64].copy_from_slice(&sum.to_le_bytes());

    match FlatTree::<2>::from_vec(v1) {
        Err(FlatError::Parse(msg)) => {
            assert!(msg.contains("unsupported flat version 1"), "{msg}")
        }
        Err(other) => panic!("wrong error for a version-1 image: {other}"),
        Ok(_) => panic!("a version-1 image opened"),
    }
}

/// `bytes` with coordinate `min` or `max` of `slot` on axis `axis` set
/// to `v`, resealed so the checksum passes.
fn with_coord(bytes: &[u8], slot: usize, axis: usize, max: bool, v: f64) -> Vec<u8> {
    let layout = flat::Header::parse(bytes).unwrap().layout();
    let col = if max {
        layout.axis_max_off(axis)
    } else {
        layout.axis_min_off(axis)
    };
    let mut out = bytes.to_vec();
    out[col + 8 * slot..col + 8 * slot + 8].copy_from_slice(&v.to_le_bytes());
    let sum = flat::abi::checksum(&out);
    out[flat::abi::CHECKSUM_OFF..flat::HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    out
}

fn assert_invalid_mbr(bytes: Vec<u8>, slot: usize, what: &str) {
    match FlatTree::<2>::from_vec(bytes) {
        Err(FlatError::Parse(msg)) => {
            assert!(
                msg.contains(&format!("slot {slot} has an invalid MBR")),
                "{what}: {msg}"
            )
        }
        Err(other) => panic!("{what}: wrong error {other}"),
        Ok(_) => panic!("{what}: the image loaded"),
    }
}

/// A checksum-valid image with a NaN or inverted slot — item or node —
/// is refused at load: reads rebuild slots unchecked, so a NaN item
/// would panic `items()` and an inverted hit would read back wrong.
#[test]
fn nan_and_inverted_slots_are_refused_at_load() {
    let tree = packed(300, 12);
    let bytes = flat::flatten_to_bytes(&tree).unwrap();
    let flat = FlatTree::<2>::from_vec(bytes.clone()).unwrap();
    let leaf = flat.level_bounds()[1].0;
    let root = flat.level_bounds().last().unwrap().0;
    assert_eq!(flat.items().count(), 300);

    assert_invalid_mbr(with_coord(&bytes, 5, 0, false, f64::NAN), 5, "NaN item min");
    assert_invalid_mbr(with_coord(&bytes, 9, 1, true, f64::NAN), 9, "NaN item max");
    assert_invalid_mbr(with_coord(&bytes, 7, 0, false, 2.0), 7, "inverted item");
    assert_invalid_mbr(
        with_coord(&bytes, leaf, 1, true, -1.0),
        leaf,
        "inverted leaf",
    );
    // The empty rectangle is allowed only as the root of an empty tree.
    let empty_root = with_coord(&bytes, root, 0, false, f64::INFINITY);
    assert_invalid_mbr(
        with_coord(&empty_root, root, 0, true, f64::NEG_INFINITY),
        root,
        "empty root of a full tree",
    );
}
