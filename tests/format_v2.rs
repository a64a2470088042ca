//! On-disk format v2, end to end: reopen round-trips for every tree
//! variant, multi-tree files under delete-heavy churn, crash schedules
//! over the persist path, and refusal of a v1 (pre-superblock) image.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use str_rtree::prelude::*;
use str_rtree::rtree::codec::RectCodec;
use str_rtree::rtree::store;
use str_rtree::rtree::{Entry, RTreeError};
use str_rtree::storage::{
    Disk, FaultDisk, FaultKind, FaultOp, FaultSpec, PageId, StorageError, Trigger,
    DEFAULT_PAGE_SIZE,
};

fn everything() -> Rect2 {
    Rect2::new([0.0, 0.0], [1.0, 1.0])
}

fn id_set(hits: &[(Rect2, u64)]) -> BTreeSet<u64> {
    hits.iter().map(|&(_, id)| id).collect()
}

/// Distinct grid coordinate for item `i`.
fn coords(i: u64) -> (f64, f64) {
    ((i % 20) as f64 / 20.0, (i / 20) as f64 / 20.0)
}

fn rect_of(i: u64) -> Rect2 {
    let (x, y) = coords(i);
    Rect2::new([x, y], [x, y])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Build → insert/delete mix → persist → reopen on a fresh pool:
    /// every variant must return exactly the surviving items, and the
    /// reopened STR tree must audit clean with zero leaked pages.
    #[test]
    fn reopen_round_trip_matches_oracle(
        pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 20..120),
        q in (0.0f64..0.6, 0.0f64..0.6),
    ) {
        let items: Vec<(Rect2, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Rect2::new([x, y], [x, y]), i as u64))
            .collect();
        let query = Rect2::new([q.0, q.1], [q.0 + 0.4, q.1 + 0.4]);
        let doomed = |id: u64| id.is_multiple_of(3);
        let expect: BTreeSet<u64> = items
            .iter()
            .filter(|(r, id)| !doomed(*id) && query.intersects(r))
            .map(|&(_, id)| id)
            .collect();

        // STR R-tree.
        {
            let disk = Arc::new(MemDisk::default_size());
            let pool = Arc::new(BufferPool::new(disk.clone(), 128));
            let mut t = RTree::<2>::create(pool, NodeCapacity::new(8).unwrap()).unwrap();
            for &(r, id) in &items {
                t.insert(r, id).unwrap();
            }
            for &(r, id) in &items {
                if doomed(id) {
                    prop_assert!(t.delete(&r, id).unwrap());
                }
            }
            t.persist().unwrap();
            drop(t);
            let pool = Arc::new(BufferPool::new(disk, 128));
            let t = RTree::<2>::open(pool).unwrap();
            prop_assert_eq!(id_set(&t.query_region(&query).unwrap()), expect.clone());
            let report = t.check();
            prop_assert!(report.is_clean(), "{}", report);
            prop_assert!(report.unreachable.is_empty(), "leaked: {:?}", report.unreachable);
        }

        // R+-tree.
        {
            let disk = Arc::new(MemDisk::default_size());
            let pool = Arc::new(BufferPool::new(disk.clone(), 128));
            let mut t = RPlusTree::<2>::create(pool, NodeCapacity::new(8).unwrap()).unwrap();
            for &(r, id) in &items {
                t.insert(r, id).unwrap();
            }
            for &(r, id) in &items {
                if doomed(id) {
                    prop_assert!(t.delete(&r, id).unwrap());
                }
            }
            t.persist().unwrap();
            drop(t);
            let pool = Arc::new(BufferPool::new(disk, 128));
            let t = RPlusTree::<2>::open(pool).unwrap();
            t.validate().unwrap();
            prop_assert_eq!(id_set(&t.query_region(&query).unwrap()), expect.clone());
        }

        // Hilbert R-tree.
        {
            let disk = Arc::new(MemDisk::default_size());
            let pool = Arc::new(BufferPool::new(disk.clone(), 128));
            let mut t = HilbertRTree::create(pool, 8).unwrap();
            for &(r, id) in &items {
                t.insert(r, id).unwrap();
            }
            for &(r, id) in &items {
                if doomed(id) {
                    prop_assert!(t.delete(&r, id).unwrap());
                }
            }
            t.persist().unwrap();
            drop(t);
            let pool = Arc::new(BufferPool::new(disk, 128));
            let t = HilbertRTree::open(pool).unwrap();
            t.validate().unwrap();
            prop_assert_eq!(id_set(&t.query_region(&query).unwrap()), expect);
        }
    }
}

/// The acceptance scenario: one file holding three named trees (one of
/// each variant), delete-heavy churn on all of them, a reopen — and the
/// allocator audit must find zero leaked pages and a non-empty free
/// chain (the freed pages actually reached the persistent free list).
#[test]
fn multi_tree_file_survives_delete_heavy_churn() {
    let disk = Arc::new(MemDisk::default_size());
    let pool = Arc::new(BufferPool::new(disk.clone(), 256));
    let cap = NodeCapacity::new(8).unwrap();

    let mut points = RTree::<2>::create_named(pool.clone(), "points", cap).unwrap();
    let mut tiles = RPlusTree::<2>::create_named(pool.clone(), "tiles", cap).unwrap();
    let mut curve = HilbertRTree::create_named(pool.clone(), "curve", 8).unwrap();

    let n = 400u64;
    for i in 0..n {
        let r = rect_of(i);
        points.insert(r, i).unwrap();
        tiles.insert(r, i).unwrap();
        curve.insert(r, i).unwrap();
    }
    // Delete three of every four.
    for i in 0..n {
        if i % 4 != 0 {
            let r = rect_of(i);
            assert!(points.delete(&r, i).unwrap());
            assert!(tiles.delete(&r, i).unwrap());
            assert!(curve.delete(&r, i).unwrap());
        }
    }
    points.persist().unwrap();
    tiles.persist().unwrap();
    curve.persist().unwrap();
    drop((points, tiles, curve));

    let pool = Arc::new(BufferPool::new(disk, 256));
    let points = RTree::<2>::open_named(pool.clone(), "points").unwrap();
    let tiles = RPlusTree::<2>::open_named(pool.clone(), "tiles").unwrap();
    let curve = HilbertRTree::open_named(pool.clone(), "curve").unwrap();

    let expect: BTreeSet<u64> = (0..n).filter(|i| i % 4 == 0).collect();
    assert_eq!(points.len(), expect.len() as u64);
    assert_eq!(tiles.len(), expect.len() as u64);
    assert_eq!(curve.len(), expect.len() as u64);
    assert_eq!(id_set(&points.query_region(&everything()).unwrap()), expect);
    assert_eq!(id_set(&tiles.query_region(&everything()).unwrap()), expect);
    assert_eq!(id_set(&curve.query_region(&everything()).unwrap()), expect);
    points.validate(false).unwrap();
    tiles.validate().unwrap();
    curve.validate().unwrap();

    // Opening a name that isn't cataloged must fail cleanly.
    assert!(RTree::<2>::open_named(pool, "nope").is_err());

    // The audit walks all three trees out of the catalog: no leaks, no
    // double frees, and the churn left a real free chain behind.
    let report = points.check();
    assert!(report.is_clean(), "{report}");
    assert!(
        report.unreachable.is_empty(),
        "leaked pages: {:?}",
        report.unreachable
    );
    assert!(report.free_pages > 0, "churn should have freed pages");
}

/// One churn/persist run against a crash armed at global write index
/// `crash_at` (`None` = clean run). Returns the write indices spanned
/// by the churn phase, `(start, end)`, measured on the wrapper's global
/// write counter — the clean run's span *is* the exhaustive schedule,
/// because the workload is deterministic: every crash run issues the
/// identical write sequence up to its fault.
fn churn_crash_run(crash_at: Option<u64>) -> (u64, u64) {
    let label = crash_at.map_or(-1i64, |n| n as i64);
    let mem = Arc::new(MemDisk::default_size());
    let fault = Arc::new(FaultDisk::new(mem));
    // A deliberately tiny pool: churn must evict constantly, so the
    // crashable write schedule covers mid-operation evictions, not just
    // the final flush.
    let pool = Arc::new(BufferPool::new(fault.clone(), 8));
    let mut tree = RTree::<2>::create(pool, NodeCapacity::new(8).unwrap()).unwrap();
    for i in 0..80u64 {
        tree.insert(rect_of(i), i).unwrap();
    }
    tree.persist().unwrap();

    // Churn under a fail-stop schedule: the write with global index
    // `crash_at` from here on (node flushes, free-chain links, the meta
    // commit, the superblock) kills the disk.
    let start = fault.ops_seen().1;
    if let Some(n) = crash_at {
        fault.push(FaultSpec {
            op: FaultOp::Write,
            kind: FaultKind::Crash,
            trigger: Trigger::OnceAt(n),
        });
    }
    let mut attempted: BTreeSet<u64> = (0..80).collect();
    let churn = (|| -> rtree::Result<()> {
        for i in 0..40u64 {
            tree.delete(&rect_of(i), i)?;
            attempted.remove(&i);
        }
        // A mid-churn checkpoint: its flush, free-chain links and
        // superblock commit all become crashable write indices.
        tree.persist()?;
        for i in 80..160u64 {
            tree.insert(rect_of(i), i)?;
            attempted.insert(i);
        }
        for i in 40..60u64 {
            tree.delete(&rect_of(i), i)?;
            attempted.remove(&i);
        }
        tree.persist()
    })();
    let end = fault.ops_seen().1;
    drop(tree);
    if crash_at.is_some() {
        assert_eq!(
            fault.total_fired(),
            1,
            "crash_at={label}: the schedule must actually fire"
        );
        assert!(churn.is_err(), "crash_at={label}: the crash must surface");
    }

    // Power back on (and disarm the schedule, or it would re-fire on
    // the replayed write indices) and reopen from the last durable
    // meta.
    fault.revive();
    fault.set_armed(false);
    let pool = Arc::new(BufferPool::new(fault.clone(), 8));
    let tree = RTree::<2>::open(pool.clone()).unwrap();
    let report = tree.check();
    assert!(
        report.alloc_issues.is_empty(),
        "crash_at={label}: allocator invariants broke: {report}"
    );
    if churn.is_ok() {
        // The fault fired after the last durable write (or not at all):
        // the reopened tree must be exactly the new state.
        assert!(report.is_clean(), "crash_at={label}: {report}");
        let got = id_set(&tree.query_region(&everything()).unwrap());
        assert_eq!(got, attempted, "crash_at={label}");
    }
    // When the crash interrupted the churn, the in-place tree may mix
    // old and new pages — `check` *reports* the damage (corrupt or
    // leaked pages); the WAL tier (tests/crash_schedule.rs) is what
    // upgrades this contract to exactly-once. What must hold here
    // unconditionally is allocator soundness, probed by growing a fresh
    // tree in the same file: a double allocation out of a broken free
    // chain would corrupt it.
    drop(tree);
    let cap = NodeCapacity::new(8).unwrap();
    let mut probe = RTree::<2>::create_named(pool, "crash-probe", cap).unwrap();
    for i in 0..60u64 {
        probe.insert(rect_of(i % 120), 1000 + i).unwrap();
    }
    probe.persist().unwrap();
    drop(probe);
    let pool = Arc::new(BufferPool::new(fault.clone(), 8));
    let probe = RTree::<2>::open_named(pool, "crash-probe").unwrap();
    assert_eq!(probe.len(), 60, "crash_at={label}");
    assert_eq!(
        probe.query_region(&everything()).unwrap().len(),
        60,
        "crash_at={label}: the probe tree lost entries"
    );
    let report = probe.check();
    assert!(report.alloc_issues.is_empty(), "crash_at={label}: {report}");
    (start, end)
}

/// The allocator's crash contract, end to end and **exhaustively**:
/// wherever a fail-stop fault lands in the churn/persist write sequence
/// — every write index the clean run observes, not a sampled handful —
/// the reopened file has whole, decodable pages (writes are
/// all-or-nothing per page), a walkable free chain with no double
/// frees, and keeps accepting work. Node *structure* may legitimately
/// mix old and new pages after a crash (in-place updates are not
/// shadow-paged — `check` reports the damage); the allocator invariants
/// are what must never break, because a violated free chain corrupts
/// unrelated trees on the next allocate.
#[test]
fn crash_during_persist_leaks_at_worst() {
    let (start, end) = churn_crash_run(None);
    eprintln!("crash schedule: enumerating write indices {start}..{end}");
    assert!(
        end - start > 50,
        "suspiciously small schedule ({start}..{end}): the churn phase \
         should evict, flush, chain frees, and commit the superblock"
    );
    for crash_at in start..end {
        churn_crash_run(Some(crash_at));
    }
}

/// A hand-built v1 single-tree image (meta on page 0, nodes from page
/// 1, no superblock) is refused: opening it, under any name, or
/// cataloging a new tree into it fails with the allocator's typed
/// superblock error, and nothing is written to the disk.
#[test]
fn v1_single_tree_image_is_refused() {
    let disk = Arc::new(MemDisk::default_size());
    let meta_page = disk.allocate().unwrap();
    let leaf = disk.allocate().unwrap();
    assert_eq!(meta_page.index(), 0);
    assert_eq!(leaf.index(), 1);

    let n = 37u64;
    let entries: Vec<Entry<2>> = (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            Entry::data(Rect2::new([x, 0.0], [x, 1.0]), i)
        })
        .collect();
    let mut page = vec![0u8; DEFAULT_PAGE_SIZE];
    store::encode_node::<RectCodec<2>>(0, &entries, &mut page);
    disk.write_page(leaf, &page).unwrap();

    // The v1 meta layout: magic, dims, root, height, cap max/min,
    // split-policy tag, len.
    let mut meta = vec![0u8; DEFAULT_PAGE_SIZE];
    meta[0..4].copy_from_slice(b"RTM1");
    meta[4..8].copy_from_slice(&2u32.to_le_bytes());
    meta[8..16].copy_from_slice(&leaf.index().to_le_bytes());
    meta[16..20].copy_from_slice(&1u32.to_le_bytes());
    meta[20..24].copy_from_slice(&64u32.to_le_bytes());
    meta[24..28].copy_from_slice(&16u32.to_le_bytes());
    meta[28..32].copy_from_slice(&0u32.to_le_bytes());
    meta[32..40].copy_from_slice(&n.to_le_bytes());
    disk.write_page(meta_page, &meta).unwrap();

    let refused = |res: Result<RTree<2>, RTreeError>| match res {
        Err(RTreeError::Storage(StorageError::Corrupt { page, reason })) => {
            assert_eq!(page, PageId(0));
            assert!(reason.contains("bad superblock magic"), "{reason}");
        }
        Err(other) => panic!("wrong error for a v1 image: {other}"),
        Ok(_) => panic!("a v1 image opened"),
    };
    let pool = Arc::new(BufferPool::new(disk.clone(), 64));
    refused(RTree::<2>::open(pool.clone()));
    refused(RTree::<2>::open_named(pool.clone(), "other"));
    refused(RTree::<2>::create_named(
        pool,
        "extra",
        NodeCapacity::new(8).unwrap(),
    ));

    let mut after = vec![0u8; DEFAULT_PAGE_SIZE];
    disk.read_page(meta_page, &mut after).unwrap();
    assert_eq!(after, meta, "a refused image must not be rewritten");
    assert_eq!(disk.num_pages(), 2);
}
