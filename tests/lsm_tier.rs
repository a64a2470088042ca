//! Differential tests of the LSM ingestion tier.
//!
//! The LSM tree composes three very different structures — a linear-scan
//! memtable, a sealed memtable awaiting compaction, and a stack of
//! immutable flat segments — behind the one [`SpatialIndex`] contract.
//! Its correctness obligation is therefore *set equality under
//! interleaving*: at any point in an arbitrary schedule of inserts,
//! deletes, compactions, and queries, a query must return exactly what
//! a brute force scan and a dynamically maintained paged R-tree return
//! for the same accumulated items, no matter how the items are currently
//! split across tiers or which tier a delete's tombstone shadows. Items
//! are a multiset of `(rect, id)` pairs: a duplicate insert adds a
//! copy, a delete takes out one copy. A second suite pins durability
//! without crashes:
//! dropping the tree at an arbitrary point and reopening from the same
//! devices must reproduce every acknowledged insert (crash schedules
//! are exhaustively enumerated in `crash_schedule.rs`).

use std::sync::Arc;

use proptest::prelude::*;
use str_rtree::lsm::MemSegmentStore;
use str_rtree::prelude::*;
use str_rtree::storage::MemLogStore;

fn opts(memtable_items: u64, background: bool) -> LsmOptions {
    LsmOptions {
        capacity: NodeCapacity::new(8).unwrap(),
        memtable_items,
        max_levels: 3,
        background,
        ..LsmOptions::default()
    }
}

/// Shared devices, so a tree can be dropped and reopened on them.
struct Devices {
    disk: Arc<MemDisk>,
    log: Arc<MemLogStore>,
    segs: Arc<MemSegmentStore>,
}

impl Devices {
    fn new() -> Self {
        Self {
            disk: Arc::new(MemDisk::default_size()),
            log: MemLogStore::new(),
            segs: Arc::new(MemSegmentStore::new()),
        }
    }

    fn open(&self, memtable_items: u64) -> LsmTree<2> {
        self.open_with(opts(memtable_items, false))
    }

    fn open_with(&self, opts: LsmOptions) -> LsmTree<2> {
        LsmTree::open(self.disk.clone(), self.log.clone(), self.segs.clone(), opts).unwrap()
    }
}

fn unit_rect() -> impl Strategy<Value = Rect2> {
    let extent = || {
        prop_oneof![
            2 => 0.0f64..0.3,
            1 => Just(0.0f64),
        ]
    };
    (0.0f64..1.0, 0.0f64..1.0, extent(), extent())
        .prop_map(|(x, y, w, h)| Rect2::new([x, y], [(x + w).min(1.0), (y + h).min(1.0)]))
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<Rect2>),
    /// Delete the live pair `truth[pick % len]`.
    Delete(u16),
    /// Delete a pair that is not live: a fresh id, or a live id under
    /// another rectangle.
    DeleteAbsent(Rect2, u16),
    /// Insert the most recently deleted pair again.
    Reinsert,
    /// Delete the most recently deleted pair again: not live any more.
    DeleteAgain,
    /// Insert another copy of the live pair `truth[pick % len]`.
    Duplicate(u16),
    Compact,
    Query(Rect2),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => prop::collection::vec(unit_rect(), 1..24).prop_map(Op::Insert),
        3 => any::<u16>().prop_map(Op::Delete),
        1 => (unit_rect(), any::<u16>()).prop_map(|(r, pick)| Op::DeleteAbsent(r, pick)),
        1 => Just(Op::Reinsert),
        1 => Just(Op::DeleteAgain),
        1 => any::<u16>().prop_map(Op::Duplicate),
        1 => Just(Op::Compact),
        2 => unit_rect().prop_map(Op::Query),
    ]
}

fn ids(mut hits: Vec<(Rect2, u64)>) -> Vec<u64> {
    hits.sort_by_key(|&(_, id)| id);
    hits.into_iter().map(|(_, id)| id).collect()
}

fn check_query(
    lsm: &dyn SpatialIndex<2>,
    paged: &dyn SpatialIndex<2>,
    truth: &[(Rect2, u64)],
    q: &Rect2,
) -> Result<(), TestCaseError> {
    let brute = ids(truth
        .iter()
        .filter(|(r, _)| r.intersects(q))
        .copied()
        .collect());
    prop_assert_eq!(&ids(paged.query(q).unwrap()), &brute, "paged vs brute");
    prop_assert_eq!(&ids(lsm.query(q).unwrap()), &brute, "lsm vs brute");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LSM == brute force == paged tree at every query point of an
    /// arbitrary insert/delete/compact/query interleaving. The tiny
    /// memtable bound makes implicit seals and multi-level folds routine
    /// within a few dozen inserts, and `flush` seals memtables of any
    /// size, so compactions see ragged outputs; deletes hit the active
    /// memtable, the sealed one (with background compaction, while it
    /// drains) and the flat levels; the level cap holds and `len()` is
    /// exact after every op.
    #[test]
    fn lsm_equals_paged_equals_brute_force_under_interleaving(
        ops in prop::collection::vec(op(), 1..40),
        final_q in unit_rect(),
        background in any::<bool>(),
    ) {
        let dev = Devices::new();
        let lsm = dev.open_with(opts(16, background));
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 256));
        let mut paged = RTree::<2>::create(pool, NodeCapacity::new(8).unwrap()).unwrap();
        let mut truth: Vec<(Rect2, u64)> = Vec::new();
        let mut next_id = 0u64;
        let mut last_deleted: Option<(Rect2, u64)> = None;
        let insert = |lsm: &LsmTree<2>, paged: &mut RTree<2>, truth: &mut Vec<_>, r: Rect2, id| {
            lsm.insert(r, id).unwrap();
            paged.insert(r, id).unwrap();
            truth.push((r, id));
        };

        for op in &ops {
            match op {
                Op::Insert(rects) => {
                    for r in rects {
                        insert(&lsm, &mut paged, &mut truth, *r, next_id);
                        next_id += 1;
                    }
                }
                Op::Delete(pick) => {
                    if truth.is_empty() {
                        continue;
                    }
                    let (r, id) = truth.remove(*pick as usize % truth.len());
                    prop_assert!(lsm.delete(&r, id).unwrap(), "live pair not deleted");
                    prop_assert!(paged.delete(&r, id).unwrap());
                    last_deleted = Some((r, id));
                }
                Op::DeleteAbsent(r, pick) => {
                    let id = match truth.get(*pick as usize % truth.len().max(1)) {
                        Some(&(live, id)) if live != *r => id,
                        _ => u64::MAX - u64::from(*pick),
                    };
                    prop_assert!(!truth.contains(&(*r, id)));
                    prop_assert!(!lsm.delete(r, id).unwrap(), "absent pair deleted");
                    prop_assert!(!paged.delete(r, id).unwrap());
                }
                Op::DeleteAgain => {
                    if let Some((r, id)) = last_deleted {
                        let live = truth.contains(&(r, id));
                        prop_assert_eq!(lsm.delete(&r, id).unwrap(), live);
                        prop_assert_eq!(paged.delete(&r, id).unwrap(), live);
                        if live {
                            let at = truth.iter().position(|&p| p == (r, id)).unwrap();
                            truth.remove(at);
                        }
                    }
                }
                Op::Reinsert => {
                    if let Some((r, id)) = last_deleted.take() {
                        insert(&lsm, &mut paged, &mut truth, r, id);
                    }
                }
                Op::Duplicate(pick) => {
                    if let Some(&(r, id)) = truth.get(*pick as usize % truth.len().max(1)) {
                        insert(&lsm, &mut paged, &mut truth, r, id);
                    }
                }
                Op::Compact => lsm.flush().unwrap(),
                Op::Query(q) => check_query(&lsm, &paged, &truth, q)?,
            }
            let st = lsm.stats();
            prop_assert!(st.levels <= 3, "level cap violated: {:?}", st);
            prop_assert_eq!(SpatialIndex::len(&lsm), truth.len() as u64);
            prop_assert_eq!(
                st.memtable_items + st.sealed_items + st.level_items - st.tombstones,
                truth.len() as u64,
                "items must never leak between tiers: {:?}", st
            );
        }
        check_query(&lsm, &paged, &truth, &final_q)?;
        check_query(&lsm, &paged, &truth, &Rect2::unit())?;
        lsm.flush().unwrap();
        prop_assert_eq!(lsm.stats().tombstones, 0, "a drain leaves no tombstone");
        check_query(&lsm, &paged, &truth, &Rect2::unit())?;
    }

    /// Durability without a crash: drop the tree at an arbitrary cut
    /// point and reopen from the same devices. Every acknowledged
    /// insert must come back — whether it was segment-resident or only
    /// WAL-resident — and the reopened tree must keep working.
    #[test]
    fn reopen_reproduces_every_acknowledged_insert(
        total in 1usize..120,
        cut in 0usize..120,
        q in unit_rect(),
    ) {
        let cut = cut.min(total);
        let items: Vec<(Rect2, u64)> = (0..total)
            .map(|i| {
                let x = (i % 16) as f64 / 16.0;
                let y = (i / 16) as f64 / 16.0;
                (Rect2::new([x, y], [x + 0.05, y + 0.05]), i as u64)
            })
            .collect();

        let dev = Devices::new();
        {
            let tree = dev.open(16);
            for &(r, id) in &items[..cut] {
                tree.insert(r, id).unwrap();
            }
        } // dropped: no flush, no shutdown ceremony

        let tree = dev.open(16);
        prop_assert_eq!(SpatialIndex::len(&tree), cut as u64);
        for &(r, id) in &items[cut..] {
            tree.insert(r, id).unwrap();
        }
        let got = ids(tree.query(&Rect2::unit()).unwrap());
        prop_assert_eq!(got, (0..total as u64).collect::<Vec<_>>());

        let brute: Vec<u64> = items
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|(_, id)| *id)
            .collect();
        prop_assert_eq!(ids(tree.query(&q).unwrap()), brute);
    }
}

/// The three backends answer through one `&dyn SpatialIndex` with
/// consistent structural metadata: only the paged tree reports buffer
/// I/O, and each names itself.
#[test]
fn backends_share_the_trait_surface() {
    let items: Vec<(Rect2, u64)> = (0..200)
        .map(|i| {
            let x = (i % 20) as f64 / 20.0;
            let y = (i / 20) as f64 / 20.0;
            (Rect2::new([x, y], [x + 0.04, y + 0.04]), i as u64)
        })
        .collect();

    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 256));
    let paged = StrPacker::default()
        .pack(pool, items.clone(), NodeCapacity::new(8).unwrap())
        .unwrap();
    let flat = FlatTree::from_rtree(&paged).unwrap();
    let dev = Devices::new();
    let lsm = dev.open(64);
    for &(r, id) in &items {
        lsm.insert(r, id).unwrap();
    }

    let q = Rect2::new([0.1, 0.1], [0.4, 0.4]);
    let backends: Vec<(&str, &dyn SpatialIndex<2>)> =
        vec![("paged", &paged), ("flat", &flat), ("lsm", &lsm)];
    let want = ids(backends[0].1.query(&q).unwrap());
    assert!(!want.is_empty());
    for (name, idx) in &backends {
        assert_eq!(idx.stats().backend, *name);
        assert_eq!(SpatialIndex::len(*idx), items.len() as u64, "{name}");
        assert!(!idx.is_empty(), "{name}");
        assert_eq!(ids(idx.query(&q).unwrap()), want, "{name}: query");
        let p = Point2::new([0.15, 0.15]);
        assert_eq!(
            ids(idx.query_point(&p).unwrap()),
            ids(backends[0].1.query_point(&p).unwrap()),
            "{name}: point"
        );
        assert_eq!(
            idx.buffer_stats().is_some(),
            *name == "paged",
            "{name}: only the paged backend does paged I/O"
        );
    }
}
