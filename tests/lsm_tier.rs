//! Differential tests of the LSM ingestion tier.
//!
//! The LSM tree composes three very different structures — a linear-scan
//! memtable, a sealed memtable awaiting compaction, and a stack of
//! immutable flat segments — behind the one [`SpatialIndex`] contract.
//! Its correctness obligation is therefore *set equality under
//! interleaving*: at any point in an arbitrary schedule of inserts,
//! compactions, and queries, a query must return exactly what a brute
//! force scan and a dynamically maintained paged R-tree return for the
//! same accumulated items, no matter how the items are currently split
//! across tiers. A second suite pins durability without crashes:
//! dropping the tree at an arbitrary point and reopening from the same
//! devices must reproduce every acknowledged insert (crash schedules
//! are exhaustively enumerated in `crash_schedule.rs`).

use std::sync::Arc;

use proptest::prelude::*;
use str_rtree::lsm::MemSegmentStore;
use str_rtree::prelude::*;
use str_rtree::storage::MemLogStore;

fn opts(memtable_items: u64) -> LsmOptions {
    LsmOptions {
        capacity: NodeCapacity::new(8).unwrap(),
        memtable_items,
        max_levels: 3,
        background: false,
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
        LsmTree::open(
            self.disk.clone(),
            self.log.clone(),
            self.segs.clone(),
            opts(memtable_items),
        )
        .unwrap()
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
    Compact,
    Query(Rect2),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => prop::collection::vec(unit_rect(), 1..24).prop_map(Op::Insert),
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
    let brute: Vec<u64> = truth
        .iter()
        .filter(|(r, _)| r.intersects(q))
        .map(|(_, id)| *id)
        .collect();
    prop_assert_eq!(&ids(paged.query(q).unwrap()), &brute, "paged vs brute");
    prop_assert_eq!(&ids(lsm.query(q).unwrap()), &brute, "lsm vs brute");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LSM == brute force == paged tree at every query point of an
    /// arbitrary insert/compact/query interleaving. The tiny memtable
    /// bound makes implicit seals and multi-level folds routine within
    /// a few dozen inserts, and `flush` seals memtables of any size, so
    /// compactions see ragged outputs; the level cap holds after every
    /// op.
    #[test]
    fn lsm_equals_paged_equals_brute_force_under_interleaving(
        ops in prop::collection::vec(op(), 1..32),
        final_q in unit_rect(),
    ) {
        let dev = Devices::new();
        let lsm = dev.open(16);
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 256));
        let mut paged = RTree::<2>::create(pool, NodeCapacity::new(8).unwrap()).unwrap();
        let mut truth: Vec<(Rect2, u64)> = Vec::new();

        for op in &ops {
            match op {
                Op::Insert(rects) => {
                    for r in rects {
                        let id = truth.len() as u64;
                        lsm.insert(*r, id).unwrap();
                        paged.insert(*r, id).unwrap();
                        truth.push((*r, id));
                    }
                }
                Op::Compact => lsm.flush().unwrap(),
                Op::Query(q) => check_query(&lsm, &paged, &truth, q)?,
            }
            prop_assert!(lsm.stats().levels <= 3, "level cap violated: {:?}", lsm.stats());
        }
        check_query(&lsm, &paged, &truth, &final_q)?;
        check_query(&lsm, &paged, &truth, &Rect2::unit())?;
        prop_assert_eq!(SpatialIndex::len(&lsm), truth.len() as u64);
        prop_assert_eq!(lsm.stats().memtable_items + lsm.stats().sealed_items
            + lsm.stats().level_items, truth.len() as u64, "items must never leak between tiers");
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
