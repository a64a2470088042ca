//! LSM read-consistency stress: 8 reader threads query the whole space
//! while 2 writer threads insert and delete through the WAL, with
//! background compaction sealing and folding a tiny memtable throughout.
//!
//! Each writer mutates only its own id range and keeps its live set a
//! contiguous window (insert at the high end, delete at the low end),
//! so *every committed state* decomposes into one contiguous window per
//! writer plus the immutable seed. A query sees one such state: it
//! snapshots the component set, and the only component that changes
//! under it, the active memtable, it scans in one pass under its own
//! lock. Every reader must therefore observe:
//!
//! * each live id at most once (no item doubled across tiers, however
//!   a seal or flip moved it);
//! * the full seed set (committed before any reader started, and
//!   deletes of other ids must never shadow it);
//! * a contiguous window per writer (no torn mix of two states).
//!
//! After the threads join, the tree must hold the seed plus each
//! writer's final window — and so must a tree reopened from the same
//! devices, which replays the acknowledged operations from the log.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use str_rtree::lsm::MemSegmentStore;
use str_rtree::prelude::*;
use str_rtree::storage::{within, MemLogStore};

const SEED_ITEMS: u64 = 300;
const WRITERS: u64 = 2;
const READERS: usize = 8;
const OPS_PER_WRITER: u64 = 240;
/// Each reader runs at least this many rounds, and keeps going until
/// both writers are done.
const READS_PER_READER: usize = 40;

/// Writer `w` owns ids `[(w + 1) * 1_000_000, ...)`; the seed owns
/// `[0, SEED_ITEMS)`.
fn writer_base(w: u64) -> u64 {
    (w + 1) * 1_000_000
}

fn rect_of(i: u64) -> Rect2 {
    let (x, y) = ((i % 40) as f64 / 40.0, (i / 40 % 40) as f64 / 40.0);
    Rect2::new([x, y], [x + 0.012, y + 0.012])
}

fn everything() -> Rect2 {
    Rect2::new([-1.0, -1.0], [2.0, 2.0])
}

fn opts() -> LsmOptions {
    LsmOptions {
        capacity: NodeCapacity::new(8).unwrap(),
        memtable_items: 32,
        max_levels: 3,
        background: true,
        ..LsmOptions::default()
    }
}

/// Every id a whole-space query returns, checked for duplicates.
fn contents(tree: &LsmTree<2>, who: &str) -> BTreeSet<u64> {
    let hits = tree.query(&everything()).unwrap();
    let ids: BTreeSet<u64> = hits.iter().map(|&(_, id)| id).collect();
    assert_eq!(ids.len(), hits.len(), "{who}: an id answered twice");
    ids
}

/// Assert `ids` (ascending) form one contiguous run.
fn assert_contiguous(ids: &[u64], who: &str) {
    if let (Some(&lo), Some(&hi)) = (ids.first(), ids.last()) {
        assert_eq!(
            ids.len() as u64,
            hi - lo + 1,
            "{who}: a query shows a torn window {lo}..={hi} with {} ids",
            ids.len()
        );
    }
}

#[test]
fn readers_always_observe_one_committed_state() {
    within(Duration::from_secs(120), || {
        let disk = Arc::new(MemDisk::default_size());
        let log = MemLogStore::new();
        let segs = Arc::new(MemSegmentStore::new());
        let tree = LsmTree::open(disk.clone(), log.clone(), segs.clone(), opts()).unwrap();
        for i in 0..SEED_ITEMS {
            tree.insert(rect_of(i), i).unwrap();
        }

        let writing = AtomicU64::new(WRITERS);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (tree, writing) = (&tree, &writing);
                s.spawn(move || {
                    let base = writer_base(w);
                    let (mut lo, mut hi) = (0u64, 0u64);
                    for k in 0..OPS_PER_WRITER {
                        if k % 4 == 3 && lo < hi {
                            let victim = base + lo;
                            assert!(tree.delete(&rect_of(victim), victim).unwrap());
                            lo += 1;
                        } else {
                            tree.insert(rect_of(base + hi), base + hi).unwrap();
                            hi += 1;
                        }
                    }
                    writing.fetch_sub(1, Ordering::Release);
                });
            }

            for r in 0..READERS {
                let (tree, writing) = (&tree, &writing);
                s.spawn(move || {
                    let mut round = 0;
                    while round < READS_PER_READER || writing.load(Ordering::Acquire) > 0 {
                        round += 1;
                        let who = format!("reader {r} round {round}");
                        let ids = contents(tree, &who);
                        for i in 0..SEED_ITEMS {
                            assert!(ids.contains(&i), "{who}: seed id {i} vanished");
                        }
                        for w in 0..WRITERS {
                            let own: Vec<u64> = ids
                                .range(writer_base(w)..writer_base(w + 1))
                                .copied()
                                .collect();
                            assert_contiguous(&own, &format!("{who} writer {w}"));
                        }
                    }
                });
            }
        });

        // Final state: seed + each writer's final window.
        let mut want: BTreeSet<u64> = (0..SEED_ITEMS).collect();
        for w in 0..WRITERS {
            // OPS_PER_WRITER ops, one delete per 4: window [deletes, inserts).
            let deletes = OPS_PER_WRITER / 4;
            let inserts = OPS_PER_WRITER - deletes;
            want.extend((deletes..inserts).map(|k| writer_base(w) + k));
        }
        assert!(tree.stats().compactions > 0, "no compaction ran under load");
        assert_eq!(
            contents(&tree, "final"),
            want,
            "final state is not seed + windows"
        );
        assert_eq!(SpatialIndex::len(&tree), want.len() as u64);

        drop(tree);
        let tree = LsmTree::open(disk, log, segs, opts()).unwrap();
        assert_eq!(contents(&tree, "reopened"), want, "reopen diverges");
        assert_eq!(SpatialIndex::len(&tree), want.len() as u64);
    });
}
