//! Deterministic crash-schedule explorer for the WAL write path.
//!
//! The durable write path promises *exactly-once* crash semantics: after
//! a fail-stop crash at any point, recovery lands on precisely the
//! prefix of operations whose commit returned `Ok`, with no leaked or
//! double-allocated pages. Sampled crash points can't prove a "for all"
//! claim, so this harness enumerates **every** sync point:
//!
//! 1. run a fixed 200-op workload once against a [`SyncClock`]-attached
//!    disk + log pair and count the total syncs `N`;
//! 2. for each `n` in `0..N`, rerun the identical workload with the
//!    clock armed to crash right after the `n`-th sync (the sync
//!    completes, then every device fails — fail-stop across the whole
//!    simulated machine);
//! 3. lose the unsynced log tail (what a real power cut does to a
//!    volatile write cache), run [`rtree::recover`], reopen, and demand
//!    the tree equals the committed prefix exactly.
//!
//! The committed prefix is observable from the workload driver itself:
//! a WAL-attached `insert`/`delete` returns only after its commit
//! fsync, so `Ok` means durable and `Err` after a crash means the
//! operation never became durable (its appended-but-unsynced records
//! are exactly what the lost tail removes).

use std::collections::BTreeSet;
use std::sync::Arc;

use str_rtree::lsm::MemSegmentStore;
use str_rtree::prelude::*;
use str_rtree::rtree::{recover, NodeCapacity, RTree};
use str_rtree::storage::{FaultDisk, MemLogStore, SyncClock, Wal, WalOptions};

/// Distinct grid rectangle for item `i`.
fn rect_of(i: u64) -> Rect2 {
    let (x, y) = ((i % 25) as f64 / 25.0, (i / 25) as f64 / 25.0);
    Rect2::new([x, y], [x + 0.01, y + 0.01])
}

/// The fixed workload: 200 mutations with a delete every fifth op and a
/// checkpoint every 60th, so crash points land inside ordinary commits,
/// group-commit fsyncs, pool flushes, superblock updates, and segment
/// recycling alike.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64),
    Delete(u64),
    Checkpoint,
}

fn workload() -> Vec<Op> {
    let mut ops = Vec::new();
    let mut next_id = 0u64;
    let mut live: Vec<u64> = Vec::new();
    for i in 0..200u64 {
        if i % 5 == 3 && !live.is_empty() {
            // Deterministic victim: rotate through the live set.
            let victim = live.remove((i as usize * 7) % live.len());
            ops.push(Op::Delete(victim));
        } else {
            ops.push(Op::Insert(next_id));
            live.push(next_id);
            next_id += 1;
        }
        if i % 60 == 59 {
            ops.push(Op::Checkpoint);
        }
    }
    ops
}

struct Rig {
    clock: Arc<SyncClock>,
    fault: Arc<FaultDisk>,
    log: Arc<MemLogStore>,
    /// Sync ordinal at workload start (file creation syncs excluded
    /// from the schedule — the workload is what's under test).
    base: u64,
    tree: RTree<2>,
}

fn rig() -> Rig {
    let clock = SyncClock::new();
    let fault = Arc::new(FaultDisk::new(Arc::new(MemDisk::default_size())));
    fault.set_sync_clock(clock.clone());
    let log = MemLogStore::with_clock(clock.clone());
    let pool = Arc::new(BufferPool::new(fault.clone(), 64));
    let mut tree = RTree::<2>::create(pool, NodeCapacity::new(8).unwrap()).unwrap();
    let wal = Wal::create(log.clone(), 1, WalOptions::default()).unwrap();
    tree.attach_wal(wal).unwrap();
    let base = clock.syncs_seen();
    Rig {
        clock,
        fault,
        log,
        base,
        tree,
    }
}

/// Drive the workload until it finishes or the crash fires. Returns the
/// ids whose operations committed (returned `Ok`) — the exact state
/// recovery must reproduce.
fn drive(tree: &mut RTree<2>, ops: &[Op]) -> BTreeSet<u64> {
    let mut committed = BTreeSet::new();
    for op in ops {
        let res = match *op {
            Op::Insert(id) => tree.insert(rect_of(id), id).map(|()| {
                committed.insert(id);
            }),
            Op::Delete(id) => tree.delete(&rect_of(id), id).map(|found| {
                assert!(found, "workload only deletes live ids");
                committed.remove(&id);
            }),
            Op::Checkpoint => tree.persist(),
        };
        if res.is_err() {
            break;
        }
    }
    committed
}

#[test]
fn every_sync_point_recovers_to_the_committed_prefix() {
    let ops = workload();

    // Clean run: bound the schedule and pin down the final state.
    let mut r = rig();
    let clean = drive(&mut r.tree, &ops);
    let total_syncs = r.clock.syncs_seen() - r.base;
    assert!(
        total_syncs > 200,
        "every commit fsyncs: expected one sync point per op at least, got {total_syncs}"
    );
    drop(r);

    for n in 0..total_syncs {
        let mut r = rig();
        r.clock.crash_after_nth_sync(r.base + n);
        let committed = drive(&mut r.tree, &ops);
        assert!(
            r.clock.is_crashed(),
            "n={n}: the schedule must cover only syncs that happen"
        );
        drop(r.tree);

        // Reboot: the unsynced log tail is gone, the devices come back.
        r.log.lose_unsynced();
        r.clock.revive();
        r.fault.revive();
        r.fault.set_armed(false);

        let disk: Arc<dyn Disk> = r.fault.clone();
        let report = recover(&disk, r.log.as_ref())
            .unwrap_or_else(|e| panic!("n={n}: recovery failed: {e}"));

        let pool = Arc::new(BufferPool::new(r.fault.clone(), 64));
        let tree = RTree::<2>::open(pool).unwrap();
        assert_eq!(
            tree.len(),
            committed.len() as u64,
            "n={n}: recovered length diverges from the committed prefix ({report})"
        );
        let got: BTreeSet<u64> = tree
            .query_region(&Rect2::new([0.0, 0.0], [1.0, 1.0]))
            .unwrap()
            .iter()
            .map(|&(_, id)| id)
            .collect();
        assert_eq!(got, committed, "n={n}: recovered contents diverge");

        let check = tree.check();
        assert!(check.is_clean(), "n={n}: {check}");
        assert!(
            check.unreachable.is_empty(),
            "n={n}: leaked pages {:?}",
            check.unreachable
        );
    }

    // Sanity: the clean run's final state is what an uncrashed schedule
    // converges to.
    assert!(!clean.is_empty());
}

// ---------------------------------------------------------------------
// LSM compaction: crash schedules across the catalog-flip commit point.
//
// A compaction's commit protocol has five externally visible sync
// points — segment-store durability, meta-page write, the WAL flip
// note (the commit point), the superblock flip, and post-flip cleanup
// (segment deletes + WAL recycling). Crashing between any two of them
// must never lose an acknowledged insert: before the flip note syncs,
// recovery rebuilds the drained memtable from insert notes; after it,
// recovery re-executes the flip against the durable segment bytes.
// The enumeration below drives a fixed insert workload (the tiny
// memtable bound forces a compaction every 8 inserts; the levels go
// [1], [2], [2,1], [4], [4,1], [4,2], [4,2,1] memtables, so flips
// remove every level, none, or — at [4,1] -> [4,2] — the newest level
// while keeping an older one) and crashes after every sync the clean
// run performs.
// ---------------------------------------------------------------------

struct LsmRig {
    clock: Arc<SyncClock>,
    fault: Arc<FaultDisk>,
    log: Arc<MemLogStore>,
    segs: Arc<MemSegmentStore>,
    base: u64,
    tree: LsmTree<2>,
}

fn lsm_opts() -> LsmOptions {
    LsmOptions {
        capacity: NodeCapacity::new(8).unwrap(),
        memtable_items: 8,
        max_levels: 3,
        background: false,
        ..LsmOptions::default()
    }
}

fn lsm_rig() -> LsmRig {
    let clock = SyncClock::new();
    let fault = Arc::new(FaultDisk::new(Arc::new(MemDisk::default_size())));
    fault.set_sync_clock(clock.clone());
    let log = MemLogStore::with_clock(clock.clone());
    let segs = Arc::new(MemSegmentStore::with_clock(clock.clone()));
    let tree = LsmTree::open(fault.clone(), log.clone(), segs.clone(), lsm_opts()).unwrap();
    let base = clock.syncs_seen();
    LsmRig {
        clock,
        fault,
        log,
        segs,
        base,
        tree,
    }
}

/// Insert `rect_of(i)` for each id in order until a crash interrupts.
/// Returns `(acknowledged, attempted)`: recovery must produce a set
/// between the two (the one in-flight insert may or may not have become
/// durable before the crash fired).
fn lsm_drive(tree: &LsmTree<2>, total: u64) -> (BTreeSet<u64>, BTreeSet<u64>) {
    let mut acked = BTreeSet::new();
    let mut attempted = BTreeSet::new();
    for id in 0..total {
        attempted.insert(id);
        match tree.insert(rect_of(id), id) {
            Ok(()) => {
                acked.insert(id);
            }
            Err(_) => break,
        }
    }
    (acked, attempted)
}

fn lsm_contents(tree: &LsmTree<2>) -> BTreeSet<u64> {
    let hits = tree.query(&Rect2::unit()).unwrap();
    let got: BTreeSet<u64> = hits.iter().map(|&(_, id)| id).collect();
    assert_eq!(got.len(), hits.len(), "recovery must not duplicate items");
    got
}

#[test]
fn every_lsm_sync_point_preserves_acknowledged_inserts() {
    const TOTAL: u64 = 64;

    // Clean run bounds the schedule and shows a partial-victim flip:
    // one that removed some, but not all, of the levels before it.
    let r = lsm_rig();
    let mut partial_flips = 0;
    for id in 0..TOTAL {
        let before = r.tree.stats();
        r.tree.insert(rect_of(id), id).unwrap();
        let after = r.tree.stats();
        if after.compactions > before.compactions {
            let removed = before.levels + 1 - after.levels;
            if removed > 0 && removed < before.levels {
                partial_flips += 1;
            }
        }
    }
    assert!(
        partial_flips >= 1,
        "workload must commit a flip that keeps an older level"
    );
    let compactions = r.tree.stats().compactions;
    assert!(
        compactions >= 6,
        "workload must cross the flip commit point repeatedly, got {compactions} compactions"
    );
    let total_syncs = r.clock.syncs_seen() - r.base;
    assert!(
        total_syncs > TOTAL,
        "every insert commit fsyncs plus compaction syncs, got {total_syncs}"
    );
    drop(r);

    for n in 0..total_syncs {
        let r = lsm_rig();
        r.clock.crash_after_nth_sync(r.base + n);
        let (acked, attempted) = lsm_drive(&r.tree, TOTAL);
        assert!(
            r.clock.is_crashed(),
            "n={n}: the schedule must cover only syncs that happen"
        );
        drop(r.tree);

        // Reboot: unsynced WAL tail and unsynced segment bytes are gone
        // (fail-stop loses every volatile write cache at once).
        r.log.lose_unsynced();
        r.segs.lose_unsynced();
        r.clock.revive();
        r.fault.revive();
        r.fault.set_armed(false);

        let tree = LsmTree::open(r.fault.clone(), r.log.clone(), r.segs.clone(), lsm_opts())
            .unwrap_or_else(|e| panic!("n={n}: recovery failed: {e}"));
        let levels = tree.stats().levels;
        assert!(levels <= 3, "n={n}: recovered {levels} levels, cap is 3");
        let got = lsm_contents(&tree);
        assert!(
            got.is_superset(&acked),
            "n={n}: lost acknowledged inserts {:?}",
            acked.difference(&got).collect::<Vec<_>>()
        );
        assert!(
            got.is_subset(&attempted),
            "n={n}: recovered items never inserted {:?}",
            got.difference(&attempted).collect::<Vec<_>>()
        );

        // The recovered tree must stay fully usable: top up whatever the
        // crash swallowed and demand the complete workload.
        for id in 0..TOTAL {
            if !got.contains(&id) {
                tree.insert(rect_of(id), id)
                    .unwrap_or_else(|e| panic!("n={n}: post-recovery insert failed: {e}"));
            }
        }
        tree.flush()
            .unwrap_or_else(|e| panic!("n={n}: post-recovery flush failed: {e}"));
        let full: BTreeSet<u64> = (0..TOTAL).collect();
        assert_eq!(
            lsm_contents(&tree),
            full,
            "n={n}: post-recovery state diverges"
        );
    }
}

/// Crashing after the *last* sync (n = total) must be a plain clean
/// shutdown: recovery is a no-op and the full workload survives.
#[test]
fn crash_after_final_sync_is_a_clean_shutdown() {
    let ops = workload();
    let mut r = rig();
    let committed = drive(&mut r.tree, &ops);
    r.tree.persist().unwrap();
    let after_all = r.clock.syncs_seen();
    r.clock.crash_after_nth_sync(after_all);
    drop(r.tree);

    r.log.lose_unsynced();
    r.clock.revive();
    r.fault.revive();
    r.fault.set_armed(false);

    let disk: Arc<dyn Disk> = r.fault.clone();
    let report = recover(&disk, r.log.as_ref()).unwrap();
    assert_eq!(report.replay.txns_applied, 0, "clean close replays nothing");
    assert_eq!(report.pages_reclaimed, 0, "clean close leaks nothing");

    let pool = Arc::new(BufferPool::new(r.fault.clone(), 64));
    let tree = RTree::<2>::open(pool).unwrap();
    assert_eq!(tree.len(), committed.len() as u64);
    assert!(tree.check().is_clean());
}
