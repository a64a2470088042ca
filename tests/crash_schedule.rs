//! Deterministic crash-schedule explorer for the durable write path,
//! the LSM tier.
//!
//! The durable write path promises *exactly-once* crash semantics: after
//! a fail-stop crash at any point, recovery lands on precisely the
//! prefix of operations whose commit returned `Ok`. Sampled crash points
//! can't prove a "for all" claim, so this harness enumerates **every**
//! sync point:
//!
//! 1. run a fixed workload once against a [`SyncClock`] shared by the
//!    disk, the log and the segment store, and count the total syncs
//!    `N`;
//! 2. for each `n` in `0..N`, rerun the identical workload with the
//!    clock armed to crash right after the `n`-th sync (the sync
//!    completes, then every device fails — fail-stop across the whole
//!    simulated machine);
//! 3. lose every unsynced byte (what a real power cut does to volatile
//!    write caches), reopen with [`LsmTree::open`] — which is recovery —
//!    and compare against the committed prefix.
//!
//! The committed prefix is observable from the workload driver itself:
//! `insert`/`delete` return only after their commit fsync, so `Ok`
//! means durable. A compaction's commit protocol adds four sync points
//! per drain — segment bytes, the WAL flip note (the commit point), the
//! superblock flip, and cleanup — so crash points land inside ordinary
//! commits and every step of every flip alike.
//!
//! After every recovery the main disk must hold the superblock and
//! nothing else, with an empty free chain: segments own no page, so no
//! crash point may leak one.

use std::collections::BTreeSet;
use std::sync::Arc;

use str_rtree::lsm::{LsmStats, MemSegmentStore};
use str_rtree::prelude::*;
use str_rtree::storage::{Disk, FaultDisk, MemLogStore, PageAllocator, SyncClock};

/// Distinct grid rectangle for item `i`.
fn rect_of(i: u64) -> Rect2 {
    let (x, y) = ((i % 25) as f64 / 25.0, (i / 25) as f64 / 25.0);
    Rect2::new([x, y], [x + 0.01, y + 0.01])
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64),
    Delete(u64),
    Flush,
}

/// The ids live after `ops`.
fn model(ops: &[Op]) -> BTreeSet<u64> {
    let mut live = BTreeSet::new();
    for op in ops {
        match *op {
            Op::Insert(id) => assert!(live.insert(id)),
            Op::Delete(id) => assert!(live.remove(&id)),
            Op::Flush => {}
        }
    }
    live
}

struct Rig {
    clock: Arc<SyncClock>,
    fault: Arc<FaultDisk>,
    log: Arc<MemLogStore>,
    segs: Arc<MemSegmentStore>,
    /// Sync ordinal at workload start (file creation syncs excluded
    /// from the schedule — the workload is what's under test).
    base: u64,
    tree: LsmTree<2>,
    opts: LsmOptions,
}

impl Rig {
    fn new(opts: LsmOptions) -> Self {
        let clock = SyncClock::new();
        let fault = Arc::new(FaultDisk::new(Arc::new(MemDisk::default_size())));
        fault.set_sync_clock(clock.clone());
        let log = MemLogStore::with_clock(clock.clone());
        let segs = Arc::new(MemSegmentStore::with_clock(clock.clone()));
        let tree = LsmTree::open(fault.clone(), log.clone(), segs.clone(), opts).unwrap();
        let base = clock.syncs_seen();
        Rig {
            clock,
            fault,
            log,
            segs,
            base,
            tree,
            opts,
        }
    }

    /// Drive `ops` until they finish or the crash fires. Returns how
    /// many returned `Ok`; the next one, if any, was in flight.
    fn drive(&self, ops: &[Op]) -> usize {
        for (done, op) in ops.iter().enumerate() {
            let res = match *op {
                Op::Insert(id) => self.tree.insert(rect_of(id), id),
                Op::Delete(id) => self.tree.delete(&rect_of(id), id).map(|found| {
                    assert!(found, "workload only deletes live ids");
                }),
                Op::Flush => self.tree.flush(),
            };
            if res.is_err() {
                return done;
            }
        }
        ops.len()
    }

    /// Fail-stop reboot: drop the tree, lose every unsynced byte, bring
    /// the devices back and reopen — recovery.
    fn reboot(self, n: u64) -> LsmTree<2> {
        drop(self.tree);
        self.log.lose_unsynced();
        self.segs.lose_unsynced();
        self.clock.revive();
        self.fault.revive();
        self.fault.set_armed(false);
        let tree = LsmTree::open(self.fault.clone(), self.log, self.segs, self.opts)
            .unwrap_or_else(|e| panic!("n={n}: recovery failed: {e}"));
        assert_eq!(
            self.fault.num_pages(),
            1,
            "n={n}: the main disk holds more than the superblock"
        );
        let alloc = PageAllocator::open(self.fault).unwrap();
        assert_eq!(alloc.free_count(), 0, "n={n}: pages on the free chain");
        tree
    }
}

fn contents(tree: &LsmTree<2>) -> BTreeSet<u64> {
    let hits = tree.query(&Rect2::unit()).unwrap();
    let got: BTreeSet<u64> = hits.iter().map(|&(_, id)| id).collect();
    assert_eq!(got.len(), hits.len(), "recovery must not duplicate items");
    assert_eq!(SpatialIndex::len(tree), got.len() as u64, "len diverges");
    got
}

// ---------------------------------------------------------------------
// Exactly-once: a delete-heavy mix with periodic flushes.
// ---------------------------------------------------------------------

fn mix_opts() -> LsmOptions {
    LsmOptions {
        capacity: NodeCapacity::new(8).unwrap(),
        memtable_items: 16,
        max_levels: 3,
        background: false,
        ..LsmOptions::default()
    }
}

/// The fixed workload: 200 mutations with a delete every fifth op and a
/// flush every 60th, so tombstones reach levels, force full folds, and
/// crash points land inside commits, seals and flips alike.
fn mix_workload() -> Vec<Op> {
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
            ops.push(Op::Flush);
        }
    }
    ops
}

#[test]
fn every_sync_point_recovers_to_the_committed_prefix() {
    let ops = mix_workload();

    // Clean run: bound the schedule.
    let r = Rig::new(mix_opts());
    assert_eq!(r.drive(&ops), ops.len());
    assert_eq!(contents(&r.tree), model(&ops));
    let total_syncs = r.clock.syncs_seen() - r.base;
    assert!(
        total_syncs > 200,
        "every commit fsyncs: expected one sync point per op at least, got {total_syncs}"
    );
    drop(r);

    for n in 0..total_syncs {
        let r = Rig::new(mix_opts());
        r.clock.crash_after_nth_sync(r.base + n);
        let done = r.drive(&ops);
        assert!(
            r.clock.is_crashed(),
            "n={n}: the schedule must cover only syncs that happen"
        );
        let tree = r.reboot(n);
        // An op that returned `Err` never reached the log: the crash
        // fails every append after the sync it follows.
        assert_eq!(
            contents(&tree),
            model(&ops[..done]),
            "n={n}: recovered contents diverge from the committed prefix"
        );
        assert!(tree.stats().levels <= 3, "n={n}: level cap broken");
    }
}

/// Crashing after the *last* sync must be a plain clean shutdown:
/// recovery finds nothing to redo and the full workload survives.
#[test]
fn crash_after_final_sync_is_a_clean_shutdown() {
    let ops = mix_workload();
    let r = Rig::new(mix_opts());
    assert_eq!(r.drive(&ops), ops.len());
    r.tree.flush().unwrap();
    let before = r.tree.stats();
    r.clock.crash_after_nth_sync(r.clock.syncs_seen());
    let tree = r.reboot(u64::MAX);

    assert_eq!(contents(&tree), model(&ops));
    let after = tree.stats();
    assert_eq!(
        (after.memtable_items, after.tombstones),
        (0, 0),
        "clean close redoes nothing"
    );
    assert_eq!(
        (after.levels, after.level_items),
        (before.levels, before.level_items)
    );
}

// ---------------------------------------------------------------------
// Compaction shapes: crash schedules across the catalog-flip commit
// point.
//
// Crashing between any two sync points of a flip must never lose an
// acknowledged insert or delete: before the flip note syncs, recovery
// rebuilds the drained memtable from insert and delete notes; after it,
// recovery re-executes the flip against the durable segment bytes. The
// tiny memtable bound forces a compaction every 8 entries; the flips
// remove every level, none, or the newest level while keeping an older
// one, and a delete of a level item puts a tombstone in a memtable
// whose drain must fold every level.
// ---------------------------------------------------------------------

fn shape_opts() -> LsmOptions {
    LsmOptions {
        capacity: NodeCapacity::new(8).unwrap(),
        memtable_items: 8,
        max_levels: 3,
        background: false,
        ..LsmOptions::default()
    }
}

/// 64 inserts with three deletes: one of an item still in the active
/// memtable, and two of items already packed into levels.
fn shape_workload() -> Vec<Op> {
    let mut ops: Vec<Op> = (0..64).map(Op::Insert).collect();
    ops.insert(45, Op::Delete(44));
    ops.insert(44, Op::Delete(30));
    ops.insert(20, Op::Delete(3));
    ops
}

/// One op of a clean run, with the tree's shape around it.
fn step(tree: &LsmTree<2>, op: Op) -> (LsmStats, LsmStats) {
    let before = tree.stats();
    match op {
        Op::Insert(id) => tree.insert(rect_of(id), id).unwrap(),
        Op::Delete(id) => assert!(tree.delete(&rect_of(id), id).unwrap()),
        Op::Flush => tree.flush().unwrap(),
    }
    (before, tree.stats())
}

#[test]
fn every_lsm_sync_point_preserves_acknowledged_inserts() {
    let ops = shape_workload();
    let full = model(&ops);

    // Clean run bounds the schedule and shows both a partial-victim
    // flip (one that removed some, but not all, of the levels before
    // it) and a tombstone-forced full fold.
    let r = Rig::new(shape_opts());
    let (mut partial_flips, mut full_folds) = (0, 0);
    for &op in &ops {
        let (before, after) = step(&r.tree, op);
        if after.compactions > before.compactions {
            let removed = before.levels + 1 - after.levels;
            if removed > 0 && removed < before.levels {
                partial_flips += 1;
            }
            if before.tombstones > 0 && before.levels >= 2 && after.levels == 1 {
                full_folds += 1;
            }
        }
    }
    assert!(
        partial_flips >= 1,
        "workload must commit a flip that keeps an older level"
    );
    assert!(
        full_folds >= 1,
        "workload must fold every level to drop a tombstone"
    );
    let compactions = r.tree.stats().compactions;
    assert!(
        compactions >= 6,
        "workload must cross the flip commit point repeatedly, got {compactions} compactions"
    );
    assert_eq!(contents(&r.tree), full);
    let total_syncs = r.clock.syncs_seen() - r.base;
    assert!(
        total_syncs > ops.len() as u64,
        "every commit fsyncs plus compaction syncs, got {total_syncs}"
    );
    drop(r);

    for n in 0..total_syncs {
        let r = Rig::new(shape_opts());
        r.clock.crash_after_nth_sync(r.base + n);
        let done = r.drive(&ops);
        assert!(
            r.clock.is_crashed(),
            "n={n}: the schedule must cover only syncs that happen"
        );
        let tree = r.reboot(n);
        let levels = tree.stats().levels;
        assert!(levels <= 3, "n={n}: recovered {levels} levels, cap is 3");

        // Every acknowledged insert and delete holds; the op in flight
        // may have landed or not.
        let got = contents(&tree);
        let acked = model(&ops[..done]);
        let in_flight = model(&ops[..(done + 1).min(ops.len())]);
        assert!(
            got == acked || got == in_flight,
            "n={n}: recovered {got:?} after {done} acknowledged ops"
        );

        // The recovered tree must stay fully usable: finish the
        // workload's effect and demand its complete final state.
        for &id in full.difference(&got) {
            tree.insert(rect_of(id), id)
                .unwrap_or_else(|e| panic!("n={n}: post-recovery insert failed: {e}"));
        }
        for &id in got.difference(&full) {
            assert!(tree.delete(&rect_of(id), id).unwrap(), "n={n}");
        }
        tree.flush()
            .unwrap_or_else(|e| panic!("n={n}: post-recovery flush failed: {e}"));
        assert_eq!(contents(&tree), full, "n={n}: post-recovery state diverges");
    }
}
