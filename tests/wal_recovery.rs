//! Property-based log-damage recovery for the LSM tier: a random
//! insert/delete workload whose tiny memtable seals and compacts every
//! few ops, then a crash that damages the log itself — a torn tail
//! (truncation at an arbitrary byte offset) or a flipped byte — followed
//! by [`LsmTree::open`].
//!
//! The property: whatever prefix of notes survives the damage is exactly
//! what recovery reproduces. A single writer logs its ops in op order,
//! and every compaction recycles the log segments its flat level
//! covers, so the ops whose notes end before the damage point (or were
//! recycled into a level) are a prefix of the op stream; replaying that
//! prefix through an in-memory model gives the oracle. Recovery must
//! match it exactly, count included, and a second open must change
//! nothing (idempotence).
//!
//! The `FAULT_SEED` environment variable replays one specific
//! randomized case: `FAULT_SEED=12345 cargo test --test wal_recovery`.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use str_rtree::lsm::MemSegmentStore;
use str_rtree::prelude::*;
use str_rtree::storage::{LogStore, MemLogStore};

fn rect_of(i: u64) -> Rect2 {
    let (x, y) = ((i % 31) as f64 / 31.0, (i / 31 % 31) as f64 / 31.0);
    Rect2::new([x, y], [x + 0.015, y + 0.015])
}

fn everything() -> Rect2 {
    Rect2::new([-1.0, -1.0], [2.0, 2.0])
}

fn opts() -> LsmOptions {
    LsmOptions {
        capacity: NodeCapacity::new(8).unwrap(),
        memtable_items: 6,
        max_levels: 3,
        background: false,
        ..LsmOptions::default()
    }
}

/// One abstract workload step (a third of them deletes), concretized
/// against the live model: on a delete action with a non-empty live set
/// the victim is `live[pick % live.len()]`, otherwise it degrades to an
/// insert.
#[derive(Clone, Copy, Debug)]
struct Step {
    delete: bool,
    pick: u16,
}

#[derive(Clone, Copy, Debug)]
enum Damage {
    /// Truncate the log at `frac` of its final length.
    Torn,
    /// Flip every bit of one byte at `frac` of the final length.
    BitFlip,
}

/// Apply `steps[..k]` to a fresh model, returning the surviving ids.
fn oracle(steps: &[Step], k: usize) -> BTreeSet<u64> {
    let mut next_id = 0u64;
    let mut model = BTreeSet::new();
    for step in &steps[..k] {
        let live: Vec<u64> = model.iter().copied().collect();
        if step.delete && !live.is_empty() {
            model.remove(&live[step.pick as usize % live.len()]);
        } else {
            model.insert(next_id);
            next_id += 1;
        }
    }
    model
}

/// Where the log ends now: `(newest segment, its length)`.
fn log_end(log: &MemLogStore) -> (u64, u64) {
    let seg = *log.list().unwrap().last().unwrap();
    (seg, log.read(seg).unwrap().len() as u64)
}

/// The `(segment, offset)` of global offset `x` in the log as it is now.
fn locate(log: &MemLogStore, x: u64) -> (u64, u64) {
    let mut base = 0u64;
    for seg in log.list().unwrap() {
        let len = log.read(seg).unwrap().len() as u64;
        if x < base + len {
            return (seg, x - base);
        }
        base += len;
    }
    (u64::MAX, 0)
}

fn contents(tree: &LsmTree<2>) -> BTreeSet<u64> {
    let hits = tree.query(&everything()).unwrap();
    let ids: BTreeSet<u64> = hits.iter().map(|&(_, id)| id).collect();
    assert_eq!(ids.len(), hits.len(), "recovery duplicated an item");
    ids
}

/// Run one full case: drive the workload, damage the log at
/// `frac * total_len`, reopen, and compare against the oracle.
fn run_case(steps: &[Step], frac: f64, damage: Damage) {
    let disk = Arc::new(MemDisk::default_size());
    let log = MemLogStore::new();
    let segs = Arc::new(MemSegmentStore::new());
    let tree = LsmTree::open(disk.clone(), log.clone(), segs.clone(), opts()).unwrap();

    // Drive the workload, recording where the log ended after each op:
    // op i's notes end at `ends[i]`.
    let mut next_id = 0u64;
    let mut model: BTreeSet<u64> = BTreeSet::new();
    let mut ends: Vec<(u64, u64)> = Vec::with_capacity(steps.len());
    for step in steps {
        let live: Vec<u64> = model.iter().copied().collect();
        if step.delete && !live.is_empty() {
            let victim = live[step.pick as usize % live.len()];
            assert!(tree.delete(&rect_of(victim), victim).unwrap());
            model.remove(&victim);
        } else {
            tree.insert(rect_of(next_id), next_id).unwrap();
            model.insert(next_id);
            next_id += 1;
        }
        ends.push(log_end(&log));
    }
    assert!(
        tree.stats().compactions > 0,
        "the workload must cross compactions"
    );
    drop(tree);

    // Crash: damage the log at the chosen offset. Survivors are the ops
    // whose notes end at or before the damaged byte — those recycled
    // into a level end in a segment older than any left.
    let total = log.total_len();
    let x = ((total as f64) * frac) as u64;
    let x = match damage {
        Damage::Torn => {
            let at = locate(&log, x);
            log.truncate_global(x);
            at
        }
        Damage::BitFlip => {
            let x = x.min(total - 1);
            let at = locate(&log, x);
            log.flip_byte_global(x);
            at
        }
    };
    let survivors = ends.iter().filter(|&&end| end <= x).count();
    let want = oracle(steps, survivors);

    let tree = LsmTree::open(disk.clone(), log.clone(), segs.clone(), opts())
        .unwrap_or_else(|e| panic!("recovery after {damage:?} at {x:?} failed: {e}"));
    assert_eq!(
        contents(&tree),
        want,
        "{damage:?} at {x:?} ({survivors} survivors): contents diverge"
    );
    assert_eq!(SpatialIndex::len(&tree), want.len() as u64);
    drop(tree);

    // A second open must be a no-op (idempotence).
    let tree = LsmTree::open(disk, log, segs, opts()).unwrap();
    assert_eq!(contents(&tree), want, "second open diverges");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn damaged_log_recovers_to_the_committed_prefix(
        steps in prop::collection::vec(
            (any::<u8>(), any::<u16>())
                .prop_map(|(kind, pick)| Step { delete: kind.is_multiple_of(3), pick }),
            40..120,
        ),
        frac in 0.0f64..1.0,
        damage in prop_oneof![Just(Damage::Torn), Just(Damage::BitFlip)],
    ) {
        run_case(&steps, frac, damage);
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One randomized pass per run: CI logs the seed so any failure can be
/// replayed with `FAULT_SEED=<seed> cargo test --test wal_recovery`.
#[test]
fn randomized_seed_pass() {
    let seed = match std::env::var("FAULT_SEED") {
        Ok(s) => s
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("FAULT_SEED must be a u64: {e}")),
        Err(_) => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos() as u64,
    };
    eprintln!("wal_recovery randomized pass: FAULT_SEED={seed}");
    let mut s = seed;
    let n_steps = 40 + (splitmix64(&mut s) % 80) as usize;
    let steps: Vec<Step> = (0..n_steps)
        .map(|_| {
            let r = splitmix64(&mut s);
            Step {
                delete: r.is_multiple_of(3),
                pick: ((r >> 16) & 0xFFFF) as u16,
            }
        })
        .collect();
    let frac = (splitmix64(&mut s) % 10_000) as f64 / 10_000.0;
    let damage = if splitmix64(&mut s) & 1 == 0 {
        Damage::Torn
    } else {
        Damage::BitFlip
    };
    eprintln!("wal_recovery randomized pass: {n_steps} steps, {damage:?} at {frac:.4} of the log");
    run_case(&steps, frac, damage);
}
