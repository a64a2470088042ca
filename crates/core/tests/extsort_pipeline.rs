//! The out-of-core STR pipeline under fire and under the microscope:
//!
//! * **Fault injection** — [`storage::FaultDisk`] schedules on one
//!   device at a time. On the *scratch* disk, which is only the sort's
//!   spill device, faults land in run formation (write errors, torn
//!   spills), in the rank split and in the merge (read errors). On the
//!   *destination* disk they land in the workers' leaf-range writes and
//!   in the stitch of the upper levels. Every injected failure must
//!   surface as a clean `Err` from the pipeline — no panic, no hang, no
//!   half-registered tree — at thread count 1 and 4 alike. Bit flips in
//!   scratch reads must fail the spill page's seal, not build a wrong
//!   tree.
//! * **Differential property test** — for random (n, capacity, budget,
//!   threads) configurations, the external build at one thread and at
//!   several must each write the same disk image, page by page and
//!   byte for byte, as the in-memory `StrPacker`, and the same tree
//!   level by level.

use std::sync::Arc;

use geom::Rect;
use proptest::prelude::*;
use rtree::NodeCapacity;
use storage::{
    BufferPool, Disk, FaultDisk, FaultKind, FaultOp, FaultSpec, MemDisk, PageId, Trigger,
};
use str_core::{
    pack_str_external_opts, ExternalPackError, ExternalPackOptions, PackingOrder, StrPacker,
};

fn uniform_items(n: usize, seed: u64) -> Vec<(Rect<2>, u64)> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let (x, y) = (next(), next());
            let (w, h) = (next() * 0.01, next() * 0.01);
            (Rect::new([x, y], [x + w, y + h]), i as u64)
        })
        .collect()
}

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 512))
}

/// Which device of the build a fault schedule is installed on.
#[derive(Debug, Clone, Copy)]
enum Device {
    Scratch,
    Dest,
}

/// Run the external build with a fault schedule installed on `device`;
/// the other device stays clean.
fn build_with_faults(
    device: Device,
    threads: usize,
    n: usize,
    schedule: &[FaultSpec],
) -> Result<rtree::RTree<2>, ExternalPackError> {
    let faulty = Arc::new(FaultDisk::new(Arc::new(MemDisk::default_size())));
    for &spec in schedule {
        faulty.push(spec);
    }
    let clean: Arc<dyn Disk> = Arc::new(MemDisk::default_size());
    let (scratch, dest): (Arc<dyn Disk>, Arc<dyn Disk>) = match device {
        Device::Scratch => (faulty, clean),
        Device::Dest => (clean, faulty),
    };
    pack_str_external_opts(
        Arc::new(BufferPool::new(dest, 512)),
        rtree::DEFAULT_TREE,
        scratch,
        uniform_items(n, 42),
        NodeCapacity::new(16).unwrap(),
        ExternalPackOptions::new(128).threads(threads),
    )
}

#[test]
fn write_error_during_run_formation_is_clean() {
    for threads in [1usize, 4] {
        let err = build_with_faults(
            Device::Scratch,
            threads,
            3_000,
            &[FaultSpec {
                op: FaultOp::Write,
                kind: FaultKind::Error,
                trigger: Trigger::OnceAt(0),
            }],
        )
        .expect_err("first spill write must fail");
        assert!(
            matches!(err, ExternalPackError::Sort(_)),
            "threads={threads}: {err}"
        );
    }
}

#[test]
fn torn_spill_mid_run_is_clean() {
    for threads in [1usize, 4] {
        // Tear a page a few writes into run formation: only a prefix
        // reaches the media and the write reports failure.
        let err = build_with_faults(
            Device::Scratch,
            threads,
            3_000,
            &[FaultSpec {
                op: FaultOp::Write,
                kind: FaultKind::Torn { valid_bytes: 100 },
                trigger: Trigger::OnceAt(3),
            }],
        )
        .expect_err("torn spill must fail the build");
        assert!(
            matches!(err, ExternalPackError::Sort(_)),
            "threads={threads}: {err}"
        );
    }
}

#[test]
fn read_error_during_merge_is_clean() {
    for threads in [1usize, 4] {
        // Reads on scratch only begin at the rank split (four threads)
        // or the merge (one); the very first one failing kills the
        // build before any slab completes.
        let err = build_with_faults(
            Device::Scratch,
            threads,
            3_000,
            &[FaultSpec {
                op: FaultOp::Read,
                kind: FaultKind::Error,
                trigger: Trigger::OnceAt(0),
            }],
        )
        .expect_err("merge read must fail");
        assert!(
            matches!(err, ExternalPackError::Sort(_)),
            "threads={threads}: {err}"
        );
    }
}

/// Sweep one-shot faults across the whole operation stream of one
/// device, far enough to land in every phase that touches it. Scratch
/// writes land in run formation and scratch reads in the rank split and
/// the merge; leaf writing never touches scratch. Destination writes land in the
/// catalog set-up, the packers' leaf ranges, the stitch of the upper
/// levels and the final persist. Whatever the placement, the pipeline
/// either completes with a valid, correct tree or returns a clean error
/// of the device's kind — never a panic, hang, or corrupt success.
fn sweep_one_shot_faults(device: Device, ops: &[FaultOp], ats: impl Iterator<Item = u64> + Clone) {
    let n = 3_000;
    let reference = StrPacker::new()
        .pack(pool(), uniform_items(n, 42), NodeCapacity::new(16).unwrap())
        .unwrap();
    let expected_leaf = reference.level_mbrs(0).unwrap();

    for threads in [1usize, 4] {
        for &op in ops {
            let mut failed = 0;
            for at in ats.clone() {
                let result = build_with_faults(
                    device,
                    threads,
                    n,
                    &[FaultSpec {
                        op,
                        kind: FaultKind::Error,
                        trigger: Trigger::OnceAt(at),
                    }],
                );
                let case = format!("{device:?} threads={threads} {op:?}@{at}");
                match result {
                    Ok(tree) => {
                        // Fault placed beyond the stream: the build must
                        // be untouched by the schedule.
                        tree.validate(false).unwrap();
                        assert_eq!(tree.level_mbrs(0).unwrap(), expected_leaf, "{case}");
                    }
                    Err(e) => {
                        failed += 1;
                        assert!(
                            matches!(
                                (device, &e),
                                (Device::Scratch, ExternalPackError::Sort(_))
                                    | (Device::Dest, ExternalPackError::Tree(_))
                            ),
                            "{case}: {e}"
                        );
                    }
                }
            }
            assert!(
                failed > 0,
                "{device:?} threads={threads} {op:?}: no fault landed"
            );
        }
    }
}

#[test]
fn fault_sweep_every_phase_fails_clean_or_succeeds_valid() {
    sweep_one_shot_faults(
        Device::Scratch,
        &[FaultOp::Write, FaultOp::Read],
        (0..80).step_by(7),
    );
}

/// Scratch reads of a fault-free build at `threads`, and how many of
/// them the rank split made: the pages read inside its
/// `external.scatter` span, which runs on the calling thread before any
/// worker reads.
fn fault_free_scratch_reads(threads: usize, n: usize) -> (u64, u64) {
    let scratch = Arc::new(MemDisk::default_size());
    obs::trace::set_enabled(true);
    let trace = {
        let root = obs::trace::span("test.build").expect("tracing is on");
        pack_str_external_opts::<2, _>(
            pool(),
            rtree::DEFAULT_TREE,
            scratch.clone(),
            uniform_items(n, 42),
            NodeCapacity::new(16).unwrap(),
            ExternalPackOptions::new(128).threads(threads),
        )
        .unwrap();
        root.trace_id()
    };
    obs::trace::set_enabled(false);
    let split = obs::trace::dump()
        .iter()
        .filter(|r| r.trace == trace && r.name == "external.scatter")
        .map(|r| r.io.pages_read)
        .sum();
    (scratch.stats().reads(), split)
}

/// Flip bits in scratch pages as the build reads them: in record bytes
/// (every byte of the first record — coordinates, low mantissa bits, the
/// id — and records further in), in the unused tail and in the seal.
/// The ordinals come from a fault-free build's scratch reads: a flip on
/// the first read, the middle one or the last lands in the stream and
/// must fail the build with a clean `Sort` error, whatever byte it
/// hits. At four threads the rank split reads first, so its first,
/// middle and last reads are flipped too. A flip on the first read past
/// the stream must leave the tree equal to the in-memory build, ids
/// included.
#[test]
fn bit_flip_sweep_over_scratch_reads_fails_clean_or_succeeds_valid() {
    let n = 3_000;
    let reference = StrPacker::new()
        .pack(pool(), uniform_items(n, 42), NodeCapacity::new(16).unwrap())
        .unwrap();
    let expected_entries = reference.all_entries().unwrap();
    // 40-byte 2-D entries: 102 per 4096-byte page, bytes 4080..4088
    // unused, 4088..4096 the seal.
    let offsets = (0..40).chain([31, 1_000, 2_047, 4_079, 4_080, 4_087, 4_088, 4_095]);
    for threads in [1usize, 4] {
        let (reads, split) = fault_free_scratch_reads(threads, n);
        // One thread merges one range, which needs no split.
        assert_eq!(
            split == 0,
            threads == 1,
            "threads={threads}: {split} split reads"
        );
        let mut ats = vec![0, 5, 30, reads / 2, reads - 1, reads];
        if split > 0 {
            ats.extend([split / 2, split - 1]);
        }
        for offset in offsets.clone() {
            for mask in [0x01u8, 0x3f] {
                for &at in &ats {
                    let result = build_with_faults(
                        Device::Scratch,
                        threads,
                        n,
                        &[FaultSpec {
                            op: FaultOp::Read,
                            kind: FaultKind::BitFlip { offset, mask },
                            trigger: Trigger::OnceAt(at),
                        }],
                    );
                    let case = format!("threads={threads} flip {mask:#x}@{offset} read {at}");
                    match result {
                        Ok(tree) => {
                            assert_eq!(at, reads, "{case}: a flipped read built a tree");
                            tree.validate(false).unwrap();
                            assert_eq!(tree.height(), reference.height(), "{case}");
                            for level in 0..reference.height() {
                                assert_eq!(
                                    tree.level_mbrs(level).unwrap(),
                                    reference.level_mbrs(level).unwrap(),
                                    "{case}: level {level}"
                                );
                            }
                            assert_eq!(tree.all_entries().unwrap(), expected_entries, "{case}");
                        }
                        Err(e) => {
                            assert_ne!(at, reads, "{case}: a flip past the stream failed");
                            assert!(matches!(e, ExternalPackError::Sort(_)), "{case}: {e}");
                        }
                    }
                }
            }
        }
    }
}

/// 3000 entries at capacity 16 write 188 leaves and 13 upper-level
/// pages, so the sweep crosses every leaf batch and the stitch, and
/// ends past the last write.
#[test]
fn destination_fault_sweep_fails_clean_or_succeeds_valid() {
    sweep_one_shot_faults(Device::Dest, &[FaultOp::Write], (0..230).step_by(3));
}

#[test]
fn crash_fault_fails_everything_after() {
    let err = build_with_faults(
        Device::Scratch,
        4,
        3_000,
        &[FaultSpec {
            op: FaultOp::Write,
            kind: FaultKind::Crash,
            trigger: Trigger::OnceAt(10),
        }],
    )
    .expect_err("crashed scratch must fail the build");
    assert!(matches!(err, ExternalPackError::Sort(_)));
}

/// Build one configuration in memory and externally at one thread and
/// at `threads`, and assert both external builds write the in-memory
/// build's disk image byte for byte and match it level by level.
/// Returns an error on mismatch so proptest can shrink.
fn assert_identical_to_in_memory(
    n: usize,
    cap: usize,
    budget: usize,
    threads: usize,
    seed: u64,
) -> std::result::Result<(), TestCaseError> {
    let data = uniform_items(n, seed);
    let cap = NodeCapacity::new(cap).unwrap();

    let mem_disk = Arc::new(MemDisk::default_size());
    let in_memory = StrPacker::new()
        .pack(
            Arc::new(BufferPool::new(mem_disk.clone(), 512)),
            data.clone(),
            cap,
        )
        .unwrap();

    for t in [1, threads] {
        let ext_disk = Arc::new(MemDisk::default_size());
        let ext = pack_str_external_opts(
            Arc::new(BufferPool::new(ext_disk.clone(), 512)),
            rtree::DEFAULT_TREE,
            Arc::new(MemDisk::default_size()),
            data.clone(),
            cap,
            ExternalPackOptions::new(budget).threads(t),
        )
        .unwrap();
        ext.validate(false).unwrap();

        prop_assert_eq!(in_memory.len(), ext.len());
        prop_assert_eq!(in_memory.height(), ext.height());
        for level in 0..in_memory.height() {
            prop_assert_eq!(
                in_memory.level_mbrs(level).unwrap(),
                ext.level_mbrs(level).unwrap(),
                "level {} differs from in-memory (threads={})",
                level,
                t
            );
        }

        prop_assert_eq!(mem_disk.num_pages(), ext_disk.num_pages());
        let mut a = vec![0u8; mem_disk.page_size()];
        let mut b = vec![0u8; ext_disk.page_size()];
        for p in 0..mem_disk.num_pages() {
            mem_disk.read_page(PageId(p), &mut a).unwrap();
            ext_disk.read_page(PageId(p), &mut b).unwrap();
            prop_assert_eq!(&a, &b, "page {} differs (threads={})", p, t);
        }
    }
    Ok(())
}

/// A level far larger than the proptest's: in memory one sort orders
/// all of it, while the pipeline sorts runs under a 20 000-record budget
/// and merges them, so the merge's tie-breaks must give the same order.
#[test]
fn external_matches_in_memory_on_a_large_level() {
    let n = 75_536;
    assert_identical_to_in_memory(n, 100, 20_000, 2, 7).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// external at 1 thread == external at k threads == in-memory, page
    /// by page, for random configurations. `n >= 3 * cap` keeps the
    /// tree multi-leaf (a single leaf is x-sorted by the external
    /// pipeline but left in input order in memory). These inputs make 3
    /// to 14 slabs, the last one mostly short, so up to 9 threads often
    /// outnumber them.
    #[test]
    fn external_builds_identical_across_thread_counts(
        n in 200usize..1_500,
        cap in 8usize..32,
        budget in 16usize..300,
        threads in 2usize..10,
        seed in 1u64..1_000,
    ) {
        prop_assume!(n >= 3 * cap);
        assert_identical_to_in_memory(n, cap, budget, threads, seed)?;
    }
}
