//! Acceptance: the trace rings capture the events *leading up to* a
//! poisoned tree.
//!
//! A dynamic tree runs over a `FaultDisk` with a tiny buffer pool, so
//! commit-phase writes force dirty evictions (physical writes) that an
//! armed write-fault schedule can hit. Sooner or later a fault lands
//! after a commit has already applied at least one page — the one
//! unrecoverable spot in the staged-mutation protocol — and the tree
//! poisons. With tracing on, the rings must then hold the whole story:
//! `disk.*` spans with their page args, `buffer.eviction` events, the
//! injected `fault.fired`, and the final `rtree.poisoned`, in time
//! order.
//!
//! Lives in its own integration-test binary on purpose: the trace
//! rings and the enable flags are process-global.

use std::sync::Arc;

use geom::Rect;
use rtree::{NodeCapacity, RTree, RTreeError};
use storage::{BufferPool, Disk, FaultDisk, FaultKind, FaultOp, FaultSpec, MemDisk, Trigger};

fn square(x: f64, y: f64, s: f64) -> Rect<2> {
    Rect::new([x, y], [x + s, y + s])
}

#[test]
fn trace_rings_capture_run_up_to_poisoning() {
    obs::set_enabled(true);
    obs::trace::set_enabled(true);

    let mem = Arc::new(MemDisk::default_size());
    let faulted = Arc::new(FaultDisk::new(mem.clone() as Arc<dyn Disk>));
    faulted.set_armed(false);

    // Four frames against a tree of hundreds of pages: nearly every
    // commit write misses and must evict a dirty frame, i.e. becomes a
    // physical write the fault schedule can intercept.
    let pool = Arc::new(BufferPool::new(faulted.clone() as Arc<dyn Disk>, 4));
    let mut tree = RTree::<2>::create(pool, NodeCapacity::new(4).unwrap()).unwrap();

    // Grow a multi-level tree while the disk is still healthy.
    for i in 0..400u64 {
        let x = (i % 20) as f64 / 20.0;
        let y = (i / 20) as f64 / 20.0;
        tree.insert(square(x, y, 0.01), i).unwrap();
    }
    assert!(
        tree.height() >= 3,
        "need a deep tree for multi-write commits"
    );

    // Every 3rd physical write now errors. Failures at the first commit
    // write abandon cleanly (no poison) — keep inserting until one lands
    // after a write has already been applied.
    faulted.push(FaultSpec {
        op: FaultOp::Write,
        kind: FaultKind::Error,
        trigger: Trigger::EveryNth(3),
    });
    faulted.set_armed(true);

    let mut attempts = 0u64;
    while !tree.is_poisoned() {
        attempts += 1;
        assert!(
            attempts < 20_000,
            "fault schedule never produced a mid-commit failure"
        );
        let i = 400 + attempts;
        let x = ((i * 7) % 20) as f64 / 20.0;
        let y = ((i * 13) % 20) as f64 / 20.0;
        let _ = tree.insert(square(x, y, 0.01), i);
    }
    assert!(faulted.total_fired() > 0);
    assert!(matches!(
        tree.insert(square(0.5, 0.5, 0.01), u64::MAX),
        Err(RTreeError::Poisoned)
    ));

    // The rings must tell the whole story, in order.
    let records = obs::trace::dump();
    let poisoned_at = records
        .iter()
        .position(|r| r.name == "rtree.poisoned")
        .expect("poisoning must be on the record");
    let last_fault = records
        .iter()
        .rfind(|r| r.name == "fault.fired")
        .expect("the injected fault must be on the record");
    assert_eq!(last_fault.args[0], 1, "fired on a write");
    assert_eq!(last_fault.args[1], 0, "FaultKind::Error ordinal");
    let before = &records[..poisoned_at];
    assert!(
        before.iter().any(|r| r.name == "fault.fired"),
        "a fault firing must precede the poisoning on the record"
    );
    // The run-up traffic is there too: the tiny pool guarantees reads,
    // writebacks and evictions shortly before the poisoning.
    for name in ["disk.read", "disk.write", "buffer.eviction"] {
        assert!(
            before.iter().any(|r| r.name == name),
            "expected {name} before the poisoning"
        );
    }
    // Physical I/O spans name the real page and its size.
    let pages = mem.num_pages();
    let page_size = mem.page_size() as u64;
    for r in before.iter().filter(|r| r.name.starts_with("disk.")) {
        let [page, bytes] = r.args;
        assert!(
            page < pages,
            "{} of page {page} beyond {pages} pages",
            r.name
        );
        assert_eq!(bytes, page_size, "{} of page {page}", r.name);
    }
    assert!(
        before
            .iter()
            .any(|r| r.name.starts_with("disk.") && r.args[0] > 0),
        "disk spans carry page indexes"
    );
    // The dump is a coherent timeline: sorted by (start, span id).
    assert!(records
        .windows(2)
        .all(|w| (w[0].start_ns, w[0].span) < (w[1].start_ns, w[1].span)));

    // The registry agrees with the rings.
    let snap = obs::snapshot();
    match snap.get("fault.fired") {
        Some(obs::MetricValue::Counter(n)) => assert!(*n >= 1),
        other => panic!("fault.fired missing or mistyped: {other:?}"),
    }
}
