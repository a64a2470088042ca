//! A traced compaction says how much it wrote: the `lsm.compact` span
//! carries `[victims, items packed]` in its args.
//!
//! Tracing is process-wide state, so this lives in its own
//! integration-test binary; spans are still picked out by the test's
//! own trace id.

use std::sync::Arc;

use geom::Rect;
use lsm::{LsmOptions, LsmTree, MemSegmentStore};
use storage::{MemDisk, MemLogStore};

#[test]
fn inline_compaction_span_records_victims_and_items_packed() {
    let opts = LsmOptions {
        memtable_items: 8,
        max_levels: 4,
        ..LsmOptions::default()
    };
    let tree = LsmTree::<2>::open(
        Arc::new(MemDisk::default_size()),
        MemLogStore::new(),
        Arc::new(MemSegmentStore::new()),
        opts,
    )
    .unwrap();

    obs::trace::set_enabled(true);
    let trace = {
        let root = obs::trace::span("test.ingest").unwrap();
        // Three seals: [8], then [16] (folds the equal level), then
        // [16, 8] (the larger level is kept).
        for i in 0..25u64 {
            let x = i as f64;
            tree.insert(Rect::new([x, 0.0], [x + 0.5, 0.5]), i).unwrap();
        }
        root.trace_id()
    };
    obs::trace::set_enabled(false);

    let args: Vec<[u64; 2]> = obs::trace::dump()
        .iter()
        .filter(|r| r.trace == trace && r.name == "lsm.compact")
        .map(|r| r.args)
        .collect();
    assert_eq!(args, [[0, 8], [1, 16], [0, 8]]);
    assert_eq!(tree.stats().items_packed, 8 + 16 + 8);
}
