//! Property tests for span-tree stitching: arbitrary span
//! interleavings across several worker threads must always reconstruct
//! valid trees — every recorded span's parent exists and carries the
//! same trace id, the forest contains every record exactly once (no
//! cycles, no duplication), and child spans start no earlier than
//! their parents. Instant events interleaved with the spans keep their
//! payloads whole and their per-thread order, also in dumps taken
//! while the workers are still recording.

use obs::trace::{self, SpanTree};
use proptest::prelude::*;
use std::collections::HashMap;

/// Event payload encoding: `a = worker * EVENT_STRIDE + i` (`i` counts
/// the worker's events), `b = 2a + 1`. A record mixing two events'
/// words breaks the `b` relation; a reordered dump breaks `i`'s order.
const EVENT_STRIDE: u64 = 1_000_000_000;

/// One step of a worker's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Open a span (it stays open until popped).
    Push,
    /// Close the innermost open span.
    Pop,
    /// Record an instant event under the innermost open span.
    Event,
}

fn op() -> impl Strategy<Value = Op> {
    (0..3u8).prop_map(|k| match k {
        0 => Op::Push,
        1 => Op::Pop,
        _ => Op::Event,
    })
}

/// Every event record in `records` has an untorn payload.
fn check_events(records: &[trace::SpanRecord]) -> Result<(), TestCaseError> {
    for r in records.iter().filter(|r| r.name == "event") {
        let [a, b] = r.args;
        prop_assert_eq!(b, 2 * a + 1, "torn event args {:?}", r.args);
        prop_assert_eq!(r.dur_ns, 0, "event with a duration");
    }
    Ok(())
}

/// Run one generated schedule: a root span on the driving thread,
/// `ops.len()` workers attached to its context, each pushing and
/// popping spans and recording events per its op list, while the
/// driving thread dumps the rings. Returns the records of exactly this
/// trace.
fn run_schedule(ops: &[Vec<Op>]) -> Result<(u64, Vec<trace::SpanRecord>), TestCaseError> {
    trace::set_enabled(true);
    trace::clear();
    let root_id;
    {
        let root = trace::span("root").expect("tracing enabled");
        root_id = root.id();
        let ctx = trace::current();
        std::thread::scope(|scope| {
            for (worker, thread_ops) in ops.iter().enumerate() {
                scope.spawn(move || {
                    let _attached = ctx.attach();
                    let mut stack = Vec::new();
                    let mut events = 0u64;
                    for &op in thread_ops {
                        match op {
                            Op::Push => stack.push(trace::span("work").expect("tracing enabled")),
                            Op::Pop => drop(stack.pop()),
                            Op::Event => {
                                let a = worker as u64 * EVENT_STRIDE + events;
                                trace::event("event", a, 2 * a + 1);
                                events += 1;
                            }
                        }
                    }
                    // Remaining spans unwind LIFO as the stack drops.
                });
            }
            // Dumps taken during the traffic are consistent too.
            for _ in 0..4 {
                check_events(&trace::dump())?;
            }
            Ok::<(), TestCaseError>(())
        })?;
    }
    trace::set_enabled(false);
    let records = records_of(root_id);
    Ok((root_id, records))
}

fn records_of(trace_id: u64) -> Vec<trace::SpanRecord> {
    trace::dump()
        .into_iter()
        .filter(|r| r.trace == trace_id)
        .collect()
}

fn forest_size(trees: &[SpanTree]) -> usize {
    trees.iter().map(SpanTree::span_count).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ≥4 threads, arbitrary push/pop interleavings: the stitched
    /// forest is a single tree rooted at the root span, accounts for
    /// every record exactly once, and every parent edge is valid.
    #[test]
    fn stitching_reconstructs_valid_trees(
        ops in prop::collection::vec(
            prop::collection::vec(op(), 1..40),
            4..6,
        ),
    ) {
        let (root_id, records) = run_schedule(&ops)?;
        let expected_spans = 1 + ops
            .iter()
            .flatten()
            .filter(|&&op| op != Op::Pop)
            .count();
        prop_assert_eq!(records.len(), expected_spans, "one record per opened span or event");

        // Events: untorn payloads, and each worker's events in program
        // order in the dump (which is ordered by start time).
        check_events(&records)?;
        let mut next_event = vec![0u64; ops.len()];
        for r in records.iter().filter(|r| r.name == "event") {
            let worker = (r.args[0] / EVENT_STRIDE) as usize;
            let i = r.args[0] % EVENT_STRIDE;
            prop_assert_eq!(i, next_event[worker], "worker {} events out of order", worker);
            next_event[worker] += 1;
        }
        for (worker, thread_ops) in ops.iter().enumerate() {
            let events = thread_ops.iter().filter(|&&op| op == Op::Event).count() as u64;
            prop_assert_eq!(next_event[worker], events, "worker {} lost events", worker);
        }

        let by_id: HashMap<u64, &trace::SpanRecord> =
            records.iter().map(|r| (r.span, r)).collect();
        for r in &records {
            if r.span == root_id {
                prop_assert_eq!(r.parent, 0, "the root has no parent");
                continue;
            }
            // Every non-root span's parent exists in the same trace...
            let parent = by_id.get(&r.parent);
            prop_assert!(parent.is_some(), "span {} orphaned (parent {})", r.span, r.parent);
            let parent = parent.unwrap();
            prop_assert_eq!(parent.trace, r.trace, "parent in a different trace");
            // ...and started no later (ids share one global clock).
            prop_assert!(
                parent.start_ns <= r.start_ns,
                "child {} starts before parent {}",
                r.span,
                parent.span
            );
        }

        // Stitching yields one tree holding every record: presence of a
        // cycle or a dangling edge would change the forest size.
        let trees = trace::stitch(&records);
        prop_assert_eq!(trees.len(), 1, "all spans reachable from the root");
        prop_assert_eq!(trees[0].record.span, root_id);
        prop_assert_eq!(forest_size(&trees), records.len());
    }

    /// Stitching arbitrary (possibly malformed) record sets never loses
    /// or duplicates a record and never cycles: the forest size always
    /// equals the input size, even when parents point at evicted,
    /// unknown, or mutually-referencing spans.
    #[test]
    fn stitching_is_total_on_malformed_input(
        edges in prop::collection::vec((1..24u64, 0..24u64, 0..1000u64), 1..24),
    ) {
        let mut records: Vec<trace::SpanRecord> = Vec::new();
        for (i, &(span, parent, start)) in edges.iter().enumerate() {
            // Distinct span ids (stitch indexes by id); parents are
            // unconstrained — self-loops, unknowns, cross-references.
            let span = span + (i as u64) * 24;
            records.push(trace::SpanRecord {
                trace: 1,
                span,
                parent,
                name: "m",
                thread: (i % 3) as u32,
                start_ns: start,
                dur_ns: 1,
                io: trace::IoCounts::default(),
                args: [0; 2],
            });
        }
        let trees = trace::stitch(&records);
        prop_assert_eq!(forest_size(&trees), records.len());
    }
}
