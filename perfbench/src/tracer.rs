//! The traced pass: span collection, per-layer self time, and the
//! invariants that make its numbers trustworthy.
//!
//! Spans come from two places: the program's own `obs::trace` sites
//! (`external.*`, `rtree.*`, `disk.*`, `flat.*`, `lsm.*`, `wal.*`) and
//! the benchmark's root spans around each call it times (`bench.*`).
//! Rings are dumped and cleared between operations, never while an
//! operation is running, so no record is evicted or lost.

use std::collections::{BTreeMap, HashMap};

use obs::trace::{self, SpanRecord};
use obs::MetricValue;

use crate::shim;

/// Per-thread span ring size. One 2M-item build records about 10^5
/// spans on its client thread; the rings are drained after every
/// operation, so this bounds memory, not retention.
pub const RING_CAPACITY: usize = 1 << 20;

/// Root span names of the operations a workload times. Their durations
/// are compared with the benchmark's own clock.
const OP_ROOTS: [&str; 5] = [
    "bench.build",
    "bench.probe",
    "bench.query",
    "bench.insert",
    "bench.read",
];

/// A registry snapshot with typed accessors.
pub struct Registry(obs::Snapshot);

impl Registry {
    pub fn now() -> Registry {
        Registry(obs::snapshot())
    }

    /// A counter's value, or a histogram's sum.
    pub fn total(&self, name: &str) -> u64 {
        match self.0.get(name) {
            Some(MetricValue::Counter(n)) => *n,
            Some(MetricValue::Histogram(h)) => h.sum(),
            _ => 0,
        }
    }
}

/// Registry movement between two snapshots.
pub struct RegistryDelta {
    before: Registry,
    after: Registry,
}

impl RegistryDelta {
    pub fn total(&self, name: &str) -> u64 {
        self.after.total(name) - self.before.total(name)
    }
}

/// Collects and folds the spans of one traced pass.
pub struct Tracer {
    before: Registry,
    recorded_at_start: u64,
    dropped_at_start: u64,
    absorbed: u64,
    /// Σ duration of `OP_ROOTS` spans.
    pub op_root_ns: u64,
    /// Σ self time of every span on an op root's own thread, over the
    /// op roots' traces; equals `op_root_ns` when the trees are whole.
    pub op_self_ns: u64,
    /// Σ pages read by every trace root, cross-thread children included.
    pub root_pages_read: u64,
    /// Σ duration per span name, on any thread.
    pub span_ns: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// Turn on registry metrics, span tracing and shim timing.
    pub fn start() -> Tracer {
        trace::clear();
        let before = Registry::now();
        obs::set_enabled(true);
        trace::set_enabled(true);
        shim::set_timing(true);
        Tracer {
            before,
            recorded_at_start: trace::spans_recorded(),
            dropped_at_start: trace::spans_dropped(),
            absorbed: 0,
            op_root_ns: 0,
            op_self_ns: 0,
            root_pages_read: 0,
            span_ns: BTreeMap::new(),
        }
    }

    /// Dump and clear every ring, folding the records in. Call only
    /// when no operation is in flight on any thread.
    pub fn drain(&mut self) {
        let records = trace::dump();
        trace::clear();
        self.absorb(&records);
    }

    fn absorb(&mut self, records: &[SpanRecord]) {
        self.absorbed += records.len() as u64;
        let index: HashMap<u64, usize> = records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.span, i))
            .collect();
        // Children on the parent's thread nest inside it; children on
        // other threads run beside it and are not subtracted.
        let mut child_ns = vec![0u64; records.len()];
        for r in records {
            if let Some(&p) = index.get(&r.parent) {
                if records[p].thread == r.thread {
                    child_ns[p] += r.dur_ns;
                }
            }
        }
        let op_roots: HashMap<u64, u32> = records
            .iter()
            .filter(|r| r.parent == 0 && OP_ROOTS.contains(&r.name))
            .map(|r| (r.trace, r.thread))
            .collect();
        for (i, r) in records.iter().enumerate() {
            let self_ns = r.dur_ns.saturating_sub(child_ns[i]);
            *self.span_ns.entry(r.name).or_insert(0) += r.dur_ns;
            if op_roots.get(&r.trace) == Some(&r.thread) {
                self.op_self_ns += self_ns;
                if r.parent == 0 {
                    self.op_root_ns += r.dur_ns;
                }
            }
        }
        for tree in trace::stitch(records) {
            if tree.record.parent == 0 {
                self.root_pages_read += pages_read(&tree);
            }
        }
    }

    /// Drain the last records, switch everything off, and check that no
    /// span was evicted or lost.
    pub fn finish(mut self) -> Traced {
        self.drain();
        trace::set_enabled(false);
        obs::set_enabled(false);
        shim::set_timing(false);
        let recorded = trace::spans_recorded() - self.recorded_at_start;
        let dropped = trace::spans_dropped() - self.dropped_at_start;
        let lost = recorded.saturating_sub(self.absorbed + dropped);
        let before = std::mem::replace(&mut self.before, Registry(obs::Snapshot::default()));
        Traced {
            delta: RegistryDelta {
                before,
                after: Registry::now(),
            },
            dropped,
            lost,
            tracer: self,
        }
    }
}

/// Pages read under `tree`, on every thread. A span's own count covers
/// its descendants on its thread, so a descendant adds its count only
/// where it runs on another thread than its parent, at any depth.
/// (`SpanTree::io_rollup` stops at the root's direct children, so it
/// misses the slab workers under `external.pack`.)
fn pages_read(tree: &trace::SpanTree) -> u64 {
    fn spawned(node: &trace::SpanTree) -> u64 {
        node.children
            .iter()
            .map(|c| {
                let own = if c.record.thread != node.record.thread {
                    c.record.io.pages_read
                } else {
                    0
                };
                own + spawned(c)
            })
            .sum()
    }
    tree.record.io.pages_read + spawned(tree)
}

/// A finished traced pass.
pub struct Traced {
    pub delta: RegistryDelta,
    /// Records evicted from a full ring during the pass.
    pub dropped: u64,
    /// Records cleared before they were dumped.
    pub lost: u64,
    pub tracer: Tracer,
}

impl Traced {
    /// Seconds of span time under `name`.
    pub fn span_s(&self, name: &str) -> f64 {
        *self.tracer.span_ns.get(name).unwrap_or(&0) as f64 / 1e9
    }

    /// The invariants every traced pass must meet, given the wall time
    /// the workload measured around its timed operations.
    pub fn check(&self, op_wall_ns: u64, out: &mut crate::report::Outcome) {
        out.check(self.dropped == 0, || {
            format!("{} span records were evicted from full rings", self.dropped)
        });
        out.check(self.lost == 0, || {
            format!(
                "{} span records were cleared before being dumped",
                self.lost
            )
        });
        let t = &self.tracer;
        out.check(t.op_self_ns == t.op_root_ns, || {
            format!(
                "op span trees are not whole: self times sum to {} ns, roots to {} ns",
                t.op_self_ns, t.op_root_ns
            )
        });
        let gap = (t.op_self_ns as f64 - op_wall_ns as f64).abs();
        out.check(op_wall_ns > 0 && gap <= 0.05 * op_wall_ns as f64, || {
            format!(
                "layer self times sum to {} ns, but the timed ops took {} ns",
                t.op_self_ns, op_wall_ns
            )
        });
        let reads = self.delta.total("disk.reads");
        out.check(t.root_pages_read == reads, || {
            format!(
                "trace roots read {} pages, the registry counted {} disk.reads",
                t.root_pages_read, reads
            )
        });
    }
}
