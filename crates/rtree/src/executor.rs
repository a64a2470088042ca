//! Parallel query serving over one shared index backend.
//!
//! The paper's experiments stream queries one at a time and count buffer
//! misses; its future work points at "a parallel shared-nothing
//! platform". This module is the serving half of that: a batch of
//! intersection queries fanned across a fixed-size pool of scoped worker
//! threads, all reading one `&dyn SpatialIndex` — the paged tree through
//! its sharded buffer pool, the flat tier straight off the mmap, or an
//! LSM tree across all its components. Queries take `&self` and each
//! backend is internally synchronized, so no cloning, snapshotting, or
//! per-thread state is needed.
//!
//! Work distribution is a single atomic cursor over the batch (the same
//! self-balancing scheme `StrPacker::with_threads` uses for packing):
//! each worker claims the next unclaimed query, so a slow query — one
//! with many buffer misses — never stalls the queries behind it on the
//! same worker.
//!
//! The report pairs every query's result (in input order) with the
//! batch-wide [`BufferStats`] delta, keeping the paper's measurement
//! discipline: *disk accesses* for a batch are pool misses during the
//! batch, which stay exact under concurrency because coalesced duplicate
//! reads count as hits for the waiters. Backends without a buffer pool
//! (flat mmap, memtables) report a zero delta — they perform no paged
//! reads, so zero is the true count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use geom::{Point, Rect};
use obs::{Histogram, HistogramSnapshot, LazyCounter, LazyHistogram};
use parking_lot::Mutex;
use storage::BufferStats;

use crate::index::SpatialIndex;
use crate::Result;

/// Mirrors of the batch-local accounting into the global registry, so a
/// process-wide snapshot sees executor latency without holding on to
/// every [`BatchReport`].
static EXEC_BATCHES: LazyCounter = LazyCounter::new("executor.batches");
static EXEC_QUERY_NS: LazyHistogram = LazyHistogram::new("executor.query_ns");

/// One query in a batch.
#[derive(Debug, Clone)]
pub enum BatchQuery<const D: usize> {
    /// All items whose rectangle intersects the query window (§2.1).
    Region(Rect<D>),
    /// All items whose rectangle contains the point.
    Point(Point<D>),
}

/// Result of one executed batch: per-query hit lists in input order plus
/// batch-wide cost accounting.
#[derive(Debug)]
pub struct BatchReport<const D: usize> {
    /// `results[i]` is the hit list of `queries[i]`, each hit a
    /// `(rectangle, item id)` pair in the tree's traversal order.
    pub results: Vec<Vec<(Rect<D>, u64)>>,
    /// Buffer-pool counter movement attributable to this batch
    /// (`stats_after.since(stats_before)`); `misses` is the paper's
    /// "disk accesses" for the whole batch.
    pub stats: BufferStats,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
    /// Worker threads actually used.
    pub threads: usize,
    /// Per-query latency distribution in nanoseconds, merged across
    /// workers. Always collected: the cost is two clock reads per query,
    /// dwarfed by the traversal itself.
    pub latency: HistogramSnapshot,
    /// Queries served by each worker (length == `threads`). Uneven
    /// counts are expected — the atomic cursor balances *time*, not
    /// query count — but a worker stuck at 0 on a large batch means a
    /// scheduling problem.
    pub per_thread_queries: Vec<u64>,
}

impl<const D: usize> BatchReport<D> {
    /// Queries served per second of wall-clock time.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.results.len() as f64 / secs
        }
    }

    /// Total hits across every query in the batch.
    pub fn total_matches(&self) -> u64 {
        self.results.iter().map(|r| r.len() as u64).sum()
    }
}

/// A batch query engine over one shared [`SpatialIndex`] backend.
///
/// Holds only a shared borrow: the executor can be created per batch for
/// free, and several executors may serve the same index. Any concrete
/// backend reference coerces at the call site, so
/// `QueryExecutor::new(&tree)` keeps working unchanged.
///
/// ```
/// use std::sync::Arc;
/// use geom::Rect;
/// use rtree::{BatchQuery, BulkLoader, Entry, NodeCapacity, QueryExecutor};
/// use storage::{BufferPool, MemDisk};
///
/// let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 8));
/// let entries: Vec<Entry<2>> = (0..100)
///     .map(|i| {
///         let x = (i % 10) as f64;
///         let y = (i / 10) as f64;
///         Entry::data(Rect::new([x, y], [x + 0.5, y + 0.5]), i as u64)
///     })
///     .collect();
/// let tree = BulkLoader::new(NodeCapacity::new(16).unwrap())
///     .load(pool, entries, &mut |es: &mut Vec<Entry<2>>, _| {
///         es.sort_by(|a, b| a.rect.lo(0).total_cmp(&b.rect.lo(0)));
///     })
///     .unwrap();
///
/// let queries = vec![
///     BatchQuery::Region(Rect::new([0.0, 0.0], [3.0, 3.0])),
///     BatchQuery::Point([5.2, 5.2].into()),
/// ];
/// let report = QueryExecutor::new(&tree).run_batch(&queries, 2).unwrap();
/// assert_eq!(report.results.len(), 2);
/// assert_eq!(report.results[0].len(), 16);
/// assert_eq!(report.results[1], vec![(Rect::new([5.0, 5.0], [5.5, 5.5]), 55)]);
/// ```
pub struct QueryExecutor<'t, const D: usize> {
    index: &'t dyn SpatialIndex<D>,
}

impl<'t, const D: usize> QueryExecutor<'t, D> {
    /// Serve queries from `index` (a paged tree, flat tree, memtable, or
    /// LSM tree).
    pub fn new(index: &'t dyn SpatialIndex<D>) -> Self {
        Self { index }
    }

    /// Run every query in `queries` across up to `threads` workers and
    /// collect the results in input order.
    ///
    /// `threads` is clamped to `1..=queries.len()`; with one thread the
    /// batch runs on the calling thread with no spawns, so a
    /// single-threaded batch is also the oracle for the concurrent one.
    /// The first query error aborts the batch (remaining queries may or
    /// may not have run); per-query error reporting isn't needed on a
    /// read path where every worker shares one tree and one pool — an
    /// I/O error for one worker is an I/O error for all of them.
    pub fn run_batch(&self, queries: &[BatchQuery<D>], threads: usize) -> Result<BatchReport<D>> {
        let threads = threads.clamp(1, queries.len().max(1));
        let before = self.index.buffer_stats().unwrap_or_default();
        let start = Instant::now();

        let _batch_span = obs::trace::span("executor.batch");
        // Captured before spawning so worker-side spans join the
        // batch's trace even though they run on other threads.
        let ctx = obs::trace::current();

        let mut results: Vec<Vec<(Rect<D>, u64)>> = Vec::new();
        let latency;
        let per_thread_queries;
        if threads == 1 {
            let hist = Histogram::new();
            for q in queries {
                let t0 = Instant::now();
                let qspan = obs::trace::span("executor.query");
                let hits = self.run_one(q)?;
                drop(qspan);
                results.push(hits);
                let ns = t0.elapsed().as_nanos() as u64;
                hist.record(ns);
                EXEC_QUERY_NS.record(ns);
            }
            latency = hist.snapshot();
            per_thread_queries = vec![queries.len() as u64];
        } else {
            results.resize(queries.len(), Vec::new());
            let cursor = AtomicUsize::new(0);
            let failure: Mutex<Option<crate::RTreeError>> = Mutex::new(None);
            let out = Mutex::new(&mut results);
            // Per-worker accounting merged once at worker exit, like the
            // result buffers: (merged latency, per-worker query counts).
            let accounting = Mutex::new((HistogramSnapshot::empty(), Vec::new()));
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        // Claim query slots until the batch is drained or
                        // some worker failed. Results are buffered
                        // locally and merged once per worker, so the
                        // output mutex is uncontended in steady state.
                        let _attached = ctx.attach();
                        let mut local: Vec<(usize, Vec<(Rect<D>, u64)>)> = Vec::new();
                        let hist = Histogram::new();
                        let mut served = 0u64;
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= queries.len() || failure.lock().is_some() {
                                break;
                            }
                            let t0 = Instant::now();
                            let _qspan = obs::trace::span("executor.query");
                            match self.run_one(&queries[i]) {
                                Ok(hits) => {
                                    let ns = t0.elapsed().as_nanos() as u64;
                                    hist.record(ns);
                                    EXEC_QUERY_NS.record(ns);
                                    served += 1;
                                    local.push((i, hits));
                                }
                                Err(e) => {
                                    *failure.lock() = Some(e);
                                    break;
                                }
                            }
                        }
                        let mut out = out.lock();
                        for (i, hits) in local {
                            out[i] = hits;
                        }
                        let mut acc = accounting.lock();
                        acc.0.merge(&hist.snapshot());
                        acc.1.push(served);
                    });
                }
            });
            if let Some(e) = failure.into_inner() {
                return Err(e);
            }
            (latency, per_thread_queries) = accounting.into_inner();
        }

        EXEC_BATCHES.inc();
        Ok(BatchReport {
            results,
            stats: self.index.buffer_stats().unwrap_or_default().since(&before),
            elapsed: start.elapsed(),
            threads,
            latency,
            per_thread_queries,
        })
    }

    fn run_one(&self, query: &BatchQuery<D>) -> Result<Vec<(Rect<D>, u64)>> {
        match query {
            BatchQuery::Region(rect) => self.index.query(rect),
            BatchQuery::Point(point) => self.index.query_point(point),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BulkLoader, Entry, NodeCapacity, RTree};
    use std::sync::Arc;
    use storage::{BufferPool, Disk, MemDisk};

    fn grid_tree(n: u64) -> RTree<2> {
        let pool = Arc::new(BufferPool::for_threads(
            Arc::new(MemDisk::default_size()) as Arc<dyn Disk>,
            32,
            4,
        ));
        let side = (n as f64).sqrt().ceil() as u64;
        let entries: Vec<Entry<2>> = (0..n)
            .map(|i| {
                let x = (i % side) as f64;
                let y = (i / side) as f64;
                Entry::data(Rect::new([x, y], [x + 0.5, y + 0.5]), i)
            })
            .collect();
        BulkLoader::new(NodeCapacity::new(16).unwrap())
            .load(pool, entries, &mut |es: &mut Vec<Entry<2>>, _| {
                es.sort_by(|a, b| {
                    a.rect
                        .lo(0)
                        .total_cmp(&b.rect.lo(0))
                        .then(a.rect.lo(1).total_cmp(&b.rect.lo(1)))
                });
            })
            .unwrap()
    }

    fn mixed_queries(n: usize) -> Vec<BatchQuery<2>> {
        (0..n)
            .map(|i| {
                let c = (i % 50) as f64;
                if i % 3 == 0 {
                    BatchQuery::Point([c + 0.25, c + 0.25].into())
                } else {
                    BatchQuery::Region(Rect::new([c, c], [c + 4.0, c + 4.0]))
                }
            })
            .collect()
    }

    #[test]
    fn parallel_batch_matches_single_threaded_oracle() {
        let tree = grid_tree(2_500);
        let queries = mixed_queries(64);
        let exec = QueryExecutor::new(&tree);
        let oracle = exec.run_batch(&queries, 1).unwrap();
        for threads in [2, 4, 8] {
            let par = exec.run_batch(&queries, threads).unwrap();
            assert_eq!(par.results, oracle.results, "{threads}-thread mismatch");
            assert_eq!(par.threads, threads);
        }
    }

    #[test]
    fn report_accounts_stats_and_throughput() {
        let tree = grid_tree(2_500);
        let queries = mixed_queries(32);
        let report = QueryExecutor::new(&tree).run_batch(&queries, 4).unwrap();
        assert_eq!(report.results.len(), 32);
        assert!(report.total_matches() > 0);
        // Every node visit is a pool request; a 32-query batch cannot be
        // free.
        assert!(report.stats.hits + report.stats.misses > 0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn report_carries_latency_histogram_and_per_thread_counts() {
        let tree = grid_tree(2_500);
        let queries = mixed_queries(48);
        for threads in [1usize, 4] {
            let report = QueryExecutor::new(&tree)
                .run_batch(&queries, threads)
                .unwrap();
            assert_eq!(
                report.latency.count(),
                48,
                "{threads}: one sample per query"
            );
            assert_eq!(report.per_thread_queries.len(), threads);
            assert_eq!(
                report.per_thread_queries.iter().sum::<u64>(),
                48,
                "{threads}: every query attributed to exactly one worker"
            );
            // Percentiles are ordered and bounded by the recorded max.
            let (p50, p99) = (
                report.latency.percentile(0.50),
                report.latency.percentile(0.99),
            );
            assert!(p50 <= p99 && p99 <= report.latency.max());
        }
    }

    #[test]
    fn thread_count_is_clamped() {
        let tree = grid_tree(100);
        let queries = mixed_queries(2);
        let report = QueryExecutor::new(&tree).run_batch(&queries, 64).unwrap();
        assert_eq!(report.threads, 2);
        let empty = QueryExecutor::new(&tree).run_batch(&[], 8).unwrap();
        assert_eq!(empty.results.len(), 0);
        assert_eq!(empty.threads, 1);
    }
}
