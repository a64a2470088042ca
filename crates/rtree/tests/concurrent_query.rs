//! Concurrency stress for the parallel query path.
//!
//! A packed 100k-entry tree is queried by 8 threads through a deliberately
//! tiny sharded pool (16 pages — far below the working set), so every
//! pathology the sharded design must survive is constantly exercised:
//! concurrent misses and installs, evictions of pages other threads are
//! reading, and in-flight read coalescing. Correctness is judged against a
//! single-threaded oracle; the same workload then runs over a `FaultDisk`
//! schedule so the error paths of the fault-injection suite are hit
//! *concurrently* too. Each test runs under the `within` watchdog, so a
//! deadlock fails it instead of hanging the suite.

use std::sync::Arc;
use std::time::Duration;

use geom::{Point, Rect};
use rand::{Rng, SeedableRng};
use rtree::{BatchQuery, BulkLoader, Entry, NodeCapacity, QueryExecutor, RTree};
use storage::{
    within, Disk, FaultDisk, FaultKind, FaultOp, FaultSpec, MemDisk, ShardedBufferPool, Trigger,
};

const ENTRIES: usize = 100_000;
const POOL_PAGES: usize = 16;
const THREADS: usize = 8;

fn uniform_entries(n: usize, seed: u64) -> Vec<Entry<2>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let x: f64 = rng.gen_range(0.0..0.99);
            let y: f64 = rng.gen_range(0.0..0.99);
            let s: f64 = rng.gen_range(0.0..0.01);
            Entry::data(Rect::new([x, y], [x + s, y + s]), i as u64)
        })
        .collect()
}

/// STR ordering (paper §4): sort by x, carve into vertical slabs of
/// `slab` entries, sort each slab by y. Applied per level by the bulk
/// loader.
fn str_order(entries: &mut [Entry<2>], cap: usize) {
    entries.sort_by(|a, b| a.rect.center_coord(0).total_cmp(&b.rect.center_coord(0)));
    let n = entries.len();
    let leaves = n.div_ceil(cap);
    let slabs = (leaves as f64).sqrt().ceil() as usize;
    let slab = slabs.max(1) * cap;
    for chunk in entries.chunks_mut(slab) {
        chunk.sort_by(|a, b| a.rect.center_coord(1).total_cmp(&b.rect.center_coord(1)));
    }
}

fn packed_tree(disk: Arc<dyn Disk>, entries: Vec<Entry<2>>) -> RTree<2> {
    let cap = NodeCapacity::new(100).unwrap();
    // Build with a roomy pool setting… the pool is bypassed by the
    // streaming build path anyway; what matters is the capacity we
    // squeeze it to afterwards.
    let pool = Arc::new(ShardedBufferPool::for_threads(disk, 512, THREADS));
    let tree = BulkLoader::new(cap)
        .load(pool, entries, &mut |es: &mut Vec<Entry<2>>, _| {
            str_order(es, 100)
        })
        .unwrap();
    tree.pool().set_capacity(POOL_PAGES).unwrap();
    tree.pool().reset_stats();
    tree
}

fn mixed_queries(n: usize, seed: u64) -> Vec<BatchQuery<2>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                let p: [f64; 2] = [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
                BatchQuery::Point(Point::from(p))
            } else {
                let cx: f64 = rng.gen_range(0.0..1.0);
                let cy: f64 = rng.gen_range(0.0..1.0);
                let e: f64 = rng.gen_range(0.005..0.05);
                BatchQuery::Region(Rect::new(
                    [(cx - e).max(0.0), (cy - e).max(0.0)],
                    [(cx + e).min(1.0), (cy + e).min(1.0)],
                ))
            }
        })
        .collect()
}

#[test]
fn eight_threads_on_sixteen_pages_match_oracle() {
    within(Duration::from_secs(120), || {
        let tree = packed_tree(
            Arc::new(MemDisk::default_size()),
            uniform_entries(ENTRIES, 7),
        );
        let queries = mixed_queries(256, 8);
        let exec = QueryExecutor::new(&tree);

        let oracle = exec.run_batch(&queries, 1).unwrap();
        assert!(oracle.total_matches() > 0, "degenerate workload");

        let par = exec.run_batch(&queries, THREADS).unwrap();
        assert_eq!(par.threads, THREADS);
        assert_eq!(
            par.results, oracle.results,
            "parallel results diverged from the single-threaded oracle"
        );
        // The pool is 16 pages against a >1000-page tree: the batch cannot
        // avoid misses, and the miss count stays exact under concurrency.
        assert!(par.stats.misses > 0);
        assert_eq!(tree.pool().pinned_count(), 0, "a query leaked a pin");
    });
}

#[test]
fn stress_under_fault_schedule_stays_consistent() {
    within(Duration::from_secs(120), || {
        let mem: Arc<dyn Disk> = Arc::new(MemDisk::default_size());
        let faulted = Arc::new(FaultDisk::new(mem));
        // Build cleanly, then arm: every 97th read errors — with a 16-page
        // pool over 100k entries that's a steady drizzle of failures in the
        // middle of concurrent traversals.
        faulted.set_armed(false);
        let tree = packed_tree(
            faulted.clone() as Arc<dyn Disk>,
            uniform_entries(ENTRIES, 9),
        );
        faulted.push(FaultSpec {
            op: FaultOp::Read,
            kind: FaultKind::Error,
            trigger: Trigger::EveryNth(97),
        });
        faulted.set_armed(true);

        let queries = mixed_queries(192, 10);
        // Workers run independent slices so one injected error does not
        // abort the whole batch; successes must still agree with the oracle.
        let outcomes: Vec<Vec<Option<usize>>> = std::thread::scope(|scope| {
            queries
                .chunks(queries.len() / THREADS)
                .map(|chunk| {
                    let tree = &tree;
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|q| {
                                let res = match q {
                                    BatchQuery::Region(r) => tree.query_region(r),
                                    BatchQuery::Point(p) => tree.query_point(p),
                                };
                                res.ok().map(|hits| hits.len())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let flat: Vec<Option<usize>> = outcomes.into_iter().flatten().collect();
        assert_eq!(flat.len(), queries.len());
        assert!(flat.iter().any(Option::is_some), "every query failed");
        assert!(
            faulted.total_fired() > 0,
            "fault schedule never fired; the test proves nothing"
        );
        assert_eq!(tree.pool().pinned_count(), 0, "error path leaked a pin");

        // Disarm and re-run everything single-threaded: the pool must have
        // cached no partial or poisoned state, so every query now succeeds
        // and matches a fresh oracle.
        faulted.set_armed(false);
        let exec = QueryExecutor::new(&tree);
        let healed = exec.run_batch(&queries, 1).unwrap();
        for (i, (prev, now)) in flat.iter().zip(healed.results.iter()).enumerate() {
            if let Some(len) = prev {
                assert_eq!(*len, now.len(), "query {i} changed answer after faults");
            }
        }
        assert_eq!(tree.pool().pinned_count(), 0);
    });
}
