//! Concurrency contract of the sharded buffer pool.
//!
//! Four properties are load-bearing for the parallel query engine and
//! are pinned down here: duplicate in-flight misses coalesce into one
//! disk read, every parked reader wakes when that read lands or fails,
//! resident pages are readable by many threads *at the same time* (not
//! merely in some serialized order), and a multi-shard pool under mixed
//! read/write pressure never loses a write or corrupts a counter.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use storage::{
    within, BufferPool, Disk, FaultDisk, FaultKind, FaultOp, FaultSpec, IoStats, LatencyDisk,
    MemDisk, PageId, ShardedBufferPool, Trigger,
};

fn mem_disk_with(pages: usize, page_size: usize) -> Arc<MemDisk> {
    let disk = Arc::new(MemDisk::new(page_size));
    for _ in 0..pages {
        disk.allocate().unwrap();
    }
    disk
}

/// Satellite: concurrent misses on one page must issue exactly one disk
/// read. The disk is slowed so all four threads are guaranteed to arrive
/// while the first read is still in flight; the `Disk` read counter is
/// the witness.
#[test]
fn duplicate_inflight_misses_issue_one_disk_read() {
    within(Duration::from_secs(20), || {
        let mem = mem_disk_with(4, 64);
        let slow = Arc::new(LatencyDisk::new(mem.clone(), Duration::from_millis(50)));
        let pool = Arc::new(ShardedBufferPool::for_threads(slow as Arc<dyn Disk>, 8, 4));

        let start = Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = &pool;
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    pool.with_page(PageId(2), |bytes| assert_eq!(bytes.len(), 64))
                        .unwrap();
                });
            }
        });

        // One physical read; one miss (the leader); the three coalesced
        // waiters were served from memory and count as hits.
        assert_eq!(mem.stats().reads(), 1, "coalescing failed: duplicate read");
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 3);
        assert_eq!(pool.pinned_count(), 0);
    });
}

/// A disk whose first read waits until [`open`](Gate::open) is called,
/// so a test can park other readers behind it; every read then goes to
/// the wrapped disk.
struct Gate {
    inner: Arc<dyn Disk>,
    entered: AtomicBool,
    opened: AtomicBool,
}

impl Gate {
    fn new(inner: Arc<dyn Disk>) -> Self {
        Self {
            inner,
            entered: AtomicBool::new(false),
            opened: AtomicBool::new(false),
        }
    }

    fn wait_entered(&self) {
        while !self.entered.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn open(&self) {
        self.opened.store(true, Ordering::Release);
    }
}

impl Disk for Gate {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
    fn allocate(&self) -> storage::Result<PageId> {
        self.inner.allocate()
    }
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> storage::Result<()> {
        if !self.entered.swap(true, Ordering::AcqRel) {
            while !self.opened.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        self.inner.read_page(id, buf)
    }
    fn write_page(&self, id: PageId, buf: &[u8]) -> storage::Result<()> {
        self.inner.write_page(id, buf)
    }
    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

/// The leader's read fails while three readers are parked behind it:
/// the failure must wake them, one must lead a fresh read that
/// succeeds, every call must return, and `misses` must still equal the
/// reads that reached the media.
#[test]
fn failed_leader_read_wakes_parked_readers() {
    within(Duration::from_secs(20), || {
        let mem = mem_disk_with(4, 64);
        let faulty = Arc::new(FaultDisk::new(mem.clone()));
        faulty.push(FaultSpec {
            op: FaultOp::Read,
            kind: FaultKind::Error,
            trigger: Trigger::OnceAt(0),
        });
        let gate = Arc::new(Gate::new(faulty));
        let pool = Arc::new(BufferPool::new(gate.clone() as Arc<dyn Disk>, 4));

        let (leader_res, others) = std::thread::scope(|scope| {
            let leader = scope.spawn(|| pool.with_page(PageId(2), |_| {}));
            gate.wait_entered();
            let others: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| pool.with_page(PageId(2), |b| b.len())))
                .collect();
            // Give the three time to park on the in-flight marker; one
            // that has not parked yet still coalesces or leads.
            std::thread::sleep(Duration::from_millis(100));
            gate.open();
            let others: Vec<_> = others.into_iter().map(|h| h.join().unwrap()).collect();
            (leader.join().unwrap(), others)
        });

        assert!(leader_res.is_err(), "the faulted read must surface");
        for r in others {
            assert_eq!(r.unwrap(), 64, "a parked reader failed or was lost");
        }
        let s = pool.stats();
        assert_eq!(mem.stats().reads(), 1, "one successful physical read");
        assert_eq!(s.misses, mem.stats().reads());
        assert_eq!(s.hits, 2);
        assert_eq!(pool.pinned_count(), 0);
    });
}

/// Many rounds of four threads racing on one not-yet-resident page over
/// a slow disk: whether a thread parks, leads or finds the page
/// resident, it must return, and each round reads the page once.
#[test]
fn racing_rounds_on_one_page_never_lose_a_wakeup() {
    within(Duration::from_secs(60), || {
        const ROUNDS: u64 = 200;
        const THREADS: u64 = 4;
        let mem = mem_disk_with(ROUNDS as usize, 64);
        let slow = Arc::new(LatencyDisk::new(mem.clone(), Duration::from_micros(200)));
        let pool = ShardedBufferPool::for_threads(slow as Arc<dyn Disk>, 8, THREADS as usize);
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for round in 0..ROUNDS {
                        start.wait();
                        pool.with_page(PageId(round), |_| {}).unwrap();
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, ROUNDS * THREADS);
        assert_eq!(s.misses, ROUNDS, "one read per round");
        assert_eq!(s.misses, mem.stats().reads());
    });
}

/// Readers of one resident page must be able to run *simultaneously*: all
/// four threads rendezvous on a barrier while inside their `with_page`
/// closures, which is impossible if page reads exclude each other (the
/// old monolithic pool held its global mutex across the closure — this
/// test deadlocks on that design).
#[test]
fn same_page_reads_run_concurrently() {
    within(Duration::from_secs(20), || {
        let disk = mem_disk_with(2, 64);
        let pool = Arc::new(BufferPool::new(disk as Arc<dyn Disk>, 4));
        // Warm the page so every thread takes the hit path.
        pool.with_page(PageId(0), |_| {}).unwrap();

        let inside = Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = &pool;
                let inside = &inside;
                scope.spawn(move || {
                    pool.with_page(PageId(0), |_| {
                        // Blocks until all 4 threads hold the page at once.
                        inside.wait();
                    })
                    .unwrap();
                });
            }
        });
        assert_eq!(pool.stats().hits, 4);
        assert_eq!(pool.stats().misses, 1);
    });
}

/// A reader in one shard must not be blocked by a long read in another
/// shard — that is the point of sharding. The slow reader parks inside
/// its closure; the fast thread must still complete a read of a page in
/// a different shard before the slow one releases.
#[test]
fn reads_in_distinct_shards_do_not_serialize() {
    within(Duration::from_secs(20), || {
        let disk = mem_disk_with(64, 64);
        let pool = Arc::new(ShardedBufferPool::with_shards(disk as Arc<dyn Disk>, 16, 4));

        // Find two pages living in different shards by observing per-shard
        // miss counters.
        let shard_of = |pool: &ShardedBufferPool, id: PageId| -> usize {
            let before: Vec<u64> = (0..pool.shard_count())
                .map(|i| pool.shard_stats(i).misses + pool.shard_stats(i).hits)
                .collect();
            pool.with_page(id, |_| {}).unwrap();
            (0..pool.shard_count())
                .find(|&i| pool.shard_stats(i).misses + pool.shard_stats(i).hits > before[i])
                .expect("access must land in some shard")
        };
        let a = PageId(0);
        let sa = shard_of(&pool, a);
        let b = (1..64)
            .map(PageId)
            .find(|&id| shard_of(&pool, id) != sa)
            .expect("64 pages over 4 shards must span two shards");

        let hold = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|scope| {
            let pool_a = &pool;
            let hold_a = &hold;
            let release_a = &release;
            scope.spawn(move || {
                pool_a
                    .with_page(a, |_| {
                        hold_a.wait(); // slow reader is now inside shard(a)
                        release_a.wait(); // parked until the fast reader is done
                    })
                    .unwrap();
            });
            hold.wait();
            // Slow reader holds page `a`; a read in the other shard must
            // complete regardless.
            pool.with_page(b, |_| {}).unwrap();
            release.wait();
        });
    });
}

/// Mixed read/write pressure on a small multi-shard pool: every written
/// value must survive (write-backs and re-reads included) and the hit +
/// miss total must equal the number of requests — counters are atomics
/// and must not lose increments.
#[test]
fn multi_shard_stress_preserves_data_and_counters() {
    within(Duration::from_secs(60), || {
        const PAGES: u64 = 32;
        const THREADS: u64 = 8;
        const OPS: u64 = 400;

        let disk = mem_disk_with(PAGES as usize, 64);
        let pool = Arc::new(ShardedBufferPool::for_threads(
            disk as Arc<dyn Disk>,
            8,
            THREADS as usize,
        ));
        let writes_done = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let pool = &pool;
                let writes_done = &writes_done;
                scope.spawn(move || {
                    // Deterministic per-thread page walk, coprime stride.
                    let mut x = t * 7 + 1;
                    for i in 0..OPS {
                        x = (x * 29 + 13) % PAGES;
                        let id = PageId(x);
                        if i % 4 == t % 4 {
                            // Each page byte t is owned by thread t: no
                            // write-write races on a byte, so every written
                            // value must be observable later.
                            pool.with_page_mut(id, |bytes| bytes[t as usize] = t as u8 + 1)
                                .unwrap();
                            writes_done.fetch_add(1, Ordering::Relaxed);
                        } else {
                            pool.with_page(id, |bytes| {
                                let v = bytes[t as usize];
                                assert!(v == 0 || v == t as u8 + 1, "byte {t} torn: {v}");
                            })
                            .unwrap();
                        }
                    }
                });
            }
        });

        let s = pool.stats();
        assert_eq!(s.hits + s.misses, THREADS * OPS, "request counter lost");
        assert!(writes_done.load(Ordering::Relaxed) > 0);
        assert_eq!(pool.pinned_count(), 0);

        // Flush and verify through the raw disk: every thread's byte is its
        // own value on any page it wrote.
        pool.flush().unwrap();
        pool.clear().unwrap();
        for p in 0..PAGES {
            pool.with_page(PageId(p), |bytes| {
                for (t, &b) in bytes.iter().enumerate().take(THREADS as usize) {
                    assert!(b == 0 || b == t as u8 + 1);
                }
            })
            .unwrap();
        }
    });
}

/// Regression test for reset semantics under concurrency: `reset` via
/// [`take_stats`] must snapshot-and-zero without losing increments, so
/// the paper's measurement identity `misses == physical reads` holds
/// exactly when the taken snapshots are summed with the residue — even
/// with resets racing live traffic. (The old `store(0)` reset silently
/// wiped any increment landing between its read and its store.)
///
/// [`take_stats`]: ShardedBufferPool::take_stats
#[test]
fn take_stats_loses_no_counts_under_traffic() {
    within(Duration::from_secs(60), || {
        const THREADS: u64 = 4;
        const OPS: u64 = 3_000;
        const PAGES: u64 = 64;

        let mem = mem_disk_with(PAGES as usize, 64);
        let pool = Arc::new(ShardedBufferPool::for_threads(
            mem.clone() as Arc<dyn Disk>,
            8,
            THREADS as usize,
        ));

        let mut taken_total = storage::BufferStats::default();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let pool = &pool;
                scope.spawn(move || {
                    let mut x = t * 13 + 1;
                    for _ in 0..OPS {
                        x = (x * 29 + 7) % PAGES;
                        pool.with_page(PageId(x), |_| {}).unwrap();
                    }
                });
            }
            // Concurrently harvest the counters many times mid-flight.
            for _ in 0..50 {
                taken_total.merge(&pool.take_stats());
            }
        });
        taken_total.merge(&pool.take_stats());

        // No request lost: every access was a hit or a miss, and every miss
        // is exactly one physical disk read.
        assert_eq!(
            taken_total.hits + taken_total.misses,
            THREADS * OPS,
            "requests lost across concurrent take_stats"
        );
        assert_eq!(
            taken_total.misses,
            mem.stats().reads(),
            "misses drifted from physical reads across resets"
        );
    });
}

/// `stats()` / `reset_stats()` run lock-free while other threads hammer
/// the pool; totals must stay internally consistent (hits + misses never
/// exceeds requests issued so far, and reset leaves no negative deltas).
#[test]
fn stats_are_readable_during_traffic() {
    within(Duration::from_secs(60), || {
        let disk = mem_disk_with(16, 64);
        let pool = Arc::new(ShardedBufferPool::for_threads(disk as Arc<dyn Disk>, 4, 4));
        let stop = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for t in 0..3u64 {
                let pool = &pool;
                let stop = &stop;
                scope.spawn(move || {
                    let mut x = t;
                    while stop.load(Ordering::Relaxed) == 0 {
                        x = (x * 31 + 7) % 16;
                        pool.with_page(PageId(x), |_| {}).unwrap();
                    }
                });
            }
            let mut last_total = 0u64;
            for _ in 0..200 {
                let s = pool.stats();
                let total = s.hits + s.misses;
                assert!(total >= last_total, "aggregated counters went backwards");
                last_total = total;
            }
            pool.reset_stats();
            stop.store(1, Ordering::Relaxed);
        });
        let s = pool.stats();
        // Post-reset counters only reflect post-reset traffic; they must be
        // small and non-contradictory.
        assert!(s.hit_rate() >= 0.0 && s.hit_rate() <= 1.0);
    });
}
