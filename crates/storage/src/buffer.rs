//! Sharded concurrent LRU buffer pool.
//!
//! The paper's buffer manager (§3) is a fixed set of page frames managed
//! with a least-recently-used policy, applied uniformly to every level of
//! the R-tree ("We use LRU for all the nodes (regardless of their level) to
//! simplify the parameter space"). A page evicted while dirty is written
//! back to disk immediately. A *disk access* in every table of the paper is
//! a miss in this pool.
//!
//! This implementation serves that role *and* the concurrent read path the
//! paper's future-work section points at ("a parallel shared-nothing
//! platform"): the frame table is split into N shards, each with its own
//! lock, LRU list, and counters, and pages are hashed to shards by
//! [`PageId`]. Three properties make the read path scale:
//!
//! * **Miss I/O runs outside the shard lock.** A missing page is read from
//!   the disk into a scratch buffer with no lock held, then installed under
//!   the lock. The old monolithic pool held its single mutex across
//!   `Disk::read_page`, serializing every concurrent query on disk latency.
//!   The scratch buffer is swapped into the frame and the evicted page's
//!   buffer kept as the next scratch, so a miss allocates nothing once
//!   the pool is full.
//! * **Duplicate in-flight misses coalesce.** While a read for page `p` is
//!   in flight, other threads missing `p` wait on the shard's condvar
//!   instead of issuing their own read: one disk read per miss, no matter
//!   how many threads ask. The waiters then count as *hits* — they were
//!   served from memory — so misses remain exactly the paper's disk
//!   accesses even under concurrency. The reader that fetched the page
//!   broadcasts only when a waiter is parked: a broadcast is a syscall
//!   even with nobody to wake.
//! * **Frames are readable under a shared borrow.** Each frame's bytes sit
//!   behind an `RwLock`; [`with_page`](ShardedBufferPool::with_page) takes
//!   a *read* guard on the frame, drops the shard lock, and runs the
//!   caller's closure, so any number of threads can read the same (or
//!   different) resident pages concurrently. An evictor that picks a frame
//!   with active readers blocks on the frame's write guard until they are
//!   done — readers never block on anything once they hold the guard.
//!
//! With one shard (the [`BufferPool`] alias default) eviction order is
//! bit-for-bit the paper's global LRU, which is what the deterministic
//! experiment harness runs on; concurrent servers construct the pool with
//! [`ShardedBufferPool::for_threads`] to get `next_pow2(threads)` shards.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use obs::{LazyCounter, LazyHistogram};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use crate::{Disk, PageId, Result, StorageError};

// Registry mirrors of the pool counters, process-global (summed over
// every pool in the process when several exist), plus the wait-time
// distribution of coalesced readers. The per-pool `BufferStats`
// atomics stay the source of truth for experiments; these exist so
// `--metrics` output and the trace events tell one coherent story.
static OBS_HITS: LazyCounter = LazyCounter::new("buffer.hits");
static OBS_MISSES: LazyCounter = LazyCounter::new("buffer.misses");
static OBS_EVICTIONS: LazyCounter = LazyCounter::new("buffer.evictions");
static OBS_WRITEBACKS: LazyCounter = LazyCounter::new("buffer.writebacks");
static OBS_COALESCED: LazyCounter = LazyCounter::new("buffer.coalesced");
static PIN_WAIT_NS: LazyHistogram = LazyHistogram::new("buffer.pin_wait_ns");

/// Snapshot of buffer-pool counters. All counters are cumulative; diff two
/// snapshots to attribute activity to a phase (e.g. one query).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Requests satisfied without touching the disk (including requests
    /// coalesced onto another thread's in-flight read).
    pub hits: u64,
    /// Requests that had to read the page from disk — the paper's
    /// "disk accesses".
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Dirty evictions that forced a write-back.
    pub writebacks: u64,
    /// The subset of `hits` that waited for another thread's in-flight
    /// read of the same page instead of being resident outright.
    pub coalesced: u64,
}

impl BufferStats {
    /// Counter-wise difference (`self` must be the later snapshot).
    pub fn since(&self, earlier: &BufferStats) -> BufferStats {
        BufferStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            writebacks: self.writebacks - earlier.writebacks,
            coalesced: self.coalesced - earlier.coalesced,
        }
    }

    /// Counter-wise sum, for folding per-shard snapshots into a total.
    pub fn merge(&mut self, other: &BufferStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.coalesced += other.coalesced;
    }

    /// Hit rate in [0, 1]; 0 for an untouched pool.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-shard counters as atomics, so [`ShardedBufferPool::stats`] and
/// [`ShardedBufferPool::reset_stats`] never take a shard lock.
#[derive(Default)]
struct ShardStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    coalesced: AtomicU64,
}

impl ShardStats {
    fn snapshot(&self) -> BufferStats {
        BufferStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Atomically read-and-zero every counter. Each counter is swapped
    /// individually, so an increment racing the take lands in exactly
    /// one of {returned snapshot, post-reset counter} — never both,
    /// never neither. A plain `store(0)` reset silently discards any
    /// increment that lands between the read and the store, breaking
    /// `misses == physical reads` under traffic.
    fn take(&self) -> BufferStats {
        BufferStats {
            hits: self.hits.swap(0, Ordering::Relaxed),
            misses: self.misses.swap(0, Ordering::Relaxed),
            evictions: self.evictions.swap(0, Ordering::Relaxed),
            writebacks: self.writebacks.swap(0, Ordering::Relaxed),
            coalesced: self.coalesced.swap(0, Ordering::Relaxed),
        }
    }
}

const NIL: usize = usize::MAX;

/// Page buffers a shard keeps for reuse. A miss reads into a spare and
/// returns the evicted frame's buffer, so one single-threaded miss
/// stream cycles through a single spare; the rest absorb leaders of
/// different pages reading concurrently in one shard.
const SPARE_BUFFERS: usize = 4;

/// Hasher for the shard tables keyed by [`PageId`]: one multiply by
/// the 64-bit golden-ratio constant (Fibonacci hashing). The default
/// SipHash costs more than the rest of a map probe, and a miss hashes
/// its page id about six times. A bijective multiply keeps distinct
/// ids distinct in the low bits that pick a bucket, and mixes the
/// high bits that tag it.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type PageIdBuild = BuildHasherDefault<PageIdHasher>;

struct Frame {
    page: PageId,
    /// Frame bytes behind a reader-writer lock so resident pages can be
    /// read by many threads at once. The `Arc` lets a reader keep the
    /// handle alive after dropping the shard lock; the read guard it
    /// acquired *before* dropping that lock is what keeps the contents
    /// valid — an evictor replacing the frame must take the write guard
    /// and therefore waits for every active reader.
    data: Arc<RwLock<Box<[u8]>>>,
    dirty: bool,
    /// Explicit [`ShardedBufferPool::pin`] count only; plain reads do
    /// not pin. Pinned frames are never evicted.
    pins: u32,
    // Intrusive LRU list: head = most recently used.
    prev: usize,
    next: usize,
}

struct ShardInner {
    capacity: usize,
    frames: Vec<Frame>,
    map: HashMap<PageId, usize, PageIdBuild>,
    head: usize,
    tail: usize,
    /// Pages whose miss read is currently in flight (lock dropped during
    /// the disk read). Threads needing such a page wait on the shard
    /// condvar instead of issuing a duplicate read; only the registering
    /// thread may install the page.
    inflight: HashSet<PageId, PageIdBuild>,
    /// Threads parked on the shard condvar behind an in-flight read.
    /// A leader broadcasts only when this is non-zero.
    waiters: usize,
    /// Page-sized buffers from evicted frames and failed reads, at most
    /// [`SPARE_BUFFERS`]; a miss reads into one instead of allocating.
    spare: Vec<Box<[u8]>>,
}

impl ShardInner {
    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.frames[idx].prev, self.frames[idx].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.frames[idx].prev = NIL;
        self.frames[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.detach(idx);
        self.push_front(idx);
    }

    /// Pick a victim frame: least recently used among unpinned frames.
    fn victim(&self) -> Option<usize> {
        let mut idx = self.tail;
        while idx != NIL {
            if self.frames[idx].pins == 0 {
                return Some(idx);
            }
            idx = self.frames[idx].prev;
        }
        None
    }

    /// Whether a frame could be produced right now (headroom to grow,
    /// or an unpinned victim).
    fn frame_available(&self) -> bool {
        self.frames.len() < self.capacity || self.victim().is_some()
    }

    /// A page buffer for a miss: a spare if one is left (stale bytes),
    /// else a fresh zeroed allocation.
    fn page_buffer(&mut self, page_size: usize) -> Box<[u8]> {
        self.spare
            .pop()
            .unwrap_or_else(|| vec![0u8; page_size].into_boxed_slice())
    }

    /// Keep `buf` as a spare if there is room. The empty buffer of a
    /// frame that never held a page is not worth keeping.
    fn recycle(&mut self, buf: Box<[u8]>) {
        if !buf.is_empty() && self.spare.len() < SPARE_BUFFERS {
            self.spare.push(buf);
        }
    }
}

struct Shard {
    inner: Mutex<ShardInner>,
    /// Wakes threads waiting for an in-flight read to land.
    cv: Condvar,
    stats: ShardStats,
}

/// A sharded LRU buffer pool over a [`Disk`].
///
/// Pages are hashed to one of N independent shards; each shard has its own
/// lock, LRU order, and counters, so queries on different shards never
/// contend, and readers of the *same* resident page share it under a read
/// lock. Miss I/O happens with no lock held, and duplicate in-flight
/// misses on one page issue exactly one disk read.
///
/// The global operations — [`flush`](Self::flush), [`clear`](Self::clear),
/// [`set_capacity`](Self::set_capacity), [`stats`](Self::stats) — walk the
/// shards in index order (never holding two shard locks at once).
///
/// ```
/// use std::sync::Arc;
/// use storage::{BufferPool, Disk, MemDisk, PageId};
///
/// let disk = Arc::new(MemDisk::new(512));
/// let page = disk.allocate().unwrap();
/// let pool = BufferPool::new(disk, 4);
/// pool.with_page_mut(page, |bytes| bytes[0] = 42).unwrap();
/// pool.with_page(page, |bytes| assert_eq!(bytes[0], 42)).unwrap();
/// // One miss (the first fetch), one hit.
/// assert_eq!(pool.stats().misses, 1);
/// assert_eq!(pool.stats().hits, 1);
/// ```
pub struct ShardedBufferPool {
    disk: Arc<dyn Disk>,
    page_size: usize,
    shards: Box<[Shard]>,
}

/// The single-shard configuration of [`ShardedBufferPool`]: eviction order
/// and counters are exactly the paper's global LRU, which the
/// deterministic experiments depend on. `BufferPool::new` builds it.
pub type BufferPool = ShardedBufferPool;

fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

impl ShardedBufferPool {
    /// Create a single-shard pool of `capacity` frames over `disk` —
    /// exact global-LRU semantics, the right construction for the
    /// paper's sequential experiments.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(disk: Arc<dyn Disk>, capacity: usize) -> Self {
        Self::with_shards(disk, capacity, 1)
    }

    /// Create a pool sharded for `threads` concurrent callers:
    /// `next_pow2(threads)` shards, clamped so every shard holds at
    /// least one frame.
    pub fn for_threads(disk: Arc<dyn Disk>, capacity: usize, threads: usize) -> Self {
        Self::with_shards(disk, capacity, next_pow2(threads))
    }

    /// Create a pool with an explicit shard count (clamped to
    /// `1..=capacity` so no shard is frameless). `capacity` frames are
    /// spread as evenly as possible across the shards.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_shards(disk: Arc<dyn Disk>, capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let n = shards.clamp(1, capacity);
        let page_size = disk.page_size();
        let shards = (0..n)
            .map(|i| Shard {
                inner: Mutex::new(ShardInner {
                    capacity: Self::shard_capacity(capacity, n, i),
                    frames: Vec::new(),
                    map: HashMap::default(),
                    head: NIL,
                    tail: NIL,
                    inflight: HashSet::default(),
                    waiters: 0,
                    spare: Vec::new(),
                }),
                cv: Condvar::new(),
                stats: ShardStats::default(),
            })
            .collect();
        Self {
            disk,
            page_size,
            shards,
        }
    }

    /// Frames shard `i` of `n` gets out of `capacity` total: an even
    /// split with the remainder going to the low shards, and never zero.
    fn shard_capacity(capacity: usize, n: usize, i: usize) -> usize {
        (capacity / n + usize::from(i < capacity % n)).max(1)
    }

    /// Which shard serves `id`. Fibonacci hashing spreads the sequential
    /// page ids a packed tree produces evenly across shards;
    /// deterministic, so a page always lives in one shard.
    fn shard_of(&self, id: PageId) -> &Shard {
        let n = self.shards.len();
        if n == 1 {
            return &self.shards[0];
        }
        let h = id.index().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
        &self.shards[(h as usize) % n]
    }

    /// The disk underneath.
    pub fn disk(&self) -> &Arc<dyn Disk> {
        &self.disk
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total frame capacity (sum over shards).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().capacity).sum()
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().map.len()).sum()
    }

    /// Cumulative counters, aggregated over shards. Lock-free: the
    /// counters are atomics.
    pub fn stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for s in self.shards.iter() {
            total.merge(&s.stats.snapshot());
        }
        total
    }

    /// Counters of shard `i` alone (panics if out of range).
    pub fn shard_stats(&self, i: usize) -> BufferStats {
        self.shards[i].stats.snapshot()
    }

    /// Counters of every shard, in shard order. The element-wise sum
    /// equals [`stats`](Self::stats) (up to concurrent traffic between
    /// the two calls); use it to see skew across shards.
    pub fn per_shard_stats(&self) -> Vec<BufferStats> {
        self.shards.iter().map(|s| s.stats.snapshot()).collect()
    }

    /// Atomically read-and-zero the counters, returning the pre-reset
    /// totals. Increments racing the take land either in the returned
    /// snapshot or in the fresh counters — none are lost, so invariants
    /// like `misses == physical reads` hold across the boundary (sum of
    /// takes + current stats == all-time totals). Lock-free.
    pub fn take_stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for s in self.shards.iter() {
            total.merge(&s.stats.take());
        }
        total
    }

    /// Reset counters to zero (the resident set is left alone). Used
    /// between the build phase and the measured query phase. Lock-free;
    /// equivalent to discarding [`take_stats`](Self::take_stats).
    pub fn reset_stats(&self) {
        let _ = self.take_stats();
    }

    // ---- page access --------------------------------------------------
    //
    // Lock order, everywhere: shard mutex → frame RwLock, never the
    // reverse. A reader acquires the frame's read guard while still
    // holding the shard lock (so the frame cannot be recycled out from
    // under it), then drops the shard lock and never re-takes it: once a
    // reader holds the guard it blocks on nothing, so the evictor
    // waiting on the frame's write guard always makes progress.

    /// Ensure `id` is resident and pass its bytes to `f` under a
    /// *shared* borrow: concurrent `with_page` calls on the same page
    /// run `f` simultaneously, and readers of other pages in the same
    /// shard are not blocked while `f` runs. `f` must not re-enter the
    /// pool.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let (_shard, inner, idx) = self.lock_resident(id, true)?;
        let data = Arc::clone(&inner.frames[idx].data);
        // Taking the read guard under the shard lock never blocks: a
        // frame writer (install, with_page_mut) holds the shard lock
        // too, so none can be active here. Holding the guard is what
        // keeps the bytes valid after the shard lock drops — an evictor
        // recycling this frame must take the write guard and waits.
        let bytes = data.read();
        drop(inner);
        Ok(f(&bytes))
    }

    /// Ensure `id` is resident, pass its bytes mutably to `f`, and mark
    /// the frame dirty. Mutations hold the shard lock for the duration
    /// of `f` (like the monolithic pool held its global lock): the write
    /// path is the cold path, and this keeps a frame's bytes and its
    /// dirty bit in one atomic step.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let (_shard, mut inner, idx) = self.lock_resident(id, true)?;
        inner.frames[idx].dirty = true;
        let data = Arc::clone(&inner.frames[idx].data);
        let out = {
            let mut bytes = data.write();
            f(&mut bytes)
        };
        drop(inner);
        Ok(out)
    }

    /// Overwrite page `id` entirely with `bytes` without reading the old
    /// contents from disk first (the frame is dirtied; write-back happens
    /// on eviction or [`flush`](Self::flush)).
    pub fn write_page(&self, id: PageId, bytes: &[u8]) -> Result<()> {
        if bytes.len() != self.page_size {
            return Err(StorageError::PageSizeMismatch {
                expected: self.page_size,
                got: bytes.len(),
            });
        }
        let (_shard, mut inner, idx) = self.lock_resident(id, false)?;
        inner.frames[idx].dirty = true;
        let data = Arc::clone(&inner.frames[idx].data);
        data.write().copy_from_slice(bytes);
        drop(inner);
        Ok(())
    }

    /// Overwrite page `id` entirely by letting `f` encode straight into
    /// the (zeroed) frame bytes — [`write_page`](Self::write_page)
    /// without the caller-side staging buffer. The old contents are not
    /// read from disk; the frame is dirtied and written back on eviction
    /// or [`flush`](Self::flush).
    pub fn overwrite_page<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let (_shard, mut inner, idx) = self.lock_resident(id, false)?;
        inner.frames[idx].dirty = true;
        let data = Arc::clone(&inner.frames[idx].data);
        let out = {
            let mut bytes = data.write();
            // Installation only zeroes fresh frames on a miss; zero on
            // hits too so encoders always see a blank page.
            bytes.fill(0);
            f(&mut bytes)
        };
        drop(inner);
        Ok(out)
    }

    /// Write every dirty frame back to disk (frames stay resident).
    pub fn flush(&self) -> Result<()> {
        for shard in self.shards.iter() {
            let mut inner = shard.inner.lock();
            for i in 0..inner.frames.len() {
                if !inner.frames[i].page.is_valid() || !inner.frames[i].dirty {
                    continue;
                }
                let page = inner.frames[i].page;
                {
                    let bytes = inner.frames[i].data.read();
                    self.disk.write_page(page, &bytes)?;
                }
                inner.frames[i].dirty = false;
            }
        }
        Ok(())
    }

    /// Flush and drop every resident page; the pool becomes cold.
    ///
    /// Fails with [`StorageError::AllFramesPinned`] if any frame is
    /// pinned. Callers must quiesce concurrent accessors first: a page
    /// fetched while `clear` walks the shards may survive in a
    /// later-cleared shard.
    pub fn clear(&self) -> Result<()> {
        self.flush()?;
        for shard in self.shards.iter() {
            let mut inner = shard.inner.lock();
            if inner.frames.iter().any(|f| f.pins > 0) {
                return Err(StorageError::AllFramesPinned);
            }
            inner.frames.clear();
            inner.map.clear();
            inner.head = NIL;
            inner.tail = NIL;
        }
        Ok(())
    }

    /// Change the frame capacity. The pool is flushed and emptied first
    /// so experiments at different buffer sizes start from the same cold
    /// state. With more shards than `capacity`, every shard keeps one
    /// frame (effective capacity = shard count).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn set_capacity(&self, capacity: usize) -> Result<()> {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        self.clear()?;
        let n = self.shards.len();
        for (i, shard) in self.shards.iter().enumerate() {
            shard.inner.lock().capacity = Self::shard_capacity(capacity, n, i);
        }
        Ok(())
    }

    /// Whether page `id` is currently resident (does not touch LRU order
    /// or counters).
    pub fn is_resident(&self, id: PageId) -> bool {
        self.shard_of(id).inner.lock().map.contains_key(&id)
    }

    /// Fetch `id` and leave it pinned: the frame can never be evicted
    /// until [`unpin`](Self::unpin).
    ///
    /// This is the alternative buffering policy §3 of the STR paper
    /// discusses — "pin the root and some number of the first few R-tree
    /// levels and then use an LRU scheme for the remaining nodes" — and
    /// rejects for its experiments, citing Leutenegger & Lopez's finding
    /// that pinning rarely helps. Exposing it makes that claim testable
    /// here (the R-tree's `pin_levels` builds on it).
    ///
    /// Counts as a normal request for hit/miss statistics. Pins nest:
    /// pin twice, unpin twice.
    pub fn pin(&self, id: PageId) -> Result<()> {
        let (_shard, mut inner, idx) = self.lock_resident(id, true)?;
        inner.frames[idx].pins += 1;
        Ok(())
    }

    /// Release one pin on `id` taken via [`pin`](Self::pin).
    ///
    /// Unpinning a page that is not resident or not pinned is a no-op:
    /// the pool may legitimately have been cleared or resized in between.
    pub fn unpin(&self, id: PageId) {
        let shard = self.shard_of(id);
        let mut inner = shard.inner.lock();
        if let Some(&idx) = inner.map.get(&id) {
            if inner.frames[idx].pins > 0 {
                inner.frames[idx].pins -= 1;
            }
        }
    }

    /// Number of distinct pinned frames (for assertions and debugging).
    pub fn pinned_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.inner
                    .lock()
                    .frames
                    .iter()
                    .filter(|f| f.page.is_valid() && f.pins > 0)
                    .count()
            })
            .sum()
    }

    // ---- residency machinery ------------------------------------------

    /// Make `id` resident in its shard, returning the shard, its lock
    /// (held), and the frame index, with the frame freshly touched in
    /// LRU order. `fetch` controls whether a missing page's contents are
    /// read from disk (false when the caller will overwrite the whole
    /// page; the frame is zeroed instead).
    ///
    /// Concurrency: if another thread is already reading `id` from disk,
    /// this waits on the shard condvar and then uses the installed frame
    /// (counted as a hit — no disk access happened on this thread's
    /// behalf). If this thread is the one to fetch, it registers `id` as
    /// in-flight, drops the shard lock around `Disk::read_page`, and
    /// installs the page afterwards.
    ///
    /// Error paths leave the pool consistent: a failed read is not
    /// cached, reserves no frame, and counts no miss; a failed dirty
    /// write-back keeps the victim resident and dirty with no counter
    /// moved; a shard whose every frame is (explicitly) pinned fails
    /// with [`StorageError::AllFramesPinned`] *before* touching the
    /// disk, like the monolithic pool did.
    #[allow(clippy::type_complexity)]
    fn lock_resident(
        &self,
        id: PageId,
        fetch: bool,
    ) -> Result<(&Shard, MutexGuard<'_, ShardInner>, usize)> {
        let shard = self.shard_of(id);
        let mut inner = shard.inner.lock();
        // Whether this request parked on the condvar behind another
        // thread's in-flight read of the same page; the timer (taken
        // only when observability is on) measures that wait.
        let mut waited = false;
        let mut wait_start: Option<Instant> = None;
        loop {
            if let Some(&idx) = inner.map.get(&id) {
                shard.stats.hits.fetch_add(1, Ordering::Relaxed);
                OBS_HITS.inc();
                obs::trace::cache_hit();
                if waited {
                    // Served from memory after riding another thread's
                    // read: a hit, and specifically a coalesced one.
                    shard.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                    OBS_COALESCED.inc();
                    if let Some(t0) = wait_start {
                        PIN_WAIT_NS.record(t0.elapsed().as_nanos() as u64);
                    }
                }
                inner.touch(idx);
                return Ok((shard, inner, idx));
            }
            if inner.inflight.contains(&id) {
                // Coalesce: someone is already fetching this page.
                if !waited {
                    waited = true;
                    if obs::enabled() {
                        wait_start = Some(Instant::now());
                    }
                }
                inner.waiters += 1;
                shard.cv.wait(&mut inner);
                inner.waiters -= 1;
                continue;
            }
            if !inner.frame_available() {
                return Err(StorageError::AllFramesPinned);
            }
            if !fetch {
                // Whole-page overwrite: no disk read, install zeroed.
                let idx = self.take_frame(shard, &mut inner)?;
                let data = Arc::clone(&inner.frames[idx].data);
                let mut bytes = data.write();
                if bytes.is_empty() {
                    *bytes = inner.page_buffer(self.page_size);
                }
                bytes.fill(0);
                drop(bytes);
                Self::finish_install(shard, &mut inner, idx, id);
                return Ok((shard, inner, idx));
            }
            // Leader: read the page with NO lock held, then install.
            inner.inflight.insert(id);
            let mut scratch = inner.page_buffer(self.page_size);
            drop(inner);
            let read_res = self.disk.read_page(id, &mut scratch);
            inner = shard.inner.lock();
            let installed = match read_res {
                Err(e) => {
                    inner.recycle(scratch);
                    Err(e)
                }
                Ok(()) => self.install_fetched(shard, &mut inner, id, scratch),
            };
            // The in-flight marker must clear on every path, and waiters
            // must wake: on success they find the page resident; on
            // failure one of them becomes the next leader and retries.
            // Waiters count themselves under this lock before parking,
            // so none can be missed; with none parked the broadcast is
            // skipped, as std's futex condvar makes a wake syscall on
            // every call.
            inner.inflight.remove(&id);
            if inner.waiters > 0 {
                shard.cv.notify_all();
            }
            let idx = installed?;
            return Ok((shard, inner, idx));
        }
    }

    /// Install a page read into `scratch`. Runs with the in-flight
    /// marker for `id` held, so no other thread can install the same
    /// page. On failure `scratch` goes back to the spares.
    fn install_fetched(
        &self,
        shard: &Shard,
        inner: &mut MutexGuard<'_, ShardInner>,
        id: PageId,
        scratch: Box<[u8]>,
    ) -> Result<usize> {
        let idx = match self.take_frame(shard, inner) {
            Ok(idx) => idx,
            Err(e) => {
                inner.recycle(scratch);
                return Err(e);
            }
        };
        // Swap the scratch buffer in — no copy — and keep the frame's
        // old buffer as the next miss's scratch. The write guard waits
        // for any reader still holding the old contents; such readers
        // block on nothing, so this is bounded by one closure's runtime.
        let old = std::mem::replace(&mut *inner.frames[idx].data.write(), scratch);
        inner.recycle(old);
        Self::finish_install(shard, inner, idx, id);
        Ok(idx)
    }

    /// Produce an empty frame: grow up to capacity, then evict the LRU
    /// unpinned victim (writing it back first if dirty). A grown frame's
    /// buffer is empty; the caller installs a page-sized one.
    fn take_frame(&self, shard: &Shard, inner: &mut MutexGuard<'_, ShardInner>) -> Result<usize> {
        if inner.frames.len() < inner.capacity {
            inner.frames.push(Frame {
                page: PageId::INVALID,
                data: Arc::new(RwLock::new(Box::default())),
                dirty: false,
                pins: 0,
                prev: NIL,
                next: NIL,
            });
            return Ok(inner.frames.len() - 1);
        }
        let victim = inner.victim().ok_or(StorageError::AllFramesPinned)?;
        let old = inner.frames[victim].page;
        let was_dirty = inner.frames[victim].dirty;
        if inner.frames[victim].dirty {
            // "When a node is pushed out of the buffer the node is
            // immediately written to disk" (§3). Write back before
            // touching any bookkeeping: if the write fails, the victim
            // stays resident and dirty and no counter moved. The read
            // guard is uncontended — a frame with pins == 0 has no
            // accessor.
            {
                let bytes = inner.frames[victim].data.read();
                self.disk.write_page(old, &bytes)?;
            }
            inner.frames[victim].dirty = false;
            shard.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            OBS_WRITEBACKS.inc();
            // a = page index.
            obs::trace::event("buffer.writeback", old.index(), 0);
        }
        shard.stats.evictions.fetch_add(1, Ordering::Relaxed);
        OBS_EVICTIONS.inc();
        // a = page index, b = 1 if it was dirty.
        obs::trace::event("buffer.eviction", old.index(), u64::from(was_dirty));
        inner.map.remove(&old);
        inner.detach(victim);
        Ok(victim)
    }

    /// Book-keep a freshly-installed page: count the miss (only once the
    /// page is actually resident, so misses remain exactly the paper's
    /// "disk accesses" even when fetches fail), map it, and make it MRU.
    fn finish_install(
        shard: &Shard,
        inner: &mut MutexGuard<'_, ShardInner>,
        idx: usize,
        id: PageId,
    ) {
        shard.stats.misses.fetch_add(1, Ordering::Relaxed);
        OBS_MISSES.inc();
        obs::trace::cache_miss();
        inner.frames[idx].page = id;
        inner.frames[idx].dirty = false;
        inner.frames[idx].pins = 0;
        inner.map.insert(id, idx);
        inner.push_front(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultDisk, FaultKind, FaultOp, FaultSpec, Trigger};
    use crate::MemDisk;

    fn setup(capacity: usize, pages: usize) -> (Arc<MemDisk>, BufferPool) {
        let disk = Arc::new(MemDisk::new(64));
        for _ in 0..pages {
            disk.allocate().unwrap();
        }
        let pool = BufferPool::new(disk.clone() as Arc<dyn Disk>, capacity);
        (disk, pool)
    }

    #[test]
    fn hit_after_miss() {
        let (_d, pool) = setup(4, 2);
        pool.with_page(PageId(0), |_| {}).unwrap();
        pool.with_page(PageId(0), |_| {}).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (disk, pool) = setup(2, 3);
        pool.with_page(PageId(0), |_| {}).unwrap();
        pool.with_page(PageId(1), |_| {}).unwrap();
        // Touch 0 so 1 becomes LRU.
        pool.with_page(PageId(0), |_| {}).unwrap();
        // 2 evicts 1.
        pool.with_page(PageId(2), |_| {}).unwrap();
        assert!(pool.is_resident(PageId(0)));
        assert!(!pool.is_resident(PageId(1)));
        assert!(pool.is_resident(PageId(2)));
        assert_eq!(pool.stats().evictions, 1);
        // Clean eviction: no writeback.
        assert_eq!(disk.stats().writes(), 0);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let (disk, pool) = setup(1, 2);
        pool.with_page_mut(PageId(0), |data| data[0] = 42).unwrap();
        pool.with_page(PageId(1), |_| {}).unwrap(); // evicts dirty 0
        assert_eq!(pool.stats().writebacks, 1);
        assert_eq!(disk.stats().writes(), 1);
        let mut buf = vec![0u8; 64];
        disk.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 42);
    }

    #[test]
    fn write_page_skips_disk_read() {
        let (disk, pool) = setup(2, 1);
        let bytes = vec![9u8; 64];
        pool.write_page(PageId(0), &bytes).unwrap();
        // No disk read happened: the page was fully overwritten.
        assert_eq!(disk.stats().reads(), 0);
        pool.with_page(PageId(0), |data| assert_eq!(data[10], 9))
            .unwrap();
        pool.flush().unwrap();
        let mut buf = vec![0u8; 64];
        disk.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, bytes);
    }

    #[test]
    fn flush_clears_dirty_once() {
        let (disk, pool) = setup(4, 2);
        pool.with_page_mut(PageId(0), |d| d[0] = 1).unwrap();
        pool.with_page_mut(PageId(1), |d| d[0] = 2).unwrap();
        pool.flush().unwrap();
        pool.flush().unwrap(); // second flush writes nothing
        assert_eq!(disk.stats().writes(), 2);
    }

    #[test]
    fn clear_makes_pool_cold() {
        let (_d, pool) = setup(4, 2);
        pool.with_page(PageId(0), |_| {}).unwrap();
        pool.clear().unwrap();
        assert_eq!(pool.resident(), 0);
        pool.with_page(PageId(0), |_| {}).unwrap();
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn set_capacity_resets_resident_set() {
        let (_d, pool) = setup(2, 4);
        pool.with_page(PageId(0), |_| {}).unwrap();
        pool.set_capacity(3).unwrap();
        assert_eq!(pool.capacity(), 3);
        assert_eq!(pool.resident(), 0);
        for i in 0..3 {
            pool.with_page(PageId(i), |_| {}).unwrap();
        }
        assert_eq!(pool.stats().evictions, 0);
        pool.with_page(PageId(3), |_| {}).unwrap();
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn stats_since() {
        let (_d, pool) = setup(2, 2);
        pool.with_page(PageId(0), |_| {}).unwrap();
        let before = pool.stats();
        pool.with_page(PageId(0), |_| {}).unwrap();
        pool.with_page(PageId(1), |_| {}).unwrap();
        let delta = pool.stats().since(&before);
        assert_eq!(
            delta,
            BufferStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                writebacks: 0,
                coalesced: 0
            }
        );
    }

    #[test]
    fn per_shard_stats_sum_to_aggregate() {
        let (_d, pool) = sharded_setup(8, 4, 32);
        for round in 0..3u64 {
            for i in 0..32u64 {
                if round == 0 {
                    pool.with_page_mut(PageId(i), |d| d[0] = 1).unwrap();
                } else {
                    pool.with_page(PageId(i % 7), |_| {}).unwrap();
                }
            }
        }
        let per = pool.per_shard_stats();
        assert_eq!(per.len(), pool.shard_count());
        let mut sum = BufferStats::default();
        for s in &per {
            sum.merge(s);
        }
        assert_eq!(sum, pool.stats(), "shard totals drifted from aggregate");
        assert!(sum.hits + sum.misses == 96);
    }

    #[test]
    fn take_stats_returns_pre_reset_totals() {
        let (_d, pool) = setup(2, 2);
        pool.with_page(PageId(0), |_| {}).unwrap();
        pool.with_page(PageId(0), |_| {}).unwrap();
        let taken = pool.take_stats();
        assert_eq!(taken.hits, 1);
        assert_eq!(taken.misses, 1);
        assert_eq!(pool.stats(), BufferStats::default());
        // Post-take traffic accumulates from zero.
        pool.with_page(PageId(1), |_| {}).unwrap();
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn reset_stats_keeps_resident_pages() {
        let (_d, pool) = setup(2, 1);
        pool.with_page(PageId(0), |_| {}).unwrap();
        pool.reset_stats();
        assert_eq!(pool.stats(), BufferStats::default());
        pool.with_page(PageId(0), |_| {}).unwrap();
        // Still resident: a hit, not a miss.
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn capacity_one_works() {
        let (_d, pool) = setup(1, 3);
        for round in 0..3u8 {
            for i in 0..3 {
                pool.with_page_mut(PageId(i), |d| d[0] = round).unwrap();
            }
        }
        // Every access misses: working set (3) exceeds capacity (1).
        assert_eq!(pool.stats().misses, 9);
        assert_eq!(pool.stats().hits, 0);
    }

    #[test]
    fn mutation_survives_eviction_cycle() {
        let (_d, pool) = setup(1, 2);
        pool.with_page_mut(PageId(0), |d| d[5] = 123).unwrap();
        pool.with_page(PageId(1), |_| {}).unwrap(); // evict 0 (dirty)
        pool.with_page(PageId(0), |d| assert_eq!(d[5], 123))
            .unwrap();
    }

    #[test]
    fn pinned_page_survives_pressure() {
        let (_d, pool) = setup(2, 4);
        pool.pin(PageId(0)).unwrap();
        assert_eq!(pool.pinned_count(), 1);
        // Stream enough other pages to evict anything evictable.
        for i in 1..4 {
            pool.with_page(PageId(i), |_| {}).unwrap();
        }
        assert!(pool.is_resident(PageId(0)), "pinned page evicted");
        pool.unpin(PageId(0));
        assert_eq!(pool.pinned_count(), 0);
        // Now it can go.
        pool.with_page(PageId(1), |_| {}).unwrap();
        pool.with_page(PageId(2), |_| {}).unwrap();
        assert!(!pool.is_resident(PageId(0)));
    }

    #[test]
    fn pins_nest() {
        let (_d, pool) = setup(1, 2);
        pool.pin(PageId(0)).unwrap();
        pool.pin(PageId(0)).unwrap();
        pool.unpin(PageId(0));
        // Still pinned once: the only frame is unavailable.
        assert!(matches!(
            pool.with_page(PageId(1), |_| {}),
            Err(StorageError::AllFramesPinned)
        ));
        pool.unpin(PageId(0));
        pool.with_page(PageId(1), |_| {}).unwrap();
    }

    #[test]
    fn unpin_of_absent_page_is_noop() {
        let (_d, pool) = setup(2, 2);
        pool.unpin(PageId(0)); // never resident
        pool.with_page(PageId(0), |_| {}).unwrap();
        pool.unpin(PageId(0)); // resident but unpinned
        assert_eq!(pool.pinned_count(), 0);
    }

    #[test]
    fn all_pinned_fails_cleanly() {
        let (_d, pool) = setup(2, 3);
        pool.pin(PageId(0)).unwrap();
        pool.pin(PageId(1)).unwrap();
        assert!(matches!(
            pool.with_page(PageId(2), |_| {}),
            Err(StorageError::AllFramesPinned)
        ));
        // clear() must also refuse while pins are held.
        assert!(pool.clear().is_err());
        pool.unpin(PageId(0));
        pool.with_page(PageId(2), |_| {}).unwrap();
        pool.unpin(PageId(1));
        pool.clear().unwrap();
    }

    fn faulted_setup(capacity: usize, pages: usize) -> (Arc<FaultDisk>, BufferPool) {
        let mem = Arc::new(MemDisk::new(64));
        for _ in 0..pages {
            mem.allocate().unwrap();
        }
        let disk = Arc::new(FaultDisk::new(mem));
        let pool = BufferPool::new(disk.clone() as Arc<dyn Disk>, capacity);
        (disk, pool)
    }

    #[test]
    fn failed_read_is_not_cached_and_leaks_no_frame() {
        let (disk, pool) = faulted_setup(2, 2);
        disk.push(FaultSpec {
            op: FaultOp::Read,
            kind: FaultKind::Error,
            trigger: Trigger::OnceAt(0),
        });
        assert!(pool.with_page(PageId(0), |_| {}).is_err());
        // The bad page must not be resident, nothing may be pinned, and
        // the failed fetch must not count as a disk access.
        assert!(!pool.is_resident(PageId(0)));
        assert_eq!(pool.pinned_count(), 0);
        assert_eq!(pool.stats().misses, 0);
        // No frame was consumed by the failure: the next fetches succeed
        // and the pool is fully usable.
        pool.with_page(PageId(0), |_| {}).unwrap();
        pool.with_page(PageId(1), |_| {}).unwrap();
        assert_eq!(pool.resident(), 2);
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn repeated_read_failures_never_exhaust_frames() {
        let (disk, pool) = faulted_setup(1, 2);
        disk.push(FaultSpec {
            op: FaultOp::Read,
            kind: FaultKind::Error,
            trigger: Trigger::PageRange { lo: 1, hi: 1 },
        });
        // With one frame, any leak on the failure path would wedge the
        // pool after the first error.
        for _ in 0..10 {
            assert!(pool.with_page(PageId(1), |_| {}).is_err());
        }
        pool.with_page(PageId(0), |_| {}).unwrap();
        assert_eq!(pool.pinned_count(), 0);
    }

    #[test]
    fn failed_writeback_keeps_victim_dirty_and_counters_honest() {
        let (disk, pool) = faulted_setup(1, 2);
        pool.with_page_mut(PageId(0), |d| d[0] = 42).unwrap();
        disk.push(FaultSpec {
            op: FaultOp::Write,
            kind: FaultKind::Error,
            trigger: Trigger::OnceAt(0),
        });
        // Fetching page 1 needs to evict dirty page 0; the write-back
        // fault must surface and leave everything as it was.
        assert!(pool.with_page(PageId(1), |_| {}).is_err());
        let s = pool.stats();
        assert_eq!(s.evictions, 0, "failed eviction must not be counted");
        assert_eq!(s.writebacks, 0, "failed write-back must not be counted");
        assert!(
            pool.is_resident(PageId(0)),
            "victim evicted despite failed write-back"
        );
        // The dirty data survived: retrying (fault is spent) flushes it.
        pool.with_page(PageId(1), |_| {}).unwrap();
        let mut buf = vec![0u8; 64];
        disk.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 42, "dirty frame lost after write-back failure");
        assert_eq!(pool.stats().writebacks, 1);
    }

    #[test]
    fn page_size_mismatch_rejected() {
        let (_d, pool) = setup(1, 1);
        assert!(matches!(
            pool.write_page(PageId(0), &[0u8; 63]),
            Err(StorageError::PageSizeMismatch { .. })
        ));
    }

    // ---- sharded configurations ---------------------------------------

    fn sharded_setup(capacity: usize, shards: usize, pages: usize) -> (Arc<MemDisk>, BufferPool) {
        let disk = Arc::new(MemDisk::new(64));
        for _ in 0..pages {
            disk.allocate().unwrap();
        }
        let pool = ShardedBufferPool::with_shards(disk.clone() as Arc<dyn Disk>, capacity, shards);
        (disk, pool)
    }

    #[test]
    fn capacity_splits_evenly_across_shards() {
        let (_d, pool) = sharded_setup(10, 4, 0);
        assert_eq!(pool.shard_count(), 4);
        assert_eq!(pool.capacity(), 10);
        // 10 over 4 shards: 3, 3, 2, 2.
        let caps: Vec<usize> = (0..4)
            .map(|i| BufferPool::shard_capacity(10, 4, i))
            .collect();
        assert_eq!(caps, vec![3, 3, 2, 2]);
    }

    #[test]
    fn shard_count_clamped_to_capacity() {
        let (_d, pool) = sharded_setup(3, 8, 0);
        assert!(pool.shard_count() <= 3);
        assert_eq!(pool.capacity(), 3);
        let small = ShardedBufferPool::for_threads(Arc::new(MemDisk::new(64)), 2, 16);
        assert!(small.shard_count() <= 2);
    }

    #[test]
    fn sharded_pool_serves_and_counts_all_pages() {
        let (disk, pool) = sharded_setup(8, 4, 32);
        for round in 0..2 {
            for i in 0..32u64 {
                pool.with_page_mut(PageId(i), |d| d[1] = i as u8 + round)
                    .unwrap();
            }
        }
        // 32 pages over 8 frames: every access in both rounds misses.
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 64);
        assert_eq!(s.misses, 64);
        // Dirty evictions were written back; flush pushes the rest.
        pool.flush().unwrap();
        let mut buf = vec![0u8; 64];
        for i in 0..32u64 {
            disk.read_page(PageId(i), &mut buf).unwrap();
            assert_eq!(buf[1], i as u8 + 1, "page {i} lost its last write");
        }
        // Per-shard stats sum to the aggregate.
        let per: u64 = (0..pool.shard_count())
            .map(|i| pool.shard_stats(i).misses)
            .sum();
        assert_eq!(per, s.misses);
    }

    #[test]
    fn sharded_clear_and_set_capacity_cover_all_shards() {
        let (_d, pool) = sharded_setup(8, 4, 16);
        for i in 0..16u64 {
            pool.with_page(PageId(i), |_| {}).unwrap();
        }
        assert!(pool.resident() > 0);
        pool.set_capacity(4).unwrap();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.capacity(), 4);
        // Shrinking below the shard count keeps one frame per shard.
        pool.set_capacity(2).unwrap();
        assert_eq!(pool.capacity(), pool.shard_count().max(2));
    }

    #[test]
    fn stats_reset_is_lock_free_under_held_shard_lock() {
        // stats()/reset_stats() must not need any shard lock: call them
        // while a with_page_mut closure (which holds its shard's lock)
        // is still running.
        let (_d, pool) = setup(2, 1);
        pool.with_page_mut(PageId(0), |_| {
            let _ = pool.stats();
            pool.reset_stats();
        })
        .unwrap();
        assert_eq!(pool.stats().misses, 0, "reset inside the closure held");
    }
}
