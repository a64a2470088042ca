//! Simulated and real disks.
//!
//! The experiments need a storage device whose accesses can be counted
//! exactly and that the OS cannot transparently cache — the paper used a
//! raw disk partition for this. [`MemDisk`] plays that role in simulation;
//! [`FileDisk`] is provided for runs that want real file I/O.

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use obs::{LazyCounter, LazyHistogram};
use parking_lot::Mutex;

use crate::{PageId, Result, StorageError};

// Instrumentation (see DESIGN.md §Observability). Latency histograms
// are per `Disk` impl — wrappers like `LatencyDisk` time their whole
// call including the inner disk, so the names must stay distinct to be
// interpretable. The totals counters and the `disk.*` trace spans are
// recorded only by the terminal impls (`MemDisk`, `FileDisk`) so a
// stack of wrappers counts each physical access exactly once.
static DISK_READS: LazyCounter = LazyCounter::new("disk.reads");
static DISK_WRITES: LazyCounter = LazyCounter::new("disk.writes");
static READ_BYTES: LazyHistogram = LazyHistogram::new("disk.read_bytes");
static WRITE_BYTES: LazyHistogram = LazyHistogram::new("disk.write_bytes");
static MEM_READ_NS: LazyHistogram = LazyHistogram::new("disk.mem.read_ns");
static MEM_WRITE_NS: LazyHistogram = LazyHistogram::new("disk.mem.write_ns");
static FILE_READ_NS: LazyHistogram = LazyHistogram::new("disk.file.read_ns");
static FILE_WRITE_NS: LazyHistogram = LazyHistogram::new("disk.file.write_ns");
static LATENCY_READ_NS: LazyHistogram = LazyHistogram::new("disk.latency.read_ns");

/// Shared by the terminal disk impls: totals, byte histogram, and the
/// `[page, bytes]` args of the `disk.read` span for one successful
/// physical read.
fn observe_physical_read(span: &mut Option<obs::trace::Span>, id: PageId, bytes: usize) {
    DISK_READS.inc();
    READ_BYTES.record(bytes as u64);
    // Same event feeds the active span's I/O attribution, so a span's
    // pages_read equals the registry's disk.reads delta by construction.
    obs::trace::io_read(1, bytes as u64);
    if let Some(span) = span {
        span.set_args(id.index(), bytes as u64);
    }
}

/// Totals, byte histogram, and `disk.write` span args for `n` physical
/// pages written starting at `id` (batch writes count per page,
/// matching `IoStats` accounting).
fn observe_physical_write(span: &mut Option<obs::trace::Span>, id: PageId, bytes: usize, n: u64) {
    DISK_WRITES.add(n);
    WRITE_BYTES.record(bytes as u64);
    obs::trace::io_write(n, bytes as u64);
    if let Some(span) = span {
        span.set_args(id.index(), bytes as u64);
    }
}

/// Cumulative I/O counters for a disk. All counters are monotonically
/// increasing; snapshot before/after a phase and subtract.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
}

impl IoStats {
    /// Pages read from the device so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Pages written to the device so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    fn record_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    fn record_writes(&self, n: u64) {
        self.writes.fetch_add(n, Ordering::Relaxed);
    }
}

/// A block device addressed in fixed-size pages.
pub trait Disk: Send + Sync {
    /// Page size in bytes. Constant for the lifetime of the disk.
    fn page_size(&self) -> usize;

    /// Number of allocated pages.
    fn num_pages(&self) -> u64;

    /// Allocate a fresh zeroed page at the end of the device.
    fn allocate(&self) -> Result<PageId>;

    /// Allocate `n` consecutive zeroed pages and return the first id.
    ///
    /// The contiguity guarantee is what bulk writers build on: a run
    /// reserved here can be filled with [`write_pages`] batches and read
    /// back by page arithmetic, with no per-page bookkeeping. Terminal
    /// impls reserve the whole run under their allocation lock so
    /// concurrent allocators cannot interleave; pass-through wrappers
    /// forward to the inner disk to preserve that atomicity. The default
    /// implementation loops [`allocate`] and fails if another thread
    /// raced pages into the middle of the run.
    ///
    /// [`allocate`]: Disk::allocate
    /// [`write_pages`]: Disk::write_pages
    fn allocate_run(&self, n: u64) -> Result<PageId> {
        assert!(n > 0, "allocate_run of zero pages");
        let first = self.allocate()?;
        for i in 1..n {
            let id = self.allocate()?;
            if id.index() != first.index() + i {
                return Err(StorageError::Io(std::io::Error::other(format!(
                    "allocate_run raced: expected page {}, got {}",
                    first.index() + i,
                    id.index()
                ))));
            }
        }
        Ok(first)
    }

    /// Read page `id` into `buf` (`buf.len() == page_size`).
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()>;

    /// Write `buf` to page `id` (`buf.len() == page_size`).
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()>;

    /// Write a run of consecutive pages starting at `first`;
    /// `buf.len()` must be a positive whole multiple of the page size.
    ///
    /// Accounting is identical to issuing one [`write_page`] per page —
    /// the batch is a mechanical optimization (one device call instead of
    /// `n`), not a way to hide I/O from the counters.
    ///
    /// On a mid-batch failure the error is wrapped in
    /// [`StorageError::PartialWrite`] carrying the number of pages at the
    /// start of the batch that are confirmed durable.
    ///
    /// Batch validation (size multiple, both ends in bounds) lives here,
    /// once; impls customize only [`write_pages_body`].
    ///
    /// [`write_page`]: Disk::write_page
    /// [`write_pages_body`]: Disk::write_pages_body
    fn write_pages(&self, first: PageId, buf: &[u8]) -> Result<()> {
        let n = check_batch_len(self.page_size(), buf.len())?;
        let allocated = self.num_pages();
        check_bounds(first, allocated)?;
        check_bounds(PageId(first.index() + n - 1), allocated)?;
        self.write_pages_body(first, buf, n)
    }

    /// The device-specific part of [`write_pages`], called after batch
    /// validation with `n = buf.len() / page_size()`. The default loops
    /// [`write_page`] so wrappers ([`FaultDisk`](crate::FaultDisk)) see —
    /// and can fault — each page individually; terminal impls override
    /// with one device call.
    ///
    /// [`write_pages`]: Disk::write_pages
    /// [`write_page`]: Disk::write_page
    fn write_pages_body(&self, first: PageId, buf: &[u8], _n: u64) -> Result<()> {
        for (i, page) in buf.chunks(self.page_size()).enumerate() {
            self.write_page(PageId(first.index() + i as u64), page)
                .map_err(|e| StorageError::PartialWrite {
                    written: i as u64,
                    cause: Box::new(e),
                })?;
        }
        Ok(())
    }

    /// I/O counters.
    fn stats(&self) -> &IoStats;

    /// Flush to durable media where applicable.
    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

fn check_len(page_size: usize, len: usize) -> Result<()> {
    if len != page_size {
        return Err(StorageError::PageSizeMismatch {
            expected: page_size,
            got: len,
        });
    }
    Ok(())
}

fn check_bounds(id: PageId, allocated: u64) -> Result<()> {
    if !id.is_valid() || id.index() >= allocated {
        return Err(StorageError::PageOutOfBounds {
            page: id,
            allocated,
        });
    }
    Ok(())
}

/// Validate a batch-write buffer length and return the page count.
fn check_batch_len(page_size: usize, len: usize) -> Result<u64> {
    if len == 0 || !len.is_multiple_of(page_size) {
        return Err(StorageError::PageSizeMismatch {
            expected: page_size,
            got: len,
        });
    }
    Ok((len / page_size) as u64)
}

/// An in-memory "raw partition": byte-accurate page store with exact
/// access counters and no hidden caching.
pub struct MemDisk {
    page_size: usize,
    pages: Mutex<Vec<Box<[u8]>>>,
    stats: IoStats,
}

impl MemDisk {
    /// Create an empty disk with the given page size.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Self {
            page_size,
            pages: Mutex::new(Vec::new()),
            stats: IoStats::default(),
        }
    }

    /// Create with the default 4 KiB page size.
    pub fn default_size() -> Self {
        Self::new(crate::DEFAULT_PAGE_SIZE)
    }
}

impl Disk for MemDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn allocate(&self) -> Result<PageId> {
        let mut pages = self.pages.lock();
        let id = PageId(pages.len() as u64);
        pages.push(vec![0u8; self.page_size].into_boxed_slice());
        Ok(id)
    }

    fn allocate_run(&self, n: u64) -> Result<PageId> {
        assert!(n > 0, "allocate_run of zero pages");
        let mut pages = self.pages.lock();
        let id = PageId(pages.len() as u64);
        let new_len = pages.len() + n as usize;
        pages.resize_with(new_len, || vec![0u8; self.page_size].into_boxed_slice());
        Ok(id)
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let _span = MEM_READ_NS.start();
        let mut tspan = obs::trace::span("disk.read");
        check_len(self.page_size, buf.len())?;
        let pages = self.pages.lock();
        check_bounds(id, pages.len() as u64)?;
        buf.copy_from_slice(&pages[id.index() as usize]);
        self.stats.record_read();
        observe_physical_read(&mut tspan, id, buf.len());
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        let _span = MEM_WRITE_NS.start();
        let mut tspan = obs::trace::span("disk.write");
        check_len(self.page_size, buf.len())?;
        let mut pages = self.pages.lock();
        check_bounds(id, pages.len() as u64)?;
        pages[id.index() as usize].copy_from_slice(buf);
        self.stats.record_write();
        observe_physical_write(&mut tspan, id, buf.len(), 1);
        Ok(())
    }

    fn write_pages_body(&self, first: PageId, buf: &[u8], n: u64) -> Result<()> {
        let mut tspan = obs::trace::span("disk.write");
        let mut pages = self.pages.lock();
        // The trait already bounds-checked and the page vector only grows.
        debug_assert!(first.index() + n <= pages.len() as u64);
        for (i, page) in buf.chunks(self.page_size).enumerate() {
            pages[first.index() as usize + i].copy_from_slice(page);
        }
        // One write per page, same as n write_page calls would count.
        self.stats.record_writes(n);
        observe_physical_write(&mut tspan, first, buf.len(), n);
        Ok(())
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

/// A file-backed disk using positioned reads/writes. Unlike the raw
/// partition of the paper, the OS page cache sits underneath this — use it
/// for persistence, not for access counting (the counters still count our
/// requests exactly).
pub struct FileDisk {
    page_size: usize,
    file: File,
    num_pages: AtomicU64,
    stats: IoStats,
    grow_lock: Mutex<()>,
}

impl FileDisk {
    /// Create (truncating) a file-backed disk at `path`.
    pub fn create<P: AsRef<Path>>(path: P, page_size: usize) -> Result<Self> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            page_size,
            file,
            num_pages: AtomicU64::new(0),
            stats: IoStats::default(),
            grow_lock: Mutex::new(()),
        })
    }

    /// Open an existing disk file; its length must be a whole number of
    /// pages.
    pub fn open<P: AsRef<Path>>(path: P, page_size: usize) -> Result<Self> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("file length {len} is not a multiple of page size {page_size}"),
            )));
        }
        Ok(Self {
            page_size,
            file,
            num_pages: AtomicU64::new(len / page_size as u64),
            stats: IoStats::default(),
            grow_lock: Mutex::new(()),
        })
    }
}

impl Disk for FileDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.num_pages.load(Ordering::Acquire)
    }

    fn allocate(&self) -> Result<PageId> {
        use std::os::unix::fs::FileExt;
        let _g = self.grow_lock.lock();
        let id = PageId(self.num_pages.load(Ordering::Acquire));
        let zeros = vec![0u8; self.page_size];
        self.file
            .write_all_at(&zeros, id.index() * self.page_size as u64)?;
        self.num_pages.fetch_add(1, Ordering::Release);
        Ok(id)
    }

    fn allocate_run(&self, n: u64) -> Result<PageId> {
        use std::os::unix::fs::FileExt;
        assert!(n > 0, "allocate_run of zero pages");
        let _g = self.grow_lock.lock();
        let id = PageId(self.num_pages.load(Ordering::Acquire));
        // Zero the whole run in bounded chunks so a multi-GiB reservation
        // doesn't materialize as one allocation.
        const ZERO_CHUNK_PAGES: u64 = 256;
        let zeros = vec![0u8; self.page_size * ZERO_CHUNK_PAGES.min(n) as usize];
        let mut done = 0u64;
        while done < n {
            let take = ZERO_CHUNK_PAGES.min(n - done);
            self.file.write_all_at(
                &zeros[..self.page_size * take as usize],
                (id.index() + done) * self.page_size as u64,
            )?;
            done += take;
        }
        self.num_pages.fetch_add(n, Ordering::Release);
        Ok(id)
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        let _span = FILE_READ_NS.start();
        let mut tspan = obs::trace::span("disk.read");
        check_len(self.page_size, buf.len())?;
        check_bounds(id, self.num_pages())?;
        self.file
            .read_exact_at(buf, id.index() * self.page_size as u64)?;
        self.stats.record_read();
        observe_physical_read(&mut tspan, id, buf.len());
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        let _span = FILE_WRITE_NS.start();
        let mut tspan = obs::trace::span("disk.write");
        check_len(self.page_size, buf.len())?;
        check_bounds(id, self.num_pages())?;
        self.file
            .write_all_at(buf, id.index() * self.page_size as u64)?;
        self.stats.record_write();
        observe_physical_write(&mut tspan, id, buf.len(), 1);
        Ok(())
    }

    fn write_pages_body(&self, first: PageId, buf: &[u8], n: u64) -> Result<()> {
        use std::os::unix::fs::FileExt;
        // One positioned syscall for the whole run — this is the point of
        // batching on a real device.
        let _span = FILE_WRITE_NS.start();
        let mut tspan = obs::trace::span("disk.write");
        self.file
            .write_all_at(buf, first.index() * self.page_size as u64)?;
        self.stats.record_writes(n);
        observe_physical_write(&mut tspan, first, buf.len(), n);
        Ok(())
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// A wrapper that adds a fixed latency to every page read, modelling the
/// seek + rotation cost the paper's raw-partition experiments paid on real
/// hardware. [`MemDisk`] reads complete in nanoseconds, which hides the
/// thing a concurrent buffer pool actually buys: *overlapping* miss I/O
/// across threads. With `read_latency` at a realistic value, a pool that
/// serializes disk reads under a global lock is limited to
/// `1/read_latency` misses per second no matter how many threads ask,
/// while the sharded pool overlaps them.
///
/// The sleep happens inside `read_page`, which the sharded pool calls with
/// no lock held. By default writes are not delayed: the paper's measured
/// query phase is read-only, and delaying write-back would only add noise
/// to build phases. Build-phase experiments that want a full device model
/// opt in with [`with_latencies`], which charges `write_latency` once per
/// write *request* — a positioning/settle cost, so a batched
/// [`write_pages`] of 64 sequential pages pays it once while 64 single-page
/// writes pay it 64 times, matching how sequential transfer amortizes seeks
/// on real media. Counters are the inner disk's.
///
/// [`with_latencies`]: LatencyDisk::with_latencies
/// [`write_pages`]: Disk::write_pages
pub struct LatencyDisk {
    inner: Arc<dyn Disk>,
    read_latency: Duration,
    write_latency: Duration,
}

impl LatencyDisk {
    /// Wrap `inner`, delaying every successful read by `read_latency`.
    pub fn new(inner: Arc<dyn Disk>, read_latency: Duration) -> Self {
        Self::with_latencies(inner, read_latency, Duration::ZERO)
    }

    /// Wrap `inner`, delaying every successful read by `read_latency` and
    /// every successful write request by `write_latency`.
    pub fn with_latencies(
        inner: Arc<dyn Disk>,
        read_latency: Duration,
        write_latency: Duration,
    ) -> Self {
        Self {
            inner,
            read_latency,
            write_latency,
        }
    }

    /// The configured per-read latency.
    pub fn read_latency(&self) -> Duration {
        self.read_latency
    }

    /// The configured per-write-request latency.
    pub fn write_latency(&self) -> Duration {
        self.write_latency
    }
}

impl Disk for LatencyDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn allocate(&self) -> Result<PageId> {
        self.inner.allocate()
    }

    fn allocate_run(&self, n: u64) -> Result<PageId> {
        self.inner.allocate_run(n)
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        // Times the full call (inner read + simulated seek), under its
        // own metric name so it never double-counts the inner disk's.
        let _span = LATENCY_READ_NS.start();
        self.inner.read_page(id, buf)?;
        if !self.read_latency.is_zero() {
            std::thread::sleep(self.read_latency);
        }
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.inner.write_page(id, buf)?;
        if !self.write_latency.is_zero() {
            std::thread::sleep(self.write_latency);
        }
        Ok(())
    }

    fn write_pages(&self, first: PageId, buf: &[u8]) -> Result<()> {
        self.inner.write_pages(first, buf)?;
        if !self.write_latency.is_zero() {
            std::thread::sleep(self.write_latency);
        }
        Ok(())
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(disk: &dyn Disk) {
        let ps = disk.page_size();
        let a = disk.allocate().unwrap();
        let b = disk.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(disk.num_pages(), 2);

        let mut data = vec![0u8; ps];
        for (i, byte) in data.iter_mut().enumerate() {
            *byte = (i % 251) as u8;
        }
        disk.write_page(b, &data).unwrap();

        let mut out = vec![0xFFu8; ps];
        disk.read_page(b, &mut out).unwrap();
        assert_eq!(out, data);

        // Fresh pages read as zeros.
        disk.read_page(a, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn memdisk_roundtrip() {
        let d = MemDisk::new(512);
        roundtrip(&d);
        assert_eq!(d.stats().reads(), 2);
        assert_eq!(d.stats().writes(), 1);
    }

    #[test]
    fn filedisk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("strdisk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.db");
        let d = FileDisk::create(&path, 512).unwrap();
        roundtrip(&d);
        d.sync().unwrap();

        // Reopen and observe the same contents.
        drop(d);
        let d2 = FileDisk::open(&path, 512).unwrap();
        assert_eq!(d2.num_pages(), 2);
        let mut buf = vec![0u8; 512];
        d2.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf[1], 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_bounds_rejected() {
        let d = MemDisk::new(64);
        let mut buf = vec![0u8; 64];
        assert!(matches!(
            d.read_page(PageId(0), &mut buf),
            Err(StorageError::PageOutOfBounds { .. })
        ));
        d.allocate().unwrap();
        assert!(d.read_page(PageId(0), &mut buf).is_ok());
        assert!(matches!(
            d.write_page(PageId(1), &buf),
            Err(StorageError::PageOutOfBounds { .. })
        ));
        assert!(matches!(
            d.read_page(PageId::INVALID, &mut buf),
            Err(StorageError::PageOutOfBounds { .. })
        ));
    }

    #[test]
    fn wrong_buffer_size_rejected() {
        let d = MemDisk::new(64);
        d.allocate().unwrap();
        let mut small = vec![0u8; 63];
        assert!(matches!(
            d.read_page(PageId(0), &mut small),
            Err(StorageError::PageSizeMismatch {
                expected: 64,
                got: 63
            })
        ));
    }

    #[test]
    fn counters_are_exact() {
        let d = MemDisk::new(32);
        let p = d.allocate().unwrap();
        let buf = vec![7u8; 32];
        let mut out = vec![0u8; 32];
        for _ in 0..5 {
            d.write_page(p, &buf).unwrap();
        }
        for _ in 0..3 {
            d.read_page(p, &mut out).unwrap();
        }
        assert_eq!(d.stats().writes(), 5);
        assert_eq!(d.stats().reads(), 3);
    }

    #[test]
    fn latency_disk_delays_reads_and_forwards_counters() {
        let mem = Arc::new(MemDisk::new(32));
        let d = LatencyDisk::new(mem.clone(), Duration::from_millis(5));
        let p = d.allocate().unwrap();
        let buf = vec![3u8; 32];
        d.write_page(p, &buf).unwrap();
        let mut out = vec![0u8; 32];
        let t0 = std::time::Instant::now();
        d.read_page(p, &mut out).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(out, buf);
        // Counters are the inner disk's: visible from both handles.
        assert_eq!(d.stats().reads(), 1);
        assert_eq!(mem.stats().writes(), 1);
        // Out-of-bounds reads fail fast, without sleeping 5ms.
        let t1 = std::time::Instant::now();
        assert!(d.read_page(PageId(9), &mut out).is_err());
        assert!(t1.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn allocate_run_is_contiguous_and_zeroed() {
        let mem = MemDisk::new(64);
        mem.allocate().unwrap();
        let first = mem.allocate_run(5).unwrap();
        assert_eq!(first, PageId(1));
        assert_eq!(mem.num_pages(), 6);
        let mut buf = vec![0xAAu8; 64];
        for i in 0..5 {
            mem.read_page(PageId(first.index() + i), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0));
        }

        let dir = std::env::temp_dir().join(format!("strdisk-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.db");
        let fd = FileDisk::create(&path, 64).unwrap();
        let first = fd.allocate_run(300).unwrap();
        assert_eq!(first, PageId(0));
        assert_eq!(fd.num_pages(), 300);
        fd.read_page(PageId(299), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn allocate_run_racing_threads_get_disjoint_ranges() {
        let mem = Arc::new(MemDisk::new(32));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let d = mem.clone();
            handles.push(std::thread::spawn(move || {
                let mut firsts = Vec::new();
                for _ in 0..50 {
                    firsts.push(d.allocate_run(7).unwrap().index());
                }
                firsts
            }));
        }
        let mut firsts: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        firsts.sort_unstable();
        // Every reserved run starts a multiple of 7 pages after the last:
        // no two runs overlap.
        for (i, f) in firsts.iter().enumerate() {
            assert_eq!(*f, i as u64 * 7);
        }
        assert_eq!(mem.num_pages(), 4 * 50 * 7);
    }

    #[test]
    fn write_latency_charged_per_request() {
        let mem = Arc::new(MemDisk::new(32));
        let d = LatencyDisk::with_latencies(mem.clone(), Duration::ZERO, Duration::from_millis(5));
        let first = d.allocate_run(4).unwrap();
        let buf = vec![1u8; 32 * 4];
        let t0 = std::time::Instant::now();
        d.write_pages(first, &buf).unwrap();
        let batched = t0.elapsed();
        assert!(batched >= Duration::from_millis(5));
        // One batched request pays one latency, not four.
        assert!(batched < Duration::from_millis(20));
        assert_eq!(mem.stats().writes(), 4);
    }

    #[test]
    fn open_rejects_torn_file() {
        let dir = std::env::temp_dir().join(format!("strdisk-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.db");
        std::fs::write(&path, vec![0u8; 100]).unwrap();
        assert!(FileDisk::open(&path, 64).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
