//! Counting and timing wrappers around the program's device traits.
//!
//! The benchmark measures each storage layer from outside: every device
//! a workload creates is wrapped here, so page, byte and call counts come
//! from the benchmark's own code and can be checked against the
//! program's registry counters. Timing is switched on only for the
//! traced pass, so the untraced pass pays a relaxed atomic add per call
//! and no clock reads.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lsm::SegmentStore;
use storage::{Disk, IoStats, LogStore, MemDisk, PageId, Result};

static TIMING: AtomicBool = AtomicBool::new(false);

/// Turn call timing on or off for every shim in the process.
pub fn set_timing(on: bool) {
    TIMING.store(on, Relaxed);
}

fn timed<R>(ns: &AtomicU64, f: impl FnOnce() -> R) -> R {
    if !TIMING.load(Relaxed) {
        return f();
    }
    let t = Instant::now();
    let r = f();
    ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
    r
}

/// Page counts and read time of one [`CountingDisk`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiskTally {
    pub reads: u64,
    pub writes: u64,
    pub read_ns: u64,
}

impl DiskTally {
    /// Pages read and written: the part a deterministic run repeats.
    pub fn pages(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    pub fn add(&mut self, o: &DiskTally) {
        self.reads += o.reads;
        self.writes += o.writes;
        self.read_ns += o.read_ns;
    }

    pub fn since(&self, earlier: &DiskTally) -> DiskTally {
        DiskTally {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            read_ns: self.read_ns - earlier.read_ns,
        }
    }
}

/// A [`Disk`] that counts the pages read and written through it and
/// times its reads.
pub struct CountingDisk {
    inner: MemDisk,
    reads: AtomicU64,
    writes: AtomicU64,
    read_ns: AtomicU64,
}

impl CountingDisk {
    /// A counting wrapper over a fresh in-memory disk of 4 KiB pages.
    pub fn mem() -> Arc<CountingDisk> {
        Arc::new(CountingDisk {
            inner: MemDisk::default_size(),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            read_ns: AtomicU64::new(0),
        })
    }

    pub fn tally(&self) -> DiskTally {
        DiskTally {
            reads: self.reads.load(Relaxed),
            writes: self.writes.load(Relaxed),
            read_ns: self.read_ns.load(Relaxed),
        }
    }

    /// Bytes the device holds: every allocated page.
    pub fn live_bytes(&self) -> u64 {
        self.inner.num_pages() * self.inner.page_size() as u64
    }
}

impl Disk for CountingDisk {
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
        timed(&self.read_ns, || self.inner.read_page(id, buf))?;
        self.reads.fetch_add(1, Relaxed);
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.inner.write_page(id, buf)?;
        self.writes.fetch_add(1, Relaxed);
        Ok(())
    }

    // Forward batches whole, so the inner disk sees the same calls it
    // would see unwrapped.
    fn write_pages(&self, first: PageId, buf: &[u8]) -> Result<()> {
        self.inner.write_pages(first, buf)?;
        let n = (buf.len() / self.inner.page_size()) as u64;
        self.writes.fetch_add(n, Relaxed);
        Ok(())
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

/// Call counts, bytes and call time of one [`CountingLog`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LogTally {
    pub appends: u64,
    pub bytes: u64,
    pub syncs: u64,
    pub append_ns: u64,
    pub sync_ns: u64,
    pub live_bytes: u64,
}

/// A [`LogStore`] that counts appends, appended bytes and syncs, and
/// tracks the bytes each segment still holds.
pub struct CountingLog {
    inner: Arc<dyn LogStore>,
    appends: AtomicU64,
    bytes: AtomicU64,
    syncs: AtomicU64,
    append_ns: AtomicU64,
    sync_ns: AtomicU64,
    live: Mutex<BTreeMap<u64, u64>>,
}

impl CountingLog {
    pub fn new(inner: Arc<dyn LogStore>) -> Arc<CountingLog> {
        Arc::new(CountingLog {
            inner,
            appends: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            append_ns: AtomicU64::new(0),
            sync_ns: AtomicU64::new(0),
            live: Mutex::new(BTreeMap::new()),
        })
    }

    pub fn tally(&self) -> LogTally {
        LogTally {
            appends: self.appends.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            syncs: self.syncs.load(Relaxed),
            append_ns: self.append_ns.load(Relaxed),
            sync_ns: self.sync_ns.load(Relaxed),
            live_bytes: self.live().values().sum(),
        }
    }

    fn live(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, u64>> {
        self.live.lock().expect("log shim mutex poisoned")
    }
}

impl LogStore for CountingLog {
    fn list(&self) -> Result<Vec<u64>> {
        self.inner.list()
    }

    fn read(&self, seg: u64) -> Result<Vec<u8>> {
        self.inner.read(seg)
    }

    fn append(&self, seg: u64, bytes: &[u8]) -> Result<()> {
        timed(&self.append_ns, || self.inner.append(seg, bytes))?;
        self.appends.fetch_add(1, Relaxed);
        self.bytes.fetch_add(bytes.len() as u64, Relaxed);
        *self.live().entry(seg).or_insert(0) += bytes.len() as u64;
        Ok(())
    }

    fn truncate(&self, seg: u64, len: u64) -> Result<()> {
        self.inner.truncate(seg, len)?;
        if let Some(l) = self.live().get_mut(&seg) {
            *l = (*l).min(len);
        }
        Ok(())
    }

    fn delete(&self, seg: u64) -> Result<()> {
        self.inner.delete(seg)?;
        self.live().remove(&seg);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        timed(&self.sync_ns, || self.inner.sync())?;
        self.syncs.fetch_add(1, Relaxed);
        Ok(())
    }
}

/// Bytes put and live bytes of one [`CountingSegments`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SegTally {
    pub bytes: u64,
    pub live_bytes: u64,
}

/// A [`SegmentStore`] that counts the bytes put and tracks live bytes.
pub struct CountingSegments {
    inner: Arc<dyn SegmentStore>,
    bytes: AtomicU64,
    live: Mutex<BTreeMap<u64, u64>>,
}

impl CountingSegments {
    pub fn new(inner: Arc<dyn SegmentStore>) -> Arc<CountingSegments> {
        Arc::new(CountingSegments {
            inner,
            bytes: AtomicU64::new(0),
            live: Mutex::new(BTreeMap::new()),
        })
    }

    pub fn tally(&self) -> SegTally {
        SegTally {
            bytes: self.bytes.load(Relaxed),
            live_bytes: self.live().values().sum(),
        }
    }

    fn live(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, u64>> {
        self.live.lock().expect("segment shim mutex poisoned")
    }
}

impl SegmentStore for CountingSegments {
    fn list(&self) -> Result<Vec<u64>> {
        self.inner.list()
    }

    fn put(&self, id: u64, bytes: &[u8]) -> Result<()> {
        self.inner.put(id, bytes)?;
        self.bytes.fetch_add(bytes.len() as u64, Relaxed);
        self.live().insert(id, bytes.len() as u64);
        Ok(())
    }

    fn read(&self, id: u64) -> Result<Option<Vec<u8>>> {
        self.inner.read(id)
    }

    fn delete(&self, id: u64) -> Result<()> {
        self.inner.delete(id)?;
        self.live().remove(&id);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}
