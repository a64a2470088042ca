//! Sorted runs on the scratch disk: spill writer, streaming reader, and
//! the read-ahead service the merge uses to overlap run reads.
//!
//! Every spill page is sealed: its last [`SEAL`] bytes hold
//! [`storage::wide_hash`] of the rest, seeded with the page id, so a
//! flipped bit, a torn page or a page read from the wrong place fails
//! the merge with [`SortError::Corrupt`] instead of reaching the output.

use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use storage::{wide_hash, Disk, PageId};

use crate::{FixedRecord, Result, SortError};

/// Pages encoded per batched scratch write. Spills reserve the whole run
/// up front with [`Disk::allocate_run`], so every flush is one positioned
/// device call over consecutive pages.
pub(crate) const SPILL_BATCH_PAGES: usize = 64;

/// Bytes at the end of every spill page holding its seal.
pub(crate) const SEAL: usize = 8;

/// Consecutive pages of one run a cursor reads per request: one buffer,
/// one wake-up and one hand-off per chunk instead of per page.
pub(crate) const CHUNK_PAGES: u64 = 8;

/// One sorted run: a contiguous page range plus its record count.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Run {
    pub first: PageId,
    pub pages: u64,
    pub records: u64,
}

/// Records per scratch page for a record type: the page less its seal.
pub(crate) fn per_page<T: FixedRecord>(page_size: usize) -> usize {
    (page_size - SEAL) / T::SIZE
}

/// The seal of `page` stored at `id`: [`wide_hash`] of everything before
/// the seal bytes, seeded with the page id.
fn seal_of(id: PageId, page: &[u8]) -> u64 {
    wide_hash(id.0, &page[..page.len() - SEAL])
}

/// Encode `records` (already sorted) into a freshly reserved contiguous
/// run on `scratch`, writing in [`SPILL_BATCH_PAGES`]-page batches.
///
/// This is the per-worker sequential appender of the parallel sorter:
/// because the range is reserved atomically before any byte is written,
/// any number of workers can spill concurrently without interleaving
/// their runs.
pub(crate) fn spill_run<T: FixedRecord>(scratch: &dyn Disk, records: &[T]) -> Result<Run> {
    debug_assert!(!records.is_empty());
    let page_size = scratch.page_size();
    let per_page = per_page::<T>(page_size);
    let pages = records.len().div_ceil(per_page) as u64;
    let first = scratch.allocate_run(pages)?;

    let mut buf = vec![0u8; page_size * SPILL_BATCH_PAGES.min(pages as usize)];
    let mut page_in_batch = 0usize;
    let mut batch_first = first;
    for (page_idx, chunk) in records.chunks(per_page).enumerate() {
        let page = &mut buf[page_in_batch * page_size..(page_in_batch + 1) * page_size];
        page.fill(0);
        for (rec, out) in chunk.iter().zip(page.chunks_exact_mut(T::SIZE)) {
            rec.encode(out);
        }
        let seal = seal_of(PageId(first.0 + page_idx as u64), page);
        page[page_size - SEAL..].copy_from_slice(&seal.to_le_bytes());
        page_in_batch += 1;
        if page_in_batch == SPILL_BATCH_PAGES {
            scratch.write_pages(batch_first, &buf[..page_in_batch * page_size])?;
            batch_first = PageId(first.index() + page_idx as u64 + 1);
            page_in_batch = 0;
        }
    }
    if page_in_batch > 0 {
        scratch.write_pages(batch_first, &buf[..page_in_batch * page_size])?;
    }
    Ok(Run {
        first,
        pages,
        records: records.len() as u64,
    })
}

/// Read `pages` consecutive pages starting at `first` into `buf`
/// (resized to fit; a recycled buffer keeps its allocation), one
/// [`Disk::read_page`] per page, checking every seal. Stops at the first
/// failing page.
fn read_chunk(disk: &dyn Disk, first: PageId, pages: u64, buf: &mut Vec<u8>) -> Result<()> {
    let page_size = disk.page_size();
    buf.resize(pages as usize * page_size, 0);
    for (i, page) in buf.chunks_exact_mut(page_size).enumerate() {
        let id = PageId(first.0 + i as u64);
        disk.read_page(id, page)?;
        let stored = u64::from_le_bytes(page[page_size - SEAL..].try_into().expect("8 bytes"));
        if stored != seal_of(id, page) {
            return Err(SortError::Corrupt {
                page: id,
                reason: "spill page seal mismatch",
            });
        }
    }
    Ok(())
}

/// The one outstanding chunk request of a cursor. The cursor keeps its
/// slot for the whole merge, so a request allocates nothing.
#[derive(Default)]
struct Slot {
    state: Mutex<Option<Result<Vec<u8>>>>,
    ready: Condvar,
}

impl Slot {
    fn fill(&self, value: Result<Vec<u8>>) {
        *self.state.lock().expect("a read-ahead thread panicked") = Some(value);
        self.ready.notify_one();
    }

    fn wait(&self) -> Result<Vec<u8>> {
        let mut guard = self.state.lock().expect("a read-ahead thread panicked");
        loop {
            if let Some(v) = guard.take() {
                return v;
            }
            guard = self
                .ready
                .wait(guard)
                .expect("a read-ahead thread panicked");
        }
    }
}

/// A chunk request: first page, page count, the buffer to fill, and the
/// slot to hand it back through.
type Job = (PageId, u64, Vec<u8>, Arc<Slot>);

/// A small pool of reader threads that fetch run chunks ahead of the
/// merge. The merge consumes runs at data-dependent rates, but each run's
/// *next* chunk is always known, so each cursor keeps one chunk in
/// flight while it merges the previous one and the pool overlaps their
/// device latency. Output order is unaffected — only when the reads
/// happen changes.
pub(crate) struct Prefetcher {
    tx: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl Prefetcher {
    pub(crate) fn new(disk: Arc<dyn Disk>, threads: usize) -> Self {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..threads.max(1))
            .map(|_| {
                let rx = rx.clone();
                let disk = disk.clone();
                std::thread::spawn(move || loop {
                    let job = rx.lock().expect("a read-ahead thread panicked").recv();
                    let Ok((first, pages, mut buf, slot)) = job else {
                        return;
                    };
                    let res = read_chunk(disk.as_ref(), first, pages, &mut buf).map(|()| buf);
                    slot.fill(res);
                })
            })
            .collect();
        Self {
            tx: Some(tx),
            handles,
        }
    }

    fn submit(&self, job: Job) {
        // Workers only exit once `tx` drops, so the send cannot fail.
        self.tx
            .as_ref()
            .expect("prefetcher live")
            .send(job)
            .expect("prefetch workers live");
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        self.tx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Streaming reader over one run, a [`CHUNK_PAGES`]-page chunk at a
/// time: read inline, or with a [`Prefetcher`] double-buffered — the
/// cursor merges one chunk while the next is fetched into the buffer it
/// drained before.
pub(crate) struct RunReader<T: FixedRecord> {
    disk: Arc<dyn Disk>,
    run: Run,
    prefetch: Option<(Arc<Prefetcher>, Arc<Slot>)>,
    /// Run-relative index of the next page to request or read.
    next_page: u64,
    /// The chunk being merged, starting at run-relative page `buf_first`.
    buf: Vec<u8>,
    buf_first: u64,
    /// Byte offsets in `buf` of the page after the current one and of
    /// the next record.
    next_page_start: usize,
    offset: usize,
    in_page: usize,
    per_page: usize,
    page_size: usize,
    records_left: u64,
    _marker: std::marker::PhantomData<T>,
}

impl<T: FixedRecord> RunReader<T> {
    pub(crate) fn new(disk: Arc<dyn Disk>, run: Run, prefetch: Option<Arc<Prefetcher>>) -> Self {
        let page_size = disk.page_size();
        let mut reader = Self {
            per_page: per_page::<T>(page_size),
            page_size,
            disk,
            run,
            prefetch: prefetch.map(|pf| (pf, Arc::default())),
            next_page: 0,
            buf: Vec::new(),
            buf_first: 0,
            next_page_start: 0,
            offset: 0,
            in_page: 0,
            records_left: run.records,
            _marker: std::marker::PhantomData,
        };
        reader.request(Vec::new());
        reader
    }

    /// The first page and page count of the run's next chunk; moves
    /// `next_page` past it.
    fn take_chunk(&mut self) -> (PageId, u64) {
        let pages = CHUNK_PAGES.min(self.run.pages - self.next_page);
        let first = PageId(self.run.first.0 + self.next_page);
        self.next_page += pages;
        (first, pages)
    }

    /// Hand the next chunk's read to the prefetcher, recycling `buf`.
    /// No-op without a prefetcher or past the end of the run.
    fn request(&mut self, buf: Vec<u8>) {
        if self.prefetch.is_none() || self.next_page == self.run.pages {
            return;
        }
        let (first, pages) = self.take_chunk();
        let (pf, slot) = self.prefetch.as_ref().expect("checked above");
        pf.submit((first, pages, buf, slot.clone()));
    }

    /// Make the next chunk current: take the one in flight and request
    /// the one after into the drained buffer, or read it inline.
    fn load_chunk(&mut self) -> Result<()> {
        self.buf_first += (self.buf.len() / self.page_size) as u64;
        let drained = std::mem::take(&mut self.buf);
        match &self.prefetch {
            Some((_, slot)) => {
                self.buf = slot.wait()?;
                self.request(drained);
            }
            None => {
                let (first, pages) = self.take_chunk();
                self.buf = drained;
                read_chunk(self.disk.as_ref(), first, pages, &mut self.buf)?;
            }
        }
        self.next_page_start = 0;
        Ok(())
    }

    pub(crate) fn next_record(&mut self) -> Result<Option<T>> {
        if self.records_left == 0 {
            return Ok(None);
        }
        if self.in_page == 0 {
            if self.next_page_start == self.buf.len() {
                self.load_chunk()?;
            }
            self.offset = self.next_page_start;
            self.next_page_start += self.page_size;
            self.in_page = self.per_page;
        }
        let Some(rec) = T::decode(&self.buf[self.offset..self.offset + T::SIZE]) else {
            let in_buf = (self.next_page_start / self.page_size - 1) as u64;
            let page = self.run.first.0 + self.buf_first + in_buf;
            return Err(SortError::Corrupt {
                page: PageId(page),
                reason: "record does not decode",
            });
        };
        self.offset += T::SIZE;
        self.in_page -= 1;
        self.records_left -= 1;
        Ok(Some(rec))
    }
}
