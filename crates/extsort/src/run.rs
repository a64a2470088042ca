//! Sorted runs on the scratch disk: the spill writer with its fence
//! keys, and the ranged reader a merge cursor streams a run through.
//!
//! Every spill page is sealed: its last [`SEAL`] bytes hold
//! [`storage::wide_hash`] of the rest, seeded with the page id, so a
//! flipped bit, a torn page or a page read from the wrong place fails
//! the merge (or the rank split) with [`SortError::Corrupt`] instead of
//! reaching the output.

use std::sync::Arc;

use storage::{wide_hash, Disk, PageId};

use crate::{FixedRecord, Result, SortError};

/// Pages encoded per batched scratch write. Spills reserve the whole run
/// up front with [`Disk::allocate_run`], so every flush is one positioned
/// device call over consecutive pages.
pub(crate) const SPILL_BATCH_PAGES: usize = 64;

/// Bytes at the end of every spill page holding its seal.
pub(crate) const SEAL: usize = 8;

/// Cursor pages per run across all ranged merges: a sorter with `t`
/// threads gives each cursor `max(1, CURSOR_PAGES / t)` pages per
/// request, so when `t` workers each merge a range, the cursors of one
/// run hold at most this many pages together.
pub(crate) const CURSOR_PAGES: u64 = 16;

/// One sorted run: a contiguous page range, its record count, and the
/// key of the first record of every page (its fence keys).
#[derive(Clone, Debug)]
pub(crate) struct Run {
    pub first: PageId,
    pub pages: u64,
    pub records: u64,
    pub fences: Vec<u64>,
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

/// Encode `records` (already sorted by `key`) into a freshly reserved
/// contiguous run on `scratch`, writing in [`SPILL_BATCH_PAGES`]-page
/// batches, and keep the key of each page's first record.
///
/// This is the per-worker sequential appender of the parallel sorter:
/// because the range is reserved atomically before any byte is written,
/// any number of workers can spill concurrently without interleaving
/// their runs.
pub(crate) fn spill_run<T: FixedRecord>(
    scratch: &dyn Disk,
    records: &[T],
    key: impl Fn(&T) -> u64,
) -> Result<Run> {
    debug_assert!(!records.is_empty());
    let page_size = scratch.page_size();
    let per_page = per_page::<T>(page_size);
    let pages = records.len().div_ceil(per_page) as u64;
    let first = scratch.allocate_run(pages)?;

    let mut fences = Vec::with_capacity(pages as usize);
    let mut buf = vec![0u8; page_size * SPILL_BATCH_PAGES.min(pages as usize)];
    let mut page_in_batch = 0usize;
    let mut batch_first = first;
    for (page_idx, chunk) in records.chunks(per_page).enumerate() {
        fences.push(key(&chunk[0]));
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
        fences,
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

fn corrupt_record(page: PageId) -> SortError {
    SortError::Corrupt {
        page,
        reason: "record does not decode",
    }
}

/// The keys of every record on run-relative page `page` of `run`, read
/// and checked like a merge read: one [`Disk::read_page`].
pub(crate) fn page_keys<T: FixedRecord>(
    disk: &dyn Disk,
    run: &Run,
    page: u64,
    key: impl Fn(&T) -> u64,
    buf: &mut Vec<u8>,
) -> Result<Vec<u64>> {
    let per_page = per_page::<T>(disk.page_size()) as u64;
    let id = PageId(run.first.0 + page);
    read_chunk(disk, id, 1, buf)?;
    let records = per_page.min(run.records - page * per_page) as usize;
    buf.chunks_exact(T::SIZE)
        .take(records)
        .map(|rec| {
            T::decode(rec)
                .map(|rec| key(&rec))
                .ok_or(corrupt_record(id))
        })
        .collect()
}

/// Streaming reader over the records `start..end` of one run, reading
/// `chunk_pages` consecutive pages per request and never a page outside
/// the range. A range may start or end anywhere inside a page.
pub(crate) struct RunReader<T: FixedRecord> {
    disk: Arc<dyn Disk>,
    first: PageId,
    chunk_pages: u64,
    /// Run-relative index of the next page to read, and of the page
    /// after the range's last.
    next_page: u64,
    end_page: u64,
    /// The chunk being merged, starting at run-relative page `buf_first`.
    buf: Vec<u8>,
    buf_first: u64,
    /// Byte offsets in `buf` of the page after the current one and of
    /// the next record.
    next_page_start: usize,
    offset: usize,
    /// Records left on the current page, and to skip on the first.
    in_page: usize,
    skip: usize,
    per_page: usize,
    page_size: usize,
    records_left: u64,
    _marker: std::marker::PhantomData<T>,
}

impl<T: FixedRecord> RunReader<T> {
    pub(crate) fn new(
        disk: Arc<dyn Disk>,
        run: &Run,
        start: u64,
        end: u64,
        chunk_pages: u64,
    ) -> Self {
        assert!(start <= end && end <= run.records, "range outside its run");
        debug_assert!(chunk_pages > 0);
        let page_size = disk.page_size();
        let per_page = per_page::<T>(page_size);
        Self {
            disk,
            first: run.first,
            chunk_pages,
            next_page: start / per_page as u64,
            end_page: end.div_ceil(per_page as u64),
            buf: Vec::new(),
            buf_first: start / per_page as u64,
            next_page_start: 0,
            offset: 0,
            in_page: 0,
            skip: (start % per_page as u64) as usize,
            per_page,
            page_size,
            records_left: end - start,
            _marker: std::marker::PhantomData,
        }
    }

    /// Make the range's next chunk current, reading it into the buffer
    /// the previous chunk was merged from.
    fn load_chunk(&mut self) -> Result<()> {
        let pages = self.chunk_pages.min(self.end_page - self.next_page);
        self.buf_first = self.next_page;
        read_chunk(
            self.disk.as_ref(),
            PageId(self.first.0 + self.next_page),
            pages,
            &mut self.buf,
        )?;
        self.next_page += pages;
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
            self.offset = self.next_page_start + self.skip * T::SIZE;
            self.next_page_start += self.page_size;
            self.in_page = self.per_page - self.skip;
            self.skip = 0;
        }
        let Some(rec) = T::decode(&self.buf[self.offset..self.offset + T::SIZE]) else {
            let in_buf = (self.next_page_start / self.page_size - 1) as u64;
            return Err(corrupt_record(PageId(
                self.first.0 + self.buf_first + in_buf,
            )));
        };
        self.offset += T::SIZE;
        self.in_page -= 1;
        self.records_left -= 1;
        Ok(Some(rec))
    }
}
