//! External merge sort over the paged storage layer.
//!
//! The paper's General Algorithm (§2.2) begins "Preprocess the data file
//! so that the r rectangles are ordered…". Its evaluation fits in memory,
//! but the algorithm is explicitly targeted at files, and STR's first
//! step — a global sort by x-coordinate — is exactly the step that breaks
//! when the data outgrows RAM. This crate supplies the missing substrate:
//! a run-formation + k-way-merge external sort whose scratch space is a
//! [`storage::Disk`], so the same simulated-I/O accounting the
//! experiments use covers the preprocessing phase too.
//!
//! Run formation can be parallel ([`ExternalSorter::with_threads`]): the
//! input is cut into arrival-order batches under one shared memory
//! budget, a pool of workers sorts and spills them concurrently (each
//! run's pages are reserved atomically with [`Disk::allocate_run`] and
//! written with batched sequential appends), and the merge — a loser
//! tree with read-ahead cursors — breaks key ties by batch ordinal.
//! Batch-stable sorting plus ordinal tie-breaks make the merged output
//! the *stable* sort of the input, byte-identical for every thread
//! count.
//!
//! Records are fixed-size ([`FixedRecord`]); R-tree [`rtree::Entry`]
//! values implement it. Sorting is by a caller-supplied `u64` key
//! extractor, and each batch is sorted with [`radix_sort_by_key`], the
//! stable radix sort STR's in-memory tiling uses too. Every spill page
//! is sealed with [`storage::wide_hash`] in its last 8 bytes; the merge
//! checks each seal and decodes records with validation, so a damaged
//! scratch page fails the sort with [`SortError::Corrupt`].
//!
//! The merge cursors read their runs a chunk of 8 consecutive pages at a
//! time. With sorter threads, a pool of as many reader threads fetches
//! each cursor's next chunk into the buffer its previous chunk was
//! merged from, so the merge allocates nothing per page. Every page is
//! still one [`Disk::read_page`]; page counts do not depend on the
//! chunking.
//!
//! ```
//! use std::sync::Arc;
//! use extsort::ExternalSorter;
//! use storage::MemDisk;
//!
//! let scratch = Arc::new(MemDisk::default_size());
//! // Budget of 100 records of in-memory sorting at a time.
//! let mut sorter = ExternalSorter::new(scratch, 100, |v: &u64| *v);
//! for i in (0..1000u64).rev() {
//!     sorter.push(i).unwrap();
//! }
//! let sorted: Vec<u64> = sorter.finish().unwrap().map(|r| r.unwrap()).collect();
//! assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
//! ```

mod merge;
mod parallel;
mod radix;
mod run;

use std::sync::Arc;

use obs::{LazyCounter, LazyGauge, LazyHistogram};
use storage::{Disk, PageId};

pub use merge::MergeIter;
pub use radix::radix_sort_by_key;

use parallel::RunFormerPool;
use run::{Prefetcher, Run, RunReader};

// Phase metrics (see DESIGN.md §13): spill volume, run counts, sort time
// per run, and the fan-in the merge ended up with.
static SPILL_RECORDS: LazyCounter = LazyCounter::new("extsort.spill_records");
static SPILL_PAGES: LazyCounter = LazyCounter::new("extsort.spill_pages");
static RUNS_FORMED: LazyCounter = LazyCounter::new("extsort.runs");
static MERGE_FANIN: LazyGauge = LazyGauge::new("extsort.merge_fanin");
pub(crate) static RUN_SORT_NS: LazyHistogram = LazyHistogram::new("extsort.run_sort_ns");

/// A record with a fixed on-disk size.
pub trait FixedRecord: Copy {
    /// Encoded size in bytes. Must be > 0 and leave 8 bytes of a page
    /// free for the page's seal.
    const SIZE: usize;

    /// Encode into `out` (`out.len() == SIZE`).
    fn encode(&self, out: &mut [u8]);

    /// Decode from `buf` (`buf.len() == SIZE`); `None` if the bytes are
    /// not a valid record.
    fn decode(buf: &[u8]) -> Option<Self>;
}

impl FixedRecord for u64 {
    const SIZE: usize = 8;

    fn encode(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Option<Self> {
        Some(u64::from_le_bytes(buf.try_into().ok()?))
    }
}

impl<const D: usize> FixedRecord for rtree::Entry<D> {
    const SIZE: usize = D * 2 * 8 + 8;

    fn encode(&self, out: &mut [u8]) {
        let mut off = 0;
        for i in 0..D {
            out[off..off + 8].copy_from_slice(&self.rect.lo(i).to_le_bytes());
            off += 8;
        }
        for i in 0..D {
            out[off..off + 8].copy_from_slice(&self.rect.hi(i).to_le_bytes());
            off += 8;
        }
        out[off..off + 8].copy_from_slice(&self.payload.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Option<Self> {
        let mut words = buf
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
        let mut min = [0.0f64; D];
        let mut max = [0.0f64; D];
        for m in min.iter_mut().chain(max.iter_mut()) {
            *m = f64::from_bits(words.next()?);
        }
        let payload = words.next()?;
        Some(rtree::Entry {
            rect: geom::Rect::try_new(min, max).ok()?,
            payload,
        })
    }
}

/// Errors from external sorting.
#[derive(Debug)]
pub enum SortError {
    /// Scratch-disk failure.
    Storage(storage::StorageError),
    /// A spill page read back differently from how it was written.
    Corrupt {
        /// The scratch page that failed its check.
        page: PageId,
        /// What was wrong with it.
        reason: &'static str,
    },
}

impl std::fmt::Display for SortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SortError::Storage(e) => write!(f, "scratch disk: {e}"),
            SortError::Corrupt { page, reason } => {
                write!(f, "corrupt scratch page p{}: {reason}", page.0)
            }
        }
    }
}

impl std::error::Error for SortError {}

impl From<storage::StorageError> for SortError {
    fn from(e: storage::StorageError) -> Self {
        SortError::Storage(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, SortError>;

/// External merge sorter: push records, then iterate them in order of
/// the `u64` key `key` gives each.
///
/// `budget` is the total number of records buffered in memory across all
/// sorter threads — the paper-era analogue of the sort buffer. The merge
/// phase streams every run through one chunk buffer each (two with the
/// multi-threaded read-ahead).
pub struct ExternalSorter<T: FixedRecord, F: Fn(&T) -> u64> {
    scratch: Arc<dyn Disk>,
    key: F,
    threads: usize,
    batch_cap: usize,
    current: Vec<T>,
    next_ordinal: usize,
    pushed: u64,
    runs: Vec<Run>,
    pool: Option<RunFormerPool<T>>,
}

impl<T: FixedRecord, F: Fn(&T) -> u64> ExternalSorter<T, F> {
    /// Create a single-threaded sorter with an in-memory `budget`
    /// (records per run) and a key extractor.
    ///
    /// # Panics
    /// Panics if `budget == 0` or a record and the page seal do not fit
    /// a page.
    pub fn new(scratch: Arc<dyn Disk>, budget: usize, key: F) -> Self {
        assert!(budget > 0, "sort budget must be positive");
        assert!(
            T::SIZE > 0 && T::SIZE + run::SEAL <= scratch.page_size(),
            "record size must fit a page"
        );
        Self {
            scratch,
            key,
            threads: 1,
            batch_cap: budget,
            current: Vec::new(),
            next_ordinal: 0,
            pushed: 0,
            runs: Vec::new(),
            pool: None,
        }
    }

    /// Add a record.
    pub fn push(&mut self, record: T) -> Result<()> {
        self.current.push(record);
        self.pushed += 1;
        if self.current.len() >= self.batch_cap {
            self.dispatch_current()?;
        }
        Ok(())
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> u64 {
        self.pushed
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Configured sorter thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn dispatch_current(&mut self) -> Result<()> {
        if self.current.is_empty() {
            return Ok(());
        }
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        let batch = std::mem::replace(&mut self.current, Vec::with_capacity(self.batch_cap));
        if let Some(pool) = &self.pool {
            pool.dispatch(ordinal, batch)?;
        } else {
            let mut batch = batch;
            let _span = RUN_SORT_NS.start();
            radix_sort_by_key(&mut batch, &self.key);
            drop(_span);
            self.runs
                .push(run::spill_run(self.scratch.as_ref(), &batch)?);
        }
        Ok(())
    }

    /// Finish pushing and return a streaming merge iterator over all
    /// records in key order. Key ties preserve batch arrival order, so
    /// the sort is stable and its output independent of thread count.
    pub fn finish(mut self) -> Result<MergeIter<T, F>> {
        self.dispatch_current()?;
        let mut runs = std::mem::take(&mut self.runs);
        if let Some(pool) = self.pool.take() {
            runs = pool.join()?;
        }
        if obs::enabled() {
            RUNS_FORMED.add(runs.len() as u64);
            SPILL_RECORDS.add(runs.iter().map(|r| r.records).sum());
            SPILL_PAGES.add(runs.iter().map(|r| r.pages).sum());
            MERGE_FANIN.set(runs.len() as i64);
        }
        // Read-ahead only pays when sorter threads were requested and
        // there is more than one run to overlap.
        let prefetcher = (self.threads > 1 && runs.len() > 1)
            .then(|| Arc::new(Prefetcher::new(self.scratch.clone(), self.threads)));
        let readers = runs
            .into_iter()
            .map(|r| RunReader::new(self.scratch.clone(), r, prefetcher.clone()))
            .collect();
        // `self.key` can't move out while `self` has a Drop-relevant
        // field; it doesn't, so plain move is fine.
        MergeIter::new(readers, self.key, prefetcher)
    }
}

impl<T, F> ExternalSorter<T, F>
where
    T: FixedRecord + Send + 'static,
    F: Fn(&T) -> u64 + Clone + Send + 'static,
{
    /// Create a sorter whose run formation runs on `threads` worker
    /// threads sharing the `budget` (each batch is `budget / threads`
    /// records). `threads <= 1` behaves exactly like [`new`].
    ///
    /// The merged output is byte-identical to the single-threaded
    /// sorter's: batches are cut in arrival order, sorted stably, and
    /// merged with ties broken by batch ordinal.
    ///
    /// # Panics
    /// Panics if `budget == 0` or a record and the page seal do not fit
    /// a page.
    ///
    /// [`new`]: ExternalSorter::new
    pub fn with_threads(scratch: Arc<dyn Disk>, budget: usize, threads: usize, key: F) -> Self {
        let mut sorter = Self::new(scratch.clone(), budget, key);
        if threads <= 1 {
            return sorter;
        }
        sorter.threads = threads;
        sorter.batch_cap = (budget / threads).max(1);
        sorter.pool = Some(RunFormerPool::new(scratch, threads, sorter.key.clone()));
        sorter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use storage::MemDisk;

    fn sort_u64s(values: Vec<u64>, budget: usize) -> Vec<u64> {
        let scratch = Arc::new(MemDisk::new(256));
        let mut sorter = ExternalSorter::new(scratch, budget, |v: &u64| *v);
        for v in values {
            sorter.push(v).unwrap();
        }
        sorter.finish().unwrap().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn sorts_more_data_than_budget() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let values: Vec<u64> = (0..10_000).map(|_| rng.gen()).collect();
        let mut expect = values.clone();
        expect.sort_unstable();
        assert_eq!(sort_u64s(values, 100), expect);
    }

    #[test]
    fn single_run_fast_path() {
        let values = vec![5u64, 3, 9, 1];
        assert_eq!(sort_u64s(values, 1000), vec![1, 3, 5, 9]);
    }

    #[test]
    fn empty_input() {
        assert!(sort_u64s(vec![], 10).is_empty());
    }

    #[test]
    fn budget_of_one_degenerates_to_merge_of_singletons() {
        let values = vec![4u64, 2, 7, 7, 0];
        assert_eq!(sort_u64s(values, 1), vec![0, 2, 4, 7, 7]);
    }

    #[test]
    fn exact_budget_boundary() {
        // Push exactly k*budget records: the last spill happens in
        // finish(), and nothing is lost.
        let values: Vec<u64> = (0..300).rev().collect();
        let sorted = sort_u64s(values, 100);
        assert_eq!(sorted.len(), 300);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn len_tracks_pushes() {
        let scratch = Arc::new(MemDisk::new(256));
        let mut sorter = ExternalSorter::new(scratch, 3, |v: &u64| *v);
        assert!(sorter.is_empty());
        for i in 0..10 {
            sorter.push(i).unwrap();
        }
        assert_eq!(sorter.len(), 10);
    }

    #[test]
    fn entries_round_trip_through_scratch() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let entries: Vec<rtree::Entry<2>> = (0..2_000)
            .map(|i| {
                let x: f64 = rng.gen_range(0.0..1.0);
                let y: f64 = rng.gen_range(0.0..1.0);
                rtree::Entry::data(geom::Rect::new([x, y], [x + 0.01, y + 0.01]), i)
            })
            .collect();
        let scratch = Arc::new(MemDisk::default_size());
        let mut sorter = ExternalSorter::new(scratch, 128, |e: &rtree::Entry<2>| {
            hilbert::f64_order_key(e.rect.center_coord(0))
        });
        for e in &entries {
            sorter.push(*e).unwrap();
        }
        let sorted: Vec<rtree::Entry<2>> = sorter.finish().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(sorted.len(), entries.len());
        // Order by x-center, all payloads preserved.
        assert!(sorted
            .windows(2)
            .all(|w| w[0].rect.center_coord(0) <= w[1].rect.center_coord(0)));
        let mut in_ids: Vec<u64> = entries.iter().map(|e| e.payload).collect();
        let mut out_ids: Vec<u64> = sorted.iter().map(|e| e.payload).collect();
        in_ids.sort_unstable();
        out_ids.sort_unstable();
        assert_eq!(in_ids, out_ids);
    }

    #[test]
    fn scratch_io_is_two_passes() {
        // Run formation writes each page once; the merge reads each page
        // once. (The in-memory single-run case short-circuits neither —
        // we still spill, keeping the accounting uniform.)
        let scratch = Arc::new(MemDisk::new(256));
        let mut sorter = ExternalSorter::new(scratch.clone() as Arc<dyn Disk>, 62, |v: &u64| *v);
        for i in 0..992u64 {
            sorter.push(i ^ 0x2A).unwrap();
        }
        let _ = sorter.finish().unwrap().count();
        let stats = scratch.stats();
        assert_eq!(stats.writes(), stats.reads(), "one read per written page");
        // 256-byte pages hold 31 u64s beside the 8-byte seal; 992
        // records = 32 pages.
        assert_eq!(stats.writes(), 32);
    }

    /// The parallel sorter is stable: output is identical across thread
    /// counts, including on heavily tied keys, and matches a stable sort.
    #[test]
    fn parallel_output_identical_across_thread_counts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // (key with few distinct values, unique id) — ties must keep
        // arrival order of the ids.
        let values: Vec<u64> = (0..40_000u64)
            .map(|i| ((rng.gen::<u64>() % 11) << 32) | i)
            .collect();
        let mut expect = values.clone();
        expect.sort_by_key(|v| *v >> 32);

        for threads in [1usize, 2, 3, 8] {
            let scratch = Arc::new(MemDisk::default_size());
            let mut sorter =
                ExternalSorter::with_threads(scratch, 1000, threads, |v: &u64| *v >> 32);
            for v in &values {
                sorter.push(*v).unwrap();
            }
            let got: Vec<u64> = sorter.finish().unwrap().map(|r| r.unwrap()).collect();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    /// Parallel spill I/O stays two passes: every scratch page written
    /// once by run formation, read once by the merge (read-ahead fetches
    /// each page exactly once).
    #[test]
    fn parallel_scratch_io_is_two_passes() {
        // budget 248 / 4 threads = 62-record batches = exactly 2 pages
        // per run, so page counts match the sequential test's shape.
        let scratch = Arc::new(MemDisk::new(256));
        let mut sorter =
            ExternalSorter::with_threads(scratch.clone() as Arc<dyn Disk>, 248, 4, |v: &u64| *v);
        for i in 0..992u64 {
            sorter.push(i ^ 0x2A).unwrap();
        }
        let sorted: Vec<u64> = sorter.finish().unwrap().map(|r| r.unwrap()).collect();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let stats = scratch.stats();
        assert_eq!(stats.writes(), 32);
        assert_eq!(stats.reads(), 32);
    }

    #[test]
    fn parallel_entries_match_sequential_bytes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let entries: Vec<rtree::Entry<3>> = (0..5_000)
            .map(|i| {
                let p: [f64; 3] = [rng.gen(), rng.gen(), rng.gen()];
                rtree::Entry::data(geom::Rect::new(p, p.map(|v| v + 0.01)), i)
            })
            .collect();
        let key = |e: &rtree::Entry<3>| hilbert::f64_order_key(e.rect.center_coord(0));
        let run = |threads: usize| -> Vec<rtree::Entry<3>> {
            let scratch = Arc::new(MemDisk::default_size());
            let mut sorter = ExternalSorter::with_threads(scratch, 700, threads, key);
            for e in &entries {
                sorter.push(*e).unwrap();
            }
            sorter.finish().unwrap().map(|r| r.unwrap()).collect()
        };
        let seq = run(1);
        for threads in [2usize, 5] {
            let par = run(threads);
            assert_eq!(par.len(), seq.len());
            let same = par
                .iter()
                .zip(&seq)
                .all(|(a, b)| a.payload == b.payload && a.rect == b.rect);
            assert!(same, "threads={threads} diverged from sequential");
        }
    }

    /// u64 records per 256-byte page: the page less its 8-byte seal.
    const PER_PAGE_256: u64 = 31;

    /// Sort `runs` runs of `run_pages` pages each through 256-byte pages
    /// at `threads` threads. Run `r` holds the values `≡ r (mod runs)`,
    /// so the merge interleaves every run. Returns the merged stream,
    /// or the one error `finish` gave.
    fn interleaved_sort(
        scratch: Arc<dyn Disk>,
        runs: u64,
        run_pages: u64,
        threads: usize,
    ) -> Vec<Result<u64>> {
        let batch = run_pages * PER_PAGE_256;
        let mut sorter = ExternalSorter::with_threads(
            scratch,
            (batch as usize) * threads,
            threads,
            |v: &u64| *v,
        );
        for r in 0..runs {
            for i in (0..batch).rev() {
                sorter.push(i * runs + r).unwrap();
            }
        }
        match sorter.finish() {
            Ok(merge) => merge.collect(),
            Err(e) => vec![Err(e)],
        }
    }

    /// Runs of 1, chunk−1, chunk and chunk+1 pages, with more runs than
    /// read-ahead threads and inline: the output is sorted and complete,
    /// and every spilled page is read exactly once.
    #[test]
    fn chunked_read_ahead_reads_every_page_once() {
        let chunk = run::CHUNK_PAGES;
        for run_pages in [1, chunk - 1, chunk, chunk + 1, 3 * chunk + 2] {
            for threads in [1usize, 2] {
                let runs = 5;
                let scratch = Arc::new(MemDisk::new(256));
                let got: Vec<u64> = interleaved_sort(scratch.clone(), runs, run_pages, threads)
                    .into_iter()
                    .map(|r| r.unwrap())
                    .collect();
                let expect: Vec<u64> = (0..runs * run_pages * PER_PAGE_256).collect();
                assert_eq!(got, expect, "run_pages={run_pages} threads={threads}");
                let stats = scratch.stats();
                assert_eq!(stats.writes(), runs * run_pages, "run_pages={run_pages}");
                assert_eq!(stats.reads(), stats.writes(), "run_pages={run_pages}");
            }
        }
    }

    /// A read error on any page of any chunk — first, middle, last —
    /// surfaces as `Err`, and nothing from that page or a later one of
    /// its run comes out before it.
    #[test]
    fn read_error_on_any_chunk_page_is_clean() {
        let (runs, run_pages) = (3u64, 2 * run::CHUNK_PAGES + 1);
        for threads in [1usize, 2] {
            for page in 0..runs * run_pages {
                let mem = Arc::new(MemDisk::new(256));
                let faulty = Arc::new(storage::FaultDisk::new(mem.clone()));
                faulty.push(storage::FaultSpec {
                    op: storage::FaultOp::Read,
                    kind: storage::FaultKind::Error,
                    trigger: storage::Trigger::PageRange { lo: page, hi: page },
                });
                let out = interleaved_sort(faulty, runs, run_pages, threads);
                let case = format!("threads={threads} page={page}");
                let failed_at = out.iter().position(|r| r.is_err()).expect(&case);
                assert_eq!(failed_at + 1, out.len(), "{case}: records after the error");
                // The faulted page's first record, read past the fault:
                // every record merged before the error sorts below it.
                let mut buf = vec![0u8; 256];
                mem.read_page(PageId(page), &mut buf).unwrap();
                let first = u64::decode(&buf[..8]).unwrap();
                let merged = out[..failed_at].iter().map(|r| *r.as_ref().unwrap());
                assert!(merged.clone().all(|v| v < first), "{case}");
                assert!(merged.eq(0..failed_at as u64), "{case}");
            }
        }
    }

    /// A flipped bit anywhere in a spill page — record bytes, unused
    /// tail, seal — fails the merge with `Corrupt` naming the page.
    #[test]
    fn corrupt_spill_page_fails_its_seal() {
        for offset in [0usize, 7, 100, 247, 248, 255] {
            let mem = Arc::new(MemDisk::new(256));
            let faulty = Arc::new(storage::FaultDisk::new(mem.clone()));
            faulty.push(storage::FaultSpec {
                op: storage::FaultOp::Read,
                kind: storage::FaultKind::BitFlip { offset, mask: 0x10 },
                trigger: storage::Trigger::PageRange { lo: 4, hi: 4 },
            });
            let out = interleaved_sort(faulty, 2, 3, 1);
            let err = out
                .into_iter()
                .find_map(|r| r.err())
                .expect("flip detected");
            assert!(
                matches!(
                    err,
                    SortError::Corrupt {
                        page: PageId(4),
                        ..
                    }
                ),
                "offset={offset}: {err}"
            );
        }
    }
}
