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
//! tree — breaks key ties by batch ordinal. Batch-stable sorting plus
//! ordinal tie-breaks make the merged output the *stable* sort of the
//! input, byte-identical for every thread count.
//!
//! Records are fixed-size ([`FixedRecord`]); R-tree [`rtree::Entry`]
//! values implement it. Sorting is by a caller-supplied `u64` key
//! extractor, and each batch is sorted with [`radix_sort_by_key`], the
//! stable radix sort behind every STR/NX ordering too. Every spill page
//! is sealed with [`storage::wide_hash`] in its last 8 bytes; the merge
//! checks each seal and decodes records with validation, so a damaged
//! scratch page fails the sort with [`SortError::Corrupt`].
//!
//! The merge can be cut by rank ([`SortedRuns::split`]): each run keeps
//! the key of every spill page's first record in memory, 8 bytes per
//! page, and a split finds where a rank of the merged order falls in
//! every run from those fence keys and at most two page reads per run.
//! The merges of the ranges between splits ([`SortedRuns::merge_range`])
//! concatenate to the whole merge, so `t` threads can each merge their
//! own range with no hand-off; [`ExternalSorter::finish`] is the
//! one-range case. A
//! cursor reads its run `max(1, 16 / t)` consecutive pages at a time
//! into one buffer it reuses, so a run's cursors hold 16 pages together
//! at any `t`. Every page is still one [`Disk::read_page`].
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
mod split;

use std::sync::Arc;

use obs::{LazyCounter, LazyGauge, LazyHistogram};
use storage::{Disk, PageId};

pub use merge::MergeIter;
pub use radix::radix_sort_by_key;

use parallel::RunFormerPool;
use run::{Run, RunReader};

// Phase metrics (see DESIGN.md §13): spill volume, run counts, sort time
// per run, the fan-in the merge ended up with, and the pages rank splits
// read.
static SPILL_RECORDS: LazyCounter = LazyCounter::new("extsort.spill_records");
static SPILL_PAGES: LazyCounter = LazyCounter::new("extsort.spill_pages");
static SPLIT_PAGES: LazyCounter = LazyCounter::new("extsort.split_pages");
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
/// phase streams every run through one chunk buffer per merged range.
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
                .push(run::spill_run(self.scratch.as_ref(), &batch, &self.key)?);
        }
        Ok(())
    }

    /// Finish pushing and return a streaming merge iterator over all
    /// records in key order. Key ties preserve batch arrival order, so
    /// the sort is stable and its output independent of thread count.
    pub fn finish(self) -> Result<MergeIter<T, F>> {
        self.finish_runs()?.merge()
    }

    /// Finish pushing and return the sorted runs, to be split by rank
    /// and merged a range at a time.
    pub fn finish_runs(mut self) -> Result<SortedRuns<T, F>> {
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
        Ok(SortedRuns {
            per_page: run::per_page::<T>(self.scratch.page_size()) as u64,
            chunk_pages: (run::CURSOR_PAGES / self.threads as u64).max(1),
            scratch: self.scratch,
            runs,
            key: self.key,
            _marker: std::marker::PhantomData,
        })
    }
}

/// The sorted runs of a finished [`ExternalSorter`]: split the merged
/// order by rank and merge any range of it.
///
/// A split is, for every run, the count of its records before a rank of
/// the merged order; [`split`](SortedRuns::split) finds it from the
/// runs' in-memory fence keys (the key of every spill page's first
/// record) and at most two sealed page reads per run, counted in
/// `extsort.split_pages`.
/// [`merge_range`](SortedRuns::merge_range) merges the records between
/// two splits, so the merges of consecutive ranges concatenate to the
/// merge of all records.
pub struct SortedRuns<T: FixedRecord, F: Fn(&T) -> u64> {
    scratch: Arc<dyn Disk>,
    runs: Vec<Run>,
    key: F,
    per_page: u64,
    chunk_pages: u64,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: FixedRecord, F: Fn(&T) -> u64> SortedRuns<T, F> {
    /// For each of `ranks` (ascending, none past the number of records),
    /// the number of records of every run, in run order, that the merged
    /// order puts before that rank. Rank 0, the last rank and every rank of a single
    /// run are placed without a read.
    pub fn split(&self, ranks: &[u64]) -> Result<Vec<Vec<u64>>> {
        let mut buf = Vec::new();
        let mut pages = 0u64;
        let splits = split::split_ranks(&self.runs, self.per_page, ranks, |r, page| {
            pages += 1;
            run::page_keys(
                self.scratch.as_ref(),
                &self.runs[r],
                page,
                &self.key,
                &mut buf,
            )
        });
        SPLIT_PAGES.add(pages);
        splits
    }

    /// Merge the records from split `from` up to split `to`.
    ///
    /// # Panics
    /// Panics unless `from` and `to` hold one count per run, `from` no
    /// larger than `to` and `to` no larger than the run.
    pub fn merge_range(&self, from: &[u64], to: &[u64]) -> Result<MergeIter<T, F>>
    where
        F: Clone,
    {
        MergeIter::new(self.readers(from, to), self.key.clone())
    }

    /// Merge every record: the one-range case of
    /// [`merge_range`](Self::merge_range).
    pub fn merge(self) -> Result<MergeIter<T, F>> {
        let ends: Vec<u64> = self.runs.iter().map(|r| r.records).collect();
        let from = vec![0; ends.len()];
        let readers = self.readers(&from, &ends);
        MergeIter::new(readers, self.key)
    }

    fn readers(&self, from: &[u64], to: &[u64]) -> Vec<RunReader<T>> {
        assert!(from.len() == self.runs.len() && to.len() == self.runs.len());
        self.runs
            .iter()
            .zip(from.iter().zip(to))
            .map(|(run, (&start, &end))| {
                RunReader::new(self.scratch.clone(), run, start, end, self.chunk_pages)
            })
            .collect()
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
    /// once by run formation, read once by the one-range merge.
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

    /// Runs of 1, chunk−1, chunk and chunk+1 pages, with cursors of 16
    /// and of 8 pages: the output is sorted and complete, and every
    /// spilled page is read exactly once.
    #[test]
    fn chunked_cursors_read_every_page_once() {
        for threads in [1usize, 2] {
            let chunk = run::CURSOR_PAGES / threads as u64;
            for run_pages in [1, chunk - 1, chunk, chunk + 1, 3 * chunk + 2] {
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
        // One cursor chunk and a page at one thread, two and a page at
        // two.
        let (runs, run_pages) = (3u64, run::CURSOR_PAGES + 1);
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

    /// A disk that logs the page of every read.
    struct ReadLog {
        inner: MemDisk,
        reads: std::sync::Mutex<Vec<u64>>,
    }

    impl ReadLog {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                inner: MemDisk::new(256),
                reads: Default::default(),
            })
        }

        fn take(&self) -> Vec<u64> {
            std::mem::take(&mut self.reads.lock().unwrap())
        }
    }

    impl Disk for ReadLog {
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
            self.reads.lock().unwrap().push(id.0);
            self.inner.read_page(id, buf)
        }
        fn write_page(&self, id: PageId, buf: &[u8]) -> storage::Result<()> {
            self.inner.write_page(id, buf)
        }
        fn stats(&self) -> &storage::IoStats {
            self.inner.stats()
        }
    }

    type KeyFn = fn(&u64) -> u64;

    /// Split-test records: a unique id in the low 32 bits, and the key
    /// functions below read the high 32.
    fn uniform_key(v: &u64) -> u64 {
        v >> 32
    }
    fn equal_key(_: &u64) -> u64 {
        7
    }
    fn two_keys(v: &u64) -> u64 {
        (v >> 32) & 1
    }
    /// Half the records carry `u64::MAX`, the key of a NaN center.
    fn max_key(v: &u64) -> u64 {
        if (v >> 32) & 1 == 1 {
            u64::MAX
        } else {
            v >> 33
        }
    }

    fn split_values(n: u64, seed: u64) -> Vec<u64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|i| (rng.gen::<u64>() << 32) | i).collect()
    }

    /// Sort `values` at `threads` threads in batches of `batch` records
    /// through 256-byte pages on `disk`; run `r` is batch `r`.
    fn sorted_runs(
        disk: Arc<dyn Disk>,
        values: &[u64],
        batch: usize,
        threads: usize,
        key: KeyFn,
    ) -> SortedRuns<u64, KeyFn> {
        let mut sorter = ExternalSorter::with_threads(disk, batch * threads, threads, key);
        for &v in values {
            sorter.push(v).unwrap();
        }
        sorter.finish_runs().unwrap()
    }

    /// The splits by brute force: every record tagged `(key, run, pos)`,
    /// sorted, and counted per run over the first `g`.
    fn oracle_splits(values: &[u64], batch: usize, key: KeyFn) -> Vec<Vec<u64>> {
        let runs = values.len().div_ceil(batch);
        let mut tagged: Vec<(u64, usize, usize)> = values
            .chunks(batch)
            .enumerate()
            .flat_map(|(r, chunk)| {
                let mut run = chunk.to_vec();
                run.sort_by_key(key);
                run.into_iter()
                    .enumerate()
                    .map(move |(i, v)| (key(&v), r, i))
            })
            .collect();
        tagged.sort_unstable();
        let mut counts = vec![0u64; runs];
        let mut out = vec![counts.clone()];
        for &(_, r, _) in &tagged {
            counts[r] += 1;
            out.push(counts.clone());
        }
        out
    }

    const SPLIT_KEYS: [(&str, KeyFn); 4] = [
        ("uniform", uniform_key),
        ("all equal", equal_key),
        ("two keys", two_keys),
        ("u64::MAX", max_key),
    ];

    /// Every rank splits where the brute-force merged order puts it, one
    /// rank at a time and all ranks in one call, on uniform keys, keys
    /// that are all equal, two distinct keys and `u64::MAX` keys, over
    /// many runs (batches of 100 records: three full pages and a short
    /// one) and over a single run.
    #[test]
    fn split_matches_the_merged_order_at_every_rank() {
        let n = 1_500u64;
        for (name, key) in SPLIT_KEYS {
            for batch in [100usize, n as usize] {
                let values = split_values(n, 11);
                let runs = sorted_runs(Arc::new(MemDisk::new(256)), &values, batch, 1, key);
                let expect = oracle_splits(&values, batch, key);
                let ranks: Vec<u64> = (0..=n).collect();
                assert_eq!(runs.split(&ranks).unwrap(), expect, "{name} batch={batch}");
                for g in (0..=n).step_by(7) {
                    let one = runs.split(&[g]).unwrap();
                    assert_eq!(one[0], expect[g as usize], "{name} batch={batch} g={g}");
                }
            }
        }
    }

    /// Merging the ranges between consecutive splits, empty ranges
    /// included, gives the full merge record for record.
    #[test]
    fn merge_ranges_concatenate_to_the_full_merge() {
        let n = 1_500u64;
        for (name, key) in SPLIT_KEYS {
            for (batch, threads) in [(100usize, 1usize), (100, 3), (n as usize, 1)] {
                let values = split_values(n, 12);
                let disk = Arc::new(MemDisk::new(256));
                let full: Vec<u64> = sorted_runs(disk, &values, batch, threads, key)
                    .merge()
                    .unwrap()
                    .map(|r| r.unwrap())
                    .collect();
                let runs = sorted_runs(Arc::new(MemDisk::new(256)), &values, batch, threads, key);
                for cuts in [
                    vec![0, n],
                    vec![0, 0, 1, 37, 37, 700, n - 1, n, n],
                    (0..=n).step_by(31).chain([n]).collect(),
                ] {
                    let splits = runs.split(&cuts).unwrap();
                    let mut got = Vec::new();
                    for pair in splits.windows(2) {
                        let range = runs.merge_range(&pair[0], &pair[1]).unwrap();
                        got.extend(range.map(|r| r.unwrap()));
                    }
                    let case = format!("{name} batch={batch} threads={threads} cuts={cuts:?}");
                    assert_eq!(got, full, "{case}");
                }
            }
        }
    }

    /// A ranged cursor starts anywhere: at the run's first record, mid
    /// page, on a page boundary, on a cursor chunk boundary, on the
    /// run's last record, and at its end.
    #[test]
    fn ranged_cursor_starts_anywhere_in_its_run() {
        let n = 400u64;
        let values = split_values(n, 13);
        // One run; at 8 threads each cursor reads 2 pages a request.
        let threads = 8;
        let runs = sorted_runs(
            Arc::new(MemDisk::new(256)),
            &values,
            n as usize,
            threads,
            uniform_key,
        );
        let full: Vec<u64> = runs
            .merge_range(&[0], &[n])
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let per_page = PER_PAGE_256;
        for start in [0, 15, per_page, 2 * per_page, 2 * per_page + 1, n - 1, n] {
            for end in [start, (start + 1).min(n), (start + per_page).min(n), n] {
                let got: Vec<u64> = runs
                    .merge_range(&[start], &[end])
                    .unwrap()
                    .map(|r| r.unwrap())
                    .collect();
                assert_eq!(got, full[start as usize..end as usize], "{start}..{end}");
            }
        }
    }

    /// Keys crowded into one band: one run holds 20 pages inside it,
    /// while each of the other ten runs has a single page straddling it.
    fn crowded_values() -> Vec<u64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let batch = 20 * PER_PAGE_256;
        let mut values = Vec::new();
        for r in 0..11u64 {
            for i in 0..batch {
                let key = if r == 5 {
                    (1 << 30) + rng.gen_range(0..1_000u64)
                } else {
                    rng.gen_range(0..1u64 << 31)
                };
                values.push((key << 32) | (r * batch + i));
            }
        }
        values
    }

    /// Two runs dense in one band, alternating page by page, while ten
    /// runs straddle the band with one page whose records lie almost all
    /// below it.
    fn striped_values() -> Vec<u64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let pp = PER_PAGE_256;
        let batch = 20 * pp;
        let (b0, w) = (1u64 << 30, 1u64 << 16);
        let b1 = b0 + 40 * w;
        let mut values = Vec::new();
        for r in 0..12u64 {
            for i in 0..batch {
                let key = if r < 10 {
                    if i < 10 * pp + pp - 1 {
                        rng.gen_range(0..b0)
                    } else {
                        rng.gen_range(b1..b1 + (1 << 20))
                    }
                } else {
                    let j = i / pp;
                    b0 + (2 * j + (r - 10)) * w + rng.gen_range(0..w)
                };
                values.push((key << 32) | (r * batch + i));
            }
        }
        values
    }

    /// A split reads at most two pages of any run, at every rank: on
    /// uniform keys over 40 runs, on tied and `u64::MAX` keys, on one run
    /// crowded into a band the other runs straddle, and on two runs
    /// striped across a band that ten runs straddle. Ranks 0 and `len`
    /// read nothing.
    #[test]
    fn a_split_reads_at_most_two_pages_per_run() {
        let mut cases: Vec<(&str, Vec<u64>, usize, KeyFn)> = SPLIT_KEYS
            .iter()
            .map(|&(name, key)| (name, split_values(4_000, 15), 100, key))
            .collect();
        cases.push((
            "crowded",
            crowded_values(),
            20 * PER_PAGE_256 as usize,
            uniform_key,
        ));
        cases.push((
            "striped",
            striped_values(),
            20 * PER_PAGE_256 as usize,
            uniform_key,
        ));
        for (name, values, batch, key) in cases {
            let disk = ReadLog::new();
            let runs = sorted_runs(disk.clone(), &values, batch, 1, key);
            let pages_per_run = (batch as u64).div_ceil(PER_PAGE_256);
            let n = values.len() as u64;
            disk.take();
            for g in 0..=n {
                runs.split(&[g]).unwrap();
                let reads = disk.take();
                if g == 0 || g == n {
                    assert!(reads.is_empty(), "{name} g={g}");
                }
                let mut per_run = std::collections::HashMap::new();
                for page in reads {
                    *per_run.entry(page / pages_per_run).or_insert(0) += 1;
                }
                let most = per_run.values().max().copied().unwrap_or(0);
                assert!(most <= 2, "{name} g={g}: {most} pages of one run");
            }
        }
    }
}
