//! Parallel run formation: a pool of sorter threads that take batches in
//! arrival order, sort each on the caller's `u64` key
//! ([`crate::radix_sort_by_key`]), and spill them as independent runs
//! under one shared memory budget.
//!
//! The pusher cuts the input into batches of `budget / threads` records
//! and hands batch *b* to whichever worker is free; the spilled run keeps
//! `b` as its ordinal. Because each batch is sorted stably and the merge
//! breaks key ties by run ordinal, the merged output is the stable sort
//! of the input — identical for every thread count and batch size.
//!
//! Memory: the pusher owns one batch being filled and the rendezvous
//! hand-off means each worker owns at most one batch being sorted, so
//! peak buffered records ≤ budget + one batch. A batch being sorted
//! also holds 12 bytes of radix scratch per record.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use storage::Disk;

use crate::run::{spill_run, Run};
use crate::{FixedRecord, Result, SortError};

struct Shared {
    /// First spill error; later batches are discarded once this is set.
    error: Mutex<Option<SortError>>,
    /// Runs indexed by batch ordinal, collected out of order.
    runs: Mutex<Vec<(usize, Run)>>,
}

pub(crate) struct RunFormerPool<T> {
    tx: Option<SyncSender<(usize, Vec<T>)>>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl<T: FixedRecord + Send + 'static> RunFormerPool<T> {
    pub(crate) fn new<F>(scratch: Arc<dyn Disk>, threads: usize, key: F) -> Self
    where
        F: Fn(&T) -> u64 + Clone + Send + 'static,
    {
        // Rendezvous channel: a send completes only when a worker takes
        // the batch, bounding buffered batches to one per worker.
        let (tx, rx) = sync_channel::<(usize, Vec<T>)>(0);
        let rx = Arc::new(Mutex::new(rx));
        let shared = Arc::new(Shared {
            error: Mutex::new(None),
            runs: Mutex::new(Vec::new()),
        });
        // The pool is created inside the caller's build span; hand that
        // context to each worker so run-sort spans join the build trace.
        let ctx = obs::trace::current();
        let handles = (0..threads)
            .map(|_| {
                let rx = rx.clone();
                let scratch = scratch.clone();
                let shared = shared.clone();
                let key = key.clone();
                std::thread::spawn(move || worker(rx, scratch, shared, key, ctx))
            })
            .collect();
        Self {
            tx: Some(tx),
            handles,
            shared,
        }
    }
}

impl<T> RunFormerPool<T> {
    /// Hand a batch to the pool. Blocks until a worker is free. Fails
    /// fast if a previous batch already failed to spill.
    pub(crate) fn dispatch(&self, ordinal: usize, batch: Vec<T>) -> Result<()> {
        self.check()?;
        if self
            .tx
            .as_ref()
            .expect("pool live")
            .send((ordinal, batch))
            .is_err()
        {
            // All workers exited — only happens after an error.
            self.check()?;
            return Err(SortError::Storage(storage::StorageError::Io(
                std::io::Error::other("sorter worker pool died"),
            )));
        }
        Ok(())
    }

    fn check(&self) -> Result<()> {
        if let Some(e) = self.shared.error.lock().unwrap().take() {
            return Err(e);
        }
        Ok(())
    }

    /// Stop the pool and return the runs in batch-ordinal order.
    pub(crate) fn join(mut self) -> Result<Vec<Run>> {
        self.tx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.check()?;
        let mut runs = std::mem::take(&mut *self.shared.runs.lock().unwrap());
        runs.sort_unstable_by_key(|(ordinal, _)| *ordinal);
        Ok(runs.into_iter().map(|(_, run)| run).collect())
    }
}

impl<T> Drop for RunFormerPool<T> {
    fn drop(&mut self) {
        self.tx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A numbered batch travelling from the pusher to a sort worker.
type Job<T> = (usize, Vec<T>);

fn worker<T, F>(
    rx: Arc<Mutex<Receiver<Job<T>>>>,
    scratch: Arc<dyn Disk>,
    shared: Arc<Shared>,
    key: F,
    ctx: obs::trace::TraceContext,
) where
    T: FixedRecord,
    F: Fn(&T) -> u64,
{
    let _attached = ctx.attach();
    loop {
        // Take the receiver lock only to dequeue, then sort and spill
        // with the channel free for the other workers.
        let job = rx.lock().unwrap().recv();
        let Ok((ordinal, mut batch)) = job else {
            return;
        };
        if shared.error.lock().unwrap().is_some() {
            // A previous batch failed; keep draining so the pusher never
            // blocks on a dead pipeline, but do no work.
            continue;
        }
        // Facade span: inert until obs::trace installs its backend,
        // then a real "extsort.run" span in the build's trace.
        let _tspan = tracing::debug_span!("extsort.run").entered();
        let _span = crate::RUN_SORT_NS.start();
        crate::radix_sort_by_key(&mut batch, &key);
        drop(_span);
        match spill_run(scratch.as_ref(), &batch, &key) {
            Ok(run) => shared.runs.lock().unwrap().push((ordinal, run)),
            Err(e) => {
                let mut slot = shared.error.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(e);
                }
            }
        }
    }
}
