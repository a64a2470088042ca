//! Fault-injecting disk wrapper.
//!
//! Production storage engines earn trust in their error paths through
//! systematic fault injection; without it, every `Err` branch in the
//! buffer pool and the tree is dead code. [`FaultDisk`] interposes on any
//! [`Disk`] and injects failures from a deterministic schedule:
//!
//! * **read/write errors** — the operation returns `Err` and the media is
//!   untouched;
//! * **torn writes** — only a prefix of the page reaches the media and the
//!   operation returns `Err` (a crash mid-write; the checksum in the node
//!   codec is what detects the tear later);
//! * **bit flips** — the read succeeds but one byte of the returned
//!   buffer is corrupted (transient read corruption; the media is intact);
//! * **crash** — the fault fires once and every subsequent operation
//!   fails (fail-stop device loss).
//!
//! Each fault is triggered by a [`Trigger`]: a one-shot at the Nth
//! matching operation, every Nth matching operation, or any operation
//! touching a page range. Per-fault fired counters let tests assert
//! exactly which scheduled faults fired. Schedules can be built
//! explicitly ([`FaultDisk::push`]) or generated from a seed
//! ([`FaultDisk::push_random`]) — the internal PRNG is a splitmix64, so a
//! seed reproduces the identical schedule on any platform.
//!
//! Injection can be paused with [`FaultDisk::set_armed`] so a test can
//! run recovery checks (validation, reopening) against the intact
//! substrate between injected failures.
//!
//! [`within`] is the concurrency suites' watchdog: it turns a hang into
//! a test failure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use obs::LazyCounter;
use parking_lot::Mutex;

use crate::{Disk, IoStats, PageId, Result, StorageError};

/// Total injected faults fired, across every [`FaultDisk`] in the
/// process (the per-disk [`FaultDisk::fired`] counters stay exact).
static FAULTS_FIRED: LazyCounter = LazyCounter::new("fault.fired");

/// Which operations a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Page reads.
    Read,
    /// Page writes (single or batched; batches fault per page).
    Write,
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return `Err`; the media is untouched.
    Error,
    /// Persist only the first `valid_bytes` of the page, keep the old
    /// tail, and return `Err`. Only meaningful on writes; on reads it
    /// degrades to [`FaultKind::Error`].
    Torn {
        /// Bytes at the start of the page that do reach the media.
        valid_bytes: usize,
    },
    /// XOR `mask` into the byte at `offset` of the returned buffer and
    /// report success. Only meaningful on reads; on writes it degrades to
    /// [`FaultKind::Error`].
    BitFlip {
        /// Byte offset within the page (taken modulo the page size).
        offset: usize,
        /// Non-zero XOR mask.
        mask: u8,
    },
    /// Fail this and every subsequent operation (fail-stop).
    Crash,
}

/// Stable ordinal used as the `fault.fired` event payload (`b`) for a
/// fired fault: 0 error, 1 torn, 2 bit-flip, 3 crash.
fn fault_kind_ordinal(kind: FaultKind) -> u64 {
    match kind {
        FaultKind::Error => 0,
        FaultKind::Torn { .. } => 1,
        FaultKind::BitFlip { .. } => 2,
        FaultKind::Crash => 3,
    }
}

/// When a fault fires, counted over operations matching its [`FaultOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire exactly once, on the `n`th matching operation (0-based).
    OnceAt(u64),
    /// Fire on every `n`th matching operation (`n >= 1`; fires at
    /// indices n-1, 2n-1, …).
    EveryNth(u64),
    /// Fire on every matching operation addressing a page in
    /// `lo..=hi`.
    PageRange {
        /// First faulted page index.
        lo: u64,
        /// Last faulted page index (inclusive).
        hi: u64,
    },
}

impl Trigger {
    fn matches(&self, op_index: u64, page: PageId) -> bool {
        match *self {
            Trigger::OnceAt(n) => op_index == n,
            Trigger::EveryNth(n) => n > 0 && (op_index + 1).is_multiple_of(n),
            Trigger::PageRange { lo, hi } => (lo..=hi).contains(&page.index()),
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Operation class the fault applies to.
    pub op: FaultOp,
    /// Failure mode.
    pub kind: FaultKind,
    /// Firing condition.
    pub trigger: Trigger,
}

/// Handle to a scheduled fault, for querying its fired counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultId(usize);

struct Scheduled {
    spec: FaultSpec,
    fired: u64,
    /// One-shot faults disarm themselves after firing.
    spent: bool,
}

/// Deterministic splitmix64 — keeps seed-driven schedules reproducible
/// without pulling an RNG dependency into the storage crate.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A process-wide sync ordinal shared by every device of a simulated
/// machine (the main [`FaultDisk`] and the WAL's log store). Each
/// successful `sync` on any attached device ticks the clock; arming
/// [`SyncClock::crash_after_nth_sync`] lets the sync with that ordinal
/// complete and then crashes *all* attached devices at once (fail-stop)
/// — the crash-schedule harness enumerates every sync point of a
/// workload this way.
pub struct SyncClock {
    syncs: AtomicU64,
    crash_at: AtomicU64,
    crashed: AtomicBool,
}

impl SyncClock {
    /// A clock that never crashes (until armed).
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            syncs: AtomicU64::new(0),
            crash_at: AtomicU64::new(u64::MAX),
            crashed: AtomicBool::new(false),
        })
    }

    /// Let the sync with ordinal `n` (0-based, counted across every
    /// attached device) succeed, then fail every subsequent operation.
    pub fn crash_after_nth_sync(&self, n: u64) {
        self.crash_at.store(n, Ordering::SeqCst);
    }

    /// Called by devices after a successful sync.
    pub fn record_sync(&self) {
        let n = self.syncs.fetch_add(1, Ordering::SeqCst);
        if n >= self.crash_at.load(Ordering::SeqCst) {
            self.crashed.store(true, Ordering::SeqCst);
        }
    }

    /// Whether the armed crash has fired.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Syncs observed so far (a clean run's total bounds the schedule).
    pub fn syncs_seen(&self) -> u64 {
        self.syncs.load(Ordering::SeqCst)
    }

    /// Clear the crash (the "reboot"); the ordinal keeps counting and
    /// the trigger is disarmed.
    pub fn revive(&self) {
        self.crash_at.store(u64::MAX, Ordering::SeqCst);
        self.crashed.store(false, Ordering::SeqCst);
    }
}

/// Run `f` on its own thread and fail if it has not finished within
/// `limit`: a concurrency test whose threads deadlock, or park with no
/// wake-up coming, fails instead of hanging the suite. A panic inside
/// `f` is passed on.
pub fn within(limit: Duration, f: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) => worker.join().unwrap(),
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("worker exited without reporting"),
        },
        Err(RecvTimeoutError::Timeout) => {
            panic!("no progress within {limit:?}: a thread is blocked with no wake-up coming")
        }
    }
}

/// A [`Disk`] wrapper that injects scheduled failures.
///
/// All successful operations delegate to the inner disk (whose I/O
/// counters therefore count only operations that actually reached it).
/// Failed operations are counted by the wrapper's own per-fault and
/// per-class counters.
pub struct FaultDisk {
    inner: Arc<dyn Disk>,
    faults: Mutex<Vec<Scheduled>>,
    reads_seen: AtomicU64,
    writes_seen: AtomicU64,
    syncs_seen: AtomicU64,
    crashed: AtomicBool,
    armed: AtomicBool,
    clock: Mutex<Option<Arc<SyncClock>>>,
}

impl FaultDisk {
    /// Wrap `inner` with an empty (armed) schedule.
    pub fn new(inner: Arc<dyn Disk>) -> Self {
        Self {
            inner,
            faults: Mutex::new(Vec::new()),
            reads_seen: AtomicU64::new(0),
            writes_seen: AtomicU64::new(0),
            syncs_seen: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            armed: AtomicBool::new(true),
            clock: Mutex::new(None),
        }
    }

    /// Attach a shared [`SyncClock`]: this disk's syncs tick the clock,
    /// and once the clock crashes every operation here fails too.
    pub fn set_sync_clock(&self, clock: Arc<SyncClock>) {
        *self.clock.lock() = Some(clock);
    }

    fn clock_crashed(&self) -> bool {
        self.clock
            .lock()
            .as_ref()
            .map(|c| c.is_crashed())
            .unwrap_or(false)
    }

    /// The wrapped disk.
    pub fn inner(&self) -> &Arc<dyn Disk> {
        &self.inner
    }

    /// Schedule a fault; returns its handle.
    pub fn push(&self, spec: FaultSpec) -> FaultId {
        let mut faults = self.faults.lock();
        faults.push(Scheduled {
            spec,
            fired: 0,
            spent: false,
        });
        FaultId(faults.len() - 1)
    }

    /// Generate `count` faults from `seed`. The same seed always yields
    /// the same schedule; tests log the seed so any run can be replayed.
    pub fn push_random(&self, seed: u64, count: usize) -> Vec<FaultId> {
        let mut rng = SplitMix64::new(seed);
        let page_size = self.inner.page_size();
        (0..count)
            .map(|_| {
                let op = if rng.below(2) == 0 {
                    FaultOp::Read
                } else {
                    FaultOp::Write
                };
                let kind = match rng.below(8) {
                    0 => FaultKind::Crash,
                    1 | 2 => FaultKind::Torn {
                        valid_bytes: rng.below(page_size as u64) as usize,
                    },
                    3 | 4 => FaultKind::BitFlip {
                        offset: rng.below(page_size as u64) as usize,
                        mask: (rng.below(255) + 1) as u8,
                    },
                    _ => FaultKind::Error,
                };
                let trigger = match rng.below(3) {
                    0 => Trigger::OnceAt(rng.below(64)),
                    1 => Trigger::EveryNth(rng.below(32) + 2),
                    _ => {
                        let lo = rng.below(48);
                        Trigger::PageRange {
                            lo,
                            hi: lo + rng.below(8),
                        }
                    }
                };
                self.push(FaultSpec { op, kind, trigger })
            })
            .collect()
    }

    /// Enable or disable injection. While disarmed every operation passes
    /// straight through (the crashed state still blocks).
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Ordering::SeqCst);
    }

    /// Whether a crash fault has fired (on this disk or the shared
    /// sync clock).
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst) || self.clock_crashed()
    }

    /// Clear the crashed state (simulating a device coming back after a
    /// restart; on-media state is whatever the crash left behind).
    pub fn revive(&self) {
        self.crashed.store(false, Ordering::SeqCst);
    }

    /// Times the given fault has fired.
    pub fn fired(&self, id: FaultId) -> u64 {
        self.faults.lock()[id.0].fired
    }

    /// Total fires across the whole schedule.
    pub fn total_fired(&self) -> u64 {
        self.faults.lock().iter().map(|s| s.fired).sum()
    }

    /// Read (reads, writes) operation counts seen by the wrapper,
    /// including faulted ones.
    pub fn ops_seen(&self) -> (u64, u64) {
        (
            self.reads_seen.load(Ordering::SeqCst),
            self.writes_seen.load(Ordering::SeqCst),
        )
    }

    /// Syncs that completed successfully on this disk.
    pub fn syncs_seen(&self) -> u64 {
        self.syncs_seen.load(Ordering::SeqCst)
    }

    fn crashed_err(page: PageId) -> StorageError {
        StorageError::FaultInjected { op: "crash", page }
    }

    /// Find the first armed fault matching `(op, index, page)`, mark it
    /// fired, and return its kind.
    fn arm(&self, op: FaultOp, index: u64, page: PageId) -> Option<FaultKind> {
        if !self.armed.load(Ordering::SeqCst) {
            return None;
        }
        let mut faults = self.faults.lock();
        for s in faults.iter_mut() {
            if s.spent || s.spec.op != op || !s.spec.trigger.matches(index, page) {
                continue;
            }
            s.fired += 1;
            if matches!(s.spec.trigger, Trigger::OnceAt(_)) {
                s.spent = true;
            }
            if matches!(s.spec.kind, FaultKind::Crash) {
                self.crashed.store(true, Ordering::SeqCst);
            }
            // This is the single site where any fault fires: leave the
            // evidence in the trace rings so a later poisoned tree can
            // be traced back to the exact injected failure. a = 0 read
            // / 1 write.
            FAULTS_FIRED.inc();
            obs::trace::event(
                "fault.fired",
                if s.spec.op == FaultOp::Read { 0 } else { 1 },
                fault_kind_ordinal(s.spec.kind),
            );
            return Some(s.spec.kind);
        }
        None
    }
}

impl Disk for FaultDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn allocate(&self) -> Result<PageId> {
        if self.is_crashed() {
            return Err(Self::crashed_err(PageId::INVALID));
        }
        self.inner.allocate()
    }

    fn allocate_run(&self, n: u64) -> Result<PageId> {
        if self.is_crashed() {
            return Err(Self::crashed_err(PageId::INVALID));
        }
        // Forward so the inner disk's atomicity guarantees the run is
        // contiguous even with concurrent allocators; faults fire on the
        // reads/writes that touch the run, not on reservation.
        self.inner.allocate_run(n)
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if self.is_crashed() {
            return Err(Self::crashed_err(id));
        }
        let index = self.reads_seen.fetch_add(1, Ordering::SeqCst);
        match self.arm(FaultOp::Read, index, id) {
            None => self.inner.read_page(id, buf),
            Some(FaultKind::BitFlip { offset, mask }) => {
                self.inner.read_page(id, buf)?;
                let len = buf.len();
                buf[offset % len] ^= mask.max(1);
                Ok(())
            }
            Some(FaultKind::Crash) => Err(Self::crashed_err(id)),
            // Error (and Torn, nonsensical on reads) → plain failure.
            Some(_) => Err(StorageError::FaultInjected {
                op: "read",
                page: id,
            }),
        }
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        if self.is_crashed() {
            return Err(Self::crashed_err(id));
        }
        let index = self.writes_seen.fetch_add(1, Ordering::SeqCst);
        match self.arm(FaultOp::Write, index, id) {
            None => self.inner.write_page(id, buf),
            Some(FaultKind::Torn { valid_bytes }) => {
                // A crash mid-write: the leading `valid_bytes` of the new
                // page land, the tail keeps the old contents.
                let ps = self.inner.page_size();
                let keep = valid_bytes.min(ps).min(buf.len());
                let mut torn = vec![0u8; ps];
                self.inner.read_page(id, &mut torn)?;
                torn[..keep].copy_from_slice(&buf[..keep]);
                self.inner.write_page(id, &torn)?;
                Err(StorageError::FaultInjected {
                    op: "write",
                    page: id,
                })
            }
            Some(FaultKind::Crash) => Err(Self::crashed_err(id)),
            // Error (and BitFlip, nonsensical on writes) → plain failure.
            Some(_) => Err(StorageError::FaultInjected {
                op: "write",
                page: id,
            }),
        }
    }

    // write_pages intentionally uses the default per-page loop so each
    // page of a batch passes through write_page's fault check, and a
    // mid-batch failure reports the durable prefix via PartialWrite.

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }

    fn sync(&self) -> Result<()> {
        if self.is_crashed() {
            return Err(Self::crashed_err(PageId::INVALID));
        }
        self.inner.sync()?;
        self.syncs_seen.fetch_add(1, Ordering::SeqCst);
        if let Some(clock) = self.clock.lock().as_ref() {
            clock.record_sync();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDisk;

    fn faulted(pages: usize) -> FaultDisk {
        let mem = Arc::new(MemDisk::new(64));
        for _ in 0..pages {
            mem.allocate().unwrap();
        }
        FaultDisk::new(mem)
    }

    #[test]
    fn passthrough_without_faults() {
        let d = faulted(2);
        let buf = vec![3u8; 64];
        d.write_page(PageId(0), &buf).unwrap();
        let mut out = vec![0u8; 64];
        d.read_page(PageId(0), &mut out).unwrap();
        assert_eq!(out, buf);
        assert_eq!(d.total_fired(), 0);
        assert_eq!(d.ops_seen(), (1, 1));
    }

    #[test]
    fn once_at_fires_exactly_once() {
        let d = faulted(1);
        let id = d.push(FaultSpec {
            op: FaultOp::Read,
            kind: FaultKind::Error,
            trigger: Trigger::OnceAt(1),
        });
        let mut buf = vec![0u8; 64];
        assert!(d.read_page(PageId(0), &mut buf).is_ok());
        let err = d.read_page(PageId(0), &mut buf).unwrap_err();
        assert!(matches!(
            err,
            StorageError::FaultInjected { op: "read", .. }
        ));
        assert!(d.read_page(PageId(0), &mut buf).is_ok());
        assert_eq!(d.fired(id), 1);
    }

    #[test]
    fn every_nth_write_fails() {
        let d = faulted(1);
        let id = d.push(FaultSpec {
            op: FaultOp::Write,
            kind: FaultKind::Error,
            trigger: Trigger::EveryNth(3),
        });
        let buf = vec![0u8; 64];
        let results: Vec<bool> = (0..6)
            .map(|_| d.write_page(PageId(0), &buf).is_ok())
            .collect();
        assert_eq!(results, vec![true, true, false, true, true, false]);
        assert_eq!(d.fired(id), 2);
    }

    #[test]
    fn page_range_faults_only_that_range() {
        let d = faulted(4);
        d.push(FaultSpec {
            op: FaultOp::Read,
            kind: FaultKind::Error,
            trigger: Trigger::PageRange { lo: 1, hi: 2 },
        });
        let mut buf = vec![0u8; 64];
        assert!(d.read_page(PageId(0), &mut buf).is_ok());
        assert!(d.read_page(PageId(1), &mut buf).is_err());
        assert!(d.read_page(PageId(2), &mut buf).is_err());
        assert!(d.read_page(PageId(3), &mut buf).is_ok());
    }

    #[test]
    fn torn_write_persists_prefix_and_keeps_tail() {
        let d = faulted(1);
        d.write_page(PageId(0), &[0xAA; 64]).unwrap();
        d.push(FaultSpec {
            op: FaultOp::Write,
            kind: FaultKind::Torn { valid_bytes: 16 },
            trigger: Trigger::OnceAt(1),
        });
        assert!(d.write_page(PageId(0), &[0xBB; 64]).is_err());
        let mut out = vec![0u8; 64];
        d.read_page(PageId(0), &mut out).unwrap();
        assert!(out[..16].iter().all(|&b| b == 0xBB), "new prefix landed");
        assert!(out[16..].iter().all(|&b| b == 0xAA), "old tail kept");
    }

    #[test]
    fn bit_flip_corrupts_read_transiently() {
        let d = faulted(1);
        d.write_page(PageId(0), &[0u8; 64]).unwrap();
        d.push(FaultSpec {
            op: FaultOp::Read,
            kind: FaultKind::BitFlip {
                offset: 5,
                mask: 0x80,
            },
            trigger: Trigger::OnceAt(0),
        });
        let mut out = vec![0u8; 64];
        d.read_page(PageId(0), &mut out).unwrap();
        assert_eq!(out[5], 0x80, "flip visible");
        d.read_page(PageId(0), &mut out).unwrap();
        assert_eq!(out[5], 0, "media was never corrupted");
    }

    #[test]
    fn crash_is_fail_stop_until_revive() {
        let d = faulted(2);
        d.push(FaultSpec {
            op: FaultOp::Write,
            kind: FaultKind::Crash,
            trigger: Trigger::OnceAt(0),
        });
        let buf = vec![0u8; 64];
        assert!(d.write_page(PageId(0), &buf).is_err());
        assert!(d.is_crashed());
        let mut out = vec![0u8; 64];
        assert!(d.read_page(PageId(0), &mut out).is_err());
        assert!(d.allocate().is_err());
        assert!(d.sync().is_err());
        d.revive();
        assert!(d.read_page(PageId(0), &mut out).is_ok());
    }

    #[test]
    fn disarm_pauses_injection() {
        let d = faulted(1);
        let id = d.push(FaultSpec {
            op: FaultOp::Read,
            kind: FaultKind::Error,
            trigger: Trigger::EveryNth(1),
        });
        let mut buf = vec![0u8; 64];
        assert!(d.read_page(PageId(0), &mut buf).is_err());
        d.set_armed(false);
        assert!(d.read_page(PageId(0), &mut buf).is_ok());
        d.set_armed(true);
        assert!(d.read_page(PageId(0), &mut buf).is_err());
        assert_eq!(d.fired(id), 2);
    }

    #[test]
    fn batch_write_reports_durable_prefix() {
        let d = faulted(4);
        d.push(FaultSpec {
            op: FaultOp::Write,
            kind: FaultKind::Error,
            trigger: Trigger::OnceAt(2),
        });
        let buf = vec![7u8; 64 * 4];
        let err = d.write_pages(PageId(0), &buf).unwrap_err();
        match err {
            StorageError::PartialWrite { written, .. } => assert_eq!(written, 2),
            other => panic!("expected PartialWrite, got {other}"),
        }
        // The durable prefix really is on the media.
        let mut out = vec![0u8; 64];
        d.read_page(PageId(1), &mut out).unwrap();
        assert_eq!(out, vec![7u8; 64]);
    }

    #[test]
    fn random_schedule_is_deterministic() {
        let a = faulted(1);
        let b = faulted(1);
        a.push_random(42, 8);
        b.push_random(42, 8);
        let specs = |d: &FaultDisk| {
            d.faults
                .lock()
                .iter()
                .map(|s| format!("{:?}", s.spec))
                .collect::<Vec<_>>()
        };
        assert_eq!(specs(&a), specs(&b));
        let c = faulted(1);
        c.push_random(43, 8);
        assert_ne!(specs(&a), specs(&c));
    }
}
