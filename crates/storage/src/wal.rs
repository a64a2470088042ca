//! Write-ahead log: checksummed note records, group commit, scan.
//!
//! The log carries *notes*: opaque application payloads (the LSM tier's
//! inserts, deletes and catalog flips) that ride its durability and
//! ordering guarantees. Each note is its own transaction — a note
//! record and a commit record under one fresh LSN — appended to the
//! current log segment; the caller is acknowledged once an fsync has
//! made the commit record durable. The log's owner applies the notes:
//! after a crash it [`scan`]s the committed prefix and redoes every note
//! past its own watermark (the LSM keeps it in the superblock's
//! `wal_applied_lsn`).
//!
//! # Record format
//!
//! Every record is length-prefixed and checksummed (little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     len       payload length in bytes
//! 4       4     kind      3 = commit, 4 = note
//! 8       8     lsn       transaction sequence number (shared by all
//!                         records of one transaction)
//! 16      len   payload
//! 16+len  8     checksum  FNV-1a over bytes 0..16+len
//! ```
//!
//! * `note`: the application payload, opaque to the log.
//! * `commit`: `u64 0` — closes the transaction; a transaction without
//!   a commit record is discarded by recovery.
//!
//! Kinds 1 and 2 (page after-images and allocation lists) belonged to a
//! retired copy-on-write paged path; a scan now stops at them like at
//! any other implausible record.
//!
//! Recovery scans segments in id order and stops at the first invalid
//! record (bad length, unknown kind, checksum mismatch, LSN going
//! backwards): everything before the stop point and closed by a commit
//! record is returned, everything after is discarded. A torn tail or a
//! bit flip therefore truncates the history to a committed prefix —
//! never to a mix.
//!
//! # Group commit
//!
//! Writers append their transaction to a shared in-memory batch under
//! the log mutex and then call [`Wal::commit`]. The first committer to
//! find no fsync in flight becomes the *leader*: it takes the whole
//! batch, appends it to the current segment, fsyncs, advances
//! `durable_lsn`, and wakes every waiter through a condvar. Followers
//! whose LSN the leader covered return without touching the disk — one
//! fsync absorbs every commit that queued behind it. With group commit
//! disabled every committer syncs for itself (the benchmark baseline).
//!
//! Segments rotate once the current one exceeds `segment_bytes` (a
//! batch never splits across segments) or when [`Wal::start_segment`]
//! asks for it, and are recycled — deleted — once the owner reports
//! every LSN they hold applied ([`Wal::recycle`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Buf;
use obs::{LazyCounter, LazyHistogram};
use parking_lot::{Condvar, Mutex};

use crate::fault::SyncClock;
use crate::{fnv1a_update, PageId, Result, StorageError, FNV_SEED};

static WAL_COMMITS: LazyCounter = LazyCounter::new("wal.commits");
static WAL_FSYNCS: LazyCounter = LazyCounter::new("wal.fsyncs");
static WAL_TXNS: LazyCounter = LazyCounter::new("wal.txns_appended");
static WAL_BYTES: LazyCounter = LazyCounter::new("wal.bytes_appended");
static WAL_RECYCLED: LazyCounter = LazyCounter::new("wal.segments_recycled");
static WAL_COMMIT_NS: LazyHistogram = LazyHistogram::new("wal.commit_ns");
static WAL_FSYNC_NS: LazyHistogram = LazyHistogram::new("wal.fsync_ns");

/// Record kinds (the `kind` header field): a transaction's closing
/// record, and an application note — an opaque payload carried through
/// the log's durability and ordering guarantees and applied by the
/// *owner* of the log. The LSM tier logs memtable inserts, deletes and
/// catalog flips this way.
const REC_COMMIT: u32 = 3;
const REC_NOTE: u32 = 4;

/// Fixed header bytes before the payload and trailer bytes after it.
const REC_HEADER: usize = 16;
const REC_TRAILER: usize = 8;

/// Upper bound on a single record's payload — a scan-time sanity check
/// so a corrupt length prefix cannot ask for gigabytes.
const MAX_PAYLOAD: u32 = 1 << 22;

// ---------------------------------------------------------------------------
// Log storage
// ---------------------------------------------------------------------------

/// Byte-stream segment storage under the WAL. Unlike [`Disk`](crate::Disk) this is
/// append-oriented and allows arbitrary-offset truncation — which is
/// exactly what crash and corruption tests need to model torn tails.
pub trait LogStore: Send + Sync {
    /// Existing segment ids, ascending.
    fn list(&self) -> Result<Vec<u64>>;
    /// Full contents of a segment.
    fn read(&self, seg: u64) -> Result<Vec<u8>>;
    /// Append bytes to a segment, creating it if missing.
    fn append(&self, seg: u64, bytes: &[u8]) -> Result<()>;
    /// Cut a segment down to `len` bytes.
    fn truncate(&self, seg: u64, len: u64) -> Result<()>;
    /// Remove a segment entirely.
    fn delete(&self, seg: u64) -> Result<()>;
    /// Make every appended byte durable.
    fn sync(&self) -> Result<()>;
}

struct MemSegment {
    data: Vec<u8>,
    durable: usize,
}

/// In-memory [`LogStore`] with an explicit durability line per segment:
/// bytes past the last `sync` are lost by [`MemLogStore::lose_unsynced`]
/// (what a crash does). An optional [`SyncClock`] shared with a
/// [`crate::FaultDisk`] lets a harness crash the WAL and the main disk
/// at the same global sync ordinal.
pub struct MemLogStore {
    segs: Mutex<BTreeMap<u64, MemSegment>>,
    clock: Option<Arc<SyncClock>>,
    sync_delay: Mutex<Duration>,
}

impl MemLogStore {
    /// An empty store with no crash clock.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            segs: Mutex::new(BTreeMap::new()),
            clock: None,
            sync_delay: Mutex::new(Duration::ZERO),
        })
    }

    /// An empty store wired to a shared sync clock: every successful
    /// `sync` ticks the clock, and once the clock crashes every
    /// operation fails until the harness revives it.
    pub fn with_clock(clock: Arc<SyncClock>) -> Arc<Self> {
        Arc::new(Self {
            segs: Mutex::new(BTreeMap::new()),
            clock: Some(clock),
            sync_delay: Mutex::new(Duration::ZERO),
        })
    }

    /// Add an artificial latency to every `sync` — benchmarks use this
    /// to make fsync amortization visible on an in-memory store.
    pub fn set_sync_delay(&self, d: Duration) {
        *self.sync_delay.lock() = d;
    }

    fn check_crashed(&self, op: &'static str) -> Result<()> {
        if let Some(c) = &self.clock {
            if c.is_crashed() {
                return Err(StorageError::FaultInjected {
                    op,
                    page: PageId::INVALID,
                });
            }
        }
        Ok(())
    }

    /// Apply crash loss: truncate every segment to its durability line.
    /// Call after the shared clock crashed, before recovery reads.
    pub fn lose_unsynced(&self) {
        let mut segs = self.segs.lock();
        for seg in segs.values_mut() {
            seg.data.truncate(seg.durable);
        }
    }

    /// Total bytes across all segments, in segment-id order — the
    /// global offset space used by the corruption helpers below.
    pub fn total_len(&self) -> u64 {
        self.segs.lock().values().map(|s| s.data.len() as u64).sum()
    }

    /// Drop every byte at global offset ≥ `off` (a torn tail).
    pub fn truncate_global(&self, off: u64) {
        let mut segs = self.segs.lock();
        let mut base = 0u64;
        for seg in segs.values_mut() {
            let len = seg.data.len() as u64;
            if off <= base {
                seg.data.clear();
            } else if off < base + len {
                seg.data.truncate((off - base) as usize);
            }
            seg.durable = seg.durable.min(seg.data.len());
            base += len;
        }
    }

    /// Flip every bit of the byte at global offset `off` (checksum
    /// corruption). No-op past the end of the log.
    pub fn flip_byte_global(&self, off: u64) {
        let mut segs = self.segs.lock();
        let mut base = 0u64;
        for seg in segs.values_mut() {
            let len = seg.data.len() as u64;
            if off < base + len {
                seg.data[(off - base) as usize] ^= 0xFF;
                return;
            }
            base += len;
        }
    }
}

impl LogStore for MemLogStore {
    fn list(&self) -> Result<Vec<u64>> {
        self.check_crashed("wal-list")?;
        Ok(self.segs.lock().keys().copied().collect())
    }

    fn read(&self, seg: u64) -> Result<Vec<u8>> {
        self.check_crashed("wal-read")?;
        Ok(self
            .segs
            .lock()
            .get(&seg)
            .map(|s| s.data.clone())
            .unwrap_or_default())
    }

    fn append(&self, seg: u64, bytes: &[u8]) -> Result<()> {
        self.check_crashed("wal-append")?;
        let mut segs = self.segs.lock();
        let entry = segs.entry(seg).or_insert_with(|| MemSegment {
            data: Vec::new(),
            durable: 0,
        });
        entry.data.extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&self, seg: u64, len: u64) -> Result<()> {
        self.check_crashed("wal-truncate")?;
        if let Some(s) = self.segs.lock().get_mut(&seg) {
            s.data.truncate(len as usize);
            s.durable = s.durable.min(s.data.len());
        }
        Ok(())
    }

    fn delete(&self, seg: u64) -> Result<()> {
        self.check_crashed("wal-delete")?;
        self.segs.lock().remove(&seg);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.check_crashed("wal-sync")?;
        let delay = *self.sync_delay.lock();
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        let mut segs = self.segs.lock();
        for seg in segs.values_mut() {
            seg.durable = seg.data.len();
        }
        drop(segs);
        if let Some(c) = &self.clock {
            c.record_sync();
        }
        Ok(())
    }
}

/// File-backed [`LogStore`]: one `wal-<id>.log` file per segment in a
/// directory next to the index file. Used by the CLI.
pub struct FileLogStore {
    dir: std::path::PathBuf,
}

impl FileLogStore {
    /// Open (creating if needed) the segment directory.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<Arc<Self>> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Arc::new(Self { dir }))
    }

    /// The directory holding the segments.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn path(&self, seg: u64) -> std::path::PathBuf {
        self.dir.join(format!("wal-{seg:08}.log"))
    }
}

impl LogStore for FileLogStore {
    fn list(&self) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".log"))
            {
                if let Ok(id) = id.parse() {
                    out.push(id);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn read(&self, seg: u64) -> Result<Vec<u8>> {
        match std::fs::read(self.path(seg)) {
            Ok(b) => Ok(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }

    fn append(&self, seg: u64, bytes: &[u8]) -> Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(seg))?;
        f.write_all(bytes)?;
        Ok(())
    }

    fn truncate(&self, seg: u64, len: u64) -> Result<()> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(seg))?;
        f.set_len(len)?;
        Ok(())
    }

    fn delete(&self, seg: u64) -> Result<()> {
        match std::fs::remove_file(self.path(seg)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn sync(&self) -> Result<()> {
        for seg in self.list()? {
            let f = std::fs::File::open(self.path(seg))?;
            f.sync_data()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

fn put_record(buf: &mut Vec<u8>, kind: u32, lsn: u64, payload: &[u8]) {
    let start = buf.len();
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&kind.to_le_bytes());
    buf.extend_from_slice(&lsn.to_le_bytes());
    buf.extend_from_slice(payload);
    let crc = fnv1a_update(FNV_SEED, &buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// In-flight transaction state while scanning: (lsn, notes).
type OpenTx = (u64, Vec<Vec<u8>>);

/// One committed transaction reconstructed by [`scan`].
pub struct ScannedTx {
    /// The transaction's LSN.
    pub lsn: u64,
    /// Application note payloads ([`Wal::append_note`]), in write order.
    pub notes: Vec<Vec<u8>>,
    /// Global byte offset just past this transaction's commit record.
    pub end_offset: u64,
}

/// Outcome of walking every segment of a log store.
pub struct ScanResult {
    /// Fully committed transactions, in LSN order.
    pub txns: Vec<ScannedTx>,
    /// Why the scan stopped early, if it did.
    pub torn: Option<String>,
    /// Global bytes of valid records (up to the stop point).
    pub valid_bytes: u64,
    /// Highest LSN seen in any *valid* record, committed or not. A new
    /// [`Wal`] must start past this: reusing the LSN of a valid
    /// uncommitted tail record would let a later scan stitch old and new
    /// records into one transaction.
    pub max_lsn: u64,
    /// Where the scan stopped, when it stopped early: the torn segment's
    /// id and the byte length of its valid prefix. Every later segment
    /// is garbage by the LSN-ordering contract.
    /// [`truncate_torn_tail`] applies exactly this cut.
    pub torn_seg: Option<(u64, u64)>,
}

/// Physically drop a torn tail found by [`scan`]: truncate the torn
/// segment to its valid prefix and delete every later segment. No-op on
/// a clean scan. Call before creating a new [`Wal`] over a store whose
/// scan reported `torn`, so stale bytes past the cut can never be
/// re-read by a future scan.
pub fn truncate_torn_tail(store: &dyn LogStore, scanned: &ScanResult) -> Result<()> {
    let Some((seg, keep)) = scanned.torn_seg else {
        return Ok(());
    };
    store.truncate(seg, keep)?;
    for later in store.list()?.into_iter().filter(|&s| s > seg) {
        store.delete(later)?;
    }
    store.sync()
}

/// Walk every segment in id order, validating each record, and return
/// the committed transactions. Stops (without error) at the first
/// invalid record; an open transaction with no commit record is
/// likewise discarded — both are the torn-tail contract.
pub fn scan(store: &dyn LogStore) -> Result<ScanResult> {
    let mut txns = Vec::new();
    let mut torn = None;
    let mut torn_seg = None;
    let mut global = 0u64;
    let mut valid_bytes = 0u64;
    let mut last_lsn = 0u64;
    let mut open: Option<OpenTx> = None;
    let segs = store.list()?;
    'outer: for seg in segs {
        let data = store.read(seg)?;
        let mut off = 0usize;
        while off < data.len() {
            let rest = &data[off..];
            if rest.len() < REC_HEADER + REC_TRAILER {
                torn = Some(format!("segment {seg}: truncated header at offset {off}"));
                torn_seg = Some((seg, off as u64));
                break 'outer;
            }
            let mut r = &rest[..REC_HEADER];
            let len = r.get_u32_le();
            let kind = r.get_u32_le();
            let lsn = r.get_u64_le();
            if len > MAX_PAYLOAD || !(kind == REC_COMMIT || kind == REC_NOTE) {
                torn = Some(format!(
                    "segment {seg}: implausible record (len={len}, kind={kind}) at offset {off}"
                ));
                torn_seg = Some((seg, off as u64));
                break 'outer;
            }
            let total = REC_HEADER + len as usize + REC_TRAILER;
            if rest.len() < total {
                torn = Some(format!("segment {seg}: torn record at offset {off}"));
                torn_seg = Some((seg, off as u64));
                break 'outer;
            }
            let crc = fnv1a_update(FNV_SEED, &rest[..REC_HEADER + len as usize]);
            let stored = (&rest[REC_HEADER + len as usize..total]).get_u64_le();
            if crc != stored {
                torn = Some(format!("segment {seg}: checksum mismatch at offset {off}"));
                torn_seg = Some((seg, off as u64));
                break 'outer;
            }
            if lsn < last_lsn {
                torn = Some(format!(
                    "segment {seg}: LSN went backwards ({lsn} after {last_lsn}) at offset {off}"
                ));
                torn_seg = Some((seg, off as u64));
                break 'outer;
            }
            last_lsn = lsn;
            let payload = &rest[REC_HEADER..REC_HEADER + len as usize];
            if open.as_ref().map(|tx| tx.0) != Some(lsn) {
                // A new LSN arrived while a transaction was open: the
                // open one never committed — discard it.
                open = Some((lsn, Vec::new()));
            }
            let tx = open.as_mut().unwrap();
            if kind == REC_NOTE {
                tx.1.push(payload.to_vec());
            } else {
                // Commit: the open transaction becomes real.
                let (lsn, notes) = open.take().unwrap();
                txns.push(ScannedTx {
                    lsn,
                    notes,
                    end_offset: global + (off + total) as u64,
                });
            }
            off += total;
            valid_bytes = global + off as u64;
        }
        global += data.len() as u64;
    }
    Ok(ScanResult {
        txns,
        torn,
        valid_bytes,
        max_lsn: last_lsn,
        torn_seg,
    })
}

// ---------------------------------------------------------------------------
// The WAL proper
// ---------------------------------------------------------------------------

/// Tuning knobs for [`Wal::create`].
#[derive(Clone, Copy)]
pub struct WalOptions {
    /// Soft cap on a segment's size; the log rotates to a new segment
    /// once the current one exceeds it (a batch never splits).
    pub segment_bytes: u64,
    /// Whether commits batch behind a leader's fsync (true) or each
    /// commit fsyncs for itself (the no-batching baseline).
    pub group_commit: bool,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            segment_bytes: 1 << 20,
            group_commit: true,
        }
    }
}

/// Receipt for an appended transaction.
#[derive(Clone, Copy, Debug)]
pub struct WalTicket {
    /// The transaction's LSN; pass to [`Wal::commit`].
    pub lsn: u64,
    /// Global log offset just past this transaction's records.
    pub end_offset: u64,
}

/// Commit and fsync counts of a live WAL, for benchmarks.
pub struct WalStat {
    /// Commits acknowledged so far.
    pub commits: u64,
    /// fsyncs issued so far.
    pub fsyncs: u64,
}

struct WalInner {
    next_lsn: u64,
    /// Staged records not yet handed to the store.
    buf: Vec<u8>,
    /// Highest LSN staged into `buf` so far.
    staged_lsn: u64,
    /// Highest LSN whose records reached the store (possibly unsynced).
    appended_lsn: u64,
    /// Highest LSN covered by a completed fsync.
    durable_lsn: u64,
    /// A leader is inside append+fsync.
    syncing: bool,
    cur_seg: u64,
    cur_seg_len: u64,
    /// The next batch opens a new segment ([`Wal::start_segment`]).
    rotate: bool,
    /// Max LSN each segment holds (for recycling).
    seg_max_lsn: BTreeMap<u64, u64>,
    /// Global offset past all staged bytes.
    total_appended: u64,
}

/// The write-ahead log: transaction staging, group commit, recycling.
pub struct Wal {
    store: Arc<dyn LogStore>,
    inner: Mutex<WalInner>,
    cv: Condvar,
    group_commit: AtomicBool,
    segment_bytes: u64,
    commits: AtomicU64,
    fsyncs: AtomicU64,
}

impl Wal {
    /// Start a log whose first transaction gets `start_lsn` (use the
    /// superblock's `wal_applied_lsn + 1`; LSN 0 means "none"). New
    /// segments are numbered past any segment already in the store.
    pub fn create(store: Arc<dyn LogStore>, start_lsn: u64, opts: WalOptions) -> Result<Arc<Self>> {
        let cur_seg = store.list()?.last().map(|s| s + 1).unwrap_or(0);
        Ok(Arc::new(Self {
            store,
            inner: Mutex::new(WalInner {
                next_lsn: start_lsn.max(1),
                buf: Vec::new(),
                staged_lsn: 0,
                appended_lsn: 0,
                durable_lsn: start_lsn.max(1) - 1,
                syncing: false,
                cur_seg,
                cur_seg_len: 0,
                rotate: false,
                seg_max_lsn: BTreeMap::new(),
                total_appended: 0,
            }),
            cv: Condvar::new(),
            group_commit: AtomicBool::new(opts.group_commit),
            segment_bytes: opts.segment_bytes.max(1),
            commits: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        }))
    }

    /// Toggle fsync batching at runtime (benchmarks flip this).
    pub fn set_group_commit(&self, on: bool) {
        self.group_commit.store(on, Ordering::Relaxed);
    }

    /// Stage one *note* transaction: an opaque application payload that
    /// rides the log's durability and ordering. The note is its own
    /// committed transaction (note record + commit record under one
    /// fresh LSN). Durable once [`Wal::commit`] returns for the ticket's
    /// LSN.
    pub fn append_note(&self, payload: &[u8]) -> Result<WalTicket> {
        let _tspan = obs::trace::span("wal.append");
        let mut g = self.inner.lock();
        let lsn = g.next_lsn;
        g.next_lsn += 1;
        let before = g.buf.len();
        let mut buf = std::mem::take(&mut g.buf);
        put_record(&mut buf, REC_NOTE, lsn, payload);
        put_record(&mut buf, REC_COMMIT, lsn, &0u64.to_le_bytes());
        g.buf = buf;
        let added = (g.buf.len() - before) as u64;
        g.total_appended += added;
        g.staged_lsn = lsn;
        WAL_TXNS.inc();
        WAL_BYTES.add(added);
        Ok(WalTicket {
            lsn,
            end_offset: g.total_appended,
        })
    }

    /// Highest LSN assigned so far (0 when none). A seal point recorded
    /// as `last_lsn()` under the same lock discipline as the appends it
    /// covers bounds exactly the transactions staged before it.
    pub fn last_lsn(&self) -> u64 {
        self.inner.lock().next_lsn - 1
    }

    /// Block until the transaction at `lsn` is durable. Group commit:
    /// one waiter becomes the leader, appends the whole shared batch to
    /// the current segment and fsyncs once for everyone.
    pub fn commit(&self, lsn: u64) -> Result<()> {
        let _commit_span = WAL_COMMIT_NS.start();
        // The leader's fsync below covers followers of the same batch;
        // this span covers the caller's full wait (leader or follower),
        // which is what a request trace wants attributed.
        let _tspan = obs::trace::span("wal.commit");
        WAL_COMMITS.inc();
        self.commits.fetch_add(1, Ordering::Relaxed);
        let group = self.group_commit.load(Ordering::Relaxed);
        let mut g = self.inner.lock();
        let mut synced_self = false;
        loop {
            if g.durable_lsn >= lsn && (group || synced_self) {
                return Ok(());
            }
            if g.syncing {
                self.cv.wait(&mut g);
                continue;
            }
            // Become the leader for the current batch.
            g.syncing = true;
            let batch = std::mem::take(&mut g.buf);
            let batch_max = g.staged_lsn;
            if g.cur_seg_len > 0
                && (g.rotate || g.cur_seg_len + batch.len() as u64 > self.segment_bytes)
            {
                g.cur_seg += 1;
                g.cur_seg_len = 0;
            }
            g.rotate = false;
            let seg = g.cur_seg;
            drop(g);
            let append_res = if batch.is_empty() {
                Ok(())
            } else {
                self.store.append(seg, &batch)
            };
            g = self.inner.lock();
            if let Err(e) = append_res {
                // Put nothing back: the batch may be half-written. The
                // store-side tail is unsynced and recovery discards it.
                g.syncing = false;
                self.cv.notify_all();
                return Err(e);
            }
            if !batch.is_empty() {
                g.cur_seg_len += batch.len() as u64;
                let entry = g.seg_max_lsn.entry(seg).or_insert(0);
                *entry = (*entry).max(batch_max);
                g.appended_lsn = g.appended_lsn.max(batch_max);
            }
            let sync_target = g.appended_lsn;
            drop(g);
            let fsync_start = std::time::Instant::now();
            let fsync_span = obs::trace::span("wal.fsync");
            let sync_res = self.store.sync();
            drop(fsync_span);
            g = self.inner.lock();
            g.syncing = false;
            match sync_res {
                Ok(()) => {
                    WAL_FSYNC_NS.record(fsync_start.elapsed().as_nanos() as u64);
                    WAL_FSYNCS.inc();
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                    g.durable_lsn = g.durable_lsn.max(sync_target);
                    synced_self = true;
                    self.cv.notify_all();
                }
                Err(e) => {
                    self.cv.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Make the next appended batch open a new segment, unless the
    /// current one is still empty. Every record staged from now on lands
    /// past the cut, so [`Wal::recycle`] at today's [`Wal::last_lsn`]
    /// can delete everything before it whatever commits interleave.
    pub fn start_segment(&self) {
        self.inner.lock().rotate = true;
    }

    /// Delete every closed segment whose newest LSN is at or below
    /// `applied_lsn` — its owner has applied its whole history.
    pub fn recycle(&self, applied_lsn: u64) -> Result<u64> {
        let victims: Vec<u64> = {
            let g = self.inner.lock();
            g.seg_max_lsn
                .iter()
                .filter(|&(&seg, &max)| seg != g.cur_seg && max <= applied_lsn)
                .map(|(&seg, _)| seg)
                .collect()
        };
        for &seg in &victims {
            self.store.delete(seg)?;
            self.inner.lock().seg_max_lsn.remove(&seg);
            WAL_RECYCLED.inc();
        }
        Ok(victims.len() as u64)
    }

    /// Commits and fsyncs so far, for benchmarks.
    pub fn stat(&self) -> WalStat {
        WalStat {
            commits: self.commits.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Append and commit one note; returns its ticket.
    fn note(wal: &Wal, payload: &[u8]) -> WalTicket {
        let t = wal.append_note(payload).unwrap();
        wal.commit(t.lsn).unwrap();
        t
    }

    #[test]
    fn append_commit_scan_roundtrip() {
        let store = MemLogStore::new();
        let wal = Wal::create(store.clone(), 1, WalOptions::default()).unwrap();
        note(&wal, b"insert 42");
        // Two notes staged before one commit: one fsync makes both
        // durable, each still its own transaction.
        let n2 = wal.append_note(b"delete 42").unwrap();
        let n3 = wal.append_note(b"flip seg-1").unwrap();
        assert_eq!(wal.last_lsn(), n3.lsn);
        wal.commit(n3.lsn).unwrap();

        let res = scan(store.as_ref()).unwrap();
        assert!(res.torn.is_none());
        assert_eq!(res.txns.len(), 3);
        assert_eq!(res.txns[0].lsn, 1);
        assert_eq!(res.txns[0].notes, vec![b"insert 42".to_vec()]);
        assert_eq!(res.txns[1].lsn, n2.lsn);
        assert_eq!(res.txns[1].notes, vec![b"delete 42".to_vec()]);
        assert_eq!(res.txns[2].notes, vec![b"flip seg-1".to_vec()]);
        assert_eq!(res.max_lsn, n3.lsn);
        assert_eq!(res.valid_bytes, store.total_len());
        assert_eq!(res.txns[2].end_offset, n3.end_offset);
    }

    #[test]
    fn torn_tail_and_bit_flip_stop_the_scan() {
        let store = MemLogStore::new();
        let wal = Wal::create(store.clone(), 1, WalOptions::default()).unwrap();
        let ends: Vec<u64> = (0..4u8).map(|i| note(&wal, &[i; 64]).end_offset).collect();
        // Truncate mid-way through the third transaction.
        store.truncate_global(ends[2] - 5);
        let res = scan(store.as_ref()).unwrap();
        assert!(res.torn.is_some());
        assert_eq!(res.txns.len(), 2);

        // Fresh log; flip a byte inside the second transaction.
        let store = MemLogStore::new();
        let wal = Wal::create(store.clone(), 1, WalOptions::default()).unwrap();
        let ends: Vec<u64> = (0..3u8).map(|i| note(&wal, &[i; 64]).end_offset).collect();
        store.flip_byte_global(ends[0] + 20);
        let res = scan(store.as_ref()).unwrap();
        assert!(res.torn.unwrap().contains("checksum"));
        assert_eq!(res.txns.len(), 1);
    }

    #[test]
    fn retired_record_kinds_stop_the_scan() {
        // A well-formed, checksummed page-image record (kind 1) or
        // allocation list (kind 2) is no longer a record this log reads.
        for kind in [1u32, 2] {
            let store = MemLogStore::new();
            let wal = Wal::create(store.clone(), 1, WalOptions::default()).unwrap();
            note(&wal, b"kept");
            let mut rec = Vec::new();
            put_record(&mut rec, kind, 2, &[0u8; 16]);
            put_record(&mut rec, REC_COMMIT, 2, &0u64.to_le_bytes());
            store.append(0, &rec).unwrap();
            let res = scan(store.as_ref()).unwrap();
            assert!(
                res.torn.unwrap().contains("implausible record"),
                "kind {kind}"
            );
            assert_eq!(res.txns.len(), 1);
        }
    }

    #[test]
    fn uncommitted_tail_is_discarded() {
        let store = MemLogStore::new();
        let wal = Wal::create(store.clone(), 1, WalOptions::default()).unwrap();
        let t = note(&wal, &[1; 64]);
        // Stage a second transaction but cut the log before its commit
        // record (keep only the note record's bytes).
        note(&wal, &[2; 64]);
        let one_rec = REC_HEADER as u64 + 64 + REC_TRAILER as u64;
        store.truncate_global(t.end_offset + one_rec);
        let res = scan(store.as_ref()).unwrap();
        assert!(res.torn.is_none(), "clean cut at a record boundary");
        assert_eq!(res.txns.len(), 1, "open transaction discarded");
    }

    #[test]
    fn segments_rotate_and_recycle() {
        let store = MemLogStore::new();
        let wal = Wal::create(
            store.clone(),
            1,
            WalOptions {
                segment_bytes: 256,
                group_commit: true,
            },
        )
        .unwrap();
        let mut last = 0;
        for i in 0..8u8 {
            last = note(&wal, &[i; 128]).lsn;
        }
        let segs = store.list().unwrap();
        assert!(segs.len() > 1, "small cap must rotate, got {segs:?}");
        let recycled = wal.recycle(last).unwrap();
        assert!(recycled > 0);
        assert!(store.list().unwrap().len() < segs.len());
        // The scan must still parse the surviving suffix.
        assert!(scan(store.as_ref()).unwrap().torn.is_none());
    }

    #[test]
    fn start_segment_cuts_the_log_for_recycling() {
        let store = MemLogStore::new();
        let wal = Wal::create(store.clone(), 1, WalOptions::default()).unwrap();
        note(&wal, &[0; 64]);
        let cut = note(&wal, &[1; 64]).lsn;
        wal.start_segment();
        wal.start_segment(); // asking twice still cuts once
        let after = note(&wal, &[2; 64]).lsn;
        note(&wal, &[3; 64]);
        assert_eq!(
            store.list().unwrap().len(),
            2,
            "one cut, far below the size cap"
        );
        assert_eq!(wal.recycle(cut).unwrap(), 1);
        let left = scan(store.as_ref()).unwrap();
        assert!(
            left.txns.iter().all(|t| t.lsn >= after),
            "only records past the cut"
        );
        assert_eq!(left.txns.len(), 2);
    }

    #[test]
    fn group_commit_amortizes_fsyncs() {
        let store = MemLogStore::new();
        store.set_sync_delay(Duration::from_millis(2));
        let wal = Wal::create(store.clone(), 1, WalOptions::default()).unwrap();
        let threads = 8;
        let per = 4;
        std::thread::scope(|s| {
            for t in 0..threads {
                let wal = &wal;
                s.spawn(move || {
                    for i in 0..per {
                        note(wal, &[(t * per + i) as u8; 64]);
                    }
                });
            }
        });
        let st = wal.stat();
        assert_eq!(st.commits, (threads * per) as u64);
        assert!(
            st.fsyncs < st.commits,
            "batching should need fewer fsyncs than commits ({} vs {})",
            st.fsyncs,
            st.commits
        );
        let res = scan(store.as_ref()).unwrap();
        assert_eq!(res.txns.len(), threads * per);
    }

    #[test]
    fn torn_tail_truncation_makes_the_log_clean_again() {
        let store = MemLogStore::new();
        let wal = Wal::create(store.clone(), 1, WalOptions::default()).unwrap();
        let ends: Vec<u64> = (0..4u8).map(|i| note(&wal, &[i; 16]).end_offset).collect();
        store.truncate_global(ends[2] - 3);
        let first = scan(store.as_ref()).unwrap();
        assert!(first.torn.is_some());
        assert_eq!(first.txns.len(), 2);
        assert!(first.torn_seg.is_some());
        truncate_torn_tail(store.as_ref(), &first).unwrap();
        let second = scan(store.as_ref()).unwrap();
        assert!(second.torn.is_none(), "{:?}", second.torn);
        assert_eq!(second.txns.len(), 2);
        assert_eq!(second.valid_bytes, store.total_len());
        // A new WAL starting past max_lsn cannot collide with the tail.
        assert!(second.max_lsn <= first.max_lsn);
    }
}
