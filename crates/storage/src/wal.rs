//! Write-ahead log: self-committing note records, group commit, scan.
//!
//! The log carries *notes*: opaque application payloads (the LSM tier's
//! inserts, deletes and catalog flips) that ride its durability and
//! ordering guarantees. Each note is one checksummed record under a
//! fresh LSN, appended to the current log segment, and that record is
//! its own commit: the caller is acknowledged once an fsync has made it
//! durable. The log's owner applies the notes: after a crash it
//! [`scan`]s the valid prefix and redoes every note past its own
//! watermark (the LSM keeps it in the superblock's `wal_applied_lsn`).
//!
//! # Record format
//!
//! Every record is length-prefixed and checksummed (little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     len       payload length in bytes
//! 4       4     kind      4 = note
//! 8       8     lsn       the note's sequence number (strictly rising)
//! 16      len   payload   the application payload, opaque to the log
//! 16+len  8     checksum  FNV-1a over bytes 0..16+len
//! ```
//!
//! Kinds 1 and 2 (page after-images and allocation lists of a retired
//! copy-on-write paged path) and 3 (the commit record that older builds
//! wrote after every note) are retired. A checksum-valid record of any
//! kind but 4 fails the scan with [`StorageError::Corrupt`] naming the
//! kind: truncating it as a torn tail would silently drop every note
//! after it, acknowledged ones included.
//!
//! Recovery scans segments in id order and stops at the first invalid
//! record (bad length, checksum mismatch, LSN not rising): every note
//! before the stop point is returned, everything after is discarded. A
//! torn tail or a bit flip therefore truncates the history to a prefix
//! of its notes — never to a mix.
//!
//! # Group commit
//!
//! Writers append their note to a shared in-memory batch under the log
//! mutex and then call [`Wal::commit`]. [`Wal::append_note`] takes an
//! encoder that writes the payload straight into that batch, behind a
//! header whose length is filled in afterwards, so a note costs no
//! buffer of its own. The first committer to find no fsync in flight
//! becomes the *leader*: it swaps the batch with a cleared spare buffer,
//! appends it to the current segment, fsyncs, advances `durable_lsn`,
//! and wakes every waiter through a condvar. The written batch becomes
//! the next spare, so the two buffers alternate and a steady stream of
//! notes allocates nothing; a buffer grown past `SEGMENT_BYTES` by one
//! large batch is dropped instead of kept. Followers whose LSN the
//! leader covered return without touching the disk — one fsync absorbs
//! every commit that queued behind it. With group commit switched off
//! ([`Wal::set_group_commit`]) every committer syncs for itself (the
//! benchmark baseline).
//!
//! Segments rotate once the current one would exceed 1 MiB
//! (`SEGMENT_BYTES`; a batch never splits across segments) or when
//! [`Wal::start_segment`] asks for it, and are recycled — deleted —
//! once the owner reports every LSN they hold applied
//! ([`Wal::recycle`]).

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

/// The one record kind this log writes and reads: an application note,
/// applied by the *owner* of the log. The LSM tier logs memtable
/// inserts, deletes and catalog flips this way. Kinds 1–3 are retired
/// (see the module docs).
const REC_NOTE: u32 = 4;

/// Soft cap on a segment's size: the log rotates to a new segment once
/// the next batch would take the current one past it.
const SEGMENT_BYTES: u64 = 1 << 20;

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

/// Append one record to `buf`: the header with a placeholder length,
/// the payload `encode` appends, then the length patched in and the
/// checksum over header and payload.
fn put_record(buf: &mut Vec<u8>, kind: u32, lsn: u64, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    buf.extend_from_slice(&kind.to_le_bytes());
    buf.extend_from_slice(&lsn.to_le_bytes());
    encode(buf);
    let len = (buf.len() - start - REC_HEADER) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    let crc = fnv1a_update(FNV_SEED, &buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Outcome of walking every segment of a log store.
pub struct ScanResult {
    /// Every valid note as `(lsn, payload)`, in LSN order.
    pub notes: Vec<(u64, Vec<u8>)>,
    /// Why the scan stopped early, if it did.
    pub torn: Option<String>,
    /// LSN of the last valid note (0 when none). A new [`Wal`] must
    /// start past it, so old and new records never share an LSN.
    pub max_lsn: u64,
    /// Where the scan stopped, when it stopped early: the torn segment's
    /// id and the byte length of its valid prefix. Every later segment
    /// is garbage by the LSN-ordering contract.
    /// [`truncate_torn_tail`] applies exactly this cut.
    pub torn_seg: Option<(u64, u64)>,
    /// Every segment the scan read, up to the torn one, with the highest
    /// LSN seen by its end: a bound on the LSNs it holds. [`Wal::create`]
    /// seeds recycling with it, so segments written before this open
    /// are deleted once their notes are applied.
    pub seg_max_lsn: BTreeMap<u64, u64>,
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

/// One record at the front of `rest`: its kind, LSN, payload and total
/// length — or why the bytes there are not a whole, intact record.
fn parse_record(rest: &[u8]) -> std::result::Result<(u32, u64, &[u8], usize), String> {
    if rest.len() < REC_HEADER + REC_TRAILER {
        return Err("truncated header".into());
    }
    let mut r = &rest[..REC_HEADER];
    let len = r.get_u32_le();
    let kind = r.get_u32_le();
    let lsn = r.get_u64_le();
    if len > MAX_PAYLOAD {
        return Err(format!("implausible record length {len}"));
    }
    let end = REC_HEADER + len as usize;
    if rest.len() < end + REC_TRAILER {
        return Err("torn record".into());
    }
    let stored = (&rest[end..end + REC_TRAILER]).get_u64_le();
    if fnv1a_update(FNV_SEED, &rest[..end]) != stored {
        return Err("checksum mismatch".into());
    }
    Ok((kind, lsn, &rest[REC_HEADER..end], end + REC_TRAILER))
}

/// Walk every segment in id order, validating each record, and return
/// the notes. Stops (without error) at the first invalid record — the
/// torn-tail contract. A checksum-valid record that is not a note (a
/// retired kind, see the module docs) is [`StorageError::Corrupt`].
pub fn scan(store: &dyn LogStore) -> Result<ScanResult> {
    let mut notes = Vec::new();
    let mut torn = None;
    let mut torn_seg = None;
    let mut max_lsn = 0u64;
    let mut seg_max_lsn = BTreeMap::new();
    for seg in store.list()? {
        let data = store.read(seg)?;
        let mut off = 0usize;
        while off < data.len() {
            let why = match parse_record(&data[off..]) {
                Ok((kind, lsn, payload, total)) if kind == REC_NOTE => {
                    if lsn > max_lsn {
                        notes.push((lsn, payload.to_vec()));
                        max_lsn = lsn;
                        off += total;
                        continue;
                    }
                    format!("LSN did not rise ({lsn} after {max_lsn})")
                }
                Ok((kind, ..)) => {
                    let what = if (1..REC_NOTE).contains(&kind) {
                        "retired"
                    } else {
                        "unknown"
                    };
                    return Err(StorageError::Corrupt {
                        page: PageId::INVALID,
                        reason: format!(
                            "WAL segment {seg} holds a {what} record kind {kind} at offset \
                             {off}; this build reads only kind {REC_NOTE} notes"
                        ),
                    });
                }
                Err(why) => why,
            };
            torn = Some(format!("segment {seg}: {why} at offset {off}"));
            torn_seg = Some((seg, off as u64));
            break;
        }
        seg_max_lsn.insert(seg, max_lsn);
        if torn.is_some() {
            break;
        }
    }
    Ok(ScanResult {
        notes,
        torn,
        max_lsn,
        torn_seg,
        seg_max_lsn,
    })
}

// ---------------------------------------------------------------------------
// The WAL proper
// ---------------------------------------------------------------------------

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
    /// An empty buffer the next leader swaps in for `buf`: the batch it
    /// last wrote, cleared, unless that outgrew `SEGMENT_BYTES`.
    spare: Vec<u8>,
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
}

/// The write-ahead log: note staging, group commit, recycling.
pub struct Wal {
    store: Arc<dyn LogStore>,
    inner: Mutex<WalInner>,
    cv: Condvar,
    group_commit: AtomicBool,
    commits: AtomicU64,
    fsyncs: AtomicU64,
}

impl Wal {
    /// Start a log whose first note gets `start_lsn` (use the
    /// superblock's `wal_applied_lsn + 1`; LSN 0 means "none"), with
    /// group commit on. New segments are numbered past any segment
    /// already in the store; the segments `scanned` found there are
    /// recycled like this log's own (pass the [`scan`] of `store`, after
    /// [`truncate_torn_tail`]).
    pub fn create(
        store: Arc<dyn LogStore>,
        scanned: &ScanResult,
        start_lsn: u64,
    ) -> Result<Arc<Self>> {
        let cur_seg = store.list()?.last().map(|s| s + 1).unwrap_or(0);
        Ok(Arc::new(Self {
            store,
            inner: Mutex::new(WalInner {
                next_lsn: start_lsn.max(1),
                buf: Vec::new(),
                spare: Vec::new(),
                staged_lsn: 0,
                appended_lsn: 0,
                durable_lsn: start_lsn.max(1) - 1,
                syncing: false,
                cur_seg,
                cur_seg_len: 0,
                rotate: false,
                seg_max_lsn: scanned.seg_max_lsn.clone(),
            }),
            cv: Condvar::new(),
            group_commit: AtomicBool::new(true),
            commits: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        }))
    }

    /// Toggle fsync batching at runtime (benchmarks flip this).
    pub fn set_group_commit(&self, on: bool) {
        self.group_commit.store(on, Ordering::Relaxed);
    }

    /// Stage one note: an opaque application payload that rides the
    /// log's durability and ordering, as one self-committing record
    /// under a fresh LSN, which is returned. Durable once
    /// [`Wal::commit`] returns for that LSN.
    ///
    /// `encode` appends the payload to the staging buffer it is given,
    /// under the log mutex; it must only append, and must not panic. A
    /// payload longer than the scan accepts (4 MiB) is taken back out
    /// and refused with an `InvalidInput` I/O error, using no LSN:
    /// logged, it would read back as a torn tail and take every later
    /// note with it.
    pub fn append_note(&self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<u64> {
        let _tspan = obs::trace::span("wal.append");
        let mut g = self.inner.lock();
        let lsn = g.next_lsn;
        let before = g.buf.len();
        put_record(&mut g.buf, REC_NOTE, lsn, encode);
        let added = (g.buf.len() - before) as u64;
        let payload = added - (REC_HEADER + REC_TRAILER) as u64;
        if payload > u64::from(MAX_PAYLOAD) {
            g.buf.truncate(before);
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("a {payload}-byte note exceeds the {MAX_PAYLOAD}-byte WAL record limit"),
            )));
        }
        g.next_lsn += 1;
        g.staged_lsn = lsn;
        WAL_TXNS.inc();
        WAL_BYTES.add(added);
        Ok(lsn)
    }

    /// Highest LSN assigned so far (0 when none). A seal point recorded
    /// as `last_lsn()` under the same lock discipline as the appends it
    /// covers bounds exactly the notes staged before it.
    pub fn last_lsn(&self) -> u64 {
        self.inner.lock().next_lsn - 1
    }

    /// Block until the note at `lsn` is durable. Group commit:
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
            let spare = std::mem::take(&mut g.spare);
            let mut batch = std::mem::replace(&mut g.buf, spare);
            let batch_max = g.staged_lsn;
            if g.cur_seg_len > 0 && (g.rotate || g.cur_seg_len + batch.len() as u64 > SEGMENT_BYTES)
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
            let written = batch.len() as u64;
            if batch.capacity() as u64 <= SEGMENT_BYTES {
                batch.clear();
                g.spare = batch;
            }
            if let Err(e) = append_res {
                // Put nothing back: the batch may be half-written. The
                // store-side tail is unsynced and recovery discards it.
                g.syncing = false;
                self.cv.notify_all();
                return Err(e);
            }
            if written > 0 {
                g.cur_seg_len += written;
                let entry = g.seg_max_lsn.entry(seg).or_insert(0);
                *entry = (*entry).max(batch_max);
                g.appended_lsn = g.appended_lsn.max(batch_max);
            }
            let sync_target = g.appended_lsn;
            drop(g);
            let fsync_start = obs::enabled().then(std::time::Instant::now);
            let fsync_span = obs::trace::span("wal.fsync");
            let sync_res = self.store.sync();
            drop(fsync_span);
            g = self.inner.lock();
            g.syncing = false;
            match sync_res {
                Ok(()) => {
                    if let Some(t) = fsync_start {
                        WAL_FSYNC_NS.record(t.elapsed().as_nanos() as u64);
                    }
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

    /// A log over `store`, recycling what a scan of it finds.
    fn open(store: &Arc<MemLogStore>) -> Arc<Wal> {
        let scanned = scan(store.as_ref()).unwrap();
        Wal::create(store.clone(), &scanned, scanned.max_lsn + 1).unwrap()
    }

    /// Stage `payload` as one note.
    fn append(wal: &Wal, payload: &[u8]) -> u64 {
        wal.append_note(|buf| buf.extend_from_slice(payload))
            .unwrap()
    }

    /// Append and commit one note; returns its LSN and the global log
    /// offset just past its record.
    fn note(wal: &Wal, store: &MemLogStore, payload: &[u8]) -> (u64, u64) {
        let lsn = append(wal, payload);
        wal.commit(lsn).unwrap();
        (lsn, store.total_len())
    }

    #[test]
    fn append_commit_scan_roundtrip() {
        let store = MemLogStore::new();
        let wal = open(&store);
        note(&wal, &store, b"insert 42");
        // Two notes staged before one commit: one fsync makes both
        // durable, each still its own record.
        let n2 = append(&wal, b"delete 42");
        let n3 = append(&wal, b"flip seg-1");
        assert_eq!(wal.last_lsn(), n3);
        wal.commit(n3).unwrap();
        assert_eq!(wal.stat().fsyncs, 2);

        let res = scan(store.as_ref()).unwrap();
        assert!(res.torn.is_none());
        assert_eq!(
            res.notes,
            vec![
                (1, b"insert 42".to_vec()),
                (n2, b"delete 42".to_vec()),
                (n3, b"flip seg-1".to_vec()),
            ]
        );
        assert_eq!(res.max_lsn, n3);
        // One record per note: header, payload, checksum — nothing else.
        let framing = (REC_HEADER + REC_TRAILER) as u64;
        assert_eq!(store.total_len(), 3 * framing + 9 + 9 + 10);
    }

    #[test]
    fn torn_tail_and_bit_flip_stop_the_scan() {
        let store = MemLogStore::new();
        let wal = open(&store);
        let ends: Vec<u64> = (0..4u8).map(|i| note(&wal, &store, &[i; 64]).1).collect();
        // Truncate mid-way through the third note.
        store.truncate_global(ends[2] - 5);
        let res = scan(store.as_ref()).unwrap();
        assert!(res.torn.is_some());
        assert_eq!(res.notes.len(), 2);

        // A cut at a record boundary is a clean, shorter log.
        store.truncate_global(ends[1]);
        let res = scan(store.as_ref()).unwrap();
        assert!(res.torn.is_none());
        assert_eq!(res.notes.len(), 2);

        // Fresh log; flip a byte inside the second note.
        let store = MemLogStore::new();
        let wal = open(&store);
        let ends: Vec<u64> = (0..3u8).map(|i| note(&wal, &store, &[i; 64]).1).collect();
        store.flip_byte_global(ends[0] + 20);
        let res = scan(store.as_ref()).unwrap();
        assert!(res.torn.unwrap().contains("checksum"));
        assert_eq!(res.notes.len(), 1);
    }

    /// A well-formed, checksummed record of a retired kind — a page
    /// image (1) or allocation list (2) of the retired paged path, or
    /// the commit record (3) older builds wrote after each note, as in
    /// a log of the previous build — fails the scan with a typed error
    /// naming the kind. It is not a torn tail: truncating there would
    /// drop every note after it.
    #[test]
    fn retired_record_kinds_fail_the_scan() {
        for kind in [1u32, 2, 3] {
            let store = MemLogStore::new();
            let wal = open(&store);
            note(&wal, &store, b"kept");
            let mut rec = Vec::new();
            put_record(&mut rec, kind, 2, |b| b.extend_from_slice(&[0; 8]));
            put_record(&mut rec, REC_NOTE, 3, |b| b.extend_from_slice(b"after"));
            store.append(0, &rec).unwrap();
            match scan(store.as_ref()) {
                Err(StorageError::Corrupt { reason, .. }) => {
                    assert!(
                        reason.contains(&format!("retired record kind {kind}")),
                        "{reason}"
                    )
                }
                Err(e) => panic!("kind {kind}: wrong error {e}"),
                Ok(res) => panic!("kind {kind}: scan read {} notes", res.notes.len()),
            }
        }
    }

    /// The record of one 2-D insert note, byte for byte: the encoder
    /// writes into the staging buffer and the length is patched in after
    /// it, but the bytes are those the log has always written.
    #[test]
    fn insert_note_record_bytes_are_pinned() {
        // Tag 1, one item: min (1, 2), max (3, 4), id 7 (an LSM insert note).
        let mut payload = vec![1u8];
        payload.extend_from_slice(&1u32.to_le_bytes());
        for c in [1.0f64, 2.0, 3.0, 4.0] {
            payload.extend_from_slice(&c.to_le_bytes());
        }
        payload.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(payload.len(), 45);

        let store = MemLogStore::new();
        let wal = open(&store);
        note(&wal, &store, &payload);
        let mut want = Vec::new();
        want.extend_from_slice(&45u32.to_le_bytes());
        want.extend_from_slice(&REC_NOTE.to_le_bytes());
        want.extend_from_slice(&1u64.to_le_bytes());
        want.extend_from_slice(&payload);
        want.extend_from_slice(&0xb1a3_b09a_d546_1b57u64.to_le_bytes());
        assert_eq!(store.read(0).unwrap(), want);
        assert_eq!(
            fnv1a_update(FNV_SEED, &want[..61]),
            0xb1a3_b09a_d546_1b57,
            "the checksum is FNV-1a over header and payload"
        );
    }

    /// Staging buffers are reused between batches, and a batch larger
    /// than a segment does not leave its buffer behind.
    #[test]
    fn staging_capacity_is_reused_and_capped() {
        let store = MemLogStore::new();
        let wal = open(&store);
        let capacities = |wal: &Wal| {
            let g = wal.inner.lock();
            (g.buf.capacity(), g.spare.capacity())
        };
        note(&wal, &store, &[1; 64]);
        note(&wal, &store, &[2; 64]);
        let (buf, spare) = capacities(&wal);
        assert!(
            buf >= 88 && spare >= 88,
            "both buffers kept: {buf}, {spare}"
        );

        note(&wal, &store, &vec![3; 2 << 20]);
        let (buf, spare) = capacities(&wal);
        assert!(
            buf as u64 <= SEGMENT_BYTES && spare as u64 <= SEGMENT_BYTES,
            "a 2 MiB batch left {buf} + {spare} bytes of staging capacity"
        );
        note(&wal, &store, &[4; 64]);
        let res = scan(store.as_ref()).unwrap();
        assert!(res.torn.is_none());
        assert_eq!(res.notes.len(), 4);
        assert_eq!(res.notes[2].1.len(), 2 << 20);
    }

    /// A note longer than the scan accepts is refused before it is
    /// staged: acknowledged, it would read back as a torn tail and take
    /// every later note with it.
    #[test]
    fn oversized_note_is_refused_before_the_log() {
        let store = MemLogStore::new();
        let wal = open(&store);
        note(&wal, &store, b"before");
        let big = vec![5u8; MAX_PAYLOAD as usize + 1];
        match wal.append_note(|buf| buf.extend_from_slice(&big)) {
            Err(StorageError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
            other => panic!("an oversized note was staged: {other:?}"),
        }
        let (lsn, _) = note(&wal, &store, &vec![6u8; MAX_PAYLOAD as usize]);
        assert_eq!(lsn, 2, "the refused note used no LSN");
        let res = scan(store.as_ref()).unwrap();
        assert!(res.torn.is_none(), "{:?}", res.torn);
        assert_eq!(res.notes.len(), 2);
        assert_eq!(res.notes[1].1.len(), MAX_PAYLOAD as usize);
    }

    /// Segments written before the log was (re)created are recycled
    /// once their LSNs are applied, like the log's own.
    #[test]
    fn segments_of_an_earlier_open_are_recycled() {
        let store = MemLogStore::new();
        let wal = open(&store);
        note(&wal, &store, &[0; 16]);
        let first = note(&wal, &store, &[1; 16]).0;
        drop(wal);
        let wal = open(&store);
        let later = note(&wal, &store, &[2; 16]).0;
        assert_eq!(store.list().unwrap(), [0, 1]);
        assert_eq!(wal.recycle(first - 1).unwrap(), 0, "LSN {first} unapplied");
        wal.start_segment();
        note(&wal, &store, &[3; 16]);
        assert_eq!(wal.recycle(later).unwrap(), 2);
        assert_eq!(store.list().unwrap(), [2]);
    }

    #[test]
    fn segments_rotate_and_recycle() {
        let store = MemLogStore::new();
        let wal = open(&store);
        // Eight notes of a quarter segment each: the size cap rotates
        // the log at least once.
        let payload = vec![7u8; (SEGMENT_BYTES / 4) as usize];
        let mut last = 0;
        for _ in 0..8 {
            last = note(&wal, &store, &payload).0;
        }
        let segs = store.list().unwrap();
        assert!(segs.len() > 1, "the size cap must rotate, got {segs:?}");
        let recycled = wal.recycle(last).unwrap();
        assert!(recycled > 0);
        assert!(store.list().unwrap().len() < segs.len());
        // The scan must still parse the surviving suffix.
        assert!(scan(store.as_ref()).unwrap().torn.is_none());
    }

    #[test]
    fn start_segment_cuts_the_log_for_recycling() {
        let store = MemLogStore::new();
        let wal = open(&store);
        note(&wal, &store, &[0; 64]);
        let cut = note(&wal, &store, &[1; 64]).0;
        wal.start_segment();
        wal.start_segment(); // asking twice still cuts once
        let after = note(&wal, &store, &[2; 64]).0;
        note(&wal, &store, &[3; 64]);
        assert_eq!(
            store.list().unwrap().len(),
            2,
            "one cut, far below the size cap"
        );
        assert_eq!(wal.recycle(cut).unwrap(), 1);
        let left = scan(store.as_ref()).unwrap();
        assert!(
            left.notes.iter().all(|&(lsn, _)| lsn >= after),
            "only records past the cut"
        );
        assert_eq!(left.notes.len(), 2);
    }

    #[test]
    fn group_commit_amortizes_fsyncs() {
        let store = MemLogStore::new();
        store.set_sync_delay(Duration::from_millis(2));
        let wal = open(&store);
        let threads = 8;
        let per = 4;
        std::thread::scope(|s| {
            for t in 0..threads {
                let (wal, store) = (&wal, &store);
                s.spawn(move || {
                    for i in 0..per {
                        note(wal, store, &[(t * per + i) as u8; 64]);
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
        assert_eq!(res.notes.len(), threads * per);
    }

    #[test]
    fn torn_tail_truncation_makes_the_log_clean_again() {
        let store = MemLogStore::new();
        let wal = open(&store);
        let ends: Vec<u64> = (0..4u8).map(|i| note(&wal, &store, &[i; 16]).1).collect();
        store.truncate_global(ends[2] - 3);
        let first = scan(store.as_ref()).unwrap();
        assert!(first.torn.is_some());
        assert_eq!(first.notes.len(), 2);
        assert!(first.torn_seg.is_some());
        truncate_torn_tail(store.as_ref(), &first).unwrap();
        let second = scan(store.as_ref()).unwrap();
        assert!(second.torn.is_none(), "{:?}", second.torn);
        assert_eq!(second.notes.len(), 2);
        assert_eq!(store.total_len(), ends[1]);
        // A new WAL starting past max_lsn cannot collide with the tail.
        assert!(second.max_lsn <= first.max_lsn);
    }
}
