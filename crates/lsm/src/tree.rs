//! The composed LSM tree: one WAL-backed memtable plus N immutable
//! flat levels, with crash-safe compaction.
//!
//! # Commit protocol
//!
//! The durable state is the WAL and the segment files, nothing else. A
//! compaction drains the sealed memtable plus its victims — a suffix of
//! the newest levels, chosen by the policy below — into one new flat
//! segment, STR packed in memory straight into the `FLT1` image
//! ([`str_core::pack_str_to_flat`]) and followed by a [`Lineage`]
//! trailer: the drained memtable's seal LSN and the fold id, the lowest
//! segment id the output retires (its own id when it has no victims,
//! else one past the newest level it keeps). Then, in this exact order:
//!
//! 1. the segment store's `put` + `sync` of the output — **the commit
//!    point**: the segment now says which older segments it retires and
//!    which notes it covers;
//! 2. in-memory flip, then cleanup: delete the victims' segments + sync,
//!    then recycle the WAL segments the seal LSN covers.
//!
//! A drain therefore syncs twice when it has victims and once when it
//! has none. Recovery lists the segments in ascending id order; each
//! retires every live segment whose id lies in `[fold id, own id)`, and
//! the retired ones are deleted. The newest segment's seal LSN is the
//! watermark: insert and delete notes above it rebuild the memtable, in
//! log order. An output that never became durable never happened, and
//! its notes are still in the log. A fold whose tombstones delete every
//! item still writes its output, an empty image: it is the segment
//! that retires the victims, and an ordinary 0-item level the next
//! compaction folds.
//!
//! # Compaction policy
//!
//! The logarithmic method (Bentley–Saxe) under a level cap: the output
//! starts at the sealed memtable's item count, and the newest level is
//! folded into it while that level holds no more items than the output
//! so far, or while keeping it would leave more than
//! [`LsmOptions::max_levels`] levels. Levels merge like a binary
//! counter, each item is re-packed about once per doubling, and reads
//! still touch at most `max_levels` segments. Victims are always the
//! newest suffix, so levels stay in seal-LSN order, and after every
//! compaction item counts strictly decrease from the oldest level to
//! the newest.
//!
//! # Deletes
//!
//! A delete of a copy held by the active memtable removes it there; any
//! other live copy gets a tombstone in the active memtable, which
//! shadows one older copy (sealed memtable or flat level) at read time.
//! A compaction whose sealed memtable holds tombstones folds every
//! level, whatever the policy says, and drops each tombstone together
//! with the copy it shadows, so no segment ever holds a tombstone. That
//! full fold is the price of a delete: each memtable that holds a
//! tombstone costs a rewrite of the whole tree.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use geom::Rect;
use obs::{LazyCounter, LazyGauge, LazyHistogram};
use parking_lot::{Condvar, Mutex, RwLock};
use rtree::{IndexStats, NodeCapacity, SpatialIndex};
use storage::{truncate_torn_tail, wal::scan, Disk, LogStore, Wal};
use str_core::pack_str_to_flat;

use crate::codec::{decode_segment, DeleteNote, InsertNote, Lineage, Note};
use crate::memtable::{Memtable, Shadow};
use crate::segstore::SegmentStore;
use crate::{LsmError, Result};

static LSM_MEMTABLE_BYTES: LazyGauge = LazyGauge::new("lsm.memtable_bytes");
static LSM_COMPACTIONS: LazyCounter = LazyCounter::new("lsm.compactions");
static LSM_STALL_NS: LazyHistogram = LazyHistogram::new("lsm.stall_ns");

/// Tuning knobs for an [`LsmTree`].
#[derive(Debug, Clone, Copy)]
pub struct LsmOptions {
    /// Node fan-out for packed segments (the paper's page capacity).
    pub capacity: NodeCapacity,
    /// Seal the memtable once it holds this many items (at least 1).
    pub memtable_items: u64,
    /// The most flat levels that can exist (at least 1). A compaction
    /// folds the newest levels into its output while they are no larger
    /// than it, and folds more while keeping them would exceed this cap.
    pub max_levels: usize,
    /// Threads ordering each level of a compaction's STR pack
    /// ([`StrPacker::with_threads`](str_core::StrPacker::with_threads)).
    pub threads: usize,
    /// Run compactions on a background thread (`true`) or inline on the
    /// inserting thread (`false`; deterministic, used by crash tests).
    pub background: bool,
}

impl Default for LsmOptions {
    fn default() -> Self {
        Self {
            capacity: NodeCapacity::new(64).unwrap(),
            memtable_items: 4096,
            max_levels: 4,
            threads: 1,
            background: false,
        }
    }
}

/// Point-in-time shape of an [`LsmTree`], for stats output and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsmStats {
    /// Items in the active memtable.
    pub memtable_items: u64,
    /// Tombstones in the active and sealed memtables, each shadowing
    /// one older item until a compaction drops both.
    pub tombstones: u64,
    /// Items in the sealed (compacting) memtable, if any.
    pub sealed_items: u64,
    /// Items across all flat levels.
    pub level_items: u64,
    /// Number of flat levels.
    pub levels: usize,
    /// Compactions committed since open.
    pub compactions: u64,
    /// Items written into new segments by those compactions: the sealed
    /// memtables plus every victim level they re-packed.
    pub items_packed: u64,
}

/// One immutable flat level. Levels are ordered by id: ids only grow,
/// so a newer level always has the larger one.
struct Segment<const D: usize> {
    id: u64,
    tree: flat::FlatTree<'static, D>,
}

impl<const D: usize> Segment<D> {
    fn item_count(&self) -> u64 {
        self.tree.len()
    }
}

struct Sealed<const D: usize> {
    mem: Arc<Memtable<D>>,
    seal_lsn: u64,
}

struct State<const D: usize> {
    active: Arc<Memtable<D>>,
    sealed: Option<Sealed<D>>,
    levels: Vec<Arc<Segment<D>>>,
    next_seg_id: u64,
}

impl<const D: usize> State<D> {
    /// Live items: every held copy less the copies tombstones shadow.
    fn len(&self) -> u64 {
        let (mut held, mut shadowing) = (self.active.len(), self.active.tombstones());
        if let Some(s) = &self.sealed {
            held += s.mem.len();
            shadowing += s.mem.tombstones();
        }
        (held + self.levels.iter().map(|s| s.item_count()).sum::<u64>()).saturating_sub(shadowing)
    }
}

struct Signal {
    pending: bool,
    shutdown: bool,
}

struct Inner<const D: usize> {
    state: RwLock<State<D>>,
    wal: Arc<Wal>,
    segs: Arc<dyn SegmentStore>,
    opts: LsmOptions,
    /// Serializes compactions end to end.
    compact_mx: Mutex<()>,
    /// Background-worker error, surfaced on the next foreground call.
    failed: Mutex<Option<String>>,
    signal: Mutex<Signal>,
    work_cv: Condvar,
    done_mx: Mutex<()>,
    done_cv: Condvar,
    compactions: AtomicU64,
    items_packed: AtomicU64,
}

/// A crash-safe spatial LSM tree: WAL-backed Hilbert memtable over
/// immutable STR-packed flat levels. See the module docs for the
/// commit protocol.
pub struct LsmTree<const D: usize> {
    inner: Arc<Inner<D>>,
    worker: Option<JoinHandle<()>>,
}

impl<const D: usize> LsmTree<D> {
    /// Open (or create) an LSM tree over the given devices, running
    /// recovery: let each segment retire the older segments it folded
    /// and delete them, rebuild the memtable from the notes past the
    /// newest segment's seal LSN, and truncate any torn WAL tail.
    ///
    /// The tree keeps nothing on `disk`: it must be empty. One that
    /// holds pages is an older build's superblock and catalog, refused
    /// with [`LsmError::Corrupt`] before anything is read or written.
    pub fn open(
        disk: Arc<dyn Disk>,
        log: Arc<dyn LogStore>,
        segs: Arc<dyn SegmentStore>,
        opts: LsmOptions,
    ) -> Result<Self> {
        let _tspan = obs::trace::span("lsm.open");
        if opts.memtable_items == 0 {
            return Err(LsmError::InvalidOptions(
                "memtable_items must be at least 1".into(),
            ));
        }
        if opts.max_levels == 0 {
            return Err(LsmError::InvalidOptions(
                "max_levels must be at least 1".into(),
            ));
        }
        if disk.num_pages() != 0 {
            return Err(LsmError::Corrupt(format!(
                "the main disk holds {} page(s): a superblock catalog written by an \
                 older build (an LSM tree keeps only its log and segment files)",
                disk.num_pages()
            )));
        }

        let scanned = scan(&*log)?;
        truncate_torn_tail(&*log, &scanned)?;

        // Oldest first, each segment retires the live segments it folded.
        // Victims are always the newest levels, so they are the tail of
        // `levels` here too.
        let ids = segs.list()?;
        let mut levels: Vec<Arc<Segment<D>>> = Vec::new();
        let mut retired: Vec<u64> = Vec::new();
        let mut watermark = 0;
        for &id in &ids {
            let bytes = segs
                .read(id)?
                .ok_or_else(|| LsmError::Corrupt(format!("listed segment {id} is missing")))?;
            let (lineage, tree) = decode_segment::<D>(bytes)?;
            if lineage.fold_id > id {
                return Err(LsmError::Corrupt(format!(
                    "segment {id} claims to retire segments from {}, above its own id",
                    lineage.fold_id
                )));
            }
            let keep = levels.partition_point(|s| s.id < lineage.fold_id);
            retired.extend(levels.drain(keep..).map(|s| s.id));
            levels.push(Arc::new(Segment { id, tree }));
            watermark = lineage.seal_lsn;
        }
        if !retired.is_empty() {
            for &id in &retired {
                segs.delete(id)?;
            }
            segs.sync()?;
        }

        // Rebuild the memtable from acknowledged inserts and deletes the
        // segments don't already cover, in log order — the order they
        // were applied in.
        let active = Arc::new(Memtable::<D>::new());
        for (lsn, payload) in &scanned.notes {
            let note = Note::<D>::decode(payload)?;
            if *lsn <= watermark {
                continue;
            }
            match note {
                Note::Insert(n) => {
                    for &(rect, id) in n.items.iter() {
                        active.insert(rect, id);
                    }
                }
                Note::Delete(n) => {
                    for (rect, id) in n.items.iter() {
                        active.delete(rect, *id);
                    }
                }
            }
        }
        LSM_MEMTABLE_BYTES.set(active.approx_bytes() as i64);

        // A new log must start past every LSN on media and every LSN a
        // segment covers, so old and new notes never share one, even
        // when the log was recycled empty.
        let wal = Wal::create(log, &scanned, scanned.max_lsn.max(watermark) + 1)?;

        let inner = Arc::new(Inner {
            state: RwLock::new(State {
                active,
                sealed: None,
                levels,
                next_seg_id: ids.last().map_or(1, |&id| id + 1),
            }),
            wal,
            segs,
            opts,
            compact_mx: Mutex::new(()),
            failed: Mutex::new(None),
            signal: Mutex::new(Signal {
                pending: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_mx: Mutex::new(()),
            done_cv: Condvar::new(),
            compactions: AtomicU64::new(0),
            items_packed: AtomicU64::new(0),
        });
        let worker = if opts.background {
            let w = inner.clone();
            Some(std::thread::spawn(move || worker_loop(&w)))
        } else {
            None
        };
        Ok(Self { inner, worker })
    }

    /// Insert one rectangle. Durable (WAL-committed) on return.
    pub fn insert(&self, rect: Rect<D>, id: u64) -> Result<()> {
        self.insert_batch(&[(rect, id)])
    }

    /// Insert a batch under one WAL note. Durable on return; the whole
    /// batch lands in one memtable generation, so a crash keeps either
    /// all of it or — if the commit never returned — possibly none.
    ///
    /// A batch holding a rectangle [`Rect::try_new`] refuses (empty,
    /// inverted or NaN) fails whole with [`LsmError::InvalidRect`] and
    /// logs nothing: recovery would refuse its note as corrupt.
    pub fn insert_batch(&self, items: &[(Rect<D>, u64)]) -> Result<()> {
        if items.is_empty() {
            return Ok(());
        }
        for (rect, _) in items {
            Rect::try_new(*rect.min(), *rect.max()).map_err(LsmError::InvalidRect)?;
        }
        self.check_failed()?;
        loop {
            {
                // Holding the state read lock across the note append and
                // the memtable insert pins the seal point: a seal (write
                // lock) observes either none or both, so its seal LSN
                // always covers exactly the items in the sealed memtable.
                let g = self.inner.state.read();
                if g.active.entries() < self.inner.opts.memtable_items {
                    let note = InsertNote {
                        items: items.into(),
                    };
                    let lsn = self.inner.wal.append_note(|buf| note.encode_into(buf))?;
                    for &(rect, id) in items {
                        g.active.insert(rect, id);
                    }
                    let bytes = g.active.approx_bytes();
                    drop(g);
                    LSM_MEMTABLE_BYTES.set(bytes as i64);
                    self.inner.wal.commit(lsn)?;
                    return Ok(());
                }
            }
            self.make_room()?;
        }
    }

    /// Delete one copy of `(rect, id)`. Returns `Ok(false)`, logging
    /// nothing, if no copy is live; `Ok(true)` once the delete is
    /// durable (WAL-committed).
    ///
    /// The liveness check, the note append and the memtable change all
    /// run under the state write lock. No insert is then between its
    /// note and its memtable insert, so every operation the check sees
    /// has a lower LSN and every one it misses a higher LSN: recovery,
    /// which replays notes in LSN order, meets the state the delete met.
    /// The commit waits outside the lock, as an insert's does.
    pub fn delete(&self, rect: &Rect<D>, id: u64) -> Result<bool> {
        self.check_failed()?;
        loop {
            {
                let g = self.inner.state.write();
                if !is_live(&g, rect, id) {
                    return Ok(false);
                }
                if g.active.entries() < self.inner.opts.memtable_items {
                    let item = [(*rect, id)];
                    let note = DeleteNote {
                        items: item[..].into(),
                    };
                    let lsn = self.inner.wal.append_note(|buf| note.encode_into(buf))?;
                    g.active.delete(rect, id);
                    let bytes = g.active.approx_bytes();
                    drop(g);
                    LSM_MEMTABLE_BYTES.set(bytes as i64);
                    self.inner.wal.commit(lsn)?;
                    return Ok(true);
                }
            }
            self.make_room()?;
        }
    }

    /// Seal and drain everything down to the flat levels. After this
    /// returns the memtable is empty and all data is segment-resident.
    pub fn flush(&self) -> Result<()> {
        loop {
            self.check_failed()?;
            self.inner.compact_once()?;
            let mut g = self.inner.state.write();
            if g.sealed.is_some() {
                drop(g);
                continue;
            }
            if g.active.is_empty() {
                return Ok(());
            }
            seal_locked(&self.inner, &mut g);
            drop(g);
        }
    }

    /// Run one compaction if a sealed memtable is waiting. Returns
    /// whether anything was drained. Mostly for tests and tools; the
    /// insert path triggers compaction by itself.
    pub fn compact_once(&self) -> Result<bool> {
        self.inner.compact_once()
    }

    /// Current shape.
    pub fn stats(&self) -> LsmStats {
        let g = self.inner.state.read();
        LsmStats {
            memtable_items: g.active.len(),
            tombstones: g.active.tombstones() + g.sealed.as_ref().map_or(0, |s| s.mem.tombstones()),
            sealed_items: g.sealed.as_ref().map_or(0, |s| s.mem.len()),
            level_items: g.levels.iter().map(|s| s.item_count()).sum(),
            levels: g.levels.len(),
            compactions: self.inner.compactions.load(Ordering::Relaxed),
            items_packed: self.inner.items_packed.load(Ordering::Relaxed),
        }
    }

    /// The tree's write-ahead log, for commit and fsync counts and the
    /// group-commit switch ([`Wal::stat`], [`Wal::set_group_commit`]).
    pub fn wal(&self) -> &Arc<Wal> {
        &self.inner.wal
    }

    fn check_failed(&self) -> Result<()> {
        match &*self.inner.failed.lock() {
            Some(msg) => Err(LsmError::Corrupt(format!(
                "background compaction failed: {msg}"
            ))),
            None => Ok(()),
        }
    }

    /// The memtable is full: seal it, or stall until the compactor
    /// frees the sealed slot.
    fn make_room(&self) -> Result<()> {
        {
            let mut g = self.inner.state.write();
            if g.active.entries() < self.inner.opts.memtable_items {
                return Ok(()); // someone else already sealed
            }
            if g.sealed.is_none() {
                seal_locked(&self.inner, &mut g);
                drop(g);
                return self.kick();
            }
        }
        // Both memtable slots full: the ingest stall the paper's
        // sustained-insert benchmark measures.
        let _stall = LSM_STALL_NS.start();
        if self.inner.opts.background {
            let mut dg = self.inner.done_mx.lock();
            while self.inner.state.read().sealed.is_some() {
                if self.inner.failed.lock().is_some() {
                    break;
                }
                self.inner.done_cv.wait(&mut dg);
            }
            drop(dg);
            self.check_failed()?;
        } else {
            self.inner.compact_once()?;
        }
        Ok(())
    }

    fn kick(&self) -> Result<()> {
        if self.inner.opts.background {
            let mut s = self.inner.signal.lock();
            s.pending = true;
            self.inner.work_cv.notify_one();
            Ok(())
        } else {
            self.inner.compact_once().map(|_| ())
        }
    }
}

impl<const D: usize> Drop for LsmTree<D> {
    fn drop(&mut self) {
        if let Some(handle) = self.worker.take() {
            {
                let mut s = self.inner.signal.lock();
                s.shutdown = true;
                self.inner.work_cv.notify_all();
            }
            let _ = handle.join();
        }
    }
}

/// Seal the active memtable. Caller holds the state write lock and has
/// checked `sealed` is vacant; the sealed slot's LSN is read under the
/// same lock, so it bounds exactly the inserts already in the memtable.
/// The memtable is never empty (a full one holds `memtable_items >= 1`,
/// checked at open, and `flush` seals only a non-empty one), so every
/// compaction has items to pack.
fn seal_locked<const D: usize>(inner: &Inner<D>, g: &mut State<D>) {
    debug_assert!(g.sealed.is_none());
    debug_assert!(!g.active.is_empty());
    let seal_lsn = inner.wal.last_lsn();
    // One WAL segment per memtable: the compaction that drains this one
    // recycles at `seal_lsn` every segment before the cut, so the log
    // keeps only what no segment holds yet.
    inner.wal.start_segment();
    let full = std::mem::replace(&mut g.active, Arc::new(Memtable::new()));
    g.sealed = Some(Sealed {
        mem: full,
        seal_lsn,
    });
    LSM_MEMTABLE_BYTES.set(0);
}

fn worker_loop<const D: usize>(inner: &Arc<Inner<D>>) {
    loop {
        {
            let mut s = inner.signal.lock();
            while !s.pending && !s.shutdown {
                inner.work_cv.wait(&mut s);
            }
            if s.shutdown {
                return;
            }
            s.pending = false;
        }
        if let Err(e) = inner.compact_once() {
            *inner.failed.lock() = Some(e.to_string());
            // Wake stalled writers so they can observe the failure
            // instead of waiting for a drain that will never come.
            let _g = inner.done_mx.lock();
            inner.done_cv.notify_all();
        }
    }
}

/// How many of the oldest `levels` a compaction of a `sealed`-item
/// memtable keeps; the rest, always the newest suffix, are its victims.
/// The newest level is folded while it holds no more items than the
/// output so far, or while keeping it would leave more than
/// `max_levels` levels. A kept level is therefore larger than the
/// output placed after it, which is what keeps item counts strictly
/// decreasing from the oldest level to the newest.
fn kept_levels<const D: usize>(
    levels: &[Arc<Segment<D>>],
    sealed: u64,
    max_levels: usize,
) -> usize {
    let mut out = sealed;
    let mut keep = levels.len();
    while keep > 0 && (levels[keep - 1].item_count() <= out || keep + 1 > max_levels) {
        keep -= 1;
        out += levels[keep].item_count();
    }
    keep
}

/// Whether a copy of `(rect, id)` is live: the active memtable holds
/// one, or the older components hold more copies than the active
/// memtable's tombstones take out.
fn is_live<const D: usize>(g: &State<D>, rect: &Rect<D>, id: u64) -> bool {
    let (held, shadowing) = g.active.copies(rect, id);
    if held > 0 {
        return true;
    }
    // The sealed memtable's tombstones shadow level copies.
    let (mut older, sealed_shadowing) = match &g.sealed {
        Some(sealed) => sealed.mem.copies(rect, id),
        None => (0, 0),
    };
    for seg in &g.levels {
        seg.tree.for_each_in_region(rect, |r, i| {
            if i == id && r == *rect {
                older += 1;
            }
        });
    }
    older.saturating_sub(sealed_shadowing) > shadowing
}

impl<const D: usize> Inner<D> {
    /// Drain the sealed memtable plus the newest levels the policy
    /// folds ([`kept_levels`]) into one new flat segment and commit it.
    /// See the module docs for the policy and the ordering argument.
    fn compact_once(&self) -> Result<bool> {
        let _serial = self.compact_mx.lock();

        // Only compactions change `levels`, and they are serialized, so
        // the victims are still the newest suffix at the flip.
        let (mem, lineage, victims, new_id) = {
            let g = self.state.read();
            let Some(sealed) = &g.sealed else {
                return Ok(false);
            };
            // Tombstones fold through the oldest level, where the last
            // copy they may shadow lives.
            let keep = if sealed.mem.tombstones() > 0 {
                0
            } else {
                kept_levels(&g.levels, sealed.mem.len(), self.opts.max_levels)
            };
            // An output with victims retires every id above the newest
            // level it keeps: its victims, and any segment they retired
            // whose delete failed, which only they still name.
            let new_id = g.next_seg_id;
            let fold_id = if keep == g.levels.len() {
                new_id
            } else {
                keep.checked_sub(1).map_or(0, |k| g.levels[k].id + 1)
            };
            let lineage = Lineage {
                seal_lsn: sealed.seal_lsn,
                fold_id,
            };
            let victims = g.levels[keep..].to_vec();
            (sealed.mem.clone(), lineage, victims, new_id)
        };
        // Traced only once there is work: a worker woken for a memtable
        // a foreground caller already drained records nothing.
        let mut tspan = obs::trace::span("lsm.compact");

        let mut items = mem.items_ordered();
        for seg in &victims {
            items.extend(seg.tree.items());
        }
        let tombstones = mem.tombstone_items();
        if !tombstones.is_empty() {
            let mut shadow = Shadow::default();
            for (rect, id) in tombstones {
                shadow.add(rect, id);
            }
            items.retain(|(rect, id)| !shadow.take(rect, *id));
            let unspent = shadow.unspent();
            if unspent > 0 {
                return Err(LsmError::Corrupt(format!(
                    "{unspent} tombstone(s) shadow no item"
                )));
            }
        }
        let item_count = items.len() as u64;
        if let Some(s) = tspan.as_mut() {
            s.set_args(victims.len() as u64, item_count);
        }
        let mut bytes = {
            let _dspan = obs::trace::span("lsm.drain");
            if items.is_empty() {
                flat::empty_to_bytes::<D>(self.opts.capacity)
            } else {
                pack_str_to_flat(items, self.opts.capacity, self.opts.threads)?
            }
        };

        // (1) The commit point: once the output is durable, it retires
        // its victims and covers every note up to the seal LSN.
        let image_len = bytes.len();
        lineage.encode_onto(&mut bytes);
        {
            let _pspan = obs::trace::span("lsm.publish");
            self.segs.put(new_id, &bytes)?;
            self.segs.sync()?;
        }
        bytes.truncate(image_len);

        // (2) In-memory flip, then cleanup.
        let tree = flat::FlatTree::<D>::from_vec(bytes)?;
        {
            let mut g = self.state.write();
            g.sealed = None;
            let keep = g.levels.len() - victims.len();
            g.levels.truncate(keep);
            g.levels.push(Arc::new(Segment { id: new_id, tree }));
            g.next_seg_id = new_id + 1;
        }
        LSM_COMPACTIONS.inc();
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.items_packed.fetch_add(item_count, Ordering::Relaxed);
        self.notify_done();

        if !victims.is_empty() {
            for seg in &victims {
                self.segs.delete(seg.id)?;
            }
            self.segs.sync()?;
        }
        self.wal.recycle(lineage.seal_lsn)?;
        Ok(true)
    }

    fn notify_done(&self) {
        let _g = self.done_mx.lock();
        self.done_cv.notify_all();
    }
}

impl<const D: usize> SpatialIndex<D> for LsmTree<D> {
    fn for_each_intersecting(
        &self,
        query: &Rect<D>,
        visit: &mut dyn FnMut(Rect<D>, u64),
    ) -> rtree::Result<()> {
        // Snapshot the component set under the lock, query outside it:
        // a concurrent flip atomically moves items between components,
        // so one consistent snapshot sees every item exactly once. Only
        // the active memtable changes afterwards, and it is scanned
        // under its own lock in one pass, tombstones included.
        let (active, sealed, levels) = {
            let g = self.inner.state.read();
            (
                g.active.clone(),
                g.sealed.as_ref().map(|s| s.mem.clone()),
                g.levels.clone(),
            )
        };
        let mut shadow = Shadow::default();
        if let Some(mem) = &sealed {
            mem.shadow(query, &mut shadow);
        }
        active.scan(query, visit, &mut shadow);
        if shadow.is_empty() {
            if let Some(mem) = sealed {
                mem.for_each_intersecting(query, visit)?;
            }
            for seg in levels {
                seg.tree.for_each_in_region(query, &mut *visit);
            }
        } else {
            let mut unshadowed = |rect: Rect<D>, id: u64| {
                if !shadow.take(&rect, id) {
                    visit(rect, id);
                }
            };
            if let Some(mem) = sealed {
                mem.for_each_intersecting(query, &mut unshadowed)?;
            }
            for seg in levels {
                seg.tree.for_each_in_region(query, &mut unshadowed);
            }
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.state.read().len()
    }

    fn stats(&self) -> IndexStats {
        let g = self.inner.state.read();
        IndexStats {
            backend: "lsm",
            len: g.len(),
            levels: (1 + g.levels.len()) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::TRAILER_LEN;
    use crate::segstore::MemSegmentStore;
    use storage::{fnv1a_update, MemDisk, MemLogStore, SyncClock, FNV_SEED};

    fn small_opts() -> LsmOptions {
        LsmOptions {
            memtable_items: 32,
            max_levels: 2,
            ..LsmOptions::default()
        }
    }

    type MemParts = (
        LsmTree<2>,
        Arc<dyn Disk>,
        Arc<dyn LogStore>,
        Arc<dyn SegmentStore>,
    );

    fn open_mem(opts: LsmOptions) -> MemParts {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::default_size());
        let log: Arc<dyn LogStore> = MemLogStore::new();
        let segs: Arc<dyn SegmentStore> = Arc::new(MemSegmentStore::new());
        let tree = LsmTree::open(disk.clone(), log.clone(), segs.clone(), opts).unwrap();
        (tree, disk, log, segs)
    }

    fn rect_for(i: u64) -> Rect<2> {
        let x = (i % 97) as f64;
        let y = (i / 97) as f64;
        Rect::new([x, y], [x + 0.5, y + 0.5])
    }

    #[test]
    fn inserts_compact_into_levels_and_stay_queryable() {
        let (tree, _, _, _) = open_mem(small_opts());
        for i in 0..200u64 {
            tree.insert(rect_for(i), i).unwrap();
        }
        let st = tree.stats();
        assert!(st.compactions >= 1, "expected at least one compaction");
        assert!(st.levels <= 2, "level cap violated: {st:?}");
        assert_eq!(SpatialIndex::len(&tree), 200);

        // Every item answers a point-ish query against the full set.
        let idx: &dyn SpatialIndex<2> = &tree;
        for i in (0..200u64).step_by(23) {
            let hits = idx.query(&rect_for(i)).unwrap();
            assert!(
                hits.iter().any(|&(_, id)| id == i),
                "item {i} missing from query"
            );
        }
    }

    #[test]
    fn reopen_recovers_memtable_and_levels() {
        let opts = small_opts();
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::default_size());
        let log: Arc<dyn LogStore> = MemLogStore::new();
        let segs: Arc<dyn SegmentStore> = Arc::new(MemSegmentStore::new());
        {
            let tree = LsmTree::<2>::open(disk.clone(), log.clone(), segs.clone(), opts).unwrap();
            for i in 0..100u64 {
                tree.insert(rect_for(i), i).unwrap();
            }
        }
        let tree = LsmTree::<2>::open(disk, log, segs, opts).unwrap();
        assert_eq!(SpatialIndex::len(&tree), 100);
        let idx: &dyn SpatialIndex<2> = &tree;
        for i in 0..100u64 {
            let hits = idx.query(&rect_for(i)).unwrap();
            assert!(hits.iter().any(|&(_, id)| id == i), "item {i} lost");
        }
    }

    /// A rectangle `Rect::try_new` refuses is an input error, not an
    /// acknowledged write: the batch fails whole, nothing reaches the
    /// log, and the tree reopens with the items it had.
    #[test]
    fn invalid_rect_is_refused_before_the_log() {
        let opts = small_opts();
        let (tree, disk, log, segs) = open_mem(opts);
        for i in 0..10u64 {
            tree.insert(rect_for(i), i).unwrap();
        }
        let before = log_bytes(&log);
        let commits = tree.wal().stat().commits;
        let res = tree.insert(Rect::empty(), 99);
        assert!(
            matches!(
                res,
                Err(LsmError::InvalidRect(geom::GeomError::InvertedAxis {
                    axis: 0
                }))
            ),
            "{res:?}"
        );
        let res = tree.insert_batch(&[(rect_for(10), 10), (Rect::empty(), 99)]);
        assert!(matches!(res, Err(LsmError::InvalidRect(_))), "{res:?}");
        assert_eq!(SpatialIndex::len(&tree), 10);
        assert_eq!(tree.wal().stat().commits, commits);
        assert_eq!(log_bytes(&log), before);
        drop(tree);

        let tree = LsmTree::<2>::open(disk, log, segs, opts).unwrap();
        assert_eq!(SpatialIndex::len(&tree), 10);
    }

    /// A batch whose note the log cannot hold (over 4 MiB of payload,
    /// 104,858 2-D items) fails whole and leaves the tree as it was:
    /// logged, it would read back as a torn tail that drops it and
    /// every later insert.
    #[test]
    fn oversized_batch_is_refused_before_the_log() {
        let opts = small_opts();
        let (tree, disk, log, segs) = open_mem(LsmOptions {
            memtable_items: 1 << 20,
            ..opts
        });
        tree.insert(rect_for(0), 0).unwrap();
        let batch: Vec<(Rect<2>, u64)> = (1..=104_858).map(|i| (rect_for(i), i)).collect();
        assert!(matches!(
            tree.insert_batch(&batch),
            Err(LsmError::Storage(storage::StorageError::Io(_)))
        ));
        tree.insert_batch(&batch[..104_857]).unwrap();
        assert_eq!(SpatialIndex::len(&tree), 104_858);
        drop(tree);
        let tree = LsmTree::<2>::open(disk, log, segs, opts).unwrap();
        assert_eq!(SpatialIndex::len(&tree), 104_858);
    }

    /// A store of version-1 `FLT1` images, sealed with FNV-1a as older
    /// builds wrote them, is refused: `open` fails with the flat tier's
    /// typed error naming the version.
    #[test]
    fn store_of_version_1_segments_is_refused() {
        let opts = small_opts();
        let (tree, disk, log, segs) = open_mem(opts);
        for i in 0..100u64 {
            tree.insert(rect_for(i), i).unwrap();
        }
        tree.flush().unwrap();
        assert!(tree.stats().levels >= 1);
        drop(tree);
        // Downgrade every segment's image to version 1, under a trailer
        // that seals it, so the image check is what refuses it.
        let ids = segs.list().unwrap();
        rewrite_images(&segs, |bytes| {
            bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
            let sum = fnv1a_update(fnv1a_update(FNV_SEED, &bytes[..56]), &bytes[64..]);
            bytes[56..64].copy_from_slice(&sum.to_le_bytes());
        });
        assert!(!ids.is_empty());

        match LsmTree::<2>::open(disk, log, segs, opts) {
            Err(LsmError::Flat(flat::FlatError::Parse(msg))) => {
                assert!(msg.contains("unsupported flat version 1"), "{msg}")
            }
            Err(other) => panic!("wrong error for a version-1 store: {other}"),
            Ok(_) => panic!("a store of version-1 segments opened"),
        }
    }

    /// Apply `edit` to every segment's image, keeping its lineage under
    /// a trailer resealed for the edited image.
    fn rewrite_images(segs: &Arc<dyn SegmentStore>, edit: impl Fn(&mut Vec<u8>)) {
        for id in segs.list().unwrap() {
            let mut bytes = segs.read(id).unwrap().unwrap();
            let (lineage, image_len) = Lineage::decode(&bytes).unwrap();
            bytes.truncate(image_len);
            edit(&mut bytes);
            lineage.encode_onto(&mut bytes);
            segs.put(id, &bytes).unwrap();
        }
        segs.sync().unwrap();
    }

    /// Every segment's image with one coordinate — axis 0's minimum
    /// (`max` false) or maximum of `slot` — set to `v`, resealed so its
    /// checksum passes.
    fn damage_segments(segs: &Arc<dyn SegmentStore>, slot: usize, max: bool, v: f64) {
        rewrite_images(segs, |bytes| {
            let layout = flat::Header::parse(bytes).unwrap().layout();
            let col = if max {
                layout.axis_max_off(0)
            } else {
                layout.axis_min_off(0)
            };
            bytes[col + 8 * slot..col + 8 * slot + 8].copy_from_slice(&v.to_le_bytes());
            let sum = flat::abi::checksum(bytes);
            bytes[flat::abi::CHECKSUM_OFF..flat::HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        });
    }

    /// A segment whose image is checksum-valid but holds a NaN or an
    /// inverted slot is refused at open, not left for the compaction
    /// that drains it to trip over.
    #[test]
    fn segment_with_a_nan_or_inverted_slot_is_refused_at_open() {
        for (max, v) in [(false, f64::NAN), (true, -1.0)] {
            let opts = small_opts();
            let (tree, disk, log, segs) = open_mem(opts);
            for i in 0..40u64 {
                tree.insert(rect_for(i), i).unwrap();
            }
            tree.flush().unwrap();
            drop(tree);
            damage_segments(&segs, 3, max, v);
            match LsmTree::<2>::open(disk, log, segs, opts) {
                Err(LsmError::Flat(flat::FlatError::Parse(msg))) => {
                    assert!(msg.contains("slot 3 has an invalid MBR"), "{msg}")
                }
                Err(other) => panic!("{v}: wrong error {other}"),
                Ok(_) => panic!("{v}: a damaged segment opened"),
            }
        }
    }

    /// WAL segments written before an open are recycled like the
    /// current log's own, once a compaction covers their notes.
    #[test]
    fn wal_segments_of_an_earlier_open_are_recycled() {
        let opts = small_opts();
        let (tree, disk, log, segs) = open_mem(opts);
        for i in 0..10u64 {
            tree.insert(rect_for(i), i).unwrap();
        }
        drop(tree);
        let before = log.list().unwrap();
        assert_eq!(before.len(), 1);

        let tree = LsmTree::<2>::open(disk.clone(), log.clone(), segs.clone(), opts).unwrap();
        tree.insert(rect_for(10), 10).unwrap();
        tree.flush().unwrap();
        let after = log.list().unwrap();
        assert!(
            after.iter().all(|s| !before.contains(s)),
            "segments {before:?} of the first open survived: {after:?}"
        );
        drop(tree);
        let tree = LsmTree::<2>::open(disk, log, segs, opts).unwrap();
        assert_eq!(ids(&tree), (0..11).collect::<Vec<_>>());
    }

    /// A checksummed WAL record, framed by hand as `storage::wal` frames
    /// one: `[len u32][kind u32][lsn u64][payload][fnv1a u64]`.
    fn raw_record(kind: u32, lsn: u64, payload: &[u8]) -> Vec<u8> {
        let mut rec = Vec::new();
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&kind.to_le_bytes());
        rec.extend_from_slice(&lsn.to_le_bytes());
        rec.extend_from_slice(payload);
        let sum = fnv1a_update(FNV_SEED, &rec);
        rec.extend_from_slice(&sum.to_le_bytes());
        rec
    }

    /// All bytes of every log segment, by segment id.
    fn log_bytes(log: &Arc<dyn LogStore>) -> Vec<(u64, Vec<u8>)> {
        let ids = log.list().unwrap();
        ids.into_iter().map(|s| (s, log.read(s).unwrap())).collect()
    }

    /// A log written by the previous build — each note followed by a
    /// kind-3 commit record — is refused, and is not cut as a torn tail:
    /// that would drop acknowledged inserts without a word.
    #[test]
    fn log_of_an_older_build_is_refused_uncut() {
        let opts = small_opts();
        let (tree, disk, log, segs) = open_mem(opts);
        drop(tree);
        let mut old = Vec::new();
        for lsn in 1..=3u64 {
            let mut note = Vec::new();
            InsertNote {
                items: vec![(rect_for(lsn), lsn)].into(),
            }
            .encode_into(&mut note);
            old.extend(raw_record(4, lsn, &note));
            old.extend(raw_record(3, lsn, &0u64.to_le_bytes()));
        }
        log.append(0, &old).unwrap();
        log.sync().unwrap();
        let before = log_bytes(&log);
        match LsmTree::<2>::open(disk, log.clone(), segs, opts) {
            Err(LsmError::Storage(storage::StorageError::Corrupt { reason, .. })) => {
                assert!(reason.contains("retired record kind 3"), "{reason}")
            }
            Err(other) => panic!("wrong error for an old log: {other}"),
            Ok(_) => panic!("a log with commit records opened"),
        }
        assert_eq!(log_bytes(&log), before, "the old log was cut");
    }

    /// A segment as older builds wrote it — a bare `FLT1` image with no
    /// lineage trailer — is refused typed, and the store is left as it
    /// was.
    #[test]
    fn segment_without_a_lineage_trailer_is_refused() {
        let opts = small_opts();
        let (tree, disk, log, segs) = open_mem(opts);
        for i in 0..40u64 {
            tree.insert(rect_for(i), i).unwrap();
        }
        tree.flush().unwrap();
        drop(tree);
        let id = *segs.list().unwrap().last().unwrap();
        let mut bytes = segs.read(id).unwrap().unwrap();
        bytes.truncate(bytes.len() - TRAILER_LEN);
        segs.put(id, &bytes).unwrap();
        segs.sync().unwrap();
        let before = segs.list().unwrap();
        match LsmTree::<2>::open(disk, log, segs.clone(), opts) {
            Err(LsmError::Corrupt(msg)) => assert!(msg.contains("no lineage trailer"), "{msg}"),
            Err(other) => panic!("wrong error for a trailer-less segment: {other}"),
            Ok(_) => panic!("a trailer-less segment opened"),
        }
        assert_eq!(segs.list().unwrap(), before);
        assert_eq!(segs.read(id).unwrap().unwrap(), bytes);
    }

    /// A main disk that holds pages is an older build's superblock
    /// catalog: `open` refuses it typed before it reads the log or the
    /// segments, and writes nothing to it.
    #[test]
    fn disk_holding_an_older_superblock_is_refused() {
        let opts = small_opts();
        let (tree, _, log, segs) = open_mem(opts);
        for i in 0..40u64 {
            tree.insert(rect_for(i), i).unwrap();
        }
        drop(tree);
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::default_size());
        let page = disk.allocate().unwrap();
        disk.write_page(page, &vec![0xA5; disk.page_size()])
            .unwrap();
        let (log_before, segs_before) = (log_bytes(&log), segs.list().unwrap());
        match LsmTree::<2>::open(disk.clone(), log.clone(), segs.clone(), opts) {
            Err(LsmError::Corrupt(msg)) => assert!(msg.contains("older build"), "{msg}"),
            Err(other) => panic!("wrong error for a disk with pages: {other}"),
            Ok(_) => panic!("a disk holding a superblock opened"),
        }
        assert_eq!(disk.num_pages(), 1);
        let mut after = vec![0u8; disk.page_size()];
        disk.read_page(page, &mut after).unwrap();
        assert!(after.iter().all(|&b| b == 0xA5));
        assert_eq!(
            (log_bytes(&log), segs.list().unwrap()),
            (log_before, segs_before)
        );
    }

    /// A hand-made segment of items `0..n`, whose lineage is `seal_lsn`
    /// and `fold_id`.
    fn put_segment(segs: &dyn SegmentStore, id: u64, n: u64, seal_lsn: u64, fold_id: u64) {
        let items = (0..n).map(|i| (rect_for(i), i)).collect();
        let mut bytes = pack_str_to_flat::<2>(items, small_opts().capacity, 1).unwrap();
        Lineage { seal_lsn, fold_id }.encode_onto(&mut bytes);
        segs.put(id, &bytes).unwrap();
        segs.sync().unwrap();
    }

    /// A, then B folding A, then C folding B: a victim delete failed and
    /// the next compaction still ran. The store opens to exactly C, and
    /// A and B are deleted.
    #[test]
    fn a_fold_chain_opens_to_its_newest_segment() {
        let segs: Arc<dyn SegmentStore> = Arc::new(MemSegmentStore::new());
        put_segment(&*segs, 1, 10, 10, 1);
        put_segment(&*segs, 2, 20, 20, 1);
        put_segment(&*segs, 3, 30, 30, 2);
        let tree = LsmTree::<2>::open(
            Arc::new(MemDisk::default_size()),
            MemLogStore::new(),
            segs.clone(),
            small_opts(),
        )
        .unwrap();
        assert_eq!(level_shape(&tree), [(3, 30)]);
        assert_eq!(ids(&tree), (0..30).collect::<Vec<_>>());
        assert_eq!(segs.list().unwrap(), [3]);
    }

    /// A segment that claims to retire ids above its own is refused.
    #[test]
    fn a_fold_id_above_the_own_id_is_refused() {
        let segs: Arc<dyn SegmentStore> = Arc::new(MemSegmentStore::new());
        put_segment(&*segs, 1, 10, 10, 2);
        match LsmTree::<2>::open(
            Arc::new(MemDisk::default_size()),
            MemLogStore::new(),
            segs,
            small_opts(),
        ) {
            Err(LsmError::Corrupt(msg)) => assert!(msg.contains("above its own id"), "{msg}"),
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("a segment retiring newer ids opened"),
        }
    }

    /// The newest segment's seal LSN.
    fn newest_seal_lsn(segs: &Arc<dyn SegmentStore>) -> u64 {
        let id = *segs.list().unwrap().last().unwrap();
        Lineage::decode(&segs.read(id).unwrap().unwrap())
            .unwrap()
            .0
            .seal_lsn
    }

    /// With every note in a segment and the log recycled empty, a
    /// reopened log still resumes past the newest seal LSN.
    #[test]
    fn an_empty_log_resumes_past_the_newest_seal_lsn() {
        let opts = small_opts();
        let (tree, disk, log, segs) = open_mem(opts);
        for i in 0..40u64 {
            tree.insert(rect_for(i), i).unwrap();
        }
        tree.flush().unwrap();
        drop(tree);
        assert!(
            scan(&*log).unwrap().notes.is_empty(),
            "the log was recycled"
        );
        let seal = newest_seal_lsn(&segs);
        assert!(seal >= 40);

        let tree = LsmTree::<2>::open(disk, log.clone(), segs, opts).unwrap();
        tree.insert(rect_for(40), 40).unwrap();
        let notes = scan(&*log).unwrap().notes;
        assert_eq!(notes.len(), 1);
        assert!(
            notes[0].0 > seal,
            "LSN {} reused at or below {seal}",
            notes[0].0
        );
        assert_eq!(ids(&tree), (0..41).collect::<Vec<_>>());
    }

    /// Syncs of one drain, counted by a shared clock: the output's put,
    /// and, when it has victims, their deletes. Nothing else syncs.
    #[test]
    fn a_drain_syncs_twice_with_victims_and_once_without() {
        let clock = SyncClock::new();
        let log = MemLogStore::with_clock(clock.clone());
        let segs = Arc::new(MemSegmentStore::with_clock(clock.clone()));
        let opts = LsmOptions {
            memtable_items: 1000,
            ..small_opts()
        };
        let tree = LsmTree::<2>::open(Arc::new(MemDisk::default_size()), log, segs, opts).unwrap();
        let flush_syncs = |from: u64| {
            for i in from..from + 20 {
                tree.insert(rect_for(i), i).unwrap();
            }
            let before = clock.syncs_seen();
            tree.flush().unwrap();
            clock.syncs_seen() - before
        };
        assert_eq!(flush_syncs(0), 1, "a drain with no victims");
        assert_eq!(level_shape(&tree).len(), 1);
        assert_eq!(flush_syncs(20), 2, "a drain folding the level");
        assert_eq!(level_shape(&tree).len(), 1);
    }

    /// A segment store whose next `delete` fails once armed.
    struct FailingDelete {
        inner: MemSegmentStore,
        armed: std::sync::atomic::AtomicBool,
    }

    impl SegmentStore for FailingDelete {
        fn list(&self) -> storage::Result<Vec<u64>> {
            self.inner.list()
        }
        fn put(&self, id: u64, bytes: &[u8]) -> storage::Result<()> {
            self.inner.put(id, bytes)
        }
        fn read(&self, id: u64) -> storage::Result<Option<Vec<u8>>> {
            self.inner.read(id)
        }
        fn delete(&self, id: u64) -> storage::Result<()> {
            if self.armed.swap(false, Ordering::Relaxed) {
                return Err(std::io::Error::other("injected delete failure").into());
            }
            self.inner.delete(id)
        }
        fn sync(&self) -> storage::Result<()> {
            self.inner.sync()
        }
    }

    /// A victim whose delete failed stays retired after the segment
    /// that retired it is itself folded and deleted: every output
    /// retires all ids above the newest level it keeps.
    #[test]
    fn a_failed_victim_delete_never_resurrects_the_victim() {
        let opts = LsmOptions {
            memtable_items: 1000,
            max_levels: 4,
            ..small_opts()
        };
        let store = Arc::new(FailingDelete {
            inner: MemSegmentStore::new(),
            armed: false.into(),
        });
        let segs: Arc<dyn SegmentStore> = store.clone();
        let (disk, log): (Arc<dyn Disk>, Arc<dyn LogStore>) =
            (Arc::new(MemDisk::default_size()), MemLogStore::new());
        let tree = LsmTree::<2>::open(disk.clone(), log.clone(), segs.clone(), opts).unwrap();
        let fill = |range: std::ops::Range<u64>| {
            for i in range {
                tree.insert(rect_for(i), i).unwrap();
            }
        };
        fill(0..100);
        tree.flush().unwrap(); // [100]
        fill(100..110);
        tree.flush().unwrap(); // [100, 10]
        let x = level_shape(&tree)[1].0;
        fill(110..120);
        store.armed.store(true, Ordering::Relaxed);
        assert!(tree.flush().is_err(), "the victim delete fails"); // [100, 20]
        assert!(segs.list().unwrap().contains(&x));
        fill(120..140);
        tree.flush().unwrap(); // [100, 40], folding the 20
        assert_eq!(level_shape(&tree).len(), 2);
        assert!(segs.list().unwrap().contains(&x), "x is still on disk");
        drop(tree);

        let tree = LsmTree::<2>::open(disk, log, segs.clone(), opts).unwrap();
        assert_eq!(ids(&tree), (0..140).collect::<Vec<_>>());
        assert_eq!(SpatialIndex::len(&tree), 140);
        let live: Vec<u64> = level_shape(&tree).iter().map(|l| l.0).collect();
        assert_eq!(segs.list().unwrap(), live);
    }

    /// `(id, item count)` of every level, oldest first.
    fn level_shape(tree: &LsmTree<2>) -> Vec<(u64, u64)> {
        let g = tree.inner.state.read();
        g.levels.iter().map(|s| (s.id, s.item_count())).collect()
    }

    /// One compaction of a `sealed`-item memtable turned `before` into
    /// `after`: the cap of 4 levels holds, ids rise and item counts fall
    /// from oldest to newest, and the victims were exactly the newest
    /// suffix, re-packed with the memtable into the one new (newest)
    /// level.
    fn check_flip(before: &[(u64, u64)], after: &[(u64, u64)], sealed: u64) {
        assert!(after.len() <= 4, "level cap violated: {after:?}");
        for w in after.windows(2) {
            assert!(w[0].0 < w[1].0, "ids out of order: {after:?}");
            assert!(w[0].1 > w[1].1, "item counts not decreasing: {after:?}");
        }
        let keep = after.len() - 1;
        assert!(keep <= before.len(), "{before:?} -> {after:?}");
        assert_eq!(
            &after[..keep],
            &before[..keep],
            "kept levels must be the oldest"
        );
        let victims: u64 = before[keep..].iter().map(|l| l.1).sum();
        assert_eq!(after[keep].1, sealed + victims, "{before:?} -> {after:?}");
        assert!(before.iter().all(|l| l.0 != after[keep].0));
    }

    /// `perfbench ingest`'s shape scaled down: 61 memtables of 64 items
    /// under `max_levels` 4. Levels merge like a binary counter until
    /// the cap forces a fold; the full-merge rule packed 541 memtables'
    /// worth of items here, the logarithmic one packs 201.
    #[test]
    fn compaction_folds_only_the_newest_levels_no_larger_than_the_output() {
        const M: u64 = 64;
        let opts = LsmOptions {
            memtable_items: M,
            max_levels: 4,
            ..LsmOptions::default()
        };
        let (tree, _, log, segs) = open_mem(opts);
        let mut before = level_shape(&tree);
        let mut compactions = 0;
        let mut packed = 0;
        let mut after_compaction = |tree: &LsmTree<2>| {
            let st = tree.stats();
            if st.compactions == compactions {
                return;
            }
            assert_eq!(st.compactions, compactions + 1, "one seal, one compaction");
            let after = level_shape(tree);
            check_flip(&before, &after, M);
            assert_eq!(st.items_packed - packed, after.last().unwrap().1);
            // The store holds the levels and nothing else, and the
            // drained memtable's WAL segment went with it: the log keeps
            // nothing at or below the newest segment's seal LSN.
            let live: Vec<u64> = after.iter().map(|l| l.0).collect();
            assert_eq!(segs.list().unwrap(), live);
            let wal = scan(&*log).unwrap();
            let seal = newest_seal_lsn(&segs);
            assert!(
                wal.notes.iter().all(|&(lsn, _)| lsn > seal),
                "WAL kept records at or below {seal}"
            );
            (before, compactions, packed) = (after, st.compactions, st.items_packed);
        };
        for i in 0..61 * M {
            tree.insert(rect_for(i), i).unwrap();
            after_compaction(&tree);
        }
        tree.flush().unwrap();
        after_compaction(&tree);

        let sizes: Vec<u64> = level_shape(&tree).iter().map(|l| l.1 / M).collect();
        assert_eq!(sizes, [32, 16, 8, 5]);
        let st = tree.stats();
        assert_eq!(st.compactions, 61);
        assert_eq!(st.items_packed, 201 * M);
        assert_eq!(SpatialIndex::len(&tree), 61 * M);
    }

    fn ids(tree: &LsmTree<2>) -> Vec<u64> {
        let mut ids: Vec<u64> = tree
            .query(&Rect::new([-1.0, -1.0], [200.0, 200.0]))
            .unwrap()
            .iter()
            .map(|&(_, id)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn deletes_shadow_every_tier_and_survive_reopen() {
        let opts = small_opts();
        let (tree, disk, log, segs) = open_mem(opts);
        for i in 0..40u64 {
            tree.insert(rect_for(i), i).unwrap();
        }
        tree.flush().unwrap();
        for i in 40..50u64 {
            tree.insert(rect_for(i), i).unwrap();
        }
        // An absent pair, or a live id under another rect, logs nothing.
        let logged = log.list().unwrap().len();
        let before = scan(&*log).unwrap().notes.len();
        assert!(!tree.delete(&rect_for(99), 99).unwrap());
        assert!(!tree.delete(&rect_for(1), 2).unwrap());
        assert_eq!(scan(&*log).unwrap().notes.len(), before);
        assert_eq!(log.list().unwrap().len(), logged);

        // Level copy: a tombstone. Memtable copy: removed in place.
        assert!(tree.delete(&rect_for(3), 3).unwrap());
        assert!(tree.delete(&rect_for(45), 45).unwrap());
        assert!(!tree.delete(&rect_for(3), 3).unwrap(), "already gone");
        let st = tree.stats();
        assert_eq!((st.tombstones, st.memtable_items), (1, 9));
        // Re-insert after delete: one copy again.
        tree.insert(rect_for(3), 3).unwrap();
        let want: Vec<u64> = (0..50).filter(|&i| i != 45).collect();
        assert_eq!(ids(&tree), want);
        assert_eq!(SpatialIndex::len(&tree), 49);

        drop(tree);
        let tree = LsmTree::<2>::open(disk, log, segs, opts).unwrap();
        assert_eq!(ids(&tree), want);
        assert_eq!(SpatialIndex::len(&tree), 49);
        // The drain folds every level and drops the tombstone.
        tree.flush().unwrap();
        let st = tree.stats();
        assert_eq!((st.tombstones, st.levels, st.level_items), (0, 1, 49));
        assert_eq!(ids(&tree), want);
    }

    /// A crash right after the output's sync, before its cleanup: the
    /// output is committed, so recovery keeps it, deletes the victim it
    /// retires, and replays none of the drained notes still in the log.
    #[test]
    fn crash_after_the_output_sync_before_cleanup_keeps_the_output() {
        let opts = small_opts();
        let clock = SyncClock::new();
        let log = MemLogStore::with_clock(clock.clone());
        let segs = Arc::new(MemSegmentStore::with_clock(clock.clone()));
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::default_size());
        let tree = LsmTree::<2>::open(disk.clone(), log.clone(), segs.clone(), opts).unwrap();
        for i in 0..20u64 {
            tree.insert(rect_for(i), i).unwrap();
        }
        tree.flush().unwrap();
        let victim = level_shape(&tree)[0].0;
        for i in 20..40u64 {
            tree.insert(rect_for(i), i).unwrap();
        }
        // The drain's syncs: the output's put, then the victim delete.
        // Crash right after the first.
        clock.crash_after_nth_sync(clock.syncs_seen());
        assert!(tree.flush().is_err());
        drop(tree);
        log.lose_unsynced();
        segs.lose_unsynced();
        clock.revive();
        assert_eq!(
            segs.list().unwrap().len(),
            2,
            "victim and output both on disk"
        );
        assert!(
            !scan(&*log).unwrap().notes.is_empty(),
            "the log was not recycled"
        );

        let tree = LsmTree::<2>::open(disk, log, segs.clone(), opts).unwrap();
        let st = tree.stats();
        assert_eq!((st.levels, st.level_items, st.memtable_items), (1, 40, 0));
        assert_eq!(ids(&tree), (0..40).collect::<Vec<_>>());
        assert!(!segs.list().unwrap().contains(&victim));
        assert_eq!(segs.list().unwrap(), [level_shape(&tree)[0].0]);
    }

    #[test]
    fn a_delete_of_a_sealed_item_is_a_tombstone_until_the_fold() {
        let (tree, _, _, _) = open_mem(small_opts());
        for i in 0..32u64 {
            tree.insert(rect_for(i), i).unwrap();
        }
        // Seal by hand and leave the drain pending.
        {
            let mut g = tree.inner.state.write();
            seal_locked(&tree.inner, &mut g);
        }
        assert_eq!(tree.stats().sealed_items, 32);
        assert!(tree.delete(&rect_for(7), 7).unwrap());
        assert!(!tree.delete(&rect_for(7), 7).unwrap());
        assert_eq!(tree.stats().tombstones, 1);
        assert_eq!(SpatialIndex::len(&tree), 31);
        assert!(!ids(&tree).contains(&7));
        tree.flush().unwrap();
        assert_eq!(tree.stats().tombstones, 0);
        assert_eq!(ids(&tree), (0..32).filter(|&i| i != 7).collect::<Vec<_>>());
    }

    #[test]
    fn a_sealed_tombstone_keeps_its_level_copy_dead() {
        let (tree, _, _, _) = open_mem(small_opts());
        for i in 0..40u64 {
            tree.insert(rect_for(i), i).unwrap();
        }
        tree.flush().unwrap();
        assert!(tree.delete(&rect_for(5), 5).unwrap());
        // The tombstone moves to the sealed memtable; the level copy it
        // shadows must stay dead for a second delete.
        {
            let mut g = tree.inner.state.write();
            seal_locked(&tree.inner, &mut g);
        }
        assert!(!tree.delete(&rect_for(5), 5).unwrap());
        tree.insert(rect_for(5), 5).unwrap();
        assert!(tree.delete(&rect_for(5), 5).unwrap());
        assert!(!tree.delete(&rect_for(5), 5).unwrap());
        tree.flush().unwrap();
        assert_eq!(ids(&tree), (0..40).filter(|&i| i != 5).collect::<Vec<_>>());
    }

    /// A fold whose tombstones delete every item writes an empty image:
    /// one 0-item level, which the next flush folds and retires.
    #[test]
    fn deleting_everything_leaves_one_empty_level_until_the_next_flush() {
        let opts = small_opts();
        let (tree, disk, log, segs) = open_mem(opts);
        for i in 0..40u64 {
            tree.insert(rect_for(i), i).unwrap();
        }
        tree.flush().unwrap();
        for i in 0..40u64 {
            assert!(tree.delete(&rect_for(i), i).unwrap());
        }
        tree.flush().unwrap();
        let st = tree.stats();
        assert_eq!((st.levels, st.level_items, st.tombstones), (1, 0, 0));
        assert_eq!(SpatialIndex::len(&tree), 0);
        let empty = segs.list().unwrap();
        assert_eq!(empty.len(), 1, "at most one empty image");
        let (_, image) = decode_segment::<2>(segs.read(empty[0]).unwrap().unwrap()).unwrap();
        assert!(image.is_empty());
        drop(tree);

        let tree = LsmTree::<2>::open(disk, log, segs.clone(), opts).unwrap();
        assert_eq!(level_shape(&tree), [(empty[0], 0)]);
        assert_eq!(SpatialIndex::len(&tree), 0);
        tree.insert(rect_for(5), 5).unwrap();
        tree.flush().unwrap();
        assert_eq!(ids(&tree), vec![5]);
        let shape = level_shape(&tree);
        assert_eq!(shape.len(), 1);
        assert_eq!(segs.list().unwrap(), [shape[0].0]);
        assert_ne!(shape[0].0, empty[0], "the empty level was retired");
    }

    #[test]
    fn zero_memtable_items_is_rejected_at_open() {
        // Before the check, the first insert never returned: no item is
        // ever admitted to a zero-item memtable. The timeout turns such
        // a hang into a failure.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let disk: Arc<dyn Disk> = Arc::new(MemDisk::default_size());
            let opts = LsmOptions {
                memtable_items: 0,
                ..LsmOptions::default()
            };
            let res = LsmTree::<2>::open(
                disk,
                MemLogStore::new(),
                Arc::new(MemSegmentStore::new()),
                opts,
            )
            .and_then(|tree| tree.insert(rect_for(0), 0));
            let _ = tx.send(res);
        });
        let res = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("open or the first insert hung");
        assert!(matches!(res, Err(LsmError::InvalidOptions(_))), "{res:?}");
    }

    #[test]
    fn zero_max_levels_is_rejected_at_open() {
        let disk: Arc<dyn Disk> = Arc::new(MemDisk::default_size());
        let opts = LsmOptions {
            max_levels: 0,
            ..LsmOptions::default()
        };
        let res = LsmTree::<2>::open(
            disk,
            MemLogStore::new(),
            Arc::new(MemSegmentStore::new()),
            opts,
        );
        assert!(matches!(res, Err(LsmError::InvalidOptions(_))));
    }

    #[test]
    fn flush_drains_everything_to_segments() {
        let (tree, _, _, _) = open_mem(small_opts());
        for i in 0..50u64 {
            tree.insert(rect_for(i), i).unwrap();
        }
        tree.flush().unwrap();
        let st = tree.stats();
        assert_eq!(st.memtable_items, 0);
        assert_eq!(st.sealed_items, 0);
        assert_eq!(st.level_items, 50);
        assert_eq!(SpatialIndex::len(&tree), 50);
    }

    #[test]
    fn background_mode_keeps_ingest_correct() {
        let opts = LsmOptions {
            background: true,
            ..small_opts()
        };
        let (tree, _, _, _) = open_mem(opts);
        let tree = Arc::new(tree);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let tree = tree.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    tree.insert(rect_for(t * 1000 + i), t * 1000 + i).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(SpatialIndex::len(&*tree), 400);
        tree.flush().unwrap();
        assert_eq!(SpatialIndex::len(&*tree), 400);
    }
}
