//! Where segment bytes live: a small blob store keyed by segment id.
//!
//! Segments are immutable once written, so the store needs only
//! put/read/delete plus an explicit `sync` barrier. A segment's name is
//! published only over bytes already durable, so the `put` + `sync` of a
//! compaction's output is its commit point: from then on recovery sees
//! the segment, whole. The in-memory implementation models a crash like
//! [`storage::MemLogStore`]: puts that were never synced vanish on
//! [`MemSegmentStore::lose_unsynced`], while deletes, synced or not,
//! stay done, so the crash harness can prove the protocol never depends
//! on an unsynced put and never deletes what it still needs.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use storage::{PageId, Result, StorageError, SyncClock};

/// Durable blob store for immutable flat segments.
pub trait SegmentStore: Send + Sync {
    /// Ids of every segment present, ascending.
    fn list(&self) -> Result<Vec<u64>>;
    /// Write (or overwrite) a segment's bytes. A crash leaves the id
    /// absent or holding all of `bytes`, never a part of them; not
    /// durable until [`sync`](Self::sync) returns.
    fn put(&self, id: u64, bytes: &[u8]) -> Result<()>;
    /// Read a segment's bytes in full. `Ok(None)` if absent.
    fn read(&self, id: u64) -> Result<Option<Vec<u8>>>;
    /// Remove a segment. Removing an absent id is fine.
    fn delete(&self, id: u64) -> Result<()>;
    /// Make every prior `put`/`delete` durable.
    fn sync(&self) -> Result<()>;
}

struct MemSegment {
    data: Vec<u8>,
    durable: bool,
}

/// In-memory segment store with crash semantics for tests.
pub struct MemSegmentStore {
    segs: Mutex<BTreeMap<u64, MemSegment>>,
    clock: Option<Arc<SyncClock>>,
}

impl MemSegmentStore {
    /// An empty store with no crash schedule.
    pub fn new() -> Self {
        Self {
            segs: Mutex::new(BTreeMap::new()),
            clock: None,
        }
    }

    /// An empty store whose syncs tick (and may trip) `clock`.
    pub fn with_clock(clock: Arc<SyncClock>) -> Self {
        Self {
            segs: Mutex::new(BTreeMap::new()),
            clock: Some(clock),
        }
    }

    /// Simulate the power cut: drop every segment that was never synced.
    /// Synced segments deleted-but-not-synced stay deleted. A put is the
    /// commit point and a delete is cleanup after it, so losing puts and
    /// keeping deletes is the adversarial direction: a protocol that
    /// deleted a victim before its output was durable would lose items
    /// here.
    pub fn lose_unsynced(&self) {
        self.segs.lock().retain(|_, s| s.durable);
    }

    fn check_crashed(&self, op: &'static str) -> Result<()> {
        if let Some(clock) = &self.clock {
            if clock.is_crashed() {
                return Err(StorageError::FaultInjected {
                    op,
                    page: PageId(0),
                });
            }
        }
        Ok(())
    }
}

impl Default for MemSegmentStore {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentStore for MemSegmentStore {
    fn list(&self) -> Result<Vec<u64>> {
        self.check_crashed("seg-list")?;
        Ok(self.segs.lock().keys().copied().collect())
    }

    fn put(&self, id: u64, bytes: &[u8]) -> Result<()> {
        self.check_crashed("seg-put")?;
        self.segs.lock().insert(
            id,
            MemSegment {
                data: bytes.to_vec(),
                durable: false,
            },
        );
        Ok(())
    }

    fn read(&self, id: u64) -> Result<Option<Vec<u8>>> {
        self.check_crashed("seg-read")?;
        Ok(self.segs.lock().get(&id).map(|s| s.data.clone()))
    }

    fn delete(&self, id: u64) -> Result<()> {
        self.check_crashed("seg-delete")?;
        self.segs.lock().remove(&id);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.check_crashed("seg-sync")?;
        for seg in self.segs.lock().values_mut() {
            seg.durable = true;
        }
        if let Some(clock) = &self.clock {
            clock.record_sync();
        }
        Ok(())
    }
}

/// File-backed segment store: one `seg-XXXXXXXX.flat` file per segment
/// in a directory. `put` fsyncs each file before renaming it into
/// place, and `sync` fsyncs the directory.
pub struct FileSegmentStore {
    dir: PathBuf,
}

impl FileSegmentStore {
    /// Open (creating if needed) the store rooted at `dir`.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    fn path_for(&self, id: u64) -> PathBuf {
        self.dir.join(flat::segment_file_name(id))
    }
}

impl SegmentStore for FileSegmentStore {
    fn list(&self) -> Result<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            if let Some(id) = name.to_str().and_then(flat::parse_segment_file_name) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn put(&self, id: u64, bytes: &[u8]) -> Result<()> {
        // Write, fsync, then rename: the final name only ever points at
        // durable bytes, so a crash leaves the old state or the whole
        // segment, never a torn file under its name.
        let tmp = self
            .dir
            .join(format!(".{}.tmp", flat::segment_file_name(id)));
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, self.path_for(id))?;
        Ok(())
    }

    fn read(&self, id: u64) -> Result<Option<Vec<u8>>> {
        match fs::read(self.path_for(id)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn delete(&self, id: u64) -> Result<()> {
        match fs::remove_file(self.path_for(id)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn sync(&self) -> Result<()> {
        // Every file is already durable (`put`): only the directory's
        // renames and unlinks remain.
        fs::File::open(&self.dir)?.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn SegmentStore) {
        assert!(store.list().unwrap().is_empty());
        store.put(3, b"ccc").unwrap();
        store.put(1, b"a").unwrap();
        store.sync().unwrap();
        assert_eq!(store.list().unwrap(), vec![1, 3]);
        assert_eq!(store.read(3).unwrap().unwrap(), b"ccc");
        assert_eq!(store.read(9).unwrap(), None);
        store.delete(3).unwrap();
        store.delete(9).unwrap();
        store.sync().unwrap();
        assert_eq!(store.list().unwrap(), vec![1]);
    }

    #[test]
    fn mem_store_basics() {
        exercise(&MemSegmentStore::new());
    }

    #[test]
    fn file_store_basics() {
        let dir = std::env::temp_dir().join(format!("segstore-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        exercise(&FileSegmentStore::open(&dir).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsynced_segments_vanish_on_crash() {
        let store = MemSegmentStore::new();
        store.put(1, b"synced").unwrap();
        store.sync().unwrap();
        store.put(2, b"lost").unwrap();
        store.lose_unsynced();
        assert_eq!(store.list().unwrap(), vec![1]);
        assert_eq!(store.read(2).unwrap(), None);
    }

    #[test]
    fn crashed_clock_fails_every_op() {
        let clock = SyncClock::new();
        let store = MemSegmentStore::with_clock(clock.clone());
        store.put(1, b"x").unwrap();
        clock.crash_after_nth_sync(0);
        store.sync().unwrap(); // this sync trips the crash
        assert!(store.put(2, b"y").is_err());
        assert!(store.sync().is_err());
        clock.revive();
        store.lose_unsynced();
        assert_eq!(store.list().unwrap(), vec![1]);
    }
}
