//! Where segment bytes live: a small blob store keyed by segment id.
//!
//! Segments are immutable once written, so the store needs only
//! put/read/delete plus an explicit `sync` barrier — the compaction
//! protocol orders that barrier before the WAL flip note, which is what
//! makes the flip a commit point. The in-memory implementation models a
//! crash exactly like [`storage::MemLogStore`]: writes that were never
//! synced vanish on [`MemSegmentStore::lose_unsynced`], so the crash
//! harness can prove the protocol never depends on unsynced bytes.

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
    /// Write (or overwrite) a segment's bytes. Not durable until
    /// [`sync`](Self::sync) returns.
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
    /// Synced segments deleted-but-not-synced stay deleted — fail-stop
    /// deletion is the conservative direction for this store because
    /// recovery treats a missing segment as "flip not materialized".
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
/// in a directory, fsynced (file then directory) on `sync`.
pub struct FileSegmentStore {
    dir: PathBuf,
    dirty: Mutex<Vec<u64>>,
}

impl FileSegmentStore {
    /// Open (creating if needed) the store rooted at `dir`.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            dirty: Mutex::new(Vec::new()),
        })
    }

    fn path_for(&self, id: u64) -> PathBuf {
        self.dir.join(flat::segment_file_name(id))
    }

    fn sync_dir(&self) -> Result<()> {
        fs::File::open(&self.dir)?.sync_all()?;
        Ok(())
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
        // Write-then-rename so a crash mid-put never leaves a segment
        // file with torn contents under its final name.
        let tmp = self
            .dir
            .join(format!(".{}.tmp", flat::segment_file_name(id)));
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.flush()?;
        fs::rename(&tmp, self.path_for(id))?;
        self.dirty.lock().push(id);
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
        let dirty: Vec<u64> = std::mem::take(&mut *self.dirty.lock());
        for id in dirty {
            // The file may have been deleted after the put; that is fine,
            // the directory fsync below covers the unlink.
            match fs::File::open(self.path_for(id)) {
                Ok(f) => f.sync_all()?,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.sync_dir()
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
