//! Paged storage substrate for the STR reproduction.
//!
//! The paper (§3) measures query cost in *disk accesses* and goes out of its
//! way to defeat OS caching: "we implement our buffer manager using a raw
//! disk partition … the node is immediately written to disk and not
//! 'false-buffered' by the operating system's virtual memory manager."
//!
//! We reproduce the same measurement discipline in simulation:
//!
//! * [`disk::MemDisk`] is a byte-accurate page store with exact read/write
//!   counters — the "raw partition". [`disk::FileDisk`] is a real
//!   file-backed variant for experiments that want actual I/O.
//! * [`buffer::BufferPool`] is the LRU buffer manager from the paper; a
//!   *disk access* is precisely a buffer-pool miss, and the pool exposes
//!   per-epoch miss counts so an experiment can attribute misses to
//!   individual queries while the pool stays warm across the whole
//!   2,000-query stream.

pub mod buffer;
pub mod disk;
pub mod fault;
pub mod format;
pub mod hash;
pub mod mmap;
pub mod page;
pub mod seq;
pub mod wal;

pub use buffer::{BufferPool, BufferStats, ShardedBufferPool};
pub use disk::{Disk, FileDisk, IoStats, LatencyDisk, MemDisk};
pub use fault::{within, FaultDisk, FaultId, FaultKind, FaultOp, FaultSpec, SyncClock, Trigger};
pub use format::{CatalogEntry, PageAllocator, FORMAT_V2_MAGIC, FREE_PAGE_MAGIC};
pub use hash::{fnv1a_update, wide_hash, FNV_SEED};
pub use mmap::Mmap;
pub use page::{PageId, DEFAULT_PAGE_SIZE};
pub use seq::SequentialPageWriter;
pub use wal::{truncate_torn_tail, FileLogStore, LogStore, MemLogStore, ScanResult, Wal, WalStat};

/// Errors surfaced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure (file-backed disk only).
    Io(std::io::Error),
    /// A page id past the end of the allocated region.
    PageOutOfBounds {
        /// The page requested.
        page: PageId,
        /// Number of allocated pages.
        allocated: u64,
    },
    /// Every frame in the buffer pool is pinned; nothing can be evicted.
    AllFramesPinned,
    /// A buffer whose length does not match the disk's page size.
    PageSizeMismatch {
        /// Expected page size in bytes.
        expected: usize,
        /// Buffer length supplied.
        got: usize,
    },
    /// A multi-page batch write failed partway: `written` pages at the
    /// start of the batch are confirmed durable, the rest are not.
    PartialWrite {
        /// Pages confirmed written before the failure.
        written: u64,
        /// The underlying failure.
        cause: Box<StorageError>,
    },
    /// A failure injected by [`fault::FaultDisk`] (tests only).
    FaultInjected {
        /// Which operation was faulted ("read", "write", "crash", …).
        op: &'static str,
        /// The page the faulted operation addressed.
        page: PageId,
    },
    /// On-disk format metadata (superblock, free-list chain) failed
    /// validation.
    Corrupt {
        /// The page that failed validation.
        page: PageId,
        /// What was wrong with it.
        reason: String,
    },
    /// A tree with this name already exists in the catalog.
    TreeExists(String),
    /// No tree with this name exists in the catalog.
    UnknownTree(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::PageOutOfBounds { page, allocated } => {
                write!(f, "page {page} out of bounds ({allocated} allocated)")
            }
            StorageError::AllFramesPinned => write!(f, "all buffer frames pinned"),
            StorageError::PageSizeMismatch { expected, got } => {
                write!(f, "page size mismatch: expected {expected}, got {got}")
            }
            StorageError::PartialWrite { written, cause } => {
                write!(
                    f,
                    "batch write failed after {written} durable pages: {cause}"
                )
            }
            StorageError::FaultInjected { op, page } => {
                write!(f, "injected {op} fault at {page}")
            }
            StorageError::Corrupt { page, reason } => {
                write!(f, "corrupt format metadata at {page}: {reason}")
            }
            StorageError::TreeExists(name) => {
                write!(f, "tree '{name}' already exists in this file")
            }
            StorageError::UnknownTree(name) => {
                write!(f, "no tree named '{name}' in this file")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::PartialWrite { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StorageError>;
