//! LSM-style spatial ingestion over the flat tier.
//!
//! The STR paper gives bulk-load-quality packing but no story for
//! sustained inserts. This crate closes that gap the LSM way, with the
//! paper's own machinery at every layer:
//!
//! * writes land in a small in-memory **memtable** keyed by the
//!   Hilbert index of each rectangle's center (the "Simpler is Faster"
//!   observation: sorting along a space-filling curve is itself a
//!   competitive index) and stored column-wise, so reads scan it with
//!   the same SoA kernel the flat levels use ([`geom::SoaRects`]);
//!   writes are logged as WAL notes before acknowledgement;
//! * a full memtable is **sealed** and drained by background compaction,
//!   which STR-packs it straight into a new immutable flat segment
//!   ([`str_core::pack_str_to_flat`], [`flat::FlatTree`]) — ingest
//!   sustains near bulk-load throughput while queries keep STR-packed
//!   locality;
//! * the drain **commits by publishing its segment**: the output's
//!   `FLT1` image ends in a lineage trailer (its seal LSN and the lowest
//!   segment id it retires), and the segment store's `put` + `sync` of
//!   it is the commit point. Recovery lists the segments in id order and
//!   lets each retire the older ones it folded, so the log and the
//!   segment files are the whole durable state, and a crash at any sync
//!   point loses **zero acknowledged inserts** (see DESIGN.md §15 for
//!   the atomicity argument);
//! * every component — memtable, each flat level, and the composed
//!   [`LsmTree`] — implements [`rtree::SpatialIndex`], so the executor,
//!   the CLI, and the differential suites run unchanged over it.

mod codec;
mod memtable;
mod segstore;
mod tree;

pub use codec::{decode_segment, DeleteNote, InsertNote, Lineage, Note, TRAILER_LEN};
pub use memtable::Memtable;
pub use segstore::{FileSegmentStore, MemSegmentStore, SegmentStore};
pub use tree::{LsmOptions, LsmStats, LsmTree};

/// Errors from the LSM tier.
#[derive(Debug)]
pub enum LsmError {
    /// Storage-layer failure (WAL, segment store).
    Storage(storage::StorageError),
    /// Flat-tier failure packing, loading or validating a segment.
    Flat(flat::FlatError),
    /// Persistent state that violates the commit protocol's invariants.
    Corrupt(String),
    /// [`LsmOptions`] a tree cannot run with, rejected at open.
    InvalidOptions(String),
    /// A rectangle [`geom::Rect::try_new`] refuses (empty, inverted or
    /// NaN), rejected before anything is logged.
    InvalidRect(geom::GeomError),
}

impl std::fmt::Display for LsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LsmError::Storage(e) => write!(f, "storage: {e}"),
            LsmError::Flat(e) => write!(f, "flat segment: {e}"),
            LsmError::Corrupt(msg) => write!(f, "lsm state corrupt: {msg}"),
            LsmError::InvalidOptions(msg) => write!(f, "invalid lsm options: {msg}"),
            LsmError::InvalidRect(e) => write!(f, "invalid rectangle: {e}"),
        }
    }
}

impl std::error::Error for LsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LsmError::Storage(e) => Some(e),
            LsmError::Flat(e) => Some(e),
            LsmError::InvalidRect(e) => Some(e),
            LsmError::Corrupt(_) | LsmError::InvalidOptions(_) => None,
        }
    }
}

impl From<storage::StorageError> for LsmError {
    fn from(e: storage::StorageError) -> Self {
        LsmError::Storage(e)
    }
}

impl From<flat::FlatError> for LsmError {
    fn from(e: flat::FlatError) -> Self {
        LsmError::Flat(e)
    }
}

impl From<std::io::Error> for LsmError {
    fn from(e: std::io::Error) -> Self {
        LsmError::Storage(storage::StorageError::Io(e))
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, LsmError>;
