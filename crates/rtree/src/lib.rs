//! A paged R-tree.
//!
//! This crate is the substrate every packing algorithm in the paper loads
//! into: an R-tree stored one-node-per-page (paper §2.1: "we will assume
//! that exactly one node fits per disk page") on top of the
//! [`storage`] buffer pool, so that every node visit is a buffer-pool
//! request and every miss is a countable *disk access*.
//!
//! Provided here:
//!
//! * the node page format and codec ([`node`], [`codec`]),
//! * intersection queries — point and region — exactly as described in
//!   §2.1 ([`RTree::query_point`], [`RTree::query_region`]),
//! * Guttman's dynamic algorithms: insertion with linear or quadratic
//!   split ([`insert`], [`split`]) and deletion with tree condensation
//!   ([`delete`]) — the paper's motivating baseline for why packing is
//!   needed at all,
//! * the bottom-up bulk-load framework of §2.2's "General Algorithm"
//!   ([`bulk`]): packing algorithms supply an ordering, this module turns
//!   ordered rectangles into a tree with ~100% space utilization,
//! * k-nearest-neighbour search ([`RTree::nearest`]) as an extension,
//! * structural validation ([`RTree::validate`]) and per-level statistics
//!   ([`stats`]) for the paper's area/perimeter metrics.

pub mod bulk;
pub mod capacity;
pub mod codec;
pub mod delete;
pub mod executor;
pub mod fsck;
pub mod index;
pub mod insert;
pub mod iter;
pub mod lower;
pub mod node;
pub mod rplus;
pub mod rstar;
pub mod split;
pub mod stats;
pub mod store;
pub mod tree;

pub use bulk::{pack_levels, BulkLoader, LeafRangeWriter, ParallelLoad};
pub use capacity::NodeCapacity;
pub use codec::{NodeView, RectCodec};
pub use executor::{BatchQuery, BatchReport, QueryExecutor};
pub use fsck::{CheckReport, PageIssue};
pub use index::{IndexStats, SpatialIndex};
pub use iter::RegionIter;
pub use lower::LevelNodes;
pub use node::{Entry, Node};
pub use rplus::RPlusTree;
pub use split::SplitPolicy;
pub use stats::{LevelSummary, TreeSummary};
pub use store::{
    kind_name, read_tree_meta, EntryCodec, NodeStore, TreeMeta, DEFAULT_TREE, KIND_HILBERT,
    KIND_RPLUS, KIND_RTREE,
};
pub use tree::RTree;

use storage::PageId;

/// Errors from R-tree operations.
#[derive(Debug)]
pub enum RTreeError {
    /// Storage layer failure.
    Storage(storage::StorageError),
    /// A page failed to decode as an R-tree node.
    Corrupt {
        /// The offending page.
        page: PageId,
        /// What went wrong.
        reason: String,
    },
    /// Node capacity does not fit in the configured page size.
    CapacityTooLarge {
        /// Entries requested per node.
        requested: usize,
        /// Most entries a page can hold at this dimension.
        max: usize,
    },
    /// A structural invariant does not hold (returned by `validate`).
    Invalid(String),
    /// Attempted to bulk-load zero rectangles.
    EmptyLoad,
    /// A mutation failed while committing its staged writes, so the
    /// on-disk tree may mix old and new pages. Further mutations are
    /// refused; `check` reports what the pages hold.
    Poisoned,
}

impl std::fmt::Display for RTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RTreeError::Storage(e) => write!(f, "storage: {e}"),
            RTreeError::Corrupt { page, reason } => {
                write!(f, "corrupt node at {page}: {reason}")
            }
            RTreeError::CapacityTooLarge { requested, max } => {
                write!(f, "capacity {requested} exceeds page maximum {max}")
            }
            RTreeError::Invalid(msg) => write!(f, "invariant violated: {msg}"),
            RTreeError::EmptyLoad => write!(f, "cannot bulk-load an empty collection"),
            RTreeError::Poisoned => {
                write!(f, "tree poisoned by a failed commit; mutations refused")
            }
        }
    }
}

impl std::error::Error for RTreeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RTreeError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<storage::StorageError> for RTreeError {
    fn from(e: storage::StorageError) -> Self {
        RTreeError::Storage(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, RTreeError>;
