//! Flat-packed immutable index tier: zero-copy serving for packed R-trees.
//!
//! STR-packed trees are static by construction (paper §2.2), yet the
//! paged [`rtree`] crate routes every query through the buffer-pool
//! machinery built for *dynamic* trees — page pins, codec header checks,
//! per-node hash lookups. This crate lowers a finished packed tree
//! ([`flatten_to_bytes`]), or packs items directly ([`pack_to_bytes`]),
//! into one contiguous buffer (flatbush-style: fixed header, per-level
//! slot bounds, structure-of-arrays MBRs, one child/payload index per
//! slot) that is served exactly as it sits on disk:
//!
//! * [`FlatTree::open`] memory-maps a `.flat` file and queries it in
//!   place — no deserialization, no pool, the page cache is the cache;
//! * [`FlatTree::from_bytes`] / [`FlatTree::from_vec`] wrap a borrowed
//!   slice or an owned allocation (Cow-backed, zero-copy when the bytes
//!   are 8-aligned — a misaligned source is *refused*, never UB);
//! * region queries run a stackless level-bounds traversal
//!   ([`query`]) whose per-level candidate scan is the batch SoA
//!   intersection kernel from [`geom::SoaRects`] (4 MBRs per compare).
//!
//! Every buffer is validated on load — magic, version, section layout,
//! level bounds, child-index monotonicity, whole-file checksum, and every
//! slot's MBR (no NaN, no inverted axis) — so the query path contains no
//! trust decisions, only bounds-checked reads.

pub mod abi;
mod build;
pub mod query;

use std::borrow::Cow;
use std::path::Path;

use geom::{Point, Rect, SoaRects};
use rtree::{IndexStats, RTree, SpatialIndex};
use storage::Mmap;

pub use abi::{Header, Layout, HEADER_LEN, MAGIC, VERSION};
pub use build::{empty_to_bytes, flatten_to_bytes, pack_to_bytes};

/// File-name stem for LSM flat segments: `seg-<id, 8 hex digits>.flat`.
/// One naming scheme shared by the compaction writer, recovery's orphan
/// scan, and the CLI, so a directory listing is unambiguous.
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:08x}.flat")
}

/// Inverse of [`segment_file_name`]; `None` for anything that is not a
/// well-formed segment name.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".flat")?;
    if hex.len() != 8 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Errors from building, loading, or serving a flat index.
#[derive(Debug)]
pub enum FlatError {
    /// Reading the source paged tree failed.
    Tree(rtree::RTreeError),
    /// File I/O failure while reading or writing a `.flat` file.
    Io(std::io::Error),
    /// The buffer is not a valid flat index (bad magic/version/layout).
    Parse(String),
    /// The stored whole-buffer checksum does not match the contents.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum computed over the buffer.
        computed: u64,
    },
    /// The buffer holds a tree of a different dimension than requested.
    DimsMismatch {
        /// Dimension recorded in the file.
        file: u16,
        /// Dimension of the requested `FlatTree<D>`.
        requested: usize,
    },
    /// The source bytes are not 8-byte aligned, so the zero-copy cast
    /// was refused. Re-load through [`FlatTree::from_vec`] (which
    /// re-aligns by copying) or fix the source allocation.
    Unaligned,
}

impl std::fmt::Display for FlatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlatError::Tree(e) => write!(f, "source tree: {e}"),
            FlatError::Io(e) => write!(f, "I/O: {e}"),
            FlatError::Parse(msg) => write!(f, "invalid flat index: {msg}"),
            FlatError::ChecksumMismatch { stored, computed } => write!(
                f,
                "flat index checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            FlatError::DimsMismatch { file, requested } => {
                write!(f, "flat index is {file}-dimensional, opened as {requested}")
            }
            FlatError::Unaligned => {
                write!(
                    f,
                    "flat index bytes are not 8-byte aligned; zero-copy cast refused"
                )
            }
        }
    }
}

impl std::error::Error for FlatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlatError::Tree(e) => Some(e),
            FlatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rtree::RTreeError> for FlatError {
    fn from(e: rtree::RTreeError) -> Self {
        FlatError::Tree(e)
    }
}

impl From<std::io::Error> for FlatError {
    fn from(e: std::io::Error) -> Self {
        FlatError::Io(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, FlatError>;

/// Where a flat tree's bytes live.
enum Backing<'a> {
    /// Borrowed or owned bytes, used verbatim (zero-copy).
    Cow(Cow<'a, [u8]>),
    /// Owned 8-aligned storage for sources that arrived misaligned;
    /// the extra `usize` is the live byte length (the `u64` backing
    /// rounds up to a multiple of 8).
    Aligned(Vec<u64>, usize),
    /// A kernel memory mapping of a `.flat` file.
    Mapped(Mmap),
}

impl Backing<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Cow(c) => c,
            Backing::Aligned(v, len) => &bytemuck::cast_slice::<u64, u8>(v)[..*len],
            Backing::Mapped(m) => m,
        }
    }
}

/// A loaded flat index of dimension `D`.
///
/// The lifetime `'a` tracks borrowed sources ([`FlatTree::from_bytes`]);
/// owned and memory-mapped trees are `FlatTree<'static, D>`. The handle
/// itself is a parsed header plus the backing bytes — queries read the
/// buffer in place.
pub struct FlatTree<'a, const D: usize> {
    backing: Backing<'a>,
    header: Header,
    /// Per-level `[start, end)` slot bounds, level 0 (items) first.
    bounds: Vec<(usize, usize)>,
}

impl<const D: usize> FlatTree<'static, D> {
    /// Lower a packed paged tree into an owned flat index.
    pub fn from_rtree(tree: &RTree<D>) -> Result<Self> {
        Self::from_vec(flatten_to_bytes(tree)?)
    }

    /// Validate and adopt an owned byte buffer. Zero-copy when the
    /// allocation is 8-byte aligned (the global allocator's norm);
    /// otherwise the bytes are copied once into aligned storage.
    pub fn from_vec(bytes: Vec<u8>) -> Result<Self> {
        if (bytes.as_ptr() as usize).is_multiple_of(8) {
            Self::load(Backing::Cow(Cow::Owned(bytes)))
        } else {
            let mut aligned = vec![0u64; bytes.len().div_ceil(8)];
            let len = bytes.len();
            // SAFETY: destination is a fresh u64 allocation at least
            // `len` bytes long; u8 writes need no alignment.
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), aligned.as_mut_ptr() as *mut u8, len);
            }
            Self::load(Backing::Aligned(aligned, len))
        }
    }

    /// Memory-map the `.flat` file at `path` and serve it in place.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        Self::load(Backing::Mapped(Mmap::map_path(path)?))
    }

    /// Lower `tree` and write the result to `path`, returning the byte
    /// length written. The image is validated before anything touches
    /// disk, and the file is re-opened afterwards so the bytes future
    /// serving trusts — the ones on disk — are the ones verified.
    pub fn write_file<P: AsRef<Path>>(tree: &RTree<D>, path: P) -> Result<u64> {
        let tree = Self::from_vec(flatten_to_bytes(tree)?)?;
        let len = tree.as_bytes().len() as u64;
        let path = path.as_ref();
        std::fs::write(path, tree.as_bytes())?;
        Self::open(path)?;
        Ok(len)
    }
}

impl<'a, const D: usize> FlatTree<'a, D> {
    /// Validate and wrap a borrowed byte buffer, zero-copy.
    ///
    /// The slice must be 8-byte aligned (mmap pages and `u64`-backed
    /// allocations always are); a misaligned slice is refused with
    /// [`FlatError::Unaligned`] rather than copied, since the caller
    /// chose the borrowed path for zero-copy semantics.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self> {
        Self::load(Backing::Cow(Cow::Borrowed(bytes)))
    }

    fn load(backing: Backing<'a>) -> Result<Self> {
        let bytes = backing.bytes();
        if !(bytes.as_ptr() as usize).is_multiple_of(8) {
            return Err(FlatError::Unaligned);
        }
        let header = Header::parse(bytes)?;
        if header.dims as usize != D {
            return Err(FlatError::DimsMismatch {
                file: header.dims,
                requested: D,
            });
        }
        let bounds = Self::parse_bounds(bytes, &header)?;
        let tree = Self {
            backing,
            header,
            bounds,
        };
        tree.validate_indices()?;
        tree.validate_slots()?;
        Ok(tree)
    }

    /// Decode and validate the level-bounds table: levels must tile
    /// `[0, num_nodes)` gap-free starting with the items level, every
    /// node level must be non-empty, and the top level is one root slot.
    fn parse_bounds(bytes: &[u8], header: &Header) -> Result<Vec<(usize, usize)>> {
        let layout = header.layout();
        let table: &[u64] = cast_section(
            bytes,
            layout.bounds_off(),
            layout.coords_off() - layout.bounds_off(),
        )?;
        let mut bounds = Vec::with_capacity(layout.num_levels);
        for k in 0..layout.num_levels {
            bounds.push((table[2 * k] as usize, table[2 * k + 1] as usize));
        }
        if bounds[0] != (0, header.num_items as usize) {
            return Err(FlatError::Parse(format!(
                "items level bounds {:?} != [0, {})",
                bounds[0], header.num_items
            )));
        }
        for k in 1..bounds.len() {
            if bounds[k].0 != bounds[k - 1].1 {
                return Err(FlatError::Parse(format!(
                    "level {k} starts at {} but level {} ends at {}",
                    bounds[k].0,
                    k - 1,
                    bounds[k - 1].1
                )));
            }
            if bounds[k].0 >= bounds[k].1 {
                return Err(FlatError::Parse(format!(
                    "node level {k} is empty ({:?})",
                    bounds[k]
                )));
            }
        }
        let top = *bounds.last().unwrap();
        if top.1 - top.0 != 1 {
            return Err(FlatError::Parse(format!(
                "top level holds {} slots, expected exactly the root",
                top.1 - top.0
            )));
        }
        if top.1 != header.num_nodes as usize {
            return Err(FlatError::Parse(format!(
                "levels end at slot {} but num_nodes is {}",
                top.1, header.num_nodes
            )));
        }
        Ok(bounds)
    }

    /// Validate the child-index array so traversal needs no per-slot
    /// range checks: within every internal level the indices are
    /// non-decreasing, start exactly at the child level's first slot,
    /// and never point past its end.
    fn validate_indices(&self) -> Result<()> {
        let idx = self.idx();
        for k in 1..self.bounds.len() {
            let (lo, hi) = self.bounds[k];
            let (child_lo, child_hi) = self.bounds[k - 1];
            if idx[lo] as usize != child_lo {
                return Err(FlatError::Parse(format!(
                    "level {k} first child index {} != child level start {child_lo}",
                    idx[lo]
                )));
            }
            let mut prev = child_lo;
            for (slot, &i) in idx[lo..hi].iter().enumerate() {
                let i = i as usize;
                if i < prev || i > child_hi {
                    return Err(FlatError::Parse(format!(
                        "level {k} slot {} child index {i} outside [{prev}, {child_hi}]",
                        lo + slot
                    )));
                }
                prev = i;
            }
        }
        Ok(())
    }

    /// Validate every slot's MBR as [`Rect::try_new`] would — no NaN
    /// coordinate, no axis with `min > max` — so reads rebuild hits and
    /// items unchecked. The one exception is the lone root slot of an
    /// empty tree, which [`flatten_to_bytes`] writes as [`Rect::empty`].
    fn validate_slots(&self) -> Result<()> {
        let (mins, maxs) = self.columns();
        let invalid = |(lo, hi): (&f64, &f64)| lo.is_nan() || hi.is_nan() || lo > hi;
        let Some(slot) = (0..D)
            .filter_map(|a| mins[a].iter().zip(maxs[a]).position(invalid))
            .min()
        else {
            return Ok(());
        };
        let empty_root = self.is_empty()
            && mins[0].len() == 1
            && (0..D).all(|a| mins[a][0] == f64::INFINITY && maxs[a][0] == f64::NEG_INFINITY);
        if empty_root {
            return Ok(());
        }
        Err(FlatError::Parse(format!(
            "slot {slot} has an invalid MBR (NaN or min > max): min {:?}, max {:?}",
            mins.map(|m| m[slot]),
            maxs.map(|m| m[slot])
        )))
    }

    // ---- accessors ---------------------------------------------------

    /// The raw validated buffer (e.g. for writing to a file).
    pub fn as_bytes(&self) -> &[u8] {
        self.backing.bytes()
    }

    /// Parsed header copy.
    pub fn header(&self) -> Header {
        self.header
    }

    /// Number of data items.
    pub fn len(&self) -> u64 {
        self.header.num_items
    }

    /// Whether the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.header.num_items == 0
    }

    /// Level count, items level included.
    pub fn num_levels(&self) -> usize {
        self.bounds.len()
    }

    /// Per-level `[start, end)` slot bounds, items level first.
    pub fn level_bounds(&self) -> &[(usize, usize)] {
        &self.bounds
    }

    /// Whether the backing is a kernel memory mapping.
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped(_))
    }

    /// MBR of the whole index (empty rect when no items).
    pub fn root_mbr(&self) -> Rect<D> {
        if self.is_empty() {
            return Rect::empty();
        }
        let root = self.bounds.last().unwrap().0;
        self.soa().get(root)
    }

    /// SoA view over every slot's MBR (all levels; slot index = global).
    pub(crate) fn soa(&self) -> SoaRects<'_, D> {
        let (mins, maxs) = self.columns();
        SoaRects::new(mins, maxs)
    }

    /// Per-axis minimum and maximum coordinate columns over every slot.
    fn columns(&self) -> ([&[f64]; D], [&[f64]; D]) {
        let bytes = self.backing.bytes();
        let layout = self.header.layout();
        let n = layout.num_nodes * 8;
        let col = |off| cast_section::<f64>(bytes, off, n).expect("validated at load");
        (
            std::array::from_fn(|a| col(layout.axis_min_off(a))),
            std::array::from_fn(|a| col(layout.axis_max_off(a))),
        )
    }

    /// The idx array: child-range starts for node slots, payloads for
    /// item slots.
    pub(crate) fn idx(&self) -> &[u64] {
        let bytes = self.backing.bytes();
        let layout = self.header.layout();
        cast_section::<u64>(bytes, layout.idx_off(), layout.num_nodes * 8)
            .expect("validated at load")
    }

    // ---- queries -----------------------------------------------------

    /// All items whose MBR intersects `query` (closed boundaries),
    /// as `(rect, payload)` pairs — the flat counterpart of
    /// [`RTree::query_region`].
    pub fn query_region(&self, query: &Rect<D>) -> Vec<(Rect<D>, u64)> {
        let mut out = Vec::new();
        self.for_each_in_region(query, |rect, payload| out.push((rect, payload)));
        out
    }

    /// Visit every item intersecting `query` without materializing a
    /// result vector.
    pub fn for_each_in_region<F: FnMut(Rect<D>, u64)>(&self, query: &Rect<D>, visit: F) {
        query::for_each_in_region(self, query, visit);
    }

    /// All items whose MBR contains `point`.
    pub fn query_point(&self, point: &Point<D>) -> Vec<(Rect<D>, u64)> {
        self.query_region(&Rect::from_point(*point))
    }

    /// Every `(rect, payload)` item in slot order — for the items level
    /// of an STR-packed source that is Hilbert/packing order, which is
    /// exactly what a compaction merge wants to drain.
    pub fn items(&self) -> impl Iterator<Item = (Rect<D>, u64)> + '_ {
        let soa = self.soa();
        let idx = self.idx();
        (0..self.header.num_items as usize).map(move |i| (soa.get(i), idx[i]))
    }
}

impl<const D: usize> SpatialIndex<D> for FlatTree<'_, D> {
    fn for_each_intersecting(
        &self,
        query: &Rect<D>,
        visit: &mut dyn FnMut(Rect<D>, u64),
    ) -> rtree::Result<()> {
        self.for_each_in_region(query, visit);
        Ok(())
    }

    fn query(&self, query: &Rect<D>) -> rtree::Result<Vec<(Rect<D>, u64)>> {
        Ok(self.query_region(query))
    }

    fn len(&self) -> u64 {
        FlatTree::len(self)
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            backend: "flat",
            len: FlatTree::len(self),
            levels: self.bounds.len() as u32,
        }
    }
}

impl<const D: usize> std::fmt::Debug for FlatTree<'_, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlatTree")
            .field("dims", &D)
            .field("items", &self.header.num_items)
            .field("levels", &self.bounds.len())
            .field("bytes", &self.header.total_len)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// Cast `len` bytes at `off` to a typed slice, mapping every cast
/// failure (range, alignment, slop) to a clean [`FlatError`].
fn cast_section<T: bytemuck::Pod>(bytes: &[u8], off: usize, len: usize) -> Result<&[T]> {
    let end = off.checked_add(len).ok_or(FlatError::Unaligned)?;
    let section = bytes
        .get(off..end)
        .ok_or_else(|| FlatError::Parse(format!("section [{off}, {end}) out of bounds")))?;
    bytemuck::try_cast_slice(section).map_err(|e| match e {
        bytemuck::PodCastError::TargetAlignmentGreaterAndInputNotAligned => FlatError::Unaligned,
        other => FlatError::Parse(format!("section cast failed: {other}")),
    })
}

#[cfg(test)]
mod segment_name_tests {
    use super::*;

    #[test]
    fn segment_names_round_trip() {
        for id in [0u64, 1, 42, 0xffff_ffff] {
            let name = segment_file_name(id);
            assert_eq!(parse_segment_file_name(&name), Some(id));
        }
        assert_eq!(segment_file_name(0x2a), "seg-0000002a.flat");
        for bad in [
            "seg-.flat",
            "seg-1.flat",
            "seg-0000002a.flat.tmp",
            "wal-0000002a.flat",
            "seg-0000002g.flat",
            "seg-000000000.flat",
        ] {
            assert_eq!(parse_segment_file_name(bad), None, "{bad}");
        }
    }
}
