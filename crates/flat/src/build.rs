//! Writing flat images: one emitter, two producers.
//!
//! [`Image`] is the only code that writes `FLT1` bytes. It takes the
//! level sizes up front (items first), lays out the sections, and is
//! then filled one slot at a time: a slot is an MBR plus its `idx`
//! (payload for items, global slot of the first child for nodes).
//! Because every level's slots are written in BFS parent-entry order,
//! each node's children are one contiguous run, closed by the next
//! node's `idx` — no child counts, no pointers.
//!
//! * [`pack_to_bytes`] packs items straight into an image: the General
//!   Algorithm's level loop ([`rtree::pack_levels`]) keeps every level's
//!   ordered runs in memory, and the image is then written top-down in
//!   BFS order. No disk, no pool, no paged tree.
//! * [`flatten_to_bytes`] lowers an existing packed paged tree, read
//!   level by level in BFS order ([`RTree::level_order`]).
//!
//! Both give the same bytes for the same tree, and [`empty_to_bytes`]
//! gives the bytes both would give an empty one. One representational
//! note: the paged tree stores *entry* rectangles in parents, and its
//! validator enforces tightness (a parent entry's MBR equals the child
//! node's MBR exactly), so pruning on per-node MBRs visits exactly the
//! nodes the paged traversal would.

use std::convert::Infallible;

use geom::Rect;
use rtree::{pack_levels, Entry, NodeCapacity, RTree, RTreeError};

use crate::abi::{checksum, Header, Layout, CHECKSUM_OFF, HEADER_LEN};
use crate::Result;

/// A flat image under construction.
struct Image<const D: usize> {
    buf: Vec<u8>,
    layout: Layout,
    /// Per-level first slot, level 0 (items) first.
    starts: Vec<usize>,
}

impl<const D: usize> Image<D> {
    /// Lay out an image with `level_sizes[k]` slots in level `k` (items
    /// first, the single root last) and write its level-bounds table.
    fn new(level_sizes: &[usize]) -> Self {
        let layout = Layout {
            dims: D,
            num_levels: level_sizes.len(),
            num_nodes: level_sizes.iter().sum(),
        };
        let mut buf = vec![0u8; layout.total_len()];
        let mut starts = Vec::with_capacity(level_sizes.len());
        let mut at = 0usize;
        let table = &mut buf[layout.bounds_off()..layout.coords_off()];
        for (&size, w) in level_sizes.iter().zip(table.chunks_exact_mut(16)) {
            starts.push(at);
            w[..8].copy_from_slice(&(at as u64).to_le_bytes());
            at += size;
            w[8..].copy_from_slice(&(at as u64).to_le_bytes());
        }
        Self {
            buf,
            layout,
            starts,
        }
    }

    /// First slot of level `k`.
    fn start(&self, k: usize) -> usize {
        self.starts[k]
    }

    /// Write one slot's MBR and `idx`.
    fn put(&mut self, slot: usize, rect: &Rect<D>, idx: u64) {
        let (lo, hi) = (rect.min(), rect.max());
        for a in 0..D {
            let off = self.layout.axis_min_off(a) + 8 * slot;
            self.buf[off..off + 8].copy_from_slice(&lo[a].to_le_bytes());
            let off = self.layout.axis_max_off(a) + 8 * slot;
            self.buf[off..off + 8].copy_from_slice(&hi[a].to_le_bytes());
        }
        let off = self.layout.idx_off() + 8 * slot;
        self.buf[off..off + 8].copy_from_slice(&idx.to_le_bytes());
    }

    /// Write the header and seal the image with the current checksum.
    fn seal(mut self, node_capacity: usize) -> Vec<u8> {
        // Level 1 starts where the items end.
        let num_items = self.starts[1] as u64;
        let header = Header {
            dims: D as u16,
            node_capacity: node_capacity as u32,
            num_levels: self.layout.num_levels as u32,
            num_items,
            num_nodes: self.layout.num_nodes as u64,
            total_len: self.buf.len() as u64,
            checksum: 0,
        };
        self.buf[..HEADER_LEN].copy_from_slice(&header.encode());
        let sum = checksum(&self.buf);
        self.buf[CHECKSUM_OFF..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Pack `entries` into a self-contained flat image, ordering every level
/// with `order` exactly as [`rtree::BulkLoader`] does — so the image is
/// byte-identical to `flatten_to_bytes` of the paged tree the loader
/// would build from the same input.
///
/// `order` is called once per level, lowest first; runs of `cap.max()`
/// consecutive entries become nodes. Each level's ordered entries stay
/// in memory until the root is known (the data plus `1/(n−1)` of it),
/// then the image is written top-down: a node's slot takes its parent
/// entry's MBR, and its run of children becomes the next stretch of the
/// level below.
pub fn pack_to_bytes<const D: usize>(
    entries: Vec<Entry<D>>,
    cap: NodeCapacity,
    order: &mut dyn FnMut(&mut Vec<Entry<D>>, u32),
) -> Result<Vec<u8>> {
    if entries.is_empty() {
        return Err(RTreeError::EmptyLoad.into());
    }
    let n = cap.max();
    // Entries per tree level: the data, then one entry per run below.
    let mut sizes = vec![entries.len()];
    while sizes.len() == 1 || sizes[sizes.len() - 1] > 1 {
        sizes.push(sizes[sizes.len() - 1].div_ceil(n));
    }
    // Every run but a level's last is full, so a run's index is the
    // count of entries kept before it over n.
    let mut levels: Vec<Vec<Entry<D>>> = sizes[..sizes.len() - 1]
        .iter()
        .map(|&size| Vec::with_capacity(size))
        .collect();
    let (root, height) = pack_levels(cap, 0, entries, order, |level, run| {
        let kept = &mut levels[level as usize];
        let index = kept.len() / n;
        kept.extend_from_slice(run);
        Ok::<_, Infallible>(index as u64)
    })
    .unwrap_or_else(|never| match never {});
    debug_assert_eq!(height as usize, levels.len());

    let mut image = Image::<D>::new(&sizes);
    // `frontier` holds the parent entries of flat level `k`'s nodes in
    // BFS order: each entry's rect is its node's MBR, its payload the
    // node's run index in tree level `k − 1`.
    let mut frontier = vec![root];
    for k in (1..sizes.len()).rev() {
        let runs = &levels[k - 1];
        let mut child = image.start(k - 1);
        let mut next = Vec::with_capacity(if k > 1 { sizes[k - 1] } else { 0 });
        for (slot, parent) in (image.start(k)..).zip(&frontier) {
            let first = parent.payload as usize * n;
            let run = &runs[first..runs.len().min(first + n)];
            image.put(slot, &parent.rect, child as u64);
            if k > 1 {
                next.extend_from_slice(run);
            } else {
                // The run is a leaf: its entries are item slots.
                for (i, item) in run.iter().enumerate() {
                    image.put(child + i, &item.rect, item.payload);
                }
            }
            child += run.len();
        }
        frontier = next;
    }
    Ok(image.seal(n))
}

/// The image of an empty tree: no items and one root slot holding
/// [`Rect::empty`], byte-identical to [`flatten_to_bytes`] of an empty
/// paged tree of capacity `cap`. [`pack_to_bytes`] refuses an empty
/// load, so a producer that may end up with no items (an LSM compaction
/// whose tombstones deleted everything) takes this one.
pub fn empty_to_bytes<const D: usize>(cap: NodeCapacity) -> Vec<u8> {
    let mut image = Image::<D>::new(&[0, 1]);
    image.put(0, &Rect::empty(), 0);
    image.seal(cap.max())
}

/// Lower `tree` into a self-contained flat buffer (see [`crate::abi`]
/// for the wire layout). The buffer passes full load validation,
/// checksum included.
pub fn flatten_to_bytes<const D: usize>(tree: &RTree<D>) -> Result<Vec<u8>> {
    let mut levels = tree.level_order()?; // root level first
    levels.reverse(); // leaf level first, matching flat level order

    // Flat level sizes: items, then one flat level per paged level,
    // leaves upward.
    let mut sizes: Vec<usize> = Vec::with_capacity(levels.len() + 1);
    sizes.push(tree.len() as usize);
    sizes.extend(levels.iter().map(|l| l.nodes.len()));
    let mut image = Image::<D>::new(&sizes);

    // Items: leaf entries in BFS leaf order.
    let mut slot = 0usize;
    for leaf in &levels[0].nodes {
        for e in &leaf.entries {
            image.put(slot, &e.rect, e.payload);
            slot += 1;
        }
    }
    debug_assert_eq!(slot, sizes[0]);

    // Node levels: each slot's idx is a running first-child cursor that
    // starts at the child level's first slot and advances by the node's
    // entry count.
    for (k, paged) in levels.iter().enumerate().map(|(i, l)| (i + 1, l)) {
        let mut child = image.start(k - 1);
        for node in &paged.nodes {
            image.put(slot, &node.mbr(), child as u64);
            child += node.len();
            slot += 1;
        }
        debug_assert_eq!(child, image.start(k));
    }
    Ok(image.seal(tree.capacity().max()))
}
