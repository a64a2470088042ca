//! The unified node-store substrate shared by every paged tree variant.
//!
//! An R-tree, an R+-tree and a Hilbert R-tree differ in how they order,
//! split and clip entries — not in how a node becomes a page, how pages
//! are acquired and released, or how a tree's metadata survives a
//! reopen. This module owns that common substrate:
//!
//! * [`EntryCodec`] — the one thing a variant must supply: how a single
//!   entry serializes. The shared page layout (24-byte header with
//!   magic, level, count, tag, checksum) and its validation live here,
//!   in [`encode_node`] / [`verify_node`] / [`decode_node`]. The
//!   checksum is the word-parallel [`storage::wide_hash`]
//!   ([`page_checksum`]: ≈0.21 µs per full 4 KiB page, against ≈5.7 µs
//!   for byte-serial FNV-1a).
//! * [`TreeMeta`] — the per-tree metadata block (kind, dims, root,
//!   height, len, capacities) in its one checksummed wire form
//!   (`"RTM2"`).
//! * [`NodeStore`] — page acquire/release through the format-v2
//!   [`PageAllocator`] (persistent free list, named-tree catalog), node
//!   read/write through the sharded buffer pool, and meta persistence
//!   with crash-safe write ordering.
//!
//! The zero-copy query path ([`crate::codec::NodeView`]) deliberately
//! stays out of this abstraction: it is the measured hot path and reads
//! its fixed rectangle layout directly.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use bytes::{Buf, BufMut};
use storage::{
    fnv1a_update, wide_hash, BufferPool, Disk, PageAllocator, PageId, StorageError, FNV_SEED,
};

use crate::{RTreeError, Result};

/// Byte length of the node-page header shared by every entry codec:
/// magic, level, count, tag (4 × u32), checksum (u64).
pub const HEADER_LEN: usize = 24;

/// The tree name used when a caller doesn't pick one (single-tree files).
pub const DEFAULT_TREE: &str = "default";

/// v2 per-tree meta magic (`"RTM2"`, on a catalog-assigned meta page).
pub const META_MAGIC_V2: u32 = u32::from_le_bytes(*b"RTM2");

/// [`TreeMeta::kind`] of a Guttman/STR [`crate::RTree`].
pub const KIND_RTREE: u32 = 0;
/// [`TreeMeta::kind`] of an [`crate::RPlusTree`].
pub const KIND_RPLUS: u32 = 1;
/// [`TreeMeta::kind`] of an `hrtree::HilbertRTree`.
pub const KIND_HILBERT: u32 = 2;

/// Human name for a tree kind tag (error messages, `rtree-cli trees`).
pub fn kind_name(kind: u32) -> &'static str {
    match kind {
        KIND_RTREE => "rtree",
        KIND_RPLUS => "rplus",
        KIND_HILBERT => "hilbert",
        _ => "unknown",
    }
}

/// Checksum over everything that matters in a node page: the header
/// prefix (magic, level, count, tag — bytes 0..16) and the entry region
/// up to `body_end`, chained through [`storage::wide_hash`]. A flipped
/// bit anywhere meaningful is detected. Entry-layout agnostic, so the
/// fsck audit can verify any variant's pages. This is what
/// [`encode_node`] writes.
pub fn page_checksum(page: &[u8], body_end: usize) -> u64 {
    wide_hash(wide_hash(0, &page[..16]), &page[HEADER_LEN..body_end])
}

/// How one entry of a tree variant serializes. Everything else about a
/// node page — header, checksum, validation — is shared.
pub trait EntryCodec: Send + Sync + 'static {
    /// The in-memory entry type.
    type Entry;
    /// Page magic for this variant's nodes (e.g. `"RTN1"`, `"HRT1"`).
    const MAGIC: u32;
    /// Serialized size of one entry, in bytes.
    const ENTRY_SIZE: usize;
    /// The header's fourth word: a codec-defined consistency tag checked
    /// on read (the rectangle codec stores its dimension here; codecs
    /// with nothing to check use 0).
    const TAG: u32;

    /// Serialize `e` into `out` (`out.len() == ENTRY_SIZE`).
    fn encode_entry(e: &Self::Entry, out: &mut [u8]);

    /// Deserialize one entry; the error string is embedded in the
    /// surrounding page's [`RTreeError::Corrupt`].
    fn decode_entry(inp: &[u8]) -> std::result::Result<Self::Entry, String>;

    /// Error text for a magic mismatch (overridable so existing
    /// per-variant messages stay stable).
    fn bad_magic_msg() -> String {
        "bad magic".to_string()
    }

    /// Error text for a tag mismatch.
    fn tag_mismatch_msg(got: u32) -> String {
        format!("tag mismatch: page has {got}, expected {}", Self::TAG)
    }
}

/// Largest entry count a page of `page_size` bytes can hold for `E`.
pub const fn max_entries<E: EntryCodec>(page_size: usize) -> usize {
    (page_size - HEADER_LEN) / E::ENTRY_SIZE
}

/// Serialize a node (level + entries) into `page`.
///
/// # Panics
/// Panics if the entries do not fit — callers size nodes against
/// [`max_entries`], so overflow here is a logic error, not an input
/// error.
pub fn encode_node<E: EntryCodec>(level: u32, entries: &[E::Entry], page: &mut [u8]) {
    let need = HEADER_LEN + entries.len() * E::ENTRY_SIZE;
    assert!(
        need <= page.len(),
        "node with {} entries needs {need} bytes, page has {}",
        entries.len(),
        page.len()
    );
    // Entries first (into the region after the header), then the header
    // with the checksum over that region.
    for (e, out) in entries
        .iter()
        .zip(page[HEADER_LEN..need].chunks_exact_mut(E::ENTRY_SIZE))
    {
        E::encode_entry(e, out);
    }
    {
        let mut header = &mut page[..16];
        header.put_u32_le(E::MAGIC);
        header.put_u32_le(level);
        header.put_u32_le(entries.len() as u32);
        header.put_u32_le(E::TAG);
    }
    let checksum = page_checksum(page, need);
    let mut cks = &mut page[16..HEADER_LEN];
    cks.put_u64_le(checksum);
    // Anything after `need` is stale bytes from a previous occupant of the
    // frame; the count field makes them unreachable.
}

/// Validate a node page without decoding its entries and return
/// `(level, entry region)`. Checks, in order: the page holds a header,
/// the magic, the tag, that `count` entries fit, and the
/// [`page_checksum`]. Both [`decode_node`] and the zero-copy
/// [`crate::codec::NodeView::parse`] start here, so they accept and
/// reject the same pages with the same errors.
///
/// `page_id` is only for error messages.
#[inline]
pub fn verify_node<E: EntryCodec>(page: &[u8], page_id: PageId) -> Result<(u32, &[u8])> {
    if page.len() < HEADER_LEN {
        return Err(corrupt(page_id, "page shorter than header"));
    }
    let mut header = &page[..HEADER_LEN];
    let magic = header.get_u32_le();
    if magic != E::MAGIC {
        return Err(corrupt(page_id, &E::bad_magic_msg()));
    }
    let level = header.get_u32_le();
    let count = header.get_u32_le() as usize;
    let tag = header.get_u32_le();
    if tag != E::TAG {
        return Err(corrupt(page_id, &E::tag_mismatch_msg(tag)));
    }
    let checksum = header.get_u64_le();

    let need = HEADER_LEN + count * E::ENTRY_SIZE;
    if need > page.len() {
        return Err(corrupt(page_id, "entry count exceeds page size"));
    }
    if page_checksum(page, need) != checksum {
        return Err(corrupt(page_id, "checksum mismatch (torn write?)"));
    }
    Ok((level, &page[HEADER_LEN..need]))
}

/// Deserialize a node from `page` as `(level, entries)`.
///
/// `page_id` is only for error messages.
pub fn decode_node<E: EntryCodec>(page: &[u8], page_id: PageId) -> Result<(u32, Vec<E::Entry>)> {
    let (level, body) = verify_node::<E>(page, page_id)?;
    let mut entries = Vec::with_capacity(body.len() / E::ENTRY_SIZE);
    for chunk in body.chunks_exact(E::ENTRY_SIZE) {
        entries.push(E::decode_entry(chunk).map_err(|e| corrupt(page_id, &e))?);
    }
    Ok((level, entries))
}

fn corrupt(page: PageId, reason: &str) -> RTreeError {
    RTreeError::Corrupt {
        page,
        reason: reason.to_string(),
    }
}

/// A tree's metadata block: everything needed to reopen it.
///
/// One struct serves all variants; fields a variant doesn't use carry
/// its conventions (a Hilbert tree stores `dims = 2`, `policy = 0`).
///
/// Wire form (`"RTM2"`, little-endian, on the catalog meta page):
///
/// ```text
/// offset  size  field
/// 0       4     magic  "RTM2"
/// 4       4     kind   (0 = rtree, 1 = rplus, 2 = hilbert)
/// 8       4     dims
/// 12      4     height
/// 16      8     root   (PageId)
/// 24      8     len
/// 32      4     cap_max
/// 36      4     cap_min
/// 40      4     policy
/// 44      4     reserved (0)
/// 48      8     checksum (FNV-1a of bytes 0..48)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeMeta {
    /// Variant tag ([`KIND_RTREE`], [`KIND_RPLUS`], [`KIND_HILBERT`]).
    pub kind: u32,
    /// Spatial dimension of the entries.
    pub dims: u32,
    /// Root page.
    pub root: PageId,
    /// Number of levels (1 = root is a leaf).
    pub height: u32,
    /// Number of data objects.
    pub len: u64,
    /// Node capacity maximum.
    pub cap_max: u32,
    /// Node capacity minimum.
    pub cap_min: u32,
    /// Split-policy tag (rtree only; 0 elsewhere).
    pub policy: u32,
}

const META_V2_LEN: usize = 56;

impl TreeMeta {
    fn encode_v2(&self, page: &mut [u8]) {
        page.fill(0);
        {
            let mut w = &mut page[..48];
            w.put_u32_le(META_MAGIC_V2);
            w.put_u32_le(self.kind);
            w.put_u32_le(self.dims);
            w.put_u32_le(self.height);
            w.put_u64_le(self.root.index());
            w.put_u64_le(self.len);
            w.put_u32_le(self.cap_max);
            w.put_u32_le(self.cap_min);
            w.put_u32_le(self.policy);
            w.put_u32_le(0);
        }
        let checksum = fnv1a_update(FNV_SEED, &page[..48]);
        let mut w = &mut page[48..META_V2_LEN];
        w.put_u64_le(checksum);
    }

    fn decode_v2(page: &[u8], page_id: PageId) -> Result<Self> {
        if page.len() < META_V2_LEN {
            return Err(corrupt(page_id, "page shorter than tree meta"));
        }
        let mut r = &page[..META_V2_LEN];
        let magic = r.get_u32_le();
        if magic != META_MAGIC_V2 {
            return Err(corrupt(page_id, "bad tree meta magic"));
        }
        let kind = r.get_u32_le();
        let dims = r.get_u32_le();
        let height = r.get_u32_le();
        let root = PageId(r.get_u64_le());
        let len = r.get_u64_le();
        let cap_max = r.get_u32_le();
        let cap_min = r.get_u32_le();
        let policy = r.get_u32_le();
        let _reserved = r.get_u32_le();
        let stored = r.get_u64_le();
        if fnv1a_update(FNV_SEED, &page[..48]) != stored {
            return Err(corrupt(
                page_id,
                "tree meta checksum mismatch (torn write?)",
            ));
        }
        Ok(Self {
            kind,
            dims,
            root,
            height,
            len,
            cap_max,
            cap_min,
            policy,
        })
    }
}

/// Page acquire/release, node I/O and meta persistence for one named
/// tree — the substrate [`crate::RTree`], [`crate::RPlusTree`] and
/// `hrtree::HilbertRTree` are built on. `E` fixes the node page format.
pub struct NodeStore<E: EntryCodec> {
    pool: Arc<BufferPool>,
    /// The file's shared allocator (see [`shared_allocator`]).
    alloc: Arc<PageAllocator>,
    /// The page this tree's [`TreeMeta`] lives on (from the catalog).
    meta_page: PageId,
    /// Pages freed this session, reused before touching the allocator.
    /// Handed to the persistent free list at [`persist`](Self::persist)
    /// — not immediately, so a crash can never leave a page both on
    /// the durable free chain and referenced by the last-committed meta.
    free: Vec<PageId>,
    _codec: PhantomData<fn() -> E>,
}

/// Trees sharing one open disk must share one [`PageAllocator`]: the
/// allocator caches the free-list head and the catalog in memory, so two
/// independent instances over the same file would clobber each other's
/// superblock commits (each persist would orphan the chain the other
/// just threaded). This process-wide registry hands every `NodeStore`
/// over the same disk the same instance; entries die with their last
/// store, so a genuine reopen (all trees dropped) re-reads the disk.
fn allocator_registry() -> &'static Mutex<HashMap<usize, Weak<PageAllocator>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<usize, Weak<PageAllocator>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn shared_allocator(
    disk: Arc<dyn Disk>,
    make: impl FnOnce(Arc<dyn Disk>) -> storage::Result<Arc<PageAllocator>>,
) -> Result<Arc<PageAllocator>> {
    // The allocator keeps its disk alive, so a live entry's address
    // cannot be recycled by a new disk; dead entries are purged first.
    let key = Arc::as_ptr(&disk) as *const u8 as usize;
    let mut registry = allocator_registry().lock().unwrap();
    registry.retain(|_, alloc| alloc.strong_count() > 0);
    if let Some(alloc) = registry.get(&key).and_then(Weak::upgrade) {
        return Ok(alloc);
    }
    let alloc = make(disk)?;
    registry.insert(key, Arc::downgrade(&alloc));
    Ok(alloc)
}

impl<E: EntryCodec> NodeStore<E> {
    /// Create the named tree on `pool`'s disk: formats an empty disk,
    /// otherwise joins the existing file's catalog (a disk that holds
    /// no superblock is refused by [`PageAllocator::open`]).
    pub fn create(pool: Arc<BufferPool>, name: &str) -> Result<Self> {
        let disk = pool.disk().clone();
        let alloc = if disk.num_pages() == 0 {
            shared_allocator(disk, PageAllocator::format)?
        } else {
            shared_allocator(disk, PageAllocator::open)?
        };
        let meta_page = alloc.create_tree(name)?;
        Ok(Self::new(pool, alloc, meta_page))
    }

    /// Open the named tree, returning the store and its decoded
    /// metadata. The caller validates `meta.kind` and `meta.dims`
    /// against what it expects.
    pub fn open(pool: Arc<BufferPool>, name: &str) -> Result<(Self, TreeMeta)> {
        let disk = pool.disk().clone();
        if disk.num_pages() == 0 {
            return Err(corrupt(PageId(0), "empty disk: nothing to open"));
        }
        let alloc = shared_allocator(disk.clone(), PageAllocator::open)?;
        let meta_page = alloc
            .lookup_tree(name)
            .ok_or_else(|| RTreeError::Storage(StorageError::UnknownTree(name.to_string())))?;
        let mut page = vec![0u8; disk.page_size()];
        disk.read_page(meta_page, &mut page)?;
        let meta = TreeMeta::decode_v2(&page, meta_page)?;
        Ok((Self::new(pool, alloc, meta_page), meta))
    }

    fn new(pool: Arc<BufferPool>, alloc: Arc<PageAllocator>, meta_page: PageId) -> Self {
        Self {
            pool,
            alloc,
            meta_page,
            free: Vec::new(),
            _codec: PhantomData,
        }
    }

    /// The buffer pool node I/O goes through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The file's page allocator.
    pub fn allocator(&self) -> &Arc<PageAllocator> {
        &self.alloc
    }

    /// The page this tree's metadata lives on.
    pub fn meta_page(&self) -> PageId {
        self.meta_page
    }

    // ---- pages --------------------------------------------------------

    /// Get a page for a new node: this session's free list first, then
    /// the persistent free chain, then fresh disk growth.
    pub fn alloc_page(&mut self) -> Result<PageId> {
        if let Some(p) = self.free.pop() {
            return Ok(p);
        }
        Ok(self.alloc.allocate()?)
    }

    /// Release a page to this session's free list. It reaches the
    /// persistent free chain at the next [`persist`](Self::persist).
    pub fn free_page(&mut self, page: PageId) {
        self.free.push(page);
    }

    /// Release several pages at once (staging commit/abandon paths).
    pub fn extend_free(&mut self, pages: impl IntoIterator<Item = PageId>) {
        self.free.extend(pages);
    }

    /// Pages freed this session, still eligible for in-session reuse,
    /// and not yet persisted to the free chain.
    pub fn session_free(&self) -> &[PageId] {
        &self.free
    }

    // ---- nodes --------------------------------------------------------

    /// Read and decode the node on `page` through the buffer pool.
    pub fn read_node(&self, page: PageId) -> Result<(u32, Vec<E::Entry>)> {
        self.pool
            .with_page(page, |bytes| decode_node::<E>(bytes, page))?
    }

    /// Encode and write a node to `page` through the buffer pool,
    /// serializing straight into the frame (no staging buffer).
    pub fn write_node(&self, page: PageId, level: u32, entries: &[E::Entry]) -> Result<()> {
        self.pool
            .overwrite_page(page, |buf| encode_node::<E>(level, entries, buf))?;
        Ok(())
    }

    // ---- meta persistence ---------------------------------------------

    /// Make the tree durable: flush dirty node pages, write the meta
    /// block, hand this session's freed pages to the persistent free
    /// chain, and sync.
    ///
    /// The ordering is the crash-safety argument:
    ///
    /// 1. `pool.flush()` — every node the new meta references is on the
    ///    media before the meta that references it.
    /// 2. meta write (direct to disk, bypassing the pool) — the commit
    ///    point for the tree itself.
    /// 3. free-chain writes — only pages the *new* meta cannot reach are
    ///    chained, so a crash between 2 and 3 leaks them at worst. The
    ///    reverse order would let a crash strand a page both on the
    ///    chain and reachable from the still-current old meta — a future
    ///    double allocation.
    /// 4. `sync`.
    pub fn persist(&mut self, meta: &TreeMeta) -> Result<()> {
        let disk = self.pool.disk().clone();
        let mut page = vec![0u8; disk.page_size()];
        self.pool.flush()?;
        meta.encode_v2(&mut page);
        disk.write_page(self.meta_page, &page)?;
        if !self.free.is_empty() {
            let freed = std::mem::take(&mut self.free);
            self.alloc.free_pages(&freed)?;
        }
        disk.sync()?;
        Ok(())
    }

    /// Re-read this tree's metadata from disk (fsck compares the live
    /// tree against the committed state).
    pub fn read_meta(&self) -> Result<TreeMeta> {
        let disk = self.pool.disk();
        let mut page = vec![0u8; disk.page_size()];
        disk.read_page(self.meta_page, &mut page)?;
        TreeMeta::decode_v2(&page, self.meta_page)
    }
}

/// Read the named tree's meta block without constructing a store (the
/// fsck audit walks *other* trees in the file this way, and `rtree-cli
/// trees` lists them).
pub fn read_tree_meta(disk: &dyn Disk, alloc: &PageAllocator, name: &str) -> Result<TreeMeta> {
    let meta_page = alloc
        .lookup_tree(name)
        .ok_or_else(|| RTreeError::Storage(StorageError::UnknownTree(name.to_string())))?;
    let mut page = vec![0u8; disk.page_size()];
    disk.read_page(meta_page, &mut page)?;
    TreeMeta::decode_v2(&page, meta_page)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::RectCodec;
    use crate::Entry;
    use geom::Rect;
    use storage::MemDisk;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 16))
    }

    fn meta(root: PageId) -> TreeMeta {
        TreeMeta {
            kind: KIND_RTREE,
            dims: 2,
            root,
            height: 1,
            len: 0,
            cap_max: 10,
            cap_min: 4,
            policy: 0,
        }
    }

    #[test]
    fn meta_v2_roundtrip_and_corruption() {
        let m = TreeMeta {
            kind: KIND_HILBERT,
            dims: 2,
            root: PageId(17),
            height: 3,
            len: 12345,
            cap_max: 50,
            cap_min: 16,
            policy: 0,
        };
        let mut page = vec![0u8; 4096];
        m.encode_v2(&mut page);
        assert_eq!(TreeMeta::decode_v2(&page, PageId(1)).unwrap(), m);
        page[8] ^= 0x40;
        let err = TreeMeta::decode_v2(&page, PageId(1)).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn create_formats_and_catalogs() {
        let pool = pool();
        let mut store = NodeStore::<RectCodec<2>>::create(pool.clone(), "alpha").unwrap();
        let root = store.alloc_page().unwrap();
        store.write_node(root, 0, &[]).unwrap();
        store.persist(&meta(root)).unwrap();

        // Same file, second tree, coexisting with the first.
        let mut store2 = NodeStore::<RectCodec<2>>::create(pool.clone(), "beta").unwrap();
        let root2 = store2.alloc_page().unwrap();
        assert_ne!(root, root2);
        store2.write_node(root2, 0, &[]).unwrap();
        store2.persist(&meta(root2)).unwrap();

        let (reopened, m) = NodeStore::<RectCodec<2>>::open(pool.clone(), "alpha").unwrap();
        assert_eq!(m.root, root);
        assert_eq!(reopened.meta_page(), PageId(1));
        assert!(NodeStore::<RectCodec<2>>::create(pool.clone(), "alpha").is_err());
        assert!(matches!(
            NodeStore::<RectCodec<2>>::open(pool, "gamma"),
            Err(RTreeError::Storage(StorageError::UnknownTree(_)))
        ));
    }

    #[test]
    fn session_frees_reach_the_persistent_chain_only_at_persist() {
        let pool = pool();
        let mut store = NodeStore::<RectCodec<2>>::create(pool.clone(), DEFAULT_TREE).unwrap();
        let root = store.alloc_page().unwrap();
        store.write_node(root, 0, &[]).unwrap();
        let extra = store.alloc_page().unwrap();
        store.free_page(extra);
        let alloc = store.allocator().clone();
        assert_eq!(alloc.free_count(), 0, "free is session-local until persist");
        store.persist(&meta(root)).unwrap();
        assert_eq!(alloc.free_count(), 1);
        assert!(store.session_free().is_empty());
        // The reopened store reuses the freed page instead of leaking it.
        let (mut again, _) = NodeStore::<RectCodec<2>>::open(pool, DEFAULT_TREE).unwrap();
        assert_eq!(again.alloc_page().unwrap(), extra);
    }

    #[test]
    fn node_roundtrip_through_pool() {
        let pool = pool();
        let mut store = NodeStore::<RectCodec<2>>::create(pool, DEFAULT_TREE).unwrap();
        let page = store.alloc_page().unwrap();
        let entries = vec![
            Entry::<2>::data(Rect::new([0.0, 0.0], [1.0, 1.0]), 7),
            Entry::<2>::data(Rect::new([2.0, 2.0], [3.0, 3.0]), 8),
        ];
        store.write_node(page, 0, &entries).unwrap();
        let (level, back) = store.read_node(page).unwrap();
        assert_eq!(level, 0);
        assert_eq!(back, entries);
    }
}
