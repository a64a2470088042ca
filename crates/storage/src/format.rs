//! On-disk format v2: superblock, persistent free-list allocator, tree
//! catalog.
//!
//! A persistent free chain means a reopened tree reuses the pages its
//! deletions freed, and the catalog lets several named trees share one
//! disk/file.
//!
//! Page 0 is the **superblock** (little-endian, version 3):
//!
//! ```text
//! offset  size  field
//! 0       4     magic        "STR2"
//! 4       4     version      (3)
//! 8       4     page_size    (must match the disk's)
//! 12      4     tree_count   (catalog entries in use)
//! 16      8     free_head    (PageId of first free page; u64::MAX = none)
//! 24      8     free_count   (length of the free chain)
//! 32      8     reserved     (written as zero)
//! 40      8     checksum     (FNV-1a of bytes 0..40 ++ catalog region)
//! 48      —     catalog: tree_count × 48-byte entries
//! ```
//!
//! Any other version is refused (see DESIGN.md's format policy).
//!
//! Each catalog entry is `u8 name_len ++ 39 bytes name ++ u64 meta_page`.
//! A tree's meta page holds whatever the tree layer wants (root, height,
//! capacities — see `rtree`'s `TreeMeta`); the allocator only hands the
//! page out and remembers it by name.
//!
//! Freed pages form a **chain threaded through the free pages
//! themselves**: a free page starts with `"FREE"` ++ reserved u32 ++
//! `u64 next`. The superblock's `free_head` points at the newest link.
//!
//! # Crash safety
//!
//! All mutations use ordered writes with the superblock as the commit
//! point, giving one invariant under any crash (torn schedules included):
//! **a page is never simultaneously on the free chain and reachable from
//! a committed tree** — crashes can leak pages (fsck reports them) but
//! can never double-allocate.
//!
//! * `allocate` pops the head link and commits by writing the superblock
//!   *before* the caller sees the page. Crash after the commit, before
//!   the caller's own meta commit → the page is leaked, never reused
//!   twice.
//! * `free_pages` writes every chain link (`"FREE"` + next pointers)
//!   first, then commits with one superblock write. Crash before the
//!   commit → the old chain is intact and the half-written links are
//!   merely leaked.
//! * `create_tree` pops a meta page and adds the catalog entry in the
//!   same superblock write — the two can't diverge.

use std::sync::Arc;

use bytes::{Buf, BufMut};
use parking_lot::Mutex;

use crate::{fnv1a_update, Disk, PageId, Result, StorageError, FNV_SEED};

/// Superblock magic: `"STR2"` little-endian.
pub const FORMAT_V2_MAGIC: u32 = u32::from_le_bytes(*b"STR2");
/// Magic prefix of a page on the free chain: `"FREE"` little-endian.
pub const FREE_PAGE_MAGIC: u32 = u32::from_le_bytes(*b"FREE");
/// On-disk format version written, and the only one read, by this code.
pub const FORMAT_VERSION: u32 = 3;

const SUPERBLOCK_PAGE: PageId = PageId(0);
/// Fixed header length of the superblock.
const FIXED_LEN: usize = 48;
const ENTRY_LEN: usize = 48;
const MAX_NAME_LEN: usize = 39;

fn corrupt(page: PageId, reason: impl Into<String>) -> StorageError {
    StorageError::Corrupt {
        page,
        reason: reason.into(),
    }
}

/// One named tree in the superblock catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// The tree's name (≤ 39 bytes of UTF-8).
    pub name: String,
    /// The page holding the tree's meta block.
    pub meta_page: PageId,
}

struct AllocState {
    free_head: PageId,
    free_count: u64,
    catalog: Vec<CatalogEntry>,
}

/// The format-v2 page allocator: persistent free list + tree catalog,
/// both rooted in the superblock on page 0.
///
/// All superblock and free-chain I/O goes **directly to the disk**,
/// bypassing any buffer pool — the pool only ever caches node pages, so
/// the two views cannot go stale against each other.
pub struct PageAllocator {
    disk: Arc<dyn Disk>,
    state: Mutex<AllocState>,
}

impl PageAllocator {
    /// Format an empty disk: allocate page 0 and write a fresh
    /// superblock (no trees, empty free chain).
    pub fn format(disk: Arc<dyn Disk>) -> Result<Arc<Self>> {
        if disk.num_pages() != 0 {
            return Err(corrupt(
                SUPERBLOCK_PAGE,
                format!("cannot format: disk already has {} pages", disk.num_pages()),
            ));
        }
        let page0 = disk.allocate()?;
        debug_assert_eq!(page0, SUPERBLOCK_PAGE);
        let alloc = Self {
            disk,
            state: Mutex::new(AllocState {
                free_head: PageId::INVALID,
                free_count: 0,
                catalog: Vec::new(),
            }),
        };
        alloc.write_superblock(&alloc.state.lock())?;
        Ok(Arc::new(alloc))
    }

    /// Open a formatted disk by reading and validating the superblock.
    pub fn open(disk: Arc<dyn Disk>) -> Result<Arc<Self>> {
        let mut page = vec![0u8; disk.page_size()];
        disk.read_page(SUPERBLOCK_PAGE, &mut page)?;
        let state = Self::parse_superblock(&page, disk.page_size())?;
        Ok(Arc::new(Self {
            disk,
            state: Mutex::new(state),
        }))
    }

    /// The disk this allocator manages.
    pub fn disk(&self) -> &Arc<dyn Disk> {
        &self.disk
    }

    /// Largest number of catalog entries a superblock page can hold.
    pub fn max_trees(&self) -> usize {
        (self.disk.page_size() - FIXED_LEN) / ENTRY_LEN
    }

    /// Pages currently on the free chain.
    pub fn free_count(&self) -> u64 {
        self.state.lock().free_count
    }

    /// Allocate one page: pop the free chain if non-empty (committing
    /// the pop via the superblock before returning), else grow the disk.
    pub fn allocate(&self) -> Result<PageId> {
        let mut st = self.state.lock();
        let page = self.pop_free(&mut st)?;
        match page {
            Some(p) => {
                self.write_superblock(&st)?;
                Ok(p)
            }
            None => self.disk.allocate(),
        }
    }

    /// Put `pages` on the free chain. Their previous contents are
    /// destroyed (each becomes a `"FREE"` chain link). The chain links
    /// are all written before the single superblock commit.
    pub fn free_pages(&self, pages: &[PageId]) -> Result<()> {
        if pages.is_empty() {
            return Ok(());
        }
        let mut st = self.state.lock();
        for &p in pages {
            if !p.is_valid() || p == SUPERBLOCK_PAGE || p.index() >= self.disk.num_pages() {
                return Err(corrupt(p, "refusing to free page outside the data region"));
            }
        }
        let mut link = vec![0u8; self.disk.page_size()];
        for (i, &p) in pages.iter().enumerate() {
            let next = pages.get(i + 1).copied().unwrap_or(st.free_head);
            link.fill(0);
            {
                let mut w = &mut link[..16];
                w.put_u32_le(FREE_PAGE_MAGIC);
                w.put_u32_le(0);
                w.put_u64_le(next.0);
            }
            self.disk.write_page(p, &link)?;
        }
        st.free_head = pages[0];
        st.free_count += pages.len() as u64;
        self.write_superblock(&st)
    }

    /// Convenience for a single page.
    pub fn free_page(&self, page: PageId) -> Result<()> {
        self.free_pages(&[page])
    }

    /// Register a new named tree: allocates its meta page and adds the
    /// catalog entry in one superblock commit. Returns the meta page.
    pub fn create_tree(&self, name: &str) -> Result<PageId> {
        if name.is_empty() || name.len() > MAX_NAME_LEN {
            return Err(corrupt(
                SUPERBLOCK_PAGE,
                format!(
                    "tree name must be 1..={MAX_NAME_LEN} bytes, got {}",
                    name.len()
                ),
            ));
        }
        let mut st = self.state.lock();
        if st.catalog.iter().any(|e| e.name == name) {
            return Err(StorageError::TreeExists(name.to_string()));
        }
        if st.catalog.len() >= self.max_trees() {
            return Err(corrupt(
                SUPERBLOCK_PAGE,
                format!("catalog full ({} trees)", st.catalog.len()),
            ));
        }
        let meta_page = match self.pop_free(&mut st)? {
            Some(p) => p,
            None => self.disk.allocate()?,
        };
        st.catalog.push(CatalogEntry {
            name: name.to_string(),
            meta_page,
        });
        self.write_superblock(&st)?;
        Ok(meta_page)
    }

    /// Meta page of the named tree, if it exists.
    pub fn lookup_tree(&self, name: &str) -> Option<PageId> {
        self.state
            .lock()
            .catalog
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.meta_page)
    }

    /// Snapshot of the catalog, in creation order.
    pub fn trees(&self) -> Vec<CatalogEntry> {
        self.state.lock().catalog.clone()
    }

    /// Walk the free chain and return every page on it, head first.
    ///
    /// Validates each link's magic and guards against cycles / chains
    /// longer than the superblock's `free_count` claims, reporting
    /// either as [`StorageError::Corrupt`] — the fsck layer turns that
    /// into a double-free diagnosis.
    pub fn free_list(&self) -> Result<Vec<PageId>> {
        let (head, count) = {
            let st = self.state.lock();
            (st.free_head, st.free_count)
        };
        let mut out = Vec::new();
        let mut page = vec![0u8; self.disk.page_size()];
        let mut cur = head;
        while cur.is_valid() {
            if out.len() as u64 >= count {
                return Err(corrupt(
                    cur,
                    format!("free chain longer than free_count={count} (cycle or double-free)"),
                ));
            }
            if cur == SUPERBLOCK_PAGE || cur.index() >= self.disk.num_pages() {
                return Err(corrupt(cur, "free chain link outside the data region"));
            }
            self.disk.read_page(cur, &mut page)?;
            let mut r = &page[..16];
            let magic = r.get_u32_le();
            let _reserved = r.get_u32_le();
            let next = PageId(r.get_u64_le());
            if magic != FREE_PAGE_MAGIC {
                return Err(corrupt(
                    cur,
                    "free chain link lacks FREE magic (double-free or corruption)",
                ));
            }
            out.push(cur);
            cur = next;
        }
        if out.len() as u64 != count {
            return Err(corrupt(
                head,
                format!(
                    "free chain has {} links but superblock claims {count}",
                    out.len()
                ),
            ));
        }
        Ok(out)
    }

    /// Pop the head of the free chain (no superblock write). Returns
    /// `None` when the chain is empty.
    fn pop_free(&self, st: &mut AllocState) -> Result<Option<PageId>> {
        let head = st.free_head;
        if !head.is_valid() {
            return Ok(None);
        }
        if head == SUPERBLOCK_PAGE || head.index() >= self.disk.num_pages() {
            return Err(corrupt(head, "free chain head outside the data region"));
        }
        let mut page = vec![0u8; self.disk.page_size()];
        self.disk.read_page(head, &mut page)?;
        let mut r = &page[..16];
        let magic = r.get_u32_le();
        let _reserved = r.get_u32_le();
        let next = PageId(r.get_u64_le());
        if magic != FREE_PAGE_MAGIC {
            return Err(corrupt(
                head,
                "free chain head lacks FREE magic (double-free or corruption)",
            ));
        }
        st.free_head = next;
        st.free_count = st.free_count.saturating_sub(1);
        Ok(Some(head))
    }

    fn write_superblock(&self, st: &AllocState) -> Result<()> {
        let ps = self.disk.page_size();
        let mut page = vec![0u8; ps];
        {
            let mut w = &mut page[..FIXED_LEN];
            w.put_u32_le(FORMAT_V2_MAGIC);
            w.put_u32_le(FORMAT_VERSION);
            w.put_u32_le(ps as u32);
            w.put_u32_le(st.catalog.len() as u32);
            w.put_u64_le(st.free_head.0);
            w.put_u64_le(st.free_count);
            w.put_u64_le(0); // reserved
            w.put_u64_le(0); // checksum, patched below
        }
        for (i, e) in st.catalog.iter().enumerate() {
            let off = FIXED_LEN + i * ENTRY_LEN;
            let entry = &mut page[off..off + ENTRY_LEN];
            entry[0] = e.name.len() as u8;
            entry[1..1 + e.name.len()].copy_from_slice(e.name.as_bytes());
            let mut w = &mut entry[ENTRY_LEN - 8..];
            w.put_u64_le(e.meta_page.0);
        }
        let cat_end = FIXED_LEN + st.catalog.len() * ENTRY_LEN;
        let checksum = fnv1a_update(
            fnv1a_update(FNV_SEED, &page[..FIXED_LEN - 8]),
            &page[FIXED_LEN..cat_end],
        );
        {
            let mut w = &mut page[FIXED_LEN - 8..FIXED_LEN];
            w.put_u64_le(checksum);
        }
        self.disk.write_page(SUPERBLOCK_PAGE, &page)
    }

    fn parse_superblock(page: &[u8], disk_page_size: usize) -> Result<AllocState> {
        if page.len() < FIXED_LEN {
            return Err(corrupt(SUPERBLOCK_PAGE, "page shorter than superblock"));
        }
        let mut r = &page[..FIXED_LEN];
        let magic = r.get_u32_le();
        let version = r.get_u32_le();
        let page_size = r.get_u32_le();
        let tree_count = r.get_u32_le() as usize;
        let free_head = PageId(r.get_u64_le());
        let free_count = r.get_u64_le();
        let _reserved = r.get_u64_le();
        let stored_checksum = r.get_u64_le();
        if magic != FORMAT_V2_MAGIC {
            return Err(corrupt(
                SUPERBLOCK_PAGE,
                "bad superblock magic (not a v2 file)",
            ));
        }
        if version != FORMAT_VERSION {
            return Err(corrupt(
                SUPERBLOCK_PAGE,
                format!("unsupported format version {version} (this build reads {FORMAT_VERSION})"),
            ));
        }
        if page_size as usize != disk_page_size {
            return Err(corrupt(
                SUPERBLOCK_PAGE,
                format!("superblock page size {page_size} != disk page size {disk_page_size}"),
            ));
        }
        let cat_end = FIXED_LEN + tree_count * ENTRY_LEN;
        if cat_end > page.len() {
            return Err(corrupt(
                SUPERBLOCK_PAGE,
                format!("catalog of {tree_count} entries overflows the page"),
            ));
        }
        let checksum = fnv1a_update(
            fnv1a_update(FNV_SEED, &page[..FIXED_LEN - 8]),
            &page[FIXED_LEN..cat_end],
        );
        if checksum != stored_checksum {
            return Err(corrupt(
                SUPERBLOCK_PAGE,
                "superblock checksum mismatch (torn write?)",
            ));
        }
        let mut catalog = Vec::with_capacity(tree_count);
        for i in 0..tree_count {
            let off = FIXED_LEN + i * ENTRY_LEN;
            let entry = &page[off..off + ENTRY_LEN];
            let name_len = entry[0] as usize;
            if name_len == 0 || name_len > MAX_NAME_LEN {
                return Err(corrupt(
                    SUPERBLOCK_PAGE,
                    format!("catalog entry {i} has bad name length {name_len}"),
                ));
            }
            let name = std::str::from_utf8(&entry[1..1 + name_len])
                .map_err(|_| corrupt(SUPERBLOCK_PAGE, format!("catalog entry {i} name not UTF-8")))?
                .to_string();
            let meta_page = PageId((&entry[ENTRY_LEN - 8..]).get_u64_le());
            if catalog.iter().any(|e: &CatalogEntry| e.name == name) {
                return Err(corrupt(
                    SUPERBLOCK_PAGE,
                    format!("duplicate catalog entry '{name}'"),
                ));
            }
            catalog.push(CatalogEntry { name, meta_page });
        }
        Ok(AllocState {
            free_head,
            free_count,
            catalog,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultDisk, FaultKind, FaultOp, FaultSpec, Trigger};
    use crate::MemDisk;

    fn mem() -> Arc<dyn Disk> {
        Arc::new(MemDisk::new(512))
    }

    #[test]
    fn format_open_roundtrip() {
        let disk = mem();
        let a = PageAllocator::format(disk.clone()).unwrap();
        let meta = a.create_tree("default").unwrap();
        assert_eq!(meta, PageId(1));
        let data = a.allocate().unwrap();
        a.free_page(data).unwrap();

        let b = PageAllocator::open(disk.clone()).unwrap();
        assert_eq!(b.lookup_tree("default"), Some(meta));
        assert_eq!(b.free_count(), 1);
        assert_eq!(b.free_list().unwrap(), vec![data]);
        // The freed page is reused, not leaked, by the reopened allocator.
        assert_eq!(b.allocate().unwrap(), data);
        assert_eq!(b.free_count(), 0);
        // The reserved field is written as zero.
        let mut page = vec![0u8; 512];
        disk.read_page(PageId(0), &mut page).unwrap();
        assert_eq!(page[32..40], [0; 8]);
    }

    #[test]
    fn free_chain_is_lifo_and_survives_reopen() {
        let disk = mem();
        let a = PageAllocator::format(disk.clone()).unwrap();
        let pages: Vec<_> = (0..4).map(|_| a.allocate().unwrap()).collect();
        a.free_pages(&pages).unwrap();
        let b = PageAllocator::open(disk).unwrap();
        assert_eq!(b.free_list().unwrap(), pages);
        // Pops come off the head.
        assert_eq!(b.allocate().unwrap(), pages[0]);
        assert_eq!(b.allocate().unwrap(), pages[1]);
        assert_eq!(b.free_count(), 2);
    }

    #[test]
    fn catalog_names_validated() {
        let a = PageAllocator::format(mem()).unwrap();
        a.create_tree("t1").unwrap();
        assert!(matches!(
            a.create_tree("t1"),
            Err(StorageError::TreeExists(_))
        ));
        assert!(a.create_tree("").is_err());
        assert!(a.create_tree(&"x".repeat(40)).is_err());
        assert!(a.create_tree(&"x".repeat(39)).is_ok());
        assert_eq!(a.trees().len(), 2);
    }

    #[test]
    fn open_rejects_corruption() {
        let disk = Arc::new(MemDisk::new(512));
        let a = PageAllocator::format(disk.clone() as Arc<dyn Disk>).unwrap();
        a.create_tree("t").unwrap();
        let mut page = vec![0u8; 512];
        disk.read_page(PageId(0), &mut page).unwrap();
        page[20] ^= 0xFF; // flip a free_head byte → checksum mismatch
        disk.write_page(PageId(0), &page).unwrap();
        let err = match PageAllocator::open(disk.clone() as Arc<dyn Disk>) {
            Err(e) => e,
            Ok(_) => panic!("corrupt superblock opened cleanly"),
        };
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn double_free_detected_on_walk() {
        let disk = mem();
        let a = PageAllocator::format(disk.clone()).unwrap();
        let p = a.allocate().unwrap();
        a.free_page(p).unwrap();
        // Overwrite the link so it no longer carries FREE magic — as if
        // the page were handed out and written while still chained.
        let mut buf = vec![0u8; 512];
        buf[0] = 0xAB;
        disk.write_page(p, &buf).unwrap();
        let err = a.free_list().unwrap_err();
        assert!(err.to_string().contains("FREE magic"), "{err}");
        assert!(a.allocate().is_err());
    }

    #[test]
    fn cycle_in_chain_detected() {
        let disk = mem();
        let a = PageAllocator::format(disk.clone()).unwrap();
        let p = a.allocate().unwrap();
        let q = a.allocate().unwrap();
        a.free_pages(&[p, q]).unwrap();
        // Point q back at p: p → q → p …
        let mut link = vec![0u8; 512];
        {
            let mut w = &mut link[..16];
            w.put_u32_le(FREE_PAGE_MAGIC);
            w.put_u32_le(0);
            w.put_u64_le(p.0);
        }
        disk.write_page(q, &link).unwrap();
        let err = a.free_list().unwrap_err();
        assert!(err.to_string().contains("free_count"), "{err}");
    }

    #[test]
    fn refuses_to_free_superblock_or_unallocated() {
        let a = PageAllocator::format(mem()).unwrap();
        assert!(a.free_page(PageId(0)).is_err());
        assert!(a.free_page(PageId(999)).is_err());
        assert!(a.free_page(PageId::INVALID).is_err());
    }

    /// A hand-built version-2 superblock (checksum at 32, catalog at
    /// 40, no WAL field), as older builds wrote it, is refused with a
    /// typed error naming its version, and the disk is left untouched.
    #[test]
    fn v2_superblock_is_refused() {
        const V2_FIXED_LEN: usize = 40;
        let disk = Arc::new(MemDisk::new(512));
        disk.allocate().unwrap(); // page 0
        disk.allocate().unwrap(); // page 1: the tree's meta page
        let mut page = vec![0u8; 512];
        {
            let mut w = &mut page[..V2_FIXED_LEN];
            w.put_u32_le(FORMAT_V2_MAGIC);
            w.put_u32_le(2);
            w.put_u32_le(512);
            w.put_u32_le(1);
            w.put_u64_le(PageId::INVALID.0);
            w.put_u64_le(0);
            w.put_u64_le(0); // checksum, patched below
        }
        {
            let entry = &mut page[V2_FIXED_LEN..V2_FIXED_LEN + ENTRY_LEN];
            entry[0] = 3;
            entry[1..4].copy_from_slice(b"old");
            let mut w = &mut entry[ENTRY_LEN - 8..];
            w.put_u64_le(1);
        }
        let checksum = fnv1a_update(
            fnv1a_update(FNV_SEED, &page[..32]),
            &page[V2_FIXED_LEN..V2_FIXED_LEN + ENTRY_LEN],
        );
        (&mut page[32..V2_FIXED_LEN]).put_u64_le(checksum);
        disk.write_page(PageId(0), &page).unwrap();

        let err = match PageAllocator::open(disk.clone() as Arc<dyn Disk>) {
            Err(e) => e,
            Ok(_) => panic!("a version-2 superblock opened"),
        };
        assert!(
            matches!(&err, StorageError::Corrupt { page: SUPERBLOCK_PAGE, reason }
                if reason.contains("unsupported format version 2")),
            "{err}"
        );
        let mut after = vec![0u8; 512];
        disk.read_page(PageId(0), &mut after).unwrap();
        assert_eq!(
            after, page,
            "a refused open must not rewrite the superblock"
        );
    }

    /// Crash during `free_pages` before the superblock commit: the old
    /// chain stays intact and nothing is double-allocated — the
    /// half-freed pages are merely leaked.
    #[test]
    fn crashed_free_leaks_but_never_double_allocates() {
        let inner = Arc::new(MemDisk::new(512));
        let faulted = Arc::new(FaultDisk::new(inner.clone()));
        let a = PageAllocator::format(faulted.clone() as Arc<dyn Disk>).unwrap();
        let keep = a.allocate().unwrap();
        let doomed = a.allocate().unwrap();
        a.free_page(keep).unwrap(); // chain: [keep]

        // Fail the superblock commit of the next free.
        faulted.push(FaultSpec {
            op: FaultOp::Write,
            kind: FaultKind::Error,
            trigger: Trigger::PageRange { lo: 0, hi: 0 },
        });
        assert!(a.free_page(doomed).is_err());

        // "Reboot": reopen from the media. The committed state still
        // has only `keep` on the chain; `doomed` is leaked, not free.
        let b = PageAllocator::open(inner.clone() as Arc<dyn Disk>).unwrap();
        assert_eq!(b.free_list().unwrap(), vec![keep]);
        assert_eq!(b.allocate().unwrap(), keep);
        assert_ne!(b.allocate().unwrap(), doomed);
    }
}
