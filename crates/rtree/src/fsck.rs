//! `fsck`-style integrity checking.
//!
//! [`RTree::check`] walks the tree page by page and produces a
//! [`CheckReport`] instead of failing on the first problem — the
//! recovery-tool counterpart to [`RTree::validate`], which is a
//! fail-fast invariant assertion for tests. Where `validate` stops at
//! the first violated invariant and demands *exact* parent MBRs, `check`
//! keeps walking past corrupt pages, verifies what a repair tool needs
//! (decodable pages with intact checksums, level arithmetic, MBR
//! *containment*), and takes a census of unreachable pages.

use std::collections::HashSet;

use geom::Rect;
use storage::{CatalogEntry, PageAllocator, PageId};

use crate::store::{self, HEADER_LEN, KIND_HILBERT, KIND_RPLUS, KIND_RTREE};
use crate::{codec, RTree};

/// A problem found on one page.
#[derive(Debug, Clone)]
pub struct PageIssue {
    /// The offending page.
    pub page: PageId,
    /// Human-readable description of what is wrong.
    pub reason: String,
}

impl std::fmt::Display for PageIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.page, self.reason)
    }
}

/// Outcome of an [`RTree::check`] walk.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Pages on the underlying disk, including the meta page.
    pub pages_on_disk: u64,
    /// Pages reached from the root (corrupt ones included).
    pub pages_reachable: u64,
    /// Data entries seen across all readable leaves.
    pub leaf_entries: u64,
    /// Pages that failed to read or decode (bad magic, checksum
    /// mismatch, truncation, out-of-bounds child, I/O error …).
    pub corrupt: Vec<PageIssue>,
    /// Readable pages whose relationship to the rest of the tree is
    /// wrong (level arithmetic, MBR containment, double reachability,
    /// overfull nodes, entry-count mismatch).
    pub structural: Vec<PageIssue>,
    /// Leaked pages: allocated, but neither reachable from any cataloged
    /// tree, on the free list, a meta page, nor the superblock. Harmless
    /// lost space (a crash between a meta commit and its free-chain
    /// writes legitimately leaks), but a repair tool reclaims them.
    pub unreachable: Vec<PageId>,
    /// Length of the persistent free chain.
    pub free_pages: u64,
    /// Allocator accounting violations: an unreadable or cyclic free
    /// chain, and double frees — pages simultaneously on a free list and
    /// reachable from a tree, which a future allocation would corrupt.
    pub alloc_issues: Vec<PageIssue>,
}

impl CheckReport {
    /// No corruption, no structural damage and no allocator violations
    /// (unreachable pages are reported but do not make a tree unclean —
    /// a crash mid-persist legitimately leaks pages).
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty() && self.structural.is_empty() && self.alloc_issues.is_empty()
    }

    /// Total number of problems (corrupt + structural + allocator).
    pub fn issue_count(&self) -> usize {
        self.corrupt.len() + self.structural.len() + self.alloc_issues.len()
    }
}

impl std::fmt::Display for CheckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "pages: {} on disk, {} reachable, {} free, {} leaked",
            self.pages_on_disk,
            self.pages_reachable,
            self.free_pages,
            self.unreachable.len()
        )?;
        writeln!(f, "leaf entries: {}", self.leaf_entries)?;
        for issue in &self.corrupt {
            writeln!(f, "corrupt   {issue}")?;
        }
        for issue in &self.structural {
            writeln!(f, "structure {issue}")?;
        }
        for issue in &self.alloc_issues {
            writeln!(f, "allocator {issue}")?;
        }
        if self.is_clean() {
            write!(f, "clean")
        } else {
            write!(f, "{} problem(s) found", self.issue_count())
        }
    }
}

/// What the parent recorded about a child, checked when the child is
/// visited.
struct Pend<const D: usize> {
    page: PageId,
    expected_level: Option<u32>,
    parent: Option<(PageId, Rect<D>)>,
}

impl<const D: usize> RTree<D> {
    /// Walk the tree page by page, verifying that every reachable page
    /// decodes (magic, checksum, bounds), that levels step down by one,
    /// and that each child's MBR lies inside what its parent recorded —
    /// collecting every problem instead of stopping at the first.
    ///
    /// Never returns an error: unreadable pages become entries in
    /// [`CheckReport::corrupt`], so a half-destroyed tree still yields a
    /// full damage report.
    pub fn check(&self) -> CheckReport {
        let mut report = CheckReport {
            pages_on_disk: self.pool().disk().num_pages(),
            ..CheckReport::default()
        };
        let mut seen: HashSet<PageId> = HashSet::new();
        let mut stack: Vec<Pend<D>> = vec![Pend {
            page: self.root,
            expected_level: Some(self.height - 1),
            parent: None,
        }];
        while let Some(Pend {
            page,
            expected_level,
            parent,
        }) = stack.pop()
        {
            if !seen.insert(page) {
                report.structural.push(PageIssue {
                    page,
                    reason: "reachable by more than one path".into(),
                });
                continue;
            }
            let decoded = self
                .pool()
                .with_page(page, |bytes| codec::decode::<D>(bytes, page));
            let node = match decoded {
                Err(e) => {
                    report.corrupt.push(PageIssue {
                        page,
                        reason: format!("unreadable: {e}"),
                    });
                    continue;
                }
                Ok(Err(e)) => {
                    report.corrupt.push(PageIssue {
                        page,
                        reason: e.to_string(),
                    });
                    continue;
                }
                Ok(Ok(node)) => node,
            };
            if let Some(expected) = expected_level {
                if node.level != expected {
                    report.structural.push(PageIssue {
                        page,
                        reason: format!("level {} where {expected} expected", node.level),
                    });
                }
            }
            if node.len() > self.capacity().max() {
                report.structural.push(PageIssue {
                    page,
                    reason: format!(
                        "{} entries exceed capacity {}",
                        node.len(),
                        self.capacity().max()
                    ),
                });
            }
            if let Some((parent_page, recorded)) = parent {
                if !node.is_empty() && !recorded.contains_rect(&node.mbr()) {
                    report.structural.push(PageIssue {
                        page,
                        reason: format!(
                            "MBR {} escapes the rectangle {recorded} recorded by {parent_page}",
                            node.mbr()
                        ),
                    });
                }
            }
            if node.is_leaf() {
                report.leaf_entries += node.len() as u64;
            } else {
                for e in &node.entries {
                    stack.push(Pend {
                        page: e.child_page(),
                        expected_level: Some(node.level - 1),
                        parent: Some((page, e.rect)),
                    });
                }
            }
        }
        report.pages_reachable = seen.len() as u64;

        if report.corrupt.is_empty() && report.leaf_entries != self.len() {
            report.structural.push(PageIssue {
                page: self.root,
                reason: format!(
                    "tree records {} entries but leaves hold {}",
                    self.len(),
                    report.leaf_entries
                ),
            });
        }

        self.audit_allocation(&seen, &mut report);
        report
    }

    /// The allocator audit: every allocated page must be accounted for —
    /// reachable from *some* cataloged tree, on the persistent free
    /// chain, on this session's free list, a meta page, or the
    /// superblock. Anything else is leaked ([`CheckReport::unreachable`]);
    /// a page accounted as both free and reachable is a double free
    /// ([`CheckReport::alloc_issues`]).
    fn audit_allocation(&self, seen: &HashSet<PageId>, report: &mut CheckReport) {
        let mut accounted: HashSet<PageId> = seen.clone();
        let mut on_chain: HashSet<PageId> = HashSet::new();
        accounted.insert(PageId(0)); // the superblock
        let alloc = self.store.allocator();
        match alloc.free_list() {
            Ok(chain) => {
                report.free_pages = chain.len() as u64;
                for &p in &chain {
                    if seen.contains(&p) {
                        report.alloc_issues.push(PageIssue {
                            page: p,
                            reason: "on the free chain but reachable from the tree \
                                     (double free)"
                                .into(),
                        });
                    }
                }
                on_chain.extend(chain.iter().copied());
                accounted.extend(chain);
            }
            Err(e) => report.alloc_issues.push(PageIssue {
                page: PageId(0),
                reason: format!("free chain unreadable: {e}"),
            }),
        }
        for entry in alloc.trees() {
            accounted.insert(entry.meta_page);
            if entry.meta_page != self.store.meta_page() {
                self.audit_other_tree(alloc, &entry, seen, &mut accounted, report);
            }
        }
        for &p in self.store.session_free() {
            if seen.contains(&p) {
                report.alloc_issues.push(PageIssue {
                    page: p,
                    reason: "on the session free list but reachable from the tree (double free)"
                        .into(),
                });
            }
            accounted.insert(p);
        }
        self.audit_durable_root(&on_chain, report);
        for i in 0..report.pages_on_disk {
            let p = PageId(i);
            if !accounted.contains(&p) {
                report.unreachable.push(p);
            }
        }
    }

    /// Audit the *durable* root — the one the superblock's meta page
    /// records, which is what a reopen after a crash would traverse.
    ///
    /// The live root legitimately runs ahead of the durable one between
    /// persists, and a durable root sitting on the *session* free list
    /// with its content intact is the normal state of an unpersisted
    /// root swap. What must never happen is the durable root pointing at
    /// a page the allocator could hand out again: on the persistent free
    /// chain, stamped with the free-page magic, or past the end of the
    /// file. A reopen would adopt that root and a later allocation would
    /// scribble over it — the crash-window this audit exists to flag.
    fn audit_durable_root(&self, on_chain: &HashSet<PageId>, report: &mut CheckReport) {
        let Ok(durable) = self.store.read_meta() else {
            // An unreadable durable meta is its own (already reported)
            // problem when the tree is reopened; the live walk above has
            // nothing to cross-check against.
            return;
        };
        if durable.root == self.root {
            return;
        }
        let p = durable.root;
        if p.index() >= report.pages_on_disk {
            report.alloc_issues.push(PageIssue {
                page: p,
                reason: "durable meta roots the tree past the end of the file (stale root)".into(),
            });
            return;
        }
        if on_chain.contains(&p) {
            report.alloc_issues.push(PageIssue {
                page: p,
                reason: "durable meta roots the tree at a page on the free chain \
                         (stale root at a freed page)"
                    .into(),
            });
            return;
        }
        let disk = self.pool().disk();
        let mut page = vec![0u8; disk.page_size()];
        if disk.read_page(p, &mut page).is_ok()
            && page.len() >= 4
            && page[..4] == storage::FREE_PAGE_MAGIC.to_le_bytes()
        {
            report.alloc_issues.push(PageIssue {
                page: p,
                reason: "durable meta roots the tree at a freed page (stale root)".into(),
            });
        }
    }

    /// Best-effort reachability walk of another cataloged tree, variant-
    /// agnostic: the shared node header gives level and entry count, and
    /// the tree's recorded kind/dims give the entry stride and where the
    /// child page sits inside an entry. Checksums are not verified here —
    /// this accounts pages, it does not validate the other tree.
    fn audit_other_tree(
        &self,
        alloc: &PageAllocator,
        entry: &CatalogEntry,
        seen: &HashSet<PageId>,
        accounted: &mut HashSet<PageId>,
        report: &mut CheckReport,
    ) {
        let disk = self.pool().disk().clone();
        let meta = match store::read_tree_meta(disk.as_ref(), alloc, &entry.name) {
            Ok(meta) => meta,
            Err(e) => {
                report.alloc_issues.push(PageIssue {
                    page: entry.meta_page,
                    reason: format!("tree '{}': meta unreadable: {e}", entry.name),
                });
                return;
            }
        };
        let Some((entry_size, child_off)) = entry_layout(meta.kind, meta.dims) else {
            report.alloc_issues.push(PageIssue {
                page: entry.meta_page,
                reason: format!("tree '{}': unknown kind {}", entry.name, meta.kind),
            });
            return;
        };
        let mut stack = vec![meta.root];
        while let Some(page) = stack.pop() {
            if !accounted.insert(page) {
                if seen.contains(&page) {
                    report.alloc_issues.push(PageIssue {
                        page,
                        reason: format!("reachable from both this tree and tree '{}'", entry.name),
                    });
                }
                continue;
            }
            let children = self.pool().with_page(page, |bytes| {
                let mut children = Vec::new();
                if bytes.len() < HEADER_LEN {
                    return children;
                }
                let level = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
                let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
                let need = HEADER_LEN + count * entry_size;
                if level == 0 || need > bytes.len() {
                    return children;
                }
                for i in 0..count {
                    let off = HEADER_LEN + i * entry_size + child_off;
                    let child = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
                    children.push(PageId(child));
                }
                children
            });
            match children {
                Ok(children) => stack.extend(children),
                Err(e) => report.alloc_issues.push(PageIssue {
                    page,
                    reason: format!("tree '{}': page unreadable: {e}", entry.name),
                }),
            }
        }
    }
}

/// `(entry stride, child-page offset within an entry)` for a tree kind,
/// or `None` for a kind this build does not know.
fn entry_layout(kind: u32, dims: u32) -> Option<(usize, usize)> {
    let dims = dims as usize;
    match kind {
        KIND_RTREE | KIND_RPLUS => Some((dims * 16 + 8, dims * 16)),
        KIND_HILBERT => Some((56, 32)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BulkLoader, Entry, NodeCapacity};
    use std::sync::Arc;
    use storage::{BufferPool, Disk, MemDisk};

    fn squares(n: u64) -> Vec<Entry<2>> {
        (0..n)
            .map(|i| {
                let x = (i % 32) as f64 / 32.0;
                let y = (i / 32) as f64 / 32.0;
                Entry::data(Rect::new([x, y], [x + 0.02, y + 0.02]), i)
            })
            .collect()
    }

    fn packed(n: u64) -> (Arc<MemDisk>, RTree<2>) {
        let disk = Arc::new(MemDisk::default_size());
        let pool = Arc::new(BufferPool::new(disk.clone() as Arc<dyn Disk>, 64));
        let tree = BulkLoader::new(NodeCapacity::new(16).unwrap())
            .load(pool, squares(n), &mut |_, _| {})
            .unwrap();
        (disk, tree)
    }

    #[test]
    fn clean_tree_reports_clean() {
        let (_d, tree) = packed(500);
        let report = tree.check();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.leaf_entries, 500);
        assert!(report.pages_reachable > 1);
        assert!(report.unreachable.is_empty(), "packed load strands pages");
    }

    #[test]
    fn flipped_byte_is_reported_not_fatal() {
        let (disk, tree) = packed(500);
        tree.pool().flush().unwrap();
        tree.pool().clear().unwrap();
        // Corrupt a non-root node page on the raw disk.
        let victim = PageId(2);
        assert_ne!(victim, tree.root_page());
        let mut page = vec![0u8; disk.page_size()];
        disk.read_page(victim, &mut page).unwrap();
        page[40] ^= 0xFF;
        disk.write_page(victim, &page).unwrap();

        let report = tree.check();
        assert!(!report.is_clean());
        assert!(
            report.corrupt.iter().any(|i| i.page == victim),
            "corrupted page not flagged: {report}"
        );
    }

    #[test]
    fn deleted_pages_reach_the_free_chain_not_the_leak_report() {
        let disk = Arc::new(MemDisk::default_size());
        let pool = Arc::new(BufferPool::new(disk.clone() as Arc<dyn Disk>, 64));
        let mut tree = RTree::<2>::create(pool.clone(), NodeCapacity::new(4).unwrap()).unwrap();
        let items = squares(64);
        for e in &items {
            tree.insert(e.rect, e.payload).unwrap();
        }
        for e in items.iter().take(48) {
            tree.delete(&e.rect, e.payload).unwrap();
        }
        // With the live tree the session free list accounts for released
        // pages.
        let report = tree.check();
        assert!(report.is_clean(), "{report}");
        assert!(report.unreachable.is_empty());
        let freed = tree.store().session_free().len();
        assert!(freed > 0, "delete-heavy workload must release pages");

        // Reopened, the frees live on the persistent chain: nothing is
        // leaked, and the audit sees the full chain.
        tree.persist().unwrap();
        let pool2 = Arc::new(BufferPool::new(disk as Arc<dyn Disk>, 64));
        let reopened = RTree::<2>::open(pool2).unwrap();
        let report = reopened.check();
        assert!(report.is_clean(), "{report}");
        assert!(
            report.unreachable.is_empty(),
            "freed pages must be on the free chain, not leaked: {report}"
        );
        assert_eq!(report.free_pages, freed as u64);
    }

    #[test]
    fn stale_durable_root_at_freed_page_is_flagged() {
        // Reproduce the crash window: a persist's free-chain writes land
        // but the meta write does not, leaving the durable meta rooting
        // the tree at a page that is now on the free chain.
        let disk = Arc::new(MemDisk::default_size());
        let pool = Arc::new(BufferPool::new(disk.clone() as Arc<dyn Disk>, 64));
        let mut tree = RTree::<2>::create(pool, NodeCapacity::new(4).unwrap()).unwrap();
        for e in squares(64) {
            tree.insert(e.rect, e.payload).unwrap();
        }
        tree.persist().unwrap();

        // Capture the durable meta as of now (root R1).
        let meta_page = tree.store().meta_page();
        let mut old_meta = vec![0u8; disk.page_size()];
        disk.read_page(meta_page, &mut old_meta).unwrap();
        let old_root = tree.root_page();

        // Shrink the tree until the root changes and R1 is freed, then
        // persist so R1 reaches the persistent free chain.
        for e in squares(64).iter().take(60) {
            tree.delete(&e.rect, e.payload).unwrap();
        }
        assert_ne!(tree.root_page(), old_root, "root must have moved");
        tree.persist().unwrap();

        // Clean before the "crash": the durable meta matches the tree.
        assert!(tree.check().is_clean());

        // The crash: the old meta bytes come back (torn meta write).
        disk.write_page(meta_page, &old_meta).unwrap();
        let report = tree.check();
        assert!(
            report
                .alloc_issues
                .iter()
                .any(|i| i.page == old_root && i.reason.contains("stale root")),
            "stale durable root not flagged: {report}"
        );
    }

    #[test]
    fn unpersisted_root_swap_is_not_flagged() {
        // Between persists the durable root legitimately lags the live
        // one, sitting on the *session* free list with content intact —
        // that must stay clean.
        let disk = Arc::new(MemDisk::default_size());
        let pool = Arc::new(BufferPool::new(disk as Arc<dyn Disk>, 64));
        let mut tree = RTree::<2>::create(pool, NodeCapacity::new(4).unwrap()).unwrap();
        for e in squares(64) {
            tree.insert(e.rect, e.payload).unwrap();
        }
        tree.persist().unwrap();
        let old_root = tree.root_page();
        for e in squares(64).iter().take(60) {
            tree.delete(&e.rect, e.payload).unwrap();
        }
        assert_ne!(tree.root_page(), old_root);
        let report = tree.check();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn double_free_is_flagged_by_the_audit() {
        let (_d, mut tree) = packed(200);
        // Simulate the bug the audit exists to catch: a reachable page
        // lands on the free list.
        let victim = tree.root_page();
        tree.free_page(victim);
        let report = tree.check();
        assert!(!report.is_clean());
        assert!(
            report
                .alloc_issues
                .iter()
                .any(|i| i.page == victim && i.reason.contains("double free")),
            "{report}"
        );
    }
}
