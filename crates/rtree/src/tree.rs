//! The tree object: metadata, node I/O, queries, traversal, validation.

use std::collections::BinaryHeap;
use std::sync::Arc;

use geom::{Point, Rect};
use obs::{LazyCounter, LazyHistogram};
use storage::{BufferPool, PageId};

use crate::codec::RectCodec;
use crate::store::{NodeStore, TreeMeta, DEFAULT_TREE, KIND_RTREE};
use crate::{codec, Node, NodeCapacity, RTreeError, Result, SplitPolicy};

// Traversal instrumentation (all gated on `obs::enabled()`; the hot
// loop counts into locals and publishes once per query, so the cost
// when enabled is a handful of atomics per *query*, not per node).
static QUERIES: LazyCounter = LazyCounter::new("rtree.queries");
static NODES_VISITED: LazyHistogram = LazyHistogram::new("rtree.query.nodes_visited");
static LEAF_TOUCHES: LazyCounter = LazyCounter::new("rtree.query.leaf_touches");
static INTERNAL_TOUCHES: LazyCounter = LazyCounter::new("rtree.query.internal_touches");

/// A paged R-tree of dimension `D`.
///
/// All node reads and writes go through the LRU buffer pool, so buffer
/// misses during a query are exactly the paper's "disk accesses". Tree
/// metadata lives on its catalog-assigned meta page, written *directly*
/// to disk (bypassing the pool) so it never competes with nodes for
/// buffer frames — mirroring the paper's setup where the buffer holds
/// R-tree nodes only. Page acquire/release and meta persistence are delegated
/// to the shared [`NodeStore`] substrate.
///
/// ```
/// use std::sync::Arc;
/// use rtree::{NodeCapacity, RTree};
/// use storage::{BufferPool, MemDisk};
/// use geom::Rect;
///
/// let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 64));
/// let mut tree = RTree::<2>::create(pool, NodeCapacity::new(16).unwrap()).unwrap();
/// for i in 0..100u64 {
///     let x = (i % 10) as f64 / 10.0;
///     let y = (i / 10) as f64 / 10.0;
///     tree.insert(Rect::new([x, y], [x + 0.05, y + 0.05]), i).unwrap();
/// }
/// let hits = tree.query_region(&Rect::new([0.0, 0.0], [0.31, 0.11])).unwrap();
/// assert_eq!(hits.len(), 8);
/// tree.validate(true).unwrap();
/// ```
pub struct RTree<const D: usize> {
    pub(crate) store: NodeStore<RectCodec<D>>,
    cap: NodeCapacity,
    policy: SplitPolicy,
    pub(crate) root: PageId,
    /// Number of levels (1 = the root is a leaf).
    pub(crate) height: u32,
    pub(crate) len: u64,
    /// Set when a staged mutation failed partway through its commit, so
    /// the on-disk pages may mix old and new state. Mutations are
    /// refused from then on ([`RTreeError::Poisoned`]).
    pub(crate) poisoned: bool,
}

/// A pending multi-page mutation, buffered so it can be applied
/// atomically (with respect to errors) or abandoned without touching the
/// committed tree.
///
/// Mutations run in two phases. Phase 1 computes every node write into
/// this overlay, reading through it ([`RTree::staged_read`]) so the
/// operation sees its own effects; any error here aborts with the tree
/// exactly as it was. Phase 2 ([`RTree::commit_staging`]) replays the
/// writes through the buffer pool and only then adopts the new
/// root/height and releases freed pages.
pub(crate) struct Staging<const D: usize> {
    /// Ordered node writes; later writes to the same page supersede
    /// earlier ones.
    writes: Vec<(PageId, Node<D>)>,
    /// Pages acquired for the overlay (free-list pops or fresh disk
    /// allocations) — returned to the free list if the staging is
    /// abandoned.
    allocated: Vec<PageId>,
    /// Pages the mutation releases — added to the free list on commit.
    freed: Vec<PageId>,
    /// Staged root page (may differ from the committed one after a root
    /// split or collapse).
    pub(crate) root: PageId,
    /// Staged height.
    pub(crate) height: u32,
    /// Staged object count, adjusted by the operation before commit.
    pub(crate) len: u64,
}

impl<const D: usize> Staging<D> {
    /// Stage a node write.
    pub(crate) fn write(&mut self, page: PageId, node: Node<D>) {
        self.writes.push((page, node));
    }

    /// Stage a page release.
    pub(crate) fn free(&mut self, page: PageId) {
        self.freed.push(page);
    }
}

impl<const D: usize> std::fmt::Debug for RTree<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RTree")
            .field("dims", &D)
            .field("root", &self.root)
            .field("height", &self.height)
            .field("len", &self.len)
            .field("capacity", &self.cap)
            .finish_non_exhaustive()
    }
}

impl<const D: usize> RTree<D> {
    /// Create an empty tree named [`DEFAULT_TREE`] on `pool`'s disk,
    /// formatting the disk as a v2 file if it is empty.
    pub fn create(pool: Arc<BufferPool>, cap: NodeCapacity) -> Result<Self> {
        Self::create_named(pool, DEFAULT_TREE, cap)
    }

    /// Create an empty tree under `name`. An empty disk is formatted as
    /// a v2 file (superblock + allocator + catalog); a disk already
    /// holding a v2 file gains another catalog entry, so several named
    /// trees share the pages of one file.
    pub fn create_named(pool: Arc<BufferPool>, name: &str, cap: NodeCapacity) -> Result<Self> {
        Self::check_capacity(&pool, cap)?;
        let mut store = NodeStore::create(pool, name)?;
        let root = store.alloc_page()?;
        let mut tree = Self {
            store,
            cap,
            policy: SplitPolicy::default(),
            root,
            height: 1,
            len: 0,
            poisoned: false,
        };
        tree.write_node(root, &Node::new(0))?;
        tree.persist()?;
        Ok(tree)
    }

    /// Assemble a tree around an already-built root (used by the bulk
    /// loader).
    pub(crate) fn from_parts(
        store: NodeStore<RectCodec<D>>,
        cap: NodeCapacity,
        root: PageId,
        height: u32,
        len: u64,
    ) -> Self {
        Self {
            store,
            cap,
            policy: SplitPolicy::default(),
            root,
            height,
            len,
            poisoned: false,
        }
    }

    /// Reopen the [`DEFAULT_TREE`] persisted on `pool`'s disk (the
    /// file's "default" catalog entry).
    pub fn open(pool: Arc<BufferPool>) -> Result<Self> {
        Self::open_named(pool, DEFAULT_TREE)
    }

    /// Reopen the tree stored under `name`.
    pub fn open_named(pool: Arc<BufferPool>, name: &str) -> Result<Self> {
        let (store, meta) = NodeStore::open(pool, name)?;
        let meta_page = store.meta_page();
        if meta.kind != KIND_RTREE {
            return Err(RTreeError::Corrupt {
                page: meta_page,
                reason: format!(
                    "tree '{name}' is a {}, not an rtree",
                    crate::store::kind_name(meta.kind)
                ),
            });
        }
        if meta.dims as usize != D {
            return Err(RTreeError::Corrupt {
                page: meta_page,
                reason: format!("tree on disk is {}-dimensional, opened as {D}", meta.dims),
            });
        }
        let cap = NodeCapacity::with_min(meta.cap_max as usize, meta.cap_min as usize).ok_or_else(
            || RTreeError::Corrupt {
                page: meta_page,
                reason: format!("invalid capacity {}/{}", meta.cap_max, meta.cap_min),
            },
        )?;
        Self::check_capacity(store.pool(), cap)?;
        Ok(Self {
            store,
            cap,
            policy: SplitPolicy::from_tag(meta.policy),
            root: meta.root,
            height: meta.height,
            len: meta.len,
            poisoned: false,
        })
    }

    /// Write metadata to the tree's meta page (directly to disk,
    /// bypassing the buffer) and flush dirty node pages. After
    /// `persist`, [`RTree::open`] on the same disk reconstructs the
    /// tree.
    ///
    /// Pages released by deletions this session are handed to the
    /// persistent free chain here (after the meta write, so a crash can
    /// only leak them, never double-allocate) — a reopened tree reuses
    /// freed pages instead of stranding them.
    pub fn persist(&mut self) -> Result<()> {
        let meta = TreeMeta {
            kind: KIND_RTREE,
            dims: D as u32,
            root: self.root,
            height: self.height,
            len: self.len,
            cap_max: self.cap.max() as u32,
            cap_min: self.cap.min() as u32,
            policy: self.policy.tag(),
        };
        self.store.persist(&meta)
    }

    fn check_capacity(pool: &BufferPool, cap: NodeCapacity) -> Result<()> {
        let max = codec::max_capacity::<D>(pool.page_size());
        if cap.max() > max {
            return Err(RTreeError::CapacityTooLarge {
                requested: cap.max(),
                max,
            });
        }
        Ok(())
    }

    /// The buffer pool (for I/O statistics: a query's disk accesses are
    /// the pool's miss-count delta across the query).
    pub fn pool(&self) -> &Arc<BufferPool> {
        self.store.pool()
    }

    /// The node store (page allocation, meta persistence, fsck).
    pub fn store(&self) -> &NodeStore<RectCodec<D>> {
        &self.store
    }

    /// Node capacity.
    pub fn capacity(&self) -> NodeCapacity {
        self.cap
    }

    /// Split policy used by dynamic insertion.
    pub fn split_policy(&self) -> SplitPolicy {
        self.policy
    }

    /// Set the split policy for subsequent insertions.
    pub fn set_split_policy(&mut self, policy: SplitPolicy) {
        self.policy = policy;
    }

    /// Number of data objects.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree holds no data.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of levels (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Root page id.
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// MBR of the whole tree (empty rect for an empty tree).
    pub fn root_mbr(&self) -> Result<Rect<D>> {
        self.with_view(self.root, |node| node.mbr())
    }

    // ---- node I/O ----------------------------------------------------

    /// Read and decode the node on `page` through the buffer pool into an
    /// owned [`Node`] — the mutation-path representation.
    pub(crate) fn read_node(&self, page: PageId) -> Result<Node<D>> {
        let (level, entries) = self.store.read_node(page)?;
        Ok(Node { level, entries })
    }

    /// Run `f` on a zero-copy [`NodeView`](codec::NodeView) of the node
    /// on `page` — the read-path access: the page is validated in place
    /// and nothing is materialized.
    ///
    /// A shared lock on the page's frame is held while `f` runs (other
    /// readers proceed concurrently; an evictor recycling this frame
    /// would wait), so `f` must not re-enter the pool (no nested node
    /// reads): traversals collect the child pages they want and recurse
    /// after `f` returns.
    pub(crate) fn with_view<R>(
        &self,
        page: PageId,
        f: impl FnOnce(&codec::NodeView<'_, D>) -> R,
    ) -> Result<R> {
        self.store.pool().with_page(page, |bytes| {
            let view = codec::NodeView::parse(bytes, page)?;
            Ok(f(&view))
        })?
    }

    /// Encode and write `node` to `page` through the buffer pool,
    /// serializing straight into the frame (no staging buffer).
    pub(crate) fn write_node(&self, page: PageId, node: &Node<D>) -> Result<()> {
        self.store.write_node(page, node.level, &node.entries)
    }

    /// Get a page for a new node: reuse a freed page (this session's
    /// list first, then the persistent free chain) or allocate.
    pub(crate) fn alloc_page(&mut self) -> Result<PageId> {
        self.store.alloc_page()
    }

    /// Return a page to the free list (the allocator audit's tests use
    /// it to plant a double free).
    #[cfg(test)]
    pub(crate) fn free_page(&mut self, page: PageId) {
        self.store.free_page(page);
    }

    // ---- staged mutations ---------------------------------------------

    /// Whether a failed commit has poisoned the tree (see
    /// [`RTreeError::Poisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    pub(crate) fn check_poisoned(&self) -> Result<()> {
        if self.poisoned {
            Err(RTreeError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Open a staging overlay mirroring the current tree shape.
    pub(crate) fn begin_staging(&self) -> Staging<D> {
        Staging {
            writes: Vec::new(),
            allocated: Vec::new(),
            freed: Vec::new(),
            root: self.root,
            height: self.height,
            len: self.len,
        }
    }

    /// Read a node through the staging overlay: the most recent staged
    /// write wins, otherwise the node comes from the pool.
    pub(crate) fn staged_read(&self, st: &Staging<D>, page: PageId) -> Result<Node<D>> {
        for (p, node) in st.writes.iter().rev() {
            if *p == page {
                return Ok(node.clone());
            }
        }
        self.read_node(page)
    }

    /// Acquire a page for a node created during staging. Reuses the free
    /// list or allocates from disk; either way the page is unreferenced
    /// by the committed tree, so an abandoned staging can simply hand it
    /// back to the free list.
    pub(crate) fn staged_alloc(&mut self, st: &mut Staging<D>) -> Result<PageId> {
        let page = self.alloc_page()?;
        st.allocated.push(page);
        Ok(page)
    }

    /// Throw away a staging overlay. The committed tree was never
    /// touched, so this is the "clean abandonment" path after a phase-1
    /// error: pages acquired for the overlay go back to the free list
    /// and nothing else changes.
    pub(crate) fn abandon_staging(&mut self, st: Staging<D>) {
        self.store.extend_free(st.allocated);
    }

    /// Apply a staging overlay to the tree: write every staged node (in
    /// order, so later writes to a page win), then adopt the staged
    /// root/height and release the staged frees.
    ///
    /// If a write fails before anything was applied the staging is
    /// abandoned cleanly. If it fails after at least one page reached
    /// the pool, the tree now mixes old and new pages and is marked
    /// poisoned: further mutations return [`RTreeError::Poisoned`].
    pub(crate) fn commit_staging(&mut self, st: Staging<D>) -> Result<()> {
        for (applied, (page, node)) in st.writes.iter().enumerate() {
            if let Err(e) = self.write_node(*page, node) {
                if applied == 0 {
                    self.abandon_staging(st);
                } else {
                    self.poisoned = true;
                    // Leave the poisoning itself on the record, then
                    // dump everything leading up to it: this is the
                    // moment the recent-record window is worth keeping.
                    obs::trace::event("rtree.poisoned", self.root.index(), 0);
                    obs::trace::dump_to_stderr("tree poisoned mid-commit");
                }
                return Err(e);
            }
        }
        self.root = st.root;
        self.height = st.height;
        self.len = st.len;
        self.store.extend_free(st.freed);
        Ok(())
    }

    // ---- queries ------------------------------------------------------

    /// All `(rect, data-id)` pairs whose rectangle intersects `query`.
    ///
    /// This is the recursive procedure of §2.1: starting at the root,
    /// retrieve the rectangles at each node that intersect the query;
    /// recurse into the corresponding subtrees of internal nodes; report
    /// matching leaf entries.
    pub fn query_region(&self, query: &Rect<D>) -> Result<Vec<(Rect<D>, u64)>> {
        let mut out = Vec::new();
        self.query_region_visit(query, &mut |rect, id| out.push((rect, id)))?;
        Ok(out)
    }

    /// Visitor-form region query (no result allocation).
    ///
    /// Traverses through zero-copy node views: each visited page is
    /// validated once and its entries are read directly out of the
    /// buffer-pool frame, so a warm query performs no per-node heap
    /// allocation at all.
    pub fn query_region_visit(
        &self,
        query: &Rect<D>,
        visit: &mut impl FnMut(Rect<D>, u64),
    ) -> Result<()> {
        // One flag check per query; when off, the traversal below is
        // byte-identical to the uninstrumented loop (locals only).
        let track = obs::enabled();
        let _tspan = obs::trace::span("rtree.query");
        let mut nodes = 0u64;
        let mut leaves = 0u64;
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            // Per-node span: a page fetched from disk shows the read as
            // a child, giving traces the query → node → read shape.
            let _node_span = obs::trace::span("rtree.node");
            self.with_view(page, |node| {
                if track {
                    nodes += 1;
                    leaves += u64::from(node.is_leaf());
                }
                if node.is_leaf() {
                    node.for_each_intersecting(query, &mut |i, rect| {
                        visit(rect, node.payload(i));
                    });
                } else {
                    node.for_each_intersecting(query, &mut |i, _| {
                        stack.push(node.child_page(i));
                    });
                }
            })?;
        }
        if track {
            QUERIES.inc();
            NODES_VISITED.record(nodes);
            LEAF_TOUCHES.add(leaves);
            INTERNAL_TOUCHES.add(nodes - leaves);
        }
        Ok(())
    }

    /// All `(rect, data-id)` pairs whose rectangle contains `point`.
    pub fn query_point(&self, point: &Point<D>) -> Result<Vec<(Rect<D>, u64)>> {
        self.query_region(&Rect::from_point(*point))
    }

    /// Count of intersecting entries, without materializing them.
    pub fn count_region(&self, query: &Rect<D>) -> Result<u64> {
        let mut n = 0u64;
        self.query_region_visit(query, &mut |_, _| n += 1)?;
        Ok(n)
    }

    /// All entries whose rectangle lies entirely **inside** `query`
    /// (containment query). Subtrees whose MBR is fully inside the query
    /// are reported without further filtering; subtrees that merely
    /// intersect are descended.
    pub fn query_contained(&self, query: &Rect<D>) -> Result<Vec<(Rect<D>, u64)>> {
        let mut out = Vec::new();
        // (page, known_contained): once an ancestor MBR is inside the
        // query, every entry below is too.
        let mut stack = vec![(self.root, false)];
        while let Some((page, contained)) = stack.pop() {
            self.with_view(page, |node| {
                if node.is_leaf() {
                    for i in 0..node.len() {
                        let rect = node.rect(i);
                        if contained || query.contains_rect(&rect) {
                            out.push((rect, node.payload(i)));
                        }
                    }
                } else {
                    for i in 0..node.len() {
                        let rect = node.rect(i);
                        if contained || query.contains_rect(&rect) {
                            stack.push((node.child_page(i), true));
                        } else if rect.intersects(query) {
                            stack.push((node.child_page(i), false));
                        }
                    }
                }
            })?;
        }
        Ok(out)
    }

    /// All entries whose rectangle fully **encloses** `query` (enclosure
    /// query: "which zoning polygons cover this parcel?"). Only subtrees
    /// whose MBR contains the whole query can hold an enclosing entry.
    pub fn query_enclosing(&self, query: &Rect<D>) -> Result<Vec<(Rect<D>, u64)>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            self.with_view(page, |node| {
                for i in 0..node.len() {
                    let rect = node.rect(i);
                    if rect.contains_rect(query) {
                        if node.is_leaf() {
                            out.push((rect, node.payload(i)));
                        } else {
                            stack.push(node.child_page(i));
                        }
                    }
                }
            })?;
        }
        Ok(out)
    }

    /// The `k` data entries nearest to `point` (by MBR distance),
    /// nearest first. Best-first (Hjaltason–Samet) traversal — an
    /// extension beyond the paper's intersection queries.
    pub fn nearest(&self, point: &Point<D>, k: usize) -> Result<Vec<(Rect<D>, u64, f64)>> {
        #[derive(PartialEq)]
        enum Item<const D: usize> {
            Node(PageId),
            Data(Rect<D>, u64),
        }
        struct Queued<const D: usize>(f64, Item<D>);
        impl<const D: usize> PartialEq for Queued<D> {
            fn eq(&self, o: &Self) -> bool {
                self.0 == o.0
            }
        }
        impl<const D: usize> Eq for Queued<D> {}
        impl<const D: usize> PartialOrd for Queued<D> {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        impl<const D: usize> Ord for Queued<D> {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                // Reverse: BinaryHeap is a max-heap, we want nearest first.
                geom::total_cmp_f64(o.0, self.0)
            }
        }

        let mut out = Vec::with_capacity(k);
        if k == 0 || self.is_empty() {
            return Ok(out);
        }
        let mut heap: BinaryHeap<Queued<D>> = BinaryHeap::new();
        heap.push(Queued(0.0, Item::Node(self.root)));
        while let Some(Queued(dist, item)) = heap.pop() {
            match item {
                Item::Data(rect, id) => {
                    out.push((rect, id, dist.sqrt()));
                    if out.len() == k {
                        break;
                    }
                }
                Item::Node(page) => {
                    self.with_view(page, |node| {
                        for i in 0..node.len() {
                            let rect = node.rect(i);
                            let d = rect.min_dist2(point);
                            let item = if node.is_leaf() {
                                Item::Data(rect, node.payload(i))
                            } else {
                                Item::Node(node.child_page(i))
                            };
                            heap.push(Queued(d, item));
                        }
                    })?;
                }
            }
        }
        Ok(out)
    }

    // ---- traversal ----------------------------------------------------

    /// Visit every node, parents before children, through zero-copy
    /// views — no `Vec<Entry>` is materialized per node. A shared frame
    /// lock is held during each callback, so `visit` must not touch the
    /// pool.
    pub fn visit_views(
        &self,
        visit: &mut impl FnMut(PageId, &codec::NodeView<'_, D>),
    ) -> Result<()> {
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            self.with_view(page, |node| {
                if !node.is_leaf() {
                    for i in 0..node.len() {
                        stack.push(node.child_page(i));
                    }
                }
                visit(page, node);
            })?;
        }
        Ok(())
    }

    /// MBRs of all nodes at `level` (0 = leaves). Used for the paper's
    /// Figures 2–4 (leaf MBR plots) and the area/perimeter tables.
    pub fn level_mbrs(&self, level: u32) -> Result<Vec<Rect<D>>> {
        let mut out = Vec::new();
        self.visit_views(&mut |_, node| {
            if node.level() == level {
                out.push(node.mbr());
            }
        })?;
        Ok(out)
    }

    /// Every leaf data entry in the tree.
    pub fn all_entries(&self) -> Result<Vec<(Rect<D>, u64)>> {
        let mut out = Vec::with_capacity(self.len as usize);
        self.visit_views(&mut |_, node| {
            if node.is_leaf() {
                out.extend(node.entries().map(|e| (e.rect, e.payload)));
            }
        })?;
        Ok(out)
    }

    /// Total number of node pages (all levels).
    pub fn node_count(&self) -> Result<u64> {
        let mut n = 0;
        self.visit_views(&mut |_, _| n += 1)?;
        Ok(n)
    }

    /// Pin the top `levels` levels of the tree (1 = the root only) into
    /// the buffer pool, returning the pinned pages. The §3 alternative
    /// buffering policy: "pin the root and some number of the first few
    /// R-tree levels and then use an LRU scheme for the remaining nodes."
    ///
    /// The caller must [`unpin_pages`](Self::unpin_pages) before clearing
    /// or resizing the pool. Fails with `AllFramesPinned` if the pinned
    /// set would not leave a free frame.
    pub fn pin_levels(&self, levels: u32) -> Result<Vec<PageId>> {
        let mut pinned = Vec::new();
        if let Err(e) = self.pin_levels_inner(levels, &mut pinned) {
            // A mid-traversal failure must release every pin already
            // taken — the caller gets an Err, not the list.
            self.unpin_pages(&pinned);
            return Err(e);
        }
        Ok(pinned)
    }

    fn pin_levels_inner(&self, levels: u32, pinned: &mut Vec<PageId>) -> Result<()> {
        let cutoff = self.height.saturating_sub(levels);
        let mut stack = vec![self.root];
        let mut children = Vec::new();
        while let Some(page) = stack.pop() {
            // The view closure only collects child ids: pinning re-enters
            // the pool, so it waits until the frame lock is released.
            let level = self.with_view(page, |node| {
                if node.level() > cutoff {
                    children.extend((0..node.len()).map(|i| node.child_page(i)));
                }
                node.level()
            })?;
            if level < cutoff {
                continue; // only a root below the cut: nothing collected
            }
            self.store.pool().pin(page)?;
            pinned.push(page);
            stack.append(&mut children);
        }
        Ok(())
    }

    /// Release pins taken by [`pin_levels`](Self::pin_levels).
    pub fn unpin_pages(&self, pages: &[PageId]) {
        for &p in pages {
            self.store.pool().unpin(p);
        }
    }

    // ---- validation ---------------------------------------------------

    /// Check the structural invariants:
    ///
    /// 1. every child of a level-`l` node is at level `l − 1`;
    /// 2. every internal entry's rectangle is exactly the MBR of its
    ///    child's entries (tightness);
    /// 3. no node exceeds the capacity maximum, and (when
    ///    `enforce_min_fill`) every non-root node has at least the
    ///    capacity minimum — packed trees legitimately violate the
    ///    minimum in their final node per level, so it is optional;
    /// 4. the recorded length equals the number of leaf entries;
    /// 5. the recorded height equals the root's level + 1;
    /// 6. no page is reachable twice (the "tree" is a tree).
    pub fn validate(&self, enforce_min_fill: bool) -> Result<()> {
        let mut seen = std::collections::HashSet::new();
        let mut leaf_entries = 0u64;
        let root_level = self.with_view(self.root, |node| node.level())?;
        if root_level + 1 != self.height {
            return Err(RTreeError::Invalid(format!(
                "height {} but root level {}",
                self.height, root_level
            )));
        }
        // Each frame carries what the parent recorded about the child
        // (MBR and identity), so the child is checked when it is popped —
        // one pool request per node, never a nested read while the
        // parent's frame is borrowed.
        struct Pending<const D: usize> {
            page: PageId,
            expected_mbr: Option<Rect<D>>,
            parent: Option<(PageId, u32)>,
        }
        let mut stack: Vec<Pending<D>> = vec![Pending {
            page: self.root,
            expected_mbr: None,
            parent: None,
        }];
        while let Some(Pending {
            page,
            expected_mbr,
            parent,
        }) = stack.pop()
        {
            if !seen.insert(page) {
                return Err(RTreeError::Invalid(format!("{page} reachable twice")));
            }
            let is_root = page == self.root;
            let cap = self.cap;
            self.with_view(page, |node| {
                if let Some((parent_page, parent_level)) = parent {
                    if node.level() + 1 != parent_level {
                        return Err(RTreeError::Invalid(format!(
                            "{parent_page} (level {parent_level}) points at {page} (level {})",
                            node.level()
                        )));
                    }
                }
                if node.len() > cap.max() {
                    return Err(RTreeError::Invalid(format!(
                        "{page} holds {} entries, max {}",
                        node.len(),
                        cap.max()
                    )));
                }
                if enforce_min_fill && !is_root && node.len() < cap.min() {
                    return Err(RTreeError::Invalid(format!(
                        "{page} holds {} entries, min {}",
                        node.len(),
                        cap.min()
                    )));
                }
                if is_root && !node.is_leaf() && node.len() < 2 {
                    return Err(RTreeError::Invalid(
                        "internal root with fewer than 2 children".into(),
                    ));
                }
                if let Some(expected) = expected_mbr {
                    let actual = node.mbr();
                    if actual != expected {
                        return Err(RTreeError::Invalid(format!(
                            "{page}: parent records MBR {expected}, node is {actual}"
                        )));
                    }
                }
                if node.is_leaf() {
                    leaf_entries += node.len() as u64;
                } else {
                    for i in 0..node.len() {
                        stack.push(Pending {
                            page: node.child_page(i),
                            expected_mbr: Some(node.rect(i)),
                            parent: Some((page, node.level())),
                        });
                    }
                }
                Ok(())
            })??;
        }
        if leaf_entries != self.len {
            return Err(RTreeError::Invalid(format!(
                "recorded len {} but found {leaf_entries} leaf entries",
                self.len
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::MemDisk;

    fn new_tree(cap: usize) -> RTree<2> {
        let disk = Arc::new(MemDisk::default_size());
        let pool = Arc::new(BufferPool::new(disk, 64));
        RTree::create(pool, NodeCapacity::new(cap).unwrap()).unwrap()
    }

    #[test]
    fn empty_tree() {
        let t = new_tree(4);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.root_mbr().unwrap().is_empty());
        assert!(t.query_region(&Rect::unit()).unwrap().is_empty());
        assert!(t.nearest(&Point::new([0.5, 0.5]), 3).unwrap().is_empty());
        t.validate(true).unwrap();
    }

    #[test]
    fn capacity_exceeding_page_rejected() {
        let disk = Arc::new(MemDisk::new(256));
        let pool = Arc::new(BufferPool::new(disk, 4));
        // 256-byte pages hold (256-24)/40 = 5 two-dimensional entries.
        let err = RTree::<2>::create(pool, NodeCapacity::new(100).unwrap()).unwrap_err();
        assert!(matches!(err, RTreeError::CapacityTooLarge { max: 5, .. }));
    }

    #[test]
    fn persist_and_reopen_empty() {
        let disk = Arc::new(MemDisk::default_size());
        let pool = Arc::new(BufferPool::new(disk.clone() as Arc<dyn storage::Disk>, 16));
        let mut t = RTree::<2>::create(pool, NodeCapacity::new(10).unwrap()).unwrap();
        t.persist().unwrap();
        let pool2 = Arc::new(BufferPool::new(disk as Arc<dyn storage::Disk>, 16));
        let t2 = RTree::<2>::open(pool2).unwrap();
        assert_eq!(t2.len(), 0);
        assert_eq!(t2.height(), 1);
        assert_eq!(t2.capacity().max(), 10);
    }

    #[test]
    fn open_wrong_dimension_fails() {
        let disk = Arc::new(MemDisk::default_size());
        let pool = Arc::new(BufferPool::new(disk.clone() as Arc<dyn storage::Disk>, 16));
        let mut t = RTree::<2>::create(pool, NodeCapacity::new(10).unwrap()).unwrap();
        t.persist().unwrap();
        let pool2 = Arc::new(BufferPool::new(disk as Arc<dyn storage::Disk>, 16));
        assert!(RTree::<3>::open(pool2).is_err());
    }
}
