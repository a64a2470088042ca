//! The in-memory write buffer: Hilbert-keyed rectangles in sorted
//! chunks behind an unsorted append tail, curve-sorted when drained,
//! plus the tombstones of deletes that target older copies.
//!
//! Each item carries the Hilbert index of its rectangle's center (the
//! order-preserving f64 embedding from [`hilbert`]) computed at insert
//! time; [`Memtable::items_ordered`] sorts by that key (plus a unique
//! sequence number, so equal centers never collide) to give a
//! compaction drain the space-filling-curve order it wants.
//!
//! Items are stored column-wise: per-axis `min`/`max` coordinate
//! columns plus one parallel column of `(key, seq, id)`. Appends go to
//! an unsorted tail. When the tail reaches [`CHUNK`] rows they are
//! sorted once along the curve and become a chunk, and each run of
//! [`BLOCK`] rows of a chunk gets one MBR in per-axis block columns.
//! Rows near each other on the curve are near in space, so the block
//! MBRs are small. A query runs
//! [`geom::SoaRects::for_each_intersecting`], the kernel the flat and
//! paged tiers prune with, over the block MBRs, then over the rows of
//! the blocks that hit and over the whole tail, and rebuilds only the
//! hits as [`Rect`]s. This is the "Simpler is Faster" recipe: sort along
//! a space-filling curve and scan only the blocks that meet the query.
//! A block MBR is a superset of its rows, never necessarily tight: a
//! delete that pulls a tail row into a chunk widens the block that
//! receives it, and a chunk is never re-sorted in place. The memtable
//! is capped at a few thousand items and rebuilt from the WAL on every
//! recovery, and the drain still sorts everything once, which is noise
//! next to the STR pack that follows it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use geom::{Rect, SoaRects};
use hilbert::hilbert_index_f64;
use obs::LazyHistogram;
use parking_lot::RwLock;
use rtree::{IndexStats, SpatialIndex};

/// Block MBRs plus rows tested by one memtable scan. Counted in locals
/// and recorded once per scan, only while metrics are enabled.
static ROWS_TESTED: LazyHistogram = LazyHistogram::new("lsm.memtable.rows_tested");

/// Rows sorted together once the unsorted tail reaches this length.
/// Chosen by a sweep of 256, 512 and 1024 (DESIGN §15): a larger chunk
/// gives tighter block MBRs, and the sort that makes it holds the
/// memtable's write lock longer.
const CHUNK: usize = 1024;

/// Rows of a sorted chunk covered by one block MBR.
const BLOCK: usize = 16;

/// Low bits of a chunk sort key, which hold the row's place in its
/// chunk; the Hilbert key's top `64 - ROW_BITS` bits fill the rest.
const ROW_BITS: u32 = usize::BITS - (CHUNK - 1).leading_zeros();

const _: () = assert!(CHUNK.is_multiple_of(BLOCK));

/// Approximate in-memory bytes per item (Hilbert key + seq + rect +
/// payload), for the `lsm.memtable_bytes` gauge and the
/// byte-denominated seal threshold.
pub(crate) fn entry_bytes<const D: usize>() -> u64 {
    (16 + 8 + 2 * 8 * D + 8) as u64
}

/// A Hilbert-keyed in-memory rectangle buffer.
///
/// Items form a multiset of `(rect, id)` pairs. A delete removes one
/// copy held here if there is one, and otherwise records a tombstone
/// that shadows one copy in an older component (the sealed memtable or
/// a flat level); compaction folds tombstones out. Thread-safe —
/// mutations serialize on an internal writer lock; query scans share a
/// read lock so concurrent readers never queue behind each other.
pub struct Memtable<const D: usize> {
    tables: RwLock<Tables<D>>,
    seq: AtomicU64,
    count: AtomicU64,
    tombs: AtomicU64,
}

/// The item columns, all of one length (item `i` is row `i` of each),
/// their block MBRs, and the tombstones.
///
/// Rows `..sorted` are whole chunks of [`CHUNK`] rows, each sorted by
/// `(key, seq)` when it filled; rows `sorted..` are the unsorted tail,
/// always shorter than a chunk. Block `b` covers rows
/// `b * BLOCK..(b + 1) * BLOCK` of the chunks, and its MBR contains
/// every one of them.
struct Tables<const D: usize> {
    mins: [Vec<f64>; D],
    maxs: [Vec<f64>; D],
    /// `(hilbert_key, seq, id)` of each item.
    keys: Vec<(u128, u64, u64)>,
    sorted: usize,
    block_mins: [Vec<f64>; D],
    block_maxs: [Vec<f64>; D],
    /// Scratch for a chunk sort, kept so a warm memtable allocates
    /// nothing: the sort keys, and one permuted column.
    order: Vec<u64>,
    spare: Vec<f64>,
    spare_keys: Vec<(u128, u64, u64)>,
    tombs: Vec<(Rect<D>, u64)>,
}

impl<const D: usize> Memtable<D> {
    /// An empty memtable.
    pub fn new() -> Self {
        Self {
            tables: RwLock::new(Tables::new()),
            seq: AtomicU64::new(0),
            count: AtomicU64::new(0),
            tombs: AtomicU64::new(0),
        }
    }

    /// Insert one rectangle. Equal Hilbert keys are disambiguated by an
    /// internal sequence number, so nothing is ever overwritten.
    ///
    /// `rect` must pass [`Rect::try_new`] (no empty or NaN rectangle):
    /// the scan kernel would count an empty slot as a hit for a query
    /// spanning every axis, and hits are rebuilt unchecked.
    /// [`LsmTree::insert_batch`](crate::LsmTree::insert_batch) rejects
    /// such rectangles before they reach the log.
    pub fn insert(&self, rect: Rect<D>, id: u64) {
        debug_assert!(Rect::try_new(*rect.min(), *rect.max()).is_ok());
        let key = hilbert_index_f64(&center(&rect));
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut t = self.tables.write();
        for a in 0..D {
            t.mins[a].push(rect.lo(a));
            t.maxs[a].push(rect.hi(a));
        }
        t.keys.push((key, seq, id));
        if t.keys.len() - t.sorted == CHUNK {
            t.sort_chunk();
        }
        drop(t);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Delete one copy of `(rect, id)`: remove a copy held here if there
    /// is one, otherwise record a tombstone for an older copy. The
    /// caller has checked that a copy is live.
    ///
    /// Of several held copies, the one inserted first (lowest sequence
    /// number) goes. Chunk sorts reorder rows, so storage order says
    /// nothing about history; the rule keeps which copies remain, and so
    /// [`Memtable::items_ordered`] and the segment a drain writes, a
    /// function of the operations alone.
    pub(crate) fn delete(&self, rect: &Rect<D>, id: u64) {
        let mut t = self.tables.write();
        let at = t.held(rect, id).min_by_key(|&i| t.keys[i].1);
        match at {
            Some(at) => {
                t.swap_remove(at);
                self.count.fetch_sub(1, Ordering::Relaxed);
            }
            None => {
                t.tombs.push((*rect, id));
                self.tombs.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// `(copies held, tombstones)` of `(rect, id)` in this memtable.
    pub(crate) fn copies(&self, rect: &Rect<D>, id: u64) -> (u64, u64) {
        let t = self.tables.read();
        let held = t.held(rect, id).count();
        let shadowing = t.tombs.iter().filter(|&&(r, i)| i == id && r == *rect);
        (held as u64, shadowing.count() as u64)
    }

    /// Number of items held (tombstones excluded).
    pub fn len(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Number of tombstones.
    pub(crate) fn tombstones(&self) -> u64 {
        self.tombs.load(Ordering::Relaxed)
    }

    /// Items plus tombstones: what the seal threshold counts.
    pub(crate) fn entries(&self) -> u64 {
        self.len() + self.tombstones()
    }

    /// Whether the memtable holds neither items nor tombstones.
    pub fn is_empty(&self) -> bool {
        self.entries() == 0
    }

    /// Approximate heap footprint, for the seal threshold and gauge.
    pub fn approx_bytes(&self) -> u64 {
        self.entries() * entry_bytes::<D>()
    }

    /// Every item in Hilbert order — the drain input for a compaction.
    pub fn items_ordered(&self) -> Vec<(Rect<D>, u64)> {
        let t = self.tables.read();
        let k = &t.keys;
        let mut order: Vec<usize> = (0..k.len()).collect();
        order.sort_unstable_by_key(|&i| (k[i].0, k[i].1));
        order.into_iter().map(|i| (t.rect(i), k[i].2)).collect()
    }

    /// Every tombstone, in delete order.
    pub(crate) fn tombstone_items(&self) -> Vec<(Rect<D>, u64)> {
        self.tables.read().tombs.clone()
    }

    /// Visit the items intersecting `query` and add the tombstones
    /// intersecting it to `shadow`, both under one read lock, so a query
    /// sees this memtable at a single point in time.
    pub(crate) fn scan(
        &self,
        query: &Rect<D>,
        visit: &mut dyn FnMut(Rect<D>, u64),
        shadow: &mut Shadow<D>,
    ) {
        let t = self.tables.read();
        t.for_each(query, visit);
        t.shadow(query, shadow);
    }

    /// Add the tombstones intersecting `query` to `shadow`.
    pub(crate) fn shadow(&self, query: &Rect<D>, shadow: &mut Shadow<D>) {
        self.tables.read().shadow(query, shadow);
    }
}

impl<const D: usize> Tables<D> {
    fn new() -> Self {
        let cols = || std::array::from_fn(|_| Vec::new());
        Self {
            mins: cols(),
            maxs: cols(),
            keys: Vec::new(),
            sorted: 0,
            block_mins: cols(),
            block_maxs: cols(),
            order: Vec::new(),
            spare: Vec::new(),
            spare_keys: Vec::new(),
            tombs: Vec::new(),
        }
    }

    /// Item `i` as a [`Rect`]; [`Memtable::insert`] admits only valid
    /// rectangles.
    fn rect(&self, i: usize) -> Rect<D> {
        Rect::from_validated(
            std::array::from_fn(|a| self.mins[a][i]),
            std::array::from_fn(|a| self.maxs[a][i]),
        )
    }

    /// The rows holding a copy of `(rect, id)`: the id column is tested
    /// first, the coordinates only where the id matches.
    fn held<'a>(&'a self, rect: &'a Rect<D>, id: u64) -> impl Iterator<Item = usize> + 'a {
        (0..self.keys.len()).filter(move |&i| self.keys[i].2 == id && self.rect(i) == *rect)
    }

    /// Sort the full tail along the curve into a chunk and append its
    /// block MBRs. Every column is permuted through the scratch buffers.
    ///
    /// The sort key is the Hilbert key's top bits with the row's place
    /// in the chunk below them ([`ROW_BITS`]): one `u64` per row, so the
    /// sort, which runs under the write lock, compares plain words. Only
    /// block locality depends on this order; the drain sorts by the full
    /// `(key, seq)` anyway.
    fn sort_chunk(&mut self) {
        let rows = self.sorted..self.sorted + CHUNK;
        debug_assert_eq!(rows.end, self.keys.len());
        self.order.clear();
        let keyed = self.keys[rows.clone()].iter().enumerate();
        self.order.extend(
            keyed.map(|(j, &(key, ..))| ((key >> (64 + ROW_BITS)) as u64) << ROW_BITS | j as u64),
        );
        self.order.sort_unstable();
        let from = |&o: &u64| rows.start + (o & ((1 << ROW_BITS) - 1)) as usize;
        for col in self.mins.iter_mut().chain(self.maxs.iter_mut()) {
            self.spare.clear();
            self.spare.extend(self.order.iter().map(|o| col[from(o)]));
            col[rows.clone()].copy_from_slice(&self.spare);
        }
        self.spare_keys.clear();
        let keys = &self.keys;
        self.spare_keys
            .extend(self.order.iter().map(|o| keys[from(o)]));
        self.keys[rows.clone()].copy_from_slice(&self.spare_keys);
        for start in rows.step_by(BLOCK) {
            let block = start..start + BLOCK;
            for a in 0..D {
                let lo = self.mins[a][block.clone()].iter().copied();
                let hi = self.maxs[a][block.clone()].iter().copied();
                self.block_mins[a].push(lo.fold(f64::INFINITY, f64::min));
                self.block_maxs[a].push(hi.fold(f64::NEG_INFINITY, f64::max));
            }
        }
        self.sorted += CHUNK;
    }

    /// Remove item `i` from every column, moving the last item into its
    /// row. With no tail row to move, the last chunk first becomes the
    /// tail and its block MBRs go; a tail row moved into a chunk widens
    /// its block's MBR, so every block MBR stays a superset of its rows.
    fn swap_remove(&mut self, i: usize) {
        if self.sorted > 0 && self.sorted == self.keys.len() {
            self.sorted -= CHUNK;
            for a in 0..D {
                self.block_mins[a].truncate(self.sorted / BLOCK);
                self.block_maxs[a].truncate(self.sorted / BLOCK);
            }
        }
        for a in 0..D {
            self.mins[a].swap_remove(i);
            self.maxs[a].swap_remove(i);
        }
        self.keys.swap_remove(i);
        if i < self.sorted {
            let b = i / BLOCK;
            for a in 0..D {
                self.block_mins[a][b] = self.block_mins[a][b].min(self.mins[a][i]);
                self.block_maxs[a][b] = self.block_maxs[a][b].max(self.maxs[a][i]);
            }
        }
    }

    /// Visit the items intersecting `query` through the shared SoA
    /// kernel: over the block MBRs, then over the rows of each hit
    /// block, then over the whole tail. No item is empty,
    /// as the kernel requires, and so no block MBR is either.
    fn for_each(&self, query: &Rect<D>, visit: &mut dyn FnMut(Rect<D>, u64)) {
        let track = obs::enabled();
        let rows = SoaRects::new(
            std::array::from_fn(|a| self.mins[a].as_slice()),
            std::array::from_fn(|a| self.maxs[a].as_slice()),
        );
        let blocks = SoaRects::new(
            std::array::from_fn(|a| self.block_mins[a].as_slice()),
            std::array::from_fn(|a| self.block_maxs[a].as_slice()),
        );
        let mut tested = blocks.len() as u64;
        let mut scan = |start: usize, end: usize| {
            if track {
                tested += (end - start) as u64;
            }
            rows.for_each_intersecting(start, end, query, &mut |i| {
                visit(self.rect(i), self.keys[i].2)
            });
        };
        blocks.for_each_intersecting(0, blocks.len(), query, &mut |b| {
            scan(b * BLOCK, (b + 1) * BLOCK)
        });
        scan(self.sorted, rows.len());
        if track {
            ROWS_TESTED.record(tested);
        }
    }

    fn shadow(&self, query: &Rect<D>, shadow: &mut Shadow<D>) {
        if self.tombs.is_empty() {
            return;
        }
        for &(rect, id) in &self.tombs {
            if rect.intersects(query) {
                shadow.add(rect, id);
            }
        }
    }
}

impl<const D: usize> Default for Memtable<D> {
    fn default() -> Self {
        Self::new()
    }
}

fn center<const D: usize>(rect: &Rect<D>) -> [f64; D] {
    std::array::from_fn(|a| rect.center_coord(a))
}

/// A multiset of tombstoned `(rect, id)` pairs; each one takes out one
/// matching copy. Every copy of a pair has the same rectangle, so a
/// query meets either all of a pair's copies and tombstones or none.
#[derive(Default)]
pub(crate) struct Shadow<const D: usize> {
    by_id: HashMap<u64, Vec<(Rect<D>, u64)>>,
}

impl<const D: usize> Shadow<D> {
    pub(crate) fn add(&mut self, rect: Rect<D>, id: u64) {
        let pairs = self.by_id.entry(id).or_default();
        match pairs.iter_mut().find(|(r, _)| *r == rect) {
            Some((_, n)) => *n += 1,
            None => pairs.push((rect, 1)),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Whether a tombstone takes out this copy (consuming it if so).
    pub(crate) fn take(&mut self, rect: &Rect<D>, id: u64) -> bool {
        let Some(pairs) = self.by_id.get_mut(&id) else {
            return false;
        };
        match pairs.iter_mut().find(|(r, n)| r == rect && *n > 0) {
            Some((_, n)) => {
                *n -= 1;
                true
            }
            None => false,
        }
    }

    /// Tombstones that found no copy to take out.
    pub(crate) fn unspent(&self) -> u64 {
        self.by_id.values().flatten().map(|&(_, n)| n).sum()
    }
}

impl<const D: usize> SpatialIndex<D> for Memtable<D> {
    fn for_each_intersecting(
        &self,
        query: &Rect<D>,
        visit: &mut dyn FnMut(Rect<D>, u64),
    ) -> rtree::Result<()> {
        self.tables.read().for_each(query, visit);
        Ok(())
    }

    fn len(&self) -> u64 {
        Memtable::len(self)
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            backend: "memtable",
            len: Memtable::len(self),
            levels: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn iteration_is_hilbert_ordered_and_queries_scan() {
        let mt = Memtable::<2>::new();
        // Insert in reverse spatial order; the drain must be curve order.
        for i in (0..64u64).rev() {
            let x = (i % 8) as f64;
            let y = (i / 8) as f64;
            mt.insert(Rect::new([x, y], [x + 0.5, y + 0.5]), i);
        }
        assert_eq!(mt.len(), 64);
        let items = mt.items_ordered();
        let keys: Vec<u128> = items
            .iter()
            .map(|(r, _)| hilbert_index_f64(&center(r)))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "not curve-sorted");

        let idx: &dyn SpatialIndex<2> = &mt;
        let hits = idx.query(&Rect::new([0.0, 0.0], [1.75, 0.75])).unwrap();
        let mut got: Vec<u64> = hits.iter().map(|&(_, id)| id).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
        assert_eq!(idx.stats().backend, "memtable");
    }

    #[test]
    fn duplicate_centers_are_kept() {
        let mt = Memtable::<2>::new();
        let r = Rect::new([1.0, 1.0], [2.0, 2.0]);
        mt.insert(r, 7);
        mt.insert(r, 8);
        assert_eq!(mt.len(), 2);
        assert_eq!(mt.items_ordered().len(), 2);
    }

    #[test]
    fn delete_removes_a_held_copy_or_records_a_tombstone() {
        let mt = Memtable::<2>::new();
        let r = Rect::new([1.0, 1.0], [2.0, 2.0]);
        mt.insert(r, 7);
        mt.insert(r, 7);
        mt.delete(&r, 7);
        assert_eq!((mt.len(), mt.tombstones()), (1, 0));
        assert_eq!(mt.copies(&r, 7), (1, 0));
        mt.delete(&r, 7);
        // Nothing left here: the next delete shadows an older copy.
        mt.delete(&r, 7);
        assert_eq!((mt.len(), mt.tombstones(), mt.entries()), (0, 1, 1));
        assert_eq!(mt.copies(&r, 7), (0, 1));
        assert!(!mt.is_empty());
        assert_eq!(mt.tombstone_items(), vec![(r, 7)]);
        assert!(mt.items_ordered().is_empty());

        let mut seen = Vec::new();
        let mut shadow = Shadow::default();
        mt.scan(
            &Rect::new([0.0, 0.0], [5.0, 5.0]),
            &mut |_, id| seen.push(id),
            &mut shadow,
        );
        assert!(seen.is_empty());
        assert!(shadow.take(&r, 7), "the tombstone takes out one copy");
        assert!(!shadow.take(&r, 7), "and only one");
        assert!(!shadow.take(&Rect::new([1.0, 1.0], [2.0, 3.0]), 7));
        assert_eq!(shadow.unspent(), 0);
    }

    #[test]
    fn drain_order_is_stable_for_equal_keys() {
        let mt = Memtable::<2>::new();
        let r = Rect::new([3.0, 3.0], [4.0, 4.0]);
        for id in 0..8u64 {
            mt.insert(r, id);
        }
        let ids: Vec<u64> = mt.items_ordered().iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>(), "seq must break key ties");
    }

    /// Coordinates the oracle's rectangles and queries are built from:
    /// few enough that `(rect, id)` pairs repeat, queries often meet an
    /// item only on a shared boundary, and zero-area rectangles
    /// (`lo == hi`) and ±∞ corners are common.
    const GRID: [f64; 6] = [f64::NEG_INFINITY, 0.0, 1.0, 1.5, 2.0, f64::INFINITY];

    /// A grid rectangle: 6 bits of `bits` per axis pick its two corners.
    fn grid_rect<const D: usize>(bits: u32) -> Rect<D> {
        let pick = |a: usize| {
            let x = (bits >> (6 * a)) as usize & 63;
            let (p, q) = (GRID[x % 6], GRID[(x / 6) % 6]);
            (p.min(q), p.max(q))
        };
        Rect::new(
            std::array::from_fn(|a| pick(a).0),
            std::array::from_fn(|a| pick(a).1),
        )
    }

    /// The brute-force model: items, each with its `(key, seq)` drain
    /// order, and the tombstones. A delete takes out the held copy with
    /// the lowest sequence number, as the memtable's does, so the drain
    /// order of equal pairs is exact.
    #[derive(Default)]
    struct Model<const D: usize> {
        items: Vec<(Rect<D>, u64, (u128, u64))>,
        tombs: Vec<(Rect<D>, u64)>,
        seq: u64,
    }

    impl<const D: usize> Model<D> {
        fn insert(&mut self, rect: Rect<D>, id: u64) {
            let key = hilbert_index_f64(&center(&rect));
            self.items.push((rect, id, (key, self.seq)));
            self.seq += 1;
        }

        fn delete(&mut self, rect: Rect<D>, id: u64) {
            // Copies of one pair share a key, so the least `(key, seq)`
            // is the lowest sequence number.
            let held = self.items.iter().enumerate();
            let oldest = held
                .filter(|&(_, &(r, i, _))| i == id && r == rect)
                .min_by_key(|&(_, &(.., order))| order);
            match oldest {
                Some((at, _)) => {
                    self.items.swap_remove(at);
                }
                None => self.tombs.push((rect, id)),
            }
        }

        /// The items in `(key, seq)` order, as a drain wants them.
        fn ordered(&self) -> Vec<(Rect<D>, u64)> {
            let mut items = self.items.clone();
            items.sort_by_key(|&(.., order)| order);
            items.into_iter().map(|(r, id, _)| (r, id)).collect()
        }

        fn held(&self, bits: u32) -> Option<(Rect<D>, u64)> {
            let n = self.items.len();
            (n > 0).then(|| {
                let (r, id, _) = self.items[bits as usize % n];
                (r, id)
            })
        }
    }

    type Key<const D: usize> = (u64, [f64; D], [f64; D]);

    fn sorted<const D: usize>(pairs: impl IntoIterator<Item = (Rect<D>, u64)>) -> Vec<Key<D>> {
        let mut keys: Vec<Key<D>> = pairs
            .into_iter()
            .map(|(r, id)| (id, *r.min(), *r.max()))
            .collect();
        keys.sort_by(|a, b| a.partial_cmp(b).unwrap());
        keys
    }

    /// A memtable and the model driven in lockstep; every operation
    /// checks the counters, and every read is checked against brute
    /// force.
    struct Oracle<const D: usize> {
        mt: Memtable<D>,
        model: Model<D>,
    }

    impl<const D: usize> Oracle<D> {
        fn new() -> Self {
            Self {
                mt: Memtable::new(),
                model: Model::default(),
            }
        }

        fn counters(&self) -> TestCaseResult {
            prop_assert_eq!(self.mt.len(), self.model.items.len() as u64);
            prop_assert_eq!(self.mt.tombstones(), self.model.tombs.len() as u64);
            Ok(())
        }

        fn insert(&mut self, rect: Rect<D>, id: u64) -> TestCaseResult {
            self.mt.insert(rect, id);
            self.model.insert(rect, id);
            self.counters()
        }

        fn delete(&mut self, rect: Rect<D>, id: u64) -> TestCaseResult {
            self.mt.delete(&rect, id);
            self.model.delete(rect, id);
            self.counters()
        }

        /// `scan` with its tombstones and the `SpatialIndex` scan.
        fn query(&self, q: &Rect<D>) -> TestCaseResult {
            let mut hits = Vec::new();
            let mut shadow = Shadow::default();
            self.mt
                .scan(q, &mut |r, id| hits.push((r, id)), &mut shadow);
            let want = self.model.items.iter().filter(|(r, ..)| r.intersects(q));
            let want = sorted(want.map(|&(r, id, _)| (r, id)));
            prop_assert_eq!(sorted(hits), want.clone(), "scan of {:?}", q);
            let shadowing = self.model.tombs.iter().filter(|(r, _)| r.intersects(q));
            prop_assert_eq!(shadow.unspent(), shadowing.count() as u64);
            let idx: &dyn SpatialIndex<D> = &self.mt;
            prop_assert_eq!(sorted(idx.query(q).unwrap()), want);
            Ok(())
        }

        fn copies(&self, rect: Rect<D>, id: u64) -> TestCaseResult {
            let model = &self.model;
            let held = model
                .items
                .iter()
                .filter(|&&(r, i, _)| i == id && r == rect);
            let tombs = model.tombs.iter().filter(|&&(r, i)| i == id && r == rect);
            let want = (held.count() as u64, tombs.count() as u64);
            prop_assert_eq!(self.mt.copies(&rect, id), want);
            Ok(())
        }

        fn drain(&self) -> TestCaseResult {
            prop_assert_eq!(self.mt.items_ordered(), self.model.ordered());
            prop_assert_eq!(self.mt.tombstone_items(), self.model.tombs.clone());
            Ok(())
        }
    }

    /// Run `prefill` inserts of distinct small squares over the grid's
    /// finite span, in an order drawn from `seed`, then `ops`, against a
    /// memtable and the model, checking every read — `scan` with its
    /// tombstones, the `SpatialIndex` scan, `copies`, `items_ordered`
    /// and the counters — against brute force.
    fn check_against_model<const D: usize>(
        prefill: usize,
        seed: u32,
        ops: &[(u8, u32, u64)],
    ) -> TestCaseResult {
        let mut o = Oracle::<D>::new();
        for i in 0..prefill as u64 {
            let k = (i + u64::from(seed)) * 7919 % prefill as u64;
            let c = cell::<D>(k);
            let r = Rect::new(c.min().map(|x| x / 16.0), c.max().map(|x| x / 16.0));
            o.insert(r, 4 + k)?;
        }
        for &(kind, bits, id) in ops {
            match kind {
                0..=2 => o.insert(grid_rect(bits), id)?,
                3 => {
                    if let Some((r, id)) = o.model.held(bits) {
                        o.insert(r, id)?;
                    }
                }
                4 | 5 => {
                    let (r, id) = match o.model.held(bits) {
                        Some(pair) if kind == 4 => pair,
                        _ => (grid_rect(bits), id),
                    };
                    o.delete(r, id)?;
                }
                6 => o.query(&grid_rect(bits))?,
                7 => o.query(&Rect::new([f64::NEG_INFINITY; D], [f64::INFINITY; D]))?,
                8 => {
                    let (r, id) = match o.model.held(bits) {
                        Some(pair) if bits % 2 == 0 => pair,
                        _ => (grid_rect(bits), id),
                    };
                    o.copies(r, id)?;
                }
                _ => o.drain()?,
            }
        }
        o.drain()
    }

    /// Inserts before the random operations: none in three cases of
    /// four, else one or two chunks and a short tail, so random inserts
    /// complete chunks and random deletes pull the tail into sorted
    /// chunks, empty it, and return chunks to it.
    fn prefill() -> impl Strategy<Value = (usize, u32)> {
        let n = |(pick, tail): (usize, usize)| match pick {
            6 => CHUNK + tail,
            7 => 2 * CHUNK + tail,
            _ => 0,
        };
        ((0..8usize, 0..32usize).prop_map(n), any::<u32>())
    }

    fn ops() -> impl Strategy<Value = Vec<(u8, u32, u64)>> {
        prop::collection::vec((0u8..10, any::<u32>(), 0u64..4), 0..300)
    }

    /// A distinct square of side 0.5 for item `i`, on a 32-wide grid of
    /// unit cells; every axis past the first takes the row.
    fn cell<const D: usize>(i: u64) -> Rect<D> {
        let (x, y) = ((i % 32) as f64, (i / 32) as f64);
        let lo = std::array::from_fn(|a| if a == 0 { x } else { y });
        Rect::new(lo, lo.map(|c| c + 0.5))
    }

    /// The windows every step of a chunk history is queried with: the
    /// whole space, the corner far from every grid cell, and windows
    /// over a few grid cells.
    fn windows<const D: usize>() -> Vec<Rect<D>> {
        let mut w = vec![
            Rect::new([f64::NEG_INFINITY; D], [f64::INFINITY; D]),
            Rect::new([FAR - 0.1; D], [FAR + 0.1; D]),
        ];
        for i in [0, 45, 300, 555, 800] {
            let c = cell::<D>(i);
            w.push(Rect::new(*c.min(), c.max().map(|x| x + 2.25)));
        }
        w
    }

    const FAR: f64 = 1000.0;

    fn check_all<const D: usize>(o: &Oracle<D>) -> TestCaseResult {
        for q in windows::<D>() {
            o.query(&q)?;
        }
        o.drain()
    }

    /// Chunk-crossing histories at the production [`CHUNK`], each with
    /// distinct rectangles and ids, so a row whose id and coordinates
    /// part ways, a block MBR that misses one of its rows, or a block
    /// left over a row that is not in a chunk shows as a wrong answer.
    fn check_chunk_histories<const D: usize>() -> TestCaseResult {
        let n = 2 * CHUNK as u64;
        let far = Rect::new([FAR; D], [FAR + 0.5; D]);

        // Insert-only, in a scrambled order, over two chunks and into a
        // third: the drain is a full `(key, seq)` sort of the insertion
        // list, checked at every chunk boundary.
        let mut o = Oracle::<D>::new();
        let mut inserted = Vec::new();
        for seq in 0..n + 37 {
            let i = seq * 7919 % (n + 37);
            o.insert(cell(i), i)?;
            inserted.push((cell::<D>(i), i, seq));
            if (seq + 1) % CHUNK as u64 <= 1 {
                check_all(&o)?;
            }
        }
        inserted.sort_by_key(|&(r, _, seq)| (hilbert_index_f64(&center(&r)), seq));
        let full_sort: Vec<_> = inserted.into_iter().map(|(r, id, _)| (r, id)).collect();
        prop_assert_eq!(o.mt.items_ordered(), full_sort);

        // Two full chunks and one far tail row. Deleting a row of the
        // first chunk pulls the far row into that chunk: only a widened
        // block MBR lets the far window find it.
        let mut o = Oracle::<D>::new();
        for i in 0..n {
            o.insert(cell(i), i)?;
        }
        o.insert(far, n)?;
        o.delete(cell(5), 5)?;
        o.query(&Rect::new([FAR - 0.1; D], [FAR + 0.1; D]))?;
        check_all(&o)?;
        // The tail is empty now: the next delete returns the last chunk
        // to the tail and drops its blocks.
        o.delete(cell(400), 400)?;
        check_all(&o)?;
        o.delete(cell(401), 401)?;
        check_all(&o)?;
        // Refill the returned chunk, then empty the tail again and
        // delete back into the first chunk.
        for i in n..n + 2 {
            o.insert(cell(i + 1), i + 1)?;
        }
        check_all(&o)?;
        o.delete(cell(n + 2), n + 2)?;
        o.delete(far, n)?;
        check_all(&o)?;
        for i in (0..n).rev().step_by(3) {
            o.delete(cell(i), i)?;
            if i % 64 == 0 {
                check_all(&o)?;
            }
        }
        check_all(&o)
    }

    #[test]
    fn memtable_matches_brute_force_across_chunks_2d() {
        check_chunk_histories::<2>().unwrap();
    }

    #[test]
    fn memtable_matches_brute_force_across_chunks_3d() {
        check_chunk_histories::<3>().unwrap();
    }

    /// Of several held copies a delete takes the oldest, wherever the
    /// rows sit: here an earlier delete has moved the newer copy ahead of
    /// the older one in storage, and an item of equal center lies
    /// between them in `(key, seq)` order.
    #[test]
    fn delete_takes_the_oldest_held_copy() {
        let mut o = Oracle::<2>::new();
        let a = Rect::new([0.0, 0.0], [2.0, 2.0]);
        let b = Rect::new([0.5, 0.5], [1.5, 1.5]);
        o.insert(Rect::new([5.0, 5.0], [6.0, 6.0]), 9).unwrap();
        o.insert(a, 1).unwrap();
        o.insert(b, 2).unwrap();
        o.insert(a, 1).unwrap();
        o.delete(Rect::new([5.0, 5.0], [6.0, 6.0]), 9).unwrap();
        o.delete(a, 1).unwrap();
        o.drain().unwrap();
        assert_eq!(o.mt.items_ordered(), vec![(b, 2), (a, 1)]);
    }

    proptest! {
        #[test]
        fn memtable_matches_brute_force_2d((prefill, seed) in prefill(), ops in ops()) {
            check_against_model::<2>(prefill, seed, &ops)?;
        }

        #[test]
        fn memtable_matches_brute_force_3d((prefill, seed) in prefill(), ops in ops()) {
            check_against_model::<3>(prefill, seed, &ops)?;
        }
    }
}
