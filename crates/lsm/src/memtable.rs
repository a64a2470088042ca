//! The in-memory write buffer: Hilbert-keyed rectangles in insertion
//! order, curve-sorted when drained, plus the tombstones of deletes
//! that target older copies.
//!
//! Each entry carries the Hilbert index of its rectangle's center (the
//! order-preserving f64 embedding from [`hilbert`]) computed at insert
//! time; [`Memtable::items_ordered`] sorts by that key (plus a unique
//! sequence number, so equal centers never collide) to give a
//! compaction drain the space-filling-curve order it wants. The paper's
//! "Simpler is Faster" reference makes curve-sorted data itself a
//! competitive index; for the memtable's small bound we serve queries
//! with a plain scan over the contiguous entry vector — cheaper than
//! maintaining any tree shape on a structure that is capped at a few
//! thousand entries and rebuilt from the WAL on every recovery anyway,
//! and the one sort per drain is noise next to the STR pack that
//! follows it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use geom::Rect;
use hilbert::hilbert_index_f64;
use parking_lot::RwLock;
use rtree::{IndexStats, SpatialIndex};

/// Approximate in-memory bytes per entry (Hilbert key + seq + rect +
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

struct Tables<const D: usize> {
    entries: Vec<Entry<D>>,
    tombs: Vec<(Rect<D>, u64)>,
}

struct Entry<const D: usize> {
    key: u128,
    seq: u64,
    rect: Rect<D>,
    id: u64,
}

impl<const D: usize> Memtable<D> {
    /// An empty memtable.
    pub fn new() -> Self {
        Self {
            tables: RwLock::new(Tables {
                entries: Vec::new(),
                tombs: Vec::new(),
            }),
            seq: AtomicU64::new(0),
            count: AtomicU64::new(0),
            tombs: AtomicU64::new(0),
        }
    }

    /// Insert one rectangle. Equal Hilbert keys are disambiguated by an
    /// internal sequence number, so nothing is ever overwritten.
    pub fn insert(&self, rect: Rect<D>, id: u64) {
        let key = hilbert_index_f64(&center(&rect));
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.tables
            .write()
            .entries
            .push(Entry { key, seq, rect, id });
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Delete one copy of `(rect, id)`: remove a copy held here if there
    /// is one, otherwise record a tombstone for an older copy. The
    /// caller has checked that a copy is live.
    pub(crate) fn delete(&self, rect: &Rect<D>, id: u64) {
        let mut t = self.tables.write();
        match t.entries.iter().position(|e| e.id == id && e.rect == *rect) {
            Some(at) => {
                t.entries.swap_remove(at);
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
        let held = t.entries.iter().filter(|e| e.id == id && e.rect == *rect);
        let shadowing = t.tombs.iter().filter(|&&(r, i)| i == id && r == *rect);
        (held.count() as u64, shadowing.count() as u64)
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
        let g = &t.entries;
        let mut order: Vec<usize> = (0..g.len()).collect();
        order.sort_unstable_by_key(|&i| (g[i].key, g[i].seq));
        order.into_iter().map(|i| (g[i].rect, g[i].id)).collect()
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
        for e in &t.entries {
            if e.rect.intersects(query) {
                visit(e.rect, e.id);
            }
        }
        t.shadow(query, shadow);
    }

    /// Add the tombstones intersecting `query` to `shadow`.
    pub(crate) fn shadow(&self, query: &Rect<D>, shadow: &mut Shadow<D>) {
        self.tables.read().shadow(query, shadow);
    }
}

impl<const D: usize> Tables<D> {
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
        for e in self.tables.read().entries.iter() {
            if e.rect.intersects(query) {
                visit(e.rect, e.id);
            }
        }
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
}
