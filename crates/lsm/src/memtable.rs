//! The in-memory write buffer: Hilbert-keyed rectangles in insertion
//! order, curve-sorted when drained, plus the tombstones of deletes
//! that target older copies.
//!
//! Each item carries the Hilbert index of its rectangle's center (the
//! order-preserving f64 embedding from [`hilbert`]) computed at insert
//! time; [`Memtable::items_ordered`] sorts by that key (plus a unique
//! sequence number, so equal centers never collide) to give a
//! compaction drain the space-filling-curve order it wants.
//!
//! Items are stored column-wise: per-axis `min`/`max` coordinate
//! columns plus one parallel column of `(key, seq, id)`. A query is
//! one pass of [`geom::SoaRects::for_each_intersecting`] over the
//! coordinate columns, the same kernel the flat and paged tiers prune
//! with, and only hits are rebuilt as [`Rect`]s. The paper's "Simpler
//! is Faster" reference makes a contiguous scan a competitive index
//! when each test is cheap; the columns make it cheap (about 1.5 ns a
//! rectangle against about 10 ns for [`Rect::intersects`] over an
//! array of structs). No order is kept between drains: the memtable is
//! capped at a few thousand items and rebuilt from the WAL on every
//! recovery, and the one sort per drain is noise next to the STR pack
//! that follows it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use geom::{Rect, SoaRects};
use hilbert::hilbert_index_f64;
use parking_lot::RwLock;
use rtree::{IndexStats, SpatialIndex};

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
/// and the tombstones.
struct Tables<const D: usize> {
    mins: [Vec<f64>; D],
    maxs: [Vec<f64>; D],
    /// `(hilbert_key, seq, id)` of each item.
    keys: Vec<(u128, u64, u64)>,
    tombs: Vec<(Rect<D>, u64)>,
}

impl<const D: usize> Memtable<D> {
    /// An empty memtable.
    pub fn new() -> Self {
        Self {
            tables: RwLock::new(Tables {
                mins: std::array::from_fn(|_| Vec::new()),
                maxs: std::array::from_fn(|_| Vec::new()),
                keys: Vec::new(),
                tombs: Vec::new(),
            }),
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
        drop(t);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Delete one copy of `(rect, id)`: remove a copy held here if there
    /// is one, otherwise record a tombstone for an older copy. The
    /// caller has checked that a copy is live.
    pub(crate) fn delete(&self, rect: &Rect<D>, id: u64) {
        let mut t = self.tables.write();
        let at = t.held(rect, id).next();
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

    /// Remove item `i` from every column, moving the last item into its
    /// row.
    fn swap_remove(&mut self, i: usize) {
        for a in 0..D {
            self.mins[a].swap_remove(i);
            self.maxs[a].swap_remove(i);
        }
        self.keys.swap_remove(i);
    }

    /// Visit the items intersecting `query` through the shared SoA
    /// kernel; no item is empty, as the kernel requires.
    fn for_each(&self, query: &Rect<D>, visit: &mut dyn FnMut(Rect<D>, u64)) {
        let cols = SoaRects::new(
            std::array::from_fn(|a| self.mins[a].as_slice()),
            std::array::from_fn(|a| self.maxs[a].as_slice()),
        );
        cols.for_each_intersecting(0, cols.len(), query, &mut |i| {
            visit(self.rect(i), self.keys[i].2)
        });
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

    /// The brute-force model: items in the memtable's storage order (a
    /// delete removes the first matching copy, as the memtable's does, so
    /// the drain order of equal pairs is exact), each with its insert
    /// sequence number, and the tombstones.
    #[derive(Default)]
    struct Model<const D: usize> {
        items: Vec<(Rect<D>, u64, u64)>,
        tombs: Vec<(Rect<D>, u64)>,
        seq: u64,
    }

    impl<const D: usize> Model<D> {
        fn insert(&mut self, rect: Rect<D>, id: u64) {
            self.items.push((rect, id, self.seq));
            self.seq += 1;
        }

        fn delete(&mut self, rect: Rect<D>, id: u64) {
            match self
                .items
                .iter()
                .position(|&(r, i, _)| i == id && r == rect)
            {
                Some(at) => {
                    self.items.swap_remove(at);
                }
                None => self.tombs.push((rect, id)),
            }
        }

        /// The items in `(key, seq)` order, as a drain wants them.
        fn ordered(&self) -> Vec<(Rect<D>, u64)> {
            let mut items = self.items.clone();
            items.sort_by_key(|&(r, _, seq)| (hilbert_index_f64(&center(&r)), seq));
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

    /// Run `ops` against a memtable and the model, checking every read
    /// — `scan` with its tombstones, the `SpatialIndex` scan, `copies`,
    /// `items_ordered` and the counters — against brute force.
    fn check_against_model<const D: usize>(ops: &[(u8, u32, u64)]) -> TestCaseResult {
        let mt = Memtable::<D>::new();
        let mut model = Model::<D>::default();
        for &(kind, bits, id) in ops {
            match kind {
                0..=2 => {
                    let r = grid_rect(bits);
                    mt.insert(r, id);
                    model.insert(r, id);
                }
                3 => {
                    if let Some((r, id)) = model.held(bits) {
                        mt.insert(r, id);
                        model.insert(r, id);
                    }
                }
                4 | 5 => {
                    let (r, id) = match model.held(bits) {
                        Some(pair) if kind == 4 => pair,
                        _ => (grid_rect(bits), id),
                    };
                    mt.delete(&r, id);
                    model.delete(r, id);
                }
                6 | 7 => {
                    let q = if kind == 6 {
                        grid_rect(bits)
                    } else {
                        Rect::new([f64::NEG_INFINITY; D], [f64::INFINITY; D])
                    };
                    let mut hits = Vec::new();
                    let mut shadow = Shadow::default();
                    mt.scan(&q, &mut |r, id| hits.push((r, id)), &mut shadow);
                    let want = model.items.iter().filter(|(r, ..)| r.intersects(&q));
                    let want = sorted(want.map(|&(r, id, _)| (r, id)));
                    prop_assert_eq!(sorted(hits), want.clone(), "scan of {:?}", q);
                    let shadowing = model.tombs.iter().filter(|(r, _)| r.intersects(&q));
                    prop_assert_eq!(shadow.unspent(), shadowing.count() as u64);
                    let idx: &dyn SpatialIndex<D> = &mt;
                    prop_assert_eq!(sorted(idx.query(&q).unwrap()), want);
                }
                8 => {
                    let (r, id) = match model.held(bits) {
                        Some(pair) if bits % 2 == 0 => pair,
                        _ => (grid_rect(bits), id),
                    };
                    let held = model
                        .items
                        .iter()
                        .filter(|&&(mr, mi, _)| mi == id && mr == r);
                    let tombs = model.tombs.iter().filter(|&&(mr, mi)| mi == id && mr == r);
                    let want = (held.count() as u64, tombs.count() as u64);
                    prop_assert_eq!(mt.copies(&r, id), want);
                }
                _ => prop_assert_eq!(mt.items_ordered(), model.ordered()),
            }
            prop_assert_eq!(mt.len(), model.items.len() as u64);
            prop_assert_eq!(mt.tombstones(), model.tombs.len() as u64);
        }
        prop_assert_eq!(mt.items_ordered(), model.ordered());
        prop_assert_eq!(mt.tombstone_items(), model.tombs);
        Ok(())
    }

    fn ops() -> impl Strategy<Value = Vec<(u8, u32, u64)>> {
        prop::collection::vec((0u8..10, any::<u32>(), 0u64..4), 0..300)
    }

    proptest! {
        #[test]
        fn memtable_matches_brute_force_2d(ops in ops()) {
            check_against_model::<2>(&ops)?;
        }

        #[test]
        fn memtable_matches_brute_force_3d(ops in ops()) {
            check_against_model::<3>(&ops)?;
        }
    }
}
