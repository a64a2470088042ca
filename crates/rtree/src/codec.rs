//! Node ⇄ page serialization.
//!
//! Layout of a node page (little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "RTN1"
//! 4       4     level  (u32; 0 = leaf)
//! 8       4     count  (u32; number of entries)
//! 12      4     dims   (u32; must match the tree's D)
//! 16      8     checksum (wide_hash of bytes 0..16 ++ 24..end-of-entries)
//! 24      —     entries: count × (D min f64s, D max f64s, u64 payload)
//! ```
//!
//! One node per page, as the paper assumes throughout. The checksum exists
//! because the storage layer simulates a raw partition: there is no
//! filesystem beneath us to notice a torn or misdirected write. It is the
//! word-parallel [`storage::wide_hash`] ([`store::page_checksum`]), which
//! costs ≈0.21 µs on a full page where byte-serial FNV-1a cost ≈5.7 µs —
//! it is verified on every node visit. Pages sealed with FNV-1a by older
//! builds still verify (see [`store::verify_node`]); only the new hash is
//! written.

use bytes::{Buf, BufMut};
use geom::Rect;
use storage::PageId;

use crate::store::{self, EntryCodec, HEADER_LEN};
use crate::{Entry, Node, RTreeError, Result};

const MAGIC: u32 = u32::from_le_bytes(*b"RTN1");

/// Bytes per entry at dimension `D`.
pub const fn entry_size<const D: usize>() -> usize {
    D * 2 * 8 + 8
}

/// Largest node capacity a page of `page_size` bytes can hold at
/// dimension `D`.
pub const fn max_capacity<const D: usize>(page_size: usize) -> usize {
    (page_size - HEADER_LEN) / entry_size::<D>()
}

/// The rectangle entry codec: `D` min f64s, `D` max f64s, u64 payload,
/// with the dimension in the header tag word. Shared by [`crate::RTree`]
/// and [`crate::RPlusTree`]; everything page-level (header, checksum,
/// validation) comes from [`crate::store`].
pub struct RectCodec<const D: usize>;

impl<const D: usize> EntryCodec for RectCodec<D> {
    type Entry = Entry<D>;
    const MAGIC: u32 = MAGIC;
    const ENTRY_SIZE: usize = entry_size::<D>();
    const TAG: u32 = D as u32;

    #[inline]
    fn encode_entry(e: &Entry<D>, mut out: &mut [u8]) {
        for i in 0..D {
            out.put_f64_le(e.rect.lo(i));
        }
        for i in 0..D {
            out.put_f64_le(e.rect.hi(i));
        }
        out.put_u64_le(e.payload);
    }

    #[inline]
    fn decode_entry(mut inp: &[u8]) -> std::result::Result<Entry<D>, String> {
        let mut min = [0.0f64; D];
        let mut max = [0.0f64; D];
        for m in min.iter_mut() {
            *m = inp.get_f64_le();
        }
        for m in max.iter_mut() {
            *m = inp.get_f64_le();
        }
        let payload = inp.get_u64_le();
        let rect = Rect::try_new(min, max).map_err(|e| format!("bad rectangle: {e}"))?;
        Ok(Entry { rect, payload })
    }

    fn bad_magic_msg() -> String {
        "bad magic (not an R-tree node)".to_string()
    }

    fn tag_mismatch_msg(got: u32) -> String {
        format!("dimension mismatch: page has {got}, tree is {D}")
    }
}

/// Serialize `node` into `page` (which must be zeroed or reused whole).
///
/// # Panics
/// Panics if the node does not fit — callers size nodes against
/// [`max_capacity`] via [`crate::NodeCapacity`], so overflow here is a
/// logic error, not an input error.
pub fn encode<const D: usize>(node: &Node<D>, page: &mut [u8]) {
    encode_entries(node.level, &node.entries, page);
}

/// Serialize a node directly from a borrowed entry slice — the
/// allocation-free write path. [`encode`] is a thin wrapper; bulk
/// loaders call this with a sub-slice of the sorted entry run, skipping
/// the intermediate [`Node`] (and its `group.to_vec()`) entirely.
///
/// # Panics
/// Panics if the entries do not fit, like [`encode`].
pub fn encode_entries<const D: usize>(level: u32, entries: &[Entry<D>], page: &mut [u8]) {
    store::encode_node::<RectCodec<D>>(level, entries, page);
}

/// Deserialize a node from `page`.
///
/// `page_id` is only for error messages.
pub fn decode<const D: usize>(page: &[u8], page_id: PageId) -> Result<Node<D>> {
    let (level, entries) = store::decode_node::<RectCodec<D>>(page, page_id)?;
    Ok(Node { level, entries })
}

/// A borrowed, zero-copy view of an encoded node page.
///
/// [`parse`](NodeView::parse) performs the exact validation [`decode`]
/// does — magic, dimension, count-fits, checksum, and a per-entry
/// rectangle sanity scan — but materializes nothing: entries are read
/// lazily, straight out of the page bytes, by the accessors. Query
/// traversal uses this under [`storage::BufferPool::with_page`] so a hot
/// search touches no heap at all; mutation paths keep the owned
/// [`Node`] representation.
///
/// The validation pass means every accessor after a successful `parse`
/// is infallible: any page `parse` accepts, `decode` accepts, and vice
/// versa (asserted by the differential tests).
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a, const D: usize> {
    level: u32,
    count: usize,
    /// Exactly the entry region: `count * entry_size::<D>()` bytes.
    body: &'a [u8],
}

impl<'a, const D: usize> NodeView<'a, D> {
    /// Validate `page` and borrow it as a node view.
    ///
    /// `page_id` is only for error messages. Accepts and rejects exactly
    /// the same pages as [`decode`], with the same error reasons.
    pub fn parse(page: &'a [u8], page_id: PageId) -> Result<Self> {
        let (level, body) = store::verify_node::<RectCodec<D>>(page, page_id)?;
        let view = Self {
            level,
            count: body.len() / entry_size::<D>(),
            body,
        };
        // Same rectangle sanity check as decode, so both paths accept and
        // reject identical pages. `lo <= hi` fails for an inverted axis
        // and for a NaN alike, so one branch-free pass settles a good
        // page; only a bad one is rescanned entry by entry for decode's
        // exact error.
        if !view.rects_well_formed() {
            for i in 0..view.count {
                view.try_rect(i)
                    .map_err(|e| corrupt(page_id, &format!("bad rectangle: {e}")))?;
            }
        }
        Ok(view)
    }

    /// Whether every entry has `lo <= hi` (so no NaN) on every axis —
    /// exactly when [`Rect::try_new`] accepts every entry.
    fn rects_well_formed(&self) -> bool {
        self.body
            .chunks_exact(entry_size::<D>())
            .fold(true, |ok, e| {
                (0..D).fold(ok, |ok, a| ok & (entry_word(e, a) <= entry_word(e, D + a)))
            })
    }

    /// Height above the leaf level (leaves are 0).
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Whether this node is at the leaf level.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the node holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Raw little-endian f64 at entry `i`, word `w` (of `2 * D`).
    #[inline]
    fn coord(&self, i: usize, w: usize) -> f64 {
        entry_word(&self.body[i * entry_size::<D>()..], w)
    }

    /// Rectangle of entry `i`, validated (used by the parse scan).
    fn try_rect(&self, i: usize) -> std::result::Result<Rect<D>, geom::GeomError> {
        let mut min = [0.0f64; D];
        let mut max = [0.0f64; D];
        for (a, m) in min.iter_mut().enumerate() {
            *m = self.coord(i, a);
        }
        for (a, m) in max.iter_mut().enumerate() {
            *m = self.coord(i, D + a);
        }
        Rect::try_new(min, max)
    }

    /// Rectangle of entry `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn rect(&self, i: usize) -> Rect<D> {
        assert!(i < self.count, "entry {i} out of {}", self.count);
        // Parse already proved every rectangle well-formed.
        self.try_rect(i).unwrap()
    }

    /// Payload of entry `i` (data id at leaves, child page otherwise).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn payload(&self, i: usize) -> u64 {
        assert!(i < self.count, "entry {i} out of {}", self.count);
        let off = i * entry_size::<D>() + D * 2 * 8;
        u64::from_le_bytes(self.body[off..off + 8].try_into().unwrap())
    }

    /// Payload of entry `i` interpreted as a child page.
    #[inline]
    pub fn child_page(&self, i: usize) -> PageId {
        PageId(self.payload(i))
    }

    /// Entry `i`, materialized.
    #[inline]
    pub fn entry(&self, i: usize) -> Entry<D> {
        Entry {
            rect: self.rect(i),
            payload: self.payload(i),
        }
    }

    /// Iterate all entries, decoding each lazily.
    pub fn entries(&self) -> impl Iterator<Item = Entry<D>> + '_ {
        (0..self.count).map(move |i| self.entry(i))
    }

    /// Minimum bounding rectangle of all entries (allocation-free,
    /// matching [`Node::mbr`] exactly — `empty` is the union identity).
    pub fn mbr(&self) -> Rect<D> {
        let mut acc = Rect::empty();
        for i in 0..self.count {
            acc.union_in_place(&self.rect(i));
        }
        acc
    }

    /// Materialize the owned [`Node`] (for callers crossing from the
    /// read path to the mutation path).
    pub fn to_node(&self) -> Node<D> {
        Node {
            level: self.level,
            entries: self.entries().collect(),
        }
    }

    /// Invoke `visit(i, rect(i))` for every entry whose rectangle
    /// intersects `query`, through the batch kernel ([`geom::SoaRects`])
    /// the flat tier queries with: entries are gathered a block at a
    /// time into stack structure-of-arrays buffers, then tested 4 per
    /// step, branch-free per axis (with the explicit SSE2 path on x86-64
    /// for `D = 2`). Semantics match testing `rect(i).intersects(query)`
    /// entry by entry, in order — the differential tests assert it.
    ///
    /// A hit's rectangle is rebuilt from the gathered block, not decoded
    /// from the page again: [`parse`](Self::parse) has validated every
    /// entry. A caller that ignores it pays nothing once inlined.
    #[inline]
    pub fn for_each_intersecting<F: FnMut(usize, Rect<D>)>(&self, query: &Rect<D>, visit: &mut F) {
        /// Entries gathered per kernel invocation. Big enough to
        /// amortize the `SoaRects` setup, small enough that the
        /// `2·D·BLOCK` f64 buffers stay comfortably on the stack.
        const BLOCK: usize = 32;
        let mut mins = [[0.0f64; BLOCK]; D];
        let mut maxs = [[0.0f64; BLOCK]; D];
        let mut base = 0;
        for block in self.body.chunks(BLOCK * entry_size::<D>()) {
            let n = block.len() / entry_size::<D>();
            // The gather is the transpose the page layout (AoS) doesn't
            // give us for free; per-axis runs are what the kernel's
            // unaligned vector loads want.
            for (j, e) in block.chunks_exact(entry_size::<D>()).enumerate() {
                for a in 0..D {
                    mins[a][j] = entry_word(e, a);
                    maxs[a][j] = entry_word(e, D + a);
                }
            }
            let soa = geom::SoaRects::new(
                std::array::from_fn(|a| &mins[a][..n]),
                std::array::from_fn(|a| &maxs[a][..n]),
            );
            soa.for_each_intersecting(0, n, query, &mut |j| {
                let rect = Rect::from_validated(
                    std::array::from_fn(|a| mins[a][j]),
                    std::array::from_fn(|a| maxs[a][j]),
                );
                visit(base + j, rect)
            });
            base += n;
        }
    }
}

/// Little-endian f64 word `w` of an encoded entry.
#[inline]
fn entry_word(entry: &[u8], w: usize) -> f64 {
    f64::from_le_bytes(entry[w * 8..w * 8 + 8].try_into().expect("8-byte slice"))
}

fn corrupt(page: PageId, reason: &str) -> RTreeError {
    RTreeError::Corrupt {
        page,
        reason: reason.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_node() -> Node<2> {
        Node {
            level: 2,
            entries: (0..10)
                .map(|i| Entry {
                    rect: Rect::new([i as f64, 0.0], [i as f64 + 0.5, 1.0]),
                    payload: 1000 + i,
                })
                .collect(),
        }
    }

    #[test]
    fn round_trip() {
        let node = sample_node();
        let mut page = vec![0u8; 4096];
        encode(&node, &mut page);
        let back: Node<2> = decode(&page, PageId(0)).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn round_trip_empty_node() {
        let node = Node::<2>::new(0);
        let mut page = vec![0u8; 4096];
        encode(&node, &mut page);
        let back: Node<2> = decode(&page, PageId(0)).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn round_trip_3d() {
        let node = Node {
            level: 1,
            entries: vec![Entry {
                rect: Rect::new([0.0, 1.0, 2.0], [3.0, 4.0, 5.0]),
                payload: 42,
            }],
        };
        let mut page = vec![0u8; 4096];
        encode(&node, &mut page);
        let back: Node<3> = decode(&page, PageId(0)).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn stale_bytes_are_harmless() {
        // Re-encoding a smaller node over a frame that held a bigger one
        // must not resurrect old entries.
        let mut page = vec![0u8; 4096];
        encode(&sample_node(), &mut page);
        let small = Node::<2>::leaf(vec![Entry::data(Rect::new([0.0, 0.0], [1.0, 1.0]), 7)]);
        encode(&small, &mut page);
        let back: Node<2> = decode(&page, PageId(0)).unwrap();
        assert_eq!(back, small);
    }

    #[test]
    fn detects_bad_magic() {
        let page = vec![0u8; 4096];
        assert!(matches!(
            decode::<2>(&page, PageId(3)),
            Err(RTreeError::Corrupt {
                page: PageId(3),
                ..
            })
        ));
    }

    #[test]
    fn detects_flipped_bit() {
        let mut page = vec![0u8; 4096];
        encode(&sample_node(), &mut page);
        page[100] ^= 0x01;
        let err = decode::<2>(&page, PageId(0)).unwrap_err();
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn detects_dimension_mismatch() {
        let mut page = vec![0u8; 4096];
        encode(&sample_node(), &mut page);
        let err = decode::<3>(&page, PageId(0)).unwrap_err();
        assert!(err.to_string().contains("dimension"));
    }

    #[test]
    fn detects_overlong_count() {
        let mut page = vec![0u8; 128];
        encode(&Node::<2>::new(0), &mut page);
        // Forge a count that cannot fit in 128 bytes.
        page[8..12].copy_from_slice(&1000u32.to_le_bytes());
        let err = decode::<2>(&page, PageId(0)).unwrap_err();
        assert!(err.to_string().contains("count"));
    }

    #[test]
    fn capacity_math() {
        // 2-D: (4096 - 24) / 40 = 101 entries; the paper's 100 fits.
        assert_eq!(entry_size::<2>(), 40);
        assert_eq!(max_capacity::<2>(4096), 101);
        assert!(max_capacity::<2>(4096) >= 100);
        // 3-D entries are 56 bytes.
        assert_eq!(entry_size::<3>(), 56);
        assert_eq!(max_capacity::<3>(4096), 72);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn encode_panics_when_node_too_big() {
        let node = sample_node(); // 10 entries * 40 + 24 = 424 bytes
        let mut page = vec![0u8; 128];
        encode(&node, &mut page);
    }

    #[test]
    fn encode_entries_matches_encode() {
        let node = sample_node();
        let mut via_node = vec![0u8; 4096];
        let mut via_slice = vec![0u8; 4096];
        encode(&node, &mut via_node);
        encode_entries(node.level, &node.entries, &mut via_slice);
        assert_eq!(via_node, via_slice);
    }

    #[test]
    fn view_matches_decode() {
        let node = sample_node();
        let mut page = vec![0u8; 4096];
        encode(&node, &mut page);
        let view = NodeView::<2>::parse(&page, PageId(0)).unwrap();
        assert_eq!(view.level(), node.level);
        assert!(!view.is_leaf());
        assert_eq!(view.len(), node.len());
        assert!(!view.is_empty());
        assert_eq!(view.mbr(), node.mbr());
        for (i, e) in node.entries.iter().enumerate() {
            assert_eq!(view.entry(i), *e);
            assert_eq!(view.rect(i), e.rect);
            assert_eq!(view.payload(i), e.payload);
            assert_eq!(view.child_page(i), e.child_page());
        }
        assert_eq!(view.entries().collect::<Vec<_>>(), node.entries);
        assert_eq!(view.to_node(), node);
    }

    /// The blocked SoA scan must visit exactly the indices the
    /// per-entry `intersects` scan does, in the same order and with the
    /// same rectangles `rect(i)` decodes — at counts
    /// exercising full blocks, the scalar tail, and both at once.
    #[test]
    fn batch_scan_matches_scalar_scan() {
        fn check<const D: usize>(count: usize, seed: u64) {
            let mut s = seed;
            let mut next01 = move || {
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
            };
            let entries: Vec<Entry<D>> = (0..count)
                .map(|i| {
                    let mut lo = [0.0; D];
                    let mut hi = [0.0; D];
                    for a in 0..D {
                        lo[a] = next01();
                        // Mix zero-extent and extended rectangles.
                        hi[a] = if i % 4 == 0 {
                            lo[a]
                        } else {
                            lo[a] + next01() * 0.2
                        };
                    }
                    Entry::data(Rect::new(lo, hi), i as u64)
                })
                .collect();
            let mut page = vec![0u8; 8192];
            encode_entries(0, &entries, &mut page);
            let view = NodeView::<D>::parse(&page, PageId(0)).unwrap();
            for _ in 0..40 {
                let mut qlo = [0.0; D];
                let mut qhi = [0.0; D];
                for a in 0..D {
                    qlo[a] = next01();
                    qhi[a] = qlo[a] + next01() * 0.5;
                }
                let q = Rect::new(qlo, qhi);
                let mut got = Vec::new();
                view.for_each_intersecting(&q, &mut |i, r| got.push((i, r)));
                let want: Vec<(usize, Rect<D>)> = (0..count)
                    .filter(|&i| view.rect(i).intersects(&q))
                    .map(|i| (i, view.rect(i)))
                    .collect();
                assert_eq!(got, want, "D={D} count={count}");
            }
            // Empty query hits nothing.
            let mut none = 0;
            view.for_each_intersecting(&Rect::empty(), &mut |_, _| none += 1);
            assert_eq!(none, 0);
        }
        check::<2>(101, 1); // a full 4 KiB 2-D page: 3 blocks + tail
        check::<2>(32, 2); // exactly one block
        check::<2>(5, 3); // tail only
        check::<3>(72, 4);
        check::<3>(33, 5);
    }

    #[test]
    fn view_rejects_what_decode_rejects() {
        let mut page = vec![0u8; 4096];
        encode(&sample_node(), &mut page);
        page[100] ^= 0x01;
        let d = decode::<2>(&page, PageId(9)).unwrap_err().to_string();
        let v = NodeView::<2>::parse(&page, PageId(9))
            .unwrap_err()
            .to_string();
        assert_eq!(d, v);
    }
}
