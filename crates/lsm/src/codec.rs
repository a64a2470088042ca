//! Wire formats for the LSM tier: WAL note payloads and segment meta
//! pages.
//!
//! Everything here is little-endian and self-validating. Notes travel
//! inside the WAL's checksummed record frames, so they carry only a tag
//! byte; the segment meta page lives on a raw disk page and carries its
//! own header checksum plus a checksum of the segment bytes it
//! describes, so recovery can tell a committed segment from a torn one
//! without trusting the segment store. Both checksums are
//! [`storage::wide_hash`]; a meta page of any version but
//! [`SEGMENT_META_VERSION`] is refused.

use geom::Rect;
use storage::{wide_hash, PageId};

use crate::{LsmError, Result};

/// Note tag: a batch of acknowledged inserts (memtable redo).
pub const NOTE_INSERT: u8 = 1;
/// Note tag: a compaction's catalog flip (the commit point).
pub const NOTE_FLIP: u8 = 2;
/// Note tag: a batch of acknowledged deletes (memtable redo).
pub const NOTE_DELETE: u8 = 3;

/// Magic prefix of a segment meta page.
pub const SEGMENT_META_MAGIC: [u8; 4] = *b"SEGM";
/// Segment meta page format version: checksums are [`wide_hash`].
pub const SEGMENT_META_VERSION: u16 = 2;
/// Fixed encoded size of a segment meta header (checksum included).
pub const SEGMENT_META_LEN: usize = 56;

/// A batch of inserts, logged before the memtable mutation so recovery
/// can replay exactly the acknowledged set.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertNote<const D: usize> {
    /// The rectangles and their opaque ids, in acknowledgement order.
    pub items: Vec<(Rect<D>, u64)>,
}

/// A batch of deletes, logged before the memtable records them. Each
/// `(rect, id)` pair was live when it was logged and takes out one copy.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteNote<const D: usize> {
    /// The deleted rectangles and their ids, in acknowledgement order.
    pub items: Vec<(Rect<D>, u64)>,
}

/// A compaction commit record: once this note's WAL commit frame is
/// durable, the flip MUST happen; before it, the flip MUST NOT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlipNote {
    /// Id of the newly packed segment.
    pub new_id: u64,
    /// Meta page describing the new segment; [`PageId::INVALID`] when
    /// the compaction's tombstones deleted every item it folded, so the
    /// flip only removes levels and writes no segment.
    pub meta_page: PageId,
    /// WAL watermark: inserts with LSN <= this are covered by the flip.
    pub seal_lsn: u64,
    /// Segments the flip replaces: `(seg_id, meta_page)` pairs.
    pub removed: Vec<(u64, PageId)>,
}

/// Any LSM note payload, as scanned back out of the WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum Note<const D: usize> {
    /// Acknowledged inserts to replay into the memtable.
    Insert(InsertNote<D>),
    /// Acknowledged deletes to replay into the memtable.
    Delete(DeleteNote<D>),
    /// A committed compaction to re-execute if the superblock missed it.
    Flip(FlipNote),
}

/// Serialize an item batch: tag, item count, then `2*D` coordinates +
/// id per item.
fn encode_items<const D: usize>(tag: u8, items: &[(Rect<D>, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + items.len() * (16 * D + 8));
    out.push(tag);
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for (rect, id) in items {
        for a in 0..D {
            out.extend_from_slice(&rect.lo(a).to_le_bytes());
        }
        for a in 0..D {
            out.extend_from_slice(&rect.hi(a).to_le_bytes());
        }
        out.extend_from_slice(&id.to_le_bytes());
    }
    out
}

impl<const D: usize> InsertNote<D> {
    /// Serialize: tag, item count, then `2*D` coordinates + id per item.
    pub fn encode(&self) -> Vec<u8> {
        encode_items(NOTE_INSERT, &self.items)
    }
}

impl<const D: usize> DeleteNote<D> {
    /// Serialize in the insert note's layout under the delete tag.
    pub fn encode(&self) -> Vec<u8> {
        encode_items(NOTE_DELETE, &self.items)
    }
}

impl FlipNote {
    /// Serialize: tag, new segment triple, then the removed pairs.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(29 + self.removed.len() * 16);
        out.push(NOTE_FLIP);
        out.extend_from_slice(&self.new_id.to_le_bytes());
        out.extend_from_slice(&self.meta_page.0.to_le_bytes());
        out.extend_from_slice(&self.seal_lsn.to_le_bytes());
        out.extend_from_slice(&(self.removed.len() as u32).to_le_bytes());
        for (id, page) in &self.removed {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&page.0.to_le_bytes());
        }
        out
    }
}

/// Cursor over a note payload that fails loudly on truncation.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        let end = self.at + N;
        if end > self.buf.len() {
            return Err(LsmError::Corrupt("truncated note payload".into()));
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.at..end]);
        self.at = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take()?))
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn done(&self) -> Result<()> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(LsmError::Corrupt("trailing bytes after note".into()))
        }
    }

    /// An item batch: count, then `2*D` coordinates + id per item.
    fn items<const D: usize>(&mut self, kind: &str) -> Result<Vec<(Rect<D>, u64)>> {
        let count = self.u32()? as usize;
        // Pre-size only for the items the payload can hold, so an
        // inflated count cannot force a large allocation.
        let mut items = Vec::with_capacity(count.min(self.remaining() / (16 * D + 8)));
        for _ in 0..count {
            let mut lo = [0.0f64; D];
            let mut hi = [0.0f64; D];
            for l in lo.iter_mut() {
                *l = self.f64()?;
            }
            for h in hi.iter_mut() {
                *h = self.f64()?;
            }
            let id = self.u64()?;
            let rect = Rect::try_new(lo, hi)
                .map_err(|e| LsmError::Corrupt(format!("invalid rect in {kind} note: {e}")))?;
            items.push((rect, id));
        }
        self.done()?;
        Ok(items)
    }
}

impl<const D: usize> Note<D> {
    /// Decode a note payload scanned from the WAL.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let tag = *buf
            .first()
            .ok_or_else(|| LsmError::Corrupt("empty note payload".into()))?;
        let mut r = Reader { buf, at: 1 };
        match tag {
            NOTE_INSERT => Ok(Note::Insert(InsertNote {
                items: r.items("insert")?,
            })),
            NOTE_DELETE => Ok(Note::Delete(DeleteNote {
                items: r.items("delete")?,
            })),
            NOTE_FLIP => {
                let new_id = r.u64()?;
                let meta_page = PageId(r.u64()?);
                let seal_lsn = r.u64()?;
                let count = r.u32()? as usize;
                let mut removed = Vec::with_capacity(count.min(r.remaining() / 16));
                for _ in 0..count {
                    let id = r.u64()?;
                    let page = PageId(r.u64()?);
                    removed.push((id, page));
                }
                r.done()?;
                Ok(Note::Flip(FlipNote {
                    new_id,
                    meta_page,
                    seal_lsn,
                    removed,
                }))
            }
            other => Err(LsmError::Corrupt(format!("unknown note tag {other}"))),
        }
    }
}

/// On-disk descriptor of one immutable flat segment.
///
/// Lives on its own meta page inside the v2 superblock catalog; the
/// catalog maps `seg-XXXXXXXX.flat` → this page, and this page pins the
/// exact bytes (length + checksum) the segment store must serve.
/// A segment whose bytes disagree with its meta page is treated as
/// absent — recovery then re-executes or discards the flip that
/// introduced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Segment id (also encoded in the catalog entry name).
    pub seg_id: u64,
    /// Number of items packed into the segment.
    pub item_count: u64,
    /// Exact byte length of the flat-tree image.
    pub byte_len: u64,
    /// Checksum of the flat-tree image ([`SegmentMeta::checksum_of`]).
    pub data_checksum: u64,
    /// WAL watermark the segment's contents cover.
    pub seal_lsn: u64,
}

impl SegmentMeta {
    /// Checksum the tier uses to pin segment bytes.
    pub fn checksum_of(bytes: &[u8]) -> u64 {
        wide_hash(0, bytes)
    }

    /// Describe `bytes` as the image of segment `seg_id`.
    pub fn describe(seg_id: u64, item_count: u64, seal_lsn: u64, bytes: &[u8]) -> Self {
        Self {
            seg_id,
            item_count,
            byte_len: bytes.len() as u64,
            data_checksum: Self::checksum_of(bytes),
            seal_lsn,
        }
    }

    /// Whether `bytes` are exactly the image this meta page pins.
    pub fn matches(&self, bytes: &[u8]) -> bool {
        bytes.len() as u64 == self.byte_len && Self::checksum_of(bytes) == self.data_checksum
    }

    /// Encode into a zero-padded page image of `page_size` bytes.
    pub fn encode_page(&self, page_size: usize) -> Vec<u8> {
        assert!(page_size >= SEGMENT_META_LEN, "page too small for meta");
        let mut out = vec![0u8; page_size];
        out[0..4].copy_from_slice(&SEGMENT_META_MAGIC);
        out[4..6].copy_from_slice(&SEGMENT_META_VERSION.to_le_bytes());
        // bytes 6..8 reserved (zero)
        out[8..16].copy_from_slice(&self.seg_id.to_le_bytes());
        out[16..24].copy_from_slice(&self.item_count.to_le_bytes());
        out[24..32].copy_from_slice(&self.byte_len.to_le_bytes());
        out[32..40].copy_from_slice(&self.data_checksum.to_le_bytes());
        out[40..48].copy_from_slice(&self.seal_lsn.to_le_bytes());
        let sum = wide_hash(0, &out[..48]);
        out[48..56].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parse and validate a meta page image.
    pub fn decode_page(page: &[u8]) -> Result<Self> {
        if page.len() < SEGMENT_META_LEN {
            return Err(LsmError::Corrupt("segment meta page too short".into()));
        }
        if page[0..4] != SEGMENT_META_MAGIC {
            return Err(LsmError::Corrupt("segment meta magic mismatch".into()));
        }
        let version = u16::from_le_bytes([page[4], page[5]]);
        if version != SEGMENT_META_VERSION {
            return Err(LsmError::Corrupt(format!(
                "unsupported segment meta version {version}"
            )));
        }
        let stored = u64::from_le_bytes(page[48..56].try_into().unwrap());
        if stored != wide_hash(0, &page[..48]) {
            return Err(LsmError::Corrupt("segment meta checksum mismatch".into()));
        }
        let u = |a: usize| u64::from_le_bytes(page[a..a + 8].try_into().unwrap());
        Ok(Self {
            seg_id: u(8),
            item_count: u(16),
            byte_len: u(24),
            data_checksum: u(32),
            seal_lsn: u(40),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use storage::{fnv1a_update, FNV_SEED};

    /// `meta` as a version-1 page pinning `bytes`, hand-sealed the way
    /// older builds wrote it: FNV-1a over the image and over the header.
    pub(crate) fn v1_meta_page(meta: &SegmentMeta, bytes: &[u8], page_size: usize) -> Vec<u8> {
        let mut page = vec![0u8; page_size];
        page[0..4].copy_from_slice(&SEGMENT_META_MAGIC);
        page[4..6].copy_from_slice(&1u16.to_le_bytes());
        page[8..16].copy_from_slice(&meta.seg_id.to_le_bytes());
        page[16..24].copy_from_slice(&meta.item_count.to_le_bytes());
        page[24..32].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
        page[32..40].copy_from_slice(&fnv1a_update(FNV_SEED, bytes).to_le_bytes());
        page[40..48].copy_from_slice(&meta.seal_lsn.to_le_bytes());
        let sum = fnv1a_update(FNV_SEED, &page[..48]);
        page[48..56].copy_from_slice(&sum.to_le_bytes());
        page
    }

    /// A version-1 page is refused with a typed error naming its
    /// version, and so is one relabelled to the current version (its
    /// FNV header seal fails the wide hash) or to an unknown one. A
    /// current meta page never pins bytes by their FNV-1a checksum.
    #[test]
    fn version_1_meta_page_is_refused() {
        let bytes = b"flat tree image stand-in".to_vec();
        let current = SegmentMeta::describe(11, 1000, 42, &bytes);
        let page = v1_meta_page(&current, &bytes, 4096);
        match SegmentMeta::decode_page(&page) {
            Err(LsmError::Corrupt(msg)) => {
                assert!(msg.contains("unsupported segment meta version 1"), "{msg}")
            }
            other => panic!("wrong result for a version-1 meta page: {other:?}"),
        }

        let mut relabelled = page.clone();
        relabelled[4] = 2;
        assert!(matches!(
            SegmentMeta::decode_page(&relabelled),
            Err(LsmError::Corrupt(_))
        ));
        let mut future = page.clone();
        future[4] = 3;
        assert!(matches!(
            SegmentMeta::decode_page(&future),
            Err(LsmError::Corrupt(_))
        ));

        let fnv_pinned = SegmentMeta {
            data_checksum: fnv1a_update(FNV_SEED, &bytes),
            ..current
        };
        assert!(!fnv_pinned.matches(&bytes));
    }

    #[test]
    fn new_meta_pages_are_version_2_sealed_with_the_wide_hash() {
        let bytes = b"flat tree image stand-in".to_vec();
        let meta = SegmentMeta::describe(11, 1000, 42, &bytes);
        assert_eq!(meta.data_checksum, wide_hash(0, &bytes));
        let page = meta.encode_page(4096);
        assert_eq!(u16::from_le_bytes([page[4], page[5]]), 2);
        let sum = u64::from_le_bytes(page[48..56].try_into().unwrap());
        assert_eq!(sum, wide_hash(0, &page[..48]));
    }

    #[test]
    fn insert_note_round_trips() {
        let note = InsertNote::<2> {
            items: vec![
                (Rect::new([0.0, 1.0], [2.0, 3.0]), 7),
                (Rect::new([-5.0, -5.0], [-1.0, -2.5]), u64::MAX),
            ],
        };
        let bytes = note.encode();
        match Note::<2>::decode(&bytes).unwrap() {
            Note::Insert(back) => assert_eq!(back, note),
            other => panic!("wrong variant: {other:?}"),
        }
        // Truncation and trailing garbage both fail loudly.
        assert!(Note::<2>::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(Note::<2>::decode(&long).is_err());
    }

    #[test]
    fn delete_note_round_trips_under_its_own_tag() {
        let items = vec![(Rect::new([0.0, 1.0], [2.0, 3.0]), 7)];
        let note = DeleteNote::<2> {
            items: items.clone(),
        };
        let bytes = note.encode();
        assert_eq!(bytes[0], NOTE_DELETE);
        // Same layout as an insert note, told apart only by the tag.
        assert_eq!(bytes[1..], InsertNote::<2> { items }.encode()[1..]);
        match Note::<2>::decode(&bytes).unwrap() {
            Note::Delete(back) => assert_eq!(back, note),
            other => panic!("wrong variant: {other:?}"),
        }
        // An inverted rect is refused by name.
        let mut inverted = bytes.clone();
        inverted[5..13].copy_from_slice(&9.0f64.to_le_bytes());
        match Note::<2>::decode(&inverted) {
            Err(LsmError::Corrupt(msg)) => assert!(msg.contains("delete note"), "{msg}"),
            other => panic!("inverted rect decoded: {other:?}"),
        }
    }

    #[test]
    fn flip_note_round_trips() {
        let note = FlipNote {
            new_id: 3,
            meta_page: PageId(17),
            seal_lsn: 999,
            removed: vec![(1, PageId(5)), (2, PageId(9))],
        };
        match Note::<2>::decode(&note.encode()).unwrap() {
            Note::Flip(back) => assert_eq!(back, note),
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(Note::<2>::decode(&[42]).is_err());
        assert!(Note::<2>::decode(&[]).is_err());
    }

    #[test]
    fn segment_meta_round_trips_and_detects_corruption() {
        let bytes = b"flat tree image stand-in".to_vec();
        let meta = SegmentMeta::describe(11, 1000, 42, &bytes);
        assert!(meta.matches(&bytes));
        assert!(!meta.matches(b"different"));

        let page = meta.encode_page(4096);
        assert_eq!(SegmentMeta::decode_page(&page).unwrap(), meta);

        let mut flipped = page.clone();
        flipped[10] ^= 0xff;
        assert!(SegmentMeta::decode_page(&flipped).is_err());
        let mut wrong_magic = page.clone();
        wrong_magic[0] = b'X';
        assert!(SegmentMeta::decode_page(&wrong_magic).is_err());
        assert!(SegmentMeta::decode_page(&page[..40]).is_err());
    }
}
