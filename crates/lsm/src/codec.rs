//! Wire formats of the LSM tier: WAL note payloads and the lineage
//! trailer that ends every segment.
//!
//! Everything here is little-endian and self-validating. Notes travel
//! inside the WAL's checksummed records, so they carry only a tag byte.
//! Each note encodes itself onto the end of a caller's buffer
//! (`encode_into`): the write path hands it the WAL's staging buffer, so
//! logging a note copies its items once, straight into the batch. Item
//! notes borrow the items they log and own the ones they decode.
//!
//! A segment is its `FLT1` image, sealed end to end by its own checksum
//! ([`flat::FlatTree::from_vec`] validates it), followed by a
//! [`Lineage`] trailer: the segment's seal LSN and the lowest segment id
//! it retires. The segment store's id names the segment; nothing else
//! does.

use std::borrow::Cow;

use geom::Rect;
use storage::wide_hash;

use crate::{LsmError, Result};

/// Note tag: a batch of acknowledged inserts (memtable redo).
pub const NOTE_INSERT: u8 = 1;
/// Note tag: a batch of acknowledged deletes (memtable redo).
pub const NOTE_DELETE: u8 = 3;
/// Retired note tags: the flip notes of older builds, which named a
/// compaction's output in the log (tag 2 also named segment meta
/// pages). A segment's own lineage trailer records that now.
const RETIRED_FLIP_TAGS: [u8; 2] = [2, 4];

/// Bytes of the [`Lineage`] trailer after a segment's `FLT1` image.
pub const TRAILER_LEN: usize = 32;
/// First word of every lineage trailer.
const TRAILER_MAGIC: [u8; 8] = *b"LINEAGE1";

/// A batch of inserts, logged before the memtable mutation so recovery
/// can replay exactly the acknowledged set.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertNote<'a, const D: usize> {
    /// The rectangles and their opaque ids, in acknowledgement order.
    pub items: Cow<'a, [(Rect<D>, u64)]>,
}

/// A batch of deletes, logged before the memtable records them. Each
/// `(rect, id)` pair was live when it was logged and takes out one copy.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteNote<'a, const D: usize> {
    /// The deleted rectangles and their ids, in acknowledgement order.
    pub items: Cow<'a, [(Rect<D>, u64)]>,
}

/// Any LSM note payload, as scanned back out of the WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum Note<const D: usize> {
    /// Acknowledged inserts to replay into the memtable.
    Insert(InsertNote<'static, D>),
    /// Acknowledged deletes to replay into the memtable.
    Delete(DeleteNote<'static, D>),
}

/// Where a segment came from, recorded in the trailer after its image.
///
/// Trailer layout (32 bytes): `"LINEAGE1"`, `seal_lsn u64`, `fold_id
/// u64`, then `wide_hash` seeded with the image's own checksum over the
/// first 24 bytes. The seed ties the trailer to its image: moved onto
/// another image, it fails its seal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lineage {
    /// The drained memtable's seal LSN: every note at or below it is in
    /// this segment or in a level older than it.
    pub seal_lsn: u64,
    /// The lowest segment id this one retires: every segment whose id
    /// lies in `[fold_id, own id)` was folded into it, or retired by a
    /// segment that was. Equal to its own id when it folded nothing.
    pub fold_id: u64,
}

impl Lineage {
    /// Append the trailer to `image`, a sealed `FLT1` image.
    pub fn encode_onto(&self, image: &mut Vec<u8>) {
        let seed = image_checksum(image);
        let at = image.len();
        image.reserve_exact(TRAILER_LEN);
        image.extend_from_slice(&TRAILER_MAGIC);
        image.extend_from_slice(&self.seal_lsn.to_le_bytes());
        image.extend_from_slice(&self.fold_id.to_le_bytes());
        let seal = wide_hash(seed, &image[at..]);
        image.extend_from_slice(&seal.to_le_bytes());
    }

    /// Decode the trailer that ends `segment`. Returns the lineage and
    /// the length of the image before it, which the caller still
    /// validates as `FLT1` ([`decode_segment`] does both).
    pub fn decode(segment: &[u8]) -> Result<(Self, usize)> {
        let Some(image_len) = segment
            .len()
            .checked_sub(TRAILER_LEN)
            .filter(|&n| n >= flat::HEADER_LEN)
        else {
            return Err(LsmError::Corrupt(format!(
                "segment of {} bytes cannot hold an image and its lineage trailer",
                segment.len()
            )));
        };
        let (image, trailer) = segment.split_at(image_len);
        let word = |i: usize| {
            u64::from_le_bytes(
                trailer[8 * i..8 * i + 8]
                    .try_into()
                    .expect("an 8-byte word"),
            )
        };
        if trailer[..8] != TRAILER_MAGIC {
            return Err(LsmError::Corrupt(
                "segment has no lineage trailer (a bare FLT1 image, as older builds \
                 wrote segments, or a damaged one)"
                    .into(),
            ));
        }
        if wide_hash(image_checksum(image), &trailer[..24]) != word(3) {
            return Err(LsmError::Corrupt(
                "lineage trailer seal mismatch (damaged, or not this image's trailer)".into(),
            ));
        }
        Ok((
            Self {
                seal_lsn: word(1),
                fold_id: word(2),
            },
            image_len,
        ))
    }
}

/// The checksum an `FLT1` image stores in its header.
fn image_checksum(image: &[u8]) -> u64 {
    u64::from_le_bytes(
        image[flat::abi::CHECKSUM_OFF..flat::HEADER_LEN]
            .try_into()
            .expect("the checksum field is 8 bytes"),
    )
}

/// Decode a segment's bytes: its lineage trailer, then the image the
/// trailer seals, validated in full by [`flat::FlatTree::from_vec`].
pub fn decode_segment<const D: usize>(
    mut segment: Vec<u8>,
) -> Result<(Lineage, flat::FlatTree<'static, D>)> {
    let (lineage, image_len) = Lineage::decode(&segment)?;
    segment.truncate(image_len);
    Ok((lineage, flat::FlatTree::from_vec(segment)?))
}

/// Append an item batch to `out`: tag, item count, then `2*D`
/// coordinates + id per item.
fn encode_items<const D: usize>(tag: u8, items: &[(Rect<D>, u64)], out: &mut Vec<u8>) {
    out.reserve(5 + items.len() * (16 * D + 8));
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
}

impl<const D: usize> InsertNote<'_, D> {
    /// Append the encoding to `out`: tag, item count, then `2*D`
    /// coordinates + id per item.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_items(NOTE_INSERT, &self.items, out)
    }
}

impl<const D: usize> DeleteNote<'_, D> {
    /// Append the encoding to `out`, in the insert note's layout under
    /// the delete tag.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_items(NOTE_DELETE, &self.items, out)
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
                items: r.items("insert")?.into(),
            })),
            NOTE_DELETE => Ok(Note::Delete(DeleteNote {
                items: r.items("delete")?.into(),
            })),
            tag if RETIRED_FLIP_TAGS.contains(&tag) => Err(LsmError::Corrupt(format!(
                "retired note tag {tag}: a flip note, written by an older build"
            ))),
            other => Err(LsmError::Corrupt(format!("unknown note tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes `encode_into` appends to an empty buffer.
    fn bytes(encode_into: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(&mut out);
        out
    }

    #[test]
    fn insert_note_round_trips() {
        let note = InsertNote::<2> {
            items: vec![
                (Rect::new([0.0, 1.0], [2.0, 3.0]), 7),
                (Rect::new([-5.0, -5.0], [-1.0, -2.5]), u64::MAX),
            ]
            .into(),
        };
        let bytes = bytes(|out| note.encode_into(out));
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

    /// `encode_into` appends, after whatever the buffer holds, exactly
    /// the layout the log has always carried: tag, count, every item's
    /// minimum corner, maximum corner and id.
    #[test]
    fn insert_note_bytes_are_pinned_and_appended() {
        let items = [(Rect::new([1.0, 2.0], [3.0, 4.0]), 7u64)];
        let mut want = vec![0xAB, NOTE_INSERT, 1, 0, 0, 0];
        for c in [1.0f64, 2.0, 3.0, 4.0] {
            want.extend_from_slice(&c.to_le_bytes());
        }
        want.extend_from_slice(&7u64.to_le_bytes());
        let mut out = vec![0xAB];
        InsertNote::<2> {
            items: items[..].into(),
        }
        .encode_into(&mut out);
        assert_eq!(out, want);
    }

    #[test]
    fn delete_note_round_trips_under_its_own_tag() {
        let items = vec![(Rect::new([0.0, 1.0], [2.0, 3.0]), 7)];
        let note = DeleteNote::<2> {
            items: items.as_slice().into(),
        };
        let bytes = bytes(|out| note.encode_into(out));
        assert_eq!(bytes[0], NOTE_DELETE);
        // Same layout as an insert note, told apart only by the tag.
        let insert = InsertNote::<2> {
            items: items[..].into(),
        };
        assert_eq!(bytes[1..], self::bytes(|out| insert.encode_into(out))[1..]);
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

    /// The flip notes of older builds — tag 2, which named segment
    /// meta pages, and tag 4, which named a compaction's output — are
    /// refused with a typed error naming the retired tag.
    #[test]
    fn retired_flip_note_tags_are_refused() {
        // Tag 2: new segment id, its meta page, seal LSN, then `(id,
        // meta page)` pairs removed.
        let mut v1 = vec![2u8];
        for word in [3u64, 17, 999] {
            v1.extend_from_slice(&word.to_le_bytes());
        }
        v1.extend_from_slice(&1u32.to_le_bytes());
        for word in [1u64, 5] {
            v1.extend_from_slice(&word.to_le_bytes());
        }
        // Tag 4: new segment id, seal LSN, written flag, removed ids.
        let mut v2 = vec![4u8];
        for word in [3u64, 999] {
            v2.extend_from_slice(&word.to_le_bytes());
        }
        v2.push(1);
        v2.extend_from_slice(&1u32.to_le_bytes());
        v2.extend_from_slice(&2u64.to_le_bytes());
        for (tag, old) in [(2, v1), (4, v2)] {
            match Note::<2>::decode(&old) {
                Err(LsmError::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("retired note tag {tag}")), "{msg}")
                }
                other => panic!("a tag-{tag} flip note decoded: {other:?}"),
            }
        }
        assert!(Note::<2>::decode(&[42]).is_err());
        assert!(Note::<2>::decode(&[]).is_err());
    }

    /// A small packed image and its segment: the image plus a trailer.
    fn segment(lineage: Lineage) -> (Vec<u8>, Vec<u8>) {
        let items = (0..20u64)
            .map(|i| (Rect::new([i as f64, 0.0], [i as f64 + 0.5, 1.0]), i))
            .collect();
        let cap = rtree::NodeCapacity::new(4).unwrap();
        let image = str_core::pack_str_to_flat::<2>(items, cap, 1).unwrap();
        let mut seg = image.clone();
        lineage.encode_onto(&mut seg);
        (image, seg)
    }

    #[test]
    fn lineage_round_trips_behind_the_unchanged_image() {
        let lineage = Lineage {
            seal_lsn: 999,
            fold_id: 3,
        };
        let (image, seg) = segment(lineage);
        assert_eq!(seg.len(), image.len() + TRAILER_LEN);
        assert_eq!(&seg[..image.len()], &image[..]);
        assert_eq!(Lineage::decode(&seg).unwrap(), (lineage, image.len()));
        let (back, tree) = decode_segment::<2>(seg).unwrap();
        assert_eq!(back, lineage);
        assert_eq!(tree.as_bytes(), &image[..]);
    }

    /// A trailer moved onto another image fails its seal.
    #[test]
    fn a_trailer_does_not_seal_another_image() {
        let lineage = Lineage {
            seal_lsn: 7,
            fold_id: 1,
        };
        let (_, seg) = segment(lineage);
        let items = vec![(Rect::new([0.0, 0.0], [1.0, 1.0]), 1)];
        let cap = rtree::NodeCapacity::new(4).unwrap();
        let mut other = str_core::pack_str_to_flat::<2>(items, cap, 1).unwrap();
        other.extend_from_slice(&seg[seg.len() - TRAILER_LEN..]);
        match Lineage::decode(&other) {
            Err(LsmError::Corrupt(msg)) => assert!(msg.contains("seal mismatch"), "{msg}"),
            other => panic!("a foreign trailer decoded: {other:?}"),
        }
    }
}
