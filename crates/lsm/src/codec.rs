//! Wire format of the LSM tier's WAL note payloads.
//!
//! Everything here is little-endian and self-validating. Notes travel
//! inside the WAL's checksummed records, so they carry only a tag byte.
//! Each note encodes itself onto the end of a caller's buffer
//! (`encode_into`): the write path hands it the WAL's staging buffer, so
//! logging a note copies its items once, straight into the batch. Item
//! notes borrow the items they log and own the ones they decode.
//! Segments need no format of their own here: each is a `FLT1` image
//! sealed end to end by its own checksum ([`flat::FlatTree::from_vec`]
//! validates it), named in the superblock catalog by its id.

use std::borrow::Cow;

use geom::Rect;

use crate::{LsmError, Result};

/// Note tag: a batch of acknowledged inserts (memtable redo).
pub const NOTE_INSERT: u8 = 1;
/// Note tag: a batch of acknowledged deletes (memtable redo).
pub const NOTE_DELETE: u8 = 3;
/// Note tag: a compaction's catalog flip (the commit point). Tag 2 was
/// the flip note of older builds, which named segment meta pages; it is
/// refused.
pub const NOTE_FLIP: u8 = 4;
/// The retired flip note tag.
const NOTE_FLIP_V1: u8 = 2;

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

/// A compaction's commit point: once this note's WAL record is durable,
/// the flip MUST happen; before it, the flip MUST NOT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlipNote {
    /// Id of the newly packed segment. Ids only grow, so this also
    /// orders the new level after every level it does not replace.
    pub new_id: u64,
    /// WAL watermark: inserts with LSN <= this are covered by the flip.
    pub seal_lsn: u64,
    /// Whether the flip wrote segment `new_id`: false when the
    /// compaction's tombstones deleted every item it folded, so the
    /// flip only removes levels.
    pub wrote_segment: bool,
    /// Ids of the segments the flip replaces.
    pub removed: Vec<u64>,
}

/// Any LSM note payload, as scanned back out of the WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum Note<const D: usize> {
    /// Acknowledged inserts to replay into the memtable.
    Insert(InsertNote<'static, D>),
    /// Acknowledged deletes to replay into the memtable.
    Delete(DeleteNote<'static, D>),
    /// A committed compaction to re-execute if the superblock missed it.
    Flip(FlipNote),
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

impl FlipNote {
    /// Append the encoding to `out`: tag, new segment id, seal LSN,
    /// written flag, then the removed ids.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(22 + self.removed.len() * 8);
        out.push(NOTE_FLIP);
        out.extend_from_slice(&self.new_id.to_le_bytes());
        out.extend_from_slice(&self.seal_lsn.to_le_bytes());
        out.push(u8::from(self.wrote_segment));
        out.extend_from_slice(&(self.removed.len() as u32).to_le_bytes());
        for id in &self.removed {
            out.extend_from_slice(&id.to_le_bytes());
        }
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

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take::<1>()?[0])
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
            NOTE_FLIP => {
                let new_id = r.u64()?;
                let seal_lsn = r.u64()?;
                let wrote_segment = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(LsmError::Corrupt(format!(
                            "flip note has written flag {other}"
                        )))
                    }
                };
                let count = r.u32()? as usize;
                let mut removed = Vec::with_capacity(count.min(r.remaining() / 8));
                for _ in 0..count {
                    removed.push(r.u64()?);
                }
                r.done()?;
                Ok(Note::Flip(FlipNote {
                    new_id,
                    seal_lsn,
                    wrote_segment,
                    removed,
                }))
            }
            NOTE_FLIP_V1 => Err(LsmError::Corrupt(format!(
                "retired note tag {NOTE_FLIP_V1}: a flip note naming segment meta pages, \
                 written by an older build"
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

    #[test]
    fn flip_note_round_trips() {
        for wrote_segment in [true, false] {
            let note = FlipNote {
                new_id: 3,
                seal_lsn: 999,
                wrote_segment,
                removed: vec![1, 2],
            };
            let bytes = bytes(|out| note.encode_into(out));
            assert_eq!(bytes.len(), 22 + 2 * 8);
            match Note::<2>::decode(&bytes).unwrap() {
                Note::Flip(back) => assert_eq!(back, note),
                other => panic!("wrong variant: {other:?}"),
            }
            // Truncation and trailing garbage both fail loudly.
            assert!(Note::<2>::decode(&bytes[..bytes.len() - 1]).is_err());
            let mut long = bytes.clone();
            long.push(0);
            assert!(Note::<2>::decode(&long).is_err());
        }
        let flip = FlipNote {
            new_id: 3,
            seal_lsn: 999,
            wrote_segment: true,
            removed: vec![],
        };
        let mut flag = bytes(|out| flip.encode_into(out));
        flag[17] = 2;
        assert!(matches!(
            Note::<2>::decode(&flag),
            Err(LsmError::Corrupt(_))
        ));
        assert!(Note::<2>::decode(&[42]).is_err());
        assert!(Note::<2>::decode(&[]).is_err());
    }

    /// A flip note as older builds wrote it (tag 2: new segment id, its
    /// meta page, seal LSN, then `(id, meta page)` pairs removed) is
    /// refused with a typed error naming the retired tag.
    #[test]
    fn retired_flip_note_tag_is_refused() {
        let mut old = vec![NOTE_FLIP_V1];
        for word in [3u64, 17, 999] {
            old.extend_from_slice(&word.to_le_bytes());
        }
        old.extend_from_slice(&1u32.to_le_bytes());
        for word in [1u64, 5] {
            old.extend_from_slice(&word.to_le_bytes());
        }
        match Note::<2>::decode(&old) {
            Err(LsmError::Corrupt(msg)) => {
                assert!(msg.contains("retired note tag 2"), "{msg}")
            }
            other => panic!("a tag-2 flip note decoded: {other:?}"),
        }
    }
}
