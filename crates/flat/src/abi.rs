//! The flat tier's wire ABI: one contiguous little-endian buffer.
//!
//! Layout (all offsets 8-byte aligned; see DESIGN.md §11):
//!
//! ```text
//! [ 0 .. 64)                      header (fixed 64 bytes)
//! [64 .. 64 + 16·L)               level bounds: L × (start u64, end u64)
//! [.. + 8·D·N)                    per-axis minimum coords: D × N f64
//! [.. + 8·D·N)                    per-axis maximum coords: D × N f64
//! [.. + 8·N)                      idx array: N × u64
//! ```
//!
//! with `L = num_levels`, `D = dims`, `N = num_nodes` (total slots over
//! all levels). Header fields, offsets from 0:
//!
//! | off | size | field                                         |
//! |-----|------|-----------------------------------------------|
//! |   0 |    4 | magic `b"FLT1"`                               |
//! |   4 |    2 | version (`2`; any other is refused)           |
//! |   6 |    2 | dims                                          |
//! |   8 |    4 | node capacity of the source tree              |
//! |  12 |    4 | num_levels                                    |
//! |  16 |    8 | num_items (level-0 slot count)                |
//! |  24 |    8 | num_nodes (slot count over all levels)        |
//! |  32 |    8 | total_len (whole-buffer byte length)          |
//! |  40 |   16 | reserved, zero                                |
//! |  56 |    8 | checksum of bytes `[0..56) ++ [64..total_len)` |
//!
//! The checksum is the word-parallel [`storage::wide_hash`], chained
//! over the two ranges.
//!
//! Levels are stored *items first*: level 0 holds the data items
//! (slot coords = item MBR, `idx` = item payload), level 1 the source
//! tree's leaf nodes, and the top level (`L-1`) is the single root
//! slot. Because each level's slots appear in BFS parent-entry order,
//! the children of internal slot `i` occupy the contiguous slot range
//! `[idx[i], idx[i+1])` — closed by the *next level's start* for the
//! last slot of a level, since levels tile the slot space gap-free.

use crate::FlatError;
use storage::wide_hash;

/// Magic bytes at offset 0.
pub const MAGIC: [u8; 4] = *b"FLT1";
/// The wire version written, and the only one read: sealed with
/// [`storage::wide_hash`].
pub const VERSION: u16 = 2;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 64;
/// Offset of the checksum field within the header.
pub const CHECKSUM_OFF: usize = 56;

/// Parsed copy of the fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Spatial dimension of every stored MBR.
    pub dims: u16,
    /// Node capacity of the source paged tree (informational).
    pub node_capacity: u32,
    /// Number of levels, items level included (≥ 2).
    pub num_levels: u32,
    /// Slots in level 0 (the data items).
    pub num_items: u64,
    /// Slots over all levels.
    pub num_nodes: u64,
    /// Total buffer length in bytes.
    pub total_len: u64,
    /// Stored whole-buffer checksum.
    pub checksum: u64,
}

/// Section offsets derived from the three header counts.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Spatial dimension.
    pub dims: usize,
    /// Level count.
    pub num_levels: usize,
    /// Total slot count.
    pub num_nodes: usize,
}

impl Layout {
    /// Byte offset of the level-bounds table.
    pub fn bounds_off(self) -> usize {
        HEADER_LEN
    }

    /// Byte offset of the coordinate arrays.
    pub fn coords_off(self) -> usize {
        HEADER_LEN + 16 * self.num_levels
    }

    /// Byte offset of axis `a`'s minimum-coordinate array.
    pub fn axis_min_off(self, a: usize) -> usize {
        self.coords_off() + 8 * a * self.num_nodes
    }

    /// Byte offset of axis `a`'s maximum-coordinate array.
    pub fn axis_max_off(self, a: usize) -> usize {
        self.coords_off() + 8 * (self.dims + a) * self.num_nodes
    }

    /// Byte offset of the idx array.
    pub fn idx_off(self) -> usize {
        self.coords_off() + 16 * self.dims * self.num_nodes
    }

    /// Total buffer length this layout implies.
    ///
    /// # Panics
    /// Panics if the length overflows `usize`; a layout read from
    /// untrusted bytes goes through [`checked_total_len`](Self::checked_total_len).
    pub fn total_len(self) -> usize {
        self.checked_total_len()
            .expect("flat layout length overflows usize")
    }

    /// [`total_len`](Self::total_len), or `None` when the counts are so
    /// large that the length overflows `usize`.
    pub fn checked_total_len(self) -> Option<usize> {
        // header + 16·L bounds + (16·D + 8)·N slot bytes
        let slot_bytes = self.dims.checked_mul(16)?.checked_add(8)?;
        HEADER_LEN
            .checked_add(self.num_levels.checked_mul(16)?)?
            .checked_add(slot_bytes.checked_mul(self.num_nodes)?)
    }
}

impl Header {
    /// The section layout this header describes.
    pub fn layout(&self) -> Layout {
        Layout {
            dims: self.dims as usize,
            num_levels: self.num_levels as usize,
            num_nodes: self.num_nodes as usize,
        }
    }

    /// Serialize into the fixed 64-byte header block.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..4].copy_from_slice(&MAGIC);
        h[4..6].copy_from_slice(&VERSION.to_le_bytes());
        h[6..8].copy_from_slice(&self.dims.to_le_bytes());
        h[8..12].copy_from_slice(&self.node_capacity.to_le_bytes());
        h[12..16].copy_from_slice(&self.num_levels.to_le_bytes());
        h[16..24].copy_from_slice(&self.num_items.to_le_bytes());
        h[24..32].copy_from_slice(&self.num_nodes.to_le_bytes());
        h[32..40].copy_from_slice(&self.total_len.to_le_bytes());
        h[CHECKSUM_OFF..].copy_from_slice(&self.checksum.to_le_bytes());
        h
    }

    /// Parse and structurally validate the header against the buffer it
    /// came from (magic, version, lengths, checksum).
    pub fn parse(bytes: &[u8]) -> Result<Self, FlatError> {
        if bytes.len() < HEADER_LEN {
            return Err(FlatError::Parse(format!(
                "buffer of {} bytes is shorter than the {HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        if bytes[0..4] != MAGIC {
            return Err(FlatError::Parse("bad magic (not a flat index)".into()));
        }
        let u16le = |o: usize| u16::from_le_bytes(bytes[o..o + 2].try_into().unwrap());
        let u32le = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let u64le = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        let version = u16le(4);
        if version != VERSION {
            return Err(FlatError::Parse(format!(
                "unsupported flat version {version} (expected {VERSION})"
            )));
        }
        let hdr = Header {
            dims: u16le(6),
            node_capacity: u32le(8),
            num_levels: u32le(12),
            num_items: u64le(16),
            num_nodes: u64le(24),
            total_len: u64le(32),
            checksum: u64le(CHECKSUM_OFF),
        };
        if hdr.dims == 0 {
            return Err(FlatError::Parse("dims is zero".into()));
        }
        if hdr.num_levels < 2 {
            return Err(FlatError::Parse(format!(
                "num_levels {} < 2 (items level + at least one node level)",
                hdr.num_levels
            )));
        }
        if hdr.total_len != bytes.len() as u64 {
            return Err(FlatError::Parse(format!(
                "header total_len {} != buffer length {}",
                hdr.total_len,
                bytes.len()
            )));
        }
        // The counts are untrusted until the checksum passes: size the
        // layout with checked arithmetic so inflated counts are a parse
        // error, not an overflow.
        let implied = hdr.layout().checked_total_len().ok_or_else(|| {
            FlatError::Parse(format!(
                "section layout for {} levels and {} slots overflows",
                hdr.num_levels, hdr.num_nodes
            ))
        })?;
        if implied as u64 != hdr.total_len {
            return Err(FlatError::Parse(format!(
                "section layout implies {implied} bytes, header claims {}",
                hdr.total_len
            )));
        }
        let computed = checksum(bytes);
        if computed != hdr.checksum {
            return Err(FlatError::ChecksumMismatch {
                stored: hdr.checksum,
                computed,
            });
        }
        Ok(hdr)
    }
}

/// Whole-buffer checksum: [`storage::wide_hash`] over everything except
/// the checksum field itself (bytes `[56..64)`).
pub fn checksum(bytes: &[u8]) -> u64 {
    wide_hash(wide_hash(0, &bytes[..CHECKSUM_OFF]), &bytes[HEADER_LEN..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let hdr = Header {
            dims: 2,
            node_capacity: 100,
            num_levels: 3,
            num_items: 10,
            num_nodes: 13,
            total_len: Layout {
                dims: 2,
                num_levels: 3,
                num_nodes: 13,
            }
            .total_len() as u64,
            checksum: 0,
        };
        let mut buf = hdr.encode().to_vec();
        buf.resize(hdr.total_len as usize, 0);
        let sum = checksum(&buf);
        buf[CHECKSUM_OFF..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        let parsed = Header::parse(&buf).unwrap();
        assert_eq!(parsed.dims, 2);
        assert_eq!(parsed.num_nodes, 13);
        assert_eq!(parsed.checksum, sum);
    }

    #[test]
    fn layout_offsets_are_aligned_and_tiled() {
        let l = Layout {
            dims: 3,
            num_levels: 4,
            num_nodes: 77,
        };
        for off in [
            l.bounds_off(),
            l.coords_off(),
            l.axis_min_off(2),
            l.axis_max_off(0),
            l.idx_off(),
            l.total_len(),
        ] {
            assert_eq!(off % 8, 0);
        }
        // min/max arrays tile the coord section exactly.
        assert_eq!(l.axis_min_off(0), l.coords_off());
        assert_eq!(l.axis_max_off(l.dims - 1) + 8 * l.num_nodes, l.idx_off());
    }

    #[test]
    fn corrupt_header_variants_are_rejected() {
        let hdr = Header {
            dims: 2,
            node_capacity: 4,
            num_levels: 2,
            num_items: 1,
            num_nodes: 2,
            total_len: Layout {
                dims: 2,
                num_levels: 2,
                num_nodes: 2,
            }
            .total_len() as u64,
            checksum: 0,
        };
        let mut buf = hdr.encode().to_vec();
        buf.resize(hdr.total_len as usize, 0);
        let sum = checksum(&buf);
        buf[CHECKSUM_OFF..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        assert!(Header::parse(&buf).is_ok());

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(Header::parse(&bad), Err(FlatError::Parse(_))));

        let mut bad = buf.clone();
        bad[4] = 3; // the next version: unknown to this build
        assert!(matches!(Header::parse(&bad), Err(FlatError::Parse(_))));

        // Flip one payload byte: checksum must catch it.
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0xff;
        assert!(matches!(
            Header::parse(&bad),
            Err(FlatError::ChecksumMismatch { .. })
        ));

        assert!(Header::parse(&buf[..40]).is_err());
        assert!(Header::parse(&[]).is_err());
    }

    /// Counts inflated so far that sizing the layout overflows `usize`
    /// are a parse error: no panic, no wrapped length that happens to
    /// match the buffer.
    #[test]
    fn inflated_counts_are_a_parse_error() {
        for (num_levels, num_nodes) in [(2, u64::MAX / 4), (u32::MAX, 2), (u32::MAX, u64::MAX / 4)]
        {
            let hdr = Header {
                dims: 2,
                node_capacity: 4,
                num_levels,
                num_items: 1,
                num_nodes,
                total_len: 256,
                checksum: 0,
            };
            let mut buf = hdr.encode().to_vec();
            buf.resize(256, 0);
            let err = Header::parse(&buf).unwrap_err();
            assert!(
                matches!(err, FlatError::Parse(_)),
                "{num_levels}/{num_nodes}: {err}"
            );
        }
    }
}
