//! Hilbert node ⇄ page serialization.
//!
//! The page layout (24-byte header: magic `"HRT1"`, level, count, tag,
//! checksum) is the shared [`rtree::store`] node format — including its
//! word-parallel checksum ([`rtree::store::page_checksum`]); this
//! module supplies only the Hilbert entry codec — the one thing that
//! differs: each entry carries a 2-D rect, a payload and its 128-bit
//! (largest) Hilbert value, 56 bytes total, 72 per 4 KiB page.

use bytes::{Buf, BufMut};
use geom::Rect2;
use rtree::store::{self, EntryCodec};
use storage::PageId;

use crate::{HEntry, HNode, Result};

/// Bytes per entry: 4 f64 rect coordinates, u64 payload, u128 LHV.
pub const ENTRY_SIZE: usize = 4 * 8 + 8 + 16;

/// The Hilbert entry codec plugged into the shared node-store substrate.
pub struct HilbertCodec;

impl EntryCodec for HilbertCodec {
    type Entry = HEntry;
    const MAGIC: u32 = u32::from_le_bytes(*b"HRT1");
    const ENTRY_SIZE: usize = ENTRY_SIZE;
    const TAG: u32 = 0;

    fn encode_entry(e: &HEntry, mut out: &mut [u8]) {
        out.put_f64_le(e.rect.lo(0));
        out.put_f64_le(e.rect.lo(1));
        out.put_f64_le(e.rect.hi(0));
        out.put_f64_le(e.rect.hi(1));
        out.put_u64_le(e.payload);
        out.put_u128_le(e.lhv);
    }

    fn decode_entry(mut inp: &[u8]) -> std::result::Result<HEntry, String> {
        let min = [inp.get_f64_le(), inp.get_f64_le()];
        let max = [inp.get_f64_le(), inp.get_f64_le()];
        let payload = inp.get_u64_le();
        let lhv = inp.get_u128_le();
        let rect = Rect2::try_new(min, max).map_err(|e| format!("bad rectangle: {e}"))?;
        Ok(HEntry { rect, payload, lhv })
    }
}

/// Largest node capacity for a page of `page_size` bytes.
pub const fn max_capacity(page_size: usize) -> usize {
    store::max_entries::<HilbertCodec>(page_size)
}

/// Serialize `node` into `page`.
///
/// # Panics
/// Panics if the node does not fit the page.
pub fn encode(node: &HNode, page: &mut [u8]) {
    store::encode_node::<HilbertCodec>(node.level, &node.entries, page);
}

/// Deserialize a node from `page`.
pub fn decode(page: &[u8], page_id: PageId) -> Result<HNode> {
    let (level, entries) = store::decode_node::<HilbertCodec>(page, page_id)?;
    Ok(HNode { level, entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HNode {
        let mut n = HNode::new(2);
        for i in 0..20u64 {
            n.insert_sorted(HEntry::data(
                Rect2::new([i as f64, 0.0], [i as f64 + 0.5, 1.0]),
                i,
            ));
        }
        n
    }

    #[test]
    fn round_trip() {
        let node = sample();
        let mut page = vec![0u8; 4096];
        encode(&node, &mut page);
        assert_eq!(decode(&page, PageId(0)).unwrap(), node);
    }

    #[test]
    fn lhv_survives_round_trip_exactly() {
        let node = sample();
        let mut page = vec![0u8; 4096];
        encode(&node, &mut page);
        let back = decode(&page, PageId(0)).unwrap();
        for (a, b) in node.entries.iter().zip(back.entries.iter()) {
            assert_eq!(a.lhv, b.lhv);
        }
    }

    #[test]
    fn detects_corruption() {
        let mut page = vec![0u8; 4096];
        encode(&sample(), &mut page);
        page[200] ^= 0x10;
        assert!(decode(&page, PageId(0)).is_err());
    }

    #[test]
    fn capacity_math() {
        assert_eq!(ENTRY_SIZE, 56);
        assert_eq!(max_capacity(4096), 72);
    }
}
