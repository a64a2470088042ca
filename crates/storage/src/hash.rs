//! The storage format's two checksums.
//!
//! * [`fnv1a_update`] — byte-serial FNV-1a, 64-bit. Small fixed-layout
//!   records keep it: the superblock and catalog, tree meta pages, WAL
//!   records and LSM notes. Each byte waits on the previous multiply,
//!   which is fine for a few dozen bytes and too slow for anything read
//!   on every query or written in bulk. Older node pages, flat images
//!   and segment meta pages sealed with it still verify.
//! * [`wide_hash`] — word-parallel, 64-bit. Node pages use it (see
//!   `rtree::store::page_checksum`): a node page is verified on every
//!   visit, so its checksum sits on the query path. Version-2 flat
//!   `FLT1` images and LSM segment meta pages use it too: every LSM
//!   compaction seals and checks megabytes of segment. Eight independent
//!   lanes each fold one little-endian `u64` per 64-byte stripe, so the
//!   multiplies overlap instead of queueing. On a 4016-byte node body
//!   (header prefix plus 100 2-D entries) FNV-1a costs ≈5.7 µs and
//!   `wide_hash` ≈0.21 µs (page in cache; 2-vCPU Xeon VM, release
//!   build).
//!
//! Both are deterministic, portable and dependency-free: pure integer
//! arithmetic over little-endian words, no CPU-feature dispatch, so a
//! page written on one machine verifies on any other.

/// FNV-1a 64-bit offset basis: the seed for [`fnv1a_update`] chains.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `data` into an FNV-1a 64-bit hash state. Chain calls to hash
/// discontiguous regions (the superblock does; so does a version-1 flat
/// image's whole-file checksum, which skips the checksum field itself).
pub fn fnv1a_update(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Independent accumulator lanes in [`wide_hash`].
const LANES: usize = 8;
/// Bytes consumed per round: one word per lane.
const STRIPE: usize = LANES * 8;
/// Odd multiplier (2^64 / φ), so every round is a bijection of its lane.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Rotation after each multiply: carries high bits back down so they
/// keep mixing (a multiply alone only propagates upward).
const ROT: u32 = 29;
/// Distinct per-lane starting states (the first eight splitmix64
/// outputs from state 0).
const LANE_SEEDS: [u64; LANES] = [
    0xe220_a839_7b1d_cdaf,
    0x6e78_9e6a_a1b9_65f4,
    0x06c4_5d18_8009_454f,
    0xf88b_b8a8_724c_81ec,
    0x1b39_896a_51a8_749b,
    0x53cb_9f0c_747e_a2ea,
    0x2c82_9abe_1f45_32e1,
    0xc584_133a_c916_ab3c,
];

#[inline(always)]
fn round(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(MUL).rotate_left(ROT)
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

/// Word-parallel 64-bit hash of `data`, seeded with `seed` (start a
/// chain from 0; feed one call's result as the next call's seed to hash
/// discontiguous regions).
///
/// Word `i` of `data` (little-endian, the last one zero-padded) goes to
/// lane `i % 8`; each lane starts at its own seed xor `seed` and applies
/// `lane = rotl((lane ^ word) * MUL, 29)`. The lanes are then folded in
/// order 0..8 with the same round, starting from `len * MUL`, and the
/// result goes through the murmur3 64-bit finaliser.
///
/// Every round is a bijection of its lane, so two inputs of equal
/// length that differ in exactly one word always hash differently —
/// in particular every single-bit flip is detected.
pub fn wide_hash(seed: u64, data: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS.map(|s| s ^ seed);
    let mut stripes = data.chunks_exact(STRIPE);
    for stripe in &mut stripes {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, le_word(word));
        }
    }
    // Fewer than eight words remain: whole words go to lanes 0.., then a
    // zero-padded final word (the length in the fold tells the padding
    // apart from real zero bytes).
    let rest = stripes.remainder();
    let mut words = rest.chunks_exact(8);
    for (lane, word) in lanes.iter_mut().zip(&mut words) {
        *lane = round(*lane, le_word(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        let i = rest.len() / 8;
        lanes[i] = round(lanes[i], u64::from_le_bytes(word));
    }
    let h = lanes
        .iter()
        .fold((data.len() as u64).wrapping_mul(MUL), |h, &lane| {
            round(h, lane)
        });
    avalanche(h)
}

/// murmur3's `fmix64`: a bijection in which every input bit affects
/// every output bit.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn fnv1a_known_answers() {
        // Published FNV-1a 64 vectors.
        assert_eq!(fnv1a_update(FNV_SEED, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_update(FNV_SEED, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_update(FNV_SEED, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn wide_hash_known_answers() {
        // Pins the function: a change here changes every node page's
        // checksum. The values were cross-checked against an independent
        // implementation of the algorithm described on `wide_hash`.
        let cases: [(u64, &[u8], u64); 5] = [
            (0, b"", 0x7497_d80b_0400_e8ca),
            (0, b"abc", 0x3de9_3349_ebc9_f10d),
            (1, b"abc", 0x5297_3b26_6a63_4949),
            (0, &bytes(64), 0x8f0e_7624_e4f5_6673),
            (0, &bytes(4016), 0xd8a9_c241_b1d3_d3d0),
        ];
        for (seed, data, want) in cases {
            assert_eq!(
                wide_hash(seed, data),
                want,
                "wide_hash({seed}, {} bytes)",
                data.len()
            );
        }
    }

    #[test]
    fn every_length_and_zero_padding_is_distinct() {
        // Trailing zero bytes must not collide with a shorter input, at
        // every tail length and across stripe boundaries.
        let mut seen = std::collections::HashSet::new();
        let zeros = [0u8; 200];
        for n in 0..=zeros.len() {
            assert!(seen.insert(wide_hash(0, &zeros[..n])), "length {n}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_hash() {
        for n in [1, 7, 8, 63, 64, 65, 130, 509] {
            let data = bytes(n);
            let clean = wide_hash(0, &data);
            for bit in 0..n * 8 {
                let mut flipped = data.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(wide_hash(0, &flipped), clean, "len {n} bit {bit}");
            }
        }
    }
}
