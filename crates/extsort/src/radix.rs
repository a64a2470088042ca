//! Stable radix sort on `u64` keys — the one sort behind run formation
//! and every STR/NX ordering.
//!
//! Once every record is reduced to one order-preserving integer key (a
//! center coordinate through `hilbert::f64_order_key`), a comparison sort
//! spends its time calling the key extractor and moving wide records.
//! This sort calls the extractor once per record, into a `u64` key column
//! beside a `u32` input-index column, and orders the three columns
//! together by `(key, index)`, most significant bits first. One in-place
//! American-flag pass on the highest bits that vary moves each record
//! once, straight into its bucket, so a slice larger than the cache
//! crosses DRAM once; each bucket is then ordered by the same pass on its
//! next bits, inside the cache once buckets are small.
//!
//! Ties are ordered by input index, which makes the sort stable although
//! the pass is not: the result is exactly `slice::sort_by_key` with the
//! same key. Once no key bit varies the passes run on the index bits, so
//! even a bucket holding every record needs no second array.

/// Buckets up to this length are finished by insertion sort.
const INSERTION: usize = 16;

/// Stable sort of `items` by `key`, calling `key` once per item.
///
/// Equivalent to `items.sort_by_key(key)`. Scratch is a `u64` key and a
/// `u32` index column: 12 bytes per item, freed on return.
pub fn radix_sort_by_key<T: Copy>(items: &mut [T], mut key: impl FnMut(&T) -> u64) {
    let n = items.len();
    if n > u32::MAX as usize {
        // Past the index column's range; the standard library's stable
        // sort also calls `key` once per item.
        items.sort_by_cached_key(key);
        return;
    }
    let mut keys: Vec<u64> = items.iter().map(&mut key).collect();
    let mut index: Vec<u32> = (0..n as u32).collect();
    flag_sort(items, &mut keys, &mut index);
}

/// Order `items` and their `keys` and (unique) `index` columns by
/// `(key, index)`. A pass takes the widest of 5, 8 and 11 bits whose
/// buckets number at most twice the items, so its bucket tables stay in
/// proportion to the items it moves.
fn flag_sort<T: Copy>(items: &mut [T], keys: &mut [u64], index: &mut [u32]) {
    let n = items.len();
    if n <= INSERTION {
        insertion_sort(items, keys, index);
    } else if n < 128 {
        flag_pass::<T, 32>(items, keys, index);
    } else if n < 1024 {
        flag_pass::<T, 256>(items, keys, index);
    } else {
        flag_pass::<T, 2048>(items, keys, index);
    }
}

/// One in-place American-flag pass into `B` buckets, on the bits of
/// `(key, index)` that end at the highest one that varies, then
/// [`flag_sort`] on each bucket.
///
/// An item out of place is carried along its cycle: it goes into its
/// bucket's next free slot, and the item it displaces is carried on,
/// until one that belongs in the starting slot comes back. Each item is
/// written once, into its final bucket.
///
/// The pass holds two `B`-entry `u32` tables on the stack (16 KiB at
/// 2048 buckets). A nested pass works on bits below its caller's digit,
/// so the nesting covers the 96 bits at most once: at most nine
/// 2048-bucket passes, under 150 KiB of stack in all.
fn flag_pass<T: Copy, const B: usize>(items: &mut [T], keys: &mut [u64], index: &mut [u32]) {
    let digit = Digit::highest_varying(keys, index, B.ilog2());
    let mut ends = [0u32; B];
    for (&k, &i) in keys.iter().zip(index.iter()) {
        ends[digit.of(k, i)] += 1;
    }
    let mut next = [0u32; B];
    let mut sum = 0;
    for (slot, end) in next.iter_mut().zip(&mut ends) {
        *slot = sum;
        sum += *end;
        *end = sum;
    }
    for b in 0..B {
        for i in next[b] as usize..ends[b] as usize {
            let mut d = digit.of(keys[i], index[i]);
            if d == b {
                continue;
            }
            let (mut item, mut k, mut x) = (items[i], keys[i], index[i]);
            while d != b {
                let j = next[d] as usize;
                next[d] += 1;
                std::mem::swap(&mut item, &mut items[j]);
                std::mem::swap(&mut k, &mut keys[j]);
                std::mem::swap(&mut x, &mut index[j]);
                d = digit.of(k, x);
            }
            (items[i], keys[i], index[i]) = (item, k, x);
        }
    }
    let mut start = 0;
    for end in ends {
        let end = end as usize;
        if end - start > 1 {
            flag_sort(
                &mut items[start..end],
                &mut keys[start..end],
                &mut index[start..end],
            );
        }
        start = end;
    }
}

/// `bits` consecutive bits of the 96-bit number `key << 32 | index`,
/// the lowest at `shift`.
#[derive(Clone, Copy)]
struct Digit {
    shift: u32,
    mask: u64,
}

impl Digit {
    /// The `bits` bits ending at the highest bit that varies across the
    /// pairs; there are at least two pairs, and indices are unique.
    fn highest_varying(keys: &[u64], index: &[u32], bits: u32) -> Self {
        let varying = keys.iter().fold(0, |acc, &k| acc | (k ^ keys[0]));
        let top = if varying != 0 {
            95 - varying.leading_zeros()
        } else {
            let varying = index.iter().fold(0, |acc, &i| acc | (i ^ index[0]));
            31 - varying.leading_zeros()
        };
        Self {
            shift: (top + 1).saturating_sub(bits),
            mask: (1 << bits) - 1,
        }
    }

    #[inline(always)]
    fn of(self, key: u64, index: u32) -> usize {
        let wide = if self.shift >= 32 {
            key >> (self.shift - 32)
        } else {
            key << (32 - self.shift) | u64::from(index) >> self.shift
        };
        (wide & self.mask) as usize
    }
}

fn insertion_sort<T>(items: &mut [T], keys: &mut [u64], index: &mut [u32]) {
    for i in 1..items.len() {
        let mut j = i;
        while j > 0 && (keys[j], index[j]) < (keys[j - 1], index[j - 1]) {
            items.swap(j, j - 1);
            keys.swap(j, j - 1);
            index.swap(j, j - 1);
            j -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// `(key, id)` records: the oracle is the standard library's stable
    /// sort on the key alone, so tied keys must keep their id order.
    fn check(keys: &[u64]) {
        let mut got: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        let mut expect = got.clone();
        expect.sort_by_key(|r| r.0);
        radix_sort_by_key(&mut got, |r| r.0);
        assert_eq!(got, expect, "n={}", keys.len());
    }

    /// The lengths straddle the insertion cut and each change of digit
    /// width, and reach past the L2 cache. The shapes put the varying
    /// bits at the top of the key, at the bottom (where a digit takes
    /// index bits too), nowhere (every key in one bucket, ordered by index
    /// alone), and in a few wide ties.
    #[test]
    fn matches_stable_sort_at_every_length_boundary() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for n in [
            0usize, 1, 2, 3, 16, 17, 127, 128, 129, 1_023, 1_024, 1_025, 65_535, 65_536, 65_537,
            200_000,
        ] {
            let random: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            check(&random);
            let ties: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % 7).collect();
            check(&ties);
            let few: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % 300).collect();
            check(&few);
            // Keys that vary only in their top bits: each first-pass
            // bucket holds one key, and the passes below run on index
            // bits.
            let high: Vec<u64> = (0..n).map(|_| (rng.gen::<u64>() % 5) << 56).collect();
            check(&high);
            // Two values in the top bits over varying low bits: the bits
            // that never vary sit between two passes.
            let skewed: Vec<u64> = (0..n)
                .map(|_| ((rng.gen::<u64>() % 2) << 60) | (rng.gen::<u64>() % 100_000))
                .collect();
            check(&skewed);
            check(&vec![0xDEAD_BEEF; n]);
            check(&(0..n as u64).rev().collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_single_digit_position_sorts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for byte in 0..8 {
            let keys: Vec<u64> = (0..1_000)
                .map(|_| (rng.gen::<u64>() & 0xFF) << (byte * 8))
                .collect();
            check(&keys);
        }
    }
}
