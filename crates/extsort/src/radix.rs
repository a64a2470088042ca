//! Stable radix sort on `u64` keys — the one sort behind run formation
//! and STR's in-memory slab tiling.
//!
//! Once every record is reduced to one order-preserving integer key (a
//! center coordinate through `hilbert::f64_order_key`), a comparison sort
//! spends its time calling the key extractor and moving wide records.
//! This sort calls the extractor once per record, sorts 16-byte
//! `(key, index)` pairs back and forth between two buffers one byte-digit
//! at a time, least significant first and skipping digits that every key
//! shares, and then applies the resulting permutation to the records in
//! place.
//!
//! Each pass scatters in input order, so the sort is stable: the result
//! is exactly `slice::sort_by_key` with the same key.

/// Slices up to this length sort their `(key, index)` pairs with a
/// comparison sort: below it, the 8 × 256 digit histograms cost more than
/// they save. Pair indices are unique, so ordering whole pairs is the
/// stable order by key.
const SMALL: usize = 256;

/// Digit width in bits, and the number of digits in a `u64` key.
const DIGIT_BITS: u32 = 8;
const DIGITS: usize = (u64::BITS / DIGIT_BITS) as usize;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Stable sort of `items` by `key`, calling `key` once per item.
///
/// Equivalent to `items.sort_by_key(key)`. Scratch is two `(u64, usize)`
/// buffers of `items.len()` entries: 32 bytes per item, freed on return.
pub fn radix_sort_by_key<T>(items: &mut [T], mut key: impl FnMut(&T) -> u64) {
    let n = items.len();
    if n < 2 {
        return;
    }
    let mut pairs: Vec<(u64, usize)> = items
        .iter()
        .enumerate()
        .map(|(i, item)| (key(item), i))
        .collect();
    let mut tmp = if n > SMALL {
        vec![(0, 0); n]
    } else {
        Vec::new()
    };
    sort_pairs(&mut pairs, &mut tmp);
    permute(items, &mut pairs);
}

/// Stable sort of `pairs` by key. `tmp` is scratch of the same length
/// (unused at or below [`SMALL`]).
fn sort_pairs(pairs: &mut [(u64, usize)], tmp: &mut [(u64, usize)]) {
    let n = pairs.len();
    if n <= SMALL {
        pairs.sort_unstable();
        return;
    }
    let mut counts = [[0usize; BUCKETS]; DIGITS];
    for &(k, _) in pairs.iter() {
        for (d, count) in counts.iter_mut().enumerate() {
            count[digit(k, d)] += 1;
        }
    }
    // A digit every key shares would make its pass a copy.
    let varies = |d: usize| counts[d].iter().all(|&c| c != n);
    let (mut src, mut dst) = (pairs, tmp);
    let mut in_tmp = false;
    for d in (0..DIGITS).filter(|&d| varies(d)) {
        scatter(src, dst, &counts[d], d);
        std::mem::swap(&mut src, &mut dst);
        in_tmp = !in_tmp;
    }
    if in_tmp {
        dst.copy_from_slice(src);
    }
}

/// One stable counting pass: `src` into `dst` in order of digit `d`,
/// whose histogram is `count`.
fn scatter(src: &[(u64, usize)], dst: &mut [(u64, usize)], count: &[usize; BUCKETS], d: usize) {
    let mut next = [0usize; BUCKETS];
    let mut sum = 0;
    for (slot, &c) in next.iter_mut().zip(count) {
        *slot = sum;
        sum += c;
    }
    for &pair in src {
        let b = digit(pair.0, d);
        dst[next[b]] = pair;
        next[b] += 1;
    }
}

#[inline(always)]
fn digit(key: u64, d: usize) -> usize {
    ((key >> (d as u32 * DIGIT_BITS)) as usize) & (BUCKETS - 1)
}

/// Move `items[order[i].1]` to position `i` for every `i`, in place, with
/// the swap loop of `slice::sort_by_cached_key`: an index below `i` names
/// an item an earlier swap moved away, found by following the indices
/// those swaps left behind.
fn permute<T>(items: &mut [T], order: &mut [(u64, usize)]) {
    for i in 0..items.len() {
        let mut index = order[i].1;
        while index < i {
            index = order[index].1;
        }
        order[i].1 = index;
        items.swap(i, index);
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

    #[test]
    fn matches_stable_sort_at_every_length_boundary() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for n in [0usize, 1, 2, 3, 255, 256, 257, 1_000, 100_000] {
            let random: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            check(&random);
            let ties: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % 7).collect();
            check(&ties);
            // Ties that differ only in the high digits, so low-digit
            // passes are skipped and high-digit passes are not.
            let high: Vec<u64> = (0..n).map(|_| (rng.gen::<u64>() % 5) << 56).collect();
            check(&high);
            // Two values in the top digit over varying low digits: the
            // skipped middle digits sit between two passes.
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
        for d in 0..DIGITS {
            let keys: Vec<u64> = (0..1_000)
                .map(|_| (rng.gen::<u64>() & 0xFF) << (d * 8))
                .collect();
            check(&keys);
        }
    }
}
