//! The direct STR → flat writer against the paged route.
//!
//! `pack_str_to_flat` packs items straight into a `FLT1` image. For
//! random capacities, sizes (1, n, n+1, n²+1 and random), dimensions 2
//! and 3, and 1 or 4 ordering threads, its image must be byte for byte
//! the one `flatten_to_bytes` lowers from `StrPacker::new().pack(..)`,
//! carry a seal this test recomputes from the wire definition, and pass
//! `FlatTree::from_vec`'s full validation.

use std::sync::Arc;

use flat::FlatTree;
use geom::Rect;
use proptest::prelude::*;
use rtree::NodeCapacity;
use storage::{wide_hash, BufferPool, MemDisk};
use str_core::{pack_str_to_flat, PackingOrder, StrPacker};

fn items<const D: usize>(n: usize, seed: u64) -> Vec<(Rect<D>, u64)> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let lo: [f64; D] = std::array::from_fn(|_| next());
            let hi: [f64; D] = std::array::from_fn(|a| lo[a] + next() * 0.02);
            (Rect::new(lo, hi), i as u64)
        })
        .collect()
}

/// The image the paged route produces for the same input.
fn via_paged_tree<const D: usize>(items: Vec<(Rect<D>, u64)>, cap: NodeCapacity) -> Vec<u8> {
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 256));
    let tree = StrPacker::new().pack(pool, items, cap).unwrap();
    flat::flatten_to_bytes(&tree).unwrap()
}

/// Check one configuration; the error names what differs.
fn check<const D: usize>(n: usize, cap: usize, seed: u64) -> Result<(), String> {
    let cap = NodeCapacity::new(cap).unwrap();
    let input = items::<D>(n, seed);
    let want = via_paged_tree(input.clone(), cap);
    for threads in [1, 4] {
        let got = pack_str_to_flat(input.clone(), cap, threads).map_err(|e| e.to_string())?;
        if got != want {
            let first = got.iter().zip(&want).position(|(a, b)| a != b);
            return Err(format!(
                "D={D} n={n} cap={} threads={threads}: images differ (len {} vs {}, first byte {first:?})",
                cap.max(),
                got.len(),
                want.len()
            ));
        }
        // The seal, recomputed from the wire definition: version 2,
        // wide_hash chained over [0..56) and [64..).
        let version = u16::from_le_bytes([got[4], got[5]]);
        let stored = u64::from_le_bytes(got[56..64].try_into().unwrap());
        let computed = wide_hash(wide_hash(0, &got[..56]), &got[64..]);
        if version != 2 || stored != computed {
            return Err(format!(
                "D={D} n={n}: version {version}, seal {stored:#x} != {computed:#x}"
            ));
        }
        let tree = FlatTree::<D>::from_vec(got).map_err(|e| format!("D={D} n={n}: {e}"))?;
        if tree.len() != n as u64 {
            return Err(format!("D={D} n={n}: loaded {} items", tree.len()));
        }
    }
    Ok(())
}

/// Item counts at the level boundaries for capacity `n`, plus `random`.
fn size_for(choice: usize, n: usize, random: usize) -> usize {
    match choice {
        0 => 1,
        1 => n,
        2 => n + 1,
        3 => n * n + 1,
        _ => random,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn direct_image_is_byte_identical_to_the_paged_route(
        cap in 2usize..40,
        choice in 0usize..5,
        random in 1usize..3000,
        seed in any::<u64>(),
    ) {
        let n = size_for(choice, cap, random);
        let two = check::<2>(n, cap, seed);
        prop_assert!(two.is_ok(), "{}", two.unwrap_err());
        let three = check::<3>(n, cap, seed);
        prop_assert!(three.is_ok(), "{}", three.unwrap_err());
    }
}

#[test]
fn empty_input_is_refused() {
    let err = pack_str_to_flat::<2>(Vec::new(), NodeCapacity::new(4).unwrap(), 1).unwrap_err();
    assert!(
        matches!(err, flat::FlatError::Tree(rtree::RTreeError::EmptyLoad)),
        "{err}"
    );
}
