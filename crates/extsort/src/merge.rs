//! K-way merge over sorted runs via a loser tree.
//!
//! A loser tree (tournament tree of "losers") replaces the binary heap of
//! the first implementation: selecting the next record costs exactly
//! ⌈log₂ k⌉ comparisons along one root path — no sift-down detours — and
//! the comparisons touch a flat `Vec<usize>` instead of moving records
//! through heap nodes. The total order it realizes is `(key, run_idx)`,
//! identical to the heap's, so merged output is byte-for-byte unchanged.

use std::sync::Arc;

use crate::run::{Prefetcher, RunReader};
use crate::{FixedRecord, Result};

/// Tournament tree over `k` leaves. `node[0]` is the overall winner;
/// `node[1..k]` hold the loser of each internal match. Leaf `i` enters
/// the bracket at node `k + i`.
struct LoserTree {
    node: Vec<usize>,
    k: usize,
}

impl LoserTree {
    /// Build the bracket; `beats(a, b)` says whether leaf `a` wins
    /// against leaf `b`.
    fn new(k: usize, beats: &mut impl FnMut(usize, usize) -> bool) -> Self {
        let mut tree = Self {
            node: vec![0; k.max(1)],
            k,
        };
        if k > 1 {
            tree.node[0] = tree.seed(1, beats);
        }
        tree
    }

    /// Play the subtree rooted at internal node `j`, recording losers and
    /// returning the winner leaf.
    fn seed(&mut self, j: usize, beats: &mut impl FnMut(usize, usize) -> bool) -> usize {
        if j >= self.k {
            return j - self.k;
        }
        let a = self.seed(2 * j, beats);
        let b = self.seed(2 * j + 1, beats);
        let (winner, loser) = if beats(a, b) { (a, b) } else { (b, a) };
        self.node[j] = loser;
        winner
    }

    fn winner(&self) -> usize {
        self.node[0]
    }

    /// After leaf `leaf` (the previous winner) changed, replay its path
    /// to the root.
    fn replay(&mut self, leaf: usize, beats: &mut impl FnMut(usize, usize) -> bool) {
        if self.k <= 1 {
            return;
        }
        let mut winner = leaf;
        let mut j = (self.k + leaf) / 2;
        while j >= 1 {
            if beats(self.node[j], winner) {
                std::mem::swap(&mut self.node[j], &mut winner);
            }
            j /= 2;
        }
        self.node[0] = winner;
    }
}

/// Decide whether leaf `a` beats leaf `b` given their current head
/// records. Exhausted runs lose to everything; key ties go to the lower
/// run index, which keeps the merge stable in run-formation order.
fn beats<K: Ord, T>(items: &[Option<(K, T)>], a: usize, b: usize) -> bool {
    match (&items[a], &items[b]) {
        (None, _) => false,
        (Some(_), None) => true,
        (Some((ka, _)), Some((kb, _))) => match ka.cmp(kb) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a < b,
        },
    }
}

/// Streaming k-way merge over the sorted runs.
pub struct MergeIter<T: FixedRecord, F: Fn(&T) -> u64> {
    readers: Vec<RunReader<T>>,
    items: Vec<Option<(u64, T)>>,
    tree: LoserTree,
    key: F,
    // Owns the read-ahead pool; dropping the iterator stops its threads.
    _prefetcher: Option<Arc<Prefetcher>>,
}

impl<T: FixedRecord, F: Fn(&T) -> u64> MergeIter<T, F> {
    pub(crate) fn new(
        mut readers: Vec<RunReader<T>>,
        key: F,
        prefetcher: Option<Arc<Prefetcher>>,
    ) -> Result<Self> {
        let mut items = Vec::with_capacity(readers.len());
        for reader in readers.iter_mut() {
            items.push(reader.next_record()?.map(|rec| (key(&rec), rec)));
        }
        let tree = LoserTree::new(items.len(), &mut |a, b| beats(&items, a, b));
        Ok(Self {
            readers,
            items,
            tree,
            key,
            _prefetcher: prefetcher,
        })
    }
}

impl<T: FixedRecord, F: Fn(&T) -> u64> Iterator for MergeIter<T, F> {
    type Item = Result<T>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.items.is_empty() {
            return None;
        }
        let w = self.tree.winner();
        let (_, rec) = self.items[w].take()?;
        let refill = match self.readers[w].next_record() {
            Ok(next) => next.map(|r| ((self.key)(&r), r)),
            Err(e) => return Some(Err(e)),
        };
        self.items[w] = refill;
        let items = &self.items;
        self.tree.replay(w, &mut |a, b| beats(items, a, b));
        Some(Ok(rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pure loser-tree check against a sort, including ties resolved by
    /// leaf index.
    #[test]
    fn loser_tree_total_order() {
        for k in 1..=17usize {
            let mut streams: Vec<Vec<u32>> = (0..k)
                .map(|i| {
                    let mut v: Vec<u32> = (0..20).map(|j| ((j * 7 + i * 3) % 13) as u32).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let mut expect: Vec<(u32, usize)> = streams
                .iter()
                .enumerate()
                .flat_map(|(i, s)| s.iter().map(move |&v| (v, i)))
                .collect();
            expect.sort();

            let mut heads: Vec<Option<(u32, ())>> = streams
                .iter_mut()
                .map(|s| {
                    if s.is_empty() {
                        None
                    } else {
                        Some((s.remove(0), ()))
                    }
                })
                .collect();
            let mut tree = LoserTree::new(k, &mut |a, b| beats(&heads, a, b));
            let mut got = Vec::new();
            loop {
                let w = tree.winner();
                let Some((v, ())) = heads[w].take() else {
                    break;
                };
                got.push((v, w));
                heads[w] = if streams[w].is_empty() {
                    None
                } else {
                    Some((streams[w].remove(0), ()))
                };
                tree.replay(w, &mut |a, b| beats(&heads, a, b));
            }
            assert_eq!(got, expect, "k={k}");
        }
    }
}
