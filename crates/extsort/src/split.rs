//! Rank split: where a rank of the merged order falls in every run.
//!
//! The merge orders records by `(key, run, position)`: key ties go to
//! the lower run, as the loser tree breaks them, and a run is already
//! in position order. A split of rank `g` is, for every run, the number
//! of its records among the first `g` of that order, so the merge of
//! `split(g)..split(h)` over all runs yields exactly ranks `g..h`.
//!
//! Every run keeps the key of the first record of each page (its fence
//! keys) in memory. A fence is a record like any other: its rank is its
//! own position plus, in every other run, the count of that run's
//! records before it. The fences alone put that count inside the run's
//! page that straddles the fence — at least the pages before it and the
//! page's first record, at most the whole page — and reading that page
//! makes it exact. These bounds never decrease along the merged order,
//! so in each run the fences surely before `g` and the fences possibly
//! before `g` are two prefixes of its fence array. Before any read, one
//! walk over all fences in merged order finds them for every rank of a
//! call; after reads, a binary search between the two narrows them. The
//! run's split lies in the page of its last fence before `g`, so its
//! candidate windows are the pages between the two prefixes.
//!
//! A split reads candidate pages in rounds until every run is down to
//! one candidate, read. Each round reads the unread candidates of every
//! run that has one candidate, which is its window for certain, or
//! failing that, of every run that has two. A read only tightens bounds,
//! so candidates only narrow, and a run whose candidates are all read
//! has none left to read: each run reads in one round at most, so a
//! split reads at most two pages of any run.
//!
//! Some run with unread candidates always has at most two. A run with
//! three has two uncertain fences in a row. If every such run had, take
//! the first and the last uncertain fence of all: each of those runs
//! counts a page more at the last than the first, each other run's
//! count is exact at both (the page straddling an uncertain fence is a
//! candidate, and theirs are read), so the last fence's lower bound
//! would pass the first one's upper bound, and no rank fits both. Once
//! all candidates are read, the same exact counts leave no fence
//! uncertain, so every run has one candidate; the split inside those
//! windows is a selection among their records.
//!
//! Reads are sealed reads like any merge read, so a damaged page fails
//! the split with [`crate::SortError::Corrupt`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::run::Run;
use crate::Result;

/// For each of `ranks` (ascending, none past the total record count),
/// the number of records of every run that come before that rank in the
/// merged order. `load(run, page)` reads the keys of one run page.
pub(crate) fn split_ranks(
    runs: &[Run],
    per_page: u64,
    ranks: &[u64],
    mut load: impl FnMut(usize, u64) -> Result<Vec<u64>>,
) -> Result<Vec<Vec<u64>>> {
    debug_assert!(ranks.windows(2).all(|w| w[0] <= w[1]));
    let total: u64 = runs.iter().map(|r| r.records).sum();
    let mut sure = FenceWalk::new(runs, per_page, true);
    let mut maybe = FenceWalk::new(runs, per_page, false);
    ranks
        .iter()
        .map(|&g| {
            debug_assert!(g <= total);
            if g == 0 || g == total || runs.len() == 1 {
                // Fences alone place these: nothing before, everything
                // before, or the one run's own position.
                return Ok(runs.iter().map(|r| g.min(r.records)).collect());
            }
            let sure = sure.advance(g).to_vec();
            let bounds = sure
                .into_iter()
                .zip(maybe.advance(g).iter().copied())
                .collect();
            Split::new(runs, per_page).settle(g, bounds, &mut load)
        })
        .collect()
}

/// A walk over every run's fences in merged order that counts, per run,
/// the fences whose fences-only rank bound — the upper one, or the lower
/// one — lies before a rank. Both bounds never decrease along the merged
/// order, so the counts of ascending ranks extend one walk, and the walk
/// keeps each bound as a running sum of the runs' terms.
struct FenceWalk<'a> {
    runs: &'a [Run],
    per_page: u64,
    upper: bool,
    /// `(key, run)` of every run's next fence: heap order is merged order.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Fences walked per run.
    counts: Vec<usize>,
    /// The sum of every run's term at the walk's position.
    sum: u64,
}

impl<'a> FenceWalk<'a> {
    fn new(runs: &'a [Run], per_page: u64, upper: bool) -> Self {
        Self {
            runs,
            per_page,
            upper,
            heap: runs
                .iter()
                .enumerate()
                .map(|(r, run)| Reverse((run.fences[0], r)))
                .collect(),
            counts: vec![0; runs.len()],
            sum: 0,
        }
    }

    /// Run `r`'s bound on its count of records before a record that
    /// follows `walked` of its fences and precedes the next.
    fn term(&self, r: usize, walked: usize) -> u64 {
        let Some(page) = walked.checked_sub(1) else {
            return 0;
        };
        let first = page as u64 * self.per_page;
        if self.upper {
            self.runs[r].records.min(first + self.per_page)
        } else {
            first + 1
        }
    }

    /// Walk every fence whose bound lies before rank `g`; return the
    /// walked count per run.
    fn advance(&mut self, g: u64) -> &[usize] {
        while let Some(&Reverse((_, r))) = self.heap.peek() {
            let walked = self.counts[r];
            let own = walked as u64 * self.per_page;
            if own + self.sum - self.term(r, walked) >= g {
                break;
            }
            self.heap.pop();
            self.sum += self.term(r, walked + 1) - self.term(r, walked);
            self.counts[r] = walked + 1;
            if let Some(&key) = self.runs[r].fences.get(walked + 1) {
                self.heap.push(Reverse((key, r)));
            }
        }
        &self.counts
    }
}

/// The first index in `lo..hi` where `pred` is false, given that it is
/// true on a prefix of the range.
fn first_false(mut lo: usize, mut hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One split in progress: the runs and the keys of the pages read.
struct Split<'a> {
    runs: &'a [Run],
    per_page: u64,
    /// Per run, `(page, keys)` of every page read.
    pages: Vec<Vec<(u64, Vec<u64>)>>,
}

impl<'a> Split<'a> {
    fn new(runs: &'a [Run], per_page: u64) -> Self {
        Self {
            runs,
            per_page,
            pages: vec![Vec::new(); runs.len()],
        }
    }

    fn page(&self, r: usize, page: u64) -> Option<&[u64]> {
        self.pages[r]
            .iter()
            .find(|(p, _)| *p == page)
            .map(|(_, keys)| keys.as_slice())
    }

    /// Bounds on the count of run `s`'s records before the record with
    /// `key` in run `own` (`own != s`): exact if the page straddling it
    /// was read.
    fn count_before(&self, s: usize, key: u64, own: usize) -> (u64, u64) {
        let run = &self.runs[s];
        let before = |k: &u64| *k < key || (*k == key && s < own);
        let fences = run.fences.partition_point(before) as u64;
        let Some(page) = fences.checked_sub(1) else {
            return (0, 0);
        };
        let first = page * self.per_page;
        match self.page(s, page) {
            Some(keys) => {
                let n = first + keys.partition_point(before) as u64;
                (n, n)
            }
            None => (first + 1, run.records.min(first + self.per_page)),
        }
    }

    /// Bounds on the rank of fence `j` of run `r`.
    fn fence_rank(&self, r: usize, j: usize) -> (u64, u64) {
        let key = self.runs[r].fences[j];
        let own = j as u64 * self.per_page;
        (0..self.runs.len())
            .filter(|&s| s != r)
            .fold((own, own), |(lo, hi), s| {
                let (a, b) = self.count_before(s, key, r);
                (lo + a, hi + b)
            })
    }

    /// Narrow run `r`'s `(sure, maybe)` — its fences surely and possibly
    /// before rank `g` — from the bounds the pages read so far give.
    fn narrow(&self, r: usize, g: u64, (sure, maybe): (usize, usize)) -> (usize, usize) {
        let sure = first_false(sure, maybe, |j| self.fence_rank(r, j).1 < g);
        let maybe = first_false(sure, maybe, |j| self.fence_rank(r, j).0 < g);
        (sure, maybe)
    }

    /// The candidate windows of a run with `(sure, maybe)` that are not
    /// read yet: the pages of fences `sure - 1 ..= maybe - 1`.
    fn unread(&self, r: usize, (sure, maybe): (usize, usize)) -> Vec<u64> {
        (sure.max(1) - 1..maybe)
            .map(|p| p as u64)
            .filter(|&p| self.page(r, p).is_none())
            .collect()
    }

    /// Starting from the fences-only `bounds` (`(sure, maybe)` per run),
    /// read candidate windows in rounds until every run has one, read,
    /// and place the split inside them.
    fn settle(
        mut self,
        g: u64,
        mut bounds: Vec<(usize, usize)>,
        load: &mut impl FnMut(usize, u64) -> Result<Vec<u64>>,
    ) -> Result<Vec<u64>> {
        loop {
            let width = |(sure, maybe): (usize, usize)| maybe - sure + 1;
            let open: Vec<usize> = (0..self.runs.len())
                .filter(|&r| !self.unread(r, bounds[r]).is_empty())
                .collect();
            let Some(fewest) = open.iter().map(|&r| width(bounds[r])).min() else {
                break;
            };
            debug_assert!(fewest <= 2, "some open run has at most two candidates");
            for r in open.into_iter().filter(|&r| width(bounds[r]) == fewest) {
                for page in self.unread(r, bounds[r]) {
                    let keys = load(r, page)?;
                    self.pages[r].push((page, keys));
                }
            }
            for (r, b) in bounds.iter_mut().enumerate() {
                if b.0 < b.1 {
                    *b = self.narrow(r, g, *b);
                }
            }
        }
        debug_assert!(bounds.iter().all(|&(sure, maybe)| sure == maybe));
        let counts: Vec<u64> = bounds.iter().map(|&(sure, _)| sure as u64).collect();
        Ok(self.select(g, &counts))
    }

    /// The split inside the windows of `counts` (fences before rank `g`
    /// per run): the records before rank `g` that lie in a window are
    /// the smallest of all window records.
    fn select(&self, g: u64, counts: &[u64]) -> Vec<u64> {
        let window = |r: usize| -> Option<(u64, &[u64])> {
            let page = counts[r].checked_sub(1)?;
            Some((page, self.page(r, page).expect("every window is read")))
        };
        let k = self.runs.len();
        let before: u64 = (0..k)
            .filter_map(window)
            .map(|(page, _)| page * self.per_page)
            .sum();
        let mut records: Vec<(u64, usize, usize)> = (0..k)
            .filter_map(|r| window(r).map(|(_, keys)| (r, keys)))
            .flat_map(|(r, keys)| keys.iter().enumerate().map(move |(i, &key)| (key, r, i)))
            .collect();
        let take = (g - before) as usize;
        debug_assert!(take <= records.len(), "split rank outside its windows");
        let pivot = (take < records.len()).then(|| *records.select_nth_unstable(take).1);
        (0..k)
            .map(|r| {
                let Some((page, keys)) = window(r) else {
                    return 0;
                };
                let inside = match pivot {
                    None => keys.len(),
                    Some((_, own, i)) if own == r => i,
                    Some((key, own, _)) => {
                        keys.partition_point(|&k| k < key || (k == key && r < own))
                    }
                };
                page * self.per_page + inside as u64
            })
            .collect()
    }
}
