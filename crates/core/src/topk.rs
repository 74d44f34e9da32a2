//! Bounded top-k collection for nearest-neighbor candidates.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Scalar;

/// One answer of a P2HNNS query: a data point index together with its point-to-hyperplane
/// distance `|⟨x, q⟩|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the data point in the original [`crate::PointSet`].
    pub index: usize,
    /// Point-to-hyperplane distance of the data point to the query.
    pub distance: Scalar,
}

impl Neighbor {
    /// Creates a new neighbor record.
    #[inline]
    pub fn new(index: usize, distance: Scalar) -> Self {
        Self { index, distance }
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    /// Orders by distance (total order on floats), breaking ties by index so results are
    /// deterministic.
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance.total_cmp(&other.distance).then_with(|| self.index.cmp(&other.index))
    }
}

/// Merges per-source top-k lists (already mapped to global ids) into the global top-k,
/// using the total [`Neighbor`] order — fully deterministic, no arrival-order tie
/// breaking. Each input list must itself be sorted; the output holds at most
/// `max(k, 1)` neighbors (matching the collector's clamp of `k = 0`).
///
/// This is the single merge used by every fan-out path in the workspace — shard
/// fan-out, the distributed router, and the live memtable-over-base layering — which
/// is what makes their answers bit-identical to an unsharded/rebuilt index.
pub fn merge_topk(k: usize, lists: Vec<Vec<Neighbor>>) -> Vec<Neighbor> {
    let k = k.max(1);
    let mut merged: Vec<Neighbor> = match lists.len() {
        0 => Vec::new(),
        1 => lists.into_iter().next().expect("one list"),
        _ => {
            // Exact-size concatenation: `flatten().collect()` would reallocate while
            // growing (flatten cannot size-hint the total), breaking the fixed
            // shards + 2 per-query allocation budget of the fan-out path.
            let total = lists.iter().map(Vec::len).sum();
            let mut merged = Vec::with_capacity(total);
            for list in &lists {
                merged.extend_from_slice(list);
            }
            merged
        }
    };
    // Per-source lists are tiny (≤ k each), so one sort beats a k-way heap merge in
    // both simplicity and constant factor; `Neighbor`'s `Ord` is the total order.
    merged.sort_unstable();
    merged.truncate(k);
    merged
}

/// A growable set of ids, one bit each: the exclusion filter of a
/// [`TopKCollector`], and the live tier's base tombstones.
///
/// Ids at or beyond the highest word ever touched are absent, so an empty set costs
/// no memory and a filter never needs to be sized to the index it guards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdBitset {
    words: Vec<u64>,
    len: usize,
}

impl IdBitset {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no id.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        self.words.get(id / 64).is_some_and(|word| word & (1 << (id % 64)) != 0)
    }

    /// Adds `id`, growing the set as needed; returns whether it was absent.
    pub fn insert(&mut self, id: usize) -> bool {
        let word = id / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1 << (id % 64);
        let absent = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += usize::from(absent);
        absent
    }

    /// Empties the set, keeping its allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Makes this set a copy of `other`, reusing this set's allocation.
    pub fn copy_from(&mut self, other: &IdBitset) {
        self.words.clone_from(&other.words);
        self.len = other.len;
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

impl FromIterator<usize> for IdBitset {
    fn from_iter<I: IntoIterator<Item = usize>>(ids: I) -> Self {
        let mut set = Self::new();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

/// A bounded max-heap that keeps the `k` smallest neighbors seen so far.
///
/// This is the `q.bm` / `q.λ` pair of Algorithms 3 and 5 in the paper generalized to
/// top-k: [`TopKCollector::threshold`] is the current `q.λ`, the distance of the worst
/// neighbor held.
///
/// **Tie rule.** Candidates are ranked by the total [`Neighbor`] order: smaller
/// distance first, and at equal distance the smaller id. A full collector admits a
/// candidate exactly when it ranks before the worst neighbor held, so the final top-k
/// is the unique top-k of everything offered, whatever order it was offered in. The
/// trees therefore prune a subtree only when its lower bound is strictly greater than
/// `q.λ` (a point at exactly `q.λ` with a smaller id can still enter), and the live
/// tier's layering relies on the same uniqueness for bit-identical answers.
///
/// **Exclusion filter.** Ids in [`TopKCollector::set_excluded`]'s set are never
/// admitted. The check runs only after a candidate passes the threshold, so the
/// common reject path costs nothing extra; ids beyond the set's length are never
/// excluded. [`TopKCollector::reset`] leaves the filter in place.
#[derive(Debug, Clone)]
pub struct TopKCollector {
    k: usize,
    heap: BinaryHeap<Neighbor>,
    excluded: IdBitset,
}

impl TopKCollector {
    /// Creates a collector for the `k` nearest neighbors. `k` is clamped to at least 1.
    pub fn new(k: usize) -> Self {
        let k = k.max(1);
        Self { k, heap: BinaryHeap::with_capacity(k + 1), excluded: IdBitset::new() }
    }

    /// The `k` this collector was created with.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of neighbors currently held (at most `k`).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no neighbor has been offered yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the collector already holds `k` neighbors.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The current pruning threshold `q.λ`: the k-th smallest distance seen so far, or
    /// `+∞` while fewer than `k` candidates have been accepted.
    ///
    /// Any candidate (or subtree) whose lower bound is greater than this value cannot
    /// improve the result set and can be pruned; at equal distance only a smaller id
    /// can still enter (see the tie rule above).
    #[inline]
    pub fn threshold(&self) -> Scalar {
        if self.is_full() {
            self.heap.peek().map_or(Scalar::INFINITY, |n| n.distance)
        } else {
            Scalar::INFINITY
        }
    }

    /// Offers a candidate; returns `true` if it entered the current top-k.
    #[inline]
    pub fn offer(&mut self, index: usize, distance: Scalar) -> bool {
        let candidate = Neighbor::new(index, distance);
        if self.heap.len() >= self.k {
            let worst = *self.heap.peek().expect("k >= 1, so a full heap is non-empty");
            // Full: the candidate must rank strictly before the worst neighbor held.
            // The float test rejects the common case in one comparison; it agrees with
            // the total order wherever it fires (NaN never compares greater, so it
            // falls through to the exact comparison).
            if distance > worst.distance || candidate >= worst || self.excluded.contains(index) {
                return false;
            }
            *self.heap.peek_mut().expect("full heap") = candidate;
            return true;
        }
        if self.excluded.contains(index) {
            return false;
        }
        self.heap.push(candidate);
        true
    }

    /// Installs `ids` as the exclusion filter (a copy into this collector's own
    /// storage, reusing its allocation). It stays until replaced or cleared.
    pub fn set_excluded(&mut self, ids: &IdBitset) {
        self.excluded.copy_from(ids);
    }

    /// Removes the exclusion filter (keeping its allocation).
    pub fn clear_excluded(&mut self) {
        self.excluded.clear();
    }

    /// Prepares the collector for a fresh query: empties the heap (keeping its
    /// allocation) and sets a new `k` (clamped to at least 1). The exclusion filter is
    /// left as it is.
    ///
    /// This is the reuse hook of the allocation-free query path: a
    /// [`crate::QueryScratch`] resets its collector between queries instead of
    /// constructing a new one, so the heap storage is allocated once per worker rather
    /// than once per query.
    pub fn reset(&mut self, k: usize) {
        self.k = k.max(1);
        self.heap.clear();
    }

    /// Drains the collector and returns the neighbors sorted by ascending distance,
    /// keeping the heap's allocation for reuse (unlike [`Self::into_sorted_vec`]).
    ///
    /// The returned vector is the only allocation: it is the query's answer, owned by
    /// the caller.
    pub fn take_sorted(&mut self) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self.heap.drain().collect();
        v.sort_unstable();
        v
    }

    /// Consumes the collector and returns the neighbors sorted by ascending distance.
    pub fn into_sorted_vec(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }

    /// Returns the neighbors sorted by ascending distance without consuming the
    /// collector.
    pub fn to_sorted_vec(&self) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self.heap.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keeps_k_smallest() {
        let mut c = TopKCollector::new(3);
        assert!(c.is_empty());
        assert_eq!(c.threshold(), Scalar::INFINITY);
        for (i, d) in [5.0, 1.0, 4.0, 2.0, 3.0, 0.5].iter().enumerate() {
            c.offer(i, *d);
        }
        assert!(c.is_full());
        let result = c.into_sorted_vec();
        let distances: Vec<Scalar> = result.iter().map(|n| n.distance).collect();
        assert_eq!(distances, vec![0.5, 1.0, 2.0]);
        assert_eq!(result[0].index, 5);
    }

    #[test]
    fn threshold_tracks_kth_best() {
        let mut c = TopKCollector::new(2);
        c.offer(0, 10.0);
        assert_eq!(c.threshold(), Scalar::INFINITY, "not full yet");
        c.offer(1, 5.0);
        assert_eq!(c.threshold(), 10.0);
        assert!(c.offer(2, 1.0));
        assert_eq!(c.threshold(), 5.0);
        assert!(!c.offer(3, 9.0), "worse than threshold must be rejected");
        assert_eq!(c.threshold(), 5.0);
    }

    #[test]
    fn k_zero_clamps_to_one() {
        let mut c = TopKCollector::new(0);
        assert_eq!(c.k(), 1);
        c.offer(0, 2.0);
        c.offer(1, 1.0);
        let v = c.into_sorted_vec();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].index, 1);
    }

    #[test]
    fn equal_distances_break_ties_by_index() {
        let a = Neighbor::new(3, 1.0);
        let b = Neighbor::new(5, 1.0);
        assert!(a < b);
        let mut c = TopKCollector::new(1);
        c.offer(5, 1.0);
        // An equal distance with a smaller id ranks first, so it displaces the
        // incumbent: the answer does not depend on the offer order.
        assert!(c.offer(3, 1.0));
        assert!(!c.offer(4, 1.0), "a larger id at the threshold distance stays out");
        assert_eq!(c.into_sorted_vec(), vec![Neighbor::new(3, 1.0)]);
    }

    #[test]
    fn id_bitset_tracks_membership_count_and_order() {
        let mut set = IdBitset::new();
        assert!(set.is_empty());
        assert!(!set.contains(0) && !set.contains(1_000_000), "beyond the words: absent");
        for id in [130, 3, 64, 63, 3] {
            set.insert(id);
        }
        assert_eq!(set.len(), 4, "a repeated insert is not counted twice");
        assert!(!set.insert(64));
        assert!(set.contains(63) && set.contains(64) && !set.contains(65));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 63, 64, 130]);
        let mut copy = IdBitset::from_iter([7]);
        copy.copy_from(&set);
        assert_eq!(copy, set);
        assert_eq!(set.clone(), set);
        set.clear();
        assert!(set.is_empty() && !set.contains(3));
        assert_eq!(set.iter().count(), 0);
    }

    #[test]
    fn excluded_ids_never_enter_and_reset_keeps_the_filter() {
        let mut c = TopKCollector::new(2);
        c.set_excluded(&IdBitset::from_iter([1, 4]));
        for (i, d) in [3.0, 0.1, 2.0, 5.0, 0.2].iter().enumerate() {
            c.offer(i, *d);
        }
        let ids: Vec<usize> = c.take_sorted().iter().map(|n| n.index).collect();
        assert_eq!(ids, vec![2, 0], "the two best non-excluded ids");
        c.reset(1);
        assert!(!c.offer(1, 0.0), "the filter survives reset, even while not full");
        assert!(c.offer(9, 0.5), "ids beyond the set's words are never excluded");
        c.clear_excluded();
        assert!(c.offer(1, 0.0));
    }

    #[test]
    fn reset_reuses_the_heap_and_reclamps_k() {
        let mut c = TopKCollector::new(3);
        for (i, d) in [4.0, 2.0, 6.0, 1.0].iter().enumerate() {
            c.offer(i, *d);
        }
        assert!(c.is_full());
        c.reset(2);
        assert!(c.is_empty());
        assert_eq!(c.k(), 2);
        assert_eq!(c.threshold(), Scalar::INFINITY);
        c.offer(7, 9.0);
        c.offer(8, 3.0);
        let v = c.take_sorted();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].index, 8);
        // take_sorted drained the heap but the collector remains usable.
        assert!(c.is_empty());
        c.offer(1, 1.0);
        assert_eq!(c.len(), 1);
        c.reset(0);
        assert_eq!(c.k(), 1, "k is clamped to at least 1 on reset");
    }

    #[test]
    fn take_sorted_matches_into_sorted_vec() {
        let mut a = TopKCollector::new(4);
        let mut b = TopKCollector::new(4);
        for (i, d) in [5.0, 1.0, 3.0, 2.0, 4.0, 0.5].iter().enumerate() {
            a.offer(i, *d);
            b.offer(i, *d);
        }
        assert_eq!(a.take_sorted(), b.into_sorted_vec());
    }

    #[test]
    fn to_sorted_vec_does_not_consume() {
        let mut c = TopKCollector::new(2);
        c.offer(0, 3.0);
        c.offer(1, 1.0);
        let snapshot = c.to_sorted_vec();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(snapshot, c.into_sorted_vec());
    }

    proptest! {
        #[test]
        fn matches_full_sort(
            distances in proptest::collection::vec(0.0f32..100.0, 1..200),
            k in 1usize..20,
        ) {
            let mut c = TopKCollector::new(k);
            for (i, &d) in distances.iter().enumerate() {
                c.offer(i, d);
            }
            let got: Vec<Scalar> = c.into_sorted_vec().iter().map(|n| n.distance).collect();

            let mut expected = distances.clone();
            expected.sort_by(|a, b| a.total_cmp(b));
            expected.truncate(k);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn tied_and_excluded_candidates_match_a_filtered_full_sort(
            distances in proptest::collection::vec(0u32..6, 1..200),
            excluded in proptest::collection::vec(0usize..250, 0..40),
            k in 1usize..20,
        ) {
            // Few distinct distances, so most admissions are decided by the id.
            let excluded: IdBitset = excluded.into_iter().collect();
            let mut c = TopKCollector::new(k);
            c.set_excluded(&excluded);
            // Offer in a scrambled order: the answer must not depend on it.
            let n = distances.len();
            for i in (0..n).map(|i| (i * 7919) % n) {
                c.offer(i, distances[i] as Scalar);
            }
            let mut expected: Vec<Neighbor> = (0..n)
                .filter(|&i| !excluded.contains(i))
                .map(|i| Neighbor::new(i, distances[i] as Scalar))
                .collect();
            expected.sort_unstable();
            expected.truncate(k);
            prop_assert_eq!(c.into_sorted_vec(), expected);
        }

        #[test]
        fn threshold_is_monotone_nonincreasing(
            distances in proptest::collection::vec(0.0f32..100.0, 1..100),
            k in 1usize..10,
        ) {
            let mut c = TopKCollector::new(k);
            let mut prev = Scalar::INFINITY;
            for (i, &d) in distances.iter().enumerate() {
                c.offer(i, d);
                let t = c.threshold();
                prop_assert!(t <= prev);
                prev = t;
            }
        }
    }
}
