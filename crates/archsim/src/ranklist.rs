//! A rank-addressed sequence: the LRU stack behind the trace generator.
//!
//! The trace generator maintains an LRU stack of every line a workload has
//! touched; each synthetic access must *remove the element at rank d and
//! push it to the front* (a move-to-front at a sampled reuse distance). With
//! data footprints of millions of lines, a `Vec` would make that O(n) per
//! access.
//!
//! Earlier revisions used an implicit treap (randomized balanced tree).
//! This implementation keeps the exact same sequence semantics but stores
//! the elements in a *flat time-ordered array* with a Fenwick tree over
//! presence bits: a push writes the next-lower slot, a removal clears a
//! presence bit, and rank lookup is a Fenwick select. All operations are
//! O(log n) like the treap's, but on contiguous arrays instead of
//! pointer-chased tree nodes — several times faster per access at
//! multi-million-entry footprints — and with no randomness at all, so the
//! sequence produced for a given operation order is trivially deterministic.
//!
//! Slots vacated by removals are reclaimed lazily: when the front of the
//! array is exhausted, the live elements are compacted into a fresh array
//! with headroom proportional to the length (amortized O(1) per push).
//!
//! A pre-warmed stack ([`RankList::descending`]) stores none of its initial
//! values: slots past the written part of the array hold a descending run
//! computed from the slot index, so building a million-entry stack costs
//! only its presence bitmap and never touches the value array it would
//! otherwise fill.

/// Capacity of the hot front buffer. Reuse-distance distributions are
/// heavily weighted toward shallow ranks (L1-scale distances dominate), so
/// the true front of the sequence lives in a small `VecDeque` where a
/// move-to-front at rank `d` is an O(d) memmove of a few cache lines —
/// far cheaper than two O(log n) Fenwick walks over a million-slot array.
/// Past this depth the memmove would cost more than the Fenwick walk, so
/// deeper ranks fall through to the flat structure.
const HOT_CAP: usize = 512;

/// A sequence of `u64` values supporting rank-addressed operations in
/// O(log n) — O(rank) and Fenwick-free for ranks inside the hot front
/// buffer, the common case for reuse-distance streams.
///
/// # Example
///
/// ```
/// use softsku_archsim::ranklist::RankList;
///
/// let mut list = RankList::new(42);
/// list.push_front(10);
/// list.push_front(20);
/// list.push_front(30); // sequence: [30, 20, 10]
/// assert_eq!(list.len(), 3);
/// assert_eq!(list.remove_at(1), Some(20));
/// assert_eq!(list.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RankList {
    /// The first `hot.len()` elements of the sequence, most recent first.
    /// A shallow remove + push-front cycle (the dominant access pattern)
    /// stays entirely in this buffer: the remove frees a slot, so the
    /// following push triggers no spill and no Fenwick traffic at all.
    hot: std::collections::VecDeque<u64>,
    /// Value slots in recency order: lower index = more recently pushed.
    /// Only slots whose presence bit is set are live. Holds the sequence
    /// *after* the hot buffer. Slots at or past `vals.len()` were never
    /// written: their values are implicit (see `RankList::value`).
    vals: Vec<u64>,
    /// Presence bitmap over every slot, stored or implicit (one bit per
    /// slot).
    bits: Vec<u64>,
    /// Fenwick tree (1-indexed) over the *words* of `bits`: entry `i`
    /// covers the popcounts of a power-of-two run of 64-slot words. Keeping
    /// the tree at word granularity makes it 64x smaller than a per-slot
    /// tree — it stays cache-resident at multi-million-entry footprints,
    /// and a pre-warmed stack builds it in O(n/64).
    fen: Vec<u32>,
    /// First slot that may be live; slots below `front` are unused headroom.
    front: usize,
    /// Live element count in the backing array (excludes the hot buffer).
    back_len: usize,
    /// Value of the first implicit slot (`vals.len()`); each later slot
    /// holds one less.
    implicit_top: u64,
}

impl RankList {
    /// Creates an empty list. The `seed` parameter is retained from the
    /// treap-based revision (whose internal priorities it drove); the flat
    /// representation has no randomness, so it is unused.
    pub fn new(_seed: u64) -> Self {
        RankList {
            hot: std::collections::VecDeque::with_capacity(HOT_CAP + 1),
            vals: Vec::new(),
            bits: Vec::new(),
            fen: Vec::new(),
            front: 0,
            back_len: 0,
            implicit_top: 0,
        }
    }

    /// Builds a list containing `values` (front to back) in O(n) — used to
    /// pre-warm multi-million entry LRU stacks cheaply.
    pub fn with_sequence<I>(seed: u64, values: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        let mut list = RankList::new(seed);
        let vals: Vec<u64> = values.into_iter().collect();
        list.rebuild_back(vals);
        list
    }

    /// Builds the list `n-1, n-2, …, 0` (front to back) in O(n/64): the
    /// pre-warmed LRU stack of a trace stream, whose ids descend so that
    /// the next cold id continues the sequence. Equal to
    /// `with_sequence(_, (0..n).rev())`, but the values stay implicit until
    /// a compaction materialises them, so the value array is never filled
    /// and, beyond the push headroom, never allocated.
    pub fn descending(n: u64) -> Self {
        let implicit_top = n.saturating_sub(1);
        let n = n as usize;
        let slack = push_headroom(n);
        let cap = n + slack;
        let words = cap.div_ceil(64);
        // Presence bits for slots [slack, cap), a word at a time.
        let mut bits = vec![0u64; words];
        for (w, word) in bits.iter_mut().enumerate().skip(slack >> 6) {
            let lo = slack.max(w << 6) - (w << 6);
            let hi = cap.min((w + 1) << 6) - (w << 6);
            *word = (u64::MAX >> (64 - (hi - lo))) << lo;
        }
        let mut list = RankList {
            hot: std::collections::VecDeque::with_capacity(HOT_CAP + 1),
            // Only the headroom below `front` is written before the first
            // compaction, and its zeroed pages are not touched until a
            // push reaches them.
            vals: vec![0; slack],
            bits,
            fen: vec![0; words + 1],
            front: slack,
            back_len: n,
            implicit_top,
        };
        list.build_fenwick();
        list
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.hot.len() + self.back_len
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `value` at the front (rank 0).
    pub fn push_front(&mut self, value: u64) {
        self.hot.push_front(value);
        if self.hot.len() > HOT_CAP {
            // Spill the hot buffer's tail — the most recent element of the
            // backing sequence — to the backing front.
            let tail = self.hot.pop_back().expect("hot is non-empty: just pushed");
            self.back_push_front(tail);
        }
    }

    /// Removes and returns the element at `rank`, or `None` if out of range.
    pub fn remove_at(&mut self, rank: usize) -> Option<u64> {
        if rank < self.hot.len() {
            return self.hot.remove(rank);
        }
        self.back_remove_at(rank - self.hot.len())
    }

    /// Removes and returns the last element (deepest LRU position).
    pub fn pop_back(&mut self) -> Option<u64> {
        if self.back_len > 0 {
            self.back_remove_at(self.back_len - 1)
        } else {
            self.hot.pop_back()
        }
    }

    /// Reads the element at `rank` without removing it.
    pub fn get(&self, rank: usize) -> Option<u64> {
        if rank < self.hot.len() {
            return self.hot.get(rank).copied();
        }
        let back = rank - self.hot.len();
        if back >= self.back_len {
            return None;
        }
        let slot = self.select_slot(back as u32 + 1);
        Some(self.value(slot))
    }

    /// Collects the sequence front-to-back (O(n); for tests and debugging).
    pub fn to_vec(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.hot.iter().copied());
        out.extend(self.collect_back());
        out
    }

    /// Inserts `value` at the front of the backing array.
    fn back_push_front(&mut self, value: u64) {
        if self.front == 0 {
            let live = self.collect_back();
            self.rebuild_back(live);
        }
        self.front -= 1;
        let slot = self.front;
        self.vals[slot] = value;
        self.bits[slot >> 6] |= 1u64 << (slot & 63);
        self.fen_add((slot >> 6) + 1, 1);
        self.back_len += 1;
    }

    /// Removes and returns the backing element at `rank` (relative to the
    /// backing sequence), or `None` if out of range.
    fn back_remove_at(&mut self, rank: usize) -> Option<u64> {
        if rank >= self.back_len {
            return None;
        }
        let slot = self.select_slot(rank as u32 + 1);
        self.bits[slot >> 6] &= !(1u64 << (slot & 63));
        self.fen_add((slot >> 6) + 1, -1);
        self.back_len -= 1;
        Some(self.value(slot))
    }

    /// The value in `slot`: stored below `vals.len()`, implicit at or past
    /// it (the descending run a pre-warmed stack started with).
    fn value(&self, slot: usize) -> u64 {
        match self.vals.get(slot) {
            Some(&v) => v,
            None => self.implicit_top - (slot - self.vals.len()) as u64,
        }
    }

    /// Live backing values in recency order.
    fn collect_back(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.back_len);
        for slot in self.front..self.bits.len() * 64 {
            if self.bits[slot >> 6] & (1u64 << (slot & 63)) != 0 {
                out.push(self.value(slot));
            }
        }
        out
    }

    /// Re-lays `live` (front-to-back order) into a fresh, fully stored
    /// array with push headroom below it, and rebuilds the Fenwick tree in
    /// O(n).
    fn rebuild_back(&mut self, live: Vec<u64>) {
        let n = live.len();
        let slack = push_headroom(n);
        let cap = n + slack;
        let words = cap.div_ceil(64);
        self.vals = vec![0; cap];
        self.bits = vec![0; words];
        self.fen = vec![0; words + 1];
        self.front = slack;
        self.back_len = n;
        for (i, v) in live.into_iter().enumerate() {
            let slot = slack + i;
            self.vals[slot] = v;
            self.bits[slot >> 6] |= 1u64 << (slot & 63);
        }
        self.build_fenwick();
    }

    /// O(words) Fenwick construction from per-word popcounts into a zeroed
    /// `fen`.
    fn build_fenwick(&mut self) {
        let words = self.bits.len();
        for i in 1..=words {
            self.fen[i] += self.bits[i - 1].count_ones();
            let j = i + (i & i.wrapping_neg());
            if j <= words {
                self.fen[j] += self.fen[i];
            }
        }
    }

    fn fen_add(&mut self, mut pos: usize, delta: i32) {
        let cap = self.fen.len() - 1;
        while pos <= cap {
            self.fen[pos] = (self.fen[pos] as i64 + delta as i64) as u32;
            pos += pos & pos.wrapping_neg();
        }
    }

    /// Returns the 0-indexed slot holding the `k`-th live element (k >= 1):
    /// a Fenwick descent to the 64-slot word containing it, then a popcount
    /// bit-select inside that word.
    fn select_slot(&self, k: u32) -> usize {
        let words = self.fen.len() - 1;
        let mut pos = 0usize;
        let mut rem = k;
        let mut step = words.next_power_of_two();
        // `next_power_of_two` may exceed words; the bounds check below
        // covers it, and halving reaches every prefix length.
        while step > 0 {
            let next = pos + step;
            if next <= words && self.fen[next] < rem {
                pos = next;
                rem -= self.fen[next];
            }
            step >>= 1;
        }
        // `pos` is the word holding the target bit; `rem` is its 1-based
        // rank among that word's set bits.
        let mut word = self.bits[pos];
        for _ in 1..rem {
            word &= word - 1;
        }
        (pos << 6) + word.trailing_zeros() as usize
    }
}

/// Push headroom below `n` live slots. Sized to the live set, so a
/// compaction costs O(n) per ~n/2 pushes — amortized O(1) per push.
fn push_headroom(n: usize) -> usize {
    (n / 2).max(64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_order() {
        let mut list = RankList::new(1);
        for i in 0..10 {
            list.push_front(i);
        }
        assert_eq!(list.to_vec(), (0..10).rev().collect::<Vec<u64>>());
        assert_eq!(list.len(), 10);
    }

    #[test]
    fn remove_at_matches_vec_model() {
        let mut list = RankList::new(7);
        let mut model: Vec<u64> = Vec::new();
        // Deterministic pseudo-random operation sequence.
        let mut state = 12345u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m.max(1)
        };
        for i in 0..2000u64 {
            if model.is_empty() || next(3) != 0 {
                list.push_front(i);
                model.insert(0, i);
            } else {
                let rank = next(model.len() as u64) as usize;
                assert_eq!(list.remove_at(rank), Some(model.remove(rank)));
            }
            if i % 257 == 0 {
                assert_eq!(list.to_vec(), model);
            }
        }
        assert_eq!(list.to_vec(), model);
    }

    #[test]
    fn get_does_not_mutate() {
        let mut list = RankList::new(3);
        for i in 0..100 {
            list.push_front(i);
        }
        let snapshot = list.to_vec();
        for (rank, &expected) in snapshot.iter().enumerate() {
            assert_eq!(list.get(rank), Some(expected));
        }
        assert_eq!(list.to_vec(), snapshot);
        assert_eq!(list.get(100), None);
    }

    #[test]
    fn pop_back_drains_in_reverse() {
        let mut list = RankList::new(5);
        for i in 0..50 {
            list.push_front(i);
        }
        for i in 0..50 {
            assert_eq!(list.pop_back(), Some(i));
        }
        assert_eq!(list.pop_back(), None);
        assert!(list.is_empty());
    }

    #[test]
    fn out_of_range_removal_is_none() {
        let mut list = RankList::new(0);
        assert_eq!(list.remove_at(0), None);
        list.push_front(9);
        assert_eq!(list.remove_at(1), None);
        assert_eq!(list.remove_at(0), Some(9));
    }

    #[test]
    fn node_reuse_keeps_len_consistent() {
        let mut list = RankList::new(11);
        for round in 0..20u64 {
            for i in 0..100 {
                list.push_front(round * 100 + i);
            }
            for _ in 0..100 {
                list.pop_back();
            }
            assert_eq!(list.len(), 0);
        }
    }

    #[test]
    fn with_sequence_matches_pushes() {
        let built = RankList::with_sequence(9, (0..1000u64).rev());
        let mut pushed = RankList::new(9);
        for i in 0..1000u64 {
            pushed.push_front(i);
        }
        assert_eq!(built.to_vec(), pushed.to_vec());
        assert_eq!(built.len(), 1000);
    }

    #[test]
    fn compaction_preserves_order_under_churn() {
        // Force many compaction cycles: small initial headroom, heavy
        // interleaved push/remove traffic against a model.
        let mut list = RankList::with_sequence(1, (0..100u64).rev());
        let mut model: Vec<u64> = (0..100u64).rev().collect();
        let mut state = 99u64;
        for i in 100..20_000u64 {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            if state.is_multiple_of(5) && !model.is_empty() {
                let rank = ((state >> 33) as usize) % model.len();
                assert_eq!(list.remove_at(rank), Some(model.remove(rank)));
            } else {
                list.push_front(i);
                model.insert(0, i);
            }
        }
        assert_eq!(list.to_vec(), model);
    }

    #[test]
    fn descending_materialises_its_values_on_compaction() {
        let n = 5_000u64;
        let mut list = RankList::descending(n);
        let mut model: Vec<u64> = (0..n).rev().collect();
        assert_eq!(
            list.vals.len(),
            push_headroom(n as usize),
            "values start implicit"
        );
        let mut state = 7u64;
        for i in n..n + 8_000 {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            if state.is_multiple_of(4) {
                let rank = ((state >> 33) as usize) % model.len();
                assert_eq!(list.remove_at(rank), Some(model.remove(rank)));
            } else {
                list.push_front(i);
                model.insert(0, i);
            }
        }
        assert_eq!(
            list.vals.len().div_ceil(64),
            list.bits.len(),
            "a compaction stored every value"
        );
        assert_eq!(list.to_vec(), model);
    }

    #[test]
    fn large_scale_move_to_front() {
        // The exact access pattern the trace generator performs.
        let mut list = RankList::new(99);
        for i in 0..100_000u64 {
            list.push_front(i);
        }
        let mut state = 1u64;
        for _ in 0..50_000 {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let rank = ((state >> 33) as usize) % list.len();
            let v = list.remove_at(rank).unwrap();
            list.push_front(v);
        }
        assert_eq!(list.len(), 100_000);
    }
}
