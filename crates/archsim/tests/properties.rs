//! Property-based tests on the simulator's core data structures.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use softsku_archsim::cache::SetAssocCache;
use softsku_archsim::ranklist::RankList;
use softsku_archsim::reuse::ReuseDistanceDist;
use softsku_archsim::tlb::LruSet;
use softsku_archsim::trace::StackMapper;

/// Pre-warmed stack lengths for the `RankList` differential test: around
/// the 64-slot bitmap words and the 512-entry hot buffer, and one deeper
/// stack whose implicit run a test case pushes through compaction.
const DESCENDING_LENS: [u64; 9] = [0, 1, 63, 64, 65, 511, 512, 513, 1000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The inverse-survival sampler only produces distances inside
    /// `[1, footprint)` plus the cold mass, and the empirical cold fraction
    /// tracks the configured one.
    #[test]
    fn sampled_distances_are_in_range(
        seed in any::<u64>(),
        knee_exp in 3u32..14,
        miss in 0.05f64..0.8,
        cold in 0.0f64..0.04,
    ) {
        let knee = 1u64 << knee_exp;
        let footprint = knee * 8;
        let dist = ReuseDistanceDist::single_knee(knee, miss, cold, footprint).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut colds = 0usize;
        let n = 3000;
        for _ in 0..n {
            match dist.sample(&mut rng) {
                None => colds += 1,
                Some(d) => prop_assert!((1..footprint).contains(&d), "distance {d}"),
            }
        }
        let frac = colds as f64 / n as f64;
        prop_assert!((frac - cold).abs() < 0.03, "cold {frac} vs {cold}");
    }

    /// Compaction by any factor ≥ 1 preserves validity and never increases
    /// the footprint.
    #[test]
    fn compaction_preserves_validity(factor in 1.0f64..512.0) {
        let dist = ReuseDistanceDist::from_survival_points(
            &[(128, 0.2), (4096, 0.05)],
            0.01,
            100_000,
        )
        .unwrap();
        let compacted = dist.compacted(factor);
        prop_assert!(compacted.footprint() <= dist.footprint());
        prop_assert!(compacted.miss_ratio(1) == 1.0);
        prop_assert!(compacted.miss_ratio(u64::MAX) <= dist.miss_ratio(1));
    }

    /// The stack mapper's id stream respects the footprint bound no matter
    /// the distribution shape.
    #[test]
    fn mapper_never_exceeds_footprint(
        seed in any::<u64>(),
        fp_exp in 4u32..12,
    ) {
        let footprint = 1u64 << fp_exp;
        let dist = ReuseDistanceDist::single_knee(
            footprint / 4,
            0.3,
            0.05,
            footprint,
        )
        .unwrap();
        let mut mapper = StackMapper::new(dist, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 1);
        for _ in 0..2000 {
            let _ = mapper.access(&mut rng);
            prop_assert!(mapper.live_ids() as u64 <= footprint);
        }
    }

    /// A cache access is a hit iff the line was in the same set's most
    /// recent `ways` distinct accesses — verified against a brute-force
    /// model on single-set caches.
    #[test]
    fn single_set_cache_is_exact_lru(
        ways in 1u32..9,
        accesses in proptest::collection::vec(0u64..24, 1..300),
    ) {
        let mut cache = SetAssocCache::new(1, ways).unwrap();
        let mut recency: Vec<u64> = Vec::new();
        for &a in &accesses {
            let model_hit = recency.iter().position(|&x| x == a).map(|p| {
                recency.remove(p);
            }).is_some();
            recency.insert(0, a);
            recency.truncate(ways as usize);
            prop_assert_eq!(cache.access(a), model_hit, "line {}", a);
        }
    }

    /// LruSet and RankList agree with their vector models under arbitrary
    /// workloads (cross-checked against each other via recency semantics).
    #[test]
    fn lru_set_capacity_invariant(
        cap in 1usize..64,
        keys in proptest::collection::vec(0u64..128, 1..400),
    ) {
        let mut set = LruSet::new(cap).unwrap();
        for &k in &keys {
            set.access(k);
            prop_assert!(set.len() <= cap);
        }
        // The most recent key is always resident.
        let last = *keys.last().unwrap();
        prop_assert!(set.access(last));
    }

    /// RankList front-insert/pop_back round-trips arbitrary sequences (FIFO
    /// through the stack).
    #[test]
    fn ranklist_fifo_roundtrip(values in proptest::collection::vec(any::<u64>(), 0..200)) {
        let mut list = RankList::new(3);
        for &v in &values {
            list.push_front(v);
        }
        let mut drained = Vec::new();
        while let Some(v) = list.pop_back() {
            drained.push(v);
        }
        prop_assert_eq!(drained, values);
    }

    /// RankList is a `Vec` under any mix of push-front, remove-at-rank,
    /// get and pop-back, starting empty (`new`), from an arbitrary
    /// sequence (`with_sequence`) or from an implicit pre-warmed stack
    /// (`descending`). Half the ranks are shallow, straddling the hot
    /// buffer's 512-entry edge; the rest span the list, one past the end
    /// included. The ops are push-heavy, so the backing front runs out of
    /// headroom and compaction materialises the implicit values.
    #[test]
    fn ranklist_matches_vec_model_from_every_start(
        start in 0usize..3,
        len_idx in 0usize..DESCENDING_LENS.len(),
        sequence in proptest::collection::vec(any::<u64>(), 0..700),
        ops in proptest::collection::vec((0u8..10, any::<u32>(), any::<bool>()), 2000..3000),
    ) {
        let (mut list, mut model) = match start {
            0 => (RankList::new(5), Vec::new()),
            1 => (RankList::with_sequence(5, sequence.clone()), sequence),
            _ => {
                let n = DESCENDING_LENS[len_idx];
                (RankList::descending(n), (0..n).rev().collect::<Vec<u64>>())
            }
        };
        let mut next = 1u64 << 40;
        for (kind, raw, shallow) in ops {
            let len = model.len();
            let rank = if shallow { raw as usize % 640 } else { raw as usize % (len + 1) };
            match kind {
                0..=5 => {
                    list.push_front(next);
                    model.insert(0, next);
                    next += 1;
                }
                6 | 7 => {
                    let expected = (rank < len).then(|| model.remove(rank));
                    prop_assert_eq!(list.remove_at(rank), expected, "remove_at({})", rank);
                }
                8 => prop_assert_eq!(list.get(rank), model.get(rank).copied(), "get({})", rank),
                _ => prop_assert_eq!(list.pop_back(), model.pop()),
            }
            prop_assert_eq!(list.len(), model.len());
        }
        prop_assert_eq!(list.to_vec(), model);
    }

    /// `descending(n)` holds `n-1, …, 0` for any `n`.
    #[test]
    fn ranklist_descending_is_the_reversed_range(n in 0u64..5000) {
        prop_assert_eq!(RankList::descending(n).to_vec(), (0..n).rev().collect::<Vec<u64>>());
    }

    /// with_sequence builds exactly the given order for any input.
    #[test]
    fn ranklist_with_sequence_preserves_order(values in proptest::collection::vec(any::<u64>(), 0..300)) {
        let list = RankList::with_sequence(11, values.clone());
        prop_assert_eq!(list.to_vec(), values);
    }
}
