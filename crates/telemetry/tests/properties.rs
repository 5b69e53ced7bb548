//! Property-based tests on the statistics and telemetry invariants µSKU's
//! decisions depend on.

use proptest::prelude::*;
use softsku_telemetry::stats::{
    bootstrap_mean_ci, effective_sample_size, t_quantile, welch_test, Summary,
};
use softsku_telemetry::{stream_seed, IdentitySeed, SeriesKey, StreamFamily, TieredOds};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Confidence intervals always bracket the sample mean and widen with
    /// the confidence level.
    #[test]
    fn ci_brackets_mean(xs in proptest::collection::vec(-1e4f64..1e4, 2..200)) {
        let s = Summary::from_samples(&xs).unwrap();
        let (lo90, hi90) = s.mean_ci(0.90).unwrap();
        let (lo99, hi99) = s.mean_ci(0.99).unwrap();
        prop_assert!(lo90 <= s.mean() && s.mean() <= hi90);
        prop_assert!(hi99 - lo99 >= hi90 - lo90 - 1e-12);
    }

    /// The t-quantile is antisymmetric: Q(p) = −Q(1−p).
    #[test]
    fn t_quantile_antisymmetric(p in 0.01f64..0.49, df in 1.0f64..200.0) {
        let lo = t_quantile(p, df);
        let hi = t_quantile(1.0 - p, df);
        prop_assert!((lo + hi).abs() < 1e-8, "Q({p})={lo}, Q({})={hi}", 1.0 - p);
    }

    /// Shifting both samples by a constant leaves the Welch decision
    /// unchanged (location invariance of the test statistic).
    #[test]
    fn welch_is_location_invariant(
        mean_gap in -5.0f64..5.0,
        var in 0.1f64..20.0,
        n in 4u64..500,
        shift in -1e5f64..1e5,
    ) {
        let a = Summary::from_moments(n, 100.0, var);
        let b = Summary::from_moments(n, 100.0 + mean_gap, var);
        let a2 = Summary::from_moments(n, 100.0 + shift, var);
        let b2 = Summary::from_moments(n, 100.0 + mean_gap + shift, var);
        let r1 = welch_test(&a, &b);
        let r2 = welch_test(&a2, &b2);
        prop_assert!((r1.t_statistic - r2.t_statistic).abs() < 1e-8);
        prop_assert!((r1.p_value - r2.p_value).abs() < 1e-8);
    }

    /// Bootstrap CIs are deterministic per seed and bracket their own point
    /// estimate.
    #[test]
    fn bootstrap_is_deterministic(
        xs in proptest::collection::vec(-100.0f64..100.0, 2..80),
        seed in any::<u64>(),
    ) {
        let a = bootstrap_mean_ci(&xs, 0.9, 200, seed).unwrap();
        let b = bootstrap_mean_ci(&xs, 0.9, 200, seed).unwrap();
        prop_assert_eq!(a, b);
        prop_assert!(a.low <= a.mean + 1e-9 && a.mean <= a.high + 1e-9);
    }

    /// Effective sample size never exceeds 2n and never drops below 1.
    #[test]
    fn ess_bounds(xs in proptest::collection::vec(-10.0f64..10.0, 3..300)) {
        let ess = effective_sample_size(&xs).unwrap();
        prop_assert!(ess >= 1.0);
        prop_assert!(ess <= 2.0 * xs.len() as f64);
    }

    /// ODS range queries partition the series: every point falls in exactly
    /// one bucket of a covering set of windows.
    #[test]
    fn ods_windows_partition(values in proptest::collection::vec(0.0f64..100.0, 1..200)) {
        let mut ods = TieredOds::unbounded();
        let key = SeriesKey::new("prop", "v");
        for (i, &v) in values.iter().enumerate() {
            ods.append(&key, i as f64, v).unwrap();
        }
        let n = values.len();
        let mid = n / 2;
        let first = ods.range(&key, 0.0, mid as f64).unwrap().len();
        let second = ods.range(&key, mid as f64, n as f64).unwrap().len();
        prop_assert_eq!(first + second, n);
    }

    /// Stream derivation is injective over the family registry for every
    /// base seed: no two families ever yield the same derived seed, so no
    /// two noise streams can silently couple (the 0xBEEF fleet/engine alias
    /// was exactly such a coupling before the registry existed).
    #[test]
    fn stream_seed_is_injective_over_families(base in any::<u64>()) {
        let derived: Vec<u64> = StreamFamily::ALL
            .iter()
            .map(|&f| stream_seed(base, f))
            .collect();
        for (i, a) in derived.iter().enumerate() {
            for (j, b) in derived.iter().enumerate().skip(i + 1) {
                prop_assert!(
                    a != b,
                    "{} and {} collide at base {base:#x}",
                    StreamFamily::ALL[i].name(),
                    StreamFamily::ALL[j].name(),
                );
            }
        }
        // And derivation is invertible: applying the mask twice returns the
        // base, so distinct bases can never alias within one family.
        for &f in StreamFamily::ALL.iter() {
            prop_assert_eq!(stream_seed(stream_seed(base, f), f), base);
        }
    }

    /// Identity-seed folding is order-sensitive and separator-disciplined:
    /// distinct field sequences yield distinct seeds even when their
    /// concatenations agree ("ab"+"c" vs "a"+"bc").
    #[test]
    fn identity_seed_separates_fields(base in any::<u64>()) {
        let ab_c = IdentitySeed::new(base).field("ab").field("c").finish();
        let a_bc = IdentitySeed::new(base).field("a").field("bc").finish();
        let abc = IdentitySeed::new(base).field("abc").finish();
        prop_assert!(ab_c != a_bc);
        prop_assert!(ab_c != abc);
        prop_assert!(a_bc != abc);
    }
}
