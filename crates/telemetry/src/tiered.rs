//! The ODS-like time-series store: raw points cascade into downsampled
//! tiers.
//!
//! Production ODS cannot keep raw samples forever — Facebook's store keeps
//! recent data at full resolution and rolls older data into progressively
//! coarser aggregates. [`TieredOds`] reproduces that shape so the
//! `rollout.*` ledger and `DriftMonitor`'s rolling windows run on bounded
//! memory instead of unbounded appends (the "ODS retention at scale"
//! ROADMAP item):
//!
//! * the **raw tier** holds full-resolution points for `raw_window_s`
//!   behind the newest timestamp of each series;
//! * points evicted from raw fold into tier 0's open bucket (bucket width
//!   `bucket_s`, aligned to `floor(t / bucket_s) * bucket_s`), carrying a
//!   count-weighted mean;
//! * each tier keeps closed buckets for its own `window_s` and evicts older
//!   buckets into the next tier; the last tier simply drops what falls off
//!   (use `f64::INFINITY` to keep forever).
//!
//! [`TieredOds::unbounded`] keeps every point raw and is the default store;
//! only the rollout and chaos ledgers configure tiers.
//!
//! A point (or bucket) at exactly `newest − window` survives — eviction
//! uses a strict `<` against the horizon. Closed buckets always carry
//! `count ≥ 1`, so no query can ever observe a NaN mean.
//!
//! Eviction is driven purely by appended timestamps, never by wall clocks,
//! and non-finite timestamps are rejected, so a `TieredOds` is
//! deterministic and every raw tier is sorted.

use crate::error::TelemetryError;
use crate::ods::{Point, SeriesKey};
use std::collections::BTreeMap;

/// One downsampled observation: a closed bucket's start time, mean value,
/// and the number of raw observations folded into it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierPoint {
    /// Bucket start (aligned to the tier's bucket width).
    pub t: f64,
    /// Count-weighted mean of everything folded into the bucket.
    pub mean: f64,
    /// Raw observations represented by this bucket (always ≥ 1).
    pub count: u64,
}

/// Configuration of one downsampled tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierSpec {
    /// Bucket width in seconds (must be positive and finite).
    pub bucket_s: f64,
    /// How long closed buckets stay in this tier before cascading onward,
    /// relative to the newest raw timestamp. `f64::INFINITY` keeps forever.
    pub window_s: f64,
}

/// Per-series storage: raw points plus an open bucket and closed buckets
/// per tier.
#[derive(Debug, Clone, Default)]
struct Series {
    raw: Vec<Point>,
    /// Open (still-accumulating) bucket per tier: (bucket_start, sum, count).
    open: Vec<Option<(f64, f64, u64)>>,
    /// Closed buckets per tier, oldest first.
    closed: Vec<Vec<TierPoint>>,
}

/// Time-series store with raw → downsampled retention tiers.
///
/// Appends are monotone per series; [`range`](TieredOds::range) and
/// [`mean_in`](TieredOds::mean_in) query the raw tier, and tier inspection
/// serves `skuctl ledger`.
///
/// # Example
///
/// ```
/// use softsku_telemetry::{SeriesKey, TieredOds, TierSpec};
///
/// let mut ods = TieredOds::with_tiers(
///     60.0,
///     vec![TierSpec { bucket_s: 60.0, window_s: f64::INFINITY }],
/// )
/// .unwrap();
/// let key = SeriesKey::new("web.fleet", "qps");
/// for t in 0..600 {
///     ods.append(&key, t as f64, 100.0).unwrap();
/// }
/// // Early seconds have left raw and live on as 60 s buckets.
/// assert!(ods.raw_points(&key).len() <= 62);
/// assert!(!ods.tier_points(&key, 0).is_empty());
/// // Nothing was forgotten: raw + bucket counts still cover all appends.
/// assert_eq!(ods.len(&key), 600);
/// ```
#[derive(Debug, Clone)]
pub struct TieredOds {
    series: BTreeMap<SeriesKey, Series>,
    raw_window_s: f64,
    tiers: Vec<TierSpec>,
}

impl TieredOds {
    /// A raw-only store with unlimited retention: nothing is ever evicted,
    /// so [`range`](TieredOds::range) sees the whole series.
    pub fn unbounded() -> Self {
        TieredOds {
            series: BTreeMap::new(),
            raw_window_s: f64::INFINITY,
            tiers: Vec::new(),
        }
    }

    /// A store keeping raw points for `raw_window_s`, cascading evictions
    /// through `tiers` in order (tier 0 first).
    ///
    /// # Errors
    ///
    /// [`TelemetryError::InvalidSamplerConfig`] when `raw_window_s` is
    /// negative or NaN, a tier bucket is non-positive or non-finite, a tier
    /// window is negative or NaN, or a tier's bucket is narrower than its
    /// predecessor's (coarsening must be monotone).
    pub fn with_tiers(raw_window_s: f64, tiers: Vec<TierSpec>) -> Result<Self, TelemetryError> {
        if raw_window_s.is_nan() || raw_window_s < 0.0 {
            return Err(TelemetryError::InvalidSamplerConfig(format!(
                "raw window must be non-negative, got {raw_window_s}"
            )));
        }
        let mut prev_bucket = 0.0;
        for (i, tier) in tiers.iter().enumerate() {
            if !tier.bucket_s.is_finite() || tier.bucket_s <= 0.0 {
                return Err(TelemetryError::InvalidSamplerConfig(format!(
                    "tier {i} bucket must be positive and finite, got {}",
                    tier.bucket_s
                )));
            }
            if tier.window_s.is_nan() || tier.window_s < 0.0 {
                return Err(TelemetryError::InvalidSamplerConfig(format!(
                    "tier {i} window must be non-negative, got {}",
                    tier.window_s
                )));
            }
            if tier.bucket_s < prev_bucket {
                return Err(TelemetryError::InvalidSamplerConfig(format!(
                    "tier {i} bucket {} is narrower than its predecessor {prev_bucket}",
                    tier.bucket_s
                )));
            }
            prev_bucket = tier.bucket_s;
        }
        Ok(TieredOds {
            series: BTreeMap::new(),
            raw_window_s,
            tiers,
        })
    }

    /// The retention policy the rollout ledger and drift monitor use: two
    /// simulated days of raw points, hourly buckets for thirty days, then
    /// daily buckets forever. Fast-test horizons (minutes of fleet time)
    /// stay entirely inside the raw tier, so short-run ledger contents are
    /// identical to an unbounded store's.
    pub fn rollout_ledger() -> Self {
        TieredOds::with_tiers(
            2.0 * 86_400.0,
            vec![
                TierSpec {
                    bucket_s: 3_600.0,
                    window_s: 30.0 * 86_400.0,
                },
                TierSpec {
                    bucket_s: 86_400.0,
                    window_s: f64::INFINITY,
                },
            ],
        )
        .expect("static tier configuration is valid")
    }

    /// The retention policy of the fleet coordinator's chaos ledger: a
    /// chaos campaign is denser than a single rollout (every injected
    /// fault, breaker trip, quarantine, and recovery lands as a point), so
    /// it keeps a week of raw points before folding into six-hour buckets
    /// for ninety days and daily buckets forever. Fast-test campaigns stay
    /// entirely inside the raw tier.
    pub fn chaos_ledger() -> Self {
        TieredOds::with_tiers(
            7.0 * 86_400.0,
            vec![
                TierSpec {
                    bucket_s: 6.0 * 3_600.0,
                    window_s: 90.0 * 86_400.0,
                },
                TierSpec {
                    bucket_s: 86_400.0,
                    window_s: f64::INFINITY,
                },
            ],
        )
        .expect("static tier configuration is valid")
    }

    /// Number of configured downsampled tiers.
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// The configured tier specs, tier 0 first.
    pub fn tiers(&self) -> &[TierSpec] {
        &self.tiers
    }

    /// Appends one observation, cascading evictions through the tiers.
    ///
    /// # Errors
    ///
    /// * [`TelemetryError::NonFiniteTimestamp`] when `t` is NaN or infinite
    ///   (no series is created for it).
    /// * [`TelemetryError::NonMonotonicTimestamp`] when `t` precedes the
    ///   newest raw timestamp of the series.
    pub fn append(&mut self, key: &SeriesKey, t: f64, value: f64) -> Result<(), TelemetryError> {
        if !t.is_finite() {
            return Err(TelemetryError::NonFiniteTimestamp(t));
        }
        let n_tiers = self.tiers.len();
        let series = self.series.entry(key.clone()).or_insert_with(|| Series {
            raw: Vec::new(),
            open: vec![None; n_tiers],
            closed: vec![Vec::new(); n_tiers],
        });
        if let Some(&(last, _)) = series.raw.last() {
            if t < last {
                return Err(TelemetryError::NonMonotonicTimestamp { last, offered: t });
            }
        }
        series.raw.push((t, value));
        if self.raw_window_s.is_finite() {
            // Evict raw points strictly older than the horizon; the point at
            // exactly `newest − window` stays.
            let horizon = t - self.raw_window_s;
            let evict_to = series.raw.partition_point(|&(pt, _)| pt < horizon);
            for i in 0..evict_to {
                let (pt, pv) = series.raw[i];
                Self::fold_into_tier(&self.tiers, series, 0, pt, pv, 1);
            }
            if evict_to > 0 {
                series.raw.drain(..evict_to);
            }
            Self::cascade(&self.tiers, series, t);
        }
        Ok(())
    }

    /// Folds one observation (or an already-aggregated bucket of `count`
    /// observations) into tier `tier`'s open bucket, closing the previous
    /// bucket when a later one starts. Beyond the last tier the data is
    /// dropped — that is the retention policy doing its job.
    fn fold_into_tier(
        tiers: &[TierSpec],
        series: &mut Series,
        tier: usize,
        t: f64,
        mean: f64,
        count: u64,
    ) {
        let Some(spec) = tiers.get(tier) else {
            return;
        };
        let bucket_start = (t / spec.bucket_s).floor() * spec.bucket_s;
        let sum = mean * count as f64;
        match &mut series.open[tier] {
            Some((start, s, n)) if *start == bucket_start => {
                *s += sum;
                *n += count;
            }
            slot => {
                if let Some((start, s, n)) = slot.take() {
                    debug_assert!(n >= 1, "closed buckets always hold data");
                    series.closed[tier].push(TierPoint {
                        t: start,
                        mean: s / n as f64,
                        count: n,
                    });
                }
                *slot = Some((bucket_start, sum, count));
            }
        }
    }

    /// Pushes closed buckets past each tier's window into the next tier.
    fn cascade(tiers: &[TierSpec], series: &mut Series, newest: f64) {
        for tier in 0..tiers.len() {
            let window = tiers[tier].window_s;
            if !window.is_finite() {
                continue;
            }
            let horizon = newest - window;
            let evict_to = series.closed[tier].partition_point(|p| p.t < horizon);
            if evict_to == 0 {
                continue;
            }
            let evicted: Vec<TierPoint> = series.closed[tier].drain(..evict_to).collect();
            for p in evicted {
                Self::fold_into_tier(tiers, series, tier + 1, p.t, p.mean, p.count);
            }
        }
    }

    /// Total observations remembered for `key`: raw points plus every
    /// observation folded into open or closed buckets across all tiers
    /// (zero if the series is unknown).
    pub fn len(&self, key: &SeriesKey) -> usize {
        self.series.get(key).map_or(0, |s| {
            let buckets: u64 = s
                .closed
                .iter()
                .flatten()
                .map(|p| p.count)
                .chain(s.open.iter().flatten().map(|&(_, _, n)| n))
                .sum();
            s.raw.len() + buckets as usize
        })
    }

    /// True when the store holds no series at all.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Number of stored series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Iterates over all series keys in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &SeriesKey> {
        self.series.keys()
    }

    /// The most recent raw point of a series.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::UnknownSeries`] when the series does not exist or
    /// holds no raw points.
    pub fn last(&self, key: &SeriesKey) -> Result<Point, TelemetryError> {
        self.series
            .get(key)
            .and_then(|s| s.raw.last().copied())
            .ok_or_else(|| TelemetryError::UnknownSeries(key.to_string()))
    }

    /// The raw points of `key` with timestamps in `[start, end)`.
    ///
    /// A zero-width window (`start == end`) is a valid query returning an
    /// empty slice — callers polling a live series between flushes hit this
    /// constantly and must not have to special-case it.
    ///
    /// # Errors
    ///
    /// * [`TelemetryError::UnknownSeries`] for a missing series.
    /// * [`TelemetryError::EmptyWindow`] for an inverted (`end < start`) or
    ///   NaN-bounded window. Infinite bounds are fine ("whole raw tier").
    pub fn range(&self, key: &SeriesKey, start: f64, end: f64) -> Result<&[Point], TelemetryError> {
        // NaN makes `end < start` false, so check it explicitly: a NaN bound
        // is a caller bug and must not masquerade as an empty result.
        if end < start || start.is_nan() || end.is_nan() {
            return Err(TelemetryError::EmptyWindow { start, end });
        }
        let raw = &self
            .series
            .get(key)
            .ok_or_else(|| TelemetryError::UnknownSeries(key.to_string()))?
            .raw;
        let lo = raw.partition_point(|&(t, _)| t < start);
        let hi = raw.partition_point(|&(t, _)| t < end);
        Ok(&raw[lo..hi])
    }

    /// Mean of the raw values in `[start, end)`.
    ///
    /// # Errors
    ///
    /// Those of [`TieredOds::range`], plus [`TelemetryError::EmptySamples`]
    /// when no points fall in the window.
    pub fn mean_in(&self, key: &SeriesKey, start: f64, end: f64) -> Result<f64, TelemetryError> {
        let pts = self.range(key, start, end)?;
        if pts.is_empty() {
            return Err(TelemetryError::EmptySamples);
        }
        Ok(pts.iter().map(|&(_, v)| v).sum::<f64>() / pts.len() as f64)
    }

    /// Full-resolution points still in the raw tier (oldest first).
    pub fn raw_points(&self, key: &SeriesKey) -> &[Point] {
        self.series.get(key).map_or(&[], |s| &s.raw)
    }

    /// Closed buckets of tier `tier` (oldest first). The open bucket is not
    /// included — it is still accumulating.
    pub fn tier_points(&self, key: &SeriesKey, tier: usize) -> &[TierPoint] {
        self.series
            .get(key)
            .and_then(|s| s.closed.get(tier))
            .map_or(&[], Vec::as_slice)
    }

    /// The stitched view of a series, coarsest history first: closed
    /// buckets from the last tier down to tier 0, then open buckets, then
    /// raw points — each observation appearing exactly once, timestamps
    /// non-decreasing across segments. This is what `skuctl ledger` renders.
    pub fn stitched(&self, key: &SeriesKey) -> Vec<TierPoint> {
        let Some(series) = self.series.get(key) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for tier in (0..self.tiers.len()).rev() {
            out.extend(series.closed[tier].iter().copied());
            if let Some((start, sum, n)) = series.open[tier] {
                out.push(TierPoint {
                    t: start,
                    mean: sum / n as f64,
                    count: n,
                });
            }
        }
        out.extend(series.raw.iter().map(|&(t, v)| TierPoint {
            t,
            mean: v,
            count: 1,
        }));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> SeriesKey {
        SeriesKey::new("web.fleet", "qps")
    }

    fn filled() -> (TieredOds, SeriesKey) {
        let mut ods = TieredOds::unbounded();
        let k = SeriesKey::new("web.host1", "mips");
        for i in 0..100 {
            ods.append(&k, i as f64, (i % 10) as f64).unwrap();
        }
        (ods, k)
    }

    #[test]
    fn append_and_query_roundtrip() {
        let (ods, k) = filled();
        assert_eq!(ods.len(&k), 100);
        assert_eq!(ods.raw_points(&k).len(), 100);
        assert_eq!(ods.tier_count(), 0);
        assert_eq!(ods.last(&k).unwrap(), (99.0, 9.0));
        let pts = ods.range(&k, 10.0, 20.0).unwrap();
        assert_eq!(pts.len(), 10);
        assert_eq!(pts[0], (10.0, 0.0));
        let mean = ods.mean_in(&k, 0.0, 100.0).unwrap();
        assert!((mean - 4.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_time_travel() {
        let (mut ods, k) = filled();
        assert!(matches!(
            ods.append(&k, 5.0, 1.0),
            Err(TelemetryError::NonMonotonicTimestamp { .. })
        ));
        // Equal timestamps are fine (hosts flushing together).
        ods.append(&k, 99.0, 2.0).unwrap();
    }

    #[test]
    fn rejects_non_finite_timestamps() {
        let mut ods = TieredOds::unbounded();
        let k = key();
        // A rejected first append must not leave an empty series behind.
        assert!(matches!(
            ods.append(&k, f64::NAN, 1.0),
            Err(TelemetryError::NonFiniteTimestamp(_))
        ));
        assert!(ods.is_empty());
        ods.append(&k, 10.0, 1.0).unwrap();
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                ods.append(&k, t, 1.0),
                Err(TelemetryError::NonFiniteTimestamp(_))
            ));
        }
        // Neither NaN nor +inf moved the series: time travel is still
        // refused and later appends still land.
        assert!(ods.append(&k, 5.0, 1.0).is_err());
        ods.append(&k, 11.0, 2.0).unwrap();
        let times: Vec<f64> = ods.raw_points(&k).iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![10.0, 11.0]);
        assert_eq!(ods.mean_in(&k, 0.0, 20.0).unwrap(), 1.5);
    }

    #[test]
    fn window_errors() {
        let (ods, k) = filled();
        for (start, end) in [(6.0, 5.0), (f64::NAN, 5.0), (0.0, f64::NAN)] {
            assert!(matches!(
                ods.range(&k, start, end),
                Err(TelemetryError::EmptyWindow { .. })
            ));
            assert!(matches!(
                ods.mean_in(&k, start, end),
                Err(TelemetryError::EmptyWindow { .. })
            ));
        }
        let missing = SeriesKey::new("nope", "mips");
        assert!(matches!(
            ods.range(&missing, 0.0, 1.0),
            Err(TelemetryError::UnknownSeries(_))
        ));
        assert!(matches!(
            ods.mean_in(&missing, 0.0, 1.0),
            Err(TelemetryError::UnknownSeries(_))
        ));
    }

    #[test]
    fn zero_width_and_out_of_band_windows_are_empty_not_errors() {
        let (ods, k) = filled();
        // Zero width: valid query, nothing in it.
        assert_eq!(ods.range(&k, 5.0, 5.0).unwrap(), &[]);
        // Entirely before / after the data: empty, not an error.
        assert_eq!(ods.range(&k, -10.0, -1.0).unwrap(), &[]);
        assert_eq!(ods.range(&k, 200.0, 300.0).unwrap(), &[]);
        // Infinite bounds select the whole series.
        assert_eq!(
            ods.range(&k, f64::NEG_INFINITY, f64::INFINITY)
                .unwrap()
                .len(),
            100
        );
        // The mean over an empty-but-valid window degrades to EmptySamples.
        assert!(matches!(
            ods.mean_in(&k, 5.0, 5.0),
            Err(TelemetryError::EmptySamples)
        ));
    }

    #[test]
    fn raw_window_keeps_the_boundary_point() {
        // No tiers: evicted raw points are dropped.
        let mut ods = TieredOds::with_tiers(10.0, vec![]).unwrap();
        let k = key();
        ods.append(&k, 0.0, 1.0).unwrap();
        ods.append(&k, 5.0, 2.0).unwrap();
        // Newest = 10.0; the point at exactly 10.0 − 10.0 = 0.0 survives.
        ods.append(&k, 10.0, 3.0).unwrap();
        assert_eq!(ods.len(&k), 3);
        // One hair past the window and it goes.
        ods.append(&k, 10.0 + 1e-9, 4.0).unwrap();
        assert_eq!(ods.range(&k, 0.0, 1e9).unwrap()[0].0, 5.0);
        for i in 11..100 {
            ods.append(&k, i as f64, 1.0).unwrap();
        }
        assert_eq!(ods.len(&k), 11, "raw window bounds the series");
        assert_eq!(ods.range(&k, 0.0, 1e9).unwrap()[0].0, 89.0);
    }

    #[test]
    fn zero_raw_window_keeps_the_newest_timestamp_cohort() {
        let mut ods = TieredOds::with_tiers(0.0, vec![]).unwrap();
        let k = key();
        ods.append(&k, 1.0, 1.0).unwrap();
        ods.append(&k, 2.0, 2.0).unwrap();
        // The just-appended point always survives its own append.
        assert_eq!(ods.last(&k).unwrap(), (2.0, 2.0));
        ods.append(&k, 2.0, 3.0).unwrap();
        assert_eq!(ods.len(&k), 2, "both points at t=2 are within window 0");
    }

    #[test]
    fn keys_are_sorted_and_displayable() {
        let (mut ods, _) = filled();
        ods.append(&SeriesKey::new("ads1.h", "qps"), 0.0, 1.0)
            .unwrap();
        let keys: Vec<String> = ods.keys().map(|k| k.to_string()).collect();
        assert_eq!(keys.len(), 2);
        assert_eq!(ods.series_count(), 2);
        assert!(keys[0] < keys[1]);
    }

    #[test]
    fn eviction_folds_into_buckets_without_losing_observations() {
        let mut ods = TieredOds::with_tiers(
            10.0,
            vec![TierSpec {
                bucket_s: 10.0,
                window_s: f64::INFINITY,
            }],
        )
        .unwrap();
        let k = key();
        for i in 0..100 {
            ods.append(&k, i as f64, (i % 10) as f64).unwrap();
        }
        // Raw holds only the trailing window...
        assert!(ods.raw_points(&k).len() <= 12);
        // ...but every observation is still accounted for.
        assert_eq!(ods.len(&k), 100);
        // Closed tier-0 buckets are 10-wide with exact means (0..9 → 4.5).
        let buckets = ods.tier_points(&k, 0);
        assert!(!buckets.is_empty());
        for b in buckets {
            assert_eq!(b.t % 10.0, 0.0);
            assert_eq!(b.count, 10);
            assert!((b.mean - 4.5).abs() < 1e-12);
            assert!(b.mean.is_finite(), "no NaN buckets, ever");
        }
    }

    #[test]
    fn tier_hand_off_keeps_boundary_points() {
        // Raw window 10: after appending t = 20, the point at exactly
        // 20 − 10 = 10 must still be raw, and only t < 10 evicted.
        let mut ods = TieredOds::with_tiers(
            10.0,
            vec![TierSpec {
                bucket_s: 5.0,
                window_s: f64::INFINITY,
            }],
        )
        .unwrap();
        let k = key();
        for t in [0.0, 5.0, 10.0, 20.0] {
            ods.append(&k, t, 1.0).unwrap();
        }
        let raw: Vec<f64> = ods.raw_points(&k).iter().map(|&(t, _)| t).collect();
        assert_eq!(
            raw,
            vec![10.0, 20.0],
            "the boundary point at 10.0 stays raw"
        );
        let folded: Vec<f64> = ods.tier_points(&k, 0).iter().map(|p| p.t).collect();
        assert_eq!(folded, vec![0.0], "t=0 closed; t=5 still open");
        // The open bucket is visible through the stitched view, so the
        // hand-off never makes a point unqueryable.
        let stitched = ods.stitched(&k);
        let times: Vec<f64> = stitched.iter().map(|p| p.t).collect();
        assert_eq!(times, vec![0.0, 5.0, 10.0, 20.0]);
        assert!(stitched.iter().all(|p| p.mean.is_finite() && p.count >= 1));
    }

    #[test]
    fn buckets_cascade_between_tiers_with_weighted_means() {
        let mut ods = TieredOds::with_tiers(
            5.0,
            vec![
                TierSpec {
                    bucket_s: 5.0,
                    window_s: 20.0,
                },
                TierSpec {
                    bucket_s: 20.0,
                    window_s: f64::INFINITY,
                },
            ],
        )
        .unwrap();
        let k = key();
        // Values = timestamps, 1 Hz, long enough to fill tier 1.
        for i in 0..200 {
            ods.append(&k, i as f64, i as f64).unwrap();
        }
        let tier1 = ods.tier_points(&k, 1);
        assert!(!tier1.is_empty(), "old tier-0 buckets cascaded to tier 1");
        for b in tier1 {
            assert_eq!(b.t % 20.0, 0.0);
            assert_eq!(b.count, 20, "four 5-point buckets folded together");
            // Mean of t..t+19 when value == timestamp.
            assert!((b.mean - (b.t + 9.5)).abs() < 1e-9);
            assert!(b.mean.is_finite());
        }
        // Tier-0 closed buckets stay within their window of the newest point.
        let newest = ods.last(&k).unwrap().0;
        for b in ods.tier_points(&k, 0) {
            assert!(b.t >= newest - 20.0 - 5.0);
        }
        assert_eq!(ods.len(&k), 200, "cascade preserves observation counts");
    }

    #[test]
    fn last_tier_with_finite_window_actually_forgets() {
        let mut ods = TieredOds::with_tiers(
            5.0,
            vec![TierSpec {
                bucket_s: 5.0,
                window_s: 10.0,
            }],
        )
        .unwrap();
        let k = key();
        for i in 0..100 {
            ods.append(&k, i as f64, 1.0).unwrap();
        }
        assert!(
            ods.len(&k) < 100,
            "beyond the final tier, data is dropped — that is the policy"
        );
        assert!(ods.raw_points(&k).len() <= 7);
        assert!(ods.tier_points(&k, 0).len() <= 4);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let tier = |bucket_s, window_s| TierSpec { bucket_s, window_s };
        assert!(TieredOds::with_tiers(-1.0, vec![]).is_err());
        assert!(TieredOds::with_tiers(f64::NAN, vec![]).is_err());
        assert!(TieredOds::with_tiers(10.0, vec![tier(0.0, 10.0)]).is_err());
        assert!(TieredOds::with_tiers(10.0, vec![tier(f64::INFINITY, 10.0)]).is_err());
        assert!(TieredOds::with_tiers(10.0, vec![tier(5.0, -1.0)]).is_err());
        assert!(
            TieredOds::with_tiers(10.0, vec![tier(60.0, 100.0), tier(5.0, 100.0)]).is_err(),
            "tiers must coarsen monotonically"
        );
        assert!(TieredOds::with_tiers(10.0, vec![tier(5.0, 100.0), tier(60.0, 100.0)]).is_ok());
    }

    #[test]
    fn rollout_ledger_keeps_fast_test_horizons_raw() {
        let mut ods = TieredOds::rollout_ledger();
        let k = key();
        // A fast-test lifecycle spans minutes of fleet time — far inside
        // the two-day raw window, so nothing downsamples.
        for i in 0..600 {
            ods.append(&k, i as f64, 1.0).unwrap();
        }
        assert_eq!(ods.raw_points(&k).len(), 600);
        assert_eq!(ods.len(&k), 600);
        assert!(ods.tier_points(&k, 0).is_empty());
        assert!(ods.tier_points(&k, 1).is_empty());
    }

    #[test]
    fn bursty_appends_with_long_idle_gaps_evict_cleanly() {
        // A burst, then an idle gap far longer than every retention window,
        // then another burst: the first burst must cascade through the
        // tiers (possibly straight past tier 0's window in one append) with
        // nothing lost and no empty/NaN buckets, even though the raw tier
        // is completely drained between bursts.
        let mut ods = TieredOds::with_tiers(
            10.0,
            vec![
                TierSpec {
                    bucket_s: 10.0,
                    window_s: 100.0,
                },
                TierSpec {
                    bucket_s: 100.0,
                    window_s: f64::INFINITY,
                },
            ],
        )
        .unwrap();
        let k = key();
        for i in 0..20 {
            ods.append(&k, i as f64, 2.0).unwrap();
        }
        // Idle gap: five orders of magnitude past every window.
        ods.append(&k, 1.0e6, 4.0).unwrap();
        // The whole first burst left raw; only the newest point is raw.
        assert_eq!(ods.raw_points(&k).len(), 1);
        assert_eq!(ods.len(&k), 21, "idle-gap eviction loses nothing");
        // Tier 0's closed list drained past its window too: the burst now
        // lives only in open buckets (tier 0's newest bucket plus tier 1's),
        // which the stitched view must still expose, one observation each.
        assert!(ods.tier_points(&k, 0).is_empty());
        assert!(ods.tier_points(&k, 1).is_empty());
        let stitched = ods.stitched(&k);
        let folded: u64 = stitched.iter().map(|p| p.count).sum();
        assert_eq!(folded, 21, "open buckets keep the burst queryable");
        assert!(stitched
            .iter()
            .filter(|p| p.t < 100.0)
            .all(|p| p.count >= 1 && (p.mean - 2.0).abs() < 1e-12));
        // Second burst after the gap appends cleanly and stays raw.
        for i in 0..5 {
            ods.append(&k, 1.0e6 + 1.0 + i as f64, 6.0).unwrap();
        }
        assert_eq!(ods.raw_points(&k).len(), 6);
        assert_eq!(ods.len(&k), 26);
        let stitched = ods.stitched(&k);
        for pair in stitched.windows(2) {
            assert!(
                pair[0].t <= pair[1].t,
                "stitched stays monotone across the gap"
            );
        }
        assert!(stitched.iter().all(|p| p.mean.is_finite()));
    }

    #[test]
    fn sparse_appends_each_beyond_the_raw_window() {
        // Every append is further than the raw window from its predecessor:
        // each one single-handedly evicts the previous point across a
        // tier boundary with an otherwise-empty raw window.
        let mut ods = TieredOds::with_tiers(
            5.0,
            vec![TierSpec {
                bucket_s: 50.0,
                window_s: f64::INFINITY,
            }],
        )
        .unwrap();
        let k = key();
        for i in 0..40u32 {
            let t = f64::from(i) * 1_000.0;
            ods.append(&k, t, f64::from(i)).unwrap();
            assert_eq!(ods.raw_points(&k).len(), 1, "only the newest point is raw");
        }
        assert_eq!(ods.len(&k), 40);
        // 39 evicted points, each alone in its own 50 s bucket; the open
        // bucket holds nothing (the newest point is still raw).
        let closed = ods.tier_points(&k, 0);
        assert_eq!(
            closed.len(),
            38,
            "one bucket per evicted point, last still open"
        );
        for (i, b) in closed.iter().enumerate() {
            assert_eq!(b.count, 1);
            assert!((b.mean - i as f64).abs() < 1e-12);
        }
        let total: u64 = ods.stitched(&k).iter().map(|p| p.count).sum();
        assert_eq!(total, 40, "sparse cascade preserves every observation");
    }

    #[test]
    fn stitched_view_is_monotone_and_complete() {
        let mut ods = TieredOds::with_tiers(
            10.0,
            vec![
                TierSpec {
                    bucket_s: 10.0,
                    window_s: 40.0,
                },
                TierSpec {
                    bucket_s: 40.0,
                    window_s: f64::INFINITY,
                },
            ],
        )
        .unwrap();
        let k = key();
        for i in 0..300 {
            ods.append(&k, i as f64, 1.0).unwrap();
        }
        let stitched = ods.stitched(&k);
        let total: u64 = stitched.iter().map(|p| p.count).sum();
        assert_eq!(total, 300, "every observation appears exactly once");
        for pair in stitched.windows(2) {
            assert!(pair[0].t <= pair[1].t, "stitched timestamps non-decreasing");
        }
        assert!(stitched.iter().all(|p| p.mean.is_finite()));
    }
}
