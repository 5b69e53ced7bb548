//! Reuse-distance distributions.
//!
//! The synthetic address streams that drive the cache and TLB simulators are
//! generated from *reuse-distance distributions*: the probability that an
//! access touches a line last touched `d` distinct lines ago. For a
//! fully-associative LRU cache of capacity `C` lines, the miss ratio is
//! exactly `P(D >= C)` — the survival function of the distribution — and a
//! set-associative LRU cache tracks it closely. This gives us direct,
//! analytic control over each workload's miss-rate-versus-capacity curve
//! (paper Figs. 8–10) while the knob experiments still run against real
//! cache structures.
//!
//! A distribution is specified by control points of its survival function
//! `(capacity_in_lines, miss_ratio)` plus a *cold fraction* (accesses to
//! never-reused lines, i.e. infinite distance). Between control points the
//! survival function is interpolated log-log-linearly, which matches the
//! power-law reuse behaviour observed in server workloads.

use crate::error::ArchSimError;
use rand::Rng;

/// A reuse-distance distribution over distinct-line (or distinct-page)
/// stack distances.
///
/// # Example
///
/// ```
/// use softsku_archsim::reuse::ReuseDistanceDist;
///
/// // 30% of accesses miss a 512-line cache, 5% miss a 16k-line cache,
/// // 1% of accesses are cold.
/// let d = ReuseDistanceDist::from_survival_points(
///     &[(512, 0.30), (16_384, 0.05)],
///     0.01,
///     1 << 20,
/// )
/// .unwrap();
/// assert!((d.miss_ratio(512) - 0.30).abs() < 1e-12);
/// assert!(d.miss_ratio(2048) < 0.30);
/// assert!(d.miss_ratio(1 << 21) >= 0.01); // only cold misses remain
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseDistanceDist {
    /// Survival control points `(distance, P(D >= distance))`, strictly
    /// increasing in distance, strictly decreasing in probability, and
    /// bounded below by `cold_fraction`.
    points: Vec<(u64, f64)>,
    /// Probability of an access to a never-before-seen line.
    cold_fraction: f64,
    /// Number of distinct lines the workload ever touches.
    footprint: u64,
    /// Per-segment inversion constants for [`Self::distance_at_survival`].
    ///
    /// Sampling is the engine's hottest transcendental path (one inversion
    /// per structure access); the four logarithms per segment are pure
    /// functions of the control points, so they are evaluated once here —
    /// with the *same expressions* the per-sample code used — and the
    /// per-sample cost drops to one `ln` and one `exp`. Bit-identical to
    /// recomputing inline because IEEE-754 operations are deterministic and
    /// the expression structure is unchanged.
    segs: Vec<SampleSeg>,
}

/// Precomputed inversion constants for one survival segment `[d1, d2]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SampleSeg {
    /// Survival at the segment's near end; `u >= p1` short-circuits to `d1`.
    p1: f64,
    /// Survival at the far end; the scan stops at the first `p2 <= u`.
    p2: f64,
    /// `adj(p1)`.
    lp1: f64,
    /// `adj(p2.max(cold.max(1e-12))) - adj(p1)`.
    dlp: f64,
    /// `ln(d1)`.
    ld1: f64,
    /// `ln(d2) - ln(d1)`.
    dld: f64,
    /// Near-end distance (clamp floor).
    d1: u64,
    /// `d2.saturating_sub(1).max(d1)` (clamp ceiling).
    dmax: u64,
}

fn build_segs(points: &[(u64, f64)], cold_fraction: f64) -> Vec<SampleSeg> {
    points
        .windows(2)
        .map(|w| {
            let (d1, p1) = w[0];
            let (d2, p2) = w[1];
            let p2_eff = p2.max(cold_fraction.max(1e-12));
            let lp1 = adj(p1);
            let lp2 = adj(p2_eff);
            let ld1 = (d1 as f64).ln();
            let ld2 = (d2 as f64).ln();
            SampleSeg {
                p1,
                p2,
                lp1,
                dlp: lp2 - lp1,
                ld1,
                dld: ld2 - ld1,
                d1,
                dmax: d2.saturating_sub(1).max(d1),
            }
        })
        .collect()
}

impl ReuseDistanceDist {
    /// Builds a distribution from survival-function control points.
    ///
    /// `points` are `(capacity, miss_ratio)` pairs: the fraction of accesses
    /// with reuse distance at least `capacity`. `cold_fraction` is the
    /// never-reused fraction, and `footprint` caps the number of distinct
    /// lines. An implicit point `(1, 1.0)` anchors the curve at distance 1,
    /// and the survival drops to `cold_fraction` at `footprint`.
    ///
    /// # Errors
    ///
    /// [`ArchSimError::InvalidDistribution`] when points are unordered,
    /// probabilities are not in `(cold_fraction, 1]`, or not decreasing;
    /// [`ArchSimError::InvalidFraction`] for a bad `cold_fraction`.
    pub fn from_survival_points(
        points: &[(u64, f64)],
        cold_fraction: f64,
        footprint: u64,
    ) -> Result<Self, ArchSimError> {
        if !(0.0..=1.0).contains(&cold_fraction) {
            return Err(ArchSimError::InvalidFraction {
                name: "cold_fraction".to_string(),
                value: cold_fraction,
            });
        }
        if footprint < 2 {
            return Err(ArchSimError::InvalidDistribution(
                "footprint must be at least 2 lines".to_string(),
            ));
        }
        let mut pts: Vec<(u64, f64)> = Vec::with_capacity(points.len() + 2);
        pts.push((1, 1.0));
        let mut last_d = 1u64;
        let mut last_p = 1.0f64;
        for &(d, p) in points {
            if d <= last_d {
                return Err(ArchSimError::InvalidDistribution(format!(
                    "distances must be strictly increasing, got {d} after {last_d}"
                )));
            }
            if d >= footprint {
                return Err(ArchSimError::InvalidDistribution(format!(
                    "control distance {d} must be below footprint {footprint}"
                )));
            }
            if !(p > cold_fraction && p < last_p) {
                return Err(ArchSimError::InvalidDistribution(format!(
                    "survival must decrease strictly from {last_p} toward cold {cold_fraction}, got {p} at {d}"
                )));
            }
            pts.push((d, p));
            last_d = d;
            last_p = p;
        }
        pts.push((footprint, cold_fraction));
        let segs = build_segs(&pts, cold_fraction);
        Ok(ReuseDistanceDist {
            points: pts,
            cold_fraction,
            footprint,
            segs,
        })
    }

    /// A convenient single-knee distribution: miss ratio `knee_miss` at
    /// `knee` lines, cold fraction `cold`, footprint `footprint`.
    ///
    /// # Errors
    ///
    /// Same as [`ReuseDistanceDist::from_survival_points`].
    pub fn single_knee(
        knee: u64,
        knee_miss: f64,
        cold: f64,
        footprint: u64,
    ) -> Result<Self, ArchSimError> {
        Self::from_survival_points(&[(knee, knee_miss)], cold, footprint)
    }

    /// The never-reused (cold) fraction of accesses.
    pub fn cold_fraction(&self) -> f64 {
        self.cold_fraction
    }

    /// Number of distinct lines the workload touches.
    pub fn footprint(&self) -> u64 {
        self.footprint
    }

    /// Feeds the distribution's defining content — control points, cold
    /// fraction, footprint — into `sink` as 64-bit words, for content
    /// fingerprinting. The derived `SampleSeg` table is excluded: it is a
    /// pure function of these inputs, so two distributions that feed the
    /// same words sample identically.
    pub fn fingerprint_words(&self, sink: &mut impl FnMut(u64)) {
        // No `..`: a new field is a compile error until it is fed or
        // marked as derived.
        let ReuseDistanceDist {
            points,
            cold_fraction,
            footprint,
            segs: _,
        } = self;
        sink(points.len() as u64);
        for &(d, p) in points {
            sink(d);
            sink(p.to_bits());
        }
        sink(cold_fraction.to_bits());
        sink(*footprint);
    }

    /// Analytic miss ratio of a fully-associative LRU cache with `capacity`
    /// lines: `P(D >= capacity)`.
    pub fn miss_ratio(&self, capacity: u64) -> f64 {
        if capacity <= 1 {
            return 1.0;
        }
        if capacity >= self.footprint {
            return self.cold_fraction;
        }
        // Find the bracketing control points and interpolate log-log.
        let idx = self.points.partition_point(|&(d, _)| d < capacity);
        // points[idx - 1].0 < capacity <= points[idx].0 given the guards above.
        let (d1, p1) = self.points[idx - 1];
        let (d2, p2) = self.points[idx];
        if d2 == capacity {
            return p2;
        }
        log_log_interp(capacity, d1, p1, d2, p2, self.cold_fraction)
    }

    /// Samples a reuse distance. `None` means a cold access (a line never
    /// seen before). Distances are in `[1, footprint)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u64> {
        let u: f64 = rng.gen();
        self.distance_at_survival(u)
    }

    /// Inverse survival: the distance `d` with `P(D >= d) = u`, or `None`
    /// when `u` falls in the cold mass. Exposed for tests and for the
    /// deterministic stratified sampler in the trace generator.
    pub fn distance_at_survival(&self, u: f64) -> Option<u64> {
        if u < self.cold_fraction {
            return None;
        }
        if u >= 1.0 {
            return Some(1);
        }
        // Find the segment whose survival range contains u. Survival is
        // decreasing in distance, so search from the high-probability end.
        // The last point sits at `cold_fraction`, and `u >= cold_fraction`
        // here, so the scan cannot run off the end.
        let mut i = 0;
        while i + 1 < self.points.len() && self.segs[i].p2 > u {
            i += 1;
        }
        let seg = &self.segs[i];
        if seg.p1 <= u {
            return Some(seg.d1);
        }
        // Invert the log-log interpolation within [d1, d2] using the
        // precomputed segment constants (same expressions, hoisted).
        let t = (adj(u) - seg.lp1) / seg.dlp;
        let ld = seg.ld1 + t * seg.dld;
        let d = ld.exp().round() as u64;
        Some(d.clamp(seg.d1, seg.dmax))
    }

    /// Returns a copy with all control distances divided by `factor`
    /// (clamped to at least 1). Models huge-page compaction: when 512
    /// consecutive 4 KiB pages collapse into one 2 MiB page, page-level
    /// reuse distances shrink by the workload's spatial-locality factor.
    #[must_use]
    pub fn compacted(&self, factor: f64) -> Self {
        assert!(
            factor >= 1.0,
            "compaction factor must be >= 1, got {factor}"
        );
        let mut pts: Vec<(u64, f64)> = Vec::new();
        let mut last = 1u64;
        for &(d, p) in &self.points[1..self.points.len() - 1] {
            let nd = ((d as f64 / factor).round() as u64).max(last + 1);
            pts.push((nd, p));
            last = nd;
        }
        let new_fp = ((self.footprint as f64 / factor).round() as u64)
            .max(last + 1)
            .max(2);
        ReuseDistanceDist::from_survival_points(&pts, self.cold_fraction, new_fp)
            .expect("compaction preserves validity")
    }
}

/// ln with a floor that keeps zero-probability endpoints finite.
fn adj(p: f64) -> f64 {
    p.max(1e-12).ln()
}

/// Log-log-linear interpolation of the survival function.
fn log_log_interp(x: u64, d1: u64, p1: f64, d2: u64, p2: f64, floor: f64) -> f64 {
    let lx = (x as f64).ln();
    let l1 = (d1 as f64).ln();
    let l2 = (d2 as f64).ln();
    let t = (lx - l1) / (l2 - l1);
    let lp = adj(p1) + t * (adj(p2.max(floor.max(1e-12))) - adj(p1));
    lp.exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dist() -> ReuseDistanceDist {
        ReuseDistanceDist::from_survival_points(
            &[(512, 0.30), (16_384, 0.08), (400_000, 0.02)],
            0.005,
            2_000_000,
        )
        .unwrap()
    }

    #[test]
    fn hits_control_points_exactly() {
        let d = dist();
        assert!((d.miss_ratio(512) - 0.30).abs() < 1e-12);
        assert!((d.miss_ratio(16_384) - 0.08).abs() < 1e-12);
        assert!((d.miss_ratio(400_000) - 0.02).abs() < 1e-12);
        assert_eq!(d.miss_ratio(1), 1.0);
        assert_eq!(d.miss_ratio(2_000_000), 0.005);
        assert_eq!(d.miss_ratio(u64::MAX), 0.005);
    }

    #[test]
    fn miss_ratio_monotone_nonincreasing() {
        let d = dist();
        let mut prev = 1.0;
        for exp in 0..21 {
            let c = 1u64 << exp;
            let m = d.miss_ratio(c);
            assert!(m <= prev + 1e-12, "miss ratio must not increase: {c}");
            prev = m;
        }
    }

    #[test]
    fn sampling_matches_analytic_miss_ratio() {
        let d = dist();
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 200_000;
        for &cap in &[512u64, 4096, 65_536] {
            let mut misses = 0u64;
            for _ in 0..n {
                match d.sample(&mut rng) {
                    None => misses += 1,
                    Some(dist) => {
                        if dist >= cap {
                            misses += 1;
                        }
                    }
                }
            }
            let empirical = misses as f64 / n as f64;
            let analytic = d.miss_ratio(cap);
            assert!(
                (empirical - analytic).abs() < 0.01,
                "cap={cap}: empirical {empirical} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn cold_fraction_sampled() {
        let d = dist();
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 400_000;
        let cold = (0..n).filter(|_| d.sample(&mut rng).is_none()).count();
        let frac = cold as f64 / n as f64;
        assert!((frac - 0.005).abs() < 0.002, "cold fraction {frac}");
    }

    #[test]
    fn inverse_survival_is_consistent() {
        let d = dist();
        for &u in &[0.9, 0.5, 0.2, 0.1, 0.05, 0.01] {
            let dist = d.distance_at_survival(u).unwrap();
            // Survival at that distance should be close to u.
            let s = d.miss_ratio(dist);
            assert!(
                (s - u).abs() / u < 0.35,
                "u={u}: distance {dist} has survival {s}"
            );
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        // Non-increasing distances.
        assert!(
            ReuseDistanceDist::from_survival_points(&[(100, 0.5), (100, 0.4)], 0.0, 1000).is_err()
        );
        // Non-decreasing probability.
        assert!(
            ReuseDistanceDist::from_survival_points(&[(100, 0.5), (200, 0.6)], 0.0, 1000).is_err()
        );
        // Probability below cold fraction.
        assert!(ReuseDistanceDist::from_survival_points(&[(100, 0.05)], 0.1, 1000).is_err());
        // Control point beyond footprint.
        assert!(ReuseDistanceDist::from_survival_points(&[(2000, 0.5)], 0.0, 1000).is_err());
        // Bad cold fraction.
        assert!(ReuseDistanceDist::from_survival_points(&[(10, 0.5)], 1.5, 1000).is_err());
        // Tiny footprint.
        assert!(ReuseDistanceDist::from_survival_points(&[], 0.0, 1).is_err());
    }

    #[test]
    fn compaction_shrinks_distances() {
        let d = dist();
        let c = d.compacted(64.0);
        // Same survival levels are reached at ~64x smaller capacities.
        assert!(c.miss_ratio(512 / 64) <= 0.31);
        assert!(c.footprint() < d.footprint());
        // Identity compaction is a no-op on footprint.
        let id = d.compacted(1.0);
        assert_eq!(id.footprint(), d.footprint());
    }

    #[test]
    #[should_panic(expected = "compaction factor")]
    fn compaction_below_one_panics() {
        let _ = dist().compacted(0.5);
    }
}
