//! Deterministic SLO engine: burn-rate alerting with exemplar-linked tail
//! attribution.
//!
//! The paper's soft-SKU wins only matter if they survive production
//! traffic, and the microservice literature (Gan & Delimitrou; the
//! auto-scaling lessons paper in PAPERS.md) is blunt about where
//! regressions surface first: the latency tail, not the mean. This module
//! is the workspace's SLO layer, built in the Google-SRE shape:
//!
//! * an [`SloSpec`] declares the objective — a latency threshold that makes
//!   a request *bad*, a target good fraction (the SLO), and a fast + slow
//!   evaluation window pair;
//! * an [`SloEvaluator`] ingests per-request observations (sim-time,
//!   latency, optional trace span id), stores the good/bad series in a
//!   [`TieredOds`] so long campaigns run on bounded memory, and on each
//!   [`SloEvaluator::evaluate`] computes the **error-budget burn rate**
//!   over both windows: `(bad fraction in window) / (1 − target)`;
//! * an alert fires only when *both* windows burn over their thresholds —
//!   the multi-window discipline that keeps one bad window from flapping
//!   the pager while still catching fast burns quickly;
//! * every evaluation appends `slo.*` ledger points and every alert
//!   records a [`TraceSink`] span carrying **exemplars**: the span ids of
//!   the slowest over-threshold requests in the slow window, so `skuctl
//!   slo` can jump from "p99 violated at t=…" straight to the offending
//!   trace subtree.
//!
//! Everything is sim-time driven and a pure function of the observation
//! sequence — no wall clocks, no RNG — so verdicts are bit-identical
//! across worker counts as long as observations arrive in canonical order
//! (the same contract as [`crate::stats::QuantileSketch`]).
//!
//! # Example
//!
//! ```
//! use softsku_telemetry::slo::{SloEvaluator, SloSpec};
//! use softsku_telemetry::{TieredOds, TraceSink};
//!
//! let spec = SloSpec::new("web", 0.050, 0.99, 30.0, 120.0).unwrap();
//! let mut slo = SloEvaluator::new(spec);
//! let mut ledger = TieredOds::unbounded();
//! let mut sink = TraceSink::new();
//! for i in 0..600 {
//!     let t = i as f64 * 0.5;
//!     // A healthy service: every request well under the 50 ms threshold.
//!     slo.observe(t, 0.010, None).unwrap();
//!     if i % 20 == 19 {
//!         let status = slo.evaluate(t, &mut ledger, &mut sink).unwrap();
//!         assert!(!status.alerting);
//!     }
//! }
//! ```

use crate::error::TelemetryError;
use crate::keys::LedgerKey;
use crate::ods::SeriesKey;
use crate::tiered::{TierSpec, TieredOds};
use crate::trace::{AttrValue, TraceSink};

/// How many tail exemplars an evaluator retains (the slowest
/// over-threshold requests still inside the slow window).
pub const MAX_EXEMPLARS: usize = 8;

/// One tail exemplar: a bad request's sim-time, latency, and the trace
/// span id that lets a human jump to its subtree in the Chrome export.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// Sim-time the request completed, seconds.
    pub t_s: f64,
    /// End-to-end latency, seconds (above the spec threshold).
    pub latency_s: f64,
    /// Trace span id of the request (`TraceSpan::id`), when traced.
    pub span_id: u64,
}

/// Declarative SLO: what counts as a bad request and how fast the error
/// budget may burn before someone is paged.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Name of the protected surface (service / mesh graph), used as the
    /// ledger entity for every appended `slo.*` series.
    pub name: String,
    /// Latency above this is a bad request, seconds.
    pub threshold_s: f64,
    /// Target good fraction (e.g. `0.99` = 1% error budget). Must be in
    /// `(0, 1)`.
    pub target: f64,
    /// Fast evaluation window, seconds (catches sharp burns).
    pub fast_window_s: f64,
    /// Slow evaluation window, seconds (confirms the burn is sustained).
    pub slow_window_s: f64,
    /// Fast-window burn-rate alert threshold (SRE convention: high, e.g.
    /// 14 — a burn that would exhaust the budget in hours).
    pub fast_burn: f64,
    /// Slow-window burn-rate alert threshold (lower, e.g. 6).
    pub slow_burn: f64,
}

impl SloSpec {
    /// Builds a spec with the SRE-handbook default burn thresholds
    /// (fast 14.4, slow 6.0).
    ///
    /// # Errors
    ///
    /// [`TelemetryError::InvalidSamplerConfig`] when the threshold or a
    /// window is non-positive/non-finite, `target` is outside `(0, 1)`, or
    /// the fast window is not shorter than the slow window.
    pub fn new(
        name: &str,
        threshold_s: f64,
        target: f64,
        fast_window_s: f64,
        slow_window_s: f64,
    ) -> Result<Self, TelemetryError> {
        let spec = SloSpec {
            name: name.to_string(),
            threshold_s,
            target,
            fast_window_s,
            slow_window_s,
            fast_burn: 14.4,
            slow_burn: 6.0,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Overrides the burn-rate alert thresholds.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::InvalidSamplerConfig`] when either threshold is
    /// non-positive or non-finite.
    pub fn with_burn_thresholds(mut self, fast: f64, slow: f64) -> Result<Self, TelemetryError> {
        self.fast_burn = fast;
        self.slow_burn = slow;
        self.validate()?;
        Ok(self)
    }

    /// The error budget: the tolerated bad fraction, `1 − target`.
    pub fn error_budget(&self) -> f64 {
        1.0 - self.target
    }

    fn validate(&self) -> Result<(), TelemetryError> {
        let bad = |msg: String| Err(TelemetryError::InvalidSamplerConfig(msg));
        if !self.threshold_s.is_finite() || self.threshold_s <= 0.0 {
            return bad(format!(
                "slo threshold must be positive, got {}",
                self.threshold_s
            ));
        }
        if !(self.target > 0.0 && self.target < 1.0) {
            return bad(format!("slo target must be in (0,1), got {}", self.target));
        }
        for (label, w) in [("fast", self.fast_window_s), ("slow", self.slow_window_s)] {
            if !w.is_finite() || w <= 0.0 {
                return bad(format!("slo {label} window must be positive, got {w}"));
            }
        }
        if self.fast_window_s >= self.slow_window_s {
            return bad(format!(
                "fast window {} must be shorter than slow window {}",
                self.fast_window_s, self.slow_window_s
            ));
        }
        for (label, b) in [("fast", self.fast_burn), ("slow", self.slow_burn)] {
            if !b.is_finite() || b <= 0.0 {
                return bad(format!(
                    "slo {label} burn threshold must be positive, got {b}"
                ));
            }
        }
        Ok(())
    }
}

/// One evaluation verdict: both window burn rates and whether the
/// multi-window alert condition held.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Sim-time of the evaluation, seconds.
    pub t_s: f64,
    /// Error-budget burn rate over the fast window.
    pub burn_fast: f64,
    /// Error-budget burn rate over the slow window.
    pub burn_slow: f64,
    /// Whether both windows burned over their thresholds.
    pub alerting: bool,
    /// Consecutive alerting evaluations ending at this one (0 when not
    /// alerting) — the coordinator's sustained-burn re-tune trigger reads
    /// this instead of re-deriving its own windowing.
    pub sustained: u32,
    /// Tail exemplars current at evaluation time (slowest first).
    pub exemplars: Vec<Exemplar>,
}

/// Streaming SLO evaluator over a [`TieredOds`]-backed good/bad series.
/// See the module docs for the full shape.
#[derive(Debug, Clone)]
pub struct SloEvaluator {
    spec: SloSpec,
    /// Good/bad observations (value 1.0 = bad), raw for ≥ the slow window.
    samples: TieredOds,
    sample_key: SeriesKey,
    exemplars: Vec<Exemplar>,
    sustained: u32,
    alerts: u64,
    last_t: f64,
}

impl SloEvaluator {
    /// A fresh evaluator for `spec`. The internal sample store keeps raw
    /// points for the slow window (plus margin) and coarsens beyond it, so
    /// arbitrarily long campaigns run on bounded memory.
    pub fn new(spec: SloSpec) -> Self {
        let raw_window = spec.slow_window_s * 2.0;
        let samples = TieredOds::with_tiers(
            raw_window,
            vec![TierSpec {
                bucket_s: spec.slow_window_s,
                window_s: spec.slow_window_s * 8.0,
            }],
        )
        .expect("validated spec implies a valid tier configuration");
        let sample_key = SeriesKey::new(&spec.name, "bad_sample");
        SloEvaluator {
            spec,
            samples,
            sample_key,
            exemplars: Vec::new(),
            sustained: 0,
            alerts: 0,
            last_t: f64::NEG_INFINITY,
        }
    }

    /// The spec this evaluator enforces.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Total alerts fired so far.
    pub fn alerts(&self) -> u64 {
        self.alerts
    }

    /// Consecutive alerting evaluations (sustained burn).
    pub fn sustained(&self) -> u32 {
        self.sustained
    }

    /// Current tail exemplars, slowest first.
    pub fn exemplars(&self) -> &[Exemplar] {
        &self.exemplars
    }

    /// Ingests one request observation at sim-time `t_s`. Requests over
    /// the spec threshold enter the tail-exemplar set (keeping the
    /// [`MAX_EXEMPLARS`] slowest within the slow window; ties break toward
    /// the earlier observation, deterministically).
    ///
    /// # Errors
    ///
    /// [`TelemetryError::NonMonotonicTimestamp`] when `t_s` precedes an
    /// earlier observation — observations must arrive in canonical
    /// sim-time order, exactly like ledger appends.
    pub fn observe(
        &mut self,
        t_s: f64,
        latency_s: f64,
        span_id: Option<u64>,
    ) -> Result<(), TelemetryError> {
        let bad = latency_s > self.spec.threshold_s;
        self.samples
            .append(&self.sample_key, t_s, if bad { 1.0 } else { 0.0 })?;
        self.last_t = t_s;
        if bad {
            let ex = Exemplar {
                t_s,
                latency_s,
                span_id: span_id.unwrap_or(u64::MAX),
            };
            // Prune exemplars that slid out of the slow window, then insert
            // in slowest-first order.
            let horizon = t_s - self.spec.slow_window_s;
            self.exemplars.retain(|e| e.t_s >= horizon);
            let pos = self
                .exemplars
                .partition_point(|e| e.latency_s.total_cmp(&latency_s).is_ge());
            if pos < MAX_EXEMPLARS {
                self.exemplars.insert(pos, ex);
                self.exemplars.truncate(MAX_EXEMPLARS);
            }
        }
        Ok(())
    }

    /// The error-budget burn rate over the trailing `window_s` at `t_s`:
    /// bad fraction in the window divided by the error budget. Windows with
    /// no observations burn at 0.
    pub fn burn_rate(&self, t_s: f64, window_s: f64) -> f64 {
        let horizon = t_s - window_s;
        let raw = self.samples.raw_points(&self.sample_key);
        let from = raw.partition_point(|&(pt, _)| pt < horizon);
        let in_window = &raw[from..];
        if in_window.is_empty() {
            return 0.0;
        }
        let bad: f64 = in_window.iter().map(|&(_, v)| v).sum();
        let frac = bad / in_window.len() as f64;
        frac / self.spec.error_budget()
    }

    /// Evaluates both windows at `t_s`, appending burn-rate points to
    /// `ledger` (entity = spec name, metrics [`LedgerKey::SloBurnFast`] /
    /// [`LedgerKey::SloBurnSlow`]) and, when both windows burn over their
    /// thresholds, an alert point ([`LedgerKey::SloAlert`], value =
    /// fast-window burn) plus a [`LedgerKey::SloWindow`] trace span
    /// carrying the burn rates and the exemplar span ids.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::NonMonotonicTimestamp`] when `t_s` precedes an
    /// earlier ledger append under the same series.
    pub fn evaluate(
        &mut self,
        t_s: f64,
        ledger: &mut TieredOds,
        sink: &mut TraceSink,
    ) -> Result<SloStatus, TelemetryError> {
        let burn_fast = self.burn_rate(t_s, self.spec.fast_window_s);
        let burn_slow = self.burn_rate(t_s, self.spec.slow_window_s);
        let alerting = burn_fast >= self.spec.fast_burn && burn_slow >= self.spec.slow_burn;
        let fast_key = SeriesKey::new(&self.spec.name, LedgerKey::SloBurnFast.name());
        let slow_key = SeriesKey::new(&self.spec.name, LedgerKey::SloBurnSlow.name());
        ledger.append(&fast_key, t_s, burn_fast)?;
        ledger.append(&slow_key, t_s, burn_slow)?;
        if alerting {
            self.sustained += 1;
            self.alerts += 1;
            let alert_key = SeriesKey::new(&self.spec.name, LedgerKey::SloAlert.name());
            ledger.append(&alert_key, t_s, burn_fast)?;
            let h = sink.leaf(LedgerKey::SloWindow.name(), &self.spec.name, t_s, 0.0);
            sink.attr(h, "burn_fast", AttrValue::F64(burn_fast));
            sink.attr(h, "burn_slow", AttrValue::F64(burn_slow));
            sink.attr(h, "sustained", AttrValue::Int(i64::from(self.sustained)));
            for (i, ex) in self.exemplars.iter().enumerate() {
                if ex.span_id != u64::MAX {
                    sink.attr(
                        h,
                        &format!("exemplar_{i}"),
                        AttrValue::Int(ex.span_id as i64),
                    );
                }
            }
        } else {
            self.sustained = 0;
        }
        Ok(SloStatus {
            t_s,
            burn_fast,
            burn_slow,
            alerting,
            sustained: self.sustained,
            exemplars: self.exemplars.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SloSpec {
        SloSpec::new("web", 0.050, 0.99, 30.0, 120.0).unwrap()
    }

    #[test]
    fn spec_validation_rejects_nonsense() {
        assert!(SloSpec::new("w", 0.0, 0.99, 30.0, 120.0).is_err());
        assert!(SloSpec::new("w", 0.05, 1.0, 30.0, 120.0).is_err());
        assert!(SloSpec::new("w", 0.05, 0.0, 30.0, 120.0).is_err());
        assert!(SloSpec::new("w", 0.05, 0.99, 120.0, 30.0).is_err());
        assert!(SloSpec::new("w", 0.05, 0.99, 30.0, 30.0).is_err());
        assert!(spec().with_burn_thresholds(0.0, 6.0).is_err());
        assert!((spec().error_budget() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let mut slo = SloEvaluator::new(spec());
        // 100 requests in the fast window, 2 bad → frac 0.02 → burn 2.0.
        for i in 0..100 {
            let t = i as f64 * 0.2; // spans 20 s < fast window
            let lat = if i % 50 == 0 { 0.200 } else { 0.010 };
            slo.observe(t, lat, None).unwrap();
        }
        let burn = slo.burn_rate(19.8, 30.0);
        assert!((burn - 2.0).abs() < 1e-9, "burn {burn}");
        // An empty window burns at zero.
        assert_eq!(slo.burn_rate(1e6, 30.0), 0.0);
    }

    #[test]
    fn alert_requires_both_windows() {
        let mut slo = SloEvaluator::new(spec());
        let mut ledger = TieredOds::unbounded();
        let mut sink = TraceSink::new();
        // Seed 100 s of healthy traffic so the slow window is diluted...
        let mut t = 0.0;
        for _ in 0..1000 {
            slo.observe(t, 0.010, None).unwrap();
            t += 0.1;
        }
        // ...then a sharp 100%-bad burst shorter than the fast window.
        for _ in 0..100 {
            slo.observe(t, 0.500, None).unwrap();
            t += 0.1;
        }
        let status = slo.evaluate(t, &mut ledger, &mut sink).unwrap();
        // Fast window (30 s = 300 samples, 100 bad) burns at ~33 > 14.4;
        // slow window (120 s = 1100 samples, 100 bad) at ~9.1 > 6.0.
        assert!(status.burn_fast > status.burn_slow);
        assert!(status.alerting, "sustained sharp burst must page");
        // The same burst diluted across a long healthy history must not:
        // rewind with fresh evaluator, burst only 10 samples.
        let mut calm = SloEvaluator::new(spec());
        let mut t2 = 0.0;
        for _ in 0..1000 {
            calm.observe(t2, 0.010, None).unwrap();
            t2 += 0.1;
        }
        for _ in 0..10 {
            calm.observe(t2, 0.500, None).unwrap();
            t2 += 0.1;
        }
        let mut calm_ledger = TieredOds::unbounded();
        let s2 = calm.evaluate(t2, &mut calm_ledger, &mut sink).unwrap();
        assert!(!s2.alerting, "a blip must not page: {s2:?}");
    }

    #[test]
    fn alerts_land_in_ledger_and_trace_with_exemplars() {
        let mut slo = SloEvaluator::new(spec());
        let mut ledger = TieredOds::unbounded();
        let mut sink = TraceSink::new();
        for i in 0..200 {
            let t = i as f64 * 0.2;
            // All bad: guaranteed dual-window burn.
            slo.observe(t, 0.100 + (i % 7) as f64 * 0.010, Some(1000 + i))
                .unwrap();
        }
        let status = slo.evaluate(40.0, &mut ledger, &mut sink).unwrap();
        assert!(status.alerting);
        assert_eq!(slo.alerts(), 1);
        let fast = SeriesKey::new("web", LedgerKey::SloBurnFast.name());
        let slow = SeriesKey::new("web", LedgerKey::SloBurnSlow.name());
        let alert = SeriesKey::new("web", LedgerKey::SloAlert.name());
        assert_eq!(ledger.len(&fast), 1);
        assert_eq!(ledger.len(&slow), 1);
        assert_eq!(ledger.len(&alert), 1);
        // The trace span carries the exemplar ids; exemplars are the
        // slowest bad requests, slowest first.
        assert_eq!(status.exemplars.len(), MAX_EXEMPLARS);
        assert!(status
            .exemplars
            .windows(2)
            .all(|w| w[0].latency_s >= w[1].latency_s));
        let span = &sink.spans()[sink.spans().len() - 1];
        assert_eq!(span.cat, LedgerKey::SloWindow.name());
        assert!(span.attrs.iter().any(|(k, _)| k == "exemplar_0"));
        let got_id = status.exemplars[0].span_id;
        assert!(
            span.attrs
                .contains(&("exemplar_0".into(), AttrValue::Int(got_id as i64))),
            "span attrs must carry the slowest exemplar id"
        );
    }

    #[test]
    fn sustained_counts_consecutive_alerts_and_resets() {
        let mut slo = SloEvaluator::new(spec());
        let mut ledger = TieredOds::unbounded();
        let mut sink = TraceSink::disabled();
        let mut t = 0.0;
        for _ in 0..500 {
            slo.observe(t, 0.500, None).unwrap();
            t += 0.1;
        }
        for k in 1..=3u32 {
            let s = slo.evaluate(t, &mut ledger, &mut sink).unwrap();
            assert!(s.alerting);
            assert_eq!(s.sustained, k);
            t += 1.0;
        }
        // Long quiet stretch: the windows drain and sustained resets.
        for _ in 0..5000 {
            slo.observe(t, 0.001, None).unwrap();
            t += 0.1;
        }
        let s = slo.evaluate(t, &mut ledger, &mut sink).unwrap();
        assert!(!s.alerting);
        assert_eq!(s.sustained, 0);
        assert_eq!(slo.sustained(), 0);
    }

    #[test]
    fn every_evaluation_ledgers_exactly_one_fast_burn_point() {
        let mut slo = SloEvaluator::new(spec());
        let mut ledger = TieredOds::unbounded();
        let mut sink = TraceSink::new();
        let fast = SeriesKey::new("web", LedgerKey::SloBurnFast.name());
        for i in 0..500u64 {
            let t = i as f64 * 0.1;
            // Healthy traffic with periodic bad bursts, so evaluations
            // both alert and stay quiet.
            let lat = if (i / 50) % 2 == 1 { 0.5 } else { 0.01 };
            slo.observe(t, lat, Some(i)).unwrap();
            slo.evaluate(t, &mut ledger, &mut sink).unwrap();
            assert_eq!(ledger.len(&fast), i as usize + 1);
        }
        assert!(slo.alerts() > 0, "the bursts must page at least once");
    }

    #[test]
    fn evaluator_is_deterministic() {
        let run = || {
            let mut slo = SloEvaluator::new(spec());
            let mut ledger = TieredOds::unbounded();
            let mut sink = TraceSink::new();
            let mut out = Vec::new();
            for i in 0..2000u64 {
                let t = i as f64 * 0.05;
                let lat = if (i * 2_654_435_761) % 23 == 0 {
                    0.3
                } else {
                    0.01
                };
                slo.observe(t, lat, Some(i)).unwrap();
                if i % 100 == 99 {
                    let s = slo.evaluate(t, &mut ledger, &mut sink).unwrap();
                    out.push((s.burn_fast.to_bits(), s.burn_slow.to_bits(), s.alerting));
                }
            }
            (out, sink.chrome_trace().render())
        };
        assert_eq!(run(), run(), "verdicts and trace bytes are replayable");
    }

    #[test]
    fn observations_must_be_monotone() {
        let mut slo = SloEvaluator::new(spec());
        slo.observe(10.0, 0.01, None).unwrap();
        assert!(matches!(
            slo.observe(5.0, 0.01, None),
            Err(TelemetryError::NonMonotonicTimestamp { .. })
        ));
    }
}
