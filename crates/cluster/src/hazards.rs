//! Production-hazard injection for the A/B substrate.
//!
//! µSKU's statistics have to survive more than noise: real fleets lose
//! machines to crashes and reboots, telemetry pipelines drop or corrupt
//! samples, traffic spikes arrive on top of the diurnal curve, and knob
//! writes through fleet-management tooling fail transiently (paper Sec. 4
//! motivates the confidence machinery with exactly this kind of production
//! reality). [`HazardSchedule`] generates all of it, deterministically, from
//! an [`EnvConfig`](crate::env::EnvConfig) seed: the same `(config, seed)`
//! pair always yields the same hazard timeline, so experiments stay
//! reproducible and the self-healing consumer logic can be tested
//! byte-for-byte.
//!
//! Each hazard family draws from its own RNG stream, so enabling one family
//! never perturbs another's timeline — the same independence trick
//! [`CodeEvolution`](softsku_workloads::loadgen::CodeEvolution) uses for
//! code pushes.

use crate::env::Arm;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softsku_telemetry::streams::{StreamFamily, StreamRegistry};

/// Hazard-injection knobs, carried inside
/// [`EnvConfig`](crate::env::EnvConfig).
///
/// All rates/probabilities default to zero ([`HazardConfig::none`]), so the
/// hazard-free pipeline behaves exactly as before.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HazardConfig {
    /// Mean machine crashes per hour across the two arms.
    pub crash_rate_per_hour: f64,
    /// Seconds an arm stays down (and then re-warms) after a crash.
    pub crash_outage_s: f64,
    /// Probability a paired sample is lost to a telemetry dropout.
    pub dropout_prob: f64,
    /// Probability a paired sample has one arm's reading corrupted.
    pub outlier_prob: f64,
    /// Relative magnitude of a corrupted reading (0.5 → ±50 %).
    pub outlier_magnitude: f64,
    /// Mean transient load spikes per hour.
    pub spike_rate_per_hour: f64,
    /// Seconds each load spike lasts.
    pub spike_duration_s: f64,
    /// Relative load increase while a spike is active (0.3 → +30 %).
    pub spike_magnitude: f64,
    /// Probability a knob application through fleet tooling fails
    /// transiently (each retry draws afresh).
    pub knob_failure_prob: f64,
}

impl Default for HazardConfig {
    fn default() -> Self {
        Self::none()
    }
}

impl HazardConfig {
    /// No hazards at all — the seed pipeline's behavior.
    pub fn none() -> Self {
        HazardConfig {
            crash_rate_per_hour: 0.0,
            crash_outage_s: 0.0,
            dropout_prob: 0.0,
            outlier_prob: 0.0,
            outlier_magnitude: 0.0,
            spike_rate_per_hour: 0.0,
            spike_duration_s: 0.0,
            spike_magnitude: 0.0,
            knob_failure_prob: 0.0,
        }
    }

    /// A production-plausible hazard mix: rare crashes, occasional dropped
    /// or corrupted samples, load spikes a few times a day, and flaky knob
    /// tooling.
    pub fn moderate() -> Self {
        HazardConfig {
            crash_rate_per_hour: 0.05,
            crash_outage_s: 600.0,
            dropout_prob: 0.01,
            outlier_prob: 0.02,
            outlier_magnitude: 0.5,
            spike_rate_per_hour: 0.2,
            spike_duration_s: 300.0,
            spike_magnitude: 0.25,
            knob_failure_prob: 0.1,
        }
    }

    /// Whether any hazard family is enabled.
    pub fn is_active(&self) -> bool {
        self.crash_rate_per_hour > 0.0
            || self.dropout_prob > 0.0
            || self.outlier_prob > 0.0
            || self.spike_rate_per_hour > 0.0
            || self.knob_failure_prob > 0.0
    }

    /// Clamps every field into its sane range, NaN to the inert 0.
    /// Probabilities are capped at 0.9 so bounded-retry consumers always
    /// have a path to success.
    fn validated(self) -> Self {
        HazardConfig {
            crash_rate_per_hour: self.crash_rate_per_hour.max(0.0),
            crash_outage_s: self.crash_outage_s.max(0.0),
            dropout_prob: clamp_or_zero(self.dropout_prob, 0.9),
            outlier_prob: clamp_or_zero(self.outlier_prob, 0.9),
            outlier_magnitude: clamp_or_zero(self.outlier_magnitude, 10.0),
            spike_rate_per_hour: self.spike_rate_per_hour.max(0.0),
            spike_duration_s: self.spike_duration_s.max(0.0),
            spike_magnitude: clamp_or_zero(self.spike_magnitude, 2.0),
            knob_failure_prob: clamp_or_zero(self.knob_failure_prob, 0.9),
        }
    }
}

/// One injected hazard, as surfaced by [`HazardSchedule::preview`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HazardEvent {
    /// An arm crashed and is down until `until_s`.
    ArmCrash {
        /// The crashed arm.
        arm: Arm,
        /// When the crash landed.
        at_s: f64,
        /// When the arm comes back.
        until_s: f64,
    },
    /// A paired sample was lost in the telemetry pipeline.
    TelemetryDropout {
        /// When the sample was lost.
        at_s: f64,
    },
    /// One arm's reading was corrupted by `factor`.
    CorruptedSample {
        /// The affected arm.
        arm: Arm,
        /// When the corruption landed.
        at_s: f64,
        /// Multiplier applied to the true reading.
        factor: f64,
    },
    /// A transient load spike started.
    LoadSpike {
        /// When the spike started.
        at_s: f64,
        /// When it subsides.
        until_s: f64,
        /// Relative load increase while active.
        magnitude: f64,
    },
}

/// What the hazard schedule decided for one sampling tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    /// Outage end time per arm (`[A, B]`), when the arm is down at this tick.
    pub down_until: [Option<f64>; 2],
    /// Arms that crashed strictly within this tick (for event recording).
    pub crashes: [Option<f64>; 2],
    /// The paired sample is lost to a telemetry dropout.
    pub dropped: bool,
    /// Corruption of one arm's reading: `(arm, factor)`.
    pub corrupt: Option<(Arm, f64)>,
    /// Multiplier on the common load (1.0 when no spike is active).
    pub load_multiplier: f64,
    /// A spike started within this tick: `(until_s, magnitude)`.
    pub spike_started: Option<(f64, f64)>,
}

/// Deterministic hazard timeline for one environment.
///
/// # Example
///
/// ```
/// use softsku_cluster::hazards::{HazardConfig, HazardSchedule};
///
/// let cfg = HazardConfig { spike_rate_per_hour: 2.0, spike_duration_s: 60.0,
///                          spike_magnitude: 0.3, ..HazardConfig::none() };
/// let a = HazardSchedule::preview(cfg, 7, 36_000.0, 30.0);
/// let b = HazardSchedule::preview(cfg, 7, 36_000.0, 30.0);
/// assert_eq!(a, b); // same (config, seed) → same timeline
/// ```
#[derive(Debug, Clone)]
pub struct HazardSchedule {
    config: HazardConfig,
    crash_rng: SmallRng,
    sample_rng: SmallRng,
    spike_rng: SmallRng,
    knob_rng: SmallRng,
    next_crash_t: f64,
    /// End-of-outage time per arm (`[A, B]`); an arm is down while `t` is
    /// below its entry.
    down_until: [f64; 2],
    next_spike_t: f64,
    spike_until: f64,
}

fn arm_index(arm: Arm) -> usize {
    match arm {
        Arm::A => 0,
        Arm::B => 1,
    }
}

impl HazardSchedule {
    /// Builds the timeline for `(config, seed)`. The seed should be the
    /// environment seed; each hazard family derives an independent stream
    /// from it.
    pub fn new(config: HazardConfig, seed: u64) -> Self {
        let config = config.validated();
        let mut streams = StreamRegistry::new(seed);
        let mut crash_rng = SmallRng::seed_from_u64(streams.derive(StreamFamily::HazardCrash));
        let mut spike_rng = SmallRng::seed_from_u64(streams.derive(StreamFamily::HazardSpike));
        let next_crash_t = sample_gap(&mut crash_rng, config.crash_rate_per_hour);
        let next_spike_t = sample_gap(&mut spike_rng, config.spike_rate_per_hour);
        HazardSchedule {
            config,
            crash_rng,
            sample_rng: SmallRng::seed_from_u64(streams.derive(StreamFamily::HazardTelemetry)),
            spike_rng,
            knob_rng: SmallRng::seed_from_u64(streams.derive(StreamFamily::HazardKnob)),
            next_crash_t,
            down_until: [f64::NEG_INFINITY; 2],
            next_spike_t,
            spike_until: f64::NEG_INFINITY,
        }
    }

    /// The (validated) configuration driving this schedule.
    pub fn config(&self) -> &HazardConfig {
        &self.config
    }

    /// Advances the timeline to sampling tick `t` and reports every hazard
    /// decision for it. Must be called with nondecreasing `t`, once per
    /// sample — the environment clock drives it.
    pub fn tick(&mut self, t: f64) -> Tick {
        // Crash arrivals strictly up to t; each picks a victim arm.
        let mut crashes: [Option<f64>; 2] = [None, None];
        while self.next_crash_t <= t {
            let victim = if self.crash_rng.gen::<bool>() { 1 } else { 0 };
            let until = self.next_crash_t + self.config.crash_outage_s;
            if until > self.down_until[victim] {
                self.down_until[victim] = until;
                crashes[victim] = Some(until);
            }
            self.next_crash_t += sample_gap(&mut self.crash_rng, self.config.crash_rate_per_hour);
        }
        let down_until = [
            (t < self.down_until[0]).then_some(self.down_until[0]),
            (t < self.down_until[1]).then_some(self.down_until[1]),
        ];

        // Spike arrivals; overlapping spikes extend the active window.
        let mut spike_started = None;
        while self.next_spike_t <= t {
            let until = self.next_spike_t + self.config.spike_duration_s;
            if until > self.spike_until {
                self.spike_until = until;
                spike_started = Some((until, self.config.spike_magnitude));
            }
            self.next_spike_t += sample_gap(&mut self.spike_rng, self.config.spike_rate_per_hour);
        }
        let load_multiplier = if t < self.spike_until {
            1.0 + self.config.spike_magnitude
        } else {
            1.0
        };

        // Telemetry fates. A fixed number of draws per tick keeps the
        // stream stable regardless of which branches fire.
        let drop_u: f64 = self.sample_rng.gen();
        let corrupt_u: f64 = self.sample_rng.gen();
        let corrupt_arm = if self.sample_rng.gen::<bool>() {
            Arm::B
        } else {
            Arm::A
        };
        let corrupt_sign = if self.sample_rng.gen::<bool>() {
            1.0
        } else {
            -1.0
        };
        let dropped = drop_u < self.config.dropout_prob;
        let corrupt = (corrupt_u < self.config.outlier_prob).then(|| {
            (
                corrupt_arm,
                (1.0 + corrupt_sign * self.config.outlier_magnitude).max(0.05),
            )
        });

        Tick {
            down_until,
            crashes,
            dropped,
            corrupt,
            load_multiplier,
            spike_started,
        }
    }

    /// Whether an arm is down at time `t` (no stream advance).
    pub fn arm_down(&self, arm: Arm, t: f64) -> Option<f64> {
        let until = self.down_until[arm_index(arm)];
        (t < until).then_some(until)
    }

    /// Draws one knob-application attempt: `true` means the fleet tooling
    /// failed transiently and the caller should retry.
    pub fn knob_failure(&mut self) -> bool {
        if self.config.knob_failure_prob == 0.0 {
            return false;
        }
        self.knob_rng.gen::<f64>() < self.config.knob_failure_prob
    }

    /// Replays the time-driven hazards for `(config, seed)` over
    /// `horizon_s` at `spacing_s` sample spacing, without an environment.
    /// Pure function of its arguments — the determinism property tests
    /// compare these timelines byte-for-byte.
    pub fn preview(
        config: HazardConfig,
        seed: u64,
        horizon_s: f64,
        spacing_s: f64,
    ) -> Vec<HazardEvent> {
        let spacing = spacing_s.max(1e-3);
        let mut schedule = HazardSchedule::new(config, seed);
        let mut events = Vec::new();
        let mut t = spacing;
        while t <= horizon_s {
            let tick = schedule.tick(t);
            for (idx, crash) in tick.crashes.iter().enumerate() {
                if let Some(until_s) = crash {
                    let arm = if idx == 0 { Arm::A } else { Arm::B };
                    events.push(HazardEvent::ArmCrash {
                        arm,
                        at_s: t,
                        until_s: *until_s,
                    });
                }
            }
            if let Some((until_s, magnitude)) = tick.spike_started {
                events.push(HazardEvent::LoadSpike {
                    at_s: t,
                    until_s,
                    magnitude,
                });
            }
            if tick.dropped {
                events.push(HazardEvent::TelemetryDropout { at_s: t });
            }
            if let Some((arm, factor)) = tick.corrupt {
                events.push(HazardEvent::CorruptedSample {
                    arm,
                    at_s: t,
                    factor,
                });
            }
            t += spacing;
        }
        events
    }
}

/// `x.clamp(0.0, hi)`, except that NaN maps to the inert 0.0 (as it does
/// through `max(0.0)`) instead of passing through `clamp`.
pub(crate) fn clamp_or_zero(x: f64, hi: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x.clamp(0.0, hi)
    }
}

/// Exponential inter-arrival gap for a Poisson process at `rate_per_hour`,
/// or infinity when the process is disabled.
fn sample_gap(rng: &mut SmallRng, rate_per_hour: f64) -> f64 {
    if rate_per_hour <= 0.0 {
        return f64::INFINITY;
    }
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() * 3600.0 / rate_per_hour
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crashy() -> HazardConfig {
        HazardConfig {
            crash_rate_per_hour: 2.0,
            crash_outage_s: 300.0,
            ..HazardConfig::none()
        }
    }

    #[test]
    fn none_is_inert() {
        let mut s = HazardSchedule::new(HazardConfig::none(), 1);
        for i in 1..=2_000 {
            let tick = s.tick(i as f64 * 30.0);
            assert_eq!(tick.down_until, [None, None]);
            assert!(!tick.dropped);
            assert_eq!(tick.corrupt, None);
            assert_eq!(tick.load_multiplier, 1.0);
        }
        assert!(!s.knob_failure());
        assert!(!HazardConfig::none().is_active());
        assert!(HazardConfig::moderate().is_active());
    }

    #[test]
    fn nan_magnitudes_and_probabilities_are_inert() {
        let cfg = HazardConfig {
            dropout_prob: f64::NAN,
            outlier_prob: 0.5,
            outlier_magnitude: f64::NAN,
            spike_rate_per_hour: 4.0,
            spike_duration_s: 600.0,
            spike_magnitude: f64::NAN,
            knob_failure_prob: f64::NAN,
            ..HazardConfig::none()
        };
        let mut s = HazardSchedule::new(cfg, 3);
        let mut spikes = 0;
        let mut corrupted = 0;
        for i in 1..=2_000 {
            let tick = s.tick(i as f64 * 30.0);
            assert_eq!(tick.load_multiplier, 1.0, "a NaN spike adds nothing");
            assert!(!tick.dropped);
            if let Some((until, magnitude)) = tick.spike_started {
                assert!(until.is_finite());
                assert_eq!(magnitude, 0.0);
                spikes += 1;
            }
            if let Some((_, factor)) = tick.corrupt {
                assert_eq!(factor, 1.0, "a NaN outlier corrupts nothing");
                corrupted += 1;
            }
        }
        assert!(spikes > 0 && corrupted > 0, "the rates still fire");
        assert!(!s.knob_failure());
    }

    #[test]
    fn crashes_arrive_at_roughly_the_configured_rate() {
        let mut s = HazardSchedule::new(crashy(), 9);
        let mut crashes = 0;
        let hours = 200.0;
        let mut t = 0.0;
        while t < hours * 3600.0 {
            t += 30.0;
            let tick = s.tick(t);
            crashes += tick.crashes.iter().flatten().count();
        }
        let expect = 2.0 * hours;
        assert!(
            (crashes as f64) > 0.7 * expect && (crashes as f64) < 1.4 * expect,
            "crashes {crashes} vs expected ~{expect}"
        );
    }

    #[test]
    fn outages_block_the_victim_then_clear() {
        let mut s = HazardSchedule::new(crashy(), 3);
        let mut t = 0.0;
        loop {
            t += 30.0;
            let tick = s.tick(t);
            let victim = tick.crashes.iter().position(Option::is_some);
            if let Some(idx) = victim {
                let arm = if idx == 0 { Arm::A } else { Arm::B };
                let until = tick.crashes[idx].unwrap();
                assert!(s.arm_down(arm, t).is_some());
                assert!(s.arm_down(arm, until + 1.0).is_none());
                break;
            }
            assert!(t < 1e7, "a crash must arrive eventually");
        }
    }

    #[test]
    fn dropouts_and_outliers_hit_the_configured_fractions() {
        let cfg = HazardConfig {
            dropout_prob: 0.1,
            outlier_prob: 0.05,
            outlier_magnitude: 0.5,
            ..HazardConfig::none()
        };
        let mut s = HazardSchedule::new(cfg, 5);
        let n = 20_000;
        let mut drops = 0;
        let mut outliers = 0;
        for i in 1..=n {
            let tick = s.tick(i as f64 * 30.0);
            drops += tick.dropped as u32;
            if let Some((_, factor)) = tick.corrupt {
                outliers += 1;
                assert!((factor - 1.5).abs() < 1e-12 || (factor - 0.5).abs() < 1e-12);
            }
        }
        let drop_rate = f64::from(drops) / f64::from(n);
        let outlier_rate = f64::from(outliers) / f64::from(n);
        assert!((drop_rate - 0.1).abs() < 0.01, "drop rate {drop_rate}");
        assert!(
            (outlier_rate - 0.05).abs() < 0.01,
            "outlier rate {outlier_rate}"
        );
    }

    #[test]
    fn spikes_raise_load_while_active() {
        let cfg = HazardConfig {
            spike_rate_per_hour: 4.0,
            spike_duration_s: 240.0,
            spike_magnitude: 0.3,
            ..HazardConfig::none()
        };
        let mut s = HazardSchedule::new(cfg, 11);
        let mut spiked = 0;
        let mut calm = 0;
        for i in 1..=10_000 {
            let tick = s.tick(i as f64 * 30.0);
            if tick.load_multiplier > 1.0 {
                assert!((tick.load_multiplier - 1.3).abs() < 1e-12);
                spiked += 1;
            } else {
                calm += 1;
            }
        }
        // 4/hour × 240 s ≈ 27 % duty cycle.
        assert!(
            spiked > 1_000 && calm > 4_000,
            "spiked {spiked} calm {calm}"
        );
    }

    #[test]
    fn knob_failures_are_transient() {
        let cfg = HazardConfig {
            knob_failure_prob: 0.5,
            ..HazardConfig::none()
        };
        let mut s = HazardSchedule::new(cfg, 13);
        let fails = (0..1_000).filter(|_| s.knob_failure()).count();
        assert!((300..700).contains(&fails), "fails {fails}");
        // Validation caps the probability below 1, so retries can succeed.
        let all_in = HazardConfig {
            knob_failure_prob: 5.0,
            ..HazardConfig::none()
        };
        let mut s = HazardSchedule::new(all_in, 17);
        assert!((0..1_000).any(|_| !s.knob_failure()));
    }

    #[test]
    fn preview_is_deterministic_and_family_independent() {
        let cfg = HazardConfig::moderate();
        let a = HazardSchedule::preview(cfg, 21, 86_400.0, 30.0);
        let b = HazardSchedule::preview(cfg, 21, 86_400.0, 30.0);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "a day of moderate hazards is not silent");

        // Disabling spikes must not move the crash timeline (stream
        // independence).
        let no_spikes = HazardConfig {
            spike_rate_per_hour: 0.0,
            ..cfg
        };
        let crashes = |events: &[HazardEvent]| {
            events
                .iter()
                .filter(|e| matches!(e, HazardEvent::ArmCrash { .. }))
                .copied()
                .collect::<Vec<_>>()
        };
        let c = HazardSchedule::preview(no_spikes, 21, 86_400.0, 30.0);
        assert_eq!(crashes(&a), crashes(&c));
    }
}
