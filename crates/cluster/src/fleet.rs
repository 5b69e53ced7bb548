//! Fleet-scale soft-SKU validation.
//!
//! After µSKU composes a soft SKU, the paper validates it "by comparing the
//! QPS achieved (via ODS) by soft-SKU servers against hand-tuned production
//! servers for prolonged durations (including across code updates and under
//! diurnal load)" (Sec. 4). [`ValidationFleet`] runs that experiment: two
//! server groups under common diurnal load and a shared code-push process,
//! streaming per-group QPS into the ODS time-series store.
//!
//! [`StagedFleet`] is the deployment-side counterpart: one service's fleet
//! of replicas partitioned into a baseline group and a candidate (soft-SKU)
//! group whose size the rollout controller moves through canary stages. It
//! produces per-tick group QPS samples for guardrail statistics and models
//! post-deployment *drift* — every code push can erode the candidate's
//! tuned advantage — which is what the rollout crate's `DriftMonitor`
//! watches for.

use crate::domains::FailureDomain;
use crate::error::ClusterError;
use crate::server::SimServer;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softsku_archsim::engine::ServerConfig;
use softsku_telemetry::streams::{StreamFamily, StreamRegistry};
use softsku_telemetry::{SeriesKey, TieredOds};
use softsku_workloads::loadgen::{CodeEvolution, LoadGenerator};
use softsku_workloads::WorkloadProfile;

/// Result of a long-horizon QPS comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationOutcome {
    /// Mean QPS of the candidate (soft-SKU) group.
    pub candidate_qps: f64,
    /// Mean QPS of the baseline (hand-tuned) group.
    pub baseline_qps: f64,
    /// Relative gain of candidate over baseline.
    pub relative_gain: f64,
    /// Code pushes that landed during validation.
    pub code_pushes: u64,
    /// Whether the gain held in every daily bucket (stability check).
    pub stable_across_days: bool,
}

/// Two server groups under common production traffic, feeding ODS.
#[derive(Debug)]
pub struct ValidationFleet {
    baseline: SimServer,
    candidate: SimServer,
    load: LoadGenerator,
    evolution: CodeEvolution,
    ods: TieredOds,
    time_s: f64,
    tick_s: f64,
}

impl ValidationFleet {
    /// Creates a fleet: `baseline_config` vs `candidate_config`, sampling
    /// QPS every `tick_s` seconds of simulated time.
    ///
    /// # Errors
    ///
    /// Propagates server construction errors.
    pub fn new(
        profile: WorkloadProfile,
        baseline_config: ServerConfig,
        candidate_config: ServerConfig,
        window_insns: u64,
        tick_s: f64,
        seed: u64,
    ) -> Result<Self, ClusterError> {
        // Both groups share the engine seed (identical hardware); see the
        // same-seed rationale in `AbEnvironment::new`.
        let baseline =
            SimServer::with_window(profile.clone(), baseline_config, seed, window_insns)?;
        let candidate = SimServer::with_window(profile, candidate_config, seed, window_insns)?;
        // Historically the code-push stream was `seed ^ 0xBEEF` — the same
        // derivation the engine (seeded with this very `seed` through the
        // servers above) uses for its sampling stream, so the two streams
        // drew identical sequences. The registry family breaks the tie and
        // its mask table forbids reintroducing the alias.
        let mut streams = StreamRegistry::new(seed);
        Ok(ValidationFleet {
            baseline,
            candidate,
            load: LoadGenerator::new(
                0.85,
                0.15,
                86_400.0,
                0.02,
                streams.derive(StreamFamily::FleetLoad),
            ),
            evolution: CodeEvolution::new(0.25, 0.01, streams.derive(StreamFamily::FleetCodePush)),
            ods: TieredOds::unbounded(),
            time_s: 0.0,
            tick_s: tick_s.max(1.0),
        })
    }

    /// Runs the fleet for `duration_s` of simulated time and returns the
    /// comparison outcome.
    ///
    /// # Errors
    ///
    /// Engine errors on configuration evaluation.
    pub fn run(&mut self, duration_s: f64) -> Result<ValidationOutcome, ClusterError> {
        let base_key = SeriesKey::new("fleet.baseline", "qps");
        let cand_key = SeriesKey::new("fleet.candidate", "qps");
        let end = self.time_s + duration_s;
        let mut pushes = 0u64;
        while self.time_s < end {
            self.time_s += self.tick_s;
            while let Some(push) = self.evolution.push_before(self.time_s) {
                self.baseline.apply_code_push(push);
                self.candidate.apply_code_push(push);
                pushes += 1;
            }
            let load = self.load.load_at(self.time_s);
            let bq = self.baseline.qps(load)?;
            let cq = self.candidate.qps(load)?;
            // detlint::allow(panic_path): fleet time only moves forward, so
            // the ODS append cannot be out of order.
            self.ods
                .append(&base_key, self.time_s, bq)
                .expect("monotone fleet time");
            // detlint::allow(panic_path): same monotone fleet time as above.
            self.ods
                .append(&cand_key, self.time_s, cq)
                .expect("monotone fleet time");
        }
        let start = end - duration_s;
        // detlint::allow(panic_path): the loop above appended at least one
        // sample to this series inside the queried window.
        let baseline_qps = self
            .ods
            .mean_in(&base_key, start, end + 1.0)
            .expect("series populated above");
        // detlint::allow(panic_path): same population guarantee as above.
        let candidate_qps = self
            .ods
            .mean_in(&cand_key, start, end + 1.0)
            .expect("series populated above");

        // Daily-bucket stability: the win must not be an artifact of one
        // load phase.
        let day = 86_400.0;
        let mut stable = true;
        let mut t = start;
        while t < end {
            let hi = (t + day).min(end + 1.0);
            if hi - t > day * 0.5 {
                let b = self.ods.mean_in(&base_key, t, hi).unwrap_or(baseline_qps);
                let c = self.ods.mean_in(&cand_key, t, hi).unwrap_or(candidate_qps);
                if c < b * 0.998 {
                    stable = false;
                }
            }
            t += day;
        }
        Ok(ValidationOutcome {
            candidate_qps,
            baseline_qps,
            relative_gain: candidate_qps / baseline_qps - 1.0,
            code_pushes: pushes,
            stable_across_days: stable,
        })
    }

    /// Read access to the collected ODS series.
    pub fn ods(&self) -> &TieredOds {
        &self.ods
    }
}

/// Parameters of a staged canary fleet.
#[derive(Debug, Clone, Copy)]
pub struct StagedFleetConfig {
    /// Total replicas serving this service.
    pub replicas: usize,
    /// Seconds of simulated time between QPS samples.
    pub tick_s: f64,
    /// Engine sampling window, instructions.
    pub window_insns: u64,
    /// Relative measurement noise of a single replica's QPS report; a
    /// group of `n` replicas averages it down by `sqrt(n)`.
    pub noise_rel: f64,
    /// Code-push arrival rate, pushes per hour.
    pub pushes_per_hour: f64,
    /// Magnitude of each push's CPI/miss perturbation.
    pub push_magnitude: f64,
    /// Fraction of the candidate's tuned advantage each push erodes —
    /// the drift-injection hook. `0.0` models a perfectly durable SKU;
    /// large values force the decay a `DriftMonitor` must catch.
    pub drift_per_push: f64,
}

impl StagedFleetConfig {
    /// Small, fast parameters for unit tests and smoke runs.
    pub fn fast_test() -> Self {
        StagedFleetConfig {
            replicas: 100,
            tick_s: 600.0,
            window_insns: 50_000,
            noise_rel: 0.01,
            pushes_per_hour: 0.25,
            push_magnitude: 0.01,
            drift_per_push: 0.0,
        }
    }
}

/// One per-tick observation of the staged fleet.
#[derive(Debug, Clone, Copy)]
pub struct StagedSample {
    /// Simulated time of the sample, seconds.
    pub time_s: f64,
    /// Offered load at the sample time (fraction of peak).
    pub load: f64,
    /// Replicas serving the baseline configuration.
    pub baseline_replicas: usize,
    /// Replicas serving the candidate (soft-SKU) configuration.
    pub candidate_replicas: usize,
    /// Measured mean per-replica QPS of the baseline group.
    pub baseline_qps: f64,
    /// Measured mean per-replica QPS of the candidate group, `None` while
    /// no replica carries the candidate (pre-canary or after rollback).
    pub candidate_qps: Option<f64>,
    /// One sampled request latency from the baseline group this tick,
    /// seconds: the analytic mean latency at the tick's load scaled by a
    /// heavy-tailed draw, so a stage's worth of ticks forms a latency
    /// distribution whose upper quantiles a guardrail can compare.
    pub baseline_latency_s: f64,
    /// The candidate group's sampled request latency, `None` while no
    /// replica serves the candidate (mirrors `candidate_qps`).
    pub candidate_latency_s: Option<f64>,
    /// Code pushes that have landed since the fleet was created.
    pub code_pushes_total: u64,
}

/// One service's replica fleet under staged soft-SKU rollout.
///
/// The fleet always holds back a baseline control group of at least
/// `max(1, replicas / 100)` replicas — even at the 100 % stage — so drift
/// monitoring retains a live comparison population, mirroring the paper's
/// long-horizon ODS comparison against hand-tuned production servers.
///
/// Determinism: the diurnal load, the per-group measurement noise, and the
/// code-push process each draw from their own registered stream family
/// ([`StreamFamily::RolloutStagedLoad`], [`StreamFamily::RolloutGroupNoise`],
/// [`StreamFamily::FleetCodePush`]), and every tick consumes exactly two
/// noise draws regardless of group sizes — so a sample trace is a pure
/// function of `(config, seed)` and the staging schedule.
#[derive(Debug)]
pub struct StagedFleet {
    baseline: SimServer,
    candidate: SimServer,
    load: LoadGenerator,
    evolution: CodeEvolution,
    noise: SmallRng,
    config: StagedFleetConfig,
    candidate_replicas: usize,
    /// Multiplicative erosion of the candidate's throughput; starts at 1.0
    /// and decays by `drift_per_push` per code push.
    candidate_drift: f64,
    code_pushes: u64,
    time_s: f64,
    /// The failure domain this fleet's replicas live in, when the fleet is
    /// coordinated at fleet scale. `None` for standalone rollouts.
    domain: Option<FailureDomain>,
    /// Per-tick latency tail draws; its own registered stream
    /// ([`StreamFamily::FleetLatency`]) so the latency channel never
    /// moves the QPS noise stream's position.
    lat_noise: SmallRng,
    /// Injected multiplicative tail regression on the candidate group's
    /// latency; 1.0 (inert) models a healthy candidate, larger values
    /// seed the regression the rollout guardrail must catch.
    candidate_tail_mult: f64,
    /// External (chaos) load multiplier; 1.0 when healthy. Applied as a
    /// pure multiply, so the default is bitwise inert.
    external_load_mult: f64,
    /// Crashed candidate replicas and when they come back.
    down_replicas: usize,
    down_until_s: f64,
}

impl StagedFleet {
    /// Creates the fleet with every replica on `baseline_config`; call
    /// [`StagedFleet::stage_to`] to move replicas onto `candidate_config`.
    ///
    /// # Errors
    ///
    /// Server construction errors.
    pub fn new(
        profile: WorkloadProfile,
        baseline_config: ServerConfig,
        candidate_config: ServerConfig,
        config: StagedFleetConfig,
        seed: u64,
    ) -> Result<Self, ClusterError> {
        // Both groups share the engine seed (identical hardware), as in
        // `ValidationFleet::new`.
        let baseline =
            SimServer::with_window(profile.clone(), baseline_config, seed, config.window_insns)?;
        let candidate =
            SimServer::with_window(profile, candidate_config, seed, config.window_insns)?;
        let mut streams = StreamRegistry::new(seed);
        Ok(StagedFleet {
            baseline,
            candidate,
            load: LoadGenerator::new(
                0.85,
                0.15,
                86_400.0,
                0.02,
                streams.derive(StreamFamily::RolloutStagedLoad),
            ),
            evolution: CodeEvolution::new(
                config.pushes_per_hour,
                config.push_magnitude,
                streams.derive(StreamFamily::FleetCodePush),
            ),
            noise: SmallRng::seed_from_u64(streams.derive(StreamFamily::RolloutGroupNoise)),
            lat_noise: SmallRng::seed_from_u64(streams.derive(StreamFamily::FleetLatency)),
            candidate_tail_mult: 1.0,
            candidate_replicas: 0,
            candidate_drift: 1.0,
            code_pushes: 0,
            time_s: 0.0,
            domain: None,
            external_load_mult: 1.0,
            down_replicas: 0,
            down_until_s: f64::NEG_INFINITY,
            config: StagedFleetConfig {
                replicas: config.replicas.max(2),
                tick_s: config.tick_s.max(1.0),
                ..config
            },
        })
    }

    /// Moves the candidate group to `fraction` of the fleet (rounded up),
    /// clamped so the baseline holdback group survives. Returns the actual
    /// candidate replica count.
    pub fn stage_to(&mut self, fraction: f64) -> usize {
        let replicas = self.config.replicas;
        let want = (fraction.clamp(0.0, 1.0) * replicas as f64).ceil() as usize;
        self.candidate_replicas = want.min(replicas - self.holdback());
        self.candidate_replicas
    }

    /// Moves the candidate group to exactly `count` replicas (clamped so
    /// the baseline holdback group survives) — the coordinator's
    /// budget-metered staging primitive. Returns the actual count.
    pub fn stage_replicas(&mut self, count: usize) -> usize {
        self.candidate_replicas = count.min(self.config.replicas - self.holdback());
        self.candidate_replicas
    }

    /// Tags the fleet with the failure domain its replicas live in.
    pub fn set_domain(&mut self, domain: FailureDomain) {
        self.domain = Some(domain);
    }

    /// The failure domain this fleet lives in, if any.
    pub fn domain(&self) -> Option<&FailureDomain> {
        self.domain.as_ref()
    }

    /// Sets the external (chaos) load multiplier: 1.0 healthy, `1 − depth`
    /// browned out, 0.0 dark. Applied multiplicatively to the diurnal load
    /// each tick, so the healthy value is bitwise inert.
    pub fn set_external_load(&mut self, mult: f64) {
        self.external_load_mult = mult.max(0.0);
    }

    /// A correlated code-push wave landed on this service: erodes the
    /// candidate's remaining tuned advantage by `erosion` on top of the
    /// organic per-push drift.
    pub fn apply_push_wave(&mut self, erosion: f64) {
        self.candidate_drift *= 1.0 - erosion.clamp(0.0, 1.0);
        self.code_pushes += 1;
    }

    /// Crashes `count` candidate replicas until sim-time `until_s`; they
    /// serve nothing while down (the sample reports the surviving group).
    /// A later crash extends, never shortens, an outage.
    pub fn crash_candidates(&mut self, count: usize, until_s: f64) {
        if self.time_s >= self.down_until_s {
            // The previous outage (if any) is over; start fresh.
            self.down_replicas = count;
            self.down_until_s = until_s;
        } else if until_s >= self.down_until_s {
            self.down_until_s = until_s;
            self.down_replicas = self.down_replicas.max(count);
        }
    }

    /// Candidate replicas currently down from a canary crash.
    pub fn crashed_candidates(&self) -> usize {
        if self.time_s < self.down_until_s {
            self.down_replicas.min(self.candidate_replicas)
        } else {
            0
        }
    }

    /// Reverts every candidate replica to the baseline configuration.
    pub fn rollback(&mut self) {
        self.candidate_replicas = 0;
    }

    /// Swaps in a new candidate configuration (a re-tuned SKU). The
    /// candidate group is emptied; stage it back up explicitly. The drift
    /// erosion resets — the new SKU was tuned against current code.
    ///
    /// # Errors
    ///
    /// Reboot-tolerance and configuration-validation errors.
    pub fn deploy_candidate(
        &mut self,
        config: ServerConfig,
        needs_reboot: bool,
    ) -> Result<(), ClusterError> {
        self.candidate.reconfigure(config, needs_reboot)?;
        self.candidate_replicas = 0;
        self.candidate_drift = 1.0;
        Ok(())
    }

    /// Advances one tick: lands due code pushes, samples the diurnal load,
    /// and measures both groups' mean per-replica QPS.
    ///
    /// # Errors
    ///
    /// Engine errors on configuration evaluation.
    pub fn tick(&mut self) -> Result<StagedSample, ClusterError> {
        self.time_s += self.config.tick_s;
        while let Some(push) = self.evolution.push_before(self.time_s) {
            self.baseline.apply_code_push(push);
            self.candidate.apply_code_push(push);
            self.candidate_drift *= 1.0 - self.config.drift_per_push.clamp(0.0, 1.0);
            self.code_pushes += 1;
        }
        // The external multiplier is 1.0 when no chaos layer drives this
        // fleet — a bitwise-identity multiply, so standalone rollouts
        // replay exactly as before the chaos hooks existed.
        let load = self.load.load_at(self.time_s) * self.external_load_mult;
        // Crashed canary replicas serve nothing; the surviving group is
        // what the sample reports and what the noise averages over.
        let serving_candidates = self.candidate_replicas - self.crashed_candidates();
        let baseline_replicas = self.config.replicas - self.candidate_replicas;
        // Both noise draws happen every tick, staged or not, to keep the
        // stream position independent of the staging schedule.
        let bnoise = self.group_noise(baseline_replicas);
        let cnoise = self.group_noise(serving_candidates);
        let baseline_qps = self.baseline.qps(load)? * bnoise;
        let candidate_qps = if serving_candidates > 0 {
            Some(self.candidate.qps(load)? * self.candidate_drift * cnoise)
        } else {
            None
        };
        // Both latency draws happen every tick too, for the same
        // stream-position independence as the QPS noise above.
        let blat = self.latency_draw();
        let clat = self.latency_draw();
        let baseline_latency_s = self.baseline.latency(load)? * blat;
        let candidate_latency_s = if serving_candidates > 0 {
            // Drift erodes throughput, which shows up as slower requests;
            // the injected tail multiplier sits on top of that.
            Some(
                self.candidate.latency(load)? * self.candidate_tail_mult
                    / self.candidate_drift.max(0.05)
                    * clat,
            )
        } else {
            None
        };
        Ok(StagedSample {
            time_s: self.time_s,
            load,
            baseline_replicas,
            candidate_replicas: serving_candidates,
            baseline_qps,
            candidate_qps,
            baseline_latency_s,
            candidate_latency_s,
            code_pushes_total: self.code_pushes,
        })
    }

    /// The baseline holdback group size: at least one replica, scaling as
    /// 1 % of the fleet.
    pub fn holdback(&self) -> usize {
        (self.config.replicas / 100).max(1)
    }

    /// Total fleet replicas.
    pub fn replicas(&self) -> usize {
        self.config.replicas
    }

    /// The fleet's simulation parameters (after construction clamping).
    pub fn config(&self) -> &StagedFleetConfig {
        &self.config
    }

    /// Replicas currently serving the candidate configuration.
    pub fn candidate_replicas(&self) -> usize {
        self.candidate_replicas
    }

    /// Fraction of the fleet on the candidate configuration.
    pub fn candidate_fraction(&self) -> f64 {
        self.candidate_replicas as f64 / self.config.replicas as f64
    }

    /// Cumulative drift-erosion factor on the candidate's throughput.
    pub fn candidate_drift(&self) -> f64 {
        self.candidate_drift
    }

    /// Code pushes landed so far.
    pub fn code_pushes(&self) -> u64 {
        self.code_pushes
    }

    /// Current simulated time, seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Injects a multiplicative latency-tail regression on the candidate
    /// group; `1.0` restores the healthy (bitwise-inert) default. This is
    /// the seeded-regression hook the SLO guardrail acceptance scenario
    /// drives.
    pub fn inject_tail_regression(&mut self, mult: f64) {
        self.candidate_tail_mult = mult.max(0.0);
    }

    /// The current injected candidate latency-tail multiplier.
    pub fn candidate_tail_mult(&self) -> f64 {
        self.candidate_tail_mult
    }

    /// One heavy-tailed latency draw with unit mean: log-normal in the
    /// tick's measurement, so upper quantiles sit well above the mean
    /// (p99 ≈ 2.6× at σ = 0.45) and a percentile guardrail has a real
    /// tail to watch.
    fn latency_draw(&mut self) -> f64 {
        let u1: f64 = self.lat_noise.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.lat_noise.gen();
        let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        const SIGMA: f64 = 0.45;
        (SIGMA * g - 0.5 * SIGMA * SIGMA).exp()
    }

    fn group_noise(&mut self, group: usize) -> f64 {
        let u1: f64 = self.noise.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.noise.gen();
        let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        1.0 + self.config.noise_rel * g / (group.max(1) as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsku_archsim::platform::PlatformKind;
    use softsku_workloads::Microservice;

    #[test]
    fn better_candidate_wins_over_days() {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let baseline = profile.production_config.clone();
        let mut candidate = baseline.clone();
        candidate.shp_pages = 300; // the Fig. 18b sweet spot
        let mut fleet =
            ValidationFleet::new(profile, baseline, candidate, 50_000, 3600.0, 4).unwrap();
        let out = fleet.run(2.0 * 86_400.0).unwrap();
        assert!(
            out.relative_gain > 0.01,
            "300-SHP candidate should win: {:+.2}%",
            out.relative_gain * 100.0
        );
        assert!(out.stable_across_days, "gain must persist across days");
        assert!(fleet.ods().series_count() == 2);
    }

    #[test]
    fn identical_groups_tie() {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let cfg = profile.production_config.clone();
        let mut fleet = ValidationFleet::new(profile, cfg.clone(), cfg, 50_000, 5400.0, 9).unwrap();
        let out = fleet.run(86_400.0).unwrap();
        assert!(
            out.relative_gain.abs() < 0.002,
            "identical groups: {:+.3}%",
            out.relative_gain * 100.0
        );
    }

    #[test]
    fn code_pushes_are_counted() {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let cfg = profile.production_config.clone();
        let mut fleet = ValidationFleet::new(profile, cfg.clone(), cfg, 50_000, 5400.0, 2).unwrap();
        let out = fleet.run(2.0 * 86_400.0).unwrap();
        assert!(out.code_pushes > 3, "pushes {}", out.code_pushes);
    }

    fn staged_setup(config: StagedFleetConfig, seed: u64) -> StagedFleet {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let baseline = profile.production_config.clone();
        let mut candidate = baseline.clone();
        candidate.shp_pages = 300;
        StagedFleet::new(profile, baseline, candidate, config, seed).unwrap()
    }

    #[test]
    fn staging_respects_the_holdback_group() {
        let mut fleet = staged_setup(StagedFleetConfig::fast_test(), 7);
        assert_eq!(fleet.candidate_replicas(), 0);
        assert_eq!(fleet.stage_to(0.01), 1);
        assert_eq!(fleet.stage_to(0.25), 25);
        // Full rollout still keeps the 1 % baseline control population.
        assert_eq!(fleet.stage_to(1.0), 99);
        assert_eq!(fleet.holdback(), 1);
        fleet.rollback();
        assert_eq!(fleet.candidate_replicas(), 0);
    }

    #[test]
    fn staged_samples_are_deterministic_across_replays() {
        let cfg = StagedFleetConfig::fast_test();
        let mut a = staged_setup(cfg, 11);
        let mut b = staged_setup(cfg, 11);
        a.stage_to(0.25);
        b.stage_to(0.25);
        for _ in 0..50 {
            let sa = a.tick().unwrap();
            let sb = b.tick().unwrap();
            assert_eq!(sa.baseline_qps.to_bits(), sb.baseline_qps.to_bits());
            assert_eq!(
                sa.candidate_qps.map(f64::to_bits),
                sb.candidate_qps.map(f64::to_bits)
            );
            assert_eq!(
                sa.baseline_latency_s.to_bits(),
                sb.baseline_latency_s.to_bits()
            );
            assert_eq!(
                sa.candidate_latency_s.map(f64::to_bits),
                sb.candidate_latency_s.map(f64::to_bits)
            );
            assert_eq!(sa.load.to_bits(), sb.load.to_bits());
            assert_eq!(sa.code_pushes_total, sb.code_pushes_total);
        }
    }

    #[test]
    fn injected_tail_regression_inflates_candidate_latency_only() {
        let cfg = StagedFleetConfig::fast_test();
        let mut healthy = staged_setup(cfg, 23);
        let mut hurt = staged_setup(cfg, 23);
        hurt.inject_tail_regression(1.5);
        assert!((hurt.candidate_tail_mult() - 1.5).abs() < 1e-12);
        healthy.stage_to(0.25);
        hurt.stage_to(0.25);
        for _ in 0..30 {
            let a = healthy.tick().unwrap();
            let b = hurt.tick().unwrap();
            // The injection is latency-only: QPS and baseline latency
            // replay bit-identically.
            assert_eq!(a.baseline_qps.to_bits(), b.baseline_qps.to_bits());
            assert_eq!(
                a.candidate_qps.map(f64::to_bits),
                b.candidate_qps.map(f64::to_bits)
            );
            assert_eq!(
                a.baseline_latency_s.to_bits(),
                b.baseline_latency_s.to_bits()
            );
            let la = a.candidate_latency_s.unwrap();
            let lb = b.candidate_latency_s.unwrap();
            assert!(
                (lb / la - 1.5).abs() < 1e-9,
                "regression is a pure multiply: {lb} vs {la}"
            );
        }
        // Restoring 1.0 re-joins the healthy sequence.
        hurt.inject_tail_regression(1.0);
        let a = healthy.tick().unwrap();
        let b = hurt.tick().unwrap();
        assert_eq!(
            a.candidate_latency_s.map(f64::to_bits),
            b.candidate_latency_s.map(f64::to_bits)
        );
    }

    #[test]
    fn latency_samples_track_load_and_stay_positive() {
        let mut cfg = StagedFleetConfig::fast_test();
        cfg.noise_rel = 0.0;
        let mut fleet = staged_setup(cfg, 29);
        fleet.stage_to(0.5);
        let mut min_l = f64::INFINITY;
        let mut max_l = 0.0f64;
        for _ in 0..100 {
            let s = fleet.tick().unwrap();
            assert!(s.baseline_latency_s.is_finite() && s.baseline_latency_s > 0.0);
            let c = s.candidate_latency_s.unwrap();
            assert!(c.is_finite() && c > 0.0);
            min_l = min_l.min(s.baseline_latency_s);
            max_l = max_l.max(s.baseline_latency_s);
        }
        // The heavy-tailed draw must actually spread the distribution.
        assert!(max_l > min_l * 1.5, "tail spread: {min_l}..{max_l}");
    }

    #[test]
    fn drift_erodes_the_candidate_advantage() {
        let mut cfg = StagedFleetConfig::fast_test();
        cfg.pushes_per_hour = 2.0;
        cfg.drift_per_push = 0.02;
        cfg.noise_rel = 0.0;
        let mut fleet = staged_setup(cfg, 3);
        fleet.stage_to(1.0);
        let first = fleet.tick().unwrap();
        let early_gain = first.candidate_qps.unwrap() / first.baseline_qps - 1.0;
        let mut last = first;
        for _ in 0..200 {
            last = fleet.tick().unwrap();
        }
        let late_gain = last.candidate_qps.unwrap() / last.baseline_qps - 1.0;
        assert!(last.code_pushes_total > 10, "pushes should land");
        assert!(fleet.candidate_drift() < 0.9);
        assert!(
            late_gain < early_gain - 0.05,
            "gain should decay: early {early_gain:+.3}, late {late_gain:+.3}"
        );
    }

    #[test]
    fn chaos_hooks_default_to_bitwise_inert() {
        let cfg = StagedFleetConfig::fast_test();
        let mut plain = staged_setup(cfg, 13);
        let mut hooked = staged_setup(cfg, 13);
        hooked.set_domain(FailureDomain::new("skl18", "r0"));
        hooked.set_external_load(1.0);
        hooked.crash_candidates(0, f64::NEG_INFINITY);
        plain.stage_to(0.25);
        hooked.stage_to(0.25);
        for _ in 0..50 {
            let a = plain.tick().unwrap();
            let b = hooked.tick().unwrap();
            assert_eq!(a.baseline_qps.to_bits(), b.baseline_qps.to_bits());
            assert_eq!(
                a.candidate_qps.map(f64::to_bits),
                b.candidate_qps.map(f64::to_bits)
            );
            assert_eq!(a.load.to_bits(), b.load.to_bits());
        }
        assert_eq!(hooked.domain(), Some(&FailureDomain::new("skl18", "r0")));
        assert_eq!(plain.domain(), None);
    }

    #[test]
    fn brownout_load_and_push_waves_hit_the_fleet() {
        let mut cfg = StagedFleetConfig::fast_test();
        cfg.noise_rel = 0.0;
        cfg.pushes_per_hour = 0.0;
        let mut fleet = staged_setup(cfg, 17);
        fleet.stage_to(0.5);
        let healthy = fleet.tick().unwrap();
        fleet.set_external_load(0.7);
        let dimmed = fleet.tick().unwrap();
        assert!(
            dimmed.load < healthy.load,
            "brownout must cut the offered load"
        );
        // A push wave erodes the candidate's advantage immediately.
        let pushes_before = fleet.code_pushes();
        fleet.apply_push_wave(0.10);
        assert!((fleet.candidate_drift() - 0.9).abs() < 1e-12);
        assert_eq!(fleet.code_pushes(), pushes_before + 1);
        // Dark pool: zero load still evaluates without panicking.
        fleet.set_external_load(0.0);
        let dark = fleet.tick().unwrap();
        assert_eq!(dark.load, 0.0);
    }

    #[test]
    fn crashed_canaries_leave_the_serving_group() {
        let mut cfg = StagedFleetConfig::fast_test();
        cfg.noise_rel = 0.0;
        let mut fleet = staged_setup(cfg, 19);
        assert_eq!(fleet.stage_replicas(10), 10);
        let t = fleet.time_s();
        fleet.crash_candidates(4, t + 2.5 * cfg.tick_s);
        let during = fleet.tick().unwrap();
        assert_eq!(during.candidate_replicas, 6);
        assert_eq!(fleet.crashed_candidates(), 4);
        fleet.tick().unwrap();
        let after = fleet.tick().unwrap();
        assert_eq!(after.candidate_replicas, 10, "outage must lift");
        assert_eq!(fleet.crashed_candidates(), 0);
        // Crashing more replicas than are staged blanks the whole group.
        fleet.crash_candidates(50, fleet.time_s() + 1.5 * cfg.tick_s);
        let blank = fleet.tick().unwrap();
        assert_eq!(blank.candidate_replicas, 0);
        assert!(blank.candidate_qps.is_none());
        // stage_replicas clamps to the holdback like stage_to does.
        assert_eq!(fleet.stage_replicas(1_000), 99);
    }

    #[test]
    fn deploying_a_retuned_candidate_resets_drift() {
        let mut cfg = StagedFleetConfig::fast_test();
        cfg.pushes_per_hour = 2.0;
        cfg.drift_per_push = 0.05;
        let mut fleet = staged_setup(cfg, 5);
        fleet.stage_to(0.25);
        for _ in 0..100 {
            fleet.tick().unwrap();
        }
        assert!(fleet.candidate_drift() < 1.0);
        let retuned = fleet.baseline.config().clone();
        fleet.deploy_candidate(retuned, false).unwrap();
        assert_eq!(fleet.candidate_replicas(), 0);
        assert!((fleet.candidate_drift() - 1.0).abs() < 1e-12);
    }
}
