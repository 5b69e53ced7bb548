//! One simulated production server: a workload pinned to a platform under a
//! knob configuration, exposing throughput (MIPS/QPS), latency, and QoS.
//!
//! µSKU measures servers for minutes to hours per knob setting; simulating
//! every instruction of every sample would be intractable and pointless —
//! the microarchitecture does not change between samples, only load and
//! noise do. [`SimServer`] therefore evaluates the architecture engine once
//! per configuration — the whole load grid in one engine pass — and caches
//! a small load→performance curve; the cheap per-sample path interpolates
//! it. Code pushes invalidate the cache (the binary changed), reproducing
//! the measurement-vs-evolution tension of paper Sec. 4.

use crate::error::ClusterError;
use softsku_archsim::engine::{Engine, ServerConfig, WindowReport};
use softsku_telemetry::streams::{stream_seed, StreamFamily};
use softsku_workloads::loadgen::CodePush;
use softsku_workloads::queuesim::{simulate_queue, ServiceDist, TailLatency};
use softsku_workloads::request::mmc_wait_factor;
use softsku_workloads::WorkloadProfile;
use std::collections::HashMap;

/// Load grid the engine is evaluated on (fractions of the service's peak
/// utilization); samples interpolate between the grid points.
const LOAD_GRID: [f64; 3] = [0.5, 0.75, 1.0];

/// A simulated server.
///
/// Cloning is cheap relative to construction: the clone carries the
/// already-computed calibration (`insn_per_query`, `production_mips`) and
/// the warmed load-curve cache, so a replica does not re-run the engine for
/// any configuration the original has already evaluated. The A/B scheduler
/// relies on this to fork per-test environment replicas.
#[derive(Debug, Clone)]
pub struct SimServer {
    profile: WorkloadProfile,
    config: ServerConfig,
    seed: u64,
    window_insns: u64,
    /// Instructions of *server* work per query, derived so the production
    /// configuration at peak load serves the profile's peak QPS.
    insn_per_query: f64,
    /// MIPS of the production configuration at peak load (speedup baseline).
    production_mips: f64,
    cache: HashMap<u64, LoadCurve>,
    /// Cumulative multiplier from code pushes.
    push_cpi_scale: f64,
}

#[derive(Debug, Clone)]
struct LoadCurve {
    mips: [f64; 3],
    peak_report: WindowReport,
}

impl SimServer {
    /// Default simulation window per engine evaluation.
    pub const DEFAULT_WINDOW: u64 = 300_000;

    /// Creates a server for `profile` starting in configuration `config`.
    ///
    /// # Errors
    ///
    /// Propagates engine validation/evaluation errors.
    pub fn new(
        profile: WorkloadProfile,
        config: ServerConfig,
        seed: u64,
    ) -> Result<Self, ClusterError> {
        Self::with_window(profile, config, seed, Self::DEFAULT_WINDOW)
    }

    /// Creates a server with an explicit engine window size (tests use
    /// smaller windows for speed; figures use the default).
    ///
    /// # Errors
    ///
    /// Propagates engine validation/evaluation errors.
    pub fn with_window(
        profile: WorkloadProfile,
        config: ServerConfig,
        seed: u64,
        window_insns: u64,
    ) -> Result<Self, ClusterError> {
        let mut server = SimServer {
            profile,
            config,
            seed,
            window_insns,
            insn_per_query: 0.0,
            production_mips: 0.0,
            cache: HashMap::new(),
            push_cpi_scale: 1.0,
        };
        // Calibrate the on-server path length against the production
        // configuration at peak load (see DESIGN.md on Table 2 consistency).
        let prod = server.profile.production_config.clone();
        let prod_mips = server
            .engine(prod)?
            .run_window(server.window_insns, server.profile.peak_utilization)?
            .mips_total;
        server.production_mips = prod_mips;
        server.insn_per_query = prod_mips * 1e6 / server.profile.request.peak_qps;
        Ok(server)
    }

    /// The workload profile.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Current configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Reconfigures the server. Settings that require a reboot are rejected
    /// for services that cannot tolerate one on live traffic.
    ///
    /// # Errors
    ///
    /// [`ClusterError::RebootNotTolerated`] when `needs_reboot` and the
    /// profile forbids it; engine validation errors otherwise.
    pub fn reconfigure(
        &mut self,
        config: ServerConfig,
        needs_reboot: bool,
    ) -> Result<(), ClusterError> {
        if needs_reboot && !self.profile.constraints.tolerates_reboot {
            return Err(ClusterError::RebootNotTolerated {
                service: self.profile.service.name().to_string(),
            });
        }
        config.validate()?;
        self.config = config;
        Ok(())
    }

    /// Mean MIPS at `load` (fraction of peak utilization, 0–1 scale of the
    /// *service's* peak operating point).
    ///
    /// # Errors
    ///
    /// Engine errors on first evaluation of a configuration.
    pub fn mips(&mut self, load: f64) -> Result<f64, ClusterError> {
        let curve = self.curve_for(self.config.clone())?;
        Ok(interp(&curve.mips, load))
    }

    /// Queries per second at `load`.
    ///
    /// # Errors
    ///
    /// Engine errors on first evaluation of a configuration.
    pub fn qps(&mut self, load: f64) -> Result<f64, ClusterError> {
        Ok(self.mips(load)? * 1e6 / self.insn_per_query)
    }

    /// Average request latency at `load`, combining the Fig. 2 breakdown
    /// with an M/M/c queueing factor and the configuration's speed ratio.
    ///
    /// # Errors
    ///
    /// Engine errors on first evaluation of a configuration.
    pub fn latency(&mut self, load: f64) -> Result<f64, ClusterError> {
        let mips = self.mips(load)?;
        let speed = (mips / self.production_mips).max(1e-3);
        let base = self.profile.request.avg_latency_s;
        let servers = (self.config.active_cores * self.config.platform.smt).max(1);
        let rho = (load * self.profile.peak_utilization).clamp(0.01, 0.999);
        let rho_peak = self.profile.peak_utilization.clamp(0.01, 0.999);
        let wait_now = mmc_wait_factor(rho, servers);
        let wait_peak = mmc_wait_factor(rho_peak, servers).max(1e-9);
        let queue_scale = (wait_now / wait_peak).min(50.0);
        match self.profile.request.breakdown {
            Some(b) => {
                let running = base * b.running / speed;
                let queueing = base * (b.queue + b.scheduler) * queue_scale / speed;
                let io = base * b.io;
                Ok(running + queueing + io)
            }
            None => {
                // Cache tiers: concurrent paths; scale the whole latency by
                // speed with a mild queueing term.
                Ok(base / speed * (1.0 + 0.5 * (queue_scale - 1.0).max(0.0)))
            }
        }
    }

    /// Sojourn-time percentiles at `load` from the event-driven queue
    /// simulation: the request's running portion is the service time
    /// (heavy-tailed log-normal), the worker pool is the server set, and the
    /// configuration's speed ratio scales the work.
    ///
    /// # Errors
    ///
    /// Engine errors on first evaluation of a configuration;
    /// [`ClusterError::Workload`] if `load` is NaN (the queue simulation
    /// rejects the resulting utilization).
    pub fn latency_tail(&mut self, load: f64) -> Result<TailLatency, ClusterError> {
        let mips = self.mips(load)?;
        let speed = (mips / self.production_mips).max(1e-3);
        let base = self.profile.request.avg_latency_s;
        let running_frac = self.profile.request.breakdown.map_or(1.0, |b| b.running);
        let service_s = base * running_frac / speed;
        let servers = (self.config.active_cores * self.config.platform.smt).max(1);
        let rho = (load * self.profile.peak_utilization).clamp(0.05, 0.98);
        let blocked_s = base * (1.0 - running_frac);
        let tail = simulate_queue(
            servers,
            rho,
            ServiceDist::LogNormal {
                mean: service_s.max(1e-9),
                cv2: 2.0,
            },
            20_000,
            stream_seed(self.seed, StreamFamily::ServerQueue),
        )?;
        // Blocked time (downstream I/O) adds on top of the local sojourn.
        Ok(TailLatency {
            mean: tail.mean + blocked_s,
            p50: tail.p50 + blocked_s,
            p95: tail.p95 + blocked_s,
            p99: tail.p99 + blocked_s,
        })
    }

    /// Whether the p99 SLO holds at `load` (tail-based QoS; stricter than
    /// the mean-based [`SimServer::qos_ok`]). The p99 budget is the QoS
    /// ceiling times the tail allowance implied by the paper's
    /// latency-constrained operation (3× the mean SLO).
    ///
    /// # Errors
    ///
    /// As [`SimServer::latency_tail`].
    pub fn qos_tail_ok(&mut self, load: f64) -> Result<bool, ClusterError> {
        let tail = self.latency_tail(load)?;
        Ok(tail.p99 <= self.profile.request.qos_latency_s() * 3.0)
    }

    /// Whether the SLO holds at `load`.
    ///
    /// # Errors
    ///
    /// Engine errors on first evaluation of a configuration.
    pub fn qos_ok(&mut self, load: f64) -> Result<bool, ClusterError> {
        Ok(self.latency(load)? <= self.profile.request.qos_latency_s())
    }

    /// Full engine report at the peak-load grid point for the current
    /// configuration (counters, TMAM, bandwidth).
    ///
    /// # Errors
    ///
    /// Engine errors on first evaluation of a configuration.
    pub fn peak_report(&mut self) -> Result<WindowReport, ClusterError> {
        Ok(self.curve_for(self.config.clone())?.peak_report.clone())
    }

    /// Applies a code push: the binary changed, perturbing base CPI and
    /// invalidating every cached measurement.
    pub fn apply_code_push(&mut self, push: CodePush) {
        // Quantize to 0.5% steps: binaries differ discretely, and quantized
        // states let the evaluation cache be reused when a later push lands
        // near a previously-seen performance level.
        let raw = (self.push_cpi_scale * push.cpi_scale).clamp(0.8, 1.25);
        self.push_cpi_scale = (raw * 200.0).round() / 200.0;
        self.cache.clear();
    }

    /// Cumulative code-push CPI multiplier (diagnostic).
    pub fn push_cpi_scale(&self) -> f64 {
        self.push_cpi_scale
    }

    fn curve_for(&mut self, config: ServerConfig) -> Result<&LoadCurve, ClusterError> {
        let key = config_key(&config, self.push_cpi_scale);
        if !self.cache.contains_key(&key) {
            // One engine pass evaluates the whole load grid: the grid
            // points share a trace and differ only in their
            // context-switch flushes.
            let loads = LOAD_GRID.map(|g| g * self.profile.peak_utilization);
            let mut reports = self.engine(config)?.run_loads(self.window_insns, &loads)?;
            // `run_loads` returns one report per load, in order.
            let mips = std::array::from_fn(|i| reports[i].mips_total);
            let peak_report = reports.swap_remove(LOAD_GRID.len() - 1);
            self.cache.insert(key, LoadCurve { mips, peak_report });
        }
        Ok(&self.cache[&key])
    }

    /// The engine for `config` running this server's workload under the
    /// current code-push state.
    fn engine(&self, config: ServerConfig) -> Result<Engine, ClusterError> {
        let mut stream = self.profile.stream.clone();
        stream.base_cpi_scale *= self.push_cpi_scale;
        Ok(Engine::new(config, stream, self.seed)?)
    }
}

/// Interpolates the load curve (grid in fractions of peak).
fn interp(mips: &[f64; 3], load: f64) -> f64 {
    let l = load.clamp(0.0, 1.2);
    if l <= LOAD_GRID[0] {
        // Below the grid: throughput is load-proportional.
        return mips[0] * l / LOAD_GRID[0];
    }
    for i in 0..LOAD_GRID.len() - 1 {
        if l <= LOAD_GRID[i + 1] {
            let t = (l - LOAD_GRID[i]) / (LOAD_GRID[i + 1] - LOAD_GRID[i]);
            return mips[i] + t * (mips[i + 1] - mips[i]);
        }
    }
    // Slight overload: extrapolate the last segment.
    let t = (l - LOAD_GRID[1]) / (LOAD_GRID[2] - LOAD_GRID[1]);
    mips[1] + t * (mips[2] - mips[1])
}

/// Hashes a configuration (plus code-push state) into a cache key.
fn config_key(c: &ServerConfig, push_scale: f64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    mix(c.core_freq_ghz.to_bits());
    mix(c.uncore_freq_ghz.to_bits());
    mix(c.active_cores as u64);
    mix(c.llc_ways_enabled as u64);
    match c.cdp {
        None => mix(0),
        Some(p) => mix(1 | ((p.data_ways as u64) << 8) | ((p.code_ways as u64) << 16)),
    }
    let pf = &c.prefetchers;
    mix(pf.l2_stream as u64
        | (pf.l2_adjacent as u64) << 1
        | (pf.dcu as u64) << 2
        | (pf.dcu_ip as u64) << 3);
    mix(match c.thp {
        softsku_archsim::ThpMode::Madvise => 11,
        softsku_archsim::ThpMode::AlwaysOn => 12,
        softsku_archsim::ThpMode::NeverOn => 13,
    });
    mix(c.shp_pages as u64);
    mix(push_scale.to_bits());
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsku_archsim::platform::PlatformKind;
    use softsku_workloads::{Microservice, WorkloadError};

    const TEST_WINDOW: u64 = 60_000;

    fn web_server() -> SimServer {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let cfg = profile.production_config.clone();
        SimServer::with_window(profile, cfg, 7, TEST_WINDOW).unwrap()
    }

    #[test]
    fn production_peak_qps_matches_table2() {
        let mut s = web_server();
        let qps = s.qps(1.0).unwrap();
        let target = Microservice::Web.targets().table2.0;
        assert!(
            (qps - target).abs() / target < 0.02,
            "qps {qps} vs table2 {target}"
        );
    }

    #[test]
    fn mips_scales_with_load() {
        let mut s = web_server();
        let half = s.mips(0.5).unwrap();
        let full = s.mips(1.0).unwrap();
        assert!(half < full);
        assert!(half > 0.3 * full);
    }

    #[test]
    fn latency_rises_with_load_and_violates_qos_eventually() {
        let mut s = web_server();
        let l_low = s.latency(0.6).unwrap();
        let l_peak = s.latency(1.0).unwrap();
        let l_over = s.latency(1.15).unwrap();
        assert!(l_low < l_peak, "queueing must grow with load");
        assert!(l_peak < l_over);
        assert!(
            s.qos_ok(1.0).unwrap(),
            "peak operating point is QoS-feasible"
        );
    }

    #[test]
    fn faster_config_serves_lower_latency() {
        let mut s = web_server();
        let base = s.latency(1.0).unwrap();
        // Slow the cores down drastically.
        let mut slow_cfg = s.config().clone();
        slow_cfg.core_freq_ghz = 1.6;
        s.reconfigure(slow_cfg, false).unwrap();
        let slow = s.latency(1.0).unwrap();
        assert!(slow > base * 1.02, "slow {slow} vs base {base}");
    }

    #[test]
    fn reboot_gating() {
        let profile = Microservice::Cache2
            .profile(PlatformKind::Skylake18)
            .unwrap();
        let cfg = profile.production_config.clone();
        let mut s = SimServer::with_window(profile, cfg.clone(), 3, TEST_WINDOW).unwrap();
        let mut fewer_cores = cfg.clone();
        fewer_cores.active_cores = 8;
        assert!(matches!(
            s.reconfigure(fewer_cores.clone(), true),
            Err(ClusterError::RebootNotTolerated { .. })
        ));
        // Non-reboot change is fine.
        let mut freq = cfg;
        freq.core_freq_ghz = 1.8;
        s.reconfigure(freq, false).unwrap();
    }

    #[test]
    fn code_push_invalidates_and_perturbs() {
        let mut s = web_server();
        let before = s.mips(1.0).unwrap();
        s.apply_code_push(CodePush {
            cpi_scale: 1.05,
            miss_scale: 1.0,
        });
        let after = s.mips(1.0).unwrap();
        assert!(after < before, "5% CPI regression must reduce MIPS");
    }

    #[test]
    fn curve_is_cached() {
        let mut s = web_server();
        let _ = s.mips(1.0).unwrap();
        let t0 = std::time::Instant::now();
        for _ in 0..1000 {
            let _ = s.mips(0.8).unwrap();
        }
        assert!(
            t0.elapsed().as_millis() < 200,
            "cached samples must be cheap"
        );
    }

    #[test]
    fn tail_latency_is_ordered_and_binds_before_the_mean() {
        let mut s = web_server();
        let tail = s.latency_tail(1.0).unwrap();
        assert!(tail.p50 <= tail.p95 && tail.p95 <= tail.p99);
        assert!(tail.p99 > tail.mean);
        // The mean-based QoS holds at peak; slow the server drastically and
        // the tail check must fail at least as early as the mean check.
        let mut slow = s.config().clone();
        slow.core_freq_ghz = 1.6;
        slow.llc_ways_enabled = 2;
        s.reconfigure(slow, false).unwrap();
        if s.qos_ok(1.0).unwrap() {
            // Mean may survive; the tail is the stricter constraint.
            let _ = s.qos_tail_ok(1.0).unwrap();
        } else {
            assert!(!s.qos_tail_ok(1.0).unwrap());
        }
    }

    #[test]
    fn nan_load_is_a_typed_error_not_a_panic() {
        let mut s = web_server();
        assert!(matches!(
            s.latency_tail(f64::NAN),
            Err(ClusterError::Workload(WorkloadError::InvalidQueue { .. }))
        ));
        assert!(s.qos_tail_ok(f64::NAN).is_err());
        // The server stays usable after the rejected query.
        assert!(s.latency_tail(1.0).is_ok());
    }

    #[test]
    fn cache_tier_latency_model_works() {
        let profile = Microservice::Cache1
            .profile(PlatformKind::Skylake20)
            .unwrap();
        let cfg = profile.production_config.clone();
        let mut s = SimServer::with_window(profile, cfg, 5, TEST_WINDOW).unwrap();
        let lat = s.latency(1.0).unwrap();
        assert!(lat < 1e-3, "cache latency stays microsecond-scale: {lat}");
        // Starving the LLC must blow QoS (the paper's Fig. 10 exclusion).
        let mut starved = s.config().clone();
        starved.llc_ways_enabled = 2;
        s.reconfigure(starved, false).unwrap();
        assert!(!s.qos_ok(1.0).unwrap(), "2-way LLC must violate Cache QoS");
    }
}
