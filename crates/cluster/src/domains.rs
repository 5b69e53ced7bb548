//! Named failure domains and the deterministic chaos campaign layer.
//!
//! The paper's "@scale" story (Sec. 6) runs per-platform soft-SKU
//! campaigns across a heterogeneous fleet; at that scale the dominant
//! hazard is *correlated* failure — a bad code push or a shared-pool
//! brownout hits many services at once, which no single-service rollback
//! can absorb. This module models the fleet's failure-domain structure
//! ([`FleetTopology`]: platform pools à la Broadwell16/Skylake18, racks
//! within pools) and generates domain-correlated hazards against it
//! ([`ChaosSchedule`]): pool-wide load brownouts (some of which go fully
//! dark), code-push waves that erode several services' tuned gains at
//! once, canary-replica crashes, and stuck stage transitions.
//!
//! Determinism mirrors [`crate::hazards`]: every fault family draws from
//! its own registered [`StreamFamily`] stream, so the same
//! `(topology, config, seed)` triple always yields the same campaign and
//! disabling one family never perturbs another's timeline.

use crate::hazards::clamp_or_zero;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softsku_telemetry::streams::{StreamFamily, StreamRegistry};
use softsku_telemetry::LedgerKey;
use std::fmt;

/// One named failure domain: a rack inside a platform pool.
///
/// Pool-scoped faults (brownouts, push waves) hit every rack of the pool
/// at once — that is the correlation the coordinator must survive — while
/// rack-scoped faults (canary crashes, stage stalls) hit one rack.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FailureDomain {
    /// The platform pool (e.g. `bdw16`, `skl18`).
    pub pool: String,
    /// The rack within the pool (e.g. `r0`).
    pub rack: String,
}

impl FailureDomain {
    /// Builds a domain from its pool and rack names.
    pub fn new(pool: &str, rack: &str) -> Self {
        FailureDomain {
            pool: pool.to_string(),
            rack: rack.to_string(),
        }
    }
}

impl fmt::Display for FailureDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.pool, self.rack)
    }
}

/// The fleet's failure-domain structure: platform pools, racks within
/// pools, in declaration order (the canonical order every index refers
/// to).
#[derive(Debug, Clone, Default)]
pub struct FleetTopology {
    pools: Vec<(String, Vec<String>)>,
}

impl FleetTopology {
    /// An empty topology; add pools with [`FleetTopology::pool`].
    pub fn new() -> Self {
        FleetTopology::default()
    }

    /// Appends a pool with the given racks.
    #[must_use]
    pub fn pool(mut self, name: &str, racks: &[&str]) -> Self {
        self.pools.push((
            name.to_string(),
            racks.iter().map(|r| (*r).to_string()).collect(),
        ));
        self
    }

    /// The paper-shaped two-platform fleet: a Broadwell16 pool and a
    /// Skylake18 pool, two racks each.
    pub fn paper_pools() -> Self {
        FleetTopology::new()
            .pool("bdw16", &["r0", "r1"])
            .pool("skl18", &["r0", "r1"])
    }

    /// Number of pools.
    pub fn pool_count(&self) -> usize {
        self.pools.len()
    }

    /// The pool name at `index` (canonical order).
    pub fn pool_name(&self, index: usize) -> Option<&str> {
        self.pools.get(index).map(|(name, _)| name.as_str())
    }

    /// The canonical index of the named pool.
    pub fn pool_index(&self, name: &str) -> Option<usize> {
        self.pools.iter().position(|(n, _)| n == name)
    }

    /// Every domain (rack) in canonical order: pools in declaration order,
    /// racks in declaration order within each pool.
    pub fn domains(&self) -> Vec<FailureDomain> {
        let mut out = Vec::new();
        for (pool, racks) in &self.pools {
            for rack in racks {
                out.push(FailureDomain {
                    pool: pool.clone(),
                    rack: rack.clone(),
                });
            }
        }
        out
    }

    /// Number of domains (racks) across all pools.
    pub fn domain_count(&self) -> usize {
        self.pools.iter().map(|(_, racks)| racks.len()).sum()
    }

    /// The domain at canonical index `index`.
    pub fn domain(&self, index: usize) -> Option<FailureDomain> {
        let mut i = index;
        for (pool, racks) in &self.pools {
            if i < racks.len() {
                return Some(FailureDomain {
                    pool: pool.clone(),
                    rack: racks[i].clone(),
                });
            }
            i -= racks.len();
        }
        None
    }

    /// The canonical index of `domain`, if it exists in the topology.
    pub fn domain_index(&self, domain: &FailureDomain) -> Option<usize> {
        let mut i = 0;
        for (pool, racks) in &self.pools {
            for rack in racks {
                if *pool == domain.pool && *rack == domain.rack {
                    return Some(i);
                }
                i += 1;
            }
        }
        None
    }

    /// The pool index a canonical domain index belongs to.
    pub fn pool_of_domain(&self, index: usize) -> Option<usize> {
        let mut i = index;
        for (pool_idx, (_, racks)) in self.pools.iter().enumerate() {
            if i < racks.len() {
                return Some(pool_idx);
            }
            i -= racks.len();
        }
        None
    }
}

/// Chaos-campaign knobs. All rates default to zero ([`ChaosConfig::none`])
/// so a chaos-free coordinator behaves exactly like independent rollouts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Mean pool-wide load brownouts per simulated day across the fleet.
    pub brownout_rate_per_day: f64,
    /// Seconds each brownout lasts.
    pub brownout_duration_s: f64,
    /// Relative load lost while a brownout is active (0.3 → −30 %).
    pub brownout_depth: f64,
    /// Probability a brownout goes fully dark (the domain serves nothing
    /// and staged services must degrade to their holdback configs).
    pub blackout_prob: f64,
    /// Mean correlated code-push waves per simulated day.
    pub push_wave_rate_per_day: f64,
    /// Fraction of every affected service's tuned advantage one wave
    /// erodes.
    pub push_wave_erosion: f64,
    /// Mean canary-replica crashes per simulated day.
    pub canary_crash_rate_per_day: f64,
    /// Seconds crashed canary replicas stay down.
    pub canary_crash_outage_s: f64,
    /// Candidate replicas each crash takes down.
    pub canary_crash_replicas: usize,
    /// Mean stuck-stage-transition windows per simulated day.
    pub stall_rate_per_day: f64,
    /// Seconds each stall pins a domain's stage transitions.
    pub stall_duration_s: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self::none()
    }
}

impl ChaosConfig {
    /// No chaos at all.
    pub fn none() -> Self {
        ChaosConfig {
            brownout_rate_per_day: 0.0,
            brownout_duration_s: 0.0,
            brownout_depth: 0.0,
            blackout_prob: 0.0,
            push_wave_rate_per_day: 0.0,
            push_wave_erosion: 0.0,
            canary_crash_rate_per_day: 0.0,
            canary_crash_outage_s: 0.0,
            canary_crash_replicas: 0,
            stall_rate_per_day: 0.0,
            stall_duration_s: 0.0,
        }
    }

    /// A lively campaign exercising all four fault families: several
    /// brownouts and push waves a day (some brownouts going dark), crashed
    /// canary replicas, and stalled stage transitions.
    pub fn campaign() -> Self {
        ChaosConfig {
            brownout_rate_per_day: 4.0,
            brownout_duration_s: 3_600.0,
            brownout_depth: 0.3,
            blackout_prob: 0.25,
            push_wave_rate_per_day: 6.0,
            push_wave_erosion: 0.08,
            canary_crash_rate_per_day: 6.0,
            canary_crash_outage_s: 1_800.0,
            canary_crash_replicas: 2,
            stall_rate_per_day: 3.0,
            stall_duration_s: 2_400.0,
        }
    }

    /// Whether any fault family is enabled.
    pub fn is_active(&self) -> bool {
        self.brownout_rate_per_day > 0.0
            || self.push_wave_rate_per_day > 0.0
            || self.canary_crash_rate_per_day > 0.0
            || self.stall_rate_per_day > 0.0
    }

    /// Clamps every field into its sane range, NaN to the inert 0.
    fn validated(self) -> Self {
        ChaosConfig {
            brownout_rate_per_day: self.brownout_rate_per_day.max(0.0),
            brownout_duration_s: self.brownout_duration_s.max(0.0),
            brownout_depth: clamp_or_zero(self.brownout_depth, 1.0),
            blackout_prob: clamp_or_zero(self.blackout_prob, 1.0),
            push_wave_rate_per_day: self.push_wave_rate_per_day.max(0.0),
            push_wave_erosion: clamp_or_zero(self.push_wave_erosion, 1.0),
            canary_crash_rate_per_day: self.canary_crash_rate_per_day.max(0.0),
            canary_crash_outage_s: self.canary_crash_outage_s.max(0.0),
            canary_crash_replicas: self.canary_crash_replicas,
            stall_rate_per_day: self.stall_rate_per_day.max(0.0),
            stall_duration_s: self.stall_duration_s.max(0.0),
        }
    }
}

/// One injected chaos fault. Domain references are canonical topology
/// indices; resolve names through the [`FleetTopology`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosEvent {
    /// A pool-wide load brownout started (dark = the pool serves nothing).
    Brownout {
        /// Affected pool (canonical index).
        pool: usize,
        /// When it started.
        at_s: f64,
        /// When it lifts.
        until_s: f64,
        /// Relative load lost while active.
        depth: f64,
        /// Whether the pool went fully dark.
        dark: bool,
    },
    /// A correlated code-push wave landed on every service in a pool.
    PushWave {
        /// Affected pool (canonical index).
        pool: usize,
        /// When it landed.
        at_s: f64,
        /// Fraction of each affected service's tuned advantage eroded.
        erosion: f64,
    },
    /// Canary replicas crashed in one rack.
    CanaryCrash {
        /// Affected domain (canonical index).
        domain: usize,
        /// When the crash landed.
        at_s: f64,
        /// When the replicas come back.
        until_s: f64,
        /// Candidate replicas taken down.
        replicas: usize,
    },
    /// Stage transitions stalled in one rack.
    StageStall {
        /// Affected domain (canonical index).
        domain: usize,
        /// When the stall started.
        at_s: f64,
        /// When transitions unstick.
        until_s: f64,
    },
}

impl ChaosEvent {
    /// The ledger metric name of this fault family (`chaos.*`).
    pub fn metric(&self) -> &'static str {
        match self {
            ChaosEvent::Brownout { .. } => LedgerKey::ChaosBrownout.name(),
            ChaosEvent::PushWave { .. } => LedgerKey::ChaosPushWave.name(),
            ChaosEvent::CanaryCrash { .. } => LedgerKey::ChaosCanaryCrash.name(),
            ChaosEvent::StageStall { .. } => LedgerKey::ChaosStall.name(),
        }
    }

    /// When the fault was injected.
    pub fn at_s(&self) -> f64 {
        match *self {
            ChaosEvent::Brownout { at_s, .. }
            | ChaosEvent::PushWave { at_s, .. }
            | ChaosEvent::CanaryCrash { at_s, .. }
            | ChaosEvent::StageStall { at_s, .. } => at_s,
        }
    }

    /// The fault's headline magnitude, as recorded to the ledger: brownout
    /// depth, wave erosion, crashed replicas, or stall duration.
    pub fn magnitude(&self) -> f64 {
        match *self {
            ChaosEvent::Brownout { depth, dark, .. } => {
                if dark {
                    1.0
                } else {
                    depth
                }
            }
            ChaosEvent::PushWave { erosion, .. } => erosion,
            ChaosEvent::CanaryCrash { replicas, .. } => replicas as f64,
            ChaosEvent::StageStall { at_s, until_s, .. } => until_s - at_s,
        }
    }

    /// The affected scope rendered against `topology`: the pool name for
    /// pool-wide faults, `pool/rack` for rack faults.
    pub fn scope(&self, topology: &FleetTopology) -> String {
        match *self {
            ChaosEvent::Brownout { pool, .. } | ChaosEvent::PushWave { pool, .. } => {
                topology.pool_name(pool).unwrap_or("?").to_string()
            }
            ChaosEvent::CanaryCrash { domain, .. } | ChaosEvent::StageStall { domain, .. } => {
                match topology.domain(domain) {
                    Some(d) => d.to_string(),
                    None => "?".to_string(),
                }
            }
        }
    }
}

/// Deterministic domain-correlated chaos timeline for one topology.
///
/// # Example
///
/// ```
/// use softsku_cluster::domains::{ChaosConfig, ChaosSchedule, FleetTopology};
///
/// let topo = FleetTopology::paper_pools();
/// let a = ChaosSchedule::preview(&topo, ChaosConfig::campaign(), 7, 86_400.0, 600.0);
/// let b = ChaosSchedule::preview(&topo, ChaosConfig::campaign(), 7, 86_400.0, 600.0);
/// assert_eq!(a, b); // same (topology, config, seed) → same campaign
/// ```
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    topology: FleetTopology,
    config: ChaosConfig,
    brownout_rng: SmallRng,
    wave_rng: SmallRng,
    crash_rng: SmallRng,
    stall_rng: SmallRng,
    next_brownout_t: f64,
    next_wave_t: f64,
    next_crash_t: f64,
    next_stall_t: f64,
    /// Per-pool brownout end time, depth, and darkness.
    brownout_until: Vec<f64>,
    brownout_depth: Vec<f64>,
    brownout_dark: Vec<bool>,
    /// Per-domain stall end time.
    stall_until: Vec<f64>,
}

impl ChaosSchedule {
    /// Builds the campaign for `(topology, config, seed)`; each fault
    /// family derives an independent stream from `seed` through the
    /// registry.
    pub fn new(topology: &FleetTopology, config: ChaosConfig, seed: u64) -> Self {
        let config = config.validated();
        let mut streams = StreamRegistry::new(seed);
        let mut brownout_rng = SmallRng::seed_from_u64(streams.derive(StreamFamily::ChaosBrownout));
        let mut wave_rng = SmallRng::seed_from_u64(streams.derive(StreamFamily::ChaosPushWave));
        let mut crash_rng = SmallRng::seed_from_u64(streams.derive(StreamFamily::ChaosCanaryCrash));
        let mut stall_rng = SmallRng::seed_from_u64(streams.derive(StreamFamily::ChaosStall));
        let next_brownout_t = daily_gap(&mut brownout_rng, config.brownout_rate_per_day);
        let next_wave_t = daily_gap(&mut wave_rng, config.push_wave_rate_per_day);
        let next_crash_t = daily_gap(&mut crash_rng, config.canary_crash_rate_per_day);
        let next_stall_t = daily_gap(&mut stall_rng, config.stall_rate_per_day);
        let pools = topology.pool_count().max(1);
        let domains = topology.domain_count().max(1);
        ChaosSchedule {
            topology: topology.clone(),
            config,
            brownout_rng,
            wave_rng,
            crash_rng,
            stall_rng,
            next_brownout_t,
            next_wave_t,
            next_crash_t,
            next_stall_t,
            brownout_until: vec![f64::NEG_INFINITY; pools],
            brownout_depth: vec![0.0; pools],
            brownout_dark: vec![false; pools],
            stall_until: vec![f64::NEG_INFINITY; domains],
        }
    }

    /// The topology the campaign targets.
    pub fn topology(&self) -> &FleetTopology {
        &self.topology
    }

    /// The (validated) configuration driving this campaign.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Advances the campaign to time `t` and returns every fault injected
    /// strictly up to and including `t`, in a canonical order (brownouts,
    /// waves, crashes, stalls; each family in arrival order). Must be
    /// called with nondecreasing `t`.
    pub fn tick(&mut self, t: f64) -> Vec<ChaosEvent> {
        let mut events = Vec::new();
        let pools = self.topology.pool_count();
        let domains = self.topology.domain_count();

        while self.next_brownout_t <= t && pools > 0 {
            let pool = self.brownout_rng.gen_range(0..pools);
            let dark = self.brownout_rng.gen::<f64>() < self.config.blackout_prob;
            let until = self.next_brownout_t + self.config.brownout_duration_s;
            if until > self.brownout_until[pool] {
                self.brownout_until[pool] = until;
                self.brownout_depth[pool] = self.config.brownout_depth;
                self.brownout_dark[pool] = dark;
            }
            events.push(ChaosEvent::Brownout {
                pool,
                at_s: self.next_brownout_t,
                until_s: until,
                depth: self.config.brownout_depth,
                dark,
            });
            self.next_brownout_t +=
                daily_gap(&mut self.brownout_rng, self.config.brownout_rate_per_day);
        }

        while self.next_wave_t <= t && pools > 0 {
            let pool = self.wave_rng.gen_range(0..pools);
            events.push(ChaosEvent::PushWave {
                pool,
                at_s: self.next_wave_t,
                erosion: self.config.push_wave_erosion,
            });
            self.next_wave_t += daily_gap(&mut self.wave_rng, self.config.push_wave_rate_per_day);
        }

        while self.next_crash_t <= t && domains > 0 {
            let domain = self.crash_rng.gen_range(0..domains);
            let until = self.next_crash_t + self.config.canary_crash_outage_s;
            events.push(ChaosEvent::CanaryCrash {
                domain,
                at_s: self.next_crash_t,
                until_s: until,
                replicas: self.config.canary_crash_replicas,
            });
            self.next_crash_t +=
                daily_gap(&mut self.crash_rng, self.config.canary_crash_rate_per_day);
        }

        while self.next_stall_t <= t && domains > 0 {
            let domain = self.stall_rng.gen_range(0..domains);
            let until = self.next_stall_t + self.config.stall_duration_s;
            if until > self.stall_until[domain] {
                self.stall_until[domain] = until;
            }
            events.push(ChaosEvent::StageStall {
                domain,
                at_s: self.next_stall_t,
                until_s: until,
            });
            self.next_stall_t += daily_gap(&mut self.stall_rng, self.config.stall_rate_per_day);
        }

        events
    }

    /// The load multiplier a pool serves under at time `t`: 1.0 when
    /// healthy, `1 − depth` while browned out, 0.0 while dark.
    pub fn load_multiplier(&self, pool: usize, t: f64) -> f64 {
        match self.brownout_until.get(pool) {
            Some(&until) if t < until => {
                if self.brownout_dark[pool] {
                    0.0
                } else {
                    1.0 - self.brownout_depth[pool]
                }
            }
            _ => 1.0,
        }
    }

    /// Whether the pool is fully dark at time `t`.
    pub fn pool_dark(&self, pool: usize, t: f64) -> bool {
        matches!(self.brownout_until.get(pool), Some(&until) if t < until)
            && self.brownout_dark[pool]
    }

    /// Whether stage transitions are stalled in `domain` at time `t`.
    pub fn stalled(&self, domain: usize, t: f64) -> bool {
        matches!(self.stall_until.get(domain), Some(&until) if t < until)
    }

    /// Replays the campaign for `(topology, config, seed)` over
    /// `horizon_s` at `spacing_s` tick spacing. Pure function of its
    /// arguments — the determinism tests compare these timelines
    /// byte-for-byte.
    pub fn preview(
        topology: &FleetTopology,
        config: ChaosConfig,
        seed: u64,
        horizon_s: f64,
        spacing_s: f64,
    ) -> Vec<ChaosEvent> {
        let spacing = spacing_s.max(1e-3);
        let mut schedule = ChaosSchedule::new(topology, config, seed);
        let mut events = Vec::new();
        let mut t = spacing;
        while t <= horizon_s {
            events.extend(schedule.tick(t));
            t += spacing;
        }
        events
    }
}

/// Exponential inter-arrival gap for a Poisson process at `rate_per_day`,
/// or infinity when the process is disabled.
fn daily_gap(rng: &mut SmallRng, rate_per_day: f64) -> f64 {
    if rate_per_day <= 0.0 {
        return f64::INFINITY;
    }
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() * 86_400.0 / rate_per_day
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> FleetTopology {
        FleetTopology::paper_pools()
    }

    #[test]
    fn topology_orders_domains_canonically() {
        let t = topo();
        assert_eq!(t.pool_count(), 2);
        assert_eq!(t.domain_count(), 4);
        let domains = t.domains();
        assert_eq!(domains[0], FailureDomain::new("bdw16", "r0"));
        assert_eq!(domains[3], FailureDomain::new("skl18", "r1"));
        for (i, d) in domains.iter().enumerate() {
            assert_eq!(t.domain_index(d), Some(i));
            assert_eq!(t.domain(i).as_ref(), Some(d));
        }
        assert_eq!(t.pool_of_domain(0), Some(0));
        assert_eq!(t.pool_of_domain(2), Some(1));
        assert_eq!(t.pool_index("skl18"), Some(1));
        assert_eq!(t.pool_index("missing"), None);
        assert_eq!(domains[2].to_string(), "skl18/r0");
    }

    #[test]
    fn none_is_inert() {
        let mut s = ChaosSchedule::new(&topo(), ChaosConfig::none(), 3);
        for i in 1..=2_000 {
            assert!(s.tick(i as f64 * 600.0).is_empty());
        }
        for pool in 0..2 {
            assert_eq!(s.load_multiplier(pool, 1e6), 1.0);
            assert!(!s.pool_dark(pool, 1e6));
        }
        for domain in 0..4 {
            assert!(!s.stalled(domain, 1e6));
        }
        assert!(!ChaosConfig::none().is_active());
        assert!(ChaosConfig::campaign().is_active());
    }

    #[test]
    fn campaign_injects_all_four_families_at_roughly_configured_rates() {
        let events =
            ChaosSchedule::preview(&topo(), ChaosConfig::campaign(), 9, 30.0 * 86_400.0, 600.0);
        let count = |f: fn(&ChaosEvent) -> bool| events.iter().filter(|e| f(e)).count() as f64;
        let brownouts = count(|e| matches!(e, ChaosEvent::Brownout { .. }));
        let waves = count(|e| matches!(e, ChaosEvent::PushWave { .. }));
        let crashes = count(|e| matches!(e, ChaosEvent::CanaryCrash { .. }));
        let stalls = count(|e| matches!(e, ChaosEvent::StageStall { .. }));
        // 30 days at the campaign rates: 120 brownouts, 180 waves/crashes,
        // 90 stalls in expectation; accept a generous band.
        assert!((70.0..190.0).contains(&brownouts), "brownouts {brownouts}");
        assert!((110.0..270.0).contains(&waves), "waves {waves}");
        assert!((110.0..270.0).contains(&crashes), "crashes {crashes}");
        assert!((45.0..160.0).contains(&stalls), "stalls {stalls}");
        // Some but not all brownouts go dark at blackout_prob = 0.25.
        let dark = count(|e| matches!(e, ChaosEvent::Brownout { dark: true, .. }));
        assert!(dark > 0.0 && dark < brownouts, "dark {dark} of {brownouts}");
    }

    #[test]
    fn brownouts_lower_the_pool_load_then_clear() {
        let cfg = ChaosConfig {
            brownout_rate_per_day: 8.0,
            brownout_duration_s: 3_600.0,
            brownout_depth: 0.4,
            ..ChaosConfig::none()
        };
        let mut s = ChaosSchedule::new(&topo(), cfg, 5);
        let mut t = 0.0;
        loop {
            t += 600.0;
            let events = s.tick(t);
            if let Some(ChaosEvent::Brownout { pool, until_s, .. }) = events.first() {
                assert!((s.load_multiplier(*pool, t) - 0.6).abs() < 1e-12);
                assert_eq!(s.load_multiplier(*pool, until_s + 1.0), 1.0);
                break;
            }
            assert!(t < 30.0 * 86_400.0, "a brownout must arrive eventually");
        }
    }

    #[test]
    fn nan_depths_and_probabilities_are_inert() {
        let cfg = ChaosConfig {
            brownout_rate_per_day: 8.0,
            brownout_duration_s: 3_600.0,
            brownout_depth: f64::NAN,
            blackout_prob: f64::NAN,
            push_wave_rate_per_day: 8.0,
            push_wave_erosion: f64::NAN,
            ..ChaosConfig::none()
        };
        let mut s = ChaosSchedule::new(&topo(), cfg, 5);
        let mut events = 0;
        for i in 1..=1_000 {
            let t = i as f64 * 600.0;
            for e in s.tick(t) {
                assert_eq!(e.magnitude(), 0.0, "{e:?}");
                events += 1;
            }
            for pool in 0..2 {
                assert_eq!(s.load_multiplier(pool, t), 1.0);
                assert!(!s.pool_dark(pool, t));
            }
        }
        assert!(events > 0, "the rates still fire");
    }

    #[test]
    fn stalls_pin_exactly_their_domain() {
        let cfg = ChaosConfig {
            stall_rate_per_day: 8.0,
            stall_duration_s: 3_600.0,
            ..ChaosConfig::none()
        };
        let mut s = ChaosSchedule::new(&topo(), cfg, 11);
        let mut t = 0.0;
        loop {
            t += 600.0;
            let events = s.tick(t);
            if let Some(ChaosEvent::StageStall {
                domain, until_s, ..
            }) = events.first()
            {
                assert!(s.stalled(*domain, t));
                assert!(!s.stalled(*domain, until_s + 1.0));
                break;
            }
            assert!(t < 30.0 * 86_400.0, "a stall must arrive eventually");
        }
    }

    #[test]
    fn preview_is_deterministic_and_family_independent() {
        let cfg = ChaosConfig::campaign();
        let a = ChaosSchedule::preview(&topo(), cfg, 21, 7.0 * 86_400.0, 600.0);
        let b = ChaosSchedule::preview(&topo(), cfg, 21, 7.0 * 86_400.0, 600.0);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "a week of campaign chaos is not silent");

        // Disabling stalls must not move the push-wave timeline (stream
        // independence across fault families).
        let no_stalls = ChaosConfig {
            stall_rate_per_day: 0.0,
            ..cfg
        };
        let waves = |events: &[ChaosEvent]| {
            events
                .iter()
                .filter(|e| matches!(e, ChaosEvent::PushWave { .. }))
                .copied()
                .collect::<Vec<_>>()
        };
        let c = ChaosSchedule::preview(&topo(), no_stalls, 21, 7.0 * 86_400.0, 600.0);
        assert_eq!(waves(&a), waves(&c));
    }

    #[test]
    fn event_accessors_describe_the_fault() {
        let t = topo();
        let e = ChaosEvent::Brownout {
            pool: 1,
            at_s: 10.0,
            until_s: 20.0,
            depth: 0.3,
            dark: false,
        };
        assert_eq!(e.metric(), LedgerKey::ChaosBrownout.name());
        assert_eq!(e.at_s(), 10.0);
        assert!((e.magnitude() - 0.3).abs() < 1e-12);
        assert_eq!(e.scope(&t), "skl18");
        let e = ChaosEvent::CanaryCrash {
            domain: 3,
            at_s: 5.0,
            until_s: 65.0,
            replicas: 2,
        };
        assert_eq!(e.metric(), LedgerKey::ChaosCanaryCrash.name());
        assert_eq!(e.scope(&t), "skl18/r1");
        assert_eq!(e.magnitude(), 2.0);
        let e = ChaosEvent::StageStall {
            domain: 0,
            at_s: 5.0,
            until_s: 65.0,
        };
        assert_eq!(e.metric(), LedgerKey::ChaosStall.name());
        assert_eq!(e.magnitude(), 60.0);
    }
}
