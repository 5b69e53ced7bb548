//! The three workloads, each run inside a fresh child process so that the
//! engine's process-wide memos start empty. A child prints one
//! [`Record`]; the benchmark process aggregates, checks and reports.

use crate::measure::{now, peak_rss_mb, secs, timed, Digest, Record};
use softsku_cluster::EnvConfig;
use softsku_knobs::Knob;
use softsku_mesh::{colocation_mix, MeshCanary, MeshCanaryConfig, MeshCanaryReport, MeshConfig};
use softsku_rollout::{demo_campaign, CoordinatorConfig, CoordinatorReport, FleetCoordinator};
use softsku_telemetry::trace::TraceSink;
use softsku_telemetry::{IdentitySeed, LedgerKey, SeriesKey, TieredOds};
use softsku_workloads::Microservice;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use usku::scheduler::{FleetOutcome, FleetTuner};
use usku::AbTestConfig;

type BoxError = Box<dyn std::error::Error>;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TuneCold,
    RolloutChaos,
    MeshCanary,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::TuneCold,
        Workload::RolloutChaos,
        Workload::MeshCanary,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TuneCold => "tune_cold",
            Workload::RolloutChaos => "rollout_chaos",
            Workload::MeshCanary => "mesh_canary",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Knobs `tune_cold` sweeps: THP, SHP and frequency share structure
/// snapshots, CDP forces new pre-fills, so both engine memos see hits and
/// misses.
pub const TUNE_KNOBS: [Knob; 4] = [Knob::CoreFrequency, Knob::Thp, Knob::Shp, Knob::Cdp];

/// Worker threads for every workload: two, or fewer on a smaller host.
/// Outcomes are bit-identical for any worker count.
pub fn workers() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

fn pool() -> NonZeroUsize {
    NonZeroUsize::new(workers()).unwrap_or(NonZeroUsize::MIN)
}

/// Set when `tune_cold` starts; it is only valid as the first thing a
/// process does.
static STARTED: AtomicBool = AtomicBool::new(false);

fn first_in_process() -> bool {
    !STARTED.swap(true, Ordering::SeqCst)
}

fn tuner(seed: u64, knobs: Vec<Knob>) -> FleetTuner {
    FleetTuner::new(AbTestConfig::fast_test(), EnvConfig::fast_test(), seed)
        .with_knobs(knobs)
        .with_workers(pool())
}

/// Digest of a fleet tuning campaign: per-service winners, every test's
/// verdict label, gain and p-value bits. `ServiceTuning::wall_s` is host
/// time and is left out.
fn tune_digest(outcome: &FleetOutcome) -> String {
    let mut d = Digest::new();
    for s in &outcome.services {
        d.str(s.service.name())
            .str(&s.platform.to_string())
            .f64(s.sim_time_s);
        let map = &s.outcome.map;
        for knob in map.knobs() {
            d.str(knob.name());
            for r in map.results(knob) {
                d.str(&r.setting.to_string())
                    .str(r.verdict.label())
                    .opt_f64(r.verdict.gain())
                    .opt_f64(r.relative_diff())
                    .opt_f64(r.welch.as_ref().map(|w| w.p_value))
                    .u64(r.samples as u64)
                    .u64(r.attempts as u64)
                    .u64(r.rejected_outliers as u64);
            }
        }
        for (knob, setting, gain) in &s.outcome.selected {
            d.str(knob.name()).str(&setting.to_string()).f64(*gain);
        }
        d.str(&format!("{:?}", s.outcome.best_config));
    }
    d.hex()
}

/// Seed of unit `k` of a run at `base`: unit 0 runs the base seed itself,
/// further units run seeds derived from it, so one run averages over
/// several inputs whose cost differs.
pub fn unit_seed(base: u64, k: usize) -> u64 {
    if k == 0 {
        return base;
    }
    IdentitySeed::new(base)
        .field("perfbench.unit")
        .field(&k.to_string())
        .finish()
}

/// Discarded set-up run for `tune_cold`: a one-service, one-knob cold
/// campaign in its own process, so the timed child starts on a paged-in
/// binary and a busy CPU without sharing any memo with it.
pub fn tune_warmup(seed: u64) -> Result<Record, BoxError> {
    let target = (
        Microservice::Web,
        Microservice::Web.supported_platforms()[0],
    );
    tuner(seed, vec![Knob::Thp]).tune(&[target])?;
    Ok(Record::default())
}

/// `tune_cold`: the seven-service fleet campaign of unit `slot`, cold, then
/// once more warm in the same process. The warm repeat is evidence that
/// the first run was cold, and its digest (memo hits only) is the
/// reference the cold campaign must reproduce.
pub fn tune_cold(
    base: u64,
    slot: usize,
    traced: bool,
    t_main: Instant,
) -> Result<Record, BoxError> {
    let mut rec = Record::default();
    rec.put1("fresh", u8::from(first_in_process()));
    let targets = FleetTuner::default_targets();
    let tuner = tuner(unit_seed(base, slot), TUNE_KNOBS.to_vec());
    rec.put1("setup_s", secs(t_main));

    let (outcome, wall) = timed(|| {
        if traced {
            tuner.tune_traced(&targets, &mut TraceSink::new())
        } else {
            tuner.tune(&targets)
        }
    });
    let outcome = outcome?;
    rec.put1("unit_index", slot);
    rec.put1("unit_wall_s", wall);
    rec.put1("unit_ops", outcome.test_count());
    rec.put1("unit_digest", tune_digest(&outcome));
    rec.put1("unit_traced", u8::from(traced));
    rec.put1("rss_mb", peak_rss_mb());

    for s in &outcome.services {
        let entity = format!("{}@{}", s.service, s.platform);
        let key = SeriesKey::keyed(&entity, LedgerKey::TuneWallS);
        let walls = outcome.ods.range(&key, f64::NEG_INFINITY, f64::INFINITY)?;
        rec.put("test_wall_s", walls.iter().map(|&(_, v)| v));
        let map = &s.outcome.map;
        for knob in map.knobs() {
            rec.put("test_samples", map.results(knob).iter().map(|r| r.samples));
            rec.put(
                "test_attempts",
                map.results(knob).iter().map(|r| r.attempts),
            );
        }
    }

    let (warm, warm_wall) = timed(|| tuner.tune(&targets));
    rec.put1("ref_index", slot);
    rec.put1("ref_digest", tune_digest(&warm?));
    rec.put1("ref_wall_s", warm_wall);
    Ok(rec)
}

/// Digest of a coordinator report: counts, MTTR and per-service states.
fn rollout_digest(r: &CoordinatorReport) -> String {
    let mut d = Digest::new();
    d.u64(r.ticks).f64(r.sim_time_s);
    for f in r.faults {
        d.u64(f);
    }
    d.u64(r.breaker_trips)
        .u64(r.rollbacks)
        .u64(r.quarantines)
        .u64(r.demotions)
        .u64(r.max_blast as u64)
        .u64(r.recoveries)
        .f64(r.mttr_s);
    for s in &r.services {
        d.str(&s.name)
            .str(&s.domain)
            .str(&format!("{:?}", s.phase))
            .u64(s.candidate_replicas as u64)
            .u64(s.replicas as u64)
            .u64(s.rollbacks)
            .u64(s.retries)
            .u64(s.strikes as u64)
            .u64(s.promoted_stages as u64);
    }
    d.hex()
}

/// One `demo_campaign` rollout; returns the report and its staged
/// service-ticks (the workload's operation count).
pub fn chaos_campaign(seed: u64, traced: bool) -> Result<(CoordinatorReport, u64), BoxError> {
    let (topology, chaos, plans) = demo_campaign(seed)?;
    let services = plans.len() as u64;
    let coordinator = FleetCoordinator::new(CoordinatorConfig::fast_test()).with_workers(pool());
    let report = if traced {
        coordinator.run_traced(&topology, chaos, plans, seed, &mut TraceSink::new())?
    } else {
        coordinator.run(&topology, chaos, plans, seed)?
    };
    let ops = report.ticks * services;
    Ok((report, ops))
}

/// Campaign seeds each `rollout_chaos` child covers. Per-tick cost
/// differs by about ten percent between seeds, so a run averages over
/// `SEEDS_PER_CHILD` × children of them.
const SEEDS_PER_CHILD: usize = 2;

/// `rollout_chaos`: each of this child's campaigns once cold as set-up,
/// then the same seeded campaigns repeated warm, in turn, for `seconds`.
/// In a traced run every second round runs with the coordinator's trace
/// sink on.
pub fn rollout_chaos(
    base: u64,
    slot: usize,
    seconds: f64,
    traced: bool,
    t_main: Instant,
) -> Result<Record, BoxError> {
    let mut rec = Record::default();
    let indices: Vec<usize> = (slot * SEEDS_PER_CHILD..(slot + 1) * SEEDS_PER_CHILD).collect();
    for &k in &indices {
        let (setup, wall) = timed(|| chaos_campaign(unit_seed(base, k), false));
        let (report, _) = setup?;
        rec.put1("ref_index", k);
        rec.put1("ref_digest", rollout_digest(&report));
        rec.put1("ref_wall_s", wall);
    }
    rec.put1("setup_s", secs(t_main));

    let t0 = now();
    let mut round = 0usize;
    while round == 0 || secs(t0) < seconds {
        let trace_this = traced && round % 2 == 1;
        for &k in &indices {
            let (unit, wall) = timed(|| chaos_campaign(unit_seed(base, k), trace_this));
            let (digest, ops) = match unit {
                Ok((report, ops)) => (rollout_digest(&report), ops),
                Err(e) => (format!("error:{e}").replace(' ', "_"), 0),
            };
            rec.put1("unit_index", k);
            rec.put1("unit_wall_s", wall);
            rec.put1("unit_ops", ops);
            rec.put1("unit_digest", digest);
            rec.put1("unit_traced", u8::from(trace_this));
        }
        round += 1;
    }
    rec.put1("timed_s", secs(t0));
    rec.put1("rss_mb", peak_rss_mb());
    Ok(rec)
}

/// The canary scenario: `colocation_mix` at 900 requests/s.
pub fn mesh_config(seed: u64) -> MeshConfig {
    MeshConfig {
        requests: 600,
        arrival_rate_hz: 900.0,
        horizon_s: f64::INFINITY,
        window_insns: 60_000,
        service_cv2: 2.0,
        regress_frac: 0.0,
        regress_scale: 1.0,
        seed,
    }
}

/// The same scenario with 20 % of requests served 4× slower at every tier.
fn regressed_config(seed: u64) -> MeshConfig {
    MeshConfig {
        regress_frac: 0.2,
        regress_scale: 4.0,
        ..mesh_config(seed)
    }
}

/// Digest of a canary verdict: promoted/blocked, the block time and the
/// p99 bits of the baseline, tuned and canary simulations.
fn canary_digest(r: &MeshCanaryReport) -> String {
    let mut d = Digest::new();
    d.u64(u64::from(r.promoted))
        .opt_f64(r.blocked_at_s)
        .f64(r.baseline.p99_s)
        .f64(r.tuned.report.p99_s)
        .f64(r.canary.p99_s)
        .f64(r.threshold_s)
        .u64(r.alerts)
        .u64(u64::from(r.max_sustained));
    for label in r.tuned.labels() {
        d.str(label);
    }
    d.hex()
}

/// Root requests one canary simulated: baseline, every tuner assignment
/// and the canary run.
fn canary_requests(r: &MeshCanaryReport) -> u64 {
    r.baseline.injected + r.tuned.evaluated as u64 * r.tuned.report.injected + r.canary.injected
}

fn run_canary(config: MeshConfig) -> Result<MeshCanaryReport, BoxError> {
    let graph = colocation_mix()?;
    let canary = MeshCanary::new(&graph, config, MeshCanaryConfig::default())?;
    let mut ods = TieredOds::unbounded();
    let mut sink = TraceSink::new();
    Ok(canary.run(workers(), &mut ods, &mut sink)?)
}

/// A (clean, regressed) canary pair: the pair digest, the root requests
/// simulated, and each canary's wall. A promoted regression is a failed
/// pair.
fn canary_pair(seed: u64) -> Result<(String, u64, [f64; 2]), BoxError> {
    let (clean, clean_wall) = timed(|| run_canary(mesh_config(seed)));
    let (regressed, regressed_wall) = timed(|| run_canary(regressed_config(seed)));
    let (clean, regressed) = (clean?, regressed?);
    if regressed.promoted {
        return Err("the regressed canary was promoted".into());
    }
    let digest = Digest::new()
        .str(&canary_digest(&clean))
        .str(&canary_digest(&regressed))
        .hex();
    let ops = canary_requests(&clean) + canary_requests(&regressed);
    Ok((digest, ops, [clean_wall, regressed_wall]))
}

/// `mesh_canary`: one cold canary pair calibrates every candidate SKU as
/// set-up; the timed phase repeats the pair warm. Per-request cost barely
/// depends on the seed, so a run uses the base seed only. The canary always
/// records its request trace, since its exemplars point into it; a traced
/// run only adds the benchmark's own per-canary spans.
pub fn mesh_canary(
    base: u64,
    seconds: f64,
    traced: bool,
    t_main: Instant,
) -> Result<Record, BoxError> {
    let mut rec = Record::default();
    let (setup, setup_wall) = timed(|| canary_pair(base));
    let (digest, _, _) = setup?;
    rec.put1("ref_index", 0);
    rec.put1("ref_digest", digest);
    rec.put1("ref_wall_s", setup_wall);
    rec.put1("setup_s", secs(t_main));

    let t0 = now();
    let mut i = 0usize;
    while i == 0 || secs(t0) < seconds {
        let (pair, wall) = timed(|| canary_pair(base));
        let (digest, ops, walls) = match pair {
            Ok(p) => p,
            Err(e) => (format!("error:{e}").replace(' ', "_"), 0, [wall / 2.0; 2]),
        };
        rec.put1("unit_index", 0);
        rec.put1("unit_wall_s", wall);
        rec.put("canary_wall_s", walls);
        rec.put1("unit_ops", ops);
        rec.put1("unit_digest", digest);
        rec.put1("unit_traced", u8::from(traced && i % 2 == 1));
        i += 1;
    }
    rec.put1("timed_s", secs(t0));
    rec.put1("rss_mb", peak_rss_mb());
    Ok(rec)
}
