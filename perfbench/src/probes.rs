//! Per-layer probes for the traced run. Each probe times calls into one
//! layer's public API from here, on the workload's own services, window
//! and seed, and checks what it replays: memo hits must equal their cold
//! evaluation, and cache, TLB and `RankList` replays must repeat their
//! hit/miss counts exactly.

use crate::measure::{median, now, secs, tail, timed};
use crate::workloads::{mesh_config, workers, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use softsku_archsim::cache::SetAssocCache;
use softsku_archsim::ranklist::RankList;
use softsku_archsim::tlb::{TlbHierarchy, TlbOutcome};
use softsku_archsim::trace::{EventBatch, HugePageMix, TraceGenerator};
use softsku_archsim::{Engine, ServerConfig, StreamSpec};
use softsku_cluster::{AbEnvironment, EnvConfig, StagedFleet, StagedFleetConfig};
use softsku_knobs::{Knob, KnobSpace};
use softsku_mesh::{
    colocation_mix, MeshCanary, MeshCanaryConfig, MeshObjective, MeshSim, MeshTuner,
};
use softsku_rollout::demo_campaign;
use softsku_telemetry::stats::t_quantile;
use softsku_telemetry::trace::{AttrValue, TraceSink};
use softsku_telemetry::{
    welch_test, IdentitySeed, LedgerKey, QuantileSketch, SeriesKey, SloEvaluator, SloSpec, Summary,
    TieredOds,
};
use softsku_workloads::{Microservice, PlatformKind};
use std::collections::BTreeMap;
use std::hint::black_box;
use usku::metric::PerformanceMetric;
use usku::scheduler::{plan_independent, run_replicas, FleetTuner, ReplicaOutput, TestUnit};
use usku::{AbTestConfig, AbTester};

type BoxError = Box<dyn std::error::Error>;

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// Every per-layer metric the traced run reports, with its unit. The
/// `per_layer` list of `BENCHMARK.json` mirrors this table.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("archsim.engine.cold_window_ms.p50", "ms"),
    ("archsim.engine.cold_window_ms.tail", "ms"),
    ("archsim.engine.cold_window.count", "count"),
    ("archsim.engine.minsns_per_s", "Minsn/s"),
    ("archsim.engine.struct_warm_window_ms", "ms"),
    ("archsim.engine.memo_hit_us", "us"),
    ("archsim.trace.fill_batch_ns_per_event", "ns"),
    ("archsim.reuse.sample_ns", "ns"),
    ("archsim.ranklist.op_ns", "ns"),
    ("archsim.cache.access_ns", "ns"),
    ("archsim.tlb.access_ns", "ns"),
    ("cluster.env.new_ms", "ms"),
    ("cluster.env.fork_us", "us"),
    ("cluster.fleet.tick_us", "us"),
    ("core.abtest.run_ms.p50", "ms"),
    ("core.abtest.run_ms.tail", "ms"),
    ("core.abtest.count", "count"),
    ("core.abtest.samples_per_test", "count"),
    ("core.abtest.sample_yield", "fraction"),
    ("core.scheduler.worker_busy_frac", "fraction"),
    ("telemetry.stats.t_quantile_ns", "ns"),
    ("telemetry.stats.welch_us", "us"),
    ("telemetry.slo.eval_ns", "ns"),
    ("telemetry.sketch.push_ns", "ns"),
    ("telemetry.trace.span_ns", "ns"),
    ("telemetry.tiered.append_ns", "ns"),
    ("telemetry.trace.overhead_frac", "fraction"),
    ("rollout.coordinator.campaign_ms.p50", "ms"),
    ("rollout.coordinator.campaign_ms.tail", "ms"),
    ("mesh.sim.run_ms", "ms"),
    ("mesh.sim.requests_per_s", "1/s"),
    ("mesh.tune.tune_ms", "ms"),
    ("mesh.canary.gate_ms", "ms"),
    ("mesh.sim.calibration_ms", "ms"),
    ("bench.timed_cover_frac", "fraction"),
    ("bench.median_unit_over_cold_window", "ratio"),
];

/// The inputs a workload hands the engine: its services, window and
/// staged-fleet shape.
struct Inputs {
    services: Vec<(Microservice, PlatformKind)>,
    window: u64,
    staged: StagedFleetConfig,
}

fn inputs(workload: Workload, seed: u64) -> Result<Inputs, BoxError> {
    Ok(match workload {
        Workload::TuneCold => Inputs {
            services: FleetTuner::default_targets(),
            window: EnvConfig::fast_test().window_insns,
            staged: StagedFleetConfig::fast_test(),
        },
        Workload::RolloutChaos => {
            let (_, _, plans) = demo_campaign(seed)?;
            let staged = *plans[0].fleet.config();
            Inputs {
                services: plans
                    .iter()
                    .map(|p| Ok((Microservice::from_name(&p.name)?, p.candidate.platform.kind)))
                    .collect::<Result<_, BoxError>>()?,
                window: staged.window_insns,
                staged,
            }
        }
        Workload::MeshCanary => {
            let window = mesh_config(seed).window_insns;
            Inputs {
                services: colocation_mix()?
                    .tiers()
                    .iter()
                    .map(|t| (t.service, t.service.default_platform()))
                    .collect(),
                window,
                staged: StagedFleetConfig {
                    window_insns: window,
                    ..StagedFleetConfig::fast_test()
                },
            }
        }
    })
}

fn derived(seed: u64, what: &str, i: usize) -> u64 {
    IdentitySeed::new(seed)
        .field("perfbench")
        .field(what)
        .field(&i.to_string())
        .finish()
}

/// Cold engine windows evaluated per traced run.
const COLD_WINDOWS: usize = 40;
/// Of those, how many are re-run struct-warm and as memo hits.
const WARM_WINDOWS: usize = 12;
/// Memo hits timed per warm window.
const HITS_PER_WINDOW: usize = 20;

/// One engine operating point: config, stream and load.
type Point = (ServerConfig, StreamSpec, f64);

/// Every service's production config plus each CDP setting the tuner
/// would try, interleaved across services so a prefix covers all of them.
/// Distinct CDP partitions are distinct cache geometries, so each point's
/// first evaluation pre-fills its structures from scratch.
fn engine_points(inp: &Inputs) -> Result<Vec<Point>, BoxError> {
    let mut per_service = Vec::new();
    for &(service, platform) in &inp.services {
        let profile = service.profile(platform)?;
        let base = profile.production_config.clone();
        let space = KnobSpace::for_platform(&base.platform, profile.constraints);
        let mut points = vec![(
            base.clone(),
            profile.stream.clone(),
            profile.peak_utilization,
        )];
        for setting in space.candidates(Knob::Cdp) {
            let mut config = base.clone();
            if setting.apply(&mut config).is_ok() && config != base {
                points.push((config, profile.stream.clone(), profile.peak_utilization));
            }
        }
        per_service.push(points);
    }
    let mut out = Vec::new();
    let longest = per_service.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        out.extend(per_service.iter().filter_map(|p| p.get(i).cloned()));
    }
    out.truncate(COLD_WINDOWS);
    Ok(out)
}

/// `archsim.engine.*`: cold windows with the report memo off, the same
/// geometry again under a fresh seed (structures already cached), and
/// report-memo hits, each checked against its cold evaluation. Returns
/// the median cold window, seconds.
fn engine_probe(inp: &Inputs, seed: u64, m: &mut Metrics) -> Result<f64, BoxError> {
    let points = engine_points(inp)?;
    let mut cold_s = Vec::new();
    let mut cold_reports = Vec::new();
    for (i, (config, spec, load)) in points.iter().enumerate() {
        let engine =
            Engine::new(config.clone(), spec.clone(), derived(seed, "cold", i))?.with_memo(false);
        let (report, s) = timed(|| engine.run_window(inp.window, *load));
        cold_reports.push(report?);
        cold_s.push(s);
    }
    let mut struct_warm_s = Vec::new();
    let mut hit_s = Vec::new();
    for (i, (config, spec, load)) in points.iter().enumerate().take(WARM_WINDOWS) {
        let engine =
            Engine::new(config.clone(), spec.clone(), derived(seed, "warm", i))?.with_memo(false);
        let (report, s) = timed(|| engine.run_window(inp.window, *load));
        black_box(report?);
        struct_warm_s.push(s);

        let memo = Engine::new(config.clone(), spec.clone(), derived(seed, "cold", i))?;
        memo.run_window(inp.window, *load)?;
        let cold = format!("{:?}", cold_reports[i]);
        for _ in 0..HITS_PER_WINDOW {
            let (hit, s) = timed(|| memo.run_window(inp.window, *load));
            if format!("{:?}", hit?) != cold {
                return Err(
                    format!("memo hit for window {i} differs from its cold evaluation").into(),
                );
            }
            hit_s.push(s);
        }
    }
    let (_, cold_tail) = tail(&cold_s);
    m.insert(
        "archsim.engine.cold_window_ms.p50".into(),
        1e3 * median(&cold_s),
    );
    m.insert("archsim.engine.cold_window_ms.tail".into(), 1e3 * cold_tail);
    m.insert(
        "archsim.engine.cold_window.count".into(),
        cold_s.len() as f64,
    );
    m.insert(
        "archsim.engine.minsns_per_s".into(),
        inp.window as f64 / median(&cold_s) / 1e6,
    );
    m.insert(
        "archsim.engine.struct_warm_window_ms".into(),
        1e3 * median(&struct_warm_s),
    );
    m.insert("archsim.engine.memo_hit_us".into(), 1e6 * median(&hit_s));
    Ok(median(&cold_s))
}

/// Repeats `replay` three times; each must return the same counts.
fn repeat_exact<C: PartialEq + std::fmt::Debug>(
    what: &str,
    mut replay: impl FnMut() -> C,
) -> Result<f64, BoxError> {
    let mut times = Vec::new();
    let mut first = None;
    for _ in 0..3 {
        let (counts, s) = timed(&mut replay);
        match &first {
            None => first = Some(counts),
            Some(f) if *f != counts => {
                return Err(format!("{what} replay counts changed: {f:?} then {counts:?}").into())
            }
            Some(_) => {}
        }
        times.push(s);
    }
    Ok(median(&times))
}

/// Trace batches generated for the component replays.
const TRACE_BATCHES: usize = 64;
const BATCH_EVENTS: usize = 4096;
/// Reuse distances sampled (and replayed through a `RankList`).
const REUSE_SAMPLES: usize = 200_000;
/// Depth of the replayed LRU stack.
const STACK_DEPTH: usize = 1 << 16;

/// `archsim.trace/reuse/ranklist/cache/tlb`: the component APIs replayed
/// on the first service's own event stream.
fn component_probe(inp: &Inputs, seed: u64, m: &mut Metrics) -> Result<(), BoxError> {
    let (service, platform) = inp.services[0];
    let profile = service.profile(platform)?;
    let spec = &profile.stream;
    let plat = &profile.production_config.platform;

    let mut generator =
        TraceGenerator::new(spec, HugePageMix::default(), derived(seed, "trace", 0));
    let mut batch = EventBatch::with_capacity(BATCH_EVENTS);
    let (mut lines, mut pages, mut huge) = (Vec::new(), Vec::new(), Vec::new());
    let mut fill_s = 0.0;
    for _ in 0..TRACE_BATCHES {
        let ((), s) = timed(|| generator.fill_batch(&mut batch, BATCH_EVENTS));
        fill_s += s;
        lines.extend_from_slice(&batch.data_lines);
        pages.extend_from_slice(&batch.data_pages);
        huge.extend_from_slice(&batch.data_huge);
    }
    let events = (TRACE_BATCHES * BATCH_EVENTS) as f64;
    m.insert(
        "archsim.trace.fill_batch_ns_per_event".into(),
        1e9 * fill_s / events,
    );

    let mut rng = SmallRng::seed_from_u64(derived(seed, "reuse", 0));
    let t0 = now();
    let distances: Vec<Option<u64>> = (0..REUSE_SAMPLES)
        .map(|_| spec.data_reuse.sample(&mut rng))
        .collect();
    m.insert(
        "archsim.reuse.sample_ns".into(),
        1e9 * secs(t0) / REUSE_SAMPLES as f64,
    );

    let mut ops = 0u64;
    let s = repeat_exact("ranklist", || {
        let mut stack = RankList::new(0);
        let (mut next, mut hits) = (0u64, 0u64);
        ops = 0;
        for d in &distances {
            match d.map(|d| d as usize) {
                Some(d) if d < stack.len() => {
                    let v = stack.remove_at(d).unwrap_or_default();
                    stack.push_front(v);
                    hits += 1;
                    ops += 2;
                }
                _ => {
                    stack.push_front(next);
                    next += 1;
                    ops += 1;
                    if stack.len() > STACK_DEPTH {
                        stack.pop_back();
                        ops += 1;
                    }
                }
            }
        }
        (hits, stack.len())
    })?;
    m.insert("archsim.ranklist.op_ns".into(), 1e9 * s / ops.max(1) as f64);

    let l2_empty = SetAssocCache::from_geometry(&plat.l2, plat.l2.ways, 1.0)?;
    let s = repeat_exact("cache", || {
        let mut l2 = l2_empty.clone();
        for &line in &lines {
            l2.access(line);
        }
        (l2.accesses(), l2.misses())
    })?;
    m.insert(
        "archsim.cache.access_ns".into(),
        1e9 * s / lines.len().max(1) as f64,
    );

    let tlb_empty = TlbHierarchy::new(&plat.itlb, &plat.dtlb, plat.stlb_entries)?;
    let s = repeat_exact("tlb", || {
        let mut tlb = tlb_empty.clone();
        let mut counts = [0u64; 3];
        for (&page, &h) in pages.iter().zip(&huge) {
            counts[match tlb.access_data(page, h) {
                TlbOutcome::L1Hit => 0,
                TlbOutcome::StlbHit => 1,
                TlbOutcome::Walk => 2,
            }] += 1;
        }
        counts
    })?;
    m.insert(
        "archsim.tlb.access_ns".into(),
        1e9 * s / pages.len().max(1) as f64,
    );
    Ok(())
}

/// Forks timed per environment.
const FORKS: usize = 50;
/// Staged-fleet ticks timed (after an identical warm-up pass).
const FLEET_TICKS: usize = 24;

/// `cluster.*`: environment construction and forking on every service,
/// and warm `StagedFleet::tick` on the first.
fn cluster_probe(inp: &Inputs, seed: u64, m: &mut Metrics) -> Result<(), BoxError> {
    let mut new_s = Vec::new();
    let mut fork_s = Vec::new();
    for (i, &(service, platform)) in inp.services.iter().enumerate() {
        let profile = service.profile(platform)?;
        let (env, s) =
            timed(|| AbEnvironment::new(profile, EnvConfig::fast_test(), derived(seed, "env", i)));
        let env = env?;
        new_s.push(s);
        for k in 0..FORKS {
            let (fork, s) = timed(|| env.fork(derived(seed, "fork", k)));
            black_box(fork);
            fork_s.push(s);
        }
    }
    m.insert("cluster.env.new_ms".into(), 1e3 * median(&new_s));
    m.insert("cluster.env.fork_us".into(), 1e6 * median(&fork_s));

    let (service, platform) = inp.services[0];
    let mut tick_s = Vec::new();
    for pass in 0..2 {
        let profile = service.profile(platform)?;
        let prod = profile.production_config.clone();
        let mut fleet = StagedFleet::new(
            profile,
            prod.clone(),
            prod,
            inp.staged,
            derived(seed, "fleet", 0),
        )?;
        fleet.stage_to(0.5);
        for _ in 0..FLEET_TICKS {
            let (sample, s) = timed(|| fleet.tick());
            black_box(sample?);
            if pass == 1 {
                tick_s.push(s);
            }
        }
    }
    m.insert("cluster.fleet.tick_us".into(), 1e6 * median(&tick_s));
    Ok(())
}

/// A/B test statistics as the scheduler reports them.
pub struct AbStats {
    pub run_s: Vec<f64>,
    pub samples: Vec<f64>,
    pub attempts: Vec<f64>,
    pub busy_frac: f64,
}

fn record_ab(stats: &AbStats, m: &mut Metrics) {
    let (_, t) = tail(&stats.run_s);
    m.insert("core.abtest.run_ms.p50".into(), 1e3 * median(&stats.run_s));
    m.insert("core.abtest.run_ms.tail".into(), 1e3 * t);
    m.insert("core.abtest.count".into(), stats.run_s.len() as f64);
    let samples: f64 = stats.samples.iter().sum();
    let attempts: f64 = stats.attempts.iter().sum();
    m.insert(
        "core.abtest.samples_per_test".into(),
        samples / stats.samples.len().max(1) as f64,
    );
    m.insert(
        "core.abtest.sample_yield".into(),
        samples / attempts.max(1.0),
    );
    m.insert("core.scheduler.worker_busy_frac".into(), stats.busy_frac);
}

/// `core.*` outside `tune_cold`: the first service's THP and SHP tests on
/// the scheduler, each on its own forked replica.
fn core_probe(inp: &Inputs, seed: u64) -> Result<AbStats, BoxError> {
    let (service, platform) = inp.services[0];
    let profile = service.profile(platform)?;
    let base = profile.production_config.clone();
    let space = KnobSpace::for_platform(&base.platform, profile.constraints);
    let mut plan = plan_independent(&base, &space, &[Knob::Thp, Knob::Shp], service.name(), seed);
    if plan.is_empty() {
        plan = plan_independent(
            &base,
            &space,
            &crate::workloads::TUNE_KNOBS,
            service.name(),
            seed,
        );
    }
    let tester = AbTester::new(
        AbTestConfig::fast_test(),
        PerformanceMetric::recommended_for(service),
    );
    let proto = AbEnvironment::new(profile, EnvConfig::fast_test(), derived(seed, "ab", 0))?;
    let (runs, fan_s) = timed(|| {
        run_replicas(&plan, workers(), |unit: &TestUnit| {
            let mut env = proto.fork(unit.seed);
            let result = tester.run(&mut env, &base, unit.setting)?;
            Ok(ReplicaOutput::new(result, env.time_s()))
        })
    });
    let runs = runs?;
    let run_s: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    Ok(AbStats {
        busy_frac: run_s.iter().sum::<f64>() / (workers() as f64 * fan_s),
        samples: runs.iter().map(|r| r.result.samples as f64).collect(),
        attempts: runs.iter().map(|r| r.result.attempts as f64).collect(),
        run_s,
    })
}

/// Deterministic synthetic latency stream (seconds): a narrow body and a
/// tail on every 97th sample.
fn latencies(seed: u64, n: usize) -> Vec<f64> {
    use rand::Rng;
    let mut rng = SmallRng::seed_from_u64(derived(seed, "latency", 0));
    (0..n)
        .map(|i| {
            let u: f64 = rng.gen();
            let body = 0.010 + 0.008 * u;
            if i % 97 == 0 {
                body * (4.0 + 8.0 * u)
            } else {
                body
            }
        })
        .collect()
}

const TELEMETRY_CALLS: usize = 100_000;
const WELCH_CALLS: usize = 2_000;

/// `telemetry.*`: per-call cost of the statistics, sketch, SLO, trace and
/// tiered-ledger APIs.
fn telemetry_probe(seed: u64, m: &mut Metrics) -> Result<(), BoxError> {
    let lat = latencies(seed, TELEMETRY_CALLS);

    let t0 = now();
    for i in 0..TELEMETRY_CALLS {
        black_box(t_quantile(0.975, 2.0 + (i % 200) as f64));
    }
    m.insert(
        "telemetry.stats.t_quantile_ns".into(),
        1e9 * secs(t0) / TELEMETRY_CALLS as f64,
    );

    let summaries: Vec<Summary> = lat
        .chunks(50)
        .map(Summary::from_samples)
        .collect::<Result<_, _>>()?;
    let t0 = now();
    for i in 0..WELCH_CALLS {
        let a = &summaries[i % summaries.len()];
        let b = &summaries[(i + 1) % summaries.len()];
        black_box(welch_test(a, b));
    }
    m.insert(
        "telemetry.stats.welch_us".into(),
        1e6 * secs(t0) / WELCH_CALLS as f64,
    );

    let mut sketch = QuantileSketch::new();
    let t0 = now();
    for &x in &lat {
        sketch.push(x);
    }
    m.insert(
        "telemetry.sketch.push_ns".into(),
        1e9 * secs(t0) / lat.len() as f64,
    );
    black_box(sketch.quantile(0.99));

    let mut slo = SloEvaluator::new(SloSpec::new("perfbench", 0.040, 0.99, 5.0, 20.0)?);
    let mut ods = TieredOds::unbounded();
    let mut sink = TraceSink::new();
    let t0 = now();
    for (i, &x) in lat.iter().enumerate() {
        let t = 0.01 * i as f64;
        slo.observe(t, x, Some(i as u64))?;
        slo.evaluate(t, &mut ods, &mut sink)?;
    }
    m.insert(
        "telemetry.slo.eval_ns".into(),
        1e9 * secs(t0) / lat.len() as f64,
    );

    let mut sink = TraceSink::new();
    let t0 = now();
    for (i, &x) in lat.iter().enumerate() {
        let h = sink.leaf("perfbench", "probe", i as f64, x);
        sink.attr(h, "latency_s", AttrValue::F64(x));
    }
    m.insert(
        "telemetry.trace.span_ns".into(),
        1e9 * secs(t0) / lat.len() as f64,
    );
    black_box(sink.spans().len());

    let mut ledger = TieredOds::chaos_ledger();
    let key = SeriesKey::keyed("perfbench", LedgerKey::SloBurnFast);
    let t0 = now();
    for (i, &x) in lat.iter().enumerate() {
        ledger.append(&key, 60.0 * i as f64, x)?;
    }
    m.insert(
        "telemetry.tiered.append_ns".into(),
        1e9 * secs(t0) / lat.len() as f64,
    );
    Ok(())
}

/// Warm campaigns timed by the rollout probe.
const WARM_CAMPAIGNS: usize = 30;

/// `rollout.coordinator.campaign_ms` outside `rollout_chaos`: the demo
/// campaign once cold, then warm.
fn rollout_probe(seed: u64) -> Result<Vec<f64>, BoxError> {
    let mut walls = Vec::new();
    for i in 0..=WARM_CAMPAIGNS {
        let (unit, s) = timed(|| crate::workloads::chaos_campaign(seed, false));
        unit?;
        if i > 0 {
            walls.push(s);
        }
    }
    Ok(walls)
}

fn record_campaigns(walls: &[f64], m: &mut Metrics) {
    let (_, t) = tail(walls);
    m.insert(
        "rollout.coordinator.campaign_ms.p50".into(),
        1e3 * median(walls),
    );
    m.insert("rollout.coordinator.campaign_ms.tail".into(), 1e3 * t);
}

/// Warm repetitions of each mesh measurement.
const MESH_REPS: usize = 40;

/// `mesh.*`: the production-SKU simulation cold (calibrating) and warm,
/// the joint tuner warm, and the canary gate: the canary's wall minus its
/// separately timed baseline simulation, tune and canary simulation.
fn mesh_probe(seed: u64, m: &mut Metrics) -> Result<(), BoxError> {
    let graph = colocation_mix()?;
    let clean = mesh_config(seed);
    let prod: Vec<ServerConfig> = graph
        .tiers()
        .iter()
        .map(|t| t.service.production_config(t.service.default_platform()))
        .collect::<Result<_, _>>()?;
    let sim = MeshSim::new(&graph, clean)?;
    let (first, cold_s) = timed(|| sim.run(&prod));
    let injected = first?.injected as f64;
    let tuner = MeshTuner::with_default_candidates(&graph, clean)?;
    let tuned = tuner.tune(MeshObjective::GraphP99, workers())?;
    let cand: Vec<ServerConfig> = tuned.selections.iter().map(|s| s.config.clone()).collect();
    let canary = MeshCanary::new(&graph, clean, MeshCanaryConfig::default())?;

    let (mut sim_s, mut tune_s, mut gate_s) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..MESH_REPS {
        let mut parts = || -> Result<f64, BoxError> {
            let t0 = now();
            let (r, base_s) = timed(|| sim.run(&prod));
            black_box(r?);
            let (r, t_s) = timed(|| tuner.tune(MeshObjective::GraphP99, workers()));
            black_box(r?);
            black_box(sim.run_instrumented(&cand, &mut TraceSink::new())?);
            sim_s.push(base_s);
            tune_s.push(t_s);
            Ok(secs(t0))
        };
        let whole = || -> Result<f64, BoxError> {
            let (r, s) = timed(|| {
                canary.run(
                    workers(),
                    &mut TieredOds::unbounded(),
                    &mut TraceSink::new(),
                )
            });
            black_box(r?);
            Ok(s)
        };
        // Alternate the order so neither side always runs on the other's
        // warm caches.
        let (parts_s, canary_s) = if rep % 2 == 0 {
            let p = parts()?;
            (p, whole()?)
        } else {
            let c = whole()?;
            (parts()?, c)
        };
        gate_s.push(canary_s - parts_s);
    }
    let run_s = median(&sim_s);
    m.insert("mesh.sim.run_ms".into(), 1e3 * run_s);
    m.insert("mesh.sim.requests_per_s".into(), injected / run_s);
    m.insert("mesh.sim.calibration_ms".into(), 1e3 * (cold_s - run_s));
    m.insert("mesh.tune.tune_ms".into(), 1e3 * median(&tune_s));
    m.insert("mesh.canary.gate_ms".into(), 1e3 * median(&gate_s));
    Ok(())
}

/// What the timed phase of a traced run measured, for the probes to
/// complete.
pub struct TimedPhase {
    /// A/B statistics from the timed phase (`tune_cold` only).
    pub ab: Option<AbStats>,
    /// Untraced timed units: A/B tests, campaigns or single canaries.
    pub unit_walls: Vec<f64>,
}

/// Runs every probe for `workload` and fills in the per-layer metrics the
/// timed phase did not already provide.
pub fn run_all(
    workload: Workload,
    seed: u64,
    timed_phase: TimedPhase,
    m: &mut Metrics,
) -> Result<(), BoxError> {
    let inp = inputs(workload, seed)?;
    let cold_window_s = engine_probe(&inp, seed, m)?;
    m.insert(
        "bench.median_unit_over_cold_window".into(),
        median(&timed_phase.unit_walls) / cold_window_s,
    );
    component_probe(&inp, seed, m)?;
    cluster_probe(&inp, seed, m)?;
    let ab = match timed_phase.ab {
        Some(ab) => ab,
        None => core_probe(&inp, seed)?,
    };
    record_ab(&ab, m);
    telemetry_probe(seed, m)?;
    let campaigns = match workload {
        Workload::RolloutChaos => timed_phase.unit_walls,
        _ => rollout_probe(seed)?,
    };
    record_campaigns(&campaigns, m);
    mesh_probe(seed, m)
}
