//! `skuctl` — inspect a deterministic traced soft-SKU lifecycle run.
//!
//! Runs the full tune → compose → staged rollout → drift → re-tune
//! lifecycle with tracing enabled (everything is a pure function of
//! `(config, seed)`, so two invocations with the same flags print the same
//! bytes), then answers questions about it:
//!
//! ```text
//! skuctl spans  [flags]   # render the sim-time span tree
//! skuctl cpi    [flags]   # per-arm CPI stacks: which TMAM bound each knob win relieved
//! skuctl ledger [flags]   # the tiered-retention rollout.* ODS ledger
//! skuctl export [flags]   # write Chrome trace-event JSON (Perfetto-loadable)
//! skuctl chaos  [flags]   # replay the seeded chaos campaign: faults vs reactions
//! skuctl mesh   [flags]   # request-graph tuning: critical-path tiers, mesh.* ledger
//! skuctl slo    [flags]   # SLO-gated mesh canary: burn-rate timeline, exemplar spans
//!
//! flags: --service <name>  microservice to tune          [web]
//!        --seed <u64>      base seed                     [21]
//!        --workers <n>     scheduler workers             [machine width]
//!        --out <path>      export path                   [trace.json]
//!        --smoke           print a trailing "smoke ok" marker for CI
//! ```

use softsku_knobs::Knob;
use softsku_rollout::{
    demo_campaign, CoordinatorConfig, FleetCoordinator, LifecycleReport, PipelineConfig,
    RolloutPipeline,
};
use softsku_telemetry::trace::{AttrValue, TraceSink, TraceSpan};
use softsku_telemetry::{KeyKind, LedgerDomain, LedgerKey};
use softsku_workloads::{Microservice, PlatformKind};
use std::num::NonZeroUsize;

type BoxError = Box<dyn std::error::Error>;

const USAGE: &str = "usage: skuctl <spans|cpi|ledger|export|chaos|mesh|slo|keys> \
[--service <name>] [--seed <u64>] [--workers <n>] [--out <path>] [--smoke]";

/// Parsed command line.
struct Args {
    command: String,
    service: Microservice,
    seed: u64,
    workers: NonZeroUsize,
    out: String,
    smoke: bool,
}

fn parse_args() -> Result<Args, BoxError> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or(USAGE)?;
    let mut parsed = Args {
        command,
        service: Microservice::Web,
        seed: 21,
        workers: usku::scheduler::default_workers(),
        out: "trace.json".to_string(),
        smoke: false,
    };
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| -> Result<String, BoxError> {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}").into())
        };
        match flag.as_str() {
            "--service" => parsed.service = Microservice::from_name(&value("--service")?)?,
            "--seed" => parsed.seed = value("--seed")?.parse()?,
            "--workers" => {
                parsed.workers = NonZeroUsize::new(value("--workers")?.parse()?)
                    .ok_or("--workers must be positive")?;
            }
            "--out" => parsed.out = value("--out")?,
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown flag {other}\n{USAGE}").into()),
        }
    }
    Ok(parsed)
}

/// The deterministic lifecycle run every subcommand inspects: small A/B
/// budgets (the same shape the integration tests replay) with code churn
/// hot enough that the drift monitor fires, so the trace exercises the
/// whole tune → compose → rollout → drift → re-tune story.
fn traced_run(args: &Args) -> Result<(LifecycleReport, TraceSink), BoxError> {
    let mut config = PipelineConfig::fast_test(args.seed);
    config.abtest.min_samples = 24;
    config.abtest.max_samples = 240;
    config.abtest.batch = 12;
    config.env.window_insns = 12_000;
    config.staged.replicas = 20;
    config.staged.window_insns = 6_000;
    config.rollout.ticks_per_stage = 12;
    config.rollout.mad_window = 8;
    config.drift.window_ticks = 12;
    config.drift.max_windows = 4;
    config.staged.pushes_per_hour = 4.0;
    config.staged.push_magnitude = 0.005;
    config.staged.drift_per_push = 0.002;
    let config = config.with_workers(args.workers);

    let mut sink = TraceSink::new();
    let report = RolloutPipeline::new(config).run_traced(
        args.service,
        PlatformKind::Skylake18,
        &[Knob::Thp, Knob::Shp],
        &mut sink,
    )?;
    Ok((report, sink))
}

fn attr<'a>(span: &'a TraceSpan, key: &str) -> Option<&'a AttrValue> {
    span.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn attr_str<'a>(span: &'a TraceSpan, key: &str) -> Option<&'a str> {
    match attr(span, key) {
        Some(AttrValue::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn attr_f64(span: &TraceSpan, key: &str) -> Option<f64> {
    match attr(span, key) {
        Some(AttrValue::F64(v)) => Some(*v),
        _ => None,
    }
}

/// `skuctl spans`: the indented span tree, one line per span.
fn cmd_spans(sink: &TraceSink) {
    print!("{}", sink.render_tree());
    println!(
        "{} spans, {} counters, {} tracks",
        sink.spans().len(),
        sink.counters().len(),
        sink.tracks().len()
    );
}

/// `skuctl cpi`: every A/B knob win with its per-arm CPI-stack verdict —
/// the TMAM bound the candidate relieved (paper Figs. 7-10).
fn cmd_cpi(sink: &TraceSink) {
    println!(
        "{:<8} {:<10} {:<22} {:>8} {:>9}  relieved bound",
        "service", "knob", "setting", "gain", "p-value"
    );
    let mut wins = 0usize;
    let mut attributed = 0usize;
    for span in sink.spans() {
        if span.cat != "abtest" || attr_str(span, "verdict") != Some("better") {
            continue;
        }
        wins += 1;
        let bound = match (
            attr_str(span, "tmam.relieved"),
            attr_f64(span, "tmam.relieved_drop"),
        ) {
            (Some(b), Some(d)) => {
                attributed += 1;
                format!("{b} (-{:.1} pp)", 100.0 * d)
            }
            _ => "unattributed".to_string(),
        };
        println!(
            "{:<8} {:<10} {:<22} {:>7.2}% {:>9.2e}  {}",
            attr_str(span, "service").unwrap_or("?"),
            attr_str(span, "knob").unwrap_or("?"),
            span.name,
            100.0 * attr_f64(span, "gain").unwrap_or(0.0),
            attr_f64(span, "p_value").unwrap_or(f64::NAN),
            bound,
        );
    }
    println!("{wins} knob wins, {attributed} attributed to a TMAM bound");
}

/// `skuctl ledger`: the tiered rollout ledger — per series, how many
/// observations live at raw resolution vs folded into each retention tier.
fn cmd_ledger(report: &LifecycleReport) {
    let ods = &report.rollout_ods;
    println!(
        "rollout ledger: {} series, {} retention tiers",
        ods.series_count(),
        ods.tier_count()
    );
    for key in ods.keys() {
        let raw = ods.raw_points(key);
        let tiers: Vec<String> = (0..ods.tier_count())
            .map(|t| format!("t{t}:{}", ods.tier_points(key, t).len()))
            .collect();
        let last = raw
            .last()
            .map(|(t, value)| format!("last {value:.3} @ {t:.1}s"))
            .unwrap_or_else(|| "folded".to_string());
        println!(
            "  {:<24} {:>4} obs  raw:{} {}  {}",
            key.to_string(),
            ods.len(key),
            raw.len(),
            tiers.join(" "),
            last
        );
    }
}

/// `skuctl export`: Chrome trace-event JSON, loadable in Perfetto or
/// `chrome://tracing`.
fn cmd_export(sink: &TraceSink, out: &str) -> Result<(), BoxError> {
    let json = sink.chrome_trace().render_pretty();
    std::fs::write(out, &json)?;
    println!(
        "wrote {out}: {} events ({} bytes)",
        sink.spans().len() + sink.counters().len() + sink.tracks().len(),
        json.len()
    );
    Ok(())
}

/// `skuctl chaos`: replay the seeded demo chaos campaign through the fleet
/// coordinator and print its timeline — injected faults on the left,
/// coordinator reactions on the right — straight from the `chaos.*` and
/// `coordinator.*` ledger series. Deterministic: same seed, same bytes.
fn cmd_chaos(args: &Args) -> Result<(), BoxError> {
    let (topology, chaos, plans) = demo_campaign(args.seed)?;
    let mut sink = softsku_telemetry::trace::TraceSink::new();
    let report = FleetCoordinator::new(CoordinatorConfig::fast_test())
        .with_workers(args.workers)
        .run_traced(&topology, chaos, plans, args.seed, &mut sink)?;

    // One timeline row per ledger entry: (time, is-fault, text). The ledger
    // is appended in canonical tick order, so a stable sort by time keeps
    // same-tick entries in injection-before-reaction order.
    let mut rows: Vec<(f64, bool, String)> = Vec::new();
    for key in report.ledger.keys() {
        let fault = key.metric().starts_with(LedgerDomain::Chaos.prefix());
        if !fault && !key.metric().starts_with(LedgerDomain::Coordinator.prefix()) {
            continue;
        }
        for &(t, value) in report.ledger.raw_points(key) {
            rows.push((
                t,
                fault,
                format!("{} {} [{value:.2}]", key.metric(), key.entity()),
            ));
        }
    }
    rows.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| b.1.cmp(&a.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    println!(
        "{:>10}  {:<42}  coordinator reaction",
        "sim time", "injected fault"
    );
    for (t, fault, text) in &rows {
        if *fault {
            println!("{t:>9.0}s  {text:<42}");
        } else {
            println!("{t:>9.0}s  {:<42}  {text}", "");
        }
    }
    println!();
    print!("{}", report.render());
    Ok(())
}

/// `skuctl mesh`: tune the colocation-mix request graph under both
/// objectives — the paper's per-tier MIPS rule vs joint end-to-end p99 —
/// then render the critical-path tier attribution and the `mesh.*`
/// ledger the winning run recorded. Deterministic: same seed, same bytes.
fn cmd_mesh(args: &Args) -> Result<(), BoxError> {
    // The same frozen configuration the acceptance test pins: at seed 21
    // the two rules provably part ways on this graph.
    let config = softsku_mesh::MeshConfig {
        requests: 600,
        arrival_rate_hz: 900.0,
        horizon_s: f64::INFINITY,
        window_insns: 60_000,
        service_cv2: 2.0,
        regress_frac: 0.0,
        regress_scale: 1.0,
        seed: args.seed,
    };
    let graph = softsku_mesh::colocation_mix()?;
    let tuner = softsku_mesh::MeshTuner::with_default_candidates(&graph, config)?;
    let workers = args.workers.get();
    let private = tuner.tune(softsku_mesh::MeshObjective::PerTierMips, workers)?;
    let joint = tuner.tune(softsku_mesh::MeshObjective::GraphP99, workers)?;
    println!(
        "graph {} — {} tiers, {} edges, seed {}, {} requests @ {:.0}/s",
        graph.name(),
        graph.tiers().len(),
        graph.edges().len(),
        args.seed,
        config.requests,
        config.arrival_rate_hz
    );
    println!(
        "per-tier MIPS rule: {:?}  p99 {:8.3} ms  ({} evals)",
        private.labels(),
        private.report.p99_s * 1e3,
        private.evaluated
    );
    println!(
        "joint graph rule:   {:?}  p99 {:8.3} ms  ({} evals)",
        joint.labels(),
        joint.report.p99_s * 1e3,
        joint.evaluated
    );

    println!("\ncritical path over the slowest 1 % (joint winner):");
    println!(
        "{:<10} {:<8} {:>8} {:>11} {:>10}  sku",
        "tier", "service", "share", "sojourn", "retention"
    );
    for (tier, sel) in joint.report.tiers.iter().zip(&joint.selections) {
        println!(
            "{:<10} {:<8} {:>7.1}% {:>8.3} ms {:>9.1}%  {}",
            tier.name,
            graph
                .tiers()
                .iter()
                .find(|t| t.name == tier.name)
                .map(|t| t.service.name())
                .unwrap_or("?"),
            tier.critical_share * 100.0,
            (tier.mean_wait_s + tier.mean_service_s) * 1e3,
            tier.retention * 100.0,
            sel.label
        );
    }
    println!(
        "{:<10} {:<8} {:>7.1}%",
        "network",
        "-",
        joint.report.network_critical_share * 100.0
    );

    // Record the winning run into the ODS ledger and read the mesh.*
    // domain back — the rendering below is driven entirely by what the
    // ledger holds, never by hard-coded key spellings.
    let mut ods = softsku_telemetry::TieredOds::unbounded();
    joint.report.record(&mut ods, 0.0)?;
    println!("\nmesh.* ledger:");
    let keys: Vec<_> = ods.keys().cloned().collect();
    for key in &keys {
        if !key.metric().starts_with(LedgerDomain::Mesh.prefix()) {
            continue;
        }
        let (t, value) = ods.last(key)?;
        println!(
            "  {:<18} {:<16} {value:>12.6} @ {t:.1}s",
            key.metric(),
            key.entity()
        );
    }
    Ok(())
}

/// `skuctl slo`: the SLO-gated canary on the colocation-mix request graph,
/// run twice — once clean, once with a seeded end-to-end p99 regression
/// (20 % of requests served 4× slower at every tier they visit). Renders
/// each campaign's burn-rate timeline straight from the `slo.*` ledger,
/// the guarded p99 margin, and — when the gate blocks — the exemplar span
/// ids that resolve the violation to request subtrees in the Chrome
/// export written to `--out`. Deterministic: same seed, same bytes, for
/// any `--workers`.
fn cmd_slo(args: &Args) -> Result<(), BoxError> {
    let clean = softsku_mesh::MeshConfig {
        requests: 600,
        arrival_rate_hz: 900.0,
        horizon_s: f64::INFINITY,
        window_insns: 60_000,
        service_cv2: 2.0,
        regress_frac: 0.0,
        regress_scale: 1.0,
        seed: args.seed,
    };
    let mut regressed = clean;
    regressed.regress_frac = 0.2;
    regressed.regress_scale = 4.0;
    let graph = softsku_mesh::colocation_mix()?;
    let workers = args.workers.get();

    for (label, config) in [("clean", clean), ("regressed", regressed)] {
        let canary = softsku_mesh::MeshCanary::new(
            &graph,
            config,
            softsku_mesh::MeshCanaryConfig::default(),
        )?;
        let mut ods = softsku_telemetry::TieredOds::unbounded();
        let mut sink = TraceSink::new();
        let report = canary.run(workers, &mut ods, &mut sink)?;

        println!(
            "campaign {label}: inject {:.0}% of requests {:.0}x slower",
            config.regress_frac * 100.0,
            config.regress_scale
        );
        println!(
            "  SLO: e2e latency <= {:.3} ms for {:.1}% of requests \
             (threshold = {:.2}x baseline p99 {:.3} ms)",
            report.threshold_s * 1e3,
            100.0 * softsku_mesh::MeshCanaryConfig::default().target,
            softsku_mesh::MeshCanaryConfig::default().threshold_margin,
            report.baseline.p99_s * 1e3,
        );
        println!(
            "  candidate {:?}  canary p99 {:.3} ms vs baseline {:.3} ms",
            report.tuned.labels(),
            report.canary.p99_s * 1e3,
            report.baseline.p99_s * 1e3,
        );

        // Burn-rate timeline, read back from the slo.* ledger series the
        // evaluator appended (never recomputed here): max burn per time
        // bucket, with the alert count on the right.
        let entity = graph.name();
        let fast = ods.raw_points(&softsku_telemetry::SeriesKey::keyed(
            entity,
            LedgerKey::SloBurnFast,
        ));
        let slow = ods.raw_points(&softsku_telemetry::SeriesKey::keyed(
            entity,
            LedgerKey::SloBurnSlow,
        ));
        let alerts = ods.raw_points(&softsku_telemetry::SeriesKey::keyed(
            entity,
            LedgerKey::SloAlert,
        ));
        if let (Some(&(t0, _)), Some(&(t1, _))) = (fast.first(), fast.last()) {
            const BUCKETS: usize = 12;
            let width = ((t1 - t0) / BUCKETS as f64).max(1e-9);
            println!(
                "  {:>9}  {:>9} {:>9}  {:<26} alerts",
                "t", "fast", "slow", "burn (fast, # = 4x)"
            );
            for b in 0..BUCKETS {
                let lo = t0 + b as f64 * width;
                let hi = if b + 1 == BUCKETS {
                    f64::INFINITY
                } else {
                    lo + width
                };
                let in_bucket = |pts: &[(f64, f64)]| {
                    pts.iter()
                        .filter(|(t, _)| *t >= lo && *t < hi)
                        .map(|&(_, v)| v)
                        .fold(0.0f64, f64::max)
                };
                let (bf, bs) = (in_bucket(fast), in_bucket(slow));
                let fired = alerts.iter().filter(|(t, _)| *t >= lo && *t < hi).count();
                let bar = "#".repeat(((bf / 4.0).round() as usize).min(26));
                println!(
                    "  {:>8.0}ms  {bf:>9.1} {bs:>9.1}  {bar:<26} {fired}",
                    lo * 1e3
                );
            }
        }
        let guard = ods.raw_points(&softsku_telemetry::SeriesKey::keyed(
            entity,
            LedgerKey::SloGuardP99,
        ));
        if let Some(&(_, margin)) = guard.last() {
            println!("  guarded p99 margin: {:+.1}% vs baseline", margin * 100.0);
        }

        match report.blocked_at_s {
            None => println!(
                "  verdict: PROMOTED ({:?} deployed, {} alerts, max sustained {})",
                report.tuned.labels(),
                report.alerts,
                report.max_sustained,
            ),
            Some(t) => {
                let retunes = ods.raw_points(&softsku_telemetry::SeriesKey::keyed(
                    entity,
                    LedgerKey::SloRetune,
                ));
                println!(
                    "  verdict: BLOCKED at t={:.1} ms — rollback to {:?}, \
                     re-tune enqueued (burn {:.1})",
                    t * 1e3,
                    report
                        .deployed
                        .iter()
                        .map(|s| s.label.as_str())
                        .collect::<Vec<_>>(),
                    retunes.last().map(|&(_, v)| v).unwrap_or(f64::NAN),
                );
                println!("  p99 violated at t={t:.4}s; offending request subtrees:");
                let ids: Vec<u64> = sink.spans().iter().map(|s| s.id).collect();
                for ex in &report.exemplars {
                    let resolved = ex.span_id != u64::MAX && ids.contains(&ex.span_id);
                    println!(
                        "    span_id {:>6}  latency {:>8.3} ms @ {:.4}s  {}",
                        ex.span_id,
                        ex.latency_s * 1e3,
                        ex.t_s,
                        if resolved {
                            "(in trace export)"
                        } else {
                            "(untraced)"
                        },
                    );
                }
                let json = sink.chrome_trace().render_pretty();
                std::fs::write(&args.out, &json)?;
                println!(
                    "  wrote {}: {} events ({} bytes)",
                    args.out,
                    sink.spans().len() + sink.counters().len() + sink.tracks().len(),
                    json.len()
                );
            }
        }

        // Ledger footprint, enumerated from the registry (CI greps these
        // rows against `skuctl keys`, so spellings can never drift): every
        // ledger-kind slo.* key this campaign appended, with point counts.
        for key in LedgerKey::ALL {
            if key.kind() != KeyKind::Ledger || key.domain() != softsku_telemetry::LedgerDomain::Slo
            {
                continue;
            }
            let n = ods.len(&softsku_telemetry::SeriesKey::keyed(entity, key));
            println!("  ledger {} {entity} {n}", key.name());
        }
        println!();
    }
    Ok(())
}

/// `skuctl keys`: dump the closed ledger-key registry, one `<kind> <name>`
/// row per [`LedgerKey`], in declaration order. CI greps this instead of
/// hard-coding key spellings, so the workflow can never drift from the
/// registry.
fn cmd_keys() {
    for key in LedgerKey::ALL {
        let kind = match key.kind() {
            KeyKind::Ledger => "ledger",
            KeyKind::Trace => "trace",
        };
        println!("{kind} {}", key.name());
    }
}

fn main() -> Result<(), BoxError> {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    if args.command == "keys" {
        cmd_keys();
        if args.smoke {
            println!("smoke ok");
        }
        return Ok(());
    }

    if args.command == "chaos" {
        cmd_chaos(&args)?;
        if args.smoke {
            println!("smoke ok");
        }
        return Ok(());
    }

    if args.command == "mesh" {
        cmd_mesh(&args)?;
        if args.smoke {
            println!("smoke ok");
        }
        return Ok(());
    }

    if args.command == "slo" {
        cmd_slo(&args)?;
        if args.smoke {
            println!("smoke ok");
        }
        return Ok(());
    }

    let (report, sink) = traced_run(&args)?;
    match args.command.as_str() {
        "spans" => cmd_spans(&sink),
        "cpi" => cmd_cpi(&sink),
        "ledger" => cmd_ledger(&report),
        "export" => cmd_export(&sink, &args.out)?,
        other => {
            eprintln!("unknown command {other}\n{USAGE}");
            std::process::exit(2);
        }
    }
    if args.smoke {
        println!("smoke ok");
    }
    Ok(())
}
