//! perfbench: the repository's one benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tune_cold|rollout_chaos|mesh_canary> --seed 21 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object with the
//! end-to-end metrics (`setup_s`, `ops_per_s`, `peak_rss_mb`); with
//! `--trace 1` it carries the per-layer metrics instead. Workloads run in
//! fresh child processes of this binary (`--child <kind>`), because the
//! engine's memos are process-wide and nothing public clears them. See
//! `perfbench/README.md` for the workload and metric catalogue.

mod measure;
mod pinned;
mod probes;
mod workloads;

use measure::{median, now, secs, timed, Record};
use probes::{AbStats, Metrics, TimedPhase, PER_LAYER};
use softsku_telemetry::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{nproc, workers, Workload};

type BoxError = Box<dyn std::error::Error>;

/// Child processes a warm workload splits a run into, so each run pays
/// (and reports the median of) several cold set-ups and averages over
/// several processes' memory layouts. `mesh_canary` has fewer: its cold
/// set-up takes about 5 s.
fn warm_children(workload: Workload) -> usize {
    match workload {
        Workload::MeshCanary => 3,
        _ => 6,
    }
}

/// A warm workload fails when its median timed unit costs more than this
/// share of its cold set-up unit: the warm-up did not take.
const WARM_GUARD: f64 = 0.5;

/// `tune_cold` fails when its warm repeat costs more than this share of
/// the cold campaign: the campaign was not cold.
const COLD_GUARD: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<String>,
    /// Which share of the run a child process covers.
    slot: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 21,
        seconds: 20.0,
        trace: false,
        child: None,
        slot: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--child" => args.child = Some(value),
            "--slot" => args.slot = value.parse().map_err(|e| format!("--slot {value}: {e}"))?,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: want a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let t_main = now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(kind) = &args.child {
        return match run_child(kind, &args, t_main) {
            Ok(rec) => {
                print!("{}", rec.render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench child {kind}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!(
            "perfbench: --workload must be one of tune_cold, rollout_chaos, mesh_canary (got {:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    match run(workload, &args, t_main) {
        Ok(outcome) => {
            println!("{}", outcome.json.render());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_child(kind: &str, args: &Args, t_main: Instant) -> Result<Record, BoxError> {
    match kind {
        "tune_warmup" => workloads::tune_warmup(workloads::unit_seed(args.seed, args.slot)),
        "tune_cold" => workloads::tune_cold(args.seed, args.slot, args.trace, t_main),
        "rollout_chaos" => {
            workloads::rollout_chaos(args.seed, args.slot, args.seconds, args.trace, t_main)
        }
        "mesh_canary" => workloads::mesh_canary(args.seed, args.seconds, args.trace, t_main),
        _ => Err(format!("unknown child kind {kind}").into()),
    }
}

/// Runs one child process to completion and parses its record.
fn spawn(
    kind: &str,
    seed: u64,
    slot: usize,
    seconds: f64,
    trace: bool,
) -> Result<Record, BoxError> {
    let out = Command::new(std::env::current_exe()?)
        .args([
            "--child",
            kind,
            "--seed",
            &seed.to_string(),
            "--slot",
            &slot.to_string(),
        ])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !out.status.success() {
        return Err(format!("child {kind} exited with {}", out.status).into());
    }
    Ok(Record::parse(&String::from_utf8_lossy(&out.stdout)))
}

/// Operations and their verdicts, plus the checks a run failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn unit(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// Every unit of a run, grouped by unit index (one input seed each).
#[derive(Default)]
struct Units {
    /// The digest each index must reproduce: pinned, or its first
    /// reference result in this run.
    expected: BTreeMap<usize, String>,
    /// Operations per unit of each index.
    ops: BTreeMap<usize, u64>,
    /// Untraced and traced unit walls per index.
    untraced: BTreeMap<usize, Vec<f64>>,
    traced: BTreeMap<usize, Vec<f64>>,
    tally: Tally,
}

impl Units {
    /// Takes a child's reference digests (cold set-up, or for `tune_cold`
    /// the warm repeat) and checks them against the pins and each other.
    fn references(&mut self, workload: Workload, base: u64, rec: &Record) {
        for (k, digest) in rec.f64s("ref_index").iter().zip(rec.strs("ref_digest")) {
            let k = *k as usize;
            let pin = pinned::digest(workload.name(), base, k);
            let expect = self
                .expected
                .entry(k)
                .or_insert_with(|| pin.map_or_else(|| digest.clone(), str::to_string));
            let pinned_note = if pin.is_some() {
                "pinned"
            } else {
                "not pinned"
            };
            println!("digest: unit {k} {digest} ({pinned_note})");
            self.tally.check(digest == expect, || {
                format!("unit {k} reference digest {digest} differs from expected {expect}")
            });
        }
    }

    /// Takes a child's timed units and checks each digest.
    fn units(&mut self, rec: &Record) {
        let walls = rec.f64s("unit_wall_s");
        let ops = rec.f64s("unit_ops");
        let traced = rec.f64s("unit_traced");
        let digests = rec.strs("unit_digest");
        for (i, &k) in rec.f64s("unit_index").iter().enumerate() {
            let k = k as usize;
            let n = ops.get(i).copied().unwrap_or(0.0) as u64;
            if n > 0 {
                self.ops.insert(k, n);
            }
            let known = self.ops.get(&k).copied().unwrap_or(1);
            let ok = digests.get(i).is_some() && digests.get(i) == self.expected.get(&k);
            self.tally.unit(known, ok);
            let group = if traced.get(i) == Some(&1.0) {
                &mut self.traced
            } else {
                &mut self.untraced
            };
            group.entry(k).or_default().push(walls[i]);
        }
    }

    /// Operations per host second: every index's operations over the sum
    /// of its median unit walls, so each input seed weighs by its work and
    /// a stray slow unit does not move the figure.
    fn rate(&self, traced: bool) -> f64 {
        let group = if traced { &self.traced } else { &self.untraced };
        let (mut ops, mut wall) = (0.0, 0.0);
        for (k, walls) in group {
            ops += self.ops.get(k).copied().unwrap_or(0) as f64;
            wall += median(walls);
        }
        ops / wall
    }
}

struct Outcome {
    json: Json,
    correct: bool,
}

/// What one workload's children measured.
struct Measured {
    units: Units,
    setup_s: Vec<f64>,
    rss_mb: Vec<f64>,
    timed: TimedPhase,
    cover_frac: f64,
}

fn run(workload: Workload, args: &Args, t_main: Instant) -> Result<Outcome, BoxError> {
    println!(
        "config: workload={} seed={} seconds={} trace={} workers={} nproc={} memo={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workers(),
        nproc(),
        if workload == Workload::TuneCold {
            "cold"
        } else {
            "warm"
        },
    );
    let mut m = match workload {
        Workload::TuneCold => tune_cold(args)?,
        Workload::RolloutChaos | Workload::MeshCanary => warm(workload, args)?,
    };
    let ops_per_s = m.units.rate(false);
    let setup_s = median(&m.setup_s);
    let peak_rss_mb = median(&m.rss_mb);
    let tally = &mut m.units.tally;
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "ops: attempted={} failed={} ops_failed_frac={failed_frac} (fraction)",
        tally.attempted, tally.failed
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let mut layer = Metrics::new();
        layer.insert(
            "telemetry.trace.overhead_frac".into(),
            m.units.rate(false) / m.units.rate(true) - 1.0,
        );
        layer.insert("bench.timed_cover_frac".into(), m.cover_frac);
        let (probed, probe_s) = timed(|| probes::run_all(workload, args.seed, m.timed, &mut layer));
        probed?;
        println!("probes: {probe_s:.2} s");
        for &(name, unit) in PER_LAYER {
            let value = layer.get(name).copied().unwrap_or(f64::NAN);
            metrics.push((name.to_string(), value, unit));
        }
    } else {
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("ops_per_s".into(), ops_per_s, "ops/s"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb, "MiB"));
    }
    let tally = &mut m.units.tally;
    for (name, value, unit) in &metrics {
        println!("metric: {name} = {value} {unit}");
        tally.check(value.is_finite(), || format!("metric {name} is not finite"));
    }
    for p in &tally.problems {
        println!("check failed: {p}");
    }
    println!("wall: {:.2} s", secs(t_main));

    let correct = tally.failed == 0 && tally.problems.is_empty();
    let json = Json::obj()
        .set("correct", Json::Bool(correct))
        .set("attempted", Json::Int(tally.attempted.max(1) as i64))
        .set("failed", Json::Int(tally.failed as i64))
        .set(
            "metrics",
            metrics
                .into_iter()
                .fold(Json::obj(), |obj, (name, value, unit)| {
                    obj.set(
                        &name,
                        Json::obj()
                            .set("value", Json::Num(value))
                            .set("unit", Json::Str(unit.into())),
                    )
                }),
        );
    Ok(Outcome { json, correct })
}

/// `tune_cold`: repetitions of (discarded one-service warm-up process,
/// timed full-fleet process), one input seed each, until `seconds` of
/// campaigns have run. A traced run runs each input seed twice, untraced
/// then traced, so the overhead compares like with like.
fn tune_cold(args: &Args) -> Result<Measured, BoxError> {
    let mut units = Units::default();
    let (mut setup_s, mut rss_mb) = (Vec::new(), Vec::new());
    let mut ab = AbStats {
        run_s: Vec::new(),
        samples: Vec::new(),
        attempts: Vec::new(),
        busy_frac: f64::NAN,
    };
    let (mut busy, mut timed_total) = (Vec::new(), 0.0);
    let mut slot = 0usize;
    loop {
        let traced = args.trace && slot % 2 == 1;
        let index = if args.trace { slot / 2 } else { slot };
        let (warmup, warmup_s) =
            timed(|| spawn("tune_warmup", args.seed, index, args.seconds, false));
        warmup?;
        let rec = spawn("tune_cold", args.seed, index, args.seconds, traced)?;
        units.references(Workload::TuneCold, args.seed, &rec);
        units.units(&rec);
        let wall = rec.f64("unit_wall_s");
        timed_total += wall;
        slot += 1;
        setup_s.push(warmup_s + rec.f64("setup_s"));
        rss_mb.push(rec.f64("rss_mb"));
        units.tally.check(rec.f64("fresh") == 1.0, || {
            "tune_cold did not start in a fresh process".into()
        });
        let warm_wall = rec.f64("ref_wall_s");
        units.tally.check(warm_wall <= COLD_GUARD * wall, || {
            format!("warm repeat took {warm_wall:.3} s of a {wall:.3} s campaign: the campaign was not cold")
        });
        println!(
            "unit: campaign {slot} traced={} tests={} wall={wall:.3} s warm_repeat={warm_wall:.3} s warmup={warmup_s:.3} s",
            u8::from(traced),
            rec.f64("unit_ops"),
        );
        if !traced {
            let tests = rec.f64s("test_wall_s");
            busy.push(tests.iter().sum::<f64>() / (workers() as f64 * wall));
            ab.run_s.extend(tests);
            ab.samples.extend(rec.f64s("test_samples"));
            ab.attempts.extend(rec.f64s("test_attempts"));
        }
        let mean_unit = timed_total / slot as f64;
        let enough_kinds = !args.trace || slot.is_multiple_of(2);
        if enough_kinds && timed_total + 0.5 * mean_unit >= args.seconds {
            break;
        }
    }
    ab.busy_frac = median(&busy);
    Ok(Measured {
        units,
        setup_s,
        rss_mb,
        cover_frac: ab.busy_frac,
        timed: TimedPhase {
            unit_walls: ab.run_s.clone(),
            ab: Some(ab),
        },
    })
}

/// `rollout_chaos` and `mesh_canary`: several child processes, each its
/// own cold set-up followed by a share of the timed phase.
fn warm(workload: Workload, args: &Args) -> Result<Measured, BoxError> {
    let mut units = Units::default();
    let (mut setup_s, mut rss_mb) = (Vec::new(), Vec::new());
    let mut unit_walls = Vec::new();
    let (mut covered, mut timed_total) = (0.0, 0.0);
    let children = warm_children(workload);
    let share = args.seconds / children as f64;
    for slot in 0..children {
        let rec = spawn(workload.name(), args.seed, slot, share, args.trace)?;
        units.references(workload, args.seed, &rec);
        units.units(&rec);
        setup_s.push(rec.f64("setup_s"));
        rss_mb.push(rec.f64("rss_mb"));

        let walls = rec.f64s("unit_wall_s");
        covered += walls.iter().sum::<f64>();
        timed_total += rec.f64("timed_s");
        let traced = rec.f64s("unit_traced");
        match workload {
            Workload::MeshCanary => unit_walls.extend(rec.f64s("canary_wall_s")),
            _ => unit_walls.extend(
                walls
                    .iter()
                    .zip(&traced)
                    .filter(|&(_, &t)| t == 0.0)
                    .map(|(&w, _)| w),
            ),
        }

        let cold = median(&rec.f64s("ref_wall_s"));
        let warm_unit = median(&walls);
        units.tally.check(warm_unit <= WARM_GUARD * cold, || {
            format!(
                "child {slot}: median timed unit {warm_unit:.4} s exceeds {WARM_GUARD} of its \
                 {cold:.3} s cold set-up unit: the warm-up did not take"
            )
        });
        println!(
            "unit: child {slot} set-up {:.3} s (cold unit {cold:.3} s) units={} median unit {warm_unit:.4} s",
            rec.f64("setup_s"),
            walls.len()
        );
    }
    Ok(Measured {
        units,
        setup_s,
        rss_mb,
        cover_frac: covered / timed_total,
        timed: TimedPhase {
            ab: None,
            unit_walls,
        },
    })
}
