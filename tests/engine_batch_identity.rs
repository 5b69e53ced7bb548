//! Bit-identity properties of the batched engine (ISSUE satellite):
//!
//! 1. Batch size is a pure performance control — the engine produces
//!    bit-identical counters and reports at every batch size, because
//!    chunking never moves a warm-up reset or context-switch flush and
//!    every structure sees its exact per-event access subsequence.
//! 2. The report memo (the snapshot/restore path behind cheap
//!    `AbEnvironment::fork`) serves results bit-identical to a full
//!    re-warmed evaluation.
//! 3. A fork of a *warmed* environment (memo and load-curve caches hot —
//!    the snapshot path) draws the same measurement sequence as a fork of
//!    a *cold* one (everything re-simulated — the re-warm path), so the
//!    stream registry is consumed identically either way.
//! 4. A multi-load pass (`run_loads`) returns, for every load, exactly the
//!    report a single-load `run_window` computes, whatever the batch size,
//!    memo state, duplicates, clamping, per-load flush points, or mix of
//!    memo hits and freshly evaluated loads.
//! 5. A trace shared through the trace memo — by every knob setting with
//!    the same seed and page mix, and by threads racing to publish it —
//!    drives the same reports as a freshly generated one.

use proptest::prelude::*;
use softsku::archsim::engine::{Engine, ServerConfig, WindowReport};
use softsku::archsim::{CdpPartition, StreamSpec, ThpMode};
use softsku::cluster::{AbEnvironment, EnvConfig};
use softsku::workloads::{Microservice, PlatformKind};

/// Every field of a report as exact bits: `u64` counters verbatim, `f64`
/// fields as raw IEEE-754 patterns. Equality of signatures is bit-identity
/// (a `PartialEq` compare would accept `-0.0 == 0.0`).
fn signature(r: &WindowReport) -> Vec<u64> {
    let c = &r.counters;
    vec![
        c.instructions,
        c.cycles.to_bits(),
        c.code_accesses,
        c.l1i_misses,
        c.l2_code_misses,
        c.llc_code_misses,
        c.data_accesses,
        c.loads,
        c.stores,
        c.l1d_misses,
        c.l2_data_misses,
        c.llc_data_misses,
        c.itlb_misses,
        c.itlb_walks,
        c.dtlb_misses,
        c.dtlb_load_misses,
        c.dtlb_store_misses,
        c.dtlb_walks,
        c.branches,
        c.branch_mispredicts,
        c.btb_misses,
        c.fp_ops,
        c.context_switches.to_bits(),
        c.mem_demand_lines.to_bits(),
        c.mem_prefetch_lines.to_bits(),
        c.mem_writeback_lines.to_bits(),
        c.mem_extra_lines.to_bits(),
        r.ipc_thread.to_bits(),
        r.ipc_core.to_bits(),
        r.mips_per_core.to_bits(),
        r.mips_total.to_bits(),
        r.bandwidth_gbps.to_bits(),
        r.mem_latency_ns.to_bits(),
        r.mem_utilization.to_bits(),
        u64::from(r.bandwidth_bound),
        r.cpi.base.to_bits(),
        r.cpi.frontend.to_bits(),
        r.cpi.bad_speculation.to_bits(),
        r.cpi.backend_memory.to_bits(),
        r.cpi.context_switch.to_bits(),
        r.tmam.retiring.to_bits(),
        r.tmam.frontend.to_bits(),
        r.tmam.bad_speculation.to_bits(),
        r.tmam.backend.to_bits(),
        r.effective_core_freq_ghz.to_bits(),
        r.context_switch_fraction.to_bits(),
    ]
}

fn engine_for(service: Microservice, seed: u64) -> Engine {
    let profile = service.profile(PlatformKind::Skylake18).unwrap();
    Engine::new(profile.stock_config.clone(), profile.stream.clone(), seed).unwrap()
}

/// `service`'s stream, optionally with a context-switch rate high enough
/// that each load of a multi-load pass flushes at different events (every
/// ~10k–200k instructions, so several times per window).
fn stream_for(service: Microservice, busy: bool) -> StreamSpec {
    let mut stream = service.profile(PlatformKind::Skylake18).unwrap().stream;
    if busy {
        stream.context_switch.rate_per_sec = 150_000.0;
        stream.context_switch.pollution_fraction = 0.3;
    }
    stream
}

fn busy_engine(service: Microservice, busy: bool, seed: u64) -> Engine {
    let profile = service.profile(PlatformKind::Skylake18).unwrap();
    Engine::new(profile.stock_config, stream_for(service, busy), seed).unwrap()
}

/// Single-load references: one memo-bypassing `run_window` per load.
fn single_load_signatures(
    engine: impl Fn() -> Engine,
    window: u64,
    loads: &[f64],
) -> Vec<Vec<u64>> {
    loads
        .iter()
        .map(|&l| signature(&engine().with_memo(false).run_window(window, l).unwrap()))
        .collect()
}

/// Load fractions for the multi-load pass: in-range grid points plus
/// values the engine clamps to 0.05 or 1.0. Drawing 1–4 of them from this
/// small set produces duplicates often.
const LOAD_CHOICES: [f64; 8] = [-0.4, 0.0, 0.3, 0.5, 0.75, 0.9, 1.0, 1.6];
const MULTI_BATCH_SIZES: [usize; 3] = [1, 7, 4096];

const SERVICES: [Microservice; 3] = [Microservice::Web, Microservice::Feed1, Microservice::Ads1];
const BATCH_SIZES: [usize; 3] = [1, 64, 4096];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batch size never changes a single output bit. Memoization is off on
    /// both sides so each run is a genuine evaluation, not a memo hit.
    #[test]
    fn any_batch_size_is_bit_identical(
        service_idx in 0usize..3,
        batch_idx in 0usize..3,
        seed in 1u64..1000,
    ) {
        let service = SERVICES[service_idx];
        let reference = engine_for(service, seed)
            .with_memo(false)
            .run_window(60_000, 0.9)
            .unwrap();
        let probe = engine_for(service, seed)
            .with_memo(false)
            .with_batch_size(BATCH_SIZES[batch_idx])
            .run_window(60_000, 0.9)
            .unwrap();
        prop_assert_eq!(signature(&reference), signature(&probe));
    }

    /// One multi-load pass matches a single-load window per load, bit for
    /// bit. With the memo on, the pass populates the memo (the references
    /// bypass it); a repeated (service, seed) draw would be served from the
    /// memo, which the memo-hit test pins to the same bits.
    #[test]
    fn run_loads_matches_run_window_per_load(
        service_idx in 0usize..3,
        seed in 1u64..1000,
        batch_idx in 0usize..3,
        memo in any::<bool>(),
        busy in any::<bool>(),
        load_idx in prop::collection::vec(0usize..LOAD_CHOICES.len(), 1..=4),
    ) {
        let service = SERVICES[service_idx];
        let loads: Vec<f64> = load_idx.iter().map(|&k| LOAD_CHOICES[k]).collect();
        let probe = busy_engine(service, busy, seed)
            .with_memo(memo)
            .with_batch_size(MULTI_BATCH_SIZES[batch_idx])
            .run_loads(60_000, &loads)
            .unwrap();
        let probe: Vec<Vec<u64>> = probe.iter().map(signature).collect();
        let reference = single_load_signatures(|| busy_engine(service, busy, seed), 60_000, &loads);
        prop_assert_eq!(reference, probe);
    }
}

/// The partial-memo path: one grid load is evaluated (and memoised) first,
/// so the later three-load call serves it from the memo and evaluates the
/// other two in one shared pass. Every report still matches its
/// single-load window, under a context-switch rate that gives each load
/// its own flush points.
#[test]
fn partial_memo_hit_merges_with_the_shared_pass() {
    const WINDOW: u64 = 64_000;
    let loads = [0.5, 0.75, 1.0];
    let engine = || busy_engine(Microservice::Feed1, true, 9_001);
    let first = engine().run_window(WINDOW, loads[1]).unwrap();
    let curve = engine().run_loads(WINDOW, &loads).unwrap();
    let reference = single_load_signatures(engine, WINDOW, &loads);
    assert_eq!(signature(&first), reference[1]);
    assert_eq!(curve.iter().map(signature).collect::<Vec<_>>(), reference);
    // The three busy loads flush at different events, so their structure
    // counters differ: the pass really kept one hierarchy per load.
    assert_ne!(curve[0].counters.l1i_misses, curve[2].counters.l1i_misses);
}

/// A memo hit is bit-identical to the evaluation that populated it and to a
/// memo-bypassing re-evaluation — the snapshot path returns exactly what
/// the re-warm path would compute.
#[test]
fn memo_hit_matches_full_evaluation_bit_for_bit() {
    let run = |memo: bool| {
        engine_for(Microservice::Web, 4242)
            .with_memo(memo)
            .run_colocated(70_000, 0.8, 5.0, Some(0.6))
            .unwrap()
    };
    let populate = run(true); // first call: full evaluation, memo insert
    let hit = run(true); // second call: served from the memo
    let bypass = run(false); // forced re-evaluation
    assert_eq!(signature(&populate), signature(&hit));
    assert_eq!(signature(&populate), signature(&bypass));
}

/// Forking a warmed environment (caches and memo hot) and forking a cold
/// one must draw identical measurement sequences: the fork's RNG streams
/// derive from the fork seed alone, and memo hits are bit-identical to
/// re-simulation, so warm-up state can never leak into a replica's draws.
#[test]
fn fork_of_warmed_env_matches_fork_of_cold_env() {
    let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
    let cfg = EnvConfig::fast_test();

    let mut warmed = AbEnvironment::new(profile.clone(), cfg, 31).unwrap();
    for _ in 0..5 {
        warmed.sample_pair().unwrap(); // warm load curves + report memo
    }
    let cold = AbEnvironment::new(profile, cfg, 31).unwrap();

    let mut fork_warm = warmed.fork(77);
    let mut fork_cold = cold.fork(77);
    for step in 0..20 {
        let a = fork_warm.sample_pair().unwrap();
        let b = fork_cold.sample_pair().unwrap();
        assert_eq!(
            (
                a.a_mips.to_bits(),
                a.b_mips.to_bits(),
                a.load.to_bits(),
                a.time_s.to_bits()
            ),
            (
                b.a_mips.to_bits(),
                b.b_mips.to_bits(),
                b.load.to_bits(),
                b.time_s.to_bits()
            ),
            "fork draw sequences diverged at step {step}"
        );
    }
}

/// The trace memo on vs. off over a frequency × CDP × THP sweep that shares
/// one seed: the frequency and CDP settings of each THP mode replay one
/// memoised trace. The sweep runs once on one thread and once split across
/// two threads that start on the same trace, so they race to generate and
/// publish it. Every `run_loads` report matches its memo-off evaluation,
/// signature for signature.
#[test]
fn shared_traces_match_fresh_generation_across_threads() {
    const WINDOW: u64 = 20_000;
    let loads = [0.5, 1.0];
    let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
    let stock = profile.stock_config.clone();
    let (slow, fast) = stock.platform.core_freq_range_ghz;
    let ways = stock.llc_ways_enabled;
    // THP outermost, so consecutive configs share a trace.
    let mut sweep = Vec::new();
    for thp in [ThpMode::AlwaysOn, ThpMode::NeverOn] {
        for core_freq_ghz in [slow, fast] {
            for cdp in [
                None,
                Some(CdpPartition {
                    data_ways: ways - 3,
                    code_ways: 3,
                }),
            ] {
                sweep.push(ServerConfig {
                    thp,
                    core_freq_ghz,
                    cdp,
                    ..stock.clone()
                });
            }
        }
    }
    let run = |config: &ServerConfig, seed: u64, memo: bool| -> Vec<Vec<u64>> {
        Engine::new(config.clone(), profile.stream.clone(), seed)
            .unwrap()
            .with_memo(memo)
            .run_loads(WINDOW, &loads)
            .unwrap()
            .iter()
            .map(signature)
            .collect()
    };
    // A fresh seed per sweep, so the second sweep misses the trace memo
    // again instead of reading the first sweep's reports.
    for (seed, threads) in [(0x7ACE_0001, 1), (0x7ACE_0002, 2)] {
        let fresh: Vec<_> = sweep.iter().map(|c| run(c, seed, false)).collect();
        let mut shared: Vec<(usize, Vec<Vec<u64>>)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let run = &run;
                    let sweep = &sweep;
                    s.spawn(move || {
                        (t..sweep.len())
                            .step_by(threads)
                            .map(|i| (i, run(&sweep[i], seed, true)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        shared.sort_by_key(|(i, _)| *i);
        let shared: Vec<_> = shared.into_iter().map(|(_, r)| r).collect();
        assert_eq!(shared, fresh, "{threads}-thread sweep");
    }
}
