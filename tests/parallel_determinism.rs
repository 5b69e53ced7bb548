//! Determinism suite for the parallel tuning scheduler (ISSUE satellite):
//! the same sweep must produce verdict-for-verdict identical design-space
//! maps — and the same composed configuration — for any worker count,
//! because each test's replica seed derives from the test's identity, not
//! from scheduling. Also pins the parallel sweep to the serial strategy's
//! winners, with and without injected production hazards, and the fleet
//! tuner's interleaved plan to the per-service sweeps it replaces.

use softsku::cluster::{AbEnvironment, EnvConfig, HazardConfig};
use softsku::knobs::{Knob, KnobSpace};
use softsku::usku::metric::PerformanceMetric;
use softsku::usku::scheduler::{
    parallel_exhaustive_sweep, parallel_independent_sweep, FleetTuner, Schedule,
};
use softsku::usku::search::{independent_sweep, SearchOutcome};
use softsku::usku::{AbTestConfig, AbTester};
use softsku::workloads::{Microservice, PlatformKind};
use std::num::NonZeroUsize;

const SEED: u64 = 21;
const KNOBS: [Knob; 2] = [Knob::Thp, Knob::Shp];

fn setup(env_config: EnvConfig) -> (AbTester, AbEnvironment, KnobSpace) {
    let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
    let space = KnobSpace::for_platform(&profile.production_config.platform, profile.constraints);
    let env = AbEnvironment::new(profile, env_config, SEED).unwrap();
    let tester = AbTester::new(AbTestConfig::fast_test(), PerformanceMetric::Mips);
    (tester, env, space)
}

fn independent_with(workers: usize, env_config: EnvConfig) -> SearchOutcome {
    let (tester, mut env, space) = setup(env_config);
    let baseline = env.profile().production_config.clone();
    parallel_independent_sweep(
        &tester,
        &mut env,
        &baseline,
        &space,
        &KNOBS,
        Schedule::new(SEED).with_workers(NonZeroUsize::new(workers).unwrap()),
    )
    .unwrap()
}

fn exhaustive_with(workers: usize, env_config: EnvConfig) -> SearchOutcome {
    let (tester, mut env, space) = setup(env_config);
    let baseline = env.profile().production_config.clone();
    parallel_exhaustive_sweep(
        &tester,
        &mut env,
        &baseline,
        &space,
        &[Knob::Thp, Knob::CoreFrequency],
        6,
        Schedule::new(SEED).with_workers(NonZeroUsize::new(workers).unwrap()),
    )
    .unwrap()
}

/// Bit-level equality of two outcomes: every verdict and sample count (via
/// the rendered map), every selection (knob, setting, exact gain), and the
/// composed configuration.
fn assert_identical(a: &SearchOutcome, b: &SearchOutcome, what: &str) {
    assert_eq!(a.map.render(), b.map.render(), "{what}: maps diverged");
    assert_eq!(a.best_config, b.best_config, "{what}: best_config diverged");
    assert_eq!(
        a.selected.len(),
        b.selected.len(),
        "{what}: selection count diverged"
    );
    for (sa, sb) in a.selected.iter().zip(&b.selected) {
        assert_eq!(sa.0, sb.0, "{what}: selected knob diverged");
        assert_eq!(sa.1, sb.1, "{what}: selected setting diverged");
        assert_eq!(
            sa.2.to_bits(),
            sb.2.to_bits(),
            "{what}: selected gain not bit-identical"
        );
    }
}

#[test]
fn independent_sweep_is_bit_identical_across_worker_counts() {
    let one = independent_with(1, EnvConfig::fast_test());
    let two = independent_with(2, EnvConfig::fast_test());
    let eight = independent_with(8, EnvConfig::fast_test());
    assert_identical(&one, &two, "1 vs 2 workers");
    assert_identical(&one, &eight, "1 vs 8 workers");
    assert!(one.map.test_count() >= 7, "sweep actually ran tests");
}

#[test]
fn independent_sweep_stays_deterministic_under_hazards() {
    let mut config = EnvConfig::fast_test();
    config.hazards = HazardConfig::moderate();
    let one = independent_with(1, config);
    let two = independent_with(2, config);
    let eight = independent_with(8, config);
    assert_identical(&one, &two, "hazards, 1 vs 2 workers");
    assert_identical(&one, &eight, "hazards, 1 vs 8 workers");
}

#[test]
fn parallel_sweep_matches_the_serial_strategy_winners() {
    let (tester, mut env, space) = setup(EnvConfig::fast_test());
    let baseline = env.profile().production_config.clone();
    let serial = independent_sweep(&tester, &mut env, &baseline, &space, &KNOBS).unwrap();
    let parallel = independent_with(4, EnvConfig::fast_test());
    // The serial sweep samples one shared environment, so bit-level maps
    // differ; the *decisions* — composed config and chosen settings — must
    // agree.
    assert_eq!(serial.best_config, parallel.best_config);
    let serial_picks: Vec<_> = serial.selected.iter().map(|s| (s.0, s.1)).collect();
    let parallel_picks: Vec<_> = parallel.selected.iter().map(|s| (s.0, s.1)).collect();
    assert_eq!(serial_picks, parallel_picks);
}

#[test]
fn exhaustive_sweep_is_bit_identical_across_worker_counts() {
    let one = exhaustive_with(1, EnvConfig::fast_test());
    let three = exhaustive_with(3, EnvConfig::fast_test());
    assert_identical(&one, &three, "exhaustive, 1 vs 3 workers");
    assert!(
        !one.map.joint_results().is_empty(),
        "exhaustive sweep recorded joint configurations"
    );
}

#[test]
fn fleet_plan_covers_exactly_the_per_service_sequential_tests() {
    let targets = [
        (Microservice::Web, PlatformKind::Skylake18),
        (Microservice::Cache2, PlatformKind::Skylake18),
    ];
    let tuner = |workers: usize| {
        FleetTuner::new(AbTestConfig::fast_test(), EnvConfig::fast_test(), SEED)
            .with_knobs(vec![Knob::Thp])
            .with_workers(NonZeroUsize::new(workers).unwrap())
    };
    // The paper's operating mode: each service tuned alone, back to back.
    let sequential: Vec<usize> = targets
        .iter()
        .map(|&target| tuner(1).tune(&[target]).unwrap().test_count())
        .collect();
    // The fleet tuner interleaves every service's tests on one pool.
    let fleet = tuner(2).tune(&targets).unwrap();
    let per_service: Vec<usize> = fleet
        .services
        .iter()
        .map(|s| s.outcome.map.test_count())
        .collect();
    assert_eq!(per_service, sequential);
    assert_eq!(fleet.test_count(), sequential.iter().sum::<usize>());
}
