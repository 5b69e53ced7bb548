//! End-to-end chaos campaign (ISSUE acceptance): a seeded multi-service
//! rollout under domain-correlated faults completes with zero panics,
//! every injected fault lands in the `chaos.*` ledger, quarantine backs
//! off exponentially, and the whole report replays bit-identically across
//! 1 and 8 workers. Ablations then show each safety mechanism changing a
//! real outcome: the circuit breaker throttles a correlated rollback
//! storm, quarantine retries rescue a service that one-strike demotion
//! would kill, and the canary budget paces an otherwise-instant ramp.
//! Forcing every brownout dark exercises the degrade → recover path.

use softsku::cluster::{ChaosConfig, FailureDomain, FleetTopology, StagedFleet, StagedFleetConfig};
use softsku::rollout::{
    demo_campaign, CanaryBudget, CoordinatorConfig, CoordinatorReport, FleetCoordinator,
    ServicePhase, ServicePlan,
};
use softsku::telemetry::streams::IdentitySeed;
use softsku::telemetry::{LedgerKey, SeriesKey};
use softsku::workloads::{Microservice, PlatformKind};
use std::num::NonZeroUsize;

const SEED: u64 = 21;

fn run_demo(seed: u64, workers: usize) -> CoordinatorReport {
    let (topology, chaos, plans) = demo_campaign(seed).unwrap();
    FleetCoordinator::new(CoordinatorConfig::fast_test())
        .with_workers(NonZeroUsize::new(workers).unwrap())
        .run(&topology, chaos, plans, seed)
        .unwrap()
}

/// A quiet service plan: candidate identical to the baseline and no
/// organic code churn, so every guardrail reaction in these tests is
/// attributable to injected chaos alone.
fn quiet_plan(service: Microservice, platform: PlatformKind, domain: FailureDomain) -> ServicePlan {
    let profile = service.profile(platform).unwrap();
    let baseline = profile.production_config.clone();
    let candidate = baseline.clone();
    let mut staged = StagedFleetConfig::fast_test();
    staged.replicas = 20;
    staged.window_insns = 6_000;
    staged.pushes_per_hour = 0.0;
    let name = service.name().to_lowercase();
    let fleet_seed = IdentitySeed::new(SEED)
        .field(&name)
        .field(&domain.to_string())
        .finish();
    let fleet = StagedFleet::new(profile, baseline, candidate.clone(), staged, fleet_seed).unwrap();
    ServicePlan {
        name,
        fleet,
        candidate,
        needs_reboot: false,
        domain,
    }
}

/// Chaos that only sends correlated code-push waves.
fn waves_only(rate_per_day: f64) -> ChaosConfig {
    ChaosConfig {
        push_wave_rate_per_day: rate_per_day,
        push_wave_erosion: 0.08,
        ..ChaosConfig::none()
    }
}

/// The demo campaign (4 services, 2 pools, all four fault families)
/// completes without panics, records every fault in the `chaos.*` ledger,
/// quarantines with exponential backoff, and is bit-identical between a
/// serial and an 8-worker run.
#[test]
fn demo_campaign_survives_chaos_bit_identically() {
    let serial = run_demo(SEED, 1);
    let wide = run_demo(SEED, 8);
    assert_eq!(
        format!("{serial:?}"),
        format!("{wide:?}"),
        "coordinator outcomes must not depend on worker count"
    );

    assert!(serial.converged(), "{}", serial.render());
    assert_eq!(serial.services.len(), 4);
    for (family, injected) in serial.faults.iter().enumerate() {
        assert!(*injected > 0, "fault family {family} never fired");
    }

    // Every injected fault is a `chaos.*` ledger entry — count them back
    // out of the ledger and match the injection counters exactly.
    let families = [
        LedgerKey::ChaosBrownout.name(),
        LedgerKey::ChaosPushWave.name(),
        LedgerKey::ChaosCanaryCrash.name(),
        LedgerKey::ChaosStall.name(),
    ];
    for (metric, injected) in families.iter().zip(serial.faults) {
        let logged: usize = serial
            .ledger
            .keys()
            .filter(|k| k.metric() == *metric)
            .map(|k| serial.ledger.len(k))
            .sum();
        assert_eq!(logged as u64, injected, "{metric} entries");
    }

    // Quarantine backs off exponentially: each successive entry for the
    // same service doubles the previous wait.
    let quarantined: Vec<&SeriesKey> = serial
        .ledger
        .keys()
        .filter(|k| k.metric() == LedgerKey::CoordinatorQuarantine.name())
        .collect();
    assert!(!quarantined.is_empty(), "campaign must quarantine someone");
    let mut saw_backoff_growth = false;
    for key in quarantined {
        let waits: Vec<f64> = serial
            .ledger
            .raw_points(key)
            .iter()
            .map(|&(_, backoff)| backoff)
            .collect();
        for pair in waits.windows(2) {
            assert_eq!(pair[1], pair[0] * 2.0, "backoff must double per strike");
            saw_backoff_growth = true;
        }
    }
    assert!(saw_backoff_growth, "need at least one repeated quarantine");
    assert!(
        serial.services.iter().any(|s| s.retries > 0),
        "a quarantined service must get a retry"
    );
}

/// A correlated code-push wave storm rolls back several same-pool services
/// inside the breaker window and trips the fleet-wide circuit breaker;
/// each trip's freeze pauses retries, so over a fixed horizon the guarded
/// fleet burns strictly fewer rollbacks into the storm than the same fleet
/// with the breaker disabled.
#[test]
fn correlated_push_waves_trip_the_breaker() {
    let topology = FleetTopology::paper_pools();
    let plans = || {
        vec![
            quiet_plan(
                Microservice::Feed1,
                PlatformKind::Skylake18,
                FailureDomain::new("skl18", "r0"),
            ),
            quiet_plan(
                Microservice::Ads1,
                PlatformKind::Skylake18,
                FailureDomain::new("skl18", "r0"),
            ),
            quiet_plan(
                Microservice::Cache2,
                PlatformKind::Skylake18,
                FailureDomain::new("skl18", "r1"),
            ),
        ]
    };
    // A persistent storm — every retry is doomed by the next wave — with
    // demotion pushed out of reach so the two runs differ only in whether
    // the breaker throttles the retry cadence over the fixed horizon.
    let chaos = waves_only(48.0);
    let mut guarded_cfg = CoordinatorConfig::fast_test();
    guarded_cfg.max_strikes = 12;
    guarded_cfg.quarantine_backoff_ticks = 4;
    guarded_cfg.breaker_freeze_ticks = 36;
    guarded_cfg.max_ticks = 240;
    let mut unguarded_cfg = guarded_cfg.clone();
    unguarded_cfg.breaker_rollbacks = usize::MAX;

    let guarded = FleetCoordinator::new(guarded_cfg)
        .with_workers(NonZeroUsize::new(2).unwrap())
        .run(&topology, chaos, plans(), SEED)
        .unwrap();
    assert!(
        guarded.breaker_trips >= 1,
        "correlated rollbacks must trip the breaker:\n{}",
        guarded.render()
    );
    assert_eq!(
        guarded.ledger.len(&SeriesKey::keyed(
            "fleet",
            LedgerKey::CoordinatorBreakerTrip
        )) as u64,
        guarded.breaker_trips
    );
    assert!(
        guarded.quarantines >= 1,
        "storm survivors must pass through quarantine"
    );

    let unguarded = FleetCoordinator::new(unguarded_cfg)
        .with_workers(NonZeroUsize::new(2).unwrap())
        .run(&topology, chaos, plans(), SEED)
        .unwrap();
    assert_eq!(unguarded.breaker_trips, 0);
    assert!(
        unguarded.rollbacks > guarded.rollbacks,
        "breaker off must burn more rollbacks: {} vs {} with it on",
        unguarded.rollbacks,
        guarded.rollbacks
    );
}

/// One early push wave rolls a service back once; quarantine-and-retry
/// redeploys it against current code and the rollout completes. The same
/// campaign with `max_strikes = 1` (quarantine effectively off) demotes
/// the service on that first strike instead.
#[test]
fn quarantine_retry_rescues_what_demotion_would_kill() {
    let topology = FleetTopology::paper_pools();
    let plans = || {
        vec![quiet_plan(
            Microservice::Web,
            PlatformKind::Skylake18,
            FailureDomain::new("skl18", "r0"),
        )]
    };
    let chaos = waves_only(6.0);
    let seed = 1;

    let patient = FleetCoordinator::new(CoordinatorConfig::fast_test())
        .run(&topology, chaos, plans(), seed)
        .unwrap();
    let s = &patient.services[0];
    assert!(s.rollbacks >= 1, "the wave must cause a strike:\n{s:?}");
    assert!(s.retries >= 1, "quarantine must grant a retry:\n{s:?}");
    assert!(
        s.deployed(),
        "the retry must complete the rollout:\n{}",
        patient.render()
    );

    let mut strict_cfg = CoordinatorConfig::fast_test();
    strict_cfg.max_strikes = 1;
    let strict = FleetCoordinator::new(strict_cfg)
        .run(&topology, chaos, plans(), seed)
        .unwrap();
    assert_eq!(
        strict.services[0].phase,
        ServicePhase::Demoted,
        "one-strike demotion must kill the same rollout quarantine saved"
    );
    assert_eq!(strict.services[0].retries, 0);
}

/// The per-tick canary budget paces exposure: a chaos-free rollout under a
/// one-replica-per-tick budget takes strictly more coordinator ticks than
/// the identical rollout with the budget unlimited.
#[test]
fn canary_budget_paces_the_ramp() {
    let topology = FleetTopology::paper_pools();
    let plans = || {
        vec![quiet_plan(
            Microservice::Web,
            PlatformKind::Skylake18,
            FailureDomain::new("skl18", "r1"),
        )]
    };

    let mut paced_cfg = CoordinatorConfig::fast_test();
    paced_cfg.budget.growth_per_tick = 1;
    let paced = FleetCoordinator::new(paced_cfg)
        .run(&topology, ChaosConfig::none(), plans(), SEED)
        .unwrap();

    let mut open_cfg = CoordinatorConfig::fast_test();
    open_cfg.budget = CanaryBudget::unlimited();
    let open = FleetCoordinator::new(open_cfg)
        .run(&topology, ChaosConfig::none(), plans(), SEED)
        .unwrap();

    assert!(paced.converged() && open.converged());
    assert!(paced.services[0].deployed() && open.services[0].deployed());
    assert!(
        paced.ticks > open.ticks,
        "budget pacing must lengthen the ramp: {} vs {} unmetered",
        paced.ticks,
        open.ticks
    );
}

/// With every brownout forced dark, graceful degradation dominates: the
/// campaign must record degrade → recover episodes (and so an MTTR).
#[test]
fn forced_blackouts_degrade_and_recover() {
    let (topology, _, plans) = demo_campaign(SEED).unwrap();
    let mut dark = ChaosConfig::campaign();
    dark.blackout_prob = 1.0;
    let report = FleetCoordinator::new(CoordinatorConfig::fast_test())
        .run(&topology, dark, plans, SEED)
        .unwrap();
    assert!(
        report.recoveries > 0,
        "forced blackouts must produce degrade→recover episodes:\n{}",
        report.render()
    );
}
