//! Soft-SKU composition with interaction detection (paper Secs. 5.3/6).
//!
//! The design-space map holds *per-knob* winners, each measured alone
//! against the production baseline. The paper's soft SKU applies them
//! together — but knobs interact (Sec. 6: "the benefits of individual knob
//! configurations are not additive"), so the composed configuration must be
//! re-validated jointly before it earns fleet deployment. [`SkuComposer`]
//! runs that joint validation as parallel scheduler replicas and, when the
//! composition underperforms the best single knob, demotes the SKU to the
//! strongest per-knob winner that still survives validation.

use crate::error::RolloutError;
use softsku_archsim::engine::ServerConfig;
use softsku_cluster::AbEnvironment;
use softsku_knobs::{Knob, KnobSetting};
use softsku_telemetry::streams::IdentitySeed;
use softsku_telemetry::trace::{AttrValue, TraceSink};
use std::num::NonZeroUsize;
use usku::abtest::{AbTestConfig, AbTestResult, AbTester};
use usku::map::DesignSpaceMap;
use usku::metric::PerformanceMetric;
use usku::profile::ArmCpiStacks;
use usku::scheduler::{run_replicas, trace_test_span, ReplicaOutput};

/// Validation parameters of the composer.
#[derive(Debug, Clone, Copy)]
pub struct ComposerConfig {
    /// Independent A/B validation replicas per candidate configuration; the
    /// combined verdict needs a strict majority of `Better` outcomes.
    pub replicas: usize,
    /// The composed SKU must retain at least this fraction of the best
    /// single knob's *measured* gain, or it is demoted (interaction
    /// detection).
    pub min_composed_fraction: f64,
}

impl ComposerConfig {
    /// Small, fast parameters for tests and smoke runs.
    pub fn fast_test() -> Self {
        ComposerConfig {
            replicas: 3,
            min_composed_fraction: 0.8,
        }
    }
}

impl Default for ComposerConfig {
    fn default() -> Self {
        ComposerConfig {
            replicas: 5,
            min_composed_fraction: 0.9,
        }
    }
}

/// What the composer decided to deploy.
#[derive(Debug, Clone, PartialEq)]
pub enum CompositionDecision {
    /// The jointly validated composition of every per-knob winner.
    Composed {
        /// The knobs whose winners were composed.
        knobs: Vec<Knob>,
    },
    /// Knob interactions sank the composition; the strongest per-knob
    /// winner that survived validation is deployed alone.
    PerKnobFallback {
        /// The surviving knob.
        knob: Knob,
        /// Its winning setting.
        setting: KnobSetting,
    },
    /// Nothing survived validation; the production baseline stands.
    Baseline,
}

/// Joint validation of one candidate configuration across replicas.
#[derive(Debug, Clone)]
pub struct CandidateValidation {
    /// Display label of the candidate.
    pub label: String,
    /// Whether a strict majority of replicas returned `Better`.
    pub accepted: bool,
    /// Median measured gain across the `Better` replicas (0.0 if none).
    pub gain: f64,
    /// Replicas that returned `Better`.
    pub better_votes: usize,
    /// Replicas run.
    pub replicas: usize,
    /// The per-replica A/B results, in replica order.
    pub results: Vec<AbTestResult>,
    /// Simulated machine-seconds consumed across the replicas.
    pub sim_time_s: f64,
}

/// The composed-SKU outcome.
#[derive(Debug)]
pub struct Composition {
    /// What to deploy.
    pub decision: CompositionDecision,
    /// The deployable configuration (the baseline itself for
    /// [`CompositionDecision::Baseline`]).
    pub config: ServerConfig,
    /// Measured gain of the deployed configuration (0.0 for baseline).
    pub measured_gain: f64,
    /// The per-knob winners the map claimed, in knob order.
    pub winners: Vec<(Knob, KnobSetting, f64)>,
    /// Every joint validation run, in decision order.
    pub validations: Vec<CandidateValidation>,
}

impl Composition {
    /// The knobs the deployed configuration changes relative to baseline.
    pub fn deployed_knobs(&self) -> Vec<Knob> {
        match &self.decision {
            CompositionDecision::Composed { knobs } => knobs.clone(),
            CompositionDecision::PerKnobFallback { knob, .. } => vec![*knob],
            CompositionDecision::Baseline => Vec::new(),
        }
    }
}

impl CompositionDecision {
    /// Stable lowercase category label, used as a trace attribute and in
    /// `skuctl` output.
    pub fn label(&self) -> &'static str {
        match self {
            CompositionDecision::Composed { .. } => "composed",
            CompositionDecision::PerKnobFallback { .. } => "per-knob-fallback",
            CompositionDecision::Baseline => "baseline",
        }
    }
}

/// Composes per-knob winners into a soft SKU and validates the composition
/// jointly on parallel environment replicas.
#[derive(Debug)]
pub struct SkuComposer {
    tester: AbTester,
    config: ComposerConfig,
    base_seed: u64,
    workers: NonZeroUsize,
}

/// One validation replica: its derived seed.
struct ValidationUnit {
    seed: u64,
}

impl SkuComposer {
    /// Creates a composer with the given A/B stopping rules, metric, and
    /// validation parameters.
    pub fn new(
        abtest: AbTestConfig,
        metric: PerformanceMetric,
        config: ComposerConfig,
        base_seed: u64,
    ) -> Self {
        SkuComposer {
            tester: AbTester::new(abtest, metric),
            config,
            base_seed,
            workers: usku::scheduler::default_workers(),
        }
    }

    /// Overrides the worker count used for validation replicas.
    pub fn with_workers(mut self, workers: NonZeroUsize) -> Self {
        self.workers = workers;
        self
    }

    /// Composes the map's per-knob winners onto `baseline` and validates.
    ///
    /// With no winners the baseline stands. With one winner the composition
    /// *is* that winner, so a single validation decides between it and the
    /// baseline. With several, both the composition and the best single
    /// winner are measured; the composition deploys only if it is accepted
    /// and keeps [`ComposerConfig::min_composed_fraction`] of the single
    /// knob's measured gain — otherwise winners are retried alone in
    /// descending claimed-gain order until one validates.
    ///
    /// # Errors
    ///
    /// Tester/environment errors; rejections are decisions, not errors.
    pub fn compose(
        &self,
        proto: &mut AbEnvironment,
        baseline: &ServerConfig,
        map: &DesignSpaceMap,
    ) -> Result<Composition, RolloutError> {
        self.compose_traced(proto, baseline, map, &mut TraceSink::disabled())
    }

    /// [`SkuComposer::compose`] with observability: a root `compose` span
    /// on the sink's current track (time axis = cumulative validation
    /// sim time) carrying the decision and measured gain, one child span
    /// per joint validation, and one grandchild span per validation
    /// replica with the full A/B record and per-arm TMAM attribution.
    ///
    /// Spans are recorded post-merge in canonical order; the composition
    /// outcome is bit-identical with tracing on or off.
    ///
    /// # Errors
    ///
    /// Tester/environment errors; rejections are decisions, not errors.
    pub fn compose_traced(
        &self,
        proto: &mut AbEnvironment,
        baseline: &ServerConfig,
        map: &DesignSpaceMap,
        sink: &mut TraceSink,
    ) -> Result<Composition, RolloutError> {
        let service = proto.profile().service.name().to_string();
        let root = sink.open("compose", &format!("compose {service}"), 0.0);
        sink.attr(root, "service", AttrValue::Str(service));
        let mut cursor = 0.0;
        let result = self.compose_inner(proto, baseline, map, sink, &mut cursor);
        match &result {
            Ok(c) => {
                sink.attr(
                    root,
                    "decision",
                    AttrValue::Str(c.decision.label().to_string()),
                );
                sink.attr(root, "measured_gain", AttrValue::F64(c.measured_gain));
                sink.attr(root, "winners", AttrValue::Int(c.winners.len() as i64));
            }
            Err(_) => sink.attr(root, "decision", AttrValue::Str("error".to_string())),
        }
        sink.close(root, cursor);
        result
    }

    fn compose_inner(
        &self,
        proto: &mut AbEnvironment,
        baseline: &ServerConfig,
        map: &DesignSpaceMap,
        sink: &mut TraceSink,
        cursor: &mut f64,
    ) -> Result<Composition, RolloutError> {
        let winners = map.winners();
        let mut validations = Vec::new();
        if winners.is_empty() {
            return Ok(Composition {
                decision: CompositionDecision::Baseline,
                config: baseline.clone(),
                measured_gain: 0.0,
                winners,
                validations,
            });
        }

        let mut composed = baseline.clone();
        for (_, setting, _) in &winners {
            setting
                .apply(&mut composed)
                .map_err(usku::UskuError::Knob)?;
        }
        let composed_label = winners[winners.len() - 1].1;
        let composed_name = winners
            .iter()
            .map(|(_, s, _)| s.to_string())
            .collect::<Vec<_>>()
            .join(" + ");
        warm_baseline(proto, baseline);

        let composed_v = self.validate(
            proto,
            baseline,
            &composed,
            composed_label,
            &composed_name,
            sink,
            cursor,
        )?;
        let composed_accepted = composed_v.accepted;
        let composed_gain = composed_v.gain;
        validations.push(composed_v);

        if winners.len() == 1 {
            // One winner: the composition and the per-knob SKU coincide.
            let decision = if composed_accepted {
                CompositionDecision::Composed {
                    knobs: vec![winners[0].0],
                }
            } else {
                CompositionDecision::Baseline
            };
            return Ok(self.finish(
                decision,
                baseline,
                composed,
                composed_gain,
                winners,
                validations,
            ));
        }

        // Interaction detection: measure the strongest single claim under
        // the same validation regime and compare measured gains.
        let (bk, bs, _) = map.best_single().expect("winners exist");
        let single_v = self.validate_single(proto, baseline, bs, sink, cursor)?;
        let single_accepted = single_v.accepted;
        let single_gain = single_v.gain;
        validations.push(single_v);

        let composed_holds = composed_accepted
            && (!single_accepted
                || composed_gain >= self.config.min_composed_fraction * single_gain);
        if composed_holds {
            let knobs = winners.iter().map(|(k, _, _)| *k).collect();
            return Ok(self.finish(
                CompositionDecision::Composed { knobs },
                baseline,
                composed,
                composed_gain,
                winners,
                validations,
            ));
        }
        if single_accepted {
            let mut config = baseline.clone();
            bs.apply(&mut config).map_err(usku::UskuError::Knob)?;
            return Ok(self.finish(
                CompositionDecision::PerKnobFallback {
                    knob: bk,
                    setting: bs,
                },
                baseline,
                config,
                single_gain,
                winners,
                validations,
            ));
        }

        // The best single claim failed too; retry the remaining winners in
        // descending claimed-gain order (stable sort keeps knob order on
        // ties, so the scan order is canonical).
        let mut ranked = winners.clone();
        ranked.sort_by(|a, b| b.2.total_cmp(&a.2));
        for (knob, setting, _) in ranked {
            if setting == bs {
                continue; // already measured above
            }
            let v = self.validate_single(proto, baseline, setting, sink, cursor)?;
            let accepted = v.accepted;
            let gain = v.gain;
            validations.push(v);
            if accepted {
                let mut config = baseline.clone();
                setting.apply(&mut config).map_err(usku::UskuError::Knob)?;
                return Ok(self.finish(
                    CompositionDecision::PerKnobFallback { knob, setting },
                    baseline,
                    config,
                    gain,
                    winners,
                    validations,
                ));
            }
        }
        Ok(self.finish(
            CompositionDecision::Baseline,
            baseline,
            baseline.clone(),
            0.0,
            winners,
            validations,
        ))
    }

    fn finish(
        &self,
        decision: CompositionDecision,
        baseline: &ServerConfig,
        config: ServerConfig,
        measured_gain: f64,
        winners: Vec<(Knob, KnobSetting, f64)>,
        validations: Vec<CandidateValidation>,
    ) -> Composition {
        let config = if decision == CompositionDecision::Baseline {
            baseline.clone()
        } else {
            config
        };
        Composition {
            decision,
            config,
            measured_gain,
            winners,
            validations,
        }
    }

    fn validate_single(
        &self,
        proto: &AbEnvironment,
        baseline: &ServerConfig,
        setting: KnobSetting,
        sink: &mut TraceSink,
        cursor: &mut f64,
    ) -> Result<CandidateValidation, RolloutError> {
        let mut config = baseline.clone();
        setting.apply(&mut config).map_err(usku::UskuError::Knob)?;
        self.validate(
            proto,
            baseline,
            &config,
            setting,
            &setting.to_string(),
            sink,
            cursor,
        )
    }

    /// Validates one candidate configuration on `replicas` forked
    /// environments, each seeded purely from the candidate's identity and
    /// the replica index — the verdict cannot depend on worker count.
    ///
    /// When the sink is enabled, records a `compose.validate` span at the
    /// caller's cumulative sim-time cursor with one child span per replica
    /// (spans laid down post-merge, in replica order), and advances the
    /// cursor by the validation's total simulated time.
    #[allow(clippy::too_many_arguments)]
    fn validate(
        &self,
        proto: &AbEnvironment,
        baseline: &ServerConfig,
        candidate: &ServerConfig,
        label: KnobSetting,
        name: &str,
        sink: &mut TraceSink,
        cursor: &mut f64,
    ) -> Result<CandidateValidation, RolloutError> {
        let service = proto.profile().service.name();
        let platform = proto.profile().platform.to_string();
        let units: Vec<ValidationUnit> = (0..self.config.replicas.max(1))
            .map(|i| ValidationUnit {
                seed: IdentitySeed::new(self.base_seed)
                    .field(service)
                    .field("compose.validate")
                    .field(name)
                    .field(&i.to_string())
                    .finish(),
            })
            .collect();
        let needs_reboot = candidate.active_cores != baseline.active_cores
            || candidate.shp_pages != baseline.shp_pages;
        let probe_cpi = sink.is_enabled();
        let runs = run_replicas(&units, self.workers.get(), |unit: &ValidationUnit| {
            let mut env = proto.fork(unit.seed);
            let result =
                self.tester
                    .run_config(&mut env, baseline, candidate, needs_reboot, label)?;
            // Sim time read before the (read-only) CPI probe, so traced and
            // untraced runs report identical numbers.
            let sim_time_s = env.time_s();
            let mut out = ReplicaOutput::new(result, sim_time_s);
            if probe_cpi {
                out.cpi = ArmCpiStacks::capture(&mut env);
            }
            Ok(out)
        })
        .map_err(RolloutError::Usku)?;

        let sim_time_s: f64 = runs.iter().map(|r| r.sim_time_s).sum();
        let mut gains: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.result.verdict.gain())
            .collect();
        gains.sort_by(f64::total_cmp);
        let better_votes = gains.len();
        let accepted = better_votes * 2 > units.len();
        // Lower median of the winning replicas' gains: a conservative,
        // order-independent point estimate.
        let gain = if accepted {
            gains[(better_votes - 1) / 2]
        } else {
            0.0
        };

        if sink.is_enabled() {
            let span = sink.open("compose.validate", name, *cursor);
            sink.attr(span, "candidate", AttrValue::Str(name.to_string()));
            sink.attr(span, "accepted", AttrValue::Bool(accepted));
            sink.attr(span, "gain", AttrValue::F64(gain));
            sink.attr(span, "better_votes", AttrValue::Int(better_votes as i64));
            sink.attr(span, "replicas", AttrValue::Int(units.len() as i64));
            let mut t = *cursor;
            for (unit, run) in units.iter().zip(&runs) {
                trace_test_span(
                    sink,
                    service,
                    &platform,
                    run,
                    unit.seed,
                    t,
                    self.tester.config().confidence,
                )?;
                t += run.sim_time_s;
            }
            sink.close(span, *cursor + sim_time_s);
        }
        *cursor += sim_time_s;

        let results: Vec<AbTestResult> = runs.into_iter().map(|r| r.result).collect();
        Ok(CandidateValidation {
            label: name.to_string(),
            accepted,
            gain,
            better_votes,
            replicas: units.len(),
            results,
            sim_time_s,
        })
    }
}

/// Pre-evaluates the baseline load curve on the proto environment so every
/// validation fork inherits it from the cloned arm (same warm-up the core
/// scheduler performs).
fn warm_baseline(proto: &mut AbEnvironment, baseline: &ServerConfig) {
    let arm = proto.arm_mut(softsku_cluster::Arm::A);
    if arm.reconfigure(baseline.clone(), false).is_ok() {
        let _ = arm.mips(1.0);
    }
}
