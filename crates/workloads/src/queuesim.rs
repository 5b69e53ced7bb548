//! Event-driven queueing simulation for tail latency.
//!
//! The analytic M/M/c model in [`crate::request`] gives *mean* waiting
//! times, but the paper's QoS story is about tails: services cap utilization
//! "to avoid QoS violations", and Table 3 calls out tail-latency
//! optimizations as the path to higher utilization. This module simulates a
//! FCFS multi-server queue event-by-event and reports latency percentiles,
//! so QoS checks can bind on p99 rather than the mean.
//!
//! The simulation is exact for M/G/c-FCFS: jobs arrive as a Poisson process,
//! each job takes a sampled service time, and the earliest-available server
//! runs it. A binary heap of server-free times makes it O(n log c).

use crate::WorkloadError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Latency distribution summary from a queueing simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailLatency {
    /// Mean sojourn time (wait + service).
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Service-time distributions supported by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceDist {
    /// Exponential with the given mean (the M/M/c case).
    Exponential {
        /// Mean service time in seconds.
        mean: f64,
    },
    /// Deterministic service time (the M/D/c case — batch-like work).
    Deterministic {
        /// Fixed service time in seconds.
        time: f64,
    },
    /// Log-normal with given mean and squared coefficient of variation —
    /// the heavy-tailed case typical of request serving.
    LogNormal {
        /// Mean service time in seconds.
        mean: f64,
        /// Squared coefficient of variation (variance / mean²), > 0.
        cv2: f64,
    },
}

impl ServiceDist {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            ServiceDist::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -mean * u.ln()
            }
            ServiceDist::Deterministic { time } => time,
            ServiceDist::LogNormal { mean, cv2 } => {
                // Parameterize so that E[X] = mean and Var[X]/E[X]^2 = cv2.
                let sigma2 = (1.0 + cv2).ln();
                let mu = mean.ln() - sigma2 / 2.0;
                let z = gaussian(rng);
                (mu + sigma2.sqrt() * z).exp()
            }
        }
    }

    fn mean(&self) -> f64 {
        match *self {
            ServiceDist::Exponential { mean } => mean,
            ServiceDist::Deterministic { time } => time,
            ServiceDist::LogNormal { mean, .. } => mean,
        }
    }
}

fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Simulates a FCFS queue with `servers` parallel servers at utilization
/// `rho` (per server), drawing `jobs` jobs, and returns the sojourn-time
/// distribution. The arrival rate is derived as `rho * servers / E[S]`.
///
/// The first 10 % of jobs are discarded as queue warm-up.
///
/// # Errors
///
/// [`WorkloadError::InvalidQueue`] if `servers == 0`, `jobs < 100`, `rho`
/// is not a finite value in `(0, 1)`, the service mean is not finite and
/// positive, or a log-normal `cv2` is not finite and non-negative.
pub fn simulate_queue(
    servers: u32,
    rho: f64,
    service: ServiceDist,
    jobs: usize,
    seed: u64,
) -> Result<TailLatency, WorkloadError> {
    let invalid = |detail: String| Err(WorkloadError::InvalidQueue { detail });
    if servers == 0 {
        return invalid("need at least one server".into());
    }
    if jobs < 100 {
        return invalid(format!("need at least 100 jobs, got {jobs}"));
    }
    // Written so NaN fails the range check.
    if !(rho > 0.0 && rho < 1.0) {
        return invalid(format!("utilization must be in (0, 1), got {rho}"));
    }
    let mean = service.mean();
    if !(mean.is_finite() && mean > 0.0) {
        return invalid(format!(
            "service mean must be finite and positive, got {mean}"
        ));
    }
    if let ServiceDist::LogNormal { cv2, .. } = service {
        if !(cv2.is_finite() && cv2 >= 0.0) {
            return invalid(format!("cv2 must be finite and non-negative, got {cv2}"));
        }
    }

    let mut rng = SmallRng::seed_from_u64(seed);
    let arrival_rate = rho * servers as f64 / mean;

    // Min-heap of server-free timestamps (f64 ordered via bits; all values
    // are nonnegative finite, so the ordering is correct).
    let mut free: BinaryHeap<Reverse<u64>> = (0..servers).map(|_| Reverse(0u64)).collect();
    let to_bits = |x: f64| x.to_bits();
    let from_bits = f64::from_bits;

    let mut t = 0.0f64;
    let warmup = jobs / 10;
    let mut sojourns = Vec::with_capacity(jobs - warmup);
    for i in 0..jobs {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / arrival_rate;
        let Reverse(avail_bits) = free.pop().expect("heap holds `servers` entries");
        let avail = from_bits(avail_bits);
        let start = avail.max(t);
        let finish = start + service.sample(&mut rng);
        free.push(Reverse(to_bits(finish)));
        if i >= warmup {
            sojourns.push(finish - t);
        }
    }
    sojourns.sort_by(f64::total_cmp);
    let n = sojourns.len();
    let pick = |q: f64| sojourns[((n - 1) as f64 * q).round() as usize];
    Ok(TailLatency {
        mean: sojourns.iter().sum::<f64>() / n as f64,
        p50: pick(0.50),
        p95: pick(0.95),
        p99: pick(0.99),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::mmc_wait_factor;

    #[test]
    fn mmc_simulation_matches_erlang_c_mean() {
        // The analytic mean sojourn of M/M/c is S·(1 + W_q/S) with W_q from
        // Erlang C; the event simulation must agree within sampling noise.
        for &(servers, rho) in &[(1u32, 0.5f64), (4, 0.7), (16, 0.8)] {
            let service = ServiceDist::Exponential { mean: 1.0 };
            let sim = simulate_queue(servers, rho, service, 200_000, 7).unwrap();
            let analytic = 1.0 + mmc_wait_factor(rho, servers);
            let rel = (sim.mean - analytic).abs() / analytic;
            assert!(
                rel < 0.05,
                "c={servers} rho={rho}: sim {:.3} vs analytic {analytic:.3}",
                sim.mean
            );
        }
    }

    #[test]
    fn percentiles_are_ordered_and_tails_grow_with_load() {
        let service = ServiceDist::Exponential { mean: 1.0 };
        // ρ = 0.97 puts the high-load point deep in the regime where the
        // conditional wait (rate c·μ·(1−ρ)) dominates the tail; at ρ = 0.95
        // the true spread ratio sits almost exactly on the 2× threshold and
        // the assertion flips on sampling noise.
        let low = simulate_queue(8, 0.5, service, 150_000, 3).unwrap();
        let high = simulate_queue(8, 0.97, service, 150_000, 3).unwrap();
        for t in [&low, &high] {
            assert!(t.p50 <= t.p95 && t.p95 <= t.p99);
            assert!(t.mean >= 0.9, "sojourn includes service time: {}", t.mean);
        }
        assert!(
            high.p99 > low.p99 * 1.5,
            "p99 must blow up with load: {} vs {}",
            high.p99,
            low.p99
        );
        // The tail spread (p99 − p50) widens much faster than the median —
        // the QoS point: tails bind long before means do.
        let spread_low = low.p99 - low.p50;
        let spread_high = high.p99 - high.p50;
        assert!(
            spread_high > 2.0 * spread_low,
            "tail spread {spread_high:.2} vs {spread_low:.2}"
        );
    }

    #[test]
    fn deterministic_service_has_tighter_tail_than_exponential() {
        let exp =
            simulate_queue(4, 0.7, ServiceDist::Exponential { mean: 1.0 }, 100_000, 5).unwrap();
        let det =
            simulate_queue(4, 0.7, ServiceDist::Deterministic { time: 1.0 }, 100_000, 5).unwrap();
        assert!(
            det.p99 < exp.p99,
            "M/D/c p99 {:.2} must undercut M/M/c p99 {:.2}",
            det.p99,
            exp.p99
        );
    }

    #[test]
    fn heavy_tailed_service_has_fatter_tail() {
        let exp =
            simulate_queue(4, 0.6, ServiceDist::Exponential { mean: 1.0 }, 100_000, 9).unwrap();
        let heavy = simulate_queue(
            4,
            0.6,
            ServiceDist::LogNormal {
                mean: 1.0,
                cv2: 6.0,
            },
            100_000,
            9,
        )
        .unwrap();
        assert!(
            heavy.p99 > exp.p99,
            "heavy {:.2} vs exp {:.2}",
            heavy.p99,
            exp.p99
        );
        // Means stay comparable (same E[S], same rho).
        assert!((heavy.mean / exp.mean - 1.0).abs() < 0.35);
    }

    #[test]
    fn lognormal_mean_is_calibrated() {
        let mut rng = SmallRng::seed_from_u64(1);
        let d = ServiceDist::LogNormal {
            mean: 2.5,
            cv2: 1.5,
        };
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate_queue(4, 0.7, ServiceDist::Exponential { mean: 1.0 }, 10_000, 11).unwrap();
        let b = simulate_queue(4, 0.7, ServiceDist::Exponential { mean: 1.0 }, 10_000, 11).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_saturated_load() {
        assert!(simulate_queue(2, 1.0, ServiceDist::Exponential { mean: 1.0 }, 1000, 0).is_err());
    }

    #[test]
    fn rejects_every_impossible_queue() {
        let exp = ServiceDist::Exponential { mean: 1.0 };
        for (servers, rho, service, jobs) in [
            (0, 0.5, exp, 1000),
            (2, 0.5, exp, 99),
            (2, 0.0, exp, 1000),
            (2, f64::NAN, exp, 1000),
            (2, f64::INFINITY, exp, 1000),
            (2, 0.5, ServiceDist::Exponential { mean: 0.0 }, 1000),
            (2, 0.5, ServiceDist::Deterministic { time: f64::NAN }, 1000),
            (
                2,
                0.5,
                ServiceDist::LogNormal {
                    mean: f64::INFINITY,
                    cv2: 1.0,
                },
                1000,
            ),
            (
                2,
                0.5,
                ServiceDist::LogNormal {
                    mean: 1.0,
                    cv2: -2.0,
                },
                1000,
            ),
        ] {
            let result = simulate_queue(servers, rho, service, jobs, 0);
            assert!(
                matches!(result, Err(WorkloadError::InvalidQueue { .. })),
                "servers={servers} rho={rho} {service:?} jobs={jobs}: {result:?}"
            );
        }
    }
}
