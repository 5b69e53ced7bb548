//! Shared measurement helpers for the figure-regeneration harness.

use softsku_archsim::engine::{Engine, ServerConfig, WindowReport};
use softsku_workloads::{Microservice, PlatformKind};
use std::collections::HashMap;
use std::sync::Mutex;
use std::sync::OnceLock;

/// Engine window for figure-quality measurements.
pub const FIG_WINDOW: u64 = 400_000;

/// All (service, characterization platform) pairs in paper order.
pub fn service_platforms() -> Vec<(Microservice, PlatformKind)> {
    Microservice::ALL
        .into_iter()
        .map(|s| (s, s.default_platform()))
        .collect()
}

/// Peak-load production report for a service on its default platform,
/// cached for the process (many figures share these measurements).
pub fn peak_report(service: Microservice) -> WindowReport {
    static CACHE: OnceLock<Mutex<HashMap<Microservice, WindowReport>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(report) = cache
        .lock()
        .expect("peak report cache poisoned")
        .get(&service)
    {
        return report.clone();
    }
    // Simulate outside the lock — a multi-second engine run must not
    // serialize every other figure behind this mutex. A racing builder
    // computes the identical report; the first one back wins the slot.
    let profile = service
        .profile(service.default_platform())
        .expect("default platform is always supported");
    let engine = Engine::new(profile.production_config.clone(), profile.stream, 42)
        .expect("production config is valid");
    let report = engine
        .run_window(FIG_WINDOW, profile.peak_utilization)
        .expect("production operating point simulates");
    cache
        .lock()
        .expect("peak report cache poisoned")
        .entry(service)
        .or_insert(report)
        .clone()
}

/// Peak-load report under an arbitrary configuration.
pub fn report_for(
    service: Microservice,
    platform: PlatformKind,
    config: &ServerConfig,
) -> WindowReport {
    let profile = service.profile(platform).expect("supported platform");
    let engine = Engine::new(config.clone(), profile.stream, 42).expect("valid config");
    engine
        .run_window(FIG_WINDOW, profile.peak_utilization)
        .expect("operating point simulates")
}

/// Total MIPS under a configuration (the A/B comparison quantity).
pub fn mips_for(service: Microservice, platform: PlatformKind, config: &ServerConfig) -> f64 {
    report_for(service, platform, config).mips_total
}

/// Formats a percent gain column.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Order-of-magnitude label (`O(100K)` style) used by Table 2.
pub fn order_of(x: f64) -> String {
    if x <= 0.0 {
        return "O(0)".to_string();
    }
    let exp = x.log10().floor() as i32;
    match exp {
        e if e >= 6 => format!("O(10^{e})"),
        5 => "O(100K)".to_string(),
        4 => "O(10K)".to_string(),
        3 => "O(1000)".to_string(),
        2 => "O(100)".to_string(),
        1 => "O(10)".to_string(),
        0 => "O(1)".to_string(),
        e => format!("O(10^{e})"),
    }
}
