//! Error type for workload-model construction.

use std::error::Error;
use std::fmt;

/// Errors raised when building workload profiles.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// The service is not deployed on the requested platform in the paper's
    /// fleet (e.g. Cache1 on Broadwell16).
    UnsupportedPlatform {
        /// Service name.
        service: &'static str,
        /// Requested platform name.
        platform: String,
    },
    /// The calibration tables produced an invalid model input.
    Calibration {
        /// Service name.
        service: &'static str,
        /// What went wrong.
        detail: String,
    },
    /// An unknown service name was parsed.
    UnknownService(String),
    /// A queueing simulation was asked for an impossible queue (no
    /// servers, too few jobs, utilization outside `(0, 1)`, or an invalid
    /// service-time distribution).
    InvalidQueue {
        /// What was out of range.
        detail: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::UnsupportedPlatform { service, platform } => {
                write!(f, "{service} is not deployed on {platform}")
            }
            WorkloadError::Calibration { service, detail } => {
                write!(f, "calibration failure for {service}: {detail}")
            }
            WorkloadError::UnknownService(name) => write!(f, "unknown service {name:?}"),
            WorkloadError::InvalidQueue { detail } => write!(f, "invalid queue: {detail}"),
        }
    }
}

impl Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            WorkloadError::UnsupportedPlatform {
                service: "Cache1",
                platform: "Broadwell16".into(),
            },
            WorkloadError::Calibration {
                service: "Web",
                detail: "bad anchor".into(),
            },
            WorkloadError::UnknownService("webz".into()),
            WorkloadError::InvalidQueue {
                detail: "no servers".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
