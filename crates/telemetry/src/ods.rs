//! Series keys and points of the ODS-like time-series store.
//!
//! Facebook's Operational Data Store (ODS) retrieves, processes, and
//! visualizes sampling data from every machine in the data center (paper
//! Sec. 2.2); µSKU uses it to validate that a deployed soft SKU's QPS win is
//! stable "for prolonged durations (including across code updates and under
//! diurnal load)" (Sec. 4). The store itself is
//! [`TieredOds`](crate::TieredOds); this module names what it stores.

/// Identifies one time series: an entity (host, tier) and a metric name.
///
/// # Example
///
/// ```
/// use softsku_telemetry::SeriesKey;
///
/// let key = SeriesKey::new("web.skylake.host42", "qps");
/// assert_eq!(key.to_string(), "web.skylake.host42/qps");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesKey {
    entity: String,
    metric: String,
}

impl SeriesKey {
    /// Creates a key from entity and metric names.
    pub fn new(entity: &str, metric: &str) -> Self {
        SeriesKey {
            entity: entity.to_string(),
            metric: metric.to_string(),
        }
    }

    /// Creates a key whose metric is a registered [`crate::keys::LedgerKey`]
    /// — the preferred constructor for every pipeline series, so the metric
    /// spelling cannot drift from the registry (see [`crate::keys`]).
    ///
    /// # Example
    ///
    /// ```
    /// use softsku_telemetry::{keys::LedgerKey, SeriesKey};
    ///
    /// let key = SeriesKey::keyed("web@skl18", LedgerKey::TuneWallS);
    /// assert_eq!(key.metric(), "tune.wall_s");
    /// ```
    pub fn keyed(entity: &str, key: crate::keys::LedgerKey) -> Self {
        SeriesKey::new(entity, key.name())
    }

    /// The entity (host / tier) component.
    pub fn entity(&self) -> &str {
        &self.entity
    }

    /// The metric name component.
    pub fn metric(&self) -> &str {
        &self.metric
    }
}

impl std::fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.entity, self.metric)
    }
}

/// A single stored observation.
pub type Point = (f64, f64); // (timestamp, value)
