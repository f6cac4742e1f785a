//! In-memory time-series database with interval queries.
//!
//! Series live in a hash map so the per-tick write path
//! ([`Tsdb::record`]) and every point lookup cost O(1) and allocate
//! nothing once a series exists; every surface that lists series
//! (iteration, subject listings, merge collisions, serialization,
//! `Debug`) sorts by key, so hash order never reaches an output.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize, Value};

use simkit::series::TimeSeries;
use simkit::time::SimTime;

/// Addresses one series: a metric name plus a subject (container, app, or
/// system).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SeriesKey {
    /// Metric name (see [`crate::metrics`]).
    pub metric: String,
    /// Subject identifier, e.g. `"c3"`, `"app1"`, `"system"`.
    pub subject: String,
}

impl SeriesKey {
    /// Builds a key.
    pub fn new(metric: impl Into<String>, subject: impl Into<String>) -> Self {
        Self {
            metric: metric.into(),
            subject: subject.into(),
        }
    }
}

/// A `(metric, subject)` view shared by owned [`SeriesKey`]s and borrowed
/// `(&str, &str)` pairs, so the store can be probed without building a
/// key. `Hash`, `Eq` and `Ord` all go through [`KeyView::parts`], which
/// keeps them consistent with `SeriesKey`'s own impls, as `Borrow`
/// requires.
trait KeyView {
    fn parts(&self) -> (&str, &str);
}

impl KeyView for SeriesKey {
    fn parts(&self) -> (&str, &str) {
        (&self.metric, &self.subject)
    }
}

impl KeyView for (&str, &str) {
    fn parts(&self) -> (&str, &str) {
        (self.0, self.1)
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for SeriesKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl Hash for SeriesKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyView + '_ {}

impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.parts().cmp(&other.parts())
    }
}

/// The time-series store.
///
/// All queries take half-open windows `[from, to)`. Writes must be
/// time-ordered per series (enforced by [`TimeSeries`]).
#[derive(Clone, Default)]
pub struct Tsdb {
    series: HashMap<SeriesKey, TimeSeries>,
}

impl std::fmt::Debug for Tsdb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Sorted<'a>(&'a Tsdb);
        impl std::fmt::Debug for Sorted<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Tsdb")
            .field("series", &Sorted(self))
            .finish()
    }
}

/// Serializes as the map-backed store always has: `{"series": [[key,
/// series], …]}` in key order.
impl Serialize for Tsdb {
    fn to_value(&self) -> Value {
        let pairs = self
            .iter()
            .map(|(k, s)| Value::Seq(vec![k.to_value(), s.to_value()]))
            .collect();
        Value::Map(vec![("series".to_string(), Value::Seq(pairs))])
    }
}

impl Deserialize for Tsdb {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let series: BTreeMap<SeriesKey, TimeSeries> =
            Deserialize::from_value(serde::__field(v, "series")?)?;
        Ok(Tsdb {
            series: series.into_iter().collect(),
        })
    }
}

impl Tsdb {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample to `(metric, subject)`.
    pub fn record(&mut self, metric: &str, subject: &str, at: SimTime, value: f64) {
        let probe: &dyn KeyView = &(metric, subject);
        match self.series.get_mut(probe) {
            Some(series) => series.push(at, value),
            None => self
                .series
                .entry(SeriesKey::new(metric, subject))
                .or_default()
                .push(at, value),
        }
    }

    /// The series for `(metric, subject)`, if any samples exist.
    pub fn series(&self, metric: &str, subject: &str) -> Option<&TimeSeries> {
        let probe: &dyn KeyView = &(metric, subject);
        self.series.get(probe)
    }

    /// Latest value of `(metric, subject)`.
    pub fn latest(&self, metric: &str, subject: &str) -> Option<f64> {
        self.series(metric, subject)?.last().map(|s| s.value)
    }

    /// Value at or before `at`.
    pub fn value_at(&self, metric: &str, subject: &str, at: SimTime) -> Option<f64> {
        self.series(metric, subject)?.value_at(at)
    }

    /// Mean over `[from, to)`.
    pub fn mean(&self, metric: &str, subject: &str, from: SimTime, to: SimTime) -> Option<f64> {
        self.series(metric, subject)?.mean_over(from, to)
    }

    /// Sum of samples over `[from, to)`.
    pub fn sum(&self, metric: &str, subject: &str, from: SimTime, to: SimTime) -> Option<f64> {
        self.series(metric, subject).map(|s| s.sum_over(from, to))
    }

    /// Percentile over `[from, to)`.
    pub fn percentile(
        &self,
        metric: &str,
        subject: &str,
        from: SimTime,
        to: SimTime,
        p: f64,
    ) -> Option<f64> {
        self.series(metric, subject)?.percentile_over(from, to, p)
    }

    /// Step-integrates a *rate-per-second* series over `[from, to)`.
    ///
    /// For a power series in watts this yields watt-seconds (divide by
    /// 3600 for Wh); for a g/s carbon-rate series it yields grams.
    pub fn integrate(&self, metric: &str, subject: &str, from: SimTime, to: SimTime) -> f64 {
        self.series(metric, subject)
            .map(|s| s.integrate_step(from, to))
            .unwrap_or(0.0)
    }

    /// All subjects that have samples for `metric`, in order.
    pub fn subjects_of(&self, metric: &str) -> Vec<&str> {
        let mut subjects: Vec<&str> = self
            .series
            .keys()
            .filter(|k| k.metric == metric)
            .map(|k| k.subject.as_str())
            .collect();
        subjects.sort_unstable();
        subjects
    }

    /// Number of stored series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Total number of stored samples across all series.
    pub fn sample_count(&self) -> usize {
        self.series.values().map(TimeSeries::len).sum()
    }

    /// Iterates over all `(key, series)` pairs in key order (used by CSV
    /// export).
    pub fn iter(&self) -> impl Iterator<Item = (&SeriesKey, &TimeSeries)> {
        let mut pairs: Vec<_> = self.series.iter().collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        pairs.into_iter()
    }

    /// A copy of every series whose subject is in `subjects` (a migrating
    /// tenant's app and container series, for example).
    pub fn extract_subjects(&self, subjects: &BTreeSet<String>) -> Tsdb {
        Tsdb {
            series: self
                .series
                .iter()
                .filter(|(k, _)| subjects.contains(&k.subject))
                .map(|(k, s)| (k.clone(), s.clone()))
                .collect(),
        }
    }

    /// Removes every series whose subject is in `subjects`.
    pub fn remove_subjects(&mut self, subjects: &BTreeSet<String>) {
        self.series.retain(|k, _| !subjects.contains(&k.subject));
    }

    /// Subjects that have at least one series, in order.
    pub fn all_subjects(&self) -> BTreeSet<String> {
        self.series.keys().map(|k| k.subject.clone()).collect()
    }

    /// Moves every series of `other` into this store.
    ///
    /// # Errors
    ///
    /// A `(metric, subject)` collision aborts the merge with a
    /// description before anything is moved — callers separate subject
    /// namespaces (per-app and per-container ids), so a collision means
    /// the same entity exists on both sides.
    pub fn merge_from(&mut self, other: Tsdb) -> Result<(), String> {
        if let Some(k) = other
            .series
            .keys()
            .filter(|k| self.series.contains_key(*k))
            .min()
        {
            return Err(format!(
                "series ({}, {}) exists on both sides of the merge",
                k.metric, k.subject
            ));
        }
        self.series.extend(other.series);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn sample_db() -> Tsdb {
        let mut db = Tsdb::new();
        for (i, v) in [1.0, 2.0, 3.0, 4.0].iter().enumerate() {
            db.record("power", "c1", t(i as u64 * 60), *v);
        }
        db.record("power", "c2", t(0), 10.0);
        db.record("carbon", "app1", t(0), 0.5);
        db
    }

    #[test]
    fn record_and_query() {
        let db = sample_db();
        assert_eq!(db.latest("power", "c1"), Some(4.0));
        assert_eq!(db.value_at("power", "c1", t(90)), Some(2.0));
        assert_eq!(db.mean("power", "c1", t(0), t(240)), Some(2.5));
        assert_eq!(db.sum("power", "c1", t(0), t(240)), Some(10.0));
        assert_eq!(db.percentile("power", "c1", t(0), t(240), 50.0), Some(2.5));
    }

    #[test]
    fn missing_series_queries() {
        let db = sample_db();
        assert_eq!(db.latest("power", "ghost"), None);
        assert_eq!(db.mean("ghost", "c1", t(0), t(100)), None);
        assert_eq!(db.integrate("ghost", "c1", t(0), t(100)), 0.0);
    }

    #[test]
    fn integrate_power_series() {
        let mut db = Tsdb::new();
        db.record("power", "c1", t(0), 60.0); // 60 W for 60 s
        db.record("power", "c1", t(60), 0.0);
        let ws = db.integrate("power", "c1", t(0), t(120));
        assert_eq!(ws, 3600.0); // 1 Wh in watt-seconds
    }

    #[test]
    fn subjects_listing() {
        let db = sample_db();
        assert_eq!(db.subjects_of("power"), vec!["c1", "c2"]);
        assert_eq!(db.subjects_of("carbon"), vec!["app1"]);
        assert!(db.subjects_of("nothing").is_empty());
    }

    #[test]
    fn counts() {
        let db = sample_db();
        assert_eq!(db.series_count(), 3);
        assert_eq!(db.sample_count(), 6);
    }

    #[test]
    fn iter_visits_all_series() {
        let db = sample_db();
        assert_eq!(db.iter().count(), 3);
    }
}
