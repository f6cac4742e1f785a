//! Append-only time series for recording simulation outputs.
//!
//! [`TimeSeries`] is the building block the telemetry crate's TSDB stores;
//! the experiment harness also uses it directly to collect the per-tick
//! signals plotted in the paper's figures.

use serde::{Deserialize, Serialize};

use crate::stats::{percentile, Summary};
use crate::time::SimTime;

/// A single timestamped observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Instant the observation was taken.
    pub at: SimTime,
    /// Observed value.
    pub value: f64,
}

/// An append-only, time-ordered series of `f64` observations.
///
/// # Example
///
/// ```
/// use simkit::series::TimeSeries;
/// use simkit::time::SimTime;
///
/// let mut s = TimeSeries::new();
/// s.push(SimTime::from_secs(0), 1.0);
/// s.push(SimTime::from_secs(60), 3.0);
/// assert_eq!(s.mean_over(SimTime::from_secs(0), SimTime::from_secs(120)), Some(2.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an observation.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last appended sample (series are
    /// strictly time-ordered; equal timestamps are allowed and overwrite).
    pub fn push(&mut self, at: SimTime, value: f64) {
        if let Some(last) = self.samples.last_mut() {
            assert!(at >= last.at, "samples must be appended in time order");
            if at == last.at {
                last.value = value;
                return;
            }
        }
        self.samples.push(Sample { at, value });
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Iterator over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.samples.iter().map(|s| (s.at, s.value))
    }

    /// Latest observation, if any.
    pub fn last(&self) -> Option<Sample> {
        self.samples.last().copied()
    }

    /// Value at or immediately before `at` (step semantics), if any sample
    /// exists at or before that instant.
    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        match self.samples.binary_search_by(|s| s.at.cmp(&at)) {
            Ok(idx) => Some(self.samples[idx].value),
            Err(0) => None,
            Err(idx) => Some(self.samples[idx - 1].value),
        }
    }

    /// Samples within the half-open window `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> &[Sample] {
        let lo = self.samples.partition_point(|s| s.at < from);
        let hi = self.samples.partition_point(|s| s.at < to);
        &self.samples[lo..hi]
    }

    /// Values within `[from, to)` as a vector.
    pub fn values_over(&self, from: SimTime, to: SimTime) -> Vec<f64> {
        self.window(from, to).iter().map(|s| s.value).collect()
    }

    /// Mean of values within `[from, to)`; `None` when the window is empty.
    pub fn mean_over(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let w = self.window(from, to);
        if w.is_empty() {
            None
        } else {
            Some(w.iter().map(|s| s.value).sum::<f64>() / w.len() as f64)
        }
    }

    /// Sum of values within `[from, to)`.
    pub fn sum_over(&self, from: SimTime, to: SimTime) -> f64 {
        self.window(from, to).iter().map(|s| s.value).sum()
    }

    /// Percentile of values within `[from, to)`; `None` when empty.
    pub fn percentile_over(&self, from: SimTime, to: SimTime, p: f64) -> Option<f64> {
        percentile(&self.values_over(from, to), p)
    }

    /// Maximum value within `[from, to)`; `None` when empty.
    pub fn max_over(&self, from: SimTime, to: SimTime) -> Option<f64> {
        self.window(from, to)
            .iter()
            .map(|s| s.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }

    /// Summary statistics over all recorded values.
    pub fn summary(&self) -> Option<Summary> {
        let values: Vec<f64> = self.samples.iter().map(|s| s.value).collect();
        Summary::of(&values)
    }

    /// Integrates the series over `[from, to)` treating each value as a
    /// *rate per second* held until the next sample (step integration).
    ///
    /// Used to turn power series (watts) into energy (joule-seconds →
    /// watt-seconds) and carbon-rate series into totals.
    ///
    /// Costs O(log n + window): only the sample in force at `from`
    /// through the last sample before `to` can overlap the window, and
    /// the segments outside it contribute no term to the sum.
    pub fn integrate_step(&self, from: SimTime, to: SimTime) -> f64 {
        if self.samples.is_empty() || to <= from {
            return 0.0;
        }
        let first = self
            .samples
            .partition_point(|s| s.at <= from)
            .saturating_sub(1);
        let end = self.samples.partition_point(|s| s.at < to);
        let mut total = 0.0;
        // Walk over segments [s_i.at, s_{i+1}.at) clipped to [from, to).
        for (i, s) in self.samples.iter().enumerate().take(end).skip(first) {
            let seg_start = s.at;
            let seg_end = self
                .samples
                .get(i + 1)
                .map(|n| n.at)
                .unwrap_or(to.max(seg_start));
            let clip_start = seg_start.max(from);
            let clip_end = seg_end.min(to);
            if clip_end > clip_start {
                total += s.value * (clip_end - clip_start).as_secs_f64();
            }
        }
        total
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (SimTime, f64)>>(iter: I) -> Self {
        let mut s = TimeSeries::new();
        for (at, v) in iter {
            s.push(at, v);
        }
        s
    }
}

impl Extend<(SimTime, f64)> for TimeSeries {
    fn extend<I: IntoIterator<Item = (SimTime, f64)>>(&mut self, iter: I) {
        for (at, v) in iter {
            self.push(at, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn series(pairs: &[(u64, f64)]) -> TimeSeries {
        pairs.iter().map(|&(s, v)| (t(s), v)).collect()
    }

    #[test]
    fn push_and_query() {
        let s = series(&[(0, 1.0), (60, 2.0), (120, 3.0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.value_at(t(0)), Some(1.0));
        assert_eq!(s.value_at(t(59)), Some(1.0));
        assert_eq!(s.value_at(t(60)), Some(2.0));
        assert_eq!(s.value_at(t(10_000)), Some(3.0));
    }

    #[test]
    fn value_before_first_sample_is_none() {
        let s = series(&[(60, 2.0)]);
        assert_eq!(s.value_at(t(0)), None);
    }

    #[test]
    fn equal_timestamp_overwrites() {
        let mut s = series(&[(0, 1.0)]);
        s.push(t(0), 9.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.value_at(t(0)), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut s = series(&[(60, 1.0)]);
        s.push(t(0), 2.0);
    }

    #[test]
    fn window_half_open() {
        let s = series(&[(0, 1.0), (60, 2.0), (120, 3.0)]);
        let w = s.window(t(0), t(120));
        assert_eq!(w.len(), 2);
        assert_eq!(s.values_over(t(60), t(121)), vec![2.0, 3.0]);
    }

    #[test]
    fn aggregations() {
        let s = series(&[(0, 1.0), (60, 2.0), (120, 3.0), (180, 4.0)]);
        assert_eq!(s.mean_over(t(0), t(240)), Some(2.5));
        assert_eq!(s.sum_over(t(0), t(240)), 10.0);
        assert_eq!(s.max_over(t(0), t(240)), Some(4.0));
        assert_eq!(s.percentile_over(t(0), t(240), 50.0), Some(2.5));
        assert_eq!(s.mean_over(t(500), t(600)), None);
    }

    #[test]
    fn summary_over_all() {
        let s = series(&[(0, 1.0), (60, 3.0)]);
        let sum = s.summary().expect("non-empty");
        assert_eq!(sum.mean, 2.0);
        assert_eq!(sum.count, 2);
    }

    #[test]
    fn step_integration() {
        // 1 unit/s for 60 s, then 2 units/s for 60 s.
        let s = series(&[(0, 1.0), (60, 2.0)]);
        assert_eq!(s.integrate_step(t(0), t(120)), 60.0 + 120.0);
        // Clipped to a sub-window.
        assert_eq!(s.integrate_step(t(30), t(90)), 30.0 + 60.0);
        // Empty or inverted windows integrate to zero.
        assert_eq!(s.integrate_step(t(90), t(30)), 0.0);
        assert_eq!(TimeSeries::new().integrate_step(t(0), t(60)), 0.0);
    }
}
