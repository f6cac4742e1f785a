//! Summary statistics for timing samples.
//!
//! Other tenants of the host slow this benchmark down, in phases that last
//! from a fraction of a second to minutes, by up to half. Such interference
//! only ever adds time, and it lands on whichever step happens to run
//! while it lasts. A run repeats identical work many times (a wire epoch
//! replays the same seeded rounds on a fresh server, a `tenant-day` replay
//! the same recorded day), so [`steady_readings`] reads each step across
//! its repeats and keeps the fastest: the step's time when the neighbours
//! left it alone. Each timing of a step then counts at its step's reading,
//! and [`percentile`] is taken over all of them. Set-up times report the
//! median of several set-ups, and `tenant-day` rates the *best unit*, the
//! highest rate of any replayed day.

/// The fewest samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// The fewest samples for which [`percentile`] reports p99.
pub const MIN_P99_SAMPLES: usize = 1000;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Nearest-rank percentile of a run's timings of repeated steps, where
/// `readings` (ascending) holds one reading per step and every step was
/// timed `repeats` times; or `None` when fewer than [`MIN_BEYOND`] timings
/// lie beyond it: with too few timings in the tail, the value would
/// describe a handful of outliers rather than the distribution. With one
/// repeat it is the plain percentile of the readings.
pub fn percentile(readings: &[f64], repeats: usize, p: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&p), "percentile {p} outside [0, 1)");
    debug_assert!(
        readings.windows(2).all(|w| w[0] <= w[1]),
        "unsorted readings"
    );
    let n = readings.len() * repeats;
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    Some(readings[(rank - 1) / repeats])
}

/// One reading per step of work that a run repeated: `repeats` holds one
/// slice per repeat, each timing the same steps in the same order, and a
/// step's reading is its fastest timing. A slowdown moves a reading only if
/// it met every repeat of the step, as a change to the program does.
pub fn steady_readings<T: AsRef<[f64]>>(repeats: &[T]) -> Vec<f64> {
    let steps = repeats.first().map_or(0, |r| r.as_ref().len());
    assert!(
        repeats.iter().all(|r| r.as_ref().len() == steps),
        "repeats of unequal length"
    );
    (0..steps)
        .map(|step| {
            repeats
                .iter()
                .map(|r| r.as_ref()[step])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The best of a non-empty set of per-unit values: the lowest timing or
/// the highest rate.
pub fn best(values: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => quantile(values, 0.0),
        Better::Higher => quantile(values, 1.0),
    }
}

/// The `q`-quantile of a non-empty sample set, interpolating linearly
/// between the two nearest order statistics.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let s = sorted(samples.to_vec());
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Sorts samples ascending (NaN-free timing data).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    samples
}

/// Mean of a nanosecond histogram given as (sum, count), in microseconds;
/// 0 when it recorded nothing.
pub fn histogram_mean_us((sum_ns, count): (u64, u64)) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum_ns as f64 / count as f64 / 1e3
    }
}

/// Arithmetic mean, 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fewest samples from which [`percentile`] reports `p`.
    fn min_samples(p: f64) -> usize {
        (1..)
            .find(|&n| percentile(&vec![0.0; n], 1, p).is_some())
            .expect("some sample count satisfies the rule")
    }

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(MIN_P99_SAMPLES), 1, 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(MIN_P99_SAMPLES - 1), 1, 0.99), None);
        assert_eq!(percentile(&ramp(100), 1, 0.99), None);
        assert_eq!(min_samples(0.99), MIN_P99_SAMPLES);
    }

    #[test]
    fn p50_obeys_the_same_rule() {
        assert_eq!(percentile(&ramp(20), 1, 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 1, 0.5), None);
        assert_eq!(percentile(&ramp(1001), 1, 0.5), Some(501.0));
        assert_eq!(min_samples(0.5), 20);
    }

    #[test]
    fn every_reported_percentile_leaves_ten_beyond() {
        for n in 1..1500 {
            let s = ramp(n);
            for p in [0.5, 0.9, 0.99] {
                if let Some(v) = percentile(&s, 1, p) {
                    let beyond = s.iter().filter(|&&x| x > v).count();
                    assert!(beyond >= MIN_BEYOND, "n={n} p={p}: {beyond} beyond");
                }
            }
        }
    }

    #[test]
    fn repeated_steps_count_once_per_repeat() {
        // A day of 12 settlements replayed 84 times: 1,008 timings, enough
        // for p99, which falls among the heaviest step's 84 timings.
        let day = ramp(12);
        assert_eq!(percentile(&day, 84, 0.99), Some(12.0));
        assert_eq!(percentile(&day, 84, 0.5), Some(6.0));
        // 83 replays are 996 timings, too few for p99.
        assert_eq!(percentile(&day, 83, 0.99), None);
        // The rule counts timings, not readings.
        assert_eq!(percentile(&ramp(100), 10, 0.99), Some(99.0));
    }

    #[test]
    fn slow_phases_do_not_move_readings_but_the_program_does() {
        let base = ramp(1000);
        let slowed = |from: usize, to: usize| -> Vec<Vec<f64>> {
            (0..40)
                .map(|r| {
                    let k = if (from..to).contains(&r) { 100.0 } else { 1.0 };
                    base.iter().map(|x| x * k).collect()
                })
                .collect()
        };
        // All but one of forty repeats slowed a hundredfold, in one phase.
        assert_eq!(steady_readings(&slowed(1, 40)), base);
        // Every repeat slowed: the program got slower, and it shows.
        let all = steady_readings(&slowed(0, 40));
        assert_eq!(all[999], base[999] * 100.0);
        // Each step reads its own fastest repeat.
        assert_eq!(steady_readings(&[[1.0, 8.0], [2.0, 5.0]]), vec![1.0, 5.0]);
        assert!(steady_readings(&Vec::<Vec<f64>>::new()).is_empty());
        let rates = [1.0, 1.0, 100.0, 1.0];
        assert_eq!(best(&rates, Better::Higher), 100.0);
        assert_eq!(best(&rates, Better::Lower), 1.0);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.25), 1.75);
        assert_eq!(quantile(&[5.0], 0.75), 5.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }
}
