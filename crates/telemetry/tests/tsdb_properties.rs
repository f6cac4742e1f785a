//! Randomized property tests of the TSDB: query/window coherence,
//! integration linearity, windowed integration against the full-history
//! walk, and ordered surfaces that ignore hash order.
//!
//! Cases are generated from a fixed-seed [`SimRng`] stream (the offline
//! replacement for proptest), so failures are exactly reproducible.

use std::collections::BTreeMap;

use power_telemetry::{SeriesKey, Tsdb};
use serde::{Deserialize, Serialize, Value};
use simkit::rng::SimRng;
use simkit::series::TimeSeries;
use simkit::time::SimTime;

fn arb_series(rng: &mut SimRng) -> Vec<(u64, f64)> {
    let len = rng.uniform_u64(1, 80) as usize;
    (0..len)
        .map(|i| (i as u64 * 60, rng.uniform(-100.0, 100.0)))
        .collect()
}

fn db_from(samples: &[(u64, f64)]) -> Tsdb {
    let mut db = Tsdb::new();
    for (secs, v) in samples {
        db.record("m", "s", SimTime::from_secs(*secs), *v);
    }
    db
}

/// The mean over the full window equals the arithmetic mean of all
/// samples, and sub-window sums add up to the full-window sum.
#[test]
fn windows_compose() {
    let mut rng = SimRng::from_seed(1001).fork("windows_compose");
    for _ in 0..128 {
        let samples = arb_series(&mut rng);
        let split = rng.uniform_u64(0, 80) as usize;
        let db = db_from(&samples);
        let end = SimTime::from_secs(samples.len() as u64 * 60);
        let expected_mean = samples.iter().map(|(_, v)| v).sum::<f64>() / samples.len() as f64;
        let mean = db.mean("m", "s", SimTime::EPOCH, end).expect("non-empty");
        assert!((mean - expected_mean).abs() < 1e-9);

        let mid = SimTime::from_secs((split.min(samples.len()) as u64) * 60);
        let left = db.sum("m", "s", SimTime::EPOCH, mid).unwrap_or(0.0);
        let right = db.sum("m", "s", mid, end).unwrap_or(0.0);
        let total = db.sum("m", "s", SimTime::EPOCH, end).expect("non-empty");
        assert!((left + right - total).abs() < 1e-9);
    }
}

/// Step integration is additive over adjacent windows.
#[test]
fn integration_is_additive() {
    let mut rng = SimRng::from_seed(1001).fork("integration_is_additive");
    for _ in 0..128 {
        let samples = arb_series(&mut rng);
        let split = rng.uniform_u64(1, 79) as usize;
        let db = db_from(&samples);
        let end = SimTime::from_secs(samples.len() as u64 * 60);
        let mid = SimTime::from_secs((split.min(samples.len()) as u64) * 60);
        let whole = db.integrate("m", "s", SimTime::EPOCH, end);
        let parts = db.integrate("m", "s", SimTime::EPOCH, mid) + db.integrate("m", "s", mid, end);
        assert!((whole - parts).abs() < 1e-6, "{whole} vs {parts}");
    }
}

/// `value_at` returns the most recent sample at or before the query
/// instant (step semantics).
#[test]
fn value_at_is_step() {
    let mut rng = SimRng::from_seed(1001).fork("value_at_is_step");
    for _ in 0..128 {
        let samples = arb_series(&mut rng);
        let probe = rng.uniform_u64(0, 80 * 60);
        let db = db_from(&samples);
        let expected = samples
            .iter()
            .rev()
            .find(|(secs, _)| *secs <= probe)
            .map(|(_, v)| *v);
        assert_eq!(db.value_at("m", "s", SimTime::from_secs(probe)), expected);
    }
}

/// Percentiles over the window are bounded by the window's min/max.
#[test]
fn percentile_bounded() {
    let mut rng = SimRng::from_seed(1001).fork("percentile_bounded");
    for _ in 0..128 {
        let samples = arb_series(&mut rng);
        let p = rng.uniform(0.0, 100.0);
        let db = db_from(&samples);
        let end = SimTime::from_secs(samples.len() as u64 * 60);
        let q = db
            .percentile("m", "s", SimTime::EPOCH, end, p)
            .expect("non-empty");
        let lo = samples.iter().map(|(_, v)| *v).fold(f64::MAX, f64::min);
        let hi = samples.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
        assert!(q >= lo - 1e-12 && q <= hi + 1e-12);
    }
}

/// The full-history step integration `integrate` used before it became
/// windowed: every segment `[s_i.at, s_{i+1}.at)` clipped to `[from,
/// to)`, summed in sample order.
fn integrate_full_walk(series: &TimeSeries, from: SimTime, to: SimTime) -> f64 {
    let samples = series.samples();
    if samples.is_empty() || to <= from {
        return 0.0;
    }
    let mut total = 0.0;
    for (i, s) in samples.iter().enumerate() {
        let seg_start = s.at;
        let seg_end = samples
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

/// A window edge drawn to hit the interesting places: before the first
/// sample, exactly on a sample, between two samples, or past the last.
fn arb_edge(rng: &mut SimRng, times: &[u64]) -> u64 {
    let first = times[0];
    let last = *times.last().expect("non-empty");
    match rng.uniform_u64(0, 4) {
        0 => rng.uniform_u64(0, first + 1),
        1 => times[rng.uniform_u64(0, times.len() as u64) as usize],
        2 => rng.uniform_u64(first, last + 1),
        _ => rng.uniform_u64(last, last + 600),
    }
}

/// Windowed integration adds the same terms in the same order as the
/// full-history walk, so the two agree bit for bit on every window —
/// before the first sample, straddling samples, on sample boundaries,
/// past the last sample, and empty or inverted.
#[test]
fn windowed_integration_matches_full_walk() {
    let mut rng = SimRng::from_seed(1001).fork("windowed_integration_matches_full_walk");
    for _ in 0..256 {
        let len = rng.uniform_u64(1, 60) as usize;
        let mut at = rng.uniform_u64(0, 300);
        let mut times = Vec::with_capacity(len);
        let mut db = Tsdb::new();
        for _ in 0..len {
            times.push(at);
            db.record("m", "s", SimTime::from_secs(at), rng.uniform(-100.0, 100.0));
            at += rng.uniform_u64(1, 120);
        }
        let series = db.series("m", "s").expect("recorded");
        for _ in 0..32 {
            let from = SimTime::from_secs(arb_edge(&mut rng, &times));
            let to = if rng.chance(0.1) {
                from // empty
            } else {
                SimTime::from_secs(arb_edge(&mut rng, &times)) // maybe inverted
            };
            let expected = integrate_full_walk(series, from, to);
            let got = db.integrate("m", "s", from, to);
            assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "window [{from:?}, {to:?}) over {times:?}: {got} vs {expected}"
            );
        }
    }
}

/// Series keys drawn from a small alphabet so metrics share subjects and
/// subjects share metrics.
fn arb_keys(rng: &mut SimRng) -> Vec<(String, String)> {
    let mut keys: Vec<(String, String)> = (0..rng.uniform_u64(1, 40))
        .map(|_| {
            (
                format!("m{}", rng.uniform_u64(0, 5)),
                format!("s{}", rng.uniform_u64(0, 12)),
            )
        })
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

fn db_with<'a>(keys: impl Iterator<Item = &'a (String, String)>) -> Tsdb {
    let mut db = Tsdb::new();
    for (metric, subject) in keys {
        for i in 0..3u64 {
            let value = (metric.len() + subject.len()) as f64 + i as f64;
            db.record(metric, subject, SimTime::from_secs(i * 60), value);
        }
    }
    db
}

/// Every ordered surface of the store — iteration, subject listings, the
/// collision a merge reports, `Debug` and the serialized form — is the
/// same whatever order the series were created in, and the serialized
/// form is the one a key-ordered map of the series derives.
#[test]
fn ordered_surfaces_ignore_insertion_order() {
    let mut rng = SimRng::from_seed(1001).fork("ordered_surfaces_ignore_insertion_order");
    for _ in 0..64 {
        let keys = arb_keys(&mut rng);
        let forward = db_with(keys.iter());
        let reverse = db_with(keys.iter().rev());

        let pairs = |db: &Tsdb| -> Vec<(SeriesKey, TimeSeries)> {
            db.iter().map(|(k, s)| (k.clone(), s.clone())).collect()
        };
        assert_eq!(pairs(&forward), pairs(&reverse));
        let sorted: Vec<SeriesKey> = keys.iter().map(|(m, s)| SeriesKey::new(m, s)).collect();
        let iterated: Vec<SeriesKey> = forward.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(iterated, sorted, "iter is in key order");

        for m in 0..5 {
            let metric = format!("m{m}");
            let expected: Vec<&str> = keys
                .iter()
                .filter(|(km, _)| *km == metric)
                .map(|(_, s)| s.as_str())
                .collect();
            assert_eq!(forward.subjects_of(&metric), expected);
            assert_eq!(reverse.subjects_of(&metric), expected);
        }
        assert_eq!(forward.all_subjects(), reverse.all_subjects());
        assert_eq!(format!("{forward:?}"), format!("{reverse:?}"));

        // A merge that collides on several keys names the smallest one,
        // whichever side's insertion order.
        let clash: Vec<(String, String)> =
            keys.iter().filter(|_| rng.chance(0.5)).cloned().collect();
        if let Some((m, s)) = clash.first() {
            let a = forward.clone().merge_from(db_with(clash.iter()));
            let b = reverse.clone().merge_from(db_with(clash.iter().rev()));
            let expected = format!("series ({m}, {s}) exists on both sides of the merge");
            assert_eq!(a, Err(expected.clone()));
            assert_eq!(b, Err(expected));
        }

        let value = forward.to_value();
        assert_eq!(value, reverse.to_value());
        let derived: BTreeMap<SeriesKey, TimeSeries> = pairs(&forward).into_iter().collect();
        assert_eq!(
            value,
            Value::Map(vec![("series".to_string(), derived.to_value())]),
            "serialized form is the key-ordered map's"
        );
        let back = Tsdb::from_value(&value).expect("round-trips");
        assert_eq!(back.to_value(), value);
    }
}
