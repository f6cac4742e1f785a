//! `tenant-day`: the built-in `thousand-tenants` day, re-rolled at the
//! workload seed, replayed stepwise on the sharded path.
//!
//! Set-up records the day with `ecoharness::record`, round-trips the
//! artifact through its binary on-disk form and builds the ecovisor it
//! starts from. The timed part replays the recorded trace: `dispatch_batch`
//! for every entry stamped at or before a tick, then begin, settle, take
//! events and advance inside `ShardedEcovisor::with`. No transport and no
//! wire codec run here. A replay rebuilds its ecovisor from the spec
//! between days, outside the timed part.

use std::sync::Arc;
use std::time::Instant;

use ecoharness::{build_ecovisor, corpus, record, AppOutcome, ScenarioArtifact};
use ecovisor::{
    digest, AppId, Ecovisor, EventFrame, ObsHub, RequestBatch, ShardedEcovisor, WireCodec,
};

use crate::host;
use crate::report::{Metric, Outcome};
use crate::spans::{self, Span, Tracer};
use crate::stats::{self, Better, MIN_P99_SAMPLES};

/// The corpus day this workload replays.
pub const SCENARIO: &str = "thousand-tenants";

/// Set-ups per run, spread through it; `setup_s` is their median.
const SETUPS: usize = 5;

/// The corpus seed a workload seed re-rolls the day at: seed 0 is the
/// committed corpus day.
pub fn day_seed(seed: u64) -> u64 {
    corpus::default_seed(SCENARIO).expect("a builtin scenario") ^ seed
}

/// The committed artifact the default seed must reproduce byte for byte.
fn corpus_artifact() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../corpus")
        .join(format!("{SCENARIO}.scn.bin"))
}

/// One set-up's stages, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    record_ms: f64,
    encode_ms: f64,
    decode_ms: f64,
    build_ms: f64,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

type Built = (Ecovisor, Vec<AppId>);

/// Records the day, round-trips it through its binary form and builds the
/// ecovisor the replay starts from.
fn set_up(
    seed: u64,
    outcome: &mut Outcome,
) -> Result<(ScenarioArtifact, Built, SetupTimes), String> {
    let spec = corpus::builtin_with_seed(SCENARIO, day_seed(seed)).expect("a builtin scenario");
    let t = Instant::now();
    let artifact = record(&spec).map_err(|e| format!("record: {e}"))?;
    let record_ms = ms_since(t);
    let t = Instant::now();
    let bytes = artifact.to_bytes(WireCodec::Binary);
    let encode_ms = ms_since(t);
    let t = Instant::now();
    let (decoded, codec) =
        ScenarioArtifact::from_bytes(&bytes).map_err(|e| format!("artifact decode: {e}"))?;
    let decode_ms = ms_since(t);
    let t = Instant::now();
    let built = build_ecovisor(&decoded.spec).map_err(|e| format!("build: {e}"))?;
    let build_ms = ms_since(t);
    outcome.check(codec == WireCodec::Binary && decoded == artifact, || {
        "the artifact does not survive its binary round trip".into()
    });
    if seed == 0 {
        let committed = std::fs::read(corpus_artifact()).unwrap_or_default();
        outcome.check(committed == bytes, || {
            format!(
                "the default-seed recording differs from the committed {SCENARIO}.scn.bin \
                 ({} vs {} bytes)",
                bytes.len(),
                committed.len()
            )
        });
    }
    Ok((
        decoded,
        built,
        SetupTimes {
            record_ms,
            encode_ms,
            decode_ms,
            build_ms,
        },
    ))
}

/// What the replays measured.
#[derive(Default)]
struct Replays {
    days: u64,
    ticks: u64,
    requests: u64,
    err_responses: u64,
    /// Wall seconds inside the replay loops (rebuilds excluded).
    timed_s: f64,
    /// Per replayed day: settled ticks per second and requests per second.
    day_rates: Vec<(f64, f64)>,
    /// Mean dispatch time of one batch, per group of batches dispatched
    /// together before a settlement (a single in-process dispatch is too
    /// short to time on its own: the two clock reads would be a third of
    /// it).
    dispatch_us: Vec<f64>,
    batches: u64,
    tick_us: Vec<f64>,
    events: u64,
    frames: u64,
    expected_frames: u64,
}

/// Dispatches the batches due before one settlement, timing the group;
/// the traced phase also times one batch in `spans::TRACE_EVERY`.
fn dispatch_group(
    eco: &ShardedEcovisor,
    batches: &[&RequestBatch],
    out: &mut Replays,
    tracer: &mut Option<&mut Tracer>,
) {
    if batches.is_empty() {
        return;
    }
    let g0 = Instant::now();
    for b in batches {
        let sampled = tracer.is_some() && out.batches.is_multiple_of(spans::TRACE_EVERY);
        let d0 = sampled.then(Instant::now);
        let reply = eco.dispatch_batch(b);
        if let (Some(t), Some(d0)) = (tracer.as_mut(), d0) {
            t.record("dispatch.batch", None, out.batches, d0, Instant::now());
        }
        out.batches += 1;
        out.requests += b.requests.len() as u64;
        out.err_responses += reply.responses.iter().filter(|r| r.is_err()).count() as u64;
    }
    let per_batch = g0.elapsed().as_secs_f64() * 1e6 / batches.len() as f64;
    out.dispatch_us.push(per_batch);
}

/// One timed [`set_up`], its time and stage times appended to `times` and
/// `stages`.
fn timed_set_up(
    seed: u64,
    outcome: &mut Outcome,
    times: &mut Vec<f64>,
    stages: &mut Vec<SetupTimes>,
) -> Result<(ScenarioArtifact, Built), String> {
    let start = Instant::now();
    let (artifact, built, stage) = set_up(seed, outcome)?;
    times.push(start.elapsed().as_secs_f64());
    stages.push(stage);
    Ok((artifact, built))
}

/// Replays the artifact's trace once on a fresh sharded ecovisor, timing
/// every dispatch group and settlement; checks the day's digests.
fn replay_day(
    artifact: &ScenarioArtifact,
    eco: ShardedEcovisor,
    apps: &[AppId],
    out: &mut Replays,
    mut tracer: Option<&mut Tracer>,
    outcome: &mut Outcome,
) {
    let mut frames: Vec<EventFrame> = Vec::new();
    let mut entries = artifact.trace.entries.iter().peekable();
    let mut group: Vec<&RequestBatch> = Vec::new();
    let day_start = Instant::now();
    for tick in 0..artifact.spec.ticks {
        group.clear();
        while let Some(entry) = entries.next_if(|e| e.tick <= tick) {
            group.push(&entry.batch);
        }
        dispatch_group(&eco, &group, out, &mut tracer);
        let tick_key = out.ticks;
        let w0 = Instant::now();
        let phases = eco.with(|eco| {
            let b0 = Instant::now();
            eco.begin_tick();
            let b1 = Instant::now();
            eco.settle_tick();
            let b2 = Instant::now();
            for &app in apps {
                if let Some(frame) = eco.take_event_frame(app) {
                    frames.push(frame);
                }
            }
            let b3 = Instant::now();
            eco.advance_clock();
            [b0, b1, b2, b3, Instant::now()]
        });
        let w1 = Instant::now();
        out.tick_us.push(w1.duration_since(w0).as_secs_f64() * 1e6);
        out.ticks += 1;
        if let Some(t) = tracer.as_mut() {
            let parent = Some(t.record("shard.tick", None, tick_key, w0, w1));
            t.record("shard.barrier_wait", parent, tick_key, w0, phases[0]);
            t.record(
                "ecovisor.begin_tick",
                parent,
                tick_key,
                phases[0],
                phases[1],
            );
            t.record(
                "ecovisor.settle_tick",
                parent,
                tick_key,
                phases[1],
                phases[2],
            );
            t.record(
                "ecovisor.take_events",
                parent,
                tick_key,
                phases[2],
                phases[3],
            );
            t.record(
                "ecovisor.advance_clock",
                parent,
                tick_key,
                phases[3],
                phases[4],
            );
        }
    }
    group.clear();
    group.extend(entries.map(|e| &e.batch));
    dispatch_group(&eco, &group, out, &mut tracer);
    let day_s = day_start.elapsed().as_secs_f64();
    out.timed_s += day_s;
    out.day_rates.push((
        artifact.spec.ticks as f64 / day_s,
        artifact.expected.request_count as f64 / day_s,
    ));
    out.days += 1;
    out.events += frames.iter().map(|f| f.events.len() as u64).sum::<u64>();
    out.frames += frames.len() as u64;
    out.expected_frames += artifact.trace.events.len() as u64;

    let eco = eco.into_inner();
    let replayed: Vec<AppOutcome> = artifact
        .expected
        .apps
        .iter()
        .zip(apps)
        .map(|(o, &app)| AppOutcome {
            app,
            name: o.name.clone(),
            totals: eco.app_totals(app).expect("tenant registered"),
        })
        .collect();
    let day = out.days;
    outcome.check(digest(&replayed) == artifact.expected.totals_digest, || {
        format!("replay {day}: totals digest differs from the recording's")
    });
    outcome.check(digest(&frames) == artifact.expected.events_digest, || {
        format!("replay {day}: events digest differs from the recording's")
    });
}

/// Runs one measured phase: set-up, then whole-day replays for `seconds`
/// of replay time (and until p99 has ten settlements beyond it).
pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut times = Vec::with_capacity(SETUPS);
    let mut stages = Vec::with_capacity(SETUPS);
    let (artifact, built) = timed_set_up(seed, &mut outcome, &mut times, &mut stages)?;

    // Every replay records into this one hub, so its histograms cover
    // exactly the replays.
    let hub = ObsHub::new();
    let origin = Instant::now();
    let mut tracer = traced.then(|| Tracer::new(origin, 0));
    let mut replays = Replays::default();
    let cpu0 = host::cpu_seconds();
    let wall0 = Instant::now();
    let mut next = Some(built);
    // Read after the first replayed day: a fixed amount of work, so the
    // reading does not drift with how many rebuilds a run fits in.
    let mut peak_rss_mb = None;
    while replays.timed_s < seconds as f64
        || replays.tick_us.len() < MIN_P99_SAMPLES
        || replays.dispatch_us.len() < MIN_P99_SAMPLES
    {
        // The other set-ups are spread evenly through the replays, so that
        // one slow phase of the host meets few of them; each one's
        // ecovisor serves the next day.
        if times.len() < SETUPS
            && replays.timed_s >= seconds as f64 * (times.len() as f64 / SETUPS as f64)
        {
            next = Some(timed_set_up(seed, &mut outcome, &mut times, &mut stages)?.1);
        }
        let (mut eco, apps) = match next.take() {
            Some(built) => built,
            None => build_ecovisor(&artifact.spec).map_err(|e| format!("build: {e}"))?,
        };
        eco.attach_obs(Arc::clone(&hub));
        replay_day(
            &artifact,
            ShardedEcovisor::new(eco),
            &apps,
            &mut replays,
            tracer.as_mut(),
            &mut outcome,
        );
        peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
    }
    while times.len() < SETUPS {
        timed_set_up(seed, &mut outcome, &mut times, &mut stages)?;
    }
    let setup_s = stats::quantile(&times, 0.5);
    let cpu = host::cpu_seconds() - cpu0;
    let wall = wall0.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb.expect("at least one day replayed");
    outcome.attempted = replays.requests;
    outcome.failed = replays.err_responses;

    // Every replayed day is the same recorded work, so the days are
    // repeats of one another (see `stats`).
    let days = replays.days as usize;
    let steady = |s: &[f64]| {
        assert_eq!(s.len() % days, 0, "every replayed day times the same steps");
        let repeats: Vec<&[f64]> = s.chunks(s.len() / days).collect();
        stats::sorted(stats::steady_readings(&repeats))
    };
    let (rtt, ticks) = (steady(&replays.dispatch_us), steady(&replays.tick_us));
    let mut pct = |s: &[f64], p: f64, what: &str| {
        stats::percentile(s, days, p).unwrap_or_else(|| {
            outcome.failures.push(format!(
                "{what}: {} timings are too few for p{p}",
                s.len() * days
            ));
            0.0
        })
    };
    let (rtt_p50, rtt_p99) = (pct(&rtt, 0.5, "rtt"), pct(&rtt, 0.99, "rtt"));
    let (tick_p50, tick_p99) = (pct(&ticks, 0.5, "tick"), pct(&ticks, 0.99, "tick"));
    // The best replayed day (see `stats`).
    let rate = |f: fn(&(f64, f64)) -> f64| {
        stats::best(
            &replays.day_rates.iter().map(f).collect::<Vec<_>>(),
            Better::Higher,
        )
    };
    let timed = replays.timed_s;
    outcome.end_to_end = vec![
        Metric::new("setup_s", setup_s, "s", times.len()),
        Metric::new("req_per_s", rate(|d| d.1), "1/s", replays.requests as usize),
        Metric::new("rtt_p50_us", rtt_p50, "us", replays.dispatch_us.len()),
        Metric::new("rtt_p99_us", rtt_p99, "us", replays.dispatch_us.len()),
        Metric::new("ticks_per_s", rate(|d| d.0), "1/s", replays.ticks as usize),
        Metric::new("tick_p50_us", tick_p50, "us", replays.tick_us.len()),
        Metric::new("tick_p99_us", tick_p99, "us", replays.tick_us.len()),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB", 1),
    ];
    outcome.seconds_per_unit = timed / replays.ticks.max(1) as f64;
    outcome.cpu_util = cpu / (wall * host::nproc() as f64);

    if let Some(tracer) = tracer {
        let all: Vec<Span> = tracer.into_spans();
        let m = |name: &str| spans::mean_us(&all, name);
        let sum_us = |name: &str| m(name) * spans::count(&all, name) as f64;
        let n_batch = spans::count(&all, "dispatch.batch");
        let n_tick = spans::count(&all, "shard.tick");
        let timed_us = timed * 1e6;
        let stage = |f: fn(&SetupTimes) -> f64| {
            stats::best(&stages.iter().map(f).collect::<Vec<_>>(), Better::Lower)
        };
        let histogram = |h: &ecovisor::obs::Histogram| (h.sum(), h.count());
        let shard_lock = histogram(&hub.core.shard_lock_wait);
        let cop_lock = histogram(&hub.core.cop_lock_wait);
        outcome.shares = vec![
            (
                "ecovisor.settle_tick / replay time".into(),
                sum_us("ecovisor.settle_tick") / timed_us,
            ),
            (
                // Dispatch spans are sampled; scale by the batches run.
                "dispatch.batch / replay time".into(),
                m("dispatch.batch") * replays.batches as f64 / timed_us,
            ),
            (
                "shard.tick / replay time".into(),
                sum_us("shard.tick") / timed_us,
            ),
        ];
        let zero = |name: &'static str, unit: &'static str| Metric::new(name, 0.0, unit, 0);
        outcome.per_layer = vec![
            zero("client.connect_us", "us"),
            zero("client.send_us", "us"),
            zero("proto.encode_req_us", "us"),
            zero("proto.decode_req_us", "us"),
            zero("proto.encode_resp_us", "us"),
            zero("proto.decode_resp_us", "us"),
            zero("proto.req_bytes", "B"),
            zero("proto.resp_bytes", "B"),
            Metric::new("dispatch.batch_us", m("dispatch.batch"), "us", n_batch),
            Metric::new("dispatch.requests", replays.requests as f64, "count", 1),
            Metric::new(
                "dispatch.err_responses",
                replays.err_responses as f64,
                "count",
                1,
            ),
            Metric::new(
                "dispatch.shard_lock_wait_us",
                stats::histogram_mean_us(shard_lock),
                "us",
                shard_lock.1 as usize,
            ),
            Metric::new(
                "dispatch.cop_lock_wait_us",
                stats::histogram_mean_us(cop_lock),
                "us",
                cop_lock.1 as usize,
            ),
            zero("transport.residual_us", "us"),
            zero("transport.serve_us", "us"),
            zero("transport.outside_serve_us", "us"),
            zero("transport.frames_in", "count"),
            zero("transport.frames_out", "count"),
            zero("transport.bytes_in", "B"),
            zero("transport.bytes_out", "B"),
            zero("transport.frames_per_batch", "count"),
            zero("transport.conn_errors", "count"),
            zero("transport.coalesce_drops", "count"),
            Metric::new("shard.tick_us", m("shard.tick"), "us", n_tick),
            Metric::new(
                "shard.barrier_wait_us",
                m("shard.barrier_wait"),
                "us",
                n_tick,
            ),
            Metric::new(
                "ecovisor.begin_tick_us",
                m("ecovisor.begin_tick"),
                "us",
                n_tick,
            ),
            Metric::new(
                "ecovisor.settle_tick_us",
                m("ecovisor.settle_tick"),
                "us",
                n_tick,
            ),
            Metric::new(
                "ecovisor.take_events_us",
                m("ecovisor.take_events"),
                "us",
                n_tick,
            ),
            Metric::new(
                "ecovisor.advance_clock_us",
                m("ecovisor.advance_clock"),
                "us",
                n_tick,
            ),
            Metric::new(
                "ecovisor.events_per_tick",
                replays.events as f64 / replays.ticks.max(1) as f64,
                "count",
                replays.ticks as usize,
            ),
            Metric::new(
                "ecovisor.tenants_settled",
                artifact.spec.tenants.len() as f64,
                "count",
                replays.ticks as usize,
            ),
            Metric::new(
                "push.delivered_ratio",
                replays.frames as f64 / replays.expected_frames.max(1) as f64,
                "ratio",
                replays.expected_frames as usize,
            ),
            Metric::new(
                "harness.record_ms",
                stage(|s| s.record_ms),
                "ms",
                stages.len(),
            ),
            Metric::new(
                "harness.artifact_encode_ms",
                stage(|s| s.encode_ms),
                "ms",
                stages.len(),
            ),
            Metric::new(
                "harness.artifact_decode_ms",
                stage(|s| s.decode_ms),
                "ms",
                stages.len(),
            ),
            Metric::new(
                "harness.build_ecovisor_ms",
                stage(|s| s.build_ms),
                "ms",
                stages.len(),
            ),
        ];
        crate::write_spans("tenant-day", &all);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays `artifact` once and returns the gate's failures.
    fn replay_failures(artifact: &ScenarioArtifact) -> Vec<String> {
        let (eco, apps) = build_ecovisor(&artifact.spec).expect("builtin spec builds");
        let mut outcome = Outcome::default();
        replay_day(
            artifact,
            ShardedEcovisor::new(eco),
            &apps,
            &mut Replays::default(),
            None,
            &mut outcome,
        );
        outcome.failures
    }

    #[test]
    fn a_tampered_day_digest_is_caught() {
        let spec = corpus::builtin("sunny-batch").expect("builtin");
        let artifact = record(&spec).expect("records");
        assert!(replay_failures(&artifact).is_empty());

        let mut totals = artifact.clone();
        totals.expected.totals_digest ^= 1;
        assert_eq!(replay_failures(&totals).len(), 1);

        let mut events = artifact;
        events.expected.events_digest ^= 1;
        assert_eq!(replay_failures(&events).len(), 1);
    }

    #[test]
    fn seed_zero_is_the_committed_corpus_day() {
        assert_eq!(day_seed(0), corpus::default_seed(SCENARIO).unwrap());
        assert_ne!(day_seed(1), day_seed(0));
    }
}
