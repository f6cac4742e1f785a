//! `wire-small` and `wire-batch`: two v2 binary tenants against a live
//! evented server on loopback, in closed-loop lock-step rounds.
//!
//! One generator thread drives both tenants, each on its own subscribed
//! connection. A round sends every tenant's next seeded batch in turn,
//! waiting for each reply, then runs one `ShardedEcovisor::tick`
//! (settlement plus the event push). A run is a sequence of epochs: each
//! epoch sets up a fresh server and runs [`EPOCH_ROUNDS`] rounds, a week of
//! five-minute settlements, so every epoch does the same work and the
//! telemetry history the range queries walk stays bounded. Batches of
//! different tenants commute between settlements, so an in-process twin
//! fed the same batches and ticks must settle bit-identical totals and
//! produce the same event frames.

use std::time::{Duration, Instant};

use ecovisor::proto::{EnergyResponse, EventFrame, Frame, RequestBatch, ResponseBatch};
use ecovisor::{
    digest, AppId, EcovisorServer, EnergyClient, EventFilter, ObsHub, RemoteEcovisorClient,
    ServerHandle, ShardedEcovisor, WireCodec,
};

use crate::gen::{self, Expect, Generator, Shape, Tenant};
use crate::host;
use crate::report::{Metric, Outcome};
use crate::spans::{self, Span, Tracer};
use crate::stats;

/// Rounds per epoch: a week of five-minute settlements. It leaves every
/// epoch more than [`stats::MIN_P99_SAMPLES`] settlements and round trips.
const EPOCH_ROUNDS: u64 = 7 * 24 * 60 / gen::TICK_MINUTES;

/// Most per-request check failures kept verbatim (the rest are counted).
const MAX_REPORTED: usize = 8;

/// A server with its subscribed tenant connections.
struct Rig {
    handle: ServerHandle,
    tenants: Vec<Tenant>,
    clients: Vec<RemoteEcovisorClient>,
    /// Connect (hello) times, microseconds.
    connect_us: Vec<f64>,
}

fn set_up(shape: Shape, seed: u64) -> std::io::Result<Rig> {
    let (eco, tenants) = gen::build_ecovisor(shape, seed);
    let handle = EcovisorServer::bind("127.0.0.1:0", eco)?.spawn()?;
    let mut clients = Vec::with_capacity(tenants.len());
    let mut connect_us = Vec::with_capacity(tenants.len());
    for tenant in &tenants {
        let start = Instant::now();
        let mut client = RemoteEcovisorClient::connect(handle.addr(), tenant.app)?;
        connect_us.push(start.elapsed().as_secs_f64() * 1e6);
        if client.codec() != WireCodec::Binary {
            return Err(std::io::Error::other("server did not negotiate binary"));
        }
        client
            .subscribe_events(EventFilter::all())
            .map_err(|e| std::io::Error::other(format!("subscribe: {e}")))?;
        clients.push(client);
    }
    Ok(Rig {
        handle,
        tenants,
        clients,
        connect_us,
    })
}

/// Server counters; histograms as (sum of nanoseconds, count).
#[derive(Debug, Clone, Copy, Default)]
struct HubReading {
    frames_in: u64,
    frames_out: u64,
    bytes_in: u64,
    bytes_out: u64,
    conn_errors: u64,
    coalesce_drops: u64,
    serve: (u64, u64),
    shard_lock: (u64, u64),
    cop_lock: (u64, u64),
    barrier: (u64, u64),
}

impl HubReading {
    fn read(hub: &ObsHub) -> HubReading {
        let t = &hub.transport;
        let h = |h: &ecovisor::obs::Histogram| (h.sum(), h.count());
        HubReading {
            frames_in: t.frames_in.value(),
            frames_out: t.frames_out.value(),
            bytes_in: t.bytes_in.value(),
            bytes_out: t.bytes_out.value(),
            conn_errors: t.conn_errors.value(),
            coalesce_drops: t.coalesce_drops.value(),
            serve: h(&t.serve_latency),
            shard_lock: h(&hub.core.shard_lock_wait),
            cop_lock: h(&hub.core.cop_lock_wait),
            barrier: h(&hub.core.barrier_wait),
        }
    }

    /// Adds what grew between `before` and `after` to `self`.
    fn accumulate(&mut self, before: &HubReading, after: &HubReading) {
        let add = |x: &mut (u64, u64), a: (u64, u64), b: (u64, u64)| {
            x.0 += a.0 - b.0;
            x.1 += a.1 - b.1;
        };
        self.frames_in += after.frames_in - before.frames_in;
        self.frames_out += after.frames_out - before.frames_out;
        self.bytes_in += after.bytes_in - before.bytes_in;
        self.bytes_out += after.bytes_out - before.bytes_out;
        self.conn_errors += after.conn_errors - before.conn_errors;
        self.coalesce_drops += after.coalesce_drops - before.coalesce_drops;
        add(&mut self.serve, after.serve, before.serve);
        add(&mut self.shard_lock, after.shard_lock, before.shard_lock);
        add(&mut self.cop_lock, after.cop_lock, before.cop_lock);
        add(&mut self.barrier, after.barrier, before.barrier);
    }
}

/// What one epoch's rounds produced.
#[derive(Default)]
struct Rounds {
    /// Rounds run before this epoch in the run: span keys count from here.
    first_round: u64,
    rounds: u64,
    /// Batch round trips, in the order they were sent.
    rtt_us: Vec<f64>,
    tick_us: Vec<f64>,
    requests: u64,
    err_responses: u64,
    transport_failed: u64,
    mismatches: u64,
    reported: Vec<String>,
    req_bytes: u64,
    resp_bytes: u64,
    /// Event frames the traced twin took, per tenant.
    twin_frames: Vec<Vec<EventFrame>>,
    twin_events: u64,
}

impl Rounds {
    fn mismatch(&mut self, what: impl FnOnce() -> String) {
        self.mismatches += 1;
        if self.reported.len() < MAX_REPORTED {
            self.reported.push(what());
        }
    }
}

/// Checks every response against the variant its request expects.
fn check_responses(out: &mut Rounds, key: u64, expect: &[Expect], responses: &[EnergyResponse]) {
    if responses.len() != expect.len() {
        out.mismatch(|| {
            format!(
                "batch {key}: {} responses for {} requests",
                responses.len(),
                expect.len()
            )
        });
        return;
    }
    for (i, (e, r)) in expect.iter().zip(responses).enumerate() {
        if r.is_err() {
            out.err_responses += 1;
        }
        if !e.matches(r) {
            out.mismatch(|| format!("batch {key} request {i}: expected {e:?}, got {r:?}"));
        }
    }
}

/// The traced phase's round trip: the wire call, checked against the
/// twin's answer to the same batch. On a sampled round the codec on the
/// identical frames and the twin's dispatch are timed beside the call.
fn twin_send(
    client: &mut RemoteEcovisorClient,
    batch: RequestBatch,
    key: u64,
    twin: &ShardedEcovisor,
    tracer: Option<&mut Tracer>,
    out: &mut Rounds,
) -> Vec<EnergyResponse> {
    let codec = WireCodec::Binary;
    let frame = Frame::Request(batch);
    let e0 = Instant::now();
    let bytes = tracer.is_some().then(|| codec.encode(&frame));
    let e1 = Instant::now();
    if let Some(bytes) = &bytes {
        let decoded: Result<Frame, _> = codec.decode(bytes);
        if !matches!(&decoded, Ok(f) if *f == frame) {
            out.mismatch(|| format!("batch {key}: request frame does not round-trip"));
        }
    }
    let e2 = Instant::now();
    let Frame::Request(batch) = frame else {
        unreachable!("built as a request above")
    };
    let s0 = Instant::now();
    let responses = client.send(batch.requests.clone());
    let s1 = Instant::now();
    out.rtt_us.push(s1.duration_since(s0).as_secs_f64() * 1e6);
    let reply = Frame::Response(ResponseBatch {
        version: batch.version,
        app: batch.app,
        responses,
    });
    let r0 = Instant::now();
    let reply_bytes = tracer.is_some().then(|| codec.encode(&reply));
    let r1 = Instant::now();
    if let Some(reply_bytes) = &reply_bytes {
        let back: Result<Frame, _> = codec.decode(reply_bytes);
        if !matches!(&back, Ok(f) if *f == reply) {
            out.mismatch(|| format!("batch {key}: response frame does not round-trip"));
        }
    }
    let r2 = Instant::now();
    let d0 = Instant::now();
    let twin_reply = twin.dispatch_batch(&batch);
    let d1 = Instant::now();
    let Frame::Response(reply) = reply else {
        unreachable!("built as a response above")
    };
    if twin_reply.responses != reply.responses {
        out.mismatch(|| format!("batch {key}: wire and twin responses differ"));
    }
    if let (Some(tracer), Some(bytes), Some(reply_bytes)) = (tracer, bytes, reply_bytes) {
        let send = tracer.record("client.send", None, key, s0, s1);
        tracer.record("proto.encode_req", Some(send), key, e0, e1);
        tracer.record("proto.decode_req", Some(send), key, e1, e2);
        tracer.record("proto.encode_resp", Some(send), key, r0, r1);
        tracer.record("proto.decode_resp", Some(send), key, r1, r2);
        tracer.record("dispatch.batch", Some(send), key, d0, d1);
        out.req_bytes += bytes.len() as u64 + 4;
        out.resp_bytes += reply_bytes.len() as u64 + 4;
    }
    reply.responses
}

/// One settlement: the server's tick (which pushes event frames), then in
/// the traced phase the twin's, phase by phase, timed on a sampled round.
fn settle(
    shared: &ShardedEcovisor,
    twin: Option<&ShardedEcovisor>,
    mut tracer: Option<&mut Tracer>,
    out: &mut Rounds,
) {
    let tick = out.first_round + out.tick_us.len() as u64;
    let t0 = Instant::now();
    shared.tick();
    let t1 = Instant::now();
    out.tick_us.push(t1.duration_since(t0).as_secs_f64() * 1e6);
    let Some(twin) = twin else {
        return;
    };
    let phases = twin.with(|eco| {
        let b0 = Instant::now();
        eco.begin_tick();
        let b1 = Instant::now();
        eco.settle_tick();
        let b2 = Instant::now();
        for (i, app) in eco.app_ids().into_iter().enumerate() {
            if let Some(frame) = eco.take_event_frame(app) {
                out.twin_events += frame.events.len() as u64;
                out.twin_frames[i].push(frame);
            }
        }
        let b3 = Instant::now();
        eco.advance_clock();
        [b0, b1, b2, b3, Instant::now()]
    });
    if let Some(tracer) = tracer.as_mut() {
        let parent = Some(tracer.record("shard.tick", None, tick, t0, t1));
        let names = [
            "ecovisor.begin_tick",
            "ecovisor.settle_tick",
            "ecovisor.take_events",
            "ecovisor.advance_clock",
        ];
        for (name, w) in names.into_iter().zip(phases.windows(2)) {
            tracer.record(name, parent, tick, w[0], w[1]);
        }
    }
}

/// The closed loop: each round sends every tenant's next batch in turn on
/// its own connection, waiting for each reply, then settles once. The
/// epoch ends on a round of batches rather than a settlement, so every
/// event frame pushed so far has reached its tenant ahead of a response.
/// The traced phase feeds the twin every batch and settlement and records
/// spans on one round in [`spans::TRACE_EVERY`].
fn drive(
    clients: &mut [RemoteEcovisorClient],
    mut generators: Vec<Generator>,
    shared: &ShardedEcovisor,
    twin: Option<&ShardedEcovisor>,
    mut tracer: Option<&mut Tracer>,
    first_round: u64,
) -> Rounds {
    let mut out = Rounds {
        first_round,
        twin_frames: vec![Vec::new(); clients.len()],
        ..Rounds::default()
    };
    loop {
        let round = out.rounds;
        let sampled = round.is_multiple_of(spans::TRACE_EVERY);
        let mut broken = false;
        for (i, (client, generator)) in clients.iter_mut().zip(&mut generators).enumerate() {
            let key = (first_round + round) * gen::TENANTS as u64 + i as u64;
            let batch = generator.next(round);
            let expect: Vec<Expect> = batch.requests.iter().map(Expect::of).collect();
            out.requests += expect.len() as u64;
            let responses = match twin {
                Some(twin) => {
                    let tracer = tracer.as_deref_mut().filter(|_| sampled);
                    twin_send(client, batch, key, twin, tracer, &mut out)
                }
                None => {
                    let s0 = Instant::now();
                    let responses = client.send(batch.requests);
                    out.rtt_us.push(s0.elapsed().as_secs_f64() * 1e6);
                    responses
                }
            };
            if client.is_broken() {
                broken = true;
                out.transport_failed += expect.len() as u64;
                out.mismatch(|| format!("batch {key}: transport failed"));
            } else {
                check_responses(&mut out, key, &expect, &responses);
            }
        }
        out.rounds += 1;
        if broken || out.rounds == EPOCH_ROUNDS {
            return out;
        }
        let tracer = tracer.as_deref_mut().filter(|_| sampled);
        settle(shared, twin, tracer, &mut out);
    }
}

/// Feeds a fresh twin the batches and ticks an untraced epoch sent,
/// regenerated from the seed; returns its event frames per tenant.
fn replay_twin(
    twin: &ShardedEcovisor,
    mut generators: Vec<Generator>,
    rounds: u64,
) -> (Vec<Vec<EventFrame>>, u64) {
    let mut frames = vec![Vec::new(); generators.len()];
    let mut events = 0;
    for round in 0..rounds {
        for generator in &mut generators {
            twin.dispatch_batch(&generator.next(round));
        }
        if round + 1 == rounds {
            break;
        }
        twin.with(|eco| {
            eco.begin_tick();
            eco.settle_tick();
            for (i, app) in eco.app_ids().into_iter().enumerate() {
                if let Some(frame) = eco.take_event_frame(app) {
                    events += frame.events.len() as u64;
                    frames[i].push(frame);
                }
            }
            eco.advance_clock();
        });
    }
    (frames, events)
}

fn totals_digests(eco: &ShardedEcovisor, apps: &[AppId]) -> Vec<u64> {
    eco.read(|eco| {
        apps.iter()
            .map(|&app| digest(&eco.app_totals(app).expect("tenant registered")))
            .collect()
    })
}

/// Waits (bounded) for the reactor to reap every dropped connection.
fn wait_for_reap(handle: &ServerHandle) -> ecovisor::ServerStats {
    let start = Instant::now();
    loop {
        let stats = handle.stats();
        let idle = stats.active_connections == 0
            && stats.subscriber_backlog == 0
            && stats.recv_buffer_bytes == 0;
        if idle || start.elapsed() > Duration::from_secs(5) {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The twin gate: every tenant's totals digest and received event frames
/// must equal the in-process twin's.
fn twin_gate(
    outcome: &mut Outcome,
    server_totals: &[u64],
    twin_totals: &[u64],
    received: &[Vec<EventFrame>],
    twin_frames: &[Vec<EventFrame>],
) {
    for (i, (server, twin)) in server_totals.iter().zip(twin_totals).enumerate() {
        outcome.check(server == twin, || {
            format!("tenant {i}: server totals digest {server:#x} != twin {twin:#x}")
        });
    }
    for (i, (got, want)) in received.iter().zip(twin_frames).enumerate() {
        outcome.check(digest(got) == digest(want), || {
            format!(
                "tenant {i}: received {} event frames, the twin took {}",
                got.len(),
                want.len()
            )
        });
    }
}

/// One measured epoch.
struct Epoch {
    setup_s: f64,
    connect_us: Vec<f64>,
    /// Wall seconds of the rounds.
    seconds: f64,
    rounds: Rounds,
    /// What the server's counters grew by during the rounds.
    hub: HubReading,
    frames_received: u64,
    twin_frames: u64,
    twin_events: u64,
}

/// Sets up a fresh server, runs [`EPOCH_ROUNDS`] rounds, then the leak,
/// accounting and twin gates (failures go to `outcome`).
fn epoch(
    shape: Shape,
    seed: u64,
    tracer: Option<&mut Tracer>,
    first_round: u64,
    outcome: &mut Outcome,
) -> std::io::Result<Epoch> {
    let traced = tracer.is_some();
    let start = Instant::now();
    let mut rig = set_up(shape, seed)?;
    let setup_s = start.elapsed().as_secs_f64();
    if outcome.server_workers == 0 {
        outcome.server_workers = host::threads_named("ecovisor-worke");
    }
    let obs = rig.handle.obs_hub().expect("bind attaches an obs hub");
    let shared = rig.handle.ecovisor();
    let apps: Vec<AppId> = rig.tenants.iter().map(|t| t.app).collect();
    let twin = traced.then(|| {
        let (mut eco, _) = gen::build_ecovisor(shape, seed);
        eco.attach_obs(ObsHub::new());
        ShardedEcovisor::new(eco)
    });
    let tenants = rig.tenants.clone();
    let generators = || -> Vec<Generator> {
        tenants
            .iter()
            .enumerate()
            .map(|(i, t)| Generator::new(seed, i, shape, t.clone()))
            .collect()
    };
    let before = HubReading::read(&obs);
    let t0 = Instant::now();
    let mut rounds = drive(
        &mut rig.clients,
        generators(),
        &shared,
        twin.as_ref(),
        tracer,
        first_round,
    );
    let seconds = t0.elapsed().as_secs_f64();
    let mut hub = HubReading::default();
    hub.accumulate(&before, &HubReading::read(&obs));

    if rounds.mismatches > 0 {
        outcome.failures.push(format!(
            "{} response check failures, first: {}",
            rounds.mismatches,
            rounds.reported.join("; ")
        ));
    }
    // Accounting: one request frame in and one response frame out per
    // batch, plus every event frame the tenants received.
    let received: Vec<Vec<EventFrame>> = rig
        .clients
        .iter_mut()
        .map(RemoteEcovisorClient::take_event_frames)
        .collect();
    let frames_received: u64 = received.iter().map(|f| f.len() as u64).sum();
    let batches = rounds.rounds * gen::TENANTS as u64;
    outcome.check(hub.frames_in == batches, || {
        format!(
            "transport.frames_in grew by {}, {batches} batches were sent",
            hub.frames_in
        )
    });
    outcome.check(hub.frames_out == batches + frames_received, || {
        format!(
            "transport.frames_out grew by {}, expected {batches} responses + \
             {frames_received} event frames",
            hub.frames_out
        )
    });

    // Totals on the server, then the leak gate once the clients drop.
    let server_totals = totals_digests(&shared, &apps);
    drop(std::mem::take(&mut rig.clients));
    let residue = wait_for_reap(&rig.handle);
    outcome.check(
        residue.active_connections == 0
            && residue.subscriber_backlog == 0
            && residue.recv_buffer_bytes == 0,
        || format!("server resources leaked after the clients dropped: {residue:?}"),
    );
    for gauge in [&obs.transport.queue_depth, &obs.transport.inbox_depth] {
        let v = gauge.value();
        outcome.check(v == 0, || {
            format!("a transport depth gauge reads {v} at rest")
        });
    }
    drop(shared);
    rig.handle.shutdown();

    // The twin: fed in line on the traced run, replayed from the seed
    // otherwise.
    let (twin, twin_frames, twin_events) = match twin {
        Some(twin) => (
            twin,
            std::mem::take(&mut rounds.twin_frames),
            rounds.twin_events,
        ),
        None => {
            let twin = ShardedEcovisor::new(gen::build_ecovisor(shape, seed).0);
            let (frames, events) = replay_twin(&twin, generators(), rounds.rounds);
            (twin, frames, events)
        }
    };
    let twin_totals = totals_digests(&twin, &apps);
    twin_gate(
        outcome,
        &server_totals,
        &twin_totals,
        &received,
        &twin_frames,
    );
    let twin_frame_count: u64 = twin_frames.iter().map(|f| f.len() as u64).sum();
    outcome.check(twin_frame_count > 0, || {
        "the epoch pushed no event frames, so push went unmeasured".into()
    });
    Ok(Epoch {
        setup_s,
        connect_us: rig.connect_us,
        seconds,
        rounds,
        hub,
        frames_received,
        twin_frames: twin_frame_count,
        twin_events,
    })
}

/// Runs one measured phase: epochs until `seconds` of rounds have run.
/// Timings and rates come from each round's steady readings across the
/// epochs (see `stats`).
pub fn run(shape: Shape, seed: u64, seconds: u64, traced: bool) -> std::io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut timed = 0.0;
    let cpu0 = host::cpu_seconds();
    let wall0 = Instant::now();
    let mut tracer = traced.then(|| Tracer::new(wall0, 0));
    // Read after the first epoch: a fixed amount of work, so the reading
    // does not grow with the samples a longer or faster run keeps.
    let mut peak_rss_mb = None;
    while timed < seconds as f64 {
        let first_round = epochs.len() as u64 * EPOCH_ROUNDS;
        let e = epoch(shape, seed, tracer.as_mut(), first_round, &mut outcome)?;
        timed += e.seconds;
        epochs.push(e);
        if !outcome.failures.is_empty() {
            return Ok(outcome);
        }
        peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
    }
    let peak_rss_mb = peak_rss_mb.expect("at least one epoch ran");
    let cpu = host::cpu_seconds() - cpu0;
    let wall = wall0.elapsed().as_secs_f64();
    let all: Vec<Span> = tracer.map(Tracer::into_spans).unwrap_or_default();

    let sum = |f: fn(&Epoch) -> u64| epochs.iter().map(f).sum::<u64>();
    let requests = sum(|e| e.rounds.requests);
    let rounds = sum(|e| e.rounds.rounds);
    let settled = sum(|e| e.rounds.tick_us.len() as u64);
    let err_responses = sum(|e| e.rounds.err_responses);
    outcome.attempted = requests;
    outcome.failed = err_responses + sum(|e| e.rounds.transport_failed);

    // Every epoch replays the same seeded rounds, so the epochs are
    // repeats of one another (see `stats`). The rates are those of an
    // epoch whose every round trip and settlement took its steady reading.
    let steady = |f: fn(&Rounds) -> &[f64]| {
        let repeats: Vec<&[f64]> = epochs.iter().map(|e| f(&e.rounds)).collect();
        stats::sorted(stats::steady_readings(&repeats))
    };
    let (rtt, tick) = (steady(|r| &r.rtt_us), steady(|r| &r.tick_us));
    let repeats = epochs.len();
    let pct = |readings: &[f64], p: f64| {
        stats::percentile(readings, repeats, p)
            .expect("an epoch holds more than MIN_P99_SAMPLES round trips and settlements")
    };
    let epoch_s = (rtt.iter().sum::<f64>() + tick.iter().sum::<f64>()) / 1e6;
    let per_epoch = |total: u64| total as f64 / repeats as f64 / epoch_s;
    let setups: Vec<f64> = epochs.iter().map(|e| e.setup_s).collect();
    outcome.end_to_end = vec![
        Metric::new("setup_s", stats::quantile(&setups, 0.5), "s", setups.len()),
        Metric::new("req_per_s", per_epoch(requests), "1/s", requests as usize),
        Metric::new("rtt_p50_us", pct(&rtt, 0.5), "us", rtt.len() * repeats),
        Metric::new("rtt_p99_us", pct(&rtt, 0.99), "us", rtt.len() * repeats),
        Metric::new("ticks_per_s", per_epoch(settled), "1/s", settled as usize),
        Metric::new("tick_p50_us", pct(&tick, 0.5), "us", settled as usize),
        Metric::new("tick_p99_us", pct(&tick, 0.99), "us", settled as usize),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB", 1),
    ];
    outcome.seconds_per_unit = timed / rounds.max(1) as f64;
    outcome.cpu_util = cpu / (wall * host::nproc() as f64);

    if traced {
        let mut hub = HubReading::default();
        for e in &epochs {
            hub.accumulate(&HubReading::default(), &e.hub);
        }
        let connect_us: Vec<f64> = epochs.iter().flat_map(|e| e.connect_us.clone()).collect();
        let totals = Totals {
            requests,
            err_responses,
            batches: rounds * gen::TENANTS as u64,
            settled,
            req_bytes: sum(|e| e.rounds.req_bytes),
            resp_bytes: sum(|e| e.rounds.resp_bytes),
            frames_received: sum(|e| e.frames_received),
            twin_frames: sum(|e| e.twin_frames),
            twin_events: sum(|e| e.twin_events),
        };
        outcome.per_layer = per_layer(&all, &hub, &connect_us, &totals);
        let m = |name: &str| spans::mean_us(&all, name);
        let send = m("client.send");
        let proto = m("proto.encode_req")
            + m("proto.decode_req")
            + m("proto.encode_resp")
            + m("proto.decode_resp");
        let dispatch = m("dispatch.batch");
        outcome.shares = vec![
            ("proto.* / client.send".into(), proto / send),
            ("dispatch.batch / client.send".into(), dispatch / send),
            (
                "transport.residual / client.send".into(),
                (send - proto - dispatch) / send,
            ),
            (
                "ecovisor.settle_tick / shard.tick".into(),
                m("ecovisor.settle_tick") / m("shard.tick"),
            ),
        ];
        crate::write_spans(shape_name(shape), &all);
    }
    Ok(outcome)
}

/// Run totals the per-layer metrics are folded from.
struct Totals {
    requests: u64,
    err_responses: u64,
    batches: u64,
    settled: u64,
    req_bytes: u64,
    resp_bytes: u64,
    frames_received: u64,
    twin_frames: u64,
    twin_events: u64,
}

fn per_layer(all: &[Span], hub: &HubReading, connect_us: &[f64], t: &Totals) -> Vec<Metric> {
    let m = |name: &str| spans::mean_us(all, name);
    let mean_us = stats::histogram_mean_us;
    let send = m("client.send");
    let proto = m("proto.encode_req")
        + m("proto.decode_req")
        + m("proto.encode_resp")
        + m("proto.decode_resp");
    let dispatch = m("dispatch.batch");
    let serve = mean_us(hub.serve);
    let per_batch = |v: u64| v as f64 / t.batches.max(1) as f64;
    let n_send = spans::count(all, "client.send");
    let per_span = |v: u64| v as f64 / n_send.max(1) as f64;
    let n_tick = spans::count(all, "shard.tick");
    let settled = t.settled as usize;
    let count = |name, v: u64| Metric::new(name, v as f64, "count", 1);
    let unused = |name| Metric::new(name, 0.0, "ms", 0);
    vec![
        Metric::new(
            "client.connect_us",
            stats::mean(connect_us),
            "us",
            connect_us.len(),
        ),
        Metric::new("client.send_us", send, "us", n_send),
        Metric::new("proto.encode_req_us", m("proto.encode_req"), "us", n_send),
        Metric::new("proto.decode_req_us", m("proto.decode_req"), "us", n_send),
        Metric::new("proto.encode_resp_us", m("proto.encode_resp"), "us", n_send),
        Metric::new("proto.decode_resp_us", m("proto.decode_resp"), "us", n_send),
        Metric::new("proto.req_bytes", per_span(t.req_bytes), "B", n_send),
        Metric::new("proto.resp_bytes", per_span(t.resp_bytes), "B", n_send),
        Metric::new("dispatch.batch_us", dispatch, "us", n_send),
        count("dispatch.requests", t.requests),
        count("dispatch.err_responses", t.err_responses),
        Metric::new(
            "dispatch.shard_lock_wait_us",
            mean_us(hub.shard_lock),
            "us",
            hub.shard_lock.1 as usize,
        ),
        Metric::new(
            "dispatch.cop_lock_wait_us",
            mean_us(hub.cop_lock),
            "us",
            hub.cop_lock.1 as usize,
        ),
        Metric::new(
            "transport.residual_us",
            send - proto - dispatch,
            "us",
            n_send,
        ),
        Metric::new("transport.serve_us", serve, "us", hub.serve.1 as usize),
        Metric::new("transport.outside_serve_us", send - serve, "us", n_send),
        count("transport.frames_in", hub.frames_in),
        count("transport.frames_out", hub.frames_out),
        Metric::new("transport.bytes_in", hub.bytes_in as f64, "B", 1),
        Metric::new("transport.bytes_out", hub.bytes_out as f64, "B", 1),
        Metric::new(
            "transport.frames_per_batch",
            per_batch(hub.frames_in + hub.frames_out),
            "count",
            t.batches as usize,
        ),
        count("transport.conn_errors", hub.conn_errors),
        count("transport.coalesce_drops", hub.coalesce_drops),
        Metric::new("shard.tick_us", m("shard.tick"), "us", n_tick),
        Metric::new(
            "shard.barrier_wait_us",
            mean_us(hub.barrier),
            "us",
            hub.barrier.1 as usize,
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
            t.twin_events as f64 / t.settled.max(1) as f64,
            "count",
            settled,
        ),
        Metric::new(
            "ecovisor.tenants_settled",
            gen::TENANTS as f64,
            "count",
            settled,
        ),
        Metric::new(
            "push.delivered_ratio",
            t.frames_received as f64 / t.twin_frames.max(1) as f64,
            "ratio",
            t.twin_frames as usize,
        ),
        unused("harness.record_ms"),
        unused("harness.artifact_encode_ms"),
        unused("harness.artifact_decode_ms"),
        unused("harness.build_ecovisor_ms"),
    ]
}

pub fn shape_name(shape: Shape) -> &'static str {
    match shape {
        Shape::Small => "wire-small",
        Shape::Batch => "wire-batch",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecovisor::ProtoError;
    use simkit::units::WattHours;

    #[test]
    fn a_tampered_response_is_caught() {
        let (eco, tenants) = gen::build_ecovisor(Shape::Batch, 7);
        let batch = Generator::new(7, 0, Shape::Batch, tenants[0].clone()).next(3);
        let expect: Vec<Expect> = batch.requests.iter().map(Expect::of).collect();
        let mut responses = eco.dispatch_batch(&batch).responses;
        let mut out = Rounds::default();
        check_responses(&mut out, 0, &expect, &responses);
        assert_eq!((out.mismatches, out.err_responses), (0, 0));

        // The sweep opens with GetContainerPower: an Energy answer is the
        // wrong variant, an Err is both an error and a mismatch.
        responses[0] = EnergyResponse::Energy(WattHours::ZERO);
        responses[1] = EnergyResponse::Err(ProtoError::Other("tampered".into()));
        check_responses(&mut out, 0, &expect, &responses);
        assert_eq!((out.mismatches, out.err_responses), (2, 1));

        responses.pop();
        check_responses(&mut out, 0, &expect, &responses);
        assert_eq!(out.mismatches, 3);
    }

    #[test]
    fn a_tampered_digest_or_frame_is_caught() {
        let frame = |tick| EventFrame {
            version: ecovisor::PROTOCOL_VERSION,
            app: AppId::new(1),
            tick,
            events: Vec::new(),
        };
        let frames = vec![vec![frame(1), frame(4)], vec![]];
        let mut clean = Outcome::default();
        twin_gate(&mut clean, &[1, 2], &[1, 2], &frames, &frames);
        assert!(clean.failures.is_empty());

        let mut tampered = Outcome::default();
        twin_gate(&mut tampered, &[1, 2], &[1, 3], &frames, &frames);
        assert_eq!(tampered.failures.len(), 1);

        let mut dropped = Outcome::default();
        let fewer = vec![vec![frame(1)], vec![]];
        twin_gate(&mut dropped, &[1, 2], &[1, 2], &fewer, &frames);
        assert_eq!(dropped.failures.len(), 1);
    }

    #[test]
    fn a_short_wire_run_passes_every_gate() {
        let outcome = run(Shape::Small, 11, 1, false).expect("loopback server");
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert!(outcome.attempted >= EPOCH_ROUNDS * gen::TENANTS as u64);
        assert_eq!(outcome.failed, 0);
    }
}
