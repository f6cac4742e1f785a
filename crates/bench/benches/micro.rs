//! Micro-benchmarks of the ecovisor's hot paths: per-tick settlement,
//! telemetry queries, scheduler placement, and the latency model.
//! Includes an ablation of the excess-solar policies (DESIGN.md §7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use carbon_intel::service::TraceCarbonService;
use container_cop::{AppId, ContainerSpec, Cop, CopConfig, CopError};
use ecovisor::{
    Application, EcovisorBuilder, EcovisorClient, EnergyClient, EnergyShare, ExcessPolicy,
    Simulation,
};
use energy_system::solar::TraceSolarSource;
use power_telemetry::Tsdb;
use simkit::time::SimTime;
use simkit::trace::Trace;
use simkit::units::WattHours;
use workloads::web::response_quantile;

struct Busy(u32);

impl Application for Busy {
    fn on_start(&mut self, api: &mut EcovisorClient<'_>) {
        for _ in 0..self.0 {
            if let Ok(c) = api.launch_container(ContainerSpec::quad_core()) {
                let _ = api.set_container_demand(c, 1.0);
            }
        }
    }
    fn on_tick(&mut self, _api: &mut EcovisorClient<'_>) {}
}

fn settlement_sim(apps: u32, excess: ExcessPolicy) -> Simulation {
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(4 * apps))
        .carbon(Box::new(TraceCarbonService::new(
            "flat",
            Trace::constant(200.0),
        )))
        .solar(Box::new(TraceSolarSource::new(Trace::constant(
            40.0 * f64::from(apps),
        ))))
        .excess(excess)
        .build();
    let mut sim = Simulation::new(eco);
    for i in 0..apps {
        let share = EnergyShare::grid_only()
            .with_solar_fraction(1.0 / f64::from(apps))
            .with_battery(WattHours::new(1400.0 / f64::from(apps)))
            .with_initial_soc(0.5);
        sim.add_app(&format!("app{i}"), share, Box::new(Busy(2)))
            .expect("fits");
    }
    sim
}

fn bench_tick_settlement(c: &mut Criterion) {
    let mut group = c.benchmark_group("tick_settlement");
    for apps in [1u32, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(apps), &apps, |b, &apps| {
            let mut sim = settlement_sim(apps, ExcessPolicy::Curtail);
            b.iter(|| sim.step());
        });
    }
    group.finish();
}

fn bench_excess_policy_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("excess_policy_ablation");
    for (name, policy) in [
        ("curtail", ExcessPolicy::Curtail),
        ("redistribute", ExcessPolicy::Redistribute),
    ] {
        group.bench_function(name, |b| {
            let mut sim = settlement_sim(4, policy);
            b.iter(|| sim.step());
        });
    }
    group.finish();
}

fn bench_tsdb_queries(c: &mut Criterion) {
    let mut db = Tsdb::new();
    for i in 0..10_000u64 {
        db.record("power", "app1", SimTime::from_secs(i * 60), (i % 97) as f64);
    }
    let from = SimTime::from_secs(0);
    let to = SimTime::from_secs(10_000 * 60);
    c.bench_function("tsdb_mean_10k", |b| {
        b.iter(|| std::hint::black_box(db.mean("power", "app1", from, to)))
    });
    c.bench_function("tsdb_integrate_10k", |b| {
        b.iter(|| std::hint::black_box(db.integrate("power", "app1", from, to)))
    });
    // The window a Table 2 interval getter asks for: the last 12 samples.
    let tail = SimTime::from_secs((10_000 - 12) * 60);
    c.bench_function("tsdb_integrate_window_10k", |b| {
        b.iter(|| std::hint::black_box(db.integrate("power", "app1", tail, to)))
    });
    c.bench_function("tsdb_p95_10k", |b| {
        b.iter(|| std::hint::black_box(db.percentile("power", "app1", from, to, 95.0)))
    });
}

fn bench_scheduler_placement(c: &mut Criterion) {
    c.bench_function("placement_64_servers", |b| {
        b.iter_batched(
            || Cop::new(CopConfig::microserver_cluster(64)),
            |mut cop| -> Result<(), CopError> {
                for i in 0..64 {
                    cop.launch(AppId::new(i % 4), ContainerSpec::quad_core())?;
                }
                Ok(())
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_erlang_latency(c: &mut Criterion) {
    c.bench_function("erlang_p95_8_servers", |b| {
        b.iter(|| std::hint::black_box(response_quantile(8, 100.0, 700.0, 0.95)))
    });
}

criterion_group!(
    micro,
    bench_tick_settlement,
    bench_excess_policy_ablation,
    bench_tsdb_queries,
    bench_scheduler_placement,
    bench_erlang_latency,
);
criterion_main!(micro);
