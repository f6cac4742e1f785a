//! The wire workloads' inputs: the ecovisor both tenants run on and the
//! seeded request generator that drives them.
//!
//! Everything here is a pure function of the workload seed. The server's
//! ecovisor and the in-process twin are two calls to [`build_ecovisor`],
//! and a [`Generator`] replayed from the same seed emits byte-identical
//! batches, which is what lets the correctness gate re-feed the twin after
//! an untraced run instead of holding every batch in memory.

use carbon_intel::{CarbonTraceBuilder, RegionKind};
use container_cop::{AppId, ContainerId, ContainerSpec, CopConfig};
use ecovisor::proto::{EnergyRequest, EnergyResponse, RequestBatch};
use ecovisor::{Ecovisor, EcovisorBuilder, EnergyShare};
use energy_system::solar::SolarArrayBuilder;
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};
use simkit::units::{WattHours, Watts};

/// Tenants on the wire workloads; each gets one connection and one
/// generator thread.
pub const TENANTS: usize = 2;
/// Containers per tenant on `wire-batch` (one telemetry sweep covers all).
pub const BATCH_CONTAINERS: usize = 16;
/// Containers per tenant on `wire-small`.
pub const SMALL_CONTAINERS: usize = 2;
/// Width of the trailing window the `wire-batch` energy and carbon
/// queries cover, in ticks.
pub const WINDOW_TICKS: u64 = 12;
/// Settlement cadence of the wire workloads' ecovisor.
pub const TICK_MINUTES: u64 = 5;

/// The two wire request shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One Table 1 call per batch, three getters to one setter.
    Small,
    /// A 64-request per-container telemetry sweep with one cap write per
    /// container.
    Batch,
}

impl Shape {
    fn containers(self) -> usize {
        match self {
            Shape::Small => SMALL_CONTAINERS,
            Shape::Batch => BATCH_CONTAINERS,
        }
    }
}

/// One wire tenant as the generator sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// The tenant's app id.
    pub app: AppId,
    /// Its containers, in launch order.
    pub containers: Vec<ContainerId>,
}

/// Derives an independent stream seed from the workload seed.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    SimRng::from_seed(seed)
        .fork_indexed("perfbench", index)
        .seed()
}

/// Builds the wire workloads' ecovisor: volatile CAISO carbon and a
/// mixed-weather solar array (so settlement raises carbon and solar
/// notifications), two tenants with a solar share and a half-charged
/// virtual battery, and running containers with seeded demand.
pub fn build_ecovisor(shape: Shape, seed: u64) -> (Ecovisor, Vec<Tenant>) {
    let mut eco = EcovisorBuilder::new()
        .tick_interval(SimDuration::from_minutes(TICK_MINUTES))
        .cluster(CopConfig::microserver_cluster(16))
        .carbon(Box::new(
            CarbonTraceBuilder::new(RegionKind::California.profile())
                .days(2)
                .seed(sub_seed(seed, 0))
                .build_service(),
        ))
        .solar(Box::new(
            SolarArrayBuilder::new(400.0)
                .days(2)
                .seed(sub_seed(seed, 1))
                .build_source(),
        ))
        .build();
    let mut rng = SimRng::from_seed(sub_seed(seed, 2));
    let tenants = (0..TENANTS)
        .map(|i| {
            let share = EnergyShare::grid_only()
                .with_solar_fraction(0.5)
                .with_battery(WattHours::new(100.0))
                .with_initial_soc(0.5);
            let app = eco
                .register_app(format!("tenant-{i}"), share)
                .expect("the two shares fit the default physical system");
            let launch = vec![
                EnergyRequest::LaunchContainer {
                    spec: ContainerSpec::single_core(),
                };
                shape.containers()
            ];
            let containers: Vec<ContainerId> = eco
                .dispatch_batch(&RequestBatch::new(app, launch))
                .responses
                .into_iter()
                .map(|r| match r {
                    EnergyResponse::Container(id) => id,
                    other => panic!("container launch failed: {other:?}"),
                })
                .collect();
            let demand = containers
                .iter()
                .map(|&container| EnergyRequest::SetContainerDemand {
                    container,
                    demand: rng.uniform(0.3, 0.9),
                })
                .collect();
            for r in eco
                .dispatch_batch(&RequestBatch::new(app, demand))
                .responses
            {
                assert_eq!(r, EnergyResponse::Ok, "container demand rejected");
            }
            Tenant { app, containers }
        })
        .collect();
    (eco, tenants)
}

/// The response variant a request must come back as on these workloads
/// (none of the generated requests may fail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Ok,
    Power,
    PowerCap,
    Energy,
    Carbon,
    Intensity,
}

impl Expect {
    /// What `request` answers with, for the requests the generator emits.
    pub fn of(request: &EnergyRequest) -> Expect {
        use EnergyRequest as R;
        match request {
            R::SetContainerPowercap { .. }
            | R::ClearContainerPowercap { .. }
            | R::SetBatteryChargeRate { .. }
            | R::SetBatteryMaxDischarge { .. }
            | R::SubscribeEvents { .. } => Expect::Ok,
            R::GetSolarPower
            | R::GetGridPower
            | R::GetBatteryDischargeRate
            | R::GetContainerPower { .. } => Expect::Power,
            R::GetContainerPowercap { .. } => Expect::PowerCap,
            R::GetBatteryChargeLevel | R::GetContainerEnergy { .. } => Expect::Energy,
            R::GetContainerCarbon { .. } => Expect::Carbon,
            R::GetGridCarbon => Expect::Intensity,
            other => panic!("the generator never emits {}", other.name()),
        }
    }

    /// Whether `response` is this variant.
    pub fn matches(self, response: &EnergyResponse) -> bool {
        matches!(
            (self, response),
            (Expect::Ok, EnergyResponse::Ok)
                | (Expect::Power, EnergyResponse::Power(_))
                | (Expect::PowerCap, EnergyResponse::PowerCap(_))
                | (Expect::Energy, EnergyResponse::Energy(_))
                | (Expect::Carbon, EnergyResponse::Carbon(_))
                | (Expect::Intensity, EnergyResponse::Intensity(_))
        )
    }
}

/// One tenant's seeded request stream.
#[derive(Debug, Clone)]
pub struct Generator {
    rng: SimRng,
    shape: Shape,
    tenant: Tenant,
}

impl Generator {
    /// The stream for tenant `index` at workload `seed`.
    pub fn new(seed: u64, index: usize, shape: Shape, tenant: Tenant) -> Generator {
        Generator {
            rng: SimRng::from_seed(sub_seed(seed, 100 + index as u64)),
            shape,
            tenant,
        }
    }

    /// The next batch, sent while the ecovisor is at settlement `tick`.
    pub fn next(&mut self, tick: u64) -> RequestBatch {
        let requests = match self.shape {
            Shape::Small => vec![self.table1_call()],
            Shape::Batch => self.telemetry_sweep(tick),
        };
        RequestBatch::new(self.tenant.app, requests)
    }

    fn container(&mut self) -> ContainerId {
        let i = self.rng.uniform_u64(0, self.tenant.containers.len() as u64) as usize;
        self.tenant.containers[i]
    }

    /// A Table 1 call: three getters to one setter.
    fn table1_call(&mut self) -> EnergyRequest {
        use EnergyRequest as R;
        if self.rng.chance(0.75) {
            match self.rng.uniform_u64(0, 7) {
                0 => R::GetSolarPower,
                1 => R::GetGridPower,
                2 => R::GetGridCarbon,
                3 => R::GetBatteryDischargeRate,
                4 => R::GetBatteryChargeLevel,
                5 => R::GetContainerPowercap {
                    container: self.container(),
                },
                _ => R::GetContainerPower {
                    container: self.container(),
                },
            }
        } else {
            match self.rng.uniform_u64(0, 4) {
                0 => R::SetContainerPowercap {
                    container: self.container(),
                    cap: Watts::new(self.rng.uniform(2.0, 8.0)),
                },
                1 => R::ClearContainerPowercap {
                    container: self.container(),
                },
                2 => R::SetBatteryChargeRate {
                    rate: Watts::new(self.rng.uniform(0.0, 20.0)),
                },
                _ => R::SetBatteryMaxDischarge {
                    rate: Watts::new(self.rng.uniform(0.0, 20.0)),
                },
            }
        }
    }

    /// Power, trailing-window energy and carbon, and a cap write for
    /// every container.
    fn telemetry_sweep(&mut self, tick: u64) -> Vec<EnergyRequest> {
        let step = SimDuration::from_minutes(TICK_MINUTES);
        let to = SimTime::from_secs(tick * step.as_secs());
        let from = SimTime::from_secs(tick.saturating_sub(WINDOW_TICKS) * step.as_secs());
        let containers = self.tenant.containers.clone();
        let mut requests = Vec::with_capacity(containers.len() * 4);
        for container in containers {
            requests.push(EnergyRequest::GetContainerPower { container });
            requests.push(EnergyRequest::GetContainerEnergy {
                container,
                from,
                to,
            });
            requests.push(EnergyRequest::GetContainerCarbon {
                container,
                from,
                to,
            });
            requests.push(EnergyRequest::SetContainerPowercap {
                container,
                cap: Watts::new(self.rng.uniform(2.0, 8.0)),
            });
        }
        requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecovisor::WireCodec;

    /// The first `rounds` batches of every tenant, binary-encoded.
    fn stream(shape: Shape, seed: u64, rounds: u64) -> Vec<Vec<u8>> {
        let (_, tenants) = build_ecovisor(shape, seed);
        let mut out = Vec::new();
        for (i, tenant) in tenants.into_iter().enumerate() {
            let mut g = Generator::new(seed, i, shape, tenant);
            out.extend((0..rounds).map(|r| WireCodec::Binary.encode(&g.next(r))));
        }
        out
    }

    #[test]
    fn the_same_seed_gives_byte_identical_batches() {
        for shape in [Shape::Small, Shape::Batch] {
            assert_eq!(stream(shape, 42, 200), stream(shape, 42, 200));
            assert_ne!(stream(shape, 42, 200), stream(shape, 43, 200));
        }
    }

    #[test]
    fn the_ecovisor_is_a_function_of_the_seed() {
        let (mut a, ta) = build_ecovisor(Shape::Batch, 5);
        let (mut b, tb) = build_ecovisor(Shape::Batch, 5);
        assert_eq!(ta, tb);
        assert_eq!(
            WireCodec::Binary.encode(&a.snapshot()),
            WireCodec::Binary.encode(&b.snapshot())
        );
    }

    #[test]
    fn small_batches_mix_three_getters_to_one_setter() {
        let (_, tenants) = build_ecovisor(Shape::Small, 9);
        let mut g = Generator::new(9, 0, Shape::Small, tenants[0].clone());
        let setters = (0..4000)
            .filter(|&r| g.next(r).requests[0].is_command())
            .count();
        assert!((900..1100).contains(&setters), "{setters} setters in 4000");
    }

    #[test]
    fn sweeps_cover_every_container_in_sixty_four_requests() {
        let (_, tenants) = build_ecovisor(Shape::Batch, 9);
        let batch = Generator::new(9, 1, Shape::Batch, tenants[1].clone()).next(50);
        assert_eq!(batch.requests.len(), 64);
        assert_eq!(batch.app, tenants[1].app);
    }
}
