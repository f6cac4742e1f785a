//! Randomized property tests of the COP: capacity accounting, cap→quota
//! round-trips, placement feasibility under arbitrary launch/stop
//! sequences, and per-owner queries against a brute-force filter.
//!
//! Cases are generated from a fixed-seed [`SimRng`] stream (the offline
//! replacement for proptest), so failures are exactly reproducible.

use container_cop::{
    AppId, Container, ContainerId, ContainerSpec, ContainerState, Cop, CopConfig, PowerModel,
    ServerSpec,
};
use simkit::rng::SimRng;
use simkit::units::Watts;

#[derive(Debug, Clone, Copy)]
enum Op {
    Launch(u32),
    StopOldest,
    SuspendNewest,
    Cap(f64),
}

fn arb_op(rng: &mut SimRng) -> Op {
    match rng.uniform_u64(0, 4) {
        0 => Op::Launch(rng.uniform_u64(1, 5) as u32),
        1 => Op::StopOldest,
        2 => Op::SuspendNewest,
        _ => Op::Cap(rng.uniform(0.0, 6.0)),
    }
}

/// Server reservations never go negative or exceed capacity, across
/// arbitrary operation sequences, and placement never double-books.
#[test]
fn capacity_accounting_holds() {
    let mut rng = SimRng::from_seed(4004).fork("capacity_accounting_holds");
    for _ in 0..128 {
        let servers = rng.uniform_u64(1, 8) as u32;
        let ops: Vec<Op> = (0..rng.uniform_u64(1, 60))
            .map(|_| arb_op(&mut rng))
            .collect();
        let mut cop = Cop::new(CopConfig::microserver_cluster(servers));
        let app = AppId::new(1);
        let mut live: Vec<ContainerId> = Vec::new();
        for op in ops {
            match op {
                Op::Launch(cores) => {
                    if let Ok(id) = cop.launch(app, ContainerSpec::with_cores(cores)) {
                        live.push(id);
                    }
                }
                Op::StopOldest => {
                    if !live.is_empty() {
                        let id = live.remove(0);
                        let _ = cop.stop(id);
                    }
                }
                Op::SuspendNewest => {
                    if let Some(id) = live.last() {
                        let _ = cop.suspend(*id);
                    }
                }
                Op::Cap(w) => {
                    if let Some(id) = live.last() {
                        let _ = cop.set_power_cap(*id, Some(Watts::new(w)));
                    }
                }
            }
            for s in cop.servers() {
                assert!(s.free_cores() <= s.spec().cores);
                assert!(s.free_memory_mib() <= s.spec().memory_mib);
            }
            // Sum of live containers' cores never exceeds cluster cores.
            let used: u32 = live
                .iter()
                .filter_map(|id| cop.container(*id))
                .map(|c| c.spec().cores)
                .sum();
            assert!(used <= servers * 4);
        }
    }
}

/// For any cap, the enforced container power never exceeds the cap, and
/// caps at/above max dynamic power leave the quota at 1.
#[test]
fn cap_quota_roundtrip() {
    let mut rng = SimRng::from_seed(4004).fork("cap_quota_roundtrip");
    for _ in 0..128 {
        let cores = rng.uniform_u64(1, 5) as u32;
        let cap_w = rng.uniform(0.0, 10.0);
        let demand = rng.unit();
        let model = PowerModel::new(ServerSpec::microserver());
        let quota = model.quota_for_cap(cores, false, Watts::new(cap_w));
        let u = demand.min(quota);
        let power = model.container_power(cores, u, false);
        assert!(
            power.watts() <= cap_w + 1e-9,
            "power {power} exceeds cap {cap_w}"
        );
        if cap_w >= model.container_max_power(cores, false).watts() {
            assert_eq!(quota, 1.0);
        }
    }
}

/// Cluster power is the idle floor plus attributed dynamic power — total
/// power minus idle equals the sum over container powers.
#[test]
fn total_power_decomposes() {
    let mut rng = SimRng::from_seed(4004).fork("total_power_decomposes");
    for _ in 0..128 {
        let n = rng.uniform_u64(1, 6) as u32;
        let demands: Vec<f64> = (0..rng.uniform_u64(1, 6)).map(|_| rng.unit()).collect();
        let mut cop = Cop::new(CopConfig::microserver_cluster(n * 2));
        let app = AppId::new(1);
        let mut ids = Vec::new();
        for d in &demands {
            if let Ok(id) = cop.launch(app, ContainerSpec::quad_core()) {
                cop.set_demand(id, *d).unwrap();
                ids.push(id);
            }
        }
        let idle: f64 = cop
            .servers()
            .iter()
            .map(|s| s.spec().idle_power.watts())
            .sum();
        let attributed: f64 = ids
            .iter()
            .map(|id| cop.container_power(*id).unwrap().watts())
            .sum();
        let total = cop.total_power().watts();
        assert!(
            (total - idle - attributed).abs() < 1e-9,
            "total {total} != idle {idle} + attributed {attributed}"
        );
    }
}

#[derive(Debug, Clone, Copy)]
enum OwnerOp {
    Launch {
        app: u32,
        cores: u32,
    },
    Demand(f64),
    Stop,
    Suspend,
    Resume,
    Cap(f64),
    /// Removes an app's containers and offers them to the other COP, as a
    /// tenant migration does.
    Migrate(u32),
    Snapshot,
    Restore,
}

fn arb_owner_op(rng: &mut SimRng) -> OwnerOp {
    match rng.uniform_u64(0, 12) {
        0..=2 => OwnerOp::Launch {
            app: rng.uniform_u64(1, 5) as u32,
            cores: rng.uniform_u64(1, 5) as u32,
        },
        3 => OwnerOp::Demand(rng.unit()),
        4 => OwnerOp::Stop,
        5 => OwnerOp::Suspend,
        6 => OwnerOp::Resume,
        7 => OwnerOp::Cap(rng.uniform(0.0, 6.0)),
        8 => OwnerOp::Migrate(rng.uniform_u64(1, 5) as u32),
        9 | 10 => OwnerOp::Snapshot,
        _ => OwnerOp::Restore,
    }
}

/// Every per-owner query equals a brute-force filter over all of the
/// COP's containers in id order; the power and core sums agree bit for
/// bit, since they add the same terms in the same order.
fn assert_owner_queries(cop: &Cop) {
    let all = cop.snapshot().containers;
    for app in (0..6).map(AppId::new) {
        let owned: Vec<&Container> = all.iter().filter(|c| c.owner() == app).collect();
        let live: Vec<ContainerId> = owned
            .iter()
            .filter(|c| c.state() != ContainerState::Stopped)
            .map(|c| c.id())
            .collect();
        let running = owned
            .iter()
            .filter(|c| c.state() == ContainerState::Running)
            .count();
        let power: Watts = owned
            .iter()
            .map(|c| cop.container_power(c.id()).expect("exists"))
            .sum();
        let cores: f64 = owned.iter().map(|c| c.effective_cores()).sum();

        let ids = |cs: Vec<&Container>| cs.iter().map(|c| c.id()).collect::<Vec<_>>();
        assert_eq!(ids(cop.containers_of(app)), live, "containers_of({app})");
        assert_eq!(cop.container_ids_of(app), live, "container_ids_of({app})");
        assert_eq!(cop.running_count(app), running, "running_count({app})");
        assert_eq!(
            ids(cop.all_containers_of(app)),
            ids(owned),
            "all_containers_of({app})"
        );
        assert_eq!(
            cop.app_power(app).watts().to_bits(),
            power.watts().to_bits(),
            "app_power({app})"
        );
        assert_eq!(
            cop.app_effective_cores(app).to_bits(),
            cores.to_bits(),
            "app_effective_cores({app})"
        );
    }
}

/// The per-owner index stays in step with the container table through
/// launches, stops, suspends, resumes, migrations out
/// (`remove_app_containers`) and in (`adopt_containers`, including
/// refused transfers), and snapshot restores.
#[test]
fn owner_index_matches_brute_force() {
    let mut rng = SimRng::from_seed(4004).fork("owner_index_matches_brute_force");
    for _ in 0..96 {
        let servers = rng.uniform_u64(1, 6) as u32;
        let config = CopConfig::microserver_cluster(servers);
        let mut cops = [Cop::new(config.clone()), Cop::new(config)];
        let mut saved = cops[0].snapshot();
        for _ in 0..rng.uniform_u64(1, 80) {
            let x = rng.uniform_u64(0, 2) as usize;
            let op = arb_owner_op(&mut rng);
            // A container of COP `x` to act on, live or stopped.
            let all = cops[x].snapshot().containers;
            let target =
                (!all.is_empty()).then(|| all[rng.uniform_u64(0, all.len() as u64) as usize].id());
            let cop = &mut cops[x];
            match op {
                OwnerOp::Launch { app, cores } => {
                    let _ = cop.launch(AppId::new(app), ContainerSpec::with_cores(cores));
                }
                OwnerOp::Demand(d) => {
                    if let Some(id) = target {
                        cop.set_demand(id, d).expect("exists");
                    }
                }
                OwnerOp::Stop => {
                    if let Some(id) = target {
                        let _ = cop.stop(id);
                    }
                }
                OwnerOp::Suspend => {
                    if let Some(id) = target {
                        let _ = cop.suspend(id);
                    }
                }
                OwnerOp::Resume => {
                    if let Some(id) = target {
                        let _ = cop.resume(id);
                    }
                }
                OwnerOp::Cap(w) => {
                    if let Some(id) = target {
                        cop.set_power_cap(id, Some(Watts::new(w))).expect("exists");
                    }
                }
                OwnerOp::Migrate(app) => {
                    let moved = cop.remove_app_containers(AppId::new(app));
                    let [a, b] = &mut cops;
                    let dest = if x == 0 { b } else { a };
                    // Ids collide or capacity runs out now and then; a
                    // refused adoption must leave the destination intact.
                    let _ = dest.adopt_containers(&moved);
                }
                OwnerOp::Snapshot => saved = cop.snapshot(),
                OwnerOp::Restore => cop.restore(&saved).expect("same composition"),
            }
            // Keep both id counters on one cursor, as a federation
            // coordinator does, so the COPs allocate disjoint ids.
            let cursor = cops[0].next_container_id().max(cops[1].next_container_id());
            for cop in &mut cops {
                cop.align_container_id(cursor).expect("forward");
                assert_owner_queries(cop);
            }
        }
    }
}
