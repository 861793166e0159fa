//! Golden-report regression test: the simulator's exact output —
//! deterministic JSON, every float formatted from its full bit pattern —
//! is pinned for a fixed workload, schedule, seed and horizon. Any
//! change to event ordering, RNG consumption, float arithmetic order or
//! the report boundary shows up as a diff here, even if it is too small
//! to fail a statistical assertion.
//!
//! The `scenario_*` pins do the same one level up, for the chaos
//! harness: the report JSON plus the derived recovery observations, the
//! control-plane events and the reconciliation audit, each in its `Debug`
//! form (which prints every float's shortest round-trip digits).
//!
//! To bless an *intentional* behaviour change, regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test golden_report` and review the
//! diff like any other code change.

use rstorm::prelude::*;
use rstorm::workloads::cases::fig8_cases;
use std::path::PathBuf;
use std::sync::Arc;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn check_golden(file: &str, actual: &str) {
    let path = golden_path(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{file}: output drifted from {}.\n\
         If the change is intentional, regenerate with UPDATE_GOLDEN=1 \
         and review the diff.\n--- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

#[test]
fn linear_net_quick_report_is_stable() {
    let case = fig8_cases()
        .into_iter()
        .find(|c| c.name == "linear_net")
        .expect("linear_net case exists");
    let assignment = RStormScheduler::new()
        .schedule(
            &case.topology,
            &case.cluster,
            &mut GlobalState::new(&case.cluster),
        )
        .expect("linear_net is feasible");
    let mut sim = Simulation::new(case.cluster, SimConfig::quick());
    sim.add_topology(&case.topology, &assignment);
    let report = sim.run();
    check_golden("linear_net_quick.json", &report.to_json());
}

/// Pins the migration path: a small scale chain under synthetic churn,
/// so every cut-over's placement change and routing refresh is part of
/// the pinned report.
#[test]
fn scale_churn_report_is_stable() {
    use rstorm::workloads::scale::{churn_plans, scale_cluster, scale_topology, schedule_churn};
    const HORIZON_MS: f64 = 20_000.0;
    let topology = scale_topology(400);
    let cluster = scale_cluster(40);
    let (assignment, plans) = churn_plans(&topology, &cluster, 10);
    assert!(!plans.is_empty(), "the churn pin must migrate tasks");
    let mut sim = Simulation::new(cluster, SimConfig::default().with_sim_time_ms(HORIZON_MS));
    sim.add_topology(&topology, &assignment);
    schedule_churn(&mut sim, &plans, HORIZON_MS);
    let report = sim.run();
    check_golden("scale_churn.json", &report.to_json());
}

/// Pins the fair-share fabric under faults: an even (rack-spreading)
/// linear_net schedule on `NetworkModel::Fair`, with one rack
/// partitioned and, later, every link degraded.
#[test]
fn linear_net_fair_faults_report_is_stable() {
    let case = fig8_cases()
        .into_iter()
        .find(|c| c.name == "linear_net")
        .expect("linear_net case exists");
    let assignment = EvenScheduler::new()
        .schedule(
            &case.topology,
            &case.cluster,
            &mut GlobalState::new(&case.cluster),
        )
        .expect("linear_net is feasible");
    let mut sim = Simulation::new(
        case.cluster,
        SimConfig::quick().with_network_model(NetworkModel::Fair),
    );
    sim.add_topology(&case.topology, &assignment);
    sim.set_fault_plan(
        FaultPlan::new()
            .partition_rack(10_000.0, 20_000.0, "rack-1")
            .degrade_links(30_000.0, 40_000.0, 5.0),
    );
    let report = sim.run();
    check_golden("linear_net_fair_faults.json", &report.to_json());
}

/// The fig8 Linear network-bound case with the node hosting its first
/// R-Storm-placed task — the victim whose loss displaces the topology.
fn linear_net_with_host() -> (Arc<Cluster>, Topology, String) {
    let case = fig8_cases()
        .into_iter()
        .find(|c| c.name == "linear_net")
        .expect("linear_net case exists");
    let assignment = RStormScheduler::new()
        .schedule(
            &case.topology,
            &case.cluster,
            &mut GlobalState::new(&case.cluster),
        )
        .expect("linear_net is feasible");
    let host = assignment.iter().next().unwrap().1.node.as_str().to_owned();
    (Arc::new(case.cluster), case.topology, host)
}

/// Runs `cfg` on linear_net under R-Storm and returns its pinned text.
fn scenario_pin(cfg: &ChaosConfig) -> String {
    let (cluster, topology, _) = linear_net_with_host();
    let out = run_scenario(&cluster, &topology, cfg, &RStormScheduler::new()).unwrap();
    let mut pin = format!("report: {}\n", out.report.to_json());
    pin.push_str(&format!("violations: {:?}\n", out.violations));
    pin.push_str(&format!("observations: {:?}\n", out.observations));
    pin.push_str("events:\n");
    for event in &out.events {
        pin.push_str(&format!("  {event:?}\n"));
    }
    pin.push_str(&format!("reconciliation: {:?}\n", out.reconciliation));
    pin
}

/// Crash-then-recover on linear_net: the victim's workers return at the
/// first reschedule.
#[test]
fn scenario_crash_recover_is_stable() {
    let (_, _, host) = linear_net_with_host();
    let mut cfg = ChaosConfig::new(host, 20_000.0, 35_000.0);
    cfg.sim = SimConfig::quick();
    check_golden("scenario_crash_recover.txt", &scenario_pin(&cfg));
}

/// A journaled Nimbus outage that starts 2 s before the victim crashes,
/// so only the successor can see the silence.
#[test]
fn scenario_nimbus_outage_is_stable() {
    let (_, _, host) = linear_net_with_host();
    let mut cfg = ChaosConfig::new(host, 20_000.0, 50_000.0).with_nimbus_outage(18_000.0, 12_000.0);
    cfg.sim = SimConfig::quick().with_max_replays(8);
    cfg.recovery.journal = true;
    check_golden("scenario_nimbus_outage.txt", &scenario_pin(&cfg));
}

/// A composed plan through the checked engine: a flap storm on the host,
/// then its rack partitioned, then the control channel lost long enough
/// to declare every node dead.
#[test]
fn scenario_fault_plan_is_stable() {
    let (cluster, _, host) = linear_net_with_host();
    let rack = cluster.rack_of(&host).unwrap().as_str().to_owned();
    let mut cfg = ChaosConfig::from_plan(
        FaultPlan::new()
            .flap_storm(10_000.0, &host, 3, 2_000.0, 3_000.0)
            .partition_rack(35_000.0, 45_000.0, rack)
            .lose_control_channel(48_000.0, 52_000.0),
    );
    cfg.sim = SimConfig::quick().with_max_replays(8);
    check_golden("scenario_fault_plan.txt", &scenario_pin(&cfg));
}
