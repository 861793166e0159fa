//! Golden-report regression test: the simulator's exact output —
//! deterministic JSON, every float formatted from its full bit pattern —
//! is pinned for a fixed workload, schedule, seed and horizon. Any
//! change to event ordering, RNG consumption, float arithmetic order or
//! the report boundary shows up as a diff here, even if it is too small
//! to fail a statistical assertion.
//!
//! To bless an *intentional* behaviour change, regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test golden_report` and review the
//! diff like any other code change.

use rstorm::prelude::*;
use rstorm::workloads::cases::fig8_cases;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
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
        "{name}: report drifted from {}.\n\
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
    check_golden("linear_net_quick", &report.to_json());
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
    check_golden("scale_churn", &report.to_json());
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
    check_golden("linear_net_fair_faults", &report.to_json());
}
