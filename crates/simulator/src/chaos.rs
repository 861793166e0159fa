//! The chaos harness: one fault scenario, end to end, through both
//! planes.
//!
//! [`run_scenario`] runs a [`ChaosConfig`] — a [`FaultPlan`] plus the
//! simulation and recovery-loop knobs — against one topology:
//!
//! * **Control plane** — a [`RecoveryManager`] replay. The harness clones
//!   the cluster, places the topology with the given scheduler, then
//!   steps simulated time one heartbeat interval at a time. A node is
//!   silent while the plan has it crashed
//!   ([`FaultPlan::node_down_windows`]) or its rack partitioned
//!   ([`FaultPlan::rack_partition_windows`] — heartbeats cross racks to
//!   reach the control loop). The manager's ticks detect the silence,
//!   re-place the displaced topology on the survivors (degraded if it
//!   must) and upgrade the placement once the nodes return. During a
//!   [`FaultEvent::NimbusCrash`] window the manager neither observes nor
//!   ticks; at the first tick after it a successor reassumes, replaying
//!   the write-ahead [`rstorm_core::ControlJournal`] when
//!   `recovery.journal` is on and starting cold otherwise. During a
//!   [`FaultEvent::ControlLoss`] window it ticks but observes nothing.
//! * **Data plane** — the plan injected into a [`Simulation`] of the
//!   *initial* assignment, run through [`Simulation::run_checked`] so the
//!   engine's accounting violations land in the outcome. The run yields
//!   tuples lost and the throughput-dip depth.
//!
//! The two planes are open-loop: the manager's re-placements never move
//! a task in the simulated data plane. [`ChaosConfig::revive`] is the one
//! stand-in for that: with it on, the victim's workers come back the
//! moment the control plane first re-placed the topology (Storm handing
//! the displaced executors to replacement workers), and the observations
//! anchor on the victim's crash rather than the plan's first event.
//!
//! The outcome's [`RecoveryObservations`] are derived once, from the
//! control-plane events and the report; a [`ReconcileAudit`] joins them
//! whenever the plan carries control-plane faults. Both planes are
//! deterministic, so the whole [`ChaosOutcome`] — report bits included —
//! is a pure function of `(cluster, topology, config, scheduler)`. Crash
//! and recover never touch the routing table: placement is unchanged,
//! only liveness flips.

use crate::config::SimConfig;
use crate::faults::{FaultEvent, FaultPlan};
use crate::report::{InvariantViolation, RecoveryObservations, SimReport};
use crate::sim::{CheckedReport, Simulation};
use rstorm_cluster::Cluster;
use rstorm_core::{
    Assignment, GlobalState, RecoveryConfig, RecoveryEvent, RecoveryManager, ScheduleError,
    Scheduler, SchedulingPlan,
};
use rstorm_topology::Topology;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Why a chaos scenario or fault-plan run could not start. Fuzzed
/// clusters and plans routinely hit these (an unschedulable topology, a
/// generated name that resolves nowhere); surfacing them as values lets
/// a campaign record the outcome and move on instead of aborting.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
    /// A fault-plan event (a crash victim included) names no node of the
    /// cluster.
    UnknownNode {
        /// The unresolvable node name.
        node: String,
    },
    /// A fault-plan partition names no rack of the cluster.
    UnknownRack {
        /// The unresolvable rack name.
        rack: String,
    },
    /// The topology does not fit the healthy cluster — the scenario
    /// needs a valid initial placement to disrupt.
    InitialPlacement {
        /// The topology that failed to place.
        topology: String,
        /// The scheduler's reason.
        error: ScheduleError,
    },
    /// The adaptive-rebalance migration path hit an inconsistent
    /// lookup: a task outside the task set, an unplaced task in a
    /// supposedly complete assignment, or a delta plan over a topology
    /// the state never scheduled.
    MigrationPlanning {
        /// The topology whose migration could not be planned.
        topology: String,
        /// What was inconsistent.
        reason: String,
    },
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownNode { node } => {
                write!(f, "fault plan references unknown node `{node}`")
            }
            Self::UnknownRack { rack } => {
                write!(f, "fault plan references unknown rack `{rack}`")
            }
            Self::InitialPlacement { topology, error } => write!(
                f,
                "no initial placement for `{topology}` on the healthy cluster: {error}"
            ),
            Self::MigrationPlanning { topology, reason } => {
                write!(f, "cannot plan a migration for `{topology}`: {reason}")
            }
        }
    }
}

impl std::error::Error for ChaosError {}

/// One fault scenario: what goes wrong and when, plus the simulation and
/// recovery-loop knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// The faults, data- and control-plane alike. Every node and rack it
    /// names must exist in the cluster.
    pub plan: FaultPlan,
    /// Open-loop revival. When on, the victim — the node of the plan's
    /// earliest crash — has its own recoveries replaced, in the data
    /// plane only, by one at the control plane's first reschedule, and
    /// the observations anchor on its crash. When off (or the plan
    /// crashes no node) the data plane runs the plan as given and the
    /// observations anchor on its first event.
    pub revive: bool,
    /// Data-plane simulation parameters.
    pub sim: SimConfig,
    /// Control-plane recovery-loop parameters — `recovery.journal`
    /// selects journaled versus cold Nimbus failover.
    pub recovery: RecoveryConfig,
}

impl ChaosConfig {
    /// One crash-then-recover scenario: `victim` crashes at `crash_at_ms`
    /// and heartbeats again at `heal_at_ms` (use a value past
    /// `sim.sim_time_ms` for a crash that never heals), with
    /// [`Self::revive`] on and default simulation and recovery knobs.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= crash_at_ms < heal_at_ms` and both are finite.
    pub fn new(victim: impl Into<String>, crash_at_ms: f64, heal_at_ms: f64) -> Self {
        assert!(
            crash_at_ms.is_finite() && heal_at_ms.is_finite() && crash_at_ms >= 0.0,
            "chaos times must be finite and non-negative, got crash={crash_at_ms} heal={heal_at_ms}"
        );
        assert!(
            crash_at_ms < heal_at_ms,
            "the victim must heal after it crashes, got crash={crash_at_ms} heal={heal_at_ms}"
        );
        let victim = victim.into();
        let plan = FaultPlan::new()
            .crash_node(crash_at_ms, victim.clone())
            .recover_node(heal_at_ms, victim);
        Self {
            revive: true,
            ..Self::from_plan(plan)
        }
    }

    /// Runs `plan` as given ([`Self::revive`] off), with default
    /// simulation and recovery knobs.
    pub fn from_plan(plan: FaultPlan) -> Self {
        Self {
            plan,
            revive: false,
            sim: SimConfig::default(),
            recovery: RecoveryConfig::default(),
        }
    }

    /// Adds a Nimbus outage over `[at_ms, at_ms + down_ms)` (see
    /// [`FaultPlan::nimbus_crash`]). The default recovery knobs fail over
    /// cold; set `recovery.journal` for a journaled successor.
    ///
    /// # Panics
    ///
    /// As [`FaultPlan::nimbus_crash`].
    #[must_use]
    pub fn with_nimbus_outage(mut self, at_ms: f64, down_ms: f64) -> Self {
        self.plan = self.plan.nimbus_crash(at_ms, down_ms);
        self
    }
}

/// Everything a scenario run produced.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The fault-injected data-plane report, with
    /// [`SimReport::recovery`] populated.
    pub report: SimReport,
    /// Invariant violations the engine observed — empty on a correct
    /// engine (the fuzzer's oracle input).
    pub violations: Vec<InvariantViolation>,
    /// The control-plane recovery events, in occurrence order.
    pub events: Vec<RecoveryEvent>,
    /// The control plane's final scheduling plan — what the cluster runs
    /// after detection, rescheduling and (if the nodes returned in time)
    /// the post-recovery upgrade.
    pub plan: SchedulingPlan,
    /// The derived recovery metrics (also embedded in `report`).
    pub observations: RecoveryObservations,
    /// Post-failover reconciliation audit — `Some` exactly when the plan
    /// carried control-plane events ([`FaultPlan::has_control_faults`]),
    /// the fuzz plane's reconciliation-oracle input.
    pub reconciliation: Option<ReconcileAudit>,
}

/// What a successor's post-failover reconciliation looked like — the
/// control-plane analog of [`RecoveryObservations`], derived by
/// [`run_scenario`] whenever the plan carries Nimbus or control-channel
/// faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconcileAudit {
    /// Latency from the first Nimbus outage's start to the first tick a
    /// successor reassumed control; `-1.0` when no outage ended inside
    /// the run (or the plan had no Nimbus crash at all).
    pub time_to_reassume_ms: f64,
    /// Journal decisions the successor(s) replayed on reassumption —
    /// zero for a cold (journal-less) failover.
    pub decisions_replayed: u64,
    /// Reconciliation-convergence oracle: once the control plane
    /// quiesced (no reschedule pending), the surviving placement covers
    /// exactly as many tasks as a from-scratch reschedule of the same
    /// topology on the surviving cluster would — adopted placements may
    /// sit on different slots, but no capacity the successor could have
    /// used goes unused. Vacuously `true` while retries are still
    /// pending at the horizon.
    pub converged: bool,
    /// Placement-integrity oracle: `true` when some task ended up both
    /// placed and declared unplaced, covered by neither, parked on a
    /// node the control plane believes dead with nothing pending to fix
    /// it, or the whole assignment vanished without a pending
    /// reschedule.
    pub double_placed_or_orphaned: bool,
}

/// Runs the scenario `cfg` describes for one topology. See the module
/// docs for the two-plane structure. `scheduler` computes both the
/// initial placement and every control-plane re-placement, so a
/// scenario grid can compare recovery behavior across schedulers.
///
/// # Errors
///
/// [`ChaosError::UnknownNode`] / [`ChaosError::UnknownRack`] when the
/// plan references names the cluster does not have, and
/// [`ChaosError::InitialPlacement`] when the topology cannot place on the
/// healthy cluster.
pub fn run_scenario(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    cfg: &ChaosConfig,
    scheduler: &(dyn Scheduler + '_),
) -> Result<ChaosOutcome, ChaosError> {
    let plan = &cfg.plan;
    validate_names(cluster, plan)?;
    let replay = replay_control_plane(
        cluster,
        topology,
        plan,
        &cfg.recovery,
        scheduler,
        cfg.sim.sim_time_ms,
    )?;
    let (detect_at, first_resched, recovered_at) = fold_recovery_events(&replay.events);

    // -- Data plane: the plan (revived, if asked) in a checked run. --
    let victim = if cfg.revive { first_crash(plan) } else { None };
    let data_plan = match victim {
        Some((node, crash_at)) => revived(plan, node, crash_at, first_resched),
        None => plan.clone(),
    };
    let mut sim = Simulation::new(Arc::clone(cluster), cfg.sim.clone());
    sim.add_topology(topology, &replay.initial);
    sim.set_fault_plan(data_plan);
    let CheckedReport {
        mut report,
        violations,
    } = sim.run_checked();

    // -- Derived observations, anchored on the victim's crash or the
    // plan's first fault. --
    let anchor = victim.map_or_else(|| plan.first_event_ms().unwrap_or(0.0), |(_, at)| at);
    let outage_end = first_resched.unwrap_or(cfg.sim.sim_time_ms);
    let dip = report
        .throughput
        .get(topology.id().as_str())
        .map_or(0.0, |t| {
            dip_depth(&t.windows, t.window_ms, anchor, outage_end + t.window_ms)
        });
    let observations = RecoveryObservations {
        crash_at_ms: anchor,
        time_to_detect_ms: detect_at.map_or(-1.0, |at| at - anchor),
        time_to_recover_ms: recovered_at.map_or(-1.0, |at| at - anchor),
        tuples_lost: report.totals.tuples_lost,
        throughput_dip_depth: dip,
        reschedule_attempts: replay.manager.reschedule_attempts(),
        roots_replayed: report.totals.roots_replayed,
        tuples_quarantined: report.totals.tuples_quarantined,
        suppressed_flaps: replay.manager.suppressed_flaps(),
    };
    report.recovery = Some(observations);

    let reconciliation = plan
        .has_control_faults()
        .then(|| reconcile_audit(cluster, topology, scheduler, &replay));
    Ok(ChaosOutcome {
        report,
        violations,
        events: replay.events,
        plan: replay.state.plan().clone(),
        observations,
        reconciliation,
    })
}

/// [`run_scenario`] for a [`ChaosConfig::new`]-style scenario, panicking
/// on a start-up failure. An adapter kept, signature unchanged, for the
/// `perfbench/` crate, which calls it.
///
/// # Panics
///
/// With the [`ChaosError`] message where [`run_scenario`] returns one.
pub fn run_crash_recover_with(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    cfg: &ChaosConfig,
    scheduler: &(dyn Scheduler + '_),
) -> ChaosOutcome {
    run_scenario(cluster, topology, cfg, scheduler).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_scenario`] over a bare plan ([`ChaosConfig::from_plan`]). An
/// adapter kept, signature unchanged, for the `perfbench/` crate, which
/// calls it.
///
/// # Errors
///
/// As [`run_scenario`].
pub fn run_fault_plan_with(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    plan: &FaultPlan,
    sim_cfg: &SimConfig,
    recovery: &RecoveryConfig,
    scheduler: &(dyn Scheduler + '_),
) -> Result<ChaosOutcome, ChaosError> {
    let mut cfg = ChaosConfig::from_plan(plan.clone());
    cfg.sim = sim_cfg.clone();
    cfg.recovery = recovery.clone();
    run_scenario(cluster, topology, &cfg, scheduler)
}

/// Resolves every name the plan references up front, so bad plans
/// surface as typed errors here instead of engine panics mid-run.
fn validate_names(cluster: &Cluster, plan: &FaultPlan) -> Result<(), ChaosError> {
    for ev in plan.events() {
        match ev {
            FaultEvent::NodeCrash { node, .. } | FaultEvent::NodeRecover { node, .. } => {
                if !cluster.nodes().iter().any(|n| n.id().as_str() == node) {
                    return Err(ChaosError::UnknownNode { node: node.clone() });
                }
            }
            FaultEvent::RackPartition { rack, .. } => {
                if !cluster.racks().iter().any(|r| r.as_str() == rack) {
                    return Err(ChaosError::UnknownRack { rack: rack.clone() });
                }
            }
            // Link and control-plane events carry no node/rack names to
            // resolve.
            FaultEvent::LinkDegrade { .. }
            | FaultEvent::NimbusCrash { .. }
            | FaultEvent::ControlLoss { .. } => {}
        }
    }
    Ok(())
}

/// The revive victim: the node of the plan's earliest crash (ties by
/// insertion order) and that crash's time.
fn first_crash(plan: &FaultPlan) -> Option<(&str, f64)> {
    plan.events()
        .iter()
        .filter_map(|ev| match ev {
            FaultEvent::NodeCrash { at_ms, node } => Some((node.as_str(), *at_ms)),
            _ => None,
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

/// The data-plane plan of a revived scenario: `plan` without the
/// victim's own recoveries, plus one at the first reschedule if that
/// came after the crash.
fn revived(plan: &FaultPlan, victim: &str, crash_at: f64, first_resched: Option<f64>) -> FaultPlan {
    let kept = plan
        .events()
        .iter()
        .filter(|ev| !matches!(ev, FaultEvent::NodeRecover { node, .. } if node == victim))
        .cloned()
        .collect();
    match first_resched {
        Some(at) if at > crash_at => FaultPlan::from_event_vec(kept).recover_node(at, victim),
        _ => FaultPlan::from_event_vec(kept),
    }
}

/// What [`replay_control_plane`] hands back to [`run_scenario`].
struct ControlReplay {
    manager: RecoveryManager,
    events: Vec<RecoveryEvent>,
    state: GlobalState,
    initial: Assignment,
    /// See [`ReconcileAudit::time_to_reassume_ms`].
    time_to_reassume_ms: f64,
    decisions_replayed: u64,
}

/// The control-plane replay: schedules the topology, then steps
/// heartbeat ticks to `horizon_ms`. A node is silent while one of its
/// own down windows or its rack's partition windows covers the tick;
/// while a control-loss window is active *no* heartbeat is observed
/// (Nimbus still ticks); while a Nimbus window is active nothing at all
/// happens, and at the first tick after it a successor reassumes via
/// [`RecoveryManager::reassume`] — with the predecessor's journal when
/// journaling is on, cold otherwise.
fn replay_control_plane(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    plan: &FaultPlan,
    recovery: &RecoveryConfig,
    scheduler: &(dyn Scheduler + '_),
    horizon_ms: f64,
) -> Result<ControlReplay, ChaosError> {
    let mut control = (**cluster).clone();
    let mut state = GlobalState::new(&control);
    let initial = scheduler
        .schedule(topology, &control, &mut state)
        .map_err(|error| ChaosError::InitialPlacement {
            topology: topology.id().as_str().to_owned(),
            error,
        })?;
    let mut manager = RecoveryManager::new(recovery.clone());
    let mut events = Vec::new();

    let node_windows = plan.node_down_windows();
    let rack_windows = plan.rack_partition_windows();
    let down_windows: Vec<(String, Vec<(f64, f64)>)> = cluster
        .nodes()
        .iter()
        .map(|n| {
            let name = n.id().as_str().to_owned();
            let mut windows: Vec<(f64, f64)> =
                node_windows.get(name.as_str()).cloned().unwrap_or_default();
            if let Some(rw) = rack_windows.get(n.rack().as_str()) {
                windows.extend(rw.iter().copied());
            }
            (name, windows)
        })
        .collect();
    let roster: Vec<String> = down_windows.iter().map(|(name, _)| name.clone()).collect();
    let nimbus_windows = plan.nimbus_down_windows();
    let loss_windows = plan.control_loss_windows();

    let interval = recovery.heartbeat_interval_ms;
    let covers =
        |windows: &[(f64, f64)], t: f64| windows.iter().any(|&(at, until)| t >= at && t < until);
    let mut t = 0.0;
    let mut was_down = false;
    let mut reassumed_at_ms = None;
    let mut decisions_replayed = 0u64;
    while t <= horizon_ms {
        if covers(&nimbus_windows, t) {
            // Nimbus is down: no observation, no detection, no
            // rescheduling — the data plane runs on without it.
            was_down = true;
            t += interval;
            continue;
        }
        if was_down {
            was_down = false;
            let journal = manager.take_journal();
            let (successor, replayed) =
                RecoveryManager::reassume(recovery.clone(), journal, t, &roster);
            manager = successor;
            decisions_replayed += replayed;
            reassumed_at_ms.get_or_insert(t);
        }
        let channel_lost = covers(&loss_windows, t);
        for (name, windows) in &down_windows {
            if !channel_lost && !covers(windows, t) {
                manager.observe_heartbeat(name, t);
            }
        }
        events.extend(manager.tick(t, &mut control, &mut state, scheduler, &[topology]));
        t += interval;
    }

    let time_to_reassume_ms = match (nimbus_windows.first(), reassumed_at_ms) {
        (Some(&(down, _)), Some(up)) => up - down,
        _ => -1.0,
    };
    Ok(ControlReplay {
        manager,
        events,
        state,
        initial,
        time_to_reassume_ms,
        decisions_replayed,
    })
}

/// First detection, first reschedule, and first *full* reschedule times
/// in an event stream.
fn fold_recovery_events(events: &[RecoveryEvent]) -> (Option<f64>, Option<f64>, Option<f64>) {
    let mut detect_at = None;
    let mut first_resched = None;
    let mut recovered_at = None;
    for event in events {
        match event {
            RecoveryEvent::NodeDeclaredDead { at_ms, .. } => {
                detect_at.get_or_insert(*at_ms);
            }
            RecoveryEvent::TopologyRescheduled {
                at_ms, unplaced, ..
            } => {
                first_resched.get_or_insert(*at_ms);
                if *unplaced == 0 {
                    recovered_at.get_or_insert(*at_ms);
                }
            }
            _ => {}
        }
    }
    (detect_at, first_resched, recovered_at)
}

/// Derives the [`ReconcileAudit`] from the final control-plane state
/// (see the field docs for the two oracles).
fn reconcile_audit(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    scheduler: &(dyn Scheduler + '_),
    replay: &ControlReplay,
) -> ReconcileAudit {
    let dead: BTreeSet<&str> = replay.manager.dead_nodes().collect();
    let quiesced = !replay.manager.has_pending_reschedules();
    let total = topology.total_tasks() as usize;
    let assignment = replay.state.plan().assignment(topology.id().as_str());
    let double_placed_or_orphaned = match assignment {
        Some(a) => {
            let placed: BTreeSet<_> = a.iter().map(|(task, _)| task).collect();
            let double = a.unplaced().iter().any(|task| placed.contains(task));
            let uncovered = placed.len() + a.unplaced().len() != total;
            let orphaned = quiesced && a.iter().any(|(_, slot)| dead.contains(slot.node.as_str()));
            double || uncovered || orphaned
        }
        // The topology placed initially; an assignment that vanished
        // with nothing pending to restore it is orphaned wholesale.
        None => quiesced,
    };

    let converged = if quiesced {
        let mut survivors = (**cluster).clone();
        for node in &dead {
            survivors.kill_node(node);
        }
        let mut fresh = GlobalState::new(&survivors);
        let from_scratch = scheduler
            .schedule(topology, &survivors, &mut fresh)
            .map_or(0, |a| a.len());
        assignment.map_or(0, Assignment::len) == from_scratch
    } else {
        // Still converging at the horizon — the oracle judges quiesced
        // states only.
        true
    };

    ReconcileAudit {
        time_to_reassume_ms: replay.time_to_reassume_ms,
        decisions_replayed: replay.decisions_replayed,
        converged,
        double_placed_or_orphaned,
    }
}

/// Depth of the throughput dip: `1 - worst_outage_window / steady_mean`,
/// clamped to `[0, 1]`. The steady mean averages the windows that ended
/// before the crash (window 0 is skipped as warm-up); the outage windows
/// are those overlapping `[crash_at_ms, outage_end_ms)`. Returns 0 when
/// either set is empty or the pre-crash throughput was zero.
fn dip_depth(windows: &[f64], window_ms: f64, crash_at_ms: f64, outage_end_ms: f64) -> f64 {
    let mut steady_sum = 0.0;
    let mut steady_n = 0u32;
    let mut outage_min = f64::INFINITY;
    for (i, &w) in windows.iter().enumerate() {
        let start = i as f64 * window_ms;
        let end = start + window_ms;
        if i > 0 && end <= crash_at_ms {
            steady_sum += w;
            steady_n += 1;
        }
        if start < outage_end_ms && end > crash_at_ms {
            outage_min = outage_min.min(w);
        }
    }
    if steady_n == 0 || outage_min.is_infinite() {
        return 0.0;
    }
    let steady_mean = steady_sum / f64::from(steady_n);
    if steady_mean <= 0.0 {
        return 0.0;
    }
    ((steady_mean - outage_min) / steady_mean).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
    use rstorm_core::{verify_plan, RStormScheduler};
    use rstorm_topology::{ExecutionProfile, TopologyBuilder};

    fn topology() -> Topology {
        let mut b = TopologyBuilder::new("chaos-t");
        b.set_spout("src", 2)
            .set_profile(ExecutionProfile::network_bound(100))
            .set_cpu_load(25.0)
            .set_memory_load(256.0);
        b.set_bolt("sink", 2)
            .shuffle_grouping("src")
            .set_profile(ExecutionProfile::network_bound(100).into_sink())
            .set_cpu_load(25.0)
            .set_memory_load(256.0);
        b.build().unwrap()
    }

    fn cluster() -> Arc<Cluster> {
        Arc::new(
            ClusterBuilder::new()
                .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 4)
                .build()
                .unwrap(),
        )
    }

    /// The node R-Storm colocates the topology on — crashing anything
    /// else would displace nothing.
    fn host_node(cluster: &Cluster, t: &Topology) -> String {
        let mut state = GlobalState::new(cluster);
        let a = RStormScheduler::new()
            .schedule(t, cluster, &mut state)
            .unwrap();
        let host = a.iter().next().unwrap().1.node.as_str().to_owned();
        host
    }

    fn scenario(victim: String) -> ChaosConfig {
        let mut cfg = ChaosConfig::new(victim, 20_000.0, 35_000.0);
        cfg.sim = SimConfig::quick();
        cfg
    }

    fn run(cluster: &Arc<Cluster>, t: &Topology, cfg: &ChaosConfig) -> ChaosOutcome {
        run_scenario(cluster, t, cfg, &RStormScheduler::new()).unwrap()
    }

    /// The victim crashes at 20 s and heals at 50 s, while Nimbus is down
    /// over `[18 s, 30 s)`: the silence starts before any successor
    /// exists.
    const MASKED_NIMBUS_AT_MS: f64 = 18_000.0;
    const MASKED_NIMBUS_DOWN_MS: f64 = 12_000.0;

    fn masked_outage(victim: String) -> ChaosConfig {
        let mut cfg = ChaosConfig::new(victim, 20_000.0, 50_000.0)
            .with_nimbus_outage(MASKED_NIMBUS_AT_MS, MASKED_NIMBUS_DOWN_MS);
        cfg.sim = SimConfig::quick();
        cfg
    }

    #[test]
    fn crash_is_detected_and_topology_fully_recovers() {
        let cluster = cluster();
        let t = topology();
        let cfg = scenario(host_node(&cluster, &t));
        let out = run(&cluster, &t, &cfg);

        let obs = out.observations;
        // Detection takes at least the miss window measured from the
        // victim's last heartbeat — which precedes the crash by at most
        // one interval.
        let window = cfg.recovery.heartbeat_interval_ms * f64::from(cfg.recovery.miss_threshold);
        assert!(
            obs.time_to_detect_ms >= window - cfg.recovery.heartbeat_interval_ms
                && obs.time_to_detect_ms <= window + cfg.recovery.heartbeat_interval_ms,
            "detected after {} ms, window is {} ms",
            obs.time_to_detect_ms,
            window
        );
        // Full recovery happened, after (or at) detection.
        assert!(
            obs.time_to_recover_ms >= obs.time_to_detect_ms,
            "recover {} ms < detect {} ms",
            obs.time_to_recover_ms,
            obs.time_to_detect_ms
        );
        assert!(obs.reschedule_attempts >= 1);
        // The outage destroyed work and dented sink throughput.
        assert!(obs.tuples_lost > 0, "a crashed worker loses queued tuples");
        assert!(
            obs.throughput_dip_depth > 0.0 && obs.throughput_dip_depth <= 1.0,
            "dip depth {} out of range",
            obs.throughput_dip_depth
        );
        // The final control-plane plan is complete and verifiable.
        let assignment = out.plan.assignment(t.id().as_str()).expect("re-placed");
        assert!(!assignment.is_degraded());
        assert!(verify_plan(&out.plan, &[&t], &cluster).is_empty());
        // The report embeds the same observations.
        assert_eq!(out.report.recovery, Some(obs));
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let cluster = cluster();
        let t = topology();
        let cfg = scenario(host_node(&cluster, &t));
        let a = run(&cluster, &t, &cfg);
        let b = run(&cluster, &t, &cfg);
        assert_eq!(a.report, b.report, "same scenario, same bits");
        assert_eq!(a.events, b.events);
        assert_eq!(a.report.to_json(), b.report.to_json());
    }

    #[test]
    fn unhealed_crash_reports_sentinels_when_nothing_fits() {
        // A topology that only fits with every node alive: killing one
        // node leaves survivors that can hold part of it at best.
        let cluster = Arc::new(
            ClusterBuilder::new()
                .homogeneous_racks(1, 2, ResourceCapacity::new(400.0, 3_000.0, 100.0), 4)
                .build()
                .unwrap(),
        );
        let mut b = TopologyBuilder::new("big");
        b.set_spout("src", 2)
            .set_profile(ExecutionProfile::network_bound(100))
            .set_cpu_load(10.0)
            .set_memory_load(1_400.0);
        b.set_bolt("sink", 2)
            .shuffle_grouping("src")
            .set_profile(ExecutionProfile::network_bound(100).into_sink())
            .set_cpu_load(10.0)
            .set_memory_load(1_400.0);
        let t = b.build().unwrap();

        let victim = cluster.nodes()[0].id().as_str().to_owned();
        let mut cfg = ChaosConfig::new(victim, 10_000.0, 120_000.0); // never heals in a quick run
        cfg.sim = SimConfig::quick();
        let out = run(&cluster, &t, &cfg);

        assert!(out.observations.time_to_detect_ms > 0.0, "crash detected");
        assert!(
            out.observations.time_to_recover_ms < 0.0,
            "full recovery is impossible while the victim is down"
        );
        // Whatever the control plane managed is degraded at best, and
        // never overcommits memory.
        if let Some(a) = out.plan.assignment(t.id().as_str()) {
            assert!(a.is_degraded());
        }
        assert!(!verify_plan(&out.plan, &[&t], &cluster)
            .iter()
            .any(|v| matches!(v, rstorm_core::Violation::MemoryOvercommit { .. })));
    }

    #[test]
    fn unknown_victim_is_a_typed_error() {
        let cfg = ChaosConfig::new("ghost", 1.0, 2.0);
        let err = run_scenario(&cluster(), &topology(), &cfg, &RStormScheduler::new()).unwrap_err();
        assert_eq!(
            err,
            ChaosError::UnknownNode {
                node: "ghost".into()
            }
        );
        assert!(err.to_string().contains("ghost"));
        // The panicking adapter carries the same message.
        let caught = std::panic::catch_unwind(|| {
            run_crash_recover_with(&cluster(), &topology(), &cfg, &RStormScheduler::new())
        });
        let message = caught.unwrap_err();
        let message = message.downcast_ref::<String>().expect("formatted panic");
        assert!(message.contains("unknown node `ghost`"), "{message}");
    }

    #[test]
    fn unschedulable_topology_surfaces_as_typed_error() {
        // A topology no node can hold: the scenario cannot start, and a
        // fuzzed cluster must learn that as a result, not an abort.
        let cluster = cluster();
        let mut b = TopologyBuilder::new("huge");
        b.set_spout("src", 1)
            .set_profile(ExecutionProfile::network_bound(100))
            .set_cpu_load(10.0)
            .set_memory_load(1e9);
        b.set_bolt("sink", 1)
            .shuffle_grouping("src")
            .set_profile(ExecutionProfile::network_bound(100).into_sink())
            .set_cpu_load(10.0)
            .set_memory_load(1e9);
        let t = b.build().unwrap();
        let victim = cluster.nodes()[0].id().as_str().to_owned();
        let cfg = ChaosConfig::new(victim, 1_000.0, 2_000.0);
        let err = run_scenario(&cluster, &t, &cfg, &RStormScheduler::new()).unwrap_err();
        assert!(
            matches!(err, ChaosError::InitialPlacement { ref topology, .. } if topology == "huge"),
            "got {err:?}"
        );
        // The same failure keeps panicking through the perfbench adapter.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_crash_recover_with(&cluster, &t, &cfg, &RStormScheduler::new())
        }));
        assert!(caught.is_err(), "the panicking adapter still panics");
    }

    #[test]
    fn fault_plan_runner_validates_names() {
        let cluster = cluster();
        let t = topology();
        let bad_node = FaultPlan::new().crash_node(1_000.0, "ghost");
        let err = run_fault_plan_with(
            &cluster,
            &t,
            &bad_node,
            &SimConfig::quick(),
            &RecoveryConfig::default(),
            &RStormScheduler::new(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ChaosError::UnknownNode {
                node: "ghost".into()
            }
        );

        let bad_rack = FaultPlan::new().partition_rack(1_000.0, 2_000.0, "ghost-rack");
        let err = run_fault_plan_with(
            &cluster,
            &t,
            &bad_rack,
            &SimConfig::quick(),
            &RecoveryConfig::default(),
            &RStormScheduler::new(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ChaosError::UnknownRack {
                rack: "ghost-rack".into()
            }
        );
    }

    #[test]
    fn partition_silences_heartbeats_and_is_detected() {
        // Partition the rack hosting the topology: workers keep running
        // and all traffic is intra-rack (R-Storm colocates), so the data
        // plane is untouched — but heartbeats cross racks, so the control
        // plane must declare the rack's nodes dead within the window.
        let cluster = cluster();
        let t = topology();
        let host = host_node(&cluster, &t);
        let rack = cluster.rack_of(&host).unwrap().as_str().to_owned();
        let plan = FaultPlan::new().partition_rack(20_000.0, 45_000.0, &rack);
        let sim_cfg = SimConfig::quick();
        let recovery = RecoveryConfig::default();
        let out = run_fault_plan_with(
            &cluster,
            &t,
            &plan,
            &sim_cfg,
            &recovery,
            &RStormScheduler::new(),
        )
        .unwrap();
        assert!(
            out.events.iter().any(
                |e| matches!(e, RecoveryEvent::NodeDeclaredDead { node, .. } if *node == host)
            ),
            "the partitioned host must miss enough heartbeats: {:?}",
            out.events
        );
        assert!(out.observations.time_to_detect_ms > 0.0);
        assert_eq!(
            out.report.totals.tuples_lost, 0,
            "intra-rack traffic is unaffected by the partition"
        );
        // Deterministic end to end.
        let again = run_fault_plan_with(
            &cluster,
            &t,
            &plan,
            &sim_cfg,
            &recovery,
            &RStormScheduler::new(),
        )
        .unwrap();
        assert_eq!(out.report, again.report);
        assert_eq!(out.report.to_json(), again.report.to_json());
        assert_eq!(out.events, again.events);
    }

    #[test]
    fn journaled_successor_detects_a_crash_masked_by_the_outage() {
        // The victim crashes while Nimbus is down, so the silence starts
        // before any successor exists. A journaled failover seeds the
        // roster's heartbeats on reassumption and still detects it.
        let cluster = cluster();
        let t = topology();
        let victim = host_node(&cluster, &t);
        let mut cfg = masked_outage(victim.clone());
        cfg.recovery.journal = true;
        let out = run(&cluster, &t, &cfg);
        let audit = out.reconciliation.expect("a Nimbus crash yields an audit");

        // Reassumption happens at the first tick past the 12 s window.
        assert!(
            audit.time_to_reassume_ms >= MASKED_NIMBUS_DOWN_MS
                && audit.time_to_reassume_ms
                    <= MASKED_NIMBUS_DOWN_MS + 2.0 * cfg.recovery.heartbeat_interval_ms,
            "reassumed after {} ms of a {} ms outage",
            audit.time_to_reassume_ms,
            MASKED_NIMBUS_DOWN_MS
        );
        // Nothing was journaled pre-outage, so nothing replays — the
        // win here is the seeded roster, not the record replay.
        assert_eq!(audit.decisions_replayed, 0);
        let declared = out
            .events
            .iter()
            .find_map(|e| match e {
                RecoveryEvent::NodeDeclaredDead { node, at_ms, .. } if *node == victim => {
                    Some(*at_ms)
                }
                _ => None,
            })
            .expect("the successor must declare the masked crash");
        assert!(
            declared >= MASKED_NIMBUS_AT_MS + MASKED_NIMBUS_DOWN_MS,
            "declared at {declared} ms, inside the outage"
        );
        assert!(out.observations.time_to_recover_ms >= out.observations.time_to_detect_ms);
        // A revived scenario anchors on the victim's crash, not on the
        // earlier Nimbus crash.
        assert_eq!(out.observations.crash_at_ms, 20_000.0);

        // Deterministic end to end.
        let again = run(&cluster, &t, &cfg);
        assert_eq!(out.report, again.report);
        assert_eq!(out.events, again.events);
        assert_eq!(out.reconciliation, again.reconciliation);
    }

    #[test]
    fn cold_successor_stays_blind_to_a_pre_failover_silence() {
        // Same scenario, journal off: the cold successor has never seen
        // a heartbeat from the victim, so it can never count the misses.
        let cluster = cluster();
        let t = topology();
        let cfg = masked_outage(host_node(&cluster, &t));
        assert!(!cfg.recovery.journal, "cold failover is the default");
        let out = run(&cluster, &t, &cfg);

        assert_eq!(out.reconciliation.unwrap().decisions_replayed, 0);
        assert!(
            !out.events
                .iter()
                .any(|e| matches!(e, RecoveryEvent::NodeDeclaredDead { .. })),
            "a cold successor cannot detect a pre-failover silence: {:?}",
            out.events
        );
        assert_eq!(out.observations.time_to_detect_ms, -1.0);
        assert_eq!(out.observations.time_to_recover_ms, -1.0);
    }

    #[test]
    fn successor_replays_pre_outage_decisions_without_redeclaring() {
        // The crash is detected and rescheduled *before* Nimbus dies;
        // the successor replays those records and must not act twice.
        let cluster = cluster();
        let t = topology();
        let victim = host_node(&cluster, &t);
        let mut cfg = ChaosConfig::new(victim.clone(), 5_000.0, 50_000.0)
            .with_nimbus_outage(14_000.0, 8_000.0);
        cfg.sim = SimConfig::quick();
        cfg.recovery.journal = true;
        let out = run(&cluster, &t, &cfg);

        // At least the dead declaration and one reschedule were in the
        // journal when the outage hit.
        let replayed = out.reconciliation.unwrap().decisions_replayed;
        assert!(
            replayed >= 2,
            "expected the declare + reschedule records, replayed {replayed}"
        );
        let declarations = out
            .events
            .iter()
            .filter(
                |e| matches!(e, RecoveryEvent::NodeDeclaredDead { node, .. } if *node == victim),
            )
            .count();
        assert_eq!(
            declarations, 1,
            "the replayed dead set must suppress a duplicate declaration"
        );
        assert!(out.observations.time_to_detect_ms > 0.0);
    }

    #[test]
    fn control_outage_rejects_unknown_victims_as_typed_error() {
        let cfg = ChaosConfig::new("ghost", 1_000.0, 2_000.0).with_nimbus_outage(500.0, 1_000.0);
        let err = run_scenario(&cluster(), &topology(), &cfg, &RStormScheduler::new()).unwrap_err();
        assert_eq!(
            err,
            ChaosError::UnknownNode {
                node: "ghost".into()
            }
        );
    }
}
