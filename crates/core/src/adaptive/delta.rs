//! Minimal-move migration planning on the live scheduling state.

use crate::adaptive::drift::DriftReport;
use crate::adaptive::refiner::ProfileRefiner;
use crate::error::ScheduleError;
use crate::global_state::{GlobalState, UndoLog};
use rstorm_cluster::{Cluster, NodeId, WorkerSlot};
use rstorm_topology::{ResourceRequest, TaskId, Topology, TopologyId};
use std::collections::BTreeSet;

/// One task relocation of a migration plan.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationMove {
    /// The relocated task.
    pub task: TaskId,
    /// The component the task instantiates.
    pub component: String,
    /// Where the task ran before the move.
    pub from: NodeId,
    /// The worker slot the task runs in after the move.
    pub to: WorkerSlot,
}

/// The delta scheduler's output: which tasks move to which worker
/// slots. An empty plan means the live state was left bit-identical to
/// how it was found.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationPlan {
    /// The rebalanced topology.
    pub topology: TopologyId,
    /// The moves, in planning order.
    pub moves: Vec<MigrationMove>,
}

impl MigrationPlan {
    /// True when nothing moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Number of task moves.
    pub fn len(&self) -> usize {
        self.moves.len()
    }
}

/// Computes a **minimal-move** migration plan from a drift report,
/// mutating the live [`GlobalState`] bookkeeping as it goes instead of
/// rescheduling the topology from scratch.
///
/// Only tasks of *drifted* components placed on *saturated* nodes are
/// candidates, heaviest (by refined load) first, and a node sheds
/// candidates only until its refined CPU load fits its capacity again —
/// everything else keeps its placement, its routes and its warm state.
/// On nodes whose rack the drift report flags as *congested* (trunk
/// utilization fed from the simulator's fair network plane), tasks with
/// a declared bandwidth demand also become candidates, and the node
/// keeps shedding until at least half its declared bandwidth load has
/// moved off the rack's trunk.
/// Each move is applied through the same [`UndoLog`]-logged reserve
/// machinery the schedulers use: the old node releases the *declared*
/// reservation, the target reserves the *refined* one (hard memory
/// constraint enforced, dead and explicitly forbidden nodes never
/// considered), and a move that cannot complete rolls back bit-exactly
/// and is skipped. A completed move is written straight into the
/// committed assignment, so a round costs one scan of that assignment
/// per saturated node plus the moves themselves. A clean drift report
/// therefore yields an empty plan and an untouched state.
#[derive(Debug, Clone, Default)]
pub struct DeltaScheduler;

impl DeltaScheduler {
    /// Creates a delta scheduler.
    pub fn new() -> Self {
        Self
    }

    /// Plans (and bookkeeps) the migration of `topology` on the live
    /// `state`, editing its committed assignment in place. `forbidden`
    /// nodes are never chosen as targets even when the state still
    /// believes they are alive — pass the
    /// [`RecoveryManager::dead_nodes`](crate::RecoveryManager::dead_nodes)
    /// view here so the adaptive plane composes with the crash-recovery
    /// plane instead of racing it.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NotScheduled`] if the state holds no assignment
    /// for `topology` — the state is left untouched.
    pub fn plan(
        &self,
        topology: &Topology,
        cluster: &Cluster,
        state: &mut GlobalState,
        drift: &DriftReport,
        refiner: &ProfileRefiner,
        forbidden: &BTreeSet<NodeId>,
    ) -> Result<MigrationPlan, ScheduleError> {
        let tid = topology.id().clone();
        if !state.is_scheduled(tid.as_str()) {
            return Err(ScheduleError::NotScheduled(tid));
        }
        let mut moves: Vec<MigrationMove> = Vec::new();
        if drift.is_clean() || drift.saturated_nodes.is_empty() {
            return Ok(MigrationPlan {
                topology: tid,
                moves,
            });
        }

        let index = state.cluster_index().clone();
        let mut saturated = vec![false; index.len()];
        for node in &drift.saturated_nodes {
            if let Some(i) = index.node_index(node.as_str()) {
                saturated[i as usize] = true;
            }
        }

        let tname = tid.as_str();
        let task_set = topology.task_set();
        let drifted: BTreeSet<&str> = drift.drifted.iter().map(|d| d.component.as_str()).collect();

        for node in &drift.saturated_nodes {
            let Some(i) = index.node_index(node.as_str()) else {
                continue;
            };
            if !state.alive_dense()[i as usize] {
                continue; // crashed since the report: the recovery plane owns it
            }
            let congested = cluster
                .rack_of(node.as_str())
                .is_some_and(|r| drift.congested_racks.iter().any(|c| c == r.as_str()));
            let capacity = index.capacity(i).cpu_points;

            // One pass over the committed assignment, in task-id order:
            // the node's refined CPU and declared bandwidth loads, and
            // its candidates — drifted-component tasks, plus, on a
            // congested rack, any task declaring bandwidth demand.
            let mut refined_load = 0.0;
            let mut bw_load = 0.0;
            let mut candidates: Vec<(TaskId, &str, ResourceRequest)> = Vec::new();
            let assignment = state
                .plan()
                .assignment(tname)
                .expect("checked scheduled above");
            for (task, _) in assignment.iter().filter(|(_, slot)| slot.node == *node) {
                let component = task_set.task(task).expect("task exists").component.as_str();
                let declared = task_set.resources(task).expect("task has resources");
                let refined = refiner.refined_request(tname, component, declared);
                refined_load += refined.cpu_points;
                bw_load += declared.bandwidth;
                if drifted.contains(component) || (congested && declared.bandwidth > 0.0) {
                    candidates.push((task, component, refined));
                }
            }
            let bw_target = bw_load / 2.0;
            // Heaviest refined load first (ties by task id) so saturation
            // clears in as few moves as possible.
            candidates.sort_by(|a, b| {
                b.2.cpu_points
                    .partial_cmp(&a.2.cpu_points)
                    .unwrap()
                    .then(a.0.cmp(&b.0))
            });

            for (task, component, refined) in candidates {
                if refined_load <= capacity && (!congested || bw_load <= bw_target) {
                    break; // node fits again: minimal moves achieved
                }
                let declared = *task_set.resources(task).expect("task has resources");
                let Some(target) = pick_target(state, &saturated, forbidden, i, &refined) else {
                    continue;
                };
                let mut step = UndoLog::new();
                if state
                    .unreserve_logged(&tid, node, &declared, &mut step)
                    .is_err()
                {
                    state.rollback(step);
                    continue;
                }
                if state
                    .reserve_logged(&tid, &target, &refined, &mut step)
                    .is_err()
                {
                    state.rollback(step);
                    continue;
                }
                let slot = match state.slot_for_logged(cluster, &tid, &target, &mut step) {
                    Ok(slot) => slot,
                    Err(_) => {
                        state.rollback(step);
                        continue;
                    }
                };
                state.set_slot(tname, task, slot.clone());
                moves.push(MigrationMove {
                    task,
                    component: component.to_owned(),
                    from: node.clone(),
                    to: slot,
                });
                refined_load -= refined.cpu_points;
                bw_load -= declared.bandwidth;
            }
        }

        Ok(MigrationPlan {
            topology: tid,
            moves,
        })
    }
}

/// The best migration target for one refined request: among alive,
/// non-saturated, non-forbidden nodes (excluding the source) whose
/// remaining memory covers the hard constraint and whose remaining CPU
/// covers the refined demand, the one with the most CPU headroom (first
/// in dense node-id order on ties). `None` when nothing qualifies — the
/// task then stays put rather than trading one hot spot for another.
fn pick_target(
    state: &GlobalState,
    saturated: &[bool],
    forbidden: &BTreeSet<NodeId>,
    from: u32,
    refined: &ResourceRequest,
) -> Option<NodeId> {
    let index = state.cluster_index();
    let remaining = state.remaining_dense();
    let alive = state.alive_dense();
    let mut best: Option<(u32, f64)> = None;
    for j in 0..index.len() as u32 {
        if j == from || !alive[j as usize] || saturated[j as usize] {
            continue;
        }
        let r = &remaining[j as usize];
        if r.memory_mb < refined.memory_mb || r.cpu_points < refined.cpu_points {
            continue;
        }
        if forbidden.contains(index.node_id(j)) {
            continue;
        }
        match best {
            Some((_, score)) if r.cpu_points <= score => {}
            _ => best = Some((j, r.cpu_points)),
        }
    }
    best.map(|(j, _)| index.node_id(j).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::drift::{DriftConfig, DriftDetector};
    use crate::assignment::Assignment;
    use crate::rstorm::RStormScheduler;
    use crate::scheduler::Scheduler;
    use crate::verify::verify_plan;
    use rstorm_cluster::{Cluster, ClusterBuilder, ResourceCapacity};
    use rstorm_topology::TopologyBuilder;
    use std::collections::BTreeMap;

    /// Two racks of three 100-point nodes.
    fn cluster() -> Cluster {
        ClusterBuilder::new()
            .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 4)
            .build()
            .unwrap()
    }

    /// A topology whose `worker` bolt declares 10 CPU points per task
    /// but actually burns far more, so R-Storm co-locates all of them.
    fn drifting_topology() -> Topology {
        let mut b = TopologyBuilder::new("t");
        b.set_spout("spout", 1).set_cpu_load(20.0);
        b.set_bolt("worker", 4)
            .shuffle_grouping("spout")
            .set_cpu_load(10.0);
        b.set_bolt("sink", 1).shuffle_grouping("worker");
        b.build().unwrap()
    }

    fn schedule(topology: &Topology, cluster: &Cluster) -> (GlobalState, Assignment) {
        let mut state = GlobalState::new(cluster);
        let assignment = RStormScheduler::new()
            .schedule(topology, cluster, &mut state)
            .unwrap();
        (state, assignment)
    }

    fn drifted_report(
        topology: &Topology,
        assignment: &Assignment,
        observed_cpu: f64,
    ) -> (ProfileRefiner, DriftReport) {
        let mut refiner = ProfileRefiner::new(1.0);
        refiner.observe("t", "worker", 10.0, observed_cpu);
        // The node hosting the workers reports saturated; others idle.
        let hot = assignment.node_of(TaskId(1)).unwrap().clone();
        let utils = vec![(hot.as_str().to_owned(), 1.0)];
        let report = DriftDetector::new(DriftConfig::default()).detect(topology, &refiner, &utils);
        (refiner, report)
    }

    #[test]
    fn saturated_under_declared_tasks_spread_out() {
        let cluster = cluster();
        let topology = drifting_topology();
        let (mut state, assignment) = schedule(&topology, &cluster);
        let hot = assignment.node_of(TaskId(1)).unwrap().clone();
        // All four workers landed together (they fit by declared load).
        assert!((1..=4).all(|i| assignment.node_of(TaskId(i)) == Some(&hot)));

        let (refiner, report) = drifted_report(&topology, &assignment, 60.0);
        let plan = DeltaScheduler::new()
            .plan(
                &topology,
                &cluster,
                &mut state,
                &report,
                &refiner,
                &BTreeSet::new(),
            )
            .unwrap();
        assert!(!plan.is_empty());
        // Refined load on the hot node was 4×60 (+ colocated spout/sink);
        // shedding until it fits 100 points moves 3 workers, not all 4.
        assert_eq!(plan.len(), 3, "minimal moves, not a full reshuffle");
        let committed = state.plan().assignment("t").unwrap();
        for m in &plan.moves {
            assert_eq!(m.component, "worker");
            assert_eq!(m.from, hot);
            assert_ne!(m.to.node, hot);
            assert_eq!(committed.slot_of(m.task), Some(&m.to));
        }
        // The committed plan stays verifiable against the cluster.
        assert!(verify_plan(state.plan(), &[&topology], &cluster).is_empty());
    }

    #[test]
    fn clean_report_leaves_state_bit_identical() {
        let cluster = cluster();
        let topology = drifting_topology();
        let (mut state, assignment) = schedule(&topology, &cluster);
        let before = format!("{state:?}");

        let refiner = ProfileRefiner::default();
        let report = DriftDetector::default().detect(&topology, &refiner, &[]);
        assert!(report.is_clean());
        let plan = DeltaScheduler::new()
            .plan(
                &topology,
                &cluster,
                &mut state,
                &report,
                &refiner,
                &BTreeSet::new(),
            )
            .unwrap();
        assert!(plan.is_empty());
        assert_eq!(state.plan().assignment("t"), Some(&assignment));
        assert_eq!(format!("{state:?}"), before, "empty plan touches nothing");
    }

    #[test]
    fn forbidden_and_dead_nodes_are_never_targets() {
        let cluster = cluster();
        let topology = drifting_topology();
        let (mut state, assignment) = schedule(&topology, &cluster);
        let hot = assignment.node_of(TaskId(1)).unwrap().clone();

        // Kill one node outright and forbid every other candidate except
        // one, so the only legal target is unambiguous.
        let all: Vec<NodeId> = state.cluster_index().node_ids().to_vec();
        let dead = all.iter().find(|n| **n != hot).unwrap().clone();
        state.handle_node_failure(dead.as_str());
        let allowed = all
            .iter()
            .find(|n| **n != hot && **n != dead)
            .unwrap()
            .clone();
        let forbidden: BTreeSet<NodeId> = all
            .iter()
            .filter(|n| **n != hot && **n != dead && **n != allowed)
            .cloned()
            .collect();

        let (refiner, report) = drifted_report(&topology, &assignment, 60.0);
        let plan = DeltaScheduler::new()
            .plan(
                &topology, &cluster, &mut state, &report, &refiner, &forbidden,
            )
            .unwrap();
        assert!(!plan.is_empty());
        for m in &plan.moves {
            assert_ne!(m.to.node, dead, "dead node must never be a target");
            assert!(!forbidden.contains(&m.to.node), "forbidden node chosen");
            assert_eq!(m.to.node, allowed);
        }
    }

    #[test]
    fn congested_rack_sheds_bandwidth_heavy_tasks_to_another_rack() {
        let cluster = cluster();
        // Accurate CPU declarations but heavy bandwidth demand: nothing
        // drifts, only the trunk congests.
        let mut b = TopologyBuilder::new("t");
        b.set_spout("spout", 1).set_cpu_load(10.0);
        b.set_bolt("pump", 4)
            .shuffle_grouping("spout")
            .set_cpu_load(10.0)
            .set_bandwidth_load(50.0);
        b.set_bolt("sink", 1).shuffle_grouping("pump");
        let topology = b.build().unwrap();
        let (mut state, assignment) = schedule(&topology, &cluster);
        let hot = assignment.node_of(TaskId(1)).unwrap().clone();
        let hot_rack = cluster.rack_of(hot.as_str()).unwrap().clone();

        let refiner = ProfileRefiner::default();
        let report = DriftDetector::default().detect_with_network(
            &topology,
            &refiner,
            &[],
            &[(hot_rack.as_str().to_owned(), 0.99)],
            &cluster,
        );
        assert!(report.drifted.is_empty());
        assert_eq!(report.congested_racks, vec![hot_rack.as_str().to_owned()]);

        let plan = DeltaScheduler::new()
            .plan(
                &topology,
                &cluster,
                &mut state,
                &report,
                &refiner,
                &BTreeSet::new(),
            )
            .unwrap();
        assert!(!plan.is_empty(), "congestion alone must trigger relief");
        for m in &plan.moves {
            let to_rack = cluster.rack_of(m.to.node.as_str()).unwrap();
            assert_ne!(to_rack, &hot_rack, "target must leave the congested rack");
            let bw = topology
                .component(&m.component)
                .unwrap()
                .resources()
                .bandwidth;
            assert!(bw > 0.0, "only bandwidth-demanding tasks shed");
        }
        // At least half the declared bandwidth load left each shedding node.
        let mut shed: BTreeMap<&NodeId, f64> = BTreeMap::new();
        for m in &plan.moves {
            *shed.entry(&m.from).or_default() += 50.0;
        }
        for (node, moved) in shed {
            let before: f64 = assignment
                .iter()
                .filter(|(_, slot)| slot.node == *node)
                .map(|(t, _)| topology.task_set().resources(t).unwrap().bandwidth)
                .sum();
            assert!(
                moved * 2.0 >= before,
                "{node:?} kept over half its bandwidth"
            );
        }
        assert!(verify_plan(state.plan(), &[&topology], &cluster).is_empty());
    }

    #[test]
    fn unscheduled_topology_is_a_typed_error() {
        let cluster = cluster();
        let topology = drifting_topology();
        let mut state = GlobalState::new(&cluster);
        let refiner = ProfileRefiner::default();
        let report = DriftDetector::default().detect(&topology, &refiner, &[]);
        let err = DeltaScheduler::new()
            .plan(
                &topology,
                &cluster,
                &mut state,
                &report,
                &refiner,
                &BTreeSet::new(),
            )
            .unwrap_err();
        assert!(matches!(err, ScheduleError::NotScheduled(t) if t.as_str() == "t"));
    }
}
