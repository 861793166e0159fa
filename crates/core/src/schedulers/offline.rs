//! An offline linearization scheduler in the style of Aniello et al.,
//! "Adaptive online scheduling in Storm" (DEBS '13) — the closest related
//! work the paper compares against qualitatively (§7).
//!
//! Their offline scheduler "attempts to derive a linearization of topology
//! components and schedule tasks from those components in a round robin
//! fashion to physical machines", minimizing network distance between
//! communicating components but with **no resource awareness** and a
//! restriction to acyclic topologies. We reproduce that behaviour: tasks
//! are ordered by a component linearization (topological order over the
//! DAG, declaration order as the fallback for cyclic graphs) and dealt out
//! in contiguous runs, one equal-sized chunk per node.

use crate::assignment::Assignment;
use crate::error::ScheduleError;
use crate::global_state::GlobalState;
use crate::rstorm::task_selection;
use crate::scheduler::Scheduler;
use rstorm_cluster::Cluster;
use rstorm_topology::{Topology, TraversalOrder};
use std::collections::BTreeMap;

/// Offline linearization scheduler (Aniello-style comparator).
#[derive(Debug, Clone, Copy, Default)]
pub struct OfflineLinearizationScheduler;

impl OfflineLinearizationScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for OfflineLinearizationScheduler {
    fn name(&self) -> &str {
        "offline-linearization"
    }

    fn schedule(
        &self,
        topology: &Topology,
        cluster: &Cluster,
        state: &mut GlobalState,
    ) -> Result<Assignment, ScheduleError> {
        if state.is_scheduled(topology.id().as_str()) {
            return Err(ScheduleError::AlreadyScheduled(topology.id().clone()));
        }
        let nodes: Vec<_> = cluster.alive_nodes().collect();
        if nodes.is_empty() {
            return Err(ScheduleError::NoAliveNodes);
        }

        let task_set = topology.task_set();
        // BFS is a valid linearization for DAGs and also terminates on
        // cyclic graphs, where the original algorithm does not apply.
        let ordering = task_selection::task_ordering(topology, task_set, TraversalOrder::Bfs);

        // Contiguous equal chunks: adjacent tasks in the linearization
        // share a node, so communicating components tend to be colocated.
        let chunk = ordering.len().div_ceil(nodes.len());
        let mut mapping = BTreeMap::new();
        for (i, task_id) in ordering.iter().enumerate() {
            let node = nodes[(i / chunk).min(nodes.len() - 1)];
            let request = task_set
                .resources(*task_id)
                .expect("ordering only contains tasks of this task set");
            state.reserve(topology.id(), node.id(), request)?;
            let slot = state.slot_for(cluster, topology.id(), node.id())?;
            mapping.insert(*task_id, slot);
        }
        let assignment = Assignment::new(topology.id().clone(), mapping);
        state.commit(assignment.clone());
        Ok(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
    use rstorm_topology::TopologyBuilder;

    fn cluster() -> Cluster {
        ClusterBuilder::new()
            .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 4)
            .build()
            .unwrap()
    }

    fn linear() -> Topology {
        let mut b = TopologyBuilder::new("lin");
        b.set_spout("a", 4);
        b.set_bolt("b", 4).shuffle_grouping("a");
        b.set_bolt("c", 4).shuffle_grouping("b");
        b.build().unwrap()
    }

    #[test]
    fn all_tasks_placed_in_contiguous_chunks() {
        let c = cluster();
        let t = linear();
        let mut state = GlobalState::new(&c);
        let a = OfflineLinearizationScheduler::new()
            .schedule(&t, &c, &mut state)
            .unwrap();
        assert_eq!(a.len(), 12);
        // 12 tasks over 6 nodes → chunks of 2: every used node has 2.
        for node in a.used_nodes() {
            assert_eq!(a.tasks_on_node(node.as_str()).len(), 2);
        }
    }

    #[test]
    fn ignores_resources() {
        let c = ClusterBuilder::new()
            .add_node("tiny", "r", ResourceCapacity::new(10.0, 64.0, 10.0), 1)
            .build()
            .unwrap();
        let t = linear();
        let mut state = GlobalState::new(&c);
        let a = OfflineLinearizationScheduler::new()
            .schedule(&t, &c, &mut state)
            .unwrap();
        assert_eq!(a.len(), 12, "no feasibility checking");
        assert!(state.remaining("tiny").unwrap().memory_mb < 0.0);
    }

    #[test]
    fn already_scheduled_rejected() {
        let c = cluster();
        let t = linear();
        let mut state = GlobalState::new(&c);
        let s = OfflineLinearizationScheduler::new();
        s.schedule(&t, &c, &mut state).unwrap();
        assert!(matches!(
            s.schedule(&t, &c, &mut state).unwrap_err(),
            ScheduleError::AlreadyScheduled(_)
        ));
    }
}
