//! Schedules: the mapping from tasks to worker slots.

use rstorm_cluster::{NodeId, WorkerSlot};
use rstorm_topology::{TaskId, TopologyId};
use std::collections::{BTreeMap, BTreeSet};

/// The schedule of one topology: every task mapped to a worker slot.
///
/// Mirrors Storm's `SchedulerAssignment`. The mapping is normally total
/// over the topology's task set — partial schedules are represented as
/// errors, not as partial assignments, matching the paper's atomic-commit
/// note ("the actual assignment of task to node is done in an atomic
/// fashion after the schedule mapping between all tasks to nodes has been
/// determined", §4.1). The one sanctioned exception is graceful
/// degradation after failures: an assignment may then carry an explicit
/// [`unplaced`](Assignment::unplaced) set declaring which tasks the
/// surviving cluster could not fit. A task missing from the slot map
/// *without* being declared unplaced is still a plan violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    topology: TopologyId,
    slots: BTreeMap<TaskId, WorkerSlot>,
    unplaced: BTreeSet<TaskId>,
}

impl Assignment {
    /// Creates an assignment for `topology` from a complete task→slot map.
    pub fn new(topology: impl Into<TopologyId>, slots: BTreeMap<TaskId, WorkerSlot>) -> Self {
        Self {
            topology: topology.into(),
            slots,
            unplaced: BTreeSet::new(),
        }
    }

    /// Creates a degraded assignment that places only part of the task
    /// set, declaring every task in `unplaced` as deliberately deferred.
    /// Tasks may not appear in both maps.
    ///
    /// # Panics
    ///
    /// Panics if a task is both placed and declared unplaced.
    pub fn with_unplaced(
        topology: impl Into<TopologyId>,
        slots: BTreeMap<TaskId, WorkerSlot>,
        unplaced: BTreeSet<TaskId>,
    ) -> Self {
        assert!(
            unplaced.iter().all(|t| !slots.contains_key(t)),
            "a task cannot be both placed and declared unplaced"
        );
        Self {
            topology: topology.into(),
            slots,
            unplaced,
        }
    }

    /// The topology this assignment schedules.
    pub fn topology(&self) -> &TopologyId {
        &self.topology
    }

    /// Tasks this assignment deliberately left unplaced (graceful
    /// degradation after failures). Empty for a full schedule.
    pub fn unplaced(&self) -> &BTreeSet<TaskId> {
        &self.unplaced
    }

    /// True if any task is declared unplaced.
    pub fn is_degraded(&self) -> bool {
        !self.unplaced.is_empty()
    }

    /// The slot a task was placed on.
    pub fn slot_of(&self, task: TaskId) -> Option<&WorkerSlot> {
        self.slots.get(&task)
    }

    /// The node a task was placed on.
    pub fn node_of(&self, task: TaskId) -> Option<&NodeId> {
        self.slots.get(&task).map(|s| &s.node)
    }

    /// Iterates `(task, slot)` pairs in task order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &WorkerSlot)> {
        self.slots.iter().map(|(t, s)| (*t, s))
    }

    /// Number of scheduled tasks.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no tasks are scheduled.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Tasks placed on `node`, in task order.
    pub fn tasks_on_node(&self, node: &str) -> Vec<TaskId> {
        self.slots
            .iter()
            .filter(|(_, s)| s.node.as_str() == node)
            .map(|(t, _)| *t)
            .collect()
    }

    /// The distinct nodes this assignment uses, sorted.
    pub fn used_nodes(&self) -> BTreeSet<NodeId> {
        self.slots.values().map(|s| s.node.clone()).collect()
    }

    /// The distinct slots this assignment uses, sorted.
    pub fn used_slots(&self) -> BTreeSet<WorkerSlot> {
        self.slots.values().cloned().collect()
    }
}

/// The combined schedules of several topologies sharing one cluster —
/// what Nimbus holds after a scheduling round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulingPlan {
    assignments: BTreeMap<TopologyId, Assignment>,
}

impl SchedulingPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a topology's assignment.
    pub fn insert(&mut self, assignment: Assignment) -> Option<Assignment> {
        self.assignments
            .insert(assignment.topology().clone(), assignment)
    }

    /// Removes a topology's assignment.
    pub fn remove(&mut self, topology: &str) -> Option<Assignment> {
        self.assignments.remove(topology)
    }

    /// The assignment of one topology.
    pub fn assignment(&self, topology: &str) -> Option<&Assignment> {
        self.assignments.get(topology)
    }

    /// Moves an already placed task of `topology` to `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `topology` is not scheduled or `task` is not placed.
    pub(crate) fn set_slot(&mut self, topology: &str, task: TaskId, slot: WorkerSlot) {
        *self
            .assignments
            .get_mut(topology)
            .unwrap_or_else(|| panic!("topology `{topology}` is not scheduled"))
            .slots
            .get_mut(&task)
            .unwrap_or_else(|| panic!("task {task} of `{topology}` is not placed")) = slot;
    }

    /// Iterates assignments in topology-id order.
    pub fn iter(&self) -> impl Iterator<Item = &Assignment> {
        self.assignments.values()
    }

    /// Number of scheduled topologies.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True if no topologies are scheduled.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Topologies that have any task on `node` (for failure handling).
    pub fn topologies_on_node(&self, node: &str) -> Vec<&TopologyId> {
        self.assignments
            .values()
            .filter(|a| !a.tasks_on_node(node).is_empty())
            .map(Assignment::topology)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Assignment {
        let mut m = BTreeMap::new();
        m.insert(TaskId(0), WorkerSlot::new("n0", 6700));
        m.insert(TaskId(1), WorkerSlot::new("n0", 6700));
        m.insert(TaskId(2), WorkerSlot::new("n1", 6701));
        Assignment::new("t", m)
    }

    #[test]
    fn lookups() {
        let a = sample();
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert_eq!(a.slot_of(TaskId(2)).unwrap().port, 6701);
        assert_eq!(a.node_of(TaskId(0)).unwrap().as_str(), "n0");
        assert!(a.slot_of(TaskId(9)).is_none());
    }

    #[test]
    fn node_and_slot_aggregations() {
        let a = sample();
        assert_eq!(a.tasks_on_node("n0"), vec![TaskId(0), TaskId(1)]);
        assert_eq!(a.used_nodes().len(), 2);
        assert_eq!(a.used_slots().len(), 2);
    }

    #[test]
    fn plan_insert_and_failure_query() {
        let mut plan = SchedulingPlan::new();
        assert!(plan.is_empty());
        plan.insert(sample());
        assert_eq!(plan.len(), 1);
        assert!(plan.assignment("t").is_some());
        assert_eq!(plan.topologies_on_node("n1").len(), 1);
        assert!(plan.topologies_on_node("n9").is_empty());
        assert!(plan.remove("t").is_some());
        assert!(plan.is_empty());
    }

    #[test]
    fn plan_replaces_same_topology() {
        let mut plan = SchedulingPlan::new();
        plan.insert(sample());
        let replaced = plan.insert(sample());
        assert!(replaced.is_some());
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn degraded_assignment_declares_unplaced_tasks() {
        let mut m = BTreeMap::new();
        m.insert(TaskId(0), WorkerSlot::new("n0", 6700));
        let unplaced: BTreeSet<TaskId> = [TaskId(1), TaskId(2)].into();
        let a = Assignment::with_unplaced("t", m, unplaced);
        assert!(a.is_degraded());
        assert_eq!(a.unplaced().len(), 2);
        assert!(a.unplaced().contains(&TaskId(1)));
        assert!(!sample().is_degraded());
        assert!(sample().unplaced().is_empty());
    }

    #[test]
    #[should_panic(expected = "both placed and declared unplaced")]
    fn overlapping_unplaced_rejected() {
        let mut m = BTreeMap::new();
        m.insert(TaskId(0), WorkerSlot::new("n0", 6700));
        Assignment::with_unplaced("t", m, [TaskId(0)].into());
    }
}
