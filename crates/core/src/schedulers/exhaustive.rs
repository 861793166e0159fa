//! An exact branch-and-bound scheduler for small instances.
//!
//! §3 of the paper formulates scheduling as a Quadratic Multiple
//! 3-Dimensional Knapsack Problem and rejects exact solvers because they
//! are "constraining in terms of computational complexity" for a system
//! that must reschedule in seconds. This module implements the exact
//! solver anyway — for *small* instances — so that tests and ablations
//! can measure how close R-Storm's greedy heuristic gets to the optimum,
//! and benchmarks can show how quickly exhaustive search becomes
//! intractable.
//!
//! The objective mirrors the paper's goals: minimize the total expected
//! network distance between communicating tasks plus a penalty for
//! over-committing the soft CPU budget, subject to the hard memory
//! constraint.

use crate::assignment::Assignment;
use crate::error::ScheduleError;
use crate::global_state::GlobalState;
use crate::rstorm::task_selection;
use crate::scheduler::Scheduler;
use rstorm_cluster::Cluster;
use rstorm_topology::{TaskId, Topology, TraversalOrder};
use std::collections::{BTreeMap, HashMap};

/// Penalty, per over-committed CPU point, added to the objective.
const CPU_OVERLOAD_PENALTY_PER_POINT: f64 = 0.1;

/// Exact (branch-and-bound) scheduler for small instances.
#[derive(Debug, Clone, Copy)]
pub struct ExhaustiveScheduler {
    /// Maximum number of tasks the solver accepts before refusing with
    /// [`ScheduleError::InstanceTooLarge`].
    pub max_tasks: usize,
}

impl ExhaustiveScheduler {
    /// Default tractability limit: with pruning, a dozen tasks over a
    /// handful of nodes solves in well under a second.
    pub const DEFAULT_MAX_TASKS: usize = 12;

    /// Creates a solver with the default task limit.
    pub fn new() -> Self {
        Self {
            max_tasks: Self::DEFAULT_MAX_TASKS,
        }
    }

    /// Creates a solver with an explicit task limit.
    pub fn with_max_tasks(max_tasks: usize) -> Self {
        Self { max_tasks }
    }
}

impl Default for ExhaustiveScheduler {
    fn default() -> Self {
        Self::new()
    }
}

/// The placement objective: expected communication distance plus soft
/// CPU-overload penalty. Lower is better. Exposed so tests and ablations
/// can score any scheduler's assignment on the same scale.
pub fn placement_cost(topology: &Topology, cluster: &Cluster, assignment: &Assignment) -> f64 {
    let task_set = topology.task_set();
    let mut cost = 0.0;

    // Communication: for every edge A→B, each task of A sends 1/|B| of
    // its stream to each task of B (shuffle-style expectation).
    for component in topology.components() {
        let producers = task_set.tasks_of(component.id().as_str());
        for (consumer, _) in topology.consumers(component.id().as_str()) {
            let consumers = task_set.tasks_of(consumer.as_str());
            if consumers.is_empty() {
                continue;
            }
            let weight = 1.0 / consumers.len() as f64;
            for &p in producers {
                for &c in consumers {
                    let (np, nc) = (
                        assignment.node_of(p).expect("complete assignment"),
                        assignment.node_of(c).expect("complete assignment"),
                    );
                    cost += weight
                        * cluster
                            .node_distance(np.as_str(), nc.as_str())
                            .expect("assignment nodes are cluster members");
                }
            }
        }
    }

    // Soft CPU overload.
    let mut cpu_demand: HashMap<&str, f64> = HashMap::new();
    for task in task_set.tasks() {
        let node = assignment.node_of(task.id).expect("complete assignment");
        *cpu_demand.entry(node.as_str()).or_insert(0.0) +=
            task_set.resources(task.id).expect("known task").cpu_points;
    }
    for (node, demand) in cpu_demand {
        let capacity = cluster
            .node(node)
            .map(|n| n.capacity().cpu_points)
            .unwrap_or(0.0);
        cost += CPU_OVERLOAD_PENALTY_PER_POINT * (demand - capacity).max(0.0);
    }
    cost
}

struct Search<'a> {
    cluster: &'a Cluster,
    order: Vec<TaskId>,
    task_cpu: Vec<f64>,
    task_mem: Vec<f64>,
    nodes: Vec<String>,
    node_cpu: Vec<f64>,
    node_mem: Vec<f64>,
    /// neighbors[i] = (earlier-placed task position, weight) pairs for the
    /// task at order position i.
    neighbors: Vec<Vec<(usize, f64)>>,
    best_cost: f64,
    best: Option<Vec<usize>>,
}

impl Search<'_> {
    fn dfs(
        &mut self,
        pos: usize,
        placement: &mut Vec<usize>,
        mem_left: &mut [f64],
        cpu_used: &mut [f64],
        cost: f64,
    ) {
        if cost >= self.best_cost {
            return; // Bound: partial cost only ever grows.
        }
        if pos == self.order.len() {
            self.best_cost = cost;
            self.best = Some(placement.clone());
            return;
        }
        for n in 0..self.nodes.len() {
            if mem_left[n] < self.task_mem[pos] {
                continue; // Hard constraint.
            }
            // Incremental cost: edges to already-placed neighbors plus
            // the marginal CPU-overload penalty on node n.
            let mut delta = 0.0;
            for &(other_pos, weight) in &self.neighbors[pos] {
                let other_node = placement[other_pos];
                delta += weight
                    * self
                        .cluster
                        .node_distance(&self.nodes[n], &self.nodes[other_node])
                        .expect("search nodes come from the cluster's own list");
            }
            let before = (cpu_used[n] - self.node_cpu[n]).max(0.0);
            let after = (cpu_used[n] + self.task_cpu[pos] - self.node_cpu[n]).max(0.0);
            delta += CPU_OVERLOAD_PENALTY_PER_POINT * (after - before);

            mem_left[n] -= self.task_mem[pos];
            cpu_used[n] += self.task_cpu[pos];
            placement.push(n);
            self.dfs(pos + 1, placement, mem_left, cpu_used, cost + delta);
            placement.pop();
            cpu_used[n] -= self.task_cpu[pos];
            mem_left[n] += self.task_mem[pos];
        }
    }
}

impl Scheduler for ExhaustiveScheduler {
    fn name(&self) -> &str {
        "exhaustive"
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
        let task_set = topology.task_set();
        if task_set.len() > self.max_tasks {
            return Err(ScheduleError::InstanceTooLarge {
                tasks: task_set.len(),
                limit: self.max_tasks,
            });
        }
        let nodes: Vec<String> = cluster
            .alive_nodes()
            .map(|n| n.id().as_str().to_owned())
            .collect();
        if nodes.is_empty() {
            return Err(ScheduleError::NoAliveNodes);
        }

        // Order tasks as R-Storm does: adjacent components adjacent in
        // the order, which makes the edge-based bound tighten early.
        let order = task_selection::task_ordering(topology, task_set, TraversalOrder::Bfs);
        let position: HashMap<TaskId, usize> =
            order.iter().enumerate().map(|(i, &t)| (t, i)).collect();

        // Expected-traffic weights between task pairs (see
        // `placement_cost`), folded to (earlier position, weight).
        let mut neighbors: Vec<Vec<(usize, f64)>> = vec![Vec::new(); order.len()];
        for component in topology.components() {
            let producers = task_set.tasks_of(component.id().as_str());
            for (consumer, _) in topology.consumers(component.id().as_str()) {
                let consumers = task_set.tasks_of(consumer.as_str());
                if consumers.is_empty() {
                    continue;
                }
                let weight = 1.0 / consumers.len() as f64;
                for &p in producers {
                    for &c in consumers {
                        let (pp, pc) = (position[&p], position[&c]);
                        let (early, late) = if pp < pc { (pp, pc) } else { (pc, pp) };
                        neighbors[late].push((early, weight));
                    }
                }
            }
        }

        let mut search = Search {
            cluster,
            task_cpu: order
                .iter()
                .map(|t| task_set.resources(*t).expect("known task").cpu_points)
                .collect(),
            task_mem: order
                .iter()
                .map(|t| task_set.resources(*t).expect("known task").memory_mb)
                .collect(),
            node_cpu: nodes
                .iter()
                .map(|n| state.remaining(n).map_or(0.0, |r| r.cpu_points))
                .collect(),
            node_mem: nodes
                .iter()
                .map(|n| state.remaining(n).map_or(0.0, |r| r.memory_mb))
                .collect(),
            nodes,
            order,
            neighbors,
            best_cost: f64::INFINITY,
            best: None,
        };

        let mut mem_left = search.node_mem.clone();
        let mut cpu_used = vec![0.0; search.nodes.len()];
        let mut placement = Vec::with_capacity(search.order.len());
        search.dfs(0, &mut placement, &mut mem_left, &mut cpu_used, 0.0);

        let Some(best) = search.best.take() else {
            let best_available_mb = search.node_mem.iter().copied().fold(0.0, f64::max);
            let (pos, _) = search
                .task_mem
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("at least one task");
            return Err(ScheduleError::InsufficientMemory {
                topology: topology.id().clone(),
                task: search.order[pos],
                needed_mb: search.task_mem[pos],
                best_available_mb,
            });
        };

        let mut slots = BTreeMap::new();
        for (pos, &node_idx) in best.iter().enumerate() {
            let task = search.order[pos];
            let node = rstorm_cluster::NodeId::new(search.nodes[node_idx].clone());
            let request = task_set.resources(task).expect("known task");
            state.reserve(topology.id(), &node, request)?;
            let slot = state.slot_for(cluster, topology.id(), &node)?;
            slots.insert(task, slot);
        }
        let assignment = Assignment::new(topology.id().clone(), slots);
        state.commit(assignment.clone());
        Ok(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rstorm::RStormScheduler;
    use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
    use rstorm_topology::TopologyBuilder;

    fn cluster() -> Cluster {
        ClusterBuilder::new()
            .homogeneous_racks(2, 2, ResourceCapacity::emulab_node(), 4)
            .build()
            .unwrap()
    }

    fn small_chain(parallelism: u32, cpu: f64, mem: f64) -> Topology {
        let mut b = TopologyBuilder::new("small");
        b.set_spout("a", parallelism)
            .set_cpu_load(cpu)
            .set_memory_load(mem);
        b.set_bolt("b", parallelism)
            .shuffle_grouping("a")
            .set_cpu_load(cpu)
            .set_memory_load(mem);
        b.set_bolt("c", parallelism)
            .shuffle_grouping("b")
            .set_cpu_load(cpu)
            .set_memory_load(mem);
        b.build().unwrap()
    }

    #[test]
    fn finds_a_feasible_optimum() {
        let cluster = cluster();
        // 6 × 15 CPU points fit one node: the optimum is full colocation.
        let t = small_chain(2, 15.0, 256.0);
        let mut state = GlobalState::new(&cluster);
        let a = ExhaustiveScheduler::new()
            .schedule(&t, &cluster, &mut state)
            .unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(a.used_nodes().len(), 1);
        assert_eq!(placement_cost(&t, &cluster, &a), 0.0);
    }

    #[test]
    fn splits_when_cpu_penalty_outweighs_a_hop() {
        let cluster = cluster();
        // 6 × 30 points on one node over-commit CPU by 80 points
        // (penalty 8.0); splitting costs one intra-rack chain cut
        // (cost 2.0) — the optimum uses two machines.
        let t = small_chain(2, 30.0, 256.0);
        let a = ExhaustiveScheduler::new()
            .schedule(&t, &cluster, &mut GlobalState::new(&cluster))
            .unwrap();
        assert_eq!(a.used_nodes().len(), 2);
        let cost = placement_cost(&t, &cluster, &a);
        assert!(cost <= 2.0 + 1e-9, "got {cost}");
    }

    #[test]
    fn respects_hard_memory_constraint() {
        let cluster = cluster();
        // 6 × 900 MB cannot share single 2048 MB nodes more than 2-up.
        let t = small_chain(2, 10.0, 900.0);
        let mut state = GlobalState::new(&cluster);
        let a = ExhaustiveScheduler::new()
            .schedule(&t, &cluster, &mut state)
            .unwrap();
        for node in a.used_nodes() {
            assert!(a.tasks_on_node(node.as_str()).len() <= 2);
        }
    }

    #[test]
    fn rstorm_is_near_optimal_on_small_instances() {
        // The point of the solver: quantify the greedy heuristic's gap.
        let cluster = cluster();
        for (parallelism, cpu, mem) in [
            (2, 30.0, 256.0),
            (3, 40.0, 300.0),
            (2, 60.0, 700.0),
            (4, 25.0, 128.0),
        ] {
            let t = small_chain(parallelism, cpu, mem);
            let optimal = ExhaustiveScheduler::with_max_tasks(12)
                .schedule(&t, &cluster, &mut GlobalState::new(&cluster))
                .unwrap();
            let greedy = RStormScheduler::new()
                .schedule(&t, &cluster, &mut GlobalState::new(&cluster))
                .unwrap();
            let c_opt = placement_cost(&t, &cluster, &optimal);
            let c_greedy = placement_cost(&t, &cluster, &greedy);
            assert!(
                c_greedy <= c_opt * 2.0 + 3.0,
                "p={parallelism} cpu={cpu} mem={mem}: greedy {c_greedy:.2} vs optimal {c_opt:.2}"
            );
            assert!(c_opt <= c_greedy + 1e-9, "optimum must not exceed greedy");
        }
    }

    #[test]
    fn refuses_large_instances() {
        let cluster = cluster();
        let t = small_chain(5, 10.0, 64.0); // 15 tasks > 12
        let err = ExhaustiveScheduler::new()
            .schedule(&t, &cluster, &mut GlobalState::new(&cluster))
            .unwrap_err();
        assert_eq!(
            err,
            ScheduleError::InstanceTooLarge {
                tasks: 15,
                limit: 12
            }
        );
    }

    #[test]
    fn reports_infeasible_memory() {
        let cluster = cluster();
        let t = small_chain(1, 10.0, 4096.0);
        let err = ExhaustiveScheduler::new()
            .schedule(&t, &cluster, &mut GlobalState::new(&cluster))
            .unwrap_err();
        assert!(matches!(err, ScheduleError::InsufficientMemory { .. }));
    }
}
