//! Flattening scheduled topologies into the simulator's task table, and
//! interning every entity the hot path touches into dense integer ids.
//!
//! All naming happens here, once, at build time: tasks, components,
//! topologies and nodes become dense indices, and per producer ×
//! output stream the grouping is resolved into a flat [`RoutingTable`]
//! of target pools — consumer task ids only. A row carries no
//! placement: the engine derives each transfer's link class and
//! latency from the two endpoints' current placement, so the table of
//! a shuffle, fields, all or global group is the same for every
//! producer task of a component and is stored once per component.
//! The steady-state event loop in [`crate::sim`] then never hashes a
//! `String`, never compares a `WorkerSlot` and never re-derives a
//! grouping; it only indexes arrays.

use rstorm_cluster::{Cluster, NetworkCosts, PlacementRelation, WorkerSlot};
use rstorm_core::Assignment;
use rstorm_topology::{StreamGrouping, Topology};
use std::collections::HashMap;
use std::ops::Range;

/// One downstream subscription of a component, resolved to global
/// simulator task indices (reference-engine routing: the grouping is
/// re-interpreted per emission).
#[derive(Debug, Clone)]
pub(crate) struct ConsumerGroup {
    pub grouping: StreamGrouping,
    /// Global indices of the consuming component's tasks, in task order.
    pub targets: Vec<usize>,
}

/// Sentinel for "this task's component is not a sink".
pub(crate) const NO_SINK: u32 = u32::MAX;

/// A task as the simulator sees it: placement, profile and routing table.
#[derive(Debug, Clone)]
pub(crate) struct SimTaskSpec {
    pub topology: String,
    pub component: String,
    pub slot: WorkerSlot,
    pub node_idx: usize,
    pub rack_idx: usize,
    /// Dense id of the owning topology (order of `add_topology` calls).
    pub topo_id: u32,
    /// Dense id of the owning component, unique across topologies
    /// (declaration order within each topology).
    pub comp_id: u32,
    /// Dense throughput-counter index if this task's component is a
    /// declared sink, [`NO_SINK`] otherwise.
    pub sink_ctr: u32,
    /// Node-local index into the node's [`crate::servers::DenseCpuServer`].
    pub cpu_slot: u32,
    pub is_spout: bool,
    pub is_sink: bool,
    pub work_ms_per_tuple: f64,
    pub emit_factor: f64,
    pub tuple_bytes: u32,
    pub max_rate_tuples_per_sec: Option<f64>,
    pub max_spout_pending: Option<u32>,
    /// Declared per-task memory, needed to re-derive a node's memory
    /// demand (and thus its thrash state) when the task migrates.
    pub memory_mb: f64,
    pub consumers: Vec<ConsumerGroup>,
}

/// How a precomputed route group selects targets per emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GroupKind {
    /// Draw one route uniformly from the group's range (shuffle, fields,
    /// and local-or-shuffle over its precomputed pool).
    Pick,
    /// Send over every route in the range (all-grouping; global grouping
    /// is stored as a single-route range).
    All,
}

/// A contiguous range of routes with a selection rule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouteGroup {
    pub kind: GroupKind,
    pub start: u32,
    pub len: u32,
}

/// Flat per-task routing: `task_groups[task]` is a range into `groups`,
/// each group a range into `routes`. All producer tasks of a component
/// share one group range unless the component feeds a local-or-shuffle
/// group, whose preference pool depends on each producer's placement.
#[derive(Debug, Default)]
pub(crate) struct RoutingTable {
    pub groups: Vec<RouteGroup>,
    /// Global index of each route's receiving task.
    pub routes: Vec<u32>,
    /// Per global task: (start, len) into `groups`.
    pub task_groups: Vec<(u32, u32)>,
}

/// Index structures over the cluster, shared by all topologies added to a
/// simulation.
#[derive(Debug)]
pub(crate) struct ClusterIndex {
    pub node_of: HashMap<String, usize>,
    pub rack_of_node: Vec<usize>,
    pub cores: Vec<f64>,
    pub memory_mb: Vec<f64>,
    pub node_names: Vec<String>,
}

impl ClusterIndex {
    pub fn new(cluster: &Cluster) -> Self {
        let mut rack_index: HashMap<&str, usize> = HashMap::new();
        for (i, r) in cluster.racks().iter().enumerate() {
            rack_index.insert(r.as_str(), i);
        }
        let mut node_of = HashMap::new();
        let mut rack_of_node = Vec::new();
        let mut cores = Vec::new();
        let mut memory_mb = Vec::new();
        let mut node_names = Vec::new();
        for (i, n) in cluster.nodes().iter().enumerate() {
            node_of.insert(n.id().as_str().to_owned(), i);
            rack_of_node.push(rack_index[n.rack().as_str()]);
            cores.push((n.capacity().cpu_points / 100.0).max(0.01));
            memory_mb.push(n.capacity().memory_mb);
            node_names.push(n.id().as_str().to_owned());
        }
        Self {
            node_of,
            rack_of_node,
            cores,
            memory_mb,
            node_names,
        }
    }
}

/// Everything `add_topology` accumulates: the flattened task table plus
/// the dense-id side tables the fast engine runs on.
#[derive(Debug)]
pub(crate) struct SimBuild {
    pub specs: Vec<SimTaskSpec>,
    pub routing: RoutingTable,
    /// Per global task: true when the task produces or can receive a
    /// local-or-shuffle group. Moving such a task can change the group's
    /// precomputed preference *pool* (and with it the table's shape), so
    /// [`Self::patch_routing`] refuses and the caller falls back to a
    /// full rebuild.
    pub los_member: Vec<bool>,
    /// Number of dense component ids handed out so far.
    pub components: usize,
    pub node_mem_demand: Vec<f64>,
    /// Per node: global ids of the tasks placed on it, in placement
    /// order — the `DenseCpuServer` slot layout.
    pub node_tasks: Vec<Vec<usize>>,
    /// Dense topology id → name (report boundary only).
    pub topo_names: Vec<String>,
    /// Dense topology id → its tasks' global indices.
    pub topo_tasks: Vec<Range<usize>>,
    /// Per topology: its sinks' counter indices, in sorted component-name
    /// order (the reference `StatisticServer` iterates sinks through a
    /// `BTreeSet<String>`, so the float summation order must match).
    pub sink_ctrs_by_topo: Vec<Vec<u32>>,
    /// Total number of sink throughput counters allocated so far.
    pub sink_counters: usize,
}

impl SimBuild {
    pub fn new(node_count: usize) -> Self {
        Self {
            specs: Vec::new(),
            routing: RoutingTable::default(),
            los_member: Vec::new(),
            components: 0,
            node_mem_demand: vec![0.0; node_count],
            node_tasks: vec![Vec::new(); node_count],
            topo_names: Vec::new(),
            topo_tasks: Vec::new(),
            sink_ctrs_by_topo: Vec::new(),
            sink_counters: 0,
        }
    }

    /// Appends every task of `topology` (placed per `assignment`),
    /// resolving consumer routing to global indices and precomputing the
    /// fast path's route table, and accumulates each node's memory demand.
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not cover every task of the topology
    /// or references a node missing from the cluster — schedulers in this
    /// workspace always produce complete assignments; use
    /// `rstorm_core::verify_plan` to diagnose foreign ones.
    pub fn append_topology(
        &mut self,
        index: &ClusterIndex,
        topology: &Topology,
        assignment: &Assignment,
    ) {
        let task_set = topology.task_set();
        let base = self.specs.len();
        let topo_id = self.topo_names.len() as u32;
        self.topo_names.push(topology.id().as_str().to_owned());
        self.topo_tasks.push(base..base + task_set.len());

        // Intern this topology's sinks into dense counter ids, in sorted
        // name order (the `BTreeSet` order the reference stats use).
        let mut sink_names: Vec<&str> = topology.sinks().map(|c| c.id().as_str()).collect();
        sink_names.sort_unstable();
        let ctr_base = self.sink_counters as u32;
        let ctr_of: HashMap<&str, u32> = sink_names
            .iter()
            .enumerate()
            .map(|(k, &s)| (s, ctr_base + k as u32))
            .collect();
        self.sink_ctrs_by_topo
            .push((0..sink_names.len()).map(|k| ctr_base + k as u32).collect());
        self.sink_counters += sink_names.len();

        // Intern components into dense ids, in declaration order.
        let comp_base = self.components as u32;
        let comp_of: HashMap<&str, u32> = topology
            .components()
            .iter()
            .enumerate()
            .map(|(k, c)| (c.id().as_str(), comp_base + k as u32))
            .collect();
        self.components += comp_of.len();

        // Each component's tasks, as global indices.
        let global_of: HashMap<&str, Vec<usize>> = task_set
            .by_component()
            .map(|(c, ids)| {
                (
                    c.as_str(),
                    ids.iter().map(|t| base + t.index()).collect::<Vec<_>>(),
                )
            })
            .collect();

        for task in task_set.tasks() {
            let component = topology
                .component(task.component.as_str())
                .expect("task set components exist in the topology");
            let slot = assignment
                .slot_of(task.id)
                .unwrap_or_else(|| {
                    panic!(
                        "assignment for `{}` does not place {}",
                        topology.id(),
                        task.id
                    )
                })
                .clone();
            let node_idx = *index
                .node_of
                .get(slot.node.as_str())
                .unwrap_or_else(|| panic!("assignment references unknown node `{}`", slot.node));
            self.node_mem_demand[node_idx] += component.resources().memory_mb;
            let cpu_slot = self.node_tasks[node_idx].len() as u32;
            self.node_tasks[node_idx].push(base + task.id.index());
            let profile = component.profile();
            let sink_ctr = ctr_of
                .get(task.component.as_str())
                .copied()
                .unwrap_or(NO_SINK);
            let consumers = topology
                .consumers(task.component.as_str())
                .iter()
                .map(|(consumer, decl)| ConsumerGroup {
                    grouping: decl.grouping.clone(),
                    targets: global_of[consumer.as_str()].clone(),
                })
                .collect();
            self.specs.push(SimTaskSpec {
                topology: topology.id().as_str().to_owned(),
                component: task.component.as_str().to_owned(),
                slot,
                node_idx,
                rack_idx: index.rack_of_node[node_idx],
                topo_id,
                comp_id: comp_of[task.component.as_str()],
                sink_ctr,
                cpu_slot,
                is_spout: component.is_spout(),
                is_sink: sink_ctr != NO_SINK,
                work_ms_per_tuple: profile.work_ms_per_tuple,
                emit_factor: profile.emit_factor,
                tuple_bytes: profile.tuple_bytes,
                max_rate_tuples_per_sec: profile.max_rate_tuples_per_sec,
                max_spout_pending: topology.max_spout_pending(),
                memory_mb: component.resources().memory_mb,
                consumers,
            });
        }
        self.los_member.resize(self.specs.len(), false);
        self.route_tasks(base..self.specs.len());
    }

    /// Recomputes the whole routing table from the current task specs.
    ///
    /// Only local-or-shuffle preference pools depend on placement; the
    /// consumer groups (grouping + target task sets) do not, so replaying
    /// them through [`Self::route_tasks`] reproduces exactly the table a
    /// fresh build of the current placement would produce.
    ///
    /// The existing buffers are reused (`clear()` + refill) rather than
    /// reallocated: the table's capacity is already exactly right from
    /// the previous build, so repeated rebuilds stop churning the
    /// allocator.
    pub fn rebuild_routing(&mut self) {
        self.routing.groups.clear();
        self.routing.routes.clear();
        self.routing.task_groups.clear();
        self.los_member.fill(false);
        self.route_tasks(0..self.specs.len());
    }

    /// Refreshes routing after the tasks in `moved` changed placement.
    ///
    /// Rows hold consumer task ids only and the engine derives each
    /// transfer's link class from current placement, so a move changes
    /// no row of a shuffle, fields, all or global group: there is
    /// nothing to patch. Returns `false` when any moved task
    /// participates in a local-or-shuffle group: its preference pool
    /// (and with it the table's shape) depends on placement, so the
    /// caller must fall back to [`Self::rebuild_routing`].
    pub fn patch_routing(&self, moved: &[usize]) -> bool {
        !moved.iter().any(|&t| self.los_member[t])
    }

    /// Pushes the route groups of the tasks in `tasks`, appending their
    /// `task_groups` entries in order. A component whose groups are all
    /// placement-free pushes them once, at its first task; every later
    /// task of the component points at that shared range. A component
    /// with a local-or-shuffle group pushes per-task rows.
    fn route_tasks(&mut self, tasks: Range<usize>) {
        let mut shared: Vec<Option<(u32, u32)>> = vec![None; self.components];
        for from in tasks {
            debug_assert_eq!(self.routing.task_groups.len(), from);
            let comp = self.specs[from].comp_id as usize;
            if let Some(range) = shared[comp] {
                self.routing.task_groups.push(range);
                continue;
            }
            let groups_start = self.routing.groups.len() as u32;
            let groups = std::mem::take(&mut self.specs[from].consumers);
            for group in &groups {
                self.push_route_group(from, group);
            }
            let per_task = groups
                .iter()
                .any(|g| g.grouping == StreamGrouping::LocalOrShuffle);
            self.specs[from].consumers = groups;
            let range = (
                groups_start,
                self.routing.groups.len() as u32 - groups_start,
            );
            if !per_task {
                shared[comp] = Some(range);
            }
            self.routing.task_groups.push(range);
        }
    }

    fn push_route_group(&mut self, from: usize, group: &ConsumerGroup) {
        let targets = &group.targets;
        debug_assert!(!targets.is_empty(), "validated topologies have tasks");
        let start = self.routing.routes.len() as u32;
        let all = targets.iter().map(|&t| t as u32);
        let kind = match &group.grouping {
            // Fields grouping with uniformly distributed keys is
            // statistically identical to shuffle at this granularity, so
            // both pick uniformly over the full target set.
            StreamGrouping::Shuffle | StreamGrouping::Fields(_) => {
                self.routing.routes.extend(all);
                GroupKind::Pick
            }
            StreamGrouping::All => {
                self.routing.routes.extend(all);
                GroupKind::All
            }
            StreamGrouping::Global => {
                self.routing.routes.push(targets[0] as u32);
                GroupKind::All
            }
            StreamGrouping::LocalOrShuffle => {
                self.los_member[from] = true;
                for &t in targets {
                    self.los_member[t] = true;
                }
                // Prefer the consumers in the producer's own worker; with
                // none there, fall back to all of them.
                let from_slot = &self.specs[from].slot;
                let local = targets
                    .iter()
                    .filter(|&&t| self.specs[t].slot == *from_slot)
                    .map(|&t| t as u32);
                self.routing.routes.extend(local);
                if self.routing.routes.len() as u32 == start {
                    self.routing.routes.extend(all);
                }
                GroupKind::Pick
            }
        };
        self.routing.groups.push(RouteGroup {
            kind,
            start,
            len: self.routing.routes.len() as u32 - start,
        });
    }
}

/// Where a task runs, in dense ids: everything a transfer needs to
/// derive its link class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Placement {
    pub node: u32,
    pub rack: u32,
    /// Worker port: with `node`, identifies the worker slot.
    pub port: u16,
}

impl Placement {
    pub fn of(spec: &SimTaskSpec) -> Self {
        Self {
            node: spec.node_idx as u32,
            rack: spec.rack_idx as u32,
            port: spec.slot.port,
        }
    }

    /// How far a transfer from `self` to `to` travels: the rule of
    /// [`relation_of`] over dense ids (a slot is a node and a port).
    pub fn relation_to(self, to: Placement) -> PlacementRelation {
        if self.node == to.node {
            if self.port == to.port {
                PlacementRelation::SameWorker
            } else {
                PlacementRelation::SameNode
            }
        } else if self.rack == to.rack {
            PlacementRelation::SameRack
        } else {
            PlacementRelation::InterRack
        }
    }
}

/// Propagation latency per [`PlacementRelation`], indexed by
/// `relation as usize`.
pub(crate) fn latency_table(costs: &NetworkCosts) -> [f64; 4] {
    [
        PlacementRelation::SameWorker,
        PlacementRelation::SameNode,
        PlacementRelation::SameRack,
        PlacementRelation::InterRack,
    ]
    .map(|relation| costs.latency_ms(relation))
}

pub(crate) fn relation_of(a: &SimTaskSpec, b: &SimTaskSpec) -> PlacementRelation {
    if a.slot == b.slot {
        PlacementRelation::SameWorker
    } else if a.node_idx == b.node_idx {
        PlacementRelation::SameNode
    } else if a.rack_idx == b.rack_idx {
        PlacementRelation::SameRack
    } else {
        PlacementRelation::InterRack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
    use rstorm_core::{GlobalState, RStormScheduler, Scheduler};
    use rstorm_topology::TopologyBuilder;

    fn setup() -> (Cluster, Topology, Assignment) {
        let cluster = ClusterBuilder::new()
            .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 4)
            .build()
            .unwrap();
        let mut b = TopologyBuilder::new("t");
        b.set_spout("s", 2).set_memory_load(100.0);
        b.set_bolt("m", 3)
            .shuffle_grouping("s")
            .set_memory_load(100.0);
        b.set_bolt("k", 1)
            .global_grouping("m")
            .set_memory_load(100.0);
        let topology = b.build().unwrap();
        let mut state = GlobalState::new(&cluster);
        let assignment = RStormScheduler::new()
            .schedule(&topology, &cluster, &mut state)
            .unwrap();
        (cluster, topology, assignment)
    }

    fn build(cluster: &Cluster, topology: &Topology, assignment: &Assignment) -> SimBuild {
        let idx = ClusterIndex::new(cluster);
        let mut b = SimBuild::new(cluster.nodes().len());
        b.append_topology(&idx, topology, assignment);
        b
    }

    /// Checks every (producer, route) pair against the current specs:
    /// the relation the engine derives from dense placement equals
    /// [`relation_of`], the destination node is the consumer's node, and
    /// the latency read from the table is `NetworkCosts::latency_ms` of
    /// that relation.
    fn assert_links_match_specs(b: &SimBuild, costs: &NetworkCosts) {
        let latency = latency_table(costs);
        for (from, &(gs, gl)) in b.routing.task_groups.iter().enumerate() {
            for g in &b.routing.groups[gs as usize..(gs + gl) as usize] {
                for &to in &b.routing.routes[g.start as usize..(g.start + g.len) as usize] {
                    let (src, dst) = (&b.specs[from], &b.specs[to as usize]);
                    let derived = Placement::of(src).relation_to(Placement::of(dst));
                    let expected = relation_of(src, dst);
                    assert_eq!(derived, expected, "route {from} -> {to}");
                    assert_eq!(Placement::of(dst).node as usize, dst.node_idx);
                    assert_eq!(latency[derived as usize], costs.latency_ms(expected));
                }
            }
        }
    }

    /// The link class a transfer over `g`'s first route would take.
    fn first_route_relation(b: &SimBuild, from: usize) -> PlacementRelation {
        let (gs, _) = b.routing.task_groups[from];
        let g = b.routing.groups[gs as usize];
        let to = b.routing.routes[g.start as usize] as usize;
        Placement::of(&b.specs[from]).relation_to(Placement::of(&b.specs[to]))
    }

    fn is_local(relation: PlacementRelation) -> bool {
        matches!(
            relation,
            PlacementRelation::SameWorker | PlacementRelation::SameNode
        )
    }

    #[test]
    fn index_covers_all_nodes() {
        let (cluster, _, _) = setup();
        let idx = ClusterIndex::new(&cluster);
        assert_eq!(idx.node_of.len(), 6);
        assert_eq!(idx.cores.len(), 6);
        assert_eq!(idx.cores[0], 1.0);
        assert_eq!(idx.memory_mb[0], 2048.0);
        // Rack indices partition the nodes 3/3.
        assert_eq!(idx.rack_of_node.iter().filter(|&&r| r == 0).count(), 3);
        assert_eq!(idx.rack_of_node.iter().filter(|&&r| r == 1).count(), 3);
    }

    #[test]
    fn tasks_flattened_with_routing() {
        let (cluster, topology, assignment) = setup();
        let b = build(&cluster, &topology, &assignment);
        assert_eq!(b.specs.len(), 6);
        // Spout tasks route to the middle bolt's three tasks.
        let spout = &b.specs[0];
        assert!(spout.is_spout);
        assert!(!spout.is_sink);
        assert_eq!(spout.consumers.len(), 1);
        assert_eq!(spout.consumers[0].targets, vec![2, 3, 4]);
        // Middle bolt routes to the sink.
        assert_eq!(b.specs[2].consumers[0].targets, vec![5]);
        assert_eq!(b.specs[2].consumers[0].grouping, StreamGrouping::Global);
        // The sink has no consumers and is flagged.
        assert!(b.specs[5].is_sink);
        assert!(b.specs[5].consumers.is_empty());
        // Memory demand accumulated: 6 tasks × 100 MB.
        assert!((b.node_mem_demand.iter().sum::<f64>() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn routing_table_mirrors_consumer_groups() {
        let (cluster, topology, assignment) = setup();
        let b = build(&cluster, &topology, &assignment);
        assert_eq!(b.routing.task_groups.len(), 6);
        // Spout task 0: one shuffle group over the three middle tasks.
        let (gs, gl) = b.routing.task_groups[0];
        assert_eq!(gl, 1);
        let g = b.routing.groups[gs as usize];
        assert_eq!(g.kind, GroupKind::Pick);
        assert_eq!(g.len, 3);
        let tos = &b.routing.routes[g.start as usize..(g.start + g.len) as usize];
        assert_eq!(tos, [2, 3, 4]);
        // Middle task 2: global grouping stored as a single-route All.
        let (gs2, gl2) = b.routing.task_groups[2];
        assert_eq!(gl2, 1);
        let g2 = b.routing.groups[gs2 as usize];
        assert_eq!(g2.kind, GroupKind::All);
        assert_eq!(g2.len, 1);
        assert_eq!(b.routing.routes[g2.start as usize], 5);
        // The sink has no groups.
        assert_eq!(b.routing.task_groups[5].1, 0);
        // Every route's derived link class and latency follow the specs.
        assert_links_match_specs(&b, cluster.costs());
    }

    #[test]
    fn dense_ids_assigned() {
        let (cluster, topology, assignment) = setup();
        let b = build(&cluster, &topology, &assignment);
        assert_eq!(b.topo_names, vec!["t".to_owned()]);
        // One sink component ("k") → one counter, owned by topology 0.
        assert_eq!(b.sink_counters, 1);
        assert_eq!(b.sink_ctrs_by_topo, vec![vec![0]]);
        assert_eq!(b.specs[5].sink_ctr, 0);
        assert_eq!(b.specs[0].sink_ctr, NO_SINK);
        // cpu slots are dense per node, in placement order.
        for (node, tasks) in b.node_tasks.iter().enumerate() {
            for (slot, &gid) in tasks.iter().enumerate() {
                assert_eq!(b.specs[gid].node_idx, node);
                assert_eq!(b.specs[gid].cpu_slot as usize, slot);
            }
        }
    }

    #[test]
    fn second_topology_gets_offset_indices() {
        let (cluster, topology, assignment) = setup();
        let idx = ClusterIndex::new(&cluster);
        let mut b = SimBuild::new(cluster.nodes().len());
        b.append_topology(&idx, &topology, &assignment);
        b.append_topology(&idx, &topology, &assignment);
        assert_eq!(b.specs.len(), 12);
        // Second copy's spout routes into the second copy's bolts.
        assert_eq!(b.specs[6].consumers[0].targets, vec![8, 9, 10]);
        let (gs, _) = b.routing.task_groups[6];
        let g = b.routing.groups[gs as usize];
        let tos = &b.routing.routes[g.start as usize..(g.start + g.len) as usize];
        assert_eq!(tos, [8, 9, 10]);
        // Sink counters are disjoint per topology.
        assert_eq!(b.sink_ctrs_by_topo, vec![vec![0], vec![1]]);
        assert_eq!(b.specs[11].sink_ctr, 1);
    }

    #[test]
    fn rebuild_without_moves_reproduces_the_table() {
        let (cluster, topology, assignment) = setup();
        let mut b = build(&cluster, &topology, &assignment);
        let before = format!("{:?}", b.routing);
        b.rebuild_routing();
        assert_eq!(before, format!("{:?}", b.routing));
    }

    #[test]
    fn rebuild_tracks_a_moved_task() {
        let (cluster, topology, assignment) = setup();
        let mut b = build(&cluster, &topology, &assignment);
        let idx = ClusterIndex::new(&cluster);
        // Move the sink (global task 5) to a node hosting nothing else.
        let dest = (0..idx.node_names.len())
            .find(|&n| b.specs.iter().all(|s| s.node_idx != n))
            .expect("6 nodes, 6 colocated tasks: some node is free");
        b.specs[5].node_idx = dest;
        b.specs[5].rack_idx = idx.rack_of_node[dest];
        b.specs[5].slot = rstorm_cluster::WorkerSlot::new(idx.node_names[dest].as_str(), 9000);
        b.rebuild_routing();
        // The middle bolt's single global route now points at the new node.
        let (gs, _) = b.routing.task_groups[2];
        let g = b.routing.groups[gs as usize];
        let to = b.routing.routes[g.start as usize];
        assert_eq!(to, 5);
        assert_eq!(Placement::of(&b.specs[5]).node, dest as u32);
        assert!(
            !is_local(first_route_relation(&b, 2)),
            "the sink left its producers"
        );
        assert_links_match_specs(&b, cluster.costs());
    }

    #[test]
    #[should_panic(expected = "does not place")]
    fn incomplete_assignment_panics() {
        let (cluster, topology, _) = setup();
        let empty = Assignment::new("t", Default::default());
        build(&cluster, &topology, &empty);
    }

    /// Everything a routing refresh may touch, in one comparable blob:
    /// the routing table plus the local-or-shuffle membership flags.
    fn fingerprint(b: &SimBuild) -> String {
        format!("{:?}|{:?}", b.routing, b.los_member)
    }

    /// Applies the placement part of a migration directly to the specs,
    /// the way `apply_migration` does before refreshing the routes.
    fn relocate(b: &mut SimBuild, idx: &ClusterIndex, task: usize, dest: usize) {
        b.specs[task].node_idx = dest;
        b.specs[task].rack_idx = idx.rack_of_node[dest];
        b.specs[task].slot = rstorm_cluster::WorkerSlot::new(idx.node_names[dest].as_str(), 9000);
    }

    #[test]
    fn patch_with_no_moves_is_a_noop() {
        let (cluster, topology, assignment) = setup();
        let b = build(&cluster, &topology, &assignment);
        let before = fingerprint(&b);
        assert!(b.patch_routing(&[]));
        assert_eq!(before, fingerprint(&b));
    }

    #[test]
    fn patch_matches_full_rebuild_for_moved_tasks() {
        let (cluster, topology, assignment) = setup();
        let idx = ClusterIndex::new(&cluster);
        let mut patched = build(&cluster, &topology, &assignment);
        let mut rebuilt = build(&cluster, &topology, &assignment);
        // Move a producer (spout task 0) and a consumer (sink task 5) to
        // a free node — exercises both the outgoing and incoming links,
        // including a task that is both endpoints of a crossing route.
        let dest = (0..idx.node_names.len())
            .find(|&n| patched.specs.iter().all(|s| s.node_idx != n))
            .expect("6 nodes, 6 colocated tasks: some node is free");
        for b in [&mut patched, &mut rebuilt] {
            relocate(b, &idx, 0, dest);
            relocate(b, &idx, 5, dest);
        }
        assert!(patched.patch_routing(&[0, 5]));
        rebuilt.rebuild_routing();
        assert_eq!(fingerprint(&patched), fingerprint(&rebuilt));
        // The move is visible: spout 0's routes now leave `dest`.
        assert!(
            !is_local(first_route_relation(&patched, 0)),
            "the spout left its consumers"
        );
        assert_links_match_specs(&patched, cluster.costs());
    }

    /// `s` (2 tasks) shuffles into `m` (3 tasks), which feeds `k`
    /// (2 tasks) through a local-or-shuffle group.
    fn los_setup() -> (Cluster, Topology, Assignment) {
        let cluster = ClusterBuilder::new()
            .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 4)
            .build()
            .unwrap();
        let mut tb = TopologyBuilder::new("los");
        tb.set_spout("s", 2).set_memory_load(100.0);
        tb.set_bolt("m", 3)
            .shuffle_grouping("s")
            .set_memory_load(100.0);
        tb.set_bolt("k", 2)
            .local_or_shuffle_grouping("m")
            .set_memory_load(100.0);
        let topology = tb.build().unwrap();
        let mut state = GlobalState::new(&cluster);
        let assignment = RStormScheduler::new()
            .schedule(&topology, &cluster, &mut state)
            .unwrap();
        (cluster, topology, assignment)
    }

    #[test]
    fn placement_free_components_share_one_group_range() {
        let (cluster, topology, assignment) = los_setup();
        let b = build(&cluster, &topology, &assignment);
        let groups = &b.routing.task_groups;
        // Both spout tasks (shuffle into `m`) point at one shared range,
        // so its three routes are stored once.
        assert_eq!(groups[0], groups[1]);
        // Each local-or-shuffle producer (`m`: 2..5) keeps its own range,
        // because its preference pool depends on where it sits.
        assert_ne!(groups[2], groups[3]);
        assert_ne!(groups[3], groups[4]);
        assert_ne!(groups[2], groups[4]);
        assert!(groups[2..5].iter().all(|&(_, len)| len == 1));
        assert_ne!(groups[0], groups[2]);
        // One shared range of 3 routes, plus one pool per `m` task (of
        // its co-located `k` tasks, or both when none is local).
        let pools: u32 = (2..5)
            .map(|t| b.routing.groups[groups[t].0 as usize].len)
            .sum();
        assert_eq!(b.routing.routes.len() as u32, 3 + pools);
        // A rebuild keeps the same sharing.
        let mut rebuilt = build(&cluster, &topology, &assignment);
        rebuilt.rebuild_routing();
        assert_eq!(fingerprint(&b), fingerprint(&rebuilt));
        assert_links_match_specs(&b, cluster.costs());
    }

    #[test]
    fn local_or_shuffle_members_force_full_rebuild() {
        let (cluster, topology, assignment) = los_setup();
        let b = build(&cluster, &topology, &assignment);
        // Producers (m: 2..5) and targets (k: 5..7) of the LoS group are
        // flagged; the spout tasks are not.
        assert!(!b.los_member[0] && !b.los_member[1]);
        assert!((2..7).all(|t| b.los_member[t]));
        // A LoS member declines the patch and leaves the table untouched…
        let declined = build(&cluster, &topology, &assignment);
        let before = fingerprint(&declined);
        assert!(!declined.patch_routing(&[0, 3]));
        assert_eq!(before, fingerprint(&declined));
        // …while a move of only the (non-member) spout still patches and
        // matches the full rebuild.
        let idx = ClusterIndex::new(&cluster);
        let mut patched = build(&cluster, &topology, &assignment);
        let mut rebuilt = build(&cluster, &topology, &assignment);
        let dest = (patched.specs[0].node_idx + 1) % idx.node_names.len();
        relocate(&mut patched, &idx, 0, dest);
        relocate(&mut rebuilt, &idx, 0, dest);
        assert!(patched.patch_routing(&[0]));
        rebuilt.rebuild_routing();
        assert_eq!(fingerprint(&patched), fingerprint(&rebuilt));
        assert_links_match_specs(&patched, cluster.costs());
    }

    #[test]
    fn node_task_lists_are_sorted_by_global_id() {
        let (cluster, topology, assignment) = setup();
        let idx = ClusterIndex::new(&cluster);
        let mut b = SimBuild::new(cluster.nodes().len());
        b.append_topology(&idx, &topology, &assignment);
        b.append_topology(&idx, &topology, &assignment);
        // The engine's sorted-membership invariant starts here: appending
        // walks tasks in increasing global id, so every per-node list is
        // born sorted and `apply_migration` keeps it that way.
        for tasks in &b.node_tasks {
            assert!(tasks.windows(2).all(|w| w[0] < w[1]), "{tasks:?}");
        }
    }

    proptest::proptest! {
        /// For any random move set — empty, partial or a full shuffle of
        /// every task — the patched table and membership flags are
        /// bit-identical to a from-scratch rebuild, and every route's
        /// derived link class follows the moved specs.
        #[test]
        fn patch_is_bit_identical_to_rebuild(
            moves in proptest::collection::vec((0usize..6, 0usize..6), 0..7),
        ) {
            let (cluster, topology, assignment) = setup();
            let idx = ClusterIndex::new(&cluster);
            let mut patched = build(&cluster, &topology, &assignment);
            let mut rebuilt = build(&cluster, &topology, &assignment);
            let mut moved = Vec::new();
            for &(task, dest) in &moves {
                relocate(&mut patched, &idx, task, dest);
                relocate(&mut rebuilt, &idx, task, dest);
                moved.push(task);
            }
            proptest::prop_assert!(patched.patch_routing(&moved));
            rebuilt.rebuild_routing();
            proptest::prop_assert_eq!(fingerprint(&patched), fingerprint(&rebuilt));
            assert_links_match_specs(&patched, cluster.costs());
        }
    }
}
