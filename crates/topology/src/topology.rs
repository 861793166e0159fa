//! The validated topology graph.

use crate::component::{Component, InputDeclaration};
use crate::error::TopologyError;
use crate::ids::{ComponentId, StreamId, TopologyId};
use crate::resource::ResourceRequest;
use crate::task::TaskSet;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::OnceLock;

/// A validated Storm-style topology: a directed graph of spouts and bolts.
///
/// Construct via [`crate::TopologyBuilder`]. A `Topology` is immutable;
/// validation guarantees that every subscription refers to a declared
/// component and stream, that at least one spout exists, that spouts have
/// no inputs and that every bolt has at least one input.
///
/// Unlike some prior schedulers (e.g. the offline scheduler of Aniello et
/// al., which the paper notes is limited to acyclic topologies), cycles
/// among bolts are *allowed* — R-Storm handles them, and so do we.
#[derive(Clone)]
pub struct Topology {
    id: TopologyId,
    components: Vec<Component>,
    num_workers: Option<u32>,
    max_spout_pending: Option<u32>,
    index: HashMap<ComponentId, usize>,
    /// Edges: producer component -> consumers (with the subscription each
    /// consumer declared).
    downstream: HashMap<ComponentId, Vec<(ComponentId, InputDeclaration)>>,
    /// Streams each component declares (always contains `"default"`).
    declared_streams: HashMap<ComponentId, HashSet<StreamId>>,
    /// The task set, instantiated on first use. A `Topology` has no
    /// `&mut self` methods, so the cache can never go stale.
    task_set: OnceLock<TaskSet>,
}

/// Prints everything but the task-set cache, so the output does not
/// depend on whether [`Topology::task_set`] has been called yet.
impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("id", &self.id)
            .field("components", &self.components)
            .field("num_workers", &self.num_workers)
            .field("max_spout_pending", &self.max_spout_pending)
            .field("index", &self.index)
            .field("downstream", &self.downstream)
            .field("declared_streams", &self.declared_streams)
            .finish()
    }
}

impl Topology {
    pub(crate) fn from_parts(
        id: TopologyId,
        components: Vec<Component>,
        num_workers: Option<u32>,
        max_spout_pending: Option<u32>,
        declared_streams: HashMap<ComponentId, HashSet<StreamId>>,
    ) -> Result<Self, TopologyError> {
        if id.as_str().is_empty() {
            return Err(TopologyError::EmptyTopologyId);
        }

        let mut index = HashMap::new();
        for (i, c) in components.iter().enumerate() {
            if index.insert(c.id().clone(), i).is_some() {
                return Err(TopologyError::DuplicateComponent(c.id().clone()));
            }
        }

        if !components.iter().any(|c| c.is_spout()) {
            return Err(TopologyError::NoSpout);
        }

        let mut downstream: HashMap<ComponentId, Vec<(ComponentId, InputDeclaration)>> =
            HashMap::new();
        for c in &components {
            if c.is_spout() && !c.inputs().is_empty() {
                return Err(TopologyError::SpoutWithInput(c.id().clone()));
            }
            if !c.is_spout() && c.inputs().is_empty() {
                return Err(TopologyError::DisconnectedBolt(c.id().clone()));
            }
            for input in c.inputs() {
                if !index.contains_key(&input.from) {
                    return Err(TopologyError::UnknownComponent {
                        subscriber: c.id().clone(),
                        missing: input.from.clone(),
                    });
                }
                let streams = declared_streams
                    .get(&input.from)
                    .expect("every declared component has a stream set");
                if !streams.contains(&input.stream) {
                    return Err(TopologyError::UnknownStream {
                        subscriber: c.id().clone(),
                        from: input.from.clone(),
                        stream: input.stream.clone(),
                    });
                }
                downstream
                    .entry(input.from.clone())
                    .or_default()
                    .push((c.id().clone(), input.clone()));
            }
        }

        Ok(Self {
            id,
            components,
            num_workers,
            max_spout_pending,
            index,
            downstream,
            declared_streams,
            task_set: OnceLock::new(),
        })
    }

    /// The number of worker processes the topology asks for (Storm's
    /// `topology.workers`), if configured. Resource-oblivious schedulers
    /// such as the default even scheduler pack all executors into this
    /// many workers; R-Storm decides worker placement from resources and
    /// ignores the hint, as the production Resource Aware Scheduler does.
    pub fn num_workers(&self) -> Option<u32> {
        self.num_workers
    }

    /// The topology's `topology.max.spout.pending` setting, if configured:
    /// the maximum number of in-flight (un-acked) root batches per spout
    /// task, i.e. the backpressure window.
    pub fn max_spout_pending(&self) -> Option<u32> {
        self.max_spout_pending
    }

    /// The topology's identifier.
    pub fn id(&self) -> &TopologyId {
        &self.id
    }

    /// All components in declaration order.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Looks up a component by id.
    pub fn component(&self, id: &str) -> Option<&Component> {
        self.index.get(id).map(|&i| &self.components[i])
    }

    /// All spouts, in declaration order.
    pub fn spouts(&self) -> impl Iterator<Item = &Component> {
        self.components.iter().filter(|c| c.is_spout())
    }

    /// All bolts, in declaration order.
    pub fn bolts(&self) -> impl Iterator<Item = &Component> {
        self.components.iter().filter(|c| !c.is_spout())
    }

    /// Components with no downstream consumers — the "output bolts" whose
    /// processing rate defines topology throughput in the paper's
    /// evaluation (§6.2).
    pub fn sinks(&self) -> impl Iterator<Item = &Component> {
        self.components
            .iter()
            .filter(move |c| !self.downstream.contains_key(c.id()))
    }

    /// Consumers of any stream of `id`, with their subscriptions.
    /// Empty if `id` is a sink or unknown.
    pub fn consumers(&self, id: &str) -> &[(ComponentId, InputDeclaration)] {
        self.downstream.get(id).map_or(&[], Vec::as_slice)
    }

    /// Ids of the components directly downstream of `id` (deduplicated,
    /// in subscription order).
    pub fn downstream_ids(&self, id: &str) -> Vec<&ComponentId> {
        let mut seen = HashSet::new();
        self.consumers(id)
            .iter()
            .map(|(c, _)| c)
            .filter(|c| seen.insert(*c))
            .collect()
    }

    /// Ids of the components directly upstream of `id` (deduplicated, in
    /// subscription order).
    pub fn upstream_ids(&self, id: &str) -> Vec<&ComponentId> {
        let mut seen = HashSet::new();
        self.component(id).map_or_else(Vec::new, |c| {
            c.inputs()
                .iter()
                .map(|i| &i.from)
                .filter(|f| seen.insert(*f))
                .collect()
        })
    }

    /// Undirected neighbors of `id`: upstream and downstream components.
    /// This is the neighbor set the paper's BFS traversal (Algorithm 2)
    /// walks.
    pub fn neighbor_ids(&self, id: &str) -> Vec<&ComponentId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for c in self
            .upstream_ids(id)
            .into_iter()
            .chain(self.downstream_ids(id))
        {
            if seen.insert(c) {
                out.push(c);
            }
        }
        out
    }

    /// Streams declared by `id` (always includes `"default"`).
    pub fn declared_streams(&self, id: &str) -> Option<&HashSet<StreamId>> {
        self.declared_streams.get(id)
    }

    /// Total number of tasks across all components.
    pub fn total_tasks(&self) -> u32 {
        self.components.iter().map(Component::parallelism).sum()
    }

    /// Sum of per-task resource demands over all tasks of all components.
    pub fn total_resources(&self) -> ResourceRequest {
        self.components
            .iter()
            .map(Component::total_resources)
            .fold(ResourceRequest::zero(), |acc, r| acc.saturating_add(&r))
    }

    /// The task set of this topology (dense task ids in component
    /// declaration order), instantiated on the first call and shared by
    /// every later one.
    pub fn task_set(&self) -> &TaskSet {
        self.task_set.get_or_init(|| TaskSet::instantiate(self))
    }

    /// Returns true if the component graph (directed) contains a cycle.
    pub fn has_cycle(&self) -> bool {
        // Iterative DFS with colors: 0 = white, 1 = gray, 2 = black.
        let mut color = vec![0u8; self.components.len()];
        for start in 0..self.components.len() {
            if color[start] != 0 {
                continue;
            }
            // Stack of (index, next-child cursor).
            let mut stack = vec![(start, 0usize)];
            color[start] = 1;
            while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
                let id = self.components[node].id().clone();
                let consumers = self.consumers(id.as_str());
                if *cursor < consumers.len() {
                    let (next_id, _) = &consumers[*cursor];
                    *cursor += 1;
                    let next = self.index[next_id];
                    match color[next] {
                        0 => {
                            color[next] = 1;
                            stack.push((next, 0));
                        }
                        1 => return true,
                        _ => {}
                    }
                } else {
                    color[node] = 2;
                    stack.pop();
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;
    use crate::grouping::StreamGrouping;

    fn diamond() -> Topology {
        let mut b = TopologyBuilder::new("diamond");
        b.set_spout("src", 2);
        b.set_bolt("left", 2).shuffle_grouping("src");
        b.set_bolt("right", 2).shuffle_grouping("src");
        b.set_bolt("join", 1)
            .shuffle_grouping("left")
            .shuffle_grouping("right");
        b.build().unwrap()
    }

    #[test]
    fn lookup_and_iteration() {
        let t = diamond();
        assert_eq!(t.id().as_str(), "diamond");
        assert_eq!(t.components().len(), 4);
        assert!(t.component("left").is_some());
        assert!(t.component("missing").is_none());
        assert_eq!(t.spouts().count(), 1);
        assert_eq!(t.bolts().count(), 3);
    }

    #[test]
    fn sinks_are_components_without_consumers() {
        let t = diamond();
        let sinks: Vec<_> = t.sinks().map(|c| c.id().as_str().to_owned()).collect();
        assert_eq!(sinks, vec!["join"]);
    }

    #[test]
    fn adjacency_is_consistent() {
        let t = diamond();
        let down: Vec<_> = t.downstream_ids("src").iter().map(|c| c.as_str()).collect();
        assert_eq!(down, vec!["left", "right"]);
        let up: Vec<_> = t.upstream_ids("join").iter().map(|c| c.as_str()).collect();
        assert_eq!(up, vec!["left", "right"]);
        let n: Vec<_> = t.neighbor_ids("left").iter().map(|c| c.as_str()).collect();
        assert_eq!(n, vec!["src", "join"]);
    }

    #[test]
    fn totals() {
        let t = diamond();
        assert_eq!(t.total_tasks(), 7);
        let r = t.total_resources();
        assert_eq!(r.cpu_points, 7.0 * ResourceRequest::DEFAULT_CPU_POINTS);
        assert_eq!(r.memory_mb, 7.0 * ResourceRequest::DEFAULT_MEMORY_MB);
    }

    #[test]
    fn task_set_is_built_once_and_survives_clone() {
        let t = diamond();
        let debug_before = format!("{t:?}");
        let first = t.task_set();
        assert!(std::ptr::eq(first, t.task_set()), "cached, not rebuilt");
        assert_eq!(first.len(), 7);
        let cloned = t.clone();
        assert_eq!(cloned.task_set(), first);
        assert_eq!(cloned.task_set(), &TaskSet::instantiate(&t));
        // Debug output does not depend on whether the cache is filled.
        assert_eq!(format!("{t:?}"), debug_before);
    }

    #[test]
    fn acyclic_graph_has_no_cycle() {
        assert!(!diamond().has_cycle());
    }

    #[test]
    fn cycle_detected() {
        let mut b = TopologyBuilder::new("cyclic");
        b.set_spout("src", 1);
        b.set_bolt("a", 1)
            .shuffle_grouping("src")
            .shuffle_grouping("b");
        b.set_bolt("b", 1).shuffle_grouping("a");
        let t = b.build().unwrap();
        assert!(t.has_cycle());
    }

    #[test]
    fn unknown_subscription_rejected() {
        let mut b = TopologyBuilder::new("bad");
        b.set_spout("src", 1);
        b.set_bolt("b", 1).shuffle_grouping("ghost");
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::UnknownComponent {
                subscriber: ComponentId::new("b"),
                missing: ComponentId::new("ghost"),
            }
        );
    }

    #[test]
    fn named_stream_subscription_checked() {
        let mut b = TopologyBuilder::new("named");
        b.set_spout("src", 1).declare_stream("errors");
        b.set_bolt("ok", 1)
            .grouping_on_stream("src", "errors", StreamGrouping::Shuffle);
        assert!(b.build().is_ok());

        let mut b = TopologyBuilder::new("named-bad");
        b.set_spout("src", 1);
        b.set_bolt("b", 1)
            .grouping_on_stream("src", "errors", StreamGrouping::Shuffle);
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::UnknownStream { .. }
        ));
    }

    #[test]
    fn spout_required() {
        let mut b = TopologyBuilder::new("no-spout");
        b.set_bolt("lonely", 1).shuffle_grouping("lonely");
        assert!(matches!(
            b.build().unwrap_err(),
            // `lonely` subscribing to itself: the bolt exists, so the
            // missing-spout check fires first or the self-edge is fine
            // structurally; either way the build fails.
            TopologyError::NoSpout | TopologyError::UnknownComponent { .. }
        ));
    }

    #[test]
    fn disconnected_bolt_rejected() {
        let mut b = TopologyBuilder::new("disc");
        b.set_spout("src", 1);
        b.set_bolt("island", 1);
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::DisconnectedBolt(ComponentId::new("island"))
        );
    }
}
