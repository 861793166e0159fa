//! Task selection (Algorithm 3).
//!
//! The scheduler first orders *components* by a breadth-first traversal
//! from the spouts (Algorithm 2, implemented in `rstorm-topology`), then
//! builds the *task* ordering by repeatedly taking one task from each
//! component in that order until every task is taken. "Ordering tasks to
//! be scheduled in this fashion will ensure that tasks from adjacent
//! components will be scheduled as close together as possible" (§4.1.1).

use rstorm_topology::{TaskId, TaskSet, Topology, TraversalOrder};
use std::collections::VecDeque;

/// Produces the scheduling order of all tasks of `topology`.
///
/// `traversal` selects the component-ordering strategy; the paper's choice
/// is [`TraversalOrder::Bfs`].
pub fn task_ordering(
    topology: &Topology,
    task_set: &TaskSet,
    traversal: TraversalOrder,
) -> Vec<TaskId> {
    let components = traversal.order(topology);
    let mut queues: Vec<VecDeque<TaskId>> = components
        .iter()
        .map(|c| task_set.tasks_of(c.as_str()).iter().copied().collect())
        .collect();

    let total = task_set.len();
    let mut ordering = Vec::with_capacity(total);
    // Round-robin: one task per component per sweep (Algorithm 3 lines
    // 3-11), so consecutive ordering entries belong to adjacent
    // components.
    while ordering.len() < total {
        let mut progressed = false;
        for queue in &mut queues {
            if let Some(task) = queue.pop_front() {
                ordering.push(task);
                progressed = true;
            }
        }
        assert!(
            progressed,
            "task ordering stalled: task set and topology disagree"
        );
    }
    ordering
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_topology::TopologyBuilder;

    fn linear3() -> Topology {
        let mut b = TopologyBuilder::new("l");
        b.set_spout("a", 2);
        b.set_bolt("b", 2).shuffle_grouping("a");
        b.set_bolt("c", 2).shuffle_grouping("b");
        b.build().unwrap()
    }

    #[test]
    fn round_robin_interleaves_components() {
        let t = linear3();
        let ts = t.task_set();
        let order = task_ordering(&t, ts, TraversalOrder::Bfs);
        let names: Vec<String> = order
            .iter()
            .map(|id| ts.task(*id).unwrap().component.as_str().to_owned())
            .collect();
        // Sweep 1 takes one task of a, b, c; sweep 2 the remaining ones.
        assert_eq!(names, vec!["a", "b", "c", "a", "b", "c"]);
    }

    #[test]
    fn all_tasks_exactly_once() {
        let t = linear3();
        let ts = t.task_set();
        let order = task_ordering(&t, ts, TraversalOrder::Bfs);
        assert_eq!(order.len(), ts.len());
        let mut sorted: Vec<u32> = order.iter().map(|t| t.as_u32()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_parallelism_drains_long_components() {
        let mut b = TopologyBuilder::new("uneven");
        b.set_spout("s", 1);
        b.set_bolt("fat", 4).shuffle_grouping("s");
        let t = b.build().unwrap();
        let ts = t.task_set();
        let order = task_ordering(&t, ts, TraversalOrder::Bfs);
        let names: Vec<String> = order
            .iter()
            .map(|id| ts.task(*id).unwrap().component.as_str().to_owned())
            .collect();
        assert_eq!(names, vec!["s", "fat", "fat", "fat", "fat"]);
    }

    #[test]
    fn adjacent_components_are_near_in_ordering() {
        // For the paper's diamond: src, left, right, join interleave, so a
        // src task is never more than |components| positions away from a
        // join task within one sweep.
        let mut b = TopologyBuilder::new("diamond");
        b.set_spout("src", 3);
        b.set_bolt("left", 3).shuffle_grouping("src");
        b.set_bolt("right", 3).shuffle_grouping("src");
        b.set_bolt("join", 3)
            .shuffle_grouping("left")
            .shuffle_grouping("right");
        let t = b.build().unwrap();
        let ts = t.task_set();
        let order = task_ordering(&t, ts, TraversalOrder::Bfs);
        // Sweeps of 4: positions 0..4 are src,left,right,join etc.
        for sweep in 0..3 {
            let window: Vec<String> = order[sweep * 4..(sweep + 1) * 4]
                .iter()
                .map(|id| ts.task(*id).unwrap().component.as_str().to_owned())
                .collect();
            assert_eq!(window, vec!["src", "left", "right", "join"]);
        }
    }

    #[test]
    fn declaration_traversal_is_supported() {
        let t = linear3();
        let ts = t.task_set();
        let order = task_ordering(&t, ts, TraversalOrder::Declaration);
        assert_eq!(order.len(), 6);
    }
}
