//! The adaptive rebalance plane: closing the loop from observed runtime
//! statistics back into placement.
//!
//! R-Storm schedules once, from the *declared* `setCPULoad` /
//! `setMemoryLoad` hints, and the paper leaves "dynamic resource-aware
//! scheduling" as future work (§8). This module is that future work for
//! our reproduction: the first subsystem where the control plane reacts
//! to the data plane instead of only to crashes.
//!
//! Three cooperating pieces, each usable on its own:
//!
//! * [`ProfileRefiner`] — blends *observed* per-task CPU load (from the
//!   simulator's stats-export hook) with the *declared* load via an
//!   exponentially weighted moving average, yielding a refined
//!   [`ResourceRequest`](rstorm_topology::ResourceRequest) per component.
//! * [`DriftDetector`] — compares refined against declared loads and
//!   flags components whose declaration has drifted beyond a threshold,
//!   plus nodes that run saturated or starved.
//! * [`DeltaScheduler`] — turns a drift report into a **minimal-move**
//!   [`MigrationPlan`] against the live indexed
//!   [`GlobalState`](crate::GlobalState): only tasks of drifted
//!   components on saturated nodes move, only until the node's refined
//!   load fits its capacity, and every move is bookkept atomically
//!   through the existing [`UndoLog`](crate::UndoLog) machinery — a
//!   failed move rolls back bit-exactly, and zero drift yields an empty
//!   plan that leaves the state untouched. Moves are written into the
//!   committed assignment in place; the plan lists them, each with its
//!   destination worker slot.
//!
//! The simulator executes the resulting plan with an explicit
//! pause/drain/restore cost per moved task, so rebalance gains are
//! always measured *net* of the disruption they cause.

mod delta;
mod drift;
mod refiner;

pub use delta::{DeltaScheduler, MigrationMove, MigrationPlan};
pub use drift::{ComponentDrift, DriftConfig, DriftDetector, DriftReport};
pub use refiner::ProfileRefiner;
