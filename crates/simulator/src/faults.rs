//! Deterministic fault injection for the simulator.
//!
//! A [`FaultPlan`] is an explicit list of timed events — node crashes,
//! node recoveries, link degradations — that the fast engine injects into
//! its event queue alongside the workload's own events. The plan is plain
//! data: replaying the same plan against the same [`crate::SimConfig`]
//! (in particular the same seed) reproduces the run bit-for-bit, which is
//! what lets chaos scenarios be golden-tested like any other simulation.
//!
//! Crash semantics (see `crate::sim` for the implementation):
//!
//! * batches queued at, in flight toward, or being processed on a crashed
//!   node are **lost** — their tuple trees can no longer complete and
//!   fail through the ordinary tuple-timeout path, counted in
//!   [`crate::SimTotals::tuples_lost`];
//! * spouts on a crashed node stop emitting until the node recovers;
//! * while a link degradation is active, every same-rack and inter-rack
//!   transfer pays the extra latency on arrival.
//!
//! An **empty** plan leaves the engine's arithmetic untouched, so the
//! fast/reference parity guarantee is unchanged for fault-free runs.
//!
//! ## The fault vocabulary
//!
//! Beyond single crashes, plans compose richer failure shapes from the
//! same primitives:
//!
//! * [`FaultPlan::partition_rack`] isolates a whole rack for a window —
//!   every **inter-rack** transfer to or from the rack is dropped at send
//!   time, as if the far endpoint had crashed (intra-rack and local
//!   traffic keeps flowing). Control-plane harnesses model the matching
//!   heartbeat silence (see `crate::chaos::run_scenario`).
//! * [`FaultPlan::flap_storm`] expands into an alternating crash/recover
//!   train on one node — the scenario the recovery plane's trust
//!   hysteresis and churn limiter exist for.
//! * [`FaultPlan::crash_burst`] crashes a set of nodes at the same
//!   instant and recovers them together — correlated loss (a PDU or
//!   top-of-rack switch dying).
//! * [`FaultPlan::nimbus_crash`] and
//!   [`FaultPlan::lose_control_channel`] are **control-plane** atoms:
//!   the data-plane engine ignores them, while the control-plane
//!   harnesses in `crate::chaos` silence detection/rescheduling for the
//!   outage (Nimbus down, failing over to a successor on return) or
//!   drop heartbeat observations (channel loss, provoking false
//!   declarations).
//!
//! Plans round-trip through a line-oriented text form
//! ([`FaultPlan::to_text`] / [`FaultPlan::from_text`]) so the fuzz
//! plane's regression corpus under `tests/fuzz_corpus/` stays readable
//! and diffable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;

/// One timed fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The node's worker processes die at `at_ms`.
    NodeCrash {
        /// Simulation time of the crash in milliseconds.
        at_ms: f64,
        /// Cluster node id.
        node: String,
    },
    /// The node's workers come back at `at_ms` (spouts resume; bolts
    /// accept deliveries again).
    NodeRecover {
        /// Simulation time of the recovery in milliseconds.
        at_ms: f64,
        /// Cluster node id.
        node: String,
    },
    /// Every same-rack and inter-rack transfer arriving in
    /// `[at_ms, until_ms)` pays `extra_latency_ms` on top of its route
    /// latency.
    LinkDegrade {
        /// Start of the degradation window in milliseconds.
        at_ms: f64,
        /// End of the degradation window in milliseconds.
        until_ms: f64,
        /// Additional per-transfer latency in milliseconds.
        extra_latency_ms: f64,
    },
    /// The rack is network-partitioned during `[at_ms, until_ms)`: every
    /// inter-rack transfer whose producer or consumer lives in `rack` is
    /// dropped at send time, exactly as if the destination had crashed
    /// (the tuple tree fails through the timeout path). Intra-rack and
    /// local traffic is unaffected, and transfers already in flight when
    /// the partition starts still arrive.
    RackPartition {
        /// Start of the partition window in milliseconds.
        at_ms: f64,
        /// End of the partition window in milliseconds.
        until_ms: f64,
        /// Cluster rack id.
        rack: String,
    },
    /// The control plane (Nimbus) is down during
    /// `[at_ms, at_ms + down_ms)`: no heartbeat is observed, no failure
    /// detected, no reschedule or recovery upgrade fires — while the
    /// data plane keeps running. At the first control tick after the
    /// window a successor reassumes, replaying the write-ahead journal
    /// when `RecoveryConfig::journal` is enabled and starting cold
    /// otherwise (see `rstorm_core::RecoveryManager::reassume`). A pure
    /// control-plane event: the data-plane engine ignores it.
    NimbusCrash {
        /// Start of the control outage in milliseconds.
        at_ms: f64,
        /// Length of the control outage in milliseconds.
        down_ms: f64,
    },
    /// The control channel drops every worker heartbeat during
    /// `[at_ms, until_ms)`: Nimbus stays up and keeps ticking, but no
    /// beat reaches it, so nodes *look* silent — a window longer than
    /// the detection window provokes false dead declarations the trust
    /// hysteresis must walk back once the channel heals. A pure
    /// control-plane event: the data-plane engine ignores it.
    ControlLoss {
        /// Start of the loss window in milliseconds.
        at_ms: f64,
        /// End of the loss window in milliseconds.
        until_ms: f64,
    },
}

impl FaultEvent {
    pub(crate) fn at_ms(&self) -> f64 {
        match self {
            Self::NodeCrash { at_ms, .. }
            | Self::NodeRecover { at_ms, .. }
            | Self::LinkDegrade { at_ms, .. }
            | Self::RackPartition { at_ms, .. }
            | Self::NimbusCrash { at_ms, .. }
            | Self::ControlLoss { at_ms, .. } => *at_ms,
        }
    }
}

/// A deterministic schedule of fault events (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults; the engine behaves exactly as without
    /// fault support).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node crash at `at_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `at_ms` is not a finite non-negative time.
    pub fn crash_node(mut self, at_ms: f64, node: impl Into<String>) -> Self {
        assert!(at_ms.is_finite() && at_ms >= 0.0, "invalid fault time");
        self.events.push(FaultEvent::NodeCrash {
            at_ms,
            node: node.into(),
        });
        self
    }

    /// Adds a node recovery at `at_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `at_ms` is not a finite non-negative time.
    pub fn recover_node(mut self, at_ms: f64, node: impl Into<String>) -> Self {
        assert!(at_ms.is_finite() && at_ms >= 0.0, "invalid fault time");
        self.events.push(FaultEvent::NodeRecover {
            at_ms,
            node: node.into(),
        });
        self
    }

    /// Adds a link-degradation window `[at_ms, until_ms)` during which
    /// every non-local transfer pays `extra_latency_ms` extra.
    ///
    /// # Panics
    ///
    /// Panics on non-finite times, `until_ms <= at_ms`, or negative
    /// extra latency.
    pub fn degrade_links(mut self, at_ms: f64, until_ms: f64, extra_latency_ms: f64) -> Self {
        assert!(at_ms.is_finite() && at_ms >= 0.0, "invalid fault time");
        assert!(
            until_ms.is_finite() && until_ms > at_ms,
            "degradation window must end after it starts"
        );
        assert!(
            extra_latency_ms.is_finite() && extra_latency_ms >= 0.0,
            "extra latency must be a finite non-negative delay"
        );
        self.events.push(FaultEvent::LinkDegrade {
            at_ms,
            until_ms,
            extra_latency_ms,
        });
        self
    }

    /// Adds a rack partition over `[at_ms, until_ms)`: inter-rack
    /// transfers to or from `rack` are dropped at send time while the
    /// window is active (see [`FaultEvent::RackPartition`]).
    ///
    /// # Panics
    ///
    /// Panics on non-finite times or `until_ms <= at_ms`.
    pub fn partition_rack(mut self, at_ms: f64, until_ms: f64, rack: impl Into<String>) -> Self {
        assert!(at_ms.is_finite() && at_ms >= 0.0, "invalid fault time");
        assert!(
            until_ms.is_finite() && until_ms > at_ms,
            "partition window must end after it starts"
        );
        self.events.push(FaultEvent::RackPartition {
            at_ms,
            until_ms,
            rack: rack.into(),
        });
        self
    }

    /// Adds a control-plane (Nimbus) outage over
    /// `[at_ms, at_ms + down_ms)` — see [`FaultEvent::NimbusCrash`].
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or negative start time, or a non-finite
    /// or non-positive duration.
    pub fn nimbus_crash(mut self, at_ms: f64, down_ms: f64) -> Self {
        assert!(at_ms.is_finite() && at_ms >= 0.0, "invalid fault time");
        assert!(
            down_ms.is_finite() && down_ms > 0.0,
            "control outage must last a positive duration"
        );
        self.events.push(FaultEvent::NimbusCrash { at_ms, down_ms });
        self
    }

    /// Adds a control-channel loss window `[at_ms, until_ms)` during
    /// which no worker heartbeat reaches Nimbus — see
    /// [`FaultEvent::ControlLoss`].
    ///
    /// # Panics
    ///
    /// Panics on non-finite times or `until_ms <= at_ms`.
    pub fn lose_control_channel(mut self, at_ms: f64, until_ms: f64) -> Self {
        assert!(at_ms.is_finite() && at_ms >= 0.0, "invalid fault time");
        assert!(
            until_ms.is_finite() && until_ms > at_ms,
            "control-loss window must end after it starts"
        );
        self.events
            .push(FaultEvent::ControlLoss { at_ms, until_ms });
        self
    }

    /// Adds a **flap storm**: `flaps` crash/recover cycles on `node`,
    /// the first crash at `first_at_ms`, each outage lasting `down_ms`
    /// and each recovery holding for `up_ms` before the next crash.
    /// Composed entirely from [`FaultEvent::NodeCrash`] /
    /// [`FaultEvent::NodeRecover`], so the engine needs no new
    /// machinery — the point is to stress the control plane's trust
    /// hysteresis and reschedule-churn limiter.
    ///
    /// # Panics
    ///
    /// Panics unless `flaps >= 1` and both durations are finite and
    /// positive.
    pub fn flap_storm(
        mut self,
        first_at_ms: f64,
        node: impl Into<String>,
        flaps: u32,
        down_ms: f64,
        up_ms: f64,
    ) -> Self {
        assert!(flaps >= 1, "a flap storm needs at least one cycle");
        assert!(
            down_ms.is_finite() && down_ms > 0.0 && up_ms.is_finite() && up_ms > 0.0,
            "flap durations must be finite and positive"
        );
        let node = node.into();
        let mut t = first_at_ms;
        for _ in 0..flaps {
            self = self
                .crash_node(t, node.clone())
                .recover_node(t + down_ms, node.clone());
            t += down_ms + up_ms;
        }
        self
    }

    /// Adds a **correlated crash burst**: every node in `nodes` crashes
    /// at `at_ms` and recovers together `outage_ms` later (a PDU or
    /// top-of-rack switch failure).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or `outage_ms` is not finite positive.
    pub fn crash_burst<S: AsRef<str>>(mut self, at_ms: f64, nodes: &[S], outage_ms: f64) -> Self {
        assert!(!nodes.is_empty(), "a crash burst needs at least one node");
        assert!(
            outage_ms.is_finite() && outage_ms > 0.0,
            "outage must last a positive duration"
        );
        for node in nodes {
            self = self.crash_node(at_ms, node.as_ref());
        }
        for node in nodes {
            self = self.recover_node(at_ms + outage_ms, node.as_ref());
        }
        self
    }

    /// Generates a crash/recover sequence deterministically from `seed`:
    /// `count` crashes against nodes drawn uniformly from `nodes`, at
    /// times uniform over `[start_ms, end_ms)`, each recovering
    /// `outage_ms` later. The same arguments always produce the same
    /// plan.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or the time window is invalid.
    pub fn seeded_crashes(
        seed: u64,
        nodes: &[&str],
        count: usize,
        start_ms: f64,
        end_ms: f64,
        outage_ms: f64,
    ) -> Self {
        assert!(!nodes.is_empty(), "need at least one node to crash");
        assert!(
            start_ms.is_finite() && start_ms >= 0.0 && end_ms > start_ms,
            "invalid crash window"
        );
        assert!(
            outage_ms.is_finite() && outage_ms > 0.0,
            "outage must last a positive duration"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = Self::new();
        for _ in 0..count {
            let node = nodes[rng.gen_range(0..nodes.len())];
            let at = rng.gen_range(start_ms..end_ms);
            plan = plan.crash_node(at, node).recover_node(at + outage_ms, node);
        }
        plan
    }

    /// The events in insertion order. The engine orders them by time
    /// (ties by insertion order) when it schedules them.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Rebuilds a plan from an explicit event vector — the shrinker's
    /// constructor. Events are taken as-is (they were validated when the
    /// parent plan was built, and the shrinker only drops events or
    /// tightens already-valid windows).
    pub(crate) fn from_event_vec(events: Vec<FaultEvent>) -> Self {
        Self { events }
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The earliest event time, if any (useful for harnesses aligning
    /// measurement windows with the first fault).
    pub fn first_event_ms(&self) -> Option<f64> {
        self.events
            .iter()
            .map(FaultEvent::at_ms)
            .min_by(|a, b| a.partial_cmp(b).expect("fault times are finite"))
    }

    /// Per-node outage windows `[crash, recover)` implied by the plan's
    /// crash/recover events, replaying them in engine order (time, ties
    /// by insertion) with the engine's idempotence — a crash while down
    /// or a recover while up is a no-op. An unhealed crash yields a
    /// window ending at `f64::INFINITY`.
    pub fn node_down_windows(&self) -> BTreeMap<&str, Vec<(f64, f64)>> {
        let mut ordered: Vec<(f64, usize)> = self
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                matches!(
                    e,
                    FaultEvent::NodeCrash { .. } | FaultEvent::NodeRecover { .. }
                )
            })
            .map(|(i, e)| (e.at_ms(), i))
            .collect();
        ordered.sort_by(|a, b| a.partial_cmp(b).expect("fault times are finite"));
        let mut windows: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
        let mut open: BTreeMap<&str, f64> = BTreeMap::new();
        for (at, i) in ordered {
            match &self.events[i] {
                FaultEvent::NodeCrash { node, .. } => {
                    open.entry(node.as_str()).or_insert(at);
                }
                FaultEvent::NodeRecover { node, .. } => {
                    if let Some(start) = open.remove(node.as_str()) {
                        windows.entry(node.as_str()).or_default().push((start, at));
                    }
                }
                _ => unreachable!("filtered to crash/recover above"),
            }
        }
        for (node, start) in open {
            windows
                .entry(node)
                .or_default()
                .push((start, f64::INFINITY));
        }
        windows
    }

    /// Control-plane outage windows `[at, at + down)` in insertion
    /// order.
    pub fn nimbus_down_windows(&self) -> Vec<(f64, f64)> {
        self.events
            .iter()
            .filter_map(|ev| match ev {
                FaultEvent::NimbusCrash { at_ms, down_ms } => Some((*at_ms, *at_ms + *down_ms)),
                _ => None,
            })
            .collect()
    }

    /// Control-channel loss windows `[at, until)` in insertion order.
    pub fn control_loss_windows(&self) -> Vec<(f64, f64)> {
        self.events
            .iter()
            .filter_map(|ev| match ev {
                FaultEvent::ControlLoss { at_ms, until_ms } => Some((*at_ms, *until_ms)),
                _ => None,
            })
            .collect()
    }

    /// True when the plan carries any control-plane event (Nimbus crash
    /// or control-channel loss).
    pub fn has_control_faults(&self) -> bool {
        self.events.iter().any(|ev| {
            matches!(
                ev,
                FaultEvent::NimbusCrash { .. } | FaultEvent::ControlLoss { .. }
            )
        })
    }

    /// Per-rack partition windows `[at, until)` in insertion order.
    pub fn rack_partition_windows(&self) -> BTreeMap<&str, Vec<(f64, f64)>> {
        let mut windows: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
        for ev in &self.events {
            if let FaultEvent::RackPartition {
                at_ms,
                until_ms,
                rack,
            } = ev
            {
                windows
                    .entry(rack.as_str())
                    .or_default()
                    .push((*at_ms, *until_ms));
            }
        }
        windows
    }

    /// Serializes the plan as one event per line — the regression-corpus
    /// format (`crash <at> <node>`, `recover <at> <node>`,
    /// `degrade <at> <until> <extra>`, `partition <at> <until> <rack>`,
    /// `nimbus <at> <down>`, `ctrl-loss <at> <until>`), with
    /// shortest-roundtrip floats so the text is byte-deterministic and
    /// [`FaultPlan::from_text`] reproduces the plan exactly.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            match ev {
                FaultEvent::NodeCrash { at_ms, node } => {
                    out.push_str(&format!("crash {at_ms:?} {node}\n"));
                }
                FaultEvent::NodeRecover { at_ms, node } => {
                    out.push_str(&format!("recover {at_ms:?} {node}\n"));
                }
                FaultEvent::LinkDegrade {
                    at_ms,
                    until_ms,
                    extra_latency_ms,
                } => {
                    out.push_str(&format!(
                        "degrade {at_ms:?} {until_ms:?} {extra_latency_ms:?}\n"
                    ));
                }
                FaultEvent::RackPartition {
                    at_ms,
                    until_ms,
                    rack,
                } => {
                    out.push_str(&format!("partition {at_ms:?} {until_ms:?} {rack}\n"));
                }
                FaultEvent::NimbusCrash { at_ms, down_ms } => {
                    out.push_str(&format!("nimbus {at_ms:?} {down_ms:?}\n"));
                }
                FaultEvent::ControlLoss { at_ms, until_ms } => {
                    out.push_str(&format!("ctrl-loss {at_ms:?} {until_ms:?}\n"));
                }
            }
        }
        out
    }

    /// Parses the [`FaultPlan::to_text`] format. Blank lines and lines
    /// starting with `#` are skipped, so corpus files can carry header
    /// comments.
    ///
    /// # Errors
    ///
    /// [`ParsePlanError`] names the offending 1-based line and what was
    /// wrong with it.
    pub fn from_text(text: &str) -> Result<Self, ParsePlanError> {
        let mut plan = Self::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut parts = trimmed.split_whitespace();
            let kind = parts.next().expect("non-empty after trim");
            let fields: Vec<&str> = parts.collect();
            let err = |message: String| ParsePlanError { line, message };
            let num = |raw: &str| -> Result<f64, ParsePlanError> {
                raw.parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| err(format!("`{raw}` is not a finite number")))
            };
            let time = |raw: &str| -> Result<f64, ParsePlanError> {
                let v = num(raw)?;
                if v < 0.0 {
                    return Err(err(format!("time `{raw}` is negative")));
                }
                Ok(v)
            };
            match kind {
                "crash" | "recover" => {
                    let [at, node] = fields[..] else {
                        return Err(err(format!("`{kind}` takes <at_ms> <node>")));
                    };
                    let at = time(at)?;
                    plan = if kind == "crash" {
                        plan.crash_node(at, node)
                    } else {
                        plan.recover_node(at, node)
                    };
                }
                "degrade" => {
                    let [at, until, extra] = fields[..] else {
                        return Err(err("`degrade` takes <at_ms> <until_ms> <extra_ms>".into()));
                    };
                    let (at, until, extra) = (time(at)?, time(until)?, time(extra)?);
                    if until <= at {
                        return Err(err("degradation window must end after it starts".into()));
                    }
                    plan = plan.degrade_links(at, until, extra);
                }
                "partition" => {
                    let [at, until, rack] = fields[..] else {
                        return Err(err("`partition` takes <at_ms> <until_ms> <rack>".into()));
                    };
                    let (at, until) = (time(at)?, time(until)?);
                    if until <= at {
                        return Err(err("partition window must end after it starts".into()));
                    }
                    plan = plan.partition_rack(at, until, rack);
                }
                "nimbus" => {
                    let [at, down] = fields[..] else {
                        return Err(err("`nimbus` takes <at_ms> <down_ms>".into()));
                    };
                    let (at, down) = (time(at)?, num(down)?);
                    if down <= 0.0 {
                        return Err(err("control outage must last a positive duration".into()));
                    }
                    plan = plan.nimbus_crash(at, down);
                }
                "ctrl-loss" => {
                    let [at, until] = fields[..] else {
                        return Err(err("`ctrl-loss` takes <at_ms> <until_ms>".into()));
                    };
                    let (at, until) = (time(at)?, time(until)?);
                    if until <= at {
                        return Err(err("control-loss window must end after it starts".into()));
                    }
                    plan = plan.lose_control_channel(at, until);
                }
                other => return Err(err(format!("unknown event kind `{other}`"))),
            }
        }
        Ok(plan)
    }
}

/// Why a textual fault plan was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePlanError {
    /// 1-based line of the offending event.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for ParsePlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParsePlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_events() {
        let plan = FaultPlan::new()
            .crash_node(1_000.0, "n0")
            .recover_node(5_000.0, "n0")
            .degrade_links(2_000.0, 3_000.0, 4.0);
        assert_eq!(plan.events().len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.first_event_ms(), Some(1_000.0));
        assert_eq!(
            plan.events()[0],
            FaultEvent::NodeCrash {
                at_ms: 1_000.0,
                node: "n0".to_owned()
            }
        );
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let nodes = ["a", "b", "c"];
        let p1 = FaultPlan::seeded_crashes(7, &nodes, 4, 1_000.0, 50_000.0, 5_000.0);
        let p2 = FaultPlan::seeded_crashes(7, &nodes, 4, 1_000.0, 50_000.0, 5_000.0);
        assert_eq!(p1, p2);
        assert_eq!(p1.events().len(), 8, "each crash pairs with a recovery");
        let p3 = FaultPlan::seeded_crashes(8, &nodes, 4, 1_000.0, 50_000.0, 5_000.0);
        assert_ne!(p1, p3, "different seeds draw different schedules");
    }

    #[test]
    #[should_panic(expected = "window must end after")]
    fn inverted_degrade_window_rejected() {
        let _ = FaultPlan::new().degrade_links(5.0, 5.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid fault time")]
    fn negative_crash_time_rejected() {
        let _ = FaultPlan::new().crash_node(-1.0, "n");
    }

    #[test]
    fn flap_storm_expands_to_alternating_pairs() {
        let plan = FaultPlan::new().flap_storm(1_000.0, "n0", 3, 500.0, 1_500.0);
        assert_eq!(plan.events().len(), 6);
        let windows = plan.node_down_windows();
        assert_eq!(
            windows["n0"],
            vec![(1_000.0, 1_500.0), (3_000.0, 3_500.0), (5_000.0, 5_500.0)]
        );
    }

    #[test]
    fn crash_burst_is_correlated() {
        let plan = FaultPlan::new().crash_burst(2_000.0, &["a", "b"], 1_000.0);
        let windows = plan.node_down_windows();
        assert_eq!(windows["a"], vec![(2_000.0, 3_000.0)]);
        assert_eq!(windows["b"], vec![(2_000.0, 3_000.0)]);
    }

    #[test]
    fn unhealed_crash_window_is_open_ended() {
        let plan = FaultPlan::new()
            .crash_node(1_000.0, "n0")
            .crash_node(4_000.0, "n0") // idempotent: already down
            .recover_node(500.0, "n1"); // idempotent: never crashed
        let windows = plan.node_down_windows();
        assert_eq!(windows["n0"], vec![(1_000.0, f64::INFINITY)]);
        assert!(!windows.contains_key("n1"));
    }

    #[test]
    fn partition_windows_are_tracked_per_rack() {
        let plan = FaultPlan::new()
            .partition_rack(5_000.0, 9_000.0, "rack-0")
            .partition_rack(20_000.0, 21_000.0, "rack-0")
            .partition_rack(1_000.0, 2_000.0, "rack-1");
        let windows = plan.rack_partition_windows();
        assert_eq!(
            windows["rack-0"],
            vec![(5_000.0, 9_000.0), (20_000.0, 21_000.0)]
        );
        assert_eq!(windows["rack-1"], vec![(1_000.0, 2_000.0)]);
        assert_eq!(plan.first_event_ms(), Some(1_000.0));
    }

    #[test]
    #[should_panic(expected = "partition window must end after")]
    fn inverted_partition_window_rejected() {
        let _ = FaultPlan::new().partition_rack(5.0, 5.0, "r");
    }

    #[test]
    fn text_round_trip_is_exact() {
        let plan = FaultPlan::new()
            .crash_node(1_000.5, "node-3")
            .recover_node(5_000.0, "node-3")
            .degrade_links(2_000.0, 3_000.0, 4.25)
            .partition_rack(10_000.0, 12_000.0, "rack-1")
            .nimbus_crash(15_000.0, 6_000.0)
            .lose_control_channel(25_000.0, 28_500.0);
        let text = plan.to_text();
        let parsed = FaultPlan::from_text(&text).unwrap();
        assert_eq!(parsed, plan);
        assert_eq!(parsed.to_text(), text, "serialization is a fixpoint");
    }

    #[test]
    fn control_plane_windows_are_tracked() {
        let plan = FaultPlan::new()
            .nimbus_crash(10_000.0, 5_000.0)
            .nimbus_crash(30_000.0, 2_000.0)
            .lose_control_channel(40_000.0, 44_000.0);
        assert!(plan.has_control_faults());
        assert_eq!(
            plan.nimbus_down_windows(),
            vec![(10_000.0, 15_000.0), (30_000.0, 32_000.0)]
        );
        assert_eq!(plan.control_loss_windows(), vec![(40_000.0, 44_000.0)]);
        // Control-plane atoms never register as data-plane outages.
        assert!(plan.node_down_windows().is_empty());
        let data_only = FaultPlan::new().crash_node(1.0, "n0");
        assert!(!data_only.has_control_faults());
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_length_nimbus_outage_rejected() {
        let _ = FaultPlan::new().nimbus_crash(5.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "control-loss window must end after")]
    fn inverted_control_loss_window_rejected() {
        let _ = FaultPlan::new().lose_control_channel(5.0, 5.0);
    }

    #[test]
    fn text_parser_rejects_bad_control_events() {
        let err = FaultPlan::from_text("nimbus 10 0").unwrap_err();
        assert!(err.to_string().contains("positive duration"), "{err}");
        let err = FaultPlan::from_text("ctrl-loss 9 4").unwrap_err();
        assert!(err.to_string().contains("end after"), "{err}");
        let err = FaultPlan::from_text("nimbus 10").unwrap_err();
        assert!(err.to_string().contains("takes <at_ms> <down_ms>"), "{err}");
    }

    #[test]
    fn text_parser_skips_comments_and_rejects_garbage() {
        let ok = FaultPlan::from_text("# header\n\ncrash 10 n0\n").unwrap();
        assert_eq!(ok.events().len(), 1);
        let err = FaultPlan::from_text("crash ten n0").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("not a finite number"));
        let err = FaultPlan::from_text("crash 10 n0\nexplode 5 n1").unwrap_err();
        assert_eq!(err.line, 2);
        let err = FaultPlan::from_text("partition 9 4 r0").unwrap_err();
        assert!(err.to_string().contains("end after"), "{err}");
        let err = FaultPlan::from_text("crash -4 n0").unwrap_err();
        assert!(err.to_string().contains("negative"), "{err}");
    }
}
