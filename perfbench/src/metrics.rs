//! The metric tables and the derivation of per-layer metrics from the
//! traced run's spans and the program's counters.

use crate::checks::Checks;
use crate::trace::Tracer;
use rstorm_sim::SimReport;
use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`; checked against `BENCHMARK.json` by the
    /// tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Metrics of a `--trace 0` run.
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("rstorm_gain", "ratio", "higher"),
    m("zero_loss_ratio", "ratio", "higher"),
    m("pass_ratio", "ratio", "higher"),
];

/// Fault labels of the `faults` workload, in grid order.
pub const FAULT_LABELS: [&str; 6] = [
    "healthy",
    "crash_recover",
    "partition",
    "flap",
    "congestion",
    "nimbus_outage",
];

/// Metrics of a `--trace 1` run.
pub const PER_LAYER: &[Metric] = &[
    m("spec.parse_ms", "ms", "lower"),
    m("sched.ms", "ms", "lower"),
    m("sched.verify_violations", "count", "lower"),
    m("adaptive.plan_ms", "ms", "lower"),
    m("adaptive.migrations", "count", "lower"),
    m("build.ms", "ms", "lower"),
    m("build.route_entries", "count", "lower"),
    m("run.ms", "ms", "lower"),
    m("run.events", "count", "lower"),
    m("run.ns_per_event", "ns", "lower"),
    m("run.churn_ms", "ms", "lower"),
    m("run.batches_dropped", "count", "lower"),
    m("slab.pool_hit_ratio", "ratio", "higher"),
    m("slab.max_live_roots", "count", "lower"),
    m("net.ns_per_event", "ns", "lower"),
    m("net.saturated_windows", "count", "lower"),
    m("net.mb_carried", "MB", "higher"),
    m("job.healthy_ms", "ms", "lower"),
    m("job.crash_recover_ms", "ms", "lower"),
    m("job.partition_ms", "ms", "lower"),
    m("job.flap_ms", "ms", "lower"),
    m("job.congestion_ms", "ms", "lower"),
    m("job.nimbus_outage_ms", "ms", "lower"),
    m("recovery.reschedule_attempts", "count", "lower"),
    m("recovery.suppressed_flaps", "count", "higher"),
    m("control.decisions_replayed", "count", "lower"),
    m("replay.roots_replayed", "count", "lower"),
    m("replay.roots_quarantined", "count", "lower"),
    m("report.ms", "ms", "lower"),
    m("sweep.aggregate_ms", "ms", "lower"),
    m("sweep.parallel_efficiency", "ratio", "higher"),
    m("trace.overhead_s", "s", "lower"),
    m("trace.coverage", "ratio", "higher"),
    m("error_ratio", "ratio", "lower"),
];

/// Counters read from the program's reports during the traced run:
/// summed counters and high-water marks.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    maxes: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    /// Raises high-water mark `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.maxes.entry(name).or_default();
        *e = e.max(v);
    }

    /// Folds a worker thread's counters in.
    pub fn merge(&mut self, other: Layers) {
        for (name, v) in other.sums {
            self.add(name, v);
        }
        for (name, v) in other.maxes {
            self.max(name, v);
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.sums
            .get(name)
            .or_else(|| self.maxes.get(name))
            .copied()
            .unwrap_or(0.0)
    }
}

/// Reads a report's cost counters into `layers`; its event count goes
/// to `events`, so engine runs on different paths stay apart.
pub fn record_report(layers: &mut Layers, report: &SimReport, events: &'static str) {
    let d = &report.debug;
    layers.add(events, d.events as f64);
    layers.add("slab.pool_hits", d.root_pool_hits as f64);
    layers.add("slab.pool_misses", d.root_pool_misses as f64);
    layers.max("slab.max_live_roots", d.max_live_roots as f64);
    layers.add("build.route_entries", d.route_entries as f64);
    let t = &report.totals;
    layers.add("run.batches_dropped", t.batches_dropped as f64);
    layers.add("replay.roots_replayed", t.roots_replayed as f64);
    layers.add("replay.roots_quarantined", t.roots_quarantined as f64);
    if let Some(r) = &report.recovery {
        layers.add("recovery.reschedule_attempts", r.reschedule_attempts as f64);
        layers.add("recovery.suppressed_flaps", r.suppressed_flaps as f64);
    }
    if let Some(n) = &report.network {
        for link in &n.links {
            layers.add("net.saturated_windows", link.saturated_windows as f64);
            layers.add("net.mb_carried", link.mb_carried);
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced run. Layer times are the summed spans
/// of each layer call; `base_wall_s` and `traced_wall_s` are the wall
/// times of the untraced and traced repetitions, and `workers` the
/// threads each ran jobs on.
pub fn derive(
    tr: &Tracer,
    layers: &Layers,
    workers: usize,
    base_wall_s: f64,
    traced_wall_s: f64,
    checks: &Checks,
) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (metric, span) in [
        ("spec.parse_ms", "spec.parse"),
        ("sched.ms", "sched"),
        ("adaptive.plan_ms", "adaptive.plan"),
        ("build.ms", "build"),
        ("run.ms", "run"),
        ("run.churn_ms", "run.churn"),
        ("report.ms", "report"),
        ("sweep.aggregate_ms", "sweep.aggregate"),
    ] {
        out.insert(metric.to_owned(), tr.total_ms(span));
    }
    for label in FAULT_LABELS {
        out.insert(
            format!("job.{label}_ms"),
            tr.total_ms(&format!("job.{label}")),
        );
    }
    for counter in [
        "sched.verify_violations",
        "adaptive.migrations",
        "build.route_entries",
        "run.events",
        "run.batches_dropped",
        "slab.max_live_roots",
        "net.saturated_windows",
        "net.mb_carried",
        "recovery.reschedule_attempts",
        "recovery.suppressed_flaps",
        "control.decisions_replayed",
        "replay.roots_replayed",
        "replay.roots_quarantined",
    ] {
        out.insert(counter.to_owned(), layers.get(counter));
    }
    out.insert(
        "run.ns_per_event".to_owned(),
        ratio(out["run.ms"] * 1e6, layers.get("run.events")),
    );
    out.insert(
        "net.ns_per_event".to_owned(),
        ratio(out["job.congestion_ms"] * 1e6, layers.get("net.events")),
    );
    let hits = layers.get("slab.pool_hits");
    out.insert(
        "slab.pool_hit_ratio".to_owned(),
        ratio(hits, hits + layers.get("slab.pool_misses")),
    );
    let job_s: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.name == "job" || s.name.starts_with("job."))
        .fold(0.0, |total, s| total + s.ms() / 1e3);
    out.insert(
        "sweep.parallel_efficiency".to_owned(),
        ratio(job_s, workers as f64 * base_wall_s),
    );
    out.insert("trace.overhead_s".to_owned(), traced_wall_s - base_wall_s);
    out.insert(
        "trace.coverage".to_owned(),
        ratio(tr.leaf_ms() / 1e3, workers as f64 * traced_wall_s),
    );
    out.insert("error_ratio".to_owned(), checks.error_ratio());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `"name": "<value>"` entries of one array out of the
    /// benchmark's declaration file.
    fn declared(section: &str) -> Vec<(String, String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |entry: &str, key: &str| {
            let k = format!("\"{key}\": \"");
            let i = entry.find(&k).expect("key present") + k.len();
            entry[i..i + entry[i..].find('"').expect("value closes")].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    fn table(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
            .collect()
    }

    #[test]
    fn tables_match_the_declaration_file() {
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
    }

    #[test]
    fn every_per_layer_metric_is_derived() {
        let tr = Tracer::new(true);
        let out = derive(&tr, &Layers::default(), 1, 1.0, 1.0, &Checks::default());
        for m in PER_LAYER {
            assert!(out.contains_key(m.name), "{} not derived", m.name);
        }
        assert_eq!(out.len(), PER_LAYER.len());
    }
}
