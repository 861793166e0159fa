//! `paper`: the paper's evaluation set, fault-free on the legacy fabric.
//!
//! Fig 8's network-bound Linear, Diamond and Star topologies on the
//! Emulab micro cluster and the Yahoo PageLoad and Processing
//! topologies on the multi cluster, each scheduled by R-Storm and by the
//! default (even) scheduler: ten jobs, run one after another. Each job
//! is what `rstorm compare` does for one scheduler: parse the spec text,
//! schedule, build the simulation, run it and render the JSON report.
//! The event loop does nearly all the work here.

use crate::checks::{plan_problems, report_problems, Checks};
use crate::metrics::{record_report, Layers};
use crate::trace::Tracer;
use crate::{Rep, Workload};
use rstorm_cluster::Cluster;
use rstorm_core::{schedulers, Assignment, GlobalState};
use rstorm_sim::{SimConfig, SimReport, Simulation};
use rstorm_spec::{cluster_to_spec, parse_cluster, parse_topology, topology_to_spec};
use rstorm_topology::Topology;
use rstorm_workloads::cases::{fig8_cases, yahoo_cases};
use std::sync::Arc;
use std::time::Instant;

/// Simulated horizon of every job: the `quick` length, past warm-up.
pub const HORIZON_MS: f64 = 60_000.0;

/// Warm-up windows skipped by `steady_throughput`, as in the sweep and
/// the figure harness.
pub const WARMUP_WINDOWS: usize = 2;

/// The compared schedulers, R-Storm first.
pub const SCHEDULERS: [&str; 2] = ["rstorm", "even"];

/// One case as the program sees it: spec text only.
#[derive(Debug, Clone)]
pub struct SpecCase {
    /// Case name, for diagnostics.
    pub name: &'static str,
    /// `topology_to_spec` of the generated topology.
    pub topology: String,
    /// `cluster_to_spec` of the generated cluster.
    pub cluster: String,
}

/// The five paper cases rendered to spec text.
pub fn paper_cases() -> Vec<SpecCase> {
    fig8_cases()
        .into_iter()
        .chain(yahoo_cases())
        .map(|c| SpecCase {
            name: c.name,
            topology: topology_to_spec(&c.topology),
            cluster: cluster_to_spec(&c.cluster),
        })
        .collect()
}

/// Geometric mean of `gains`.
pub fn geomean(gains: &[f64]) -> f64 {
    (gains.iter().map(|g| g.ln()).sum::<f64>() / gains.len() as f64).exp()
}

/// The `paper` workload.
#[derive(Debug)]
pub struct Paper {
    cases: Vec<SpecCase>,
    config: SimConfig,
}

/// A finished run: its report and JSON, steady throughput, placement,
/// and the host seconds spent before its first simulated event.
#[derive(Debug)]
pub struct Ran {
    /// The run's report.
    pub report: SimReport,
    /// `SimReport::to_json` of it.
    pub json: String,
    /// `steady_throughput` after the warm-up windows.
    pub throughput: f64,
    /// The placement the run simulated.
    pub assignment: Assignment,
    /// Host seconds before the first simulated event.
    pub setup_s: f64,
}

/// One scheduler's run as `rstorm compare` does it: schedule on a fresh
/// `GlobalState`, verify the plan, build, run and render the report.
/// `None` when the scheduler cannot place the topology.
pub fn static_run(
    tr: &mut Tracer,
    checks: &mut Checks,
    layers: &mut Layers,
    topology: &Topology,
    cluster: &Arc<Cluster>,
    scheduler: &str,
    config: &SimConfig,
) -> Option<Ran> {
    let label = format!("{}/{scheduler}", topology.id());
    let started = Instant::now();
    let policy = schedulers::by_name(scheduler).expect("a known scheduler name");
    let (state, assignment) = tr.span("sched", |_| {
        let mut state = GlobalState::new(cluster);
        let assignment = policy.schedule(topology, cluster, &mut state);
        (state, assignment)
    });
    let assignment = match assignment {
        Ok(a) => a,
        Err(e) => {
            checks.job(&label, &[format!("schedule: {e}")]);
            return None;
        }
    };
    let mut problems = tr.span("sched.verify", |_| plan_problems(&state, topology, cluster));
    layers.add("sched.verify_violations", problems.len() as f64);
    let sim = tr.span("build", |_| {
        let mut sim = Simulation::new(Arc::clone(cluster), config.clone());
        sim.add_topology(topology, &assignment);
        sim
    });
    let setup_s = started.elapsed().as_secs_f64();
    let report = tr.span("run", |_| sim.run());
    let json = tr.span("report", |_| report.to_json());
    record_report(layers, &report, "run.events");
    problems.extend(report_problems(&report, false));
    checks.job(&label, &problems);
    Some(Ran {
        throughput: report.steady_throughput(topology.id().as_str(), WARMUP_WINDOWS),
        report,
        json,
        assignment,
        setup_s,
    })
}

impl Paper {
    /// The workload at `seed`, simulating `horizon_ms` per job.
    pub fn new(seed: u64, horizon_ms: f64) -> Self {
        Self {
            cases: paper_cases(),
            config: SimConfig::default()
                .with_sim_time_ms(horizon_ms)
                .with_seed(seed),
        }
    }

    /// The simulation config every job runs with.
    #[cfg(test)]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Parses the case's spec text, then runs it under `scheduler`.
    fn job(
        &self,
        tr: &mut Tracer,
        checks: &mut Checks,
        layers: &mut Layers,
        case: &SpecCase,
        scheduler: &str,
    ) -> Option<Ran> {
        let started = Instant::now();
        let parsed = tr.span("spec.parse", |_| {
            parse_topology(&case.topology).and_then(|t| Ok((t, parse_cluster(&case.cluster)?)))
        });
        let (topology, cluster) = match parsed {
            Ok((t, c)) => (t, Arc::new(c)),
            Err(e) => {
                checks.job(
                    &format!("{}/{scheduler}", case.name),
                    &[format!("spec: {e}")],
                );
                return None;
            }
        };
        let parse_s = started.elapsed().as_secs_f64();
        let mut ran = static_run(
            tr,
            checks,
            layers,
            &topology,
            &cluster,
            scheduler,
            &self.config,
        )?;
        ran.setup_s += parse_s;
        Some(ran)
    }
}

impl Workload for Paper {
    fn workers(&self) -> usize {
        1
    }

    fn rep(&self, tr: &mut Tracer, checks: &mut Checks, layers: &mut Layers) -> Rep {
        let started = Instant::now();
        let mut setup_s = 0.0;
        let mut zero_loss = 1.0_f64;
        let mut gains = Vec::new();
        let mut outputs = Vec::new();
        for (i, case) in self.cases.iter().enumerate() {
            let mut throughput = [f64::NAN; 2];
            for (k, scheduler) in SCHEDULERS.iter().enumerate() {
                tr.set_job((i * SCHEDULERS.len() + k) as u64);
                let ran = tr.span("job", |tr| self.job(tr, checks, layers, case, scheduler));
                let Some(ran) = ran else {
                    outputs.push(String::new());
                    continue;
                };
                setup_s += ran.setup_s;
                zero_loss = zero_loss.min(ran.report.zero_loss_ratio());
                throughput[k] = ran.throughput;
                outputs.push(ran.json);
            }
            gains.push(throughput[0] / throughput[1]);
        }
        Rep {
            wall_s: started.elapsed().as_secs_f64(),
            setup_s,
            rstorm_gain: geomean(&gains),
            zero_loss_ratio: zero_loss,
            outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short horizon keeps the debug-build test fast; two windows of
    /// steady state remain after the warm-up skip.
    const TEST_HORIZON_MS: f64 = 40_000.0;

    fn rep(seed: u64) -> (Rep, Layers, Checks) {
        let w = Paper::new(seed, TEST_HORIZON_MS);
        let mut checks = Checks::default();
        let mut layers = Layers::default();
        let rep = w.rep(&mut Tracer::new(false), &mut checks, &mut layers);
        (rep, layers, checks)
    }

    #[test]
    fn seed_reaches_the_simulation_config() {
        assert_eq!(Paper::new(17, TEST_HORIZON_MS).config().seed, 17);
    }

    #[test]
    fn same_seed_repeats_and_another_seed_changes_outputs() {
        let (a, la, ca) = rep(3);
        let (b, lb, _) = rep(3);
        let (c, _, _) = rep(4);
        assert_eq!(ca.failed(), 0);
        assert_eq!(ca.attempted(), 10);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.rstorm_gain.to_bits(), b.rstorm_gain.to_bits());
        assert_eq!(a.zero_loss_ratio.to_bits(), b.zero_loss_ratio.to_bits());
        assert_eq!(format!("{la:?}"), format!("{lb:?}"));
        assert!(
            a.rstorm_gain > 1.0,
            "R-Storm beats default: {}",
            a.rstorm_gain
        );
        assert_ne!(
            a.outputs, c.outputs,
            "the seed must change the modelled run"
        );
    }
}
