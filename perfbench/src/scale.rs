//! `scale`: the 10k-task / 1k-node case, static and under churn.
//!
//! One repetition runs three jobs on the `scale_topology` /
//! `scale_cluster` pair:
//!
//! 1. parse the spec text, schedule with R-Storm, build and run the
//!    static simulation;
//! 2. schedule with the default (even) scheduler, build and run — the
//!    base of `rstorm_gain`;
//! 3. plan the migration churn (`churn_plans`: R-Storm placement plus
//!    composed `DeltaScheduler` rounds), build the simulation with the
//!    `schedule_churn` timeline and run it, so migrations patch routing
//!    while the event loop reads it.
//!
//! Here the scheduler, the build, churn planning and the per-event cost
//! of a large routing table dominate.

use crate::checks::{report_problems, Checks};
use crate::metrics::{record_report, Layers};
use crate::paper::{static_run, Ran, WARMUP_WINDOWS};
use crate::trace::Tracer;
use crate::{Rep, Workload};
use rstorm_cluster::Cluster;
use rstorm_core::{Assignment, MigrationPlan};
use rstorm_sim::{SimConfig, Simulation};
use rstorm_spec::{cluster_to_spec, parse_cluster, parse_topology, topology_to_spec};
use rstorm_topology::Topology;
use rstorm_workloads::scale::{
    churn_plans, scale_cluster, scale_topology, schedule_churn, SCALE_CHURN_ROUNDS,
};
use std::sync::Arc;
use std::time::Instant;

/// Simulated horizon: a tenth of the case's full 10-minute run.
pub const HORIZON_MS: f64 = 60_000.0;

/// Jobs in one repetition.
const JOBS: u64 = 3;

/// The `scale` workload.
#[derive(Debug)]
pub struct Scale {
    topology: String,
    cluster: String,
    config: SimConfig,
}

impl Scale {
    /// The workload at `seed`: `tasks` tasks on `nodes` nodes,
    /// simulating `horizon_ms` per run.
    pub fn new(seed: u64, tasks: u32, nodes: u32, horizon_ms: f64) -> Self {
        Self {
            topology: topology_to_spec(&scale_topology(tasks)),
            cluster: cluster_to_spec(&scale_cluster(nodes)),
            config: SimConfig::default()
                .with_sim_time_ms(horizon_ms)
                .with_seed(seed),
        }
    }

    /// Plans the churn, builds the churn timeline and runs it. The plans
    /// must start from the R-Storm placement of the static run.
    fn churn_job(
        &self,
        tr: &mut Tracer,
        checks: &mut Checks,
        layers: &mut Layers,
        topology: &Topology,
        cluster: &Arc<Cluster>,
        static_assignment: &Assignment,
    ) -> Ran {
        let started = Instant::now();
        let (assignment, plans) = tr.span("adaptive.plan", |_| {
            churn_plans(topology, cluster, SCALE_CHURN_ROUNDS)
        });
        layers.add(
            "adaptive.migrations",
            plans.iter().map(MigrationPlan::len).sum::<usize>() as f64,
        );
        let mut problems = Vec::new();
        if &assignment != static_assignment {
            problems.push("churn planning placed differently from R-Storm".to_owned());
        }
        if plans.is_empty() {
            problems.push("churn planning moved no task".to_owned());
        }
        let horizon = self.config.sim_time_ms;
        let sim = tr.span("build", |_| {
            let mut sim = Simulation::new(Arc::clone(cluster), self.config.clone());
            sim.add_topology(topology, &assignment);
            schedule_churn(&mut sim, &plans, horizon);
            sim
        });
        let setup_s = started.elapsed().as_secs_f64();
        let report = tr.span("run.churn", |_| sim.run());
        // Each plan carries a full `Assignment`; freeing them is part of
        // the planning layer's cost.
        tr.span("adaptive.plan", |_| drop(plans));
        let json = tr.span("report", |_| report.to_json());
        record_report(layers, &report, "churn.events");
        problems.extend(report_problems(&report, false));
        checks.job("scale/churn", &problems);
        Ran {
            throughput: report.steady_throughput(topology.id().as_str(), WARMUP_WINDOWS),
            report,
            json,
            assignment,
            setup_s,
        }
    }
}

impl Workload for Scale {
    fn workers(&self) -> usize {
        1
    }

    fn rep(&self, tr: &mut Tracer, checks: &mut Checks, layers: &mut Layers) -> Rep {
        let started = Instant::now();
        let failed = |checks: &mut Checks, done: u64, why: &str| {
            for _ in done..JOBS {
                checks.job("scale", &[why.to_owned()]);
            }
            Rep {
                wall_s: started.elapsed().as_secs_f64(),
                setup_s: f64::NAN,
                rstorm_gain: f64::NAN,
                zero_loss_ratio: f64::NAN,
                outputs: Vec::new(),
            }
        };

        tr.set_job(0);
        let parsed = tr.span("job", |tr| {
            tr.span("spec.parse", |_| {
                parse_topology(&self.topology).and_then(|t| Ok((t, parse_cluster(&self.cluster)?)))
            })
        });
        let parse_s = started.elapsed().as_secs_f64();
        let (topology, cluster) = match parsed {
            Ok((t, c)) => (t, Arc::new(c)),
            Err(e) => return failed(checks, 0, &format!("spec: {e}")),
        };
        let (t, c, config) = (&topology, &cluster, &self.config);
        let Some(rstorm) = tr.span("job", |tr| {
            static_run(tr, checks, layers, t, c, "rstorm", config)
        }) else {
            return failed(checks, 1, "R-Storm placement failed");
        };
        tr.set_job(1);
        let Some(even) = tr.span("job", |tr| {
            static_run(tr, checks, layers, t, c, "even", config)
        }) else {
            return failed(checks, 2, "default placement failed");
        };
        tr.set_job(2);
        let churn = tr.span("job", |tr| {
            self.churn_job(tr, checks, layers, t, c, &rstorm.assignment)
        });

        let wall_s = started.elapsed().as_secs_f64();
        let runs = [rstorm, even, churn];
        Rep {
            wall_s,
            setup_s: parse_s + runs.iter().map(|r| r.setup_s).sum::<f64>(),
            rstorm_gain: runs[0].throughput / runs[1].throughput,
            zero_loss_ratio: runs
                .iter()
                .map(|r| r.report.zero_loss_ratio())
                .fold(1.0, f64::min),
            outputs: runs.into_iter().map(|r| r.json).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_case_repeats_per_seed() {
        let run = |seed| {
            let w = Scale::new(seed, 200, 20, 40_000.0);
            let mut checks = Checks::default();
            let mut layers = Layers::default();
            let rep = w.rep(&mut Tracer::new(false), &mut checks, &mut layers);
            assert_eq!((checks.attempted(), checks.failed()), (JOBS, 0));
            (rep, format!("{layers:?}"))
        };
        let (a, la) = run(5);
        let (b, lb) = run(5);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.rstorm_gain.to_bits(), b.rstorm_gain.to_bits());
        assert_eq!(la, lb);
        assert_eq!(a.outputs.len(), JOBS as usize);
        assert!(a.rstorm_gain.is_finite());
    }
}
