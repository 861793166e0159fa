//! `faults`: the paper cases × {R-Storm, default} under six fault
//! specs and several seeds, through `run_sweep`.
//!
//! Replay is on (`max_replays` 8). The fault axis is healthy,
//! crash_recover, partition, flap, congestion (on the fair network
//! plane) and nimbus_outage (journal on), with the full grid's timings.
//! The untraced repetition is one `run_sweep` call on [`WORKERS`]
//! threads. The traced repetition replays every grid job on as many
//! threads through the public harness the sweep uses
//! (`run_crash_recover_with` or `run_fault_plan_with` with the same
//! scheduler, plan, `SimConfig` and `RecoveryConfig`), so the full
//! report's counters are available, and rebuilds each sweep row from it.

use crate::checks::{plan_problems, report_problems, Checks};
use crate::metrics::{record_report, Layers};
use crate::paper::{geomean, paper_cases, SpecCase, SCHEDULERS, WARMUP_WINDOWS};
use crate::trace::Tracer;
use crate::{Rep, Workload};
use rstorm_core::{schedulers, Assignment, GlobalState, RecoveryConfig};
use rstorm_sim::sweep::{aggregate, SweepSummary};
use rstorm_sim::{
    run_crash_recover_with, run_fault_plan_with, run_sweep, ChaosConfig, FaultPlan, FaultSpec,
    NetworkModel, SeedRange, SimConfig, SimReport, Simulation, SweepCase, SweepGrid, SweepJob,
    SweepRow,
};
use rstorm_spec::{parse_cluster, parse_topology};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Sweep worker threads: fixed, and no more than the two cores the
/// benchmark is sized for.
pub const WORKERS: usize = 2;

/// Seeds per (case, scheduler, fault) group, starting at `--seed`.
pub const SEEDS: u64 = 2;

/// Simulated horizon of every job.
pub const HORIZON_MS: f64 = 60_000.0;

/// Set-up timings per untraced repetition.
const SETUP_SAMPLES: usize = 200;

/// Replay budget, as in the sweep presets.
const MAX_REPLAYS: u32 = 8;

/// Fault start (crash, partition, flap, congestion), as in the sweep
/// presets.
const FAULT_AT_MS: f64 = 20_000.0;
/// Heal time of the crash, partition and congestion windows.
const HEAL_AT_MS: f64 = 35_000.0;

/// The fault axis, in the order of [`crate::metrics::FAULT_LABELS`].
pub fn fault_axis() -> Vec<FaultSpec> {
    vec![
        FaultSpec::Healthy,
        FaultSpec::CrashRecover {
            crash_at_ms: FAULT_AT_MS,
            heal_at_ms: HEAL_AT_MS,
        },
        FaultSpec::Partition {
            at_ms: FAULT_AT_MS,
            until_ms: HEAL_AT_MS,
        },
        FaultSpec::Flap {
            first_at_ms: FAULT_AT_MS,
            flaps: 3,
            down_ms: 4_000.0,
            up_ms: 8_000.0,
        },
        FaultSpec::Congestion {
            at_ms: FAULT_AT_MS,
            until_ms: HEAL_AT_MS,
            extra_ms: 400.0,
        },
        FaultSpec::NimbusOutage {
            crash_at_ms: FAULT_AT_MS,
            heal_at_ms: HEAL_AT_MS,
            nimbus_at_ms: 18_000.0,
            nimbus_down_ms: 10_000.0,
        },
    ]
}

/// The `faults` workload.
#[derive(Debug)]
pub struct Faults {
    cases: Vec<SpecCase>,
    seeds: SeedRange,
    sim: SimConfig,
}

impl Faults {
    /// The workload at seeds `seed..seed + SEEDS`, simulating
    /// `horizon_ms` per job.
    pub fn new(seed: u64, horizon_ms: f64) -> Self {
        Self {
            cases: paper_cases(),
            seeds: SeedRange::new(seed, seed + SEEDS).expect("a non-empty seed range"),
            sim: SimConfig::default()
                .with_sim_time_ms(horizon_ms)
                .with_max_replays(MAX_REPLAYS),
        }
    }

    /// Parses the spec text and assembles the grid.
    fn grid(&self, tr: &mut Tracer) -> Result<SweepGrid, String> {
        let cases = tr.span("spec.parse", |_| {
            self.cases
                .iter()
                .map(|c| {
                    Ok(SweepCase {
                        name: c.name.to_owned(),
                        topology: parse_topology(&c.topology)?,
                        cluster: Arc::new(parse_cluster(&c.cluster)?),
                    })
                })
                .collect::<Result<Vec<_>, rstorm_spec::SpecError>>()
        });
        let cases = cases.map_err(|e| format!("spec: {e}"))?;
        Ok(tr.span("sweep.grid", |_| SweepGrid {
            cases,
            schedulers: SCHEDULERS.iter().map(|s| (*s).to_owned()).collect(),
            faults: fault_axis(),
            seeds: self.seeds,
            sim: self.sim.clone(),
        }))
    }

    /// The untraced repetition: one `run_sweep` call. Set-up is far
    /// shorter than the sweep, so it is timed [`SETUP_SAMPLES`] times
    /// and its median stands for it in both `setup_s` and `wall_s`.
    fn sweep(&self, checks: &mut Checks) -> Rep {
        let mut setups = Vec::new();
        let mut grid = None;
        for _ in 0..SETUP_SAMPLES {
            let started = Instant::now();
            match self.grid(&mut Tracer::new(false)) {
                Ok(g) => grid = Some(g),
                Err(e) => return self.failed(checks, started, &e),
            }
            setups.push(started.elapsed().as_secs_f64());
        }
        let grid = grid.expect("at least one set-up sample");
        let setup_s = crate::median(&setups);
        let started = Instant::now();
        let outcome = match catch_unwind(AssertUnwindSafe(|| run_sweep(&grid, WORKERS))) {
            Ok(o) => o,
            Err(_) => return self.failed(checks, started, "the sweep panicked"),
        };
        let json = outcome.summary.to_json();
        let wall_s = setup_s + started.elapsed().as_secs_f64();
        for row in &outcome.rows {
            checks.job(&job_label(&grid, &row.job), &row_problems(row));
        }
        finish(
            checks,
            &grid,
            &outcome.rows,
            &outcome.summary,
            json,
            wall_s,
            setup_s,
        )
    }

    /// The traced repetition: every grid job replayed through the
    /// harness on [`WORKERS`] threads pulling jobs in grid order, like
    /// the sweep, each recording its own spans and counters.
    fn replay(&self, tr: &mut Tracer, checks: &mut Checks, layers: &mut Layers) -> Rep {
        let started = Instant::now();
        let grid = match self.grid(tr) {
            Ok(g) => g,
            Err(e) => return self.failed(checks, started, &e),
        };
        let setup_s = started.elapsed().as_secs_f64();
        let jobs = grid.expand();
        let next = AtomicUsize::new(0);
        let workers: Vec<Tracer> = (0..WORKERS).map(|_| tr.child()).collect();
        let mut rows = Vec::new();
        let all_joined = tr.span("sweep", |tr| {
            let finished = std::thread::scope(|scope| {
                let handles: Vec<_> = workers
                    .into_iter()
                    .map(|wtr| {
                        let (grid, jobs, next) = (&grid, &jobs, &next);
                        scope.spawn(move || replay_worker(wtr, grid, jobs, next))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
            });
            let mut all_joined = true;
            for worker in finished {
                match worker {
                    Ok((wtr, wchecks, wrows)) => {
                        tr.absorb(wtr);
                        checks.merge(wchecks);
                        rows.extend(wrows);
                    }
                    Err(_) => all_joined = false,
                }
            }
            all_joined
        });
        if !all_joined {
            return self.failed(checks, started, "a replay worker panicked");
        }
        if rows.len() != jobs.len() {
            return self.failed(checks, started, "a replayed job failed");
        }
        // Counters fold in job order, so float sums repeat exactly.
        rows.sort_by_key(|(r, _)| r.job.index);
        let rows: Vec<SweepRow> = rows
            .into_iter()
            .map(|(row, job_layers)| {
                layers.merge(job_layers);
                row
            })
            .collect();
        let (summary, json) = tr.span("sweep.aggregate", |_| {
            let summary = aggregate(&grid, &rows);
            let json = summary.to_json();
            (summary, json)
        });
        let wall_s = started.elapsed().as_secs_f64();
        finish(checks, &grid, &rows, &summary, json, wall_s, setup_s)
    }

    /// A repetition that could not run: every job of the grid fails.
    fn failed(&self, checks: &mut Checks, started: Instant, why: &str) -> Rep {
        let jobs = self.cases.len() * SCHEDULERS.len() * fault_axis().len() * self.seeds.len();
        for _ in 0..jobs {
            checks.job("faults", &[why.to_owned()]);
        }
        Rep {
            wall_s: started.elapsed().as_secs_f64(),
            setup_s: f64::NAN,
            rstorm_gain: f64::NAN,
            zero_loss_ratio: f64::NAN,
            outputs: Vec::new(),
        }
    }
}

impl Workload for Faults {
    fn workers(&self) -> usize {
        WORKERS
    }

    fn rep(&self, tr: &mut Tracer, checks: &mut Checks, layers: &mut Layers) -> Rep {
        if tr.enabled() {
            self.replay(tr, checks, layers)
        } else {
            self.sweep(checks)
        }
    }
}

fn job_label(grid: &SweepGrid, job: &SweepJob) -> String {
    format!(
        "faults/{}/{}/{}/seed{}",
        grid.cases[job.case].name,
        job.scheduler,
        job.fault.label(),
        job.seed
    )
}

/// One replay thread: pulls the next job index until the grid is done,
/// and hands back each finished job's row with its counters.
fn replay_worker(
    mut tr: Tracer,
    grid: &SweepGrid,
    jobs: &[SweepJob],
    next: &AtomicUsize,
) -> (Tracer, Checks, Vec<(SweepRow, Layers)>) {
    let mut checks = Checks::default();
    let mut rows = Vec::new();
    while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
        let mut layers = Layers::default();
        tr.set_job(job.index as u64);
        let label = job_label(grid, job);
        let span = format!("job.{}", job.fault.label());
        match tr.span(&span, |tr| replay_job(tr, &mut layers, grid, job)) {
            Ok((row, mut problems)) => {
                problems.extend(row_problems(&row));
                checks.job(&label, &problems);
                rows.push((row, layers));
            }
            Err(e) => checks.job(&label, &[e]),
        }
    }
    (tr, checks, rows)
}

/// Per-row checks: finite measurements, flowing work, and zero loss on
/// survivable faults.
fn row_problems(row: &SweepRow) -> Vec<String> {
    let mut out = Vec::new();
    if !(row.net_throughput.is_finite() && row.net_throughput > 0.0) {
        out.push(format!("steady throughput {:?}", row.net_throughput));
    }
    if row.tuples_completed == 0 {
        out.push("no tuple completed".to_owned());
    }
    if row.job.fault.survivable() && row.zero_loss_ratio != 1.0 {
        out.push(format!(
            "zero-loss ratio {:?} on a survivable fault",
            row.zero_loss_ratio
        ));
    }
    out
}

/// Group-level checks and the repetition's modelled metrics.
fn finish(
    checks: &mut Checks,
    grid: &SweepGrid,
    rows: &[SweepRow],
    summary: &SweepSummary,
    json: String,
    wall_s: f64,
    setup_s: f64,
) -> Rep {
    let mut zero_loss = 1.0_f64;
    let mut net: BTreeMap<&str, f64> = BTreeMap::new();
    for g in &summary.groups {
        net.insert(&g.name, g.net_mean);
        if g.survivable {
            zero_loss = zero_loss.min(g.zero_loss_min);
            if g.zero_loss_min != 1.0 {
                checks.fail_jobs(
                    g.seeds as u64,
                    &format!("group {}: zero-loss minimum {:?}", g.name, g.zero_loss_min),
                );
            }
        }
    }
    let mut gains = Vec::new();
    for case in &grid.cases {
        for fault in &grid.faults {
            let mean = |s: &str| net[format!("{}/{s}/{}", case.name, fault.label()).as_str()];
            gains.push(mean(SCHEDULERS[0]) / mean(SCHEDULERS[1]));
        }
    }
    let mut outputs: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    outputs.push(json);
    Rep {
        wall_s,
        setup_s,
        rstorm_gain: geomean(&gains),
        zero_loss_ratio: zero_loss,
        outputs,
    }
}

/// The host of the first assigned task: the sweep's victim choice.
fn host_node(assignment: &Assignment) -> Option<String> {
    assignment
        .iter()
        .next()
        .map(|(_, slot)| slot.node.as_str().to_owned())
}

/// Replays one grid job through the harness the sweep calls for its
/// fault spec, and rebuilds its sweep row.
fn replay_job(
    tr: &mut Tracer,
    layers: &mut Layers,
    grid: &SweepGrid,
    job: &SweepJob,
) -> Result<(SweepRow, Vec<String>), String> {
    let case = &grid.cases[job.case];
    let cluster = &case.cluster;
    let topology = &case.topology;
    let scheduler = schedulers::by_name(&job.scheduler)
        .ok_or_else(|| format!("unknown scheduler {}", job.scheduler))?;
    let sim_cfg = grid.sim.clone().with_seed(job.seed);
    let (state, assignment) = tr.span("sched", |_| {
        let mut state = GlobalState::new(cluster);
        let assignment = scheduler.schedule(topology, cluster, &mut state);
        (state, assignment)
    });
    let assignment = assignment.map_err(|e| format!("schedule: {e}"))?;
    let mut problems = plan_problems(&state, topology, cluster);
    layers.add("sched.verify_violations", problems.len() as f64);
    let host = host_node(&assignment).ok_or("empty assignment")?;
    let plan_job = |tr: &mut Tracer, plan: FaultPlan, cfg: SimConfig, rec: RecoveryConfig| {
        let out = tr
            .span("harness", |_| {
                run_fault_plan_with(cluster, topology, &plan, &cfg, &rec, &*scheduler)
            })
            .map_err(|e| format!("harness: {e}"))?;
        let audit = out.reconciliation;
        let obs = out.observations;
        Ok::<_, String>((
            out.report,
            obs.time_to_detect_ms,
            obs.time_to_recover_ms,
            audit,
        ))
    };
    let (report, detect, recover, audit): (SimReport, f64, f64, _) = match job.fault {
        FaultSpec::Healthy => {
            let sim = tr.span("build", |_| {
                let mut sim = Simulation::new(Arc::clone(cluster), sim_cfg);
                sim.add_topology(topology, &assignment);
                sim
            });
            (tr.span("run", |_| sim.run()), -1.0, -1.0, None)
        }
        FaultSpec::CrashRecover {
            crash_at_ms,
            heal_at_ms,
        } => {
            let mut cfg = ChaosConfig::new(host, crash_at_ms, heal_at_ms);
            cfg.sim = sim_cfg;
            let out = tr.span("harness", |_| {
                run_crash_recover_with(cluster, topology, &cfg, &*scheduler)
            });
            problems.extend(
                rstorm_core::verify_plan(&out.plan, &[topology], cluster)
                    .iter()
                    .map(|v| format!("final plan violation: {v}")),
            );
            let obs = out.observations;
            (
                out.report,
                obs.time_to_detect_ms,
                obs.time_to_recover_ms,
                None,
            )
        }
        FaultSpec::CrashLasting { .. } => return Err("crash_lasting is not on the axis".into()),
        FaultSpec::Partition { at_ms, until_ms } => {
            let rack = cluster
                .rack_of(&host)
                .ok_or("host without a rack")?
                .as_str()
                .to_owned();
            let plan = FaultPlan::new().partition_rack(at_ms, until_ms, rack);
            plan_job(tr, plan, sim_cfg, RecoveryConfig::default())?
        }
        FaultSpec::Congestion {
            at_ms,
            until_ms,
            extra_ms,
        } => {
            let plan = FaultPlan::new().degrade_links(at_ms, until_ms, extra_ms);
            let cfg = sim_cfg.with_network_model(NetworkModel::Fair);
            plan_job(tr, plan, cfg, RecoveryConfig::default())?
        }
        FaultSpec::Flap {
            first_at_ms,
            flaps,
            down_ms,
            up_ms,
        } => {
            let plan = FaultPlan::new().flap_storm(first_at_ms, host, flaps, down_ms, up_ms);
            plan_job(tr, plan, sim_cfg, RecoveryConfig::default())?
        }
        FaultSpec::NimbusOutage {
            crash_at_ms,
            heal_at_ms,
            nimbus_at_ms,
            nimbus_down_ms,
        } => {
            let plan = FaultPlan::new()
                .crash_node(crash_at_ms, &host)
                .recover_node(heal_at_ms, &host)
                .nimbus_crash(nimbus_at_ms, nimbus_down_ms);
            let journaled = RecoveryConfig {
                journal: true,
                ..RecoveryConfig::default()
            };
            plan_job(tr, plan, sim_cfg, journaled)?
        }
    };
    let events = match job.fault {
        FaultSpec::Healthy => "run.events",
        FaultSpec::Congestion { .. } => "net.events",
        _ => "fault.events",
    };
    record_report(layers, &report, events);
    if let Some(a) = audit {
        layers.add("control.decisions_replayed", a.decisions_replayed as f64);
        if a.double_placed_or_orphaned {
            problems.push("reconciliation left a task double-placed or orphaned".to_owned());
        }
    }
    problems.extend(report_problems(&report, true));
    let row = SweepRow {
        job: job.clone(),
        net_throughput: report.steady_throughput(topology.id().as_str(), WARMUP_WINDOWS),
        tuples_completed: report.totals.tuples_completed,
        tuples_lost: report.totals.tuples_lost,
        zero_loss_ratio: report.zero_loss_ratio(),
        time_to_detect_ms: detect,
        time_to_recover_ms: recover,
    };
    Ok((row, problems))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workload cut to its cheapest case, Yahoo Processing.
    fn small(seed: u64) -> Faults {
        let mut w = Faults::new(seed, HORIZON_MS);
        w.cases.retain(|c| c.name == "processing");
        assert_eq!(w.cases.len(), 1);
        w
    }

    #[test]
    fn traced_replay_reproduces_the_sweep_per_seed() {
        let w = small(3);
        let mut checks = Checks::default();
        let sweep = w.rep(&mut Tracer::new(false), &mut checks, &mut Layers::default());
        let mut first = Layers::default();
        let traced = w.rep(&mut Tracer::new(true), &mut checks, &mut first);
        let mut second = Layers::default();
        let again = w.rep(&mut Tracer::new(true), &mut checks, &mut second);
        assert_eq!(checks.attempted(), 3 * 24);
        assert_eq!(checks.failed(), 0);
        assert_eq!(
            sweep.outputs, traced.outputs,
            "traced rows equal sweep rows"
        );
        assert_eq!(sweep.rstorm_gain.to_bits(), traced.rstorm_gain.to_bits());
        assert_eq!(sweep.zero_loss_ratio, 1.0);
        assert_eq!(traced.outputs, again.outputs);
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        let other = small(4).rep(&mut Tracer::new(false), &mut checks, &mut Layers::default());
        assert_ne!(
            sweep.outputs, other.outputs,
            "the seed must change the runs"
        );
    }

    #[test]
    fn seed_reaches_the_seed_range() {
        let w = Faults::new(11, HORIZON_MS);
        assert_eq!(w.seeds.start(), 11);
        assert_eq!(w.seeds.len() as u64, SEEDS);
        let labels: Vec<&str> = fault_axis().iter().map(FaultSpec::label).collect();
        assert_eq!(labels, crate::metrics::FAULT_LABELS);
        assert!(fault_axis().iter().all(FaultSpec::survivable));
    }
}
