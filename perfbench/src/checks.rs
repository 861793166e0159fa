//! Output checks. Every job counts as attempted; a job that fails any
//! check counts as failed and its problems go to standard error, so no
//! failure is silent.

use rstorm_cluster::Cluster;
use rstorm_core::{verify_plan, GlobalState};
use rstorm_sim::SimReport;
use rstorm_topology::Topology;

/// Attempted and failed job counts.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    problems: u64,
}

impl Checks {
    /// Counts one job; it failed when `problems` is non-empty.
    pub fn job(&mut self, label: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems += problems.len() as u64;
            for p in problems {
                eprintln!("check failed: {label}: {p}");
            }
        }
    }

    /// Marks `jobs` already counted jobs as failed by a check that spans
    /// several jobs (determinism, traced-vs-untraced equivalence, a
    /// sweep group's zero-loss gate).
    pub fn fail_jobs(&mut self, jobs: u64, problem: &str) {
        eprintln!("check failed: {problem}");
        self.problems += 1;
        self.failed = (self.failed + jobs).min(self.attempted);
    }

    /// Folds a worker thread's counts in.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems += other.problems;
    }

    /// Jobs attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Jobs that failed a check.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// True when no check failed.
    pub fn clean(&self) -> bool {
        self.problems == 0
    }

    /// Failed jobs over attempted jobs.
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Problems with a schedule: every `verify_plan` violation.
pub fn plan_problems(state: &GlobalState, topology: &Topology, cluster: &Cluster) -> Vec<String> {
    verify_plan(state.plan(), &[topology], cluster)
        .iter()
        .map(|v| format!("plan violation: {v}"))
        .collect()
}

/// Problems with a report: every sanity violation and, when replay is
/// on, a broken drain identity
/// `roots_emitted == roots_completed + roots_quarantined + roots_in_flight`.
pub fn report_problems(report: &SimReport, replay: bool) -> Vec<String> {
    let mut out: Vec<String> = report
        .sanity_violations()
        .iter()
        .map(|v| format!("report sanity: {v:?}"))
        .collect();
    let t = &report.totals;
    if replay && t.roots_emitted != t.roots_completed + t.roots_quarantined + t.roots_in_flight {
        out.push(format!(
            "drain identity: emitted {} != completed {} + quarantined {} + in flight {}",
            t.roots_emitted, t.roots_completed, t.roots_quarantined, t.roots_in_flight
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_failures_never_exceed_attempts() {
        let mut c = Checks::default();
        c.job("a", &[]);
        c.job("b", &["bad".to_owned()]);
        assert_eq!((c.attempted(), c.failed()), (2, 1));
        c.fail_jobs(5, "group");
        assert_eq!(c.failed(), 2);
        assert_eq!(c.error_ratio(), 1.0);
        assert!(!c.clean());
        assert_eq!(Checks::default().error_ratio(), 1.0);
    }
}
