//! End-to-end benchmark of rstorm: spec text → schedule → simulate →
//! JSON report, over three workloads (`paper`, `scale`, `faults`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every job is closed loop: one thread (the `faults` sweep: a fixed
//! pool of [`faults::WORKERS`] threads) starts the next job when the
//! previous one returns. Repetitions of the workload's fixed job set run
//! until `--seconds` have passed, and the medians are reported.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the job
//! set once untraced and once with a span around every layer call,
//! checks that both produced the same outputs, prints the per-layer
//! metrics and writes the spans as JSON lines to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` for
//! what each metric measures and which workload it should move on.

mod checks;
mod faults;
mod metrics;
mod paper;
mod scale;
mod trace;

use checks::Checks;
use metrics::{Layers, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Fewest repetitions a `--trace 0` run measures, however short
/// `--seconds` is.
const MIN_REPS: usize = 2;

/// What one repetition of a workload's job set produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds for the whole job set, spec text to JSON.
    pub wall_s: f64,
    /// Host seconds spent before the first simulated event of each job.
    pub setup_s: f64,
    /// Geometric mean of R-Storm over default steady throughput.
    pub rstorm_gain: f64,
    /// Minimum zero-loss ratio over the survivable runs.
    pub zero_loss_ratio: f64,
    /// The program's outputs, in job order: report JSON, or sweep rows
    /// and the sweep summary. Equal seeds must give equal outputs.
    pub outputs: Vec<String>,
}

/// One benchmark workload: a fixed job set built from a seed.
pub trait Workload {
    /// Threads that run jobs at once.
    fn workers(&self) -> usize;
    /// Runs the job set once. With `tr` enabled, every layer call is
    /// wrapped in a span and `layers` collects the program's counters.
    fn rep(&self, tr: &mut Tracer, checks: &mut Checks, layers: &mut Layers) -> Rep;
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = argv.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(key.to_owned(), value);
    }
    let get = |k: &str| {
        flags
            .get(k)
            .cloned()
            .ok_or_else(|| format!("missing --{k}"))
    };
    let number = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let args = Args {
        workload: get("workload")?,
        seed: number("seed")?,
        seconds: number("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
    };
    if let Some(extra) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(args)
}

fn workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "paper" => Ok(Box::new(paper::Paper::new(seed, paper::HORIZON_MS))),
        "scale" => Ok(Box::new(scale::Scale::new(
            seed,
            rstorm_workloads::scale::SCALE_TASKS,
            rstorm_workloads::scale::SCALE_NODES,
            scale::HORIZON_MS,
        ))),
        "faults" => Ok(Box::new(faults::Faults::new(seed, faults::HORIZON_MS))),
        other => Err(format!(
            "unknown workload `{other}` (expected paper, scale or faults)"
        )),
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Checks that a repetition reproduced the first one's outputs and
/// modelled metrics exactly.
fn check_same(checks: &mut Checks, what: &str, first: &Rep, rep: &Rep) {
    if first.outputs != rep.outputs {
        let differing = first
            .outputs
            .iter()
            .zip(&rep.outputs)
            .filter(|(a, b)| a != b)
            .count()
            + first.outputs.len().abs_diff(rep.outputs.len());
        checks.fail_jobs(
            differing as u64,
            &format!("{what}: {differing} output(s) differ"),
        );
    }
    for (name, a, b) in [
        ("rstorm_gain", first.rstorm_gain, rep.rstorm_gain),
        (
            "zero_loss_ratio",
            first.zero_loss_ratio,
            rep.zero_loss_ratio,
        ),
    ] {
        if a.to_bits() != b.to_bits() {
            checks.fail_jobs(1, &format!("{what}: {name} {a:?} != {b:?}"));
        }
    }
}

/// `--trace 0`: repeat the job set until `seconds` have passed.
fn measure(w: &dyn Workload, seconds: u64, checks: &mut Checks) -> BTreeMap<&'static str, f64> {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    // Sampled after the first repetition, so the peak does not depend
    // on how many repetitions fit in `seconds`.
    let mut peak_rss = f64::NAN;
    while reps.len() < MIN_REPS || started.elapsed() < budget {
        let rep = w.rep(&mut Tracer::new(false), checks, &mut Layers::default());
        match reps.first() {
            Some(first) => check_same(checks, "repetition", first, &rep),
            None => peak_rss = peak_rss_mb().unwrap_or(f64::NAN),
        }
        reps.push(rep);
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut m = BTreeMap::new();
    m.insert("wall_s", median(&walls));
    m.insert("setup_s", median(&setups));
    m.insert("peak_rss_mb", peak_rss);
    m.insert("rstorm_gain", reps[0].rstorm_gain);
    m.insert("zero_loss_ratio", reps[0].zero_loss_ratio);
    m.insert("pass_ratio", 1.0 - checks.error_ratio());
    eprintln!(
        "measured {} repetition(s) in {:.1} s; wall_s {walls:?}",
        reps.len(),
        started.elapsed().as_secs_f64()
    );
    m
}

/// `--trace 1`: one untraced and one traced repetition; returns the
/// per-layer metrics and the spans.
fn trace(w: &dyn Workload, checks: &mut Checks) -> (BTreeMap<String, f64>, Tracer) {
    let base = w.rep(&mut Tracer::new(false), checks, &mut Layers::default());
    let mut tr = Tracer::new(true);
    let mut layers = Layers::default();
    let traced = tr.span("rep", |tr| w.rep(tr, checks, &mut layers));
    check_same(checks, "traced vs untraced", &base, &traced);
    let traced_wall_s = tr.spans().first().map_or(f64::NAN, |s| s.ms() / 1e3);
    let m = metrics::derive(
        &tr,
        &layers,
        w.workers(),
        base.wall_s,
        traced_wall_s,
        checks,
    );
    (m, tr)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper|scale|faults --seed N --seconds N --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let w = match workload(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let (values, tr) = trace(&*w, &mut checks);
        for m in PER_LAYER {
            metrics.push((m.name, m.unit, values.get(m.name).copied().unwrap_or(0.0)));
        }
        let path = format!("perfbench/out/trace-{}-{}.jsonl", args.workload, args.seed);
        if let Err(e) = tr.write_jsonl(Path::new(&path)) {
            eprintln!("perfbench: cannot write {path}: {e}");
            checks.fail_jobs(0, "trace file not written");
        }
    } else {
        let values = measure(&*w, args.seconds, &mut checks);
        for m in END_TO_END {
            metrics.push((m.name, m.unit, values[m.name]));
        }
    }
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed() == 0 && checks.clean() && finite,
        checks.attempted().max(1),
        checks.failed(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_driver_flags() {
        let a = args("--workload paper --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "paper");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10);
        assert!(a.trace);
        assert!(args("--workload paper --seed 7 --seconds 10").is_err());
        assert!(args("--workload paper --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload paper --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload paper --seed 1 --seconds 1 --trace 0 --x 1").is_err());
        assert!(workload("nope", 1).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
