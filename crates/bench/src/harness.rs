//! The plumbing of the `bench` binary: a median-of-samples wall timer,
//! typed result rows, the `BENCH_*.json` writer, the gate table and the
//! re-measure policy. Each registered [`Case`] keeps only its scenario,
//! its in-case asserts and the [`Row`]s it reports.
//!
//! One renderer writes a row both as a JSON case line and as a
//! `name key=value ...` stdout line, and the gates read the same typed
//! [`Value`]s the renderer prints — nothing is parsed back out of text.
//! The file layout is one header, one case object per line and one
//! footer, with keys in the order each case pushes them.

use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

/// Median wall time of `timed`, with per-sample state built by `setup`
/// outside the timed region. One untimed warmup populates allocator
/// caches and branch predictors, then at least `MIN_ITERS` samples are
/// taken and sampling continues until `budget` is spent (whichever is
/// later), capped at `MAX_ITERS`.
pub fn median_ns<T>(
    mut setup: impl FnMut() -> T,
    mut timed: impl FnMut(T),
    budget: Duration,
) -> u64 {
    const MIN_ITERS: usize = 3;
    const MAX_ITERS: usize = 50;
    timed(setup());
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < MAX_ITERS && (samples.len() < MIN_ITERS || started.elapsed() < budget) {
        let input = setup();
        let t0 = Instant::now();
        timed(input);
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One field of a [`Row`], carrying the format it is written with.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count or nanosecond reading.
    Int(u64),
    /// A float written with a fixed number of decimals (`{:.N}`).
    Fixed(f64, usize),
    /// A float written shortest-roundtrip (`{:?}`), byte-deterministic.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array of counts.
    Counts(Vec<u64>),
}

impl Value {
    /// The number a gate compares: the value itself, never its rounded
    /// text. `None` for booleans and arrays.
    fn number(&self) -> Option<f64> {
        match *self {
            Value::Int(n) => Some(n as f64),
            Value::Fixed(x, _) | Value::Float(x) => Some(x),
            Value::Bool(_) | Value::Counts(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Fixed(x, places) => write!(f, "{x:.places$}"),
            Value::Float(x) => write!(f, "{x:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Counts(ns) => {
                f.write_str("[")?;
                for (i, n) in ns.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{n}")?;
                }
                f.write_str("]")
            }
        }
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Int(n)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Int(n.into())
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as u64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// One case line of a `BENCH_*.json` report: a name plus ordered fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    name: String,
    fields: Vec<(&'static str, Value)>,
}

impl Row {
    /// A row with no fields yet.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// Appends `key`; fields render in the order they are appended.
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Appends `key` as a float written with `places` decimals.
    pub fn fixed(self, key: &'static str, x: f64, places: usize) -> Self {
        self.with(key, Value::Fixed(x, places))
    }

    /// The value of `key`, if the row carries it.
    fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The row as a one-line JSON object, `"name"` first.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"name\": \"{}\"", self.name);
        for (key, value) in &self.fields {
            out.push_str(&format!(", \"{key}\": {value}"));
        }
        out.push('}');
        out
    }
}

/// The stdout form: `name key=value ...`.
impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        for (key, value) in &self.fields {
            write!(f, " {key}={value}")?;
        }
        Ok(())
    }
}

/// A `BENCH_*.json` report under construction: a benchmark title, a unit
/// and one rendered JSON object line per row.
#[derive(Debug)]
pub struct BenchReport {
    benchmark: String,
    unit: String,
    cases: Vec<String>,
    started: Instant,
}

impl BenchReport {
    /// Starts a report (and the wall clock the footer reports).
    pub fn new(benchmark: impl Into<String>, unit: impl Into<String>) -> Self {
        Self {
            benchmark: benchmark.into(),
            unit: unit.into(),
            cases: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Appends one row as a case line.
    pub fn push(&mut self, row: &Row) {
        self.cases.push(row.to_json());
    }

    /// Renders the report: header, one indented case object per line,
    /// footer.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"benchmark\": \"{}\",\n  \"unit\": \"{}\",\n  \"cases\": [\n",
            self.benchmark, self.unit
        );
        for (i, line) in self.cases.iter().enumerate() {
            out.push_str("    ");
            out.push_str(line);
            out.push_str(if i + 1 < self.cases.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the report to `path` and prints the standard
    /// `wrote <path> (<n> cases) in <t> s` footer.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write(&self, path: &Path) {
        let shown = path.display();
        std::fs::write(path, self.to_json()).unwrap_or_else(|e| panic!("write {shown}: {e}"));
        println!(
            "wrote {shown} ({} cases) in {:.1} s",
            self.cases.len(),
            self.started.elapsed().as_secs_f64()
        );
    }
}

/// The minimum `speedup_vs_reference` of every fast path.
pub const MIN_SPEEDUP: f64 = 1.0;

/// How a gated value must compare to its pin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pin {
    /// The value must be at least this.
    AtLeast(f64),
    /// The value must be exactly this.
    Exactly(f64),
}

impl Pin {
    /// Whether `x` satisfies the pin.
    fn holds(self, x: f64) -> bool {
        match self {
            Pin::AtLeast(min) => x >= min,
            Pin::Exactly(want) => x == want,
        }
    }
}

/// A pin on one row key, and the verdict a row that misses it gets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// The gated row key.
    pub key: &'static str,
    /// What its value must satisfy.
    pub pin: Pin,
    /// The verdict printed when it does not.
    pub verdict: &'static str,
}

/// Guaranteed processing is a correctness property, not a performance
/// number: the replay plane's survivable outages and every survivable
/// sweep group must lose no settled root.
pub const TUPLE_LOSS: Gate = Gate {
    key: "zero_loss_ratio",
    pin: Pin::Exactly(1.0),
    verdict: "TUPLE LOSS",
};

/// The scale plane's incrementally patched routing must be bit-identical
/// to a full rebuild, whatever the speedup says.
pub const PARITY: Gate = Gate {
    key: "routing_parity",
    pin: Pin::Exactly(1.0),
    verdict: "PARITY",
};

/// A fixed-seed fuzz campaign that trips an unexpected oracle (any on the
/// clean campaign, any but the planted one on the planted campaign) has
/// found a real robustness bug.
pub const ORACLE_VIOLATION: Gate = Gate {
    key: "fuzz_violations",
    pin: Pin::Exactly(0.0),
    verdict: "ORACLE VIOLATION",
};

/// R-Storm's packed placement must beat the spread baseline on an
/// oversubscribed fabric. The fair network plane is deterministic, so a
/// loss under trunk saturation is a modeling bug, not measurement noise.
pub const PACKING_LOST: Gate = Gate {
    key: "rstorm_beats_even_on_trunk",
    pin: Pin::AtLeast(1.0),
    verdict: "PACKING LOST",
};

/// A worker crash masked by a Nimbus outage must stay lossless under
/// journaled failover; losing roots on that survivable plan is a
/// control-plane correctness bug.
pub const FAILOVER_LOSS: Gate = Gate {
    key: "failover_zero_loss",
    pin: Pin::Exactly(1.0),
    verdict: "FAILOVER LOSS",
};

/// Every post-failover reconciliation audit must converge: a successor
/// whose reconciled assignment diverges from a from-scratch reschedule,
/// or that double-places or orphans a task, is a control-plane bug.
pub const RECONCILE_DIVERGED: Gate = Gate {
    key: "reconciliation_convergence",
    pin: Pin::Exactly(1.0),
    verdict: "RECONCILE DIVERGED",
};

/// Every fast path must beat the implementation it replaces: the indexed
/// scheduler, the dense simulator, the fault-injected and replaying
/// simulator, the legacy network path and the patched scale routing
/// against their references, adaptive rebalance against the static
/// placement, and the parallel sweep against the serial one.
pub const REGRESSION: Gate = Gate {
    key: "speedup_vs_reference",
    pin: Pin::AtLeast(MIN_SPEEDUP),
    verdict: "REGRESSION",
};

/// Every gate, in verdict precedence: the correctness pins come first,
/// so a row that is fast but wrong fails on what is wrong with it.
pub const GATES: [Gate; 7] = [
    TUPLE_LOSS,
    PARITY,
    ORACLE_VIOLATION,
    PACKING_LOST,
    FAILOVER_LOSS,
    RECONCILE_DIVERGED,
    REGRESSION,
];

/// The verdict on `row`: `None` if it carries no gated key, else `"ok"`
/// or the verdict of the first gate in [`GATES`] it misses.
fn verdict(row: &Row) -> Option<&'static str> {
    let mut verdict = None;
    for gate in &GATES {
        if let Some(x) = row.get(gate.key).and_then(Value::number) {
            if !gate.pin.holds(x) {
                return Some(gate.verdict);
            }
            verdict = Some("ok");
        }
    }
    verdict
}

/// Prints the verdict of every gated row of `file` and returns how many
/// there are. A file with no gated row is an error: a case must never
/// pass because it silently produced nothing.
fn gate(file: &str, rows: &[Row]) -> Result<usize, String> {
    let mut gated = 0;
    let mut failed = Vec::new();
    for row in rows {
        let Some(verdict) = verdict(row) else {
            continue;
        };
        println!("{file}: {:<40} {verdict}", row.name);
        gated += 1;
        if verdict != "ok" {
            failed.push(format!("{} {verdict}", row.name));
        }
    }
    if gated == 0 {
        Err(format!("{file}: no gated rows"))
    } else if failed.is_empty() {
        Ok(gated)
    } else {
        Err(format!("{file}: {}", failed.join(", ")))
    }
}

/// One registered benchmark case.
#[derive(Debug)]
pub struct Case {
    /// The name `bench <name>` selects it by.
    pub name: &'static str,
    /// The report file it writes.
    pub file: &'static str,
    /// The report's `"benchmark"` title.
    pub title: &'static str,
    /// The report's `"unit"`.
    pub unit: &'static str,
    /// Runs the scenario and returns its rows.
    pub run: fn() -> Vec<Row>,
}

/// Runs `case` once, writes its report into `dir` and gates its rows.
fn measure(case: &Case, dir: &Path) -> Result<usize, String> {
    let mut report = BenchReport::new(case.title, case.unit);
    let rows = (case.run)();
    for row in &rows {
        println!("{row}");
        report.push(row);
    }
    report.write(&dir.join(case.file));
    gate(case.file, &rows)
}

/// Runs, writes and gates `case`, re-measuring once if its rows fail, so
/// a single noisy sample on a busy machine is not a failure. A second
/// miss is, and its message carries both attempts.
pub fn run_gated(case: &Case, dir: &Path) -> Result<usize, String> {
    measure(case, dir).or_else(|first| {
        eprintln!("bench: re-measuring {} after: {first}", case.name);
        measure(case, dir).map_err(|second| format!("{second} (first attempt: {first})"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn median_is_order_insensitive_and_warms_up() {
        let mut calls = 0u32;
        let ns = median_ns(
            || {
                calls += 1;
            },
            |()| std::hint::black_box(()),
            Duration::ZERO,
        );
        // Warmup + MIN_ITERS samples; the median of real timings is
        // positive on any clock with ns resolution (0 allowed on coarse
        // clocks, so only sanity-check the shape).
        assert_eq!(calls, 4, "one warmup plus three samples at zero budget");
        let _ = ns;
    }

    #[test]
    fn rows_render_to_the_report_layout() {
        let mut report = BenchReport::new("demo bench", "ns");
        let a = Row::new("a")
            .with("tasks", 40_u32)
            .fixed("speedup_vs_reference", 2.0, 2);
        let b = Row::new("b")
            .with("survivable", true)
            .with("net_mean", 0.1 + 0.2)
            .with("lost_hist", Value::Counts(vec![8, 0]))
            .fixed("sim_ms", 60_000.0, 0);
        report.push(&a);
        report.push(&b);
        assert_eq!(
            report.to_json(),
            "{\n  \"benchmark\": \"demo bench\",\n  \"unit\": \"ns\",\n  \"cases\": [\n    \
             {\"name\": \"a\", \"tasks\": 40, \"speedup_vs_reference\": 2.00},\n    \
             {\"name\": \"b\", \"survivable\": true, \"net_mean\": 0.30000000000000004, \
             \"lost_hist\": [8, 0], \"sim_ms\": 60000}\n  ]\n}\n"
        );
        assert_eq!(a.to_string(), "a tasks=40 speedup_vs_reference=2.00");
    }

    #[test]
    fn every_pin_passes_and_fails_and_correctness_outranks_speed() {
        // (gate, a value that holds, a value that misses)
        let table = [
            (TUPLE_LOSS, 1.0, 0.999),
            (PARITY, 1.0, 0.0),
            (ORACLE_VIOLATION, 0.0, 1.0),
            (PACKING_LOST, 1.68, 0.97),
            (FAILOVER_LOSS, 1.0, 0.998),
            (RECONCILE_DIVERGED, 1.0, 0.5),
            (REGRESSION, 1.0, 0.99),
        ];
        assert_eq!(table.map(|(g, _, _)| g), GATES, "every gate is covered");
        for (gate, good, bad) in table {
            let row = |x: f64| Row::new("r").with(gate.key, x);
            assert_eq!(verdict(&row(good)), Some("ok"), "{}", gate.key);
            assert_eq!(verdict(&row(bad)), Some(gate.verdict), "{}", gate.key);
            if gate != REGRESSION {
                let fast_but_wrong = row(bad).fixed("speedup_vs_reference", 99.0, 2);
                assert_eq!(verdict(&fast_but_wrong), Some(gate.verdict));
            }
        }
        // The gate reads the value, not its rounded text.
        assert_eq!(
            verdict(&Row::new("r").fixed("speedup_vs_reference", 0.999, 2)),
            Some("REGRESSION")
        );
    }

    #[test]
    fn ungated_rows_pass_through_and_an_ungated_case_is_an_error() {
        let unsurvivable = Row::new("linear_net/rstorm/crash_lasting")
            .with("survivable", false)
            .with("lost_hist", Value::Counts(vec![0, 8]));
        assert_eq!(verdict(&unsurvivable), None);
        let speedup = Row::new("sweep/parallel_speedup").fixed("speedup_vs_reference", 1.0, 2);
        assert_eq!(
            gate("BENCH_x.json", &[speedup, unsurvivable.clone()]),
            Ok(1)
        );
        let err = gate("BENCH_x.json", &[unsurvivable]).unwrap_err();
        assert!(err.contains("no gated rows"), "{err}");
    }

    static FLAKY_CALLS: AtomicUsize = AtomicUsize::new(0);

    /// Misses on its first call, passes from then on.
    fn flaky() -> Vec<Row> {
        let first = FLAKY_CALLS.fetch_add(1, Ordering::SeqCst) == 0;
        let speedup = if first { 0.5 } else { 2.0 };
        vec![Row::new("flaky").fixed("speedup_vs_reference", speedup, 2)]
    }

    fn broken() -> Vec<Row> {
        vec![Row::new("broken").fixed("speedup_vs_reference", 0.5, 2)]
    }

    #[test]
    fn a_failing_case_is_re_measured_once() {
        let dir = std::env::temp_dir().join(format!("rstorm-bench-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let case = |name, run| Case {
            name,
            file: "BENCH_fake.json",
            title: "fake",
            unit: "ns",
            run,
        };

        assert_eq!(run_gated(&case("flaky", flaky), &dir), Ok(1));
        assert_eq!(FLAKY_CALLS.load(Ordering::SeqCst), 2);
        let rewritten = std::fs::read_to_string(dir.join("BENCH_fake.json")).unwrap();
        assert!(
            rewritten.contains("\"speedup_vs_reference\": 2.00"),
            "{rewritten}"
        );

        let err = run_gated(&case("broken", broken), &dir).unwrap_err();
        assert_eq!(
            err,
            "BENCH_fake.json: broken REGRESSION \
             (first attempt: BENCH_fake.json: broken REGRESSION)"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
