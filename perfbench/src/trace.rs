//! In-memory span recorder for the traced run.
//!
//! A span wraps one call into a layer's public function. Each span holds
//! its name, start and end (nanoseconds since the recorder was created),
//! the span that encloses it, and the job it belongs to. With tracing
//! off, [`Tracer::span`] only calls the closure.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `sched` or `job.congestion`.
    pub name: String,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job id shared by every span of one job.
    pub job: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans when enabled; a pass-through otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// An empty recorder on the same clock, for a worker thread; its
    /// spans come back through [`Tracer::absorb`].
    pub fn child(&self) -> Self {
        Self {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Appends a worker's spans, its root spans under the span open here.
    pub fn absorb(&mut self, child: Tracer) {
        let base = self.spans.len();
        let under = self.open.last().copied();
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(under);
            s
        }));
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the job id stamped on spans opened from now on.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + s.ms())
    }

    /// Milliseconds of leaf spans (spans that enclose no other span) below
    /// a root: the time the layer calls account for.
    pub fn leaf_ms(&self) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        self.spans
            .iter()
            .zip(&has_child)
            .filter(|(s, child)| !**child && s.parent.is_some())
            .fold(0.0, |total, (s, _)| total + s.ms())
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"job\": {}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", |t| t.span("b", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_job_ids() {
        let mut t = Tracer::new(true);
        t.span("rep", |t| {
            t.set_job(3);
            t.span("job", |t| t.span("run", |_| ()));
        });
        let names: Vec<&str> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["rep", "job", "run"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[2].job, 3);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(t.leaf_ms() <= t.spans()[0].ms());
    }

    #[test]
    fn absorbed_worker_spans_hang_under_the_open_span() {
        let mut t = Tracer::new(true);
        let mut w = t.child();
        w.set_job(9);
        w.span("job", |w| w.span("run", |_| ()));
        t.span("rep", |t| {
            t.span("sweep", |t| t.absorb(w));
        });
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(2)]);
        assert_eq!(t.spans()[3].job, 9);
    }
}
