//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records its name, start, end, parent and run (one run per
//! traced pass). Spans stay in memory and are written as JSON lines when
//! the benchmark ends. A span's self time is its duration minus the time
//! its children cover; the benchmark is single-threaded while tracing, so
//! children never overlap and that is the sum of their durations.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// The traced pass this span belongs to.
    pub run: usize,
    /// The layer call, e.g. `tiny.parse`.
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time (0 while the span is open).
    pub end_ns: u64,
}

/// Records spans, or only runs the wrapped calls when disabled (the
/// untraced pass that measures the tracing overhead).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            run: self.run,
            name,
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("end() matches a begin()");
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Starts the next traced pass.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by index.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Total self time, in milliseconds, of the spans named `name` in the
    /// current run.
    pub fn self_ms(&self, name: &str) -> f64 {
        let own = self.self_ns();
        let ns: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.run == self.run && s.name == name)
            .map(|(_, &n)| n)
            .sum();
        ns as f64 / 1e6
    }

    /// The spans as JSON lines: `id`, `run`, `name`, `parent` (null at a
    /// root), `start_ns`, `end_ns` and `self_ns`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"run\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.begin("root");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("child", || ());
        t.end();
        let own = t.self_ns();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        let children: u64 = s[1..].iter().map(|c| c.end_ns - c.start_ns).sum();
        assert_eq!(own[0], s[0].end_ns - s[0].start_ns - children);
        assert!(t.self_ms("child") >= 2.0);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
