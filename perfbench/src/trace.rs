//! An in-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its calls into the library
//! (one thread, so spans nest strictly).  Each span has a name, a start and
//! an end relative to the recorder's epoch, and the index of its parent.
//! Nothing is written while the benchmark runs; [`Recorder::write_chrome`]
//! exports the spans as Chrome trace-event JSON once it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
struct Span {
    /// Metric-style name, `<module>.<call>`.
    name: &'static str,
    /// Seconds since the recorder was created.
    start: f64,
    /// Seconds since the recorder was created (`NaN` while open).
    end: f64,
    /// Index of the enclosing span, `None` for a root.
    parent: Option<usize>,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub(crate) struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Recorder {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub(crate) fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Opens a span; pair with [`Recorder::close`].  Use this form when the
    /// body itself records child spans.
    pub(crate) fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: f64::NAN, parent });
        self.open.push(id);
        id
    }

    /// Closes the span `id`, which must be the innermost open one.
    pub(crate) fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.now();
    }

    /// Wall seconds of the span `id`.
    pub(crate) fn duration(&self, id: usize) -> f64 {
        self.spans[id].duration()
    }

    /// Self time per span name: each span's duration minus the durations of
    /// its direct children, summed over spans of the same name.  Children
    /// nest strictly inside their parent, so the self times of every span
    /// under a root add up to the root's duration exactly (up to rounding).
    pub(crate) fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.duration();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_time) {
            *out.entry(span.name).or_insert(0.0) += span.duration() - children;
        }
        out
    }

    /// Writes the spans as Chrome trace-event JSON (complete events, one
    /// thread), loadable in `chrome://tracing` or Perfetto.
    pub(crate) fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                span.start * 1e6,
                span.duration() * 1e6,
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut rec = Recorder::default();
        let root = rec.open("run");
        rec.span("a", || std::thread::sleep(std::time::Duration::from_millis(2)));
        let b = rec.open("b");
        rec.span("a", || std::thread::sleep(std::time::Duration::from_millis(1)));
        rec.close(b);
        rec.close(root);
        let times = rec.self_times();
        let sum: f64 = times.values().sum();
        assert!((sum - rec.duration(root)).abs() < 1e-9);
        assert!(times["a"] >= 0.003);
    }
}
