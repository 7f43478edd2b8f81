//! Spans around the benchmark's calls into each layer's public
//! functions, kept in memory and written out when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `dbt.fused_run`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the log's origin.
    pub end_ns: u64,
}

/// The spans of one thread.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

fn nanos_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl SpanLog {
    /// An empty log timed from `origin` (share it across threads so
    /// that merged logs line up).
    #[must_use]
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = nanos_since(self.origin);
        let value = f();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: nanos_since(self.origin),
        });
        value
    }

    /// Moves `other`'s spans into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Durations of the spans named `name`, in milliseconds.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span to `path`.
    ///
    /// # Errors
    ///
    /// File creation and write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_span_times_its_call() {
        let mut log = SpanLog::new(Instant::now());
        let v = log.span("sleep", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        let d = log.durations_ms("sleep");
        assert_eq!(d.len(), 1);
        assert!(d[0] >= 2.0);
        assert!(log.durations_ms("other").is_empty());
    }

    #[test]
    fn absorb_keeps_every_span() {
        let origin = Instant::now();
        let mut a = SpanLog::new(origin);
        a.span("x", || ());
        let mut b = SpanLog::new(origin);
        b.span("x", || ());
        b.span("y", || ());
        a.absorb(b);
        assert_eq!(a.durations_ms("x").len(), 2);
        assert_eq!(a.durations_ms("y").len(), 1);
    }
}
