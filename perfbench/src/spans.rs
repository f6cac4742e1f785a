//! In-memory spans for the traced run.
//!
//! Every span is timed from this benchmark's own code around a call into
//! one layer's public functions. A span carries the batch or tick id it
//! belongs to and the span that caused it; spans stay in memory until the
//! run ends, then [`write_csv`] writes them out and the per-layer metrics
//! are folded from them.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A traced phase records spans for one batch or round in this many, which
/// keeps a run's spans to tens of megabytes; the calls in between still
/// run, untimed.
pub const TRACE_EVERY: u64 = 8;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `proto.encode_req`.
    pub name: &'static str,
    /// Unique within a run.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The batch id (wire workloads, `tenant-day` dispatch) or tick id
    /// (settlement) this span belongs to.
    pub key: u64,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `thread` whose timestamps count from `origin`.
    pub fn new(origin: Instant, thread: u64) -> Tracer {
        Tracer {
            origin,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = (self.thread << 40) | self.next;
        self.next += 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            key,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
        id
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Mean duration of the spans named `name`, in microseconds (0 if none).
pub fn mean_us(spans: &[Span], name: &str) -> f64 {
    let (sum, n) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(sum, n), s| (sum + s.dur_ns, n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64 / 1e3
    }
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Writes spans as CSV (`id,parent,name,key,start_ns,dur_ns`), ordered by
/// start time.
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,name,key,start_ns,dur_ns")?;
    for s in ordered {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.id, parent, s.name, s.key, s.start_ns, s.dur_ns
        )?;
    }
    out.flush()
}
