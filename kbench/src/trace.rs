//! In-memory spans recorded by the benchmark around its calls into each
//! layer of the program.
//!
//! A span has a name, a start, a duration, a call count, the operation it
//! belongs to (fit index, block index or request id) and the span that
//! caused it. Spans stay in memory and can be written as JSONL when the
//! run ends. A layer's self time is its spans' durations minus the part
//! their child spans cover.
//!
//! Hot layers (one cross-correlation per series) would produce millions
//! of tiny spans, so an [`Accum`] folds a burst of same-layer intervals
//! into one span whose duration is their sum and whose `calls` counts
//! them.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// Operation the span belongs to.
    op: u64,
    /// Parent span index, `None` for an operation's root.
    parent: Option<usize>,
    /// Layer or structure name.
    name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    start_ns: u64,
    /// Duration, nanoseconds.
    dur_ns: u64,
    /// Calls folded into this span.
    calls: u64,
}

/// Span recorder: a stack of open spans over a flat list of finished ones.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            parent: self.open.last().map(|&(p, _)| p),
            name,
            start_ns: self.since_origin(now),
            dur_ns: 0,
            calls: 1,
        });
        self.open.push((id, now));
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let (top, start) = self.open.pop().expect("close without open");
        assert_eq!(top, id, "spans must close innermost first");
        self.spans[id].dur_ns = start.elapsed().as_nanos() as u64;
    }

    /// Closes the innermost open span, which must be `id`, with an
    /// explicit duration: for a span that sums intervals measured
    /// elsewhere, such as the pushes of one block.
    pub fn close_as(&mut self, id: usize, dur: Duration) {
        let (top, _) = self.open.pop().expect("close without open");
        assert_eq!(top, id, "spans must close innermost first");
        self.spans[id].dur_ns = dur.as_nanos() as u64;
    }

    /// Records a finished span under the innermost open one.
    pub fn record(&mut self, name: &'static str, start: Instant, dur: Duration, calls: u64) {
        self.spans.push(Span {
            op: self.op,
            parent: self.open.last().map(|&(p, _)| p),
            name,
            start_ns: self.since_origin(start),
            dur_ns: dur.as_nanos() as u64,
            calls,
        });
    }

    /// Records the interval from `start` to now.
    pub fn since(&mut self, name: &'static str, start: Instant, calls: u64) {
        self.record(name, start, start.elapsed(), calls);
    }

    /// Self time (ns) and calls per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_ns.saturating_sub(c);
            e.1 += s.calls;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"calls\":{}}}",
                s.op, s.name, s.start_ns, s.dur_ns, s.calls
            )?;
        }
        out.flush()
    }
}

/// Folds many short intervals of one layer into one span.
#[derive(Debug)]
pub struct Accum {
    name: &'static str,
    first: Option<Instant>,
    dur: Duration,
    calls: u64,
}

impl Accum {
    /// An empty accumulator for layer `name`.
    pub fn new(name: &'static str) -> Self {
        Accum {
            name,
            first: None,
            dur: Duration::ZERO,
            calls: 0,
        }
    }

    /// Adds the interval `start..end` covering `calls` calls.
    pub fn add(&mut self, start: Instant, end: Instant, calls: u64) {
        self.first.get_or_insert(start);
        self.dur += end.saturating_duration_since(start);
        self.calls += calls;
    }

    /// Records the folded span (if any interval was added) and resets.
    pub fn flush(&mut self, tr: &mut Tracer) {
        if let Some(first) = self.first.take() {
            tr.record(self.name, first, self.dur, self.calls);
        }
        self.dur = Duration::ZERO;
        self.calls = 0;
    }
}
