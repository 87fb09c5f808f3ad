//! Spans and counters recorded around the benchmark's calls into the
//! library's layers.
//!
//! A span holds a name, its start and end, the span that was open when it
//! began (its parent) and the id of the benchmark op it belongs to. Spans
//! stay in memory and are written out once, when the run ends. With tracing
//! off, [`Tracer::span`] only calls its closure, so the untraced run pays
//! for no clock reads beyond the benchmark's own per-op timer.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Span names that start with this prefix are the benchmark's own op
/// spans: they group layer spans but belong to no layer.
pub const OP_PREFIX: &str = "op.";

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub calls: u64,
    /// Sum of durations minus the time covered by child spans.
    pub self_ns: u64,
}

/// The span and counter recorder. One per run; single-threaded.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder with tracing off; see [`Tracer::set_enabled`].
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between rounds.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    /// Marks the start of the next benchmark op; later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name` when tracing is on.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds `value` to a work counter when tracing is on.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.counters.entry(name).or_insert(0.0) += value;
        }
    }

    pub fn counters(&self) -> &BTreeMap<&'static str, f64> {
        &self.counters
    }

    /// Calls and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// Nanoseconds covered by layer spans (every span that is not an op
    /// span). Layer spans nest only inside op spans or each other, so the
    /// sum of their self times is the union of the intervals they cover.
    pub fn layer_ns(&self) -> u64 {
        self.totals()
            .iter()
            .filter(|(name, _)| !name.starts_with(OP_PREFIX))
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// Durations in milliseconds of the spans whose name starts with
    /// `prefix`.
    pub fn durations_ms(&self, prefix: &str) -> impl Iterator<Item = f64> + '_ {
        let prefix = prefix.to_string();
        self.spans
            .iter()
            .filter(move |s| s.name.starts_with(&prefix))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    /// Writes every span as one tab-separated line.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(out, "{i}\t{parent}\t{}\t{}\t{}\t{}", s.op, s.name, s.start_ns, s.end_ns)?;
        }
        Ok(())
    }
}
