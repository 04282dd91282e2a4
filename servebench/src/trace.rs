//! Spans recorded by the benchmark around its calls into each layer, held
//! in memory and written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call (or batch of calls) into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer function, e.g. `tokenizer.feed`.
    pub name: &'static str,
    /// The ladder pass, or the wire connection.
    pub lane: usize,
    /// The document (or publish, or slot) the call worked on.
    pub item: usize,
    /// Start, in nanoseconds since the phase began.
    pub start_ns: u64,
    /// End, in nanoseconds since the phase began.
    pub end_ns: u64,
}

impl Span {
    /// The span from `start` to `end`, relative to `origin`.
    pub fn between(
        name: &'static str,
        lane: usize,
        item: usize,
        origin: Instant,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            name,
            lane,
            item,
            start_ns: (start - origin).as_nanos() as u64,
            end_ns: (end - origin).as_nanos() as u64,
        }
    }

    /// Its duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans for one lane at a time.
pub struct Tracer {
    origin: Instant,
    /// The lane new spans are recorded on.
    pub lane: usize,
    /// Everything recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            lane: 0,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, item: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span::between(
            name,
            self.lane,
            item,
            self.origin,
            start,
            end,
        ));
        out
    }
}

/// Total time of the spans named `name` whose item `keep` admits, in
/// nanoseconds.
pub fn total(spans: &[Span], name: &str, keep: impl Fn(usize) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s.item))
        .map(|s| s.ns() as f64)
        .sum()
}

/// Writes spans as tab-separated `name lane item start_ns end_ns` lines.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tlane\titem\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.lane, s.item, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
