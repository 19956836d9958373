//! Outside-in span recorder. The benchmark wraps every call it makes into
//! a public function of the stack in a span; spans stay in memory and are
//! written out once, when the run ends. With tracing off the workloads
//! hold `None` and record nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `name` is the layer function, `parent` the index of the
/// enclosing span (the request), `request` the request it served.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Open a span whose end is filled in by [`Tracer::close`] — for a
    /// parent whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.now();
    }

    /// Durations in µs of every span called `name` recorded at or after
    /// index `from` (a value [`Tracer::len`] returned earlier).
    pub fn micros_since(&self, name: &str, from: usize) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line: `{"name","start_ns","end_ns","parent","request"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// Time `f` into a child span of `parent` when tracing, or just run it.
pub fn span<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        None => f(),
        Some(t) => {
            let start = t.now();
            let out = f();
            let end = t.now();
            t.record(name, start, end, parent, request);
            out
        }
    }
}
