//! Execution-span tracing: record when each codelet ran and on which
//! worker thread, for schedule visualization and post-hoc analysis (the
//! host-side analogue of the simulator's bank traces).
//!
//! ```
//! use codelet::graph::ExplicitGraph;
//! use codelet::pool::PoolDiscipline;
//! use codelet::runtime::Runtime;
//! use codelet::trace::SpanRecorder;
//!
//! let g = ExplicitGraph::new(8);
//! let recorder = SpanRecorder::new();
//! let rt = Runtime::with_workers(2);
//! rt.run(&g, PoolDiscipline::Lifo, recorder.wrap(|_id| { /* work */ }));
//! let trace = recorder.finish();
//! assert_eq!(trace.spans.len(), 8);
//! ```

use crate::graph::CodeletId;
use fgsupport::sync::Mutex;
use std::time::Instant;

/// One recorded codelet execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which codelet ran.
    pub codelet: CodeletId,
    /// Dense worker index (assigned in order of first appearance).
    pub worker: usize,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds. Saturating: `Instant` arithmetic on
    /// hosts with coarse clocks can hand back equal (and, through rounding
    /// to `u64`, formally out-of-order) timestamps for zero-length bodies,
    /// and a duration must never panic over that.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from a body closure running on many workers.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    state: Mutex<RecorderState>,
}

#[derive(Debug, Default)]
struct RecorderState {
    spans: Vec<Span>,
    threads: Vec<std::thread::ThreadId>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// New recorder; the epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            state: Mutex::new(RecorderState::default()),
        }
    }

    /// Wrap a codelet body so every invocation is recorded.
    pub fn wrap<'a, F>(&'a self, body: F) -> impl Fn(CodeletId) + Sync + 'a
    where
        F: Fn(CodeletId) + Sync + 'a,
    {
        move |id| {
            let start = self.epoch.elapsed().as_nanos() as u64;
            body(id);
            let end = self.epoch.elapsed().as_nanos() as u64;
            let tid = std::thread::current().id();
            let mut st = self.state.lock();
            let worker = match st.threads.iter().position(|&t| t == tid) {
                Some(w) => w,
                None => {
                    st.threads.push(tid);
                    st.threads.len() - 1
                }
            };
            st.spans.push(Span {
                codelet: id,
                worker,
                start_ns: start,
                end_ns: end,
            });
        }
    }

    /// Consume the recorder, returning the trace (spans sorted by start).
    pub fn finish(self) -> Trace {
        let st = self.state.into_inner();
        let mut spans = st.spans;
        spans.sort_by_key(|s| (s.start_ns, s.codelet));
        Trace {
            workers: st.threads.len(),
            spans,
        }
    }
}

/// A completed execution trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Number of distinct worker threads observed.
    pub workers: usize,
    /// All spans, sorted by start time.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Wall span of the trace in nanoseconds (first start to last end).
    pub fn makespan_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        end - start
    }

    /// Busy nanoseconds per worker.
    pub fn busy_per_worker(&self) -> Vec<u64> {
        let mut busy = vec![0u64; self.workers];
        for s in &self.spans {
            busy[s.worker] += s.duration_ns();
        }
        busy
    }

    /// Mean worker utilization over the makespan (0..=1).
    pub fn utilization(&self) -> f64 {
        let make = self.makespan_ns();
        if make == 0 || self.workers == 0 {
            return 0.0;
        }
        let busy: u64 = self.busy_per_worker().iter().sum();
        busy as f64 / (make as f64 * self.workers as f64)
    }

    /// Spans executed by `worker`, in start order.
    pub fn worker_spans(&self, worker: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.worker == worker)
    }

    /// Render an ASCII Gantt chart: one row per worker, `width` columns of
    /// time, each cell showing how busy the worker was in that slice
    /// (' ', '░', '▒', '▓', '█').
    pub fn gantt(&self, width: usize) -> String {
        if self.spans.is_empty() || width == 0 {
            return String::new();
        }
        let t0 = self.spans.iter().map(|s| s.start_ns).min().unwrap();
        let t1 = self
            .spans
            .iter()
            .map(|s| s.end_ns)
            .max()
            .unwrap()
            .max(t0 + 1);
        let cell = ((t1 - t0) as f64 / width as f64).max(1.0);
        let mut rows = vec![vec![0f64; width]; self.workers];
        for s in &self.spans {
            let a = (s.start_ns - t0) as f64 / cell;
            let b = (s.end_ns - t0) as f64 / cell;
            let first = a.floor() as usize;
            let last = (b.ceil() as usize).min(width);
            for (c, slot) in rows[s.worker].iter_mut().enumerate().take(last).skip(first) {
                let lo = a.max(c as f64);
                let hi = b.min(c as f64 + 1.0);
                *slot += (hi - lo).max(0.0);
            }
        }
        let glyph = |f: f64| match (f * 4.0).round() as u32 {
            0 => ' ',
            1 => '░',
            2 => '▒',
            3 => '▓',
            _ => '█',
        };
        let mut out = String::new();
        for (w, row) in rows.iter().enumerate() {
            out.push_str(&format!("w{w:2} |"));
            for &f in row {
                out.push(glyph(f.clamp(0.0, 1.0)));
            }
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ExplicitGraph;
    use crate::pool::PoolDiscipline;
    use crate::runtime::Runtime;

    #[test]
    fn records_one_span_per_codelet() {
        let g = ExplicitGraph::new(32);
        let rec = SpanRecorder::new();
        let rt = Runtime::with_workers(4);
        rt.run(
            &g,
            PoolDiscipline::Lifo,
            rec.wrap(|_| {
                std::hint::black_box(0u64);
            }),
        );
        let trace = rec.finish();
        assert_eq!(trace.spans.len(), 32);
        let mut ids: Vec<_> = trace.spans.iter().map(|s| s.codelet).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..32).collect::<Vec<_>>());
        assert!(trace.workers >= 1 && trace.workers <= 4);
    }

    #[test]
    fn spans_are_well_formed_and_sorted() {
        let g = ExplicitGraph::new(16);
        let rec = SpanRecorder::new();
        let rt = Runtime::with_workers(2);
        rt.run(&g, PoolDiscipline::Lifo, rec.wrap(|_| {}));
        let trace = rec.finish();
        for s in &trace.spans {
            assert!(s.end_ns >= s.start_ns);
            assert!(s.worker < trace.workers);
        }
        assert!(trace
            .spans
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn dependency_order_is_visible_in_spans() {
        let mut g = ExplicitGraph::new(2);
        g.add_edge(0, 1);
        let rec = SpanRecorder::new();
        let rt = Runtime::with_workers(2);
        rt.run(
            &g,
            PoolDiscipline::Lifo,
            rec.wrap(|_| {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }),
        );
        let trace = rec.finish();
        let s0 = trace.spans.iter().find(|s| s.codelet == 0).unwrap();
        let s1 = trace.spans.iter().find(|s| s.codelet == 1).unwrap();
        assert!(s1.start_ns >= s0.end_ns, "child overlapped parent");
    }

    #[test]
    fn utilization_and_busy_accounting() {
        let g = ExplicitGraph::new(8);
        let rec = SpanRecorder::new();
        let rt = Runtime::with_workers(2);
        rt.run(
            &g,
            PoolDiscipline::Lifo,
            rec.wrap(|_| {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }),
        );
        let trace = rec.finish();
        let u = trace.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        assert_eq!(trace.busy_per_worker().len(), trace.workers);
    }

    #[test]
    fn gantt_renders_rows() {
        let g = ExplicitGraph::new(8);
        let rec = SpanRecorder::new();
        let rt = Runtime::with_workers(2);
        rt.run(
            &g,
            PoolDiscipline::Lifo,
            rec.wrap(|_| {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }),
        );
        let trace = rec.finish();
        let chart = trace.gantt(40);
        assert_eq!(chart.lines().count(), trace.workers);
        assert!(chart.lines().all(|l| l.len() >= 40));
    }

    #[test]
    fn zero_length_span_has_zero_duration() {
        let s = Span {
            codelet: 0,
            worker: 0,
            start_ns: 1_000,
            end_ns: 1_000,
        };
        assert_eq!(s.duration_ns(), 0);
        // Clock-rounding can even invert the endpoints; saturate, don't panic.
        let inverted = Span {
            codelet: 0,
            worker: 0,
            start_ns: 1_001,
            end_ns: 1_000,
        };
        assert_eq!(inverted.duration_ns(), 0);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let rec = SpanRecorder::new();
        let trace = rec.finish();
        assert_eq!(trace.makespan_ns(), 0);
        assert_eq!(trace.utilization(), 0.0);
        assert!(trace.gantt(20).is_empty());
    }
}
