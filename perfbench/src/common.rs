//! Pieces every workload shares: seeded inputs with their references, the
//! closed loop with its pausable clock, per-pass planner counts,
//! and the result record.

use crate::trace::Tracer;
use fgfft::planner::{Plan, PlanKey, PlannerStats};
use fgfft::{Complex64, TransformKind, Version};
use fgsupport::rng::Rng64;
use std::time::{Duration, Instant};

/// The schedule every workload plans under: the library default.
pub const VERSION: Version = Version::FineGuided;

/// The plan key the serving layer derives for `kind` at size `2^n_log2`.
pub fn key(kind: TransformKind, n_log2: u32) -> PlanKey {
    PlanKey::with_kind(kind, 1 << n_log2, VERSION, VERSION.layout(), 6)
}

/// Short text form of a key, e.g. `c2c2d:6x6@12`.
pub fn key_name(key: &PlanKey) -> String {
    format!("{}@{}", key.kind.as_string(), key.n_log2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Generated inputs for one plan key and their references: `Plan::execute`
/// on the same input, computed once before anything is timed.
pub struct Case {
    pub key: PlanKey,
    pub inputs: Vec<Vec<Complex64>>,
    pub refs: Vec<Vec<Complex64>>,
}

impl Case {
    pub fn new(key: PlanKey, count: usize, rng: &mut Rng64) -> Self {
        let plan = Plan::build(key);
        let runtime = codelet::runtime::Runtime::with_workers(1);
        let inputs: Vec<Vec<Complex64>> = (0..count)
            .map(|_| {
                (0..key.buffer_len())
                    .map(|_| {
                        Complex64::new(rng.gen_range_f64(-1.0..1.0), rng.gen_range_f64(-1.0..1.0))
                    })
                    .collect()
            })
            .collect();
        let refs = inputs
            .iter()
            .map(|input| {
                let mut out = input.clone();
                plan.execute(&mut out, &runtime);
                out
            })
            .collect();
        Self { key, inputs, refs }
    }
}

/// Bit-for-bit equality of two sample buffers.
pub fn same_bits(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Run parameters from the command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for sockets and span files (inside the working directory).
    pub out_dir: std::path::PathBuf,
}

impl Ctx {
    /// A seeded generator for one purpose of this run.
    pub fn rng(&self, stream: u64) -> Rng64 {
        Rng64::seed_from_u64(self.seed.wrapping_mul(0x9e37_79b9).wrapping_add(stream))
    }
}

/// Alternating untraced/traced slices of a traced run, so both modes see
/// the same drift and their throughput ratio is the tracing overhead.
const TRACE_SLICES: u32 = 8;

/// The run is cut into this many equal windows of active time;
/// `throughput_per_s` is the median of their completion rates, so a burst
/// of interference from outside skews a few windows, not the figure.
const WINDOWS: usize = 25;

/// Per-mode totals of the closed loop (index 0 untraced, 1 traced).
#[derive(Debug, Default, Clone, Copy)]
struct ModeTotals {
    completed: u64,
    active: Duration,
}

/// The closed loop: one client, the next request only after the previous
/// completes, for `seconds` of active time. Verification runs with the
/// clock paused, so it is outside every timed interval.
pub struct ClosedLoop {
    seconds: f64,
    tracing: bool,
    started: Instant,
    paused_total: Duration,
    paused_at: Option<Instant>,
    last_mark: Duration,
    current_traced: bool,
    in_request: bool,
    modes: [ModeTotals; 2],
    /// Per window: requests begun in it that completed, and the active
    /// time from each such request's start to the next one's.
    windows: [(u64, Duration); WINDOWS],
    current_window: usize,
    pub latencies_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Option<Tracer>,
    untraced: Option<Tracer>,
}

impl ClosedLoop {
    pub fn new(ctx: &Ctx) -> Self {
        Self {
            seconds: ctx.seconds,
            tracing: ctx.trace,
            started: Instant::now(),
            paused_total: Duration::ZERO,
            paused_at: None,
            last_mark: Duration::ZERO,
            current_traced: false,
            in_request: false,
            modes: [ModeTotals::default(); 2],
            windows: [(0, Duration::ZERO); WINDOWS],
            current_window: 0,
            latencies_us: Vec::with_capacity(1 << 16),
            attempted: 0,
            failed: 0,
            tracer: ctx.trace.then(Tracer::new),
            untraced: None,
        }
    }

    fn active(&self) -> Duration {
        let paused = self.paused_total + self.paused_at.map_or(Duration::ZERO, |at| at.elapsed());
        self.started.elapsed() - paused
    }

    /// Whether the next of `total` side measurements (set-ups, cold passes)
    /// spread evenly over the run is due, `done` having been taken. Spread
    /// out, with the clock paused, they sample the host's state across the
    /// whole run as the timed requests do, not just its first moments.
    pub fn due(&self, done: usize, total: usize) -> bool {
        done < total && self.active().as_secs_f64() / self.seconds >= done as f64 / total as f64
    }

    /// Charge active time since the last mark to the current mode.
    fn mark(&mut self) {
        let now = self.active();
        if self.in_request {
            let spent = now - self.last_mark;
            self.modes[self.current_traced as usize].active += spent;
            self.windows[self.current_window].1 += spent;
        }
        self.last_mark = now;
    }

    /// Start the next request; `None` once the run's time is used up.
    pub fn begin(&mut self) -> Option<()> {
        self.mark();
        let elapsed = self.active().as_secs_f64();
        if elapsed >= self.seconds {
            self.in_request = false;
            return None;
        }
        let slice = (elapsed / self.seconds * f64::from(TRACE_SLICES)) as u32;
        self.current_traced = self.tracing && slice % 2 == 1;
        self.current_window = ((elapsed / self.seconds * WINDOWS as f64) as usize).min(WINDOWS - 1);
        self.in_request = true;
        self.attempted += 1;
        Some(())
    }

    /// The tracer for the request in progress (`None` in untraced slices).
    pub fn tracer(&mut self) -> &mut Option<Tracer> {
        if self.current_traced {
            &mut self.tracer
        } else {
            &mut self.untraced
        }
    }

    /// Record the request in progress: its latency, or `None` if it failed.
    pub fn finish(&mut self, latency: Option<Duration>) {
        match latency {
            Some(latency) => {
                self.latencies_us.push(latency.as_secs_f64() * 1e6);
                self.modes[self.current_traced as usize].completed += 1;
                self.windows[self.current_window].0 += 1;
            }
            None => self.failed += 1,
        }
    }

    pub fn pause(&mut self) {
        self.paused_at.get_or_insert_with(Instant::now);
    }

    pub fn resume(&mut self) {
        if let Some(at) = self.paused_at.take() {
            self.paused_total += at.elapsed();
        }
    }

    /// Median over the run's windows of requests completed per second.
    pub fn window_throughput(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .windows
            .iter()
            .filter(|(_, active)| !active.is_zero())
            .map(|&(n, active)| n as f64 / active.as_secs_f64())
            .collect();
        crate::stats::median(&mut rates)
    }

    /// Completed requests per second of active time in one mode.
    pub fn throughput(&self, traced: bool) -> f64 {
        let m = self.modes[traced as usize];
        m.completed as f64 / m.active.as_secs_f64()
    }
}

/// Planner counts of one pass over a workload's fixed request sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassCounts {
    pub hits: u64,
    pub misses: u64,
    pub builds: u64,
    pub evictions: u64,
}

/// Planner snapshots at pass boundaries. Every pass replays the same
/// sequence, so every pass after the first must produce the same counts:
/// a difference is an error, not noise.
#[derive(Debug, Default)]
pub struct PassLog {
    last: Option<PlannerStats>,
    pub passes: Vec<PassCounts>,
    pub resident_high_water: u64,
}

impl PassLog {
    pub fn boundary(&mut self, stats: PlannerStats) {
        if let Some(prev) = self.last {
            self.passes.push(PassCounts {
                hits: stats.hits - prev.hits,
                misses: stats.misses - prev.misses,
                builds: stats.built - prev.built,
                evictions: stats.evictions - prev.evictions,
            });
        }
        self.observe(stats.resident_bytes);
        self.last = Some(stats);
    }

    /// Continue on a fresh planner: the next pass is counted from `stats`.
    pub fn restart(&mut self, stats: PlannerStats) {
        self.observe(stats.resident_bytes);
        self.last = Some(stats);
    }

    /// Fold a resident-bytes reading into the high-water mark.
    pub fn observe(&mut self, resident_bytes: u64) {
        self.resident_high_water = self.resident_high_water.max(resident_bytes);
    }

    /// The steady per-pass counts (every pass after the first), or an
    /// error when they differ or no steady pass completed.
    pub fn steady(&self) -> Result<PassCounts, String> {
        let steady = self.passes.get(1..).unwrap_or(&[]);
        let Some(first) = steady.first() else {
            return Err(format!(
                "only {} full pass(es) completed; need 2 for steady counts",
                self.passes.len()
            ));
        };
        match steady.iter().find(|p| *p != first) {
            Some(other) => Err(format!(
                "deterministic planner counts differ between passes: {first:?} vs {other:?}"
            )),
            None => Ok(*first),
        }
    }
}

/// A metric as printed: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures; any entry fails the run.
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Sample count behind each timing.
    pub samples: Vec<(String, usize)>,
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng64) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}
