//! Per-tenant QoS admission and deadline-aware queueing: token buckets at
//! the front door, two priority lanes scheduled earliest-deadline-first
//! behind it, and a slow-start gate for cold plans.
//!
//! Three mechanisms, layered in request order:
//!
//! * **Token buckets** ([`TenantGovernor`]) — each tenant's submissions
//!   drain a bucket refilled at a configured rate. An empty bucket rejects
//!   with [`ServeError::Throttled`] *before* the request touches the queue,
//!   so one tenant flooding at 10× its allowance consumes its own budget,
//!   not the queue capacity every other tenant shares. Untagged requests
//!   bypass QoS (single-user tools, tests).
//! * **EDF lanes** ([`EdfQueue`]) — the submission queue holds two priority
//!   lanes ([`Lane::Interactive`] strictly ahead of [`Lane::Bulk`]); within
//!   a lane, dispatchers pop the earliest deadline first. Requests without
//!   deadlines sort after every deadline-carrying request in their lane and
//!   FIFO among themselves, so plain traffic behaves exactly like the old
//!   FIFO queue while deadline traffic gets the ordering the deadline
//!   machinery (PR 3) already accounts for.
//! * **Cold-plan slow start** ([`ColdGate`]) — the first dispatch of a
//!   never-built plan pays the whole plan construction. The gate caps how
//!   many requests ride a cold dispatch, starting at 1 and doubling per
//!   successful cold build, so a cache-miss tenant warming many sizes
//!   cannot monopolize a dispatcher while warm traffic waits; deferred
//!   requests are requeued (never dropped, never recounted) and served as
//!   soon as the plan is warm.

use crate::error::ServeError;
use fgsupport::sync::Mutex;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Condvar;
use std::sync::Mutex as StdMutex;
use std::time::{Duration, Instant};

/// A tenant's identity at the front door. Plain integers keep admission
/// allocation-free; map your account/API-key space onto them at the edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Which priority lane a request rides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lane {
    /// Latency-sensitive traffic; served strictly ahead of [`Lane::Bulk`].
    #[default]
    Interactive,
    /// Throughput traffic; served when no interactive work is queued.
    Bulk,
}

impl Lane {
    fn index(self) -> usize {
        match self {
            Lane::Interactive => 0,
            Lane::Bulk => 1,
        }
    }
}

/// Per-tenant token-bucket parameters.
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// Sustained admissions per second each tenant is allowed.
    pub rate: f64,
    /// Bucket depth: how many requests a tenant may burst above the
    /// sustained rate before throttling bites.
    pub burst: f64,
    /// Per-tenant overrides of `(rate, burst)`.
    pub overrides: Vec<(TenantId, f64, f64)>,
}

impl Default for QosConfig {
    fn default() -> Self {
        Self {
            rate: 1_000.0,
            burst: 100.0,
            overrides: Vec::new(),
        }
    }
}

/// One tenant's bucket: continuous refill at `rate`, capped at `burst`.
#[derive(Debug)]
struct Bucket {
    tokens: f64,
    rate: f64,
    burst: f64,
    refilled: Instant,
}

impl Bucket {
    fn take(&mut self, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.refilled).as_secs_f64();
        self.refilled = now;
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The front door's per-tenant rate limiter.
#[derive(Debug)]
pub struct TenantGovernor {
    config: QosConfig,
    buckets: Mutex<HashMap<TenantId, Bucket>>,
}

impl TenantGovernor {
    /// Governor enforcing `config` (buckets materialize per tenant on first
    /// submission, pre-filled to the burst depth).
    pub fn new(config: QosConfig) -> Self {
        Self {
            config,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Charge one admission to `tenant`'s bucket. `None` (untagged
    /// requests) always passes — QoS applies to identified tenants only.
    pub fn admit(&self, tenant: Option<TenantId>) -> Result<(), ServeError> {
        let Some(tenant) = tenant else {
            return Ok(());
        };
        let now = Instant::now();
        let mut buckets = self.buckets.lock();
        let bucket = buckets.entry(tenant).or_insert_with(|| {
            let (rate, burst) = self
                .config
                .overrides
                .iter()
                .find(|(t, _, _)| *t == tenant)
                .map(|&(_, r, b)| (r, b))
                .unwrap_or((self.config.rate, self.config.burst));
            Bucket {
                tokens: burst.max(1.0),
                rate: rate.max(f64::MIN_POSITIVE),
                burst: burst.max(1.0),
                refilled: now,
            }
        });
        if bucket.take(now) {
            Ok(())
        } else {
            Err(ServeError::Throttled { tenant })
        }
    }
}

/// Sort key of a queued entry: earliest deadline first, `None` (no
/// deadline) after every `Some`, FIFO (`seq`) within ties.
#[derive(Debug, PartialEq, Eq)]
struct EdfKey {
    deadline: Option<Instant>,
    seq: u64,
}

impl Ord for EdfKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self.deadline, other.deadline) {
            (Some(a), Some(b)) => a.cmp(&b).then(self.seq.cmp(&other.seq)),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => self.seq.cmp(&other.seq),
        }
    }
}

impl PartialOrd for EdfKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct EdfEntry<T> {
    key: EdfKey,
    value: T,
}

// BinaryHeap is a max-heap; invert so the smallest key (earliest deadline)
// surfaces first.
impl<T> Ord for EdfEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}
impl<T> PartialOrd for EdfEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> PartialEq for EdfEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for EdfEntry<T> {}

struct EdfInner<T> {
    lanes: [BinaryHeap<EdfEntry<T>>; 2],
    seq: u64,
}

impl<T> EdfInner<T> {
    fn len(&self) -> usize {
        self.lanes[0].len() + self.lanes[1].len()
    }

    fn pop(&mut self) -> Option<T> {
        // Strict lane priority: interactive drains before bulk is touched.
        for lane in &mut self.lanes {
            if let Some(entry) = lane.pop() {
                return Some(entry.value);
            }
        }
        None
    }
}

/// A bounded, two-lane, earliest-deadline-first MPMC queue — the
/// deadline-aware replacement for the FIFO submission queue.
///
/// Admission control is strict: [`EdfQueue::try_push`] fails (returning
/// the value) once `capacity` entries are queued — the backpressure signal
/// a submitter turns into an "overloaded" rejection — so the queue never
/// grows without bound. Consumers block in [`EdfQueue::pop_timeout`] with a
/// remaining-budget loop, so they can re-check shutdown flags without
/// busy-waiting.
/// [`EdfQueue::requeue`] re-inserts work the dispatcher already holds
/// (cold-gate deferrals) and deliberately ignores the capacity bound —
/// those requests were admitted once and must never be rejected or
/// recounted.
#[derive(Debug)]
pub struct EdfQueue<T> {
    inner: StdMutex<EdfInner<T>>,
    capacity: usize,
    available: Condvar,
}

impl<T> std::fmt::Debug for EdfInner<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdfInner")
            .field("interactive", &self.lanes[0].len())
            .field("bulk", &self.lanes[1].len())
            .field("seq", &self.seq)
            .finish()
    }
}

impl<T> EdfQueue<T> {
    /// New empty queue admitting at most `capacity` entries (min 1) across
    /// both lanes.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: StdMutex::new(EdfInner {
                lanes: [BinaryHeap::new(), BinaryHeap::new()],
                seq: 0,
            }),
            capacity: capacity.max(1),
            available: Condvar::new(),
        }
    }

    fn guard(&self) -> std::sync::MutexGuard<'_, EdfInner<T>> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queue depth across both lanes.
    pub fn len(&self) -> usize {
        self.guard().len()
    }

    /// Whether both lanes were empty at the time of the call.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert into `lane` ordered by `deadline`, or give the value back
    /// when the queue is at capacity. On success returns the post-push
    /// depth (for high-water tracking).
    pub fn try_push(&self, value: T, lane: Lane, deadline: Option<Instant>) -> Result<usize, T> {
        let mut q = self.guard();
        if q.len() >= self.capacity {
            return Err(value);
        }
        let seq = q.seq;
        q.seq += 1;
        q.lanes[lane.index()].push(EdfEntry {
            key: EdfKey { deadline, seq },
            value,
        });
        let depth = q.len();
        drop(q);
        self.available.notify_one();
        Ok(depth)
    }

    /// Re-insert an entry the dispatcher already popped (cold-gate
    /// deferral). Ignores the capacity bound: the entry was admitted once.
    pub fn requeue(&self, value: T, lane: Lane, deadline: Option<Instant>) {
        let mut q = self.guard();
        let seq = q.seq;
        q.seq += 1;
        q.lanes[lane.index()].push(EdfEntry {
            key: EdfKey { deadline, seq },
            value,
        });
        drop(q);
        self.available.notify_one();
    }

    /// Pop the highest-priority entry (interactive before bulk, earliest
    /// deadline within the lane) without blocking.
    pub fn try_pop(&self) -> Option<T> {
        self.guard().pop()
    }

    /// Pop the highest-priority entry, waiting up to `timeout` for one to
    /// arrive. Loops on the remaining budget — a spurious wakeup or a
    /// stolen notification re-parks for the rest of the timeout, so `None`
    /// means the full timeout elapsed empty.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut q = self.guard();
        loop {
            if let Some(v) = q.pop() {
                return Some(v);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            q = match self.available.wait_timeout(q, remaining) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

/// Slow-start window for cold-plan dispatches.
///
/// `window()` is how many requests the current cold dispatch may carry;
/// every successful cold build doubles it (up to `max`), mirroring TCP
/// slow start: the first unseen size serves one request while its plan
/// builds, and a workload that keeps warming new sizes earns a wider
/// window as builds prove cheap enough to absorb.
#[derive(Debug)]
pub struct ColdGate {
    window: std::sync::atomic::AtomicUsize,
    max: usize,
}

impl ColdGate {
    /// Gate starting at a window of 1, doubling to at most `max`.
    pub fn new(max: usize) -> Self {
        Self {
            window: std::sync::atomic::AtomicUsize::new(1),
            max: max.max(1),
        }
    }

    /// Requests the next cold dispatch may carry (≥ 1).
    pub fn window(&self) -> usize {
        self.window
            .load(std::sync::atomic::Ordering::Relaxed)
            .max(1)
    }

    /// A cold dispatch completed: double the window up to the cap.
    pub fn on_cold_built(&self) {
        let _ = self.window.fetch_update(
            std::sync::atomic::Ordering::Relaxed,
            std::sync::atomic::Ordering::Relaxed,
            |w| Some((w.saturating_mul(2)).min(self.max)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untagged_requests_bypass_qos() {
        let governor = TenantGovernor::new(QosConfig {
            rate: 0.001,
            burst: 1.0,
            overrides: Vec::new(),
        });
        for _ in 0..100 {
            governor.admit(None).expect("untagged is never throttled");
        }
    }

    #[test]
    fn bucket_throttles_past_the_burst_and_refills() {
        let governor = TenantGovernor::new(QosConfig {
            rate: 1_000_000.0, // refills a token every microsecond
            burst: 3.0,
            overrides: Vec::new(),
        });
        let t = TenantId(7);
        // The burst admits immediately...
        for _ in 0..3 {
            governor.admit(Some(t)).expect("burst admits");
        }
        // ...then a tight loop must hit Throttled at least once before
        // refill catches up.
        let mut throttled = false;
        for _ in 0..10_000 {
            if let Err(ServeError::Throttled { tenant }) = governor.admit(Some(t)) {
                assert_eq!(tenant, t);
                throttled = true;
                break;
            }
        }
        assert!(throttled, "a tight loop must outrun the refill");
        // After a real pause the bucket readmits.
        std::thread::sleep(Duration::from_millis(5));
        governor.admit(Some(t)).expect("refilled");
    }

    #[test]
    fn overrides_take_precedence_and_tenants_are_independent() {
        let governor = TenantGovernor::new(QosConfig {
            rate: 0.000_001, // effectively no refill within the test
            burst: 1.0,
            overrides: vec![(TenantId(1), 0.000_001, 5.0)],
        });
        // Tenant 1's override gives it a burst of 5.
        for _ in 0..5 {
            governor.admit(Some(TenantId(1))).expect("override burst");
        }
        assert!(governor.admit(Some(TenantId(1))).is_err());
        // Tenant 2 still has its own default bucket.
        governor
            .admit(Some(TenantId(2)))
            .expect("independent bucket");
        assert!(governor.admit(Some(TenantId(2))).is_err());
    }

    #[test]
    fn edf_orders_by_deadline_then_fifo() {
        let q: EdfQueue<&str> = EdfQueue::new(8);
        let now = Instant::now();
        q.try_push(
            "late",
            Lane::Interactive,
            Some(now + Duration::from_secs(3)),
        )
        .unwrap();
        q.try_push("none-a", Lane::Interactive, None).unwrap();
        q.try_push(
            "early",
            Lane::Interactive,
            Some(now + Duration::from_secs(1)),
        )
        .unwrap();
        q.try_push("none-b", Lane::Interactive, None).unwrap();
        q.try_push("mid", Lane::Interactive, Some(now + Duration::from_secs(2)))
            .unwrap();
        let order: Vec<&str> = std::iter::from_fn(|| q.try_pop()).collect();
        assert_eq!(
            order,
            vec!["early", "mid", "late", "none-a", "none-b"],
            "deadlines first (earliest leading), then FIFO among deadline-less"
        );
    }

    #[test]
    fn interactive_lane_preempts_bulk() {
        let q: EdfQueue<u32> = EdfQueue::new(8);
        let soon = Some(Instant::now() + Duration::from_millis(1));
        q.try_push(1, Lane::Bulk, soon).unwrap();
        q.try_push(2, Lane::Interactive, None).unwrap();
        q.try_push(3, Lane::Bulk, None).unwrap();
        // Even a deadline-carrying bulk entry waits for interactive work.
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(3));
    }

    #[test]
    fn capacity_bounds_try_push_but_not_requeue() {
        let q: EdfQueue<u32> = EdfQueue::new(2);
        assert_eq!(q.try_push(1, Lane::Interactive, None), Ok(1));
        assert_eq!(q.try_push(2, Lane::Bulk, None), Ok(2));
        assert_eq!(q.try_push(3, Lane::Interactive, None), Err(3));
        q.requeue(4, Lane::Interactive, None);
        assert_eq!(q.len(), 3, "requeue bypasses the bound");
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(4));
        assert_eq!(q.try_pop(), Some(2));
    }

    #[test]
    fn pop_timeout_wakes_on_push() {
        let q = std::sync::Arc::new(EdfQueue::new(4));
        let q2 = std::sync::Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(42u32, Lane::Interactive, None).unwrap();
        assert_eq!(t.join().unwrap(), Some(42));
    }

    #[test]
    fn pop_timeout_expires_empty() {
        let q: EdfQueue<u32> = EdfQueue::new(4);
        let start = Instant::now();
        assert_eq!(q.pop_timeout(Duration::from_millis(20)), None);
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn cold_gate_slow_starts_and_caps() {
        let gate = ColdGate::new(8);
        assert_eq!(gate.window(), 1);
        gate.on_cold_built();
        assert_eq!(gate.window(), 2);
        gate.on_cold_built();
        assert_eq!(gate.window(), 4);
        gate.on_cold_built();
        gate.on_cold_built();
        assert_eq!(gate.window(), 8, "capped at max");
    }
}
